//! Typed persistence failures.
//!
//! Every way a snapshot can be wrong — foreign file, future format,
//! bit rot, truncation, or a payload that decodes to structurally
//! impossible values — has its own variant, so callers can distinguish
//! "not ours" from "damaged" from "newer than this binary". Nothing in
//! this crate panics on bad input.

use std::fmt;

/// Why an encode or decode failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The buffer does not start with the snapshot magic — it is not a
    /// brainshift snapshot at all.
    BadMagic {
        /// The first bytes actually found (up to the magic's length).
        found: Vec<u8>,
    },
    /// The snapshot's format version is not one this reader supports.
    UnsupportedVersion {
        /// The version recorded in the snapshot.
        found: u32,
        /// The one version this reader understands.
        supported: u32,
    },
    /// A section's FNV-1a content checksum does not match its payload —
    /// the snapshot was corrupted after it was written.
    ChecksumMismatch {
        /// Name of the damaged section.
        section: String,
        /// Checksum recorded in the section table.
        expected: u64,
        /// Checksum of the bytes actually present.
        actual: u64,
    },
    /// The input ended before the value did.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// The value is complete but the remaining bytes were not consumed —
    /// the payload is longer than the value it claims to hold.
    TrailingBytes {
        /// Unconsumed bytes.
        remaining: usize,
    },
    /// A section the caller requires is absent from the snapshot.
    MissingSection {
        /// The missing section's name.
        name: String,
    },
    /// The bytes decoded but the value they describe is impossible
    /// (length mismatch, out-of-range index, invalid enum tag, …).
    InvalidData {
        /// What was wrong.
        reason: String,
    },
    /// An I/O failure while reading or writing a snapshot file.
    Io {
        /// The rendered `std::io::Error`.
        reason: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadMagic { found } => {
                write!(f, "not a brainshift snapshot (leading bytes {found:02x?})")
            }
            PersistError::UnsupportedVersion { found, supported } => {
                write!(f, "snapshot format version {found} unsupported (this reader reads only version {supported})")
            }
            PersistError::ChecksumMismatch { section, expected, actual } => {
                write!(f, "section '{section}' checksum mismatch: expected {expected:016x}, got {actual:016x}")
            }
            PersistError::Truncated { needed, remaining } => {
                write!(f, "truncated input: needed {needed} bytes, {remaining} remain")
            }
            PersistError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete value")
            }
            PersistError::MissingSection { name } => write!(f, "snapshot has no section '{name}'"),
            PersistError::InvalidData { reason } => write!(f, "invalid data: {reason}"),
            PersistError::Io { reason } => write!(f, "snapshot i/o: {reason}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io { reason: e.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_descriptive() {
        let cases: Vec<(PersistError, &str)> = vec![
            (PersistError::BadMagic { found: vec![0xde, 0xad] }, "not a brainshift snapshot"),
            (PersistError::UnsupportedVersion { found: 9, supported: 1 }, "version 9"),
            (
                PersistError::ChecksumMismatch { section: "log".into(), expected: 1, actual: 2 },
                "checksum mismatch",
            ),
            (PersistError::Truncated { needed: 8, remaining: 3 }, "truncated"),
            (PersistError::TrailingBytes { remaining: 4 }, "trailing"),
            (PersistError::MissingSection { name: "meta".into() }, "no section"),
            (PersistError::InvalidData { reason: "bad tag".into() }, "invalid data"),
            (PersistError::Io { reason: "denied".into() }, "i/o"),
        ];
        for (e, frag) in cases {
            assert!(e.to_string().contains(frag), "{e}");
        }
    }
}
