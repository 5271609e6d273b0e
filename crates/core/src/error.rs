//! Typed errors for the intraoperative pipeline.
//!
//! The pipeline separates *hard* failures (a malformed mesh, a singular
//! preconditioner, mismatched boundary conditions — surfaced here as
//! [`Error`]) from *soft* failures (a scan whose solver did not converge
//! within its budget), which degrade gracefully: the scan is marked
//! [`Degraded`](crate::sequence::ScanStatus::Degraded) and the previous
//! scan's displacement field is carried forward.

use brainshift_fem::FemError;
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_mesh::MeshError;
use brainshift_segment::SegmentError;
use brainshift_sparse::SparseError;
use std::fmt;

/// A hard failure of the intraoperative pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Mesh construction or validation failed.
    Mesh(MeshError),
    /// The FEM layer rejected its inputs.
    Fem(FemError),
    /// The sparse layer rejected a matrix or preconditioner.
    Sparse(SparseError),
    /// The classifier rejected its training data (malformed prototypes).
    Segment(SegmentError),
    /// A pipeline-level invariant was violated (with a description).
    Pipeline(String),
    /// An intraoperative scan is not on the voxel grid of the reference
    /// scan the surgery was prepared from: its dimensions or spacing
    /// differ, so the per-surgery feature channels and mesh do not line
    /// up with it.
    ScanGridMismatch {
        /// Reference grid dimensions.
        expected_dims: Dims,
        /// Reference voxel spacing (mm).
        expected_spacing: Spacing,
        /// Dimensions of the rejected scan.
        got_dims: Dims,
        /// Voxel spacing of the rejected scan (mm).
        got_spacing: Spacing,
    },
    /// An intraoperative scan holds NaN or infinite intensities. One such
    /// voxel makes every k-NN distance from it non-finite, so its label
    /// would be arbitrary; the scan is refused instead.
    NonFiniteScan {
        /// Number of non-finite voxels in the rejected scan.
        voxels: usize,
    },
}

fn grid(d: Dims, s: Spacing) -> String {
    format!(
        "{}×{}×{} voxels at {}×{}×{} mm",
        d.nx, d.ny, d.nz, s.dx, s.dy, s.dz
    )
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Mesh(e) => write!(f, "mesh error: {e}"),
            Error::Fem(e) => write!(f, "FEM error: {e}"),
            Error::Sparse(e) => write!(f, "sparse error: {e}"),
            Error::Segment(e) => write!(f, "segmentation error: {e}"),
            Error::Pipeline(msg) => write!(f, "pipeline error: {msg}"),
            Error::ScanGridMismatch {
                expected_dims,
                expected_spacing,
                got_dims,
                got_spacing,
            } => {
                write!(
                    f,
                    "scan grid mismatch: expected {}, got {}",
                    grid(*expected_dims, *expected_spacing),
                    grid(*got_dims, *got_spacing)
                )
            }
            Error::NonFiniteScan { voxels } => {
                write!(f, "scan has {voxels} non-finite intensity voxels")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Mesh(e) => Some(e),
            Error::Fem(e) => Some(e),
            Error::Sparse(e) => Some(e),
            Error::Segment(e) => Some(e),
            Error::Pipeline(_) | Error::ScanGridMismatch { .. } | Error::NonFiniteScan { .. } => {
                None
            }
        }
    }
}

impl From<MeshError> for Error {
    fn from(e: MeshError) -> Self {
        Error::Mesh(e)
    }
}

impl From<FemError> for Error {
    fn from(e: FemError) -> Self {
        Error::Fem(e)
    }
}

impl From<SparseError> for Error {
    fn from(e: SparseError) -> Self {
        Error::Sparse(e)
    }
}

impl From<SegmentError> for Error {
    fn from(e: SegmentError) -> Self {
        Error::Segment(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_and_displays_lower_layers() {
        let e = Error::from(FemError::Unconstrained);
        assert!(e.to_string().contains("boundary conditions"));
        assert!(std::error::Error::source(&e).is_some());
        let e = Error::Pipeline("empty mesh".into());
        assert!(e.to_string().contains("empty mesh"));
        let e = Error::from(SegmentError::EmptyPrototypeSet);
        assert!(e.to_string().contains("prototype"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
