//! Seeded inputs. The program under test only ever sees what these
//! functions generate; generating them is the benchmark's own work and is
//! never timed.

use crate::stats::{mix, unit};
use brainshift_core::{generate_scan_sequence, PipelineConfig, ScanSequence};
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};

/// Scans generated per surgery; the scanner replays them back and forth
/// (`pingpong`) so consecutive scans stay one shift stage apart.
pub const SCANS_PER_SURGERY: usize = 6;

/// Peak brain shift (mm) of the surgeries, before the seeded jitter.
const PEAK_SHIFT_MM: [f64; 4] = [6.0, 7.5, 9.0, 10.5];

/// The pipeline configuration the service runs: rigid registration is
/// skipped because the phantom scans share the reference frame.
pub fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        skip_rigid: true,
        ..Default::default()
    }
}

/// `n` phantom surgeries of the 32×32×24 @ 4.5 mm head, each with its own
/// phantom seed and peak shift drawn from `seed`.
pub fn phantom_surgeries(seed: u64, n: usize) -> Vec<ScanSequence> {
    (0..n)
        .map(|k| {
            let phantom = PhantomConfig {
                dims: Dims::new(32, 32, 24),
                spacing: Spacing::iso(4.5),
                seed: mix(seed, k as u64),
                ..Default::default()
            };
            let shift = BrainShiftConfig {
                peak_shift_mm: PEAK_SHIFT_MM[k % PEAK_SHIFT_MM.len()]
                    + 0.6 * (unit(seed, 1000 + k as u64) - 0.5),
                ..Default::default()
            };
            generate_scan_sequence(&phantom, &shift, SCANS_PER_SURGERY, SCANS_PER_SURGERY)
        })
        .collect()
}

/// Index of the `j`-th scan a scanner sends when it walks a sequence of
/// `m` scans forward and back: 0, 1, …, m−1, m−2, …, 1, 0, 1, …
pub fn pingpong(j: usize, m: usize) -> usize {
    if m <= 1 {
        return 0;
    }
    let period = 2 * (m - 1);
    let r = j % period;
    if r < m {
        r
    } else {
        period - r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pingpong_walks_back_and_forth() {
        let v: Vec<usize> = (0..9).map(|j| pingpong(j, 4)).collect();
        assert_eq!(v, [0, 1, 2, 3, 2, 1, 0, 1, 2]);
        assert_eq!(pingpong(5, 1), 0);
    }
}
