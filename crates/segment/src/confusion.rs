//! Segmentation scoring: confusion matrices and per-class metrics.
//!
//! The paper evaluates its intraoperative segmentation qualitatively; this
//! module provides the quantitative counterpart used by the classifier
//! ablation and the tests — per-class precision/recall/Dice from a full
//! confusion matrix against a reference labeling.

use brainshift_imaging::Volume;

/// A confusion matrix over `u8` labels (truth rows × predicted columns),
/// stored sparsely for the handful of classes in play.
#[derive(Debug, Clone)]
pub struct ConfusionMatrix {
    /// Sorted list of labels observed in either volume.
    labels: Vec<u8>,
    /// counts[t * n + p] = voxels with truth `labels[t]` predicted as
    /// `labels[p]`.
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Tally predictions against truth (same-grid volumes).
    pub fn from_volumes(truth: &Volume<u8>, predicted: &Volume<u8>) -> ConfusionMatrix {
        assert_eq!(truth.dims(), predicted.dims(), "grids must match");
        let mut labels: Vec<u8> = truth
            .labels()
            .into_iter()
            .chain(predicted.labels())
            .collect();
        labels.sort_unstable();
        labels.dedup();
        let n = labels.len();
        // Every label in either volume is in `labels` by construction;
        // the fallback index is unreachable.
        let idx = |l: u8| labels.binary_search(&l).unwrap_or(0);
        let mut counts = vec![0u64; n * n];
        for (&t, &p) in truth.data().iter().zip(predicted.data()) {
            counts[idx(t) * n + idx(p)] += 1;
        }
        ConfusionMatrix { labels, counts }
    }

    /// Labels covered by the matrix.
    pub fn labels(&self) -> &[u8] {
        &self.labels
    }

    /// Count of voxels with `truth` label predicted as `predicted`.
    pub fn count(&self, truth: u8, predicted: u8) -> u64 {
        let n = self.labels.len();
        match (
            self.labels.binary_search(&truth),
            self.labels.binary_search(&predicted),
        ) {
            (Ok(t), Ok(p)) => self.counts[t * n + p],
            _ => 0,
        }
    }

    /// Overall voxel accuracy.
    pub fn accuracy(&self) -> f64 {
        let n = self.labels.len();
        let correct: u64 = (0..n).map(|i| self.counts[i * n + i]).sum();
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 1.0;
        }
        correct as f64 / total as f64
    }

    /// Per-class precision: correct / all predicted as the class.
    pub fn precision(&self, label: u8) -> f64 {
        let n = self.labels.len();
        let Ok(p) = self.labels.binary_search(&label) else { return 0.0 };
        let tp = self.counts[p * n + p];
        let pred: u64 = (0..n).map(|t| self.counts[t * n + p]).sum();
        if pred == 0 {
            return 0.0;
        }
        tp as f64 / pred as f64
    }

    /// Recall (sensitivity) of one class: correct / all truly the class.
    pub fn recall(&self, label: u8) -> f64 {
        let n = self.labels.len();
        let Ok(t) = self.labels.binary_search(&label) else { return 0.0 };
        let tp = self.counts[t * n + t];
        let truth: u64 = (0..n).map(|p| self.counts[t * n + p]).sum();
        if truth == 0 {
            return 0.0;
        }
        tp as f64 / truth as f64
    }

    /// Dice coefficient of one class (harmonic mean of precision/recall).
    pub fn dice(&self, label: u8) -> f64 {
        let p = self.precision(label);
        let r = self.recall(label);
        if p + r == 0.0 {
            return 0.0;
        }
        2.0 * p * r / (p + r)
    }

    /// Render a compact table with per-class precision/recall/Dice.
    pub fn render(&self, name_of: impl Fn(u8) -> &'static str) -> String {
        let mut out = format!("overall accuracy: {:.3}\n", self.accuracy());
        out.push_str(&format!(
            "{:<18} {:>10} {:>10} {:>10}\n",
            "class", "precision", "recall", "dice"
        ));
        for &l in &self.labels {
            out.push_str(&format!(
                "{:<18} {:>10.3} {:>10.3} {:>10.3}\n",
                name_of(l),
                self.precision(l),
                self.recall(l),
                self.dice(l)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brainshift_imaging::volume::{Dims, Spacing};

    fn vol(f: impl FnMut(usize, usize, usize) -> u8) -> Volume<u8> {
        Volume::from_fn(Dims::new(4, 4, 4), Spacing::iso(1.0), f)
    }

    #[test]
    fn perfect_prediction() {
        let t = vol(|x, _, _| if x < 2 { 1 } else { 2 });
        let cm = ConfusionMatrix::from_volumes(&t, &t);
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.precision(1), 1.0);
        assert_eq!(cm.recall(2), 1.0);
        assert_eq!(cm.dice(1), 1.0);
    }

    #[test]
    fn known_confusion_counts() {
        // Truth: x<2 → 1 (32 voxels), else 2 (32). Prediction flips the
        // x==1 plane (16 voxels of class 1 predicted as 2).
        let t = vol(|x, _, _| if x < 2 { 1 } else { 2 });
        let p = vol(|x, _, _| if x < 1 { 1 } else { 2 });
        let cm = ConfusionMatrix::from_volumes(&t, &p);
        assert_eq!(cm.count(1, 1), 16);
        assert_eq!(cm.count(1, 2), 16);
        assert_eq!(cm.count(2, 2), 32);
        assert_eq!(cm.count(2, 1), 0);
        assert!((cm.accuracy() - 48.0 / 64.0).abs() < 1e-12);
        assert!((cm.recall(1) - 0.5).abs() < 1e-12);
        assert!((cm.precision(1) - 1.0).abs() < 1e-12);
        // Dice(1) = 2·0.5·1/(1.5) = 2/3
        assert!((cm.dice(1) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn absent_label_scores_zero() {
        let t = vol(|_, _, _| 1);
        let cm = ConfusionMatrix::from_volumes(&t, &t);
        assert_eq!(cm.precision(9), 0.0);
        assert_eq!(cm.recall(9), 0.0);
        assert_eq!(cm.dice(9), 0.0);
    }

    #[test]
    fn render_contains_classes() {
        let t = vol(|x, _, _| if x < 2 { 4 } else { 5 });
        let cm = ConfusionMatrix::from_volumes(&t, &t);
        let s = cm.render(brainshift_imaging::labels::label_name);
        assert!(s.contains("brain"));
        assert!(s.contains("ventricle"));
        assert!(s.contains("accuracy: 1.000"));
    }
}
