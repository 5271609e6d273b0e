//! k-nearest-neighbour classification with a kd-tree.
//!
//! The paper segments intraoperative data "with k-NN classification, a
//! standard classification method which computes the type of tissue
//! present at each voxel by comparing the signal of the voxel to classify
//! with the signal of previously selected prototype voxels of known
//! tissue type". Feature vectors combine MR intensity with the saturated
//! distance transforms of the preoperative tissue models.
//!
//! # Layout
//!
//! The tree is stored structure-of-arrays: inner nodes are parallel
//! `split_axis`/`split_val`/`left`/`right` vectors, and prototypes live
//! in leaf blocks of up to [`LEAF_SIZE`] points. Each leaf block is
//! *transposed* (dimension-major) and stored at a fixed stride of
//! `LEAF_SIZE` slots per axis, zero-padded past the leaf's length, so
//! leaf `j` starts at `j * LEAF_SIZE * dim` and every axis row has the
//! same compile-time length. The distance from a query to every slot is
//! accumulated one axis at a time into a stack `[f32; LEAF_SIZE]` — a
//! branchless loop the compiler vectorizes. Only the leaf's first
//! `leaf_len` slots are merged into the candidate list, by in-place
//! insertion from the back; padded slots never reach it.
//! Search is iterative over an explicit stack held in [`KnnScratch`];
//! a warm query performs no allocation.
//!
//! # Determinism
//!
//! Candidates are ordered by `(distance², original prototype index)` and
//! the far side of a split is descended whenever the splitting plane is
//! *no farther* than the current k-th candidate, so the returned
//! neighbour set is a pure function of the prototype multiset — it does
//! not depend on build order or traversal order. Votes break ties by
//! lowest label id (see [`KdTree::classify`]).

use crate::error::SegmentError;

/// A labeled training sample in feature space.
#[derive(Debug, Clone)]
pub struct Prototype {
    /// Feature-space coordinates.
    pub features: Vec<f32>,
    /// Tissue class of this prototype.
    pub label: u8,
}

/// Maximum number of prototypes per leaf block.
pub const LEAF_SIZE: usize = 32;

/// High bit of a node reference marks it as a leaf id.
const LEAF_FLAG: u32 = 1 << 31;

/// Reusable per-thread query state: traversal stack and candidate list.
/// One scratch per worker thread turns the per-voxel k-NN query into a
/// zero-allocation operation.
#[derive(Debug, Default)]
pub struct KnnScratch {
    /// DFS stack of `(node ref, plane distance² at push time)`.
    stack: Vec<(u32, f32)>,
    /// Current best candidates, ascending by `(distance², prototype idx)`.
    best: Vec<(f32, u32)>,
    /// Leaf blocks scanned since construction (or the last reset);
    /// accumulates across queries so callers can report traversal cost.
    pub leaf_visits: u64,
}

impl KnnScratch {
    /// A fresh scratch with empty buffers.
    pub fn new() -> KnnScratch {
        KnnScratch::default()
    }

    /// The candidates found by the last `k_nearest_into` call, ascending
    /// by `(distance², prototype index)`.
    pub fn neighbors(&self) -> &[(f32, u32)] {
        &self.best
    }
}

/// A kd-tree over prototypes for fast k-NN queries.
pub struct KdTree {
    dim: usize,
    /// Labels in original prototype order.
    labels: Vec<u8>,
    /// Features in original prototype order, row-major `n × dim`.
    feats: Vec<f32>,
    /// Inner-node split axes (parallel to `split_val`/`left`/`right`).
    split_axis: Vec<u32>,
    /// Inner-node split values: left subtree ≤ value ≤ right subtree.
    split_val: Vec<f32>,
    /// Child refs; `LEAF_FLAG` bit set ⇒ index into the leaf arrays.
    left: Vec<u32>,
    right: Vec<u32>,
    /// Per-leaf point count (≤ `LEAF_SIZE`).
    leaf_len: Vec<u32>,
    /// Original prototype index per leaf slot, `LEAF_SIZE` slots per
    /// leaf; slots past `leaf_len[j]` are padding and never read.
    leaf_index: Vec<u32>,
    /// Transposed (dimension-major) feature blocks, one per leaf: the
    /// block for leaf `j` starts at `j * LEAF_SIZE * dim` and holds
    /// `LEAF_SIZE` values per axis, zero past `leaf_len[j]`.
    leaf_feats: Vec<f32>,
    root: u32,
    fingerprint: u64,
}

impl KdTree {
    /// Build from prototypes (all must share the same nonzero
    /// dimensionality and carry finite features).
    pub fn build(prototypes: Vec<Prototype>) -> Result<KdTree, SegmentError> {
        if prototypes.is_empty() {
            return Err(SegmentError::EmptyPrototypeSet);
        }
        let dim = prototypes[0].features.len();
        if dim == 0 {
            return Err(SegmentError::EmptyFeatureVector { index: 0 });
        }
        for (index, p) in prototypes.iter().enumerate() {
            if p.features.len() != dim {
                return Err(SegmentError::InconsistentFeatureDim {
                    expected: dim,
                    got: p.features.len(),
                    index,
                });
            }
            for (axis, &v) in p.features.iter().enumerate() {
                if !v.is_finite() {
                    return Err(SegmentError::NonFiniteFeature { index, axis });
                }
            }
        }
        let n = prototypes.len();
        let mut labels = Vec::with_capacity(n);
        let mut feats = Vec::with_capacity(n * dim);
        for p in &prototypes {
            labels.push(p.label);
            feats.extend_from_slice(&p.features);
        }
        let fingerprint = fingerprint_of(dim, &labels, &feats);
        let mut tree = KdTree {
            dim,
            labels,
            feats,
            split_axis: Vec::new(),
            split_val: Vec::new(),
            left: Vec::new(),
            right: Vec::new(),
            leaf_len: Vec::new(),
            leaf_index: Vec::new(),
            leaf_feats: Vec::new(),
            root: 0,
            fingerprint,
        };
        let mut order: Vec<u32> = (0..n as u32).collect();
        tree.root = tree.build_node(&mut order);
        Ok(tree)
    }

    /// Recursive median build; returns the subtree's node ref. Splitting
    /// at the exact median halves the slice each level, so both children
    /// are always nonempty and depth is `O(log n)`.
    fn build_node(&mut self, order: &mut [u32]) -> u32 {
        if order.len() <= LEAF_SIZE {
            // Leaf slots keep ascending original order: the layout of a
            // tree is then fully determined by the prototype list.
            order.sort_unstable();
            // Every leaf and every axis row of its block is padded to the
            // fixed stride of LEAF_SIZE slots.
            let leaf = self.leaf_len.len();
            self.leaf_len.push(order.len() as u32);
            self.leaf_index.extend_from_slice(order);
            self.leaf_index.resize((leaf + 1) * LEAF_SIZE, 0);
            for axis in 0..self.dim {
                for &i in order.iter() {
                    self.leaf_feats.push(self.feats[i as usize * self.dim + axis]);
                }
                self.leaf_feats.resize((leaf * self.dim + axis + 1) * LEAF_SIZE, 0.0);
            }
            return leaf as u32 | LEAF_FLAG;
        }
        // Split along the widest axis of this point set (ties → lowest
        // axis): splitting planes then separate where the data actually
        // spreads, which prunes far better than cycling axes by depth.
        // Min/max per axis are multiset properties, so the tree's search
        // behaviour stays a pure function of the prototype multiset.
        let mut axis = 0usize;
        let mut best_spread = f32::NEG_INFINITY;
        for a in 0..self.dim {
            let mut lo = f32::INFINITY;
            let mut hi = f32::NEG_INFINITY;
            for &i in order.iter() {
                let v = self.feats[i as usize * self.dim + a];
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let spread = hi - lo;
            if spread > best_spread {
                best_spread = spread;
                axis = a;
            }
        }
        let mid = order.len() / 2;
        let feats = &self.feats;
        let dim = self.dim;
        order.select_nth_unstable_by(mid, |&a, &b| {
            feats[a as usize * dim + axis].total_cmp(&feats[b as usize * dim + axis])
        });
        let split_val = self.feats[order[mid] as usize * self.dim + axis];
        let node = self.split_axis.len();
        self.split_axis.push(axis as u32);
        self.split_val.push(split_val);
        self.left.push(0);
        self.right.push(0);
        let (lo, hi) = order.split_at_mut(mid);
        let l = self.build_node(lo);
        let r = self.build_node(hi);
        self.left[node] = l;
        self.right[node] = r;
        node as u32
    }

    /// Number of prototypes in the tree.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the tree holds no prototypes (unreachable after a
    /// successful [`KdTree::build`], kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature-space dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Label of the `i`-th prototype (original insertion order).
    pub fn label(&self, i: usize) -> u8 {
        self.labels[i]
    }

    /// Features of the `i`-th prototype (original insertion order).
    pub fn feature(&self, i: usize) -> &[f32] {
        &self.feats[i * self.dim..(i + 1) * self.dim]
    }

    /// FNV-1a hash of the training set (dimensionality, labels, feature
    /// bit patterns in original order). Two trees with equal fingerprints
    /// classify identically; the incremental re-classification cache uses
    /// this to detect prototype-model drift between scans.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The `k` nearest prototypes to `query` (squared Euclidean), as
    /// `(distance², prototype index)` sorted nearest-first, breaking
    /// distance ties by lowest prototype index.
    pub fn k_nearest(&self, query: &[f32], k: usize) -> Vec<(f32, usize)> {
        let mut scratch = KnnScratch::new();
        self.k_nearest_into(&mut scratch, query, k);
        scratch.best.iter().map(|&(d, i)| (d, i as usize)).collect()
    }

    /// Allocation-free k-NN: fills `scratch.neighbors()` with the `k`
    /// nearest prototypes, reusing the scratch's buffers.
    pub fn k_nearest_into(&self, scratch: &mut KnnScratch, query: &[f32], k: usize) {
        debug_assert_eq!(query.len(), self.dim);
        let k = k.min(self.len()).max(1);
        scratch.best.clear();
        scratch.stack.clear();
        scratch.stack.push((self.root, 0.0));
        while let Some((start, plane_d2)) = scratch.stack.pop() {
            // The k-th distance may have shrunk since this subtree was
            // deferred; re-check before descending. `>` (not `>=`) keeps
            // plane-distance ties visited so equal-distance candidates
            // with lower prototype indices are never pruned away.
            if scratch.best.len() == k && plane_d2 > kth_d2(&scratch.best) {
                continue;
            }
            let mut node = start;
            // Walk the near side iteratively, deferring far sides.
            loop {
                if node & LEAF_FLAG != 0 {
                    self.scan_leaf((node & !LEAF_FLAG) as usize, query, k, scratch);
                    break;
                }
                let i = node as usize;
                let axis = self.split_axis[i] as usize;
                let delta = query[axis] - self.split_val[i];
                let (near, far) = if delta < 0.0 {
                    (self.left[i], self.right[i])
                } else {
                    (self.right[i], self.left[i])
                };
                let far_d2 = delta * delta;
                if scratch.best.len() < k || far_d2 <= kth_d2(&scratch.best) {
                    scratch.stack.push((far, far_d2));
                }
                node = near;
            }
        }
    }

    /// Accumulate distances over one transposed leaf block and merge its
    /// occupied slots into the candidate list.
    fn scan_leaf(&self, leaf: usize, query: &[f32], k: usize, scratch: &mut KnnScratch) {
        let start = leaf * LEAF_SIZE;
        let len = self.leaf_len[leaf] as usize;
        let block = &self.leaf_feats[start * self.dim..(start + LEAF_SIZE) * self.dim];
        // Dimension-major accumulation: each axis contributes one
        // fixed-length pass of `t = v - q; d += t * t` over its block row.
        let mut dist = [0.0f32; LEAF_SIZE];
        for (row, &q) in block.chunks_exact(LEAF_SIZE).zip(query) {
            for (d, &v) in dist.iter_mut().zip(row) {
                let t = v - q;
                *d += t * t;
            }
        }
        scratch.leaf_visits += 1;
        let best = &mut scratch.best;
        for (&d2, &idx) in dist[..len].iter().zip(&self.leaf_index[start..start + len]) {
            // Fast reject on the common path: once the list is full, a
            // candidate ordered after the current k-th — strictly farther,
            // or equal with a higher index — can never be inserted.
            // Otherwise it takes the k-th entry's place (or a new one)
            // and shifts down past every entry ordered after it.
            let mut pos = best.len();
            if pos == k {
                let (kd, ki) = best[k - 1];
                if d2 > kd || (d2 == kd && idx > ki) {
                    continue;
                }
                pos -= 1;
            } else {
                best.push((d2, idx));
            }
            while pos > 0 {
                let (pd, pi) = best[pos - 1];
                if pd < d2 || (pd == d2 && pi < idx) {
                    break;
                }
                best[pos] = best[pos - 1];
                pos -= 1;
            }
            best[pos] = (d2, idx);
        }
    }

    /// Classify by majority vote among the `k` nearest prototypes.
    ///
    /// Ties are broken deterministically: among the top-voted classes the
    /// **lowest label id wins**. The result is a pure function of the
    /// neighbour *set*, which itself is a pure function of the prototype
    /// multiset (see the module docs on determinism).
    pub fn classify(&self, query: &[f32], k: usize) -> u8 {
        let mut scratch = KnnScratch::new();
        self.classify_with(&mut scratch, query, k)
    }

    /// Allocation-free [`KdTree::classify`] reusing a scratch buffer.
    pub fn classify_with(&self, scratch: &mut KnnScratch, query: &[f32], k: usize) -> u8 {
        self.k_nearest_into(scratch, query, k);
        // Tally over the ≤ k distinct labels actually present — for the
        // usual small k this beats zeroing a 256-bin histogram per voxel.
        if scratch.best.len() <= 16 {
            let mut labs = [0u8; 16];
            let mut cnts = [0u32; 16];
            let mut n = 0usize;
            for &(_, idx) in &scratch.best {
                let l = self.labels[idx as usize];
                match labs[..n].iter().position(|&x| x == l) {
                    Some(p) => cnts[p] += 1,
                    None => {
                        labs[n] = l;
                        cnts[n] = 1;
                        n += 1;
                    }
                }
            }
            let mut best_label = labs[0];
            let mut best_count = cnts[0];
            for i in 1..n {
                // Lowest label id wins count ties, as in the histogram scan.
                if cnts[i] > best_count || (cnts[i] == best_count && labs[i] < best_label) {
                    best_count = cnts[i];
                    best_label = labs[i];
                }
            }
            return best_label;
        }
        let mut counts: [u32; 256] = [0; 256];
        for &(_, idx) in &scratch.best {
            counts[self.labels[idx as usize] as usize] += 1;
        }
        // Strict `>` keeps the first (lowest) label among tied counts.
        let mut best_label = 0u8;
        let mut best_count = 0u32;
        for (label, &count) in counts.iter().enumerate() {
            if count > best_count {
                best_count = count;
                best_label = label as u8;
            }
        }
        best_label
    }
}

/// Current k-th (worst kept) squared distance.
#[inline]
fn kth_d2(best: &[(f32, u32)]) -> f32 {
    match best.last() {
        Some(&(d, _)) => d,
        None => f32::INFINITY,
    }
}

/// FNV-1a over the training set's structure and bit patterns.
fn fingerprint_of(dim: usize, labels: &[u8], feats: &[f32]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(PRIME);
    };
    for b in (labels.len() as u64).to_le_bytes() {
        eat(b);
    }
    for b in (dim as u64).to_le_bytes() {
        eat(b);
    }
    for &l in labels {
        eat(l);
    }
    for &f in feats {
        for b in f.to_bits().to_le_bytes() {
            eat(b);
        }
    }
    h
}

/// Brute-force k-NN for testing, using the same `(distance², index)`
/// candidate order as the tree.
pub fn k_nearest_brute(protos: &[Prototype], query: &[f32], k: usize) -> Vec<(f32, usize)> {
    let mut d: Vec<(f32, usize)> = protos
        .iter()
        .enumerate()
        .map(|(i, p)| {
            (
                p.features.iter().zip(query).map(|(a, b)| (a - b) * (a - b)).sum(),
                i,
            )
        })
        .collect();
    d.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    d.truncate(k.min(protos.len()));
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_protos(n: usize, dim: usize, seed: u64) -> Vec<Prototype> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Prototype {
                features: (0..dim).map(|_| rng.gen_range(-10.0f32..10.0)).collect(),
                label: rng.gen_range(0..4),
            })
            .collect()
    }

    /// Integer-valued prototypes on a small lattice, every fifth one a
    /// copy of an earlier prototype's features: squared distances are
    /// exact in `f32` and distance ties are common.
    fn lattice_protos(n: usize, dim: usize, seed: u64) -> Vec<Prototype> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut protos: Vec<Prototype> = Vec::with_capacity(n);
        for i in 0..n {
            let features = if i % 5 == 4 {
                protos[rng.gen_range(0..i)].features.clone()
            } else {
                (0..dim).map(|_| rng.gen_range(-4i32..=4) as f32).collect()
            };
            protos.push(Prototype { features, label: rng.gen_range(0u8..6) });
        }
        protos
    }

    /// `(distance² bits, index)` pairs: equality means bitwise-equal lists.
    fn bits(nn: &[(f32, usize)]) -> Vec<(u32, usize)> {
        nn.iter().map(|&(d, i)| (d.to_bits(), i)).collect()
    }

    /// Majority label among the brute-force neighbours, lowest label id
    /// winning count ties.
    fn brute_vote(protos: &[Prototype], query: &[f32], k: usize) -> u8 {
        let mut counts = [0u32; 256];
        for (_, i) in k_nearest_brute(protos, query, k) {
            counts[protos[i].label as usize] += 1;
        }
        let top = *counts.iter().max().unwrap();
        counts.iter().position(|&c| c == top).unwrap() as u8
    }

    #[test]
    fn kdtree_matches_brute_force_including_indices() {
        // Partial and full leaves, k above LEAF_SIZE, and k on both sides
        // of the 16-neighbour switch to the histogram vote.
        for n in [1usize, 31, 32, 33, 64, 65, 964] {
            for dim in [1usize, 3, 9] {
                let protos = lattice_protos(n, dim, (n * 16 + dim) as u64);
                let tree = KdTree::build(protos.clone()).unwrap();
                let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64 + 1000);
                for query in 0..12 {
                    // Half the queries sit on a prototype, half on the
                    // half-integer lattice around the data.
                    let q: Vec<f32> = if query % 2 == 0 {
                        protos[rng.gen_range(0..n)].features.clone()
                    } else {
                        (0..dim).map(|_| rng.gen_range(-10i32..=10) as f32 * 0.5).collect()
                    };
                    for k in [1usize, 5, 16, 17, 40, n + 3] {
                        let brute = k_nearest_brute(&protos, &q, k);
                        assert_eq!(
                            bits(&tree.k_nearest(&q, k)),
                            bits(&brute),
                            "n={n} dim={dim} k={k} q={q:?}"
                        );
                        assert_eq!(
                            tree.classify(&q, k),
                            brute_vote(&protos, &q, k),
                            "vote: n={n} dim={dim} k={k} q={q:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn padded_slots_never_reach_the_candidate_list() {
        // Every prototype is at least 1000 from the origin and no n is a
        // multiple of LEAF_SIZE, so some leaves are partial: a zero-padded
        // slot would be the nearest point to a query at the origin.
        let origin = [0.0f32; 3];
        for n in [1usize, 33, 70, 100] {
            assert_ne!(n % LEAF_SIZE, 0);
            let protos: Vec<Prototype> = (0..n)
                .map(|i| Prototype {
                    features: vec![1000.0 + i as f32, 1000.0 + (i % 7) as f32, 2000.0],
                    label: (i % 3) as u8,
                })
                .collect();
            let tree = KdTree::build(protos.clone()).unwrap();
            for k in [1usize, 5, LEAF_SIZE, n + 3] {
                let nn = tree.k_nearest(&origin, k);
                assert!(nn.iter().all(|&(_, i)| i < n), "padded slot returned: n={n} k={k}");
                assert_eq!(bits(&nn), bits(&k_nearest_brute(&protos, &origin, k)), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn duplicate_points_resolve_by_lowest_index() {
        // Many exact duplicates: the neighbour list must prefer lower
        // original indices, regardless of where the tree stored them.
        let protos: Vec<Prototype> = (0..100)
            .map(|i| Prototype { features: vec![1.0, 2.0, 3.0], label: (i % 5) as u8 })
            .collect();
        let tree = KdTree::build(protos).unwrap();
        let nn = tree.k_nearest(&[1.0, 2.0, 3.0], 7);
        let idx: Vec<usize> = nn.iter().map(|&(_, i)| i).collect();
        assert_eq!(idx, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn exact_match_is_nearest() {
        let protos = random_protos(100, 3, 3);
        let tree = KdTree::build(protos.clone()).unwrap();
        for i in [0usize, 17, 99] {
            let nn = tree.k_nearest(&protos[i].features, 1);
            assert_eq!(nn[0].0, 0.0);
            assert_eq!(tree.label(nn[0].1), protos[i].label);
        }
    }

    #[test]
    fn classify_separable_clusters() {
        // Two well-separated Gaussian-ish clusters.
        let mut protos = Vec::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..50 {
            protos.push(Prototype {
                features: vec![rng.gen_range(-1.0f32..1.0), rng.gen_range(-1.0f32..1.0)],
                label: 0,
            });
            protos.push(Prototype {
                features: vec![10.0 + rng.gen_range(-1.0f32..1.0), 10.0 + rng.gen_range(-1.0f32..1.0)],
                label: 1,
            });
        }
        let tree = KdTree::build(protos).unwrap();
        assert_eq!(tree.classify(&[0.0, 0.0], 5), 0);
        assert_eq!(tree.classify(&[10.0, 10.0], 5), 1);
        assert_eq!(tree.classify(&[9.0, 11.0], 3), 1);
    }

    #[test]
    fn k_larger_than_dataset_is_clamped() {
        let protos = random_protos(3, 2, 5);
        let tree = KdTree::build(protos).unwrap();
        let nn = tree.k_nearest(&[0.0, 0.0], 10);
        assert_eq!(nn.len(), 3);
    }

    #[test]
    fn vote_tie_is_independent_of_insertion_order() {
        // Four prototypes all exactly distance 1 from the query: a 2-2
        // vote tie between labels 3 and 1. Whatever order the tree stores
        // them in, the lowest label id must win.
        let protos = vec![
            Prototype { features: vec![1.0, 0.0], label: 3 },
            Prototype { features: vec![-1.0, 0.0], label: 3 },
            Prototype { features: vec![0.0, 1.0], label: 1 },
            Prototype { features: vec![0.0, -1.0], label: 1 },
        ];
        let forward = KdTree::build(protos.clone()).unwrap();
        let mut reversed_protos = protos;
        reversed_protos.reverse();
        let reversed = KdTree::build(reversed_protos).unwrap();
        assert_eq!(forward.classify(&[0.0, 0.0], 4), 1);
        assert_eq!(reversed.classify(&[0.0, 0.0], 4), 1);
    }

    #[test]
    fn single_prototype() {
        let tree = KdTree::build(vec![Prototype { features: vec![1.0, 2.0], label: 7 }]).unwrap();
        assert_eq!(tree.classify(&[0.0, 0.0], 3), 7);
    }

    #[test]
    fn scratch_reuse_is_stateless_across_queries() {
        let protos = random_protos(400, 3, 6);
        let tree = KdTree::build(protos.clone()).unwrap();
        let mut scratch = KnnScratch::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let q: Vec<f32> = (0..3).map(|_| rng.gen_range(-12.0f32..12.0)).collect();
            tree.k_nearest_into(&mut scratch, &q, 5);
            let shared: Vec<(f32, usize)> =
                scratch.neighbors().iter().map(|&(d, i)| (d, i as usize)).collect();
            assert_eq!(shared, k_nearest_brute(&protos, &q, 5));
        }
        assert!(scratch.leaf_visits >= 100, "every query scans at least one leaf");
    }

    #[test]
    fn build_errors_are_typed() {
        assert_eq!(KdTree::build(Vec::new()).err(), Some(SegmentError::EmptyPrototypeSet));
        assert_eq!(
            KdTree::build(vec![Prototype { features: vec![], label: 0 }]).err(),
            Some(SegmentError::EmptyFeatureVector { index: 0 })
        );
        assert_eq!(
            KdTree::build(vec![
                Prototype { features: vec![1.0], label: 0 },
                Prototype { features: vec![1.0, 2.0], label: 1 },
            ])
            .err(),
            Some(SegmentError::InconsistentFeatureDim { expected: 1, got: 2, index: 1 })
        );
        assert_eq!(
            KdTree::build(vec![Prototype { features: vec![1.0, f32::NAN], label: 0 }]).err(),
            Some(SegmentError::NonFiniteFeature { index: 0, axis: 1 })
        );
    }

    #[test]
    fn fingerprint_tracks_training_set_changes() {
        let protos = random_protos(64, 3, 8);
        let a = KdTree::build(protos.clone()).unwrap();
        let b = KdTree::build(protos.clone()).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut perturbed = protos.clone();
        perturbed[10].features[1] += 1e-4;
        let c = KdTree::build(perturbed).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut relabeled = protos;
        relabeled[3].label ^= 1;
        let d = KdTree::build(relabeled).unwrap();
        assert_ne!(a.fingerprint(), d.fingerprint());
    }
}
