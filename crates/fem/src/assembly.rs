//! Global stiffness assembly.
//!
//! The paper assembles `K` in parallel by "sending approximately equal
//! numbers of mesh nodes to each CPU"; because "different mesh nodes can
//! have different connectivity", per-CPU work differs — the assembly load
//! imbalance of §3.2. We provide (a) a real parallel assembly over
//! contiguous node-row ranges and (b) the per-rank work accounting the
//! simulated cluster prices.
//!
//! Assembly runs in two phases. The *symbolic* phase builds the node
//! adjacency and from it a 3×3-block CSR pattern: node `i`'s scalar row
//! `3i+a` owns `3·deg(i)` consecutive slots, one per neighbour column
//! `3j+c`, in ascending column order. The *numeric* phase scatters each
//! element's `stiffness_isotropic` block straight into those slots, then
//! the slots no element gave a nonzero contribution are dropped. Each
//! slot sums its contributions in ascending element order, so `K` is
//! bitwise identical at any thread count.

use crate::element::{stiffness_isotropic, TetShape, FLOPS_PER_ELEMENT};
use crate::material::MaterialTable;
use brainshift_mesh::TetMesh;
use brainshift_sparse::CsrMatrix;
use rayon::prelude::*;
use std::ops::Range;

/// Assemble the global stiffness matrix `K` (3N × 3N) for a mesh and
/// material table. Degenerate elements and exactly-zero element entries
/// contribute no stored entry.
pub fn assemble_stiffness(mesh: &TetMesh, materials: &MaterialTable) -> CsrMatrix {
    assemble_over_ranges(mesh, materials, rayon::current_num_threads())
}

/// [`assemble_stiffness`] with the numeric phase split over `parts`
/// contiguous node-row ranges (the paper's decomposition), balanced by
/// slot count. Each range owns its rows' slots; the result does not
/// depend on `parts`.
fn assemble_over_ranges(mesh: &TetMesh, materials: &MaterialTable, parts: usize) -> CsrMatrix {
    let n = mesh.num_nodes();
    let (adj_ptr, adj) = node_adjacency(mesh);
    let nslots = 9 * adj_ptr[n];
    let mut values = vec![0.0; nslots];
    let mut touched = vec![false; nslots];

    let parts = parts.clamp(1, n.max(1));
    let mut bounds: Vec<usize> = (0..parts)
        .map(|k| adj_ptr.partition_point(|&s| s * parts < adj_ptr[n] * k))
        .collect();
    bounds.push(n);
    let mut ranges = Vec::with_capacity(parts);
    let (mut vals_rest, mut touched_rest) = (values.as_mut_slice(), touched.as_mut_slice());
    for w in bounds.windows(2) {
        let len = 9 * (adj_ptr[w[1]] - adj_ptr[w[0]]);
        let (v, vr) = std::mem::take(&mut vals_rest).split_at_mut(len);
        let (t, tr) = std::mem::take(&mut touched_rest).split_at_mut(len);
        (vals_rest, touched_rest) = (vr, tr);
        ranges.push((w[0]..w[1], v, t));
    }
    ranges.par_iter_mut().for_each(|(nodes, v, t)| {
        scatter_rows(mesh, materials, &adj_ptr, &adj, nodes.clone(), v, t);
    });
    compact(n, &adj_ptr, &adj, values, &touched)
}

/// Node adjacency (each node's sorted neighbours, itself included) as a
/// CSR pattern `(ptr, nodes)`. Degenerate tets are included here; the
/// slots they alone would fill are dropped by [`compact`].
fn node_adjacency(mesh: &TetMesh) -> (Vec<usize>, Vec<usize>) {
    let n = mesh.num_nodes();
    // Node → incident tets, by counting sort.
    let mut inc_ptr = vec![0usize; n + 1];
    for tet in &mesh.tets {
        for &v in tet {
            inc_ptr[v + 1] += 1;
        }
    }
    for i in 0..n {
        inc_ptr[i + 1] += inc_ptr[i];
    }
    let mut next = inc_ptr.clone();
    let mut inc = vec![0usize; inc_ptr[n]];
    for (e, tet) in mesh.tets.iter().enumerate() {
        for &v in tet {
            inc[next[v]] = e;
            next[v] += 1;
        }
    }

    let mut ptr = Vec::with_capacity(n + 1);
    ptr.push(0);
    let mut adj = Vec::with_capacity(inc.len());
    let mut seen_by = vec![usize::MAX; n];
    for i in 0..n {
        let start = adj.len();
        for &e in &inc[inc_ptr[i]..inc_ptr[i + 1]] {
            for &j in &mesh.tets[e] {
                if seen_by[j] != i {
                    seen_by[j] = i;
                    adj.push(j);
                }
            }
        }
        adj[start..].sort_unstable();
        ptr.push(adj.len());
    }
    (ptr, adj)
}

/// Numeric phase for the rows of `nodes`: walk the elements touching the
/// range in ascending order and add their nonzero entries into the range's
/// block slots (`values`/`touched` start at node `nodes.start`'s slots).
fn scatter_rows(
    mesh: &TetMesh,
    materials: &MaterialTable,
    adj_ptr: &[usize],
    adj: &[usize],
    nodes: Range<usize>,
    values: &mut [f64],
    touched: &mut [bool],
) {
    let slot0 = 9 * adj_ptr[nodes.start];
    for (tet, &label) in mesh.tets.iter().zip(&mesh.tet_labels) {
        if !tet.iter().any(|v| nodes.contains(v)) {
            continue;
        }
        let p = tet.map(|v| mesh.nodes[v]);
        let Ok(shape) = TetShape::new(p) else { continue };
        let ke = stiffness_isotropic(&shape, &materials.of(label));
        for (i, &ni) in tet.iter().enumerate() {
            if !nodes.contains(&ni) {
                continue;
            }
            let nbrs = &adj[adj_ptr[ni]..adj_ptr[ni + 1]];
            let row_len = 3 * nbrs.len();
            let base = 9 * adj_ptr[ni] - slot0;
            for (j, &nj) in tet.iter().enumerate() {
                let pos = nbrs.partition_point(|&m| m < nj);
                debug_assert_eq!(nbrs.get(pos), Some(&nj));
                for a in 0..3 {
                    let slot = base + a * row_len + 3 * pos;
                    for c in 0..3 {
                        let v = ke[3 * i + a][3 * j + c];
                        if v != 0.0 {
                            values[slot + c] += v;
                            touched[slot + c] = true;
                        }
                    }
                }
            }
        }
    }
}

/// Drop the untouched block slots, compacting `values` in place, and emit
/// the scalar CSR matrix.
fn compact(
    n: usize,
    adj_ptr: &[usize],
    adj: &[usize],
    mut values: Vec<f64>,
    touched: &[bool],
) -> CsrMatrix {
    let nnz = touched.iter().filter(|&&t| t).count();
    let mut indptr = Vec::with_capacity(3 * n + 1);
    indptr.push(0);
    let mut indices = Vec::with_capacity(nnz);
    let mut slot = 0;
    for i in 0..n {
        let nbrs = &adj[adj_ptr[i]..adj_ptr[i + 1]];
        for _ in 0..3 {
            for &j in nbrs {
                for c in 0..3 {
                    if touched[slot] {
                        values[indices.len()] = values[slot];
                        indices.push(3 * j + c);
                    }
                    slot += 1;
                }
            }
            indptr.push(indices.len());
        }
    }
    values.truncate(nnz);
    values.shrink_to_fit();
    CsrMatrix::from_raw(3 * n, 3 * n, indptr, indices, values)
        .expect("block pattern rows are sorted, unique and in range by construction")
}

/// Per-rank assembly work (flops) under a contiguous *node* partition
/// given by `node_offsets` (the paper's decomposition). Each element
/// contributes work to the rank(s) owning its nodes, proportionally —
/// nodes of higher connectivity accumulate more work, reproducing the
/// paper's assembly imbalance.
pub fn assembly_flops_per_rank(mesh: &TetMesh, node_offsets: &[usize]) -> Vec<f64> {
    let p = node_offsets.len() - 1;
    let mut flops = vec![0.0; p];
    let share = FLOPS_PER_ELEMENT / 4.0;
    for tet in &mesh.tets {
        for &n in tet {
            let rank = brainshift_sparse::partition::part_of(node_offsets, n);
            flops[rank] += share;
        }
    }
    flops
}

/// Total element count × per-element cost: the serial assembly work.
pub fn assembly_flops_total(mesh: &TetMesh) -> f64 {
    mesh.num_tets() as f64 * FLOPS_PER_ELEMENT
}

/// Per-node work weights (flops) for the improved, connectivity-balanced
/// partition the paper proposes as future work.
pub fn node_work_weights(mesh: &TetMesh) -> Vec<f64> {
    let mut w = vec![0.0; mesh.num_nodes()];
    let share = FLOPS_PER_ELEMENT / 4.0;
    for tet in &mesh.tets {
        for &n in tet {
            w[n] += share;
        }
    }
    w
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use brainshift_imaging::labels;
    use brainshift_imaging::phantom::{generate_preop, PhantomConfig};
    use brainshift_imaging::volume::{Dims, Spacing, Volume};
    use brainshift_mesh::{mesh_labeled_volume, MesherConfig};
    use brainshift_sparse::partition::even_offsets;
    use brainshift_sparse::TripletBuilder;

    pub(crate) fn block_mesh(n: usize) -> TetMesh {
        let seg = Volume::from_fn(Dims::new(n, n, n), Spacing::iso(1.0), |_, _, _| labels::BRAIN);
        mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable })
    }

    /// The 32×32×24 @ 4.5 mm phantom head meshed at step 2, as the
    /// intraoperative pipeline meshes it.
    pub(crate) fn phantom_mesh() -> TetMesh {
        let cfg = PhantomConfig {
            dims: Dims::new(32, 32, 24),
            spacing: Spacing::iso(4.5),
            ..Default::default()
        };
        let scan = generate_preop(&cfg);
        mesh_labeled_volume(&scan.labels, &MesherConfig { step: 2, include: labels::is_brain_tissue })
    }

    /// The triplet assembly this module replaced: push every nonzero
    /// element entry, then sort and sum duplicates. Kept as the reference
    /// the pattern + scatter path is checked against.
    pub(crate) fn assemble_stiffness_triplets(mesh: &TetMesh, materials: &MaterialTable) -> CsrMatrix {
        let ndof = mesh.num_equations();
        let mut b = TripletBuilder::with_capacity(ndof, ndof, mesh.num_tets() * 144);
        for (tet, &label) in mesh.tets.iter().zip(&mesh.tet_labels) {
            let Ok(shape) = TetShape::new(tet.map(|v| mesh.nodes[v])) else { continue };
            let ke = stiffness_isotropic(&shape, &materials.of(label));
            for (i, &ni) in tet.iter().enumerate() {
                for (j, &nj) in tet.iter().enumerate() {
                    for a in 0..3 {
                        for c in 0..3 {
                            let v = ke[3 * i + a][3 * j + c];
                            if v != 0.0 {
                                b.add(3 * ni + a, 3 * nj + c, v);
                            }
                        }
                    }
                }
            }
        }
        b.build()
    }

    /// Meshes covering the cases the scatter must handle: axis-aligned
    /// grid elements (exactly-zero entries), heterogeneous materials,
    /// jittered nodes (few zeros), and degenerate tets (skipped).
    fn reference_cases() -> Vec<(&'static str, TetMesh, MaterialTable)> {
        let het_seg = Volume::from_fn(Dims::new(5, 4, 4), Spacing::iso(1.5), |x, y, _| {
            if x < 2 {
                labels::BRAIN
            } else if y < 2 {
                labels::FALX
            } else {
                labels::TUMOR
            }
        });
        let het = mesh_labeled_volume(&het_seg, &MesherConfig { step: 1, include: labels::is_deformable });

        let mut jittered = block_mesh(4);
        for (i, p) in jittered.nodes.iter_mut().enumerate() {
            let t = i as f64;
            p.x += 0.11 * (1.3 * t).sin();
            p.y += 0.07 * (0.7 * t).cos();
            p.z += 0.09 * (2.1 * t).sin();
        }

        // Append a flat tet (four coplanar nodes) and one with a repeated
        // node; both must contribute nothing.
        let mut degenerate = block_mesh(3);
        let label = degenerate.tet_labels[0];
        degenerate.tets.push([0, 1, 2, 3]);
        degenerate.tet_labels.push(label);
        let last = degenerate.num_nodes() - 1;
        degenerate.tets.push([0, last, last, 5]);
        degenerate.tet_labels.push(label);
        assert!(degenerate.tets.iter().rev().take(2).all(|t| {
            TetShape::new(t.map(|v| degenerate.nodes[v])).is_err()
        }));

        vec![
            ("homogeneous grid", block_mesh(4), MaterialTable::homogeneous()),
            ("heterogeneous", het, MaterialTable::heterogeneous()),
            ("jittered", jittered, MaterialTable::heterogeneous()),
            ("degenerate tets", degenerate, MaterialTable::homogeneous()),
        ]
    }

    /// Same pattern, and values within 1e-14 relative to their row's
    /// largest entry: the two paths sum duplicates in different orders,
    /// so an entry whose contributions cancel may differ by rounding.
    fn assert_matches_reference(name: &str, k: &CsrMatrix, reference: &CsrMatrix) {
        assert_eq!(k.indptr(), reference.indptr(), "{name}: indptr");
        assert_eq!(k.indices(), reference.indices(), "{name}: indices");
        for r in 0..k.nrows() {
            let (_, vals) = k.row(r);
            let (_, ref_vals) = reference.row(r);
            let scale = ref_vals.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for (&a, &b) in vals.iter().zip(ref_vals) {
                assert!((a - b).abs() <= 1e-14 * scale, "{name}: row {r} has {a}, reference {b}");
            }
        }
    }

    #[test]
    fn stiffness_is_symmetric() {
        let mesh = block_mesh(3);
        let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        assert_eq!(k.nrows(), mesh.num_equations());
        assert!(k.asymmetry() < 1e-12, "asymmetry {}", k.asymmetry());
    }

    #[test]
    fn rigid_translation_in_null_space() {
        let mesh = block_mesh(3);
        let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        let n = mesh.num_nodes();
        let mut u = vec![0.0; 3 * n];
        for i in 0..n {
            u[3 * i] = 1.0;
            u[3 * i + 1] = -2.0;
            u[3 * i + 2] = 0.5;
        }
        let mut f = vec![0.0; 3 * n];
        k.spmv(&u, &mut f);
        let fmax = f.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let kmax = k.values().iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(fmax < 1e-9 * kmax, "rigid translation produced force {fmax}");
    }

    #[test]
    fn diagonal_positive() {
        let mesh = block_mesh(3);
        let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        for (i, d) in k.diagonal().iter().enumerate() {
            assert!(*d > 0.0, "diag[{i}] = {d}");
        }
    }

    #[test]
    fn heterogeneous_assembly_changes_matrix() {
        let seg = Volume::from_fn(Dims::new(4, 4, 4), Spacing::iso(1.0), |x, _, _| {
            if x < 2 {
                labels::BRAIN
            } else {
                labels::FALX
            }
        });
        let mesh = mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable });
        let k_homo = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        let k_het = assemble_stiffness(&mesh, &MaterialTable::heterogeneous());
        assert!(k_het.frobenius_norm() > k_homo.frobenius_norm() * 1.5);
    }

    #[test]
    fn per_rank_flops_sum_to_total() {
        let mesh = block_mesh(4);
        let offsets = even_offsets(mesh.num_nodes(), 4);
        let per = assembly_flops_per_rank(&mesh, &offsets);
        let total: f64 = per.iter().sum();
        assert!((total - assembly_flops_total(&mesh)).abs() < 1e-6);
    }

    #[test]
    fn per_rank_flops_are_imbalanced_on_even_node_split() {
        // The paper's observation: equal node counts ≠ equal work.
        let mesh = block_mesh(6);
        let offsets = even_offsets(mesh.num_nodes(), 4);
        let per = assembly_flops_per_rank(&mesh, &offsets);
        let max = per.iter().copied().fold(0.0, f64::max);
        let mean = per.iter().sum::<f64>() / per.len() as f64;
        assert!(max / mean > 1.001, "unexpectedly perfect balance: {per:?}");
    }

    #[test]
    fn weighted_partition_improves_balance() {
        let mesh = block_mesh(6);
        let weights = node_work_weights(&mesh);
        let p = 4;
        let even = even_offsets(mesh.num_nodes(), p);
        let balanced = brainshift_sparse::partition::weighted_offsets(&weights, p);
        let imb_even = brainshift_sparse::partition::imbalance(&weights, &even);
        let imb_bal = brainshift_sparse::partition::imbalance(&weights, &balanced);
        assert!(imb_bal <= imb_even + 1e-12, "{imb_bal} vs {imb_even}");
    }

    #[test]
    fn matrix_sparsity_reasonable() {
        // ~15 neighbors incl. self × 3 DOF → nnz per row well under 100.
        let mesh = block_mesh(5);
        let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        let nnz_per_row = k.nnz() as f64 / k.nrows() as f64;
        assert!(nnz_per_row > 10.0 && nnz_per_row < 100.0, "{nnz_per_row}");
    }

    #[test]
    fn scatter_matches_triplet_reference() {
        for (name, mesh, materials) in reference_cases() {
            let k = assemble_stiffness(&mesh, &materials);
            let reference = assemble_stiffness_triplets(&mesh, &materials);
            assert_matches_reference(name, &k, &reference);
        }
    }

    #[test]
    fn scatter_matches_triplet_reference_on_phantom() {
        let mesh = phantom_mesh();
        let materials = MaterialTable::homogeneous();
        let k = assemble_stiffness(&mesh, &materials);
        assert_matches_reference("phantom", &k, &assemble_stiffness_triplets(&mesh, &materials));
    }

    #[test]
    fn exact_zero_contributions_store_no_entry() {
        // On an axis-aligned grid many element entries are exactly zero;
        // the scatter must drop those slots just as the triplet path
        // skipped them, rather than keep the full 3×3 node blocks.
        let mesh = block_mesh(4);
        let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
        let (adj_ptr, _) = node_adjacency(&mesh);
        assert!(k.nnz() < 9 * adj_ptr[mesh.num_nodes()]);
    }

    #[test]
    fn row_range_split_is_bitwise_invariant() {
        // Every slot sums in ascending element order whatever the range
        // split, so any number of ranges gives the same bits.
        for (name, mesh, materials) in reference_cases() {
            let serial = assemble_over_ranges(&mesh, &materials, 1);
            for parts in [2, 3, 4, 7] {
                let split = assemble_over_ranges(&mesh, &materials, parts);
                assert_eq!(split.indptr(), serial.indptr(), "{name}: {parts} ranges");
                assert_eq!(split.indices(), serial.indices(), "{name}: {parts} ranges");
                let same = split.values().iter().zip(serial.values()).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{name}: values differ at {parts} ranges");
            }
        }
    }

    #[test]
    fn empty_mesh_assembles_to_empty_matrix() {
        let k = assemble_stiffness(&TetMesh::empty(), &MaterialTable::homogeneous());
        assert_eq!((k.nrows(), k.ncols(), k.nnz()), (0, 0, 0));
    }
}
