//! Criterion: the intraoperative pipeline stage by stage (the host-side
//! Figure 6) — meshing, k-NN classification, active surface, FEM solve,
//! dense-field interpolation — plus the bare k-NN query kernel.

use brainshift_core::case::{generate_elastic_case, ElasticCaseOptions};
use brainshift_core::sequence::generate_scan_sequence;
use brainshift_fem::{displacement_field_from_mesh, solve_deformation, DirichletBcs, FemSolveConfig, MaterialTable};
use brainshift_imaging::labels;
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_imaging::Vec3;
use brainshift_mesh::{boundary_nodes, extract_boundary, mesh_labeled_volume, MesherConfig};
use brainshift_segment::classify::build_feature_stack;
use brainshift_segment::{classify_matrix_serial, segment_intraop, KdTree, PrototypeModel, SegmentConfig};
use brainshift_surface::{evolve_surface, ActiveSurfaceConfig, DistanceForce};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_stages(c: &mut Criterion) {
    let cfg = PhantomConfig {
        dims: Dims::new(48, 48, 36),
        spacing: Spacing::iso(3.0),
        ..Default::default()
    };
    let case = generate_elastic_case(&cfg, &BrainShiftConfig::default(), &ElasticCaseOptions::default());
    let mesher = MesherConfig { step: 2, include: labels::is_brain_tissue };
    let mesh = mesh_labeled_volume(&case.preop.labels, &mesher);
    let surface = extract_boundary(&mesh);

    let mut g = c.benchmark_group("pipeline_stage");
    g.sample_size(10);

    g.bench_function("mesh_generation", |b| {
        b.iter(|| std::hint::black_box(mesh_labeled_volume(&case.preop.labels, &mesher)));
    });

    g.bench_function("knn_segmentation", |b| {
        b.iter(|| {
            std::hint::black_box(segment_intraop(
                &case.intraop.intensity,
                &case.preop.labels,
                &SegmentConfig::default(),
            ))
        });
    });

    g.bench_function("active_surface", |b| {
        let mask = case.intraop.labels.map(|&l| labels::is_brain_tissue(l));
        let force = DistanceForce::from_mask(&mask, 2.0);
        b.iter(|| std::hint::black_box(evolve_surface(&surface, &force, &ActiveSurfaceConfig::default())));
    });

    g.bench_function("fem_solve", |b| {
        let mut bcs = DirichletBcs::new();
        for &n in boundary_nodes(&mesh).iter() {
            let p = mesh.nodes[n];
            bcs.set(n, Vec3::new(0.0, 0.0, -4.0 * (-((p.x - 72.0).powi(2) + (p.y - 72.0).powi(2)) / 800.0).exp()));
        }
        b.iter(|| {
            let sol = solve_deformation(&mesh, &MaterialTable::homogeneous(), &bcs, &FemSolveConfig::default()).expect("FEM solve rejected its inputs");
            assert!(sol.stats.converged());
            std::hint::black_box(sol.displacements.len())
        });
    });

    g.bench_function("field_interpolation", |b| {
        let disp: Vec<Vec3> = mesh.nodes.iter().map(|p| Vec3::new(0.0, 0.0, -p.z * 0.05)).collect();
        b.iter(|| {
            std::hint::black_box(displacement_field_from_mesh(&mesh, &disp, cfg.dims, cfg.spacing))
        });
    });
    g.finish();
}

/// The k-NN query alone: one serial classification pass over a prebuilt
/// feature matrix and kd-tree of the 32×32×24 @ 4.5 mm phantom (default
/// `SegmentConfig`: intensity plus 8 distance channels, ~960 prototypes).
/// `knn_segmentation` above is dominated by the distance transforms; this
/// isolates the leaf-scan kernel.
fn bench_knn_query(c: &mut Criterion) {
    let phantom = PhantomConfig { dims: Dims::new(32, 32, 24), spacing: Spacing::iso(4.5), ..Default::default() };
    let seq = generate_scan_sequence(&phantom, &BrainShiftConfig::default(), 2, 2);
    let cfg = SegmentConfig::default();
    let reference = &seq.reference.labels;
    let mut classes = reference.labels();
    classes.retain(|&c| c != labels::RESECTION);
    let model = PrototypeModel::sample(reference, &classes, cfg.per_class, cfg.seed);
    let fs = build_feature_stack(&seq.scans[1].intensity, reference, &model.classes(), &cfg);
    let tree = KdTree::build(model.extract(&fs)).expect("phantom prototypes are finite");
    let matrix = fs.to_matrix();

    let mut g = c.benchmark_group("pipeline_stage");
    g.sample_size(20);
    g.bench_function("knn_query", |b| {
        b.iter(|| std::hint::black_box(classify_matrix_serial(&matrix, &tree, cfg.k)));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_stages, bench_knn_query
}
criterion_main!(benches);
