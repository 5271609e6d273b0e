//! Stage replay: one scan through the public functions that
//! `PreparedSurgery::register_scan` calls, in the same order, each call
//! inside a span; plus a replay of every biomechanical solve through
//! `sparse::gmres` with counting kernel wrappers.
//!
//! The per-surgery state `PreparedSurgery` keeps private is rebuilt here
//! with the same public builders, so a replayed scan can be compared bit
//! for bit with the program's own `register_scan` on the same inputs.

use crate::trace::{CountingOp, CountingPrecond, SparseCounters, Tracer};
use brainshift_core::PipelineConfig;
use brainshift_fem::solver::build_preconditioner;
use brainshift_fem::{displacement_field_from_mesh, DirichletBcs, FemSolution, SolverContext};
use brainshift_imaging::dtransform::label_distance_map;
use brainshift_imaging::{labels, DisplacementField, Vec3, Volume};
use brainshift_mesh::{extract_boundary, mesh_labeled_volume, TetMesh, TriSurface};
use brainshift_segment::{
    classify_volume_incremental, largest_component, FeatureStack, IncrementalCache, KdTree,
    PrototypeModel,
};
use brainshift_sparse::{gmres, Preconditioner};
use brainshift_surface::{evolve_surface_with, DistanceForce, NeighborTable};
use std::sync::Arc;

fn component(v: Vec3, c: usize) -> f64 {
    match c {
        0 => v.x,
        1 => v.y,
        _ => v.z,
    }
}

/// Work counters of one replayed scan.
pub struct ScanCounters {
    pub knn_leaf_visits: u64,
    pub reclassified: usize,
    pub total_voxels: usize,
    pub surface_iterations: usize,
    pub surface_residual_mm: f64,
    pub krylov_iterations: usize,
    pub escalated: bool,
}

/// Build a solver context inside a `fem.context_new` span, with the
/// context's own phase timings recorded as its children.
pub fn traced_context(
    tr: &mut Tracer,
    build: impl FnOnce() -> Result<SolverContext, String>,
) -> Result<SolverContext, String> {
    let span = tr.enter("fem.context_new");
    let ctx = build();
    tr.exit(span);
    let ctx = ctx?;
    let t = ctx.timings();
    tr.child_measured(span, "fem.assembly", 0.0, t.assembly_s * 1e6);
    tr.child_measured(
        span,
        "fem.reduction",
        t.assembly_s * 1e6,
        t.reduction_s * 1e6,
    );
    tr.child_measured(
        span,
        "fem.factorization",
        (t.assembly_s + t.reduction_s) * 1e6,
        t.factorization_s * 1e6,
    );
    Ok(ctx)
}

/// Replays solver-context solves through `sparse::gmres`.
#[derive(Default)]
pub struct SparseReplay {
    precond: Option<Box<dyn Preconditioner>>,
    /// The context's warm-start seed: its last converged solution.
    prev: Option<Vec<Vec3>>,
}

/// What one sparse replay found.
pub struct SparseCheck {
    /// The replay took as many Krylov iterations as the context's
    /// primary GMRES attempt.
    pub iterations_match: bool,
    /// The replay's displacements equal the context's bit for bit.
    pub bitwise: bool,
}

impl SparseReplay {
    /// Forget the factorization and the seed: the next context is new.
    pub fn reset(&mut self) {
        *self = SparseReplay::default();
    }

    /// Re-run the solve `ctx` just made for `bcs` (which returned `sol`)
    /// through `sparse::gmres`, from the seed the context used.
    pub fn check(
        &mut self,
        ctx: &SolverContext,
        bcs: &DirichletBcs,
        sol: &FemSolution,
        counters: &SparseCounters,
        tr: &mut Tracer,
    ) -> Result<SparseCheck, String> {
        let st = ctx.structure();
        let a = &st.matrix;
        if self.precond.is_none() {
            self.precond =
                Some(build_preconditioner(ctx.config().precond, a).map_err(|e| e.to_string())?);
        }
        let mut u_c = vec![0.0; st.num_constrained()];
        st.gather_constrained(bcs, &mut u_c)
            .map_err(|e| e.to_string())?;
        let mut rhs = vec![0.0; st.num_free()];
        st.reduced_rhs_zero_f(&u_c, &mut rhs);
        let mut x: Vec<f64> = match &self.prev {
            Some(prev) => st
                .free_dofs
                .iter()
                .map(|&d| component(prev[d / 3], d % 3))
                .collect(),
            None => vec![0.0; st.num_free()],
        };
        let op = CountingOp { inner: a, counters };
        let pc = CountingPrecond {
            inner: self.precond.as_deref().ok_or("no preconditioner")?,
            counters,
        };
        let span = tr.enter("sparse.gmres");
        let stats =
            gmres(&op, &pc, &rhs, &mut x, &ctx.config().options).map_err(|e| e.to_string())?;
        tr.exit(span);
        let primary = sol
            .rungs
            .first()
            .map_or(sol.stats.iterations, |r| r.iterations);
        let mut full = vec![0.0; 3 * sol.displacements.len()];
        st.expand_solution_into(&x, &u_c, &mut full);
        let bitwise =
            sol.displacements.iter().enumerate().all(|(n, &u)| {
                (0..3).all(|c| component(u, c).to_bits() == full[3 * n + c].to_bits())
            });
        if sol.stats.converged() {
            self.prev = Some(sol.displacements.clone());
        }
        Ok(SparseCheck {
            iterations_match: stats.iterations == primary,
            bitwise,
        })
    }
}

/// The per-surgery state of `PreparedSurgery`, rebuilt with public
/// builders, plus the replay's own incremental-classification cache.
pub struct SurgeryReplay {
    cfg: PipelineConfig,
    pub mesh: TetMesh,
    surface: TriSurface,
    snap_positions: Vec<Vec3>,
    model: PrototypeModel,
    distance_channels: Vec<Arc<Volume<f32>>>,
    neighbors: NeighborTable,
    seg_cache: Option<IncrementalCache>,
    carry: Option<DisplacementField>,
    pub sparse: SparseReplay,
}

impl SurgeryReplay {
    /// Rebuild the per-surgery state the way `PreparedSurgery::new` does.
    pub fn build(reference_labels: &Volume<u8>, cfg: PipelineConfig, tr: &mut Tracer) -> Self {
        let span = tr.enter("mesh.generate");
        let mesh = mesh_labeled_volume(reference_labels, &cfg.mesher);
        tr.exit(span);
        let surface = extract_boundary(&mesh);
        let mut classes = reference_labels.labels();
        classes.retain(|&c| c != labels::RESECTION);
        let model = PrototypeModel::sample(
            reference_labels,
            &classes,
            cfg.segment.per_class,
            cfg.segment.seed,
        );
        let ref_mask = largest_component(&reference_labels.map(|&l| labels::is_brain_tissue(l)));
        let force_ref = DistanceForce::from_mask(&ref_mask, cfg.surface_force_step);
        let neighbors = NeighborTable::build(&surface);
        let snap = evolve_surface_with(&surface, &neighbors, &force_ref, &cfg.active_surface);
        let distance_channels = model
            .classes()
            .iter()
            .map(|&c| {
                Arc::new(label_distance_map(
                    reference_labels,
                    c,
                    cfg.segment.distance_cap,
                ))
            })
            .collect();
        SurgeryReplay {
            cfg,
            mesh,
            surface,
            snap_positions: snap.positions,
            model,
            distance_channels,
            neighbors,
            seg_cache: None,
            carry: None,
            sparse: SparseReplay::default(),
        }
    }

    /// A fresh solver context for this surgery, as
    /// `PreparedSurgery::build_solver_context` builds it.
    pub fn build_context(&mut self, tr: &mut Tracer) -> Result<SolverContext, String> {
        self.sparse.reset();
        let (mesh, cfg, nodes) = (&self.mesh, &self.cfg, &self.surface.mesh_node);
        traced_context(tr, || {
            SolverContext::new(mesh, &cfg.materials, nodes, cfg.fem.clone())
                .map_err(|e| e.to_string())
        })
    }

    /// Replay one scan on `ctx` inside a `scan` span. Returns the field
    /// the program would deliver, the scan's work counters and the
    /// sparse replay's verdict.
    pub fn scan(
        &mut self,
        ctx: &mut SolverContext,
        intensity: &Volume<f32>,
        counters: &SparseCounters,
        tr: &mut Tracer,
    ) -> Result<(DisplacementField, ScanCounters, SparseCheck), String> {
        let cfg = &self.cfg;
        let root = tr.enter("scan");

        let span = tr.enter("segment.features");
        let mut fs = FeatureStack::from_intensity(intensity.clone());
        for chan in &self.distance_channels {
            fs.push_shared_channel(chan.clone(), cfg.segment.distance_weight);
        }
        tr.exit(span);

        let span = tr.enter("segment.kd_build");
        let tree = KdTree::build(self.model.extract(&fs)).map_err(|e| e.to_string())?;
        tr.exit(span);

        let span = tr.enter("segment.knn_query");
        let inc = classify_volume_incremental(
            &fs,
            &tree,
            cfg.segment.k,
            cfg.segment.incremental_threshold,
            self.seg_cache.take(),
        );
        tr.exit(span);
        self.seg_cache = Some(inc.cache);

        let span = tr.enter("segment.morphology");
        let target = largest_component(&inc.labels.map(|&l| labels::is_brain_tissue(l)));
        tr.exit(span);

        let span = tr.enter("surface.force");
        let force = DistanceForce::from_mask(&target, cfg.surface_force_step);
        tr.exit(span);

        let span = tr.enter("surface.evolve");
        let mut snapped = self.surface.clone();
        snapped.vertices = self.snap_positions.clone();
        let evolved = evolve_surface_with(&snapped, &self.neighbors, &force, &cfg.active_surface);
        tr.exit(span);

        let mut bcs = DirichletBcs::new();
        for (v, &node) in self.surface.mesh_node.iter().enumerate() {
            bcs.set(node, evolved.positions[v] - self.snap_positions[v]);
        }

        let span = tr.enter("fem.solve");
        let sol = ctx
            .solve_with(&bcs, None, None)
            .map_err(|e| e.to_string())?;
        tr.exit(span);

        let span = tr.enter("fem.resample");
        let converged = sol.stats.converged();
        let field = if converged {
            displacement_field_from_mesh(
                &self.mesh,
                &sol.displacements,
                intensity.dims(),
                intensity.spacing(),
            )
        } else {
            self.carry
                .clone()
                .unwrap_or_else(|| DisplacementField::zeros(intensity.dims(), intensity.spacing()))
        };
        tr.exit(span);
        tr.exit(root);

        if converged {
            self.carry = Some(field.clone());
        }
        let check = self.sparse.check(ctx, &bcs, &sol, counters, tr)?;
        let counts = ScanCounters {
            knn_leaf_visits: inc.leaf_visits,
            reclassified: inc.reclassified,
            total_voxels: inc.total,
            surface_iterations: evolved.iterations,
            surface_residual_mm: evolved.final_distance,
            krylov_iterations: sol.stats.iterations,
            escalated: sol.escalated,
        };
        Ok((field, counts, check))
    }
}
