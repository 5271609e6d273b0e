//! `paper_cold`: the paper's headline number on its Fig 7 system, with a
//! single caller and no service. Each repetition builds a fresh
//! `SolverContext`, solves cold and resamples onto the label grid, then
//! runs progressive-shift warm solves on the same context.

use crate::replay::{traced_context, SparseReplay};
use crate::stats::{field_hash, field_is_finite, mean, median, peak_rss_mib, percentile, unit};
use crate::trace::{SparseCounters, Tracer};
use crate::Report;
use brainshift_bench::{cap_bcs, problem_with_equations, BenchProblem};
use brainshift_fem::{
    displacement_field_from_mesh, DirichletBcs, FemSolveConfig, MaterialTable, SolverContext,
};
use brainshift_imaging::phantom::BrainShiftConfig;
use brainshift_imaging::{labels, DisplacementField};
use brainshift_mesh::{mesh_labeled_volume, MesherConfig};
use brainshift_sparse::SolverOptions;
use std::time::Instant;

/// The paper's Fig 7 system: 77,511 equations requested, 77,763 built.
const EQUATIONS: usize = 77_511;
/// Shift stage of the cold solve, then of each warm solve. Every warm
/// solve gets new boundary data: re-solving identical data would end in
/// zero Krylov iterations.
const STAGES: [f64; 4] = [0.25, 0.5, 0.75, 1.0];
/// Mesh generations per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Repetitions the traced run replays (fixed, so counters repeat).
const TRACED_REPS: usize = 2;
/// Voxels whose reference shift is below this are left out of the error.
const FIELD_ERR_THRESHOLD_MM: f64 = 1.5;

struct Inputs {
    p: BenchProblem,
    stages: Vec<DirichletBcs>,
    nodes: Vec<usize>,
}

fn inputs(seed: u64) -> Inputs {
    let p = problem_with_equations(EQUATIONS);
    let shift = BrainShiftConfig {
        peak_shift_mm: 8.0 + 0.4 * (unit(seed, 1) - 0.5),
        ..Default::default()
    };
    let full = cap_bcs(&p.mesh, &p.model, &shift);
    let stages = STAGES
        .iter()
        .map(|&s| {
            let mut bcs = DirichletBcs::new();
            for (n, u) in full.iter() {
                bcs.set(n, u * s);
            }
            bcs
        })
        .collect();
    let nodes = full.nodes_sorted();
    Inputs { p, stages, nodes }
}

fn mesher() -> MesherConfig {
    MesherConfig {
        step: 2,
        include: labels::is_brain_tissue,
    }
}

/// Time `mesh_labeled_volume` on the problem's label volume; checks it
/// rebuilds the problem's mesh.
fn setup(inp: &Inputs, report: &mut Report) -> Vec<f64> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut same = true;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let mesh = mesh_labeled_volume(&inp.p.labels, &mesher());
        times.push(t.elapsed().as_secs_f64());
        same &= mesh.fingerprint() == inp.p.mesh.fingerprint();
    }
    report.check("mesh_labeled_volume rebuilds the Fig 7 mesh", same);
    times
}

fn new_context(inp: &Inputs) -> Result<SolverContext, String> {
    SolverContext::new(
        &inp.p.mesh,
        &MaterialTable::homogeneous(),
        &inp.nodes,
        FemSolveConfig::default(),
    )
    .map_err(|e| e.to_string())
}

fn resample(inp: &Inputs, u: &[brainshift_imaging::Vec3]) -> DisplacementField {
    displacement_field_from_mesh(&inp.p.mesh, u, inp.p.labels.dims(), inp.p.labels.spacing())
}

/// Mean ‖field − stage·reference‖ over voxels where the scaled reference
/// exceeds the threshold: `core::field_error`'s mean error against the
/// reference solve, scaled to the stage (the problem is linear).
fn stage_error(field: &DisplacementField, reference: &DisplacementField, stage: f64) -> f64 {
    let (mut n, mut sum) = (0usize, 0.0);
    for (r, t) in field.data().iter().zip(reference.data()) {
        let t = *t * stage;
        if t.norm() > FIELD_ERR_THRESHOLD_MM {
            n += 1;
            sum += (*r - t).norm();
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn describe(inp: &Inputs, report: &mut Report) {
    report.line(format!(
        "# shape: closed loop, one caller, no service; {} nodes, {} equations, label grid {:?}; stages {STAGES:?}",
        inp.p.mesh.num_nodes(),
        inp.p.mesh.num_equations(),
        inp.p.labels.dims()
    ));
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let inp = inputs(seed);
    describe(&inp, report);
    let setups = setup(&inp, report);

    // Warm-up repetition (untimed). Its context, solved on to a tight
    // tolerance at the final stage, gives the reference field.
    let mut ctx = new_context(&inp)?;
    let mut cold_hash = None;
    for (i, bcs) in inp.stages.iter().enumerate() {
        let sol = ctx.solve(bcs).map_err(|e| e.to_string())?;
        if i == 0 {
            cold_hash = Some(field_hash(&resample(&inp, &sol.displacements)));
        }
    }
    let tight = SolverOptions {
        tolerance: 1e-10,
        max_iterations: 20_000,
        ..ctx.config().options.clone()
    };
    let last = inp.stages.last().ok_or("no stages")?;
    let reference = ctx
        .solve_with(last, Some(&tight), None)
        .map_err(|e| e.to_string())?;
    report.check("reference solve converges", reference.stats.converged());
    let reference = resample(&inp, &reference.displacements);
    drop(ctx);

    let (mut cold_s, mut warm_ms, mut errs) = (vec![], vec![], vec![]);
    let (mut converged, mut finite, mut same_hash) = (true, true, true);
    let mut fields = 0u64;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds || cold_s.len() < 2 {
        let t = Instant::now();
        let mut ctx = new_context(&inp)?;
        for (i, (bcs, &stage)) in inp.stages.iter().zip(&STAGES).enumerate() {
            let t_warm = Instant::now();
            let sol = ctx.solve(bcs).map_err(|e| e.to_string())?;
            let field = resample(&inp, &sol.displacements);
            if i == 0 {
                cold_s.push(t.elapsed().as_secs_f64());
                same_hash &= Some(field_hash(&field)) == cold_hash;
            } else {
                warm_ms.push(t_warm.elapsed().as_secs_f64() * 1e3);
            }
            fields += 1;
            converged &= sol.stats.converged();
            finite &= field_is_finite(&field);
            errs.push(stage_error(&field, &reference, stage));
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    report.check("every solve converges", converged);
    report.check("every delivered field is finite", finite);
    report.check(
        "the cold field hash is identical across repetitions",
        same_hash,
    );
    report.acct.attempted = fields;
    report.acct.completed = fields;
    report.line(format!(
        "# repetitions: {} cold + {} warm fields; cold_field_s median {:.4} s, warm_field_s median {:.4} s",
        cold_s.len(),
        warm_ms.len(),
        median(&cold_s),
        median(&warm_ms) / 1e3
    ));
    report.metric("setup_s", median(&setups), "s");
    report.metric("scan_latency_p50_ms", percentile(&warm_ms, 50.0), "ms");
    report.metric("scans_per_s", fields as f64 / wall, "1/s");
    report.metric("cold_field_s", median(&cold_s), "s");
    report.metric("field_err_mm", mean(&errs), "mm");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report.extra("warm_field_s", median(&warm_ms) / 1e3, "s");
    Ok(())
}

/// The traced run: one plain repetition, then `TRACED_REPS` with spans
/// around every `fem` call and every solve replayed through
/// `sparse::gmres`.
pub fn run_traced(seed: u64, report: &mut Report) -> Result<(), String> {
    let inp = inputs(seed);
    describe(&inp, report);
    let setups = setup(&inp, report);

    let mut plain_warm_ms = Vec::new();
    let mut ctx = new_context(&inp)?;
    for bcs in &inp.stages {
        let t = Instant::now();
        let sol = ctx.solve(bcs).map_err(|e| e.to_string())?;
        resample(&inp, &sol.displacements);
        plain_warm_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    plain_warm_ms.remove(0);
    drop(ctx);

    let mut tr = Tracer::new();
    let counters = SparseCounters::default();
    let mut sparse = SparseReplay::default();
    let (mut kry, mut esc) = (0usize, 0usize);
    let (mut iters_match, mut exact, mut converged, mut finite) = (true, true, true, true);
    for rep in 0..TRACED_REPS {
        tr.set_scan(rep as u64);
        sparse.reset();
        let root = tr.enter("field_cold");
        let mut ctx = traced_context(&mut tr, || new_context(&inp))?;
        for (i, bcs) in inp.stages.iter().enumerate() {
            let root = if i == 0 { root } else { tr.enter("field_warm") };
            let span = tr.enter("fem.solve");
            let sol = ctx.solve(bcs).map_err(|e| e.to_string())?;
            tr.exit(span);
            let span = tr.enter("fem.resample");
            let field = resample(&inp, &sol.displacements);
            tr.exit(span);
            tr.exit(root);
            converged &= sol.stats.converged();
            finite &= field_is_finite(&field);
            kry += sol.stats.iterations;
            esc += usize::from(sol.escalated);
            let check = sparse.check(&ctx, bcs, &sol, &counters, &mut tr)?;
            iters_match &= check.iterations_match;
            exact &= check.bitwise;
        }
    }
    report.check("every solve converges", converged);
    report.check("every delivered field is finite", finite);
    report.check(
        "sparse::gmres replay iterations equal the context's",
        iters_match,
    );
    if !exact {
        report.line("# WARNING: the sparse::gmres replay no longer reproduces the context's solve bit for bit".into());
    }
    let fields = (TRACED_REPS * STAGES.len()) as u64;
    report.acct.attempted = fields;
    report.acct.completed = fields;

    let traced_warm = tr.dur_ms("field_warm");
    report.service_and_imaging_zero();
    report.fem_and_sparse(&tr, kry, esc, &counters);
    report.metric("mesh.generate_s", median(&setups), "s");
    report.metric("loadgen.lateness_p95_ms", 0.0, "ms");
    report.metric("trace.replay_exact", if exact { 1.0 } else { 0.0 }, "1");
    report.metric(
        "trace.overhead_ms",
        median(&traced_warm) - median(&plain_warm_ms),
        "ms",
    );
    report.metric(
        "trace.unattributed_ratio",
        tr.unattributed_ratio(&["field_cold", "field_warm"]),
        "1",
    );
    report.write_spans(&tr, "paper_cold", seed);
    Ok(())
}
