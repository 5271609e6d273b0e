//! Scenario-factory smoke batch: hundreds of seeded cases from all four
//! workload classes (gravity sag, resection collapse, skull contact,
//! sparse keypoints), each prepared and served through the production
//! 2-worker service path. The binary is its own acceptance gate:
//!
//! - **0 invalid meshes** — every generated case survives
//!   `validate_quality`, across every seeded cavity carve;
//! - **0 shed jobs** — the service admits and completes every scan;
//! - **byte-identical event scripts** — the suite is run twice and the
//!   service's timestamp-free [`EventLog::script`] must match exactly,
//!   the determinism oracle over the full generate → prepare → serve
//!   chain.
//!
//! Writes a `brainshift.obs.v1` report to
//! `bench_out/scenario_suite.json`.
//!
//! ```bash
//! cargo run --release --bin scenario_suite_json -- [cases]
//! ```

use brainshift_core::ScanStatus;
use brainshift_obs::{BenchReport, JsonValue};
use brainshift_scenario::{run_scenario_suite, ScenarioKind, SuiteConfig, SuiteReport};
use std::path::PathBuf;
use std::time::Instant;

struct ClassStats {
    kind: ScenarioKind,
    cases: usize,
    degraded: usize,
    mean_latency_ms: f64,
    mean_gt_peak_mm: f64,
    mean_recovered_peak_mm: f64,
    warm: usize,
}

fn class_stats(report: &SuiteReport) -> Vec<ClassStats> {
    ScenarioKind::ALL
        .iter()
        .map(|&kind| {
            let rs: Vec<_> = report.records.iter().filter(|r| r.kind == kind).collect();
            let n = rs.len().max(1) as f64;
            ClassStats {
                kind,
                cases: rs.len(),
                degraded: rs.iter().filter(|r| r.status == ScanStatus::Degraded).count(),
                mean_latency_ms: rs.iter().map(|r| r.latency_s * 1e3).sum::<f64>() / n,
                mean_gt_peak_mm: rs.iter().map(|r| r.gt_peak_mm).sum::<f64>() / n,
                mean_recovered_peak_mm: rs.iter().map(|r| r.recovered_peak_mm).sum::<f64>() / n,
                warm: rs.iter().filter(|r| r.warm).count(),
            }
        })
        .collect()
}

fn main() {
    let cases: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(SuiteConfig::default().cases);
    let cfg = SuiteConfig { cases, ..Default::default() };
    eprintln!(
        "scenario suite: {} cases over {} classes, {} workers, base seed {:#x}",
        cfg.cases,
        ScenarioKind::ALL.len(),
        cfg.workers,
        cfg.base_seed
    );

    let t0 = Instant::now();
    let run_a = run_scenario_suite(&cfg);
    let wall_a = t0.elapsed().as_secs_f64();
    eprintln!(
        "run A: {} served, {} invalid meshes, {} generation failures, {} shed, {} degraded, \
         {} escalated ({} to the BiCGStab rung), {} carve retries ({wall_a:.1}s)",
        run_a.records.len(),
        run_a.invalid_meshes,
        run_a.generation_failures,
        run_a.shed_jobs,
        run_a.degraded,
        run_a.escalated,
        run_a.bicgstab_rungs,
        run_a.carve_retries
    );

    let t1 = Instant::now();
    let run_b = run_scenario_suite(&cfg);
    let wall_b = t1.elapsed().as_secs_f64();
    eprintln!("run B: {} served ({wall_b:.1}s)", run_b.records.len());

    // The acceptance gates.
    assert_eq!(run_a.invalid_meshes, 0, "invalid meshes in run A");
    assert_eq!(run_a.generation_failures, 0, "generation failures in run A");
    assert_eq!(run_a.shed_jobs, 0, "shed jobs in run A");
    assert_eq!(
        run_a.script, run_b.script,
        "event script differs between two runs of the same seed set"
    );
    eprintln!("determinism: two-run event scripts byte-identical ({} bytes)", run_a.script.len());

    let per_class: JsonValue = class_stats(&run_a)
        .iter()
        .map(|c| {
            JsonValue::obj()
                .with("class", c.kind.name().into())
                .with("cases", c.cases.into())
                .with("degraded", c.degraded.into())
                .with("warm_serves", c.warm.into())
                .with("mean_latency_ms", c.mean_latency_ms.into())
                .with("mean_gt_peak_mm", c.mean_gt_peak_mm.into())
                .with("mean_recovered_peak_mm", c.mean_recovered_peak_mm.into())
        })
        .collect();

    let mut report = BenchReport::new("scenario_suite");
    report.params = JsonValue::obj()
        .with("cases", cfg.cases.into())
        .with("workers", cfg.workers.into())
        .with("base_seed", cfg.base_seed.into())
        .with("deadline_s", cfg.deadline.as_secs_f64().into());
    report.extra = JsonValue::obj()
        .with("served", run_a.records.len().into())
        .with("invalid_meshes", run_a.invalid_meshes.into())
        .with("generation_failures", run_a.generation_failures.into())
        .with("shed_jobs", run_a.shed_jobs.into())
        .with("degraded", run_a.degraded.into())
        .with("escalated", run_a.escalated.into())
        .with("bicgstab_rungs", run_a.bicgstab_rungs.into())
        .with("carve_retries", run_a.carve_retries.into())
        .with("script_bytes", run_a.script.len().into())
        .with("script_deterministic", (run_a.script == run_b.script).into())
        .with("wall_s_run_a", wall_a.into())
        .with("wall_s_run_b", wall_b.into())
        .with("per_class", per_class);

    let path = PathBuf::from("bench_out/scenario_suite.json");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create bench_out/");
    }
    std::fs::write(&path, report.render()).expect("write scenario_suite.json");
    eprintln!("wrote {}", path.display());
}
