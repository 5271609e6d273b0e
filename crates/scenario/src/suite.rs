//! Batch seeded scenario cases through the production serving path.
//!
//! Each case becomes a real [`PreparedSurgery`] session on a running
//! [`Service`]: the reference labels are prepared (mesh, snapped surface,
//! prototype model), the session is opened, and the case's intraoperative
//! scan is submitted as a [`ScanJob`] — exercising admission, the
//! deadline queue, the warm-context cache, and sticky worker placement
//! under four workload shapes the phantom sequence never produced.
//!
//! Submission is **serialized** (each ticket is awaited before the next
//! submit) so the service's timestamp-free [`event
//! script`](Service::script) is a deterministic function of the seed
//! set — the byte-identical-across-runs oracle the bench binary checks.

use crate::{generate_scenario, ScenarioError, ScenarioKind};
use brainshift_core::{PipelineConfig, PreparedSurgery, ScanStatus};
use brainshift_service::{ScanJob, Service, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

/// Suite parameters.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Base seed; case `i` uses seed `base_seed + i`.
    pub base_seed: u64,
    /// Number of cases (round-robin over [`ScenarioKind::ALL`]).
    pub cases: usize,
    /// Service worker threads.
    pub workers: usize,
    /// Per-job deadline (generous: the suite measures correctness and
    /// determinism, not deadline pressure).
    pub deadline: Duration,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            base_seed: 0x5CE7_A210,
            cases: 200,
            workers: 2,
            deadline: Duration::from_secs(120),
        }
    }
}

/// What happened to one case.
#[derive(Debug, Clone)]
pub struct SuiteCaseRecord {
    /// Case name (`<kind>-<seed:08x>`).
    pub name: String,
    /// Scenario class.
    pub kind: ScenarioKind,
    /// Generation seed.
    pub seed: u64,
    /// Session id the service assigned.
    pub session: u64,
    /// Worker that executed the scan.
    pub worker: usize,
    /// Whether the solver context came warm from the cache.
    pub warm: bool,
    /// How the scan's solve concluded.
    pub status: ScanStatus,
    /// Krylov iterations of the served solve.
    pub fem_iterations: usize,
    /// Ground-truth peak displacement, mm.
    pub gt_peak_mm: f64,
    /// Peak of the recovered field, mm.
    pub recovered_peak_mm: f64,
    /// Submission-to-completion latency, seconds (wall clock — varies
    /// between runs; excluded from the determinism oracle).
    pub latency_s: f64,
}

/// Aggregate result of one suite run.
pub struct SuiteReport {
    /// Per-case records, in submission order.
    pub records: Vec<SuiteCaseRecord>,
    /// Cases whose generation failed mesh validation even after retries.
    pub invalid_meshes: usize,
    /// Cases whose generation failed for any other reason.
    pub generation_failures: usize,
    /// Jobs the service refused at admission.
    pub shed_jobs: usize,
    /// Jobs that degraded to carry-forward instead of converging.
    pub degraded: usize,
    /// Jobs whose solve needed a rung beyond the primary GMRES attempt.
    pub escalated: usize,
    /// Jobs whose escalation reached the last, BiCGStab rung.
    pub bicgstab_rungs: usize,
    /// Total cavity-carve retries across all resection cases.
    pub carve_retries: usize,
    /// The service's timestamp-free event script — the determinism
    /// oracle: two runs of the same seed set must produce byte-identical
    /// scripts.
    pub script: String,
}

/// The `(kind, seed)` list of a suite: kinds round-robin in canonical
/// order, seeds increment from `base_seed`.
pub fn suite_cases(base_seed: u64, cases: usize) -> Vec<(ScenarioKind, u64)> {
    (0..cases)
        .map(|i| (ScenarioKind::ALL[i % ScenarioKind::ALL.len()], base_seed + i as u64))
        .collect()
}

/// Pipeline configuration the suite prepares every surgery with: the
/// default intraoperative pipeline minus rigid registration (scenario
/// scans share the reference frame by construction).
pub fn suite_pipeline_config() -> PipelineConfig {
    PipelineConfig { skip_rigid: true, ..Default::default() }
}

/// Run the suite: generate every case, serve every case's intraoperative
/// scan through a fresh service, and return the aggregate report.
pub fn run_scenario_suite(cfg: &SuiteConfig) -> SuiteReport {
    let service = Service::start(ServiceConfig {
        workers: cfg.workers.max(1),
        ..Default::default()
    });
    let mut report = SuiteReport {
        records: Vec::with_capacity(cfg.cases),
        invalid_meshes: 0,
        generation_failures: 0,
        shed_jobs: 0,
        degraded: 0,
        escalated: 0,
        bicgstab_rungs: 0,
        carve_retries: 0,
        script: String::new(),
    };
    // With the default policy the BiCGStab fallback is the rung after
    // the primary GMRES attempt and every larger-restart GMRES attempt.
    let policy = suite_pipeline_config().fem.escalation;
    let bicgstab_attempt = 2 + policy.larger_restarts.len();
    for (kind, seed) in suite_cases(cfg.base_seed, cfg.cases) {
        let case = match generate_scenario(kind, seed) {
            Ok(case) => case,
            Err(
                ScenarioError::MeshInvalid(_) | ScenarioError::CavityRetriesExhausted { .. },
            ) => {
                report.invalid_meshes += 1;
                continue;
            }
            Err(_) => {
                report.generation_failures += 1;
                continue;
            }
        };
        report.carve_retries += case.stats.carve_retries;
        let prepared = match PreparedSurgery::new(&case.preop.labels, suite_pipeline_config()) {
            Ok(p) => p,
            Err(_) => {
                report.generation_failures += 1;
                continue;
            }
        };
        let session = service.open_session(Arc::new(prepared));
        let ticket = match service.submit(ScanJob {
            session,
            intensity: case.intraop_intensity.clone(),
            priority: 0,
            deadline: cfg.deadline,
        }) {
            Ok(t) => t,
            Err(_) => {
                report.shed_jobs += 1;
                continue;
            }
        };
        // Serialized: wait before the next submit, keeping the event
        // script a pure function of the seed set.
        let outcome = match ticket.wait() {
            Ok(o) => o,
            Err(_) => {
                report.shed_jobs += 1;
                continue;
            }
        };
        if outcome.status == ScanStatus::Degraded {
            report.degraded += 1;
        }
        if outcome.attempts > 1 {
            report.escalated += 1;
        }
        if policy.bicgstab_fallback && outcome.attempts >= bicgstab_attempt {
            report.bicgstab_rungs += 1;
        }
        report.records.push(SuiteCaseRecord {
            name: case.name,
            kind,
            seed,
            session,
            worker: outcome.worker,
            warm: outcome.warm,
            status: outcome.status,
            fem_iterations: outcome.fem_iterations,
            gt_peak_mm: case.stats.peak_displacement_mm,
            recovered_peak_mm: outcome.field.max_magnitude(),
            latency_s: outcome.latency.as_secs_f64(),
        });
    }
    report.script = service.script();
    service.shutdown();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_suite_serves_all_four_kinds() {
        let cfg = SuiteConfig { cases: 4, ..Default::default() };
        let report = run_scenario_suite(&cfg);
        assert_eq!(report.invalid_meshes, 0, "invalid meshes in suite");
        assert_eq!(report.generation_failures, 0);
        assert_eq!(report.shed_jobs, 0);
        assert_eq!(report.records.len(), 4);
        let kinds: Vec<_> = report.records.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, ScenarioKind::ALL.to_vec());
        for r in &report.records {
            assert_ne!(r.status, ScanStatus::Degraded, "{} degraded", r.name);
            assert!(r.recovered_peak_mm > 0.0, "{} recovered nothing", r.name);
        }
        assert!(!report.script.is_empty());
    }

    #[test]
    fn suite_script_is_deterministic_across_runs() {
        let cfg = SuiteConfig { cases: 4, ..Default::default() };
        let a = run_scenario_suite(&cfg);
        let b = run_scenario_suite(&cfg);
        assert_eq!(a.script, b.script, "event script must be a pure function of the seed set");
    }
}
