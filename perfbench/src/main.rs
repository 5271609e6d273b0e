//! Scan-to-field benchmark for brainshift.
//!
//! ```bash
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload or_stream --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `or_stream`, `paper_cold`, `cache_churn` (see README.md).
//! With `--trace 0` the run reports the end-to-end metrics, with
//! `--trace 1` the per-layer split. The last line of standard output is
//! one JSON object; the exit code is non-zero when an output check fails.

mod inputs;
mod paper;
mod replay;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;

/// What happened to the scans (or fields) a run attempted.
#[derive(Default, Clone, Copy)]
pub struct Accounting {
    pub attempted: u64,
    pub completed: u64,
    pub rejected: u64,
    pub errored: u64,
    pub degraded: u64,
    pub late: u64,
    /// Scans with at least one of: rejected, errored, degraded, late.
    pub failed: u64,
}

impl Accounting {
    pub fn add(&mut self, o: &Accounting) {
        self.attempted += o.attempted;
        self.completed += o.completed;
        self.rejected += o.rejected;
        self.errored += o.errored;
        self.degraded += o.degraded;
        self.late += o.late;
        self.failed += o.failed;
    }
}

/// Everything one run prints: human-readable lines, the output checks,
/// the failure accounting and the metrics of the final JSON line.
#[derive(Default)]
pub struct Report {
    lines: Vec<String>,
    checks: Vec<(String, bool)>,
    pub acct: Accounting,
    metrics: Vec<(String, f64, &'static str)>,
    extras: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn line(&mut self, l: String) {
        self.lines.push(l);
    }

    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks.push((what.to_string(), ok));
    }

    /// A metric of the final JSON line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A printed figure that is not one of the benchmark's metrics.
    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extras.push((name.to_string(), value, unit));
    }

    /// Per-layer metrics of the layers a workload does not run.
    pub fn service_and_imaging_zero(&mut self) {
        for (name, unit) in [
            ("service.queue_wait_ms", "ms"),
            ("service.exec_ms", "ms"),
            ("service.cache_hit_ratio", "1"),
            ("service.evictions", "count"),
            ("service.stolen_ratio", "1"),
            ("core.prepare_s", "s"),
            ("core.register_scan_ms", "ms"),
            ("segment.features_ms", "ms"),
            ("segment.kd_build_ms", "ms"),
            ("segment.knn_query_ms", "ms"),
            ("segment.morphology_ms", "ms"),
            ("segment.knn_leaf_visits", "count"),
            ("segment.reclassified_ratio", "1"),
            ("surface.force_ms", "ms"),
            ("surface.evolve_ms", "ms"),
            ("surface.iterations", "count"),
            ("surface.residual_mm", "mm"),
        ] {
            self.metric(name, 0.0, unit);
        }
    }

    /// The `fem` and `sparse` per-layer metrics from a traced replay.
    pub fn fem_and_sparse(
        &mut self,
        tr: &trace::Tracer,
        krylov_iterations: usize,
        escalations: usize,
        c: &trace::SparseCounters,
    ) {
        let sm = |name: &str| stats::median(&tr.self_ms(name));
        let get = trace::SparseCounters::get;
        self.metric("fem.assembly_ms", sm("fem.assembly"), "ms");
        self.metric("fem.reduction_ms", sm("fem.reduction"), "ms");
        self.metric("fem.factorization_ms", sm("fem.factorization"), "ms");
        self.metric("fem.solve_ms", sm("fem.solve"), "ms");
        self.metric("fem.krylov_iterations", krylov_iterations as f64, "count");
        self.metric("fem.escalations", escalations as f64, "count");
        self.metric("fem.resample_ms", sm("fem.resample"), "ms");
        self.metric("sparse.spmv_calls", get(&c.spmv_calls) as f64, "count");
        self.metric("sparse.spmv_us", get(&c.spmv_ns) as f64 / 1e3, "us");
        self.metric("sparse.spmv_bytes", get(&c.spmv_bytes) as f64, "B");
        self.metric(
            "sparse.precond_calls",
            get(&c.precond_calls) as f64,
            "count",
        );
        self.metric("sparse.precond_us", get(&c.precond_ns) as f64 / 1e3, "us");
    }

    /// Write the traced run's spans under `bench_out/`.
    pub fn write_spans(&mut self, tr: &trace::Tracer, workload: &str, seed: u64) {
        let path = PathBuf::from("bench_out")
            .join("perfbench")
            .join(format!("{workload}-seed{seed}.spans.jsonl"));
        match tr.write(&path) {
            Ok(()) => self.line(format!(
                "# spans: {} written to {}",
                tr.spans().len(),
                path.display()
            )),
            Err(e) => self.line(format!("# spans: not written ({e})")),
        }
    }

    fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok)| *ok)
    }

    fn print(&self) {
        for l in &self.lines {
            println!("{l}");
        }
        for (what, ok) in &self.checks {
            println!("# check {}: {what}", if *ok { "ok  " } else { "FAIL" });
        }
        let a = &self.acct;
        println!(
            "# accounting: attempted {} completed {} rejected {} errored {} degraded {} late {} -> fail_ratio {:.6} (1)",
            a.attempted,
            a.completed,
            a.rejected,
            a.errored,
            a.degraded,
            a.late,
            if a.attempted > 0 { a.failed as f64 / a.attempted as f64 } else { 0.0 }
        );
        for (name, value, unit) in self.metrics.iter().chain(&self.extras) {
            println!("{name:<28} {value:>16.6} {unit}");
        }
        let mut json = String::from("{");
        let _ = write!(
            json,
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.acct.attempted.max(1),
            self.acct.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|_| format!("bad --seed {val}"))?,
            "--seconds" => a.seconds = val.parse().map_err(|_| format!("bad --seconds {val}"))?,
            "--trace" => a.trace = val == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["or_stream", "paper_cold", "cache_churn"].contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be or_stream, paper_cold or cache_churn, not {:?}",
            a.workload
        ));
    }
    Ok(a)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Thread budget: the serving workloads run `nproc` service workers
    // and keep every rayon call on its calling worker; paper_cold has one
    // caller and gives rayon all `nproc` threads. The vendored rayon sizes
    // its pool once per process from this variable, so it is set before
    // any parallel call.
    let (workers, rayon_threads) = match args.workload.as_str() {
        "paper_cold" => (0, nproc),
        _ => (nproc, 1),
    };
    std::env::set_var("RAYON_NUM_THREADS", rayon_threads.to_string());
    println!(
        "# host: nproc {nproc}; cpu {}; rustc {}; workload {} seed {} seconds {} trace {}",
        cpu_model(),
        env!("PERFBENCH_RUSTC"),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# threads: {workers} service workers + 1 load-generator thread (sleeps between polls) + rayon {rayon_threads} (including the caller)"
    );

    let ticks_before = stats::host_cpu_ticks();
    let mut report = Report::default();
    let result = match (args.workload.as_str(), args.trace) {
        ("or_stream", false) => serve::run(
            serve::OR_STREAM,
            args.seed,
            args.seconds,
            workers,
            &mut report,
        ),
        ("or_stream", true) => serve::run_traced(
            serve::OR_STREAM,
            args.seed,
            args.seconds,
            workers,
            &mut report,
        ),
        ("cache_churn", false) => serve::run(
            serve::CACHE_CHURN,
            args.seed,
            args.seconds,
            workers,
            &mut report,
        ),
        ("cache_churn", true) => serve::run_traced(
            serve::CACHE_CHURN,
            args.seed,
            args.seconds,
            workers,
            &mut report,
        ),
        (_, false) => paper::run(args.seed, args.seconds, &mut report),
        (_, true) => paper::run_traced(args.seed, &mut report),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    if let (Some((t0, s0)), Some((t1, s1))) = (ticks_before, stats::host_cpu_ticks()) {
        // Time the hypervisor gave to other guests: the usual cause of a
        // run that is slow across the board.
        report.line(format!(
            "# host: {:.1}% of CPU time stolen during the run",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        ));
    }
    report.print();
    if !report.correct() {
        std::process::exit(1);
    }
}
