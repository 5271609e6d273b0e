//! The two serving workloads, driven through `service::Service`:
//!
//! * `or_stream` — open loop: every scanner submits on a fixed cadence
//!   (staggered across surgeries), deadline = cadence, all sessions warm.
//! * `cache_churn` — closed loop: at most `nproc` scans outstanding,
//!   round-robin over more sessions than the context budget holds, so
//!   every scan evicts a context and rebuilds its own.

use crate::inputs::{phantom_surgeries, pingpong, pipeline_config, SCANS_PER_SURGERY};
use crate::replay::SurgeryReplay;
use crate::stats::{field_is_finite, mean, median, peak_rss_mib, percentile};
use crate::trace::{SparseCounters, Tracer};
use crate::{Accounting, Report};
use brainshift_core::{field_error, PreparedSurgery, ScanSequence, ScanStatus};
use brainshift_imaging::DisplacementField;
use brainshift_service::{
    CacheStats, Event, EventKind, JobTicket, ScanJob, Service, ServiceConfig,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Voxels whose true shift is below this are left out of the field
/// error, as in `core::run_scan_sequence`.
const FIELD_ERR_THRESHOLD_MM: f64 = 1.5;
/// How often the load generator polls its outstanding tickets.
const POLL: Duration = Duration::from_micros(200);
/// Scans per surgery that the traced stage replay re-runs.
const REPLAY_SCANS_OR_STREAM: usize = 8;
/// Round-robin passes over all sessions in the traced cold replay.
const REPLAY_PASSES_CACHE_CHURN: usize = 2;

#[derive(Clone, Copy)]
pub enum Shape {
    /// Open loop, `rate` scans/s in total across `sessions` scanners.
    OrStream { sessions: usize, rate: f64 },
    /// Closed loop over `sessions`, a context budget for `resident`.
    CacheChurn { sessions: usize, resident: usize },
}

impl Shape {
    /// Untraced runs split their time into this many rounds, each with
    /// its own set-up, so `setup_s` is a median. `or_stream` has its cold
    /// scans only at the start of a round, so it needs more rounds for a
    /// steady `cold_field_s`.
    fn rounds(self) -> usize {
        match self {
            Shape::OrStream { .. } => 10,
            Shape::CacheChurn { .. } => 6,
        }
    }

    fn sessions(self) -> usize {
        match self {
            Shape::OrStream { sessions, .. } | Shape::CacheChurn { sessions, .. } => sessions,
        }
    }
}

pub const OR_STREAM: Shape = Shape::OrStream {
    sessions: 4,
    rate: 12.0,
};
pub const CACHE_CHURN: Shape = Shape::CacheChurn {
    sessions: 8,
    resident: 2,
};
/// Deadline of a closed-loop scan: generous, so a late scan means the
/// program stalled, not that the loop was tight.
const CLOSED_LOOP_DEADLINE: Duration = Duration::from_secs(2);

/// One scan as the load generator saw it.
struct Sample {
    latency_ms: f64,
    /// Set when the scan was delivered.
    warm: Option<bool>,
}

/// One round: set-up, timed stream, tear-down.
struct Round {
    setup_s: f64,
    prepare_s: Vec<f64>,
    wall_s: f64,
    samples: Vec<Sample>,
    lateness_ms: Vec<f64>,
    field_err_mm: Vec<f64>,
    all_finite: bool,
    acct: Accounting,
    events: Vec<Event>,
    cache: CacheStats,
}

fn service_config(shape: Shape, workers: usize, ctx_bytes: usize) -> ServiceConfig {
    let memory_budget_bytes = match shape {
        // Every session stays resident.
        Shape::OrStream { .. } => ServiceConfig::default().memory_budget_bytes,
        // Room for `resident` contexts and not one more.
        Shape::CacheChurn { resident, .. } => ctx_bytes * resident + ctx_bytes / 2,
    };
    ServiceConfig {
        workers,
        memory_budget_bytes,
        ..Default::default()
    }
}

struct Outstanding {
    since: Instant,
    session: usize,
    scan: usize,
    ticket: JobTicket,
}

fn run_round(
    shape: Shape,
    inputs: &[ScanSequence],
    workers: usize,
    ctx_bytes: usize,
    duration: Duration,
) -> Result<Round, String> {
    // ---- set-up: prepare every surgery, start the service, open sessions.
    let t_setup = Instant::now();
    let mut prepare_s = Vec::with_capacity(inputs.len());
    let mut prepared = Vec::with_capacity(inputs.len());
    for seq in inputs {
        let t = Instant::now();
        let p = PreparedSurgery::new(&seq.reference.labels, pipeline_config())
            .map_err(|e| e.to_string())?;
        prepare_s.push(t.elapsed().as_secs_f64());
        prepared.push(Arc::new(p));
    }
    let service = Service::start(service_config(shape, workers, ctx_bytes));
    let ids: Vec<u64> = prepared
        .iter()
        .map(|p| service.open_session(Arc::clone(p)))
        .collect();
    let setup_s = t_setup.elapsed().as_secs_f64();

    // ---- timed phase.
    let mut r = Round {
        setup_s,
        prepare_s,
        wall_s: 0.0,
        samples: Vec::new(),
        lateness_ms: Vec::new(),
        field_err_mm: Vec::new(),
        all_finite: true,
        acct: Accounting::default(),
        events: Vec::new(),
        cache: CacheStats::default(),
    };
    let mut outstanding: Vec<Outstanding> = Vec::new();
    let n = inputs.len();
    let t0 = Instant::now();
    match shape {
        Shape::OrStream { rate, .. } => {
            let cadence = Duration::from_secs_f64(n as f64 / rate);
            let stagger = cadence / n as u32;
            let per_scanner = (duration.as_secs_f64() / cadence.as_secs_f64()).floor() as usize;
            let mut schedule: Vec<(Duration, usize, usize)> = (0..n)
                .flat_map(|k| {
                    (0..per_scanner).map(move |i| (stagger * k as u32 + cadence * i as u32, k, i))
                })
                .collect();
            schedule.sort_by_key(|&(at, k, i)| (at, k, i));
            let mut next = 0;
            while next < schedule.len() || !outstanding.is_empty() {
                let now = Instant::now();
                while next < schedule.len() && t0 + schedule[next].0 <= now {
                    let (at, k, i) = schedule[next];
                    next += 1;
                    let due = t0 + at;
                    let scan = pingpong(i, SCANS_PER_SURGERY);
                    r.acct.attempted += 1;
                    let sent = Instant::now();
                    r.lateness_ms.push((sent - due).as_secs_f64() * 1e3);
                    let job = ScanJob {
                        session: ids[k],
                        intensity: inputs[k].scans[scan].intensity.clone(),
                        priority: 0,
                        deadline: cadence,
                    };
                    match service.submit(job) {
                        Ok(ticket) => outstanding.push(Outstanding {
                            since: due,
                            session: k,
                            scan,
                            ticket,
                        }),
                        Err(_) => {
                            r.acct.rejected += 1;
                            r.acct.failed += 1;
                            r.samples.push(Sample {
                                latency_ms: duration.as_secs_f64() * 1e3,
                                warm: None,
                            });
                        }
                    }
                }
                poll(&mut outstanding, &mut r, inputs, duration);
                let wait = schedule.get(next).map_or(POLL, |s| {
                    (t0 + s.0).saturating_duration_since(Instant::now())
                });
                std::thread::sleep(wait.min(POLL));
            }
        }
        Shape::CacheChurn { .. } => {
            let mut j = 0usize;
            while t0.elapsed() < duration || !outstanding.is_empty() {
                while outstanding.len() < workers && t0.elapsed() < duration {
                    let (k, scan) = (j % n, pingpong(j / n, SCANS_PER_SURGERY));
                    j += 1;
                    r.acct.attempted += 1;
                    let job = ScanJob {
                        session: ids[k],
                        intensity: inputs[k].scans[scan].intensity.clone(),
                        priority: 0,
                        deadline: CLOSED_LOOP_DEADLINE,
                    };
                    let since = Instant::now();
                    match service.submit(job) {
                        Ok(ticket) => outstanding.push(Outstanding {
                            since,
                            session: k,
                            scan,
                            ticket,
                        }),
                        Err(_) => {
                            r.acct.rejected += 1;
                            r.acct.failed += 1;
                            r.samples.push(Sample {
                                latency_ms: duration.as_secs_f64() * 1e3,
                                warm: None,
                            });
                        }
                    }
                }
                poll(&mut outstanding, &mut r, inputs, duration);
                std::thread::sleep(POLL);
            }
        }
    }
    r.wall_s = t0.elapsed().as_secs_f64();
    r.events = service.events();
    r.cache = service.cache_stats();
    service.shutdown();
    Ok(r)
}

/// Collect every outstanding scan whose ticket has resolved.
fn poll(
    outstanding: &mut Vec<Outstanding>,
    r: &mut Round,
    inputs: &[ScanSequence],
    duration: Duration,
) {
    let mut i = 0;
    while i < outstanding.len() {
        let Some(res) = outstanding[i].ticket.try_wait() else {
            i += 1;
            continue;
        };
        let o = outstanding.swap_remove(i);
        let latency_ms = o.since.elapsed().as_secs_f64() * 1e3;
        match res {
            Ok(out) => {
                r.acct.completed += 1;
                let degraded = out.status == ScanStatus::Degraded;
                r.acct.degraded += u64::from(degraded);
                r.acct.late += u64::from(out.missed_deadline);
                r.acct.failed += u64::from(degraded || out.missed_deadline);
                r.all_finite &= field_is_finite(&out.field);
                r.field_err_mm
                    .push(scan_error(&out.field, &inputs[o.session], o.scan));
                r.samples.push(Sample {
                    latency_ms,
                    warm: Some(out.warm),
                });
            }
            Err(_) => {
                r.acct.errored += 1;
                r.acct.failed += 1;
                r.samples.push(Sample {
                    latency_ms: duration.as_secs_f64() * 1e3,
                    warm: None,
                });
            }
        }
    }
}

fn scan_error(field: &DisplacementField, seq: &ScanSequence, scan: usize) -> f64 {
    field_error(field, &seq.gt_forward[scan], FIELD_ERR_THRESHOLD_MM).mean_error_mm
}

/// Bytes of one phantom surgery's solver context (sizes the cache budget
/// of `cache_churn`).
fn context_bytes(seq: &ScanSequence) -> Result<usize, String> {
    let p = PreparedSurgery::new(&seq.reference.labels, pipeline_config())
        .map_err(|e| e.to_string())?;
    Ok(p.build_solver_context()
        .map_err(|e| e.to_string())?
        .memory_bytes())
}

fn workload_name(shape: Shape) -> &'static str {
    match shape {
        Shape::OrStream { .. } => "or_stream",
        Shape::CacheChurn { .. } => "cache_churn",
    }
}

fn describe(shape: Shape, report: &mut Report, workers: usize, ctx_bytes: usize) {
    let cfg = service_config(shape, workers, ctx_bytes);
    report.line(match shape {
        Shape::OrStream { sessions, rate } => format!(
            "# shape: open loop, {sessions} surgeries, {rate} scans/s offered, cadence {:.0} ms (= deadline), {workers} workers",
            1e3 * sessions as f64 / rate
        ),
        Shape::CacheChurn { sessions, resident } => format!(
            "# shape: closed loop, {sessions} sessions round-robin, <= {workers} outstanding, budget {:.1} MiB for {resident} contexts of {:.2} MiB",
            cfg.memory_budget_bytes as f64 / 1048576.0,
            ctx_bytes as f64 / 1048576.0
        ),
    });
}

/// The untraced run: end-to-end metrics.
pub fn run(
    shape: Shape,
    seed: u64,
    seconds: f64,
    workers: usize,
    report: &mut Report,
) -> Result<(), String> {
    let inputs = phantom_surgeries(seed, shape.sessions());
    let ctx_bytes = context_bytes(&inputs[0])?;
    describe(shape, report, workers, ctx_bytes);
    let round_len = Duration::from_secs_f64(seconds / shape.rounds() as f64);
    let mut rounds = Vec::with_capacity(shape.rounds());
    for _ in 0..shape.rounds() {
        rounds.push(run_round(shape, &inputs, workers, ctx_bytes, round_len)?);
    }

    let mut acct = Accounting::default();
    let (mut latencies, mut cold, mut errs, mut lateness) = (vec![], vec![], vec![], vec![]);
    let mut wall = 0.0;
    let mut finite = true;
    for r in &rounds {
        acct.add(&r.acct);
        latencies.extend(r.samples.iter().map(|s| s.latency_ms));
        cold.extend(
            r.samples
                .iter()
                .filter(|s| s.warm == Some(false))
                .map(|s| s.latency_ms / 1e3),
        );
        errs.extend_from_slice(&r.field_err_mm);
        lateness.extend_from_slice(&r.lateness_ms);
        wall += r.wall_s;
        finite &= r.all_finite;
    }
    report.check("every delivered field is finite", finite);
    report.check("at least one scan was delivered", acct.completed > 0);
    report.acct = acct;
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let p95 = percentile(&latencies, 95.0);
    report.line(format!(
        "# scans: {} latency samples; p95 {p95:.3} ms ({} samples beyond it); open-loop lateness p95 {:.3} ms",
        latencies.len(),
        latencies.len() - (0.95 * latencies.len() as f64).ceil() as usize,
        percentile(&lateness, 95.0)
    ));
    report.metric("setup_s", median(&setups), "s");
    report.metric("scan_latency_p50_ms", percentile(&latencies, 50.0), "ms");
    report.metric("scans_per_s", acct.completed as f64 / wall, "1/s");
    report.metric("cold_field_s", median(&cold), "s");
    report.metric("field_err_mm", mean(&errs), "mm");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report.extra("scan_latency_p95_ms", p95, "ms");
    Ok(())
}

/// Queue wait, execution time and steals, read from the service's own
/// event log.
fn service_layer(events: &[Event]) -> (Vec<f64>, Vec<f64>, usize, usize) {
    let mut enq = HashMap::new();
    let mut start = HashMap::new();
    let (mut waits, mut execs, mut starts, mut stolen) = (vec![], vec![], 0, 0);
    for e in events {
        match &e.kind {
            EventKind::Enqueue { job, .. } => {
                enq.insert(*job, e.t_us);
            }
            EventKind::Start { job, stolen: s, .. } => {
                starts += 1;
                stolen += usize::from(*s);
                start.insert(*job, e.t_us);
                if let Some(t) = enq.get(job) {
                    waits.push((e.t_us - t) as f64 / 1e3);
                }
            }
            EventKind::Complete { job, .. } => {
                if let Some(t) = start.get(job) {
                    execs.push((e.t_us - t) as f64 / 1e3);
                }
            }
            _ => {}
        }
    }
    (waits, execs, starts, stolen)
}

/// The traced run: one round through the service for the `service`
/// layer, then the stage replay for everything below it.
pub fn run_traced(
    shape: Shape,
    seed: u64,
    seconds: f64,
    workers: usize,
    report: &mut Report,
) -> Result<(), String> {
    let inputs = phantom_surgeries(seed, shape.sessions());
    let ctx_bytes = context_bytes(&inputs[0])?;
    describe(shape, report, workers, ctx_bytes);
    let round = run_round(
        shape,
        &inputs,
        workers,
        ctx_bytes,
        Duration::from_secs_f64(seconds / 2.0),
    )?;
    let untraced_p50 = percentile(
        &round
            .samples
            .iter()
            .map(|s| s.latency_ms)
            .collect::<Vec<_>>(),
        50.0,
    );
    let (waits, execs, starts, stolen) = service_layer(&round.events);
    let mut acct = round.acct;
    let mut prepare_s = round.prepare_s.clone();

    // ---- stage replay, beside the program's own register_scan.
    let mut tr = Tracer::new();
    let counters = SparseCounters::default();
    let mut programs = Vec::new();
    let mut replays = Vec::new();
    let mut same_mesh = true;
    for seq in &inputs {
        let t = Instant::now();
        let p = PreparedSurgery::new(&seq.reference.labels, pipeline_config())
            .map_err(|e| e.to_string())?;
        prepare_s.push(t.elapsed().as_secs_f64());
        let rep = SurgeryReplay::build(&seq.reference.labels, pipeline_config(), &mut tr);
        same_mesh &= rep.mesh.fingerprint() == p.mesh().fingerprint();
        programs.push(p);
        replays.push(rep);
    }
    report.check("every replayed mesh equals the prepared mesh", same_mesh);
    let mut register_ms = Vec::new();
    let (mut leaf, mut recl, mut vox, mut surf_it, mut kry, mut esc) =
        (0u64, 0usize, 0usize, 0usize, 0usize, 0usize);
    let mut residuals = Vec::new();
    let (mut exact, mut iters_match, mut finite) = (true, true, true);
    let mut ctx_a: Vec<Option<_>> = (0..inputs.len()).map(|_| None).collect();
    let mut ctx_b: Vec<Option<_>> = (0..inputs.len()).map(|_| None).collect();
    let mut carry: Vec<Option<DisplacementField>> = vec![None; inputs.len()];
    let order: Vec<(usize, usize)> = match shape {
        // Each surgery's scans in sequence, on its own warm context.
        Shape::OrStream { .. } => (0..inputs.len())
            .flat_map(|k| (0..REPLAY_SCANS_OR_STREAM).map(move |i| (k, i)))
            .collect(),
        // Round-robin, a fresh context for every scan.
        Shape::CacheChurn { .. } => (0..REPLAY_PASSES_CACHE_CHURN * inputs.len())
            .map(|j| (j % inputs.len(), j / inputs.len()))
            .collect(),
    };
    let cold_every_scan = matches!(shape, Shape::CacheChurn { .. });
    for (id, &(k, i)) in order.iter().enumerate() {
        let intensity = &inputs[k].scans[pingpong(i, SCANS_PER_SURGERY)].intensity;
        tr.set_scan(id as u64);
        if cold_every_scan || ctx_a[k].is_none() {
            ctx_a[k] = Some(
                programs[k]
                    .build_solver_context()
                    .map_err(|e| e.to_string())?,
            );
            ctx_b[k] = Some(replays[k].build_context(&mut tr)?);
        }
        let (a, b) = (
            ctx_a[k].as_mut().ok_or("context")?,
            ctx_b[k].as_mut().ok_or("context")?,
        );
        // Alternate which of the two runs first, so neither always finds
        // the scan's data already in cache.
        let replay_first = id % 2 == 1;
        let replayed = if replay_first {
            Some(replays[k].scan(b, intensity, &counters, &mut tr)?)
        } else {
            None
        };
        let t = Instant::now();
        let reg = programs[k]
            .register_scan(a, intensity, carry[k].as_ref(), None, None)
            .map_err(|e| e.to_string())?;
        register_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let (field, c, check) = match replayed {
            Some(r) => r,
            None => replays[k].scan(b, intensity, &counters, &mut tr)?,
        };
        acct.attempted += 1;
        acct.completed += 1;
        let degraded = reg.status == ScanStatus::Degraded;
        acct.degraded += u64::from(degraded);
        acct.failed += u64::from(degraded);
        if !degraded {
            carry[k] = Some(reg.field.clone());
        }
        finite &= field_is_finite(&reg.field) && field_is_finite(&field);
        exact &= reg.field.data().len() == field.data().len()
            && reg.field.data().iter().zip(field.data()).all(|(x, y)| {
                x.x.to_bits() == y.x.to_bits()
                    && x.y.to_bits() == y.y.to_bits()
                    && x.z.to_bits() == y.z.to_bits()
            });
        iters_match &= check.iterations_match;
        leaf += c.knn_leaf_visits;
        recl += c.reclassified;
        vox += c.total_voxels;
        surf_it += c.surface_iterations;
        residuals.push(c.surface_residual_mm);
        kry += c.krylov_iterations;
        esc += usize::from(c.escalated);
    }
    report.check(
        "every delivered field is finite",
        finite && round.all_finite,
    );
    report.check(
        "sparse::gmres replay iterations equal the context's",
        iters_match,
    );
    if !exact {
        report.line(
            "# WARNING: the stage replay no longer reproduces register_scan bit for bit".into(),
        );
    }
    report.acct = acct;

    let traced_p50 = percentile(&tr.dur_ms("scan"), 50.0);
    let register_p50 = percentile(&register_ms, 50.0);
    report.line(format!(
        "# replay: {} scans; traced scan p50 {traced_p50:.3} ms vs register_scan p50 {register_p50:.3} ms; service-stream p50 {untraced_p50:.3} ms",
        order.len()
    ));
    let sm = |name: &str| median(&tr.self_ms(name));
    let cache = round.cache;
    report.metric("service.queue_wait_ms", median(&waits), "ms");
    report.metric("service.exec_ms", median(&execs), "ms");
    report.metric("service.cache_hit_ratio", cache.hit_rate(), "1");
    report.metric("service.evictions", cache.evictions as f64, "count");
    report.metric(
        "service.stolen_ratio",
        if starts > 0 {
            stolen as f64 / starts as f64
        } else {
            0.0
        },
        "1",
    );
    report.metric("core.prepare_s", median(&prepare_s), "s");
    report.metric("core.register_scan_ms", register_p50, "ms");
    report.metric("segment.features_ms", sm("segment.features"), "ms");
    report.metric("segment.kd_build_ms", sm("segment.kd_build"), "ms");
    report.metric("segment.knn_query_ms", sm("segment.knn_query"), "ms");
    report.metric("segment.morphology_ms", sm("segment.morphology"), "ms");
    report.metric("segment.knn_leaf_visits", leaf as f64, "count");
    report.metric(
        "segment.reclassified_ratio",
        if vox > 0 {
            recl as f64 / vox as f64
        } else {
            0.0
        },
        "1",
    );
    report.metric("surface.force_ms", sm("surface.force"), "ms");
    report.metric("surface.evolve_ms", sm("surface.evolve"), "ms");
    report.metric("surface.iterations", surf_it as f64, "count");
    report.metric("surface.residual_mm", mean(&residuals), "mm");
    report.fem_and_sparse(&tr, kry, esc, &counters);
    report.metric(
        "mesh.generate_s",
        median(&tr.dur_ms("mesh.generate")) / 1e3,
        "s",
    );
    report.metric(
        "loadgen.lateness_p95_ms",
        percentile(&round.lateness_ms, 95.0),
        "ms",
    );
    report.metric("trace.replay_exact", if exact { 1.0 } else { 0.0 }, "1");
    report.metric("trace.overhead_ms", traced_p50 - register_p50, "ms");
    report.metric(
        "trace.unattributed_ratio",
        tr.unattributed_ratio(&["scan"]),
        "1",
    );
    report.write_spans(&tr, workload_name(shape), seed);
    Ok(())
}
