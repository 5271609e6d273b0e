//! The threaded intraoperative service: a fixed worker pool executing
//! deadline-queued scan jobs against cached warm solver contexts, with
//! **session-affinity dispatch**.
//!
//! Lifecycle: [`Service::start`] spawns the workers; [`Service::open_session`]
//! registers a prepared surgery and pins it to a preferred worker;
//! [`Service::submit`] admits a [`ScanJob`] onto that worker's run queue
//! (explicit [`Rejected`] backpressure) and returns a [`JobTicket`] the
//! caller blocks on with [`JobTicket::wait`]; [`Service::shutdown`] stops
//! admissions, cancels still-queued jobs with a typed
//! [`ServiceError::Cancelled`], and joins the workers.
//!
//! ## Lock map
//!
//! The first version of this service serialized *every* dispatch on one
//! `Mutex<Inner>` holding the queue, the cache, the session table, and
//! the in-flight set — `claim_next` scanned the EDF queue and touched the
//! context cache under the global lock, so adding workers made p95
//! latency worse. The state is now split by access pattern:
//!
//! | lock                   | guards                               | held for |
//! |------------------------|--------------------------------------|----------|
//! | `admission` (narrow)   | session table, ids, shutdown flag    | submit / open / close / stats lookup |
//! | `workers[w]` (per-worker) | that worker's run queue + payloads | one push or one pop |
//! | `cache`                | the warm-context LRU                 | one take or one insert |
//!
//! Lock order is `admission → workers[w] → cache`, each section a few
//! loads/stores; nothing is ever held across a queue *scan* of another
//! worker, a context rebuild, or a solve. Queue depth and per-session
//! backlog are atomics, so `queue_depth()` / `session_stats()` probes
//! never contend with dispatch at all.
//!
//! ## Affinity
//!
//! Each session's jobs are enqueued on its preferred worker's run queue
//! ([`dispatch::preferred_worker`]), so a session's warm
//! [`SolverContext`] is repeatedly solved on one core. A worker whose own
//! queue is empty may steal from another worker's queue **only** when
//! that queue's backlog exceeds [`StealPolicy::backlog_threshold`] —
//! below it, stickiness wins over instantaneous latency. Jobs of one
//! session never run concurrently: all of a session's queued jobs live
//! on one queue, and the session's `busy` flag is claimed under that
//! queue's lock.

use crate::cache::{CacheStats, ContextCache};
use crate::dispatch::{preferred_worker, StealPolicy};
use crate::error::{Rejected, ServiceError};
use crate::events::{Event, EventKind, EventLog};
use crate::scheduler::{DeadlineQueue, QueuedJob, SchedulerPolicy};
use crate::session::{SessionStats, SurgerySession};
use brainshift_core::{Error as CoreError, PreparedSurgery, ScanStatus};
use brainshift_fem::SolverContext;
use brainshift_imaging::{DisplacementField, Volume};
use brainshift_obs::{Registry, Snapshot};
use brainshift_persist::PersistError;
use brainshift_sparse::StopReason;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service-wide knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded ready-queue capacity across all workers (admission
    /// backpressure).
    pub queue_capacity: usize,
    /// Byte budget for resident warm solver contexts; exceeding it evicts
    /// least-recently-used sessions to cold.
    pub memory_budget_bytes: usize,
    /// Aging weight of the deadline queue (see
    /// [`SchedulerPolicy::aging_weight`]).
    pub aging_weight: f64,
    /// Admission floor: deadlines closer than this are
    /// [`Rejected::DeadlineInfeasible`].
    pub min_service_us: u64,
    /// Effective-deadline boost per priority level, µs.
    pub priority_boost_us: u64,
    /// Max jobs one session may have queued at once.
    pub max_session_backlog: usize,
    /// Work-stealing reluctance: a worker may steal from another worker's
    /// run queue only when that queue holds more than this many jobs.
    pub steal_backlog_threshold: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            memory_budget_bytes: 256 << 20,
            aging_weight: 1.0,
            min_service_us: 0,
            priority_boost_us: 1_000_000,
            max_session_backlog: 8,
            steal_backlog_threshold: StealPolicy::default().backlog_threshold,
        }
    }
}

/// One intraoperative scan to register.
pub struct ScanJob {
    /// Session (from [`Service::open_session`]) the scan belongs to.
    pub session: u64,
    /// The intraoperative intensity volume.
    pub intensity: Volume<f32>,
    /// Priority (higher = more urgent; boosts the effective deadline).
    pub priority: u8,
    /// Deadline relative to submission — typically the scanner cadence:
    /// the result is useless once the next scan has arrived.
    pub deadline: Duration,
}

/// Result of one completed scan job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Service-wide job id.
    pub job: u64,
    /// Session the job belonged to.
    pub session: u64,
    /// How the solve concluded (a `Degraded` job carries the previous
    /// field forward; it is not an error).
    pub status: ScanStatus,
    /// The volumetric deformation field for this scan.
    pub field: DisplacementField,
    /// Krylov iterations of the biomechanical solve.
    pub fem_iterations: usize,
    /// Solver attempts (1 = primary configuration sufficed).
    pub attempts: usize,
    /// Why each escalation rung stopped, ladder order.
    pub rung_reasons: Vec<StopReason>,
    /// Mean active-surface residual to the scan's boundary (mm).
    pub surface_residual: f64,
    /// True when the job finished after its deadline.
    pub missed_deadline: bool,
    /// True when the solver context came warm from the cache.
    pub warm: bool,
    /// Index of the worker that executed the job.
    pub worker: usize,
    /// True when the job ran on a worker other than the session's
    /// preferred one (stolen under backlog pressure).
    pub stolen: bool,
    /// Submission-to-completion latency.
    pub latency: Duration,
}

/// Handle to one admitted job.
pub struct JobTicket {
    job: u64,
    rx: Receiver<Result<JobOutcome, ServiceError>>,
}

impl JobTicket {
    /// The service-wide job id.
    pub fn id(&self) -> u64 {
        self.job
    }

    /// Block until the job completes (or fails). A job still queued when
    /// the service shuts down resolves with
    /// [`ServiceError::Cancelled`] — a ticket never hangs.
    pub fn wait(self) -> Result<JobOutcome, ServiceError> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(ServiceError::JobLost),
        }
    }

    /// Non-blocking poll; `None` while the job is still in flight. A
    /// disconnected reply channel (worker died, service torn down)
    /// surfaces as [`ServiceError::JobLost`], same as [`JobTicket::wait`].
    pub fn try_wait(&self) -> Option<Result<JobOutcome, ServiceError>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(ServiceError::JobLost)),
        }
    }
}

/// Payload + reply channel of an admitted job, keyed by job id on its
/// preferred worker's queue until claimed. Carries the session `Arc` so
/// eligibility checks and execution never need the session table.
struct Pending {
    intensity: Volume<f32>,
    submitted_us: u64,
    session: Arc<SurgerySession>,
    tx: Sender<Result<JobOutcome, ServiceError>>,
}

/// One worker's run queue and the payloads of the jobs on it. Its own
/// mutex: a push (submit) or pop (claim) on worker A never contends with
/// worker B's queue.
struct WorkerState {
    queue: DeadlineQueue,
    pending: HashMap<u64, Pending>,
}

/// The narrow shared admission state: the session table and id counters.
/// Held for a handful of loads per submit/open/close — never across a
/// queue scan, a cache operation, or a solve.
struct Admission {
    sessions: HashMap<u64, Arc<SurgerySession>>,
    shutting_down: bool,
    next_session: u64,
    next_job: u64,
}

struct Shared {
    /// Monotonic origin of the service's µs timestamps. Deliberately a
    /// raw `Instant` (not the obs clock): `t_us` must be monotonic wall
    /// time here — the deterministic logical-time variant of these
    /// timestamps lives in the simulator, not in the threaded service.
    epoch: Instant,
    log: EventLog,
    /// Service-level metrics — queue depth, cache hit/miss/evict,
    /// completion and deadline counters, per-stage solve spans. Same
    /// metric names as the simulator's registry so one dashboard reads
    /// both.
    metrics: Registry,
    admission: Mutex<Admission>,
    workers: Vec<Mutex<WorkerState>>,
    cache: Mutex<ContextCache<SolverContext>>,
    /// Jobs queued across all workers (admitted, not yet claimed).
    depth: AtomicUsize,
    /// Lock-free shutdown signal for the workers' claim loops; the
    /// authoritative admission gate is `Admission::shutting_down`.
    down: AtomicBool,
    steal: StealPolicy,
    queue_capacity: usize,
    max_session_backlog: usize,
}

impl Shared {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// The running service. Dropping it without [`Service::shutdown`] detaches
/// the workers, which cancel their queues and exit.
pub struct Service {
    shared: Arc<Shared>,
    /// One wake channel per worker: submissions wake the preferred
    /// worker; crossing the steal threshold wakes everyone.
    wake: Vec<Sender<()>>,
    handles: Vec<JoinHandle<()>>,
}

impl Service {
    /// Spawn the worker pool and start serving.
    pub fn start(cfg: ServiceConfig) -> Self {
        let n_workers = cfg.workers.max(1);
        let per_worker_policy = SchedulerPolicy {
            // The global bound is enforced by the depth atomic at
            // admission; each queue's own capacity only has to never bind
            // first.
            queue_capacity: cfg.queue_capacity,
            aging_weight: cfg.aging_weight,
            min_service_us: cfg.min_service_us,
            priority_boost_us: cfg.priority_boost_us,
        };
        let shared = Arc::new(Shared {
            epoch: Instant::now(),
            log: EventLog::with_wall_clock(),
            metrics: Registry::with_wall_clock(),
            admission: Mutex::new(Admission {
                sessions: HashMap::new(),
                shutting_down: false,
                next_session: 1,
                next_job: 0,
            }),
            workers: (0..n_workers)
                .map(|_| {
                    Mutex::new(WorkerState {
                        queue: DeadlineQueue::new(per_worker_policy.clone()),
                        pending: HashMap::new(),
                    })
                })
                .collect(),
            cache: Mutex::new(ContextCache::new(cfg.memory_budget_bytes)),
            depth: AtomicUsize::new(0),
            down: AtomicBool::new(false),
            steal: StealPolicy { backlog_threshold: cfg.steal_backlog_threshold },
            queue_capacity: cfg.queue_capacity,
            max_session_backlog: cfg.max_session_backlog,
        });
        let mut wake = Vec::new();
        let mut handles = Vec::new();
        for w in 0..n_workers {
            let (tx, rx) = unbounded();
            wake.push(tx);
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("brainshift-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w, &rx))
                    // Spawn failure at startup is resource exhaustion;
                    // there is no service to run without its workers.
                    .expect("spawn service worker"),
            );
        }
        Service { shared, wake, handles }
    }

    /// Register a prepared surgery; returns its session id. The session
    /// is pinned to a preferred worker (round-robin by id), which all of
    /// its jobs are dispatched to unless stolen under backlog pressure.
    /// The preparation is shared (`Arc`) — one build can back sessions on
    /// several services, e.g. a failover pair. The first scan of the
    /// session is necessarily a cold build (cache miss).
    pub fn open_session(&self, prepared: Arc<PreparedSurgery>) -> u64 {
        let mut adm = self.shared.admission.lock();
        let id = adm.next_session;
        adm.next_session += 1;
        let pref = preferred_worker(id, self.shared.workers.len());
        adm.sessions.insert(id, Arc::new(SurgerySession::new(id, prepared, pref)));
        id
    }

    /// Forget a session: drops its warm context (if resident) and its
    /// carry-forward state. Queued jobs of the session fail with typed
    /// pipeline errors when claimed; an in-flight job completes but its
    /// context is not re-cached.
    pub fn close_session(&self, session: u64) -> bool {
        let existed = self.shared.admission.lock().sessions.remove(&session);
        let Some(s) = existed else { return false };
        // The `closed` flag is the cache's authority: `finish` re-checks
        // it under the cache lock, so this store + the discard below
        // cannot interleave with a re-insert (no orphaned entries).
        s.closed.store(true, Ordering::SeqCst);
        let freed = self.shared.cache.lock().discard(session);
        if let Some(freed) = freed {
            self.shared.metrics.counter_add("service.cache.evictions", 1);
            self.shared.log.record(
                self.shared.now_us(),
                self.shared.depth.load(Ordering::SeqCst),
                EventKind::Evict { session, freed_bytes: freed },
            );
        }
        true
    }

    /// Admit one scan job onto the session's preferred worker queue.
    /// Rejections are immediate and typed; an `Ok` ticket is a promise
    /// the job will resolve — with an outcome, a typed execution error,
    /// or [`ServiceError::Cancelled`] at shutdown — never hang.
    pub fn submit(&self, job: ScanJob) -> Result<JobTicket, Rejected> {
        let ScanJob { session, intensity, priority, deadline } = job;
        let now = self.shared.now_us();
        let deadline_us = now.saturating_add(deadline.as_micros() as u64);
        let verdict = self.admit(session, intensity, priority, now, deadline_us);
        match verdict {
            Ok((ticket, pref, backlog_len)) => {
                let depth = self.shared.depth.load(Ordering::SeqCst);
                self.shared.metrics.counter_add("service.jobs.submitted", 1);
                self.shared.metrics.gauge_set("service.queue.depth", depth as f64);
                self.shared.metrics.gauge_max("service.queue.peak_depth", depth as f64);
                self.shared.log.record(
                    now,
                    depth,
                    EventKind::Enqueue { session, job: ticket.job, deadline_us, priority },
                );
                // Wake the preferred worker; once its backlog crosses the
                // steal threshold the job became claimable by anyone, so
                // announce it to the whole pool.
                if self.shared.steal.may_steal(backlog_len) {
                    for tx in &self.wake {
                        let _ = tx.send(());
                    }
                } else if let Some(tx) = self.wake.get(pref) {
                    let _ = tx.send(());
                }
                Ok(ticket)
            }
            Err(reason) => {
                let depth = self.shared.depth.load(Ordering::SeqCst);
                self.shared.metrics.counter_add("service.jobs.rejected", 1);
                self.shared
                    .log
                    .record(now, depth, EventKind::Reject { session, reason: reason.clone() });
                Err(reason)
            }
        }
    }

    fn admit(
        &self,
        session: u64,
        intensity: Volume<f32>,
        priority: u8,
        now: u64,
        deadline_us: u64,
    ) -> Result<(JobTicket, usize, usize), Rejected> {
        // Admission order (and therefore which rejection the caller
        // sees) matches the original service: shutdown, unknown session,
        // session backlog, global capacity, deadline feasibility.
        let mut adm = self.shared.admission.lock();
        if adm.shutting_down {
            return Err(Rejected::ShuttingDown);
        }
        let Some(sess) = adm.sessions.get(&session).cloned() else {
            return Err(Rejected::UnknownSession { session });
        };
        if sess.backlog.load(Ordering::SeqCst) >= self.shared.max_session_backlog {
            return Err(Rejected::SessionBacklogFull { session });
        }
        if self.shared.depth.load(Ordering::SeqCst) >= self.shared.queue_capacity {
            return Err(Rejected::QueueFull { capacity: self.shared.queue_capacity });
        }
        let id = adm.next_job;
        let pref = sess.preferred_worker();
        // Nested push under the admission lock (order: admission →
        // worker queue). This is what makes shutdown race-free: any job
        // admitted before the shutdown flag is set is fully enqueued
        // before the workers begin their cancel drain.
        let mut ws = self.shared.workers[pref].lock();
        ws.queue.push(id, session, deadline_us, priority, now)?;
        let (tx, rx) = unbounded();
        ws.pending
            .insert(id, Pending { intensity, submitted_us: now, session: Arc::clone(&sess), tx });
        let backlog_len = ws.queue.len();
        drop(ws);
        // Only reached on successful push: the id is consumed and the
        // depth/backlog accounting committed.
        adm.next_job += 1;
        drop(adm);
        sess.backlog.fetch_add(1, Ordering::SeqCst);
        self.shared.depth.fetch_add(1, Ordering::SeqCst);
        Ok((JobTicket { job: id, rx }, pref, backlog_len))
    }

    /// Jobs currently queued (not yet claimed by a worker), across all
    /// worker queues. Lock-free.
    pub fn queue_depth(&self) -> usize {
        self.shared.depth.load(Ordering::SeqCst)
    }

    /// Cache counters (hits / misses / evictions).
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.lock().stats()
    }

    /// Bytes currently charged by resident warm contexts (checked-out
    /// contexts are excluded until their job completes).
    pub fn cache_resident_bytes(&self) -> usize {
        self.shared.cache.lock().resident_bytes()
    }

    /// Counters of one session, if it exists. Touches only the narrow
    /// admission lock (a map lookup) and the session's own state lock —
    /// never a run queue, the cache, or anything a solve holds.
    pub fn session_stats(&self, session: u64) -> Option<SessionStats> {
        let session = self.shared.admission.lock().sessions.get(&session).cloned();
        session.map(|s| s.stats())
    }

    /// The preferred worker a session's jobs are dispatched to.
    pub fn session_preferred_worker(&self, session: u64) -> Option<usize> {
        let session = self.shared.admission.lock().sessions.get(&session).cloned();
        session.map(|s| s.preferred_worker())
    }

    /// Snapshot of the event log so far.
    pub fn events(&self) -> Vec<Event> {
        self.shared.log.snapshot()
    }

    /// Point-in-time copy of the service metrics: queue depth and peak,
    /// cache hit/miss/eviction counters, job completion / rejection /
    /// escalation / degradation / missed-deadline / steal counters,
    /// deadline slack and latency histograms, per-stage solve spans. The
    /// names match the simulator's registry, so dashboards and tests read
    /// one schema.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.shared.metrics.snapshot()
    }

    /// The timestamp-free event script (determinism/debug surface).
    pub fn script(&self) -> String {
        self.shared.log.script()
    }

    /// Open sessions currently registered on this service.
    pub fn session_count(&self) -> usize {
        self.shared.admission.lock().sessions.len()
    }

    /// Stop admitting new work and wait until every already-admitted job
    /// has been *served* (not cancelled): the queues drain to empty and
    /// no session is mid-solve. Terminal — admission stays closed; the
    /// only useful follow-ups are [`Service::snapshot_shard`] and
    /// [`Service::shutdown`].
    fn quiesce(&self) {
        self.shared.admission.lock().shutting_down = true;
        // The workers keep serving (neither `down` nor the wake channels
        // are touched), so the drain is the normal execution path.
        loop {
            let sessions: Vec<Arc<SurgerySession>> =
                self.shared.admission.lock().sessions.values().cloned().collect();
            let idle = self.shared.depth.load(Ordering::SeqCst) == 0
                && sessions.iter().all(|s| !s.busy.load(Ordering::SeqCst));
            if idle {
                return;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Quiesce this shard (stop admission, finish every in-flight job)
    /// and serialize its durable state: session table with carry-forward
    /// fields and counters, resident warm solver contexts, id counters,
    /// and the full event log. Terminal — the caller is expected to
    /// [`Service::shutdown`] the drained shard and hand the bytes to
    /// [`Service::restore_shard`] on a replacement.
    pub fn snapshot_shard(&self) -> Result<Vec<u8>, PersistError> {
        self.quiesce();
        let (mut sessions, next_session, next_job) = {
            let adm = self.shared.admission.lock();
            let mut s: Vec<Arc<SurgerySession>> = adm.sessions.values().cloned().collect();
            s.sort_by_key(|s| s.id());
            (s, adm.next_session, adm.next_job)
        };
        let mut snaps = Vec::with_capacity(sessions.len());
        for sess in sessions.drain(..) {
            // Destructive checkout: the snapshot is the context's new
            // home. This shard is being retired; a restored shard must
            // never race it for the same warm state.
            let context = self.shared.cache.lock().take(sess.id());
            let (carry_forward, stats) = {
                let state = sess.state.lock();
                (state.carry_forward.clone(), state.stats)
            };
            let mesh = sess.prepared().mesh();
            snaps.push(crate::persist::SessionSnapshot {
                id: sess.id(),
                mesh_nodes: mesh.nodes.len(),
                mesh_tets: mesh.tets.len(),
                mesh_content_fingerprint: mesh.fingerprint(),
                carry_forward,
                stats,
                context,
            });
        }
        let mut meta = brainshift_persist::Encoder::new();
        meta.put_u64(next_session);
        meta.put_u64(next_job);
        let mut w = brainshift_persist::SnapshotWriter::new();
        w.section(crate::persist::SEC_META, meta.into_bytes());
        w.section_value(crate::persist::SEC_SESSIONS, &snaps)?;
        w.section_value(crate::persist::SEC_LOG, &self.shared.log)?;
        let bytes = w.finish();
        self.shared.metrics.gauge_set("service.persist.snapshot_bytes", bytes.len() as f64);
        Ok(bytes)
    }

    /// Bring a snapshotted shard back up on a fresh worker pool. The
    /// caller supplies the once-per-surgery preparations keyed by the
    /// *persisted* (shard-local) session ids; each is verified against
    /// the snapshot's mesh content fingerprint before any restored warm
    /// context is trusted with it. Everything is decoded and validated
    /// **before** the worker pool starts — a corrupt snapshot yields a
    /// typed [`PersistError`] and no half-restored service.
    ///
    /// Restored sessions keep their ids, counters, carry-forward fields,
    /// and (when resident at snapshot time) their warm contexts; the id
    /// counters continue where the old shard stopped, so the event-log
    /// script tail is byte-identical to an uninterrupted run's.
    pub fn restore_shard(
        cfg: ServiceConfig,
        bytes: &[u8],
        prepared: &HashMap<u64, Arc<PreparedSurgery>>,
    ) -> Result<Service, PersistError> {
        let t0 = Instant::now();
        let reader = brainshift_persist::SnapshotReader::parse(bytes)?;
        let mut meta = reader.section(crate::persist::SEC_META)?;
        let next_session = meta.get_u64()?;
        let next_job = meta.get_u64()?;
        meta.finish()?;
        let snaps: Vec<crate::persist::SessionSnapshot> =
            reader.section_value(crate::persist::SEC_SESSIONS)?;
        // Decoded for integrity (the section checksum alone cannot catch
        // an encoder/decoder skew); the old shard's log is the caller's
        // record, not the new shard's — seq numbers restart at 0.
        let _log: EventLog = reader.section_value(crate::persist::SEC_LOG)?;
        let n_workers = cfg.workers.max(1);
        let mut restored = Vec::with_capacity(snaps.len());
        for snap in snaps {
            if snap.id >= next_session {
                return Err(PersistError::InvalidData {
                    reason: format!(
                        "snapshot session {} not below next_session {next_session}",
                        snap.id
                    ),
                });
            }
            let Some(prep) = prepared.get(&snap.id) else {
                return Err(PersistError::InvalidData {
                    reason: format!("no prepared surgery supplied for session {}", snap.id),
                });
            };
            let mesh = prep.mesh();
            if mesh.nodes.len() != snap.mesh_nodes || mesh.tets.len() != snap.mesh_tets {
                return Err(PersistError::InvalidData {
                    reason: format!(
                        "session {}: prepared mesh is {}n/{}t, snapshot expects {}n/{}t",
                        snap.id,
                        mesh.nodes.len(),
                        mesh.tets.len(),
                        snap.mesh_nodes,
                        snap.mesh_tets
                    ),
                });
            }
            let fp = mesh.fingerprint();
            if fp != snap.mesh_content_fingerprint {
                return Err(PersistError::InvalidData {
                    reason: format!(
                        "session {}: prepared mesh fingerprint {fp:#x} does not match \
                         snapshot's {:#x}",
                        snap.id, snap.mesh_content_fingerprint
                    ),
                });
            }
            let sess = Arc::new(SurgerySession::restore(
                snap.id,
                Arc::clone(prep),
                preferred_worker(snap.id, n_workers),
                snap.carry_forward,
                snap.stats,
            ));
            restored.push((sess, snap.context));
        }
        // All-or-nothing boundary: everything after this point is
        // installation of fully validated state.
        let service = Service::start(cfg);
        let mut contexts = 0u64;
        {
            let mut adm = service.shared.admission.lock();
            adm.next_session = next_session;
            adm.next_job = next_job;
            for (sess, ctx) in restored {
                if let Some(ctx) = ctx {
                    let bytes = ctx.memory_bytes();
                    service.shared.cache.lock().insert(sess.id(), ctx, bytes);
                    contexts += 1;
                }
                adm.sessions.insert(sess.id(), sess);
            }
        }
        // A smaller budget on the replacement shard sheds the LRU
        // contexts exactly as live memory pressure would — logged, never
        // an error.
        let evicted = service.shared.cache.lock().drain_evicted();
        for (sess, freed) in evicted {
            service.shared.metrics.counter_add("service.cache.evictions", 1);
            service.shared.log.record(
                service.shared.now_us(),
                0,
                EventKind::Evict { session: sess, freed_bytes: freed },
            );
        }
        let m = &service.shared.metrics;
        m.counter_add("service.persist.contexts_restored", contexts);
        m.observe("service.persist.restore_us", t0.elapsed().as_micros() as f64);
        m.gauge_set("service.persist.snapshot_bytes", bytes.len() as f64);
        Ok(service)
    }

    /// Stop admitting work, let in-flight jobs complete, cancel every
    /// still-queued job with [`ServiceError::Cancelled`], join the
    /// workers, and return the final event log. No ticket is left
    /// hanging.
    pub fn shutdown(self) -> Vec<Event> {
        {
            let mut adm = self.shared.admission.lock();
            adm.shutting_down = true;
            // Set under the admission lock: every submit either saw the
            // flag, or finished its queue push before the workers can
            // observe `down` / the dropped wake channels below.
            self.shared.down.store(true, Ordering::SeqCst);
        }
        // Dropping the wake senders is the shutdown signal: each worker's
        // recv fails, switching it into cancel-drain mode.
        drop(self.wake);
        for h in self.handles {
            let _ = h.join();
        }
        // Belt and braces: every queue was drained by its owner before
        // exiting, but sweep once more so a ticket can never outlive the
        // pool un-resolved.
        for w in 0..self.shared.workers.len() {
            cancel_drain(&self.shared, w);
        }
        self.shared.log.record(
            self.shared.now_us(),
            self.shared.depth.load(Ordering::SeqCst),
            EventKind::Shutdown,
        );
        self.shared.log.snapshot()
    }
}

/// What a worker pulled out of the shared state for one job.
struct Claim {
    q: QueuedJob,
    pending: Pending,
    ctx: Option<SolverContext>,
    warm: bool,
    worker: usize,
    stolen: bool,
    /// The session was closed while the job was queued. Read once, at
    /// claim time: a job whose `Start` is logged runs to completion.
    closed: bool,
}

/// Try to claim one job from `owner`'s queue for `runner`. Steal
/// attempts (`runner != owner`) are gated on the owner's backlog
/// exceeding the steal threshold. The owner queue's lock is held for the
/// pop + busy-claim only; the cache is touched under its own lock after.
fn try_claim_from(shared: &Shared, owner: usize, runner: usize) -> Option<Claim> {
    let stealing = owner != runner;
    let mut ws = shared.workers[owner].lock();
    if stealing && !shared.steal.may_steal(ws.queue.len()) {
        return None;
    }
    let q = {
        let WorkerState { queue, pending } = &mut *ws;
        // Eligible = the job's session is not mid-solve on any worker.
        // The busy flag is only set under this same queue lock (all of a
        // session's jobs live here), so check-then-claim cannot race.
        queue.pop_next(|j| {
            pending.get(&j.job).is_none_or(|p| !p.session.busy.load(Ordering::SeqCst))
        })?
    };
    let pending = ws.pending.remove(&q.job)?;
    pending.session.busy.store(true, Ordering::SeqCst);
    drop(ws);

    pending.session.backlog.fetch_sub(1, Ordering::SeqCst);
    let depth = shared.depth.fetch_sub(1, Ordering::SeqCst).saturating_sub(1);

    // Cache checkout under its own short lock; a closed session skips it
    // (close_session already discarded the entry).
    let closed = pending.session.closed.load(Ordering::SeqCst);
    let (ctx, warm) = if closed {
        (None, false)
    } else {
        let ctx = shared.cache.lock().take(q.session);
        let warm = ctx.is_some();
        shared
            .metrics
            .counter_add(if warm { "service.cache.hit" } else { "service.cache.miss" }, 1);
        (ctx, warm)
    };
    let now = shared.now_us();
    // How much of the deadline is left as the job *starts* — the number
    // an operator reads to see whether misses come from queueing or from
    // the solve itself.
    shared
        .metrics
        .observe("service.deadline.slack_at_start_us", q.deadline_us.saturating_sub(now) as f64);
    shared.metrics.gauge_set("service.queue.depth", depth as f64);
    shared.metrics.counter_add(
        if stealing { "service.jobs.stolen" } else { "service.jobs.preferred" },
        1,
    );
    shared.log.record(
        now,
        depth,
        EventKind::Start { session: q.session, job: q.job, warm, worker: runner, stolen: stealing },
    );
    Some(Claim { q, pending, ctx, warm, worker: runner, stolen: stealing, closed })
}

/// Claim the next job for worker `w`: own queue first, then a steal scan
/// over the other queues in ring order.
fn claim_next(shared: &Shared, w: usize) -> Option<Claim> {
    if let Some(c) = try_claim_from(shared, w, w) {
        return Some(c);
    }
    let n = shared.workers.len();
    for d in 1..n {
        let owner = (w + d) % n;
        if let Some(c) = try_claim_from(shared, owner, w) {
            return Some(c);
        }
    }
    None
}

fn finish(shared: &Shared, session: &Arc<SurgerySession>, ctx: Option<SolverContext>, job: u64, missed: bool) {
    if let Some(ctx) = ctx {
        // Re-cache only for a live session: `closed` is re-checked under
        // the cache lock, and `close_session` discards under the same
        // lock *after* setting the flag — whichever order the two
        // critical sections run in, no entry for a dead id survives
        // (session ids are never reused, so an orphan would pin the
        // memory budget forever).
        let evicted = {
            let mut cache = shared.cache.lock();
            if session.closed.load(Ordering::SeqCst) {
                Vec::new()
            } else {
                let bytes = ctx.memory_bytes();
                cache.insert(session.id(), ctx, bytes);
                cache.drain_evicted()
            }
        };
        let depth = shared.depth.load(Ordering::SeqCst);
        for (sess, freed) in evicted {
            shared.metrics.counter_add("service.cache.evictions", 1);
            shared
                .log
                .record(shared.now_us(), depth, EventKind::Evict { session: sess, freed_bytes: freed });
        }
    }
    session.busy.store(false, Ordering::SeqCst);
    let depth = shared.depth.load(Ordering::SeqCst);
    shared.metrics.counter_add("service.jobs.completed", 1);
    if missed {
        shared.metrics.counter_add("service.jobs.missed_deadline", 1);
    }
    shared.metrics.gauge_set("service.queue.depth", depth as f64);
    shared
        .log
        .record(shared.now_us(), depth, EventKind::Complete { session: session.id(), job, missed_deadline: missed });
}

fn execute(shared: &Shared, claim: Claim) {
    let Claim { q, pending, ctx, warm, worker, stolen, closed } = claim;
    let session = Arc::clone(&pending.session);
    if closed {
        // Session closed while the job was queued.
        finish(shared, &session, None, q.job, shared.now_us() > q.deadline_us);
        let _ = pending.tx.send(Err(ServiceError::Pipeline(CoreError::Pipeline(format!(
            "session {} closed before job {} ran",
            q.session, q.job
        )))));
        return;
    }
    let prepared = Arc::clone(session.prepared());

    // Cold path: rebuild the context evicted (or never built) for this
    // session. This is the designed degradation mode of the memory
    // budget — slower, never wrong. No lock is held across the rebuild.
    let mut ctx = match ctx {
        Some(c) => c,
        None => match prepared.build_solver_context() {
            Ok(c) => c,
            Err(e) => {
                finish(shared, &session, None, q.job, shared.now_us() > q.deadline_us);
                let _ = pending.tx.send(Err(ServiceError::Pipeline(e)));
                return;
            }
        },
    };

    // The escalation ladder's wall-clock budget is whatever deadline
    // headroom remains *now*, after queueing and any cold rebuild. A job
    // already past its deadline gets a token budget and degrades fast.
    let remaining = q.deadline_us.saturating_sub(shared.now_us()).max(1);
    let mut policy = prepared.config().fem.escalation.clone();
    policy.time_budget = Some(match policy.time_budget {
        Some(existing) => existing.min(Duration::from_micros(remaining)),
        None => Duration::from_micros(remaining),
    });

    // Lock discipline: the session state lock is never held across the
    // solve or any other lock. The busy flag already serializes jobs of
    // one session, so state only needs a short lock around each
    // read/write.
    let carry = session.state.lock().carry_forward.clone();
    let result = prepared.register_scan(&mut ctx, &pending.intensity, carry.as_ref(), None, Some(&policy));
    let now = shared.now_us();
    let missed = now > q.deadline_us;
    match result {
        Ok(reg) => {
            // Per-stage spans: the paper's intraoperative breakdown, as
            // seen by the service (mean/min/max over jobs per path).
            shared.metrics.record_span_s("scan/classification", reg.timings.classification_s);
            shared.metrics.record_span_s("scan/surface", reg.timings.surface_s);
            shared.metrics.record_span_s("scan/solve", reg.timings.solve_s);
            shared.metrics.record_span_s("scan/resample", reg.timings.resample_s);
            shared
                .metrics
                .observe("service.job.latency_us", now.saturating_sub(pending.submitted_us) as f64);
            match &reg.status {
                ScanStatus::Converged => {}
                ScanStatus::Escalated { .. } => shared.metrics.counter_add("service.jobs.escalated", 1),
                ScanStatus::Degraded => shared.metrics.counter_add("service.jobs.degraded", 1),
            }
            {
                let mut state = session.state.lock();
                match &reg.status {
                    ScanStatus::Converged => {}
                    ScanStatus::Escalated { .. } => state.stats.escalated += 1,
                    ScanStatus::Degraded => state.stats.degraded += 1,
                }
                if !matches!(reg.status, ScanStatus::Degraded) {
                    state.carry_forward = Some(reg.field.clone());
                }
                state.stats.completed += 1;
                if missed {
                    state.stats.deadline_misses += 1;
                }
                if warm {
                    state.stats.warm_starts += 1;
                }
            }
            match &reg.status {
                ScanStatus::Converged => {}
                ScanStatus::Escalated { attempts } => {
                    shared.log.record(
                        now,
                        shared.depth.load(Ordering::SeqCst),
                        EventKind::Escalate {
                            session: q.session,
                            job: q.job,
                            attempts: *attempts,
                            reasons: reg.rung_reasons.clone(),
                        },
                    );
                }
                ScanStatus::Degraded => {
                    shared.log.record(
                        now,
                        shared.depth.load(Ordering::SeqCst),
                        EventKind::Degrade {
                            session: q.session,
                            job: q.job,
                            reasons: reg.rung_reasons.clone(),
                        },
                    );
                }
            }
            finish(shared, &session, Some(ctx), q.job, missed);
            let _ = pending.tx.send(Ok(JobOutcome {
                job: q.job,
                session: q.session,
                status: reg.status,
                field: reg.field,
                fem_iterations: reg.fem_iterations,
                attempts: reg.attempts,
                rung_reasons: reg.rung_reasons,
                surface_residual: reg.surface_residual,
                missed_deadline: missed,
                warm,
                worker,
                stolen,
                latency: Duration::from_micros(now.saturating_sub(pending.submitted_us)),
            }));
        }
        Err(e) => {
            // A typed pipeline failure poisons neither the session (its
            // carry-forward state is untouched) nor the context cache
            // (the context is dropped; next scan rebuilds cold).
            session.state.lock().stats.completed += 1;
            finish(shared, &session, None, q.job, missed);
            let _ = pending.tx.send(Err(ServiceError::Pipeline(e)));
        }
    }
}

/// Cancel every job still queued on worker `w`: each ticket resolves
/// with [`ServiceError::Cancelled`] — typed, never a hang.
fn cancel_drain(shared: &Shared, w: usize) {
    loop {
        let (q, pending) = {
            let mut ws = shared.workers[w].lock();
            let Some(q) = ws.queue.pop_any() else { break };
            let pending = ws.pending.remove(&q.job);
            (q, pending)
        };
        let depth = shared.depth.fetch_sub(1, Ordering::SeqCst).saturating_sub(1);
        shared.metrics.counter_add("service.jobs.cancelled", 1);
        shared.metrics.gauge_set("service.queue.depth", depth as f64);
        shared
            .log
            .record(shared.now_us(), depth, EventKind::Cancel { session: q.session, job: q.job });
        if let Some(p) = pending {
            p.session.backlog.fetch_sub(1, Ordering::SeqCst);
            let _ = p.tx.send(Err(ServiceError::Cancelled { job: q.job }));
        }
    }
}

fn worker_loop(shared: &Shared, w: usize, wake: &Receiver<()>) {
    while wake.recv().is_ok() {
        // Serve everything claimable right now. Re-checking after each
        // job matters: completing a session's job makes its next queued
        // job eligible, and no new wake token announces that. Stop
        // promptly once shutdown is signalled — remaining queued jobs
        // are cancelled, not served.
        while !shared.down.load(Ordering::SeqCst) {
            match claim_next(shared, w) {
                Some(claim) => execute(shared, claim),
                None => break,
            }
        }
    }
    cancel_drain(shared, w);
}
