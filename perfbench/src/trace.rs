//! The traced run's instruments: an in-memory span recorder and
//! delegating, counting wrappers around the sparse kernels.

use brainshift_sparse::{CsrMatrix, LinearOperator, Preconditioner};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One timed call: which layer function, when, under which parent, for
/// which scan.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub scan: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records spans in memory; they are written out once at the end.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    scan: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            scan: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Scan id stamped on spans opened from now on.
    pub fn set_scan(&mut self, scan: u64) {
        self.scan = scan;
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let t = self.now_us();
        self.spans.push(Span {
            name,
            start_us: t,
            end_us: t,
            parent: self.open.last().copied(),
            scan: self.scan,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `id` (must be the innermost open span).
    pub fn exit(&mut self, id: usize) {
        let t = self.now_us();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
        self.spans[id].end_us = t;
    }

    /// Record a closed child span of `parent` whose duration the callee
    /// measured itself (e.g. `SolverContext` phase timings); it is laid
    /// out after the previous such child.
    pub fn child_measured(
        &mut self,
        parent: usize,
        name: &'static str,
        offset_us: f64,
        dur_us: f64,
    ) {
        let start = self.spans[parent].start_us + offset_us;
        self.spans.push(Span {
            name,
            start_us: start,
            end_us: start + dur_us,
            parent: Some(parent),
            scan: self.spans[parent].scan,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut st: Vec<f64> = self.spans.iter().map(Span::dur_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                st[p] -= s.dur_us();
            }
        }
        st
    }

    /// Self times, in ms, of every span called `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let st = self.self_times_us();
        self.spans
            .iter()
            .zip(st)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t / 1e3)
            .collect()
    }

    /// Durations, in ms, of every span called `name`.
    pub fn dur_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us() / 1e3)
            .collect()
    }

    /// Share of the time in root spans named in `roots` that none of
    /// their direct children accounts for.
    pub fn unattributed_ratio(&self, roots: &[&str]) -> f64 {
        let st = self.self_times_us();
        let (mut own, mut total) = (0.0, 0.0);
        for (s, t) in self.spans.iter().zip(st) {
            if roots.contains(&s.name) {
                own += t;
                total += s.dur_us();
            }
        }
        if total > 0.0 {
            own / total
        } else {
            0.0
        }
    }

    /// Write the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"scan\":{}}}",
                s.name, s.start_us, s.end_us, s.scan
            )?;
        }
        out.flush()
    }
}

/// Call counts and time spent in the sparse kernels during a replay.
#[derive(Default)]
pub struct SparseCounters {
    pub spmv_calls: AtomicU64,
    pub spmv_ns: AtomicU64,
    pub precond_calls: AtomicU64,
    pub precond_ns: AtomicU64,
    /// Bytes one SpMV streams, computed from the matrix and vector sizes
    /// (not measured): values, column indices, row pointers, x and y.
    pub spmv_bytes: AtomicU64,
}

impl SparseCounters {
    pub fn get(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }
}

/// Bytes one CSR SpMV `y = A x` reads and writes.
pub fn spmv_bytes(a: &CsrMatrix) -> u64 {
    let n = a.nrows() as u64;
    let nnz = a.nnz() as u64;
    let f = std::mem::size_of::<f64>() as u64;
    let idx = std::mem::size_of::<usize>() as u64;
    nnz * (f + idx) + (n + 1) * idx + 2 * n * f
}

/// Delegating operator that counts and times every apply.
pub struct CountingOp<'a> {
    pub inner: &'a CsrMatrix,
    pub counters: &'a SparseCounters,
}

impl LinearOperator for CountingOp<'_> {
    fn dim(&self) -> usize {
        self.inner.nrows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let t = Instant::now();
        LinearOperator::apply(self.inner, x, y);
        let c = self.counters;
        c.spmv_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        c.spmv_calls.fetch_add(1, Ordering::Relaxed);
        c.spmv_bytes
            .fetch_add(spmv_bytes(self.inner), Ordering::Relaxed);
    }
}

/// Delegating preconditioner that counts and times every apply.
pub struct CountingPrecond<'a> {
    pub inner: &'a dyn Preconditioner,
    pub counters: &'a SparseCounters,
}

impl Preconditioner for CountingPrecond<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let t = Instant::now();
        self.inner.apply(r, z);
        let c = self.counters;
        c.precond_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        c.precond_calls.fetch_add(1, Ordering::Relaxed);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tr = Tracer::new();
        let root = tr.enter("scan");
        let a = tr.enter("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.exit(a);
        tr.exit(root);
        let st = tr.self_times_us();
        assert!(st[root] >= 0.0 && st[root] < tr.spans()[root].dur_us());
        assert!((st[root] + st[a] - tr.spans()[root].dur_us()).abs() < 1e-6);
        assert!(tr.unattributed_ratio(&["scan"]) < 0.5);
    }
}
