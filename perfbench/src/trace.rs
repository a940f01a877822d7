//! Benchmark-side tracing: spans the benchmark records around its own
//! calls into each layer's public functions (the program itself is not
//! instrumented for this). Spans are kept in memory by `xflow-obs`'s
//! `CollectingRecorder` and exported as Chrome-trace JSON when the run
//! ends.
//!
//! Every traced op runs under one `op` span; the layer spans it opens are
//! its children. Probe spans (extra single-layer measurements a workload
//! takes outside an op) have no `op` parent, so they never count toward
//! op wall time or coverage.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use xflow::xflow_obs::{span, CollectingRecorder, SpanGuard, TraceSnapshot};

/// Name of the span wrapping one whole traced op.
pub const OP: &str = "op";
/// Name of the span wrapping the same op run untraced right after it.
pub const UNTRACED: &str = "op.untraced";

/// In-memory span collector for one traced phase.
pub struct Trace {
    rec: CollectingRecorder,
}

impl Trace {
    pub fn new() -> Self {
        Self { rec: CollectingRecorder::new() }
    }

    /// Open a span closed at end of scope.
    pub fn span(&self, name: &str) -> SpanGuard<'_, CollectingRecorder> {
        span(&self.rec, name, &[])
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let _guard = self.span(name);
        f()
    }

    pub fn snapshot(&self) -> TraceSnapshot {
        self.rec.snapshot()
    }
}

/// `count` events per microsecond of `ns` (millions per second).
pub fn per_us(count: u64, ns: u64) -> f64 {
    count as f64 / ns.max(1) as f64 * 1e3
}

/// Aggregate of every span of one name.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    pub count: u64,
    pub total_ns: u64,
    /// Duration not covered by the span's own child spans.
    pub self_ns: u64,
    /// Every span's duration, in start order.
    pub durations: Vec<u64>,
}

/// Per-layer totals of a traced phase.
#[derive(Debug, Default)]
pub struct Summary {
    /// Traced ops (`op` spans).
    pub ops: u64,
    /// Σ op span wall time.
    pub op_ns: u64,
    /// Σ duration of the layer spans directly under an op span.
    pub covered_ns: u64,
    pub layers: BTreeMap<String, Layer>,
}

impl Summary {
    pub fn from_snapshot(snap: &TraceSnapshot) -> Self {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &snap.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.dur_ns;
            }
        }
        let op_ids: std::collections::HashSet<u64> = snap.spans.iter().filter(|s| s.name == OP).map(|s| s.id).collect();
        let mut out = Summary::default();
        for s in &snap.spans {
            if s.name == OP {
                out.ops += 1;
                out.op_ns += s.dur_ns;
                continue;
            }
            if s.parent.is_some_and(|p| op_ids.contains(&p)) {
                out.covered_ns += s.dur_ns;
            }
            let layer = out.layers.entry(s.name.clone()).or_default();
            layer.count += 1;
            layer.total_ns += s.dur_ns;
            layer.self_ns += s.dur_ns.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            layer.durations.push(s.dur_ns);
        }
        out
    }

    /// Mean milliseconds per traced op spent in spans named `name`.
    pub fn ms_per_op(&self, name: &str) -> f64 {
        self.total_ns(name) as f64 / self.ops.max(1) as f64 / 1e6
    }

    /// Σ nanoseconds of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.layers.get(name).map(|l| l.total_ns).unwrap_or(0)
    }

    /// Median duration (ms) of the spans named `name`.
    pub fn median_ms(&self, name: &str) -> f64 {
        let ms: Vec<f64> =
            self.layers.get(name).map(|l| l.durations.iter().map(|&ns| ns as f64 / 1e6).collect()).unwrap_or_default();
        crate::percentile(&ms, 0.5)
    }

    /// Mean op wall time in milliseconds.
    pub fn op_ms(&self) -> f64 {
        self.op_ns as f64 / self.ops.max(1) as f64 / 1e6
    }

    /// Traced op time over the same ops run untraced.
    pub fn trace_overhead(&self) -> f64 {
        self.op_ns as f64 / self.total_ns(UNTRACED).max(1) as f64
    }

    /// Share of op wall time covered by layer spans.
    pub fn coverage(&self) -> f64 {
        self.covered_ns as f64 / self.op_ns.max(1) as f64
    }

    /// Human-readable per-layer table: count, total, self time, and share
    /// of op wall time.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<28} {:>9} {:>12} {:>12} {:>8}", "span", "count", "total_ms", "self_ms", "share");
        let _ = writeln!(
            out,
            "{:<28} {:>9} {:>12.3} {:>12.3} {:>8.4}",
            OP,
            self.ops,
            self.op_ns as f64 / 1e6,
            (self.op_ns.saturating_sub(self.covered_ns)) as f64 / 1e6,
            1.0
        );
        for (name, l) in &self.layers {
            let _ = writeln!(
                out,
                "{:<28} {:>9} {:>12.3} {:>12.3} {:>8.4}",
                name,
                l.count,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6,
                l.total_ns as f64 / self.op_ns.max(1) as f64
            );
        }
        let _ = writeln!(out, "trace.coverage {:.4}", self.coverage());
        let _ = writeln!(out, "obs.trace_overhead {:.4}", self.trace_overhead());
        out
    }
}
