//! Parallel design-space sweeps over candidate machines.
//!
//! The co-design loop of the paper projects one application on many
//! *prospective* machines — varying bandwidth, core counts, memory-level
//! parallelism — and asks where the bottleneck moves and whether the hot
//! spot ranking changes. With the two-phase projection engine the
//! per-machine cost is a single plan evaluation, so a sweep is
//! embarrassingly parallel over machines.
//!
//! [`DesignSpace`] enumerates the candidate machines (an explicit list via
//! [`DesignSpace::from_machines`], or the cartesian product of parameter
//! [`Axis`] values via [`DesignSpace::grid`]); [`DesignSpace::sweep_opts`]
//! fans the points across the crate's chunked work-stealing pool
//! ([`crate::pool`]) and returns a [`Sweep`] holding one lightweight
//! [`SweepPoint`] summary per point plus the columnar
//! [`ProjectionColumns`] arena behind them.
//!
//! Sweep output is **columnar**: the engine never materializes a
//! per-point [`Projection`](xflow_hotspot::Projection). Each pool chunk
//! fills its range of one structure-of-arrays arena through the
//! lane-vectorized [`xflow_hotspot::PlanKernel::evaluate_columns_chunk`]
//! — total time, block Tc/Tm/To, achieved δ, and the dense per-statement
//! cost matrix as columns. A full projection is *hydrated* on demand with
//! [`Sweep::hydrate`] only when a caller drills into one point.
//!
//! Grid traversal is row-major (last axis fastest), so adjacent points
//! within a chunk differ in one axis. Results are deterministic and
//! independent of the worker-thread count and the chunk size: chunks
//! install into the arena at their point range, and the lane kernel is
//! bit-identical to the scalar evaluator, so the output never depends on
//! scheduling. Tune both knobs, and attach a telemetry recorder, with
//! [`SweepOptions`].
//!
//! ```
//! use xflow::{bgq, Axis, DesignSpace, ModeledApp, Scale, SweepOptions};
//!
//! let w = xflow::xflow_workloads::cfd();
//! let app = ModeledApp::from_workload(&w, Scale::Test).unwrap();
//! let space = DesignSpace::grid(
//!     bgq(),
//!     vec![
//!         Axis::new("dram_bw_gbs", &[20.0, 40.0], |m, v| m.dram_bw_gbs = v),
//!         Axis::new("mlp", &[2.0, 4.0], |m, v| m.mlp = v),
//!     ],
//! );
//! let sweep = space.sweep_opts(&app, SweepOptions::with_threads(2));
//! assert_eq!(sweep.points.len(), 4);
//! let best = sweep.best().unwrap();
//! assert!(best.total <= sweep.points[0].total);
//! // drill into the winning point: hydrate its full projection
//! let mp = sweep.hydrate(&app, best.index);
//! assert_eq!(mp.total.to_bits(), best.total.to_bits());
//! ```

use crate::pipeline::{fold_projection, MachineProjection, ModeledApp};
use crate::units::Units;
use xflow_hotspot::{ProjectionColumns, SlotCost};
use xflow_hw::{MachineModel, MachineSpec};
use xflow_obs::{AttrValue, NoopRecorder, Recorder, SpanId};
use xflow_skeleton::StmtId;

/// Scheduling knobs and telemetry for a design-space sweep.
///
/// `threads` and `chunk` default to `0` = automatic: the thread count
/// follows the host's available parallelism (clamped to the point count)
/// and the chunk size targets ~4 chunks per worker (clamped to 1..=64), the
/// one policy of [`crate::pool`]. The recorder defaults to the
/// [`NoopRecorder`].
#[derive(Clone, Copy)]
pub struct SweepOptions<'r> {
    /// Worker threads; `0` = available parallelism, `1` = serial.
    pub threads: usize,
    /// Points per work-stealing chunk; `0` = automatic.
    pub chunk: usize,
    /// Telemetry sink: one `sweep` span, one `sweep.chunk` span per
    /// chunk, and the `sweep.points` counter.
    pub recorder: &'r dyn Recorder,
}

impl Default for SweepOptions<'_> {
    fn default() -> Self {
        Self { threads: 0, chunk: 0, recorder: &NoopRecorder }
    }
}

impl SweepOptions<'_> {
    /// Options with an explicit thread count and automatic chunking.
    pub fn with_threads(threads: usize) -> Self {
        Self { threads, ..Self::default() }
    }
}

/// One swept machine parameter: a name, the values to try, and how to
/// apply a value to a machine description.
#[derive(Clone)]
pub struct Axis {
    /// Parameter name (used in point labels, e.g. `dram_bw_gbs=40`).
    pub name: String,
    /// Values the axis takes, in sweep order.
    pub values: Vec<f64>,
    /// Writes one value into a machine description.
    pub apply: fn(&mut MachineModel, f64),
}

impl Axis {
    /// A named axis over explicit values.
    pub fn new(name: &str, values: &[f64], apply: fn(&mut MachineModel, f64)) -> Self {
        Self { name: name.to_string(), values: values.to_vec(), apply }
    }

    /// DRAM bandwidth axis (GB/s).
    pub fn dram_bw(values: &[f64]) -> Self {
        Self::new("dram_bw_gbs", values, |m, v| m.dram_bw_gbs = v)
    }

    /// Core-count axis.
    pub fn cores(values: &[f64]) -> Self {
        Self::new("cores", values, |m, v| m.cores = v as u32)
    }

    /// Memory-level-parallelism axis.
    pub fn mlp(values: &[f64]) -> Self {
        Self::new("mlp", values, |m, v| m.mlp = v)
    }

    /// Clock-frequency axis (GHz).
    pub fn freq_ghz(values: &[f64]) -> Self {
        Self::new("freq_ghz", values, |m, v| m.freq_ghz = v)
    }

    /// Vector-width axis (lanes).
    pub fn vector_lanes(values: &[f64]) -> Self {
        Self::new("vector_lanes", values, |m, v| m.vector_lanes = v)
    }

    /// Resolve a sweepable machine parameter by name — the single list
    /// both the CLI's `--axis` flag and the server's sweep requests
    /// accept, so the two surfaces can never drift apart.
    pub fn by_name(name: &str, values: &[f64]) -> Result<Self, String> {
        let apply: fn(&mut MachineModel, f64) = match name {
            "dram_bw_gbs" => |m, v| m.dram_bw_gbs = v,
            "cores" => |m, v| m.cores = v as u32,
            "mlp" => |m, v| m.mlp = v,
            "freq_ghz" => |m, v| m.freq_ghz = v,
            "vector_lanes" => |m, v| m.vector_lanes = v,
            "issue_width" => |m, v| m.issue_width = v,
            "l1_hit_rate" => |m, v| m.l1_hit_rate = v,
            "llc_hit_rate" => |m, v| m.llc_hit_rate = v,
            "vector_efficiency" => |m, v| m.vector_efficiency = v,
            "load_store_per_cycle" => |m, v| m.load_store_per_cycle = v,
            other => return Err(format!("unknown axis parameter `{other}`")),
        };
        if values.is_empty() {
            return Err(format!("axis `{name}` needs at least one value"));
        }
        Ok(Self::new(name, values, apply))
    }
}

/// A set of candidate machines to project an application on.
pub struct DesignSpace {
    machines: Vec<MachineModel>,
}

impl DesignSpace {
    /// Sweep an explicit list of machines (e.g. the paper's BG/Q vs Xeon
    /// cross-machine comparison).
    pub fn from_machines<I: IntoIterator<Item = MachineModel>>(machines: I) -> Self {
        Self { machines: machines.into_iter().collect() }
    }

    /// Cartesian product of axis values applied to a base machine.
    ///
    /// Point order is row-major in axis order (the last axis varies
    /// fastest); point 0 is the base machine with every axis at its first
    /// value. Machines are renamed `base[axis=value,…]` so reports stay
    /// readable.
    pub fn grid(base: MachineModel, axes: Vec<Axis>) -> Self {
        let n: usize = axes.iter().map(|a| a.values.len().max(1)).product();
        let mut machines = Vec::with_capacity(n);
        for i in 0..n {
            let mut m = base.clone();
            let mut label = String::new();
            let mut rem = i;
            // decode the row-major index, last axis fastest
            for axis in axes.iter().rev() {
                let k = axis.values.len().max(1);
                let j = rem % k;
                rem /= k;
                if let Some(&v) = axis.values.get(j) {
                    (axis.apply)(&mut m, v);
                    let part = format!("{}={v}", axis.name);
                    label = if label.is_empty() { part } else { format!("{part},{label}") };
                }
            }
            m.name = format!("{}[{}]", base.name, label);
            machines.push(m);
        }
        Self { machines }
    }

    /// The candidate machines, in point order.
    pub fn machines(&self) -> &[MachineModel] {
        &self.machines
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// True when the space has no points.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Project `app` on every point with the extended roofline model and
    /// the app's cached kernel — the one sweep engine.
    ///
    /// Every machine is pre-resolved into a [`MachineSpec`], then the pool
    /// ([`crate::pool`]) fills disjoint point ranges of one
    /// [`ProjectionColumns`] arena through the lane-vectorized
    /// [`evaluate_columns_chunk`](xflow_hotspot::PlanKernel::evaluate_columns_chunk);
    /// no per-point [`Projection`](xflow_hotspot::Projection) is ever
    /// materialized. Point summaries fold the arena's dense statement rows
    /// into units.
    ///
    /// Under an enabled recorder the sweep runs inside a `sweep` span
    /// (points, threads, chunk), each chunk inside a `sweep.chunk` span
    /// (`start`, `points`), and every finished chunk adds its point count
    /// to the `sweep.points` counter (hook an
    /// [`xflow_obs::ProgressTicker`] on it for a live ticker).
    ///
    /// Chunks install at their point range, so the output is independent
    /// of the thread count, the chunk size and the recorder (enforced by
    /// `to_bits` tests).
    pub fn sweep_opts(&self, app: &ModeledApp, opts: SweepOptions<'_>) -> Sweep {
        let rec = opts.recorder;
        let kernel = app.kernel();
        let n = self.machines.len();
        let (threads, chunk) = crate::pool::chunking(n, opts.threads, opts.chunk);
        let enabled = rec.enabled();
        let sweep_span = if enabled {
            rec.span_start(
                "sweep",
                &[
                    ("points", AttrValue::U64(n as u64)),
                    ("threads", AttrValue::U64(threads as u64)),
                    ("chunk", AttrValue::U64(chunk as u64)),
                ],
            )
        } else {
            SpanId::NONE
        };

        let mut cols = ProjectionColumns::new(kernel, self.machines.iter().map(MachineSpec::resolve).collect());
        let filled = crate::pool::map_chunks(n, threads, chunk, |range| {
            let span = if enabled {
                rec.span_start(
                    "sweep.chunk",
                    &[("start", AttrValue::U64(range.start as u64)), ("points", AttrValue::U64(range.len() as u64))],
                )
            } else {
                SpanId::NONE
            };
            let points = range.len() as u64;
            let filled = kernel.evaluate_columns_chunk(&cols, range);
            if enabled {
                rec.span_end(span, &[]);
                rec.add("sweep.points", points);
            }
            filled
        });
        for c in filled {
            cols.install(c);
        }

        let fold = UnitFold::new(&app.units, &cols);
        let points = (0..n)
            .map(|i| {
                let (top_unit, memory_bound) = fold.summarize(cols.stmt_row(i));
                SweepPoint {
                    index: i,
                    machine: self.machines[i].name.clone(),
                    total: cols.total(i),
                    top_unit,
                    memory_bound,
                }
            })
            .collect();
        if enabled {
            rec.span_end(sweep_span, &[]);
        }
        Sweep { points, machines: self.machines.clone(), columns: cols, fold }
    }
}

/// Compact statement-slot → unit fold layout for columnar sweeps.
///
/// Unit ids can live in the library pseudo-id space near `u32::MAX`
/// ([`crate::units::LIB_UNIT_BASE`]), so units are indexed by first
/// appearance over the ascending statement slots rather than densely by
/// id. Folding a dense row accumulates slot costs in ascending-statement
/// order — the same order [`fold_projection`] visits the per-statement
/// table, so the per-unit sums are bit-identical to the eager path's.
struct UnitFold {
    unit_ids: Vec<StmtId>,
    slot_unit: Vec<u32>,
}

impl UnitFold {
    fn new(units: &Units, cols: &ProjectionColumns) -> Self {
        let mut unit_ids: Vec<StmtId> = Vec::new();
        let mut slot_unit = Vec::with_capacity(cols.slot_count());
        for stmt in cols.stmt_ids() {
            let unit = units.unit_of(stmt);
            let idx = unit_ids.iter().position(|&u| u == unit).unwrap_or_else(|| {
                unit_ids.push(unit);
                unit_ids.len() - 1
            });
            slot_unit.push(idx as u32);
        }
        Self { unit_ids, slot_unit }
    }

    /// Fold one dense statement row into `(top unit, top unit is
    /// memory-bound)` — the two summary facts a [`SweepPoint`] carries.
    fn summarize(&self, row: impl Iterator<Item = SlotCost>) -> (Option<StmtId>, bool) {
        let k = self.unit_ids.len();
        let mut total = vec![0.0f64; k];
        let mut tc = vec![0.0f64; k];
        let mut tm = vec![0.0f64; k];
        let mut present = vec![false; k];
        for sc in row {
            let u = self.slot_unit[sc.slot] as usize;
            total[u] += sc.total;
            tc[u] += sc.tc;
            tm[u] += sc.tm;
            present[u] = true;
        }
        // max by (time desc, unit id asc) — the head of the full ranking
        let mut top: Option<usize> = None;
        for u in 0..k {
            if !present[u] {
                continue;
            }
            top = Some(match top {
                None => u,
                Some(b) => {
                    if total[u] > total[b] || (total[u] == total[b] && self.unit_ids[u] < self.unit_ids[b]) {
                        u
                    } else {
                        b
                    }
                }
            });
        }
        match top {
            Some(u) => (Some(self.unit_ids[u]), tm[u] > tc[u]),
            None => (None, false),
        }
    }

    /// Full unit ranking of one dense statement row (time desc, id asc) —
    /// matches [`MachineProjection::ranking`] of the hydrated point.
    fn ranking(&self, row: impl Iterator<Item = SlotCost>) -> Vec<StmtId> {
        let k = self.unit_ids.len();
        let mut total = vec![0.0f64; k];
        let mut present = vec![false; k];
        for sc in row {
            let u = self.slot_unit[sc.slot] as usize;
            total[u] += sc.total;
            present[u] = true;
        }
        let mut v: Vec<(StmtId, f64)> = (0..k).filter(|&u| present[u]).map(|u| (self.unit_ids[u], total[u])).collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0)));
        v.into_iter().map(|(s, _)| s).collect()
    }
}

/// Summary of one design-space point — a few scalars, no projection.
///
/// The full [`MachineProjection`] of a point is hydrated on demand with
/// [`Sweep::hydrate`].
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Index into [`DesignSpace::machines`].
    pub index: usize,
    /// Machine name of the point (grid points embed their `axis=value`
    /// coordinates).
    pub machine: String,
    /// Total projected seconds.
    pub total: f64,
    /// Highest-cost unit on this machine, if any time was projected.
    pub top_unit: Option<StmtId>,
    /// Whether the top unit is memory-bound (`Tm > Tc`) on this machine.
    pub memory_bound: bool,
}

/// How one point differs from the sweep's baseline (point 0).
#[derive(Debug, Clone)]
pub struct SweepDelta {
    /// Index into [`DesignSpace::machines`].
    pub index: usize,
    /// Machine name of the point.
    pub machine: String,
    /// `baseline_total / point_total` (> 1 means this point is faster).
    pub speedup: f64,
    /// The unit ranking differs from the baseline's.
    pub ranking_changed: bool,
    /// The top unit's compute/memory bottleneck flipped vs the baseline.
    pub bottleneck_flipped: bool,
}

/// Result of sweeping a design space: lightweight per-point summaries in
/// point order, backed by the columnar arena.
pub struct Sweep {
    /// One entry per design-space point, in point order.
    pub points: Vec<SweepPoint>,
    machines: Vec<MachineModel>,
    columns: ProjectionColumns,
    fold: UnitFold,
}

impl Sweep {
    /// The fastest point (lowest projected total; ties keep point order).
    pub fn best(&self) -> Option<&SweepPoint> {
        self.points.iter().min_by(|a, b| a.total.partial_cmp(&b.total).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Points sorted by ascending projected total (ties keep point order).
    pub fn ranked(&self) -> Vec<&SweepPoint> {
        let mut v: Vec<&SweepPoint> = self.points.iter().collect();
        v.sort_by(|a, b| {
            a.total.partial_cmp(&b.total).unwrap_or(std::cmp::Ordering::Equal).then(a.index.cmp(&b.index))
        });
        v
    }

    /// The `k` fastest points, ranked — straight off the totals column, no
    /// hydration.
    pub fn top(&self, k: usize) -> Vec<&SweepPoint> {
        let mut v = self.ranked();
        v.truncate(k);
        v
    }

    /// The swept machines, in point order.
    pub fn machines(&self) -> &[MachineModel] {
        &self.machines
    }

    /// The columnar result arena (always present; the `Option` keeps the
    /// signature callers already match on).
    pub fn columns(&self) -> Option<&ProjectionColumns> {
        Some(&self.columns)
    }

    /// Materialize the full per-machine projection of one point by
    /// re-evaluating its stored spec through the app's kernel
    /// (bit-identical to [`ModeledApp::project_on`]). `app` must be the
    /// application the sweep was run on.
    pub fn hydrate(&self, app: &ModeledApp, i: usize) -> MachineProjection {
        fold_projection(&app.units, &self.machines[i], self.columns.hydrate(app.kernel(), i))
    }

    /// Unit ranking of one point (time desc, id asc) without hydrating its
    /// projection.
    pub fn unit_ranking(&self, i: usize) -> Vec<StmtId> {
        self.fold.ranking(self.columns.stmt_row(i))
    }

    /// Per-point deltas against the baseline (point 0): speedup, hot-spot
    /// ranking shifts, and bottleneck flips — the co-design questions a
    /// sweep exists to answer.
    pub fn deltas(&self) -> Vec<SweepDelta> {
        let Some(base) = self.points.first() else { return Vec::new() };
        let base_ranking = self.unit_ranking(0);
        self.points
            .iter()
            .map(|p| SweepDelta {
                index: p.index,
                machine: p.machine.clone(),
                speedup: if p.total > 0.0 { base.total / p.total } else { f64::INFINITY },
                ranking_changed: self.unit_ranking(p.index) != base_ranking,
                bottleneck_flipped: p.memory_bound != base.memory_bound,
            })
            .collect()
    }
}

fn write_sweep_header(out: &mut String) {
    use std::fmt::Write;
    let _ = writeln!(
        out,
        "{:<4} {:<40} {:>12} {:<24} {:>7} {:>9}",
        "#", "machine", "total (s)", "top unit", "bound", "speedup"
    );
}

fn write_sweep_row(out: &mut String, p: &SweepPoint, d: &SweepDelta, units: &crate::units::Units) {
    use std::fmt::Write;
    let top = p.top_unit.map(|u| units.name(u)).unwrap_or_else(|| "-".into());
    let _ = writeln!(
        out,
        "{:<4} {:<40} {:>12.4e} {:<24} {:>7} {:>8.2}x",
        p.index,
        p.machine,
        p.total,
        top,
        if p.memory_bound { "mem" } else { "comp" },
        d.speedup,
    );
}

/// Render a sweep as an aligned table (point, machine, total, top unit,
/// bound, speedup vs baseline), in point order.
pub fn format_sweep(sweep: &Sweep, units: &crate::units::Units) -> String {
    let mut out = String::new();
    write_sweep_header(&mut out);
    let deltas = sweep.deltas();
    for (p, d) in sweep.points.iter().zip(&deltas) {
        write_sweep_row(&mut out, p, d, units);
    }
    out
}

/// Render the `k` fastest points of a sweep as an aligned table, best
/// first — the `xflow sweep --top` view, ranked straight off the totals
/// column without hydrating any point.
pub fn format_sweep_ranked(sweep: &Sweep, units: &crate::units::Units, k: usize) -> String {
    let mut out = String::new();
    write_sweep_header(&mut out);
    let deltas = sweep.deltas();
    for p in sweep.top(k) {
        write_sweep_row(&mut out, p, &deltas[p.index], units);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xflow_hw::{bgq, xeon};
    use xflow_workloads::Scale;

    fn cfd_app() -> ModeledApp {
        ModeledApp::from_workload(&xflow_workloads::cfd(), Scale::Test).unwrap()
    }

    fn sweep(space: &DesignSpace, app: &ModeledApp, threads: usize) -> Sweep {
        space.sweep_opts(app, SweepOptions::with_threads(threads))
    }

    #[test]
    fn grid_is_cartesian_and_labeled() {
        let space = DesignSpace::grid(bgq(), vec![Axis::dram_bw(&[10.0, 20.0, 30.0]), Axis::mlp(&[2.0, 4.0])]);
        assert_eq!(space.len(), 6);
        // last axis varies fastest
        assert_eq!(space.machines()[0].mlp, 2.0);
        assert_eq!(space.machines()[1].mlp, 4.0);
        assert_eq!(space.machines()[0].dram_bw_gbs, 10.0);
        assert_eq!(space.machines()[2].dram_bw_gbs, 20.0);
        assert!(space.machines()[0].name.contains("dram_bw_gbs=10"));
        assert!(space.machines()[0].name.contains("mlp=2"));
    }

    #[test]
    fn sweep_results_independent_of_thread_count() {
        let app = cfd_app();
        let space = DesignSpace::grid(bgq(), vec![Axis::dram_bw(&[10.0, 20.0, 40.0]), Axis::mlp(&[2.0, 4.0])]);
        let serial = sweep(&space, &app, 1);
        for threads in [2, 4, 8] {
            let par = sweep(&space, &app, threads);
            assert_eq!(par.points.len(), serial.points.len());
            for (a, b) in par.points.iter().zip(&serial.points) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.total.to_bits(), b.total.to_bits());
                assert_eq!(a.top_unit, b.top_unit);
                assert_eq!(a.memory_bound, b.memory_bound);
            }
        }
    }

    #[test]
    fn sweep_results_independent_of_chunk_size() {
        let app = cfd_app();
        let space = DesignSpace::grid(bgq(), vec![Axis::dram_bw(&[10.0, 20.0, 40.0]), Axis::mlp(&[2.0, 4.0])]);
        let serial = sweep(&space, &app, 1);
        for (threads, chunk) in [(2, 1), (2, 3), (4, 2), (3, 64), (1, 2), (2, 7)] {
            let par = space.sweep_opts(&app, SweepOptions { threads, chunk, ..SweepOptions::default() });
            assert_eq!(par.points.len(), serial.points.len());
            for (a, b) in par.points.iter().zip(&serial.points) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.total.to_bits(), b.total.to_bits(), "threads={threads} chunk={chunk}");
                assert_eq!(a.top_unit, b.top_unit);
            }
        }
    }

    #[test]
    fn plain_sweep_is_columnar_and_matches_project_on() {
        let app = cfd_app();
        let space = DesignSpace::grid(bgq(), vec![Axis::dram_bw(&[10.0, 20.0, 40.0]), Axis::mlp(&[2.0, 4.0])]);
        let sweep = sweep(&space, &app, 2);
        let cols = sweep.columns().expect("every sweep is columnar");
        assert_eq!(cols.points(), 6);
        for (i, machine) in space.machines().iter().enumerate() {
            let direct = app.project_on(machine);
            assert_eq!(sweep.points[i].total.to_bits(), direct.total.to_bits());
            assert_eq!(sweep.unit_ranking(i), direct.ranking());
            // lazy hydration reproduces the eager projection bit-for-bit
            let hydrated = sweep.hydrate(&app, i);
            assert_eq!(hydrated.total.to_bits(), direct.total.to_bits());
            assert_eq!(hydrated.ranking(), direct.ranking());
            assert_eq!(hydrated.projection.per_stmt.len(), direct.projection.per_stmt.len());
            for (stmt, cost) in &hydrated.projection.per_stmt {
                assert_eq!(cost.total.to_bits(), direct.projection.per_stmt[&stmt].total.to_bits());
            }
        }
    }

    #[test]
    fn ranked_top_comes_from_the_totals_column() {
        let app = cfd_app();
        let space = DesignSpace::grid(bgq(), vec![Axis::cores(&[1.0, 2.0, 4.0, 8.0])]);
        let sweep = sweep(&space, &app, 1);
        let top = sweep.top(2);
        assert_eq!(top.len(), 2);
        assert!(top[0].total <= top[1].total);
        assert_eq!(top[0].index, sweep.best().unwrap().index);
        let text = format_sweep_ranked(&sweep, &app.units, 2);
        assert_eq!(text.lines().count(), 3, "header + 2 ranked rows:\n{text}");
        let first_row = text.lines().nth(1).unwrap();
        assert!(first_row.starts_with(&format!("{:<4}", top[0].index)), "{first_row}");
    }

    #[test]
    fn work_stealing_counters_recorded() {
        use xflow_obs::CollectingRecorder;
        let app = cfd_app();
        let space = DesignSpace::grid(bgq(), vec![Axis::dram_bw(&[10.0, 20.0]), Axis::mlp(&[2.0, 4.0])]);
        // four 1-point chunks, serial and over two workers: one chunk span
        // per claimed chunk, and the points counter sums their sizes
        for threads in [1, 2] {
            let rec = CollectingRecorder::new();
            space.sweep_opts(&app, SweepOptions { threads, chunk: 1, recorder: &rec });
            assert_eq!(rec.counter_value("sweep.points"), 4, "threads={threads}");
            let snap = rec.snapshot();
            assert_eq!(snap.spans.iter().filter(|s| s.name == "sweep.chunk").count(), 4, "threads={threads}");
        }
    }

    #[test]
    fn sweep_matches_project_on() {
        let app = cfd_app();
        let machines = [bgq(), xeon()];
        let sweep = sweep(&DesignSpace::from_machines(machines.clone()), &app, 2);
        for (p, m) in sweep.points.iter().zip(&machines) {
            let direct = app.project_on(m);
            assert_eq!(p.total.to_bits(), direct.total.to_bits());
            assert_eq!(sweep.unit_ranking(p.index), direct.ranking());
        }
    }

    #[test]
    fn faster_clock_never_slower() {
        let app = cfd_app();
        let space = DesignSpace::grid(bgq(), vec![Axis::freq_ghz(&[0.8, 1.6, 3.2])]);
        let sweep = sweep(&space, &app, 0);
        for w in sweep.points.windows(2) {
            assert!(w[1].total < w[0].total, "{} vs {}", w[1].total, w[0].total);
        }
        let best = sweep.best().unwrap();
        assert_eq!(best.index, 2);
    }

    #[test]
    fn deltas_report_speedup_vs_baseline() {
        let app = cfd_app();
        let sweep = sweep(&DesignSpace::grid(bgq(), vec![Axis::dram_bw(&[10.0, 40.0])]), &app, 1);
        let deltas = sweep.deltas();
        assert_eq!(deltas.len(), 2);
        assert!((deltas[0].speedup - 1.0).abs() < 1e-12);
        assert!(deltas[1].speedup >= 1.0);
        assert!(!deltas[0].ranking_changed);
    }

    #[test]
    fn observed_sweep_traces_points_and_matches_plain() {
        use xflow_obs::CollectingRecorder;
        let app = cfd_app();
        let space = DesignSpace::grid(bgq(), vec![Axis::dram_bw(&[10.0, 20.0]), Axis::mlp(&[2.0, 4.0])]);
        let plain = sweep(&space, &app, 2);
        let rec = CollectingRecorder::new();
        let observed = space.sweep_opts(&app, SweepOptions { threads: 2, chunk: 3, recorder: &rec });
        for (a, b) in observed.points.iter().zip(&plain.points) {
            assert_eq!(a.total.to_bits(), b.total.to_bits());
            assert_eq!(a.top_unit, b.top_unit);
            assert_eq!(a.memory_bound, b.memory_bound);
        }
        assert_eq!(rec.counter_value("sweep.points"), 4);
        let snap = rec.snapshot();
        let sweep_span = snap.spans.iter().find(|s| s.name == "sweep").unwrap();
        for key in ["points", "threads", "chunk"] {
            assert!(sweep_span.attrs.iter().any(|(k, _)| k == key), "sweep span lacks `{key}`");
        }
        // two chunks (3 + 1 points), no per-point spans
        let chunk_points: Vec<u64> = snap
            .spans
            .iter()
            .filter(|s| s.name == "sweep.chunk")
            .map(|s| match s.attrs.iter().find(|(k, _)| k == "points").map(|(_, v)| v) {
                Some(xflow_obs::OwnedAttr::U64(p)) => *p,
                other => panic!("chunk span needs a `points` count, got {other:?}"),
            })
            .collect();
        assert_eq!(chunk_points.iter().sum::<u64>(), 4);
        assert_eq!(chunk_points.len(), 2);
        assert!(snap.spans.iter().all(|s| s.name != "sweep.point"));
    }

    #[test]
    fn format_sweep_renders() {
        let app = cfd_app();
        let sweep = sweep(&DesignSpace::from_machines([bgq()]), &app, 1);
        let text = format_sweep(&sweep, &app.units);
        assert!(text.contains("machine"));
        assert!(text.contains("speedup"));
    }
}
