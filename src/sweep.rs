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
//! [`Axis`] values via [`DesignSpace::grid`], which formats each axis's
//! `name=value` labels once and assembles every point's name from them);
//! [`DesignSpace::sweep_opts`] fans the points across the crate's chunked
//! work-stealing pool ([`crate::pool`]) and returns a [`Sweep`] holding
//! one lightweight [`SweepPoint`] summary per point plus the columnar
//! [`ProjectionColumns`] arena behind them. The sweep shares the space's
//! machines; it never copies them.
//!
//! Sweep output is **columnar**: the engine never materializes a
//! per-point [`Projection`](xflow_hotspot::Projection). The arena is split
//! into one [`ColumnsTarget`] per pool chunk, and each chunk fills its own
//! rows in place through the lane-vectorized
//! [`xflow_hotspot::PlanKernel::fill_columns`] — total time, block
//! Tc/Tm/To, achieved δ, and the dense per-statement cost matrix as
//! columns — then, in the same pass, folds those rows into its points'
//! summaries (top unit, memory-bound verdict) with fold buffers it reuses
//! across its rows. A full projection is *hydrated* on demand with
//! [`Sweep::hydrate`] only when a caller drills into one point.
//!
//! Grid traversal is row-major (last axis fastest), so adjacent points
//! within a chunk differ in one axis. Results are deterministic and
//! independent of the worker-thread count and the chunk size: every
//! arena row belongs to exactly one chunk, summaries merge back by chunk
//! index, and the lane kernel is bit-identical to the scalar evaluator,
//! so the output never depends on scheduling. Tune both knobs, and attach
//! a telemetry recorder, with [`SweepOptions`].
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

use std::sync::Arc;

use crate::pipeline::{fold_projection, MachineProjection, ModeledApp};
use crate::units::Units;
use xflow_hotspot::{ColumnsTarget, ProjectionColumns, SlotCost};
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
    /// Shared with every [`Sweep`] of the space.
    machines: Arc<Vec<MachineModel>>,
}

impl DesignSpace {
    /// Sweep an explicit list of machines (e.g. the paper's BG/Q vs Xeon
    /// cross-machine comparison).
    pub fn from_machines<I: IntoIterator<Item = MachineModel>>(machines: I) -> Self {
        Self { machines: Arc::new(machines.into_iter().collect()) }
    }

    /// Number of points [`DesignSpace::grid`] builds from `axes` (an axis
    /// with no values counts as one), or `None` when the product overflows
    /// `usize`.
    pub fn grid_len(axes: &[Axis]) -> Option<usize> {
        axes.iter().try_fold(1usize, |n, a| n.checked_mul(a.values.len().max(1)))
    }

    /// Cartesian product of axis values applied to a base machine.
    ///
    /// Point order is row-major in axis order (the last axis varies
    /// fastest); point 0 is the base machine with every axis at its first
    /// value. Axes apply last axis first, so when two axes write the same
    /// field the earlier axis wins. Machines are renamed
    /// `base[axis=value,…]` so reports stay readable; each `axis=value`
    /// label is formatted once per axis value, not once per point.
    ///
    /// # Panics
    /// If the number of points ([`DesignSpace::grid_len`]) overflows
    /// `usize`.
    pub fn grid(base: MachineModel, axes: Vec<Axis>) -> Self {
        let n = Self::grid_len(&axes).unwrap_or_else(|| {
            let lens: Vec<usize> = axes.iter().map(|a| a.values.len()).collect();
            panic!("design-space grid overflows usize: axis lengths {lens:?}")
        });
        let labels: Vec<Vec<String>> =
            axes.iter().map(|a| a.values.iter().map(|v| format!("{}={v}", a.name)).collect()).collect();
        let mut template = base;
        let base_name = std::mem::take(&mut template.name);
        let name_len = base_name.len()
            + 2
            + labels.iter().map(|l| l.iter().map(String::len).max().unwrap_or(0) + 1).sum::<usize>();
        let mut coords = vec![0usize; axes.len()];
        let mut machines = Vec::with_capacity(n);
        for i in 0..n {
            let mut m = template.clone();
            // decode the row-major index, last axis fastest
            let mut rem = i;
            for (a, axis) in axes.iter().enumerate().rev() {
                let k = axis.values.len().max(1);
                coords[a] = rem % k;
                rem /= k;
                if let Some(&v) = axis.values.get(coords[a]) {
                    (axis.apply)(&mut m, v);
                }
            }
            let mut name = String::with_capacity(name_len);
            name.push_str(&base_name);
            name.push('[');
            let mut sep = "";
            for (l, &j) in labels.iter().zip(&coords) {
                if let Some(label) = l.get(j) {
                    name.push_str(sep);
                    name.push_str(label);
                    sep = ",";
                }
            }
            name.push(']');
            m.name = name;
            machines.push(m);
        }
        Self { machines: Arc::new(machines) }
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
    /// Every machine is pre-resolved into a [`MachineSpec`], the
    /// [`ProjectionColumns`] arena is split into one [`ColumnsTarget`] per
    /// chunk, and the pool ([`crate::pool`]) hands each chunk its target:
    /// the chunk fills its rows in place through the lane-vectorized
    /// [`fill_columns`](xflow_hotspot::PlanKernel::fill_columns) and folds
    /// them into its points' summaries. No per-point
    /// [`Projection`](xflow_hotspot::Projection) is ever materialized.
    ///
    /// Under an enabled recorder the sweep runs inside a `sweep` span
    /// (points, threads, chunk), each chunk inside a `sweep.chunk` span
    /// (`start`, `points`), and every finished chunk adds its point count
    /// to the `sweep.points` counter (hook an
    /// [`xflow_obs::ProgressTicker`] on it for a live ticker). Traced and
    /// untraced sweeps run the same fill.
    ///
    /// Every arena row belongs to exactly one chunk and summaries merge by
    /// chunk index, so the output is independent of the thread count, the
    /// chunk size and the recorder (enforced by `to_bits` tests).
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
        let fold = UnitFold::new(&app.units, &cols);
        let chunks = crate::pool::map_owned(cols.split_targets(chunk), threads, |mut target| {
            let span = if enabled {
                rec.span_start(
                    "sweep.chunk",
                    &[
                        ("start", AttrValue::U64(target.start() as u64)),
                        ("points", AttrValue::U64(target.len() as u64)),
                    ],
                )
            } else {
                SpanId::NONE
            };
            kernel.fill_columns(&mut target);
            let points = fold.summarize_chunk(&target, &self.machines);
            if enabled {
                rec.span_end(span, &[]);
                rec.add("sweep.points", target.len() as u64);
            }
            points
        });
        let mut points = Vec::with_capacity(n);
        for c in chunks {
            points.extend(c);
        }
        if enabled {
            rec.span_end(sweep_span, &[]);
        }
        Sweep { points, machines: Arc::clone(&self.machines), columns: cols, fold }
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

    /// Fold every row of a filled chunk into its [`SweepPoint`]s. One set
    /// of per-unit buffers serves all of the chunk's rows.
    fn summarize_chunk(&self, target: &ColumnsTarget<'_>, machines: &[MachineModel]) -> Vec<SweepPoint> {
        let k = self.unit_ids.len();
        let mut total = vec![0.0f64; k];
        let mut tc = vec![0.0f64; k];
        let mut tm = vec![0.0f64; k];
        let mut present = vec![false; k];
        (0..target.len())
            .map(|r| {
                total.fill(0.0);
                tc.fill(0.0);
                tm.fill(0.0);
                present.fill(false);
                for sc in target.stmt_row(r) {
                    let u = self.slot_unit[sc.slot] as usize;
                    total[u] += sc.total;
                    tc[u] += sc.tc;
                    tm[u] += sc.tm;
                    present[u] = true;
                }
                // max by (time desc, unit id asc) — the head of the full ranking
                let beats = |u: usize, b: usize| {
                    total[u] > total[b] || (total[u] == total[b] && self.unit_ids[u] < self.unit_ids[b])
                };
                let top = (0..k).filter(|&u| present[u]).reduce(|b, u| if beats(u, b) { u } else { b });
                let index = target.start() + r;
                SweepPoint {
                    index,
                    machine: machines[index].name.clone(),
                    total: target.total(r),
                    top_unit: top.map(|u| self.unit_ids[u]),
                    memory_bound: top.is_some_and(|u| tm[u] > tc[u]),
                }
            })
            .collect()
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
    machines: Arc<Vec<MachineModel>>,
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
        let Some((base, base_ranking)) = self.baseline() else { return Vec::new() };
        self.points.iter().map(|p| self.delta(p, base, &base_ranking)).collect()
    }

    /// Point 0 and its unit ranking, the reference every delta compares
    /// against.
    fn baseline(&self) -> Option<(&SweepPoint, Vec<StmtId>)> {
        self.points.first().map(|p| (p, self.unit_ranking(0)))
    }

    fn delta(&self, p: &SweepPoint, base: &SweepPoint, base_ranking: &[StmtId]) -> SweepDelta {
        SweepDelta {
            index: p.index,
            machine: p.machine.clone(),
            speedup: if p.total > 0.0 { base.total / p.total } else { f64::INFINITY },
            ranking_changed: self.unit_ranking(p.index) != base_ranking,
            bottleneck_flipped: p.memory_bound != base.memory_bound,
        }
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
/// column without hydrating any point. Deltas are computed for the `k`
/// printed rows only.
pub fn format_sweep_ranked(sweep: &Sweep, units: &crate::units::Units, k: usize) -> String {
    let mut out = String::new();
    write_sweep_header(&mut out);
    if let Some((base, base_ranking)) = sweep.baseline() {
        for p in sweep.top(k) {
            write_sweep_row(&mut out, p, &sweep.delta(p, base, &base_ranking), units);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xflow_hw::{bgq, generic, xeon};
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

    /// The per-point construction `grid` replaced (per-axis `format!`,
    /// prepended labels), kept as the oracle for its names and machines.
    fn grid_oracle(base: &MachineModel, axes: &[Axis]) -> Vec<MachineModel> {
        let n: usize = axes.iter().map(|a| a.values.len().max(1)).product();
        (0..n)
            .map(|i| {
                let mut m = base.clone();
                let mut label = String::new();
                let mut rem = i;
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
                m
            })
            .collect()
    }

    #[test]
    fn grid_names_and_machines_match_the_per_point_oracle() {
        let pow2: Vec<f64> = (0..8).map(|e| 8.0 * 2f64.powi(e)).collect();
        let odd: Vec<f64> = (1..=16).map(|i| 10.0 * i as f64).collect();
        let freq: Vec<f64> = (0..16).map(|i| 1.1 + 0.2 * i as f64).collect();
        let by = |name: &str, values: &[f64]| Axis::by_name(name, values).unwrap();
        let grids: Vec<(MachineModel, Vec<Axis>)> = vec![
            // the benchmark's grid shapes: 2-, 3- and 4-axis, one-value axes
            (bgq(), vec![by("dram_bw_gbs", &pow2), by("mlp", &pow2)]),
            (xeon(), vec![by("dram_bw_gbs", &odd), by("freq_ghz", &freq[..8])]),
            (
                bgq(),
                vec![
                    by("cores", &[16.0]),
                    by("dram_bw_gbs", &pow2),
                    by("mlp", &odd[..4]),
                    by("vector_lanes", &[2.0, 4.0]),
                ],
            ),
            (xeon(), vec![by("cores", &[8.0, 12.0, 16.0, 24.0]), by("dram_bw_gbs", &odd), by("freq_ghz", &freq)]),
            // an axis with no values: it adds no label and applies nothing
            (
                bgq(),
                vec![
                    by("mlp", &[2.0, 4.0]),
                    Axis::new("cores", &[], |m, v| m.cores = v as u32),
                    by("dram_bw_gbs", &[9.5]),
                ],
            ),
            (bgq(), vec![Axis::new("mlp", &[], |m, v| m.mlp = v)]),
            // two axes writing one field: the earlier axis applies last and wins
            (xeon(), vec![by("mlp", &[2.0, 4.0, 8.0]), by("mlp", &[16.0, 32.0])]),
            // values whose `Display` is long, exponent-like or non-finite
            (
                generic(),
                vec![
                    by("l1_hit_rate", &[1e-7, 0.1 + 0.2, -0.0]),
                    by("freq_ghz", &[1e21, 1.5e300, f64::INFINITY, f64::NAN]),
                    by("mlp", &[f64::MIN_POSITIVE, 123456789.125]),
                ],
            ),
        ];
        for (base, axes) in grids {
            let expect = grid_oracle(&base, &axes);
            let space = DesignSpace::grid(base, axes);
            assert_eq!(space.len(), expect.len());
            for (got, want) in space.machines().iter().zip(&expect) {
                assert_eq!(format!("{got:?}"), format!("{want:?}"));
            }
        }
    }

    #[test]
    fn grid_len_is_checked() {
        let wide = || Axis::mlp(&[1.0; 256]);
        assert_eq!(DesignSpace::grid_len(&[]), Some(1));
        assert_eq!(DesignSpace::grid_len(&[wide(), Axis::new("mlp", &[], |m, v| m.mlp = v)]), Some(256));
        assert_eq!(DesignSpace::grid_len(&vec![wide(); 7]), 256usize.checked_pow(7));
        // 256^8 = 2^64 wraps to 0 unchecked
        assert_eq!(DesignSpace::grid_len(&vec![wide(); 8]), None);
        let err = std::panic::catch_unwind(|| DesignSpace::grid(bgq(), vec![wide(); 8]).len()).expect_err("must panic");
        let msg = err.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("[256, 256, 256, 256, 256, 256, 256, 256]"), "{msg}");
    }

    #[test]
    fn in_chunk_summaries_match_a_post_hoc_fold_for_every_schedule() {
        // infinite-frequency machines take the degenerate-lane replay; on
        // SRAD the top unit and the bottleneck both move across the grid
        let space = DesignSpace::grid(
            bgq(),
            vec![
                Axis::freq_ghz(&[1.6, f64::INFINITY, 1000.0]),
                Axis::mlp(&[1.0, 4.0, 64.0]),
                Axis::dram_bw(&[0.01, 10.0, 100.0, 1000.0]),
            ],
        );
        for w in [xflow_workloads::cfd(), xflow_workloads::srad()] {
            let app = ModeledApp::from_workload(&w, Scale::Test).unwrap();
            // post-hoc oracle: fold each finished arena row into units, in
            // ascending slot order, and take the (time desc, id asc) head
            let post_hoc = |sweep: &Sweep, i: usize| {
                let mut units: Vec<(StmtId, f64, f64, f64)> = Vec::new();
                for sc in sweep.columns().unwrap().stmt_row(i) {
                    let unit = app.units.unit_of(sc.stmt);
                    let at = units.iter().position(|u| u.0 == unit).unwrap_or_else(|| {
                        units.push((unit, 0.0, 0.0, 0.0));
                        units.len() - 1
                    });
                    units[at].1 += sc.total;
                    units[at].2 += sc.tc;
                    units[at].3 += sc.tm;
                }
                let top =
                    units.iter().copied().reduce(|b, u| if u.1 > b.1 || (u.1 == b.1 && u.0 < b.0) { u } else { b });
                (top.map(|u| u.0), top.is_some_and(|u| u.3 > u.2))
            };
            let mut summaries = std::collections::BTreeSet::new();
            for threads in [1, 2, 3, 8] {
                for chunk in [1, 3, 64] {
                    let sweep = space.sweep_opts(&app, SweepOptions { threads, chunk, ..SweepOptions::default() });
                    assert_eq!(sweep.points.len(), 36);
                    for (i, p) in sweep.points.iter().enumerate() {
                        let ctx = format!("{} threads={threads} chunk={chunk} point {i}", w.name);
                        assert_eq!(p.index, i, "{ctx}");
                        assert_eq!(p.machine, space.machines()[i].name, "{ctx}");
                        assert_eq!(p.total.to_bits(), sweep.columns().unwrap().total(i).to_bits(), "{ctx}");
                        assert_eq!((p.top_unit, p.memory_bound), post_hoc(&sweep, i), "{ctx}");
                        summaries.insert((p.top_unit.expect("projected time"), p.memory_bound));
                    }
                }
            }
            let bounds: std::collections::BTreeSet<bool> = summaries.iter().map(|s| s.1).collect();
            assert_eq!(bounds.len(), 2, "{}: the grid must cover both bottlenecks", w.name);
            if w.name == "SRAD" {
                let tops: std::collections::BTreeSet<StmtId> = summaries.iter().map(|s| s.0).collect();
                assert!(tops.len() >= 2, "SRAD's top unit must move across the grid: {tops:?}");
            }
        }
    }

    #[test]
    fn ranked_table_matches_the_full_deltas() {
        let app = cfd_app();
        let space = DesignSpace::grid(bgq(), vec![Axis::dram_bw(&[1.0, 10.0, 100.0]), Axis::mlp(&[1.0, 8.0, 64.0])]);
        let sweep = sweep(&space, &app, 2);
        let deltas = sweep.deltas();
        let mut expect = String::new();
        write_sweep_header(&mut expect);
        for p in sweep.top(4) {
            write_sweep_row(&mut expect, p, &deltas[p.index], &app.units);
        }
        assert_eq!(format_sweep_ranked(&sweep, &app.units, 4), expect);
        assert!(deltas.iter().any(|d| d.ranking_changed || d.bottleneck_flipped), "the grid must move the bottleneck");
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
