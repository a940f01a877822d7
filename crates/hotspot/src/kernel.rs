//! Batched structure-of-arrays evaluation kernel (phase 2, fast path).
//!
//! [`crate::ProjectionPlan::evaluate`] walks an AoS `Vec<PlanBlock>` and
//! calls the performance model through a trait object per block — fine for
//! one machine, wasteful for a design-space sweep that re-evaluates the
//! same plan on hundreds of candidate machines. [`PlanKernel`] re-lays the
//! plan out once into parallel columns (flops, iops, accesses, bytes, ENR,
//! thread caps, δ) so the per-machine inner loop streams flat `f64` arrays
//! with no pointer chasing and no virtual dispatch, using the constants a
//! [`MachineSpec`] pre-resolves per machine.
//!
//! Sweeps evaluate [`lane_width`] machines per pass into a columnar
//! [`ProjectionColumns`] arena, in place through its fill targets
//! ([`PlanKernel::fill_columns`], or [`PlanKernel::evaluate_columns`] for
//! a whole machine list at once); [`PlanKernel::evaluate_spec`] is the one
//! per-point path, which hydrates a single point and replays degenerate
//! lanes.
//!
//! Bit-identity contract: every path accumulates in exactly the order of
//! [`crate::ProjectionPlan::evaluate`], with each block time computed by
//! [`MachineSpec::block_time`] (itself bit-identical to
//! `Roofline.project_block`), so every `f64` of the resulting
//! [`Projection`] or arena row matches the scalar path to the bit.

use serde::{Deserialize, Serialize};
use xflow_hw::{BlockMetrics, MachineSpec};
use xflow_skeleton::StmtId;

use crate::analysis::{NodeCost, Projection, StmtCosts};
use crate::columns::{ColumnsTarget, ProjectionColumns};
use crate::plan::ProjectionPlan;

/// Column sentinel for "block aggregates into no statement".
const NO_STMT: u32 = u32::MAX;

/// Machines evaluated per pass by the columnar fill: portable `[f64; 4]`
/// lanes the autovectorizer lowers to packed ops.
const LANES: usize = 4;

/// Number of machines evaluated per pass by the columnar fill.
pub fn lane_width() -> usize {
    LANES
}

/// Structure-of-arrays compilation of a [`ProjectionPlan`], built once and
/// evaluated per machine list via [`PlanKernel::evaluate_columns`] or per
/// single machine via [`PlanKernel::evaluate_spec`].
#[derive(Debug, Clone)]
pub struct PlanKernel {
    /// BET arena index of each block (`PlanBlock::node`).
    node: Vec<u32>,
    /// Statement each block aggregates into, or [`NO_STMT`].
    stmt: Vec<u32>,
    /// Per-invocation floating point operations.
    flops: Vec<f64>,
    /// Per-invocation fixed point operations.
    iops: Vec<f64>,
    /// Per-invocation memory accesses (`loads + stores`).
    accesses: Vec<f64>,
    /// Per-invocation bytes touched (`accesses × elem_bytes`).
    bytes: Vec<f64>,
    /// Expected number of repetitions of each block.
    enr: Vec<f64>,
    /// Thread cap: available parallelism, or 1.0 for non-parallelizable
    /// blocks (library calls). `cap.min(cores).max(1.0)` reproduces
    /// `BlockSummary::threads_on` bit-exactly for every core count.
    thread_cap: Vec<f64>,
    /// Precomputed overlap fraction δ = 1 − 1/max(1, flops).
    delta: Vec<f64>,
    /// Metrics charged to the statement aggregate (read only by
    /// [`PlanKernel::evaluate_spec`]).
    stmt_metrics: Vec<BlockMetrics>,
    /// Predicted statement participation per block: `flops > 0 ∨ iops > 0 ∨
    /// accesses > 0`, which is `time.total > 0` on every non-degenerate
    /// machine. The lane loop checks the prediction per lane; a lane that
    /// diverges (underflow, infinite frequency, …) replays through
    /// [`PlanKernel::evaluate_spec`].
    stmt_participates: Vec<bool>,
    /// Whether each block is the first (in plan order) predicted-active
    /// block of its statement. First-touch blocks *assign* the statement's
    /// lane accumulators instead of accumulating — bit-identical because
    /// every accumulated term is `≥ +0.0`, so `0.0 + x` is exactly `x` —
    /// so the accumulators never need rezeroing between lane groups.
    first_touch: Vec<bool>,
    /// Statement IDs of the predicted-participating statements, in
    /// first-touch order: the rows a predicted lane writes back.
    pre_touched: Vec<u32>,
    /// ENR of every BET node, for sizing/seeding `node_costs`.
    node_enr: Vec<f64>,
    /// Upper bound on statement IDs.
    stmt_bound: usize,
    /// Library functions with no registered mix, in first-seen order.
    unknown_libs: Vec<String>,
    /// Content fingerprint of the columns; a [`ProjectionColumns`] arena
    /// is filled and hydrated only by the kernel it was built from.
    fingerprint: u64,
    /// Statement-slot maps for columnar arenas, derived from `stmt` on
    /// first use and shared into every [`ProjectionColumns`] by reference
    /// count (not serialized — rebuilt lazily after deserialization).
    slot_layout: std::sync::OnceLock<std::sync::Arc<crate::columns::SlotLayout>>,
}

impl PlanKernel {
    /// Compile the SoA columns from a plan. Pure data movement — every
    /// derived column (`accesses`, `bytes`, `delta`, `thread_cap`) uses
    /// the exact expression the scalar path computes per call.
    pub fn new(plan: &ProjectionPlan) -> Self {
        let blocks = plan.blocks();
        let n = blocks.len();
        let mut kernel = Self {
            node: Vec::with_capacity(n),
            stmt: Vec::with_capacity(n),
            flops: Vec::with_capacity(n),
            iops: Vec::with_capacity(n),
            accesses: Vec::with_capacity(n),
            bytes: Vec::with_capacity(n),
            enr: Vec::with_capacity(n),
            thread_cap: Vec::with_capacity(n),
            delta: Vec::with_capacity(n),
            stmt_metrics: Vec::with_capacity(n),
            stmt_participates: Vec::with_capacity(n),
            first_touch: Vec::with_capacity(n),
            pre_touched: Vec::new(),
            node_enr: plan.enr().to_vec(),
            stmt_bound: plan.stmt_bound(),
            unknown_libs: plan.unknown_libs().to_vec(),
            fingerprint: 0,
            slot_layout: std::sync::OnceLock::new(),
        };
        for block in blocks {
            let m = &block.summary.metrics;
            kernel.node.push(block.node);
            kernel.stmt.push(block.stmt.map(|s| s.0).unwrap_or(NO_STMT));
            kernel.flops.push(m.flops);
            kernel.iops.push(m.iops);
            kernel.accesses.push(m.accesses());
            kernel.bytes.push(m.bytes());
            kernel.enr.push(block.summary.enr);
            kernel.thread_cap.push(if block.summary.parallelizable { block.summary.avail_par } else { 1.0 });
            kernel.delta.push(MachineSpec::delta_of(m.flops));
            kernel.stmt_metrics.push(block.stmt_metrics);
        }
        // Predicted participation, plus the first-touch flags and final
        // presence set it implies (what the lane loop's writes produce when
        // the prediction holds).
        for i in 0..kernel.node.len() {
            let p = kernel.flops[i] > 0.0 || kernel.iops[i] > 0.0 || kernel.accesses[i] > 0.0;
            kernel.stmt_participates.push(p);
            let stmt = kernel.stmt[i];
            let first = stmt != NO_STMT && p && !kernel.pre_touched.contains(&stmt);
            if first {
                kernel.pre_touched.push(stmt);
            }
            kernel.first_touch.push(first);
        }
        kernel.fingerprint = kernel.content_fingerprint();
        kernel
    }

    /// Number of cost-carrying blocks.
    pub fn len(&self) -> usize {
        self.node.len()
    }

    /// True when the plan carries no cost blocks.
    pub fn is_empty(&self) -> bool {
        self.node.is_empty()
    }

    /// Content fingerprint of the columns (ties a [`ProjectionColumns`]
    /// arena to a kernel).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The statement-slot maps for columnar arenas, built once per kernel
    /// and shared by reference count.
    pub(crate) fn slot_layout(&self) -> &std::sync::Arc<crate::columns::SlotLayout> {
        self.slot_layout.get_or_init(|| {
            std::sync::Arc::new(crate::columns::SlotLayout::build(&self.stmt, self.stmt_bound, &self.pre_touched))
        })
    }

    /// FNV-1a over every column, so two kernels compare equal iff every
    /// evaluation-relevant bit matches.
    fn content_fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&(self.node.len() as u64).to_le_bytes());
        for &v in &self.node {
            eat(&v.to_le_bytes());
        }
        for &v in &self.stmt {
            eat(&v.to_le_bytes());
        }
        for col in [&self.flops, &self.iops, &self.accesses, &self.bytes, &self.enr, &self.thread_cap, &self.delta] {
            for &v in col {
                eat(&v.to_bits().to_le_bytes());
            }
        }
        eat(&(self.node_enr.len() as u64).to_le_bytes());
        for &v in &self.node_enr {
            eat(&v.to_bits().to_le_bytes());
        }
        eat(&(self.stmt_bound as u64).to_le_bytes());
        for name in &self.unknown_libs {
            eat(name.as_bytes());
            eat(&[0xff]);
        }
        h
    }

    /// Evaluate on one pre-resolved machine and materialize the full
    /// [`Projection`] — the per-point path behind
    /// [`ProjectionColumns::hydrate`] and the replay of degenerate lanes.
    /// Same loop and accumulation order as [`ProjectionPlan::evaluate`], so
    /// the result is bit-identical to it with the model the spec came from.
    pub fn evaluate_spec(&self, spec: &MachineSpec) -> Projection {
        let mut node_costs: Vec<NodeCost> =
            self.node_enr.iter().map(|&enr| NodeCost { per_invocation: Default::default(), enr, total: 0.0 }).collect();
        let mut per_stmt = StmtCosts::with_stmt_capacity(self.stmt_bound);
        let mut total_time = 0.0;
        for i in 0..self.node.len() {
            let time = spec.block_time(
                self.flops[i],
                self.iops[i],
                self.accesses[i],
                self.bytes[i],
                self.thread_cap[i],
                self.delta[i],
            );
            let e = self.enr[i];
            let total = time.total * e;
            total_time += total;
            node_costs[self.node[i] as usize] = NodeCost { per_invocation: time, enr: e, total };
            let stmt = self.stmt[i];
            if stmt != NO_STMT && time.total > 0.0 {
                let s = per_stmt.entry_mut(StmtId(stmt));
                s.total += total;
                s.tc += time.tc * e;
                s.tm += time.tm * e;
                s.overlap += time.overlap * e;
                s.metrics.add_scaled(&self.stmt_metrics[i], e);
            }
        }
        Projection { node_costs, per_stmt, total_time, unknown_libs: self.unknown_libs.clone() }
    }

    /// Columnar batch evaluation: evaluate every spec and return the dense
    /// [`ProjectionColumns`] arena — no per-point `Projection`
    /// materialization. The whole arena is filled in place as one
    /// [`ColumnsTarget`] by [`PlanKernel::fill_columns`].
    pub fn evaluate_columns(&self, specs: &[MachineSpec]) -> ProjectionColumns {
        let mut cols = ProjectionColumns::new(self, specs.to_vec());
        for mut target in cols.split_targets(specs.len().max(1)) {
            self.fill_columns(&mut target);
        }
        cols
    }

    /// Evaluate every point of `target` and write its rows in place — the
    /// sweep scheduler's unit of work: each pool chunk fills one of the
    /// disjoint targets of [`ProjectionColumns::split_targets`].
    ///
    /// Groups of [`lane_width`] machines run through the lane-packed
    /// [`xflow_hw::SpecLanes`] loop (a short tail group pads its spare
    /// lanes); any lane whose machine turns out degenerate (observed block
    /// participation diverging from the prediction, e.g. underflowed or
    /// infinite times) replays through [`PlanKernel::evaluate_spec`],
    /// which is the bit-exact oracle by construction.
    ///
    /// # Panics
    /// If the target's arena was built from a different kernel.
    // lane loops are written `for w in 0..W` even where an iterator would
    // do: the fixed-width indexed form matches `lanes.rs` and is what the
    // autovectorizer reliably lowers to packed ops
    #[allow(clippy::needless_range_loop)]
    pub fn fill_columns(&self, target: &mut ColumnsTarget<'_>) {
        assert_eq!(target.fingerprint, self.fingerprint, "columns arena built from a foreign kernel");
        const W: usize = LANES;
        let len = target.len;
        let k = target.slots;
        let maps = target.maps;
        /// Per-slot lane accumulator, fused so one slot touch hits one
        /// contiguous struct instead of four scattered vectors.
        #[derive(Clone, Copy)]
        struct LaneAcc {
            total: [f64; W],
            tc: [f64; W],
            tm: [f64; W],
            ov: [f64; W],
        }
        // Lane accumulators. Never rezeroed between groups: the
        // first-touch column assigns (not adds) each slot's first
        // contribution, so stale lanes from the previous group are
        // overwritten before they are read. Slots outside `pre_touched` are never written nor read.
        let mut st = vec![LaneAcc { total: [0.0; W], tc: [0.0; W], tm: [0.0; W], ov: [0.0; W] }; k];
        // slot index of every predicted-participating statement —
        // writeback touches only these rows (the rest of the arena row
        // is pre-zeroed)
        let touched = &maps.touched;

        let n = self.node.len();
        let stmt_col = &self.stmt[..n];
        let (flops, iops) = (&self.flops[..n], &self.iops[..n]);
        let (accesses, bytes) = (&self.accesses[..n], &self.bytes[..n]);
        let (enr, thread_cap, delta) = (&self.enr[..n], &self.thread_cap[..n], &self.delta[..n]);
        let participates = &self.stmt_participates[..n];
        let first_touch = &self.first_touch[..n];
        let block_slot = &maps.block_slot[..n];

        let mut rel = 0usize;
        while rel < len {
            // the tail group pads its trailing lanes with copies of the
            // window's first spec: full lane arithmetic, writeback only
            // of the `valid` real lanes
            let valid = (len - rel).min(W);
            let window = &target.specs[rel..rel + valid];
            let lanes = if valid == W {
                xflow_hw::SpecLanes::<W>::pack(window)
            } else {
                let mut padded = [window[0]; W];
                padded[..valid].copy_from_slice(window);
                xflow_hw::SpecLanes::<W>::pack(&padded)
            };
            let mut acc_total = [0.0f64; W];
            let mut acc_tc = [0.0f64; W];
            let mut acc_tm = [0.0f64; W];
            let mut acc_ov = [0.0f64; W];
            let mut pred = [true; W];

            for i in 0..n {
                let t = lanes.block_time(flops[i], iops[i], accesses[i], bytes[i], thread_cap[i], delta[i]);
                let e = enr[i];
                for w in 0..W {
                    acc_total[w] += t.total[w] * e;
                }
                for w in 0..W {
                    acc_tc[w] += t.tc[w] * e;
                }
                for w in 0..W {
                    acc_tm[w] += t.tm[w] * e;
                }
                for w in 0..W {
                    acc_ov[w] += t.overlap[w] * e;
                }
                if stmt_col[i] != NO_STMT {
                    let p = participates[i];
                    let mut uniform = true;
                    let mut active = [false; W];
                    for w in 0..W {
                        active[w] = t.total[w] > 0.0;
                        uniform &= active[w] == p;
                    }
                    if uniform {
                        // every lane matches the prediction: one branch
                        // for the whole group, branch-free lane writes
                        if p {
                            let a = &mut st[block_slot[i] as usize];
                            if first_touch[i] {
                                for w in 0..W {
                                    a.total[w] = t.total[w] * e;
                                }
                                for w in 0..W {
                                    a.tc[w] = t.tc[w] * e;
                                }
                                for w in 0..W {
                                    a.tm[w] = t.tm[w] * e;
                                }
                                for w in 0..W {
                                    a.ov[w] = t.overlap[w] * e;
                                }
                            } else {
                                for w in 0..W {
                                    a.total[w] += t.total[w] * e;
                                }
                                for w in 0..W {
                                    a.tc[w] += t.tc[w] * e;
                                }
                                for w in 0..W {
                                    a.tm[w] += t.tm[w] * e;
                                }
                                for w in 0..W {
                                    a.ov[w] += t.overlap[w] * e;
                                }
                            }
                        }
                    } else {
                        // some lane diverged from the prediction
                        // (degenerate machine): fold the mismatch into
                        // `pred` and keep the surviving lanes exact
                        let a = &mut st[block_slot[i] as usize];
                        for w in 0..W {
                            pred[w] &= active[w] == p;
                            if active[w] {
                                if first_touch[i] {
                                    a.total[w] = t.total[w] * e;
                                    a.tc[w] = t.tc[w] * e;
                                    a.tm[w] = t.tm[w] * e;
                                    a.ov[w] = t.overlap[w] * e;
                                } else {
                                    a.total[w] += t.total[w] * e;
                                    a.tc[w] += t.tc[w] * e;
                                    a.tm[w] += t.tm[w] * e;
                                    a.ov[w] += t.overlap[w] * e;
                                }
                            }
                        }
                    }
                }
            }

            for w in 0..valid {
                let r = rel + w;
                if pred[w] {
                    target.total[r] = acc_total[w];
                    target.tc[r] = acc_tc[w];
                    target.tm[r] = acc_tm[w];
                    target.overlap[r] = acc_ov[w];
                    target.delta[r] = crate::columns::achieved_delta(acc_tc[w], acc_tm[w], acc_ov[w]);
                    target.memory_bound[r] = acc_tm[w] > acc_tc[w];
                    // predicted participation held: presence is the
                    // precomputed set
                    let base = r * k;
                    for &slot in touched {
                        let s = slot as usize;
                        let a = &st[s];
                        target.stmt_total[base + s] = a.total[w];
                        target.stmt_tc[base + s] = a.tc[w];
                        target.stmt_tm[base + s] = a.tm[w];
                        target.stmt_overlap[base + s] = a.ov[w];
                        target.stmt_present[base + s] = true;
                    }
                } else {
                    // degenerate lane: replay through the scalar oracle
                    let p = self.evaluate_spec(&target.specs[r]);
                    target.fill_from_projection(r, &maps.slot_of, &p);
                }
            }
            rel += valid;
        }
    }
}

/// Hand-written serde impls (the vendored derive has no `#[serde(skip)]`):
/// the wire shape is exactly what the derive produced before the lazily
/// built `slot_layout` cache existed — every persisted field, by name —
/// and deserialization leaves the cache empty to be rebuilt on first use.
macro_rules! kernel_persisted_fields {
    ($m:ident) => {
        $m!(
            node,
            stmt,
            flops,
            iops,
            accesses,
            bytes,
            enr,
            thread_cap,
            delta,
            stmt_metrics,
            stmt_participates,
            first_touch,
            pre_touched,
            node_enr,
            stmt_bound,
            unknown_libs,
            fingerprint
        )
    };
}

impl Serialize for PlanKernel {
    fn serialize(&self) -> serde::Content {
        macro_rules! entries {
            ($($f:ident),*) => {
                vec![$((serde::Content::Str(stringify!($f).to_string()), Serialize::serialize(&self.$f))),*]
            };
        }
        serde::Content::Map(kernel_persisted_fields!(entries))
    }
}

impl Deserialize for PlanKernel {
    fn deserialize(content: &serde::Content) -> Result<Self, serde::Error> {
        match content {
            serde::Content::Map(entries) => {
                macro_rules! build {
                    ($($f:ident),*) => {
                        Ok(Self {
                            $($f: serde::field(entries, stringify!($f))?,)*
                            slot_layout: std::sync::OnceLock::new(),
                        })
                    };
                }
                kernel_persisted_fields!(build)
            }
            _ => Err(serde::Error("expected map for struct PlanKernel".to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xflow_bet::{build, Bet};
    use xflow_hw::{bgq, generic, knl, xeon, LibraryRegistry, PerfModel, Roofline};
    use xflow_skeleton::expr::env_from;
    use xflow_skeleton::parse;

    const SRC: &str = r#"
func main() {
  @init: comp { flops: 10, loads: 4 }
  parloop i = 0 .. 200 {
    @kern: comp { flops: 64, loads: 16, stores: 8, bytes: 8 }
    lib exp(4)
    lib mystery(2)
  }
  lib mystery(1)
}
"#;

    fn bet_for(src: &str) -> Bet {
        let prog = parse(src).unwrap();
        build(&prog, &env_from(std::iter::empty::<(&str, f64)>())).unwrap()
    }

    fn assert_projection_bits(fast: &Projection, slow: &Projection) {
        assert_eq!(fast.total_time.to_bits(), slow.total_time.to_bits());
        assert_eq!(fast.node_costs.len(), slow.node_costs.len());
        for (f, s) in fast.node_costs.iter().zip(&slow.node_costs) {
            assert_eq!(f.total.to_bits(), s.total.to_bits());
            assert_eq!(f.enr.to_bits(), s.enr.to_bits());
            assert_eq!(f.per_invocation.tc.to_bits(), s.per_invocation.tc.to_bits());
            assert_eq!(f.per_invocation.tm.to_bits(), s.per_invocation.tm.to_bits());
            assert_eq!(f.per_invocation.overlap.to_bits(), s.per_invocation.overlap.to_bits());
            assert_eq!(f.per_invocation.total.to_bits(), s.per_invocation.total.to_bits());
        }
        assert_eq!(fast.per_stmt.len(), slow.per_stmt.len());
        for (stmt, sc) in slow.per_stmt.iter() {
            let fc = fast.per_stmt[&stmt];
            assert_eq!(fc.total.to_bits(), sc.total.to_bits());
            assert_eq!(fc.tc.to_bits(), sc.tc.to_bits());
            assert_eq!(fc.tm.to_bits(), sc.tm.to_bits());
            assert_eq!(fc.overlap.to_bits(), sc.overlap.to_bits());
            assert_eq!(fc.metrics.flops.to_bits(), sc.metrics.flops.to_bits());
            assert_eq!(fc.metrics.elem_bytes.to_bits(), sc.metrics.elem_bytes.to_bits());
        }
        assert_eq!(fast.unknown_libs, slow.unknown_libs);
    }

    #[test]
    fn kernel_evaluation_is_bit_identical_to_scalar_evaluate() {
        let bet = bet_for(SRC);
        let plan = ProjectionPlan::new(&bet, &LibraryRegistry::with_defaults());
        let kernel = plan.kernel();
        for machine in [bgq(), xeon(), knl(), generic()] {
            let reference = plan.evaluate(&machine, &Roofline);
            let spec = Roofline.specialize(&machine).unwrap();
            assert_projection_bits(&kernel.evaluate_spec(&spec), &reference);
        }
    }

    #[test]
    fn columns_match_scalar_evaluate_row_for_row() {
        let bet = bet_for(SRC);
        let plan = ProjectionPlan::new(&bet, &LibraryRegistry::with_defaults());
        let kernel = plan.kernel();
        let machines = [bgq(), xeon(), knl(), generic(), bgq(), xeon(), knl()]; // 7: lane remainder of 3
        let specs: Vec<MachineSpec> = machines.iter().map(MachineSpec::resolve).collect();
        let cols = kernel.evaluate_columns(&specs);
        assert_eq!(cols.points(), machines.len());
        for (i, machine) in machines.iter().enumerate() {
            let scalar = plan.evaluate(machine, &Roofline);
            assert_eq!(cols.total(i).to_bits(), scalar.total_time.to_bits(), "total point {i}");
            // block-level aggregates match the node-cost sums
            let (tc, tm, ov) = cols.block_totals(i);
            let (mut stc, mut stm, mut sov) = (0.0, 0.0, 0.0);
            for nc in &scalar.node_costs {
                stc += nc.per_invocation.tc * nc.enr;
                stm += nc.per_invocation.tm * nc.enr;
                sov += nc.per_invocation.overlap * nc.enr;
            }
            assert_eq!(tc.to_bits(), stc.to_bits(), "tc point {i}");
            assert_eq!(tm.to_bits(), stm.to_bits(), "tm point {i}");
            assert_eq!(ov.to_bits(), sov.to_bits(), "overlap point {i}");
            // per-statement rows mirror the scalar per-statement table
            let row: Vec<_> = cols.stmt_row(i).collect();
            assert_eq!(row.len(), scalar.per_stmt.len(), "row arity point {i}");
            for sc in row {
                let reference = scalar.per_stmt[&sc.stmt];
                assert_eq!(sc.total.to_bits(), reference.total.to_bits(), "{:?} total point {i}", sc.stmt);
                assert_eq!(sc.tc.to_bits(), reference.tc.to_bits(), "{:?} tc point {i}", sc.stmt);
                assert_eq!(sc.tm.to_bits(), reference.tm.to_bits(), "{:?} tm point {i}", sc.stmt);
                assert_eq!(sc.overlap.to_bits(), reference.overlap.to_bits(), "{:?} overlap point {i}", sc.stmt);
            }
            // hydration reproduces the full projection bit-for-bit
            assert_projection_bits(&cols.hydrate(&kernel, i), &scalar);
        }
    }

    #[test]
    fn columns_chunked_fill_matches_one_shot_fill() {
        let bet = bet_for(SRC);
        let plan = ProjectionPlan::new(&bet, &LibraryRegistry::with_defaults());
        let kernel = plan.kernel();
        let machines = [bgq(), xeon(), knl(), generic(), bgq(), xeon(), knl(), generic(), bgq()];
        let specs: Vec<MachineSpec> = machines.iter().map(MachineSpec::resolve).collect();
        let whole = kernel.evaluate_columns(&specs);
        for split in [1, 2, 3, 4, 5, 8] {
            let mut cols = ProjectionColumns::new(&kernel, specs.clone());
            let mut targets = cols.split_targets(split);
            assert_eq!(targets.len(), specs.len().div_ceil(split));
            // fill back to front: no target depends on another's rows
            for target in targets.iter_mut().rev() {
                kernel.fill_columns(target);
            }
            drop(targets);
            for i in 0..specs.len() {
                assert_eq!(cols.total(i).to_bits(), whole.total(i).to_bits(), "split {split} point {i}");
                assert_eq!(cols.memory_bound(i), whole.memory_bound(i), "split {split} point {i}");
                assert_eq!(cols.delta(i).to_bits(), whole.delta(i).to_bits(), "split {split} point {i}");
                let a: Vec<_> = cols.stmt_row(i).map(|s| (s.slot, s.total.to_bits())).collect();
                let b: Vec<_> = whole.stmt_row(i).map(|s| (s.slot, s.total.to_bits())).collect();
                assert_eq!(a, b, "split {split} point {i}");
            }
        }
    }

    #[test]
    fn degenerate_machine_takes_the_replay_path_and_stays_exact() {
        let bet = bet_for(SRC);
        let plan = ProjectionPlan::new(&bet, &LibraryRegistry::with_defaults());
        let kernel = plan.kernel();
        // an infinite-frequency machine underflows every cycle time: the
        // participation prediction fails and the lane falls back to the
        // scalar replay — inside a full lane group on purpose
        let mut inf = generic();
        inf.freq_ghz = f64::INFINITY;
        let machines = [bgq(), inf.clone(), xeon(), knl(), inf];
        let specs: Vec<MachineSpec> = machines.iter().map(MachineSpec::resolve).collect();
        let cols = kernel.evaluate_columns(&specs);
        for (i, machine) in machines.iter().enumerate() {
            let scalar = plan.evaluate(machine, &Roofline);
            assert_eq!(cols.total(i).to_bits(), scalar.total_time.to_bits(), "total point {i}");
            let row: Vec<_> = cols.stmt_row(i).collect();
            assert_eq!(row.len(), scalar.per_stmt.len(), "row arity point {i}");
            for sc in row {
                assert_eq!(sc.total.to_bits(), scalar.per_stmt[&sc.stmt].total.to_bits(), "point {i}");
            }
            assert_projection_bits(&cols.hydrate(&kernel, i), &scalar);
        }
    }

    #[test]
    fn columns_top_k_ranks_by_total_with_stable_ties() {
        let bet = bet_for(SRC);
        let plan = ProjectionPlan::new(&bet, &LibraryRegistry::with_defaults());
        let kernel = plan.kernel();
        // duplicates guarantee ties; ties must keep point order
        let machines = [xeon(), bgq(), xeon(), generic()];
        let specs: Vec<MachineSpec> = machines.iter().map(MachineSpec::resolve).collect();
        let cols = kernel.evaluate_columns(&specs);
        let ranked = cols.top_k(machines.len());
        for w in ranked.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert!(
                cols.total(a) < cols.total(b) || (cols.total(a) == cols.total(b) && a < b),
                "ranking violated: {a} before {b}"
            );
        }
        assert_eq!(cols.top_k(2).len(), 2);
        assert_eq!(lane_width(), 4);
    }

    #[test]
    fn kernel_round_trips_through_serde() {
        let plan = ProjectionPlan::new(&bet_for(SRC), &LibraryRegistry::with_defaults());
        let kernel = plan.kernel();
        let json = serde_json::to_string(&kernel).unwrap();
        let back: PlanKernel = serde_json::from_str(&json).unwrap();
        assert_eq!(back.fingerprint(), kernel.fingerprint());
        assert_eq!(back.len(), kernel.len());
        let spec = Roofline.specialize(&xeon()).unwrap();
        assert_projection_bits(&back.evaluate_spec(&spec), &plan.evaluate(&xeon(), &Roofline));
    }
}
