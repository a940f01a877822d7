//! Columnar (structure-of-arrays) sweep output.
//!
//! A design-space sweep used to materialize a full [`Projection`] per
//! point — a `node_costs` clone plus a per-statement table clone per
//! machine — which dominated the per-point cost once the evaluation
//! itself went through the batched kernel. [`ProjectionColumns`] is the
//! columnar replacement: one arena per sweep holding, for every point,
//! the total time, the block-level Tc/Tm/To aggregates, the achieved
//! overlap fraction δ, the compute-vs-memory verdict, and a dense
//! per-(point × statement) cost matrix. Nothing is heap-allocated per
//! point, and a full [`Projection`] is *hydrated* lazily — only when a
//! caller drills into one specific point.
//!
//! The arena is two allocations: one `f64` buffer holding the five
//! per-point columns followed by the four row-major `[point][slot]`
//! statement matrices, and one `bool` buffer holding the verdict column
//! and the presence matrix. The statement-slot maps (`SlotLayout`)
//! depend only on the kernel, so they are computed once per kernel and
//! shared into every arena by reference count.
//!
//! Hydration is re-evaluation: [`ProjectionColumns::hydrate`] re-runs
//! [`PlanKernel::evaluate_spec`] for the stored [`MachineSpec`] of that
//! point. By the kernel's bit-identity contract this reproduces exactly
//! the projection [`crate::ProjectionPlan::evaluate`] returns, at roughly
//! the cost of one kernel evaluation — far cheaper than having cloned
//! every point's projection up front on the off chance someone asks.
//!
//! Filling is in place: [`ProjectionColumns::split_targets`] carves the
//! arena into [`ColumnsTarget`]s over disjoint, consecutive point ranges,
//! and [`crate::PlanKernel::fill_columns`] writes each target's rows
//! straight into the arena. A parallel sweep hands one target to each
//! pool chunk; the serial [`crate::PlanKernel::evaluate_columns`] fills a
//! single target covering every point. Every row is written by exactly
//! one target, so the output is independent of how the ranges were
//! scheduled.

use std::sync::Arc;

use xflow_hw::MachineSpec;
use xflow_skeleton::StmtId;

use crate::analysis::Projection;
use crate::kernel::PlanKernel;

/// Sentinel slot index for "block aggregates into no statement".
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Statement-slot maps of one kernel: which statements carry cost blocks,
/// their dense column order, and per-block slot targets. Depends only on
/// the kernel's statement column, so it is built once per kernel
/// ([`PlanKernel::slot_layout`]) and shared by every arena.
#[derive(Debug, Default)]
pub(crate) struct SlotLayout {
    /// Statement IDs with at least one cost block, ascending — the column
    /// slots of the dense per-point statement matrix.
    pub(crate) slots: Vec<u32>,
    /// Statement ID → slot index ([`NO_SLOT`] when the statement carries
    /// no cost blocks), dense over the kernel's statement bound.
    pub(crate) slot_of: Vec<u32>,
    /// Kernel block index → slot index ([`NO_SLOT`] for blocks that
    /// aggregate into no statement).
    pub(crate) block_slot: Vec<u32>,
    /// Slot index of every predicted-participating statement, in
    /// first-touch order — the rows a predicted lane writes back.
    pub(crate) touched: Vec<u32>,
}

impl SlotLayout {
    /// Build the maps from a kernel's statement column.
    pub(crate) fn build(stmt_col: &[u32], stmt_bound: usize, pre_touched: &[u32]) -> Self {
        let mut slot_of = vec![NO_SLOT; stmt_bound];
        let mut slots: Vec<u32> = stmt_col.iter().copied().filter(|&s| s != u32::MAX).collect();
        slots.sort_unstable();
        slots.dedup();
        for (idx, &stmt) in slots.iter().enumerate() {
            slot_of[stmt as usize] = idx as u32;
        }
        let block_slot = stmt_col.iter().map(|&s| if s == u32::MAX { NO_SLOT } else { slot_of[s as usize] }).collect();
        let touched = pre_touched.iter().map(|&s| slot_of[s as usize]).collect();
        Self { slots, slot_of, block_slot, touched }
    }
}

/// One statement-slot entry of a point's dense cost row.
#[derive(Debug, Clone, Copy)]
pub struct SlotCost {
    /// Column slot index (position in [`ProjectionColumns::stmt_ids`]).
    pub slot: usize,
    /// The statement this slot aggregates.
    pub stmt: StmtId,
    /// Total projected seconds.
    pub total: f64,
    /// ENR-weighted computation seconds.
    pub tc: f64,
    /// ENR-weighted memory seconds.
    pub tm: f64,
    /// ENR-weighted overlapped seconds.
    pub overlap: f64,
}

/// Dense per-point sweep results in structure-of-arrays layout.
///
/// Built zeroed by [`ProjectionColumns::new`] from the kernel whose plan
/// the sweep evaluates, then filled in place through the
/// [`ColumnsTarget`]s of [`ProjectionColumns::split_targets`] (or in one
/// call by [`crate::PlanKernel::evaluate_columns`]). Every stored value is
/// bit-identical to what the scalar evaluator produces for that point —
/// the per-statement rows match the hydrated projection's `per_stmt`
/// table and the totals match its `total_time`, `to_bits` for `to_bits`.
#[derive(Debug, Clone)]
pub struct ProjectionColumns {
    /// Shared slot maps of the kernel the arena was built from.
    layout: Arc<SlotLayout>,
    /// Number of points (== `specs.len()`).
    n: usize,
    /// `[total n][tc n][tm n][overlap n][delta n]` followed by the four
    /// row-major `[point][slot]` statement matrices
    /// `[stmt_total nk][stmt_tc nk][stmt_tm nk][stmt_overlap nk]`.
    data: Vec<f64>,
    /// `[memory_bound n][stmt_present nk]`.
    flags: Vec<bool>,
    /// The machine spec of every point, retained for lazy hydration.
    specs: Vec<MachineSpec>,
    /// Fingerprint of the kernel the layout was built from; hydration and
    /// filling check it so a columns arena is never mixed with a foreign
    /// kernel.
    fingerprint: u64,
}

impl ProjectionColumns {
    /// Zeroed arena for evaluating `specs` against `kernel`'s plan.
    pub fn new(kernel: &PlanKernel, specs: Vec<MachineSpec>) -> Self {
        let layout = Arc::clone(kernel.slot_layout());
        let n = specs.len();
        let k = layout.slots.len();
        Self {
            layout,
            n,
            data: vec![0.0; n * 5 + n * k * 4],
            flags: vec![false; n + n * k],
            specs,
            fingerprint: kernel.fingerprint(),
        }
    }

    /// Number of sweep points.
    pub fn points(&self) -> usize {
        self.n
    }

    /// True when the arena holds no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of statement slots per point row.
    pub fn slot_count(&self) -> usize {
        self.layout.slots.len()
    }

    /// Statement ID of a column slot.
    pub fn stmt_of_slot(&self, slot: usize) -> StmtId {
        StmtId(self.layout.slots[slot])
    }

    /// Statement IDs of the column slots, ascending.
    pub fn stmt_ids(&self) -> impl Iterator<Item = StmtId> + '_ {
        self.layout.slots.iter().map(|&s| StmtId(s))
    }

    /// The machine specs, in point order.
    pub fn specs(&self) -> &[MachineSpec] {
        &self.specs
    }

    /// Total projected seconds per point, as a dense column.
    pub fn totals(&self) -> &[f64] {
        &self.data[..self.n]
    }

    /// Total projected seconds of one point (bit-identical to the
    /// hydrated projection's `total_time`).
    pub fn total(&self, i: usize) -> f64 {
        self.data[i]
    }

    /// Block-level `(Tc, Tm, To)` aggregates of one point.
    pub fn block_totals(&self, i: usize) -> (f64, f64, f64) {
        let n = self.n;
        (self.data[n + i], self.data[2 * n + i], self.data[3 * n + i])
    }

    /// Achieved overlap fraction `To / min(Tc, Tm)` of one point.
    pub fn delta(&self, i: usize) -> f64 {
        self.data[4 * self.n + i]
    }

    /// Whether a point is memory-bound at the block-aggregate level.
    pub fn memory_bound(&self, i: usize) -> bool {
        self.flags[i]
    }

    /// Iterate the present statement slots of one point row.
    pub fn stmt_row(&self, i: usize) -> impl Iterator<Item = SlotCost> + '_ {
        let (n, k) = (self.n, self.slot_count());
        let row = i * k..(i + 1) * k;
        let mat = |m: usize| &self.data[5 * n + m * n * k..][row.clone()];
        dense_row(&self.layout.slots, &self.flags[n..][row.clone()], [mat(0), mat(1), mat(2), mat(3)])
    }

    /// Point indices ranked by ascending total time (ties keep point
    /// order), truncated to `k` — the sweep's top-k without hydrating
    /// anything.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        let totals = self.totals();
        let mut idx: Vec<usize> = (0..self.points()).collect();
        idx.sort_by(|&a, &b| totals[a].partial_cmp(&totals[b]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b)));
        idx.truncate(k);
        idx
    }

    /// Kernel fingerprint the layout was built from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Split the arena into mutable fill targets of `chunk` consecutive
    /// points each (the last one may be shorter), in point order. Each
    /// target borrows its own disjoint rows, so targets can be filled
    /// concurrently by [`crate::PlanKernel::fill_columns`] and the result
    /// is the same whichever target is filled first.
    ///
    /// # Panics
    /// If `chunk` is 0.
    pub fn split_targets(&mut self, chunk: usize) -> Vec<ColumnsTarget<'_>> {
        assert!(chunk > 0, "fill targets need at least one point each");
        let (n, k) = (self.n, self.layout.slots.len());
        let (mut data, mut flags) = (&mut self.data[..], &mut self.flags[..]);
        // every row, cut section by section in the order documented on
        // `data` and `flags`
        let mut rest = ColumnsTarget {
            start: 0,
            len: n,
            slots: k,
            maps: &self.layout,
            specs: &self.specs,
            fingerprint: self.fingerprint,
            total: cut(&mut data, n),
            tc: cut(&mut data, n),
            tm: cut(&mut data, n),
            overlap: cut(&mut data, n),
            delta: cut(&mut data, n),
            stmt_total: cut(&mut data, n * k),
            stmt_tc: cut(&mut data, n * k),
            stmt_tm: cut(&mut data, n * k),
            stmt_overlap: cut(&mut data, n * k),
            memory_bound: cut(&mut flags, n),
            stmt_present: cut(&mut flags, n * k),
        };
        let mut targets = Vec::with_capacity(n.div_ceil(chunk));
        while !rest.is_empty() {
            targets.push(rest.take_front(chunk.min(rest.len)));
        }
        targets
    }

    /// Materialize the full [`Projection`] of one point by re-evaluating
    /// its stored spec through the kernel — bit-identical to
    /// [`crate::ProjectionPlan::evaluate`] on that point's machine.
    pub fn hydrate(&self, kernel: &PlanKernel, i: usize) -> Projection {
        assert_eq!(kernel.fingerprint(), self.fingerprint, "columns hydrated through a foreign kernel");
        kernel.evaluate_spec(&self.specs[i])
    }
}

/// Detach the first `len` elements of `s`, leaving the rest in `s`.
fn cut<'a, T>(s: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(s).split_at_mut(len);
    *s = tail;
    head
}

/// The present statement slots of one dense row, given the row's `k`
/// presence flags and its `k` entries of the four statement matrices
/// (total, tc, tm, overlap).
fn dense_row<'a>(
    slots: &'a [u32],
    present: &'a [bool],
    [total, tc, tm, overlap]: [&'a [f64]; 4],
) -> impl Iterator<Item = SlotCost> + 'a {
    (0..present.len()).filter(move |&s| present[s]).map(move |s| SlotCost {
        slot: s,
        stmt: StmtId(slots[s]),
        total: total[s],
        tc: tc[s],
        tm: tm[s],
        overlap: overlap[s],
    })
}

/// The mutable rows of one contiguous point range of a
/// [`ProjectionColumns`] arena, from [`ProjectionColumns::split_targets`].
/// [`crate::PlanKernel::fill_columns`] writes the range's results through
/// it in place; afterwards its rows can be read back (chunk-relative row
/// `r` is arena point `start() + r`) before the arena is released.
pub struct ColumnsTarget<'a> {
    pub(crate) start: usize,
    pub(crate) len: usize,
    pub(crate) slots: usize,
    pub(crate) maps: &'a SlotLayout,
    /// The machine specs of this range's points.
    pub(crate) specs: &'a [MachineSpec],
    pub(crate) fingerprint: u64,
    pub(crate) total: &'a mut [f64],
    pub(crate) tc: &'a mut [f64],
    pub(crate) tm: &'a mut [f64],
    pub(crate) overlap: &'a mut [f64],
    pub(crate) delta: &'a mut [f64],
    pub(crate) memory_bound: &'a mut [bool],
    pub(crate) stmt_total: &'a mut [f64],
    pub(crate) stmt_tc: &'a mut [f64],
    pub(crate) stmt_tm: &'a mut [f64],
    pub(crate) stmt_overlap: &'a mut [f64],
    pub(crate) stmt_present: &'a mut [bool],
}

impl ColumnsTarget<'_> {
    /// Detach the first `rows` points into their own target, leaving the
    /// rest in `self`.
    fn take_front(&mut self, rows: usize) -> Self {
        let k = self.slots;
        let (specs, rest) = self.specs.split_at(rows);
        self.specs = rest;
        let front = ColumnsTarget {
            start: self.start,
            len: rows,
            slots: k,
            maps: self.maps,
            specs,
            fingerprint: self.fingerprint,
            total: cut(&mut self.total, rows),
            tc: cut(&mut self.tc, rows),
            tm: cut(&mut self.tm, rows),
            overlap: cut(&mut self.overlap, rows),
            delta: cut(&mut self.delta, rows),
            memory_bound: cut(&mut self.memory_bound, rows),
            stmt_total: cut(&mut self.stmt_total, rows * k),
            stmt_tc: cut(&mut self.stmt_tc, rows * k),
            stmt_tm: cut(&mut self.stmt_tm, rows * k),
            stmt_overlap: cut(&mut self.stmt_overlap, rows * k),
            stmt_present: cut(&mut self.stmt_present, rows * k),
        };
        self.start += rows;
        self.len -= rows;
        front
    }

    /// Arena index of the target's first point.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of points in the target.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the target covers no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total projected seconds of target-relative row `r`.
    pub fn total(&self, r: usize) -> f64 {
        self.total[r]
    }

    /// Iterate the present statement slots of target-relative row `r`.
    pub fn stmt_row(&self, r: usize) -> impl Iterator<Item = SlotCost> + '_ {
        let row = r * self.slots..(r + 1) * self.slots;
        dense_row(
            &self.maps.slots,
            &self.stmt_present[row.clone()],
            [
                &self.stmt_total[row.clone()],
                &self.stmt_tc[row.clone()],
                &self.stmt_tm[row.clone()],
                &self.stmt_overlap[row],
            ],
        )
    }

    /// Fill target-relative row `r` from a completed scalar evaluation —
    /// the fill path for degenerate lanes. The block-level aggregates sum
    /// the node costs in node order, which is bit-identical to the lane
    /// path's block-order accumulation because structural nodes carry
    /// exact zeros.
    pub(crate) fn fill_from_projection(&mut self, r: usize, slot_of: &[u32], p: &Projection) {
        self.total[r] = p.total_time;
        let (mut tc, mut tm, mut ov) = (0.0, 0.0, 0.0);
        for nc in &p.node_costs {
            tc += nc.per_invocation.tc * nc.enr;
            tm += nc.per_invocation.tm * nc.enr;
            ov += nc.per_invocation.overlap * nc.enr;
        }
        self.tc[r] = tc;
        self.tm[r] = tm;
        self.overlap[r] = ov;
        self.delta[r] = achieved_delta(tc, tm, ov);
        self.memory_bound[r] = tm > tc;
        let base = r * self.slots;
        for (stmt, cost) in p.per_stmt.iter() {
            let slot = slot_of[stmt.0 as usize] as usize;
            self.stmt_total[base + slot] = cost.total;
            self.stmt_tc[base + slot] = cost.tc;
            self.stmt_tm[base + slot] = cost.tm;
            self.stmt_overlap[base + slot] = cost.overlap;
            self.stmt_present[base + slot] = true;
        }
    }
}

/// Achieved overlap fraction of a point: `To / min(Tc, Tm)`, 0 when the
/// floor carries no time.
pub(crate) fn achieved_delta(tc: f64, tm: f64, overlap: f64) -> f64 {
    let floor = tc.min(tm);
    if floor > 0.0 {
        overlap / floor
    } else {
        0.0
    }
}
