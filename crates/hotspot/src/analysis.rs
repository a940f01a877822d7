//! Per-block performance projection over a BET (paper Section V-A).
//!
//! Projects the per-invocation time of every cost-carrying node (`comp`
//! and `lib`) with the hardware model, weights it by the node's expected
//! number of repetitions (ENR), and aggregates per skeleton statement —
//! the granularity at which hot spots are selected and compared against
//! measured profiles.
//!
//! Since this PR the projection runs in two phases (see [`crate::plan`]):
//! [`project`] builds a machine-independent [`crate::ProjectionPlan`] and
//! evaluates it, so repeated projections of the same application — the
//! co-design sweep case — pay the tree walk only once.
//! [`project_single_pass`] keeps the original fused walk as the reference
//! implementation; an equivalence test asserts both produce bit-identical
//! results.

use std::collections::HashSet;
use std::ops::Index;
use xflow_bet::{Bet, BetKind};
use xflow_hw::{BlockMetrics, BlockTime, LibraryRegistry, MachineModel, PerfModel};
use xflow_skeleton::StmtId;

use crate::plan::ProjectionPlan;

/// Projected cost of one BET node.
#[derive(Debug, Clone, Copy)]
pub struct NodeCost {
    /// Per-invocation projected time breakdown.
    pub per_invocation: BlockTime,
    /// Expected number of repetitions.
    pub enr: f64,
    /// Total projected time (`per_invocation.total × enr`).
    pub total: f64,
}

/// Aggregated projected cost of one skeleton statement across every BET
/// context it appears in.
#[derive(Debug, Clone, Copy, Default)]
pub struct StmtCost {
    /// Total projected seconds.
    pub total: f64,
    /// ENR-weighted computation seconds.
    pub tc: f64,
    /// ENR-weighted memory seconds.
    pub tm: f64,
    /// ENR-weighted overlapped seconds.
    pub overlap: f64,
    /// ENR-weighted operation totals (for issue-rate style reporting).
    pub metrics: BlockMetrics,
}

/// Dense per-statement cost table, indexed by [`StmtId`].
///
/// Skeleton statement IDs are a compact arena (`StmtId(0..n)`), so the
/// per-statement aggregation of a projection is stored as a flat `Vec`
/// instead of a `HashMap` — O(1) indexed access with no hashing in the
/// per-machine evaluation loop, and iteration is deterministic (ascending
/// statement ID) without a sort.
#[derive(Debug, Clone, Default)]
pub struct StmtCosts {
    costs: Vec<StmtCost>,
    present: Vec<bool>,
    /// IDs of present slots in first-touch order (`len` without an
    /// O(capacity) scan).
    touched: Vec<u32>,
}

impl StmtCosts {
    /// Empty table with capacity for statement IDs `0..n`.
    pub fn with_stmt_capacity(n: usize) -> Self {
        Self { costs: vec![StmtCost::default(); n], present: vec![false; n], touched: Vec::with_capacity(n) }
    }

    /// Cost of a statement, if it carried any projected time.
    pub fn get(&self, stmt: &StmtId) -> Option<&StmtCost> {
        let i = stmt.0 as usize;
        if *self.present.get(i)? {
            Some(&self.costs[i])
        } else {
            None
        }
    }

    /// Whether the statement carried any projected time.
    pub fn contains_key(&self, stmt: &StmtId) -> bool {
        self.get(stmt).is_some()
    }

    /// Number of statements with recorded cost.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// True when no statement carried projected time.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Mutable cost slot for a statement, created zeroed on first access.
    #[inline]
    pub fn entry_mut(&mut self, stmt: StmtId) -> &mut StmtCost {
        let i = stmt.0 as usize;
        if i >= self.costs.len() {
            self.costs.resize(i + 1, StmtCost::default());
            self.present.resize(i + 1, false);
        }
        if !self.present[i] {
            self.present[i] = true;
            self.touched.push(i as u32);
        }
        &mut self.costs[i]
    }

    /// Iterate recorded costs in ascending statement-ID order.
    pub fn iter(&self) -> impl Iterator<Item = (StmtId, &StmtCost)> + '_ {
        self.costs.iter().enumerate().filter(|(i, _)| self.present[*i]).map(|(i, c)| (StmtId(i as u32), c))
    }
}

impl Index<&StmtId> for StmtCosts {
    type Output = StmtCost;
    fn index(&self, stmt: &StmtId) -> &StmtCost {
        self.get(stmt).unwrap_or_else(|| panic!("no cost recorded for {stmt:?}"))
    }
}

impl Index<StmtId> for StmtCosts {
    type Output = StmtCost;
    fn index(&self, stmt: StmtId) -> &StmtCost {
        &self[&stmt]
    }
}

impl<'a> IntoIterator for &'a StmtCosts {
    type Item = (StmtId, &'a StmtCost);
    type IntoIter = Box<dyn Iterator<Item = (StmtId, &'a StmtCost)> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// Result of projecting a BET on a machine.
#[derive(Debug, Clone)]
pub struct Projection {
    /// Per-node costs, indexed by `BetNodeId.0`.
    pub node_costs: Vec<NodeCost>,
    /// Aggregated per skeleton statement.
    pub per_stmt: StmtCosts,
    /// Total projected application time in seconds.
    pub total_time: f64,
    /// Library functions that had no registered mix (fallback used).
    pub unknown_libs: Vec<String>,
}

/// Project every node of a BET on a target machine.
///
/// Two-phase: builds a machine-independent [`ProjectionPlan`] and evaluates
/// it on `machine`. Callers projecting the same BET on many machines should
/// build the plan once and call [`ProjectionPlan::evaluate`] per machine.
pub fn project(bet: &Bet, machine: &MachineModel, model: &dyn PerfModel, libs: &LibraryRegistry) -> Projection {
    ProjectionPlan::new(bet, libs).evaluate(machine, model)
}

/// Original fused single-pass projection, kept as the reference
/// implementation the two-phase engine is equivalence-tested against.
pub fn project_single_pass(
    bet: &Bet,
    machine: &MachineModel,
    model: &dyn PerfModel,
    libs: &LibraryRegistry,
) -> Projection {
    let enr = bet.enr();
    let avail_par = bet.available_parallelism();
    let mut node_costs = Vec::with_capacity(bet.len());
    let mut per_stmt = StmtCosts::default();
    let mut total_time = 0.0;
    let mut unknown_libs = Vec::new();
    let mut unknown_seen: HashSet<String> = HashSet::new();

    for node in bet.iter() {
        let e = enr[node.id.0 as usize];
        // effective concurrency of this block: the machine cannot use more
        // threads than it has cores, nor more than the enclosing parallel
        // loops provide iterations
        let threads = avail_par[node.id.0 as usize].min(machine.cores as f64).max(1.0);
        let (time, metrics) = match &node.kind {
            BetKind::Comp { ops } => {
                let m = BlockMetrics {
                    flops: ops.flops,
                    iops: ops.iops,
                    loads: ops.loads,
                    stores: ops.stores,
                    divs: ops.divs,
                    elem_bytes: ops.elem_bytes,
                };
                let t = if threads > 1.0 {
                    model.project_parallel(machine, &m, threads)
                } else {
                    model.project(machine, &m)
                };
                (t, m)
            }
            BetKind::Lib { func, calls, work } => match libs.project(func, *calls, *work, machine, model) {
                Ok(t) => {
                    let m = libs.get(func).map(|mix| mix.expand(*calls, *work)).unwrap_or_default();
                    (t, m)
                }
                Err(err) => {
                    if unknown_seen.insert(err.name.clone()) {
                        unknown_libs.push(err.name.clone());
                    }
                    (err.fallback_time, BlockMetrics::default())
                }
            },
            _ => (BlockTime::default(), BlockMetrics::default()),
        };
        let total = time.total * e;
        total_time += total;
        node_costs.push(NodeCost { per_invocation: time, enr: e, total });

        if let Some(stmt) = node.stmt {
            if time.total > 0.0 {
                let s = per_stmt.entry_mut(stmt);
                s.total += total;
                s.tc += time.tc * e;
                s.tm += time.tm * e;
                s.overlap += time.overlap * e;
                s.metrics.add_scaled(&metrics, e);
            }
        }
    }

    Projection { node_costs, per_stmt, total_time, unknown_libs }
}

impl Projection {
    /// Statements ranked by descending projected time.
    pub fn ranked_stmts(&self) -> Vec<(StmtId, StmtCost)> {
        let mut v: Vec<(StmtId, StmtCost)> = self.per_stmt.iter().map(|(k, v)| (k, *v)).collect();
        v.sort_by(|a, b| b.1.total.partial_cmp(&a.1.total).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0)));
        v
    }

    /// Fraction of total projected time spent in a statement.
    pub fn coverage(&self, stmt: StmtId) -> f64 {
        if self.total_time == 0.0 {
            return 0.0;
        }
        self.per_stmt.get(&stmt).map(|s| s.total / self.total_time).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xflow_bet::build;
    use xflow_hw::{generic, Roofline};
    use xflow_skeleton::expr::env_from;
    use xflow_skeleton::parse;

    fn project_src(src: &str, inputs: &[(&str, f64)]) -> (Projection, xflow_skeleton::Program) {
        let prog = parse(src).unwrap();
        let bet = build(&prog, &env_from(inputs.iter().copied())).unwrap();
        let p = project(&bet, &generic(), &Roofline, &LibraryRegistry::with_defaults());
        (p, prog)
    }

    #[test]
    fn loop_weight_scales_stmt_cost() {
        let src = r#"
func main() {
  @cheap: comp { flops: 100 }
  loop i = 0 .. 1000 {
    @hot: comp { flops: 100 }
  }
}
"#;
        let (p, prog) = project_src(src, &[]);
        let hot = prog.stmt_by_label("hot").unwrap();
        let cheap = prog.stmt_by_label("cheap").unwrap();
        let ratio = p.per_stmt[&hot].total / p.per_stmt[&cheap].total;
        assert!((ratio - 1000.0).abs() < 1.0, "{ratio}");
    }

    #[test]
    fn total_time_is_sum_of_node_totals() {
        let src = "func main() { loop i = 0 .. 50 { comp { flops: 10, loads: 5 } lib exp(1) } }";
        let (p, _) = project_src(src, &[]);
        let sum: f64 = p.node_costs.iter().map(|c| c.total).sum();
        assert!((p.total_time - sum).abs() < 1e-15);
        assert!(p.total_time > 0.0);
    }

    #[test]
    fn ranked_stmts_descending() {
        let src = r#"
func main() {
  @a: comp { flops: 1 }
  @b: comp { flops: 1000 }
  @c: comp { flops: 10 }
}
"#;
        let (p, prog) = project_src(src, &[]);
        let ranked = p.ranked_stmts();
        assert_eq!(ranked[0].0, prog.stmt_by_label("b").unwrap());
        assert_eq!(ranked[1].0, prog.stmt_by_label("c").unwrap());
        assert_eq!(ranked[2].0, prog.stmt_by_label("a").unwrap());
        assert!(ranked[0].1.total >= ranked[1].1.total);
    }

    #[test]
    fn unknown_library_reported_but_costed() {
        let (p, _) = project_src("func main() { lib mystery(100) }", &[]);
        assert_eq!(p.unknown_libs, vec!["mystery".to_string()]);
        assert!(p.total_time > 0.0);
    }

    #[test]
    fn branch_probability_scales_cost() {
        let src = r#"
func main() {
  loop i = 0 .. 1000 {
    if prob(0.1) { @rare: comp { flops: 100 } }
    else { @common: comp { flops: 100 } }
  }
}
"#;
        let (p, prog) = project_src(src, &[]);
        let rare = p.per_stmt[&prog.stmt_by_label("rare").unwrap()].total;
        let common = p.per_stmt[&prog.stmt_by_label("common").unwrap()].total;
        assert!((common / rare - 9.0).abs() < 0.01, "{}", common / rare);
    }

    #[test]
    fn coverage_sums_to_one_over_all_stmts() {
        let src = "func main() { @x: comp { flops: 5 } loop i = 0 .. 10 { @y: comp { flops: 2, loads: 1 } } }";
        let (p, prog) = project_src(src, &[]);
        let cx = p.coverage(prog.stmt_by_label("x").unwrap());
        let cy = p.coverage(prog.stmt_by_label("y").unwrap());
        assert!((cx + cy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multiple_contexts_accumulate_into_one_stmt() {
        let src = r#"
func main() {
  call f(10)
  call f(90)
}
func f(n) {
  loop i = 0 .. n { @kern: comp { flops: 1 } }
}
"#;
        let (p, prog) = project_src(src, &[]);
        let kern = prog.stmt_by_label("kern").unwrap();
        // both mounts contribute: cost proportional to 100 iterations total
        let single = {
            let (p1, prog1) = project_src(
                "func main() { call f(100) } func f(n) { loop i = 0 .. n { @kern: comp { flops: 1 } } }",
                &[],
            );
            p1.per_stmt[&prog1.stmt_by_label("kern").unwrap()].total
        };
        let combined = p.per_stmt[&kern].total;
        assert!((combined / single - 1.0).abs() < 1e-9, "{combined} vs {single}");
    }
}
