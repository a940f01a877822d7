//! Bit-identity guarantee of the batched SoA evaluation kernel.
//!
//! [`xflow_hotspot::PlanKernel`] (flat column layout + pre-resolved
//! [`xflow_hw::MachineSpec`] constants) is a pure re-layout of
//! [`xflow_hotspot::ProjectionPlan::evaluate`]: for every workload and
//! every machine, every path through the kernel — the columnar lane fill,
//! single-point hydration, and the work-stealing sweep scheduler — must
//! produce `f64::to_bits`-identical results to the scalar evaluator, for
//! any thread count and chunk size.

use proptest::prelude::*;
use xflow::{bgq, generic, knl, xeon, Axis, DesignSpace, ModeledApp, Scale, SweepOptions};
use xflow_hotspot::{Projection, ProjectionPlan};
use xflow_hw::{MachineModel, MachineSpec, Roofline};

fn machines() -> Vec<MachineModel> {
    vec![bgq(), xeon(), knl(), generic()]
}

fn assert_projection_bits(fast: &Projection, slow: &Projection, ctx: &str) {
    assert_eq!(fast.total_time.to_bits(), slow.total_time.to_bits(), "total: {ctx}");
    assert_eq!(fast.node_costs.len(), slow.node_costs.len(), "node count: {ctx}");
    for (i, (f, s)) in fast.node_costs.iter().zip(&slow.node_costs).enumerate() {
        assert_eq!(f.total.to_bits(), s.total.to_bits(), "node {i} total: {ctx}");
        assert_eq!(f.enr.to_bits(), s.enr.to_bits(), "node {i} enr: {ctx}");
        assert_eq!(f.per_invocation.total.to_bits(), s.per_invocation.total.to_bits(), "node {i} per-inv: {ctx}");
        assert_eq!(f.per_invocation.tc.to_bits(), s.per_invocation.tc.to_bits(), "node {i} tc: {ctx}");
        assert_eq!(f.per_invocation.tm.to_bits(), s.per_invocation.tm.to_bits(), "node {i} tm: {ctx}");
    }
    assert_eq!(fast.per_stmt.len(), slow.per_stmt.len(), "stmt count: {ctx}");
    for (stmt, sc) in slow.per_stmt.iter() {
        let fc = fast.per_stmt.get(&stmt).unwrap_or_else(|| panic!("missing {stmt:?}: {ctx}"));
        assert_eq!(fc.total.to_bits(), sc.total.to_bits(), "{stmt:?} total: {ctx}");
        assert_eq!(fc.tc.to_bits(), sc.tc.to_bits(), "{stmt:?} tc: {ctx}");
        assert_eq!(fc.tm.to_bits(), sc.tm.to_bits(), "{stmt:?} tm: {ctx}");
        assert_eq!(fc.overlap.to_bits(), sc.overlap.to_bits(), "{stmt:?} overlap: {ctx}");
        assert_eq!(fc.metrics.flops.to_bits(), sc.metrics.flops.to_bits(), "{stmt:?} flops: {ctx}");
    }
    assert_eq!(fast.unknown_libs, slow.unknown_libs, "unknown libs: {ctx}");
}

#[test]
fn kernel_matches_evaluate_on_all_workloads_and_machines() {
    let libs = xflow::default_library();
    for w in xflow_workloads::all() {
        let app = ModeledApp::from_workload(&w, Scale::Test).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let plan = ProjectionPlan::new(&app.bet, libs);
        let kernel = plan.kernel();
        // one columnar fill over every machine: a full lane group
        let specs: Vec<MachineSpec> = machines().iter().map(MachineSpec::resolve).collect();
        let cols = kernel.evaluate_columns(&specs);
        for (i, machine) in machines().iter().enumerate() {
            let ctx = format!("{} on {}", w.name, machine.name);
            let scalar = plan.evaluate(machine, &Roofline);

            // the arena row: total, block aggregates, statement costs
            assert_eq!(cols.total(i).to_bits(), scalar.total_time.to_bits(), "columns total: {ctx}");
            let (tc, tm, ov) = cols.block_totals(i);
            let (mut stc, mut stm, mut sov) = (0.0f64, 0.0f64, 0.0f64);
            for nc in &scalar.node_costs {
                stc += nc.per_invocation.tc * nc.enr;
                stm += nc.per_invocation.tm * nc.enr;
                sov += nc.per_invocation.overlap * nc.enr;
            }
            assert_eq!(tc.to_bits(), stc.to_bits(), "columns tc: {ctx}");
            assert_eq!(tm.to_bits(), stm.to_bits(), "columns tm: {ctx}");
            assert_eq!(ov.to_bits(), sov.to_bits(), "columns overlap: {ctx}");
            let row: Vec<_> = cols.stmt_row(i).collect();
            assert_eq!(row.len(), scalar.per_stmt.len(), "columns row arity: {ctx}");
            for sc in row {
                let s = scalar.per_stmt.get(&sc.stmt).unwrap_or_else(|| panic!("missing {:?}: {ctx}", sc.stmt));
                assert_eq!(sc.total.to_bits(), s.total.to_bits(), "{:?} total: {ctx}", sc.stmt);
                assert_eq!(sc.tc.to_bits(), s.tc.to_bits(), "{:?} tc: {ctx}", sc.stmt);
                assert_eq!(sc.tm.to_bits(), s.tm.to_bits(), "{:?} tm: {ctx}", sc.stmt);
                assert_eq!(sc.overlap.to_bits(), s.overlap.to_bits(), "{:?} overlap: {ctx}", sc.stmt);
            }

            // hydration: the full projection of the point
            assert_projection_bits(&cols.hydrate(&kernel, i), &scalar, &format!("hydrate: {ctx}"));
        }
    }
}

#[test]
fn sweeps_over_degenerate_machines_match_project_on_for_every_schedule() {
    // infinite-frequency machines underflow every cycle time, so their
    // lanes defeat the participation prediction and replay through the
    // single-point path — placed inside full lane groups and at the tail
    let app = ModeledApp::from_workload(&xflow_workloads::cfd(), Scale::Test).unwrap();
    let machines: Vec<MachineModel> = (0..11)
        .map(|i| {
            let mut m = machines()[i % 4].clone();
            if i % 3 == 1 {
                m.freq_ghz = f64::INFINITY;
            }
            m
        })
        .collect();
    let space = DesignSpace::from_machines(machines.clone());
    for threads in [1, 2, 4, 8] {
        for chunk in [1, 3, 64] {
            let sweep = space.sweep_opts(&app, SweepOptions { threads, chunk, ..SweepOptions::default() });
            for (i, machine) in machines.iter().enumerate() {
                let direct = app.project_on(machine);
                let ctx = format!("threads {threads} chunk {chunk} point {i}");
                assert_eq!(sweep.points[i].total.to_bits(), direct.total.to_bits(), "{ctx}");
                assert_eq!(sweep.unit_ranking(i), direct.ranking(), "{ctx}");
                assert_projection_bits(&sweep.hydrate(&app, i).projection, &direct.projection, &ctx);
            }
        }
    }
}

proptest! {
    // The work-stealing scheduler contract: any thread count and any chunk
    // size (including degenerate 1-point chunks and chunks larger than the
    // grid) produce the serial sweep bit-for-bit.
    #![proptest_config(ProptestConfig { cases: 10 })]
    #[test]
    fn work_stealing_sweep_is_schedule_invariant(
        threads in 1usize..9,
        chunk in 0usize..10,
        bw_steps in 1usize..4,
        mlp_steps in 1usize..4,
    ) {
        let app = ModeledApp::from_workload(&xflow_workloads::chargei(), Scale::Test).unwrap();
        let bws: Vec<f64> = (0..bw_steps).map(|i| 0.5 * (1 << i) as f64).collect();
        let mlps: Vec<f64> = (0..mlp_steps).map(|i| 2.0 * (1 << i) as f64).collect();
        let space = DesignSpace::grid(generic(), vec![Axis::dram_bw(&bws), Axis::mlp(&mlps)]);

        let serial = space.sweep_opts(&app, SweepOptions::with_threads(1));
        let scheduled = space.sweep_opts(&app, SweepOptions { threads, chunk, ..SweepOptions::default() });

        prop_assert_eq!(serial.points.len(), scheduled.points.len());
        for (a, b) in serial.points.iter().zip(&scheduled.points) {
            prop_assert_eq!(a.index, b.index);
            prop_assert_eq!(a.total.to_bits(), b.total.to_bits());
            prop_assert_eq!(a.top_unit, b.top_unit);
            prop_assert_eq!(a.memory_bound, b.memory_bound);
            prop_assert_eq!(serial.unit_ranking(a.index), scheduled.unit_ranking(b.index));
        }
    }
}
