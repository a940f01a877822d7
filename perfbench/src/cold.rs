//! `cold-model`: a user's first `xflow hotspots` / `explain` on a program.
//!
//! Each op creates a fresh memory-only `Session`, models one program
//! (`Session::model`, every stage a store miss) and projects it on BG/Q and
//! Xeon. The mix is the five paper workloads at test scale (each twice) plus
//! a handful of generated programs, in a seeded order. The tree-walking profiler
//! dominates; kernel, sweep, sim and serve do no work.

use crate::trace::{Summary, Trace, UNTRACED};
use crate::Workload;
use xflow::xflow_hotspot::ProjectionPlan;
use xflow::xflow_minilang as ml;
use xflow::{bgq, default_library, initial_env, xeon, InputSpec, MachineModel, ModeledApp, Roofline, Session, Units};

/// Generated programs in the mix besides the five paper workloads.
const GENERATED: usize = 4;
/// Times each paper workload appears in one cycle. With four generated
/// programs this keeps p50 and p90 inside one program's latency group
/// instead of on the boundary between two.
const PAPER_REPEAT: usize = 2;

/// Stage spans of one replayed op, in pipeline order.
const STAGES: [&str; 7] = [
    "minilang.parse",
    "minilang.profile",
    "minilang.translate",
    "bet.build",
    "hotspot.plan",
    "hotspot.kernel",
    "pipeline.project",
];

struct Program {
    src: String,
    inputs: InputSpec,
    /// `to_bits` of the BG/Q and Xeon totals from a cold
    /// `ModeledApp::from_program` built once in setup.
    expect: [u64; 2],
}

pub struct ColdModel {
    programs: Vec<Program>,
    order: Vec<usize>,
    machines: [MachineModel; 2],
    /// Store misses and ops counted by untraced ops.
    misses: u64,
    model_ops: u64,
    /// Σ `Profile::total_ops` and Σ BET nodes over replayed ops.
    profile_ops: u64,
    bet_nodes: u64,
}

fn check(expect: &[u64; 2], got: [f64; 2]) -> Result<(), String> {
    for (k, (&e, g)) in expect.iter().zip(got).enumerate() {
        if e != g.to_bits() {
            return Err(format!("machine {k} total {g:e} != reference {:e}", f64::from_bits(e)));
        }
    }
    Ok(())
}

impl ColdModel {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let machines = [bgq(), xeon()];
        let mut sources: Vec<(String, InputSpec)> = xflow::xflow_workloads::all()
            .into_iter()
            .map(|w| (w.source.to_string(), w.inputs(xflow::Scale::Test)))
            .collect();
        sources.extend(crate::generated_sources(seed, GENERATED).into_iter().map(|(_, src)| (src, InputSpec::new())));
        let mut programs = Vec::with_capacity(sources.len());
        for (src, inputs) in sources {
            let program = ml::parse(&src).map_err(|e| e.to_string())?;
            let app = ModeledApp::from_program(program, &inputs).map_err(|e| e.to_string())?;
            let expect = [app.project_on(&machines[0]).total.to_bits(), app.project_on(&machines[1]).total.to_bits()];
            programs.push(Program { src, inputs, expect });
        }
        let paper = programs.len() - GENERATED;
        let mut order: Vec<usize> = (0..PAPER_REPEAT).flat_map(|_| 0..paper).chain(paper..programs.len()).collect();
        crate::shuffle(&mut order, &mut crate::rng(seed, 1));
        Ok(Self { programs, order, machines, misses: 0, model_ops: 0, profile_ops: 0, bet_nodes: 0 })
    }
}

impl Workload for ColdModel {
    fn cycle_len(&self) -> usize {
        self.order.len()
    }

    fn cycles_per_second(&self) -> f64 {
        4.0
    }

    fn op(&mut self, i: usize) -> Result<(), String> {
        let p = &self.programs[self.order[i]];
        let session = Session::new();
        let app = session.model(&p.src, &p.inputs).map_err(|e| e.to_string())?;
        let totals = [app.project_on(&self.machines[0]).total, app.project_on(&self.machines[1]).total];
        self.misses += session.stats().misses();
        self.model_ops += 1;
        check(&p.expect, totals)
    }

    /// The stages `Session::model` runs, called one by one through the
    /// same public functions, then the two projections.
    fn traced_op(&mut self, i: usize, tr: &Trace) -> Result<(), String> {
        let p = &self.programs[self.order[i]];
        let program = tr.time(STAGES[0], || ml::parse(&p.src)).map_err(|e| e.to_string())?;
        let profile = tr.time(STAGES[1], || ml::profile(&program, &p.inputs)).map_err(|e| e.to_string())?;
        let translation =
            tr.time(STAGES[2], || ml::translate(&program, &profile)).map_err(|e| format!("translate: {e:?}"))?;
        let bet = tr
            .time(STAGES[3], || {
                let env = initial_env(&translation, &p.inputs);
                xflow::xflow_bet::build(&translation.skeleton, &env)
            })
            .map_err(|e| e.to_string())?;
        let plan = tr.time(STAGES[4], || ProjectionPlan::new(&bet, default_library()));
        let kernel = tr.time(STAGES[5], || plan.kernel());
        let totals = tr.time(STAGES[6], || {
            let units = Units::from_skeleton(&translation.skeleton);
            self.machines.each_ref().map(|m| xflow::fold_projection(&units, m, plan.evaluate(m, &Roofline)).total)
        });
        std::hint::black_box(&kernel);
        self.profile_ops += profile.total_ops();
        self.bet_nodes += bet.len() as u64;
        check(&p.expect, totals)
    }

    fn layers(&self, s: &Summary) -> Vec<(&'static str, f64)> {
        let stage_ns: u64 = STAGES.iter().map(|n| s.total_ns(n)).sum();
        let profile_ns = s.total_ns("minilang.profile");
        let ops = s.ops.max(1) as f64;
        vec![
            ("minilang.parse_ms", s.ms_per_op("minilang.parse")),
            ("minilang.profile_ms", s.ms_per_op("minilang.profile")),
            ("minilang.profile_mops_per_s", crate::trace::per_us(self.profile_ops, profile_ns)),
            ("minilang.profile_share", profile_ns as f64 / stage_ns.max(1) as f64),
            ("minilang.translate_ms", s.ms_per_op("minilang.translate")),
            ("bet.build_ms", s.ms_per_op("bet.build")),
            ("bet.nodes", self.bet_nodes as f64 / ops),
            ("hotspot.plan_ms", s.ms_per_op("hotspot.plan")),
            ("hotspot.kernel_ms", s.ms_per_op("hotspot.kernel")),
            ("pipeline.project_ms", s.ms_per_op("pipeline.project")),
            // the untraced op (`Session::model` + projections) minus the
            // replayed stages: key derivation, store inserts, artifact clones
            ("session.self_ms", s.ms_per_op(UNTRACED) - stage_ns as f64 / ops / 1e6),
            ("store.misses", self.misses as f64 / self.model_ops.max(1) as f64),
        ]
    }

    fn corrupt(&mut self) {
        self.programs[0].expect[0] ^= 1;
    }
}
