//! `ground-truth`: the executed oracle behind `xflow validate` / `oracle`.
//!
//! Each op calls `oracle::build_corpus` for one program × one machine on a
//! fresh memory-only `Session` with `jobs: 1`, so the sim stage is cold
//! every op. The mix is the ten paper combos (five workloads at test scale
//! × BG/Q, Xeon) plus generated programs. The simulator and the VM do most
//! of the work; kernel, sweep and serve do none.

use std::collections::HashMap;

use crate::trace::{Summary, Trace, UNTRACED};
use crate::Workload;
use xflow::xflow_hotspot::ProjectionPlan;
use xflow::xflow_minilang::{self as ml, InputSpec};
use xflow::xflow_sim::SimConfig;
use xflow::xflow_skeleton::StmtId;
use xflow::xflow_workloads::Workload as PaperWorkload;
use xflow::{
    bgq, build_corpus, default_library, initial_env, xeon, CorpusRecord, MachineModel, OracleOptions, OracleProgram,
    Roofline, Session,
};

/// Generated programs in the mix, each run on one machine. With the ten
/// paper combos this makes 15 ops, so p50 and p90 fall inside one op's
/// samples rather than on the edge between two.
const GENERATED: usize = 5;
/// validate's bound on the whole-program total-time error of a paper
/// workload's projection.
const MAX_TOTAL_ERR: f64 = 0.60;
/// Replayed analytic stages, in pipeline order.
const ANALYTIC: [&str; 6] =
    ["minilang.parse", "minilang.profile", "minilang.translate", "bet.build", "hotspot.plan", "pipeline.project"];

struct Combo {
    program: OracleProgram,
    /// The paper workload, whose vectorization overrides configure the
    /// simulation and whose projection is held to validate's total-time
    /// bound; `None` for generated programs, which validate does not
    /// time-check either.
    workload: Option<PaperWorkload>,
    machine: MachineModel,
    /// The warm-up op's corpus: its records, its JSON digest, and
    /// validate's total-time error for it.
    reference: Option<Reference>,
}

impl Combo {
    fn sim_config(&self, prog: &ml::Program) -> SimConfig {
        match &self.workload {
            Some(w) => w.sim_config(prog, &self.machine),
            None => SimConfig::default(),
        }
    }
}

struct Reference {
    records: Vec<CorpusRecord>,
    digest: u64,
    validate_err: f64,
}

pub struct GroundTruth {
    combos: Vec<Combo>,
    order: Vec<usize>,
    seed: u64,
    /// The parsed program of the last traced op, probed after it.
    last_program: Option<ml::Program>,
    /// Σ over replayed ops of profiled ops, BET nodes, simulated
    /// instructions and L1 misses, and reference records.
    profile_ops: u64,
    bet_nodes: u64,
    instrs: u64,
    l1_misses: u64,
    records: u64,
}

/// `|Σ analytic − Σ simulated| / Σ simulated` over one combo's records.
/// Records leave library time out, so this reads higher than validate's
/// whole-program error.
fn total_err(records: &[CorpusRecord]) -> f64 {
    let analytic: f64 = records.iter().map(|r| r.analytic_seconds).sum();
    let simulated: f64 = records.iter().map(|r| r.simulated_seconds).sum();
    (analytic - simulated).abs() / simulated
}

/// validate's rule: whole-program projected vs simulated total, library
/// time included. `session` holds the combo's simulation; modeling
/// profiles with the default seed, which is the oracle's.
fn validate_err(c: &Combo, session: &Session, seed: u64) -> Result<f64, String> {
    let (_, inputs) = &c.program.scales[0];
    let analytic = session.model(&c.program.source, inputs).map_err(|e| e.to_string())?.project_on(&c.machine).total;
    let prog = ml::parse(&c.program.source).map_err(|e| e.to_string())?;
    let sim = session
        .sim_report(&c.program.source, inputs, &c.machine, &c.sim_config(&prog), seed)
        .map_err(|e| e.to_string())?;
    let simulated = sim.total_seconds();
    Ok((analytic - simulated).abs() / simulated)
}

impl GroundTruth {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let mut combos = Vec::new();
        let workloads = xflow::xflow_workloads::all();
        for (w, program) in workloads.into_iter().zip(xflow::builtin_programs(&[xflow::Scale::Test])) {
            for machine in [bgq(), xeon()] {
                combos.push(Combo { program: program.clone(), workload: Some(w.clone()), machine, reference: None });
            }
        }
        for (k, (name, src)) in crate::generated_sources(seed, GENERATED).into_iter().enumerate() {
            combos.push(Combo {
                program: OracleProgram::from_source(&name, &src, "default", InputSpec::new()),
                workload: None,
                machine: if k % 2 == 0 { bgq() } else { xeon() },
                reference: None,
            });
        }
        let mut order: Vec<usize> = (0..combos.len()).collect();
        crate::shuffle(&mut order, &mut crate::rng(seed, 3));
        Ok(Self {
            combos,
            order,
            seed: OracleOptions::default().seed,
            last_program: None,
            profile_ops: 0,
            bet_nodes: 0,
            instrs: 0,
            l1_misses: 0,
            records: 0,
        })
    }
}

impl Workload for GroundTruth {
    fn cycle_len(&self) -> usize {
        self.order.len()
    }

    fn cycles_per_second(&self) -> f64 {
        2.5
    }

    /// The first run of a combo (the warm-up cycle) records the
    /// reference; every later run must reproduce its JSON byte for byte.
    fn op(&mut self, i: usize) -> Result<(), String> {
        let seed = self.seed;
        let c = &mut self.combos[self.order[i]];
        let session = Session::new();
        let opts = OracleOptions { jobs: 1, seed };
        let corpus = build_corpus(&session, std::slice::from_ref(&c.program), std::slice::from_ref(&c.machine), &opts)
            .map_err(|e| e.to_string())?;
        let digest = crate::digest(corpus.to_json().as_bytes());
        let reference = match &c.reference {
            Some(r) => r,
            None => {
                let validate_err = if c.workload.is_some() { validate_err(c, &session, seed)? } else { 0.0 };
                c.reference.insert(Reference { records: corpus.records, digest, validate_err })
            }
        };
        if digest != reference.digest {
            return Err(format!("{} on {}: corpus digest changed", c.program.name, c.machine.name));
        }
        if reference.validate_err.is_nan() || reference.validate_err > MAX_TOTAL_ERR {
            return Err(format!(
                "{} on {}: total error {} > {MAX_TOTAL_ERR}",
                c.program.name, c.machine.name, reference.validate_err
            ));
        }
        Ok(())
    }

    /// The combo's stages through the same public functions the oracle
    /// calls, then the sorted fold of simulated cycles onto skeleton
    /// statements; every record must match the reference bit for bit.
    fn traced_op(&mut self, i: usize, tr: &Trace) -> Result<(), String> {
        let c = &self.combos[self.order[i]];
        let reference = c.reference.as_ref().ok_or("traced op before the warm-up cycle")?;
        let (_, inputs) = &c.program.scales[0];
        let seed = self.seed;
        let prog = tr.time(ANALYTIC[0], || ml::parse(&c.program.source)).map_err(|e| e.to_string())?;
        let (prof, _, _) = tr
            .time(ANALYTIC[1], || {
                ml::run_with_limits_seeded(&prog, inputs, ml::NullTracer, ml::Limits::default(), seed)
            })
            .map_err(|e| e.to_string())?;
        let translation =
            tr.time(ANALYTIC[2], || ml::translate(&prog, &prof)).map_err(|e| format!("translate: {e:?}"))?;
        let bet = tr
            .time(ANALYTIC[3], || xflow::xflow_bet::build(&translation.skeleton, &initial_env(&translation, inputs)))
            .map_err(|e| e.to_string())?;
        let plan = tr.time(ANALYTIC[4], || ProjectionPlan::new(&bet, default_library()));
        let projection = tr.time(ANALYTIC[5], || plan.evaluate(&c.machine, &Roofline));
        let sim = tr
            .time("sim.simulate", || {
                xflow::xflow_sim::simulate_with_seed(&prog, inputs, &c.machine, c.sim_config(&prog), seed)
            })
            .map_err(|e| e.to_string())?;

        let mismatch = tr.time("oracle.fold", || {
            let freq_hz = sim.freq_ghz * 1e9;
            let mut rows: Vec<(ml::MStmtId, f64)> = sim.stmt_cycles.iter().map(|(m, c)| (*m, *c)).collect();
            rows.sort_by_key(|(m, _)| *m);
            let mut sim_secs: HashMap<StmtId, f64> = HashMap::new();
            for (mid, cycles) in rows {
                if let Some(sid) = translation.map.get(&mid) {
                    *sim_secs.entry(*sid).or_insert(0.0) += cycles / freq_hz;
                }
            }
            reference.records.iter().position(|r| {
                let sid = StmtId(r.stmt);
                let analytic = projection.per_stmt.get(&sid).map(|s| s.total).unwrap_or(0.0);
                let simulated = sim_secs.get(&sid).copied().unwrap_or(0.0);
                analytic.to_bits() != r.analytic_seconds.to_bits()
                    || simulated.to_bits() != r.simulated_seconds.to_bits()
            })
        });
        self.profile_ops += prof.total_ops();
        self.bet_nodes += bet.len() as u64;
        self.instrs += sim.stmt_instrs.values().sum::<u64>() + sim.lib_instrs.values().sum::<u64>();
        self.l1_misses += sim.stmt_l1_misses.values().sum::<u64>();
        self.records += reference.records.len() as u64;
        self.last_program = Some(prog);
        match mismatch {
            Some(k) => Err(format!("{} on {}: replayed record {k} differs", c.program.name, c.machine.name)),
            None => Ok(()),
        }
    }

    /// The VM floor under the simulator: the same program, inputs and
    /// seed through `compile_fused` + `run_vm` with no tracer.
    fn probe(&mut self, i: usize, tr: &Trace) -> Result<(), String> {
        let prog = self.last_program.take().ok_or("probe without a traced op")?;
        let (_, inputs) = &self.combos[self.order[i]].program.scales[0];
        tr.time("minilang.vm", || {
            let vm = ml::compile_fused(&prog)?;
            ml::run_vm_with_limits_seeded(&vm, inputs, ml::NullTracer, ml::Limits::default(), self.seed)
        })
        .map(|_| ())
        .map_err(|e| e.to_string())
    }

    fn layers(&self, s: &Summary) -> Vec<(&'static str, f64)> {
        let ops = s.ops.max(1) as f64;
        let analytic_ms: f64 = ANALYTIC.iter().map(|n| s.ms_per_op(n)).sum();
        let simulate_ms = s.ms_per_op("sim.simulate");
        let model_total_err =
            self.combos.iter().filter_map(|c| c.reference.as_ref()).map(|r| total_err(&r.records)).fold(0.0, f64::max);
        vec![
            ("minilang.parse_ms", s.ms_per_op("minilang.parse")),
            ("minilang.profile_ms", s.ms_per_op("minilang.profile")),
            ("minilang.profile_mops_per_s", crate::trace::per_us(self.profile_ops, s.total_ns("minilang.profile"))),
            ("minilang.translate_ms", s.ms_per_op("minilang.translate")),
            ("bet.build_ms", s.ms_per_op("bet.build")),
            ("bet.nodes", self.bet_nodes as f64 / ops),
            ("hotspot.plan_ms", s.ms_per_op("hotspot.plan")),
            ("pipeline.project_ms", s.ms_per_op("pipeline.project")),
            ("sim.simulate_ms", simulate_ms),
            ("sim.instrs", self.instrs as f64 / ops),
            ("sim.l1_misses", self.l1_misses as f64 / ops),
            ("sim.minstr_per_s", crate::trace::per_us(self.instrs, s.total_ns("sim.simulate"))),
            ("minilang.vm_ms", s.ms_per_op("minilang.vm")),
            // tracer and cache model: the simulation minus its VM floor
            ("sim.self_ms", simulate_ms - s.ms_per_op("minilang.vm")),
            ("oracle.analytic_ms", analytic_ms),
            // untraced `build_corpus` minus the replayed analytic and
            // simulated stages: session store, fold, records, JSON
            ("oracle.self_ms", s.ms_per_op(UNTRACED) - analytic_ms - simulate_ms),
            ("oracle.records", self.records as f64 / ops),
            ("model_total_err", model_total_err),
        ]
    }

    fn corrupt(&mut self) {
        if let Some(r) = self.combos.iter_mut().find_map(|c| c.reference.as_mut()) {
            r.digest ^= 1;
        }
    }
}
