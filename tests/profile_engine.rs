//! The production profiler (`ml::profile`, the fused bytecode VM) against
//! the tree-walking reference interpreter, end to end through the session.
//!
//! Every program is modeled twice: once by `Session::model` (which
//! profiles on the VM) and once by a reference pipeline built by hand from
//! the interpreter (`ml::run_with_limits_seeded` → translate → BET →
//! projection plan). The two must agree exactly: the same profile totals
//! and printed values, `to_bits`-equal BG/Q and Xeon projection totals,
//! and — for programs that fail — the same error message.

#[path = "../crates/minilang/tests/corpus/mod.rs"]
mod corpus;

use xflow::xflow_hotspot::ProjectionPlan;
use xflow::xflow_minilang as ml;
use xflow::xflow_validate::{generate, render, GenConfig};
use xflow::{
    bgq, default_library, fold_projection, initial_env, xeon, InputSpec, PipelineError, Roofline, Scale, Session, Units,
};

/// Generated programs checked besides the paper workloads.
const GENERATED: u64 = 32;

/// What the reference pipeline yields for one program.
struct Reference {
    total_ops: u64,
    printed: Vec<f64>,
    /// `to_bits` of the BG/Q and Xeon projection totals.
    totals: [u64; 2],
}

fn reference(src: &str, inputs: &InputSpec) -> Result<Reference, PipelineError> {
    let program = ml::parse(src)?;
    let (profile, _, _) =
        ml::run_with_limits_seeded(&program, inputs, ml::NullTracer, ml::Limits::default(), ml::DEFAULT_SEED)?;
    let translation = ml::translate(&program, &profile).map_err(PipelineError::Translate)?;
    let bet = xflow::xflow_bet::build(&translation.skeleton, &initial_env(&translation, inputs))?;
    let plan = ProjectionPlan::new(&bet, default_library());
    let units = Units::from_skeleton(&translation.skeleton);
    let totals = [bgq(), xeon()].map(|m| fold_projection(&units, &m, plan.evaluate(&m, &Roofline)).total.to_bits());
    Ok(Reference { total_ops: profile.total_ops(), printed: profile.printed, totals })
}

/// Model `src` both ways and require identical results.
fn assert_engines_agree(what: &str, src: &str, inputs: &InputSpec) {
    let want = reference(src, inputs).unwrap_or_else(|e| panic!("{what}: reference pipeline failed: {e}"));
    let app = Session::new().model(src, inputs).unwrap_or_else(|e| panic!("{what}: session failed: {e}"));
    assert_eq!(app.profile.total_ops(), want.total_ops, "{what}: total ops");
    let printed = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(printed(&app.profile.printed), printed(&want.printed), "{what}: printed");
    let got = [bgq(), xeon()].map(|m| app.project_on(&m).total.to_bits());
    assert_eq!(got, want.totals, "{what}: bgq/xeon totals");
}

#[test]
fn paper_workloads_agree_with_the_reference() {
    for w in xflow::xflow_workloads::all() {
        assert_engines_agree(w.name, w.source, &w.inputs(Scale::Test));
    }
}

#[test]
fn generated_programs_agree_with_the_reference() {
    let cfg = GenConfig::default();
    for seed in 0..GENERATED {
        let src = render(&generate(seed, &cfg));
        assert_engines_agree(&format!("gen seed {seed}"), &src, &InputSpec::new());
    }
}

#[test]
fn bad_calls_in_dead_code_still_model() {
    for src in corpus::DEAD_CODE {
        assert_engines_agree(src, src, &InputSpec::new());
    }
}

#[test]
fn failing_programs_report_the_reference_error() {
    for (src, msg) in corpus::FAILING {
        let want = reference(src, &InputSpec::new()).err().unwrap_or_else(|| panic!("{src}: reference ran"));
        let got = Session::new().model(src, &InputSpec::new()).err().unwrap_or_else(|| panic!("{src}: session ran"));
        assert_eq!(got.to_string(), want.to_string(), "{src}");
        assert_eq!(got.to_string(), format!("profiled run: {msg}"), "{src}");
    }
}
