//! End-to-end benchmark of the xflow pipeline.
//!
//! ```text
//! xflow-perfbench --workload <cold-model|design-sweep|ground-truth|serve-mix>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: set up, then a timed phase of a fixed
//! number of whole mix cycles in a closed loop, every op's output checked.
//! `--trace 1` replaces the timed phase by a traced one that replays the
//! same ops stage by stage under benchmark-owned spans and reports the
//! per-layer metrics instead of the end-to-end ones. The last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/README.md`.

mod cold;
mod serve;
mod sweep;
mod trace;
mod truth;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use trace::{Summary, Trace};
use xflow::xflow_validate::gen::Rng;

/// Setups per untraced run, each followed by a fifth of the timed cycles.
const SETUP_REPS: usize = 5;
/// Fewest ops the end-to-end metrics may rest on, so ≥ 10 samples lie
/// beyond p90.
const MIN_OPS: usize = 100;
/// Share of each op's samples, fastest first, the end-to-end metrics are
/// taken over (README: host contention).
const FAST_SHARE: f64 = 0.25;
/// Error messages kept for stderr.
const MAX_ERRORS: usize = 8;
/// Fastest-quarter time of one host probe on the reference host (2-vCPU
/// Xeon VM, 2.1 GHz) when it is quiet; time metrics are scaled to it.
const PROBE_REF_MS: f64 = 0.45;
/// Where traced runs write their Chrome trace and per-layer table,
/// relative to the working directory (the repository root).
const OUT_DIR: &str = "perfbench/out";

/// End-to-end metrics, printed by untraced runs (name, unit).
const END_TO_END: [(&str, &str); 5] =
    [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics, printed by traced runs (name, unit). A layer a
/// workload does not run reads 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("minilang.parse_ms", "ms"),
    ("minilang.profile_ms", "ms"),
    ("minilang.profile_mops_per_s", "Mop/s"),
    ("minilang.profile_share", "ratio"),
    ("minilang.translate_ms", "ms"),
    ("bet.build_ms", "ms"),
    ("bet.nodes", "count"),
    ("hotspot.plan_ms", "ms"),
    ("hotspot.kernel_ms", "ms"),
    ("pipeline.project_ms", "ms"),
    ("session.self_ms", "ms"),
    ("store.misses", "count"),
    ("sweep.grid_ms", "ms"),
    ("hwmodel.specialize_us", "us"),
    ("hotspot.columns_ms", "ms"),
    ("hotspot.ns_per_point", "ns"),
    ("sweep.self_ms", "ms"),
    ("sweep.rank_ms", "ms"),
    ("sweep.hydrate_ms", "ms"),
    ("sweep.points", "count"),
    ("sim.simulate_ms", "ms"),
    ("sim.instrs", "count"),
    ("sim.l1_misses", "count"),
    ("sim.minstr_per_s", "Minstr/s"),
    ("minilang.vm_ms", "ms"),
    ("sim.self_ms", "ms"),
    ("oracle.analytic_ms", "ms"),
    ("oracle.self_ms", "ms"),
    ("oracle.records", "count"),
    ("model_total_err", "ratio"),
    ("serve.server_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.route_project_ms", "ms"),
    ("serve.route_explain_ms", "ms"),
    ("serve.route_sweep_ms", "ms"),
    ("serve.route_metrics_ms", "ms"),
    ("serve.resp_bytes", "bytes"),
    ("serve.non2xx", "count"),
    ("store.hit_ratio", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("trace.coverage", "ratio"),
];

/// One benchmark workload: a fixed op mix, replayed in whole cycles.
pub trait Workload {
    /// Ops in one cycle of the mix.
    fn cycle_len(&self) -> usize;
    /// Nominal whole cycles per second of `--seconds` on the reference
    /// host; the timed phase runs a fixed count derived from it.
    fn cycles_per_second(&self) -> f64;
    /// Run op `i` of the cycle untraced; `Err` when its output is wrong.
    fn op(&mut self, i: usize) -> Result<(), String>;
    /// Replay op `i` under layer spans on `tr` (the harness wraps it in the
    /// `op` span), checking its results bit-identical to the untraced op.
    fn traced_op(&mut self, i: usize, tr: &Trace) -> Result<(), String>;
    /// Optional single-layer measurement taken after traced op `i`,
    /// outside its `op` span.
    fn probe(&mut self, _i: usize, _tr: &Trace) -> Result<(), String> {
        Ok(())
    }
    /// Per-layer metrics of the traced phase.
    fn layers(&self, traced: &Summary) -> Vec<(&'static str, f64)>;
    /// Make one expected output wrong (self-test of the output checks).
    #[cfg_attr(not(test), allow(dead_code))]
    fn corrupt(&mut self);
}

/// Deterministic stream `stream` of the run's seed.
pub fn rng(seed: u64, stream: u64) -> Rng {
    let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    r.next();
    r
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// `count` generated programs `(name, source)` whose generator seeds
/// derive from the run's seed.
pub fn generated_sources(seed: u64, count: usize) -> Vec<(String, String)> {
    let cfg = xflow::xflow_validate::GenConfig::default();
    let mut r = rng(seed, 0x6E6);
    (0..count)
        .map(|_| {
            let s = r.next();
            (format!("gen-{s:016x}"), xflow::xflow_validate::render(&xflow::xflow_validate::generate(s, &cfg)))
        })
        .collect()
}

/// Host parallelism the workloads may keep busy.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// FNV-1a digest of a byte string.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The library calibration every setup pays once: the first setup builds
/// the process-wide registry through `default_library()`, later setups
/// re-run the same calibration and must reproduce it exactly.
pub fn calibrate(first: bool) -> Result<(), String> {
    let libs = xflow::default_library();
    if first {
        return Ok(());
    }
    let again = xflow::xflow_sim::calibrate_library(512);
    if again.fingerprint() != libs.fingerprint() {
        return Err("library calibration is not reproducible".into());
    }
    Ok(())
}

/// Per-op results of one timed phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// `(op index in the cycle, latency ns)`, in execution order.
    pub lat: Vec<(usize, u64)>,
    /// One host probe per timed cycle, taken before it.
    pub probe_ns: Vec<u64>,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Phase {
    pub fn ops(&self) -> usize {
        self.lat.len()
    }

    pub fn busy_s(&self) -> f64 {
        self.lat.iter().map(|&(_, ns)| ns).sum::<u64>() as f64 / 1e9
    }

    /// Append a later phase's samples.
    fn absorb(&mut self, later: Phase) {
        self.lat.extend(later.lat);
        self.probe_ns.extend(later.probe_ns);
        self.failed += later.failed;
        let room = MAX_ERRORS.saturating_sub(self.errors.len());
        self.errors.extend(later.errors.into_iter().take(room));
    }

    fn record(&mut self, i: usize, ns: u64, result: Result<(), String>) {
        self.lat.push((i, ns));
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(format!("op {i}: {e}"));
            }
        }
    }

    /// `(ops/s, p50 ms, p90 ms, ops)` over the fastest `share` of each op's
    /// samples (never fewer than `MIN_OPS` ops in all). Every op of the mix
    /// keeps the same number of samples, so the mix's composition holds.
    /// How much slower than the reference host the host probe ran over
    /// this phase (fastest quarter of its samples).
    fn host_factor(&self) -> f64 {
        let ms: Vec<f64> = self.probe_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        percentile(&ms, FAST_SHARE) / PROBE_REF_MS
    }

    fn steady(&self, n: usize, share: f64) -> (f64, f64, f64, usize) {
        let cycles = self.lat.len() / n;
        let k = ((cycles as f64 * share).ceil() as usize).max(MIN_OPS.div_ceil(n)).min(cycles);
        let mut kept: Vec<f64> = Vec::with_capacity(k * n);
        for i in 0..n {
            let mut ns: Vec<u64> = (0..cycles).map(|c| self.lat[c * n + i].1).collect();
            ns.sort_unstable();
            kept.extend(ns[..k].iter().map(|&v| v as f64 / 1e6));
        }
        let busy_s = kept.iter().sum::<f64>() / 1e3;
        ((k * n) as f64 / busy_s, percentile(&kept, 0.5), percentile(&kept, 0.9), k * n)
    }
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Build a workload's state (one setup, without the warm-up cycle).
pub fn setup(name: &str, seed: u64, first: bool) -> Result<Box<dyn Workload>, String> {
    calibrate(first)?;
    Ok(match name {
        "cold-model" => Box::new(cold::ColdModel::setup(seed)?),
        "design-sweep" => Box::new(sweep::DesignSweep::setup(seed)?),
        "ground-truth" => Box::new(truth::GroundTruth::setup(seed)?),
        "serve-mix" => Box::new(serve::ServeMix::setup(seed)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// One timed setup: fresh state plus exactly one warm-up cycle, whose ops
/// are checked into `warm`. Returns the state and the setup seconds.
fn setup_once(args: &Args, first: bool, warm: &mut Phase) -> Result<(Box<dyn Workload>, f64), String> {
    let t0 = Instant::now();
    let mut w = setup(&args.workload, args.seed, first)?;
    for i in 0..w.cycle_len() {
        let r = w.op(i);
        warm.record(i, 0, r);
    }
    Ok((w, t0.elapsed().as_secs_f64()))
}

/// The host probe: fixed work that calls no xflow code (ordered-map
/// inserts and a sum), timed before every timed cycle. The host's speed
/// drifts by tens of percent over minutes; the probe drifts with it, so
/// time metrics scaled by it stay comparable across runs.
fn host_probe_ns() -> u64 {
    let t0 = Instant::now();
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut x: u64 = 1;
    for i in 0..5_000u64 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        *map.entry(x >> 52).or_insert(0) += i;
    }
    std::hint::black_box(map.values().sum::<u64>());
    t0.elapsed().as_nanos() as u64
}

/// Run `cycles` whole cycles of `w`'s mix untraced, timing every op.
pub fn timed_phase(w: &mut dyn Workload, cycles: usize) -> Phase {
    let n = w.cycle_len();
    let mut phase = Phase { lat: Vec::with_capacity(cycles * n), ..Phase::default() };
    for _ in 0..cycles {
        phase.probe_ns.push(host_probe_ns());
        for i in 0..n {
            let s = Instant::now();
            let r = w.op(i);
            phase.record(i, s.elapsed().as_nanos() as u64, r);
        }
    }
    phase
}

/// Replay `cycles` whole cycles under spans. Each traced op is followed
/// by the workload's probe and by the same op untraced (one
/// `op.untraced` span), so traced and untraced costs are compared op by
/// op, moments apart.
fn traced_phase(w: &mut dyn Workload, cycles: usize, tr: &Trace) -> Phase {
    let n = w.cycle_len();
    let mut phase = Phase::default();
    for _ in 0..cycles {
        for i in 0..n {
            let s = Instant::now();
            let r = {
                let _op = tr.span(trace::OP);
                w.traced_op(i, tr)
            };
            let r = r.and_then(|_| w.probe(i, tr)).and_then(|_| tr.time(trace::UNTRACED, || w.op(i)));
            phase.record(i, s.elapsed().as_nanos() as u64, r);
        }
    }
    phase
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn host_json() -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let rustc = std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\": {}, \"rustc\": \"{}\", \"kernel\": \"{}\", \"profile\": \"{}\"}}",
        nproc(),
        rustc.trim().replace('"', "'"),
        kernel.trim().replace('"', "'"),
        if cfg!(debug_assertions) { "debug" } else { "release" }
    )
}

fn print_phase(args: &Args, cycles: usize, n: usize, phase: &Phase, setup_s: &[f64]) {
    println!(
        "{}: workload={} seed={} cycles={} ops_per_cycle={} samples={} busy_s={:.3} setup_s={:?}",
        if args.trace { "traced" } else { "timed" },
        args.workload,
        args.seed,
        cycles,
        n,
        phase.ops(),
        phase.busy_s(),
        setup_s
    );
    if !args.trace {
        let (ops_per_s, p50, p90, _) = phase.steady(n, FAST_SHARE);
        println!("unscaled: ops_per_s={ops_per_s} op_p50_ms={p50} op_p90_ms={p90}");
        let (ops_per_s, p50, p90, _) = phase.steady(n, 1.0);
        println!("unscaled, all samples: ops_per_s={ops_per_s} op_p50_ms={p50} op_p90_ms={p90}");
        println!("host factor: {}", phase.host_factor());
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn run(args: &Args) -> Result<(bool, u64, u64, Metrics), String> {
    println!("host: {}", host_json());
    let mut warm = Phase::default();
    let (mut w, first_setup) = setup_once(args, true, &mut warm)?;
    let mut setup_s = vec![first_setup];
    let n = w.cycle_len();
    let min_cycles = (MIN_OPS.div_ceil(n) as f64 / FAST_SHARE).ceil() as usize;
    let cycles = ((args.seconds as f64 * w.cycles_per_second()).round() as usize).max(min_cycles);
    // the traced phase runs each op twice plus probes: a quarter of the
    // cycles keeps its length and its trace file modest
    let traced_cycles = (cycles / 4).max(MIN_OPS.div_ceil(n));

    let (phase, metrics): (Phase, Metrics) = if args.trace {
        let tr = Trace::new();
        let traced = traced_phase(w.as_mut(), traced_cycles, &tr);
        print_phase(args, traced_cycles, n, &traced, &setup_s);
        let snap = tr.snapshot();
        let summary = Summary::from_snapshot(&snap);
        let out = Path::new(OUT_DIR);
        std::fs::create_dir_all(out).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
        let trace_path = out.join(format!("{}-trace.json", args.workload));
        std::fs::write(&trace_path, snap.to_chrome_json())
            .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
        let table = summary.table();
        let table_path = out.join(format!("{}-layers.txt", args.workload));
        std::fs::write(&table_path, &table).map_err(|e| format!("cannot write {}: {e}", table_path.display()))?;
        println!("trace: {}", trace_path.display());
        print!("{table}");

        let mut layer: BTreeMap<&str, f64> = w.layers(&summary).into_iter().collect();
        layer.insert("obs.trace_overhead", summary.trace_overhead());
        layer.insert("trace.coverage", summary.coverage());
        if let Some(name) = layer.keys().find(|name| !PER_LAYER.iter().any(|(n, _)| n == *name)) {
            return Err(format!("workload reported unlisted per-layer metric {name}"));
        }
        let metrics =
            PER_LAYER.iter().map(|&(name, unit)| (name, layer.get(name).copied().unwrap_or(0.0), unit)).collect();
        (traced, metrics)
    } else {
        // the cycles run in SETUP_REPS segments, each on a freshly set-up
        // state (one state alive at a time), so the setups sample the host
        // at moments spread over the run
        let mut untraced = Phase::default();
        for seg in 0..SETUP_REPS {
            if seg > 0 {
                drop(w);
                let (fresh, secs) = setup_once(args, false, &mut warm)?;
                setup_s.push(secs);
                w = fresh;
            }
            let seg_cycles = cycles * (seg + 1) / SETUP_REPS - cycles * seg / SETUP_REPS;
            untraced.absorb(timed_phase(w.as_mut(), seg_cycles));
        }
        print_phase(args, cycles, n, &untraced, &setup_s);
        let (ops_per_s, p50, p90, _) = untraced.steady(n, FAST_SHARE);
        let f = untraced.host_factor();
        let values = [percentile(&setup_s, FAST_SHARE) / f, ops_per_s * f, p50 / f, p90 / f, peak_rss_mb()];
        let metrics = END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name, v, unit)).collect();
        (untraced, metrics)
    };
    // a traced op runs twice: replayed, then untraced
    let attempted = (warm.ops() + phase.ops() * if args.trace { 2 } else { 1 }) as u64;
    let failed = warm.failed + phase.failed;
    for e in warm.errors.iter().chain(&phase.errors) {
        eprintln!("failed: {e}");
    }
    Ok((failed == 0, attempted, failed, metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
                json_metrics(&metrics)
            );
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately wrong expectation must surface as failed ops, and the
    /// untouched expectations must pass, on every workload.
    #[test]
    fn corrupted_expectations_register_as_failed_ops() {
        for (k, name) in ["cold-model", "design-sweep", "ground-truth", "serve-mix"].into_iter().enumerate() {
            let mut w = setup(name, 7, k == 0).unwrap();
            let clean = timed_phase(w.as_mut(), 2);
            assert_eq!(clean.failed, 0, "{name}: {:?}", clean.errors);
            w.corrupt();
            let bad = timed_phase(w.as_mut(), 1);
            assert!(bad.failed > 0, "{name}: a wrong expected digest went unnoticed");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
    }
}
