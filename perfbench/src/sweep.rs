//! `design-sweep`: design-space exploration, the paper's co-design use.
//!
//! The five paper workloads are modeled in setup; the seed orders the mix
//! of 7 grids × 5 apps (35 ops, so p50 and p90 fall inside one op's
//! samples rather than on the edge between two). Each op builds one
//! `DesignSpace::grid`, sweeps it with `sweep_opts` on `nproc` workers,
//! ranks the top ten and hydrates the best point. The grids span 64–4096
//! points over uniform and varying `cores` and over power-of-two, other and
//! mixed values, so lane groups take the `ExactDiv` multiply, divide and
//! mixed paths. The columnar kernel, lanes and sweep pool do the work;
//! minilang, bet, store and sim do none.

use crate::trace::{Summary, Trace};
use crate::Workload;
use xflow::{bgq, xeon, Axis, DesignSpace, MachineModel, ModeledApp, PerfModel, Roofline, Session, SweepOptions};

const POW2_BW: [f64; 8] = [8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0];
const ODD_BW: [f64; 16] =
    [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0, 150.0, 160.0];
const MIXED_BW: [f64; 16] =
    [16.0, 20.0, 32.0, 45.0, 64.0, 90.0, 128.0, 180.0, 256.0, 360.0, 512.0, 720.0, 1024.0, 1440.0, 2048.0, 2880.0];
const POW2_MLP: [f64; 16] =
    [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0, 16384.0, 32768.0];
const MIXED_MLP: [f64; 16] =
    [2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 96.0, 128.0, 192.0, 256.0, 384.0];
const ODD_FREQ: [f64; 16] = [1.1, 1.3, 1.5, 1.7, 1.9, 2.1, 2.3, 2.5, 2.7, 2.9, 3.1, 3.3, 3.5, 3.7, 3.9, 4.1];

/// One grid of the mix: base machine plus axes (name, values).
struct GridSpec {
    base: MachineModel,
    axes: Vec<(&'static str, &'static [f64])>,
}

impl GridSpec {
    fn space(&self) -> Result<DesignSpace, String> {
        let axes = self.axes.iter().map(|(name, values)| Axis::by_name(name, values)).collect::<Result<Vec<_>, _>>()?;
        Ok(DesignSpace::grid(self.base.clone(), axes))
    }
}

fn grids() -> Vec<GridSpec> {
    let g = |base: MachineModel, axes: Vec<(&'static str, &'static [f64])>| GridSpec { base, axes };
    vec![
        // 64 points, power-of-two values only: all-multiply lanes
        g(bgq(), vec![("dram_bw_gbs", &POW2_BW), ("mlp", &POW2_MLP[..8])]),
        // 128 points, non-power-of-two values only: all-divide lanes
        g(xeon(), vec![("dram_bw_gbs", &ODD_BW), ("freq_ghz", &ODD_FREQ[..8])]),
        // 256 points, uniform cores, mixed values: mixed lanes
        g(
            bgq(),
            vec![
                ("cores", &[16.0]),
                ("dram_bw_gbs", &MIXED_BW[..8]),
                ("mlp", &MIXED_MLP[..8]),
                ("vector_lanes", &[2.0, 4.0, 8.0, 16.0]),
            ],
        ),
        // 512 points, varying power-of-two cores
        g(xeon(), vec![("cores", &[4.0, 8.0, 16.0, 32.0]), ("dram_bw_gbs", &POW2_BW), ("mlp", &POW2_MLP)]),
        // 1024 points, varying non-power-of-two cores
        g(bgq(), vec![("cores", &[6.0, 12.0, 24.0, 48.0]), ("dram_bw_gbs", &ODD_BW), ("freq_ghz", &ODD_FREQ)]),
        // 2048 points, uniform cores, power-of-two values
        g(
            bgq(),
            vec![
                ("cores", &[16.0]),
                ("dram_bw_gbs", &POW2_BW),
                ("mlp", &POW2_MLP),
                ("vector_lanes", &[2.0, 4.0, 8.0, 16.0]),
                ("freq_ghz", &[1.0, 2.0, 4.0, 8.0]),
            ],
        ),
        // 4096 points, mixed cores and values on every axis
        g(
            xeon(),
            vec![
                ("cores", &[8.0, 12.0, 16.0, 24.0]),
                ("dram_bw_gbs", &MIXED_BW),
                ("mlp", &MIXED_MLP),
                ("vector_lanes", &[2.0, 3.0, 4.0, 8.0]),
            ],
        ),
    ]
}

/// What a correct sweep of one (grid, app) pair returns, from a
/// single-threaded reference sweep and a scalar plan evaluation in setup.
struct Expect {
    fingerprint: u64,
    best: usize,
    best_total: u64,
}

pub struct DesignSweep {
    apps: Vec<ModeledApp>,
    grids: Vec<GridSpec>,
    /// `(grid, app)` pairs in seeded order.
    order: Vec<(usize, usize)>,
    expect: Vec<Expect>,
    threads: usize,
    /// The design space of the last traced op, probed after it.
    last_space: Option<DesignSpace>,
    points: u64,
}

impl DesignSweep {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let session = Session::new();
        let mut apps = Vec::new();
        for w in xflow::xflow_workloads::all() {
            apps.push(session.model_workload(&w, xflow::Scale::Test).map_err(|e| e.to_string())?);
        }
        for app in &apps {
            app.kernel();
        }
        let grids = grids();
        let mut order: Vec<(usize, usize)> =
            (0..grids.len()).flat_map(|g| (0..apps.len()).map(move |a| (g, a))).collect();
        crate::shuffle(&mut order, &mut crate::rng(seed, 2));
        let mut expect = Vec::with_capacity(order.len());
        for &(g, a) in &order {
            let space = grids[g].space()?;
            let sweep = space.sweep_opts(&apps[a], SweepOptions::with_threads(1));
            let cols = sweep.columns().ok_or("reference sweep took the per-point path")?;
            let best = sweep.best().ok_or("empty grid")?.index;
            let scalar = apps[a].plan().evaluate(&space.machines()[best], &Roofline);
            expect.push(Expect { fingerprint: cols.fingerprint(), best, best_total: scalar.total_time.to_bits() });
        }
        Ok(Self { apps, grids, order, expect, threads: crate::nproc(), last_space: None, points: 0 })
    }

    fn check(&self, i: usize, fingerprint: Option<u64>, best: usize, total: f64) -> Result<(), String> {
        let e = &self.expect[i];
        if fingerprint != Some(e.fingerprint) {
            return Err(format!("columns fingerprint {fingerprint:?} != reference {:#x}", e.fingerprint));
        }
        if best != e.best || total.to_bits() != e.best_total {
            return Err(format!(
                "best point {best} ({total:e}) != reference {} ({:e})",
                e.best,
                f64::from_bits(e.best_total)
            ));
        }
        Ok(())
    }
}

impl Workload for DesignSweep {
    fn cycle_len(&self) -> usize {
        self.order.len()
    }

    fn cycles_per_second(&self) -> f64 {
        10.0
    }

    fn op(&mut self, i: usize) -> Result<(), String> {
        let (g, a) = self.order[i];
        let app = &self.apps[a];
        let space = self.grids[g].space()?;
        let sweep = space.sweep_opts(app, SweepOptions::with_threads(self.threads));
        let top = sweep.top(10);
        let best = top.first().ok_or("empty sweep")?.index;
        let mp = sweep.hydrate(app, best);
        self.check(i, sweep.columns().map(|c| c.fingerprint()), best, mp.total)
    }

    fn traced_op(&mut self, i: usize, tr: &Trace) -> Result<(), String> {
        let (g, a) = self.order[i];
        let app = &self.apps[a];
        let space = tr.time("sweep.grid", || self.grids[g].space())?;
        let sweep = tr.time("sweep.sweep", || space.sweep_opts(app, SweepOptions::with_threads(self.threads)));
        let top = tr.time("sweep.rank", || sweep.top(10));
        let best = top.first().ok_or("empty sweep")?.index;
        let mp = tr.time("sweep.hydrate", || sweep.hydrate(app, best));
        self.points += space.len() as u64;
        let r = self.check(i, sweep.columns().map(|c| c.fingerprint()), best, mp.total);
        self.last_space = Some(space);
        r
    }

    /// Re-evaluate the op's grid on one thread, split into machine
    /// specialization and the columnar kernel, and check the columns are
    /// bit-identical to the pooled sweep's.
    fn probe(&mut self, i: usize, tr: &Trace) -> Result<(), String> {
        let space = self.last_space.take().ok_or("probe without a traced op")?;
        let (_, a) = self.order[i];
        let specs = tr
            .time("hwmodel.specialize", || {
                space.machines().iter().map(|m| Roofline.specialize(m)).collect::<Option<Vec<_>>>()
            })
            .ok_or("roofline did not specialize")?;
        let cols = tr.time("hotspot.columns", || self.apps[a].kernel().evaluate_columns(&specs));
        if cols.fingerprint() != self.expect[i].fingerprint {
            return Err("single-thread columns differ from the pooled sweep".into());
        }
        Ok(())
    }

    fn layers(&self, s: &Summary) -> Vec<(&'static str, f64)> {
        let ops = s.ops.max(1) as f64;
        let specialize_ms = s.ms_per_op("hwmodel.specialize");
        let columns_ms = s.ms_per_op("hotspot.columns");
        vec![
            ("sweep.grid_ms", s.ms_per_op("sweep.grid")),
            ("hwmodel.specialize_us", specialize_ms * 1e3),
            ("hotspot.columns_ms", columns_ms),
            ("hotspot.ns_per_point", s.total_ns("hotspot.columns") as f64 / self.points.max(1) as f64),
            // pool, chunking and install: the pooled sweep minus the
            // single-thread specialize + kernel work spread over its workers
            ("sweep.self_ms", s.ms_per_op("sweep.sweep") - (specialize_ms + columns_ms) / self.threads as f64),
            ("sweep.rank_ms", s.ms_per_op("sweep.rank")),
            ("sweep.hydrate_ms", s.ms_per_op("sweep.hydrate")),
            ("sweep.points", self.points as f64 / ops),
        ]
    }

    fn corrupt(&mut self) {
        self.expect[0].fingerprint ^= 1;
    }
}
