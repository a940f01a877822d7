//! Hot spot portability: the same application has *different* hot spots on
//! different machines (paper Section I and Table I).
//!
//! Profiling knowledge gained on one system does not transfer: this example
//! models SORD once, projects it on BG/Q and Xeon, and shows how the
//! rankings diverge — then verifies each projection against that machine's
//! ground-truth simulation.
//!
//! ```sh
//! cargo run --release --example cross_machine
//! ```

use xflow::{bgq, compare, xeon, DesignSpace, ModeledApp, Scale, SweepOptions};
use xflow_hotspot::top_k_overlap;

fn main() {
    let w = xflow_workloads::sord();
    println!("workload: {} — {}", w.name, w.description);

    // one modeling pass serves every target machine
    let app = ModeledApp::from_workload(&w, Scale::Test).expect("pipeline");

    // both machines projected from the same plan, in one sweep
    let machines = [bgq(), xeon()];
    let sweep = DesignSpace::from_machines(machines.clone()).sweep_opts(&app, SweepOptions::with_threads(2));
    let mut rankings = Vec::new();
    for (m, point) in machines.iter().zip(&sweep.points) {
        // drill into this point: hydrate its full projection from the
        // sweep's columnar arena
        let mp = sweep.hydrate(&app, point.index);
        let measured = app.measure_on(Some(&w), m).expect("simulate");
        let cmp = compare(&mp, &measured, 10);

        println!("\n=== {} ===", m.name);
        println!("{}", cmp.format_table(&app.units, 8));
        println!(
            "model-vs-measured top-10 overlap: {} / 10, Q(5) = {:.1}%",
            cmp.top_k_overlap(10),
            cmp.quality_at(5) * 100.0
        );
        rankings.push((m.name.clone(), measured.ranking()));
    }

    // the paper's portability observation: measured hot spot sets differ
    let (qa, qb) = (&rankings[0], &rankings[1]);
    let shared = top_k_overlap(&qa.1, &qb.1, 10);
    println!("\nmeasured top-10 overlap between {} and {}: {shared} / 10", qa.0, qb.0);
    println!("order on {:6}: {:?}", qa.0, qa.1.iter().take(6).map(|&s| app.units.name(s)).collect::<Vec<_>>());
    println!("order on {:6}: {:?}", qb.0, qb.1.iter().take(6).map(|&s| app.units.name(s)).collect::<Vec<_>>());
    println!("\n→ empirical knowledge from one machine is not portable;");
    println!("  the model tracks each machine's own ordering instead.");
}
