//! Quickstart: run the coupled model for a few simulated days and print
//! what FOAM is about — the model speedup — plus a glance at the SST.
//!
//! ```sh
//! cargo run --release -p foam-examples --bin quickstart [days] [--telemetry report.json]
//! ```
//!
//! With `--telemetry <path>` the run collects phase timers and counters
//! and writes the cross-rank JSON report there (see DESIGN.md §9).

use foam::{run_coupled, FoamConfig, TelemetryConfig};
use foam_stats::ascii::render_map;

mod cli;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let days: f64 = cli::parse_or("days", args.get(1).filter(|a| !a.starts_with("--")), 3.0);
    let telemetry_path = args
        .iter()
        .position(|a| a == "--telemetry")
        .and_then(|i| args.get(i + 1).cloned());

    // The reduced demo configuration (R5 atmosphere, 32×24 ocean, 2
    // atmosphere ranks + 1 ocean rank). Swap in `FoamConfig::paper(16, 7)`
    // for the paper's production 17-node setup.
    let mut cfg = FoamConfig::tiny(7);
    if let Some(path) = &telemetry_path {
        cfg.telemetry = TelemetryConfig::to_file(path);
    }

    println!(
        "FOAM-RS quickstart: {} atmosphere rank(s) + 1 ocean rank, {days} simulated day(s)…",
        cfg.n_atm_ranks
    );
    let out = run_coupled(&cfg, days);

    println!();
    println!(
        "simulated {:.1} days in {:.2} s wall → model speedup {:.0}× real time",
        out.sim_seconds / 86_400.0,
        out.wall_seconds,
        out.model_speedup
    );
    println!(
        "mean SST: start {:.2} °C → end {:.2} °C; sea-ice fraction {:.1} %",
        out.mean_sst_series.first().unwrap(),
        out.mean_sst_series.last().unwrap(),
        100.0 * out.ice_fraction
    );
    println!();
    let world = foam::World::earthlike();
    let mask = foam::OceanModel::effective_sea_mask(&cfg.ocean, &world);
    println!(
        "{}",
        render_map(
            &out.final_sst,
            Some(&mask),
            "Sea surface temperature (°C), L = land"
        )
    );
}
