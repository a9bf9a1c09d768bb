//! Experiment §6 — "Results and Refinements": the paper reports that the
//! first FOAM runs, with CCM2 physics, represented the tropical Pacific
//! poorly, and that adopting the CCM3 moist physics (deep convection,
//! re-evaporation of stratiform rain, wind-dependent ocean roughness)
//! "vastly improved its representation of the tropical Pacific".
//!
//! We run the same coupled model twice — once per physics vintage — and
//! compare the tropical-Pacific SST error against the climatology.
//!
//! ```sh
//! cargo run --release -p foam-bench --bin results_refinements [days]
//! ```

use foam::{run_coupled, FoamConfig, World};
use foam_bench::{arg_or, observed_sst, region_weights};
use foam_grid::Basin;
use foam_physics::PhysicsConfig;
use foam_stats::pattern_stats;

fn main() {
    let days: f64 = arg_or(1, 30.0);
    println!("=== §6 Results and Refinements: CCM2 vs CCM3 physics ===");
    println!("two coupled runs of {days} simulated days, identical but for the moist physics\n");

    let world = World::earthlike();
    let base = FoamConfig::paper(4, 1996);
    let (grid, mask, obs) = observed_sst(&base.ocean, &world);

    // Weights restricted to the tropical Pacific (the paper's region of
    // concern: the cold-tongue / warm-pool structure, El Niño country).
    let w_tropical_pacific =
        region_weights(&grid, &mask, &world, Some(Basin::Pacific), -15.0..15.0);

    let mut report = Vec::new();
    for (label, phys) in [
        ("CCM2 physics (original)", PhysicsConfig::ccm2()),
        ("CCM3 physics (adopted) ", PhysicsConfig::default()),
    ] {
        let mut cfg = base.clone();
        cfg.atm.physics = phys;
        let out = run_coupled(&cfg, days);
        let stats = pattern_stats(
            out.final_sst.as_slice(),
            obs.as_slice(),
            &w_tropical_pacific,
        );
        println!(
            "{label}: tropical-Pacific SST bias {:+.2} °C, RMSE {:.2} °C, \
             mean SST {:.2} °C ({:.0}× real time)",
            stats.bias,
            stats.rmse,
            out.mean_sst_series.last().unwrap(),
            out.model_speedup
        );
        report.push(stats.rmse);
    }
    println!();
    if report[1] < report[0] {
        println!(
            "CCM3 physics improves the tropical Pacific by {:.0} % in RMSE — the paper's §6 \
             finding reproduced in direction.",
            100.0 * (1.0 - report[1] / report[0])
        );
    } else {
        println!(
            "CCM3 RMSE {:.2} vs CCM2 {:.2}: improvement not resolved at this run length — \
             lengthen the run (the paper's comparison is multi-year).",
            report[1], report[0]
        );
    }
}
