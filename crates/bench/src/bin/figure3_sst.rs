//! Experiment F3 — regenerate the paper's **Figure 3**: annual-average
//! sea surface temperature, (a) model output, (b) observations,
//! (c) model minus observations.
//!
//! The paper ran FOAM with CCM3 moist physics and compared against the
//! Shea–Trenberth–Reynolds climatology; we run the coupled model from
//! its climatological initial state and compare the time-mean SST over
//! every completed month (the streaming statistics' mean field; the
//! final SST for runs shorter than two months) against the synthetic
//! observed climatology (DESIGN.md §4). The published result to match in
//! *shape*: broad pattern captured, tight western-boundary gradients
//! smeared at this resolution, largest errors at high southern latitudes
//! where the ice treatment is crude.
//!
//! ```sh
//! cargo run --release -p foam-bench --bin figure3_sst [days] [n_atm_ranks]
//! ```

use foam::{run_coupled, sea_area_weights, FoamConfig, StreamStatsConfig, World};
use foam_bench::{arg_or, observed_sst, region_weights};
use foam_grid::Field2;
use foam_stats::ascii::{render_diff_map, render_map};
use foam_stats::pattern_stats;

fn main() {
    let days: f64 = arg_or(1, 60.0);
    let n_atm: usize = arg_or(2, 4);
    let mut cfg = FoamConfig::paper(n_atm, 1997);
    cfg.stream = Some(StreamStatsConfig::default());

    println!("=== Figure 3: sea surface temperature vs observations ===");
    println!("coupled run: {days} simulated days, {n_atm} atm ranks + 1 ocean rank\n");
    let out = run_coupled(&cfg, days);

    // Time-mean over every completed month (or the final field for
    // runs shorter than two months).
    let stream = out.stream.as_ref().expect("the stream was configured");
    let model_sst = match stream.mean_field() {
        Some(mean) if stream.months() >= 2 => Field2::from_vec(cfg.ocean.nx, cfg.ocean.ny, mean),
        _ => out.final_sst.clone(),
    };

    let world = World::earthlike();
    let (grid, mask, obs) = observed_sst(&cfg.ocean, &world);
    let mut diff = model_sst.clone();
    diff.axpy(-1.0, &obs);

    println!(
        "{}",
        render_map(&model_sst, Some(&mask), "(a) FOAM-RS annual-mean SST (°C)")
    );
    println!(
        "{}",
        render_map(
            &obs,
            Some(&mask),
            "(b) observations (synthetic climatology, °C)"
        )
    );
    println!(
        "{}",
        render_diff_map(&diff, Some(&mask), "(c) model minus observations (°C)")
    );

    let w = sea_area_weights(&grid, &mask);
    let stats = pattern_stats(model_sst.as_slice(), obs.as_slice(), &w);
    println!("global statistics (area-weighted over sea):");
    println!("  bias                {:>7.2} °C", stats.bias);
    println!("  RMSE                {:>7.2} °C", stats.rmse);
    println!("  pattern correlation {:>7.3}", stats.pattern_correlation);
    println!("  max |difference|    {:>7.2} °C", stats.max_abs_diff);

    // Regional breakdown, mirroring the paper's narrative.
    let bands = [
        ("tropics (|φ| < 20°)", -20.0..20.0),
        ("northern midlat", 20.0..55.0),
        ("southern midlat", -55.0..-20.0),
        ("Antarctic band", -90.0..-55.0),
    ];
    println!("\nregional RMSE (the paper: errors worst in the Antarctic):");
    for (name, band) in bands {
        let wb = region_weights(&grid, &mask, &world, None, band);
        if wb.iter().sum::<f64>() > 0.0 {
            let s = pattern_stats(model_sst.as_slice(), obs.as_slice(), &wb);
            println!("  {name:<22} {:>6.2} °C (bias {:+.2})", s.rmse, s.bias);
        }
    }
    println!(
        "\nrun throughput: {:.0}× real time on {} ranks",
        out.model_speedup,
        cfg.n_ranks()
    );
}
