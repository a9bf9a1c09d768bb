//! Experiment F4 — regenerate the paper's **Figure 4**: "Two basin
//! variability… a pattern (obtained by VARIMAX rotation of empirical
//! orthogonal function decomposition) that accounts for fully 15 percent
//! of 60 month low-pass filtered variance in sea surface temperature",
//! with a century-scale time series correlating the North Atlantic and
//! North Pacific.
//!
//! The coupled model runs for the requested number of simulated years at
//! the reduced resolution (wall time: roughly a couple of minutes per
//! simulated year-decade on one core), folding each monthly-mean SST
//! field into the driver's streaming statistics; the monthly anomalies
//! are detrended, low-pass filtered, decomposed and rotated off the
//! stream. At least two years are needed: a shorter run exits with
//! status 2 before integrating anything.
//!
//! ```sh
//! cargo run --release -p foam-bench --bin figure4_variability [years] [--seed N]
//! ```
//!
//! `--seed` varies the atmosphere's initial perturbation, so ensembles
//! of the variability analysis can be generated without editing code.

use foam::{run_coupled, FoamConfig, StreamStatsConfig, World};
use foam_bench::{arg_or, flag_or, observed_sst, region_weights};
use foam_grid::{Basin, Field2};
use foam_stats::ascii::{render_diff_map, sparkline};
use foam_stats::correlation;

fn main() {
    let years: f64 = arg_or(1, 8.0);
    let seed: u64 = flag_or("--seed", 1914);
    // Removing the annual cycle needs two years of months; refuse a
    // shorter run before integrating it.
    if years.is_nan() || years < 2.0 {
        eprintln!("error: argument 1: {years} simulated years, the analysis needs at least 2");
        std::process::exit(2);
    }
    let mut cfg = FoamConfig::tiny(seed);
    // Each month adds at most one direction to the EOF sketch, so a rank
    // budget of one per month keeps all of them: the streamed analysis
    // is the batch EOF → VARIMAX pipeline on the full record.
    cfg.stream = Some(StreamStatsConfig {
        eof_rank: (years * 12.0).ceil() as usize,
    });

    println!("=== Figure 4: two-basin low-frequency variability ===");
    println!("coupled run: {years} simulated years (reduced configuration, seed {seed})\n");
    let out = run_coupled(&cfg, years * 360.0);
    let stream = out.stream.as_ref().expect("the stream was configured");
    let n_months = stream.months();
    println!(
        "streamed {n_months} monthly SST fields at {:.0}× real time",
        out.model_speedup
    );

    // Anomalies → detrend → low-pass → EOF, straight off the stream. The
    // filter period follows the paper (60 months) when the record
    // supports it and shrinks gracefully for shorter demo runs.
    let lp = foam::stream::lowpass_period(n_months);
    println!("low-pass period: {lp:.0} months (paper: 60)");

    let k = 4;
    let analysis = stream
        .analyze_variability(k + 2)
        .expect("two years of months streamed");
    let eof = &analysis.eof;
    let rot = analysis.varimax(k.min(eof.patterns.len()));
    println!(
        "\nEOF spectrum (unrotated): {:?}",
        &percent(&eof.variance_fraction)
    );
    println!(
        "VARIMAX-rotated leading modes: {:?}",
        &percent(&rot.variance_fraction)
    );
    println!(
        "\nleading rotated mode: {:.1} % of low-passed variance (paper: 15 %)",
        100.0 * rot.variance_fraction[0]
    );

    // (a) spatial pattern
    let world = World::earthlike();
    let (grid, mask, _) = observed_sst(&cfg.ocean, &world);
    let pat = Field2::from_vec(grid.nx, grid.ny, rot.patterns[0].clone());
    println!(
        "\n{}",
        render_diff_map(
            &pat,
            Some(&mask),
            "(a) spatial pattern (SST anomaly loading)"
        )
    );
    // (b) temporal pattern
    println!("(b) temporal pattern (PC 1):");
    println!("   {}", sparkline(&rot.pcs[0], 90));

    // Two-basin diagnostics over the 25–60°N boxes: mode-1 mean loading
    // per northern basin, and the correlation of the box-mean series.
    let box_mean = |basin: Basin| -> Vec<f64> {
        let w = region_weights(&grid, &mask, &world, Some(basin), 25.0..60.0);
        let den = w.iter().sum::<f64>().max(1e-12);
        w.into_iter().map(|v| v / den).collect()
    };
    let (atl, pac) = (box_mean(Basin::Atlantic), box_mean(Basin::Pacific));
    let loading = |profile: &[f64]| -> f64 {
        profile
            .iter()
            .zip(&rot.patterns[0])
            .map(|(w, p)| w * p)
            .sum()
    };
    let (la, lp_) = (loading(&atl), loading(&pac));
    let natl = analysis.series(&atl);
    let npac = analysis.series(&pac);
    let r = correlation(&natl, &npac);
    println!("\ntwo-basin diagnostics (25–60°N boxes):");
    println!("  mode-1 mean loading: N. Atlantic {la:+.3}, N. Pacific {lp_:+.3}");
    println!(
        "  same-sign loadings: {}",
        if la * lp_ > 0.0 {
            "YES (two-basin mode, as in the paper)"
        } else {
            "no"
        }
    );
    println!("  low-passed N.Atl × N.Pac correlation: r = {r:+.2}");
    println!("\n  N.Atl: {}", sparkline(&natl, 90));
    println!("  N.Pac: {}", sparkline(&npac, 90));
}

fn percent(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (1000.0 * x).round() / 10.0).collect()
}
