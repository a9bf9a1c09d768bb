//! The paper's scientific payoff in miniature: run the coupled model for
//! many simulated years with **streaming** statistics, and look for the
//! low-frequency two-basin variability of Figure 4 (VARIMAX-rotated EOFs
//! of low-pass-filtered SST anomalies) — without ever retaining the
//! monthly history. Statistics memory stays `O(grid)` no matter how many
//! years you pass.
//!
//! ```sh
//! cargo run --release -p foam-examples --bin century_variability [years]
//! ```
//!
//! With the reduced century configuration a simulated decade takes a few
//! seconds; pass more years (the paper ran > 500) as wall time allows.

use foam::{run_coupled, FoamConfig, World};
use foam_stats::ascii::{render_diff_map, sparkline};

mod cli;

fn main() {
    let years: f64 = cli::parse_or("years", std::env::args().nth(1).as_ref(), 10.0);

    let cfg = FoamConfig::century(11);
    println!("running {years} simulated years of the coupled model (streaming statistics)…");
    let out = run_coupled(&cfg, years * 360.0);
    let stream = out.stream.as_ref().expect("the century config streams");
    let n_months = stream.months();
    println!(
        "done: {n_months} months streamed into O(grid) state at {:.0}× real time",
        out.model_speedup
    );

    // --- EOF + VARIMAX (Figure 4), straight off the stream. -------------
    let Some(analysis) = stream.analyze_variability(6) else {
        println!("need at least two years of monthly data for the analysis");
        return;
    };
    let rot = analysis.varimax(4.min(analysis.eof.patterns.len()));
    if rot.patterns.is_empty() {
        println!("variability too weak to decompose (run longer)");
        return;
    }
    let grid = foam_grid::OceanGrid::mercator(cfg.ocean.nx, cfg.ocean.ny, cfg.ocean.lat_max_deg);
    let weights = stream.weights();
    let mask: Vec<bool> = weights.iter().map(|&w| w > 0.0).collect();
    println!();
    println!(
        "leading VARIMAX mode: {:.1} % of low-passed variance (paper: 15 % at 60 months); \
         sketch discarded {:.2e} of raw variability",
        100.0 * rot.variance_fraction[0],
        stream.discarded_fraction()
    );
    let pat = foam::Field2::from_vec(grid.nx, grid.ny, rot.patterns[0].clone());
    println!(
        "{}",
        render_diff_map(
            &pat,
            Some(&mask),
            "Figure-4-style spatial pattern (SST loading)"
        )
    );
    println!("temporal pattern (PC 1): {}", sparkline(&rot.pcs[0], 72));

    // Two-basin diagnostic: correlation of N. Atlantic vs N. Pacific box
    // means of the filtered anomalies, reconstructed from the stream's
    // coefficient record via the linearity of the analysis transform.
    let world = World::earthlike();
    let box_profile = |basin: foam_grid::Basin| -> Vec<f64> {
        let mut profile = vec![0.0; weights.len()];
        let mut den = 0.0;
        for (s, p) in profile.iter_mut().enumerate() {
            if weights[s] > 0.0 {
                let (i, j) = (s % grid.nx, s / grid.nx);
                if world.basin(grid.lons[i], grid.lats[j]) == basin
                    && (25.0..60.0).contains(&grid.lats[j].to_degrees())
                {
                    *p = weights[s];
                    den += weights[s];
                }
            }
        }
        for p in profile.iter_mut() {
            *p /= den.max(1e-12);
        }
        profile
    };
    let natl = analysis.series(&box_profile(foam_grid::Basin::Atlantic));
    let npac = analysis.series(&box_profile(foam_grid::Basin::Pacific));
    let r = foam_stats::correlation(&natl, &npac);
    println!();
    println!(
        "North Atlantic × North Pacific low-passed SST correlation: r = {r:.2} \
         (the paper's 'until recently unanticipated' two-basin link)"
    );
}
