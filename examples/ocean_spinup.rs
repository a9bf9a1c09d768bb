//! Stand-alone ocean spin-up: the Wisconsin ocean model driven by
//! idealized wind stress and SST restoring — the kind of run used to
//! benchmark the ocean at "105,000 times real time" in the paper — plus
//! a live demonstration of the three throughput techniques.
//!
//! ```sh
//! cargo run --release -p foam-examples --bin ocean_spinup [days]
//! ```

use foam_grid::World;
use foam_ocean::{OceanConfig, OceanForcing, OceanModel};
use foam_stats::ascii::render_map;
use std::time::Instant;

mod cli;

fn main() {
    let days: f64 = cli::parse_or("days", std::env::args().nth(1).as_ref(), 30.0);

    let world = World::earthlike();
    // The paper's full ocean resolution: 128 × 128 × 16.
    let cfg = OceanConfig::default();
    let model = OceanModel::new(cfg, &world);
    let mut state = model.init_state(&world);

    println!(
        "ocean spin-up: {}×{}×{} Mercator grid, slowdown α = {}, {days} simulated days",
        model.cfg.nx, model.cfg.ny, model.cfg.nz, model.cfg.slowdown
    );
    println!(
        "slowed external wave speed: {:.0} m/s (physical would be {:.0} m/s); \
         barotropic CFL dt: {:.0} s",
        model.baro_sys.wave_speed(),
        (foam_grid::constants::GRAVITY * model.cfg.depth).sqrt(),
        model.baro_sys.max_dt()
    );

    let t0 = Instant::now();
    let n_days = days as usize;
    for d in 0..n_days {
        let forcing = OceanForcing::climatological(&model.grid, &world, &model.sst(&state));
        for _ in 0..4 {
            model.step_coupled(&mut state, &forcing, 21_600.0);
        }
        if (d + 1) % 10 == 0 || d + 1 == n_days {
            println!(
                "day {:>4}: mean SST {:.2} °C, max |u| {:.2} m/s, peak MOC {:.1} Sv",
                d + 1,
                model.mean_sst(&state),
                model.max_speed(&state),
                model.max_overturning(&state)
            );
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let speedup = days * 86_400.0 / wall;
    println!();
    println!(
        "ocean-only throughput: {speedup:.0}× real time on one rank \
         (paper: 105,000× on 64 SP2 nodes)"
    );
    println!();
    println!(
        "{}",
        render_map(
            &model.sst(&state),
            Some(&model.mask),
            "spun-up SST (°C), L = land"
        )
    );
}
