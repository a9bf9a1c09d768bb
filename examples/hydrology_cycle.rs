//! The closed hydrological cycle: rain falls on land, fills the 15-cm
//! buckets, overflows into the rivers, and arrives in the ocean as
//! freshwater point sources at the mouths — the loop FOAM closes "to
//! avoid long-term ocean salinity drift".
//!
//! ```sh
//! cargo run --release -p foam-examples --bin hydrology_cycle [days]
//! ```

use foam_grid::{AtmGrid, Field2, World};
use foam_land::hydrology::Bucket;
use foam_land::river::RiverModel;
use foam_stats::ascii::render_map;

mod cli;

fn main() {
    let days: usize = cli::parse_or("days", std::env::args().nth(1).as_ref(), 120);

    let world = World::earthlike();
    let grid = AtmGrid::r15();
    let land = world.atm_land_mask(&grid);
    let rivers = RiverModel::build(&grid, &land);
    let mut river_state = rivers.init_state();
    let mut buckets: Vec<Bucket> = vec![Bucket::default(); grid.len()];

    // An idealized precipitation climatology: ITCZ + midlatitude storm
    // tracks, constant in time.
    let precip: Vec<f64> = (0..grid.len())
        .map(|k| {
            let lat = grid.lats[k / grid.nlon].to_degrees();
            let itcz = 8.0e-5 * (-(lat * lat) / 200.0_f64).exp();
            let storms = 4.0e-5 * (-((lat.abs() - 45.0) / 15.0_f64).powi(2)).exp();
            itcz + storms
        })
        .collect();
    let evap = 2.0e-5; // uniform land evaporation

    let dt = 86_400.0;
    let mut total_rain = 0.0;
    let mut total_discharge = 0.0;
    let mut mouth_acc = Field2::zeros(grid.nlon, grid.nlat);
    for day in 0..days {
        let mut runoff = vec![0.0; grid.len()];
        for k in 0..grid.len() {
            if land[k] {
                let out = buckets[k].step(precip[k], evap, false, 285.0, dt);
                runoff[k] = out.runoff;
                total_rain +=
                    precip[k] * dt / 1000.0 * grid.cell_area(k % grid.nlon, k / grid.nlon);
            }
        }
        let mouths = rivers.step(&mut river_state, &runoff, dt);
        for j in 0..grid.nlat {
            for i in 0..grid.nlon {
                let v = mouths.get(i, j) * grid.cell_area(i, j) * dt / 1000.0;
                total_discharge += v;
                mouth_acc[(i, j)] += v;
            }
        }
        if (day + 1) % 30 == 0 {
            println!(
                "day {:>4}: river storage {:.1} km³, cumulative discharge {:.1} km³",
                day + 1,
                rivers.total_storage(&river_state) / 1.0e9,
                total_discharge / 1.0e9
            );
        }
    }

    println!();
    println!(
        "cumulative land rain {:.1} km³ → ocean discharge {:.1} km³ \
         (+ {:.1} km³ in soil/ rivers en route)",
        total_rain / 1.0e9,
        total_discharge / 1.0e9,
        rivers.total_storage(&river_state) / 1.0e9
    );
    println!();
    println!(
        "{}",
        render_map(
            &mouth_acc,
            None,
            "cumulative river discharge by mouth (m³; blank = none)"
        )
    );
    // Where are the five biggest rivers?
    let mut mouths: Vec<(f64, usize)> = (0..grid.len())
        .map(|k| (mouth_acc.as_slice()[k], k))
        .collect();
    mouths.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    println!("largest river mouths (lon, lat, km³):");
    for (v, k) in mouths.iter().take(5) {
        println!(
            "  ({:>6.1}°, {:>5.1}°)  {:>8.1}",
            grid.lons[k % grid.nlon].to_degrees(),
            grid.lats[k / grid.nlon].to_degrees(),
            v / 1.0e9
        );
    }
}
