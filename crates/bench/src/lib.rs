//! `foam-bench` — the experiment harness.
//!
//! One binary per table/figure of the paper (see DESIGN.md §3 and
//! EXPERIMENTS.md for the index). Timing of components and kernels lives
//! in `perf/` (`foam-perf`, the repo's one benchmark), not here:
//!
//! | target | artifact |
//! |--------|----------|
//! | `figure2_timeline` | Fig. 2 — per-processor time allocation |
//! | `figure3_sst` | Fig. 3 — SST: model vs observations vs difference |
//! | `figure4_variability` | Fig. 4 — VARIMAX EOF of low-passed SST |
//! | `table1_scaling` | §5 — model speedup vs node count |
//! | `table2_baseline` | §5 — FOAM vs CSM-like baseline; A1 — slowed/split/subcycled ocean options |
//!
//! Shared helpers for the binaries live here.

use foam_grid::{Field2, OceanGrid, World};
use foam_ocean::{OceanConfig, OceanModel};

/// Parse a CLI argument by position with a default.
pub fn arg_or<T: std::str::FromStr>(n: usize, default: T) -> T {
    std::env::args()
        .nth(n)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Parse a `--name <value>` CLI flag with a default.
pub fn flag_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The synthetic observed-SST field ("Figure 3b") on the ocean grid.
pub fn observed_sst(cfg: &OceanConfig, world: &World) -> (OceanGrid, Vec<bool>, Field2) {
    let grid = OceanGrid::mercator(cfg.nx, cfg.ny, cfg.lat_max_deg);
    let mask = OceanModel::effective_sea_mask(cfg, world);
    let f = Field2::from_fn(grid.nx, grid.ny, |i, j| {
        if mask[grid.idx(i, j)] {
            world.sst_climatology(grid.lons[i], grid.lats[j])
        } else {
            0.0
        }
    });
    (grid, mask, f)
}

/// Area weights (0 on land) for statistics on the ocean grid.
pub fn sea_weights(grid: &OceanGrid, mask: &[bool]) -> Vec<f64> {
    (0..grid.len())
        .map(|k| {
            if mask[k] {
                grid.cell_area(k % grid.nx, k / grid.nx)
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_sst_is_masked_and_warm_at_equator() {
        let world = World::earthlike();
        let cfg = OceanConfig::tiny();
        let (grid, mask, sst) = observed_sst(&cfg, &world);
        let jm = grid.ny / 2;
        let mut saw = false;
        for i in 0..grid.nx {
            if mask[grid.idx(i, jm)] {
                assert!(sst.get(i, jm) > 20.0);
                saw = true;
            }
        }
        assert!(saw);
    }

    #[test]
    fn flag_or_falls_back_when_flag_is_absent() {
        // The test harness's argv carries no such flag, so the default
        // must come back (and must not panic on a flag-less argv tail).
        assert_eq!(flag_or("--no-such-flag", 1914u64), 1914);
        assert_eq!(flag_or("--no-such-flag", 2.5f64), 2.5);
    }

    #[test]
    fn sea_weights_vanish_on_land() {
        let world = World::earthlike();
        let cfg = OceanConfig::tiny();
        let (grid, mask, _) = observed_sst(&cfg, &world);
        let w = sea_weights(&grid, &mask);
        for k in 0..grid.len() {
            assert_eq!(w[k] > 0.0, mask[k]);
        }
    }
}
