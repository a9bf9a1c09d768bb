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

use std::ops::Range;
use std::str::FromStr;

use foam::sea_area_weights;
use foam_grid::{Basin, Field2, OceanGrid, World};
use foam_ocean::{OceanConfig, OceanModel};

/// The positional CLI argument `n` parsed as a `T`, or `default` when
/// it is absent. A present value that does not parse ends the program
/// with status 2 and a message naming the argument — it never silently
/// runs the default.
pub fn arg_or<T: FromStr>(n: usize, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    parse_arg(&args, n, default).unwrap_or_else(|e| exit_usage(&e))
}

/// The value of a `--name <value>` CLI flag parsed as a `T`, or
/// `default` when the flag is absent; a malformed value exits as in
/// [`arg_or`].
pub fn flag_or<T: FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    parse_flag(&args, name, default).unwrap_or_else(|e| exit_usage(&e))
}

fn parse_arg<T: FromStr>(args: &[String], n: usize, default: T) -> Result<T, String> {
    parse_or(&format!("argument {n}"), args.get(n), default)
}

fn parse_flag<T: FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    let value = args.iter().position(|a| a == name).map(|i| args.get(i + 1));
    match value {
        Some(None) => Err(format!("{name}: missing value")),
        Some(value) => parse_or(name, value, default),
        None => Ok(default),
    }
}

fn parse_or<T: FromStr>(what: &str, value: Option<&String>, default: T) -> Result<T, String> {
    match value {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| {
            format!(
                "{what}: cannot parse {s:?} as {}",
                std::any::type_name::<T>()
            )
        }),
    }
}

fn exit_usage(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
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

/// [`sea_area_weights`] restricted to one region: sea cells of `basin`
/// (any basin when `None`) whose latitude in degrees lies in `lat_deg`;
/// zero everywhere else.
pub fn region_weights(
    grid: &OceanGrid,
    mask: &[bool],
    world: &World,
    basin: Option<Basin>,
    lat_deg: Range<f64>,
) -> Vec<f64> {
    let mut w = sea_area_weights(grid, mask);
    for (k, wk) in w.iter_mut().enumerate() {
        let (lon, lat) = (grid.lons[k % grid.nx], grid.lats[k / grid.nx]);
        let inside =
            lat_deg.contains(&lat.to_degrees()) && basin.is_none_or(|b| world.basin(lon, lat) == b);
        if !inside {
            *wk = 0.0;
        }
    }
    w
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

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn flag_or_falls_back_when_flag_is_absent() {
        // The test harness's argv carries no such flag, so the default
        // must come back (and must not panic on a flag-less argv tail).
        assert_eq!(flag_or("--no-such-flag", 1914u64), 1914);
        assert_eq!(flag_or("--no-such-flag", 2.5f64), 2.5);
        assert_eq!(
            parse_flag(&argv(&["century", "--years", "3"]), "--years", 1.0),
            Ok(3.0)
        );
        assert_eq!(parse_arg(&argv(&["figure3_sst"]), 1, 60.0), Ok(60.0));
    }

    #[test]
    fn malformed_values_are_refused_by_name() {
        let err = parse_flag(&argv(&["century", "--years", "1y"]), "--years", 100.0).unwrap_err();
        assert!(err.starts_with("--years: cannot parse \"1y\""), "{err}");
        let err = parse_flag(&argv(&["century", "--seed"]), "--seed", 1914u64).unwrap_err();
        assert_eq!(err, "--seed: missing value");
        let err = parse_arg(&argv(&["figure3_sst", "6O"]), 1, 60.0).unwrap_err();
        assert!(err.starts_with("argument 1: cannot parse \"6O\""), "{err}");
        let err = parse_arg(&argv(&["table1_scaling", "0.5", "-2"]), 2, 8usize).unwrap_err();
        assert!(err.starts_with("argument 2: "), "{err}");
    }

    #[test]
    fn region_weights_vanish_on_land_and_outside_the_region() {
        let world = World::earthlike();
        let (grid, mask, _) = observed_sst(&OceanConfig::tiny(), &world);
        let all = region_weights(&grid, &mask, &world, None, -90.0..90.0);
        assert_eq!(all, sea_area_weights(&grid, &mask));
        let pac = region_weights(&grid, &mask, &world, Some(Basin::Pacific), 25.0..60.0);
        assert!(pac.iter().any(|&v| v > 0.0));
        for k in 0..grid.len() {
            let (lon, lat) = (grid.lons[k % grid.nx], grid.lats[k / grid.nx]);
            let inside =
                (25.0..60.0).contains(&lat.to_degrees()) && world.basin(lon, lat) == Basin::Pacific;
            assert_eq!(all[k] > 0.0, mask[k]);
            assert_eq!(pac[k], if inside { all[k] } else { 0.0 });
        }
    }
}
