//! Cross-crate integration: the full coupled system and the component
//! interfaces it exercises.

use foam::{run_coupled, CouplingMode, FoamConfig, OceanModel, World};
use foam_grid::constants::SEAWATER_FREEZE_C;
use foam_grid::{Field2, OverlapGrid};

#[test]
fn two_day_coupled_run_keeps_all_invariants() {
    let cfg = FoamConfig::tiny(21);
    let out = run_coupled(&cfg, 2.0);
    // SST physical everywhere; the clamp is the hard floor.
    let world = World::earthlike();
    let mask = OceanModel::effective_sea_mask(&cfg.ocean, &world);
    for (k, &sea) in mask.iter().enumerate() {
        if sea {
            let t = out.final_sst.as_slice()[k];
            assert!(
                (SEAWATER_FREEZE_C - 1e-9..45.0).contains(&t),
                "SST out of range at {k}: {t}"
            );
        }
    }
    // The mean SST must not jump unphysically between intervals.
    for w in out.mean_sst_series.windows(2) {
        assert!((w[1] - w[0]).abs() < 1.0, "mean SST jump {:?}", w);
    }
    assert!(out.model_speedup > 100.0, "implausibly slow");
}

#[test]
fn coupled_run_is_reproducible_for_fixed_seed() {
    let cfg = FoamConfig::tiny(33);
    let a = run_coupled(&cfg, 1.0);
    let b = run_coupled(&cfg, 1.0);
    for (x, y) in a.final_sst.as_slice().iter().zip(b.final_sst.as_slice()) {
        assert_eq!(x, y, "same seed must reproduce bit-for-bit");
    }
}

#[test]
fn different_seeds_give_different_weather_but_similar_climate() {
    let a = run_coupled(&FoamConfig::tiny(1), 2.0);
    let b = run_coupled(&FoamConfig::tiny(2), 2.0);
    // Weather diverges…
    let differs = a
        .final_sst
        .as_slice()
        .iter()
        .zip(b.final_sst.as_slice())
        .any(|(x, y)| (x - y).abs() > 1e-12);
    assert!(differs, "different seeds must diverge");
    // …while the climate (mean SST) stays in the same band.
    let ma = a.mean_sst_series.last().unwrap();
    let mb = b.mean_sst_series.last().unwrap();
    assert!((ma - mb).abs() < 1.0, "climates diverged: {ma} vs {mb}");
}

#[test]
fn rank_count_does_not_change_the_answer() {
    // Decomposition invariance: 1, 2 and 3 atmosphere ranks must produce
    // the same trajectory (the transforms reduce deterministically).
    let mut outs = Vec::new();
    for n_atm in [1usize, 2, 3] {
        let mut cfg = FoamConfig::tiny(5);
        cfg.n_atm_ranks = n_atm;
        outs.push(run_coupled(&cfg, 1.0));
    }
    for other in &outs[1..] {
        for (x, y) in outs[0]
            .final_sst
            .as_slice()
            .iter()
            .zip(other.final_sst.as_slice())
        {
            assert!(
                (x - y).abs() < 1e-9,
                "decomposition changed the answer: {x} vs {y}"
            );
        }
    }
}

#[test]
fn sequential_coupling_matches_lagged_climate() {
    let cfg = FoamConfig::tiny(8);
    let lagged = run_coupled(&cfg, 1.5);
    let mut cfg2 = cfg.clone();
    cfg2.coupling = CouplingMode::Sequential;
    let seq = run_coupled(&cfg2, 1.5);
    let a = lagged.mean_sst_series.last().unwrap();
    let b = seq.mean_sst_series.last().unwrap();
    assert!((a - b).abs() < 0.3, "{a} vs {b}");
}

#[test]
fn overlap_grid_conserves_fluxes_at_production_resolution() {
    // The R15 × 128×128 production pairing, full conservation check.
    let world = World::earthlike();
    let atm = foam_grid::AtmGrid::r15();
    let ocn = foam_grid::OceanGrid::foam_default();
    let mask = world.ocean_sea_mask(&ocn);
    let ov = OverlapGrid::build(&atm, &ocn, &mask);
    let fa = Field2::from_fn(atm.nlon, atm.nlat, |i, j| {
        ((atm.idx(i, j) % 13) as f64 - 6.0) * 10.0
    });
    let fo = Field2::from_fn(ocn.nx, ocn.ny, |i, j| ((ocn.idx(i, j) % 7) as f64) * 3.0);
    let mut on_ocn = Field2::zeros(ocn.nx, ocn.ny);
    ov.atm_to_ocean_into(&fa, &mut on_ocn);
    for (sent, got) in [
        (ov.integral_atm_sea(&fa), ov.integral_ocean(&on_ocn)),
        (
            ov.integral_ocean(&fo),
            ov.integral_atm_sea(&ov.ocean_to_atm(&fo)),
        ),
    ] {
        assert!(
            (sent - got).abs() < 1e-8 * sent.abs().max(got.abs()),
            "conservation violated at production resolution: {sent} vs {got}"
        );
    }
    // Every ocean sea cell is covered by the atmosphere.
    let ones = Field2::filled(atm.nlon, atm.nlat, 1.0);
    let mut cover = Field2::zeros(ocn.nx, ocn.ny);
    ov.atm_to_ocean_into(&ones, &mut cover);
    for (k, &sea) in mask.iter().enumerate() {
        if sea {
            assert!((cover.as_slice()[k] - 1.0).abs() < 1e-9, "hole at {k}");
        }
    }
}

#[test]
fn work_imbalance_exists_across_atmosphere_ranks() {
    // The paper attributes the ragged coupler entries of Figure 2 to
    // cloud-driven load imbalance; verify the physics work actually
    // varies across ranks.
    let mut cfg = FoamConfig::tiny(13);
    cfg.n_atm_ranks = 2;
    let out = run_coupled(&cfg, 1.0);
    assert_eq!(out.work_per_rank.len(), 2);
    assert!(out.work_per_rank.iter().all(|&w| w > 0));
    assert_ne!(
        out.work_per_rank[0], out.work_per_rank[1],
        "expected load imbalance between latitude bands"
    );
}

#[test]
fn slowdown_factor_buys_the_expected_barotropic_step() {
    // Ablation A1 shape in miniature: the slowed free surface raises the
    // barotropic CFL step by √α (α = 16 → 4×), which is where FOAM's 2-D
    // subsystem savings come from.
    use foam_ocean::barotropic::BarotropicSystem;
    let world = World::earthlike();
    let grid = foam_grid::OceanGrid::mercator(64, 48, 70.0);
    let mask = world.ocean_sea_mask(&grid);
    let slow = BarotropicSystem::new(grid.clone(), mask.clone(), 5000.0, 16.0);
    let fast = BarotropicSystem::new(grid, mask, 5000.0, 1.0);
    let ratio = slow.max_dt() / fast.max_dt();
    assert!((ratio - 4.0).abs() < 1e-9, "√α step ratio {ratio}");
}

#[test]
fn ccm2_and_ccm3_coupled_climates_differ() {
    // §6 shape: the physics vintage changes the coupled climate (the
    // tropical hydrological cycle especially) within days.
    let mut cfg2 = FoamConfig::tiny(55);
    cfg2.atm.physics = foam_physics::PhysicsConfig::ccm2();
    let mut cfg3 = FoamConfig::tiny(55);
    cfg3.atm.physics = foam_physics::PhysicsConfig::default();
    let a = run_coupled(&cfg2, 1.0);
    let b = run_coupled(&cfg3, 1.0);
    let differs = a
        .final_sst
        .as_slice()
        .iter()
        .zip(b.final_sst.as_slice())
        .any(|(x, y)| (x - y).abs() > 1e-9);
    assert!(differs, "physics vintage must matter");
}
