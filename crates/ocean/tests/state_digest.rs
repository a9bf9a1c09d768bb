//! The ocean's bits, frozen. Each case steps an [`OceanModel`] under
//! [`OceanForcing::climatological`] and compares an FNV-1a digest over
//! every `to_bits` of the resulting [`OceanState`] with a value recorded
//! on the allocating, clone-per-level implementation this crate had
//! before its workspace rewrite. That implementation is gone; these
//! digests are what is left of it, and any change that moves one has
//! moved the model's answers (see ROADMAP's re-pin gate before editing a
//! constant here).

use foam_grid::{Field2, OceanGrid, World};
use foam_ocean::polar::PolarFilter;
use foam_ocean::{OceanConfig, OceanForcing, OceanModel, OceanState};

const DT_COUPLE: f64 = 21_600.0;

fn digest(state: &OceanState) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bits: u64| {
        for b in bits.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let levels = [&state.t, &state.s, &state.u, &state.v];
    for field in levels.into_iter().flatten() {
        field.as_slice().iter().for_each(|x| eat(x.to_bits()));
    }
    for field in [&state.baro.eta, &state.baro.u, &state.baro.v] {
        field.as_slice().iter().for_each(|x| eat(x.to_bits()));
    }
    eat(state.step_count);
    h
}

/// Step `cfg` and return the digests after 4 and after 12 calls.
fn coupled_digests(cfg: OceanConfig) -> (u64, u64) {
    let world = World::earthlike();
    let model = OceanModel::new(cfg, &world);
    let mut state = model.init_state(&world);
    let forcing = OceanForcing::climatological(&model.grid, &world, &model.sst(&state));
    let mut after_4 = 0;
    for call in 1..=12 {
        model.step_coupled(&mut state, &forcing, DT_COUPLE);
        if call == 4 {
            after_4 = digest(&state);
        }
    }
    assert!(model.is_finite(&state));
    (after_4, digest(&state))
}

#[track_caller]
fn check<const N: usize>(name: &str, got: [u64; N], want: [u64; N]) {
    assert_eq!(
        got, want,
        "{name}: state digests {got:#018x?}, pinned {want:#018x?}"
    );
}

#[test]
fn tiny_step_coupled() {
    let (d4, d12) = coupled_digests(OceanConfig::tiny());
    check(
        "tiny, 4 and 12 calls",
        [d4, d12],
        [0xe4a9_d58f_f72b_041d, 0x9c88_f674_a9be_90d8],
    );
}

#[test]
fn default_step_coupled() {
    let (d4, d12) = coupled_digests(OceanConfig::default());
    check(
        "default, 4 and 12 calls",
        [d4, d12],
        [0x1c57_527e_44d9_fb8d, 0x41d7_276c_cc33_d53a],
    );
}

#[test]
fn tiny_with_tracers_every_step() {
    let cfg = OceanConfig {
        n_trac: 1,
        ..OceanConfig::tiny()
    };
    let (d4, d12) = coupled_digests(cfg);
    check(
        "tiny, n_trac = 1, 4 and 12 calls",
        [d4, d12],
        [0x4535_f517_3eb2_5e25, 0xba4c_46ea_c77f_07d7],
    );
}

#[test]
fn tiny_step_unsplit() {
    let world = World::earthlike();
    let model = OceanModel::new(OceanConfig::tiny(), &world);
    let mut state = model.init_state(&world);
    let forcing = OceanForcing::climatological(&model.grid, &world, &model.sst(&state));
    model.step_unsplit(&mut state, &forcing, DT_COUPLE);
    assert!(model.is_finite(&state));
    check(
        "tiny, 1 unsplit interval",
        [digest(&state)],
        [0x3891_9b75_be6a_db4a],
    );
}

#[test]
fn polar_filter_on_the_default_grid() {
    // Every filtered row of the 128×128 grid, fed a field with energy at
    // every zonal wavenumber; unfiltered rows must come back untouched.
    let cfg = OceanConfig::default();
    let grid = OceanGrid::mercator(cfg.nx, cfg.ny, cfg.lat_max_deg);
    let filter = PolarFilter::new(&grid, cfg.polar_lat);
    let mut s: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut f = Field2::from_fn(grid.nx, grid.ny, |i, j| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let noise = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        10.0 + (0.2 * i as f64).sin() * (0.05 * j as f64).cos() + noise
    });
    let before = f.clone();
    filter.apply(&mut f);
    let touched = (0..grid.ny).filter(|&j| f.row(j) != before.row(j)).count();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in f.as_slice() {
        for b in x.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    check(
        "default grid, filtered rows and field digest",
        [touched as u64, h],
        [26, 0xfb44_47fb_e38e_0db7],
    );
}
