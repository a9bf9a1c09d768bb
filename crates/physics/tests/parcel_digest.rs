//! The parcel ascent and CCM3 deep convection, frozen as literals.
//!
//! `compute_cape_ws` lifts a parcel from the lowest layer through every
//! level above it, solving the moist adiabat by fixed-point iteration at
//! each, and deep convection relaxes the column toward that profile. No
//! other pin runs this over a spread of soundings: `config_pins` holds
//! the CCM2 column (no deep convection) and the `state_digest` suites
//! hold whole model states. Each digest below is FNV-1a over `to_bits`
//! of the CAPE, the parcel profile left in the workspace, and the
//! column's `t`/`q` (with the precipitation and sweep count) after one
//! CCM3 `convect_ws`. Any change that moves one has moved the model's
//! answers (see ROADMAP's re-pin gate before editing a constant here).

use foam_physics::column::saturation_humidity;
use foam_physics::convection::{compute_cape_ws, convect_ws, ConvectionParams};
use foam_physics::{AtmColumn, PhysicsVintage, PhysicsWorkspace};

fn fnv(h: u64, x: f64) -> u64 {
    x.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A standard sounding at `t_sfc` with every layer at `rh` of
/// saturation, and the lowest layer `kick` K warmer.
fn sounding(nlev: usize, t_sfc: f64, rh: f64, kick: f64) -> AtmColumn {
    let mut c = AtmColumn::standard(nlev, t_sfc);
    c.t[nlev - 1] += kick;
    for k in 0..nlev {
        c.q[k] = rh * saturation_humidity(c.t[k], c.p[k]);
    }
    c
}

/// The (parcel, convection) digests of `cols`, all through one
/// workspace as the model uses it.
fn digests(cols: &[AtmColumn], ws: &mut PhysicsWorkspace) -> (u64, u64) {
    let p = ConvectionParams::default();
    let (mut hp, mut hc) = (FNV_OFFSET, FNV_OFFSET);
    for col in cols {
        hp = fnv(hp, compute_cape_ws(col, ws));
        hp = ws_parcel(ws).iter().fold(hp, |h, &x| fnv(h, x));
        let mut c = col.clone();
        let r = convect_ws(&mut c, 1800.0, &p, PhysicsVintage::Ccm3, ws);
        for &x in c.t.iter().chain(&c.q) {
            hc = fnv(hc, x);
        }
        for x in [r.precip_deep, r.precip_stratiform, r.iterations as f64] {
            hc = fnv(hc, x);
        }
    }
    (hp, hc)
}

/// The parcel profile `compute_cape_ws` leaves behind, read through the
/// workspace's `Debug` form (the field is crate-private): the CAPE
/// digest must cover what deep convection relaxes toward.
fn ws_parcel(ws: &PhysicsWorkspace) -> Vec<f64> {
    let dbg = format!("{ws:?}");
    let start = dbg.find("parcel: [").expect("workspace prints its parcel") + "parcel: [".len();
    let end = start + dbg[start..].find(']').expect("closed list");
    dbg[start..end]
        .split(", ")
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("Debug prints f64 round-trip"))
        .collect()
}

/// The lattice: five temperatures from 240 to 310 K, five humidities
/// from dry to 1.3 × saturation, with and without a warm surface layer.
fn lattice(nlev: usize) -> Vec<AtmColumn> {
    let mut cols = Vec::new();
    for i in 0..5 {
        let t_sfc = 240.0 + 17.5 * i as f64;
        for j in 0..5 {
            let rh = 0.325 * j as f64;
            for kick in [0.0, 4.0] {
                cols.push(sounding(nlev, t_sfc, rh, kick));
            }
        }
    }
    cols
}

#[test]
fn parcel_and_deep_convection_over_a_lattice_of_soundings() {
    // 3, 6, 8, 16 and 17 ascent levels: every remainder of a lane
    // group of width 4 or 8, and none.
    let mut ws = PhysicsWorkspace::new();
    let got: Vec<(usize, u64, u64)> = [4, 7, 9, 17, 18]
        .into_iter()
        .map(|nlev| {
            let (hp, hc) = digests(&lattice(nlev), &mut ws);
            (nlev, hp, hc)
        })
        .collect();
    let want: [(usize, u64, u64); 5] = [
        (4, 0x247c_1e08_622c_31bc, 0x72ee_a078_80c7_e578),
        (7, 0x5f3a_7889_e91b_419c, 0x5105_c8cb_07df_214b),
        (9, 0xf610_b7d4_08d4_86be, 0x82cc_52cb_c884_d886),
        (17, 0x1db2_ca10_d45e_c1e2, 0x5f22_6e60_33c3_25f2),
        (18, 0x5753_6ac6_c573_b654, 0x9849_ca4f_11aa_4704),
    ];
    let shown: Vec<String> = got
        .iter()
        .map(|(n, hp, hc)| format!("({n}, {hp:#018x}, {hc:#018x})"))
        .collect();
    assert_eq!(got, want, "per-depth digests {shown:?}");
}

#[test]
fn iteration_cap_and_dry_parcel_are_pinned() {
    let mut ws = PhysicsWorkspace::new();
    let cases = [
        // A parcel whose fixed point does not settle within 25 damped
        // iterations at eleven of its 17 levels: the capped value is pinned.
        sounding(18, 310.0, 1.3, 12.0),
        // q0 = 0: a dry parcel, release zero at every level.
        sounding(18, 300.0, 0.0, 4.0),
    ];
    let got: Vec<(u64, u64)> = cases
        .iter()
        .map(|c| digests(std::slice::from_ref(c), &mut ws))
        .collect();
    let want: [(u64, u64); 2] = [
        (0x24d1_3caa_572c_9b64, 0x9b55_5622_3662_31cd),
        (0x9442_9133_066f_1331, 0x9e6b_c4e6_e1b9_6c9f),
    ];
    assert_eq!(got, want, "digests {got:#018x?}");
}

#[test]
fn every_depth_from_two_to_eighteen_levels() {
    // 1 to 17 ascent levels: every remainder of a lane group of width 8
    // (and of any narrower width), one, two and no full groups.
    let mut ws = PhysicsWorkspace::new();
    let got: Vec<(u64, u64)> = (2..=18)
        .map(|nlev| digests(&lattice(nlev), &mut ws))
        .collect();
    let want: [(u64, u64); 17] = [
        (0x5823_b355_5705_f3c7, 0xd6df_521f_7ac8_6069),
        (0xb396_e0ed_ca4d_9463, 0x5c2c_3454_9cf3_1a23),
        (0x247c_1e08_622c_31bc, 0x72ee_a078_80c7_e578),
        (0xb019_ce14_8a85_13d9, 0xfc48_fc7b_ac7d_6c0f),
        (0xae67_fe71_2f5c_ca70, 0x9808_f466_a050_b415),
        (0x5f3a_7889_e91b_419c, 0x5105_c8cb_07df_214b),
        (0xf28e_1b44_c774_4387, 0xf44d_cea7_5fff_5f6f),
        (0xf610_b7d4_08d4_86be, 0x82cc_52cb_c884_d886),
        (0x0544_75a5_9d8d_d6e1, 0x4aa2_40ab_a2a7_ed80),
        (0x2ebe_80e4_740b_bb62, 0x330a_103f_a30c_f575),
        (0x4873_5025_7128_e7a7, 0x238c_4bb2_0c9c_0bc4),
        (0x2851_c073_02b9_c3a1, 0x55c9_98e7_1ae8_e691),
        (0x4be2_0593_4116_0aca, 0x1f22_ef39_26ff_fcd2),
        (0x6104_d92d_3e47_475b, 0x72cf_b4ce_4451_1034),
        (0x15d8_34a3_a43e_e144, 0x894a_9391_a0e6_405b),
        (0x1db2_ca10_d45e_c1e2, 0x5f22_6e60_33c3_25f2),
        (0x5753_6ac6_c573_b654, 0x9849_ca4f_11aa_4704),
    ];
    assert_eq!(got, want, "digests for 2..=18 levels {got:#018x?}");
}
