//! Configuration digests and the CCM2 column, frozen as literals.
//!
//! `FoamConfig::canonical_digest` is the result cache's key and a
//! scenario's `content_digest` is the server's job id, so both must
//! survive any refactor of the configuration structs: a knob that
//! becomes a constant is still hashed, under its old field name, with
//! the value it always had. The CCM2 physics path is pinned here too —
//! no coupled digest runs it.

use foam::{baseline_config, FoamConfig};
use foam_physics::{
    AtmColumn, ColumnPhysics, OrbitalState, PhysicsConfig, PhysicsWorkspace, RadCache, SurfaceState,
};
use foam_scenario::Scenario;

#[test]
fn canonical_digests_of_the_presets() {
    let mut ccm2 = FoamConfig::tiny(42);
    ccm2.atm.physics = PhysicsConfig::ccm2();
    let got = [
        FoamConfig::tiny(42).canonical_digest(),
        FoamConfig::century(1).canonical_digest(),
        FoamConfig::paper(16, 1).canonical_digest(),
        baseline_config(&FoamConfig::paper(4, 3)).canonical_digest(),
        ccm2.canonical_digest(),
    ];
    assert_eq!(
        got,
        [
            "fe53f35a91a9521f",
            "b1fefa40740b5706",
            "44862d6b2c0a3884",
            "1e18fa1c8b9f99b3",
            "62bf9befc33fd863",
        ]
    );
}

#[test]
fn content_digests_of_the_scenario_library() {
    let library = [
        (
            "co2-doubling",
            include_str!("../../scenarios/co2-doubling.toml"),
        ),
        (
            "co2-ramp-1pct",
            include_str!("../../scenarios/co2-ramp-1pct.toml"),
        ),
        ("control", include_str!("../../scenarios/control.toml")),
        (
            "paleo-obliquity",
            include_str!("../../scenarios/paleo-obliquity.toml"),
        ),
        ("pinatubo", include_str!("../../scenarios/pinatubo.toml")),
        (
            "slab-ocean",
            include_str!("../../scenarios/slab-ocean.toml"),
        ),
        (
            "solar-sweep",
            include_str!("../../scenarios/solar-sweep.toml"),
        ),
    ];
    let got: Vec<(&str, String)> = library
        .iter()
        .map(|(name, src)| {
            let s = Scenario::parse(src).expect("library scenarios parse");
            (*name, s.content_digest().expect("library scenarios lower"))
        })
        .collect();
    let want = [
        ("co2-doubling", "0c9af1215f11fcf6"),
        ("co2-ramp-1pct", "15d5e15e274cdceb"),
        ("control", "988ecfcceac83fc9"),
        ("paleo-obliquity", "b8b5f0478800a235"),
        ("pinatubo", "f66e7e98e201905e"),
        ("slab-ocean", "44657b9654790ac5"),
        ("solar-sweep", "c79bff5ca2f800aa"),
    ];
    let want: Vec<(&str, String)> = want.iter().map(|(n, d)| (*n, d.to_string())).collect();
    assert_eq!(got, want);
}

/// FNV-1a over the bits of a convecting tropical ocean column and its
/// tendencies after each of eight half-hour CCM2 steps (radiation
/// refreshed on the first): the fixed-roughness ocean fluxes, Hack-only
/// convection and rain that never re-evaporates.
#[test]
fn ccm2_column_steps_are_pinned() {
    let fnv = |h: u64, x: f64| {
        x.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let phys = ColumnPhysics::new(PhysicsConfig::ccm2());
    let mut col = AtmColumn::standard(18, 301.0);
    col.t[17] += 4.0;
    col.q[8] *= 1.6;
    let sfc = SurfaceState::open_ocean(303.0);
    let mut cache = RadCache::empty(18);
    let mut ws = PhysicsWorkspace::with_levels(18);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for step in 0..8 {
        let orb = OrbitalState::at(81.0 * 86_400.0 + step as f64 * 1800.0);
        let fluxes = phys.surface_fluxes(&col, &sfc, (8.0, -2.0));
        let out = phys.step_with_fluxes_ws(
            &mut col,
            &sfc,
            fluxes,
            orb,
            3.0,
            0.12,
            &mut cache,
            step == 0,
            1800.0,
            &mut ws,
        );
        for &x in col.t.iter().chain(&col.q) {
            h = fnv(h, x);
        }
        for x in [
            out.precip,
            out.net_sfc_heat,
            out.fluxes.latent,
            out.fluxes.sensible,
            out.iterations as f64,
        ] {
            h = fnv(h, x);
        }
    }
    assert_eq!(h, 0xd5f7_62bb_a5fc_887d, "CCM2 column digest {h:#018x}");
}
