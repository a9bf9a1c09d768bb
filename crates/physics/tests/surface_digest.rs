//! The bulk surface-flux formulas, frozen as literals over a lattice.
//!
//! `bulk_fluxes_ocean` iterates the Charnock roughness with the
//! stability-dependent drag; `bulk_fluxes_fixed_z0` holds the roughness
//! fixed (land, snow, ice, the CCM2 ocean). Each digest is FNV-1a over
//! `to_bits` of all seven `BulkFluxes` fields across the lattice:
//!
//! * winds 0 to 25 m/s in both components, so speeds below the 0.5 m/s
//!   calm floor occur;
//! * air − sea from −10 to +10 K, stable and unstable;
//! * the production reference height (70 m) and low ones (2 m, 0.3 m),
//!   where the diagnosed roughness reaches its 0.05 m upper clamp in
//!   strong wind.
//!
//! The lower clamp (1e-6 m) cannot bind: the Charnock and smooth-flow
//! terms sum to at least ≈ 1.4e-4 m for every friction velocity (see
//! `surface.rs`'s unit tests). Any change that moves a digest has moved
//! the model's answers (see ROADMAP's re-pin gate before editing a
//! constant here).

use foam_physics::column::saturation_humidity;
use foam_physics::surface::{bulk_fluxes_fixed_z0, bulk_fluxes_ocean, BulkFluxes, BulkInput};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, x: f64) -> u64 {
    x.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fold(h: u64, f: &BulkFluxes) -> u64 {
    [
        f.sensible,
        f.latent,
        f.evaporation,
        f.stress,
        f.tau_x,
        f.tau_y,
        f.c_exchange,
    ]
    .iter()
    .fold(h, |h, &x| fnv(h, x))
}

/// The lattice: 6 × 6 wind components (0–25 m/s), air − sea in 2 K
/// steps from −10 to +10 K, three reference heights.
fn lattice() -> Vec<BulkInput> {
    let mut v = Vec::new();
    for z_ref in [70.0, 2.0, 0.3] {
        for iu in 0..6 {
            for iv in 0..6 {
                for k in 0..=10 {
                    let t_sfc = 288.0;
                    let t_air = t_sfc - 10.0 + 2.0 * k as f64;
                    v.push(BulkInput {
                        u: [0.0, 0.2, 3.0, 8.0, 15.0, 25.0][iu],
                        v: [0.0, -0.3, 1.0, -6.0, 12.0, 25.0][iv],
                        t_air,
                        q_air: 0.7 * saturation_humidity(t_air, 1.0e5),
                        t_sfc,
                        q_sfc_sat: saturation_humidity(t_sfc, 1.0e5),
                        wetness: 1.0,
                        z_ref,
                    });
                }
            }
        }
    }
    v
}

#[test]
fn ocean_fluxes_over_the_lattice() {
    let h = lattice()
        .iter()
        .fold(FNV_OFFSET, |h, inp| fold(h, &bulk_fluxes_ocean(inp)));
    assert_eq!(h, 10046320310507696898, "bulk_fluxes_ocean digest moved");
}

#[test]
fn fixed_roughness_fluxes_over_the_lattice() {
    let mut h = FNV_OFFSET;
    for z0 in [1.0e-4, 5.0e-4, 1.0e-3, 0.05, 1.0] {
        h = lattice()
            .iter()
            .fold(h, |h, inp| fold(h, &bulk_fluxes_fixed_z0(inp, z0)));
    }
    assert_eq!(h, 4440707231687487503, "bulk_fluxes_fixed_z0 digest moved");
}
