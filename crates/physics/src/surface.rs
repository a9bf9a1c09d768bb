//! Bulk surface-flux formulas with stability-dependent coefficients.
//!
//! Over land FOAM uses CCM2's stability-dependent bulk transfer; over the
//! ocean it uses CCM3's forms where the roughness length is *diagnosed*
//! from wind speed and stability instead of held constant — the paper
//! calls this out explicitly. We implement Louis-type stability functions
//! and a Charnock relation for the ocean roughness, iterated to
//! convergence with the friction velocity.

use foam_grid::constants::{CP_DRY, GRAVITY, L_VAP, RHO_AIR, VON_KARMAN};

/// Turbulent surface fluxes (positive upward, i.e. surface → atmosphere).
#[derive(Debug, Clone, Copy, Default)]
pub struct BulkFluxes {
    /// Sensible heat \[W/m²\].
    pub sensible: f64,
    /// Latent heat \[W/m²\].
    pub latent: f64,
    /// Evaporation \[kg m⁻² s⁻¹\] (= latent / L).
    pub evaporation: f64,
    /// Wind stress magnitude \[N/m²\].
    pub stress: f64,
    /// Eastward and northward stress components \[N/m²\].
    pub tau_x: f64,
    pub tau_y: f64,
    /// Exchange coefficient actually used (diagnostic).
    pub c_exchange: f64,
}

impl BulkFluxes {
    /// Combine two flux sets field by field: `op(self.x, other.x)` for
    /// every field `x`.
    pub fn zip_with(&self, other: &BulkFluxes, op: impl Fn(f64, f64) -> f64) -> BulkFluxes {
        BulkFluxes {
            sensible: op(self.sensible, other.sensible),
            latent: op(self.latent, other.latent),
            evaporation: op(self.evaporation, other.evaporation),
            stress: op(self.stress, other.stress),
            tau_x: op(self.tau_x, other.tau_x),
            tau_y: op(self.tau_y, other.tau_y),
            c_exchange: op(self.c_exchange, other.c_exchange),
        }
    }
}

/// Inputs to the bulk formulas.
#[derive(Debug, Clone, Copy, Default)]
pub struct BulkInput {
    /// Lowest-model-level wind components \[m/s\].
    pub u: f64,
    pub v: f64,
    /// Lowest-level air temperature \[K\] and specific humidity.
    pub t_air: f64,
    pub q_air: f64,
    /// Surface temperature \[K\].
    pub t_sfc: f64,
    /// Saturation humidity at the surface temperature.
    pub q_sfc_sat: f64,
    /// Surface wetness factor D_w ∈ \[0, 1\] (1 over ocean/ice/snow; the
    /// soil-moisture bucket sets it over land — paper §"The FOAM Coupler").
    pub wetness: f64,
    /// Reference height of the lowest model level \[m\].
    pub z_ref: f64,
}

/// Louis (1979)-type stability modifier applied to the neutral
/// coefficient. `ri` is the bulk Richardson number and `sqrt_neg_ri`
/// its `(-ri).sqrt()` (read only when `ri < 0`; the Charnock updates
/// take it once instead of once per update).
fn stability_factor(ri: f64, sqrt_neg_ri: f64, cn: f64, z_over_z0: f64) -> f64 {
    if ri < 0.0 {
        // Unstable: enhancement.
        let c = 7.4 * cn * 9.4 * (z_over_z0).sqrt();
        1.0 - 9.4 * ri / (1.0 + c * sqrt_neg_ri)
    } else {
        // Stable: suppression.
        let b = 1.0 + 4.7 * ri;
        1.0 / (b * b)
    }
}

/// Wind speed with the 0.5 m/s calm floor, and the bulk Richardson
/// number at that wind, clamped to ±10.
fn wind_and_ri(inp: &BulkInput) -> (f64, f64) {
    let wind = (inp.u * inp.u + inp.v * inp.v).sqrt().max(0.5);
    let theta_air = inp.t_air; // reference level is low; ignore Exner
    let ri = GRAVITY * inp.z_ref * (theta_air - inp.t_sfc)
        / (0.5 * (theta_air + inp.t_sfc) * wind * wind);
    (wind, ri.clamp(-10.0, 10.0))
}

/// Bulk fluxes over a surface with a *fixed* roughness length (land, ice,
/// snow).
pub fn bulk_fluxes_fixed_z0(inp: &BulkInput, z0: f64) -> BulkFluxes {
    let (wind, ri) = wind_and_ri(inp);
    let z_over_z0 = (inp.z_ref / z0).max(2.0);
    let cn = (VON_KARMAN / z_over_z0.ln()).powi(2);
    let c = cn * stability_factor(ri, (-ri).sqrt(), cn, z_over_z0);
    finish(inp, wind, c)
}

/// Bulk fluxes over the open ocean with CCM3-style diagnosed roughness:
/// Charnock relation z0 = a u*²/g (+ smooth-flow term), iterated with the
/// stability-dependent drag. The one-lane call of
/// [`bulk_fluxes_ocean_lanes`].
pub fn bulk_fluxes_ocean(inp: &BulkInput) -> BulkFluxes {
    bulk_fluxes_ocean_lanes::<1>(&[*inp])[0]
}

/// [`bulk_fluxes_ocean`] for `W` independent inputs at once. Each lane
/// runs the scalar recurrence: four Charnock updates in the same
/// operations and order, with its own stable/unstable branch. The
/// updates of one input depend on each other, so running `W` inputs
/// side by side lets their latencies (`ln`, a divide, `sqrt`) overlap;
/// no lane sees another's data, so every lane's bits equal the one-lane
/// call's. What the updates do not change — the wind, the Richardson
/// number and its square root — is taken once per lane.
pub fn bulk_fluxes_ocean_lanes<const W: usize>(inp: &[BulkInput; W]) -> [BulkFluxes; W] {
    let wind_ri: [(f64, f64); W] = std::array::from_fn(|l| wind_and_ri(&inp[l]));
    let sqrt_neg_ri: [f64; W] = std::array::from_fn(|l| (-wind_ri[l].1).sqrt());
    let mut z0 = [1.0e-4; W];
    let mut c = [0.0; W];
    for _ in 0..4 {
        for l in 0..W {
            let (wind, ri) = wind_ri[l];
            let z_over_z0 = (inp[l].z_ref / z0[l]).max(2.0);
            let cn = (VON_KARMAN / z_over_z0.ln()).powi(2);
            c[l] = cn * stability_factor(ri, sqrt_neg_ri[l], cn, z_over_z0);
            let ustar2 = c[l] * wind * wind;
            // Charnock + smooth-flow viscous term.
            z0[l] =
                (0.0185 * ustar2 / GRAVITY + 1.5e-5 / ustar2.sqrt().max(1e-3)).clamp(1e-6, 0.05);
        }
    }
    std::array::from_fn(|l| finish(&inp[l], wind_ri[l].0, c[l]))
}

fn finish(inp: &BulkInput, wind: f64, c: f64) -> BulkFluxes {
    let sensible = RHO_AIR * CP_DRY * c * wind * (inp.t_sfc - inp.t_air);
    let evaporation = (RHO_AIR * c * wind * (inp.q_sfc_sat - inp.q_air) * inp.wetness).max(-1e-4);
    let latent = L_VAP * evaporation;
    let stress = RHO_AIR * c * wind * wind;
    let (tau_x, tau_y) = if wind > 0.0 {
        (RHO_AIR * c * wind * inp.u, RHO_AIR * c * wind * inp.v)
    } else {
        (0.0, 0.0)
    };
    BulkFluxes {
        sensible,
        latent,
        evaporation,
        stress,
        tau_x,
        tau_y,
        c_exchange: c,
    }
}

/// Standard roughness lengths by surface kind \[m\].
pub mod roughness {
    pub const FOREST: f64 = 1.0;
    pub const GRASSLAND: f64 = 0.05;
    pub const DESERT: f64 = 0.01;
    pub const TUNDRA: f64 = 0.03;
    pub const ICE: f64 = 5.0e-4;
    pub const SNOW: f64 = 1.0e-3;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::saturation_humidity;

    fn ocean_input(wind: f64, dt_sea_air: f64) -> BulkInput {
        let t_air = 290.0;
        let t_sfc = t_air + dt_sea_air;
        BulkInput {
            u: wind,
            v: 0.0,
            t_air,
            q_air: 0.6 * saturation_humidity(t_air, 1.0e5),
            t_sfc,
            q_sfc_sat: saturation_humidity(t_sfc, 1.0e5),
            wetness: 1.0,
            z_ref: 70.0,
        }
    }

    #[test]
    fn warm_ocean_drives_upward_fluxes() {
        let f = bulk_fluxes_ocean(&ocean_input(8.0, 2.0));
        assert!(f.sensible > 0.0, "sensible {}", f.sensible);
        assert!(f.latent > 0.0);
        assert!(f.stress > 0.0 && f.tau_x > 0.0 && f.tau_y == 0.0);
        // Typical trade-wind magnitudes: tens of W/m² sensible, larger
        // latent.
        assert!(f.latent > f.sensible);
        assert!((5.0..2000.0).contains(&f.latent), "latent {}", f.latent);
    }

    #[test]
    fn stable_stratification_suppresses_exchange() {
        let unstable = bulk_fluxes_ocean(&ocean_input(8.0, 3.0));
        let stable = bulk_fluxes_ocean(&ocean_input(8.0, -3.0));
        assert!(
            stable.c_exchange < unstable.c_exchange,
            "stable {} should be < unstable {}",
            stable.c_exchange,
            unstable.c_exchange
        );
        // Cold surface → downward sensible heat.
        assert!(stable.sensible < 0.0);
    }

    #[test]
    fn ocean_drag_grows_with_wind_speed() {
        // The CCM3 point: roughness (hence drag) depends on wind.
        let low = bulk_fluxes_ocean(&ocean_input(3.0, 0.5));
        let high = bulk_fluxes_ocean(&ocean_input(20.0, 0.5));
        assert!(
            high.c_exchange > low.c_exchange,
            "Charnock: {} vs {}",
            high.c_exchange,
            low.c_exchange
        );
        // Neutral drag in the familiar 1–2 ×10⁻³ range at moderate wind.
        let mid = bulk_fluxes_ocean(&ocean_input(8.0, 0.0));
        assert!(
            (5.0e-4..4.0e-3).contains(&mid.c_exchange),
            "C_D = {}",
            mid.c_exchange
        );
    }

    #[test]
    fn rough_land_exchanges_more_than_smooth() {
        let inp = BulkInput {
            wetness: 0.5,
            ..ocean_input(6.0, 2.0)
        };
        let forest = bulk_fluxes_fixed_z0(&inp, roughness::FOREST);
        let desert = bulk_fluxes_fixed_z0(&inp, roughness::DESERT);
        assert!(forest.c_exchange > desert.c_exchange);
    }

    #[test]
    fn wetness_scales_evaporation_only() {
        let dry = BulkInput {
            wetness: 0.2,
            ..ocean_input(6.0, 2.0)
        };
        let wet = BulkInput {
            wetness: 1.0,
            ..ocean_input(6.0, 2.0)
        };
        let fd = bulk_fluxes_fixed_z0(&dry, 0.05);
        let fw = bulk_fluxes_fixed_z0(&wet, 0.05);
        assert!((fd.evaporation / fw.evaporation - 0.2).abs() < 1e-9);
        assert!((fd.sensible - fw.sensible).abs() < 1e-12);
    }

    #[test]
    fn stress_aligns_with_wind() {
        let inp = BulkInput {
            u: 3.0,
            v: -4.0,
            ..ocean_input(5.0, 1.0)
        };
        let f = bulk_fluxes_ocean(&inp);
        // tau ∝ (u, v): components have the wind's direction.
        assert!(f.tau_x > 0.0 && f.tau_y < 0.0);
        assert!((f.tau_y / f.tau_x - (-4.0 / 3.0)).abs() < 1e-9);
        assert!((f.stress - (f.tau_x * f.tau_x + f.tau_y * f.tau_y).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn calm_wind_floor_prevents_zero_exchange() {
        let f = bulk_fluxes_ocean(&ocean_input(0.0, 2.0));
        assert!(f.sensible > 0.0, "gustiness floor missing");
    }

    /// The scalar Charnock loop as it stood before the lane kernel,
    /// kept as the reference the lanes must equal bit for bit. Also
    /// reports whether any update hit the 0.05 m roughness clamp.
    fn ocean_reference(inp: &BulkInput) -> (BulkFluxes, bool) {
        fn stability(ri: f64, cn: f64, z_over_z0: f64) -> f64 {
            if ri < 0.0 {
                let c = 7.4 * cn * 9.4 * (z_over_z0).sqrt();
                1.0 - 9.4 * ri / (1.0 + c * (-ri).sqrt())
            } else {
                let b = 1.0 + 4.7 * ri;
                1.0 / (b * b)
            }
        }
        let wind = (inp.u * inp.u + inp.v * inp.v).sqrt().max(0.5);
        let mut z0 = 1.0e-4;
        let mut c = 0.0;
        let mut hit_top = false;
        for _ in 0..4 {
            let z_over_z0 = (inp.z_ref / z0).max(2.0);
            let cn = (VON_KARMAN / z_over_z0.ln()).powi(2);
            let ri = GRAVITY * inp.z_ref * (inp.t_air - inp.t_sfc)
                / (0.5 * (inp.t_air + inp.t_sfc) * wind * wind);
            let ri = ri.clamp(-10.0, 10.0);
            c = cn * stability(ri, cn, z_over_z0);
            let ustar2 = c * wind * wind;
            let raw = 0.0185 * ustar2 / GRAVITY + 1.5e-5 / ustar2.sqrt().max(1e-3);
            hit_top |= raw > 0.05;
            z0 = raw.clamp(1e-6, 0.05);
        }
        (finish(inp, wind, c), hit_top)
    }

    fn bits(f: &BulkFluxes) -> [u64; 7] {
        [
            f.sensible,
            f.latent,
            f.evaporation,
            f.stress,
            f.tau_x,
            f.tau_y,
            f.c_exchange,
        ]
        .map(f64::to_bits)
    }

    /// 2 000 inputs from a fixed SplitMix64 stream: winds to 25 m/s with
    /// one in eight below the calm floor, air − sea within ±10 K, and
    /// reference heights from the production 70 m down to 0.3 m.
    fn draws() -> Vec<BulkInput> {
        let mut state = 0x5eed_0ff1_u64;
        let mut unit = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        };
        (0..2000)
            .map(|_| {
                let calm = unit() < 0.125;
                let scale = if calm { 0.3 } else { 25.0 };
                let t_sfc = 270.0 + 35.0 * unit();
                let t_air = t_sfc + 20.0 * unit() - 10.0;
                BulkInput {
                    u: scale * (2.0 * unit() - 1.0),
                    v: scale * (2.0 * unit() - 1.0),
                    t_air,
                    q_air: unit() * saturation_humidity(t_air, 1.0e5),
                    t_sfc,
                    q_sfc_sat: saturation_humidity(t_sfc, 1.0e5),
                    wetness: 1.0,
                    z_ref: [70.0, 70.0, 10.0, 2.0, 0.3][(unit() * 5.0) as usize % 5],
                }
            })
            .collect()
    }

    /// Every group of `W` consecutive draws through the lane kernel
    /// equals the reference per lane; returns how many groups mixed
    /// stable and unstable lanes.
    fn lanes_match<const W: usize>(all: &[BulkInput]) -> usize {
        let mut mixed = 0;
        for group in all.chunks_exact(W) {
            let inp: [BulkInput; W] = group.try_into().unwrap();
            let got = bulk_fluxes_ocean_lanes(&inp);
            for (l, x) in inp.iter().enumerate() {
                assert_eq!(
                    bits(&got[l]),
                    bits(&ocean_reference(x).0),
                    "W = {W}, lane {l}"
                );
            }
            let unstable = inp.iter().filter(|x| x.t_sfc > x.t_air).count();
            mixed += usize::from(unstable > 0 && unstable < W);
        }
        mixed
    }

    #[test]
    fn lanes_equal_the_scalar_loop_bit_for_bit() {
        let all = draws();
        let mixed = [
            lanes_match::<1>(&all),
            lanes_match::<2>(&all),
            lanes_match::<3>(&all),
            lanes_match::<4>(&all),
            lanes_match::<5>(&all),
            lanes_match::<6>(&all),
            lanes_match::<7>(&all),
            lanes_match::<8>(&all),
        ];
        assert_eq!(mixed[0], 0);
        assert!(mixed[1..].iter().all(|&m| m > 10), "mixed groups {mixed:?}");
        // The one-lane call is the public scalar entry point.
        for x in &all {
            assert_eq!(bits(&bulk_fluxes_ocean(x)), bits(&ocean_reference(x).0));
        }
        // The draws reach the calm floor and the upper roughness clamp.
        let calm = all.iter().filter(|x| x.u.hypot(x.v) < 0.5).count();
        let top = all.iter().filter(|x| ocean_reference(x).1).count();
        assert!(
            calm > 100 && top >= 10,
            "calm {calm}, clamped at 0.05 m {top}"
        );
    }

    /// The lower roughness clamp (1e-6 m) cannot bind: with a = 0.0185/g
    /// and b = 1.5e-5, a·u*² + b/max(u*, 1e-3) has its minimum at
    /// u*³ = b/(2a), about 1.4e-4 m. So no input can reach it, and the
    /// lane test cannot draw one.
    #[test]
    fn the_lower_roughness_clamp_cannot_bind() {
        let z0 = |us: f64| 0.0185 * us * us / GRAVITY + 1.5e-5 / us.max(1e-3);
        let min = (0..=4000)
            .map(|k| z0(10f64.powf(-6.0 + 8.0 * k as f64 / 4000.0)))
            .fold(f64::INFINITY, f64::min);
        assert!((1.3e-4..1.5e-4).contains(&min), "min z0 {min}");
    }
}
