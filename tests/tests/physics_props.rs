//! Property-based tests of the physics invariants: moist enthalpy and
//! water conservation must hold for *arbitrary* (physical) columns, and
//! the land hydrology must never create or destroy water.

use foam_grid::constants::L_VAP;
use foam_land::hydrology::{Bucket, RHO_WATER};
use foam_physics::column::saturation_humidity;
use foam_physics::convection::{compute_cape_ws, convect_ws, ConvectionParams};
use foam_physics::{AtmColumn, PhysicsVintage, PhysicsWorkspace};
use proptest::prelude::*;

/// Strategy: a physically plausible 12-level column — surface
/// temperature in [250, 310] K, lapse exponent in [0.12, 0.24], relative
/// humidity profile in [0.2, 1.05].
fn column_strategy() -> impl Strategy<Value = AtmColumn> {
    (
        250.0f64..310.0,
        0.12f64..0.24,
        prop::collection::vec(0.2f64..1.05, 12),
    )
        .prop_map(|(t_sfc, lapse, rh)| {
            let mut c = AtmColumn::isothermal(12, 2000.0, t_sfc);
            for k in 0..12 {
                c.t[k] = t_sfc * (c.p[k] / 1.0e5).powf(lapse);
                c.q[k] = rh[k] * saturation_humidity(c.t[k], c.p[k]);
            }
            c
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn convection_conserves_enthalpy_and_water(col in column_strategy(), dt in 300.0f64..7200.0) {
        let mut c = col;
        let col_t_min = c.t.iter().cloned().fold(f64::INFINITY, f64::min);
        let col_t_max = c.t.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let h0 = c.moist_enthalpy();
        let w0 = c.precipitable_water();
        let out = convect_ws(&mut c, dt, &ConvectionParams::default(), PhysicsVintage::Ccm3, &mut PhysicsWorkspace::new());
        let h1 = c.moist_enthalpy();
        let w1 = c.precipitable_water();
        // Water: column loss equals surface precipitation.
        prop_assert!(
            (w0 - w1 - out.total_precip()).abs() < 1e-8 * w0.max(1e-6),
            "water: {w0} → {w1}, precip {}", out.total_precip()
        );
        // Moist enthalpy: conserved up to the precip's sensible heat
        // (liquid water leaves at ~column temperature; the latent part
        // is already booked). Tolerance scales with the precip amount.
        let tol = 1e-6 * h0 + out.total_precip() * 4200.0 * 320.0;
        prop_assert!((h1 - h0).abs() < tol, "enthalpy drift {} (precip {})", h1 - h0, out.total_precip());
        // Output stays physical *relative to the input range* (the
        // strategy can generate very cold stratospheres; convection must
        // not push beyond it by more than the available latent heating).
        prop_assert!(c.t.iter().all(|t| t.is_finite()));
        let t_in_min = col_t_min - 1.0;
        let t_in_max = col_t_max + 50.0;
        prop_assert!(
            c.t.iter().all(|t| (t_in_min..t_in_max).contains(t)),
            "T left [{t_in_min}, {t_in_max}]: {:?}", c.t
        );
        prop_assert!(c.q.iter().all(|q| (0.0..0.06).contains(q)));
        prop_assert!(out.total_precip() >= 0.0);
    }

    #[test]
    fn convection_reduces_or_keeps_cape(col in column_strategy()) {
        let mut c = col;
        let cape0 = compute_cape_ws(&c, &mut PhysicsWorkspace::new());
        convect_ws(&mut c, 3600.0, &ConvectionParams::default(), PhysicsVintage::Ccm3, &mut PhysicsWorkspace::new());
        let cape1 = compute_cape_ws(&c, &mut PhysicsWorkspace::new());
        // Convection must never *create* instability (small tolerance
        // for the shallow-mixing moisture rearrangement).
        prop_assert!(cape1 <= cape0 + 50.0, "CAPE {cape0} → {cape1}");
    }

    #[test]
    fn bucket_never_goes_negative_or_above_capacity(
        steps in prop::collection::vec((0.0f64..3.0e-3, 0.0f64..2.0e-4, any::<bool>(), 255.0f64..300.0), 1..200)
    ) {
        let mut b = Bucket::default();
        for (p, e, snowing, t) in steps {
            b.step(p, e, snowing, t, 1800.0);
            prop_assert!(b.soil_water >= -1e-12);
            prop_assert!(b.soil_water <= foam_land::hydrology::BUCKET_CAPACITY + 1e-12);
            prop_assert!(b.snow >= -1e-12);
            prop_assert!(b.snow <= foam_land::hydrology::SNOW_CAP + 1e-12);
            prop_assert!((0.0..=1.0).contains(&b.wetness()));
        }
    }

    #[test]
    fn bucket_budget_closes_for_any_forcing(
        steps in prop::collection::vec((0.0f64..2.0e-3, -5.0e-5f64..2.0e-4, any::<bool>()), 1..100)
    ) {
        let mut b = Bucket::default();
        let dt = 3600.0;
        let mut injected = 0.0;
        let mut removed = 0.0;
        for (p, e, snowing) in steps {
            let before = b.soil_water + b.snow;
            let out = b.step(p, e, snowing, 275.0, dt);
            let after = b.soil_water + b.snow;
            // Evaporation actually taken (may be capped by the stores).
            let evap_taken = before + p * dt / RHO_WATER - out.runoff - after;
            injected += p * dt / RHO_WATER;
            removed += out.runoff + evap_taken;
            prop_assert!(
                (injected - removed - (b.soil_water + b.snow)).abs() < 1e-9,
                "budget residual"
            );
        }
    }

    #[test]
    fn bulk_fluxes_satisfy_bowen_consistency(
        wind in 0.5f64..25.0,
        dt_sea_air in -5.0f64..5.0,
        t_air in 260.0f64..305.0,
    ) {
        use foam_physics::surface::{bulk_fluxes_ocean, BulkInput};
        let t_sfc = t_air + dt_sea_air;
        let inp = BulkInput {
            u: wind, v: 0.0,
            t_air,
            q_air: 0.7 * saturation_humidity(t_air, 1.0e5),
            t_sfc,
            q_sfc_sat: saturation_humidity(t_sfc, 1.0e5),
            wetness: 1.0,
            z_ref: 70.0,
        };
        let f = bulk_fluxes_ocean(&inp);
        // Latent = L · evaporation, always.
        prop_assert!((f.latent - L_VAP * f.evaporation).abs() < 1e-9 * f.latent.abs().max(1.0));
        // Sensible heat has the sign of the sea−air contrast.
        if dt_sea_air.abs() > 0.2 {
            prop_assert_eq!(f.sensible > 0.0, dt_sea_air > 0.0);
        }
        // Drag stays positive and bounded; strongly stable boundary
        // layers legitimately shut the exchange down to near zero.
        prop_assert!(f.c_exchange > 0.0 && f.c_exchange < 1.0e-2);
        if dt_sea_air > 0.5 {
            prop_assert!(f.c_exchange > 1.0e-4, "unstable drag too small");
        }
        prop_assert!(f.stress >= 0.0);
    }
}
