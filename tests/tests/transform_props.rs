//! Property-based tests of the spectral transform machinery: the
//! analysis/synthesis pair must be exact (to rounding) for *any*
//! band-limited field, not just hand-picked ones.

use foam_spectral::{Complex, SpectralField, SphericalTransform, Truncation};
use proptest::prelude::*;

fn transform() -> SphericalTransform {
    SphericalTransform::new(foam_grid::AtmGrid::new(24, 16), Truncation::rhomboidal(5))
}

/// Strategy: random spectral coefficients in [-1, 1] (imaginary part of
/// m = 0 forced to zero, as required for a real field).
fn spec_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 36)
}

fn build_field(t: &SphericalTransform, coeffs: &[(f64, f64)]) -> SpectralField {
    let mut spec = SpectralField::zeros(t.trunc);
    for (idx, (m, n)) in t.trunc.pairs().enumerate() {
        let (re, im) = coeffs[idx];
        let im = if m == 0 { 0.0 } else { im };
        spec.set(m, n, Complex::new(re, im));
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn roundtrip_is_identity_for_bandlimited_fields(coeffs in spec_strategy()) {
        let t = transform();
        let spec = build_field(&t, &coeffs);
        let grid = t.synthesize(&spec);
        let back = t.analyze(&grid);
        for (m, n) in t.trunc.pairs() {
            let d = back.get(m, n) - spec.get(m, n);
            prop_assert!(d.abs() < 1e-10, "({m},{n}): {d:?}");
        }
    }

    #[test]
    fn laplacian_and_inverse_cancel(coeffs in spec_strategy()) {
        let t = transform();
        let spec = build_field(&t, &coeffs);
        let lap = spec.laplacian();
        // The inverse, mode by mode: divide by the eigenvalue -n(n+1)/a²
        // (n = 0 is the null space, where the Laplacian must vanish).
        let a2 = foam_grid::constants::EARTH_RADIUS.powi(2);
        for (m, n) in t.trunc.pairs() {
            if n == 0 {
                prop_assert_eq!(lap.get(m, n).abs(), 0.0);
            } else {
                let round = lap.get(m, n).scale(-a2 / (n * (n + 1)) as f64);
                prop_assert!((round - spec.get(m, n)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn parseval_holds(coeffs in spec_strategy()) {
        let t = transform();
        let spec = build_field(&t, &coeffs);
        let grid = t.synthesize(&spec);
        // Gaussian-quadrature mean square on the grid.
        let mut s = 0.0;
        for j in 0..t.grid.nlat {
            for i in 0..t.grid.nlon {
                s += t.grid.weights[j] * grid.get(i, j) * grid.get(i, j);
            }
        }
        let grid_ms = s / (2.0 * t.grid.nlon as f64);
        prop_assert!((grid_ms - spec.mean_square()).abs() < 1e-9 * (1.0 + grid_ms));
    }

    #[test]
    fn hyperdiffusion_is_a_contraction(coeffs in spec_strategy(), nu in 1e12f64..1e17, dt in 100.0f64..10_000.0) {
        let t = transform();
        let mut spec = build_field(&t, &coeffs);
        let before = spec.mean_square();
        spec.apply_hyperdiffusion(nu, dt);
        let after = spec.mean_square();
        prop_assert!(after <= before * (1.0 + 1e-12));
        // The (0,0) mode is untouched.
        prop_assert!((spec.get(0, 0).re - build_field(&t, &coeffs).get(0, 0).re).abs() < 1e-15);
    }
}
