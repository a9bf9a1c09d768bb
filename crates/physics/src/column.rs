//! The atmospheric column state and thermodynamic helpers.

use foam_grid::constants::{CP_DRY, GRAVITY, R_DRY};

/// One atmospheric column: pressure levels (top → bottom), temperature
/// and specific humidity. FOAM's atmosphere uses 18 levels.
#[derive(Debug, Clone)]
pub struct AtmColumn {
    /// Mid-layer pressures \[Pa\], increasing downward (k = 0 is the top).
    pub p: Vec<f64>,
    /// Layer pressure thicknesses \[Pa\].
    pub dp: Vec<f64>,
    /// Temperature \[K\].
    pub t: Vec<f64>,
    /// Specific humidity \[kg/kg\].
    pub q: Vec<f64>,
}

impl AtmColumn {
    /// An isothermal, moderately moist column on equally spaced pressure
    /// layers between `p_top` and 10⁵ Pa.
    pub fn isothermal(nlev: usize, p_top: f64, t0: f64) -> Self {
        let p_bot = 1.0e5;
        let d = (p_bot - p_top) / nlev as f64;
        let p: Vec<f64> = (0..nlev).map(|k| p_top + (k as f64 + 0.5) * d).collect();
        let q = p
            .iter()
            .map(|&pk| 0.5 * saturation_humidity(t0, pk))
            .collect();
        AtmColumn {
            p,
            dp: vec![d; nlev],
            t: vec![t0; nlev],
            q,
        }
    }

    /// A column with a realistic tropospheric lapse rate (6.5 K/km
    /// equivalent in pressure coordinates) and humidity decreasing with
    /// height; `t_sfc` in K.
    pub fn standard(nlev: usize, t_sfc: f64) -> Self {
        let mut c = Self::isothermal(nlev, 2000.0, t_sfc);
        for k in 0..nlev {
            // T ∝ (p/p0)^(Rd Γ / g ρ...) — use the dry-adiabatic-like
            // power law with exponent 0.19 (≈ 6.5 K/km).
            c.t[k] = t_sfc * (c.p[k] / 1.0e5).powf(0.19);
            let rh = 0.75 * (c.p[k] / 1.0e5).powf(1.5);
            c.q[k] = rh * saturation_humidity(c.t[k], c.p[k]);
        }
        c
    }

    #[inline]
    pub fn nlev(&self) -> usize {
        self.p.len()
    }

    /// Potential temperature of layer `k` referenced to 1000 hPa.
    #[inline]
    pub fn theta(&self, k: usize) -> f64 {
        self.t[k] * (1.0e5 / self.p[k]).powf(R_DRY / CP_DRY)
    }

    /// Layer mass per unit area \[kg/m²\]: Δp / g.
    #[inline]
    pub(crate) fn layer_mass(&self, k: usize) -> f64 {
        self.dp[k] / GRAVITY
    }

    /// Column-integrated water vapour \[kg/m²\].
    pub fn precipitable_water(&self) -> f64 {
        (0..self.nlev())
            .map(|k| self.q[k] * self.layer_mass(k))
            .sum()
    }

    /// Column moist enthalpy ∫(c_p T + L q) dm \[J/m²\].
    pub fn moist_enthalpy(&self) -> f64 {
        (0..self.nlev())
            .map(|k| {
                (CP_DRY * self.t[k] + foam_grid::constants::L_VAP * self.q[k]) * self.layer_mass(k)
            })
            .sum()
    }

    /// Relative humidity of layer `k`, clipped to \[0, 1.5\].
    #[inline]
    pub(crate) fn rel_humidity(&self, k: usize) -> f64 {
        (self.q[k] / saturation_humidity(self.t[k], self.p[k])).clamp(0.0, 1.5)
    }

    /// Approximate geopotential height of layer `k` above the surface
    /// \[m\] (hypsometric, layer-by-layer from the bottom).
    pub fn height(&self, k: usize) -> f64 {
        let n = self.nlev();
        let mut z = 0.0;
        let mut kk = n - 1;
        // Half-layer from the surface to the lowest mid-level.
        z += R_DRY * self.t[n - 1] / GRAVITY * (1.0e5 / self.p[n - 1]).ln();
        while kk > k {
            let tbar = 0.5 * (self.t[kk] + self.t[kk - 1]);
            z += R_DRY * tbar / GRAVITY * (self.p[kk] / self.p[kk - 1]).ln();
            kk -= 1;
        }
        z
    }
}

/// Saturation specific humidity over liquid water (Tetens / Murray form):
/// q_s = 0.622 e_s / p.
#[inline]
pub fn saturation_humidity(t: f64, p: f64) -> f64 {
    let tc = t - 273.15;
    let es = 610.78 * (17.27 * tc / (tc + 237.3)).exp();
    (0.622 * es / p.max(es * 1.01)).min(0.05)
}

/// Pseudo-adiabatic parcel ascent: the temperature a parcel with initial
/// state `(t0, q0, p0)` reaches at pressure `p`, warming dry-adiabatically
/// plus the latent heat of whatever vapour has condensed by that level.
/// The reference the cached-factor CAPE integral is checked against.
#[cfg(test)]
pub(crate) fn moist_adiabat(t0: f64, q0: f64, p0: f64, p: f64) -> f64 {
    let kappa = R_DRY / CP_DRY;
    let [t] = moist_adiabat_lanes([t0 * (p / p0).powf(kappa)], q0, [p]);
    t
}

/// The moist adiabat at `W` levels at once: lane `l` is the temperature
/// a parcel of humidity `q0`, whose dry-adiabatic temperature at
/// `p[l]` is `t_dry[l]`, reaches there once the latent heat of what has
/// condensed is added. An entrainment efficiency < 1 dilutes the
/// release, as in simple plume closures.
///
/// Each lane is solved by the same damped fixed-point iteration, step
/// for step, as if it were alone: a lane stops when an update moves it
/// by less than 10⁻⁶ K (keeping that update) or after 25 updates, and
/// the others carry on. The lanes share no arithmetic, so every lane
/// gets the bits of `W = 1`; what the width buys is `W` independent
/// `exp` → divide → compare chains in flight instead of one.
pub(crate) fn moist_adiabat_lanes<const W: usize>(
    t_dry: [f64; W],
    q0: f64,
    p: [f64; W],
) -> [f64; W] {
    use foam_grid::constants::L_VAP;
    const ENTRAINMENT_EFF: f64 = 0.6;
    let mut t = t_dry;
    let mut live = [true; W];
    for _ in 0..25 {
        for l in 0..W {
            if live[l] {
                let qs = saturation_humidity(t[l], p[l]);
                let release = (q0 - qs).max(0.0);
                let t_new = t_dry[l] + ENTRAINMENT_EFF * L_VAP / CP_DRY * release;
                if (t_new - t[l]).abs() < 1e-6 {
                    t[l] = t_new;
                    live[l] = false;
                } else {
                    t[l] = 0.5 * (t[l] + t_new);
                }
            }
        }
        if !live.contains(&true) {
            break;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn standard_column_is_plausible() {
        let c = AtmColumn::standard(18, 288.0);
        assert_eq!(c.nlev(), 18);
        // Temperature decreases with height (increases with k).
        for k in 1..18 {
            assert!(c.t[k] > c.t[k - 1], "lapse at {k}");
        }
        // Tropopause-ish top colder than 240 K, surface near 288 K.
        assert!(c.t[0] < 240.0);
        assert!((c.t[17] - 288.0).abs() < 3.0);
        // Water vapour concentrated near the surface.
        assert!(c.q[17] > 5.0 * c.q[5]);
        // Earth-like precipitable water (a few tens of kg/m²).
        let pw = c.precipitable_water();
        assert!((5.0..60.0).contains(&pw), "PW = {pw}");
    }

    #[test]
    fn theta_increases_with_height_for_stable_column() {
        let c = AtmColumn::standard(18, 288.0);
        for k in 1..18 {
            assert!(c.theta(k - 1) > c.theta(k), "theta inversion at {k}");
        }
    }

    #[test]
    fn saturation_humidity_behaviour() {
        // Roughly doubles every 10 K; ~14 g/kg at 293 K, 1000 hPa.
        let q20 = saturation_humidity(293.15, 1.0e5);
        assert!((0.013..0.017).contains(&q20), "q_sat(20C) = {q20}");
        let q30 = saturation_humidity(303.15, 1.0e5);
        assert!(q30 / q20 > 1.6 && q30 / q20 < 2.2);
        // Decreases with pressure at fixed T.
        assert!(saturation_humidity(293.15, 8.0e4) > q20);
    }

    #[test]
    fn heights_are_monotone_and_scale_like_atmosphere() {
        let c = AtmColumn::standard(18, 288.0);
        let mut prev = -1.0;
        for k in (0..18).rev() {
            let z = c.height(k);
            assert!(z > prev, "height not monotone at {k}");
            prev = z;
        }
        // Top layer around 25-45 km for p_top = 20 hPa.
        let zt = c.height(0);
        assert!((15_000.0..50_000.0).contains(&zt), "z_top = {zt}");
    }

    #[test]
    fn moist_adiabat_is_warmer_than_dry() {
        let t0 = 300.0;
        let p0 = 1.0e5f64;
        let p = 5.0e4;
        let kappa = R_DRY / CP_DRY;
        let t_dry = t0 * (p / p0).powf(kappa);
        let t_moist = moist_adiabat(t0, 0.015, p0, p);
        assert!(t_moist > t_dry);
        assert!(t_moist < t0);
    }

    #[test]
    fn dry_parcel_follows_dry_adiabat() {
        let t0 = 290.0;
        let kappa = R_DRY / CP_DRY;
        let t = moist_adiabat(t0, 0.0, 1.0e5, 6.0e4);
        assert!((t - t0 * (0.6f64).powf(kappa)).abs() < 1e-9);
    }

    /// The damped fixed-point iteration one level at a time, as written
    /// before the lanes, with the number of updates it took (`None`:
    /// stopped by the cap).
    fn scalar_recurrence(t_dry: f64, q0: f64, p: f64) -> (f64, Option<usize>) {
        let mut t = t_dry;
        for it in 1..=25 {
            let qs = saturation_humidity(t, p);
            let release = (q0 - qs).max(0.0);
            let t_new = t_dry + 0.6 * foam_grid::constants::L_VAP / CP_DRY * release;
            if (t_new - t).abs() < 1e-6 {
                return (t_new, Some(it));
            }
            t = 0.5 * (t + t_new);
        }
        (t, None)
    }

    /// `W` random lanes against `W` single-lane calls and the scalar
    /// recurrence; the update counts of the lanes (`None`: capped).
    fn check_lanes<const W: usize>(rng: &mut impl Rng) -> [Option<usize>; W] {
        let q0 = rng.random_range(0.0..0.05);
        let t_dry: [f64; W] = std::array::from_fn(|_| rng.random_range(150.0..330.0));
        let p: [f64; W] = std::array::from_fn(|_| rng.random_range(1.0e3..1.05e5));
        let lanes = moist_adiabat_lanes(t_dry, q0, p);
        std::array::from_fn(|l| {
            let [one] = moist_adiabat_lanes([t_dry[l]], q0, [p[l]]);
            let (want, updates) = scalar_recurrence(t_dry[l], q0, p[l]);
            let case = format!("t_dry {} q0 {q0} p {} (lane {l} of {W})", t_dry[l], p[l]);
            assert_eq!(lanes[l].to_bits(), one.to_bits(), "{case}");
            assert_eq!(one.to_bits(), want.to_bits(), "{case}");
            updates
        })
    }

    #[test]
    fn lanes_equal_the_scalar_recurrence_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(29);
        let (mut staggered, mut capped) = (0, 0);
        for _ in 0..2000 {
            let counts = check_lanes::<8>(&mut rng);
            staggered += usize::from(counts.iter().any(|c| *c != counts[0]));
            capped += counts.iter().filter(|c| c.is_none()).count();
            // Every width a column's remainder group can take.
            check_lanes::<1>(&mut rng);
            check_lanes::<2>(&mut rng);
            check_lanes::<3>(&mut rng);
            check_lanes::<4>(&mut rng);
            check_lanes::<5>(&mut rng);
            check_lanes::<6>(&mut rng);
            check_lanes::<7>(&mut rng);
        }
        // The draws cover what the lanes must get right: neighbours that
        // stop at different updates, and lanes stopped by the cap.
        assert!(staggered > 1000, "{staggered} staggered groups");
        assert!(capped > 1000, "{capped} capped lanes");
    }

    #[test]
    fn precipitable_water_additivity() {
        let mut c = AtmColumn::isothermal(10, 2000.0, 280.0);
        let before = c.precipitable_water();
        c.q[9] += 0.001;
        let after = c.precipitable_water();
        assert!((after - before - 0.001 * c.layer_mass(9)).abs() < 1e-9);
    }
}
