//! Vertical mixing: Pacanowski–Philander Richardson-number closure (with
//! the steeper dependency FOAM adopts from the Peters–Gregg–Toole
//! analysis) and convective adjustment, both acting column-wise.

use crate::eos::{brunt_vaisala_sq, density};

/// PP81 parameters.
#[derive(Debug, Clone, Copy)]
pub struct PpParams {
    /// Maximum shear-driven viscosity \[m²/s\].
    pub nu0: f64,
    /// Background viscosity \[m²/s\].
    pub nu_b: f64,
    /// Background diffusivity \[m²/s\].
    pub kappa_b: f64,
    /// Richardson-function coefficient (PP81 uses 5.0).
    pub alpha: f64,
    /// Richardson exponent: PP81 uses 2 for viscosity; FOAM uses a
    /// *steeper* dependency (3) per Peters et al., which reduces the
    /// west-Pacific cold bias (paper §"The FOAM Ocean Model").
    pub exponent: i32,
}

impl Default for PpParams {
    fn default() -> Self {
        PpParams {
            nu0: 5.0e-2,
            nu_b: 1.0e-4,
            kappa_b: 1.0e-5,
            alpha: 5.0,
            exponent: 3,
        }
    }
}

impl PpParams {
    /// Viscosity and diffusivity at an interface with Richardson number
    /// `ri` (clipped below at 0 — unstable columns are handled by
    /// convective adjustment).
    pub fn coefficients(&self, ri: f64) -> (f64, f64) {
        let ri = ri.max(0.0);
        let denom = (1.0 + self.alpha * ri).powi(self.exponent);
        let nu = self.nu0 / denom + self.nu_b;
        // PP: diffusivity gets one more power of the denominator.
        let kappa = self.nu0 / (denom * (1.0 + self.alpha * ri)) + self.kappa_b;
        (nu, kappa)
    }
}

/// Interface Richardson number from adjacent layer values.
#[inline]
pub fn richardson(
    t_up: f64,
    s_up: f64,
    u_up: f64,
    v_up: f64,
    t_dn: f64,
    s_dn: f64,
    u_dn: f64,
    v_dn: f64,
    dz: f64,
) -> f64 {
    let n2 = brunt_vaisala_sq(t_up, s_up, t_dn, s_dn, dz);
    let du = u_up - u_dn;
    let dv = v_up - v_dn;
    let shear2 = (du * du + dv * dv) / (dz * dz);
    n2 / shear2.max(1.0e-10)
}

/// Implicit vertical diffusion of columns on fixed layer thicknesses.
/// No-flux boundaries, so ∑ x·dz is conserved exactly.
#[derive(Debug, Clone)]
pub(crate) struct ColumnDiffuser {
    dz: Vec<f64>,
    /// Distance between adjacent layer centres, `0.5 * (dz[k] + dz[k+1])`.
    pub dz_int: Vec<f64>,
}

impl ColumnDiffuser {
    pub fn new(dz: &[f64]) -> Self {
        ColumnDiffuser {
            dz: dz.to_vec(),
            dz_int: dz.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect(),
        }
    }

    /// Diffuse two columns that share the per-interface diffusivities
    /// `k_int` (length `n − 1`) over `dt`: the tridiagonal matrix is
    /// built and factorised once (Thomas algorithm) and both right-hand
    /// sides ride the same sweep. `cp` is scratch of length `n`.
    pub fn diffuse_pair(
        &self,
        x: &mut [f64],
        y: &mut [f64],
        k_int: &[f64],
        dt: f64,
        cp: &mut [f64],
    ) {
        let n = x.len();
        if n < 2 {
            return;
        }
        assert!(y.len() == n && k_int.len() == n - 1 && self.dz.len() == n && cp.len() == n);
        let dz = &self.dz;
        let mut g_up = 0.0;
        for k in 0..n {
            let g_dn = if k < n - 1 {
                k_int[k] / self.dz_int[k]
            } else {
                0.0
            };
            let b = 1.0 + dt * (g_up + g_dn) / dz[k];
            let c = if k < n - 1 { -dt * g_dn / dz[k] } else { 0.0 };
            if k == 0 {
                cp[0] = c / b;
                x[0] /= b;
                y[0] /= b;
            } else {
                let a = -dt * g_up / dz[k];
                let den = b - a * cp[k - 1];
                cp[k] = c / den;
                x[k] = (x[k] - a * x[k - 1]) / den;
                y[k] = (y[k] - a * y[k - 1]) / den;
            }
            g_up = g_dn;
        }
        for k in (0..n - 1).rev() {
            x[k] -= cp[k] * x[k + 1];
            y[k] -= cp[k] * y[k + 1];
        }
    }
}

/// Complete convective adjustment by mixed-layer extension: wherever
/// density increases upward, merge the unstable layers into one mixed
/// layer (volume-weighted T, S), extend it downward while it remains
/// denser than the layer below, then re-check against the layer above.
/// Terminates with a statically stable column. Returns the number of
/// mixing events + 1 (so a stable column reports 1).
pub fn convective_adjustment(t: &mut [f64], s: &mut [f64], dz: &[f64], max_sweeps: usize) -> usize {
    let n = t.len();
    let mut events = 0usize;
    let mut k = 0usize;
    while k + 1 < n {
        if density(t[k], s[k]) <= density(t[k + 1], s[k + 1]) + 1e-12 {
            k += 1;
            continue;
        }
        // Merge [k ..= end] into one mixed layer, extending downward.
        let mut end = k + 1;
        loop {
            let mut m = 0.0;
            let mut tm = 0.0;
            let mut sm = 0.0;
            for kk in k..=end {
                m += dz[kk];
                tm += dz[kk] * t[kk];
                sm += dz[kk] * s[kk];
            }
            tm /= m;
            sm /= m;
            if end + 1 < n && density(tm, sm) > density(t[end + 1], s[end + 1]) + 1e-12 {
                end += 1;
                continue;
            }
            for kk in k..=end {
                t[kk] = tm;
                s[kk] = sm;
            }
            break;
        }
        events += 1;
        if events >= max_sweeps {
            break;
        }
        // The new mixed layer may now destabilize the layer above.
        k = k.saturating_sub(1);
    }
    events + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use foam_grid::constants::S_REF;
    use rand::{Rng, SeedableRng};

    /// The one-column solver `ColumnDiffuser::diffuse_pair` replaced,
    /// kept as its reference.
    fn diffuse_column(x: &mut [f64], k_int: &[f64], dz: &[f64], dt: f64) {
        let n = x.len();
        if n < 2 {
            return;
        }
        assert_eq!(k_int.len(), n - 1);
        let mut a = vec![0.0; n];
        let mut b = vec![0.0; n];
        let mut c = vec![0.0; n];
        for k in 0..n {
            let g_up = if k > 0 {
                k_int[k - 1] / (0.5 * (dz[k - 1] + dz[k]))
            } else {
                0.0
            };
            let g_dn = if k < n - 1 {
                k_int[k] / (0.5 * (dz[k] + dz[k + 1]))
            } else {
                0.0
            };
            b[k] = 1.0 + dt * (g_up + g_dn) / dz[k];
            if k > 0 {
                a[k] = -dt * g_up / dz[k];
            }
            if k < n - 1 {
                c[k] = -dt * g_dn / dz[k];
            }
        }
        // Thomas algorithm.
        let mut cp = vec![0.0; n];
        let mut dp = vec![0.0; n];
        cp[0] = c[0] / b[0];
        dp[0] = x[0] / b[0];
        for k in 1..n {
            let den = b[k] - a[k] * cp[k - 1];
            cp[k] = c[k] / den;
            dp[k] = (x[k] - a[k] * dp[k - 1]) / den;
        }
        x[n - 1] = dp[n - 1];
        for k in (0..n - 1).rev() {
            x[k] = dp[k] - cp[k] * x[k + 1];
        }
    }

    fn diffuse(x: &mut [f64], k_int: &[f64], dz: &[f64], dt: f64) {
        let mut twin = x.to_vec();
        let mut cp = vec![0.0; x.len()];
        ColumnDiffuser::new(dz).diffuse_pair(x, &mut twin, k_int, dt, &mut cp);
        assert_eq!(x, &twin[..]);
    }

    #[test]
    fn pair_solve_matches_two_single_solves_bit_for_bit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        for n in 2..=20 {
            for _ in 0..50 {
                let dz: Vec<f64> = (0..n).map(|_| rng.random_range(5.0..500.0)).collect();
                let k_int: Vec<f64> = (0..n - 1).map(|_| rng.random_range(1.0e-6..0.1)).collect();
                let dt = rng.random_range(600.0..1.0e5);
                let x: Vec<f64> = (0..n).map(|_| rng.random_range(-2.0..30.0)).collect();
                let y: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
                let (mut xr, mut yr) = (x.clone(), y.clone());
                diffuse_column(&mut xr, &k_int, &dz, dt);
                diffuse_column(&mut yr, &k_int, &dz, dt);
                let (mut xp, mut yp) = (x, y);
                let mut cp = vec![0.0; n];
                ColumnDiffuser::new(&dz).diffuse_pair(&mut xp, &mut yp, &k_int, dt, &mut cp);
                let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&xp), bits(&xr), "n = {n}");
                assert_eq!(bits(&yp), bits(&yr), "n = {n}");
            }
        }
    }

    #[test]
    fn pp_mixing_shuts_down_with_stratification() {
        let p = PpParams::default();
        let (nu_strong, k_strong) = p.coefficients(0.0);
        let (nu_weak, k_weak) = p.coefficients(5.0);
        assert!(nu_strong > 50.0 * nu_weak);
        assert!(k_strong > 50.0 * k_weak);
        // Backgrounds as floors.
        assert!(nu_weak >= p.nu_b && k_weak >= p.kappa_b);
    }

    #[test]
    fn steeper_exponent_cuts_mixing_faster() {
        let pp2 = PpParams {
            exponent: 2,
            ..Default::default()
        };
        let pp3 = PpParams::default();
        let ri = 0.5;
        assert!(pp3.coefficients(ri).0 < pp2.coefficients(ri).0);
        // At Ri = 0 they agree.
        assert!((pp3.coefficients(0.0).0 - pp2.coefficients(0.0).0).abs() < 1e-15);
    }

    #[test]
    fn richardson_sign_tracks_stratification() {
        // Stable, weak shear → large positive Ri.
        let ri = richardson(20.0, S_REF, 0.01, 0.0, 5.0, S_REF, 0.0, 0.0, 50.0);
        assert!(ri > 1.0);
        // Unstable → negative.
        let ri2 = richardson(5.0, S_REF, 0.01, 0.0, 20.0, S_REF, 0.0, 0.0, 50.0);
        assert!(ri2 < 0.0);
    }

    #[test]
    fn diffusion_conserves_heat_content() {
        let dz = [10.0, 20.0, 40.0, 80.0];
        let mut t = [25.0, 18.0, 10.0, 4.0];
        let total0: f64 = t.iter().zip(&dz).map(|(x, d)| x * d).sum();
        diffuse(&mut t, &[1e-3, 1e-4, 1e-5], &dz, 86_400.0);
        let total1: f64 = t.iter().zip(&dz).map(|(x, d)| x * d).sum();
        assert!((total1 - total0).abs() < 1e-9 * total0.abs());
        // Smoothing: top cooled, layer below warmed.
        assert!(t[0] < 25.0 && t[1] > 18.0);
    }

    #[test]
    fn diffusion_is_stable_for_huge_dt() {
        let dz = [25.0; 8];
        let mut t = [30.0, 2.0, 30.0, 2.0, 30.0, 2.0, 30.0, 2.0];
        diffuse(&mut t, &[0.05; 7], &dz, 1.0e7);
        // Implicit solve → bounded by initial extremes.
        for &v in &t {
            assert!((2.0 - 1e-6..=30.0 + 1e-6).contains(&v));
        }
        // Nearly homogenized.
        assert!((t[0] - t[7]).abs() < 1.0);
    }

    #[test]
    fn convective_adjustment_restores_stability() {
        let dz = [25.0, 35.0, 60.0];
        let mut t = [2.0, 10.0, 12.0]; // cold over warm: unstable
        let mut s = [S_REF; 3];
        let heat0: f64 = t.iter().zip(&dz).map(|(x, d)| x * d).sum();
        let sweeps = convective_adjustment(&mut t, &mut s, &dz, 10);
        assert!(sweeps > 1);
        for k in 0..2 {
            assert!(
                density(t[k], s[k]) <= density(t[k + 1], s[k + 1]) + 1e-9,
                "still unstable at {k}"
            );
        }
        let heat1: f64 = t.iter().zip(&dz).map(|(x, d)| x * d).sum();
        assert!((heat1 - heat0).abs() < 1e-9 * heat0.abs());
    }

    #[test]
    fn stable_column_is_untouched() {
        let dz = [25.0, 35.0];
        let mut t = [20.0, 5.0];
        let mut s = [S_REF; 2];
        assert_eq!(convective_adjustment(&mut t, &mut s, &dz, 10), 1);
        assert_eq!(t, [20.0, 5.0]);
    }
}
