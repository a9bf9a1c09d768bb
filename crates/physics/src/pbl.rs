//! Boundary-layer vertical diffusion (implicit).
//!
//! CCM2's PBL scheme (modified per Vogelzang & Holtslag in FOAM) is
//! represented by implicit vertical diffusion of potential temperature
//! and humidity with a surface-stability-dependent diffusivity decaying
//! with height. The implicit (backward Euler) tridiagonal solve is
//! unconditionally stable, as in the original.

use crate::column::AtmColumn;
use crate::workspace::{fit, PhysicsWorkspace};
use foam_grid::constants::{GRAVITY, R_DRY};

/// Apply one implicit vertical-diffusion step to θ and q; all working
/// vectors are borrowed from `ws`.
///
/// `k_sfc` is the near-surface diffusivity \[m²/s\]; the profile decays as
/// exp(−z/`h_scale`).
///
/// ```
/// use foam_physics::pbl::vertical_diffusion_ws;
/// use foam_physics::{AtmColumn, PhysicsWorkspace};
///
/// let mut ws = PhysicsWorkspace::new();
/// let mut col = AtmColumn::standard(18, 288.0);
/// col.q[17] *= 3.0; // a surface moisture spike…
/// let (spike, above) = (col.q[17], col.q[16]);
/// vertical_diffusion_ws(&mut col, 1800.0, 50.0, 1000.0, &mut ws);
/// assert!(col.q[17] < spike && col.q[16] > above); // …mixes upward
/// ```
pub fn vertical_diffusion_ws(
    col: &mut AtmColumn,
    dt: f64,
    k_sfc: f64,
    h_scale: f64,
    ws: &mut PhysicsWorkspace,
) {
    let n = col.nlev();
    if n < 2 || k_sfc <= 0.0 {
        return;
    }
    let PhysicsWorkspace {
        pressure,
        z,
        m,
        g,
        theta,
        q,
        cp,
        ..
    } = ws;

    let pf = pressure.of(&col.p);

    // Geometry: heights of layer centres, [`AtmColumn::height`] for
    // every k in one upward pass (each height is the one below plus one
    // more layer, summed in the same order).
    fit(z, n);
    fit(m, n);
    let mut height = 0.0;
    height += R_DRY * col.t[n - 1] / GRAVITY * pf.lnp_sfc;
    z[n - 1] = height;
    for kk in (1..n).rev() {
        let tbar = 0.5 * (col.t[kk] + col.t[kk - 1]);
        height += R_DRY * tbar / GRAVITY * pf.dlnp[kk - 1];
        z[kk - 1] = height;
    }
    for k in 0..n {
        m[k] = col.layer_mass(k);
    }

    // Interface diffusive couplings g_k between layer k and k+1:
    // flux = rho K (X_k − X_{k+1}) / Δz  (positive downward when the
    // upper layer is richer). Express the update implicitly.
    fit(g, n - 1);
    for k in 0..n - 1 {
        let z_int = 0.5 * (z[k] + z[k + 1]);
        let kk = k_sfc * (-z_int / h_scale).exp();
        let dz = (z[k] - z[k + 1]).max(1.0);
        // Air density at the interface from the ideal gas law.
        let p_int = 0.5 * (col.p[k] + col.p[k + 1]);
        let t_int = 0.5 * (col.t[k] + col.t[k + 1]);
        let rho = p_int / (R_DRY * t_int);
        g[k] = rho * kk / dz; // kg m⁻² s⁻¹ per unit ΔX
    }

    // Convert T to θ, diffuse θ and q, convert back.
    let exner = &pf.exner;
    fit(theta, n);
    for k in 0..n {
        theta[k] = col.t[k] / exner[k];
    }
    q.clear();
    q.extend_from_slice(&col.q);
    fit(cp, n);
    solve_tridiag_diffusion_pair(theta, q, g, m, dt, cp);
    for k in 0..n {
        col.t[k] = theta[k] * exner[k];
        col.q[k] = q[k].max(0.0);
    }
}

/// Backward-Euler diffusion solve for two fields sharing the couplings
/// `g`: (I − dt A) X^{n+1} = X^n, where A is the conservative
/// flux-divergence operator. The matrix depends on `g`, `m` and `dt`
/// alone, so it is eliminated once (Thomas algorithm, pivots divided
/// by as before) and both right-hand sides ride the same sweeps; each
/// gets the bits a solve of its own would. `cp` is scratch of length
/// `x.len()`, fully rebuilt here.
fn solve_tridiag_diffusion_pair(
    x: &mut [f64],
    y: &mut [f64],
    g: &[f64],
    m: &[f64],
    dt: f64,
    cp: &mut [f64],
) {
    let n = x.len();
    for k in 0..n {
        let up = if k > 0 { g[k - 1] } else { 0.0 };
        let dn = if k < n - 1 { g[k] } else { 0.0 };
        let b = 1.0 + dt * (up + dn) / m[k];
        let c = if k < n - 1 { -dt * dn / m[k] } else { 0.0 };
        if k == 0 {
            cp[0] = c / b;
            x[0] /= b;
            y[0] /= b;
        } else {
            let a = -dt * up / m[k];
            let denom = b - a * cp[k - 1];
            cp[k] = c / denom;
            x[k] = (x[k] - a * x[k - 1]) / denom;
            y[k] = (y[k] - a * y[k - 1]) / denom;
        }
    }
    for k in (0..n - 1).rev() {
        x[k] -= cp[k] * x[k + 1];
        y[k] -= cp[k] * y[k + 1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foam_grid::constants::CP_DRY;

    /// One field's solve with its own bands, as each of θ and q was
    /// solved before they shared the elimination.
    fn solve_single(x: &mut [f64], g: &[f64], m: &[f64], dt: f64) {
        let n = x.len();
        let (mut a, mut b, mut c) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        for k in 0..n {
            let up = if k > 0 { g[k - 1] } else { 0.0 };
            let dn = if k < n - 1 { g[k] } else { 0.0 };
            b[k] = 1.0 + dt * (up + dn) / m[k];
            if k > 0 {
                a[k] = -dt * up / m[k];
            }
            if k < n - 1 {
                c[k] = -dt * dn / m[k];
            }
        }
        let (mut cp, mut dp) = (vec![0.0; n], vec![0.0; n]);
        cp[0] = c[0] / b[0];
        dp[0] = x[0] / b[0];
        for k in 1..n {
            let denom = b[k] - a[k] * cp[k - 1];
            cp[k] = c[k] / denom;
            dp[k] = (x[k] - a[k] * dp[k - 1]) / denom;
        }
        x[n - 1] = dp[n - 1];
        for k in (0..n - 1).rev() {
            x[k] = dp[k] - cp[k] * x[k + 1];
        }
    }

    #[test]
    fn pair_solve_matches_two_single_solves_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        for n in 2..=20 {
            for _ in 0..50 {
                let g: Vec<f64> = (0..n - 1).map(|_| rng.random_range(0.0..5.0)).collect();
                let m: Vec<f64> = (0..n).map(|_| rng.random_range(50.0..1.0e4)).collect();
                let dt = rng.random_range(60.0..86_400.0);
                let x: Vec<f64> = (0..n).map(|_| rng.random_range(200.0..400.0)).collect();
                let y: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..0.03)).collect();
                let (mut xr, mut yr) = (x.clone(), y.clone());
                solve_single(&mut xr, &g, &m, dt);
                solve_single(&mut yr, &g, &m, dt);
                let (mut xp, mut yp) = (x, y);
                solve_tridiag_diffusion_pair(&mut xp, &mut yp, &g, &m, dt, &mut vec![0.0; n]);
                let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&xp), bits(&xr), "n = {n}");
                assert_eq!(bits(&yp), bits(&yr), "n = {n}");
            }
        }
    }

    #[test]
    fn one_pass_heights_match_column_height_bit_for_bit() {
        let mut ws = PhysicsWorkspace::new();
        for mut col in [
            AtmColumn::standard(18, 288.0),
            AtmColumn::standard(7, 301.0),
        ] {
            let want: Vec<f64> = (0..col.nlev()).map(|k| col.height(k)).collect();
            vertical_diffusion_ws(&mut col, 1800.0, 50.0, 1000.0, &mut ws);
            assert_eq!(ws.z, want);
        }
    }

    #[test]
    fn diffusion_conserves_mass_weighted_quantities() {
        let mut col = AtmColumn::standard(18, 288.0);
        col.q[17] *= 3.0; // moisten the surface layer
        let w0 = col.precipitable_water();
        vertical_diffusion_ws(&mut col, 1800.0, 50.0, 1000.0, &mut PhysicsWorkspace::new());
        let w1 = col.precipitable_water();
        assert!(
            (w1 - w0).abs() < 1e-9 * w0,
            "water not conserved: {w0} → {w1}"
        );
    }

    #[test]
    fn diffusion_smooths_surface_moisture_spike() {
        let mut col = AtmColumn::standard(18, 288.0);
        let q_above_before = col.q[16];
        col.q[17] *= 3.0;
        let q_sfc_before = col.q[17];
        vertical_diffusion_ws(
            &mut col,
            3600.0,
            100.0,
            1500.0,
            &mut PhysicsWorkspace::new(),
        );
        assert!(col.q[17] < q_sfc_before, "spike should decay");
        assert!(col.q[16] > q_above_before, "moisture should move up");
    }

    #[test]
    fn diffusion_of_uniform_theta_is_identity() {
        let mut col = AtmColumn::isothermal(10, 2000.0, 280.0);
        // Make θ uniform (T follows Exner), q uniform.
        let n = col.nlev();
        for k in 0..n {
            let ex = (col.p[k] / 1.0e5f64).powf(R_DRY / CP_DRY);
            col.t[k] = 300.0 * ex;
            col.q[k] = 0.004;
        }
        let before = col.clone();
        vertical_diffusion_ws(&mut col, 3600.0, 80.0, 1200.0, &mut PhysicsWorkspace::new());
        for k in 0..n {
            assert!((col.t[k] - before.t[k]).abs() < 1e-9);
            assert!((col.q[k] - before.q[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn large_dt_remains_stable() {
        let mut col = AtmColumn::standard(18, 300.0);
        col.t[17] += 15.0;
        vertical_diffusion_ws(
            &mut col,
            86_400.0,
            500.0,
            2000.0,
            &mut PhysicsWorkspace::new(),
        );
        assert!(col
            .t
            .iter()
            .all(|t| t.is_finite() && *t > 150.0 && *t < 350.0));
        assert!(col.q.iter().all(|q| *q >= 0.0));
    }

    #[test]
    fn zero_diffusivity_is_a_noop() {
        let mut col = AtmColumn::standard(18, 288.0);
        let before = col.clone();
        vertical_diffusion_ws(&mut col, 1800.0, 0.0, 1000.0, &mut PhysicsWorkspace::new());
        assert_eq!(col.t, before.t);
    }
}
