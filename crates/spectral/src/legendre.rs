//! Fully normalized associated Legendre functions P̄ₙᵐ(μ) and their
//! μ-derivatives, precomputed at the Gaussian latitudes.
//!
//! Normalization: ∫₋₁¹ P̄ₙᵐ P̄ₙ′ᵐ dμ = δₙₙ′, so with Gaussian weights the
//! discrete Legendre transform is exactly orthonormal for band-limited
//! fields and analysis/synthesis round-trip to machine precision.

/// P̄ values (and derivative combinations) tabulated for one zonal
/// wavenumber `m` at a set of μ nodes.
///
/// For each node j and degree n ∈ [m, n_max]:
/// * `p[j][n-m]`   = P̄ₙᵐ(μⱼ)
/// * `h[j][n-m]`   = (1 − μ²) dP̄ₙᵐ/dμ at μⱼ (the "cos φ · ∂/∂φ" factor
///   used by gradient and vorticity formulas)
#[derive(Debug, Clone)]
pub struct LegendreTable {
    pub m: usize,
    pub n_max: usize,
    p: Vec<f64>,
    h: Vec<f64>,
}

impl LegendreTable {
    /// Tabulate for wavenumber `m`, degrees up to `n_max`, at `mu` nodes.
    pub fn new(m: usize, n_max: usize, mu: &[f64]) -> Self {
        assert!(n_max >= m);
        let n_nodes = mu.len();
        let width = n_max - m + 1;
        let mut p = vec![0.0; n_nodes * width];
        let mut h = vec![0.0; n_nodes * width];
        for (j, &x) in mu.iter().enumerate() {
            // Values up to n_max + 1 (the derivative formula needs one
            // extra degree).
            let vals = pbar_column(m, n_max + 1, x);
            for n in m..=n_max {
                p[j * width + (n - m)] = vals[n - m];
            }
            // (1-μ²) dP̄ₙᵐ/dμ = -n ε_{n+1}ᵐ P̄_{n+1}ᵐ + (n+1) εₙᵐ P̄_{n-1}ᵐ
            // with εₙᵐ = sqrt((n² − m²) / (4n² − 1)).
            for n in m..=n_max {
                let e_np1 = eps(n + 1, m);
                let term1 = -(n as f64) * e_np1 * vals[n + 1 - m];
                let term2 = if n > m {
                    (n as f64 + 1.0) * eps(n, m) * vals[n - 1 - m]
                } else {
                    0.0
                };
                h[j * width + (n - m)] = term1 + term2;
            }
        }
        LegendreTable { m, n_max, p, h }
    }

    #[inline]
    fn width(&self) -> usize {
        self.n_max - self.m + 1
    }

    /// Row of P̄ values at node `j` (degrees m..=n_max).
    #[inline]
    pub fn p_row(&self, j: usize) -> &[f64] {
        &self.p[j * self.width()..(j + 1) * self.width()]
    }

    /// Row of derivative values at node `j`.
    #[inline]
    pub fn h_row(&self, j: usize) -> &[f64] {
        &self.h[j * self.width()..(j + 1) * self.width()]
    }
}

#[inline]
fn eps(n: usize, m: usize) -> f64 {
    if n <= m {
        return 0.0;
    }
    let n2 = (n * n) as f64;
    let m2 = (m * m) as f64;
    ((n2 - m2) / (4.0 * n2 - 1.0)).sqrt()
}

/// Compute P̄ₙᵐ(x) for fixed m, n = m..=n_max, via the stable three-term
/// recurrence on fully normalized functions.
pub fn pbar_column(m: usize, n_max: usize, x: f64) -> Vec<f64> {
    let sin2 = (1.0 - x * x).max(0.0);
    let sin = sin2.sqrt();
    // Seed: P̄ₘᵐ = sqrt((2m+1)!!/(2m)!! / 2) sinᵐ — built up iteratively
    // to avoid overflow.
    let mut pmm = (0.5f64).sqrt(); // P̄₀⁰ = 1/√2  (∫ dμ (1/2) = 1)
    for k in 1..=m {
        pmm *= ((2 * k + 1) as f64 / (2 * k) as f64).sqrt() * sin;
    }
    let width = n_max - m + 1;
    let mut out = vec![0.0; width];
    out[0] = pmm;
    if width == 1 {
        return out;
    }
    // P̄_{m+1}ᵐ = μ √(2m+3) P̄ₘᵐ
    out[1] = x * ((2 * m + 3) as f64).sqrt() * pmm;
    for n in (m + 2)..=n_max {
        let a = 1.0 / eps(n, m);
        out[n - m] = a * (x * out[n - 1 - m] - eps(n - 1, m) * out[n - 2 - m]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use foam_grid::gauss::gauss_legendre;

    #[test]
    fn matches_low_order_closed_forms() {
        // P̄₀⁰ = 1/√2, P̄₁⁰ = √(3/2) μ, P̄₁¹ = √(3)/2 … with our
        // normalization ∫ P̄² dμ = 1.
        let x: f64 = 0.3;
        let c0 = pbar_column(0, 2, x);
        assert!((c0[0] - 0.5f64.sqrt()).abs() < 1e-14);
        assert!((c0[1] - (1.5f64).sqrt() * x).abs() < 1e-14);
        // P̄₂⁰ = √(5/2) (3μ²−1)/2
        assert!((c0[2] - (2.5f64).sqrt() * 0.5 * (3.0 * x * x - 1.0)).abs() < 1e-13);
        let c1 = pbar_column(1, 1, x);
        let sin = (1.0f64 - x * x).sqrt();
        assert!((c1[0] - (0.75f64).sqrt() * sin).abs() < 1e-14);
    }

    #[test]
    fn orthonormal_under_gaussian_quadrature() {
        let nlat = 24;
        let q = gauss_legendre(nlat);
        let m_max = 7usize;
        for m in 0..=m_max {
            let n_max = m + m_max; // rhomboidal-style range
            let t = LegendreTable::new(m, n_max, &q.nodes);
            for n1 in m..=n_max {
                for n2 in m..=n_max {
                    let s: f64 = (0..nlat)
                        .map(|j| q.weights[j] * t.p_row(j)[n1 - m] * t.p_row(j)[n2 - m])
                        .sum();
                    let expect = if n1 == n2 { 1.0 } else { 0.0 };
                    assert!((s - expect).abs() < 1e-11, "m={m} n1={n1} n2={n2}: {s}");
                }
            }
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let m = 3usize;
        let n_max = 9usize;
        let xs = [-0.8, -0.25, 0.0, 0.4, 0.77];
        let dh = 1e-6;
        for &x in &xs {
            let t = LegendreTable::new(m, n_max, &[x]);
            let lo = pbar_column(m, n_max, x - dh);
            let hi = pbar_column(m, n_max, x + dh);
            for n in m..=n_max {
                let fd = (hi[n - m] - lo[n - m]) / (2.0 * dh);
                let analytic = t.h_row(0)[n - m] / (1.0 - x * x);
                assert!(
                    (fd - analytic).abs() < 1e-5 * (1.0 + analytic.abs()),
                    "m={m} n={n} x={x}: fd={fd} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn vanishes_at_poles_for_m_positive() {
        for m in 1..5 {
            let c = pbar_column(m, m + 4, 1.0);
            for v in c {
                assert_eq!(v, 0.0);
            }
        }
    }

    #[test]
    fn parity_symmetry() {
        // P̄ₙᵐ(−μ) = (−1)^{n+m} P̄ₙᵐ(μ).
        let x: f64 = 0.37;
        for m in 0..4usize {
            let plus = pbar_column(m, m + 6, x);
            let minus = pbar_column(m, m + 6, -x);
            for n in m..=(m + 6) {
                let sign = if (n + m) % 2 == 0 { 1.0 } else { -1.0 };
                assert!(
                    (minus[n - m] - sign * plus[n - m]).abs() < 1e-13,
                    "m={m} n={n}"
                );
            }
        }
    }
}
