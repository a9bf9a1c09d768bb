//! The Fourier polar filter.
//!
//! On a Mercator grid, zonal grid spacing shrinks as cos φ; rather than
//! let the CFL condition be set by the poleward-most rows, FOAM (like the
//! atmospheric models it cites) filters high zonal wavenumbers from rows
//! poleward of a threshold latitude, so the *effective* resolution — and
//! hence stability — matches the mid-latitudes.

use std::cell::RefCell;

use foam_grid::{Field2, OceanGrid};
use foam_spectral::fft::{real_analysis_into, real_synthesis_into, Complex, FftPlan};

/// A polar filter bound to a grid.
pub struct PolarFilter {
    plan: FftPlan,
    /// Per row: `None` (row untouched) or damping factors per zonal
    /// wavenumber 0..=nx/2.
    factors: Vec<Option<Vec<f64>>>,
    /// One row's coefficients (nx/2) followed by the transforms'
    /// scratch. Grown on the first `apply`.
    scratch: RefCell<Vec<Complex>>,
}

impl PolarFilter {
    /// Build for rows poleward of `lat0_deg`. Wavenumbers above
    /// m_keep = (nx/2)·cos φ / cos φ₀ are damped as (m_keep/m)².
    pub fn new(grid: &OceanGrid, lat0_deg: f64) -> Self {
        let lat0 = lat0_deg.to_radians();
        let half = grid.nx / 2;
        let factors = grid
            .lats
            .iter()
            .map(|&lat| {
                if lat.abs() <= lat0 {
                    return None;
                }
                let m_keep = (half as f64) * lat.cos() / lat0.cos();
                let f: Vec<f64> = (0..=half)
                    .map(|m| {
                        if (m as f64) <= m_keep {
                            1.0
                        } else {
                            (m_keep / m as f64).powi(2)
                        }
                    })
                    .collect();
                Some(f)
            })
            .collect();
        PolarFilter {
            plan: FftPlan::new(grid.nx),
            factors,
            scratch: RefCell::new(Vec::new()),
        }
    }

    /// Filter a field in place.
    pub fn apply(&self, f: &mut Field2) {
        let nx = self.plan.len();
        assert_eq!(f.nx(), nx);
        // real_synthesis requires 2·m_max < nx, so the Nyquist
        // coefficient (damped hardest anyway) is never computed.
        let half = nx / 2;
        let mut scratch = self.scratch.borrow_mut();
        scratch.resize(half + self.plan.scratch_len(), Complex::ZERO);
        let (coeffs, scratch) = scratch.split_at_mut(half);
        for j in 0..f.ny() {
            if let Some(fac) = &self.factors[j] {
                real_analysis_into(&self.plan, f.row(j), coeffs, scratch);
                for (c, &damp) in coeffs.iter_mut().zip(fac) {
                    *c = c.scale(damp);
                }
                real_synthesis_into(&self.plan, coeffs, f.row_mut(j), scratch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> OceanGrid {
        OceanGrid::mercator(32, 24, 75.0)
    }

    #[test]
    fn equatorial_rows_are_untouched() {
        let g = grid();
        let filt = PolarFilter::new(&g, 66.0);
        let mut f = Field2::from_fn(g.nx, g.ny, |i, j| ((i * 3 + j) as f64 * 0.9).sin());
        let before = f.clone();
        filt.apply(&mut f);
        let jm = g.ny / 2;
        for i in 0..g.nx {
            assert!((f.get(i, jm) - before.get(i, jm)).abs() < 1e-12);
        }
        let touched = (0..g.ny).filter(|&j| f.row(j) != before.row(j)).count();
        assert!(touched > 0);
        assert!(touched < g.ny / 2);
    }

    #[test]
    fn polar_rows_lose_grid_scale_noise_but_keep_means() {
        let g = grid();
        let filt = PolarFilter::new(&g, 60.0);
        // 2Δx noise on the northernmost row + a constant offset.
        let jn = g.ny - 1;
        let mut f = Field2::zeros(g.nx, g.ny);
        for i in 0..g.nx {
            f.set(i, jn, 3.0 + if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        let mean_before: f64 = f.row(jn).iter().sum::<f64>() / g.nx as f64;
        filt.apply(&mut f);
        let mean_after: f64 = f.row(jn).iter().sum::<f64>() / g.nx as f64;
        assert!((mean_after - mean_before).abs() < 1e-10, "m=0 must pass");
        // Checkerboard (Nyquist) amplitude strongly reduced.
        let mut amp = 0.0f64;
        for i in 0..g.nx {
            amp = amp.max((f.get(i, jn) - mean_after).abs());
        }
        assert!(amp < 0.3, "residual noise {amp}");
    }

    #[test]
    fn low_wavenumbers_pass_at_high_latitude() {
        let g = grid();
        let filt = PolarFilter::new(&g, 60.0);
        let jn = g.ny - 1;
        let mut f = Field2::zeros(g.nx, g.ny);
        for i in 0..g.nx {
            let lam = 2.0 * std::f64::consts::PI * i as f64 / g.nx as f64;
            f.set(i, jn, (2.0 * lam).cos());
        }
        let before = f.row(jn).to_vec();
        filt.apply(&mut f);
        for i in 0..g.nx {
            assert!(
                (f.get(i, jn) - before[i]).abs() < 0.05,
                "m=2 should survive at row {jn}"
            );
        }
    }

    #[test]
    fn keep_count_shrinks_poleward() {
        let g = grid();
        let filt = PolarFilter::new(&g, 55.0);
        // Effective kept wavenumbers decrease towards the pole.
        let kept = |j: usize| -> f64 {
            match &filt.factors[j] {
                None => (g.nx / 2) as f64,
                Some(f) => f.iter().sum(),
            }
        };
        assert!(kept(g.ny - 1) < kept(g.ny - 3));
        assert!(kept(g.ny - 3) <= kept(g.ny / 2));
    }
}
