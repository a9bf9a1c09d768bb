//! The Fourier polar filter.
//!
//! On a Mercator grid, zonal grid spacing shrinks as cos φ; rather than
//! let the CFL condition be set by the poleward-most rows, FOAM (like the
//! atmospheric models it cites) filters high zonal wavenumbers from rows
//! poleward of a threshold latitude, so the *effective* resolution — and
//! hence stability — matches the mid-latitudes.

use std::cell::RefCell;

use foam_grid::{Field2, OceanGrid};
use foam_spectral::fft::{real_analysis_rows, real_synthesis_into, Complex, FftPlan, ROW_LANES};

/// A polar filter bound to a grid.
pub struct PolarFilter {
    plan: FftPlan,
    /// The filtered rows in ascending order, each with its damping
    /// factor per zonal wavenumber 0..=nx/2; other rows are untouched.
    rows: Vec<(usize, Vec<f64>)>,
    /// Coefficients (nx/2 per row) and transform scratch for one group
    /// of `ROW_LANES` rows, sized at construction.
    scratch: RefCell<Vec<Complex>>,
}

impl PolarFilter {
    /// Build for rows poleward of `lat0_deg`. Wavenumbers above
    /// m_keep = (nx/2)·cos φ / cos φ₀ are damped as (m_keep/m)².
    pub fn new(grid: &OceanGrid, lat0_deg: f64) -> Self {
        let lat0 = lat0_deg.to_radians();
        let half = grid.nx / 2;
        let rows = grid
            .lats
            .iter()
            .enumerate()
            .filter(|(_, lat)| lat.abs() > lat0)
            .map(|(j, &lat)| {
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
                (j, f)
            })
            .collect();
        let plan = FftPlan::new(grid.nx);
        let scratch = vec![Complex::ZERO; ROW_LANES * (half + plan.scratch_len())];
        PolarFilter {
            plan,
            rows,
            scratch: RefCell::new(scratch),
        }
    }

    /// Filter a field in place. The filtered rows go through the
    /// transforms [`ROW_LANES`] at a time, the rest as one narrower
    /// group; each row gets the bits it would alone.
    pub fn apply(&self, f: &mut Field2) {
        assert_eq!(f.nx(), self.plan.len());
        let mut scratch = self.scratch.borrow_mut();
        for group in self.rows.chunks(ROW_LANES) {
            match group.len() {
                1 => self.apply_group::<1>(f, group, &mut scratch),
                2 => self.apply_group::<2>(f, group, &mut scratch),
                3 => self.apply_group::<3>(f, group, &mut scratch),
                ROW_LANES => self.apply_group::<ROW_LANES>(f, group, &mut scratch),
                _ => unreachable!("chunks of at most ROW_LANES rows"),
            }
        }
    }

    /// Filter the `W` rows of `group`.
    fn apply_group<const W: usize>(
        &self,
        f: &mut Field2,
        group: &[(usize, Vec<f64>)],
        scratch: &mut [Complex],
    ) {
        let nx = self.plan.len();
        // real_synthesis requires 2·m_max < nx, so the Nyquist
        // coefficient (damped hardest anyway) is never computed.
        let half = nx / 2;
        let (coeffs, fft) = scratch.split_at_mut(ROW_LANES * half);
        let coeffs = &mut coeffs[..W * half];
        {
            let mut out = coeffs.chunks_exact_mut(half);
            real_analysis_rows::<W>(
                &self.plan,
                std::array::from_fn(|l| f.row(group[l].0)),
                std::array::from_fn(|_| out.next().expect("W rows of coefficients")),
                fft,
            );
        }
        for (row, (_, fac)) in coeffs.chunks_exact_mut(half).zip(group) {
            for (c, &damp) in row.iter_mut().zip(fac) {
                *c = c.scale(damp);
            }
        }
        let rows = f
            .as_mut_slice()
            .get_disjoint_mut(std::array::from_fn::<_, W, _>(|l| {
                group[l].0 * nx..(group[l].0 + 1) * nx
            }))
            .expect("filtered rows are distinct");
        real_synthesis_into::<W>(
            &self.plan,
            std::array::from_fn(|l| &coeffs[l * half..(l + 1) * half]),
            rows,
            fft,
        );
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
            match filt.rows.iter().find(|(row, _)| *row == j) {
                None => (g.nx / 2) as f64,
                Some((_, f)) => f.iter().sum(),
            }
        };
        assert!(kept(g.ny - 1) < kept(g.ny - 3));
        assert!(kept(g.ny - 3) <= kept(g.ny / 2));
    }
}
