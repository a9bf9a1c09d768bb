//! The slowed, mode-split free-surface (barotropic) subsystem.
//!
//! FOAM's ocean explicitly represents the free surface but (1) slows its
//! dynamics artificially — g → g/α, which Tobis & Anderson show leaves
//! the internal motions essentially unchanged — and (2) integrates it as
//! a separate 2-D system subcycled inside the 3-D internal step
//! (Killworth et al. free-surface splitting). Together these turn the
//! harshest CFL constraint of a free-surface ocean (external gravity
//! waves at √(gH) ≈ 220 m/s) into a cheap 2-D loop at √(gH/α).
//!
//! Forward–backward time stepping (velocities first, then the surface
//! with the *new* velocities) with semi-implicit Coriolis rotation; a
//! weak surface smoother suppresses the A-grid checkerboard mode.

use std::cell::RefCell;

use foam_grid::constants::{coriolis, GRAVITY};
use foam_grid::{Field2, OceanGrid};

use crate::stencil::{Stencil, EAST, NORTH, SOUTH, WEST};

/// The 2-D subsystem bound to a grid, mask and mean depth.
#[derive(Debug, Clone)]
pub struct BarotropicSystem {
    pub grid: OceanGrid,
    /// `true` = sea.
    pub mask: Vec<bool>,
    /// Mean depth H \[m\].
    pub depth: f64,
    /// Gravity-wave slowdown factor α ≥ 1 (paper's "artificially slowed"
    /// free surface; 1 recovers the physical system).
    pub slowdown: f64,
    /// Linear bottom drag \[s⁻¹\].
    pub drag: f64,
    /// Disable rotation (for wave-speed unit tests).
    pub coriolis_on: bool,
    /// Per-row Coriolis parameter, 2·dx, 2·dy and cell area.
    pub(crate) f_row: Vec<f64>,
    pub(crate) two_dx: Vec<f64>,
    pub(crate) two_dy: Vec<f64>,
    area: Vec<f64>,
    pub(crate) stencil: Stencil,
    /// η after the continuity update, which the smoother reads while it
    /// corrects η in place. Grown on the first step.
    eta_new: RefCell<Vec<f64>>,
}

/// Free-surface state: elevation and depth-mean velocities.
#[derive(Debug, Clone)]
pub struct BarotropicState {
    pub eta: Field2,
    pub u: Field2,
    pub v: Field2,
}

impl BarotropicState {
    pub fn rest(grid: &OceanGrid) -> Self {
        BarotropicState {
            eta: Field2::zeros(grid.nx, grid.ny),
            u: Field2::zeros(grid.nx, grid.ny),
            v: Field2::zeros(grid.nx, grid.ny),
        }
    }
}

impl foam_ckpt::Codec for BarotropicState {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.eta.encode(buf);
        self.u.encode(buf);
        self.v.encode(buf);
    }
    fn decode(r: &mut foam_ckpt::ByteReader<'_>) -> Result<Self, foam_ckpt::CkptError> {
        Ok(BarotropicState {
            eta: Field2::decode(r)?,
            u: Field2::decode(r)?,
            v: Field2::decode(r)?,
        })
    }
}

impl BarotropicSystem {
    pub fn new(grid: OceanGrid, mask: Vec<bool>, depth: f64, slowdown: f64) -> Self {
        assert!(slowdown >= 1.0);
        assert_eq!(mask.len(), grid.len());
        let f_row = grid.lats.iter().map(|&l| coriolis(l)).collect();
        let two_dx = grid.dx.iter().map(|dx| 2.0 * dx).collect();
        let two_dy = grid.dy.iter().map(|dy| 2.0 * dy).collect();
        let area = (0..grid.ny).map(|j| grid.cell_area(0, j)).collect();
        let stencil = Stencil::new(grid.nx, grid.ny, &mask);
        BarotropicSystem {
            grid,
            mask,
            depth,
            slowdown,
            drag: 1.0e-6,
            coriolis_on: true,
            f_row,
            two_dx,
            two_dy,
            area,
            stencil,
            eta_new: RefCell::new(Vec::new()),
        }
    }

    /// Effective (slowed) gravity \[m/s²\].
    #[inline]
    pub fn g_eff(&self) -> f64 {
        GRAVITY / self.slowdown
    }

    /// Slowed external gravity-wave speed \[m/s\].
    pub fn wave_speed(&self) -> f64 {
        (self.g_eff() * self.depth).sqrt()
    }

    /// CFL-limited time step for this subsystem \[s\].
    pub fn max_dt(&self) -> f64 {
        let dx_min = self
            .grid
            .dx
            .iter()
            .chain(self.grid.dy.iter())
            .cloned()
            .fold(f64::INFINITY, f64::min);
        0.5 * dx_min / self.wave_speed()
    }

    /// One forward–backward step: `fx`, `fy` are body accelerations
    /// \[m/s²\] (wind stress / H, vertically integrated baroclinic
    /// forcing).
    pub fn step(&self, st: &mut BarotropicState, fx: &Field2, fy: &Field2, dt: f64) {
        let g = &self.grid;
        let (nx, ny) = (g.nx, g.ny);
        let ge = self.g_eff();
        let Stencil { ie, iw, flags, .. } = &self.stencil;
        let (fx, fy) = (fx.as_slice(), fy.as_slice());
        let (eta, u, v) = (
            st.eta.as_mut_slice(),
            st.u.as_mut_slice(),
            st.v.as_mut_slice(),
        );

        // --- Momentum (semi-implicit rotation). -----------------------
        for j in 0..ny {
            let f = if self.coriolis_on { self.f_row[j] } else { 0.0 };
            let a = f * dt;
            let denom = 1.0 + a * a;
            let interior = j > 0 && j < ny - 1;
            let row = j * nx;
            for i in 0..nx {
                let c = row + i;
                let fl = flags[c];
                if fl == 0 {
                    u[c] = 0.0;
                    v[c] = 0.0;
                    continue;
                }
                // Surface value across a face, with a zero-gradient (no
                // pressure force) condition across coastlines.
                let across = |side: u8, nb: usize| if fl & side != 0 { eta[nb] } else { eta[c] };
                let detadx =
                    (across(EAST, row + ie[i]) - across(WEST, row + iw[i])) / self.two_dx[j];
                let detady = if interior {
                    (across(NORTH, c + nx) - across(SOUTH, c - nx)) / self.two_dy[j]
                } else {
                    0.0
                };
                // Explicit accelerations except rotation.
                let au = -ge * detadx + fx[c] - self.drag * u[c];
                let av = -ge * detady + fy[c] - self.drag * v[c];
                let us = u[c] + dt * au;
                let vs = v[c] + dt * av;
                // Semi-implicit rotation of (us, vs) by f dt.
                u[c] = (us + a * vs) / denom;
                v[c] = (vs - a * us) / denom;
            }
        }

        // --- Continuity with the *new* velocities (backward part), in
        // exactly conservative finite-volume form: volume fluxes through
        // faces, zero through coastlines and the domain's N/S walls. ----
        let mut eta_new = self.eta_new.borrow_mut();
        eta_new.resize(nx * ny, 0.0);
        let eta_new = eta_new.as_mut_slice();
        eta_new[..nx].copy_from_slice(&eta[..nx]);
        eta_new[(ny - 1) * nx..].copy_from_slice(&eta[(ny - 1) * nx..]);
        for j in 1..ny - 1 {
            // Face lengths: x-faces have length dy; y-faces have length
            // dx evaluated at the face latitude.
            let dxf_n = 0.5 * (g.dx[j] + g.dx[j + 1]);
            let dxf_s = 0.5 * (g.dx[j] + g.dx[j - 1]);
            let mut open = !0u8;
            if j + 1 == ny - 1 {
                open &= !NORTH;
            }
            if j == 1 {
                open &= !SOUTH;
            }
            let row = j * nx;
            for i in 0..nx {
                let c = row + i;
                let fl = flags[c] & open;
                if fl == 0 {
                    eta_new[c] = eta[c];
                    continue;
                }
                let flux = |side: u8, a: f64, b: f64, len: f64| {
                    if fl & side != 0 {
                        0.5 * (a + b) * len
                    } else {
                        0.0
                    }
                };
                let fe = flux(EAST, u[c], u[row + ie[i]], g.dy[j]);
                let fw = flux(WEST, u[row + iw[i]], u[c], g.dy[j]);
                let fn_ = flux(NORTH, v[c], v[c + nx], dxf_n);
                let fs = flux(SOUTH, v[c - nx], v[c], dxf_s);
                let div = (fe - fw + fn_ - fs) / self.area[j];
                eta_new[c] = eta[c] - dt * self.depth * div;
            }
        }
        // Weak conservative smoother on η (flux exchange between sea
        // neighbours) to suppress the unstaggered-grid checkerboard —
        // the 2-D counterpart of the paper's ∇⁴ dissipation.
        let c_smooth = 0.01;
        eta.copy_from_slice(eta_new);
        for j in 1..ny - 1 {
            let a0 = self.area[j];
            let north_open = j + 1 < ny - 1;
            let row = j * nx;
            for i in 0..nx {
                let c = row + i;
                let fl = flags[c];
                if fl & EAST != 0 {
                    let e = row + ie[i];
                    let f = c_smooth * (eta_new[e] - eta_new[c]);
                    eta[c] += 0.5 * f;
                    eta[e] -= 0.5 * f * a0 / self.area[j];
                }
                if north_open && fl & NORTH != 0 {
                    let f = c_smooth * (eta_new[c + nx] - eta_new[c]);
                    eta[c] += 0.5 * f;
                    eta[c + nx] -= 0.5 * f * a0 / self.area[j + 1];
                }
            }
        }
    }

    /// Subcycle the subsystem over `dt_total` in `n_sub` equal steps.
    pub fn subcycle(
        &self,
        st: &mut BarotropicState,
        fx: &Field2,
        fy: &Field2,
        dt_total: f64,
        n_sub: usize,
    ) {
        let dt = dt_total / n_sub as f64;
        for _ in 0..n_sub {
            self.step(st, fx, fy, dt);
        }
    }

    /// Area-integrated surface volume anomaly \[m³\] (conservation check).
    pub fn volume(&self, st: &BarotropicState) -> f64 {
        let g = &self.grid;
        let mut v = 0.0;
        for j in 0..g.ny {
            for i in 0..g.nx {
                if self.mask[g.idx(i, j)] {
                    v += st.eta.get(i, j) * self.area[j];
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> BarotropicSystem {
        // An all-sea band: periodic zonal channel.
        let grid = OceanGrid::mercator(32, 16, 60.0);
        let mask = vec![true; grid.len()];
        let mut sys = BarotropicSystem::new(grid, mask, 4000.0, 16.0);
        sys.coriolis_on = false;
        sys.drag = 0.0;
        sys
    }

    #[test]
    fn slowdown_reduces_wave_speed_and_raises_dt() {
        let grid = OceanGrid::mercator(32, 16, 60.0);
        let mask = vec![true; grid.len()];
        let fast = BarotropicSystem::new(grid.clone(), mask.clone(), 4000.0, 1.0);
        let slow = BarotropicSystem::new(grid, mask, 4000.0, 16.0);
        assert!((fast.wave_speed() / slow.wave_speed() - 4.0).abs() < 1e-12);
        assert!((slow.max_dt() / fast.max_dt() - 4.0).abs() < 1e-9);
        // Physical external wave speed ≈ √(gH) ≈ 198 m/s for H = 4000 m.
        assert!((fast.wave_speed() - 198.0).abs() < 2.0);
    }

    #[test]
    fn gravity_wave_oscillates_at_shallow_water_frequency() {
        let sys = channel();
        let g = &sys.grid;
        let mut st = BarotropicState::rest(g);
        // Standing zonal wave, uniform in latitude: η = A cos(kx),
        // k = 2π/L with L the domain circumference at the mid-row.
        let jm = g.ny / 2;
        let m = 2.0; // wavenumber 2 around the circle
        for j in 0..g.ny {
            for i in 0..g.nx {
                st.eta.set(
                    i,
                    j,
                    0.01 * (m * 2.0 * std::f64::consts::PI * i as f64 / g.nx as f64).cos(),
                );
            }
        }
        // Wave at row jm: k = m / (a cosφ) — expected period 2π/(c k).
        let circumference = g.dx[jm] * g.nx as f64;
        let k = m * 2.0 * std::f64::consts::PI / circumference;
        let period = 2.0 * std::f64::consts::PI / (sys.wave_speed() * k);
        let dt = sys.max_dt() * 0.5;
        let zero = Field2::zeros(g.nx, g.ny);
        // After half a period the pattern should be inverted at mid-row.
        let steps = (0.5 * period / dt).round() as usize;
        let before = st.eta.get(0, jm);
        for _ in 0..steps {
            sys.step(&mut st, &zero, &zero, dt);
        }
        let after = st.eta.get(0, jm);
        assert!(
            after < -0.4 * before,
            "expected inversion: before {before}, after {after} (steps {steps})"
        );
    }

    #[test]
    fn volume_is_conserved() {
        let sys = channel();
        let g = &sys.grid;
        let mut st = BarotropicState::rest(g);
        for j in 2..g.ny - 2 {
            for i in 0..g.nx {
                st.eta.set(i, j, 0.05 * ((i + j) as f64 * 0.7).sin());
            }
        }
        let v0 = sys.volume(&st);
        let zero = Field2::zeros(g.nx, g.ny);
        let dt = sys.max_dt() * 0.5;
        for _ in 0..200 {
            sys.step(&mut st, &zero, &zero, dt);
        }
        let v1 = sys.volume(&st);
        let area_scale = 4.0e14; // ~ocean area, for a relative scale
        assert!(
            (v1 - v0).abs() / area_scale < 1e-6,
            "volume drift {v0} → {v1}"
        );
        assert!(st.eta.all_finite() && st.u.all_finite());
    }

    #[test]
    fn subcycling_stays_stable_where_single_step_blows_up() {
        let sys = channel();
        let g = &sys.grid;
        let zero = Field2::zeros(g.nx, g.ny);
        let dt_big = sys.max_dt() * 8.0;

        // Single big steps: unstable.
        let mut bad = BarotropicState::rest(g);
        bad.eta.set(5, 8, 0.1);
        for _ in 0..50 {
            sys.step(&mut bad, &zero, &zero, dt_big);
        }
        let bad_max = bad.eta.max_abs();

        // Same span, subcycled: stable.
        let mut good = BarotropicState::rest(g);
        good.eta.set(5, 8, 0.1);
        for _ in 0..50 {
            sys.subcycle(&mut good, &zero, &zero, dt_big, 16);
        }
        let good_max = good.eta.max_abs();
        assert!(
            !(bad_max.is_finite() && bad_max < 1.0),
            "expected instability at 8× CFL, max = {bad_max}"
        );
        assert!(
            good_max < 0.2,
            "subcycled run should stay bounded: {good_max}"
        );
    }

    #[test]
    fn wind_stress_drives_circulation() {
        let grid = OceanGrid::mercator(32, 16, 60.0);
        let mask = vec![true; grid.len()];
        let sys = BarotropicSystem::new(grid, mask, 4000.0, 16.0);
        let g = &sys.grid;
        let mut st = BarotropicState::rest(g);
        // Zonal wind-stress acceleration.
        let fx = Field2::filled(g.nx, g.ny, 1.0e-6);
        let fy = Field2::zeros(g.nx, g.ny);
        let dt = sys.max_dt() * 0.5;
        for _ in 0..100 {
            sys.step(&mut st, &fx, &fy, dt);
        }
        assert!(st.u.max_abs() > 0.0);
        assert!(st.eta.all_finite());
    }

    #[test]
    fn land_cells_stay_quiet() {
        let grid = OceanGrid::mercator(16, 12, 55.0);
        let mut mask = vec![true; grid.len()];
        for j in 0..grid.ny {
            mask[grid.idx(7, j)] = false; // meridional wall
        }
        let sys = BarotropicSystem::new(grid, mask, 3000.0, 16.0);
        let g = &sys.grid;
        let mut st = BarotropicState::rest(g);
        st.eta.set(3, 6, 0.2);
        let zero = Field2::zeros(g.nx, g.ny);
        let dt = sys.max_dt() * 0.4;
        for _ in 0..100 {
            sys.step(&mut st, &zero, &zero, dt);
        }
        for j in 0..g.ny {
            assert_eq!(st.u.get(7, j), 0.0);
            assert_eq!(st.v.get(7, j), 0.0);
        }
        assert!(st.eta.all_finite());
    }
}
