//! Spectral advection of grid-point tracers (temperature and moisture)
//! by the QG winds.
//!
//! CCM2 advects moisture semi-Lagrangian-ly; PCCM2's parallelization of
//! that step is one of the paper's cited modifications. Here tracers are
//! advected with the transform method: the advective tendency
//! −(u·∇)X is computed on the grid from spectral gradients, then
//! re-analyzed. A weak spectral hyperdiffusion keeps the cascade tame,
//! and a grid-space clipper preserves positivity of moisture.

use foam_grid::constants::EARTH_RADIUS;
use foam_grid::Field2;
use foam_mpi::Comm;
use foam_spectral::{ParTransform, SpectralField, SpectralWorkspace};

use crate::dynamics::{jacobian_on_rows, Gradient};
use crate::workspace::DynWorkspace;

/// One family of grid-space tracers for [`advect_grid_tracers_ws`]:
/// this rank's slab at every physics level, and the floor that clips
/// the family from below.
pub struct TracerSet<'a> {
    pub slabs: &'a mut [Field2],
    pub floor: f64,
}

/// One explicit advection-diffusion step of every grid-space tracer slab
/// this rank owns, in place: analyze → tendency −J(ψ, x) → implicit
/// diffusion (`nu4` is the hyperdiffusion coefficient) → synthesize →
/// clip from below at the set's floor. Slab `k` of each set is advected
/// by the streamfunction of dynamic level `dyn_level(k)`, whose gradient
/// slabs [`QgCore::streamfunction_ws`](crate::dynamics::QgCore::streamfunction_ws)
/// has left in `dw`. The work runs as three passes over all slabs —
/// analyze, Jacobian, update and synthesize — so the analyses of each of
/// the first two passes share one global combine instead of paying one
/// per slab.
///
/// ```
/// use foam_atm::dynamics::{QgConfig, QgCore};
/// use foam_atm::tracers::{advect_grid_tracers_ws, TracerSet};
/// use foam_atm::workspace::DynWorkspace;
/// use foam_grid::{AtmGrid, Field2};
/// use foam_mpi::Universe;
/// use foam_spectral::{Complex, ParTransform, SpectralField, SphericalTransform, Truncation};
///
/// Universe::run(1, |comm| {
///     let par = ParTransform::new(
///         SphericalTransform::new(AtmGrid::new(24, 16), Truncation::rhomboidal(5)),
///         comm,
///     );
///     let core = QgCore::new(QgConfig::default(), par.base.trunc);
///     let mut q: Vec<SpectralField> =
///         (0..3).map(|_| SpectralField::zeros(par.base.trunc)).collect();
///     q[1].set(2, 3, Complex::new(3.0e-6, 1.0e-6));
///     // Two moisture slabs, advected by dynamic levels 1 and 2.
///     let mut slabs: Vec<Field2> = (0..2)
///         .map(|k| {
///             Field2::from_fn(par.base.grid.nlon, par.n_local_rows(), |i, jl| {
///                 0.01 * (1.0 + (i as f64 * 0.3).sin()) + (jl + k) as f64 * 1.0e-4
///             })
///         })
///         .collect();
///     let mut dw = DynWorkspace::new(&par, 3, 2);
///     core.streamfunction_ws(&par, &q, &mut dw);
///     let mut sets = [TracerSet { slabs: &mut slabs, floor: 0.0 }];
///     advect_grid_tracers_ws(&par, comm, &mut sets, |k| k + 1, 1800.0, 1e16, &mut dw);
///     assert!(slabs.iter().all(|s| s.as_slice().iter().all(|&v| v >= 0.0 && v < 0.1)));
/// });
/// ```
pub fn advect_grid_tracers_ws(
    par: &ParTransform,
    comm: &Comm,
    sets: &mut [TracerSet],
    dyn_level: impl Fn(usize) -> usize,
    dt: f64,
    nu4: f64,
    dw: &mut DynWorkspace,
) {
    let DynWorkspace {
        spec,
        batch,
        psi_grad,
        tr_spec,
        tr_tend,
        x_grad,
        gj,
        ..
    } = dw;
    let n: usize = sets.iter().map(|s| s.slabs.len()).sum();
    assert_eq!(n, tr_spec.len(), "workspace sized for other tracers");

    batch.begin(n);
    for (slot, slab) in sets.iter().flat_map(|s| s.slabs.iter()).enumerate() {
        par.accumulate(slab, spec, batch, slot);
    }
    par.reduce(comm, batch);
    for (slot, x) in tr_spec.iter_mut().enumerate() {
        batch.read(slot, x);
    }

    // Advective tendency −J(ψ, x): the machinery of the PV Jacobian.
    batch.begin(n);
    let levels = sets.iter().flat_map(|s| 0..s.slabs.len());
    for (slot, (k, x)) in levels.zip(tr_spec.iter()).enumerate() {
        x_grad.synthesize(par, x, spec);
        jacobian_on_rows(par, &psi_grad[dyn_level(k)], x_grad, gj);
        par.accumulate(gj, spec, batch, slot);
    }
    par.reduce(comm, batch);

    let slabs = sets.iter_mut().flat_map(|s| {
        let floor = s.floor;
        s.slabs.iter_mut().map(move |slab| (slab, floor))
    });
    for (slot, ((slab, floor), x)) in slabs.zip(tr_spec.iter_mut()).enumerate() {
        batch.read(slot, tr_tend);
        tr_tend.scale(-1.0);
        x.axpy(dt, tr_tend);
        // Implicit ∇²+∇⁴ diffusion; the ∇² part offsets the weak
        // amplification of forward-Euler advection.
        x.apply_diffusion(nu4 * 3.0e-11, nu4, dt);
        par.synthesize_into(x, spec, slab);
        // The spectral round trip is lossy for non-band-limited fields;
        // keep the physical bound.
        for v in slab.as_mut_slice() {
            if *v < floor {
                *v = floor;
            }
        }
    }
}

/// Horizontal winds (u, v) \[m/s\] on this rank's rows from a
/// streamfunction, for callers outside the step that have no ψ
/// gradient on the grid yet.
pub(crate) fn winds_on_rows(par: &ParTransform, psi: &SpectralField) -> (Field2, Field2) {
    let mut grad = Gradient::zeros(par);
    grad.synthesize(par, psi, &mut SpectralWorkspace::new(&par.base));
    let mut u = Field2::zeros(par.base.grid.nlon, par.n_local_rows());
    let mut v = u.clone();
    winds_from_gradient(par, &grad, &mut u, &mut v);
    (u, v)
}

/// Horizontal winds (u, v) \[m/s\] on this rank's rows from the
/// gradient slabs of a streamfunction, dividing out the cos φ factor of
/// the spectral gradients; the winds overwrite `u`/`v`.
pub fn winds_from_gradient(par: &ParTransform, psi: &Gradient, u: &mut Field2, v: &mut Field2) {
    let grid = &par.base.grid;
    for jl in 0..par.n_local_rows() {
        let cos = grid.lats[par.j0 + jl].cos();
        for i in 0..grid.nlon {
            u.set(i, jl, psi.cosgrad.get(i, jl) * (-1.0 / EARTH_RADIUS) / cos);
            v.set(i, jl, psi.dlam.get(i, jl) * (1.0 / EARTH_RADIUS) / cos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foam_grid::AtmGrid;
    use foam_mpi::Universe;
    use foam_spectral::{Complex, SphericalTransform, Truncation};

    fn par(comm: &Comm) -> ParTransform {
        ParTransform::new(
            SphericalTransform::new(AtmGrid::new(24, 16), Truncation::rhomboidal(5)),
            comm,
        )
    }

    /// A one-level, one-tracer workspace with `psi`'s gradient slabs in
    /// its ψ cache.
    fn workspace_for(par: &ParTransform, psi: &SpectralField) -> DynWorkspace {
        let mut dw = DynWorkspace::new(par, 1, 1);
        dw.psi_grad[0].synthesize(par, psi, &mut dw.spec);
        dw
    }

    const DT: f64 = 1800.0;

    /// One advection step of `DT` of the single slab `local` under the
    /// cached ψ.
    fn advect_one(
        par: &ParTransform,
        comm: &Comm,
        local: &mut Field2,
        nu4: f64,
        floor: f64,
        dw: &mut DynWorkspace,
    ) {
        let mut sets = [TracerSet {
            slabs: std::slice::from_mut(local),
            floor,
        }];
        advect_grid_tracers_ws(par, comm, &mut sets, |_| 0, DT, nu4, dw);
    }

    fn zero_slab(par: &ParTransform) -> Field2 {
        Field2::zeros(par.base.grid.nlon, par.n_local_rows())
    }

    /// Solid-body rotation streamfunction ψ = −ω a² μ.
    fn solid_body(par: &ParTransform, omega: f64) -> SpectralField {
        let mut psi = SpectralField::zeros(par.base.trunc);
        // μ = sqrt(2/3) P̄₁⁰ ⇒ coefficient a(0,1) = −ω a² sqrt(2/3).
        psi.set(
            0,
            1,
            Complex::new(
                -omega * EARTH_RADIUS * EARTH_RADIUS * (2.0f64 / 3.0).sqrt(),
                0.0,
            ),
        );
        psi
    }

    #[test]
    fn winds_of_solid_body_rotation() {
        Universe::run(1, |comm| {
            let par = par(comm);
            let omega = 5.0e-6;
            let psi = solid_body(&par, omega);
            let (u, v) = winds_on_rows(&par, &psi);
            for jl in 0..par.n_local_rows() {
                let lat = par.base.grid.lats[par.j0 + jl];
                let expect = omega * EARTH_RADIUS * lat.cos();
                for i in 0..par.base.grid.nlon {
                    assert!((u.get(i, jl) - expect).abs() < 1e-6 * expect.abs().max(1.0));
                    assert!(v.get(i, jl).abs() < 1e-8);
                }
            }
        });
    }

    #[test]
    fn solid_body_advection_rotates_tracer() {
        Universe::run(1, |comm| {
            let par = par(comm);
            // One full rotation in 20 days.
            let omega = 2.0 * std::f64::consts::PI / (20.0 * 86_400.0);
            let psi = solid_body(&par, omega);
            // Tracer: the (m=1, n=2) harmonic — band-limited, rotates
            // without deformation under solid-body flow.
            let mut x = SpectralField::zeros(par.base.trunc);
            x.set(1, 2, Complex::new(1.0, 0.0));
            let dt = DT;
            let steps = 240; // 5 days = quarter rotation
            let mut dw = workspace_for(&par, &psi);
            let mut local = zero_slab(&par);
            par.synthesize_into(&x, &mut dw.spec, &mut local);
            for _ in 0..steps {
                advect_one(&par, comm, &mut local, 0.0, f64::NEG_INFINITY, &mut dw);
            }
            let mut spec = SpectralField::zeros(par.base.trunc);
            par.analyze_into(comm, &local, &mut dw.spec, &mut spec);
            let z = spec.get(1, 2);
            // Pattern cos(λ + φ(t)) with φ = −ω t (eastward drift):
            // coefficient phase advances by −m ω t.
            let expect_phase = -(omega * dt * steps as f64);
            let measured = z.im.atan2(z.re);
            let diff = (measured - expect_phase).rem_euclid(2.0 * std::f64::consts::PI);
            let diff = diff.min(2.0 * std::f64::consts::PI - diff);
            assert!(diff < 0.1, "phase {measured} vs {expect_phase}");
            // Amplitude preserved (no hyperdiffusion applied).
            assert!((z.abs() - 1.0).abs() < 0.05, "amplitude {}", z.abs());
        });
    }

    #[test]
    fn advection_conserves_global_mean() {
        Universe::run(2, |comm| {
            let par = par(comm);
            let mut psi = SpectralField::zeros(par.base.trunc);
            psi.set(2, 3, Complex::new(3.0e6, 1.0e6));
            let mut x = SpectralField::zeros(par.base.trunc);
            x.set(0, 0, Complex::new(2.0, 0.0));
            x.set(1, 3, Complex::new(0.5, 0.2));
            let mut dw = workspace_for(&par, &psi);
            let mut local = zero_slab(&par);
            par.synthesize_into(&x, &mut dw.spec, &mut local);
            let mut spec = SpectralField::zeros(par.base.trunc);
            par.analyze_into(comm, &local, &mut dw.spec, &mut spec);
            let mean0 = spec.get(0, 0).re;
            for _ in 0..10 {
                advect_one(&par, comm, &mut local, 0.0, f64::NEG_INFINITY, &mut dw);
            }
            par.analyze_into(comm, &local, &mut dw.spec, &mut spec);
            let mean1 = spec.get(0, 0).re;
            assert!(
                (mean1 - mean0).abs() < 1e-10 * mean0.abs(),
                "mean drift {mean0} → {mean1}"
            );
        });
    }

    #[test]
    fn moisture_floor_is_enforced() {
        Universe::run(1, |comm| {
            let par = par(comm);
            let mut psi = SpectralField::zeros(par.base.trunc);
            psi.set(3, 4, Complex::new(5.0e6, -2.0e6));
            // A sharply varying non-negative field (spectral ringing would
            // go negative without the clip).
            let g = &par.base.grid;
            let mut local = Field2::from_fn(g.nlon, par.n_local_rows(), |i, jl| {
                if i % 7 == 0 && jl % 3 == 0 {
                    0.02
                } else {
                    0.0
                }
            });
            let mut dw = workspace_for(&par, &psi);
            advect_one(&par, comm, &mut local, 1e16, 0.0, &mut dw);
            assert!(local.as_slice().iter().all(|&v| v >= 0.0));
        });
    }
}
