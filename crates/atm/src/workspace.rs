//! Pre-allocated scratch for the atmosphere step.
//!
//! The coupled hot loop must not allocate in steady state (the
//! zero-churn rule; see PERFORMANCE.md). Everything the atmosphere
//! step needs beyond its prognostic state — streamfunctions and their
//! gradient slabs, spectral tendencies, transform scratch, the batched
//! analysis payload, the physics column and its working vectors — lives
//! in an [`AtmWorkspace`] created once and reused for every step
//! ([`crate::model::AtmModel::step_ws`]). A field's gradient is
//! synthesized once per step and shared, and independent analyses share
//! one global combine. There is no allocate-per-step twin: the bits of
//! the step are pinned by `tests/state_digest.rs`, recorded from the
//! allocating reference this path replaced.

use foam_grid::Field2;
use foam_physics::{AtmColumn, PhysicsWorkspace};
use foam_spectral::{AnalysisBatch, ParTransform, SpectralField, SpectralWorkspace};

use crate::dynamics::Gradient;
use crate::model::AtmModel;

/// Scratch for the dynamical-core and tracer kernels: spectral
/// transform workspace, the per-step cache of ψ and its gradient slabs,
/// per-level tendency fields, the batched-analysis payload and the
/// grid-space slabs the Jacobian evaluates on.
///
/// One `DynWorkspace` serves every kernel in a step — winds, tracer
/// advection, PV tendencies and the leapfrog update all borrow disjoint
/// pieces of it. [`QgCore::streamfunction_ws`](crate::dynamics::QgCore::streamfunction_ws)
/// fills the ψ cache at the top of a step; the tracer and tendency
/// kernels read it.
///
/// ```
/// use foam_atm::dynamics::{Gradient, QgConfig, QgCore, QgState};
/// use foam_atm::workspace::DynWorkspace;
/// use foam_grid::AtmGrid;
/// use foam_mpi::Universe;
/// use foam_spectral::{Complex, ParTransform, SpectralField, SphericalTransform, Truncation};
///
/// Universe::run(1, |comm| {
///     let par = ParTransform::new(
///         SphericalTransform::new(AtmGrid::new(24, 16), Truncation::rhomboidal(5)),
///         comm,
///     );
///     let core = QgCore::new(QgConfig::default(), par.base.trunc);
///     // At rest, with an equilibrium shear to relax toward.
///     let mut state = QgState::zeros(par.base.trunc, 3);
///     let mut dpsi_eq: Vec<SpectralField> =
///         (0..2).map(|_| SpectralField::zeros(par.base.trunc)).collect();
///     dpsi_eq[0].set(0, 2, Complex::new(5.0e6, 0.0));
///     let mut dw = DynWorkspace::new(&par, 3, 0);
///     let flat = Gradient::zeros(&par); // no orography
///     for step in 0..4 {
///         core.streamfunction_ws(&par, &state.q_now, &mut dw);
///         core.tendencies_ws(&par, comm, &state.q_now, &dpsi_eq, &flat, &mut dw);
///         if step == 0 {
///             core.step_euler_ws(&mut state, 1800.0, &mut dw);
///         } else {
///             core.step_leapfrog_ws(&mut state, 1800.0, &mut dw);
///         }
///     }
///     let psi = core.psi_from_pv(&state.q_now);
///     assert!((psi[0].get(0, 2) - psi[1].get(0, 2)).re > 0.0); // the shear builds
/// });
/// ```
#[derive(Debug, Clone)]
pub struct DynWorkspace {
    /// Legendre/FFT/reduction scratch for the spectral transforms.
    pub(crate) spec: SpectralWorkspace,
    /// Payload of the batched analyses (tracers, their Jacobians, the
    /// shears, the PV Jacobians — one batch at a time).
    pub(crate) batch: AnalysisBatch,
    /// ψ per dynamic level and its gradient slabs, valid for the
    /// current `q_now` from `streamfunction_ws` until the time step.
    pub(crate) psi: Vec<SpectralField>,
    pub(crate) psi_grad: Vec<Gradient>,
    /// PV tendencies per dynamic level (output of `tendencies_ws`,
    /// input of the `step_*_ws` time steppers).
    pub(crate) tend: Vec<SpectralField>,
    /// Orographic-Jacobian output.
    pub(crate) jac: SpectralField,
    /// Ekman-drag Laplacian.
    pub(crate) drag: SpectralField,
    /// Leapfrog scratch: the new time level and the Robert-filtered
    /// middle level, swapped into the state each step.
    pub(crate) q_next: SpectralField,
    pub(crate) filtered: SpectralField,
    /// Spectral coefficients of every tracer slab, and one advective
    /// tendency.
    pub(crate) tr_spec: Vec<SpectralField>,
    pub(crate) tr_tend: SpectralField,
    /// Gradient slabs of the field a Jacobian pairs with ψ, and the
    /// Jacobian product field.
    pub(crate) x_grad: Gradient,
    pub(crate) gj: Field2,
    /// Reciprocal squared Rossby radii of the interfaces.
    pub(crate) rossby_r: Vec<f64>,
}

impl DynWorkspace {
    /// Scratch sized for `nlev` dynamic levels and `n_tracers` tracer
    /// slabs on `par`'s local rows.
    pub fn new(par: &ParTransform, nlev: usize, n_tracers: usize) -> Self {
        let trunc = par.base.trunc;
        let sf = || SpectralField::zeros(trunc);
        DynWorkspace {
            spec: SpectralWorkspace::new(&par.base),
            // The largest batch: all tracers, or the PV Jacobians plus
            // the orographic one.
            batch: AnalysisBatch::new(trunc, n_tracers.max(nlev + 1)),
            psi: (0..nlev).map(|_| sf()).collect(),
            psi_grad: (0..nlev).map(|_| Gradient::zeros(par)).collect(),
            tend: (0..nlev).map(|_| sf()).collect(),
            jac: sf(),
            drag: sf(),
            q_next: sf(),
            filtered: sf(),
            tr_spec: (0..n_tracers).map(|_| sf()).collect(),
            tr_tend: sf(),
            x_grad: Gradient::zeros(par),
            gj: Field2::zeros(par.base.grid.nlon, par.n_local_rows()),
            rossby_r: Vec::new(),
        }
    }
}

/// Everything [`AtmModel::step_ws`] needs beyond the prognostic state:
/// a [`DynWorkspace`] for the spectral kernels, the equilibrium-shear
/// fields, and one reusable physics column with its
/// [`PhysicsWorkspace`].
///
/// Create it once per run with [`AtmWorkspace::new`] and pass it to
/// every [`AtmModel::step_ws`] call; after the first few steps the
/// buffers reach their steady-state capacity and the step allocates
/// nothing. See [`AtmModel::step_ws`] for a usage example.
#[derive(Debug, Clone)]
pub struct AtmWorkspace {
    /// Kernel-level scratch.
    pub(crate) inner: DynWorkspace,
    /// Equilibrium interface shears (nlev − 1 fields).
    pub(crate) dpsi_eq: Vec<SpectralField>,
    /// Layer-pair mean temperature accumulator.
    pub(crate) shear_field: Field2,
    /// The one physics column, reloaded per grid cell.
    pub(crate) col: AtmColumn,
    /// Column-physics scratch.
    pub(crate) phys: PhysicsWorkspace,
}

impl AtmWorkspace {
    /// Workspace sized for `model`'s grid, truncation and level counts.
    pub fn new(model: &AtmModel) -> Self {
        let par = &model.par;
        let trunc = par.base.trunc;
        let nld = model.cfg.dynamics.nlev;
        AtmWorkspace {
            // Two tracers (T, q) per physics level.
            inner: DynWorkspace::new(par, nld, 2 * model.cfg.nlev_phys),
            dpsi_eq: (0..nld - 1).map(|_| SpectralField::zeros(trunc)).collect(),
            shear_field: Field2::zeros(par.base.grid.nlon, par.n_local_rows()),
            col: AtmColumn::isothermal(model.cfg.nlev_phys, 2000.0, 280.0),
            phys: PhysicsWorkspace::with_levels(model.cfg.nlev_phys),
        }
    }
}
