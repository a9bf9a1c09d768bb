//! `foam-atm` — the FOAM atmosphere component.
//!
//! The original is PCCM2: NCAR CCM2 with CCM3 moist physics, parallelized
//! by latitude decomposition, run at R15 (48 × 40 × 18) with a 30-minute
//! step. The paper treats it as an imported black box and cares about its
//! *computational* structure: spectral transforms needing global
//! communication, expensive column physics needing none, radiation
//! recomputed twice a day, cloud-dependent load imbalance.
//!
//! Our substitution (DESIGN.md §4) keeps that skeleton exactly and swaps
//! the primitive-equation dynamical core for a multi-level
//! quasi-geostrophic potential-vorticity core in the tradition of
//! Marshall & Molteni (1993) — a standard intermediate-complexity global
//! spectral model with genuinely chaotic midlatitude dynamics:
//!
//! * [`dynamics`] — L-level QG PV inversion and tendencies, leapfrog +
//!   Robert–Asselin time stepping, spectral hyperdiffusion, Ekman drag,
//!   thermal-wind relaxation toward the physics temperature field (how
//!   heating steers the circulation),
//! * [`tracers`] — spectral advection of the 18-level grid-point
//!   temperature and moisture fields by the QG winds,
//! * [`model`] — [`AtmModel`]: the latitude-decomposed SPMD component
//!   combining dynamics, tracers and `foam-physics` columns, exchanging
//!   surface fields with the coupler,
//! * [`workspace`] — [`AtmWorkspace`]: the pre-allocated scratch that
//!   makes [`AtmModel::step_ws`] allocation-free (the zero-churn rule;
//!   see PERFORMANCE.md).

pub mod dynamics;
pub mod model;
pub mod tracers;
pub mod workspace;

pub use dynamics::{QgConfig, QgState};
pub use model::{AtmConfig, AtmExport, AtmForcing, AtmModel, AtmState};
pub use workspace::{AtmWorkspace, DynWorkspace};
