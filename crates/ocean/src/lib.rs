//! `foam-ocean` — the FOAM ocean component (the Wisconsin parallel ocean
//! model of Anderson & Tobis).
//!
//! A z-coordinate primitive-equation ocean on an *unstaggered* (A-grid)
//! Mercator lattice (128 × 128 × 16 in the paper), with ∇⁴ dissipation to
//! suppress the A-grid computational mode, a Fourier polar filter in the
//! Arctic, Pacanowski–Philander vertical mixing with the steeper
//! Richardson dependency of Peters–Gregg–Toole, and convective
//! adjustment.
//!
//! The paper's claim to "the most computationally efficient ocean model
//! in existence" rests on three techniques, all implemented here:
//!
//! 1. **slowed free surface** ([`barotropic`]): external gravity waves
//!    are artificially slowed (g → g/α), which Tobis's thesis shows makes
//!    little difference to the internal motions while relaxing the
//!    harshest CFL limit;
//! 2. **mode splitting**: the 2-D free-surface subsystem is subcycled
//!    with a short step inside the 3-D internal step;
//! 3. **subcycled time stepping**: the internal (Coriolis + baroclinic
//!    pressure) step is itself shorter than the advection/diffusion step
//!    for the tracers.
//!
//! [`OceanModel::step_coupled`] runs that nested scheme; the **unsplit
//! baseline** ([`OceanModel::step_unsplit`]) integrates the same physics
//! with one global step limited by the full-gravity external wave speed —
//! the comparator for experiment T2/A1 (the ~10× FLOPs-per-simulated-time
//! claim).

pub mod barotropic;
pub mod eos;
pub mod mixing;
pub mod model;
pub mod polar;
mod stencil;

pub use model::{OceanConfig, OceanForcing, OceanModel, OceanState, SplitScheme};
