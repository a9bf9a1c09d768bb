//! `foam-spectral` — the spectral transform method.
//!
//! The numerical core of FOAM's atmosphere (PCCM2) is the spectral
//! transform: fields live both as spherical-harmonic coefficients under a
//! **rhomboidal truncation** (R15 in the paper) and as values on a
//! Gaussian grid; nonlinear terms are computed on the grid and transformed
//! back. The paper notes that, in parallel, the Legendre transform is the
//! part that "introduces a need for global communication" — reproduced
//! here by [`ParTransform`], which decomposes latitudes across ranks and
//! completes the forward transform with a global reduction over
//! `foam-mpi`, exactly the structure of the Argonne/Oak Ridge parallel
//! transform algorithms the paper cites.
//!
//! Everything is built from scratch:
//! * [`fft`] — mixed-radix complex FFT, compiled once per length into
//!   flat stages, and the real transforms used on longitude circles,
//! * [`legendre`] — fully normalized associated Legendre functions and
//!   their μ-derivatives,
//! * [`Truncation`] — the rhomboidal (m, n) index set,
//! * [`SphericalTransform`] — serial analysis/synthesis plus spectral-space
//!   calculus (Laplacian, its inverse, hyperdiffusion, gradients),
//! * [`ParTransform`] — the latitude-distributed transform, with
//!   [`AnalysisBatch`] to complete many analyses with one global combine,
//! * [`SpectralWorkspace`] — pre-allocated scratch making every hot
//!   transform allocation-free via the `_ws`/`_into` method variants
//!   (see PERFORMANCE.md for the zero-churn rule they implement).

pub mod fft;
pub mod legendre;
mod parallel;
mod transform;
mod truncation;

pub use fft::Complex;
pub use parallel::{AnalysisBatch, ParTransform};
pub use transform::{SpectralField, SpectralWorkspace, SphericalTransform, SynthKind};
pub use truncation::Truncation;
