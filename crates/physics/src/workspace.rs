//! Pre-allocated scratch for the per-column physics hot path.
//!
//! The column physics runs in every grid column on every step, and each
//! of its stages needs working vectors (heights, a tridiagonal band,
//! radiation sweeps, …) — roughly a dozen per column per step.
//! [`PhysicsWorkspace`] owns all of that scratch so the physics entry
//! points ([`crate::pbl::vertical_diffusion_ws`],
//! [`crate::convection::convect_ws`],
//! [`crate::radiation::full_radiation_into`],
//! [`crate::ColumnPhysics::step_with_fluxes_ws`]) run allocation-free
//! in steady state.
//!
//! Buffers are sized lazily with the crate-internal `fit` helper
//! (clear + resize): each call clears and resizes
//! to the column at hand, so one workspace serves columns of different
//! depths (the dynamics' physics columns and the coupler's reference
//! columns); capacity grows to the largest column seen and is then
//! reused forever. No result depends on what a workspace held before
//! the call (see PERFORMANCE.md).

use foam_grid::constants::{CP_DRY, R_DRY};

/// Functions of the column's pressure grid alone. The grid is the same
/// in every column of a run and never changes, yet the physics used to
/// re-evaluate these `powf`/`ln` calls in every column on every step.
/// Each entry is the original expression evaluated once, so using it
/// changes no bits.
#[derive(Debug, Clone, Default)]
pub(crate) struct PressureFactors {
    /// The grid the entries below were computed for.
    p: Vec<f64>,
    /// Exner factor (p_k / 10⁵)^κ: T = θ · exner.
    pub(crate) exner: Vec<f64>,
    /// (10⁵ / p_k)^κ, the factor in [`crate::AtmColumn::theta`].
    pub(crate) inv_exner: Vec<f64>,
    /// (p_k / p_bottom)^κ: dry-adiabatic cooling of a parcel lifted
    /// from the lowest layer to level k.
    pub(crate) lift: Vec<f64>,
    /// ln(p_{k+1} / p_k) for k < n − 1.
    pub(crate) dlnp: Vec<f64>,
    /// ln(10⁵ / p_bottom): the half layer between the surface and the
    /// lowest mid-level.
    pub(crate) lnp_sfc: f64,
}

impl PressureFactors {
    /// The factors of grid `p`, recomputed only when `p` differs from
    /// the grid of the previous call.
    pub(crate) fn of(&mut self, p: &[f64]) -> &Self {
        if self.p != p {
            let kappa = R_DRY / CP_DRY;
            let n = p.len();
            self.p.clear();
            self.p.extend_from_slice(p);
            fit(&mut self.exner, n);
            fit(&mut self.inv_exner, n);
            fit(&mut self.lift, n);
            fit(&mut self.dlnp, n.saturating_sub(1));
            for k in 0..n {
                self.exner[k] = (p[k] / 1.0e5f64).powf(kappa);
                self.inv_exner[k] = (1.0e5 / p[k]).powf(kappa);
                self.lift[k] = (p[k] / p[n - 1]).powf(kappa);
            }
            for k in 0..n.saturating_sub(1) {
                self.dlnp[k] = (p[k + 1] / p[k]).ln();
            }
            self.lnp_sfc = p.last().map_or(0.0, |&pb| (1.0e5 / pb).ln());
        }
        self
    }
}

/// Reusable scratch buffers for one column-physics engine.
///
/// The workspace is plain data: create it once per rank (or per thread)
/// and thread it through the `_ws` entry points. Dropping it between
/// steps merely forfeits the reuse; no correctness depends on its
/// contents, which are overwritten on every call.
///
/// ```
/// use foam_physics::pbl::vertical_diffusion_ws;
/// use foam_physics::{AtmColumn, PhysicsWorkspace};
///
/// let mut ws = PhysicsWorkspace::new();
/// let mut other = AtmColumn::standard(18, 300.0);
/// vertical_diffusion_ws(&mut other, 1800.0, 60.0, 1200.0, &mut ws);
/// // A used workspace and a fresh one give the same bits.
/// let mut a = AtmColumn::standard(10, 290.0);
/// let mut b = a.clone();
/// vertical_diffusion_ws(&mut a, 1800.0, 60.0, 1200.0, &mut ws);
/// vertical_diffusion_ws(&mut b, 1800.0, 60.0, 1200.0, &mut PhysicsWorkspace::new());
/// assert_eq!(a.t, b.t);
/// assert_eq!(a.q, b.q);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PhysicsWorkspace {
    // Per-level functions of the pressure grid, computed once.
    pub(crate) pressure: PressureFactors,
    // Vertical diffusion: geometry, couplings, θ/q work vectors.
    pub(crate) z: Vec<f64>,
    pub(crate) m: Vec<f64>,
    pub(crate) g: Vec<f64>,
    pub(crate) theta: Vec<f64>,
    pub(crate) q: Vec<f64>,
    // The tridiagonal solve's eliminated super-diagonal, shared by θ
    // and q (rebuilt per column from `g`/`m`).
    pub(crate) cp: Vec<f64>,
    // Deep convection: the parcel's moist-adiabat profile (left by the
    // CAPE integral for the adjustment to reuse) and heating increments.
    pub(crate) parcel: Vec<f64>,
    pub(crate) dts: Vec<f64>,
    // Radiation sweeps: emissivity, Planck source, interface fluxes.
    pub(crate) eps: Vec<f64>,
    pub(crate) planck: Vec<f64>,
    pub(crate) down: Vec<f64>,
    pub(crate) up: Vec<f64>,
}

impl PhysicsWorkspace {
    /// An empty workspace; buffers grow on first use and are reused
    /// thereafter.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace with every buffer pre-reserved for columns of up to
    /// `nlev` levels, so even the event-driven stages (deep convection
    /// fills `dts` only when a column actually convects) never touch
    /// the allocator mid-run. Prefer this in hot loops that must hold
    /// the zero-churn rule from the very first step.
    ///
    /// ```
    /// use foam_physics::PhysicsWorkspace;
    ///
    /// let ws = PhysicsWorkspace::with_levels(8);
    /// // Same empty workspace as `new()`, just born at capacity.
    /// assert_eq!(format!("{ws:?}"), format!("{:?}", PhysicsWorkspace::new()));
    /// ```
    pub fn with_levels(nlev: usize) -> Self {
        let mut ws = Self::default();
        // Interface sweeps (`down`/`up`) span nlev + 1 boundaries; the
        // rest are per-layer. Reserving the max everywhere is simplest
        // and costs a few hundred bytes once.
        let cap = nlev + 1;
        for v in [
            &mut ws.pressure.p,
            &mut ws.pressure.exner,
            &mut ws.pressure.inv_exner,
            &mut ws.pressure.lift,
            &mut ws.pressure.dlnp,
            &mut ws.z,
            &mut ws.m,
            &mut ws.g,
            &mut ws.theta,
            &mut ws.q,
            &mut ws.cp,
            &mut ws.parcel,
            &mut ws.dts,
            &mut ws.eps,
            &mut ws.planck,
            &mut ws.down,
            &mut ws.up,
        ] {
            v.reserve_exact(cap);
        }
        ws
    }
}

/// Clear `v` and refill it with `n` zeros, reusing capacity. In steady
/// state (capacity ≥ `n`) this touches no allocator.
pub(crate) fn fit(v: &mut Vec<f64>, n: usize) {
    v.clear();
    v.resize(n, 0.0);
}
