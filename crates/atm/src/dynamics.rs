//! The L-level quasi-geostrophic spectral dynamical core.
//!
//! Prognostic variable: anomaly potential vorticity q_i (planetary
//! vorticity handled analytically via the β term) at `nlev` dynamic
//! levels. PV and streamfunction are linked per spectral coefficient by
//! a small symmetric matrix (Laplacian + interface stretching), inverted
//! exactly; tendencies are
//!
//!   ∂q_i/∂t = −J(ψ_i, q_i) − β-term − Ekman drag (bottom level)
//!             − interface relaxation toward the thermal-wind shear
//!               implied by the physics temperature field,
//!
//! with leapfrog + Robert–Asselin time stepping and implicit ∇⁴
//! hyperdiffusion, the standard configuration for R15-class spectral
//! models (Williamson et al. give the diffusion guidance the paper
//! cites).

use foam_ckpt::{ByteReader, CkptError, Codec};
use foam_grid::constants::{EARTH_RADIUS, OMEGA};
use foam_grid::Field2;
use foam_mpi::Comm;
use foam_spectral::{Complex, ParTransform, SpectralField, SpectralWorkspace, Truncation};

use crate::workspace::DynWorkspace;

/// Dynamical-core configuration.
#[derive(Debug, Clone)]
pub struct QgConfig {
    /// Number of dynamic levels (Marshall–Molteni uses 3: 200/500/800 hPa).
    pub nlev: usize,
    /// Rossby deformation radii of the `nlev − 1` interfaces \[m\].
    pub rossby_radii: Vec<f64>,
    /// Ekman spin-down time on the bottom level \[s\].
    pub tau_ekman: f64,
    /// Relaxation time of interface shear toward the thermal-wind
    /// equilibrium from the physics temperature field \[s\].
    pub tau_thermal: f64,
    /// ∇⁴ hyperdiffusion coefficient \[m⁴/s\].
    pub nu_hyper: f64,
    /// Robert–Asselin filter strength.
    pub robert: f64,
}

impl Default for QgConfig {
    fn default() -> Self {
        QgConfig {
            nlev: 3,
            rossby_radii: vec![700.0e3, 450.0e3],
            tau_ekman: 3.0 * 86_400.0,
            tau_thermal: 20.0 * 86_400.0,
            // Sized for R15 per the Williamson et al. guidance scale.
            nu_hyper: 1.0e16,
            robert: 0.02,
        }
    }
}

/// Leapfrog state: PV at the previous and current time levels.
#[derive(Debug, Clone)]
pub struct QgState {
    pub q_prev: Vec<SpectralField>,
    pub q_now: Vec<SpectralField>,
}

impl QgState {
    pub fn zeros(trunc: Truncation, nlev: usize) -> Self {
        QgState {
            q_prev: (0..nlev).map(|_| SpectralField::zeros(trunc)).collect(),
            q_now: (0..nlev).map(|_| SpectralField::zeros(trunc)).collect(),
        }
    }
}

impl Codec for QgState {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.q_prev.encode(buf);
        self.q_now.encode(buf);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        let q_prev = Vec::<SpectralField>::decode(r)?;
        let q_now = Vec::<SpectralField>::decode(r)?;
        if q_prev.len() != q_now.len() {
            return Err(CkptError::Corrupt(format!(
                "QgState level mismatch: {} prev vs {} now",
                q_prev.len(),
                q_now.len()
            )));
        }
        Ok(QgState { q_prev, q_now })
    }
}

/// The core: precomputed per-degree inversion matrices.
pub struct QgCore {
    pub cfg: QgConfig,
    pub trunc: Truncation,
    /// Forward matrices A(n) (ψ → q), row-major nlev × nlev, per degree n.
    fwd: Vec<Vec<f64>>,
    /// Inverse matrices A(n)⁻¹ (q → ψ); identity-sized zeros for n = 0
    /// (the global-mean ψ is gauge-fixed to zero).
    inv: Vec<Vec<f64>>,
}

impl QgCore {
    pub fn new(cfg: QgConfig, trunc: Truncation) -> Self {
        assert_eq!(cfg.rossby_radii.len(), cfg.nlev - 1);
        let nl = cfg.nlev;
        let a2 = EARTH_RADIUS * EARTH_RADIUS;
        let r: Vec<f64> = cfg.rossby_radii.iter().map(|&rd| 1.0 / (rd * rd)).collect();
        let n_max = trunc.n_max_overall();
        let mut fwd = Vec::with_capacity(n_max + 1);
        let mut inv = Vec::with_capacity(n_max + 1);
        for n in 0..=n_max {
            let lap = -((n * (n + 1)) as f64) / a2;
            let mut a = vec![0.0; nl * nl];
            for i in 0..nl {
                a[i * nl + i] = lap;
            }
            for (k, &rk) in r.iter().enumerate() {
                a[k * nl + k] -= rk;
                a[k * nl + (k + 1)] += rk;
                a[(k + 1) * nl + (k + 1)] -= rk;
                a[(k + 1) * nl + k] += rk;
            }
            let ainv = if n == 0 {
                vec![0.0; nl * nl]
            } else {
                invert(&a, nl)
            };
            fwd.push(a);
            inv.push(ainv);
        }
        QgCore {
            cfg,
            trunc,
            fwd,
            inv,
        }
    }

    /// ψ from anomaly PV, coefficient by coefficient.
    pub fn psi_from_pv(&self, q: &[SpectralField]) -> Vec<SpectralField> {
        self.apply_per_n(q, &self.inv)
    }

    /// Allocation-free [`QgCore::psi_from_pv`]: overwrites every
    /// coefficient of the `nlev` fields in `out`. Bit-identical to the
    /// allocating form.
    pub fn psi_from_pv_into(&self, q: &[SpectralField], out: &mut [SpectralField]) {
        self.apply_per_n_into(q, &self.inv, out)
    }

    /// Anomaly PV from ψ.
    pub fn pv_from_psi(&self, psi: &[SpectralField]) -> Vec<SpectralField> {
        self.apply_per_n(psi, &self.fwd)
    }

    fn apply_per_n(&self, x: &[SpectralField], mats: &[Vec<f64>]) -> Vec<SpectralField> {
        let mut out: Vec<SpectralField> = (0..self.cfg.nlev)
            .map(|_| SpectralField::zeros(self.trunc))
            .collect();
        self.apply_per_n_into(x, mats, &mut out);
        out
    }

    fn apply_per_n_into(&self, x: &[SpectralField], mats: &[Vec<f64>], out: &mut [SpectralField]) {
        let nl = self.cfg.nlev;
        assert_eq!(x.len(), nl);
        assert_eq!(out.len(), nl);
        for (m, n) in self.trunc.pairs() {
            let k = self.trunc.idx(m, n);
            let mat = &mats[n];
            for i in 0..nl {
                let mut acc = Complex::ZERO;
                for (j, xi) in x.iter().enumerate() {
                    acc += xi.data[k].scale(mat[i * nl + j]);
                }
                out[i].data[k] = acc;
            }
        }
    }

    /// Everything in a step that depends on `q_now` alone: ψ per level
    /// and its two gradient slabs on this rank's rows, left in `dw` for
    /// the winds, every tracer Jacobian and [`QgCore::tendencies_ws`],
    /// so no field is synthesized twice in a step.
    pub fn streamfunction_ws(
        &self,
        par: &ParTransform,
        q: &[SpectralField],
        dw: &mut DynWorkspace,
    ) {
        self.psi_from_pv_into(q, &mut dw.psi);
        for (psi, grad) in dw.psi.iter().zip(&mut dw.psi_grad) {
            grad.synthesize(par, psi, &mut dw.spec);
        }
    }

    /// PV tendencies, left in `dw.tend` for [`QgCore::step_leapfrog_ws`]
    /// / [`QgCore::step_euler_ws`]. `dpsi_eq[k]` is the equilibrium
    /// interface shear (ψ_k − ψ_{k+1})_eq, in spectral space, supplied by
    /// the model layer from the physics temperature field (thermal
    /// wind). `orog_grad` is the gradient of the orographic PV f·h/H
    /// (constant, so the model builds it once); flow over it forces the
    /// bottom level (stationary waves), the standard QG treatment
    /// (Marshall–Molteni's f₀ h/H term). Call
    /// [`QgCore::streamfunction_ws`] on the same `state_q` first: ψ and
    /// its gradients are read from `dw`, not recomputed. The Jacobians'
    /// analyses share one global combine.
    pub fn tendencies_ws(
        &self,
        par: &ParTransform,
        comm: &Comm,
        state_q: &[SpectralField],
        dpsi_eq: &[SpectralField],
        orog_grad: &Gradient,
        dw: &mut DynWorkspace,
    ) {
        let nl = self.cfg.nlev;
        let DynWorkspace {
            spec,
            batch,
            psi,
            psi_grad,
            tend,
            jac,
            drag,
            x_grad,
            gj,
            rossby_r,
            ..
        } = dw;
        batch.begin(nl + 1);
        for k in 0..nl {
            // Nonlinear advection: −J(ψ, q), via the transform method.
            x_grad.synthesize(par, &state_q[k], spec);
            jacobian_on_rows(par, &psi_grad[k], x_grad, gj);
            par.accumulate(gj, spec, batch, k);
        }
        // Orographic forcing of the bottom level: −J(ψ_b, f h/H).
        jacobian_on_rows(par, &psi_grad[nl - 1], orog_grad, gj);
        par.accumulate(gj, spec, batch, nl);
        par.reduce(comm, batch);
        for k in 0..nl {
            batch.read(k, &mut tend[k]);
            tend[k].scale(-1.0);
        }

        let a2 = EARTH_RADIUS * EARTH_RADIUS;
        for k in 0..nl {
            // β term: −(2Ω/a²) ∂ψ/∂λ, spectral multiply by i m.
            for (m, n) in self.trunc.pairs() {
                let idx = self.trunc.idx(m, n);
                let beta = psi[k].data[idx]
                    .mul_i()
                    .scale(-(2.0 * OMEGA / a2) * m as f64);
                tend[k].data[idx] += beta;
            }
        }
        batch.read(nl, jac);
        jac.scale(-1.0);
        for (m, n) in self.trunc.pairs() {
            let idx = self.trunc.idx(m, n);
            tend[nl - 1].data[idx] += jac.data[idx];
        }
        // Ekman drag on the bottom level: −∇²ψ/τ_E.
        psi[nl - 1].laplacian_into(drag);
        drag.scale(-1.0 / self.cfg.tau_ekman);
        for (m, n) in self.trunc.pairs() {
            let idx = self.trunc.idx(m, n);
            tend[nl - 1].data[idx] += drag.data[idx];
        }
        // Interface thermal relaxation: drive the shear toward dpsi_eq.
        rossby_r.clear();
        rossby_r.extend(self.cfg.rossby_radii.iter().map(|&rd| 1.0 / (rd * rd)));
        for k in 0..nl - 1 {
            for (m, n) in self.trunc.pairs() {
                let idx = self.trunc.idx(m, n);
                let shear = psi[k].data[idx] - psi[k + 1].data[idx];
                let dev = shear - dpsi_eq[k].data[idx];
                let f = dev.scale(rossby_r[k] / self.cfg.tau_thermal);
                // To raise the shear toward equilibrium, *remove*
                // stretching PV above the interface and add it below:
                // q_k ⊃ −r·Δψ, so dq_k = +r·dev/τ drives dΔψ = −dev/τ.
                tend[k].data[idx] += f;
                tend[k + 1].data[idx] += f.scale(-1.0);
            }
        }
    }

    /// One leapfrog step with Robert–Asselin filtering and implicit
    /// hyperdiffusion, consuming the tendencies left in `dw` by
    /// [`QgCore::tendencies_ws`]. Advances `state` in place by `dt`: the
    /// new time levels are built in workspace scratch and swapped in.
    pub fn step_leapfrog_ws(&self, state: &mut QgState, dt: f64, dw: &mut DynWorkspace) {
        let nl = self.cfg.nlev;
        let DynWorkspace {
            tend,
            q_next,
            filtered,
            ..
        } = dw;
        for k in 0..nl {
            q_next.copy_from(&state.q_prev[k]);
            q_next.axpy(2.0 * dt, &tend[k]);
            q_next.apply_hyperdiffusion(self.cfg.nu_hyper, 2.0 * dt);
            // Robert–Asselin: filter the middle time level.
            filtered.copy_from(&state.q_now[k]);
            for i in 0..filtered.data.len() {
                filtered.data[i] += (state.q_prev[k].data[i] + q_next.data[i]
                    - state.q_now[k].data[i].scale(2.0))
                .scale(self.cfg.robert);
            }
            std::mem::swap(&mut state.q_prev[k], filtered);
            std::mem::swap(&mut state.q_now[k], q_next);
        }
    }

    /// Forward-Euler bootstrap step (first step of a leapfrog run),
    /// consuming the tendencies left in `dw` by
    /// [`QgCore::tendencies_ws`].
    pub fn step_euler_ws(&self, state: &mut QgState, dt: f64, dw: &mut DynWorkspace) {
        let nl = self.cfg.nlev;
        for k in 0..nl {
            state.q_prev[k].copy_from(&state.q_now[k]);
            state.q_now[k].axpy(dt, &dw.tend[k]);
            state.q_now[k].apply_hyperdiffusion(self.cfg.nu_hyper, dt);
        }
    }
}

/// The two grid-space derivative slabs of one spectral field on a rank's
/// rows — what a Jacobian reads of each operand. Synthesized once per
/// field per step and shared by every Jacobian the field enters.
#[derive(Debug, Clone)]
pub struct Gradient {
    /// ∂f/∂λ.
    pub dlam: Field2,
    /// cos φ · ∂f/∂φ.
    pub cosgrad: Field2,
}

impl Gradient {
    /// Zeroed slabs shaped for `par`'s rows.
    pub fn zeros(par: &ParTransform) -> Self {
        let slab = Field2::zeros(par.base.grid.nlon, par.n_local_rows());
        Gradient {
            dlam: slab.clone(),
            cosgrad: slab,
        }
    }

    /// Synthesize both slabs of `f` on `par`'s rows.
    pub fn synthesize(
        &mut self,
        par: &ParTransform,
        f: &SpectralField,
        ws: &mut SpectralWorkspace,
    ) {
        par.synthesize_dlambda_into(f, ws, &mut self.dlam);
        par.synthesize_cosgrad_into(f, ws, &mut self.cosgrad);
    }
}

/// Spherical Jacobian J(a, b) = (1/a²)(∂a/∂λ ∂b/∂μ − ∂a/∂μ ∂b/∂λ) by
/// the transform method, grid-space half: evaluated on this rank's rows
/// from the two fields' gradient slabs, overwriting `out`. The caller
/// re-analyzes it (the distributed global-sum step).
pub(crate) fn jacobian_on_rows(par: &ParTransform, a: &Gradient, b: &Gradient, out: &mut Field2) {
    let grid = &par.base.grid;
    let a2 = EARTH_RADIUS * EARTH_RADIUS;
    for jl in 0..par.n_local_rows() {
        let mu = grid.mu[par.j0 + jl];
        let fac = 1.0 / (a2 * (1.0 - mu * mu));
        for i in 0..grid.nlon {
            let v = (a.dlam.get(i, jl) * b.cosgrad.get(i, jl)
                - a.cosgrad.get(i, jl) * b.dlam.get(i, jl))
                * fac;
            out.set(i, jl, v);
        }
    }
}

/// Invert a dense `n × n` matrix by Gauss–Jordan with partial pivoting.
fn invert(a: &[f64], n: usize) -> Vec<f64> {
    let mut m = a.to_vec();
    let mut inv = vec![0.0; n * n];
    for i in 0..n {
        inv[i * n + i] = 1.0;
    }
    for col in 0..n {
        // Pivot.
        let mut piv = col;
        for row in col + 1..n {
            if m[row * n + col].abs() > m[piv * n + col].abs() {
                piv = row;
            }
        }
        assert!(m[piv * n + col].abs() > 1e-300, "singular PV matrix");
        if piv != col {
            for j in 0..n {
                m.swap(col * n + j, piv * n + j);
                inv.swap(col * n + j, piv * n + j);
            }
        }
        let d = m[col * n + col];
        for j in 0..n {
            m[col * n + j] /= d;
            inv[col * n + j] /= d;
        }
        for row in 0..n {
            if row != col {
                let f = m[row * n + col];
                if f != 0.0 {
                    for j in 0..n {
                        m[row * n + j] -= f * m[col * n + j];
                        inv[row * n + j] -= f * inv[col * n + j];
                    }
                }
            }
        }
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use foam_grid::AtmGrid;
    use foam_mpi::Universe;
    use foam_spectral::SphericalTransform;

    fn core() -> QgCore {
        QgCore::new(QgConfig::default(), Truncation::rhomboidal(5))
    }

    fn par(comm: &Comm) -> ParTransform {
        ParTransform::new(
            SphericalTransform::new(AtmGrid::new(24, 16), Truncation::rhomboidal(5)),
            comm,
        )
    }

    const DT: f64 = 1800.0;

    /// Advance `state` by `steps` of `DT` over a flat bottom (a zero
    /// orographic gradient): Euler bootstrap, then leapfrog.
    fn integrate(
        c: &QgCore,
        par: &ParTransform,
        comm: &Comm,
        state: &mut QgState,
        dpsi_eq: &[SpectralField],
        steps: usize,
    ) {
        let mut dw = DynWorkspace::new(par, c.cfg.nlev, 0);
        let flat = Gradient::zeros(par);
        for s in 0..steps {
            c.streamfunction_ws(par, &state.q_now, &mut dw);
            c.tendencies_ws(par, comm, &state.q_now, dpsi_eq, &flat, &mut dw);
            if s == 0 {
                c.step_euler_ws(state, DT, &mut dw);
            } else {
                c.step_leapfrog_ws(state, DT, &mut dw);
            }
        }
    }

    /// Spectral J(a, b): both gradients, the product on this rank's
    /// rows, one distributed analysis.
    fn jacobian(
        par: &ParTransform,
        comm: &Comm,
        a: &SpectralField,
        b: &SpectralField,
    ) -> SpectralField {
        let mut ws = SpectralWorkspace::new(&par.base);
        let (mut ga, mut gb) = (Gradient::zeros(par), Gradient::zeros(par));
        ga.synthesize(par, a, &mut ws);
        gb.synthesize(par, b, &mut ws);
        let mut j = Field2::zeros(par.base.grid.nlon, par.n_local_rows());
        jacobian_on_rows(par, &ga, &gb, &mut j);
        let mut out = SpectralField::zeros(par.base.trunc);
        par.analyze_into(comm, &j, &mut ws, &mut out);
        out
    }

    #[test]
    fn invert_matches_identity() {
        let a = vec![2.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0];
        let ai = invert(&a, 3);
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += a[i * 3 + k] * ai[k * 3 + j];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((s - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn inversion_roundtrip() {
        let c = core();
        let mut q: Vec<SpectralField> = (0..3).map(|_| SpectralField::zeros(c.trunc)).collect();
        q[0].set(2, 3, Complex::new(1.0, 0.5));
        q[1].set(1, 4, Complex::new(-0.7, 0.0));
        q[2].set(0, 2, Complex::new(0.3, 0.0));
        let psi = c.psi_from_pv(&q);
        let back = c.pv_from_psi(&psi);
        for k in 0..3 {
            for (m, n) in c.trunc.pairs() {
                if n == 0 {
                    continue; // gauge-fixed
                }
                let d = back[k].get(m, n) - q[k].get(m, n);
                assert!(d.abs() < 1e-12, "level {k} ({m},{n}): {d:?}");
            }
        }
    }

    #[test]
    fn barotropic_mode_decouples_from_stretching() {
        // Equal ψ at all levels ⇒ q_i = ∇²ψ (no stretching terms).
        let c = core();
        let mut psi: Vec<SpectralField> = (0..3).map(|_| SpectralField::zeros(c.trunc)).collect();
        for p in psi.iter_mut() {
            p.set(3, 5, Complex::new(1.0, 2.0));
        }
        let q = c.pv_from_psi(&psi);
        let lap = psi[0].laplacian();
        for k in 0..3 {
            let d = q[k].get(3, 5) - lap.get(3, 5);
            assert!(d.abs() < 1e-20, "level {k}");
        }
    }

    #[test]
    fn rossby_wave_retrogresses_at_haurwitz_speed() {
        // Linear test: a single barotropic harmonic, tiny amplitude so
        // J(ψ,q) ~ O(amp²) is negligible; the β term should rotate the
        // phase westward at ω = −2Ωm/(n(n+1)).
        let out = Universe::run(1, |comm| {
            let par = par(comm);
            let cfg = QgConfig {
                tau_ekman: 1e30, // disable drag
                tau_thermal: 1e30,
                nu_hyper: 0.0,
                ..Default::default()
            };
            let c = QgCore::new(cfg, par.base.trunc);
            let (m, n) = (2usize, 4usize);
            let amp = 1.0e-4; // essentially linear
            let mut psi: Vec<SpectralField> =
                (0..3).map(|_| SpectralField::zeros(c.trunc)).collect();
            for p in psi.iter_mut() {
                p.set(m, n, Complex::new(amp, 0.0));
            }
            let mut state = QgState {
                q_prev: c.pv_from_psi(&psi),
                q_now: c.pv_from_psi(&psi),
            };
            let dpsi_eq: Vec<SpectralField> =
                (0..2).map(|_| SpectralField::zeros(c.trunc)).collect();
            let dt = DT;
            let steps = 48;
            integrate(&c, &par, comm, &mut state, &dpsi_eq, steps);
            let psi_end = c.psi_from_pv(&state.q_now);
            let z = psi_end[1].get(m, n);
            // Phase angle after `steps·dt`.
            let measured = z.im.atan2(z.re);
            let omega = -2.0 * OMEGA * m as f64 / ((n * (n + 1)) as f64);
            // Our convention f(λ) ~ Re[c e^{imλ}]: a westward-moving
            // pattern has phase(c) growing as −m·(dλ/dt)·t = −ω·... sign:
            // pattern ∝ cos(mλ + φ(t)), moving west ⇒ φ increases.
            let expected = (-omega * dt * steps as f64).rem_euclid(2.0 * std::f64::consts::PI);
            let measured = measured.rem_euclid(2.0 * std::f64::consts::PI);
            (measured, expected)
        });
        let (measured, expected) = out.results[0];
        let diff = (measured - expected)
            .abs()
            .min(2.0 * std::f64::consts::PI - (measured - expected).abs());
        assert!(
            diff < 0.05,
            "phase {measured} vs Rossby–Haurwitz {expected} (diff {diff})"
        );
    }

    #[test]
    fn jacobian_of_field_with_itself_vanishes() {
        Universe::run(2, |comm| {
            let par = par(comm);
            let mut a = SpectralField::zeros(par.base.trunc);
            a.set(1, 2, Complex::new(0.8, -0.1));
            a.set(3, 4, Complex::new(-0.2, 0.4));
            let j = jacobian(&par, comm, &a, &a);
            for (m, n) in par.base.trunc.pairs() {
                assert!(j.get(m, n).abs() < 1e-12, "J(a,a) leak at ({m},{n})");
            }
        });
    }

    #[test]
    fn jacobian_conserves_mean_vorticity() {
        Universe::run(1, |comm| {
            let par = par(comm);
            let mut a = SpectralField::zeros(par.base.trunc);
            let mut b = SpectralField::zeros(par.base.trunc);
            a.set(1, 2, Complex::new(0.5, 0.3));
            a.set(0, 3, Complex::new(1.0, 0.0));
            b.set(2, 3, Complex::new(-0.4, 0.7));
            b.set(0, 1, Complex::new(0.6, 0.0));
            let j = jacobian(&par, comm, &a, &b);
            // Global mean of a Jacobian is zero.
            assert!(j.get(0, 0).abs() < 1e-12, "mean = {:?}", j.get(0, 0));
        });
    }

    #[test]
    fn ekman_drag_spins_down_bottom_level() {
        Universe::run(1, |comm| {
            let par = par(comm);
            let cfg = QgConfig {
                nu_hyper: 0.0,
                tau_thermal: 1e30,
                ..Default::default()
            };
            let c = QgCore::new(cfg, par.base.trunc);
            let mut psi: Vec<SpectralField> =
                (0..3).map(|_| SpectralField::zeros(c.trunc)).collect();
            for p in psi.iter_mut() {
                p.set(0, 2, Complex::new(1.0e6, 0.0)); // zonal flow, no β/J
            }
            let mut state = QgState {
                q_prev: c.pv_from_psi(&psi),
                q_now: c.pv_from_psi(&psi),
            };
            let dpsi_eq: Vec<SpectralField> =
                (0..2).map(|_| SpectralField::zeros(c.trunc)).collect();
            let e0: f64 = state.q_now.iter().map(|q| q.mean_square()).sum();
            integrate(&c, &par, comm, &mut state, &dpsi_eq, 24);
            let e1: f64 = state.q_now.iter().map(|q| q.mean_square()).sum();
            assert!(e1 < e0, "drag should dissipate: {e0} → {e1}");
            assert!(e1 > 0.5 * e0, "half-day should not kill the flow");
        });
    }

    #[test]
    fn thermal_relaxation_pulls_shear_toward_equilibrium() {
        Universe::run(1, |comm| {
            let par = par(comm);
            let cfg = QgConfig {
                nu_hyper: 0.0,
                tau_ekman: 1e30,
                tau_thermal: 5.0 * 86_400.0,
                ..Default::default()
            };
            let c = QgCore::new(cfg, par.base.trunc);
            // Start at rest; equilibrium demands a shear.
            let mut state = QgState::zeros(par.base.trunc, 3);
            let mut dpsi_eq: Vec<SpectralField> =
                (0..2).map(|_| SpectralField::zeros(c.trunc)).collect();
            dpsi_eq[0].set(0, 2, Complex::new(5.0e6, 0.0));
            integrate(&c, &par, comm, &mut state, &dpsi_eq, 48);
            let psi = c.psi_from_pv(&state.q_now);
            let shear = psi[0].get(0, 2) - psi[1].get(0, 2);
            assert!(
                shear.re > 1.0e5,
                "shear should build toward equilibrium, got {shear:?}"
            );
            assert!(shear.re < 5.0e6, "should not overshoot equilibrium");
        });
    }
}
