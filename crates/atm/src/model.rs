//! The latitude-decomposed atmosphere model: QG dynamics + spectral
//! tracers + column physics, exchanging surface fields with the coupler.

use foam_grid::constants::R_DRY;
use foam_grid::{AtmGrid, Field2};
use foam_mpi::Comm;
use foam_physics::forcing::Forcings;
use foam_physics::radiation::OrbitalState;
use foam_physics::surface::BulkFluxes;
use foam_physics::{AtmColumn, ColumnPhysics, PhysicsConfig, SurfaceKind, SurfaceState};
use foam_spectral::{
    Complex, ParTransform, SpectralField, SpectralWorkspace, SphericalTransform, Truncation,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dynamics::{Gradient, QgConfig, QgCore, QgState};
use crate::tracers::{advect_grid_tracers_ws, winds_from_gradient, winds_on_rows, TracerSet};
use crate::workspace::{AtmWorkspace, DynWorkspace};
use foam_ckpt::Codec;

/// Midlatitude reference Coriolis parameter for thermal-wind coupling.
const F0: f64 = 1.0e-4;

/// Atmosphere configuration. The default is the paper's R15 setup
/// (48 × 40 × 18, Δt = 30 min); tests use smaller grids.
#[derive(Debug, Clone)]
pub struct AtmConfig {
    pub nlon: usize,
    pub nlat: usize,
    /// Rhomboidal truncation wavenumber (15 for R15).
    pub m_max: usize,
    /// Physics levels (paper: 18).
    pub nlev_phys: usize,
    /// Time step \[s\] (paper: 30 min).
    pub dt: f64,
    pub dynamics: QgConfig,
    pub physics: PhysicsConfig,
    /// Tracer hyperdiffusion \[m⁴/s\].
    pub tracer_nu4: f64,
    /// Seed for the initial perturbation.
    pub seed: u64,
}

impl Default for AtmConfig {
    fn default() -> Self {
        AtmConfig {
            nlon: 48,
            nlat: 40,
            m_max: 15,
            nlev_phys: 18,
            dt: 1800.0,
            dynamics: QgConfig::default(),
            physics: PhysicsConfig::default(),
            tracer_nu4: 1.0e16,
            seed: 7,
        }
    }
}

impl AtmConfig {
    /// A reduced configuration for fast tests: 24 × 16 grid, R5, 8 levels.
    pub fn tiny(seed: u64) -> Self {
        AtmConfig {
            nlon: 24,
            nlat: 16,
            m_max: 5,
            nlev_phys: 8,
            seed,
            ..Default::default()
        }
    }
}

/// Full prognostic state of the atmosphere on one rank.
#[derive(Debug, Clone)]
pub struct AtmState {
    pub qg: QgState,
    /// Temperature per physics level, this rank's latitude rows \[K\].
    pub t: Vec<Field2>,
    /// Specific humidity per physics level.
    pub q: Vec<Field2>,
    /// Radiation caches, one per local column (flattened `jl·nlon + i`).
    pub rad: Vec<foam_physics::RadCache>,
    /// Simulated seconds since the run started.
    pub sim_t: f64,
    pub step_count: u64,
}

/// Surface forcing handed to the atmosphere by the coupler for one step,
/// on this rank's local cells (flattened `jl·nlon + i`).
#[derive(Debug, Clone)]
pub struct AtmForcing {
    /// Turbulent surface fluxes computed on the overlap grid and
    /// area-averaged to the atmosphere cells.
    pub fluxes: Vec<BulkFluxes>,
    /// Effective radiating surface temperature \[K\].
    pub t_sfc: Vec<f64>,
    /// Effective surface albedo.
    pub albedo: Vec<f64>,
}

/// What the atmosphere exports to the coupler after a step (local rows).
#[derive(Debug, Clone)]
pub struct AtmExport {
    /// Lowest-level air temperature \[K\], humidity, winds \[m/s\].
    pub t_low: Field2,
    pub q_low: Field2,
    pub u_low: Field2,
    pub v_low: Field2,
    /// Precipitation rate over the step \[kg m⁻² s⁻¹\].
    pub precip: Field2,
    /// Shortwave absorbed at the surface and downwelling longwave \[W/m²\].
    pub sw_sfc: Field2,
    pub lw_down: Field2,
    /// Column cloud fraction.
    pub cloud: Field2,
    /// Physics work units per local column (load-imbalance diagnostic).
    pub work: Vec<usize>,
}

impl Codec for AtmState {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.qg.encode(buf);
        self.t.encode(buf);
        self.q.encode(buf);
        self.rad.encode(buf);
        self.sim_t.encode(buf);
        self.step_count.encode(buf);
    }
    fn decode(r: &mut foam_ckpt::ByteReader<'_>) -> Result<Self, foam_ckpt::CkptError> {
        Ok(AtmState {
            qg: QgState::decode(r)?,
            t: Vec::<Field2>::decode(r)?,
            q: Vec::<Field2>::decode(r)?,
            rad: Vec::<foam_physics::RadCache>::decode(r)?,
            sim_t: f64::decode(r)?,
            step_count: u64::decode(r)?,
        })
    }
}

impl Codec for AtmExport {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.t_low.encode(buf);
        self.q_low.encode(buf);
        self.u_low.encode(buf);
        self.v_low.encode(buf);
        self.precip.encode(buf);
        self.sw_sfc.encode(buf);
        self.lw_down.encode(buf);
        self.cloud.encode(buf);
        self.work.encode(buf);
    }
    fn decode(r: &mut foam_ckpt::ByteReader<'_>) -> Result<Self, foam_ckpt::CkptError> {
        Ok(AtmExport {
            t_low: Field2::decode(r)?,
            q_low: Field2::decode(r)?,
            u_low: Field2::decode(r)?,
            v_low: Field2::decode(r)?,
            precip: Field2::decode(r)?,
            sw_sfc: Field2::decode(r)?,
            lw_down: Field2::decode(r)?,
            cloud: Field2::decode(r)?,
            work: Vec::<usize>::decode(r)?,
        })
    }
}

/// The atmosphere component bound to one rank of its communicator.
pub struct AtmModel {
    pub cfg: AtmConfig,
    pub par: ParTransform,
    core: QgCore,
    pub phys: ColumnPhysics,
    /// Gradient slabs of the orographic PV (f·h/H) on this rank's rows,
    /// whose flow forces the bottom dynamic level (stationary waves from
    /// the synthetic topography): constant, so built once here instead
    /// of once per step.
    orog_grad: Gradient,
    /// Scenario forcings (CO₂ / solar / aerosol time series) folded
    /// into the column physics once per simulated day; empty = identity.
    forcings: Forcings,
}

impl AtmModel {
    pub fn new(cfg: AtmConfig, comm: &Comm) -> Self {
        let grid = AtmGrid::new(cfg.nlon, cfg.nlat);
        let trunc = Truncation::rhomboidal(cfg.m_max);
        let par = ParTransform::new(SphericalTransform::new(grid, trunc), comm);
        let core = QgCore::new(cfg.dynamics.clone(), trunc);
        let phys = ColumnPhysics::new(cfg.physics);
        // f·h/H with H = 8 km scale height, from the synthetic planet,
        // analyzed on the full grid (identical on every rank).
        let world = foam_grid::World::earthlike();
        let grid = &par.base.grid;
        let f = Field2::from_fn(grid.nlon, grid.nlat, |i, j| {
            let h = world.elevation(grid.lons[i], grid.lats[j]);
            foam_grid::constants::coriolis(grid.lats[j]) * h / 8000.0
        });
        let mut orog_grad = Gradient::zeros(&par);
        orog_grad.synthesize(
            &par,
            &par.base.analyze(&f),
            &mut SpectralWorkspace::new(&par.base),
        );
        AtmModel {
            cfg,
            par,
            core,
            phys,
            orog_grad,
            forcings: Forcings::default(),
        }
    }

    /// Install scenario forcings (the driver threads
    /// `FoamConfig::forcings` here). The default is empty — identity —
    /// so unforced runs are bit-identical with or without this call.
    pub fn set_forcings(&mut self, forcings: Forcings) {
        self.forcings = forcings;
    }

    /// The column-physics engine in effect at simulated time `sim_t`:
    /// the configured engine with any scenario forcing for that
    /// simulated day folded in. `PhysicsConfig` is `Copy`, so this is
    /// stack-only — safe in the zero-churn hot loop. The forcing is a
    /// pure function of the integer simulated day and static series,
    /// which is what makes checkpoint/resume of forced runs
    /// bit-identical for free.
    #[inline]
    fn effective_phys(&self, sim_t: f64) -> ColumnPhysics {
        if self.forcings.is_empty() {
            self.phys.clone()
        } else {
            ColumnPhysics::new(self.forcings.apply(self.phys.cfg, Forcings::day_of(sim_t)))
        }
    }

    #[inline]
    pub fn grid(&self) -> &AtmGrid {
        &self.par.base.grid
    }

    /// Local latitude rows `[j0, j1)`.
    #[inline]
    pub fn rows(&self) -> (usize, usize) {
        (self.par.j0, self.par.j1)
    }

    #[inline]
    pub fn n_local(&self) -> usize {
        self.par.n_local_rows() * self.cfg.nlon
    }

    /// Climatological surface air temperature used for initialization
    /// \[K\].
    pub fn t_init(lat: f64) -> f64 {
        250.0 + 50.0 * lat.cos() * lat.cos()
    }

    /// Build a balanced initial state: thermal-wind jets consistent with
    /// the initial temperature field plus a small seeded perturbation.
    pub fn init_state(&self) -> AtmState {
        let grid = self.grid();
        let nlocal_rows = self.par.n_local_rows();
        let nl = self.cfg.nlev_phys;

        // Temperature/humidity columns by latitude.
        let mut t = vec![Field2::zeros(grid.nlon, nlocal_rows); nl];
        let mut q = vec![Field2::zeros(grid.nlon, nlocal_rows); nl];
        for jl in 0..nlocal_rows {
            let lat = grid.lats[self.par.j0 + jl];
            let col = AtmColumn::standard(nl, Self::t_init(lat));
            for k in 0..nl {
                for i in 0..grid.nlon {
                    t[k].set(i, jl, col.t[k]);
                    q[k].set(i, jl, col.q[k]);
                }
            }
        }

        // Balanced QG state from the equilibrium shear of that T field,
        // plus a deterministic seeded perturbation to break zonal
        // symmetry (same on every rank).
        let nld = self.cfg.dynamics.nlev;
        let dpsi_eq = self.equilibrium_shear_serial(&t);
        let mut psi: Vec<SpectralField> = (0..nld)
            .map(|_| SpectralField::zeros(self.par.base.trunc))
            .collect();
        // ψ with zero vertical mean and the prescribed shears.
        // ψ_k = Σ_{j≥k} Δψ_j − mean over levels.
        for k in (0..nld - 1).rev() {
            let mut p = psi[k + 1].clone();
            p.axpy(1.0, &dpsi_eq[k]);
            psi[k] = p;
        }
        let mut mean = SpectralField::zeros(self.par.base.trunc);
        for p in &psi {
            mean.axpy(1.0 / nld as f64, p);
        }
        for p in psi.iter_mut() {
            p.axpy(-1.0, &mean);
        }
        let mut qg_now = self.core.pv_from_psi(&psi);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        for qf in qg_now.iter_mut() {
            for (m, n) in self.par.base.trunc.pairs() {
                if (2..=5).contains(&m) && n <= m + 3 {
                    let idx = self.par.base.trunc.idx(m, n);
                    let amp = 2.0e-7; // small PV noise (1/s)
                    qf.data[idx] += Complex::new(
                        amp * (rng.random::<f64>() - 0.5),
                        amp * (rng.random::<f64>() - 0.5),
                    );
                }
            }
        }
        let qg = QgState {
            q_prev: qg_now.clone(),
            q_now: qg_now,
        };

        AtmState {
            qg,
            t,
            q,
            rad: (0..self.n_local())
                .map(|_| foam_physics::RadCache::empty(nl))
                .collect(),
            sim_t: 0.0,
            step_count: 0,
        }
    }

    /// Map a physics level index to the dynamic level advecting it.
    #[inline]
    fn dyn_level_for(&self, k_phys: usize) -> usize {
        (k_phys * self.cfg.dynamics.nlev) / self.cfg.nlev_phys
    }

    /// Equilibrium interface shears (thermal wind) from the local
    /// temperature field — *serial* version used at init (no comm):
    /// computed from the zonal structure only via a local analysis that
    /// is completed lazily on first step. To stay simple and correct we
    /// compute it from the analytic initial profile here.
    fn equilibrium_shear_serial(&self, t: &[Field2]) -> Vec<SpectralField> {
        // Build the full-grid zonal-mean T̄ per dynamic layer from the
        // *initialization formula* (identical on all ranks, no comm).
        let grid = self.grid();
        let nld = self.cfg.dynamics.nlev;
        let nl = self.cfg.nlev_phys;
        let _ = t;
        let st = &self.par.base;
        let mut out = Vec::with_capacity(nld - 1);
        for itf in 0..nld - 1 {
            // Mean T of the physics levels in dynamic layers itf and
            // itf+1, from the analytic initial column.
            let mut field = Field2::zeros(grid.nlon, grid.nlat);
            for j in 0..grid.nlat {
                let col = AtmColumn::standard(nl, Self::t_init(grid.lats[j]));
                let tbar = self.layer_pair_mean(&col.t, itf);
                for i in 0..grid.nlon {
                    field.set(i, j, tbar);
                }
            }
            let mut tbar = st.analyze(&field);
            self.shear_from_tbar(&mut tbar, itf);
            out.push(tbar);
        }
        out
    }

    /// Mean temperature of the physics levels belonging to dynamic
    /// layers `itf` and `itf + 1` (the air column spanning the interface).
    fn layer_pair_mean(&self, t_col: &[f64], itf: usize) -> f64 {
        let mut sum = 0.0;
        let mut cnt = 0.0;
        for (k, &tv) in t_col.iter().enumerate() {
            let d = self.dyn_level_for(k);
            if d == itf || d == itf + 1 {
                sum += tv;
                cnt += 1.0;
            }
        }
        sum / f64::max(cnt, 1.0)
    }

    /// Convert a spectral T̄ field, in place, into an equilibrium
    /// interface shear: Δψ_eq = (R_d Δln p / f₀) · T̄′ (thermal wind),
    /// with the global mean removed (it has no dynamical meaning).
    fn shear_from_tbar(&self, tbar: &mut SpectralField, itf: usize) {
        let nld = self.cfg.dynamics.nlev;
        // Pressure ratio across the interface: equally spaced sigma-like
        // dynamic levels at (k+1/2)/nld of the column.
        let p_of = |d: usize| 2.0e4 + 8.0e4 * (d as f64 + 0.5) / nld as f64;
        let dlnp = (p_of(itf + 1) / p_of(itf)).ln();
        let k00 = self.par.base.trunc.idx(0, 0);
        tbar.data[k00] = Complex::ZERO;
        tbar.scale(R_DRY * dlnp / F0);
    }

    /// Equilibrium shears from the *current* temperature state:
    /// accumulates the layer-pair mean temperature in `field` and leaves
    /// the shears in `out`; the distributed analyses share one global
    /// combine.
    fn equilibrium_shear_ws(
        &self,
        comm: &Comm,
        t: &[Field2],
        inner: &mut DynWorkspace,
        field: &mut Field2,
        out: &mut [SpectralField],
    ) {
        let nld = self.cfg.dynamics.nlev;
        inner.batch.begin(nld - 1);
        for itf in 0..nld - 1 {
            field.fill(0.0);
            let mut cnt = 0.0;
            for k in 0..self.cfg.nlev_phys {
                let d = self.dyn_level_for(k);
                if d == itf || d == itf + 1 {
                    field.axpy(1.0, &t[k]);
                    cnt += 1.0;
                }
            }
            field.scale(1.0 / f64::max(cnt, 1.0));
            self.par
                .accumulate(field, &mut inner.spec, &mut inner.batch, itf);
        }
        self.par.reduce(comm, &mut inner.batch);
        for (itf, shear) in out.iter_mut().enumerate() {
            inner.batch.read(itf, shear);
            self.shear_from_tbar(shear, itf);
        }
    }

    /// Advance the atmosphere by one step (`cfg.dt` seconds) without
    /// allocating: all scratch comes from `ws` and the results overwrite
    /// `export`. ψ and its gradient slabs are computed once and shared
    /// by the winds, all tracer Jacobians and the PV tendencies, the
    /// orography's gradient comes from model construction, and
    /// independent analyses share a global combine (four per step).
    /// `crates/atm/tests/state_digest.rs` pins the bits this produces.
    ///
    /// ```
    /// use foam_atm::{AtmConfig, AtmModel, AtmWorkspace};
    /// use foam_grid::World;
    /// use foam_mpi::Universe;
    ///
    /// Universe::run(1, |comm| {
    ///     let model = AtmModel::new(AtmConfig::tiny(4), comm);
    ///     let world = World::earthlike();
    ///     let mut state = model.init_state();
    ///     let mut ws = AtmWorkspace::new(&model);
    ///     let mut export = model.empty_export();
    ///     for _ in 0..3 {
    ///         let forcing = model.standalone_forcing(&state, &world);
    ///         model.step_ws(&mut state, comm, &forcing, &mut ws, &mut export);
    ///     }
    ///     assert_eq!(state.step_count, 3);
    ///     assert!(export.t_low.all_finite());
    /// });
    /// ```
    pub fn step_ws(
        &self,
        state: &mut AtmState,
        comm: &Comm,
        forcing: &AtmForcing,
        ws: &mut AtmWorkspace,
        export: &mut AtmExport,
    ) {
        let grid = self.grid();
        let nlocal_rows = self.par.n_local_rows();
        let nlon = grid.nlon;
        let nl = self.cfg.nlev_phys;
        let dt = self.cfg.dt;
        assert_eq!(forcing.fluxes.len(), self.n_local());
        let AtmWorkspace {
            inner,
            dpsi_eq,
            shear_field,
            col,
            phys,
        } = ws;

        // --- Dynamics: ψ and its gradients for this step, winds. -------
        let dyn_scope = foam_telemetry::scope("dynamics");
        self.core
            .streamfunction_ws(&self.par, &state.qg.q_now, inner);
        let nld = self.cfg.dynamics.nlev;
        winds_from_gradient(
            &self.par,
            &inner.psi_grad[nld - 1],
            &mut export.u_low,
            &mut export.v_low,
        );
        drop(dyn_scope);

        // --- Column physics (embarrassingly parallel, load-imbalanced).
        let phys_scope = foam_telemetry::scope("physics");
        let orb = OrbitalState::at_with(state.sim_t, self.phys.cfg.obliquity_deg);
        let eff = self.effective_phys(state.sim_t);
        let refresh = state.step_count == 0 || eff.radiation_due(state.sim_t, dt);
        // Radiation-cache accounting: a refresh step recomputes the full
        // radiative transfer in every local column (a cache miss per
        // column); other steps reuse the cached fluxes.
        let n_cols = self.n_local() as u64;
        if refresh {
            foam_telemetry::count("atm.radiation.cache_misses", n_cols);
        } else {
            foam_telemetry::count("atm.radiation.cache_hits", n_cols);
        }
        for jl in 0..nlocal_rows {
            let lat = grid.lats[self.par.j0 + jl];
            for i in 0..nlon {
                let idx = jl * nlon + i;
                // Load the column.
                for k in 0..nl {
                    col.t[k] = state.t[k].get(i, jl);
                    col.q[k] = state.q[k].get(i, jl);
                }
                let sfc = SurfaceState {
                    kind: SurfaceKind::Ocean, // kind is unused with external fluxes
                    t_sfc: forcing.t_sfc[idx],
                    albedo: forcing.albedo[idx],
                    wetness: 1.0,
                };
                let out = eff.step_with_fluxes_ws(
                    col,
                    &sfc,
                    forcing.fluxes[idx],
                    orb,
                    grid.lons[i],
                    lat,
                    &mut state.rad[idx],
                    refresh,
                    dt,
                    phys,
                );
                for k in 0..nl {
                    state.t[k].set(i, jl, col.t[k]);
                    state.q[k].set(i, jl, col.q[k]);
                }
                export.precip.set(i, jl, out.precip / dt);
                export.sw_sfc.set(i, jl, out.sw_sfc);
                export.lw_down.set(i, jl, out.lw_down_sfc);
                export.cloud.set(i, jl, out.cloud);
                export.work[idx] = out.iterations;
            }
        }
        drop(phys_scope);

        // --- Tracer advection (T, q at every physics level). ----------
        let dyn_scope = foam_telemetry::scope("dynamics");
        let mut tracers = [
            TracerSet {
                slabs: &mut state.t,
                floor: 150.0, // physical floor on T [K]
            },
            TracerSet {
                slabs: &mut state.q,
                floor: 0.0,
            },
        ];
        advect_grid_tracers_ws(
            &self.par,
            comm,
            &mut tracers,
            |k| self.dyn_level_for(k),
            dt,
            self.cfg.tracer_nu4,
            inner,
        );

        // --- QG step forced by the new temperature field. --------------
        self.equilibrium_shear_ws(comm, &state.t, inner, shear_field, dpsi_eq);
        self.core.tendencies_ws(
            &self.par,
            comm,
            &state.qg.q_now,
            dpsi_eq,
            &self.orog_grad,
            inner,
        );
        if state.step_count == 0 {
            self.core.step_euler_ws(&mut state.qg, dt, inner);
        } else {
            self.core.step_leapfrog_ws(&mut state.qg, dt, inner);
        }
        drop(dyn_scope);

        state.sim_t += dt;
        state.step_count += 1;

        export
            .t_low
            .as_mut_slice()
            .copy_from_slice(state.t[nl - 1].as_slice());
        export
            .q_low
            .as_mut_slice()
            .copy_from_slice(state.q[nl - 1].as_slice());
    }

    /// An export-shaped zero buffer for reuse with
    /// [`AtmModel::step_ws`] (every field is fully overwritten by the
    /// step).
    pub fn empty_export(&self) -> AtmExport {
        let grid = self.grid();
        let z = || Field2::zeros(grid.nlon, self.par.n_local_rows());
        AtmExport {
            t_low: z(),
            q_low: z(),
            u_low: z(),
            v_low: z(),
            precip: z(),
            sw_sfc: z(),
            lw_down: z(),
            cloud: z(),
            work: vec![0; self.n_local()],
        }
    }

    /// Export fields from a state without stepping — used to prime the
    /// coupler before the first atmosphere step.
    pub fn initial_export(&self, state: &AtmState) -> AtmExport {
        let nl = self.cfg.nlev_phys;
        let psi = self.core.psi_from_pv(&state.qg.q_now);
        let (u_low, v_low) = winds_on_rows(&self.par, &psi[self.cfg.dynamics.nlev - 1]);
        let grid = self.grid();
        let z = Field2::zeros(grid.nlon, self.par.n_local_rows());
        AtmExport {
            t_low: state.t[nl - 1].clone(),
            q_low: state.q[nl - 1].clone(),
            u_low,
            v_low,
            precip: z.clone(),
            sw_sfc: Field2::filled(grid.nlon, self.par.n_local_rows(), 160.0),
            lw_down: Field2::filled(grid.nlon, self.par.n_local_rows(), 320.0),
            cloud: z.clone(),
            work: vec![0; self.n_local()],
        }
    }

    /// Standalone forcing for running the atmosphere without a coupler:
    /// bulk fluxes over a prescribed climatological SST (land treated as
    /// ocean) — used by spin-up tests and examples.
    pub fn standalone_forcing(&self, state: &AtmState, world: &foam_grid::World) -> AtmForcing {
        let grid = self.grid();
        let nl = self.cfg.nlev_phys;
        let psi = self.core.psi_from_pv(&state.qg.q_now);
        let (u, v) = winds_on_rows(&self.par, &psi[self.cfg.dynamics.nlev - 1]);
        let mut fluxes = Vec::with_capacity(self.n_local());
        let mut t_sfc = Vec::with_capacity(self.n_local());
        let mut albedo = Vec::with_capacity(self.n_local());
        let mut col = AtmColumn::isothermal(nl, 2000.0, 280.0);
        for jl in 0..self.par.n_local_rows() {
            let lat = grid.lats[self.par.j0 + jl];
            for i in 0..grid.nlon {
                for k in 0..nl {
                    col.t[k] = state.t[k].get(i, jl);
                    col.q[k] = state.q[k].get(i, jl);
                }
                let sst_c = world.sst_climatology(grid.lons[i], lat);
                let sfc = SurfaceState::open_ocean(sst_c + 273.15);
                let f = self
                    .phys
                    .surface_fluxes(&col, &sfc, (u.get(i, jl), v.get(i, jl)));
                fluxes.push(f);
                t_sfc.push(sfc.t_sfc);
                albedo.push(sfc.albedo);
            }
        }
        AtmForcing {
            fluxes,
            t_sfc,
            albedo,
        }
    }

    /// Total kinetic-energy-like diagnostic: Σ over dynamic levels of the
    /// mean-square rotational wind (∝ Σ L |ψ|²) — used by tests to verify
    /// that baroclinic eddies grow and then equilibrate.
    pub fn eddy_energy(&self, state: &AtmState) -> f64 {
        let psi = self.core.psi_from_pv(&state.qg.q_now);
        let mut e = 0.0;
        for p in &psi {
            let grad = p.laplacian();
            // ∫ |∇ψ|² = −∫ ψ∇²ψ: spectrally Σ L |ψ|².
            for (m, n) in p.trunc.pairs() {
                if m == 0 {
                    continue; // zonal-mean flow excluded: *eddy* energy
                }
                let idx = p.trunc.idx(m, n);
                e += -(p.data[idx].re * grad.data[idx].re + p.data[idx].im * grad.data[idx].im)
                    * 2.0;
            }
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foam_grid::World;
    use foam_mpi::Universe;

    #[test]
    fn init_state_is_balanced_and_identical_across_ranks() {
        let out = Universe::run(3, |comm| {
            let model = AtmModel::new(AtmConfig::tiny(11), comm);
            let state = model.init_state();
            // Return a digest of the (replicated) spectral state.
            state.qg.q_now[0]
                .data
                .iter()
                .map(|c| c.re + 2.0 * c.im)
                .sum::<f64>()
        });
        for r in 1..3 {
            assert!(
                (out.results[r] - out.results[0]).abs() < 1e-14,
                "rank {r} differs: {} vs {}",
                out.results[r],
                out.results[0]
            );
        }
    }

    #[test]
    fn one_day_standalone_run_stays_physical() {
        Universe::run(2, |comm| {
            let model = AtmModel::new(AtmConfig::tiny(3), comm);
            let world = World::earthlike();
            let mut state = model.init_state();
            let mut ws = AtmWorkspace::new(&model);
            let mut export = model.empty_export();
            for _ in 0..48 {
                let forcing = model.standalone_forcing(&state, &world);
                model.step_ws(&mut state, comm, &forcing, &mut ws, &mut export);
                assert!(export.t_low.all_finite());
                assert!(export.q_low.all_finite());
                for k in 0..model.cfg.nlev_phys {
                    for &tv in state.t[k].as_slice() {
                        assert!((140.0..360.0).contains(&tv), "T = {tv}");
                    }
                    for &qv in state.q[k].as_slice() {
                        assert!((0.0..0.1).contains(&qv), "q = {qv}");
                    }
                }
            }
            // Winds should be alive (jets spun up) but bounded.
            let forcing = model.standalone_forcing(&state, &world);
            model.step_ws(&mut state, comm, &forcing, &mut ws, &mut export);
            let umax = export.u_low.max_abs();
            assert!(umax > 0.5, "no circulation developed: umax = {umax}");
            assert!(umax < 150.0, "runaway winds: umax = {umax}");
        });
    }

    #[test]
    fn different_seeds_diverge_chaotically() {
        // Two runs differing only in the initial perturbation seed must
        // decorrelate — the weather is chaotic, which is what makes
        // climate (not weather) the object of study.
        let digest = |seed: u64| {
            let out = Universe::run(1, move |comm| {
                let model = AtmModel::new(AtmConfig::tiny(seed), comm);
                let world = World::earthlike();
                let mut state = model.init_state();
                let mut ws = AtmWorkspace::new(&model);
                let mut export = model.empty_export();
                for _ in 0..96 {
                    let forcing = model.standalone_forcing(&state, &world);
                    model.step_ws(&mut state, comm, &forcing, &mut ws, &mut export);
                }
                model.eddy_energy(&state)
            });
            out.results[0]
        };
        let a = digest(1);
        let b = digest(2);
        assert!(a.is_finite() && b.is_finite());
        assert!(
            (a - b).abs() > 1e-12 * a.abs().max(1e-30),
            "seeds produced identical energies {a}"
        );
    }

    #[test]
    fn radiation_refresh_happens_twice_daily_in_model() {
        Universe::run(1, |comm| {
            let model = AtmModel::new(AtmConfig::tiny(5), comm);
            let mut refreshes = 0;
            let dt = model.cfg.dt;
            for s in 0..48u64 {
                let t = s as f64 * dt;
                if s == 0 || model.phys.radiation_due(t, dt) {
                    refreshes += 1;
                }
            }
            assert_eq!(refreshes, 3); // initial + 2 boundary crossings
        });
    }

    #[test]
    fn work_field_shows_horizontal_variation() {
        Universe::run(1, |comm| {
            let model = AtmModel::new(AtmConfig::tiny(9), comm);
            let world = World::earthlike();
            let mut state = model.init_state();
            let mut ws = AtmWorkspace::new(&model);
            let mut export = model.empty_export();
            for _ in 0..8 {
                let forcing = model.standalone_forcing(&state, &world);
                model.step_ws(&mut state, comm, &forcing, &mut ws, &mut export);
            }
            let min = *export.work.iter().min().unwrap();
            let max = *export.work.iter().max().unwrap();
            assert!(
                max > min,
                "physics work should vary across columns (load imbalance)"
            );
        });
    }
}
