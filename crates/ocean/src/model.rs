//! The full ocean model: internal (baroclinic) dynamics, tracers, and the
//! nested FOAM time-stepping scheme, plus the unsplit baseline.

use std::cell::{OnceCell, RefCell};

use foam_grid::constants::{CP_SEAWATER, GRAVITY, RHO_SEAWATER, SEAWATER_FREEZE_C, S_REF};
use foam_grid::{Field2, OceanGrid, VerticalGrid, World};

use crate::barotropic::{BarotropicState, BarotropicSystem};
use crate::eos::density_anomaly;
use crate::mixing::{convective_adjustment, richardson, ColumnDiffuser, PpParams};
use crate::polar::PolarFilter;
use crate::stencil::{Cell, EAST, NORTH, SOUTH, WEST};

/// Which stepping scheme a run uses (the subject of ablation A1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitScheme {
    /// FOAM's scheme: slowed barotropic subsystem subcycled inside the
    /// internal step; tracers on a longer step still.
    FoamSplit,
    /// Naive scheme: one global step limited by the *unslowed* external
    /// gravity wave CFL; everything advanced every step.
    Unsplit,
}

/// Ocean configuration. Defaults reproduce the paper's setup: 128 × 128
/// Mercator grid, 16 stretched levels, 6-h coupling, slowed free surface.
#[derive(Debug, Clone)]
pub struct OceanConfig {
    pub nx: usize,
    pub ny: usize,
    pub lat_max_deg: f64,
    pub nz: usize,
    pub depth: f64,
    /// Vertical stretching ratio (thickness growth per layer).
    pub stretch: f64,
    /// Internal-dynamics step \[s\].
    pub dt_int: f64,
    /// Tracer (advection/diffusion) step, in internal steps.
    pub n_trac: usize,
    /// Free-surface slowdown factor α.
    pub slowdown: f64,
    /// Non-dimensional grid-scale ∇⁴ damping coefficient for momentum
    /// (the paper's "∇⁴ numerical dissipation" against A-grid mode
    /// splitting).
    pub nu4: f64,
    /// Horizontal tracer diffusivity \[m²/s\].
    pub kappa_h: f64,
    /// Upwind blend for tracer advection ∈ \[0, 1\].
    pub upwind: f64,
    pub pp: PpParams,
    /// Latitude poleward of which the Fourier filter acts \[deg\].
    pub polar_lat: f64,
}

impl Default for OceanConfig {
    fn default() -> Self {
        OceanConfig {
            nx: 128,
            ny: 128,
            lat_max_deg: 72.0,
            nz: 16,
            depth: 5000.0,
            stretch: 1.29,
            dt_int: 3600.0,
            n_trac: 2,
            slowdown: 16.0,
            nu4: 0.02,
            kappa_h: 800.0,
            upwind: 0.15,
            pp: PpParams::default(),
            polar_lat: 64.0,
        }
    }
}

impl OceanConfig {
    /// Small configuration for tests: 32 × 24 × 6.
    pub fn tiny() -> Self {
        OceanConfig {
            nx: 32,
            ny: 24,
            lat_max_deg: 70.0,
            nz: 6,
            depth: 4000.0,
            stretch: 2.0,
            ..Default::default()
        }
    }
}

/// Full ocean prognostic state.
#[derive(Debug, Clone)]
pub struct OceanState {
    /// Baroclinic (depth-mean-free) velocities per level \[m/s\].
    pub u: Vec<Field2>,
    pub v: Vec<Field2>,
    /// Temperature \[°C\] and salinity \[psu\] per level.
    pub t: Vec<Field2>,
    pub s: Vec<Field2>,
    /// Free surface + depth-mean (barotropic) velocities.
    pub baro: BarotropicState,
    pub sim_t: f64,
    /// Count of internal steps taken (drives the tracer subcycle phase).
    pub step_count: u64,
}

impl foam_ckpt::Codec for OceanState {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.u.encode(buf);
        self.v.encode(buf);
        self.t.encode(buf);
        self.s.encode(buf);
        self.baro.encode(buf);
        self.sim_t.encode(buf);
        self.step_count.encode(buf);
    }
    fn decode(r: &mut foam_ckpt::ByteReader<'_>) -> Result<Self, foam_ckpt::CkptError> {
        Ok(OceanState {
            u: Vec::<Field2>::decode(r)?,
            v: Vec::<Field2>::decode(r)?,
            t: Vec::<Field2>::decode(r)?,
            s: Vec::<Field2>::decode(r)?,
            baro: BarotropicState::decode(r)?,
            sim_t: f64::decode(r)?,
            step_count: u64::decode(r)?,
        })
    }
}

/// Surface forcing handed to the ocean by the coupler, on the ocean grid.
#[derive(Debug, Clone)]
pub struct OceanForcing {
    /// Wind stress \[N/m²\] (ice-modified by the coupler where relevant).
    pub tau_x: Field2,
    pub tau_y: Field2,
    /// Net heat flux *into* the ocean \[W/m²\].
    pub heat: Field2,
    /// Net freshwater flux *into* the ocean \[kg m⁻² s⁻¹\]
    /// (P − E + river inflow, the closed hydrological cycle).
    pub freshwater: Field2,
}

impl OceanForcing {
    pub fn zeros(grid: &OceanGrid) -> Self {
        OceanForcing {
            tau_x: Field2::zeros(grid.nx, grid.ny),
            tau_y: Field2::zeros(grid.nx, grid.ny),
            heat: Field2::zeros(grid.nx, grid.ny),
            freshwater: Field2::zeros(grid.nx, grid.ny),
        }
    }

    /// Idealized standalone forcing: easterly trades / westerlies wind
    /// pattern and relaxation of SST toward the climatology (for spin-up
    /// runs without an atmosphere).
    pub fn climatological(grid: &OceanGrid, world: &World, sst: &Field2) -> Self {
        let mut f = Self::zeros(grid);
        for j in 0..grid.ny {
            let lat = grid.lats[j];
            let latd = lat.to_degrees();
            // Trades below 30°, westerlies 30–60°.
            let tau = -0.08
                * (std::f64::consts::PI * latd / 30.0).cos()
                * (-((latd / 55.0) * (latd / 55.0))).exp()
                + 0.06 * (-((latd.abs() - 45.0) / 12.0).powi(2)).exp();
            for i in 0..grid.nx {
                f.tau_x.set(i, j, tau);
                let target = world.sst_climatology(grid.lons[i], lat);
                // 40 W/m²/K restoring.
                f.heat.set(i, j, 40.0 * (target - sst.get(i, j)));
            }
        }
        f
    }
}

impl foam_ckpt::Codec for OceanForcing {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.tau_x.encode(buf);
        self.tau_y.encode(buf);
        self.heat.encode(buf);
        self.freshwater.encode(buf);
    }
    fn decode(r: &mut foam_ckpt::ByteReader<'_>) -> Result<Self, foam_ckpt::CkptError> {
        Ok(OceanForcing {
            tau_x: Field2::decode(r)?,
            tau_y: Field2::decode(r)?,
            heat: Field2::decode(r)?,
            freshwater: Field2::decode(r)?,
        })
    }
}

/// Per-row metric terms, tabulated once.
struct RowTables {
    /// cos φ at each row's north face: the mean of the two adjacent row
    /// centres' cosines.
    cos_north: Vec<f64>,
    dx2: Vec<f64>,
    dy2: Vec<f64>,
    /// dy · cos φ.
    dy_cos: Vec<f64>,
}

impl RowTables {
    fn new(grid: &OceanGrid) -> Self {
        let cos: Vec<f64> = grid.lats.iter().map(|l| l.cos()).collect();
        RowTables {
            cos_north: cos.windows(2).map(|c| 0.5 * (c[0] + c[1])).collect(),
            dx2: grid.dx.iter().map(|dx| dx * dx).collect(),
            dy2: grid.dy.iter().map(|dy| dy * dy).collect(),
            dy_cos: grid.dy.iter().zip(&cos).map(|(dy, c)| dy * c).collect(),
        }
    }
}

/// Every buffer a step needs, allocated on the model's first step and
/// reused for its lifetime (the zero-churn rule of PERFORMANCE.md).
struct Workspace {
    /// One slab, carved differently by the two phases that need full 3-D
    /// scratch and never overlap in time. Baroclinic: Fx and Fy per
    /// level, the running hydrostatic pressure, φ, ∇²u, ∇²v. Tracers:
    /// east- and north-face velocities and w per level.
    slab: Vec<f64>,
    /// The depth-mean forcings from the baroclinic phase to the end of
    /// the barotropic subcycle; the new T and S level in the tracer
    /// phase.
    pair: [Field2; 2],
    /// Depth-mean velocity accumulators of one row (2 · nx).
    row: Vec<f64>,
    /// One column of T, S, u, v (nz each), the interface diffusivity and
    /// viscosity (nz − 1 each) and the tridiagonal solver's scratch (nz).
    column: Vec<f64>,
}

impl Workspace {
    fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Workspace {
            slab: vec![0.0; nx * ny * (3 * nz).max(2 * nz + 4)],
            pair: [Field2::zeros(nx, ny), Field2::zeros(nx, ny)],
            row: vec![0.0; 2 * nx],
            column: vec![0.0; 7 * nz - 2],
        }
    }
}

/// Split the front of `slab` into consecutive pieces of the given lengths.
fn carve<const N: usize>(mut slab: &mut [f64], lens: [usize; N]) -> [&mut [f64]; N] {
    lens.map(|len| {
        let (head, tail) = std::mem::take(&mut slab).split_at_mut(len);
        slab = tail;
        head
    })
}

/// The ocean component.
pub struct OceanModel {
    pub cfg: OceanConfig,
    pub grid: OceanGrid,
    pub vert: VerticalGrid,
    /// `true` = sea.
    pub mask: Vec<bool>,
    pub baro_sys: BarotropicSystem,
    /// The full-gravity (α = 1) subsystem of the unsplit baseline, built
    /// when that scheme first runs.
    full_sys: OnceCell<BarotropicSystem>,
    filter: PolarFilter,
    /// Per-row metric terms; the stencil, Coriolis and 2·dx, 2·dy tables
    /// are `baro_sys`'s, which is bound to the same grid and mask.
    rows: RowTables,
    diffuser: ColumnDiffuser,
    /// Flat indices of the land cells.
    land: Vec<usize>,
    ws: RefCell<Option<Workspace>>,
}

impl OceanModel {
    /// The sea mask this model will use for a given configuration: the
    /// planet's mask with the first and last rows closed (they sit at the
    /// Mercator coverage limit and act as walls, which makes the
    /// flux-form tracer budget exactly closed). The coupler must build
    /// its overlap grid from this same mask.
    pub fn effective_sea_mask(cfg: &OceanConfig, world: &World) -> Vec<bool> {
        let grid = OceanGrid::mercator(cfg.nx, cfg.ny, cfg.lat_max_deg);
        let mut mask = world.ocean_sea_mask(&grid);
        for i in 0..grid.nx {
            mask[grid.idx(i, 0)] = false;
            mask[grid.idx(i, grid.ny - 1)] = false;
        }
        mask
    }

    pub fn new(cfg: OceanConfig, world: &World) -> Self {
        let grid = OceanGrid::mercator(cfg.nx, cfg.ny, cfg.lat_max_deg);
        let vert = VerticalGrid::ocean_stretched(cfg.nz, cfg.depth, cfg.stretch);
        let mask = Self::effective_sea_mask(&cfg, world);
        let baro_sys = BarotropicSystem::new(grid.clone(), mask.clone(), cfg.depth, cfg.slowdown);
        let filter = PolarFilter::new(&grid, cfg.polar_lat);
        OceanModel {
            rows: RowTables::new(&grid),
            diffuser: ColumnDiffuser::new(&vert.thickness),
            land: (0..mask.len()).filter(|&c| !mask[c]).collect(),
            full_sys: OnceCell::new(),
            ws: RefCell::new(None),
            cfg,
            grid,
            vert,
            mask,
            baro_sys,
            filter,
        }
    }

    /// Initial state: climatological SST decaying to a cold abyss,
    /// uniform salinity, at rest.
    pub fn init_state(&self, world: &World) -> OceanState {
        let (nx, ny, nz) = (self.grid.nx, self.grid.ny, self.cfg.nz);
        let zero = Field2::zeros(nx, ny);
        let mut t = Vec::with_capacity(nz);
        let mut s = Vec::with_capacity(nz);
        for k in 0..nz {
            let z = self.vert.centers[k];
            let mut tk = Field2::zeros(nx, ny);
            for j in 0..ny {
                for i in 0..nx {
                    if self.mask[self.grid.idx(i, j)] {
                        let sst = world.sst_climatology(self.grid.lons[i], self.grid.lats[j]);
                        // Exponential thermocline toward a 1.0 °C abyss;
                        // where the surface is colder than the abyss
                        // (polar seas) the column is isothermal, so the
                        // initial state is statically stable everywhere.
                        let t_abyss = 1.0;
                        let tv = if sst > t_abyss {
                            t_abyss + (sst - t_abyss) * (-z / 800.0).exp()
                        } else {
                            sst
                        };
                        tk.set(i, j, tv.max(SEAWATER_FREEZE_C));
                    }
                }
            }
            t.push(tk);
            s.push(Field2::filled(nx, ny, S_REF));
        }
        OceanState {
            u: vec![zero.clone(); nz],
            v: vec![zero.clone(); nz],
            t,
            s,
            baro: BarotropicState::rest(&self.grid),
            sim_t: 0.0,
            step_count: 0,
        }
    }

    /// Sea surface temperature \[°C\].
    pub fn sst(&self, state: &OceanState) -> Field2 {
        state.t[0].clone()
    }

    /// `(nx, nx · ny, nz)`.
    fn dims(&self) -> (usize, usize, usize) {
        (self.grid.nx, self.grid.len(), self.cfg.nz)
    }

    /// The rows every kernel below walks: all but 0 and ny − 1, which
    /// [`OceanModel::effective_sea_mask`] closed.
    fn interior(&self) -> std::ops::Range<usize> {
        1..self.grid.ny - 1
    }

    // ------------------------------------------------------------------
    // Dynamics pieces
    // ------------------------------------------------------------------

    /// Level `k`'s fields for the momentum forcings: its share of the
    /// hydrostatic integral of the density anomaly — `p` (p′/ρ₀
    /// \[m²/s²\]) enters at the level's top and leaves at its bottom,
    /// `phi` gets the mid-level geopotential — and the grid-unit
    /// Laplacians of u and v, whose Laplacians in turn are the ∇⁴
    /// damping.
    fn level_fields(
        &self,
        state: &OceanState,
        k: usize,
        p: &mut [f64],
        phi: &mut [f64],
        lap_u: &mut [f64],
        lap_v: &mut [f64],
    ) {
        let (t, s) = (state.t[k].as_slice(), state.s[k].as_slice());
        let (u, v) = (state.u[k].as_slice(), state.v[k].as_slice());
        let dz = self.vert.thickness[k];
        for j in self.interior() {
            for cell in self.baro_sys.stencil.row_cells(j) {
                let c = cell.c;
                let rho = density_anomaly(t[c], s[c]);
                let half = 0.5 * GRAVITY * rho * dz / RHO_SEAWATER;
                p[c] += half;
                phi[c] = p[c];
                p[c] += half;
                lap_u[c] = cell.lap(u);
                lap_v[c] = cell.lap(v);
            }
        }
    }

    /// Per-level momentum forcings (accelerations \[m/s²\]) into the
    /// slab and their depth mean into the field pair.
    fn momentum_forcings(&self, state: &OceanState, forcing: &OceanForcing, ws: &mut Workspace) {
        let (_, n, nz) = self.dims();
        let [fx, fy, p, phi, lap_u, lap_v] = carve(&mut ws.slab, [nz * n, nz * n, n, n, n, n]);
        let [mx, my] = &mut ws.pair;
        mx.fill(0.0);
        my.fill(0.0);
        let (mx, my) = (mx.as_mut_slice(), my.as_mut_slice());
        p.fill(0.0);
        let (ub, vb) = (state.baro.u.as_slice(), state.baro.v.as_slice());
        let (tau_x, tau_y) = (forcing.tau_x.as_slice(), forcing.tau_y.as_slice());
        let top_mass = RHO_SEAWATER * self.vert.thickness[0];
        let (nu4, dt_int) = (self.cfg.nu4, self.cfg.dt_int);
        for k in 0..nz {
            self.level_fields(state, k, p, phi, lap_u, lap_v);
            let (u, v) = (state.u[k].as_slice(), state.v[k].as_slice());
            let (fx, fy) = (&mut fx[k * n..(k + 1) * n], &mut fy[k * n..(k + 1) * n]);
            let w = self.vert.thickness[k] / self.cfg.depth;
            for j in self.interior() {
                let (two_dx, two_dy) = (self.baro_sys.two_dx[j], self.baro_sys.two_dy[j]);
                for cell in self.baro_sys.stencil.row_cells(j) {
                    let c = cell.c;
                    // Baroclinic pressure gradient (zero-gradient at coast).
                    let pe = cell.across(phi, EAST, cell.e);
                    let pw = cell.across(phi, WEST, cell.w);
                    let pn = cell.across(phi, NORTH, cell.n);
                    let ps = cell.across(phi, SOUTH, cell.s);
                    // Grid-scale biharmonic damping (the non-dimensional
                    // Laplacian applied twice, masked to sea cells).
                    let mut ax = -(pe - pw) / two_dx - nu4 * cell.lap(lap_u) / dt_int;
                    let mut ay = -(pn - ps) / two_dy - nu4 * cell.lap(lap_v) / dt_int;
                    if k == 0 {
                        // Wind stress into the top layer.
                        ax += tau_x[c] / top_mass;
                        ay += tau_y[c] / top_mass;
                    }
                    if k == nz - 1 {
                        // Linear bottom drag on the bottom layer.
                        let r = 1.0e-6;
                        ax -= r * (u[c] + ub[c]);
                        ay -= r * (v[c] + vb[c]);
                    }
                    fx[c] = ax;
                    fy[c] = ay;
                    mx[c] += w * ax;
                    my[c] += w * ay;
                }
            }
        }
    }

    /// Internal momentum step: advance baroclinic shear velocities with
    /// the deviation forcings and semi-implicit rotation, then remove any
    /// residual depth mean (it belongs to the barotropic system).
    fn internal_momentum_step(&self, state: &mut OceanState, ws: &mut Workspace, dt: f64) {
        let (nx, n, nz) = self.dims();
        let [fx, fy] = carve(&mut ws.slab, [nz * n, nz * n]);
        let (mx, my) = (ws.pair[0].as_slice(), ws.pair[1].as_slice());
        let (ubar, vbar) = ws.row.split_at_mut(nx);
        let stencil = &self.baro_sys.stencil;
        for j in self.interior() {
            let a = self.baro_sys.f_row[j] * dt;
            let denom = 1.0 + a * a;
            ubar.fill(0.0);
            vbar.fill(0.0);
            for k in 0..nz {
                let (u, v) = (state.u[k].as_mut_slice(), state.v[k].as_mut_slice());
                let (fx, fy) = (&fx[k * n..(k + 1) * n], &fy[k * n..(k + 1) * n]);
                let w = self.vert.thickness[k] / self.cfg.depth;
                for c in stencil.row_cells(j).map(|cell| cell.c) {
                    let us = u[c] + dt * (fx[c] - mx[c]);
                    let vs = v[c] + dt * (fy[c] - my[c]);
                    let un = (us + a * vs) / denom;
                    let vn = (vs - a * us) / denom;
                    u[c] = un;
                    v[c] = vn;
                    ubar[c - j * nx] += w * un;
                    vbar[c - j * nx] += w * vn;
                }
            }
            for k in 0..nz {
                let (u, v) = (state.u[k].as_mut_slice(), state.v[k].as_mut_slice());
                for c in stencil.row_cells(j).map(|cell| cell.c) {
                    u[c] -= ubar[c - j * nx];
                    v[c] -= vbar[c - j * nx];
                }
            }
        }
    }

    /// Vertical PP mixing + convective adjustment for one column sweep
    /// over the whole grid (implicit, unconditionally stable).
    fn vertical_mixing(&self, state: &mut OceanState, dt: f64, ws: &mut Workspace) {
        let nz = self.cfg.nz;
        let dz = &self.vert.thickness;
        let [tcol, scol, ucol, vcol, k_int, nu_int, cp] =
            carve(&mut ws.column, [nz, nz, nz, nz, nz - 1, nz - 1, nz]);
        for j in self.interior() {
            for c in self.baro_sys.stencil.row_cells(j).map(|cell| cell.c) {
                let (ub, vb) = (state.baro.u.as_slice()[c], state.baro.v.as_slice()[c]);
                for k in 0..nz {
                    tcol[k] = state.t[k].as_slice()[c];
                    scol[k] = state.s[k].as_slice()[c];
                    ucol[k] = state.u[k].as_slice()[c] + ub;
                    vcol[k] = state.v[k].as_slice()[c] + vb;
                }
                for k in 0..nz - 1 {
                    let ri = richardson(
                        tcol[k],
                        scol[k],
                        ucol[k],
                        vcol[k],
                        tcol[k + 1],
                        scol[k + 1],
                        ucol[k + 1],
                        vcol[k + 1],
                        self.diffuser.dz_int[k],
                    );
                    (nu_int[k], k_int[k]) = self.cfg.pp.coefficients(ri);
                }
                self.diffuser.diffuse_pair(tcol, scol, k_int, dt, cp);
                self.diffuser.diffuse_pair(ucol, vcol, nu_int, dt, cp);
                convective_adjustment(tcol, scol, dz, 2 * nz);
                for k in 0..nz {
                    state.t[k].as_mut_slice()[c] = tcol[k];
                    state.s[k].as_mut_slice()[c] = scol[k];
                    state.u[k].as_mut_slice()[c] = ucol[k] - ub;
                    state.v[k].as_mut_slice()[c] = vcol[k] - vb;
                }
            }
        }
    }

    /// Total (baroclinic + barotropic) velocities of level `kz` at every
    /// sea cell's east and north face, 0 across coasts. A cell's west and
    /// south faces are its neighbours' east and north ones, so continuity
    /// and the tracer fluxes see one velocity per face, the discrete 3-D
    /// divergence vanishes exactly and flux-form advection conserves
    /// tracers to rounding.
    fn face_velocities(&self, state: &OceanState, kz: usize, ue: &mut [f64], vn: &mut [f64]) {
        let (u, v) = (state.u[kz].as_slice(), state.v[kz].as_slice());
        let (ub, vb) = (state.baro.u.as_slice(), state.baro.v.as_slice());
        for j in self.interior() {
            for cell in self.baro_sys.stencil.row_cells(j) {
                let (c, e, n) = (cell.c, cell.e, cell.n);
                ue[c] = if cell.has(EAST) {
                    0.5 * ((u[c] + ub[c]) + (u[e] + ub[e]))
                } else {
                    0.0
                };
                vn[c] = if cell.has(NORTH) {
                    0.5 * ((v[c] + vb[c]) + (v[n] + vb[n]))
                } else {
                    0.0
                };
            }
        }
    }

    /// The four face velocities of a cell in row `j` from the tables of
    /// [`OceanModel::face_velocities`], and their divergence.
    #[inline(always)]
    fn cell_flow(&self, j: usize, cell: Cell, ue: &[f64], vn: &[f64]) -> CellFlow {
        let (ue, vn) = (
            [ue[cell.c], if cell.has(WEST) { ue[cell.w] } else { 0.0 }],
            [vn[cell.c], if cell.has(SOUTH) { vn[cell.s] } else { 0.0 }],
        );
        let cos = [self.rows.cos_north[j], self.rows.cos_north[j - 1]];
        let div = (ue[0] - ue[1]) / self.grid.dx[j]
            + (vn[0] * cos[0] - vn[1] * cos[1]) / self.rows.dy_cos[j];
        CellFlow {
            u: ue,
            v: vn,
            cos,
            div,
        }
    }

    /// Tracer advection (flux form with a small upwind blend), horizontal
    /// diffusion, vertical advection from continuity, surface fluxes and
    /// the FOAM −1.92 °C clamp. T and S advance together, level by level
    /// from the top: a level sees the new values above it and the old
    /// ones below, and that order is part of the model's answers.
    fn tracer_step(
        &self,
        state: &mut OceanState,
        forcing: &OceanForcing,
        dt: f64,
        ws: &mut Workspace,
    ) {
        let (_, n, nz) = self.dims();
        let stencil = &self.baro_sys.stencil;
        let dz = &self.vert.thickness;
        let [ue, vn, w] = carve(&mut ws.slab, [nz * n, nz * n, nz * n]);
        let level = |k: usize| k * n..(k + 1) * n;

        // Vertical velocities at layer-top interfaces from continuity,
        // bottom up from w = 0 at the sea floor.
        for kz in (0..nz).rev() {
            let (ue, vn) = (&mut ue[level(kz)], &mut vn[level(kz)]);
            self.face_velocities(state, kz, ue, vn);
            let (w, w_below) = w[kz * n..].split_at_mut(n);
            for j in self.interior() {
                for cell in stencil.row_cells(j) {
                    let below = if kz + 1 < nz { w_below[cell.c] } else { 0.0 };
                    w[cell.c] = below - self.cell_flow(j, cell, ue, vn).div * dz[kz];
                }
            }
        }

        let (heat, fresh) = (forcing.heat.as_slice(), forcing.freshwater.as_slice());
        let heat_capacity = RHO_SEAWATER * CP_SEAWATER * dz[0];
        let top_mass = RHO_SEAWATER * dz[0];
        let [t_new, s_new] = &mut ws.pair;
        for kz in 0..nz {
            t_new.as_mut_slice().copy_from_slice(state.t[kz].as_slice());
            s_new.as_mut_slice().copy_from_slice(state.s[kz].as_slice());
            let (t, s) = (TracerLevel::at(&state.t, kz), TracerLevel::at(&state.s, kz));
            let (t_out, s_out) = (t_new.as_mut_slice(), s_new.as_mut_slice());
            let (ue, vn, w_top) = (&ue[level(kz)], &vn[level(kz)], &w[level(kz)]);
            let w_bot = (kz + 1 < nz).then(|| &w[level(kz + 1)]);
            for j in self.interior() {
                let metric = RowMetric {
                    dx: self.grid.dx[j],
                    dx2: self.rows.dx2[j],
                    dy2: self.rows.dy2[j],
                    dy_cos: self.rows.dy_cos[j],
                    dz: dz[kz],
                    upwind: self.cfg.upwind,
                    kappa_h: self.cfg.kappa_h,
                };
                for cell in stencil.row_cells(j) {
                    let c = cell.c;
                    let flow = self.cell_flow(j, cell, ue, vn);
                    let w = [w_top[c], w_bot.map_or(0.0, |w| w[c])];
                    let mut t_tend = t.tendency(cell, &flow, w, &metric);
                    let mut s_tend = s.tendency(cell, &flow, w, &metric);
                    if kz == 0 {
                        // Surface sources on the top layer.
                        t_tend += heat[c] / heat_capacity;
                        s_tend += -s.old[c] * fresh[c] / top_mass;
                    }
                    t_out[c] = t.old[c] + dt * t_tend;
                    s_out[c] = s.old[c] + dt * s_tend;
                    if kz == 0 {
                        // FOAM's sea-ice clamp: "a clamp on temperature
                        // is imposed by the ocean model at −1.92 °C".
                        t_out[c] = t_out[c].max(SEAWATER_FREEZE_C);
                    }
                }
            }
            std::mem::swap(&mut state.t[kz], t_new);
            std::mem::swap(&mut state.s[kz], s_new);
        }
    }

    fn apply_polar_filter(&self, state: &mut OceanState) {
        let OceanState { u, v, baro, .. } = state;
        self.filter.apply(&mut baro.eta);
        // Filtering smears across coastlines; re-zero land velocities.
        for f in [&mut baro.u, &mut baro.v].into_iter().chain(u).chain(v) {
            self.filter.apply(f);
            let f = f.as_mut_slice();
            for &c in &self.land {
                f[c] = 0.0;
            }
        }
    }

    // ------------------------------------------------------------------
    // The two stepping schemes
    // ------------------------------------------------------------------

    /// One internal step of length `dt`: momentum forcings and the
    /// internal momentum step, `n_sub` subcycles of the barotropic
    /// subsystem `sys`, tracers over `n_trac · dt` on every `n_trac`-th
    /// step (returning whether they ran), the polar filter.
    fn internal_step(
        &self,
        state: &mut OceanState,
        forcing: &OceanForcing,
        ws: &mut Workspace,
        sys: &BarotropicSystem,
        dt: f64,
        n_sub: usize,
        n_trac: usize,
    ) -> bool {
        {
            let _t = foam_telemetry::scope("baroclinic");
            {
                let _t = foam_telemetry::scope("forcings");
                self.momentum_forcings(state, forcing, ws);
            }
            self.internal_momentum_step(state, ws, dt);
        }
        {
            let _t = foam_telemetry::scope("barotropic");
            sys.subcycle(&mut state.baro, &ws.pair[0], &ws.pair[1], dt, n_sub);
        }
        state.step_count += 1;
        let tracers = state.step_count.is_multiple_of(n_trac as u64);
        if tracers {
            let _t = foam_telemetry::scope("tracers");
            let dt_trac = dt * n_trac as f64;
            {
                let _t = foam_telemetry::scope("advect");
                self.tracer_step(state, forcing, dt_trac, ws);
            }
            let _t = foam_telemetry::scope("mix");
            self.vertical_mixing(state, dt_trac, ws);
        }
        {
            let _t = foam_telemetry::scope("polar_filter");
            self.apply_polar_filter(state);
        }
        state.sim_t += dt;
        tracers
    }

    /// Run `run` on the model's workspace, which the first call allocates.
    fn with_workspace(&self, run: impl FnOnce(&mut Workspace)) {
        let (nx, ny, nz) = (self.grid.nx, self.grid.ny, self.cfg.nz);
        run(self
            .ws
            .borrow_mut()
            .get_or_insert_with(|| Workspace::new(nx, ny, nz)));
    }

    /// Advance by one coupling interval `dt_couple` with FOAM's nested
    /// scheme: barotropic subcycled inside internal steps, tracers on a
    /// multiple of the internal step. Returns the number of "inner work
    /// units" executed (for the cost accounting of experiments T2/A1).
    pub fn step_coupled(
        &self,
        state: &mut OceanState,
        forcing: &OceanForcing,
        dt_couple: f64,
    ) -> usize {
        let n_int = (dt_couple / self.cfg.dt_int).round().max(1.0) as usize;
        let n_sub = (self.cfg.dt_int / self.baro_sys.max_dt()).ceil().max(1.0) as usize;
        let (sys, dt, n_trac) = (&self.baro_sys, self.cfg.dt_int, self.cfg.n_trac);
        let mut work = 0;
        self.with_workspace(|ws| {
            for _ in 0..n_int {
                let tracers = self.internal_step(state, forcing, ws, sys, dt, n_sub, n_trac);
                foam_telemetry::count("ocean.barotropic_subcycles", n_sub as u64);
                work += self.cfg.nz + n_sub + if tracers { 4 * self.cfg.nz } else { 0 };
            }
        });
        work
    }

    /// Advance by `dt_couple` with the naive unsplit scheme: a single
    /// global step limited by the unslowed external gravity-wave CFL;
    /// momentum, free surface *and* tracers all advanced every step.
    /// Same physics, ~30× the work — the T2 baseline.
    pub fn step_unsplit(
        &self,
        state: &mut OceanState,
        forcing: &OceanForcing,
        dt_couple: f64,
    ) -> usize {
        // Full-gravity subsystem for the CFL and the surface update.
        let full = self.full_sys.get_or_init(|| {
            BarotropicSystem::new(self.grid.clone(), self.mask.clone(), self.cfg.depth, 1.0)
        });
        let dt = full.max_dt();
        let n = (dt_couple / dt).ceil().max(1.0) as usize;
        let dt = dt_couple / n as f64;
        self.with_workspace(|ws| {
            for _ in 0..n {
                self.internal_step(state, forcing, ws, full, dt, 1, 1);
            }
        });
        n * (1 + 5 * self.cfg.nz)
    }

    // ------------------------------------------------------------------
    // Diagnostics
    // ------------------------------------------------------------------

    /// Area-mean SST over sea cells \[°C\].
    pub fn mean_sst(&self, state: &OceanState) -> f64 {
        self.grid.masked_mean(state.t[0].as_slice(), &self.mask)
    }

    /// Volume-integrated heat content anomaly \[J\] relative to 0 °C,
    /// including the water stored in the free-surface displacement at the
    /// surface temperature (the tracer budget exchanges heat with that
    /// reservoir as the surface moves, so it belongs in the total).
    pub fn heat_content(&self, state: &OceanState) -> f64 {
        let mut h = 0.0;
        for j in 0..self.grid.ny {
            let a = self.grid.cell_area(0, j);
            for i in 0..self.grid.nx {
                if !self.mask[self.grid.idx(i, j)] {
                    continue;
                }
                let mut col = state.baro.eta.get(i, j) * state.t[0].get(i, j);
                for k in 0..self.cfg.nz {
                    col += state.t[k].get(i, j) * self.vert.thickness[k];
                }
                h += RHO_SEAWATER * CP_SEAWATER * col * a;
            }
        }
        h
    }

    /// Max |u| over all levels \[m/s\] (stability watch).
    pub fn max_speed(&self, state: &OceanState) -> f64 {
        let mut m = state.baro.u.max_abs().max(state.baro.v.max_abs());
        for k in 0..self.cfg.nz {
            m = m.max(state.u[k].max_abs()).max(state.v[k].max_abs());
        }
        m
    }

    /// True if every prognostic field is finite.
    pub fn is_finite(&self, state: &OceanState) -> bool {
        state.baro.eta.all_finite()
            && state.baro.u.all_finite()
            && state.baro.v.all_finite()
            && state.t.iter().all(Field2::all_finite)
            && state.s.iter().all(Field2::all_finite)
            && state.u.iter().all(Field2::all_finite)
            && state.v.iter().all(Field2::all_finite)
    }
}

/// The face velocities around one cell — `u` = \[east, west\], `v` =
/// \[north, south\] with the faces' cos φ in `cos` — and their
/// horizontal divergence.
struct CellFlow {
    u: [f64; 2],
    v: [f64; 2],
    cos: [f64; 2],
    div: f64,
}

/// What a row and level contribute to a tracer tendency.
struct RowMetric {
    dx: f64,
    dx2: f64,
    dy2: f64,
    dy_cos: f64,
    dz: f64,
    upwind: f64,
    kappa_h: f64,
}

/// One tracer at one level: the level's old values, the level above
/// (already advanced) and the one below (not yet).
struct TracerLevel<'a> {
    old: &'a [f64],
    above: Option<&'a [f64]>,
    below: Option<&'a [f64]>,
}

impl<'a> TracerLevel<'a> {
    fn at(levels: &'a [Field2], kz: usize) -> Self {
        TracerLevel {
            old: levels[kz].as_slice(),
            above: kz.checked_sub(1).map(|k| levels[k].as_slice()),
            below: levels.get(kz + 1).map(Field2::as_slice),
        }
    }

    /// Advective, diffusive and vertical tendency at `cell`, without the
    /// surface source; `w` is the vertical velocity at the layer's
    /// \[top, bottom\] interface.
    #[inline(always)]
    fn tendency(&self, cell: Cell, flow: &CellFlow, w: [f64; 2], m: &RowMetric) -> f64 {
        let x = self.old;
        let c0 = x[cell.c];
        let sides = [
            (EAST, cell.e, m.dx2),
            (WEST, cell.w, m.dx2),
            (NORTH, cell.n, m.dy2),
            (SOUTH, cell.s, m.dy2),
        ];

        // Horizontal fluxes (zero across coastlines).
        let mut tend = 0.0;
        if cell.has(EAST) {
            let xf = face_value(c0, x[cell.e], flow.u[0], m.upwind);
            tend -= flow.u[0] * xf / m.dx;
        }
        if cell.has(WEST) {
            let xf = face_value(x[cell.w], c0, flow.u[1], m.upwind);
            tend += flow.u[1] * xf / m.dx;
        }
        if cell.has(NORTH) {
            let xf = face_value(c0, x[cell.n], flow.v[0], m.upwind);
            tend -= flow.v[0] * xf * flow.cos[0] / m.dy_cos;
        }
        if cell.has(SOUTH) {
            let xf = face_value(x[cell.s], c0, flow.v[1], m.upwind);
            tend += flow.v[1] * xf * flow.cos[1] / m.dy_cos;
        }
        // Flux-form correction: + X ∇·u so that constant tracers stay
        // constant (divergence compensation).
        tend += c0 * flow.div;

        // Horizontal diffusion (Laplacian, masked).
        let mut lap = 0.0;
        for (side, nb, d2) in sides {
            if cell.has(side) {
                lap += (x[nb] - c0) / d2;
            }
        }
        tend += m.kappa_h * lap;

        // Vertical advection across layer interfaces.
        let [w_top, w_bot] = w;
        // Flux at the top interface (positive upward). For the surface
        // layer the interface is the moving free surface: water crossing
        // it carries the surface concentration, which keeps constant
        // fields exactly constant (no spurious sources where the column
        // converges — important because the slowed barotropic amplifies
        // η by α).
        let flux_top = match self.above {
            None => w_top * c0,
            Some(above) => w_top * if w_top > 0.0 { c0 } else { above[cell.c] },
        };
        let flux_bot = match self.below {
            None => 0.0,
            Some(below) => w_bot * if w_bot > 0.0 { below[cell.c] } else { c0 },
        };
        tend += (flux_bot - flux_top) / m.dz;
        // Divergence compensation for the vertical part.
        tend -= c0 * (w_bot - w_top) / m.dz;
        tend
    }
}

/// Blended face value for flux-form advection: centered with an upwind
/// fraction `up` (0 = centered, 1 = fully upwind).
#[inline]
fn face_value(x_minus: f64, x_plus: f64, vel: f64, up: f64) -> f64 {
    let centered = 0.5 * (x_minus + x_plus);
    let upwind = if vel > 0.0 { x_minus } else { x_plus };
    (1.0 - up) * centered + up * upwind
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (OceanModel, OceanState, World) {
        let world = World::earthlike();
        let model = OceanModel::new(OceanConfig::tiny(), &world);
        let state = model.init_state(&world);
        (model, state, world)
    }

    #[test]
    fn init_state_is_physical() {
        let (model, state, _) = setup();
        assert!(model.is_finite(&state));
        let sst = model.mean_sst(&state);
        assert!((5.0..25.0).contains(&sst), "mean SST {sst}");
        // Bottom water colder than surface everywhere at low latitude.
        let jm = model.grid.ny / 2;
        for i in 0..model.grid.nx {
            if model.mask[model.grid.idx(i, jm)] {
                assert!(state.t[0].get(i, jm) > state.t[model.cfg.nz - 1].get(i, jm));
            }
        }
    }

    #[test]
    fn unforced_ocean_is_quiescent_and_conserves_heat() {
        let (model, mut state, _) = setup();
        let forcing = OceanForcing::zeros(&model.grid);
        let h0 = model.heat_content(&state);
        for _ in 0..4 {
            model.step_coupled(&mut state, &forcing, 21_600.0);
        }
        assert!(model.is_finite(&state));
        let h1 = model.heat_content(&state);
        // No surface fluxes → heat conserved to advection-scheme accuracy
        // (the initial state is not in perfect balance, so weak currents
        // appear; conservation should still hold to high relative order).
        assert!(
            ((h1 - h0) / h0).abs() < 1e-4,
            "heat drift {:.3e}",
            (h1 - h0) / h0
        );
        // Residual motions stay small for a day.
        assert!(model.max_speed(&state) < 0.5, "{}", model.max_speed(&state));
    }

    #[test]
    fn wind_driven_spinup_creates_currents() {
        let (model, mut state, world) = setup();
        for _ in 0..8 {
            let f = OceanForcing::climatological(&model.grid, &world, &model.sst(&state));
            model.step_coupled(&mut state, &f, 21_600.0);
        }
        assert!(model.is_finite(&state));
        let speed = model.max_speed(&state);
        assert!(speed > 0.01, "no circulation: {speed}");
        assert!(speed < 3.0, "runaway circulation: {speed}");
    }

    #[test]
    fn surface_heating_warms_only_the_surface_first() {
        // Compare a heated run against an unheated control (the initial
        // geostrophic-adjustment transient affects both identically).
        let (model, state0, _) = setup();
        let mut heated = state0.clone();
        let mut control = state0.clone();
        let mut fh = OceanForcing::zeros(&model.grid);
        fh.heat.fill(200.0); // strong uniform heating
        let f0 = OceanForcing::zeros(&model.grid);
        let t_deep0 = state0.t[model.cfg.nz - 1].clone();
        for _ in 0..4 {
            model.step_coupled(&mut heated, &fh, 21_600.0);
            model.step_coupled(&mut control, &f0, 21_600.0);
        }
        let d_sst = model.mean_sst(&heated) - model.mean_sst(&control);
        // Expected: Q·t/(ρ c_p Δz₀) ≈ 0.066 K for these parameters.
        let expect = 200.0 * 86_400.0 / (RHO_SEAWATER * CP_SEAWATER * model.vert.thickness[0]);
        assert!(
            (d_sst / expect - 1.0).abs() < 0.3,
            "ΔSST {d_sst} vs expected {expect}"
        );
        // Deep tropical/midlatitude water essentially untouched in one
        // day (polar columns may convect, which reaches the bottom).
        let mut dmax = 0.0f64;
        for j in 0..model.grid.ny {
            if model.grid.lats[j].to_degrees().abs() > 45.0 {
                continue;
            }
            for i in 0..model.grid.nx {
                if model.mask[model.grid.idx(i, j)] {
                    let d = (heated.t[model.cfg.nz - 1].get(i, j) - t_deep0.get(i, j)).abs();
                    dmax = dmax.max(d);
                }
            }
        }
        assert!(dmax < 0.05, "deep warmed too fast: {dmax}");
    }

    #[test]
    fn sst_clamp_holds_at_freezing() {
        let (model, mut state, _) = setup();
        let mut forcing = OceanForcing::zeros(&model.grid);
        forcing.heat.fill(-1500.0); // brutal cooling
        for _ in 0..8 {
            model.step_coupled(&mut state, &forcing, 21_600.0);
        }
        for j in 0..model.grid.ny {
            for i in 0..model.grid.nx {
                if model.mask[model.grid.idx(i, j)] {
                    assert!(
                        state.t[0].get(i, j) >= SEAWATER_FREEZE_C - 1e-9,
                        "SST below clamp at ({i},{j}): {}",
                        state.t[0].get(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn freshwater_flux_freshens_surface() {
        let (model, mut state, _) = setup();
        let mut forcing = OceanForcing::zeros(&model.grid);
        forcing.freshwater.fill(5.0e-5); // ~4.3 mm/day everywhere
        let s0 = model.grid.masked_mean(state.s[0].as_slice(), &model.mask);
        for _ in 0..8 {
            model.step_coupled(&mut state, &forcing, 21_600.0);
        }
        let s1 = model.grid.masked_mean(state.s[0].as_slice(), &model.mask);
        assert!(s1 < s0, "salinity should drop: {s0} → {s1}");
    }

    /// A spun-up state: currents, coasts and the zonal wrap all in play.
    fn spun_up() -> (OceanModel, OceanState) {
        let (model, mut state, world) = setup();
        let f = OceanForcing::climatological(&model.grid, &world, &model.sst(&state));
        model.step_coupled(&mut state, &f, 43_200.0);
        (model, state)
    }

    #[test]
    fn tabulated_faces_match_the_per_cell_face_velocities() {
        // What continuity and the tracer fluxes each used to recompute
        // per cell, against the one table per level they now share: a
        // cell's west and south faces read its neighbours' entries.
        let (model, state) = spun_up();
        let (nx, ny, nz) = (model.grid.nx, model.grid.ny, model.cfg.nz);
        let sea = |i: usize, j: usize| model.mask[model.grid.idx(i, j)];
        let total =
            |f: &[Field2], b: &Field2, k: usize, i: usize, j: usize| f[k].get(i, j) + b.get(i, j);
        let (mut ue, mut vn) = (vec![f64::NAN; nx * ny], vec![f64::NAN; nx * ny]);
        let (mut coasts, mut wraps) = (0, 0);
        for k in 0..nz {
            let u = |i, j| total(&state.u, &state.baro.u, k, i, j);
            let v = |i, j| total(&state.v, &state.baro.v, k, i, j);
            model.face_velocities(&state, k, &mut ue, &mut vn);
            for j in 1..ny - 1 {
                let cos = |jj: usize| model.grid.lats[jj].cos();
                let (cos_n, cos_s) = (0.5 * (cos(j) + cos(j + 1)), 0.5 * (cos(j) + cos(j - 1)));
                for cell in model.baro_sys.stencil.row_cells(j) {
                    let i = cell.c - j * nx;
                    let (ie, iw) = ((i + 1) % nx, (i + nx - 1) % nx);
                    let face = |open: bool, a: f64, b: f64| if open { 0.5 * (a + b) } else { 0.0 };
                    let want_u = [
                        face(sea(ie, j), u(i, j), u(ie, j)),
                        face(sea(iw, j), u(iw, j), u(i, j)),
                    ];
                    let want_v = [
                        face(sea(i, j + 1), v(i, j), v(i, j + 1)),
                        face(sea(i, j - 1), v(i, j - 1), v(i, j)),
                    ];
                    let div = (want_u[0] - want_u[1]) / model.grid.dx[j]
                        + (want_v[0] * cos_n - want_v[1] * cos_s) / (model.grid.dy[j] * cos(j));
                    let got = model.cell_flow(j, cell, &ue, &vn);
                    let bits = |x: [f64; 2]| x.map(f64::to_bits);
                    assert_eq!(bits(got.u), bits(want_u), "u faces at ({i},{j},{k})");
                    assert_eq!(bits(got.v), bits(want_v), "v faces at ({i},{j},{k})");
                    assert_eq!(bits(got.cos), bits([cos_n, cos_s]));
                    assert_eq!(got.div.to_bits(), div.to_bits(), "div at ({i},{j},{k})");
                    coasts += usize::from(!sea(iw, j) || !sea(i, j - 1));
                    wraps += usize::from(iw > i && sea(iw, j));
                }
            }
        }
        assert!(
            coasts > 0 && wraps > 0,
            "{coasts} coasts, {wraps} wrapped faces"
        );
        assert!(ue.iter().any(|&x| x != 0.0 && x.is_finite()));
    }

    #[test]
    fn level_by_level_geopotential_matches_the_stored_form() {
        // The form `level_fields` replaced: the hydrostatic integral of
        // the density anomaly, column by column into one field per level.
        let (model, state) = spun_up();
        let (nx, ny, nz) = (model.grid.nx, model.grid.ny, model.cfg.nz);
        let mut stored = vec![Field2::zeros(nx, ny); nz];
        for c in (0..nx * ny).filter(|&c| model.mask[c]) {
            let mut p = 0.0;
            for k in 0..nz {
                let rho = density_anomaly(state.t[k].as_slice()[c], state.s[k].as_slice()[c]);
                let half = 0.5 * GRAVITY * rho * model.vert.thickness[k] / RHO_SEAWATER;
                p += half;
                stored[k].as_mut_slice()[c] = p;
                p += half;
            }
        }
        let mut buf = vec![0.0; 4 * nx * ny];
        let [p, phi, lap_u, lap_v] = carve(&mut buf, [nx * ny; 4]);
        for k in 0..nz {
            model.level_fields(&state, k, p, phi, lap_u, lap_v);
            for c in (0..nx * ny).filter(|&c| model.mask[c]) {
                assert_eq!(
                    phi[c].to_bits(),
                    stored[k].as_slice()[c].to_bits(),
                    "level {k}, cell {c}"
                );
            }
        }
        assert!(stored[nz - 1].max_abs() > 0.0);
    }

    #[test]
    fn split_and_unsplit_agree_for_a_quiet_day() {
        // The splitting is an *efficiency* device: for gentle forcing the
        // two schemes should land close to each other after a day.
        let world = World::earthlike();
        let model = OceanModel::new(OceanConfig::tiny(), &world);
        let mut a = model.init_state(&world);
        let mut b = a.clone();
        let mut forcing = OceanForcing::zeros(&model.grid);
        forcing.tau_x.fill(0.02);
        let work_split = model.step_coupled(&mut a, &forcing, 86_400.0);
        let work_unsplit = model.step_unsplit(&mut b, &forcing, 86_400.0);
        assert!(model.is_finite(&a) && model.is_finite(&b));
        // Area-mean SSTs agree closely (pointwise coastal values are
        // sensitive to the scheme's step size during the initial
        // adjustment transient, so the basin-mean is the right metric
        // for "slowing the free surface changes little").
        let dmean = (model.mean_sst(&a) - model.mean_sst(&b)).abs();
        assert!(dmean < 0.1, "schemes diverged: mean ΔSST = {dmean}");
        // And the split scheme does far less work — the whole point.
        assert!(
            work_unsplit > 5 * work_split,
            "unsplit {work_unsplit} vs split {work_split}"
        );
    }

    #[test]
    fn baroclinic_velocities_have_zero_depth_mean() {
        let (model, mut state, world) = setup();
        let f = OceanForcing::climatological(&model.grid, &world, &model.sst(&state));
        model.step_coupled(&mut state, &f, 43_200.0);
        for j in 1..model.grid.ny - 1 {
            for i in 0..model.grid.nx {
                if !model.mask[model.grid.idx(i, j)] {
                    continue;
                }
                let mut ubar = 0.0;
                for k in 0..model.cfg.nz {
                    ubar += state.u[k].get(i, j) * model.vert.thickness[k] / model.cfg.depth;
                }
                assert!(ubar.abs() < 1e-10, "depth mean {ubar} at ({i},{j})");
            }
        }
    }
}

impl OceanModel {
    /// Meridional overturning streamfunction Ψ(y, z) \[Sv\] from the
    /// *baroclinic* (depth-mean-free) velocities: Ψ at latitude row j and
    /// interface k is the net northward transport above that interface,
    /// ∫∫ v′ dx dz. The deep-ocean circulation whose long-period
    /// variations motivate the whole FOAM project ("Variations in deep
    /// ocean circulation are believed to be the dominant mechanism for
    /// climate changes on long time scales"). The barotropic part is
    /// excluded: with a (slowed) free surface its net meridional
    /// transport rings during adjustment, while the depth-mean-free part
    /// is the overturning proper — and makes Ψ close at the bottom
    /// exactly.
    ///
    /// Returns a `(ny × (nz+1))` matrix, row-major in j, in Sverdrups
    /// (10⁶ m³/s); Ψ = 0 at the surface interface by construction.
    pub fn overturning_streamfunction(&self, state: &OceanState) -> Vec<f64> {
        let (nx, ny, nz) = (self.grid.nx, self.grid.ny, self.cfg.nz);
        let mut psi = vec![0.0; ny * (nz + 1)];
        for j in 0..ny {
            let mut acc = 0.0;
            for k in 0..nz {
                // Zonally integrated northward transport of layer k.
                let mut vdx = 0.0;
                for i in 0..nx {
                    if self.mask[self.grid.idx(i, j)] {
                        vdx += state.v[k].get(i, j) * self.grid.dx[j];
                    }
                }
                acc -= vdx * self.vert.thickness[k];
                psi[j * (nz + 1) + (k + 1)] = acc / 1.0e6;
            }
        }
        psi
    }

    /// Peak absolute overturning \[Sv\] (a one-number MOC diagnostic).
    pub fn max_overturning(&self, state: &OceanState) -> f64 {
        self.overturning_streamfunction(state)
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs()))
    }
}

#[cfg(test)]
mod moc_tests {
    use super::*;

    #[test]
    fn resting_ocean_has_zero_overturning() {
        let world = World::earthlike();
        let model = OceanModel::new(OceanConfig::tiny(), &world);
        let state = model.init_state(&world);
        assert_eq!(model.max_overturning(&state), 0.0);
    }

    #[test]
    fn surface_at_psi_zero_and_finite_everywhere() {
        let world = World::earthlike();
        let model = OceanModel::new(OceanConfig::tiny(), &world);
        let mut state = model.init_state(&world);
        let f = OceanForcing::climatological(&model.grid, &world, &model.sst(&state));
        for _ in 0..8 {
            model.step_coupled(&mut state, &f, 21_600.0);
        }
        let psi = model.overturning_streamfunction(&state);
        let nzp = model.cfg.nz + 1;
        for j in 0..model.grid.ny {
            assert_eq!(psi[j * nzp], 0.0, "surface interface must be 0");
        }
        assert!(psi.iter().all(|v| v.is_finite()));
        // Wind-driven spin-up must produce *some* overturning, with a
        // magnitude in the single-to-tens of Sverdrups band.
        let peak = model.max_overturning(&state);
        assert!(peak > 0.01, "no overturning developed: {peak} Sv");
        assert!(peak < 300.0, "unphysical overturning: {peak} Sv");
    }
}
