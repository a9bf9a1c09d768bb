//! The stepping core of the coupled model: everything a coupling
//! interval *computes*, and nothing about how a job is run.
//!
//! * [`AtmStepper`] — one atmosphere rank: model, co-located coupler,
//!   their states, the current SST and every workspace. [`AtmStepper::step`]
//!   is the one place the atmosphere side of a coupling interval is
//!   written (coupler rows → runoff gather → rivers → forcing refill →
//!   [`AtmModel::step_ws`]); [`AtmStepper::advance_interval`] runs the
//!   interval's steps and reduces the ocean forcing across ranks.
//! * [`OceanStepper`] — the ocean rank: model, state, and the count of
//!   completed intervals that numbers its SSTs.
//! * [`RootLog`] — what the atmosphere root records per interval: the
//!   mean-SST series, monthly means, streaming statistics.
//!
//! Nothing here opens a file, reads a clock, sleeps or spawns a thread;
//! a stepper talks to the world only through the [`Comm`] it is handed
//! and the [`GlobalSnapshot`] it may be restored from. The exchange
//! protocol, sentinels, fault injection and checkpoints are services of
//! the driver (`driver.rs`, DESIGN.md §18), which makes an in-process
//! embedding a wrapper around these types rather than a port of the
//! driver.

use foam_atm::{AtmExport, AtmForcing, AtmModel, AtmState, AtmWorkspace};
use foam_coupler::{AtmSurfaceView, Coupler, CouplerState, CouplerWorkspace};
use foam_grid::constants::SECONDS_PER_DAY;
use foam_grid::{Field2, OceanGrid, World};
use foam_mpi::{Comm, ReduceOp};
use foam_ocean::{OceanForcing, OceanModel, OceanState, SplitScheme};

use crate::checkpoint::GlobalSnapshot;
use crate::config::FoamConfig;
use crate::driver::CoupledError;
use crate::stream::{sea_area_weights, DriverStream};

/// The static half of an atmosphere rank — model, coupler geometry and
/// every workspace — built before the first SST is known, so that its
/// construction overlaps the ocean's. [`AtmStepper::fresh`] or
/// [`AtmStepper::from_snapshot`] turns it into a stepper.
///
/// All hot-loop scratch is allocated once here and reused across every
/// step and coupling interval (the zero-churn rule; PERFORMANCE.md,
/// DESIGN.md §14): a warmed-up [`AtmStepper::step`] on one rank
/// allocates nothing.
pub struct AtmParts {
    model: AtmModel,
    coupler: Coupler,
    steps_per_couple: usize,
    rank: usize,
    n_ranks: usize,
    atm_ws: AtmWorkspace,
    coupler_ws: CouplerWorkspace,
    /// Row-local coupler→atmosphere forcing, refilled in place each step.
    forcing: AtmForcing,
    /// The global runoff the replicated river model reads.
    runoff: Vec<f64>,
    /// Flat `[tau_x | tau_y | heat | freshwater]` buffer of the
    /// per-interval ocean-forcing reduction.
    flat: Vec<f64>,
}

impl AtmParts {
    /// Build this rank's model and coupler on the atmosphere
    /// communicator `comm` (collective: every atmosphere rank calls).
    pub fn new(cfg: &FoamConfig, comm: &Comm) -> Self {
        let planet = World::earthlike();
        let mut model = AtmModel::new(cfg.atm.clone(), comm);
        // Scenario forcings apply identically on every atmosphere rank (a
        // pure function of static config + simulated day, so no exchange
        // is ever needed to keep ranks consistent).
        model.set_forcings(cfg.forcings.clone());
        let coupler = Coupler::new(
            model.grid().clone(),
            OceanGrid::mercator(cfg.ocean.nx, cfg.ocean.ny, cfg.ocean.lat_max_deg),
            OceanModel::effective_sea_mask(&cfg.ocean, &planet),
            &planet,
            cfg.atm.physics,
        );
        let n_local = model.n_local();
        AtmParts {
            steps_per_couple: cfg.atm_steps_per_couple(),
            rank: comm.rank(),
            n_ranks: comm.size(),
            atm_ws: AtmWorkspace::new(&model),
            coupler_ws: coupler.workspace(),
            forcing: AtmForcing {
                fluxes: Vec::with_capacity(n_local),
                t_sfc: Vec::with_capacity(n_local),
                albedo: Vec::with_capacity(n_local),
            },
            runoff: Vec::with_capacity(coupler.atm_grid.len()),
            flat: Vec::new(),
            model,
            coupler,
        }
    }

    pub(crate) fn coupler(&self) -> &Coupler {
        &self.coupler
    }
}

/// `dst` becomes a copy of `src` without giving up its capacity.
fn refill<T: Clone>(dst: &mut Vec<T>, src: &[T]) {
    dst.clear();
    dst.extend_from_slice(src);
}

/// One atmosphere rank of the coupled model, with the coupler co-located
/// on its latitude rows as in the paper.
pub struct AtmStepper {
    parts: AtmParts,
    /// This rank's rows of the atmosphere state.
    pub state: AtmState,
    /// Land, ice and forcing accumulators (full-length stores, this
    /// rank's rows live).
    pub coupler_state: CouplerState,
    /// What the last atmosphere step exported; the coupler reads it at
    /// the start of the next one.
    pub export: AtmExport,
    sst: Field2,
    work: usize,
}

impl AtmStepper {
    /// Start from the initial condition over the ocean's first SST.
    pub fn fresh(parts: AtmParts, sst: Field2) -> Self {
        let state = parts.model.init_state();
        AtmStepper {
            coupler_state: parts.coupler.init_state(&sst, AtmModel::t_init),
            export: parts.model.initial_export(&state),
            state,
            sst,
            work: 0,
            parts,
        }
    }

    /// Restore this rank's rows from a snapshot. The row-local forcing
    /// accumulator goes to rank 0 whole, so the next reduction
    /// reproduces the same sum on any rank count.
    pub fn from_snapshot(parts: AtmParts, snap: &GlobalSnapshot) -> Self {
        let (j0, j1) = parts.model.rows();
        AtmStepper {
            state: snap.atm_state_for_rows(j0, j1),
            coupler_state: snap.coupler_state_for_rank(parts.rank == 0),
            export: snap.export_for_rows(j0, j1),
            sst: snap.exchange.sst.clone(),
            work: snap.work_for_rank(parts.rank, parts.n_ranks),
            parts,
        }
    }

    /// The SST the coupler currently sees.
    pub fn sst(&self) -> &Field2 {
        &self.sst
    }

    /// Physics work units this rank has done (load-balance diagnostic).
    pub fn work(&self) -> usize {
        self.work
    }

    /// This rank's latitude rows `j0..j1`.
    pub(crate) fn rows(&self) -> (usize, usize) {
        self.parts.model.rows()
    }

    /// This rank's atmosphere cells as a flat index range.
    pub(crate) fn cells(&self) -> std::ops::Range<usize> {
        let (j0, j1) = self.rows();
        let nlon = self.parts.model.grid().nlon;
        j0 * nlon..j1 * nlon
    }

    pub(crate) fn sea_mask(&self) -> &[bool] {
        &self.parts.coupler.sea_mask
    }

    /// One atmosphere step with its coupler pass, on the atmosphere
    /// communicator `comm`.
    pub fn step(&mut self, comm: &Comm) {
        comm.region("coupler", || {
            let _t = foam_telemetry::scope("coupler");
            self.couple(comm);
        });
        comm.region("atmosphere", || {
            let _t = foam_telemetry::scope("atmosphere");
            let p = &mut self.parts;
            p.model.step_ws(
                &mut self.state,
                comm,
                &p.forcing,
                &mut p.atm_ws,
                &mut self.export,
            );
        });
        self.work += self.export.work.iter().sum::<usize>();
    }

    /// The coupler pass of one step: surface exchanges on this rank's
    /// rows, then the replicated river routing over the gathered runoff,
    /// leaving the row-local surface in `parts.forcing`.
    fn couple(&mut self, comm: &Comm) {
        let cells = self.cells();
        let p = &mut self.parts;
        let dt = p.model.cfg.dt;
        // The export fields hold exactly this rank's rows; borrow them.
        let view = AtmSurfaceView {
            t_low: &self.export.t_low,
            q_low: &self.export.q_low,
            u_low: &self.export.u_low,
            v_low: &self.export.v_low,
            precip: &self.export.precip,
            sw_sfc: &self.export.sw_sfc,
            lw_down: &self.export.lw_down,
        };
        p.coupler.step_rows_ws(
            &mut self.coupler_state,
            view,
            &self.sst,
            dt,
            cells.start,
            cells.end,
            cells.start,
            &mut p.coupler_ws,
        );
        // Rivers need the global runoff; they are cheap, so they run
        // replicated from the gathered field. One rank copies its own
        // rows and sends nothing; several gather to rank 0 in row order
        // and broadcast.
        let local = &p.coupler_ws.runoff[cells.clone()];
        if comm.size() == 1 {
            refill(&mut p.runoff, local);
        } else {
            let gathered = comm.gather(local.to_vec(), 0);
            p.runoff.clear();
            for rows in comm.bcast(0, gathered) {
                p.runoff.extend_from_slice(&rows);
            }
        }
        p.coupler
            .route_rivers_ws(&mut self.coupler_state, &p.runoff, dt, &mut p.coupler_ws);
        let out = &p.coupler_ws.out;
        refill(&mut p.forcing.fluxes, &out.fluxes[cells.clone()]);
        refill(&mut p.forcing.t_sfc, &out.t_sfc[cells.clone()]);
        refill(&mut p.forcing.albedo, &out.albedo[cells]);
    }

    /// Integrate one coupling interval and hand back the ocean forcing it
    /// accumulated: the row-local parts summed across the atmosphere
    /// ranks, the replicated part added once. Identical on every rank.
    pub fn advance_interval(&mut self, comm: &Comm) -> OceanForcing {
        for _ in 0..self.parts.steps_per_couple {
            self.step(comm);
        }
        comm.region("coupler", || {
            let _t = foam_telemetry::scope("coupler");
            let p = &mut self.parts;
            let (local, shared) = p.coupler.take_ocean_forcing_parts(&mut self.coupler_state);
            // Reduce through the reused flat buffer (`allreduce_mut`
            // allocates nothing in steady state). The `OceanForcing`
            // built from it becomes the exchange message, so it alone
            // still allocates — once per interval, not per step.
            let flat = &mut p.flat;
            flat.clear();
            flat.extend_from_slice(local.tau_x.as_slice());
            flat.extend_from_slice(local.tau_y.as_slice());
            flat.extend_from_slice(local.heat.as_slice());
            flat.extend_from_slice(local.freshwater.as_slice());
            comm.allreduce_mut(flat, ReduceOp::Sum);
            let (nx, ny) = (p.coupler.ocn_grid.nx, p.coupler.ocn_grid.ny);
            let n = nx * ny;
            let sum = |k: usize, shared: &Field2| {
                let mut f = Field2::from_vec(nx, ny, flat[k * n..(k + 1) * n].to_vec());
                f.axpy(1.0, shared);
                f
            };
            OceanForcing {
                tau_x: sum(0, &shared.tau_x),
                tau_y: sum(1, &shared.tau_y),
                heat: sum(2, &shared.heat),
                freshwater: sum(3, &shared.freshwater),
            }
        })
    }

    /// Take a new SST from the ocean and refresh the ice cover over it.
    pub fn accept_sst(&mut self, sst: Field2) {
        self.sst = sst;
        self.parts
            .coupler
            .update_ice(&mut self.coupler_state, &self.sst);
    }
}

/// The ocean rank of the coupled model. `completed` counts integrated
/// coupling intervals; the SST after `k` of them carries sequence
/// number `k`.
pub struct OceanStepper {
    model: OceanModel,
    state: OceanState,
    completed: usize,
    scheme: SplitScheme,
    dt_couple: f64,
}

impl OceanStepper {
    /// The initial condition, or the ocean of `resume`.
    pub fn new(cfg: &FoamConfig, resume: Option<&GlobalSnapshot>) -> Self {
        let planet = World::earthlike();
        let model = OceanModel::new(cfg.ocean.clone(), &planet);
        let (state, completed) = match resume {
            Some(snap) => (snap.ocean.clone(), snap.interval),
            None => (model.init_state(&planet), 0),
        };
        OceanStepper {
            model,
            state,
            completed,
            scheme: cfg.ocean_scheme,
            dt_couple: cfg.dt_couple,
        }
    }

    /// Integrate one coupling interval under `forcing`.
    pub fn step(&mut self, forcing: &OceanForcing) {
        let (model, state, dt) = (&self.model, &mut self.state, self.dt_couple);
        match self.scheme {
            SplitScheme::FoamSplit => model.step_coupled(state, forcing, dt),
            SplitScheme::Unsplit => model.step_unsplit(state, forcing, dt),
        };
        self.completed += 1;
    }

    /// Coupling intervals integrated so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// The current sea-surface temperature.
    pub fn sst(&self) -> Field2 {
        self.model.sst(&self.state)
    }

    pub(crate) fn state(&self) -> &OceanState {
        &self.state
    }
}

/// What the atmosphere root records about a run, one
/// [`RootLog::record`] per completed coupling interval. Rides in the
/// root's checkpoint shard and resumes seamlessly.
#[derive(Debug, Clone)]
pub struct RootLog {
    /// Area-mean SST after each coupling interval \[°C\].
    pub mean_sst_series: Vec<f64>,
    /// The running sum of the current month and its interval count.
    pub month_acc: Option<(Field2, usize)>,
    /// Streaming statistics, when [`FoamConfig::stream`] is set.
    pub stream: Option<DriverStream>,
    ocn_grid: OceanGrid,
    sea_mask: Vec<bool>,
    intervals_per_month: usize,
}

impl RootLog {
    /// An empty log, or the log `resume` carries. A snapshot from before
    /// streaming statistics existed resumes with the stream counting
    /// from the resume point.
    pub fn new(
        cfg: &FoamConfig,
        ocn_grid: &OceanGrid,
        sea_mask: &[bool],
        resume: Option<&GlobalSnapshot>,
    ) -> Self {
        let stream = cfg.stream.as_ref().map(|s| {
            resume.and_then(|r| r.stream.clone()).unwrap_or_else(|| {
                DriverStream::new(sea_area_weights(ocn_grid, sea_mask), s.eof_rank)
            })
        });
        RootLog {
            mean_sst_series: resume.map_or_else(Vec::new, |r| r.mean_sst_series.clone()),
            month_acc: resume.and_then(|r| r.month_acc.clone()),
            stream,
            ocn_grid: ocn_grid.clone(),
            sea_mask: sea_mask.to_vec(),
            intervals_per_month: ((30.0 * SECONDS_PER_DAY) / cfg.dt_couple).round() as usize,
        }
    }

    /// Area mean of `values` (an ocean-grid field) over the sea cells.
    pub(crate) fn sea_mean(&self, values: &[f64]) -> f64 {
        self.ocn_grid.masked_mean(values, &self.sea_mask)
    }

    /// Log one completed coupling interval that ended on `sst`: the
    /// mean-SST series entry and, when the stream is on, the monthly-mean
    /// accumulation it folds in as each month completes.
    pub fn record(&mut self, sst: &Field2) -> Result<(), CoupledError> {
        self.mean_sst_series.push(self.sea_mean(sst.as_slice()));
        let Some(ds) = &mut self.stream else {
            return Ok(());
        };
        let (nx, ny) = (self.ocn_grid.nx, self.ocn_grid.ny);
        let (acc, n) = self
            .month_acc
            .get_or_insert_with(|| (Field2::zeros(nx, ny), 0));
        acc.axpy(1.0, sst);
        *n += 1;
        if *n != self.intervals_per_month {
            return Ok(());
        }
        acc.scale(1.0 / *n as f64);
        // Unreachable on a correctly built stream (it was sized from this
        // very grid), but surfaced as data, not a panic.
        ds.push_month(acc.as_slice())
            .map_err(|e| CoupledError::Internal {
                what: format!("streaming statistics rejected a monthly mean: {e}"),
            })?;
        self.month_acc = None;
        Ok(())
    }
}
