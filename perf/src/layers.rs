//! Every call the per-layer ledger makes into the FOAM crates lives in
//! this file, so a refactor sees at a glance which public names the
//! benchmark binds to (README.md lists them per metric).
//!
//! Three kinds of measurement:
//!
//! * **probes** — a timed loop around one public call at a stated size;
//! * the **component loop** — a single-rank replay of coupling
//!   intervals through the public step functions, one span per call;
//! * **ocean calls** — `OceanModel::step_coupled` on the bench thread
//!   with a telemetry registry installed, so the ocean's own phase
//!   scopes are harvested.
//!
//! All of them return per-call seconds; the ledger converts to each
//! metric's unit.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use foam::{CkptConfig, FoamConfig, TelemetryConfig, World};
use foam_atm::{AtmForcing, AtmModel, AtmWorkspace};
use foam_coupler::{AtmSurfaceView, Coupler};
use foam_ensemble::{EnsembleSpec, FairShareQueue};
use foam_grid::{AtmGrid, Field2, OceanGrid, OverlapGrid};
use foam_mpi::{ReduceOp, Universe};
use foam_ocean::polar::PolarFilter;
use foam_ocean::{OceanConfig, OceanForcing, OceanModel};
use foam_physics::radiation::{full_radiation_into, RadParams};
use foam_physics::{
    AtmColumn, ColumnPhysics, OrbitalState, PhysicsWorkspace, RadCache, SurfaceState,
};
use foam_scenario::Scenario;
use foam_server::{JobSpec, ResultCache};
use foam_spectral::fft::{real_analysis_into, FftPlan};
use foam_spectral::{
    Complex, ParTransform, SpectralField, SpectralWorkspace, SphericalTransform, SynthKind,
    Truncation,
};
use foam_telemetry::TelemetryRegistry;

use crate::rng::Rng;
use crate::trace::Trace;

/// How long each probe loop samples (`smoke` runs keep only the floor of
/// five samples).
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    pub per_probe: Duration,
    /// Calls per rank in the fixed-count two-rank probes.
    pub rank_calls: usize,
}

impl Effort {
    pub fn full() -> Self {
        Effort {
            per_probe: Duration::from_millis(120),
            rank_calls: 2000,
        }
    }

    pub fn smoke() -> Self {
        Effort {
            per_probe: Duration::from_millis(2),
            rank_calls: 50,
        }
    }
}

/// Per-call seconds of `f`. Calls are batched until a batch is long
/// enough for the clock (≥ 50 µs); the first call warms caches and sizes
/// the batch, and is not a sample.
fn sample(effort: Effort, mut f: impl FnMut()) -> Vec<f64> {
    let t = Instant::now();
    f();
    let one = t.elapsed().as_secs_f64().max(1e-9);
    let batch = ((50e-6 / one).ceil() as usize).clamp(1, 100_000);
    let mut out = Vec::new();
    let t0 = Instant::now();
    while out.len() < 5 || (t0.elapsed() < effort.per_probe && out.len() < 5000) {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        out.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    out
}

fn wavy(nx: usize, ny: usize) -> Field2 {
    Field2::from_fn(nx, ny, |i, j| {
        ((i + 2 * j) as f64 * 0.21).sin() + 0.01 * j as f64
    })
}

// ---------------------------------------------------------------------
// spectral
// ---------------------------------------------------------------------

/// The two transform engines the workloads use: R15 on 48×40 (paper)
/// and R3 on 16×12 (century preset).
pub fn transform_r15() -> SphericalTransform {
    SphericalTransform::r15()
}

pub fn transform_r3() -> SphericalTransform {
    SphericalTransform::new(AtmGrid::new(16, 12), Truncation::rhomboidal(3))
}

/// `SphericalTransform::analyze_ws` over the full grid.
pub fn spectral_analysis(t: &SphericalTransform, effort: Effort) -> Vec<f64> {
    let f = wavy(t.grid.nlon, t.grid.nlat);
    let mut ws = SpectralWorkspace::new(t);
    let mut spec = SpectralField::zeros(t.trunc);
    sample(effort, || {
        t.analyze_ws(black_box(&f), &mut ws, &mut spec);
        black_box(&spec);
    })
}

/// `SphericalTransform::synthesize_rows_into` over the full grid.
pub fn spectral_synthesis(t: &SphericalTransform, effort: Effort) -> Vec<f64> {
    let mut ws = SpectralWorkspace::new(t);
    let mut spec = SpectralField::zeros(t.trunc);
    t.analyze_ws(&wavy(t.grid.nlon, t.grid.nlat), &mut ws, &mut spec);
    let mut out = Field2::zeros(t.grid.nlon, t.grid.nlat);
    sample(effort, || {
        t.synthesize_rows_into(
            black_box(&spec),
            0,
            t.grid.nlat,
            SynthKind::Value,
            &mut ws,
            &mut out,
        );
        black_box(&out);
    })
}

/// `real_analysis_into` on one 48-point longitude row, 16 coefficients.
pub fn fft48(effort: Effort) -> Vec<f64> {
    let plan = FftPlan::new(48);
    let row: Vec<f64> = (0..48).map(|i| (i as f64 * 0.7).sin()).collect();
    let mut out = vec![Complex::ZERO; 16];
    let mut scratch = vec![Complex::ZERO; plan.scratch_len()];
    sample(effort, || {
        real_analysis_into(&plan, black_box(&row), &mut out, &mut scratch);
        black_box(&out);
    })
}

/// Operation and byte counts of one analysis, computed from the sizes
/// (not measured): per latitude row one real FFT plus, per zonal
/// wavenumber, a complex-times-real multiply-add over that wavenumber's
/// Legendre row. Bytes are what one call streams through: per row the
/// grid row, that row of every Legendre table, and the complex spectral
/// accumulator read and written. Cache misses are not in it.
pub struct AnalysisCost {
    pub flops: f64,
    pub bytes: f64,
}

pub fn analysis_cost(t: &SphericalTransform) -> AnalysisCost {
    let (nlon, nlat) = (t.grid.nlon as f64, t.grid.nlat as f64);
    let per_row_legendre: f64 = (0..=t.trunc.m_max)
        .map(|m| (t.trunc.n_max(m) - m + 1) as f64)
        .sum();
    // 5 n log2 n for the complex FFT of a real row, 2 to weight each
    // Fourier coefficient, 4 per complex-times-real multiply-add.
    let fft = 5.0 * nlon * nlon.log2() + 2.0 * (t.trunc.m_max + 1) as f64;
    let flops = nlat * (fft + 4.0 * per_row_legendre);
    let bytes = nlat * (8.0 * nlon + (8.0 + 2.0 * 16.0) * per_row_legendre);
    AnalysisCost { flops, bytes }
}

/// `ParTransform::analyze_into` under `Universe::run(2)`: each rank
/// analyses its half of the rows, then the allreduce combines them.
/// Rank 0's per-call seconds.
pub fn par_analysis_2rank(effort: Effort) -> Vec<f64> {
    let calls = effort.rank_calls;
    let out = Universe::run(2, move |comm| {
        let par = ParTransform::new(SphericalTransform::r15(), comm);
        let local = wavy(par.base.grid.nlon, par.n_local_rows());
        let mut ws = SpectralWorkspace::new(&par.base);
        let mut spec = SpectralField::zeros(par.base.trunc);
        let batch = 20;
        let mut samples = Vec::new();
        for _ in 0..calls.div_ceil(batch) {
            let t = Instant::now();
            for _ in 0..batch {
                par.analyze_into(comm, &local, &mut ws, &mut spec);
            }
            samples.push(t.elapsed().as_secs_f64() / batch as f64);
        }
        black_box(&spec);
        samples
    });
    out.results.into_iter().next().unwrap_or_default()
}

// ---------------------------------------------------------------------
// mpi
// ---------------------------------------------------------------------

/// `Comm::allreduce_mut` over two ranks on a buffer the size of the R15
/// coefficient set (re, im interleaved). Rank 0's per-call seconds.
pub fn allreduce_2rank(effort: Effort) -> Vec<f64> {
    let calls = effort.rank_calls;
    let len = 2 * Truncation::r15().len();
    let out = Universe::run(2, move |comm| {
        let mut buf = vec![1.0f64; len];
        let batch = 20;
        let mut samples = Vec::new();
        for _ in 0..calls.div_ceil(batch) {
            let t = Instant::now();
            for _ in 0..batch {
                comm.allreduce_mut(&mut buf, ReduceOp::Max);
            }
            samples.push(t.elapsed().as_secs_f64() / batch as f64);
        }
        black_box(&buf);
        samples
    });
    out.results.into_iter().next().unwrap_or_default()
}

/// `Comm::send` + `Comm::recv` of one `f64` there and back between two
/// ranks. Rank 0's seconds per round trip.
pub fn pingpong(effort: Effort) -> Vec<f64> {
    const TAG: u32 = 77;
    let calls = effort.rank_calls;
    let out = Universe::run(2, move |comm| {
        let batch = 20;
        let mut samples = Vec::new();
        for _ in 0..calls.div_ceil(batch) {
            let t = Instant::now();
            for _ in 0..batch {
                if comm.rank() == 0 {
                    comm.send(1, TAG, 1.0f64);
                    black_box(comm.recv::<f64>(1, TAG));
                } else {
                    let v: f64 = comm.recv(0, TAG);
                    comm.send(0, TAG, v);
                }
            }
            samples.push(t.elapsed().as_secs_f64() / batch as f64);
        }
        samples
    });
    out.results.into_iter().next().unwrap_or_default()
}

// ---------------------------------------------------------------------
// physics
// ---------------------------------------------------------------------

/// `ColumnPhysics::step_with_fluxes_ws` on an 18-level standard column
/// over open ocean, radiation cached (the ordinary step). The column is
/// reset before each call so every call does the same work.
pub fn column_step(effort: Effort) -> Vec<f64> {
    let phys = ColumnPhysics::default();
    let col0 = AtmColumn::standard(18, 295.0);
    let sfc = SurfaceState::open_ocean(296.0);
    let fluxes = phys.surface_fluxes(&col0, &sfc, (5.0, 0.0));
    let orb = OrbitalState::at(0.0);
    let mut ws = PhysicsWorkspace::with_levels(18);
    let mut cache = RadCache::empty(18);
    let mut col = col0.clone();
    phys.step_with_fluxes_ws(
        &mut col, &sfc, fluxes, orb, 3.1, 0.1, &mut cache, true, 1800.0, &mut ws,
    );
    sample(effort, || {
        col.t.copy_from_slice(&col0.t);
        col.q.copy_from_slice(&col0.q);
        black_box(phys.step_with_fluxes_ws(
            &mut col, &sfc, fluxes, orb, 3.1, 0.1, &mut cache, false, 1800.0, &mut ws,
        ));
    })
}

/// `full_radiation_into` on the same column: the refresh the
/// atmosphere's long steps pay.
pub fn full_radiation(effort: Effort) -> Vec<f64> {
    let col = AtmColumn::standard(18, 295.0);
    let p = RadParams::default();
    let mut ws = PhysicsWorkspace::with_levels(18);
    let mut cache = RadCache::empty(18);
    sample(effort, || {
        full_radiation_into(black_box(&col), 296.0, 0.07, &p, &mut ws, &mut cache);
        black_box(&cache);
    })
}

// ---------------------------------------------------------------------
// grid
// ---------------------------------------------------------------------

pub struct GridProbes {
    pub build: Vec<f64>,
    pub atm_to_ocean: Vec<f64>,
    pub ocean_to_atm: Vec<f64>,
}

/// `OverlapGrid::build`, `atm_to_ocean_into` and `ocean_to_atm` between
/// the R15 grid and the 128×128 Mercator ocean.
pub fn overlap_grid(effort: Effort) -> GridProbes {
    let world = World::earthlike();
    let atm = AtmGrid::r15();
    let ocn = OceanGrid::foam_default();
    let mask = OceanModel::effective_sea_mask(&OceanConfig::default(), &world);
    let build = sample(effort, || {
        black_box(OverlapGrid::build(&atm, &ocn, &mask));
    });
    let ov = OverlapGrid::build(&atm, &ocn, &mask);
    let f_atm = wavy(atm.nlon, atm.nlat);
    let f_ocn = wavy(ocn.nx, ocn.ny);
    let mut out = Field2::zeros(ocn.nx, ocn.ny);
    let atm_to_ocean = sample(effort, || {
        ov.atm_to_ocean_into(black_box(&f_atm), &mut out);
        black_box(&out);
    });
    let ocean_to_atm = sample(effort, || {
        black_box(ov.ocean_to_atm(black_box(&f_ocn)));
    });
    GridProbes {
        build,
        atm_to_ocean,
        ocean_to_atm,
    }
}

// ---------------------------------------------------------------------
// ocean
// ---------------------------------------------------------------------

/// Seeded perturbation of the surface heat flux (±1 W/m² on sea cells):
/// the ocean-only workload's inputs follow `--seed` like the others'.
pub fn perturb_heat(forcing: &mut OceanForcing, mask: &[bool], seed: u64) {
    let mut rng = Rng::new(seed);
    for (h, &sea) in forcing.heat.as_mut_slice().iter_mut().zip(mask) {
        let u = rng.unit();
        if sea {
            *h += 2.0 * u - 1.0;
        }
    }
}

/// What a batch of `OceanModel::step_coupled` calls produced.
pub struct OceanCalls {
    /// Model + state + forcing construction.
    pub setup_s: f64,
    /// Seconds of each 6-hour call.
    pub call_s: Vec<f64>,
    pub final_mean_sst: f64,
    pub finite: bool,
    /// Work units `step_coupled` returned, summed.
    pub work_units: usize,
    /// The ocean's own phase scopes and counters, when harvested.
    pub registry: Option<TelemetryRegistry>,
}

/// Build the ocean at `cfg`, force it climatologically (heat flux
/// perturbed by `seed`), and integrate `calls` coupling intervals with
/// `OceanModel::step_coupled`, one span per call. With `harvest`, a
/// telemetry registry is installed on this thread for the duration.
pub fn ocean_calls(
    cfg: &OceanConfig,
    seed: u64,
    calls: usize,
    harvest: bool,
    trace: &Trace,
    parent: Option<usize>,
    group: u64,
) -> OceanCalls {
    let t0 = Instant::now();
    let world = World::earthlike();
    let model = OceanModel::new(cfg.clone(), &world);
    let mut state = model.init_state(&world);
    let mut forcing = OceanForcing::climatological(&model.grid, &world, &model.sst(&state));
    perturb_heat(&mut forcing, &model.mask, seed);
    let t1 = Instant::now();
    trace.record("ocean.setup", parent, group, t0, t1);
    if harvest {
        foam_telemetry::install(TelemetryRegistry::new(0));
    }
    let mut call_s = Vec::with_capacity(calls);
    let mut work_units = 0;
    for c in 0..calls {
        let t = Instant::now();
        work_units += model.step_coupled(&mut state, &forcing, 21_600.0);
        let end = Instant::now();
        call_s.push((end - t).as_secs_f64());
        trace.record("ocean.step_coupled", parent, group + c as u64, t, end);
    }
    let registry = if harvest {
        foam_telemetry::harvest()
    } else {
        None
    };
    OceanCalls {
        setup_s: (t1 - t0).as_secs_f64(),
        call_s,
        final_mean_sst: model.mean_sst(&state),
        finite: model.is_finite(&state),
        work_units,
        registry,
    }
}

/// Model + state + forcing construction alone (extra `setup_s` samples).
pub fn ocean_setup(cfg: &OceanConfig, seed: u64) -> f64 {
    ocean_calls(cfg, seed, 0, false, &Trace::new(false), None, 0).setup_s
}

/// `BarotropicSystem::subcycle` at 128×128: seconds per subcycle.
pub fn barotropic_subcycle(effort: Effort) -> Vec<f64> {
    let world = World::earthlike();
    let model = OceanModel::new(OceanConfig::default(), &world);
    let mut state = model.init_state(&world);
    let (fx, fy) = (
        Field2::filled(model.grid.nx, model.grid.ny, 1.0e-6),
        Field2::zeros(model.grid.nx, model.grid.ny),
    );
    let n_sub = 8;
    sample(effort, || {
        model
            .baro_sys
            .subcycle(&mut state.baro, &fx, &fy, model.cfg.dt_int, n_sub);
    })
    .into_iter()
    .map(|s| s / n_sub as f64)
    .collect()
}

/// `PolarFilter::apply` on one 128×128 field.
pub fn polar_apply(effort: Effort) -> Vec<f64> {
    let cfg = OceanConfig::default();
    let grid = OceanGrid::mercator(cfg.nx, cfg.ny, cfg.lat_max_deg);
    let filter = PolarFilter::new(&grid, cfg.polar_lat);
    let f0 = wavy(grid.nx, grid.ny);
    let mut f = f0.clone();
    sample(effort, || {
        f.as_mut_slice().copy_from_slice(f0.as_slice());
        filter.apply(&mut f);
        black_box(&f);
    })
}

// ---------------------------------------------------------------------
// the component loop: atm + coupler (+ ocean) through the public steps
// ---------------------------------------------------------------------

/// Per-call seconds from one component loop.
#[derive(Debug, Default, Clone)]
pub struct LoopTimes {
    /// `AtmModel::step_ws`, steps that reuse the radiation cache.
    pub atm_step: Vec<f64>,
    /// `AtmModel::step_ws`, steps that refresh radiation.
    pub atm_rad_step: Vec<f64>,
    pub step_rows: Vec<f64>,
    pub route_rivers: Vec<f64>,
    /// `take_ocean_forcing` + `OceanModel::sst` + `update_ice`.
    pub exchange: Vec<f64>,
    pub ocean_call: Vec<f64>,
    /// Span id of the whole loop.
    pub root: Option<usize>,
    pub wall_s: f64,
}

/// Replay `intervals` coupling intervals of `cfg` on one rank, in the
/// driver's order — per atmosphere step `Coupler::step_rows_ws`,
/// `route_rivers_ws`, `AtmModel::step_ws`; per interval
/// `take_ocean_forcing`, `OceanModel::step_coupled`, `update_ice` —
/// with a span around each call. Sequential where the driver overlaps
/// the ocean with the next interval: this loop prices the components,
/// the workloads price the overlap.
pub fn component_loop(cfg: &FoamConfig, intervals: usize, trace: &Trace, group: u64) -> LoopTimes {
    let cfg = cfg.clone();
    let out = Universe::run(1, move |comm| {
        let planet = World::earthlike();
        let model = AtmModel::new(cfg.atm.clone(), comm);
        let sea_mask = OceanModel::effective_sea_mask(&cfg.ocean, &planet);
        let ocn_grid = OceanGrid::mercator(cfg.ocean.nx, cfg.ocean.ny, cfg.ocean.lat_max_deg);
        let coupler = Coupler::new(
            model.grid().clone(),
            ocn_grid,
            sea_mask,
            &planet,
            cfg.atm.physics,
        );
        let ocean = OceanModel::new(cfg.ocean.clone(), &planet);
        let mut ostate = ocean.init_state(&planet);
        let mut sst = ocean.sst(&ostate);
        let mut state = model.init_state();
        let mut cstate = coupler.init_state(&sst, AtmModel::t_init);
        let mut export = model.initial_export(&state);
        let mut aws = AtmWorkspace::new(&model);
        let mut cws = coupler.workspace();
        let n = model.n_local();
        let mut forcing = AtmForcing {
            fluxes: Vec::with_capacity(n),
            t_sfc: Vec::with_capacity(n),
            albedo: Vec::with_capacity(n),
        };
        let mut runoff: Vec<f64> = Vec::with_capacity(n);
        let dt = cfg.atm.dt;

        let mut times = LoopTimes::default();
        let t_loop = Instant::now();
        let root = trace.open("loop", None, group);
        for c in 0..intervals {
            let ispan = trace.open("interval", root, group + 1 + c as u64);
            let g = group + 1 + c as u64;
            for _ in 0..cfg.atm_steps_per_couple() {
                let t0 = Instant::now();
                let view = AtmSurfaceView {
                    t_low: &export.t_low,
                    q_low: &export.q_low,
                    u_low: &export.u_low,
                    v_low: &export.v_low,
                    precip: &export.precip,
                    sw_sfc: &export.sw_sfc,
                    lw_down: &export.lw_down,
                };
                coupler.step_rows_ws(&mut cstate, view, &sst, dt, 0, n, 0, &mut cws);
                let t1 = Instant::now();
                runoff.clear();
                runoff.extend_from_slice(&cws.runoff);
                coupler.route_rivers_ws(&mut cstate, &runoff, dt, &mut cws);
                forcing.fluxes.clear();
                forcing.fluxes.extend_from_slice(&cws.out.fluxes);
                forcing.t_sfc.clear();
                forcing.t_sfc.extend_from_slice(&cws.out.t_sfc);
                forcing.albedo.clear();
                forcing.albedo.extend_from_slice(&cws.out.albedo);
                let t2 = Instant::now();
                let refresh = state.step_count == 0 || model.phys.radiation_due(state.sim_t, dt);
                model.step_ws(&mut state, comm, &forcing, &mut aws, &mut export);
                let t3 = Instant::now();
                times.step_rows.push((t1 - t0).as_secs_f64());
                times.route_rivers.push((t2 - t1).as_secs_f64());
                let step = (t3 - t2).as_secs_f64();
                if refresh {
                    times.atm_rad_step.push(step);
                } else {
                    times.atm_step.push(step);
                }
                trace.record("coupler.step_rows", ispan, g, t0, t1);
                trace.record("coupler.route_rivers", ispan, g, t1, t2);
                let name = if refresh { "atm.rad_step" } else { "atm.step" };
                trace.record(name, ispan, g, t2, t3);
            }
            let t0 = Instant::now();
            let oforcing = coupler.take_ocean_forcing(&mut cstate);
            let t1 = Instant::now();
            ocean.step_coupled(&mut ostate, &oforcing, cfg.dt_couple);
            let t2 = Instant::now();
            sst = ocean.sst(&ostate);
            coupler.update_ice(&mut cstate, &sst);
            let t3 = Instant::now();
            times
                .exchange
                .push((t1 - t0).as_secs_f64() + (t3 - t2).as_secs_f64());
            times.ocean_call.push((t2 - t1).as_secs_f64());
            trace.record("coupler.exchange", ispan, g, t0, t1);
            trace.record("ocean.step_coupled", ispan, g, t1, t2);
            trace.record("coupler.exchange", ispan, g, t2, t3);
            trace.close(ispan);
        }
        trace.close(root);
        times.root = root;
        times.wall_s = t_loop.elapsed().as_secs_f64();
        black_box(&export);
        times
    });
    out.results.into_iter().next().unwrap_or_default()
}

// ---------------------------------------------------------------------
// ckpt
// ---------------------------------------------------------------------

pub struct CkptProbe {
    /// Bytes of the committed snapshot directory.
    pub snapshot_bytes: u64,
    /// Seconds inside the driver's `checkpoint` phase (all ranks'
    /// shards plus the manifest and the atomic commit).
    pub write_s: f64,
    /// `foam::checkpoint::load_latest` on the committed snapshot.
    pub load_s: Vec<f64>,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// One coupling interval of `cfg` with `CkptConfig::every(dir, 1)` and
/// telemetry on (the write is read from the run's `checkpoint` phase),
/// then `load_latest` timed from outside.
pub fn checkpoint(cfg: &FoamConfig, dir: &Path, loads: usize) -> Result<CkptProbe, String> {
    let mut cfg = cfg.clone();
    cfg.ckpt = CkptConfig::every(dir, 1);
    cfg.telemetry = TelemetryConfig {
        enabled: true,
        path: None,
    };
    let days = cfg.dt_couple / 86_400.0;
    let out = foam::try_run_coupled(&cfg, days).map_err(|e| e.to_string())?;
    let report = out.telemetry.ok_or("telemetry was enabled")?;
    // Root rank's phase: it spans the whole rendezvous.
    let write_s = report
        .ranks
        .first()
        .map(|r| r.leaf_seconds("checkpoint"))
        .unwrap_or(0.0);
    let store = foam::CheckpointStore::open(dir).map_err(|e| e.to_string())?;
    let (_, snap_dir) = store
        .latest()
        .map_err(|e| e.to_string())?
        .ok_or("the run committed no snapshot")?;
    let mut load_s = Vec::new();
    for _ in 0..loads.max(1) {
        let t = Instant::now();
        black_box(foam::checkpoint::load_latest(&store, &cfg).map_err(|e| e.to_string())?);
        load_s.push(t.elapsed().as_secs_f64());
    }
    Ok(CkptProbe {
        snapshot_bytes: dir_bytes(&snap_dir),
        write_s,
        load_s,
    })
}

// ---------------------------------------------------------------------
// stats, scenario, server, ensemble
// ---------------------------------------------------------------------

/// `DriverStream::push_month` on the century preset's 24×16 ocean.
pub fn push_month(seed: u64, effort: Effort) -> Vec<f64> {
    let cfg = FoamConfig::century(seed);
    let grid = OceanGrid::mercator(cfg.ocean.nx, cfg.ocean.ny, cfg.ocean.lat_max_deg);
    let mask = OceanModel::effective_sea_mask(&cfg.ocean, &World::earthlike());
    let eof_rank = cfg.stream.as_ref().map_or(8, |s| s.eof_rank);
    let mut stream = foam::DriverStream::new(foam::sea_area_weights(&grid, &mask), eof_rank);
    let mut rng = Rng::new(seed);
    // A dozen distinct months, cycled: the fold's cost does not depend
    // on the values, only on there being variability to sketch.
    let months: Vec<Vec<f64>> = (0..12)
        .map(|_| (0..grid.len()).map(|_| 15.0 + rng.unit()).collect())
        .collect();
    let mut k = 0;
    sample(effort, || {
        stream
            .push_month(&months[k % months.len()])
            .expect("the field has the stream's grid size");
        k += 1;
    })
}

const SCENARIOS: [&str; 7] = [
    include_str!("../../scenarios/co2-doubling.toml"),
    include_str!("../../scenarios/co2-ramp-1pct.toml"),
    include_str!("../../scenarios/control.toml"),
    include_str!("../../scenarios/paleo-obliquity.toml"),
    include_str!("../../scenarios/pinatubo.toml"),
    include_str!("../../scenarios/slab-ocean.toml"),
    include_str!("../../scenarios/solar-sweep.toml"),
];

/// `Scenario::parse` + `Scenario::config` over the seven library files:
/// seconds per file.
pub fn scenario_parse_lower(effort: Effort) -> Vec<f64> {
    sample(effort, || {
        for src in SCENARIOS {
            let s = Scenario::parse(src).expect("library scenarios parse");
            black_box(s.config().expect("library scenarios lower"));
        }
    })
    .into_iter()
    .map(|s| s / SCENARIOS.len() as f64)
    .collect()
}

/// `JobSpec::parse` on a cold-run submission body.
pub fn spec_parse(effort: Effort) -> Vec<f64> {
    let body = r#"{"preset":"century","seed":1914001,"days":10,"ckpt_interval":8}"#;
    sample(effort, || {
        black_box(JobSpec::parse(black_box(body)).expect("the body is a valid spec"));
    })
}

pub struct CacheProbe {
    pub get: Vec<f64>,
    pub put: Vec<f64>,
    pub evictions: u64,
}

/// `ResultCache::put` (distinct digests, so the LRU budget evicts as it
/// goes) and `ResultCache::get` (the four newest entries, as the hit
/// client does), with reports of `report_bytes` under `budget`; and how
/// many entries the puts evicted.
pub fn result_cache(
    root: &Path,
    budget: u64,
    report_bytes: usize,
    effort: Effort,
) -> std::io::Result<CacheProbe> {
    let cache = ResultCache::open_with_budget(root, Some(budget))?;
    let body = vec![b'x'; report_bytes];
    let mut k = 0u64;
    let mut err = None;
    let put = sample(effort, || {
        if let Err(e) = cache.put(&format!("{k:016x}"), &body) {
            err = Some(e);
        }
        k += 1;
    });
    if let Some(e) = err {
        return Err(e);
    }
    let mut i = 0u64;
    let get = sample(effort, || {
        black_box(cache.get(&format!("{:016x}", k - 1 - (i % 4))));
        i += 1;
    });
    Ok(CacheProbe {
        get,
        put,
        evictions: k - cache.digests().len() as u64,
    })
}

/// `FairShareQueue::submit` + `pop` + `complete`, one job through an
/// otherwise empty queue.
pub fn queue_submit_pop(effort: Effort) -> Vec<f64> {
    let q: FairShareQueue<u64> = FairShareQueue::new();
    let mut k = 0;
    sample(effort, || {
        q.submit("tenant", 0, k);
        let (tenant, job) = q.pop().expect("the queue is open");
        q.complete(&tenant);
        black_box(job);
        k += 1;
    })
}

/// `foam_ensemble::run_ensemble` on a century-preset seed sweep (the
/// server's ensemble job without the server): wall seconds per member.
pub fn ensemble_members(seed: u64, members: usize, days: f64) -> Result<Vec<f64>, String> {
    let spec = EnsembleSpec::seed_sweep(FoamConfig::century(seed), days, members);
    let out = foam_ensemble::run_ensemble(&spec).map_err(|e| e.to_string())?;
    out.members
        .iter()
        .map(|m| match m.output() {
            Some(o) => Ok(o.sim_seconds / o.model_speedup),
            None => Err(format!("ensemble member {} failed", m.spec.id)),
        })
        .collect()
}

/// Whether the century preset survives its first two coupling intervals
/// at `seed`. About one seed in fifty does not (the soil sentinel trips
/// in the second interval), so the workloads that run the preset
/// draw their model seeds from `--seed` through this check: no operation
/// fails for a reason that is the seed's, not the code's.
pub fn century_seed_holds(seed: u64) -> bool {
    foam::try_run_coupled(&FoamConfig::century(seed), 0.5).is_ok()
}

/// The first of `seed`, then the seeds a generator started at `seed`
/// draws, at which `members` consecutive century seeds all hold.
pub fn century_seed(seed: u64, members: usize) -> u64 {
    let mut rng = Rng::new(seed);
    let mut candidate = seed;
    for _ in 0..64 {
        if (0..members as u64).all(|m| century_seed_holds(candidate + m)) {
            return candidate;
        }
        candidate = rng.next_u64() % 1_000_000_000;
    }
    candidate
}

/// Per-call seconds of each phase path in a harvested registry.
pub fn phase_seconds_per(reg: &TelemetryRegistry, per: usize) -> BTreeMap<String, f64> {
    reg.phases()
        .iter()
        .map(|(path, stat)| (path.clone(), stat.seconds / per.max(1) as f64))
        .collect()
}
