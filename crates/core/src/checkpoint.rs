//! Checkpoint/restart of a coupled run.
//!
//! # Snapshot layout
//!
//! A snapshot is a directory `ckpt-<interval>` under [`FoamConfig::ckpt`]'s
//! root, committed by an atomic rename of a `.tmp` staging directory
//! (see [`foam_ckpt::CheckpointStore`]). It holds one shard per rank —
//! `rank-0000.foam` … `rank-<n_atm>.foam` (the last one is the ocean's) —
//! plus `MANIFEST.foam`, written last, so a directory with a readable
//! manifest is complete by construction. Every file is a sectioned,
//! CRC64-checksummed [`foam_ckpt::Snapshot`]; floats are stored as raw
//! IEEE-754 bits, which is what makes restarts bit-identical.
//!
//! Atmosphere shards carry the rank's latitude rows of the prognostic
//! state (temperature, humidity, radiation caches), the last atmosphere
//! export (the coupler consumes it before the next step produces one),
//! and the row-local coupler stores (soil, buckets, ice columns) plus
//! this rank's partial ocean-forcing accumulator. The root shard
//! additionally carries everything replicated or root-held: the spectral
//! dynamics state, rivers, the ice mask, the shared accumulator, the
//! exchange buffers (current SST and its sequence number) and the
//! driver's diagnostic series. The ocean shard holds the full
//! [`OceanState`] and its count of completed coupling intervals.
//!
//! # Restart across rank counts
//!
//! [`load_snapshot`] stitches the shards back into a [`GlobalSnapshot`]
//! on the full grid (shard row ranges must tile the latitudes), and each
//! rank of the restarted run slices its own rows back out — so a run
//! checkpointed on N atmosphere ranks restarts on M. Restarts on the
//! *same* rank count are bit-identical; a different rank count changes
//! the summation order of the forcing reduction, so it resumes the same
//! trajectory only up to floating-point reassociation.

use std::path::Path;

use foam_atm::{AtmExport, AtmState, QgState};
use foam_ckpt::{CheckpointStore, CkptError, Snapshot, SnapshotWriter};
use foam_coupler::{CouplerState, ExchangeBuffers};
use foam_grid::Field2;
use foam_land::{Bucket, RiverState, SoilColumn};
use foam_ocean::{OceanForcing, OceanState, SplitScheme};
use foam_physics::{Forcings, RadCache};

use crate::config::{CouplingMode, FoamConfig};
use crate::stepper::{AtmStepper, RootLog};
use crate::stream::DriverStream;

/// The complete model state at a coupling-interval boundary, reassembled
/// on the full grid from the per-rank shards.
#[derive(Debug, Clone)]
pub struct GlobalSnapshot {
    /// Coupling intervals completed; the resumed run starts at this one.
    pub interval: usize,
    /// Spectral dynamics state (replicated across atmosphere ranks).
    pub qg: QgState,
    /// Temperature and humidity per physics level, full grid.
    pub atm_t: Vec<Field2>,
    pub atm_q: Vec<Field2>,
    /// Radiation caches, one per column (flattened `j·nlon + i`).
    pub atm_rad: Vec<RadCache>,
    pub atm_sim_t: f64,
    pub atm_step_count: u64,
    /// The last atmosphere export, full grid (the coupler reads it
    /// before the first resumed step produces a fresh one).
    pub export: AtmExport,
    pub soil: Vec<SoilColumn>,
    pub bucket: Vec<Bucket>,
    pub ice_col: Vec<SoilColumn>,
    pub river: RiverState,
    pub ice: Vec<bool>,
    /// Row-local forcing accumulators summed over ranks. Zero at every
    /// interval boundary (the exchange drains them), but restored
    /// faithfully: the whole sum goes to rank 0, zeros elsewhere, which
    /// reproduces the same reduction result bit-for-bit.
    pub acc_total: OceanForcing,
    pub acc_shared: OceanForcing,
    pub acc_seconds: f64,
    pub fw_oneshot: Field2,
    /// Root exchange bookkeeping: current SST and its sequence number.
    pub exchange: ExchangeBuffers,
    pub mean_sst_series: Vec<f64>,
    pub month_acc: Option<(Field2, usize)>,
    /// Streaming-statistics state (section `driver/stream`; `None` for
    /// snapshots written before the section existed or by runs without
    /// [`FoamConfig::stream`]).
    pub stream: Option<DriverStream>,
    /// Per-shard `(j0, j1, work)` physics work counters.
    pub work_rows: Vec<(usize, usize, usize)>,
    pub ocean: OceanState,
}

/// Root-only extras of an atmosphere shard.
pub(crate) struct RootShardExtras<'a> {
    pub exchange: ExchangeBuffers,
    pub log: &'a RootLog,
}

fn mode_code(m: CouplingMode) -> u64 {
    match m {
        CouplingMode::Lagged => 0,
        CouplingMode::Sequential => 1,
    }
}

fn scheme_code(s: SplitScheme) -> u64 {
    match s {
        SplitScheme::FoamSplit => 0,
        SplitScheme::Unsplit => 1,
    }
}

/// The configuration facts a snapshot must agree on to be resumable:
/// grid shapes, truncation, level counts, subcycling, coupling scheme.
fn config_dims(cfg: &FoamConfig) -> Vec<u64> {
    vec![
        cfg.atm.nlon as u64,
        cfg.atm.nlat as u64,
        cfg.atm.m_max as u64,
        cfg.atm.nlev_phys as u64,
        cfg.ocean.nx as u64,
        cfg.ocean.ny as u64,
        cfg.ocean.nz as u64,
        cfg.ocean.n_trac as u64,
        mode_code(cfg.coupling),
        scheme_code(cfg.ocean_scheme),
    ]
}

/// Timestep facts, compared bitwise.
fn config_dts(cfg: &FoamConfig) -> Vec<f64> {
    vec![
        cfg.atm.dt,
        cfg.dt_couple,
        cfg.ocean.dt_int,
        cfg.ocean.slowdown,
    ]
}

/// Write one atmosphere rank's shard into the staging directory.
pub(crate) fn write_atm_shard(
    dir: &Path,
    rank: usize,
    atm: &AtmStepper,
    root: Option<RootShardExtras<'_>>,
) -> Result<(), CkptError> {
    // Timed by the caller's "checkpoint" scope (the rendezvous).
    let cells = atm.cells();
    let cs = &atm.coupler_state;
    let mut w = SnapshotWriter::new();
    w.put("meta/role", &"atm".to_string());
    w.put("meta/rank", &rank);
    w.put("meta/rows", &atm.rows());
    w.put("atm/state", &atm.state);
    w.put("atm/export", &atm.export);
    w.put("coupler/soil", &cs.soil[cells.clone()].to_vec());
    w.put("coupler/bucket", &cs.bucket[cells.clone()].to_vec());
    w.put("coupler/ice_col", &cs.ice_col[cells].to_vec());
    w.put("coupler/acc", &cs.acc);
    w.put("driver/work", &atm.work());
    if let Some(r) = root {
        w.put("coupler/river", &cs.river);
        w.put("coupler/ice", &cs.ice);
        w.put("coupler/acc_shared", &cs.acc_shared);
        w.put("coupler/acc_seconds", &cs.acc_seconds);
        w.put("coupler/fw_oneshot", &cs.fw_oneshot);
        w.put("exchange", &r.exchange);
        w.put("driver/series", &r.log.mean_sst_series);
        w.put("driver/month_acc", &r.log.month_acc);
        w.put("driver/stream", &r.log.stream);
    }
    let path = CheckpointStore::shard_path(dir, rank);
    w.write_atomic(&path)?;
    count_shard_bytes(&path);
    Ok(())
}

/// Record a written shard's size in the telemetry counters (no-op when
/// telemetry is off or the file cannot be stat'ed).
fn count_shard_bytes(path: &Path) {
    if foam_telemetry::installed() {
        foam_telemetry::count("ckpt.shards_written", 1);
        if let Ok(meta) = std::fs::metadata(path) {
            foam_telemetry::count("ckpt.bytes_written", meta.len());
        }
    }
}

/// Write the ocean rank's shard into the staging directory.
pub(crate) fn write_ocean_shard(
    dir: &Path,
    rank: usize,
    state: &OceanState,
    completed: usize,
) -> Result<(), CkptError> {
    let _t = foam_telemetry::scope("checkpoint");
    let mut w = SnapshotWriter::new();
    w.put("meta/role", &"ocean".to_string());
    w.put("meta/rank", &rank);
    w.put("ocean/state", state);
    w.put("ocean/completed", &completed);
    let path = CheckpointStore::shard_path(dir, rank);
    w.write_atomic(&path)?;
    count_shard_bytes(&path);
    Ok(())
}

/// Write the manifest — always last, so its presence marks a complete
/// snapshot.
pub(crate) fn write_manifest(
    dir: &Path,
    cfg: &FoamConfig,
    interval: usize,
    n_atm_ranks: usize,
) -> Result<(), CkptError> {
    let mut w = SnapshotWriter::new();
    w.put("manifest/interval", &(interval as u64));
    w.put("manifest/n_atm_ranks", &n_atm_ranks);
    w.put("manifest/dims", &config_dims(cfg));
    w.put("manifest/dts", &config_dts(cfg));
    // Scenario facts the resumed trajectory depends on: the forcing
    // series (`Codec`-encoded breakpoints) and the static radiative
    // scenario knobs. Kept out of `manifest/dts` so snapshots written
    // before scenarios existed stay loadable (see `load_snapshot`'s
    // absent-tolerant check).
    w.put("manifest/forcings", &cfg.forcings);
    w.put("manifest/scenario_statics", &scenario_statics(cfg));
    w.write_atomic(&CheckpointStore::manifest_path(dir))
}

/// Static scenario knobs compared bitwise on resume (like
/// `config_dts`): solar scale, aerosol optical depth, obliquity.
fn scenario_statics(cfg: &FoamConfig) -> Vec<f64> {
    vec![
        cfg.atm.physics.rad.solar_scale,
        cfg.atm.physics.rad.aerosol_od,
        cfg.atm.physics.obliquity_deg,
    ]
}

/// One decoded atmosphere shard, prior to stitching.
struct AtmShard {
    rows: (usize, usize),
    state: AtmState,
    export: AtmExport,
    soil: Vec<SoilColumn>,
    bucket: Vec<Bucket>,
    ice_col: Vec<SoilColumn>,
    acc: OceanForcing,
    work: usize,
    is_root: bool,
    snap: Snapshot,
}

fn field_dims_ok(f: &Field2, nx: usize, ny: usize) -> bool {
    f.nx() == nx && f.ny() == ny
}

/// Load one committed (or staged) snapshot directory, verifying it
/// against `cfg` and stitching the shards into full-grid state.
pub fn load_snapshot(dir: &Path, cfg: &FoamConfig) -> Result<GlobalSnapshot, CkptError> {
    let manifest = Snapshot::open(&CheckpointStore::manifest_path(dir))?;
    if manifest.get::<Vec<u64>>("manifest/dims")? != config_dims(cfg) {
        return Err(CkptError::ConfigMismatch(
            "snapshot grid/truncation/scheme facts differ from the configuration".into(),
        ));
    }
    let dts = manifest.get::<Vec<f64>>("manifest/dts")?;
    let same_dts = dts.len() == config_dts(cfg).len()
        && dts
            .iter()
            .zip(config_dts(cfg))
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !same_dts {
        return Err(CkptError::ConfigMismatch(
            "snapshot timesteps differ from the configuration".into(),
        ));
    }
    // Scenario forcings are trajectory-determining configuration:
    // resuming a CO₂-ramp snapshot under different forcings (or vice
    // versa) would silently diverge from both experiments. Snapshots
    // that predate the sections count as unforced/present-day.
    let snap_forcings = if manifest.has("manifest/forcings") {
        manifest.get::<Forcings>("manifest/forcings")?
    } else {
        Forcings::default()
    };
    if snap_forcings != cfg.forcings {
        return Err(CkptError::ConfigMismatch(
            "snapshot scenario forcings differ from the configuration".into(),
        ));
    }
    let snap_statics = if manifest.has("manifest/scenario_statics") {
        manifest.get::<Vec<f64>>("manifest/scenario_statics")?
    } else {
        scenario_statics(&FoamConfig::tiny(0)) // the unforced defaults
    };
    let statics_ok = snap_statics.len() == scenario_statics(cfg).len()
        && snap_statics
            .iter()
            .zip(scenario_statics(cfg))
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !statics_ok {
        return Err(CkptError::ConfigMismatch(
            "snapshot solar/aerosol/obliquity settings differ from the configuration".into(),
        ));
    }
    let interval = manifest.get::<u64>("manifest/interval")? as usize;
    let n_atm_then = manifest.get::<usize>("manifest/n_atm_ranks")?;
    if n_atm_then == 0 {
        return Err(CkptError::Corrupt("manifest records zero ranks".into()));
    }

    let (nlon, nlat, nlev) = (cfg.atm.nlon, cfg.atm.nlat, cfg.atm.nlev_phys);
    let (onx, ony) = (cfg.ocean.nx, cfg.ocean.ny);

    // ---- Read and validate the atmosphere shards. --------------------
    let mut shards = Vec::with_capacity(n_atm_then);
    for rank in 0..n_atm_then {
        let snap = Snapshot::open(&CheckpointStore::shard_path(dir, rank))?;
        if snap.get::<String>("meta/role")? != "atm" {
            return Err(CkptError::Corrupt(format!(
                "shard {rank} does not carry an atmosphere role"
            )));
        }
        let rows = snap.get::<(usize, usize)>("meta/rows")?;
        let (j0, j1) = rows;
        if j0 >= j1 || j1 > nlat {
            return Err(CkptError::Corrupt(format!(
                "shard {rank} rows {j0}..{j1} outside 0..{nlat}"
            )));
        }
        let nloc = (j1 - j0) * nlon;
        let state = snap.get::<AtmState>("atm/state")?;
        let export = snap.get::<AtmExport>("atm/export")?;
        let dims_ok = state.t.len() == nlev
            && state.q.len() == nlev
            && state.rad.len() == nloc
            && state.t.iter().all(|f| field_dims_ok(f, nlon, j1 - j0))
            && state.q.iter().all(|f| field_dims_ok(f, nlon, j1 - j0))
            && field_dims_ok(&export.t_low, nlon, j1 - j0)
            && export.work.len() == nloc;
        if !dims_ok {
            return Err(CkptError::Corrupt(format!(
                "shard {rank} field shapes disagree with the configuration"
            )));
        }
        let soil = snap.get::<Vec<SoilColumn>>("coupler/soil")?;
        let bucket = snap.get::<Vec<Bucket>>("coupler/bucket")?;
        let ice_col = snap.get::<Vec<SoilColumn>>("coupler/ice_col")?;
        if soil.len() != nloc || bucket.len() != nloc || ice_col.len() != nloc {
            return Err(CkptError::Corrupt(format!(
                "shard {rank} coupler stores have the wrong length"
            )));
        }
        let acc = snap.get::<OceanForcing>("coupler/acc")?;
        if !field_dims_ok(&acc.heat, onx, ony) {
            return Err(CkptError::Corrupt(format!(
                "shard {rank} forcing accumulator is not on the ocean grid"
            )));
        }
        let work = snap.get::<usize>("driver/work")?;
        shards.push(AtmShard {
            rows,
            state,
            export,
            soil,
            bucket,
            ice_col,
            acc,
            work,
            is_root: rank == 0,
            snap,
        });
    }
    shards.sort_by_key(|s| s.rows.0);
    let tiles = shards.first().map(|s| s.rows.0) == Some(0)
        && shards.last().map(|s| s.rows.1) == Some(nlat)
        && shards.windows(2).all(|w| w[0].rows.1 == w[1].rows.0);
    if !tiles {
        return Err(CkptError::Corrupt(
            "atmosphere shards do not tile the latitude rows".into(),
        ));
    }

    // ---- Stitch: shards are sorted by row start and contiguous, and
    //      Field2 is row-major, so concatenating row blocks in order
    //      reassembles every full-grid vector directly. ----------------
    let stitch_levels = |pick: fn(&AtmShard) -> &Vec<Field2>| -> Vec<Field2> {
        (0..nlev)
            .map(|k| {
                let mut data = Vec::with_capacity(nlon * nlat);
                for s in &shards {
                    data.extend_from_slice(pick(s)[k].as_slice());
                }
                Field2::from_vec(nlon, nlat, data)
            })
            .collect()
    };
    let stitch_field = |pick: fn(&AtmShard) -> &Field2| -> Field2 {
        let mut data = Vec::with_capacity(nlon * nlat);
        for s in &shards {
            data.extend_from_slice(pick(s).as_slice());
        }
        Field2::from_vec(nlon, nlat, data)
    };

    let atm_t = stitch_levels(|s| &s.state.t);
    let atm_q = stitch_levels(|s| &s.state.q);
    let atm_rad: Vec<RadCache> = shards
        .iter()
        .flat_map(|s| s.state.rad.iter().cloned())
        .collect();
    let export = AtmExport {
        t_low: stitch_field(|s| &s.export.t_low),
        q_low: stitch_field(|s| &s.export.q_low),
        u_low: stitch_field(|s| &s.export.u_low),
        v_low: stitch_field(|s| &s.export.v_low),
        precip: stitch_field(|s| &s.export.precip),
        sw_sfc: stitch_field(|s| &s.export.sw_sfc),
        lw_down: stitch_field(|s| &s.export.lw_down),
        cloud: stitch_field(|s| &s.export.cloud),
        work: shards
            .iter()
            .flat_map(|s| s.export.work.iter().copied())
            .collect(),
    };
    let soil: Vec<SoilColumn> = shards.iter().flat_map(|s| s.soil.iter().cloned()).collect();
    let bucket: Vec<Bucket> = shards
        .iter()
        .flat_map(|s| s.bucket.iter().cloned())
        .collect();
    let ice_col: Vec<SoilColumn> = shards
        .iter()
        .flat_map(|s| s.ice_col.iter().cloned())
        .collect();
    let mut acc_total = OceanForcing {
        tau_x: Field2::zeros(onx, ony),
        tau_y: Field2::zeros(onx, ony),
        heat: Field2::zeros(onx, ony),
        freshwater: Field2::zeros(onx, ony),
    };
    for s in &shards {
        acc_total.tau_x.axpy(1.0, &s.acc.tau_x);
        acc_total.tau_y.axpy(1.0, &s.acc.tau_y);
        acc_total.heat.axpy(1.0, &s.acc.heat);
        acc_total.freshwater.axpy(1.0, &s.acc.freshwater);
    }
    let work_rows: Vec<(usize, usize, usize)> = shards
        .iter()
        .map(|s| (s.rows.0, s.rows.1, s.work))
        .collect();

    // ---- Root-held and replicated sections. --------------------------
    let root = shards
        .iter()
        .find(|s| s.is_root)
        .ok_or_else(|| CkptError::Corrupt("no rank-0 atmosphere shard".into()))?;
    let qg = root.state.qg.clone();
    let river = root.snap.get::<RiverState>("coupler/river")?;
    let ice = root.snap.get::<Vec<bool>>("coupler/ice")?;
    let acc_shared = root.snap.get::<OceanForcing>("coupler/acc_shared")?;
    let acc_seconds = root.snap.get::<f64>("coupler/acc_seconds")?;
    let fw_oneshot = root.snap.get::<Field2>("coupler/fw_oneshot")?;
    let exchange = root.snap.get::<ExchangeBuffers>("exchange")?;
    // Sections are read by name, so the retained monthly history an
    // older snapshot carries (`driver/monthly`) is simply never read.
    let mean_sst_series = root.snap.get::<Vec<f64>>("driver/series")?;
    let month_acc = root
        .snap
        .get::<Option<(Field2, usize)>>("driver/month_acc")?;
    // Older snapshots predate the streaming-statistics section; they
    // remain loadable, the stream just restarts from the resume point.
    let stream = if root.snap.has("driver/stream") {
        root.snap.get::<Option<DriverStream>>("driver/stream")?
    } else {
        None
    };
    if !field_dims_ok(&exchange.sst, onx, ony) || !field_dims_ok(&fw_oneshot, onx, ony) {
        return Err(CkptError::Corrupt(
            "root shard ocean-grid fields have the wrong shape".into(),
        ));
    }

    // ---- The ocean shard. --------------------------------------------
    let osnap = Snapshot::open(&CheckpointStore::shard_path(dir, n_atm_then))?;
    if osnap.get::<String>("meta/role")? != "ocean" {
        return Err(CkptError::Corrupt(
            "the last shard does not carry the ocean role".into(),
        ));
    }
    let ocean = osnap.get::<OceanState>("ocean/state")?;
    let completed = osnap.get::<usize>("ocean/completed")?;
    if completed != interval {
        return Err(CkptError::Corrupt(format!(
            "ocean completed {completed} intervals but the manifest says {interval}"
        )));
    }
    let ocean_ok = ocean.t.len() == cfg.ocean.nz
        && ocean.t.iter().all(|f| field_dims_ok(f, onx, ony))
        && field_dims_ok(&ocean.baro.eta, onx, ony);
    if !ocean_ok {
        return Err(CkptError::Corrupt(
            "ocean shard field shapes disagree with the configuration".into(),
        ));
    }

    Ok(GlobalSnapshot {
        interval,
        qg,
        atm_t,
        atm_q,
        atm_rad,
        atm_sim_t: root.state.sim_t,
        atm_step_count: root.state.step_count,
        export,
        soil,
        bucket,
        ice_col,
        river,
        ice,
        acc_total,
        acc_shared,
        acc_seconds,
        fw_oneshot,
        exchange,
        mean_sst_series,
        month_acc,
        stream,
        work_rows,
        ocean,
    })
}

/// Load the newest snapshot that verifies, walking older candidates on
/// corruption — the fallback that makes `ckpt_keep > 1` useful.
pub fn load_latest(store: &CheckpointStore, cfg: &FoamConfig) -> Result<GlobalSnapshot, CkptError> {
    let mut last_err = CkptError::NoCheckpoint;
    for (_, dir) in store.candidates()? {
        match load_snapshot(&dir, cfg) {
            Ok(s) => return Ok(s),
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

/// The newest readable snapshot under `cfg.ckpt.dir`; `Ok(None)` when no
/// directory is configured or the store holds no checkpoint at all (a
/// fresh start, not a fault).
pub(crate) fn latest_for(cfg: &FoamConfig) -> Result<Option<GlobalSnapshot>, CkptError> {
    let Some(dir) = cfg.ckpt.dir.as_deref() else {
        return Ok(None);
    };
    match load_latest(&CheckpointStore::open(dir)?, cfg) {
        Ok(snap) => Ok(Some(snap)),
        Err(CkptError::NoCheckpoint) => Ok(None),
        Err(e) => Err(e),
    }
}

fn rows_of(f: &Field2, j0: usize, j1: usize) -> Field2 {
    let nx = f.nx();
    Field2::from_vec(nx, j1 - j0, f.as_slice()[j0 * nx..j1 * nx].to_vec())
}

impl GlobalSnapshot {
    /// This rank's slice of the atmosphere state (rows `j0..j1`).
    pub(crate) fn atm_state_for_rows(&self, j0: usize, j1: usize) -> AtmState {
        let nlon = self.export.t_low.nx();
        AtmState {
            qg: self.qg.clone(),
            t: self.atm_t.iter().map(|f| rows_of(f, j0, j1)).collect(),
            q: self.atm_q.iter().map(|f| rows_of(f, j0, j1)).collect(),
            rad: self.atm_rad[j0 * nlon..j1 * nlon].to_vec(),
            sim_t: self.atm_sim_t,
            step_count: self.atm_step_count,
        }
    }

    /// This rank's slice of the last atmosphere export.
    pub(crate) fn export_for_rows(&self, j0: usize, j1: usize) -> AtmExport {
        let nlon = self.export.t_low.nx();
        AtmExport {
            t_low: rows_of(&self.export.t_low, j0, j1),
            q_low: rows_of(&self.export.q_low, j0, j1),
            u_low: rows_of(&self.export.u_low, j0, j1),
            v_low: rows_of(&self.export.v_low, j0, j1),
            precip: rows_of(&self.export.precip, j0, j1),
            sw_sfc: rows_of(&self.export.sw_sfc, j0, j1),
            lw_down: rows_of(&self.export.lw_down, j0, j1),
            cloud: rows_of(&self.export.cloud, j0, j1),
            work: self.export.work[j0 * nlon..j1 * nlon].to_vec(),
        }
    }

    /// The coupler state for one rank. The stores are full-length on
    /// every rank (each touches only its rows); the row-local forcing
    /// accumulator total goes to the owner (atmosphere rank 0), zeros
    /// elsewhere, so the restart reduction reproduces the same sum.
    pub(crate) fn coupler_state_for_rank(&self, acc_owner: bool) -> CouplerState {
        let (onx, ony) = (self.fw_oneshot.nx(), self.fw_oneshot.ny());
        let acc = if acc_owner {
            self.acc_total.clone()
        } else {
            OceanForcing {
                tau_x: Field2::zeros(onx, ony),
                tau_y: Field2::zeros(onx, ony),
                heat: Field2::zeros(onx, ony),
                freshwater: Field2::zeros(onx, ony),
            }
        };
        CouplerState {
            soil: self.soil.clone(),
            bucket: self.bucket.clone(),
            river: self.river.clone(),
            ice: self.ice.clone(),
            ice_col: self.ice_col.clone(),
            acc,
            acc_shared: self.acc_shared.clone(),
            acc_seconds: self.acc_seconds,
            fw_oneshot: self.fw_oneshot.clone(),
        }
    }

    /// The restored physics-work counter for one rank: exact when the
    /// rank count matches the snapshot's, otherwise the total lands on
    /// rank 0 (the per-rank split is a diagnostic, not model state).
    pub(crate) fn work_for_rank(&self, rank: usize, n_ranks: usize) -> usize {
        if self.work_rows.len() == n_ranks {
            self.work_rows[rank].2
        } else if rank == 0 {
            self.work_rows.iter().map(|w| w.2).sum()
        } else {
            0
        }
    }
}
