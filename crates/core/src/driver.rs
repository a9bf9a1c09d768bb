//! The coupled SPMD driver: N atmosphere ranks (with the coupler
//! co-located, as in the paper) plus one ocean rank.
//!
//! Rank layout (world communicator):
//! * ranks `0 .. n_atm` — atmosphere + coupler,
//! * rank `n_atm` — ocean.
//!
//! Exchange protocol (tags on the world communicator, defined in
//! [`foam_coupler::tags`]):
//! * the ocean sends the initial SST, then loops
//!   `recv forcing → integrate one coupling interval → send SST`;
//! * in **lagged** mode the atmosphere posts its forcing and only
//!   collects the SST produced from the *previous* forcing after it has
//!   finished its own next interval — so the single ocean node works
//!   concurrently with all the atmosphere nodes (the overlap visible in
//!   the paper's Figure 2, where "one ocean processor has no difficulty
//!   keeping up with 16 atmosphere processors");
//! * in **sequential** mode (the CSM-like baseline) the atmosphere
//!   blocks on the SST immediately.
//!
//! # Failure semantics
//!
//! Every exchange message carries a sequence number (forcings count
//! coupling intervals, SSTs count completed ocean integrations), which
//! makes the protocol idempotent: duplicates and stale retransmissions
//! are recognized and ignored. When the atmosphere root's SST receive
//! misses its deadline ([`crate::RuntimeConfig::sst_retry_timeout_secs`])
//! it sends a `TAG_SST_RETRY` NACK and backs off exponentially; the
//! ocean answers by retransmitting its latest SST. A stale answer tells
//! the root the *forcing* was lost, and it retransmits that instead. An
//! exhausted retry budget aborts the run with a typed
//! [`CoupledError`] — broadcast to the other atmosphere ranks and
//! signalled to the ocean via the `TAG_DONE` handshake — rather than
//! panicking or hanging. The same handshake ends clean runs: the root's
//! final drain of retransmitted duplicates is what lets the runtime's
//! teardown comm-lint come back clean even for faulty runs that
//! recovered.

use std::path::{Path, PathBuf};
use std::time::Duration;

use foam_atm::{AtmExport, AtmForcing, AtmModel, AtmState, AtmWorkspace};
use foam_ckpt::{CheckpointStore, CkptError, FaultyStore};
use foam_coupler::tags::{TAG_CKPT, TAG_DONE, TAG_FORCING, TAG_SST, TAG_SST_RETRY};
use foam_coupler::{AtmSurfaceView, Coupler, CouplerState, CouplerWorkspace, ExchangeBuffers};
use foam_grid::constants::SECONDS_PER_DAY;
use foam_grid::{Field2, OceanGrid, World};
use foam_mpi::{Backoff, Comm, CommLint, RankTrace, RunConfig, Universe};
use foam_ocean::{OceanForcing, OceanModel, SplitScheme};
use foam_telemetry::{TelemetryRegistry, TelemetryReport};

use crate::checkpoint::{self, GlobalSnapshot, RootShardExtras};
use crate::config::{
    ConfigError, CouplingMode, FoamConfig, PhysicsFaultKind, RuntimeConfig, SentinelConfig,
};
use crate::observer::{ProgressEvent, RunObserver};
use crate::stream::{sea_area_weights, DriverStream};

/// Kelvin → Celsius offset for the soil-temperature sentinel (soil
/// columns integrate in K, the sentinel bounds are configured in °C).
const KELVIN_OFFSET: f64 = 273.15;

/// How long the root waits for the ocean's checkpoint acknowledgement
/// before abandoning the snapshot attempt (never the run) \[s\].
const CKPT_ACK_TIMEOUT_SECS: f64 = 30.0;

/// Typed failure of a coupled run — the graceful alternative to a
/// panicking (or silently hanging) exchange.
#[derive(Debug, Clone, PartialEq)]
pub enum CoupledError {
    /// The atmosphere root exhausted its retry budget waiting for the
    /// SST with sequence number `expected_seq`.
    SstExchange { expected_seq: usize, retries: u32 },
    /// This rank was told by the root that the run is aborting.
    Aborted,
    /// The configuration failed [`FoamConfig::validate`].
    Config(ConfigError),
    /// Checkpointing or restarting failed (no readable snapshot, a
    /// mismatched configuration, an unwritable store).
    Ckpt(CkptError),
    /// The end-of-run telemetry report could not be written to the
    /// configured path. ([`FoamConfig::validate`] catches a missing
    /// parent directory up front; this covers failures at write time.)
    TelemetryWrite { path: PathBuf, error: String },
    /// A rank died mid-run (a panic, or an injected
    /// [`crate::RankKill`]). The surviving ranks were quiesced by the
    /// runtime, so the job tore down promptly instead of hanging.
    RankDead { rank: usize, detail: String },
    /// The physics sentinel found a non-finite or out-of-range value in
    /// a coupled field ([`crate::SentinelConfig`]) — the model blew up,
    /// but the last on-trajectory checkpoint predates the poison, so
    /// the run is resumable.
    Sentinel {
        /// Coupling interval at which the sentinel tripped.
        interval: usize,
        /// Which field tripped it (`"sst"` or `"soil"`).
        field: &'static str,
        /// The offending value (°C; may be NaN or ±inf).
        value: f64,
    },
    /// An internal invariant failed after the SPMD region completed —
    /// "impossible" states surfaced as data instead of a panic.
    Internal { what: String },
}

impl std::fmt::Display for CoupledError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoupledError::SstExchange {
                expected_seq,
                retries,
            } => write!(
                f,
                "SST exchange failed: sequence {expected_seq} never arrived after {retries} retries"
            ),
            CoupledError::Aborted => write!(f, "run aborted by the atmosphere root"),
            CoupledError::Config(e) => write!(f, "invalid configuration: {e}"),
            CoupledError::Ckpt(e) => write!(f, "checkpoint failure: {e}"),
            CoupledError::TelemetryWrite { path, error } => {
                write!(
                    f,
                    "failed to write the telemetry report to {}: {error}",
                    path.display()
                )
            }
            CoupledError::RankDead { rank, detail } => {
                write!(f, "rank {rank} died mid-run: {detail}")
            }
            CoupledError::Sentinel {
                interval,
                field,
                value,
            } => write!(
                f,
                "physics sentinel tripped at coupling interval {interval}: {field} = {value}"
            ),
            CoupledError::Internal { what } => {
                write!(f, "internal driver invariant failed: {what}")
            }
        }
    }
}

impl std::error::Error for CoupledError {}

impl From<ConfigError> for CoupledError {
    fn from(e: ConfigError) -> Self {
        CoupledError::Config(e)
    }
}

impl From<CkptError> for CoupledError {
    fn from(e: CkptError) -> Self {
        CoupledError::Ckpt(e)
    }
}

/// Results of a coupled run.
#[derive(Debug)]
pub struct CoupledOutput {
    /// Simulated span \[s\].
    pub sim_seconds: f64,
    /// Wall-clock span of the integration \[s\].
    pub wall_seconds: f64,
    /// The paper's headline metric: simulated time per wall-clock time.
    pub model_speedup: f64,
    /// Area-mean SST after each coupling interval \[°C\].
    pub mean_sst_series: Vec<f64>,
    /// Monthly-mean SST fields (ocean grid), if collection was enabled.
    pub monthly_sst: Vec<Field2>,
    /// SST at the end of the run.
    pub final_sst: Field2,
    /// Sea-ice fraction of the ocean area at the end.
    pub ice_fraction: f64,
    /// Per-rank activity traces; each carries per-tag comm statistics
    /// (always collected, segments only when tracing was enabled).
    pub traces: Vec<RankTrace>,
    /// Teardown report of the message-passing runtime: leaked messages,
    /// tag imbalances, expired deadlines.
    pub comm_lint: CommLint,
    /// Total physics work units per atmosphere rank (load balance).
    pub work_per_rank: Vec<usize>,
    /// The cross-rank telemetry report (phase breakdown, counters,
    /// model speedup), when [`crate::TelemetryConfig`] enabled
    /// collection.
    pub telemetry: Option<TelemetryReport>,
    /// Streaming per-month SST statistics, when [`crate::FoamConfig`]'s
    /// `stream` was set — the `O(grid)` century-scale replacement for
    /// `monthly_sst`.
    pub stream: Option<DriverStream>,
}

impl CoupledOutput {
    /// Area-mean SST after the last completed coupling interval, or
    /// `None` if the run completed no interval — the panic-free
    /// alternative to `mean_sst_series.last().unwrap()`.
    pub fn final_mean_sst(&self) -> Option<f64> {
        self.mean_sst_series.last().copied()
    }
}

/// Per-rank result carried out of the SPMD closure.
#[derive(Debug, Default, Clone)]
struct RankResult {
    mean_sst_series: Vec<f64>,
    monthly_sst: Vec<Field2>,
    final_sst: Option<Field2>,
    wall_seconds: f64,
    work: usize,
    /// This rank's harvested registry (boxed: it is much larger than the
    /// rest of the struct and absent unless telemetry is enabled).
    telemetry: Option<Box<TelemetryRegistry>>,
    /// Root-only streaming statistics (when configured).
    stream: Option<DriverStream>,
}

/// The baseline ("CSM-like") variant of a configuration: identical
/// physics with FOAM's two throughput devices removed — sequential
/// coupling and the unsplit gravity-wave-limited ocean (experiment T2).
pub fn baseline_config(cfg: &FoamConfig) -> FoamConfig {
    let mut c = cfg.clone();
    c.coupling = CouplingMode::Sequential;
    c.ocean_scheme = SplitScheme::Unsplit;
    c
}

/// Run the coupled model for `days` simulated days, panicking on a
/// communication failure (see [`try_run_coupled`] for the fallible
/// form).
pub fn run_coupled(cfg: &FoamConfig, days: f64) -> CoupledOutput {
    match try_run_coupled(cfg, days) {
        Ok(out) => out,
        Err(e) => panic!("coupled run failed: {e}"),
    }
}

/// Run the coupled model for `days` simulated days. Communication
/// failures that survive the retry protocol surface as a typed
/// [`CoupledError`]; every rank (including the ocean) shuts down
/// cleanly first, so the returned error is accompanied by an orderly
/// teardown rather than a poisoned job.
pub fn try_run_coupled(cfg: &FoamConfig, days: f64) -> Result<CoupledOutput, CoupledError> {
    cfg.validate()?;
    validate_days(days)?;
    run_inner(cfg, days, None, None)
}

/// [`try_run_coupled`] with a live [`RunObserver`]: the root rank
/// reports each completed coupling interval and polls for
/// cancellation. Observation is read-only — the simulated bits are
/// identical with or without an observer attached.
pub fn try_run_coupled_observed(
    cfg: &FoamConfig,
    days: f64,
    obs: &dyn RunObserver,
) -> Result<CoupledOutput, CoupledError> {
    cfg.validate()?;
    validate_days(days)?;
    run_inner(cfg, days, None, Some(obs))
}

/// A zero-day (or negative, or NaN) run would integrate nothing and
/// hand back an empty `mean_sst_series` that downstream diagnostics
/// trip over — reject it up front as a typed error instead.
fn validate_days(days: f64) -> Result<(), CoupledError> {
    if days > 0.0 && days.is_finite() {
        Ok(())
    } else {
        Err(CoupledError::Config(ConfigError::NonPositive {
            what: "days",
            value: days,
        }))
    }
}

/// Resume the coupled model from the newest readable checkpoint under
/// `cfg.ckpt.dir`, then integrate until `days` *total* simulated days
/// (counted from the original start, like the diagnostics series, which
/// continue seamlessly). Snapshots that fail verification — truncated
/// files, checksum mismatches, wrong versions — are skipped in favor of
/// the next-older retained one; if none is readable the error of the
/// newest candidate is returned.
///
/// A restart on the same rank count is bit-identical to the
/// uninterrupted run: the snapshot stores raw IEEE-754 bits and is taken
/// at a coupling-interval boundary on the failure-free trajectory. A
/// restart on a *different* rank count resumes the same model state but
/// reassociates the forcing reduction, so it matches only to rounding.
pub fn try_resume_coupled(cfg: &FoamConfig, days: f64) -> Result<CoupledOutput, CoupledError> {
    cfg.validate()?;
    validate_days(days)?;
    let dir = cfg
        .ckpt
        .dir
        .as_deref()
        .ok_or(CoupledError::Ckpt(CkptError::NoCheckpoint))?;
    let store = CheckpointStore::open(dir)?;
    let snap = checkpoint::load_latest(&store, cfg)?;
    run_inner(cfg, days, Some(snap), None)
}

/// [`try_resume_coupled`] with a live [`RunObserver`] (see
/// [`try_run_coupled_observed`]). Progress events resume from the
/// snapshot's interval.
pub fn try_resume_coupled_observed(
    cfg: &FoamConfig,
    days: f64,
    obs: &dyn RunObserver,
) -> Result<CoupledOutput, CoupledError> {
    cfg.validate()?;
    validate_days(days)?;
    let dir = cfg
        .ckpt
        .dir
        .as_deref()
        .ok_or(CoupledError::Ckpt(CkptError::NoCheckpoint))?;
    let store = CheckpointStore::open(dir)?;
    let snap = checkpoint::load_latest(&store, cfg)?;
    run_inner(cfg, days, Some(snap), Some(obs))
}

/// Validate-then-run, fresh start, optional observer — the shape the
/// supervisor needs for its restart attempts.
pub(crate) fn run_validated(
    cfg: &FoamConfig,
    days: f64,
    obs: Option<&dyn RunObserver>,
) -> Result<CoupledOutput, CoupledError> {
    cfg.validate()?;
    validate_days(days)?;
    run_inner(cfg, days, None, obs)
}

/// Number of coupling intervals a `days`-day run of `cfg` integrates
/// (the loop bound of the exchange protocol; shared with the run
/// supervisor so it can tell "resumable checkpoint" from "checkpoint
/// already at the end of the run").
pub(crate) fn n_couple_for(cfg: &FoamConfig, days: f64) -> usize {
    ((days * SECONDS_PER_DAY) / cfg.dt_couple).round().max(1.0) as usize
}

pub(crate) fn run_inner(
    cfg: &FoamConfig,
    days: f64,
    resume: Option<GlobalSnapshot>,
    obs: Option<&dyn RunObserver>,
) -> Result<CoupledOutput, CoupledError> {
    let n_couple = n_couple_for(cfg, days);
    if let Some(snap) = &resume {
        if snap.interval >= n_couple {
            return Err(CoupledError::Ckpt(CkptError::ConfigMismatch(format!(
                "checkpoint already at interval {} of a {n_couple}-interval run",
                snap.interval
            ))));
        }
    }
    // Surface an unusable checkpoint root as a typed error up front,
    // before ranks silently run without snapshots.
    if let Some(dir) = &cfg.ckpt.dir {
        CheckpointStore::open(dir)?;
    }
    let n_atm = cfg.n_atm_ranks;
    let run_cfg = RunConfig {
        tracing: cfg.tracing,
        deadline: cfg.runtime.recv_deadline_secs.map(Duration::from_secs_f64),
        faults: cfg.runtime.fault_plan.clone(),
    };
    let start_c = resume.as_ref().map(|s| s.interval).unwrap_or(0);
    let collect_telemetry = cfg.telemetry.collect();
    let resume_ref = resume.as_ref();
    let out = Universe::try_run_cfg(cfg.n_ranks(), run_cfg, |world| {
        // Each rank is one OS thread, so a thread-local registry is a
        // per-rank registry. Harvest on both the success and the error
        // path so a reused thread never inherits stale state.
        if collect_telemetry {
            foam_telemetry::install(TelemetryRegistry::new(world.rank()));
        }
        let result = if world.rank() < n_atm {
            atm_rank(cfg, world, n_couple, resume_ref, obs)
        } else {
            ocean_rank(cfg, world, resume_ref)
        };
        let telemetry = foam_telemetry::harvest().map(Box::new);
        result.map(|mut res| {
            res.telemetry = telemetry;
            res
        })
    })
    // A rank that panicked (organically or via an injected
    // `RankKill`) surfaces as a typed error instead of re-raising the
    // panic; the runtime already quiesced the survivors.
    .map_err(|failure| CoupledError::RankDead {
        rank: failure.rank,
        detail: failure.detail,
    })?;
    // The root's error is the authoritative one; others only report
    // the abort it broadcast.
    let mut results = out.results;
    let mut regs: Vec<TelemetryRegistry> = results
        .iter_mut()
        .filter_map(|r| r.as_mut().ok().and_then(|res| res.telemetry.take()))
        .map(|b| *b)
        .collect();
    let r0 = results.remove(0)?;
    let mut work_per_rank = vec![r0.work];
    for r in results.drain(..n_atm - 1) {
        work_per_rank.push(r?.work);
    }
    results.remove(0)?; // the ocean rank
    let sim_seconds = n_couple as f64 * cfg.dt_couple;
    let wall = r0.wall_seconds.max(1e-9);
    let final_sst = r0.final_sst.ok_or_else(|| CoupledError::Internal {
        what: "rank 0 completed without producing a final SST".to_string(),
    })?;
    // Ice fraction diagnosed from the clamp on the final field.
    let world_obj = World::earthlike();
    let mask = OceanModel::effective_sea_mask(&cfg.ocean, &world_obj);
    let icy: Vec<f64> = final_sst
        .as_slice()
        .iter()
        .map(|&t| {
            if t <= foam_grid::constants::SEAWATER_FREEZE_C + 1e-6 {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    let grid = foam_grid::OceanGrid::mercator(cfg.ocean.nx, cfg.ocean.ny, cfg.ocean.lat_max_deg);
    let ice_fraction = grid.masked_mean(&icy, &mask);
    let telemetry = if collect_telemetry {
        // Fold each rank's communication counters (collected by the
        // runtime regardless of telemetry) into its registry, so the
        // report carries messages/bytes/waits per protocol tag.
        for reg in &mut regs {
            if let Some(t) = out.traces.iter().find(|t| t.rank == reg.rank()) {
                fold_comm_stats(reg, &t.stats);
            }
        }
        // The speedup window is what this run actually integrated — a
        // resumed run is only charged for the intervals after its
        // snapshot.
        let window = (n_couple - start_c) as f64 * cfg.dt_couple;
        let report = TelemetryReport::from_ranks(window, wall, regs);
        if let Some(path) = &cfg.telemetry.path {
            report
                .write_json(path)
                .map_err(|e| CoupledError::TelemetryWrite {
                    path: path.clone(),
                    error: e.to_string(),
                })?;
        }
        Some(report)
    } else {
        None
    };
    Ok(CoupledOutput {
        sim_seconds,
        wall_seconds: wall,
        model_speedup: sim_seconds / wall,
        mean_sst_series: r0.mean_sst_series,
        monthly_sst: r0.monthly_sst,
        final_sst,
        ice_fraction,
        traces: out.traces,
        comm_lint: out.lint,
        work_per_rank,
        telemetry,
        stream: r0.stream,
    })
}

/// Convert one rank's per-tag communication statistics into telemetry
/// counters (`comm.<tag>.msgs_sent`, `.bytes_recvd`, `.wait_us`, ...),
/// using the coupler's protocol names where the tag has one.
fn fold_comm_stats(reg: &mut TelemetryRegistry, stats: &foam_mpi::CommStats) {
    for (&tag, t) in &stats.by_tag {
        let name = foam_coupler::tags::tag_name(tag)
            .map(str::to_string)
            .unwrap_or_else(|| foam_mpi::tag_label(tag).replace(' ', ""));
        let mut put = |what: &str, n: u64| {
            if n > 0 {
                reg.add(&format!("comm.{name}.{what}"), n);
            }
        };
        put("msgs_sent", t.msgs_sent);
        put("msgs_recvd", t.msgs_recvd);
        put("bytes_sent", t.bytes_sent);
        put("bytes_recvd", t.bytes_recvd);
        put("drops_injected", t.injected_drops);
        put("wait_us", (t.wait_seconds * 1e6) as u64);
    }
}

/// Receive the SST with sequence number `expected`, driving the retry
/// protocol: deadline → NACK → exponential backoff; stale answers
/// trigger a forcing retransmission from `recent` (the forcings the
/// root still holds). With `sst_retry_max == 0` this is a plain
/// blocking receive, classic-MPI style.
fn recv_sst(
    world: &Comm,
    rt: &RuntimeConfig,
    ocean: usize,
    expected: usize,
    recent: &[(usize, OceanForcing)],
) -> Result<(usize, Field2), CoupledError> {
    // Time blocked on the exchange (nests under "coupler" when the call
    // comes from inside a coupler region).
    let _t = foam_telemetry::scope("sst_wait");
    if rt.sst_retry_max == 0 {
        loop {
            let (seq, sst): (usize, Field2) = world.recv(ocean, TAG_SST);
            if seq >= expected {
                return Ok((seq, sst));
            }
        }
    }
    let timeout = Duration::from_secs_f64(rt.sst_retry_timeout_secs);
    let backoff = Backoff::new(rt.sst_retry_backoff_secs);
    let mut retries = 0u32;
    loop {
        match world.recv_deadline::<(usize, Field2)>(ocean, TAG_SST, timeout) {
            Ok((seq, sst)) if seq >= expected => return Ok((seq, sst)),
            Ok((stale_seq, _)) => {
                // A retransmission from before the integration we need:
                // the ocean is still waiting for the forcing of interval
                // `stale_seq`. Resend it if we still hold it (the ocean
                // recognizes duplicates by index).
                for f in recent.iter().filter(|(idx, _)| *idx == stale_seq) {
                    world.send(ocean, TAG_FORCING, f.clone());
                }
            }
            Err(_) => {
                if retries >= rt.sst_retry_max {
                    return Err(CoupledError::SstExchange {
                        expected_seq: expected,
                        retries,
                    });
                }
                retries += 1;
                foam_telemetry::count("coupler.sst_retries", 1);
                world.send(ocean, TAG_SST_RETRY, expected);
                std::thread::sleep(backoff.delay(retries));
            }
        }
    }
}

/// Tell the ocean the exchange is over and clear retransmitted
/// duplicates from the mailbox. The ocean's ack is ordered after any
/// SST it sent earlier, so after it arrives the drain leaves nothing
/// behind for teardown lint to flag.
fn shutdown_ocean(world: &Comm, ocean: usize) {
    world.send(ocean, TAG_DONE, ());
    let () = world.recv(ocean, TAG_DONE);
    let _ = world.drain::<(usize, Field2)>(ocean, TAG_SST);
    let _ = world.drain::<(usize, bool)>(ocean, TAG_CKPT);
}

/// Scan a just-received SST field for non-finite or out-of-range
/// sea-cell values. Runs on the root (the one rank that holds the full
/// field) before the SST is accepted, so a blown-up ocean never
/// contaminates the model state, the diagnostics, or a checkpoint.
fn sentinel_sst(
    s: &SentinelConfig,
    sst: &Field2,
    sea_mask: &[bool],
    interval: usize,
) -> Option<CoupledError> {
    if !s.enabled {
        return None;
    }
    for (k, &t) in sst.as_slice().iter().enumerate() {
        if sea_mask[k] && (!t.is_finite() || t < s.sst_min_c || t > s.sst_max_c) {
            return Some(CoupledError::Sentinel {
                interval,
                field: "sst",
                value: t,
            });
        }
    }
    None
}

/// Scan the root's soil-column skin temperatures (handed over in K,
/// checked against the °C bounds) before the root posts its forcing.
/// Scope: the root's latitude rows — the sentinel is a blow-up tripwire,
/// not a global audit, and the SST check above already covers the whole
/// ocean.
fn sentinel_soil(
    s: &SentinelConfig,
    skins_kelvin: impl Iterator<Item = f64>,
    interval: usize,
) -> Option<CoupledError> {
    if !s.enabled {
        return None;
    }
    for t_k in skins_kelvin {
        let t = t_k - KELVIN_OFFSET;
        if !t.is_finite() || t < s.soil_min_c || t > s.soil_max_c {
            return Some(CoupledError::Sentinel {
                interval,
                field: "soil",
                value: t,
            });
        }
    }
    None
}

/// Inject a physics fault ([`crate::PhysicsFault`]) into a received SST
/// field: the first sea cell becomes NaN or a wildly out-of-range
/// value, exactly as a numerically blown-up ocean would hand back.
fn poison_sst(sst: &mut Field2, kind: PhysicsFaultKind, sea_mask: &[bool]) {
    let Some(k) = sea_mask.iter().position(|&m| m) else {
        return;
    };
    sst.as_mut_slice()[k] = match kind {
        PhysicsFaultKind::Nan => f64::NAN,
        PhysicsFaultKind::OutOfRange => 1.0e6,
    };
}

/// Root bookkeeping for one completed coupling interval: the mean-SST
/// series entry and, when either consumer wants months, the
/// monthly-mean accumulation — pushed into the retained history
/// (`collect_monthly`) and/or folded into the streaming statistics. The
/// monthly mean is computed once, so when both paths are on they see
/// bit-identical fields.
#[allow(clippy::too_many_arguments)]
fn record_interval(
    series: &mut Vec<f64>,
    monthly: &mut Vec<Field2>,
    month_acc: &mut Option<(Field2, usize)>,
    stream: &mut Option<DriverStream>,
    sst: &Field2,
    ocn_grid: &OceanGrid,
    sea_mask: &[bool],
    collect_monthly: bool,
    intervals_per_month: usize,
) -> Result<(), CoupledError> {
    series.push(ocn_grid.masked_mean(sst.as_slice(), sea_mask));
    if collect_monthly || stream.is_some() {
        let (acc, n) =
            month_acc.get_or_insert_with(|| (Field2::zeros(ocn_grid.nx, ocn_grid.ny), 0usize));
        acc.axpy(1.0, sst);
        *n += 1;
        if *n == intervals_per_month {
            let mut mean_field = acc.clone();
            mean_field.scale(1.0 / *n as f64);
            if let Some(ds) = stream {
                // Unreachable on a correctly built stream (it was sized
                // from this very grid), but surfaced as data, not a
                // panic.
                ds.push_month(mean_field.as_slice())
                    .map_err(|e| CoupledError::Internal {
                        what: format!("streaming statistics rejected a monthly mean: {e}"),
                    })?;
            }
            if collect_monthly {
                monthly.push(mean_field);
            }
            *month_acc = None;
        }
    }
    Ok(())
}

/// One checkpoint attempt, coordinated across the atmosphere ranks and
/// the ocean: the root opens a staging directory and broadcasts it,
/// every rank writes its shard, the ocean is asked for its own via
/// `TAG_CKPT` (FIFO ordering behind the target interval's forcing
/// guarantees its state matches), and the root commits with an atomic
/// rename only when every ack is positive. Any failure abandons the
/// snapshot — never the run. Returns whether this rank's part succeeded.
#[allow(clippy::too_many_arguments)]
fn checkpoint_rendezvous(
    world: &Comm,
    atm_comm: &Comm,
    cfg: &FoamConfig,
    store: Option<&FaultyStore>,
    ocean: usize,
    target: usize,
    model: &AtmModel,
    atm_state: &AtmState,
    export: &AtmExport,
    coupler_state: &CouplerState,
    work: usize,
    root_extras: Option<RootShardExtras<'_>>,
    recent: &[(usize, OceanForcing)],
    resend_forcings: bool,
) -> bool {
    let _t = foam_telemetry::scope("checkpoint");
    let is_root = atm_comm.rank() == 0;
    let emergency = root_extras.as_ref().map(|r| r.emergency).unwrap_or(false);
    let mut pending = None;
    let staging: Option<String> = if is_root {
        pending = store.and_then(|s| s.begin(target as u64).ok());
        let dir = pending
            .as_ref()
            .map(|p| p.staging_dir().to_string_lossy().into_owned());
        atm_comm.bcast(0, Some(dir))
    } else {
        atm_comm.bcast::<Option<String>>(0, None)
    };
    let Some(dir) = staging else {
        return false;
    };
    let ok = checkpoint::write_atm_shard(
        Path::new(&dir),
        atm_comm.rank(),
        model.rows(),
        model.grid().nlon,
        atm_state,
        export,
        coupler_state,
        work,
        root_extras,
    )
    .is_ok();
    let oks = atm_comm.gather(ok, 0);
    if !is_root {
        return ok;
    }
    // On the emergency path the ocean may still be waiting for lost
    // forcings; retransmit what we hold so it can reach the target
    // interval before the shard request (same-tag FIFO) lands.
    if resend_forcings {
        for f in recent {
            world.send(ocean, TAG_FORCING, f.clone());
        }
    }
    world.send(ocean, TAG_CKPT, (target, dir));
    let deadline = Duration::from_secs_f64(CKPT_ACK_TIMEOUT_SECS);
    let ocean_ok = loop {
        match world.recv_deadline::<(usize, bool)>(ocean, TAG_CKPT, deadline) {
            Ok((t, o)) if t == target => break o,
            Ok(_) => continue, // stale ack of an earlier abandoned attempt
            Err(_) => break false,
        }
    };
    let all_ok = ocean_ok && oks.map(|v| v.iter().all(|&b| b)).unwrap_or(false);
    let Some(p) = pending else {
        return false;
    };
    if all_ok
        && checkpoint::write_manifest(p.staging_dir(), cfg, target, atm_comm.size(), emergency)
            .is_ok()
    {
        let committed = p.commit().is_ok();
        if committed {
            if let Some(s) = store {
                let _ = s.retain(cfg.ckpt.keep);
            }
        }
        committed
    } else {
        p.abort();
        false
    }
}

/// Per-rank scratch for the coupled hot loop, created once per run and
/// reused across every step and coupling interval (the zero-churn rule;
/// see PERFORMANCE.md and DESIGN.md §14). Holding these buffers here —
/// instead of allocating them inside the atmosphere and coupler steps —
/// removes essentially all steady-state allocation from the driver; the
/// bits the steps produce are pinned by digests in `foam-atm` and
/// `foam-tests`.
struct StepWorkspace {
    /// Spectral/physics scratch for [`AtmModel::step_ws`].
    atm: AtmWorkspace,
    /// Accumulators and outputs for [`Coupler::step_rows_ws`].
    coupler: CouplerWorkspace,
    /// Row-local coupler→atmosphere forcing, refilled in place each
    /// step (`clear` + `extend_from_slice` never reallocates once the
    /// capacity is established).
    forcing: AtmForcing,
    /// Flat `[tau_x | tau_y | heat | freshwater]` buffer for the
    /// per-interval ocean-forcing reduction via
    /// [`Comm::allreduce_mut`].
    flat: Vec<f64>,
}

impl StepWorkspace {
    fn new(model: &AtmModel, coupler: &Coupler) -> Self {
        let n_local = model.n_local();
        StepWorkspace {
            atm: AtmWorkspace::new(model),
            coupler: coupler.workspace(),
            forcing: AtmForcing {
                fluxes: Vec::with_capacity(n_local),
                t_sfc: Vec::with_capacity(n_local),
                albedo: Vec::with_capacity(n_local),
            },
            flat: Vec::new(),
        }
    }
}

fn atm_rank(
    cfg: &FoamConfig,
    world: &Comm,
    n_couple: usize,
    resume: Option<&GlobalSnapshot>,
    obs: Option<&dyn RunObserver>,
) -> Result<RankResult, CoupledError> {
    let n_atm = cfg.n_atm_ranks;
    let ocean_rank_id = n_atm;
    let atm_comm = world
        .split(0, world.rank() as i64)
        .expect("atmosphere rank must join the atmosphere communicator");
    let is_root = atm_comm.rank() == 0;

    let planet = World::earthlike();
    let mut model = AtmModel::new(cfg.atm.clone(), &atm_comm);
    // Scenario forcings apply identically on every atmosphere rank (a
    // pure function of static config + simulated day, so no exchange is
    // ever needed to keep ranks consistent).
    model.set_forcings(cfg.forcings.clone());
    let model = model;
    let nlon = model.grid().nlon;
    let sea_mask = OceanModel::effective_sea_mask(&cfg.ocean, &planet);
    let ocn_grid =
        foam_grid::OceanGrid::mercator(cfg.ocean.nx, cfg.ocean.ny, cfg.ocean.lat_max_deg);
    let coupler = Coupler::new(
        model.grid().clone(),
        ocn_grid.clone(),
        sea_mask.clone(),
        &planet,
        cfg.atm.physics,
    );
    // Only the root coordinates checkpoints. A store that cannot open
    // disables them quietly: snapshots are best-effort, the run itself
    // must not die for one. The store is always routed through the
    // fault-injection wrapper; with no plan configured it is
    // transparent.
    let ckpt_store = if is_root {
        cfg.ckpt
            .dir
            .as_deref()
            .and_then(|d| CheckpointStore::open(d).ok())
            .map(|s| FaultyStore::wrap(s, cfg.ckpt.fault_plan.clone().unwrap_or_default()))
    } else {
        None
    };

    // Initial SST. A fresh run receives sequence 0 from the ocean (the
    // root broadcasts `None` to signal an abort to the other ranks); a
    // restart restores the exchange buffers from the shared snapshot on
    // every rank directly, no messages needed.
    let mut sst_seq = resume.map(|s| s.exchange.sst_seq).unwrap_or(0);
    let mut sst = match resume {
        Some(snap) => snap.exchange.sst.clone(),
        None if is_root => match recv_sst(world, &cfg.runtime, ocean_rank_id, 0, &[]) {
            Ok((seq, s)) => {
                sst_seq = seq;
                match atm_comm.bcast(0, Some(Some(s))) {
                    Some(s) => s,
                    // Structurally unreachable: a broadcast returns the
                    // root's own value to the root. Abort typed rather
                    // than panic if it ever isn't.
                    None => {
                        shutdown_ocean(world, ocean_rank_id);
                        return Err(CoupledError::Internal {
                            what: "root broadcast of the initial SST came back empty".to_string(),
                        });
                    }
                }
            }
            Err(e) => {
                atm_comm.bcast::<Option<Field2>>(0, Some(None));
                shutdown_ocean(world, ocean_rank_id);
                return Err(e);
            }
        },
        None => match atm_comm.bcast::<Option<Field2>>(0, None) {
            Some(s) => s,
            None => return Err(CoupledError::Aborted),
        },
    };

    let (j0, j1) = model.rows();
    let start_c = resume.map(|s| s.interval).unwrap_or(0);
    let mut atm_state = match resume {
        Some(snap) => snap.atm_state_for_rows(j0, j1),
        None => model.init_state(),
    };
    let mut coupler_state = match resume {
        Some(snap) => snap.coupler_state_for_rank(is_root),
        None => coupler.init_state(&sst, AtmModel::t_init),
    };
    let mut export = match resume {
        Some(snap) => snap.export_for_rows(j0, j1),
        None => model.initial_export(&atm_state),
    };

    let steps_per_couple = cfg.atm_steps_per_couple();
    let intervals_per_month = ((30.0 * SECONDS_PER_DAY) / cfg.dt_couple).round() as usize;
    let mut res = RankResult::default();
    let mut month_acc: Option<(Field2, usize)> = None;
    // Root-only streaming statistics: restored from the snapshot when
    // it carries them, started fresh otherwise (a pre-stream snapshot
    // resumes with the stream counting from the resume point).
    let mut stream: Option<DriverStream> = if is_root && cfg.stream.is_some() {
        resume.and_then(|s| s.stream.clone()).or_else(|| {
            cfg.stream
                .as_ref()
                .map(|s| DriverStream::new(sea_area_weights(&ocn_grid, &sea_mask), s.eof_rank))
        })
    } else {
        None
    };
    // The forcings the root keeps for retransmission (lagged mode can
    // be asked for the previous interval's, so hold the last two).
    let mut recent: Vec<(usize, OceanForcing)> = Vec::new();
    if let Some(snap) = resume {
        res.work = snap.work_for_rank(atm_comm.rank(), atm_comm.size());
        if is_root {
            res.mean_sst_series = snap.mean_sst_series.clone();
            res.monthly_sst = snap.monthly_sst.clone();
            month_acc = snap.month_acc.clone();
            recent = snap.exchange.recent.clone();
        }
    }
    // All hot-loop scratch, allocated once here; the loop below runs
    // allocation-free in steady state (PERFORMANCE.md).
    let mut ws = StepWorkspace::new(&model, &coupler);
    let t_start = world.now();

    for c in start_c..n_couple {
        // Deterministic rank-death injection: die at the *start* of the
        // scheduled interval, before any physics step — the last
        // committed checkpoint is then exactly on the fault-free
        // trajectory, which is what makes supervised recovery
        // bit-identical to an unfaulted run.
        if let Some(k) = cfg.runtime.kill_rank {
            if k.rank == world.rank() && k.interval == c {
                panic!(
                    "injected rank death: rank {} at coupling interval {c}",
                    k.rank
                );
            }
        }
        for _ in 0..steps_per_couple {
            // ---- Coupler, distributed by latitude rows (co-located
            //      with the atmosphere decomposition, as in the paper).
            world.region("coupler", || {
                let _t = foam_telemetry::scope("coupler");
                let (j0, j1) = model.rows();
                let (ka0, ka1) = (j0 * nlon, j1 * nlon);
                // The export fields already hold exactly this rank's
                // rows; borrow them instead of cloning seven fields.
                let view = AtmSurfaceView {
                    t_low: &export.t_low,
                    q_low: &export.q_low,
                    u_low: &export.u_low,
                    v_low: &export.v_low,
                    precip: &export.precip,
                    sw_sfc: &export.sw_sfc,
                    lw_down: &export.lw_down,
                };
                coupler.step_rows_ws(
                    &mut coupler_state,
                    view,
                    &sst,
                    cfg.atm.dt,
                    ka0,
                    ka1,
                    ka0,
                    &mut ws.coupler,
                );
                // Rivers need the global runoff; they are cheap, so they
                // run replicated from the allgathered field. (This
                // gather is the one small per-step allocation left in
                // the loop — see PERFORMANCE.md's steady-state budget.)
                let local_runoff = ws.coupler.runoff[ka0..ka1].to_vec();
                let full_runoff: Vec<f64> = atm_comm
                    .allgather(local_runoff)
                    .into_iter()
                    .flatten()
                    .collect();
                coupler.route_rivers_ws(
                    &mut coupler_state,
                    &full_runoff,
                    cfg.atm.dt,
                    &mut ws.coupler,
                );
                // Refill (never reallocate) the row-local forcing slice.
                let out = &ws.coupler.out;
                ws.forcing.fluxes.clear();
                ws.forcing.fluxes.extend_from_slice(&out.fluxes[ka0..ka1]);
                ws.forcing.t_sfc.clear();
                ws.forcing.t_sfc.extend_from_slice(&out.t_sfc[ka0..ka1]);
                ws.forcing.albedo.clear();
                ws.forcing.albedo.extend_from_slice(&out.albedo[ka0..ka1]);
            });
            // ---- Atmosphere step, writing into the reused export. ----
            world.region("atmosphere", || {
                let _t = foam_telemetry::scope("atmosphere");
                let StepWorkspace { atm, forcing, .. } = &mut ws;
                model.step_ws(&mut atm_state, &atm_comm, forcing, atm, &mut export);
            });
            res.work += export.work.iter().sum::<usize>();
        }

        // ---- Ocean exchange: sum the row-local forcing parts across
        //      the atmosphere ranks, add the replicated part once. -----
        let forcing = world.region("coupler", || {
            let _t = foam_telemetry::scope("coupler");
            let (local, shared) = coupler.take_ocean_forcing_parts(&mut coupler_state);
            let n_o = local.heat.as_slice().len();
            // Reduce through the reused flat buffer: `allreduce_mut` is
            // bit-identical to `allreduce` (same fold order) but
            // allocation-free in steady state. The `OceanForcing` built
            // below is owned by the exchange message, so it (alone)
            // still allocates — once per coupling interval, not per
            // step.
            let flat = &mut ws.flat;
            flat.clear();
            flat.extend_from_slice(local.tau_x.as_slice());
            flat.extend_from_slice(local.tau_y.as_slice());
            flat.extend_from_slice(local.heat.as_slice());
            flat.extend_from_slice(local.freshwater.as_slice());
            atm_comm.allreduce_mut(flat, foam_mpi::ReduceOp::Sum);
            let (onx, ony) = (ocn_grid.nx, ocn_grid.ny);
            let mut f = foam_ocean::OceanForcing {
                tau_x: Field2::from_vec(onx, ony, flat[..n_o].to_vec()),
                tau_y: Field2::from_vec(onx, ony, flat[n_o..2 * n_o].to_vec()),
                heat: Field2::from_vec(onx, ony, flat[2 * n_o..3 * n_o].to_vec()),
                freshwater: Field2::from_vec(onx, ony, flat[3 * n_o..].to_vec()),
            };
            f.tau_x.axpy(1.0, &shared.tau_x);
            f.tau_y.axpy(1.0, &shared.tau_y);
            f.heat.axpy(1.0, &shared.heat);
            f.freshwater.axpy(1.0, &shared.freshwater);
            f
        });
        let received: Option<Field2> = world.region("coupler", || {
            let _t = foam_telemetry::scope("coupler");
            if is_root {
                // Cooperative cancellation, polled at the same
                // coordination point the sentinels use: every other
                // rank is already waiting on the status broadcast, so
                // the abort tears the whole job down cleanly and any
                // committed checkpoint stays resumable.
                if obs.is_some_and(|o| o.should_stop()) {
                    atm_comm.bcast(0, Some(2u8));
                    shutdown_ocean(world, ocean_rank_id);
                    return Err(CoupledError::Aborted);
                }
                // Physics sentinel, land side: check the root's soil
                // rows before committing this interval's forcing to the
                // ocean.
                if let Some(e) = sentinel_soil(
                    &cfg.runtime.sentinel,
                    coupler_state.soil[j0 * nlon..j1 * nlon]
                        .iter()
                        .map(|col| col.skin()),
                    c,
                ) {
                    atm_comm.bcast(0, Some(2u8));
                    shutdown_ocean(world, ocean_rank_id);
                    return Err(e);
                }
                let tagged = (c, forcing);
                world.send(ocean_rank_id, TAG_FORCING, tagged.clone());
                recent.push(tagged);
                if recent.len() > 2 {
                    recent.remove(0);
                }
                // When is the ocean's answer due? Sequentially: right
                // now, producing sequence c+1. Lagged: the SST from the
                // *previous* forcing (sequence c), overlapping the
                // ocean's work with the interval we just integrated.
                let due = match cfg.coupling {
                    CouplingMode::Sequential => Some(c + 1),
                    CouplingMode::Lagged => (c >= 1).then_some(c),
                };
                let got = match due {
                    Some(expected) => {
                        match recv_sst(world, &cfg.runtime, ocean_rank_id, expected, &recent) {
                            Ok((seq, mut s)) => {
                                // Injected physics fault: poison the
                                // received SST exactly as a blown-up
                                // ocean would, *before* the sentinel
                                // scan.
                                if let Some(pf) = cfg.runtime.physics_fault {
                                    if pf.interval == c {
                                        poison_sst(&mut s, pf.kind, &sea_mask);
                                    }
                                }
                                // Physics sentinel, ocean side: refuse
                                // the field before it can reach the
                                // model state or a checkpoint.
                                if let Some(e) =
                                    sentinel_sst(&cfg.runtime.sentinel, &s, &sea_mask, c)
                                {
                                    atm_comm.bcast(0, Some(2u8));
                                    shutdown_ocean(world, ocean_rank_id);
                                    return Err(e);
                                }
                                sst_seq = seq;
                                Some(s)
                            }
                            Err(e) => {
                                // Abort — but first, when configured, a
                                // best-effort emergency checkpoint so the
                                // run is resumable from this interval. It
                                // records the last *accepted* SST (by now
                                // stale), so it lies off the failure-free
                                // trajectory; the manifest marks it.
                                if cfg.ckpt.on_error && ckpt_store.is_some() {
                                    atm_comm.bcast(0, Some(3u8));
                                    let mut series = res.mean_sst_series.clone();
                                    let mut monthly = res.monthly_sst.clone();
                                    let mut macc = month_acc.clone();
                                    let mut strm = stream.clone();
                                    // Best effort: the emergency
                                    // snapshot is already off the
                                    // failure-free trajectory.
                                    let _ = record_interval(
                                        &mut series,
                                        &mut monthly,
                                        &mut macc,
                                        &mut strm,
                                        &sst,
                                        &ocn_grid,
                                        &sea_mask,
                                        cfg.collect_monthly_sst,
                                        intervals_per_month,
                                    );
                                    let exchange = ExchangeBuffers {
                                        sst_seq,
                                        sst: sst.clone(),
                                        recent: recent.clone(),
                                    };
                                    checkpoint_rendezvous(
                                        world,
                                        &atm_comm,
                                        cfg,
                                        ckpt_store.as_ref(),
                                        ocean_rank_id,
                                        c + 1,
                                        &model,
                                        &atm_state,
                                        &export,
                                        &coupler_state,
                                        res.work,
                                        Some(RootShardExtras {
                                            exchange: &exchange,
                                            series: &series,
                                            monthly: &monthly,
                                            month_acc: &macc,
                                            stream: &strm,
                                            emergency: true,
                                        }),
                                        &recent,
                                        true,
                                    );
                                } else {
                                    atm_comm.bcast(0, Some(2u8));
                                }
                                shutdown_ocean(world, ocean_rank_id);
                                return Err(e);
                            }
                        }
                    }
                    None => None,
                };
                // Status to the other atmosphere ranks: 0 = no update,
                // 1 = update follows, 2 = abort, 3 = emergency
                // checkpoint, then abort.
                let status = u8::from(got.is_some());
                atm_comm.bcast(0, Some(status));
                match got {
                    Some(s) => Ok(Some(atm_comm.bcast(0, Some(s)))),
                    None => Ok(None),
                }
            } else {
                match atm_comm.bcast::<u8>(0, None) {
                    3 => {
                        checkpoint_rendezvous(
                            world,
                            &atm_comm,
                            cfg,
                            None,
                            ocean_rank_id,
                            c + 1,
                            &model,
                            &atm_state,
                            &export,
                            &coupler_state,
                            res.work,
                            None,
                            &[],
                            false,
                        );
                        Err(CoupledError::Aborted)
                    }
                    2 => Err(CoupledError::Aborted),
                    1 => Ok(Some(atm_comm.bcast(0, None))),
                    _ => Ok(None),
                }
            }
        })?;
        if let Some(new_sst) = received {
            sst = new_sst;
            coupler.update_ice(&mut coupler_state, &sst);
        }

        // ---- Bookkeeping on the root. --------------------------------
        if is_root {
            record_interval(
                &mut res.mean_sst_series,
                &mut res.monthly_sst,
                &mut month_acc,
                &mut stream,
                &sst,
                &ocn_grid,
                &sea_mask,
                cfg.collect_monthly_sst,
                intervals_per_month,
            )?;
            if let Some(o) = obs {
                o.on_interval(&ProgressEvent {
                    interval: c + 1,
                    n_intervals: n_couple,
                    day: ((c + 1) as f64) * cfg.dt_couple / SECONDS_PER_DAY,
                    mean_sst: res.mean_sst_series.last().copied().unwrap_or(f64::NAN),
                });
            }
        }

        // ---- Periodic checkpoint at the configured cadence. ----------
        if cfg.ckpt.dir.is_some() && (c + 1) % cfg.ckpt.interval == 0 {
            let exchange = is_root.then(|| ExchangeBuffers {
                sst_seq,
                sst: sst.clone(),
                recent: recent.clone(),
            });
            let extras = exchange.as_ref().map(|x| RootShardExtras {
                exchange: x,
                series: &res.mean_sst_series,
                monthly: &res.monthly_sst,
                month_acc: &month_acc,
                stream: &stream,
                emergency: false,
            });
            checkpoint_rendezvous(
                world,
                &atm_comm,
                cfg,
                ckpt_store.as_ref(),
                ocean_rank_id,
                c + 1,
                &model,
                &atm_state,
                &export,
                &coupler_state,
                res.work,
                extras,
                &recent,
                false,
            );
        }
    }

    // Drain the final SST in lagged mode (the ocean produces one per
    // forcing), then run the shutdown handshake so retransmitted
    // duplicates don't dirty the teardown lint.
    if is_root {
        if cfg.coupling == CouplingMode::Lagged {
            match recv_sst(world, &cfg.runtime, ocean_rank_id, n_couple, &recent) {
                Ok((_, s)) => {
                    // The final drained SST feeds `final_sst`; a blown-up
                    // field is refused like any mid-run one.
                    if let Some(e) = sentinel_sst(&cfg.runtime.sentinel, &s, &sea_mask, n_couple) {
                        shutdown_ocean(world, ocean_rank_id);
                        return Err(e);
                    }
                    sst = s;
                }
                Err(e) => {
                    shutdown_ocean(world, ocean_rank_id);
                    return Err(e);
                }
            }
        }
        shutdown_ocean(world, ocean_rank_id);
    }
    res.wall_seconds = world.now() - t_start;
    if is_root {
        res.final_sst = Some(sst);
        res.stream = stream;
    }
    Ok(res)
}

fn ocean_rank(
    cfg: &FoamConfig,
    world: &Comm,
    resume: Option<&GlobalSnapshot>,
) -> Result<RankResult, CoupledError> {
    // Participate in the split even though the ocean keeps no sub-comm.
    let _ = world.split(-1, 0);
    let planet = World::earthlike();
    let model = OceanModel::new(cfg.ocean.clone(), &planet);
    let atm_root = 0usize;

    // `completed` counts integrated coupling intervals; the SST carrying
    // sequence number k is the state after k integrations. Announcing
    // the latest SST up front serves fresh starts (the initial
    // condition, sequence 0) and restarts (the root either consumes it
    // or absorbs it as a stale duplicate) identically.
    let (mut state, mut completed) = match resume {
        Some(snap) => (snap.ocean.clone(), snap.interval),
        None => (model.init_state(&planet), 0usize),
    };
    let mut latest: (usize, Field2) = (completed, model.sst(&state));
    world.send(atm_root, TAG_SST, latest.clone());

    // Serve the exchange protocol until the root says we are done: step
    // on each new forcing, retransmit on each NACK, write a checkpoint
    // shard on request, ignore duplicates.
    loop {
        let msg = world.recv_match(atm_root, &[TAG_FORCING, TAG_SST_RETRY, TAG_DONE, TAG_CKPT]);
        match msg.tag() {
            TAG_FORCING => {
                let (idx, forcing) = msg.downcast::<(usize, OceanForcing)>();
                // Only the forcing for the next interval advances the
                // model; duplicates (idx < completed) and early
                // retransmissions (idx > completed) are ignored.
                if idx == completed {
                    // Injected rank death for the ocean: die on accepting
                    // the scheduled interval's forcing, before stepping —
                    // the ocean state is still exactly the fault-free
                    // interval-boundary state.
                    if let Some(k) = cfg.runtime.kill_rank {
                        if k.rank == world.rank() && k.interval == idx {
                            panic!(
                                "injected rank death: rank {} at coupling interval {idx}",
                                k.rank
                            );
                        }
                    }
                    world.region("ocean", || {
                        let _t = foam_telemetry::scope("ocean");
                        match cfg.ocean_scheme {
                            SplitScheme::FoamSplit => {
                                model.step_coupled(&mut state, &forcing, cfg.dt_couple)
                            }
                            SplitScheme::Unsplit => {
                                model.step_unsplit(&mut state, &forcing, cfg.dt_couple)
                            }
                        }
                    });
                    completed += 1;
                    latest = (completed, model.sst(&state));
                    world.send(atm_root, TAG_SST, latest.clone());
                }
            }
            TAG_SST_RETRY => {
                let _expected: usize = msg.downcast();
                world.send(atm_root, TAG_SST, latest.clone());
            }
            TAG_CKPT => {
                // The request is FIFO-ordered behind the target
                // interval's forcing, so on a healthy run `completed`
                // has reached the target by now; anything else (lost
                // forcings on the emergency path) aborts the attempt
                // via a negative ack.
                let (target, dir) = msg.downcast::<(usize, String)>();
                let ok = completed == target
                    && checkpoint::write_ocean_shard(
                        Path::new(&dir),
                        world.rank(),
                        &state,
                        completed,
                    )
                    .is_ok();
                world.send(atm_root, TAG_CKPT, (target, ok));
            }
            TAG_DONE => {
                msg.downcast::<()>();
                world.send(atm_root, TAG_DONE, ());
                break;
            }
            other => unreachable!("unexpected tag {other} on the ocean rank"),
        }
    }
    Ok(RankResult::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coupled_run_advances_and_stays_physical() {
        let cfg = FoamConfig::tiny(1);
        let out = run_coupled(&cfg, 2.0);
        assert_eq!(out.mean_sst_series.len(), 8); // 4 exchanges/day
        assert!(out.final_sst.all_finite());
        let last = out
            .final_mean_sst()
            .expect("an 8-interval run has a series");
        assert!((-2.0..30.0).contains(&last), "mean SST {last}");
        assert!(out.model_speedup > 1.0, "slower than real time?!");
        assert!((0.0..=1.0).contains(&out.ice_fraction));
        assert!(out.comm_lint.is_clean(), "{}", out.comm_lint);
    }

    #[test]
    fn lagged_and_sequential_agree_on_short_runs() {
        // The lag changes SST timing by one interval; over a couple of
        // days the mean-SST trajectories must still be close.
        let cfg = FoamConfig::tiny(2);
        let lag = run_coupled(&cfg, 2.0);
        let mut cfg_seq = cfg.clone();
        cfg_seq.coupling = CouplingMode::Sequential;
        let seq = run_coupled(&cfg_seq, 2.0);
        let a = lag.final_mean_sst().expect("lagged run has a series");
        let b = seq.final_mean_sst().expect("sequential run has a series");
        assert!((a - b).abs() < 0.3, "lagged {a} vs sequential {b}");
    }

    #[test]
    fn tracing_produces_all_three_component_labels() {
        let mut cfg = FoamConfig::tiny(3);
        cfg.tracing = true;
        let out = run_coupled(&cfg, 0.5);
        // Atmosphere ranks show atmosphere + coupler work.
        for t in &out.traces[..cfg.n_atm_ranks] {
            assert!(
                t.work_time("atmosphere") > 0.0,
                "rank {} no atm work",
                t.rank
            );
            assert!(
                t.work_time("coupler") > 0.0,
                "rank {} no coupler work",
                t.rank
            );
        }
        // The ocean rank shows ocean work and (waiting for forcing) idle
        // time.
        let to = &out.traces[cfg.n_atm_ranks];
        assert!(to.work_time("ocean") > 0.0);
    }

    #[test]
    fn monthly_sst_collection_counts_months() {
        let mut cfg = FoamConfig::tiny(4);
        cfg.collect_monthly_sst = true;
        // 1/4 month → 0 complete months; keep the test fast.
        let out = run_coupled(&cfg, 7.5);
        assert!(out.monthly_sst.is_empty());
        assert_eq!(out.mean_sst_series.len(), 30);
    }

    #[test]
    fn streaming_and_collected_months_agree_bit_for_bit() {
        // Run with BOTH paths on: every completed month must land in the
        // retained history and the stream as the same bits, and the
        // stream's mean field must equal averaging the history. Two
        // 30-day months on the century grid keeps this quick.
        let mut cfg = FoamConfig::century(12);
        cfg.collect_monthly_sst = true;
        let out = run_coupled(&cfg, 60.0);
        let ds = out.stream.expect("stream configured");
        assert_eq!(out.monthly_sst.len(), 2);
        assert_eq!(ds.months(), 2);
        let mean = ds.mean_field().expect("two months streamed");
        let n = out.monthly_sst.len() as f64;
        for (s, m) in mean.iter().enumerate() {
            let batch: f64 = out.monthly_sst.iter().map(|f| f.as_slice()[s]).sum::<f64>() / n;
            assert_eq!(m.to_bits(), batch.to_bits(), "s={s}");
        }
        // Streaming off by default: no stream state, no monthly cost.
        let plain = run_coupled(&FoamConfig::tiny(12), 1.0);
        assert!(plain.stream.is_none());
    }

    #[test]
    fn baseline_config_flips_both_devices() {
        let cfg = FoamConfig::tiny(5);
        let base = baseline_config(&cfg);
        assert_eq!(base.coupling, CouplingMode::Sequential);
        assert_eq!(base.ocean_scheme, SplitScheme::Unsplit);
        assert_eq!(base.atm.nlon, cfg.atm.nlon);
    }

    #[test]
    fn exchange_tags_show_up_in_comm_stats() {
        let mut cfg = FoamConfig::tiny(6);
        // Generous per-attempt timeout so a slow CI machine cannot
        // trigger spurious retransmissions and skew the exact counts.
        cfg.runtime.sst_retry_timeout_secs = 30.0;
        let out = run_coupled(&cfg, 1.0);
        let mut merged = foam_mpi::CommStats::default();
        for t in &out.traces {
            merged.merge(&t.stats);
        }
        let forcing = merged.tag(TAG_FORCING);
        let sst = merged.tag(TAG_SST);
        // 4 coupling intervals → 4 forcings, 4 SSTs + the initial one.
        assert_eq!(forcing.msgs_sent, 4);
        assert_eq!(forcing.msgs_recvd, 4);
        assert_eq!(sst.msgs_sent, 5);
        assert_eq!(sst.msgs_recvd, 5);
        assert!(forcing.bytes_sent > 0);
        assert!(sst.bytes_sent > 0);
    }

    #[test]
    fn zero_day_runs_are_a_typed_error() {
        // A zero-day run would complete no coupling interval and leave
        // `mean_sst_series` empty; it must be refused up front, not
        // panic a diagnostic later.
        let cfg = FoamConfig::tiny(8);
        for days in [0.0, -1.0, f64::NAN] {
            let err = try_run_coupled(&cfg, days).unwrap_err();
            assert!(
                matches!(
                    err,
                    CoupledError::Config(ConfigError::NonPositive { what: "days", .. })
                ),
                "days = {days}: {err}"
            );
        }
        // The resume entry point refuses the same way.
        let mut cfg = FoamConfig::tiny(8);
        cfg.ckpt = crate::CkptConfig::every(std::env::temp_dir().join("foam-zero-day"), 4);
        let err = try_resume_coupled(&cfg, 0.0).unwrap_err();
        assert!(
            matches!(err, CoupledError::Config(ConfigError::NonPositive { .. })),
            "{err}"
        );
    }

    #[test]
    fn exhausted_retries_return_a_typed_error() {
        // Drop *every* SST so no retry can succeed; the run must come
        // back with a typed error, not a panic or a hang.
        let mut cfg = FoamConfig::tiny(7);
        cfg.runtime.sst_retry_timeout_secs = 0.05;
        cfg.runtime.sst_retry_backoff_secs = 0.01;
        cfg.runtime.sst_retry_max = 2;
        cfg.runtime.fault_plan =
            Some(foam_mpi::FaultPlan::new(11).with_rule(foam_mpi::FaultRule {
                src: None,
                dst: None,
                tag: Some(TAG_SST),
                action: foam_mpi::FaultAction::Drop,
                max_hits: None,
                probability: 1.0,
            }));
        let err = try_run_coupled(&cfg, 0.25).unwrap_err();
        assert_eq!(
            err,
            CoupledError::SstExchange {
                expected_seq: 0,
                retries: 2
            }
        );
    }
}
