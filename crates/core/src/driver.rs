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
//! Delivery is reliable and in order, so the exchange never resends.
//! Every SST carries a sequence number (completed ocean integrations),
//! and the root skips a stale one: a resumed ocean opens by announcing
//! the SST it holds, which a sequential run has already restored from
//! the snapshot. The root waits for each reply from the ocean at most
//! [`OCEAN_REPLY_TIMEOUT`]. An SST that misses it ends the run with a
//! typed [`CoupledError::SstExchange`], which the run supervisor
//! recovers from by rollback like every other fault (a dead rank, a
//! failing checkpoint store, a tripped sentinel). Every abort reaches
//! the other atmosphere ranks through the status broadcast they wait on
//! and the ocean through the `TAG_DONE` handshake, so the job tears down
//! rather than panicking or hanging. The handshake ends clean runs too:
//! the ocean's ack is ordered after anything it sent before, so the
//! root's final drain leaves the teardown comm-lint clean.

use std::path::{Path, PathBuf};
use std::time::Duration;

use foam_ckpt::{CheckpointStore, CkptError, FaultyStore};
use foam_coupler::tags::{TAG_CKPT, TAG_DONE, TAG_FORCING, TAG_SST};
use foam_coupler::ExchangeBuffers;
use foam_grid::constants::SECONDS_PER_DAY;
use foam_grid::Field2;
use foam_mpi::{Comm, CommLint, RankTrace, RunConfig, Universe};
use foam_ocean::{OceanForcing, SplitScheme};
use foam_telemetry::{TelemetryRegistry, TelemetryReport};

use crate::checkpoint::{self, GlobalSnapshot, RootShardExtras};
use crate::config::{ConfigError, CouplingMode, FoamConfig, PhysicsFaultKind};
use crate::observer::{ProgressEvent, RunObserver};
use crate::stepper::{AtmParts, AtmStepper, OceanStepper, RootLog};
use crate::stream::DriverStream;

/// Kelvin → Celsius offset for the soil-temperature sentinel (soil
/// columns integrate in K, the sentinel bounds are in °C).
const KELVIN_OFFSET: f64 = 273.15;

/// The physics sentinel's plausible range of an accepted SST \[°C\]
/// (sea water freezes near −1.92 °C). Far outside anything a healthy
/// run produces, so false trips cost nothing while a genuine blow-up is
/// caught at the interval it happens.
const SST_RANGE_C: (f64, f64) = (-5.0, 60.0);

/// The sentinel's range of the root's soil skin temperatures \[°C\]:
/// coarse polar columns legitimately reach −230 °C during spin-up, so
/// the lower bound is a NaN/absolute-zero tripwire, not a climatological
/// range.
const SOIL_RANGE_C: (f64, f64) = (-270.0, 200.0);

/// How long the root waits for either reply from the ocean: the SST that
/// is due (missing it ends the run with [`CoupledError::SstExchange`])
/// or a checkpoint acknowledgement (missing it abandons the snapshot,
/// never the run). Far above any ocean interval's integration time, so
/// only a hung ocean reaches it.
const OCEAN_REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Typed failure of a coupled run — the graceful alternative to a
/// panicking (or silently hanging) exchange.
#[derive(Debug, Clone, PartialEq)]
pub enum CoupledError {
    /// The atmosphere root waited the driver's reply deadline (30 s)
    /// for the SST with sequence number `expected_seq` and none came.
    SstExchange { expected_seq: usize },
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
    /// a coupled field — the model blew up, but the last on-trajectory
    /// checkpoint predates the poison, so the run is resumable.
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
            CoupledError::SstExchange { expected_seq } => write!(
                f,
                "SST exchange failed: sequence {expected_seq} never arrived"
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
    /// Simulated span from the original start \[s\], a resumed run's
    /// earlier legs included.
    pub sim_seconds: f64,
    /// Wall-clock span of the integration \[s\].
    pub wall_seconds: f64,
    /// The paper's headline metric: simulated time per wall-clock time,
    /// over the intervals this run integrated (a resumed run is not
    /// credited with the legs before its snapshot).
    pub model_speedup: f64,
    /// Area-mean SST after each coupling interval \[°C\].
    pub mean_sst_series: Vec<f64>,
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
    /// Streaming per-month SST statistics (the Figure-3 time mean, the
    /// Figure-4 EOF sketch), when [`crate::FoamConfig`]'s `stream` was
    /// set.
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
#[derive(Default)]
struct RankResult {
    /// The run's log and final SST (atmosphere root only).
    root: Option<(RootLog, Field2)>,
    wall_seconds: f64,
    work: usize,
    /// This rank's harvested registry (boxed: it is much larger than the
    /// rest of the struct and absent unless telemetry is enabled).
    telemetry: Option<Box<TelemetryRegistry>>,
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

/// Run the coupled model for `days` simulated days. Failures surface as
/// a typed [`CoupledError`]; every rank (including the ocean) shuts down
/// cleanly first, so the returned error is accompanied by an orderly
/// teardown rather than a poisoned job.
pub fn try_run_coupled(cfg: &FoamConfig, days: f64) -> Result<CoupledOutput, CoupledError> {
    start(cfg, days, None, None)
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
    start(cfg, days, None, Some(obs))
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
    // A bad request is refused before the store is touched.
    validate(cfg, days)?;
    let snap = checkpoint::latest_for(cfg)?.ok_or(CkptError::NoCheckpoint)?;
    start(cfg, days, Some(snap), None)
}

/// [`FoamConfig::validate`], plus the run length: a zero-day (or
/// negative, or NaN) run would integrate nothing and hand back an empty
/// `mean_sst_series` that downstream diagnostics trip over — reject it
/// up front as a typed error instead.
fn validate(cfg: &FoamConfig, days: f64) -> Result<(), CoupledError> {
    cfg.validate()?;
    if days > 0.0 && days.is_finite() {
        Ok(())
    } else {
        Err(CoupledError::Config(ConfigError::NonPositive {
            what: "days",
            value: days,
        }))
    }
}

/// Number of coupling intervals a `days`-day run of `cfg` integrates
/// (the loop bound of the exchange protocol; shared with the run
/// supervisor so it can tell "resumable checkpoint" from "checkpoint
/// already at the end of the run").
pub(crate) fn n_couple_for(cfg: &FoamConfig, days: f64) -> usize {
    ((days * SECONDS_PER_DAY) / cfg.dt_couple).round().max(1.0) as usize
}

/// The one way into a run: validate, launch the SPMD job from the
/// initial condition or from `resume`, and assemble the output. Every
/// public entry point and the supervisor's attempts come through here.
pub(crate) fn start(
    cfg: &FoamConfig,
    days: f64,
    resume: Option<GlobalSnapshot>,
    obs: Option<&dyn RunObserver>,
) -> Result<CoupledOutput, CoupledError> {
    validate(cfg, days)?;
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
    // The speedup window is what this run actually integrated — a
    // resumed run is only charged for the intervals after its snapshot.
    let window = (n_couple - start_c) as f64 * cfg.dt_couple;
    let wall = r0.wall_seconds.max(1e-9);
    let Some((log, final_sst)) = r0.root else {
        return Err(CoupledError::Internal {
            what: "rank 0 completed without producing a final SST".to_string(),
        });
    };
    // Ice fraction diagnosed from the clamp on the final field.
    let icy: Vec<f64> = final_sst
        .as_slice()
        .iter()
        .map(|&t| f64::from(t <= foam_grid::constants::SEAWATER_FREEZE_C + 1e-6))
        .collect();
    let ice_fraction = log.sea_mean(&icy);
    let telemetry = if collect_telemetry {
        // Fold each rank's communication counters (collected by the
        // runtime regardless of telemetry) into its registry, so the
        // report carries messages/bytes/waits per protocol tag.
        for reg in &mut regs {
            if let Some(t) = out.traces.iter().find(|t| t.rank == reg.rank()) {
                fold_comm_stats(reg, &t.stats);
            }
        }
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
        model_speedup: window / wall,
        mean_sst_series: log.mean_sst_series,
        final_sst,
        ice_fraction,
        traces: out.traces,
        comm_lint: out.lint,
        work_per_rank,
        telemetry,
        stream: log.stream,
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
        put("wait_us", (t.wait_seconds * 1e6) as u64);
    }
}

/// The physics sentinel: the first non-finite or out-of-range value
/// (°C) among `values` becomes a typed error naming `field`. Runs on
/// the root before a field is accepted or sent on, so a blown-up
/// component never contaminates the model state, the diagnostics, or a
/// checkpoint.
fn sentinel(
    field: &'static str,
    mut values: impl Iterator<Item = f64>,
    (min_c, max_c): (f64, f64),
    interval: usize,
) -> Result<(), CoupledError> {
    match values.find(|t| !t.is_finite() || *t < min_c || *t > max_c) {
        Some(value) => Err(CoupledError::Sentinel {
            interval,
            field,
            value,
        }),
        None => Ok(()),
    }
}

/// The sentinel over the sea cells of a just-received SST field (the
/// root is the one rank that holds the full field).
fn sentinel_sst(sst: &Field2, sea_mask: &[bool], interval: usize) -> Result<(), CoupledError> {
    let sea = sst.as_slice().iter().zip(sea_mask).filter(|(_, &m)| m);
    sentinel("sst", sea.map(|(&t, _)| t), SST_RANGE_C, interval)
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

/// Deterministic rank-death injection ([`crate::RankKill`]): die on
/// entering the scheduled interval, before any model step, so the last
/// committed checkpoint lies exactly on the fault-free trajectory —
/// which is what makes supervised recovery bit-identical to an
/// unfaulted run.
fn inject_rank_death(cfg: &FoamConfig, world: &Comm, interval: usize) {
    if let Some(k) = cfg.runtime.kill_rank {
        if k.rank == world.rank() && k.interval == interval {
            panic!(
                "injected rank death: rank {} at coupling interval {interval}",
                k.rank
            );
        }
    }
}

/// Receive the SST with sequence number `expected` (or later) from the
/// ocean at world rank `ocean`, skipping stale ones (the announce a
/// resumed ocean opens with). No SST within `deadline` ends the run with
/// a typed [`CoupledError::SstExchange`]; production passes
/// [`OCEAN_REPLY_TIMEOUT`].
fn recv_sst(
    world: &Comm,
    ocean: usize,
    expected: usize,
    deadline: Duration,
) -> Result<(usize, Field2), CoupledError> {
    // Time blocked on the exchange (nests under "coupler" when the call
    // comes from inside a coupler region).
    let _t = foam_telemetry::scope("sst_wait");
    loop {
        match world.recv_deadline::<(usize, Field2)>(ocean, TAG_SST, deadline) {
            Ok((seq, sst)) if seq >= expected => return Ok((seq, sst)),
            Ok(_) => continue,
            Err(_) => {
                return Err(CoupledError::SstExchange {
                    expected_seq: expected,
                })
            }
        }
    }
}

/// What the root tells the other atmosphere ranks after each exchange.
const NO_UPDATE: u8 = 0;
const SST_FOLLOWS: u8 = 1;
const ABORT: u8 = 2;

/// The services of one atmosphere rank of the coupled job: everything
/// the protocol needs around the stepping core. Only the root (rank 0
/// of `atm_comm`) talks to the ocean, keeps the log and coordinates
/// checkpoints; on the other ranks `store` and `log` are `None` and
/// the exchange bookkeeping stays empty.
struct AtmRank<'a> {
    cfg: &'a FoamConfig,
    world: &'a Comm,
    atm_comm: Comm,
    obs: Option<&'a dyn RunObserver>,
    /// Snapshots are best-effort: a store that cannot open disables them
    /// quietly, the run itself must not die for one. Always routed
    /// through the fault-injection wrapper; with no plan configured it
    /// is transparent.
    store: Option<FaultyStore>,
    log: Option<RootLog>,
    /// Sequence number of the SST the stepper holds.
    sst_seq: usize,
}

fn atm_rank(
    cfg: &FoamConfig,
    world: &Comm,
    n_couple: usize,
    resume: Option<&GlobalSnapshot>,
    obs: Option<&dyn RunObserver>,
) -> Result<RankResult, CoupledError> {
    let atm_comm = world
        .split(0, world.rank() as i64)
        .expect("atmosphere rank must join the atmosphere communicator");
    let parts = AtmParts::new(cfg, &atm_comm);
    let is_root = atm_comm.rank() == 0;
    let coupler = parts.coupler();
    let mut rank = AtmRank {
        cfg,
        world,
        obs,
        store: cfg
            .ckpt
            .dir
            .as_deref()
            .filter(|_| is_root)
            .and_then(|d| CheckpointStore::open(d).ok())
            .map(|s| FaultyStore::wrap(s, cfg.ckpt.fault_plan.clone().unwrap_or_default())),
        log: is_root.then(|| RootLog::new(cfg, &coupler.ocn_grid, &coupler.sea_mask, resume)),
        sst_seq: resume.map_or(0, |s| s.exchange.sst_seq),
        atm_comm,
    };
    // A restart restores the SST from the shared snapshot on every rank
    // directly, no messages needed.
    let mut atm = match resume {
        Some(snap) => AtmStepper::from_snapshot(parts, snap),
        None => AtmStepper::fresh(parts, rank.initial_sst()?),
    };
    let t_start = world.now();
    for c in resume.map_or(0, |s| s.interval)..n_couple {
        rank.interval(&mut atm, c, n_couple)?;
    }
    let final_sst = rank.finish(&atm, n_couple)?;
    Ok(RankResult {
        root: rank.log.zip(final_sst),
        wall_seconds: world.now() - t_start,
        work: atm.work(),
        telemetry: None,
    })
}

impl AtmRank<'_> {
    fn is_root(&self) -> bool {
        self.atm_comm.rank() == 0
    }

    /// World rank of the ocean.
    fn ocean(&self) -> usize {
        self.cfg.n_atm_ranks
    }

    /// The first SST of a fresh run: the root receives sequence 0 from
    /// the ocean and broadcasts it; `None` tells the other ranks the run
    /// is over before it began.
    fn initial_sst(&mut self) -> Result<Field2, CoupledError> {
        if !self.is_root() {
            let sst = self.atm_comm.bcast::<Option<Field2>>(0, None);
            return sst.ok_or(CoupledError::Aborted);
        }
        match recv_sst(self.world, self.ocean(), 0, OCEAN_REPLY_TIMEOUT) {
            Ok((seq, sst)) => {
                self.sst_seq = seq;
                let back = self.atm_comm.bcast(0, Some(Some(sst)));
                Ok(back.expect("a broadcast hands the root its own value back"))
            }
            Err(e) => {
                self.atm_comm.bcast::<Option<Field2>>(0, Some(None));
                self.shutdown_ocean();
                Err(e)
            }
        }
    }

    /// Tell the ocean the exchange is over and clear what an abort left
    /// unread from the mailbox (an SST or a checkpoint ack). The ocean's
    /// ack is ordered after anything it sent earlier, so after it
    /// arrives the drain leaves nothing behind for teardown lint to flag.
    fn shutdown_ocean(&self) {
        let (world, ocean) = (self.world, self.ocean());
        world.send(ocean, TAG_DONE, ());
        let () = world.recv(ocean, TAG_DONE);
        let _ = world.drain::<(usize, Field2)>(ocean, TAG_SST);
        let _ = world.drain::<(usize, bool)>(ocean, TAG_CKPT);
    }

    /// End the run from the root mid-protocol: the other atmosphere
    /// ranks learn it from the status broadcast they are waiting on, the
    /// ocean from the shutdown handshake.
    fn abort(&self, e: CoupledError) -> CoupledError {
        self.atm_comm.bcast(0, Some(ABORT));
        self.shutdown_ocean();
        e
    }

    /// Coupling interval `c`: integrate it, trade the forcing for an SST,
    /// log, checkpoint at the configured cadence.
    fn interval(
        &mut self,
        atm: &mut AtmStepper,
        c: usize,
        n_couple: usize,
    ) -> Result<(), CoupledError> {
        inject_rank_death(self.cfg, self.world, c);
        let forcing = atm.advance_interval(&self.atm_comm);
        let received = self.world.region("coupler", || {
            let _t = foam_telemetry::scope("coupler");
            if self.is_root() {
                self.lead(atm, c, forcing)
            } else {
                self.follow()
            }
        })?;
        if let Some(sst) = received {
            atm.accept_sst(sst);
        }
        if let Some(log) = &mut self.log {
            log.record(atm.sst())?;
            if let Some(o) = self.obs {
                o.on_interval(&ProgressEvent {
                    interval: c + 1,
                    n_intervals: n_couple,
                    day: ((c + 1) as f64) * self.cfg.dt_couple / SECONDS_PER_DAY,
                    mean_sst: log.mean_sst_series.last().copied().unwrap_or(f64::NAN),
                });
            }
        }
        if self.cfg.ckpt.dir.is_some() && (c + 1).is_multiple_of(self.cfg.ckpt.interval) {
            self.checkpoint(atm, c + 1);
        }
        Ok(())
    }

    /// The root's side of interval `c`'s exchange: cancellation and
    /// sentinel checks, post the forcing, collect the SST that is due,
    /// tell the other ranks what happened.
    fn lead(
        &mut self,
        atm: &AtmStepper,
        c: usize,
        forcing: OceanForcing,
    ) -> Result<Option<Field2>, CoupledError> {
        let cfg = self.cfg;
        // Cooperative cancellation, polled at the coordination point the
        // sentinels use: every other rank is already waiting on the
        // status broadcast, so the abort tears the whole job down
        // cleanly and any committed checkpoint stays resumable.
        if self.obs.is_some_and(|o| o.should_stop()) {
            return Err(self.abort(CoupledError::Aborted));
        }
        // Land side, before this interval's forcing is committed to the
        // ocean: the root's soil-column skin temperatures (K, checked
        // against the °C bounds). Its own rows only — the sentinel is a
        // blow-up tripwire, not a global audit, and the SST check covers
        // the whole ocean.
        let skins = atm.coupler_state.soil[atm.cells()].iter();
        let skins = skins.map(|col| col.skin() - KELVIN_OFFSET);
        sentinel("soil", skins, SOIL_RANGE_C, c).map_err(|e| self.abort(e))?;
        self.world.send(self.ocean(), TAG_FORCING, (c, forcing));
        // When is the ocean's answer due? Sequentially: right now,
        // producing sequence c+1. Lagged: the SST from the *previous*
        // forcing (sequence c), overlapping the ocean's work with the
        // interval we just integrated.
        let due = match cfg.coupling {
            CouplingMode::Sequential => Some(c + 1),
            CouplingMode::Lagged => (c >= 1).then_some(c),
        };
        let Some(expected) = due else {
            self.atm_comm.bcast(0, Some(NO_UPDATE));
            return Ok(None);
        };
        match recv_sst(self.world, self.ocean(), expected, OCEAN_REPLY_TIMEOUT) {
            Ok((seq, mut sst)) => {
                // An injected physics fault poisons the field exactly as
                // a blown-up ocean would, *before* the sentinel scan;
                // the sentinel refuses it before it can reach the model
                // state or a checkpoint.
                if let Some(pf) = cfg.runtime.physics_fault.filter(|pf| pf.interval == c) {
                    poison_sst(&mut sst, pf.kind, atm.sea_mask());
                }
                sentinel_sst(&sst, atm.sea_mask(), c).map_err(|e| self.abort(e))?;
                self.sst_seq = seq;
                self.atm_comm.bcast(0, Some(SST_FOLLOWS));
                Ok(Some(self.atm_comm.bcast(0, Some(sst))))
            }
            Err(e) => Err(self.abort(e)),
        }
    }

    /// Every other atmosphere rank's side: do what the root's status
    /// says.
    fn follow(&self) -> Result<Option<Field2>, CoupledError> {
        match self.atm_comm.bcast::<u8>(0, None) {
            ABORT => Err(CoupledError::Aborted),
            SST_FOLLOWS => Ok(Some(self.atm_comm.bcast(0, None))),
            _ => Ok(None),
        }
    }

    /// One checkpoint attempt at interval boundary `target`, coordinated
    /// across the atmosphere ranks and the ocean: the root opens a
    /// staging directory and broadcasts it, every rank writes its shard,
    /// the ocean is asked for its own via `TAG_CKPT` (FIFO ordering
    /// behind the target interval's forcing guarantees its state
    /// matches), and the root commits with an atomic rename only when
    /// every ack is positive. Any failure abandons the snapshot — never
    /// the run.
    fn checkpoint(&self, atm: &AtmStepper, target: usize) {
        let _t = foam_telemetry::scope("checkpoint");
        let mut pending = None;
        let staging: Option<String> = if self.is_root() {
            pending = self
                .store
                .as_ref()
                .and_then(|s| s.begin(target as u64).ok());
            let dir = pending
                .as_ref()
                .map(|p| p.staging_dir().to_string_lossy().into_owned());
            self.atm_comm.bcast(0, Some(dir))
        } else {
            self.atm_comm.bcast(0, None)
        };
        let Some(dir) = staging else {
            return;
        };
        let extras = self.log.as_ref().map(|log| RootShardExtras {
            exchange: ExchangeBuffers {
                sst_seq: self.sst_seq,
                sst: atm.sst().clone(),
            },
            log,
        });
        let ok =
            checkpoint::write_atm_shard(Path::new(&dir), self.atm_comm.rank(), atm, extras).is_ok();
        let (Some(oks), Some(pending)) = (self.atm_comm.gather(ok, 0), pending) else {
            return;
        };
        let (world, ocean) = (self.world, self.ocean());
        world.send(ocean, TAG_CKPT, (target, dir));
        let ocean_ok = loop {
            match world.recv_deadline::<(usize, bool)>(ocean, TAG_CKPT, OCEAN_REPLY_TIMEOUT) {
                Ok((t, o)) if t == target => break o,
                Ok(_) => continue, // stale ack of an earlier abandoned attempt
                Err(_) => break false,
            }
        };
        let n_atm = self.atm_comm.size();
        let staged = ocean_ok
            && oks.iter().all(|&b| b)
            && checkpoint::write_manifest(pending.staging_dir(), self.cfg, target, n_atm).is_ok();
        if !staged {
            pending.abort();
        } else if pending.commit().is_ok() {
            if let Some(s) = &self.store {
                let _ = s.retain(self.cfg.ckpt.keep);
            }
        }
    }

    /// After the last interval, on the root: in lagged mode receive the
    /// final SST (the ocean produces one per forcing; a blown-up field
    /// is refused like any mid-run one), then run the shutdown handshake.
    /// The other atmosphere ranks are already done, so only the ocean is
    /// told.
    fn finish(&self, atm: &AtmStepper, n_couple: usize) -> Result<Option<Field2>, CoupledError> {
        if !self.is_root() {
            return Ok(None);
        }
        let final_sst = match self.cfg.coupling {
            CouplingMode::Sequential => Ok(atm.sst().clone()),
            CouplingMode::Lagged => {
                recv_sst(self.world, self.ocean(), n_couple, OCEAN_REPLY_TIMEOUT)
                    .and_then(|(_, sst)| sentinel_sst(&sst, atm.sea_mask(), n_couple).map(|()| sst))
            }
        };
        self.shutdown_ocean();
        final_sst.map(Some)
    }
}

fn ocean_rank(
    cfg: &FoamConfig,
    world: &Comm,
    resume: Option<&GlobalSnapshot>,
) -> Result<RankResult, CoupledError> {
    // Participate in the split even though the ocean keeps no sub-comm.
    let _ = world.split(-1, 0);
    let mut ocean = OceanStepper::new(cfg, resume);
    let atm_root = 0usize;

    // Announcing the latest SST up front serves fresh starts (the
    // initial condition, sequence 0) and restarts (the root either
    // consumes it or skips it as stale) identically.
    world.send(atm_root, TAG_SST, (ocean.completed(), ocean.sst()));

    // Serve the exchange protocol until the root says we are done: step
    // on each forcing, write a checkpoint shard on request.
    loop {
        let msg = world.recv_match(atm_root, &[TAG_FORCING, TAG_DONE, TAG_CKPT]);
        match msg.tag() {
            TAG_FORCING => {
                let (idx, forcing) = msg.downcast::<(usize, OceanForcing)>();
                // Only the forcing for the next interval advances the
                // model; any other index is a protocol fault, and the
                // root's SST deadline reports it.
                if idx == ocean.completed() {
                    // The ocean dies on accepting the scheduled
                    // interval's forcing: its state is still exactly the
                    // fault-free interval-boundary state.
                    inject_rank_death(cfg, world, idx);
                    world.region("ocean", || {
                        let _t = foam_telemetry::scope("ocean");
                        ocean.step(&forcing);
                    });
                    world.send(atm_root, TAG_SST, (ocean.completed(), ocean.sst()));
                }
            }
            TAG_CKPT => {
                // The request is FIFO-ordered behind the target
                // interval's forcing, so `completed` has reached the
                // target by now; anything else would be a protocol
                // fault, answered with a negative ack that abandons the
                // snapshot.
                let (target, dir) = msg.downcast::<(usize, String)>();
                let ok = ocean.completed() == target
                    && checkpoint::write_ocean_shard(
                        Path::new(&dir),
                        world.rank(),
                        ocean.state(),
                        ocean.completed(),
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
        // Streaming off by default: no stream state, no monthly cost.
        assert!(out.stream.is_none());
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
    fn baseline_config_flips_both_devices() {
        let cfg = FoamConfig::tiny(5);
        let base = baseline_config(&cfg);
        assert_eq!(base.coupling, CouplingMode::Sequential);
        assert_eq!(base.ocean_scheme, SplitScheme::Unsplit);
        assert_eq!(base.atm.nlon, cfg.atm.nlon);
    }

    #[test]
    fn exchange_tags_show_up_in_comm_stats() {
        let cfg = FoamConfig::tiny(6);
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

    /// The root's SST wait skips a stale sequence number and returns
    /// the one it expects.
    #[test]
    fn sst_wait_skips_a_stale_sequence() {
        let out = Universe::run(2, |world| {
            if world.rank() == 1 {
                world.send(0, TAG_SST, (0usize, Field2::zeros(2, 2)));
                world.send(0, TAG_SST, (1usize, Field2::zeros(2, 2)));
                return None;
            }
            Some(recv_sst(world, 1, 1, OCEAN_REPLY_TIMEOUT).map(|(seq, _)| seq))
        });
        assert_eq!(out.results[0], Some(Ok(1)));
        assert!(out.lint.is_clean(), "{}", out.lint);
    }

    /// A stale SST and then silence: the wait gives up at its deadline
    /// with a typed error naming the sequence it waited for, not a panic
    /// or a hang.
    #[test]
    fn sst_wait_times_out_with_a_typed_error() {
        let out = Universe::run(2, |world| {
            if world.rank() == 1 {
                world.send(0, TAG_SST, (0usize, Field2::zeros(2, 2)));
                return None;
            }
            Some(recv_sst(world, 1, 1, Duration::from_millis(50)).map(|(seq, _)| seq))
        });
        assert_eq!(
            out.results[0],
            Some(Err(CoupledError::SstExchange { expected_seq: 1 }))
        );
    }
}
