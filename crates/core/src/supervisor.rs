//! The run supervisor: detect → rollback → resume.
//!
//! A coupled run can die four ways that operators of long climate
//! integrations know well: a rank crashes, the ocean stops answering,
//! the checkpoint store misbehaves, or the physics blows up. Without supervision each of those ends the job and waits
//! for a human to restart it. [`supervise_run`] closes the loop
//! in-process:
//!
//! 1. **Detect** — the driver surfaces every failure as a typed
//!    [`CoupledError`] (rank deaths are caught by the runtime's
//!    abort/quiesce machinery in `foam-mpi` and mapped to
//!    [`CoupledError::RankDead`]); the supervisor classifies it into a
//!    [`RunFault`].
//! 2. **Rollback** — survivors are already quiesced by the runtime; the
//!    supervisor restores the newest readable coordinated snapshot
//!    (falling back across corrupt ones) or restarts from the initial
//!    condition when none exists.
//! 3. **Resume** — the SPMD job is relaunched (worker threads respawn
//!    inside [`foam_mpi::Universe`]) and integrates from the rollback
//!    point, under a bounded recovery budget and the deterministic
//!    [`Backoff`] schedule.
//!
//! Recovery is **deterministic and observable**: periodic snapshots lie
//! on the failure-free trajectory and injected faults are disarmed
//! after firing once (the transient-fault model), so the same seed and
//! fault plan produce a bit-identical final state — and a byte-identical
//! [`RecoveryReport`] — every run. The report carries no wall-clock
//! time for exactly that reason.

use foam_telemetry::json::Value;

use crate::backoff::Backoff;
use crate::checkpoint;
use crate::config::FoamConfig;
use crate::driver::{self, CoupledError, CoupledOutput};
use crate::observer::RunObserver;

/// Schema identifier of the recovery section/report JSON.
pub const RECOVERY_SCHEMA: &str = "foam-recovery/1";

/// The failure classes the supervisor can recover from — the typed
/// output of triaging a [`CoupledError`]. Anything that does not map
/// here (invalid configuration, a secondary rank's `Aborted`, an
/// unwritable telemetry path, a broken internal invariant) is
/// *unrecoverable*: retrying cannot change the outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum RunFault {
    /// A rank died (panicked) mid-run; the runtime quiesced the
    /// survivors and reported the culprit.
    RankDead { rank: usize, detail: String },
    /// The SST the root waited for did not come within the driver's
    /// reply deadline — the ocean hung.
    ExchangeTimeout { expected_seq: usize },
    /// Checkpoint-store I/O failed (unreadable snapshot, ENOSPC-style
    /// write error, corrupt shards all the way down).
    CheckpointStore { detail: String },
    /// The physics sentinel refused a NaN/Inf or out-of-range field;
    /// the state before the poison is still on disk.
    PhysicsSentinel { interval: usize, detail: String },
}

impl RunFault {
    /// Triage a driver error: `Some` for the recoverable classes,
    /// `None` for errors a retry cannot fix.
    pub fn classify(e: &CoupledError) -> Option<RunFault> {
        match e {
            CoupledError::RankDead { rank, detail } => Some(RunFault::RankDead {
                rank: *rank,
                detail: detail.clone(),
            }),
            CoupledError::SstExchange { expected_seq } => Some(RunFault::ExchangeTimeout {
                expected_seq: *expected_seq,
            }),
            CoupledError::Ckpt(e) => Some(RunFault::CheckpointStore {
                detail: e.to_string(),
            }),
            CoupledError::Sentinel {
                interval,
                field,
                value,
            } => Some(RunFault::PhysicsSentinel {
                interval: *interval,
                detail: format!("{field} = {value}"),
            }),
            CoupledError::Aborted
            | CoupledError::Config(_)
            | CoupledError::TelemetryWrite { .. }
            | CoupledError::Internal { .. } => None,
        }
    }

    /// Stable machine-readable tag used in the recovery report.
    pub fn kind(&self) -> &'static str {
        match self {
            RunFault::RankDead { .. } => "rank_dead",
            RunFault::ExchangeTimeout { .. } => "exchange_timeout",
            RunFault::CheckpointStore { .. } => "checkpoint_store",
            RunFault::PhysicsSentinel { .. } => "physics_sentinel",
        }
    }
}

impl std::fmt::Display for RunFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunFault::RankDead { rank, detail } => write!(f, "rank {rank} dead: {detail}"),
            RunFault::ExchangeTimeout { expected_seq } => {
                write!(f, "exchange timeout: SST sequence {expected_seq} missing")
            }
            RunFault::CheckpointStore { detail } => write!(f, "checkpoint store: {detail}"),
            RunFault::PhysicsSentinel { interval, detail } => {
                write!(f, "physics sentinel at interval {interval}: {detail}")
            }
        }
    }
}

/// How the supervisor resumed after a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Restored the coordinated snapshot at `from_interval` and
    /// continued from there.
    Resumed { from_interval: usize },
    /// No usable snapshot: restarted the run from the initial
    /// condition.
    Restarted,
}

/// One recovery attempt: the fault that triggered it, what the rollback
/// did, and how much simulated work had to be repeated.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// The classified fault that killed the attempt.
    pub fault: RunFault,
    /// Resumed-from-snapshot or restarted-from-scratch.
    pub action: RecoveryAction,
    /// Coupling intervals integrated again because of the rollback
    /// (fault interval minus rollback interval, where the fault
    /// interval is known).
    pub replayed_intervals: usize,
    /// Set when the rollback's snapshot load itself failed (a second,
    /// storage-side fault observed during recovery) — the supervisor
    /// then restarted from scratch.
    pub store_error: Option<String>,
}

/// The deterministic, observable record of a supervised run's recovery
/// activity: which faults were seen, which rollbacks were taken, and
/// how many simulated days were replayed. Contains **no wall-clock
/// times** — identical seed + fault plan must render byte-identical
/// ([`RecoveryReport::to_json`]) across reruns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryReport {
    /// One entry per recovery attempt, in order.
    pub events: Vec<RecoveryEvent>,
    /// Total simulated days integrated more than once due to rollbacks.
    pub sim_days_replayed: f64,
}

impl RecoveryReport {
    /// Faults observed: one per recovery attempt, plus any storage
    /// faults met during the rollbacks themselves.
    pub fn faults_seen(&self) -> usize {
        self.events
            .iter()
            .map(|e| 1 + usize::from(e.store_error.is_some()))
            .sum()
    }

    /// Rollbacks taken (recovery attempts, whether resumed or
    /// restarted).
    pub fn rollbacks(&self) -> usize {
        self.events.len()
    }

    /// Render the report as a deterministic JSON value (schema
    /// [`RECOVERY_SCHEMA`]); this is the object embedded as the
    /// `recovery` section of the telemetry report.
    pub fn to_json(&self) -> Value {
        let events = Value::Array(
            self.events
                .iter()
                .map(|e| {
                    let (action, from) = match e.action {
                        RecoveryAction::Resumed { from_interval } => {
                            ("resumed", Value::from(from_interval))
                        }
                        RecoveryAction::Restarted => ("restarted", Value::Null),
                    };
                    Value::object([
                        ("kind".to_string(), e.fault.kind().into()),
                        ("fault".to_string(), e.fault.to_string().into()),
                        ("action".to_string(), action.into()),
                        ("from_interval".to_string(), from),
                        (
                            "replayed_intervals".to_string(),
                            e.replayed_intervals.into(),
                        ),
                        (
                            "store_error".to_string(),
                            match &e.store_error {
                                Some(s) => s.as_str().into(),
                                None => Value::Null,
                            },
                        ),
                    ])
                })
                .collect(),
        );
        Value::object([
            ("schema".to_string(), RECOVERY_SCHEMA.into()),
            ("faults_seen".to_string(), self.faults_seen().into()),
            ("rollbacks".to_string(), self.rollbacks().into()),
            (
                "sim_days_replayed".to_string(),
                self.sim_days_replayed.into(),
            ),
            ("events".to_string(), events),
        ])
    }
}

/// Why a supervised run gave up.
#[derive(Debug, Clone, PartialEq)]
pub enum SupervisorErrorKind {
    /// The error is outside the recoverable classes ([`RunFault`]);
    /// retrying cannot change the outcome.
    Unrecoverable,
    /// The recovery budget ([`SupervisorConfig::max_recoveries`]) is
    /// spent.
    BudgetExhausted { recoveries: u32 },
}

/// Typed terminal failure of a supervised run: what finally went wrong,
/// why the supervisor stopped, and the recovery activity up to that
/// point.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorError {
    /// Gave up because unrecoverable, or because the budget ran out.
    pub kind: SupervisorErrorKind,
    /// The error of the last attempt.
    pub last_error: CoupledError,
    /// Recovery activity before giving up (still deterministic).
    pub recovery: RecoveryReport,
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            SupervisorErrorKind::Unrecoverable => {
                write!(f, "unrecoverable failure: {}", self.last_error)
            }
            SupervisorErrorKind::BudgetExhausted { recoveries } => write!(
                f,
                "recovery budget exhausted after {recoveries} attempts; last error: {}",
                self.last_error
            ),
        }
    }
}

impl std::error::Error for SupervisorError {}

/// Supervisor policy: how many rollback-and-resume attempts to make and
/// how to pace them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Recovery attempts before the run fails with
    /// [`SupervisorErrorKind::BudgetExhausted`].
    pub max_recoveries: u32,
    /// Pause before each recovery attempt (shared deterministic
    /// schedule; see [`Backoff`]).
    pub backoff: Backoff,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_recoveries: 3,
            backoff: Backoff::capped(0.05, 2.0),
        }
    }
}

/// A supervised run's result: the coupled output plus the recovery
/// record. When telemetry was collected, the same record is embedded in
/// the report as its `recovery` section (and rewritten to
/// `cfg.telemetry.path` when one is configured).
#[derive(Debug)]
pub struct SupervisedOutput {
    /// The completed run's output, exactly as an unfaulted run would
    /// produce it.
    pub output: CoupledOutput,
    /// What the supervisor had to do to get there (empty on a clean
    /// run).
    pub recovery: RecoveryReport,
    /// The coupling interval the *first* attempt resumed from, when the
    /// run was started with [`supervise_run_resumable`] over a store
    /// that already held a snapshot (`None` for a fresh start).
    /// Mid-run rollbacks are recorded in `recovery`, not here.
    pub resumed_from: Option<usize>,
}

/// Run the coupled model under the supervisor: detect typed faults,
/// roll back to the newest readable coordinated snapshot, and resume —
/// up to `sup.max_recoveries` times — before surfacing a typed
/// [`SupervisorError`]. Injected faults are disarmed after the class
/// fires once (the transient-fault model).
pub fn supervise_run(
    cfg: &FoamConfig,
    days: f64,
    sup: &SupervisorConfig,
) -> Result<SupervisedOutput, SupervisorError> {
    supervise_inner(cfg, days, sup, None, false)
}

/// [`supervise_run`] for *hosted* jobs: attach a live [`RunObserver`]
/// (progress, cancellation, recovery notifications), and — the
/// job-facing difference — let the **first** attempt resume from a
/// snapshot already in `cfg.ckpt.dir`. A service that died mid-job and
/// restarted calls this to continue the job from its newest committed
/// interval instead of recomputing; a snapshot taken at interval `k`
/// restores the full diagnostics series, so the finished output is
/// byte-identical to an uninterrupted run. With an empty (or absent)
/// store this is exactly `supervise_run` plus the observer.
pub fn supervise_run_resumable(
    cfg: &FoamConfig,
    days: f64,
    sup: &SupervisorConfig,
    obs: Option<&dyn RunObserver>,
) -> Result<SupervisedOutput, SupervisorError> {
    supervise_inner(cfg, days, sup, obs, true)
}

fn supervise_inner(
    cfg: &FoamConfig,
    days: f64,
    sup: &SupervisorConfig,
    obs: Option<&dyn RunObserver>,
    resume_first: bool,
) -> Result<SupervisedOutput, SupervisorError> {
    let mut cfg = cfg.clone();
    let n_couple = driver::n_couple_for(&cfg, days);
    let mut recovery = RecoveryReport::default();
    let mut recoveries = 0u32;
    // A resumable start is *tolerant* of an unreadable store (it is an
    // optimization, not a contract): fall back to a fresh run and let
    // the recovery loop handle any store fault that persists.
    let mut snapshot = resume_first
        .then(|| checkpoint::latest_for(&cfg).ok().flatten())
        .flatten()
        .filter(|s| s.interval < n_couple);
    let resumed_from = snapshot.as_ref().map(|s| s.interval);
    let give_up = |kind, last_error, recovery| {
        Err(SupervisorError {
            kind,
            last_error,
            recovery,
        })
    };
    loop {
        let err = match driver::start(&cfg, days, snapshot.take(), obs) {
            Ok(mut output) => {
                attach_recovery(&mut output, &cfg, &recovery);
                return Ok(SupervisedOutput {
                    output,
                    recovery,
                    resumed_from,
                });
            }
            Err(e) => e,
        };
        let Some(fault) = RunFault::classify(&err) else {
            return give_up(SupervisorErrorKind::Unrecoverable, err, recovery);
        };
        if recoveries >= sup.max_recoveries {
            let kind = SupervisorErrorKind::BudgetExhausted { recoveries };
            return give_up(kind, err, recovery);
        }
        recoveries += 1;
        std::thread::sleep(sup.backoff.delay(recoveries));
        // Where did the run die? Known exactly for sentinel/exchange
        // faults, from the (pre-disarm) kill schedule for injected rank
        // deaths, unknown (0) otherwise — the replay accounting is then
        // a lower bound.
        let fault_interval = match &fault {
            RunFault::ExchangeTimeout { expected_seq, .. } => *expected_seq,
            RunFault::PhysicsSentinel { interval, .. } => *interval,
            RunFault::RankDead { .. } => cfg
                .runtime
                .kill_rank
                .map(|k| k.interval)
                .unwrap_or_default(),
            RunFault::CheckpointStore { .. } => 0,
        };
        disarm(&mut cfg, &fault);
        // Roll back: newest readable snapshot short of the end of the
        // run, else a fresh start. A failing load is itself a
        // storage-side fault — recorded, then recovered from by
        // restarting.
        let mut store_error = None;
        snapshot = match checkpoint::latest_for(&cfg) {
            Ok(s) => s.filter(|s| s.interval < n_couple),
            Err(e) => {
                store_error = Some(e.to_string());
                None
            }
        };
        let (action, replayed) = match &snapshot {
            Some(s) => (
                RecoveryAction::Resumed {
                    from_interval: s.interval,
                },
                fault_interval.saturating_sub(s.interval),
            ),
            None => (RecoveryAction::Restarted, fault_interval),
        };
        recovery.sim_days_replayed += replayed as f64 * cfg.dt_couple / 86_400.0;
        recovery.events.push(RecoveryEvent {
            fault,
            action,
            replayed_intervals: replayed,
            store_error,
        });
        if let (Some(o), Some(ev)) = (obs, recovery.events.last()) {
            o.on_recovery(ev);
        }
    }
}

/// The transient-fault model: after a fault class fires (and is
/// recovered from), its injection knob is cleared so the next attempt
/// runs clean. A hung ocean has no injection knob: the next attempt
/// simply relaunches it.
fn disarm(cfg: &mut FoamConfig, fault: &RunFault) {
    match fault {
        RunFault::RankDead { .. } => cfg.runtime.kill_rank = None,
        RunFault::ExchangeTimeout { .. } => {}
        RunFault::PhysicsSentinel { .. } => cfg.runtime.physics_fault = None,
        RunFault::CheckpointStore { .. } => cfg.ckpt.fault_plan = None,
    }
}

/// Embed the recovery record into the run's telemetry report (the
/// `recovery` section) and rewrite the report file when a path is
/// configured, so the on-disk document matches the in-memory one.
fn attach_recovery(output: &mut CoupledOutput, cfg: &FoamConfig, recovery: &RecoveryReport) {
    if let Some(report) = output.telemetry.as_mut() {
        report
            .extra
            .insert("recovery".to_string(), recovery.to_json());
        if let Some(path) = &cfg.telemetry.path {
            // Best effort: the unsupervised write already succeeded; a
            // failure here leaves that (recovery-less) document behind.
            let _ = report.write_json(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PhysicsFault, PhysicsFaultKind, RankKill};
    use foam_ckpt::CkptError;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "foam-supervisor-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn classification_covers_the_fault_matrix() {
        assert_eq!(
            RunFault::classify(&CoupledError::RankDead {
                rank: 2,
                detail: "boom".into()
            }),
            Some(RunFault::RankDead {
                rank: 2,
                detail: "boom".into()
            })
        );
        assert_eq!(
            RunFault::classify(&CoupledError::SstExchange { expected_seq: 3 }),
            Some(RunFault::ExchangeTimeout { expected_seq: 3 })
        );
        assert!(matches!(
            RunFault::classify(&CoupledError::Ckpt(CkptError::NoCheckpoint)),
            Some(RunFault::CheckpointStore { .. })
        ));
        assert!(matches!(
            RunFault::classify(&CoupledError::Sentinel {
                interval: 1,
                field: "sst",
                value: f64::NAN
            }),
            Some(RunFault::PhysicsSentinel { interval: 1, .. })
        ));
        assert_eq!(RunFault::classify(&CoupledError::Aborted), None);
        assert_eq!(
            RunFault::classify(&CoupledError::Internal { what: "x".into() }),
            None
        );
    }

    #[test]
    fn clean_runs_report_no_recovery_activity() {
        let mut cfg = FoamConfig::tiny(21);
        cfg.telemetry.enabled = true;
        let out = supervise_run(&cfg, 0.5, &SupervisorConfig::default()).expect("clean run");
        assert!(out.recovery.events.is_empty());
        assert_eq!(out.recovery.faults_seen(), 0);
        assert_eq!(out.recovery.sim_days_replayed, 0.0);
        // The telemetry report carries the (empty) recovery section.
        let report = out.output.telemetry.expect("telemetry on");
        let json = report.to_json().to_string_pretty();
        assert!(json.contains("\"recovery\""), "{json}");
        assert!(json.contains(RECOVERY_SCHEMA), "{json}");
    }

    #[test]
    fn rank_death_recovers_by_resuming_the_checkpoint() {
        let dir = scratch("rank-death");
        let mut cfg = FoamConfig::tiny(22);
        cfg.ckpt = crate::CkptConfig::every(&dir, 2);
        // 2 days = 8 intervals, checkpoints at 2,4,6,8; kill rank 1 at
        // interval 5 → resume from interval 4, replaying one interval.
        cfg.runtime.kill_rank = Some(RankKill {
            rank: 1,
            interval: 5,
        });
        let sup = SupervisorConfig {
            max_recoveries: 2,
            backoff: Backoff::capped(0.0, 0.0),
        };
        let out = supervise_run(&cfg, 2.0, &sup).expect("supervised recovery");
        assert_eq!(out.recovery.rollbacks(), 1);
        let e = &out.recovery.events[0];
        assert!(
            matches!(&e.fault, RunFault::RankDead { rank: 1, detail } if detail.contains("injected rank death")),
            "{:?}",
            e.fault
        );
        assert_eq!(e.action, RecoveryAction::Resumed { from_interval: 4 });
        assert_eq!(e.replayed_intervals, 1);
        // The run completed its full span after recovery.
        assert_eq!(out.output.mean_sst_series.len(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn physics_fault_recovers_and_disarms() {
        let dir = scratch("sentinel");
        let mut cfg = FoamConfig::tiny(23);
        cfg.ckpt = crate::CkptConfig::every(&dir, 2);
        cfg.runtime.physics_fault = Some(PhysicsFault {
            interval: 3,
            kind: PhysicsFaultKind::Nan,
        });
        let sup = SupervisorConfig {
            max_recoveries: 1,
            backoff: Backoff::capped(0.0, 0.0),
        };
        let out = supervise_run(&cfg, 1.0, &sup).expect("recovered from NaN");
        assert_eq!(out.recovery.rollbacks(), 1);
        assert!(matches!(
            out.recovery.events[0].fault,
            RunFault::PhysicsSentinel { interval: 3, .. }
        ));
        assert_eq!(
            out.recovery.events[0].action,
            RecoveryAction::Resumed { from_interval: 2 }
        );
        assert_eq!(out.output.mean_sst_series.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn without_checkpoints_recovery_restarts_from_scratch() {
        let mut cfg = FoamConfig::tiny(24);
        cfg.runtime.kill_rank = Some(RankKill {
            rank: 0,
            interval: 2,
        });
        let sup = SupervisorConfig {
            max_recoveries: 1,
            backoff: Backoff::capped(0.0, 0.0),
        };
        let out = supervise_run(&cfg, 1.0, &sup).expect("restarted");
        assert_eq!(out.recovery.events[0].action, RecoveryAction::Restarted);
        assert_eq!(out.recovery.events[0].replayed_intervals, 2);
        assert_eq!(out.output.mean_sst_series.len(), 4);
    }

    #[test]
    fn budget_exhaustion_is_a_typed_terminal_error() {
        // A run that dies at its first interval, with no recovery
        // budget at all.
        let mut cfg = FoamConfig::tiny(25);
        cfg.runtime.kill_rank = Some(RankKill {
            rank: 0,
            interval: 0,
        });
        let sup = SupervisorConfig {
            max_recoveries: 0,
            backoff: Backoff::capped(0.0, 0.0),
        };
        let err = supervise_run(&cfg, 0.5, &sup).unwrap_err();
        assert_eq!(
            err.kind,
            SupervisorErrorKind::BudgetExhausted { recoveries: 0 }
        );
        assert!(matches!(err.last_error, CoupledError::RankDead { .. }));
        assert!(err.recovery.events.is_empty());
    }

    #[test]
    fn unrecoverable_errors_bypass_the_budget() {
        let mut cfg = FoamConfig::tiny(26);
        cfg.atm.dt = 0.0; // invalid configuration
        let err = supervise_run(&cfg, 1.0, &SupervisorConfig::default()).unwrap_err();
        assert_eq!(err.kind, SupervisorErrorKind::Unrecoverable);
        assert!(matches!(err.last_error, CoupledError::Config(_)));
        assert_eq!(err.recovery.rollbacks(), 0);
    }

    #[test]
    fn recovery_report_json_is_deterministic() {
        let report = RecoveryReport {
            events: vec![RecoveryEvent {
                fault: RunFault::RankDead {
                    rank: 1,
                    detail: "injected".into(),
                },
                action: RecoveryAction::Resumed { from_interval: 4 },
                replayed_intervals: 2,
                store_error: None,
            }],
            sim_days_replayed: 0.5,
        };
        let a = report.to_json().to_string_pretty();
        let b = report.clone().to_json().to_string_pretty();
        assert_eq!(a, b);
        assert!(a.contains("\"rank_dead\""));
        assert!(a.contains("\"resumed\""));
    }
}
