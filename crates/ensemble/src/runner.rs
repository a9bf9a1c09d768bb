//! Execution of an [`EnsembleSpec`]: the worker pool, the
//! per-member retry loop, and the final reduction into an
//! [`EnsembleReport`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use foam::supervisor::supervise_run;
use foam::{CoupledError, CoupledOutput};
use foam_grid::Field2;
use foam_telemetry::TelemetryReport;

use crate::report::EnsembleReport;
use crate::spec::{EnsembleSpec, MemberSpec};
use crate::EnsembleError;

/// The deterministic science output of one completed member — the
/// subset of [`foam::CoupledOutput`] the ensemble keeps (plus the
/// member's wall-clock speedup and telemetry, which are *not* part of
/// the deterministic report).
#[derive(Debug, Clone)]
pub struct MemberOutput {
    /// Area-mean SST after each coupling interval \[°C\].
    pub mean_sst_series: Vec<f64>,
    /// SST field at the end of the run (ocean grid).
    pub final_sst: Field2,
    /// Sea-ice fraction of the ocean area at the end.
    pub ice_fraction: f64,
    /// Simulated span \[s\].
    pub sim_seconds: f64,
    /// The member's own model speedup (wall-clock; excluded from the
    /// deterministic report).
    pub model_speedup: f64,
    /// The member's telemetry report, when collection was enabled.
    pub telemetry: Option<TelemetryReport>,
}

impl From<CoupledOutput> for MemberOutput {
    fn from(out: CoupledOutput) -> Self {
        MemberOutput {
            mean_sst_series: out.mean_sst_series,
            final_sst: out.final_sst,
            ice_fraction: out.ice_fraction,
            sim_seconds: out.sim_seconds,
            model_speedup: out.model_speedup,
            telemetry: out.telemetry,
        }
    }
}

/// What happened to one member: its spec, how many times it was
/// retried, and either its output or the error that exhausted the
/// retry budget.
#[derive(Debug, Clone)]
pub struct MemberRecord {
    pub spec: MemberSpec,
    /// Retries consumed (0 = succeeded first try; a nonzero value with
    /// `result: Ok` means the member *recovered*).
    pub retries: u32,
    pub result: Result<MemberOutput, CoupledError>,
}

impl MemberRecord {
    /// Convenience view of a successful output.
    pub fn output(&self) -> Option<&MemberOutput> {
        self.result.as_ref().ok()
    }
}

/// Everything an ensemble run produced. `report` is the deterministic
/// part (byte-identical across worker counts and submission orders);
/// the rest carries wall-clock information.
#[derive(Debug)]
pub struct EnsembleOutput {
    /// Per-member records, sorted by member id.
    pub members: Vec<MemberRecord>,
    /// The deterministic `foam-ensemble/1` aggregate report.
    pub report: EnsembleReport,
    /// All successful members' telemetry merged into one cross-member
    /// report (wall-clock; `None` when no member carried telemetry).
    pub merged_telemetry: Option<TelemetryReport>,
    /// Wall-clock span of the whole ensemble \[s\].
    pub wall_seconds: f64,
}

/// Execute the ensemble: validate the spec, prepare the output
/// directory, run every member across the worker pool (recovering
/// failures per the spec's supervisor policy), and reduce the
/// results into the deterministic aggregate report.
///
/// Member failures do not fail the ensemble — they are recorded on the
/// member's [`MemberRecord`] and marked `failed` in the report. Only an
/// unusable spec or output directory returns an [`EnsembleError`].
pub fn run_ensemble(spec: &EnsembleSpec) -> Result<EnsembleOutput, EnsembleError> {
    spec.validate()?;
    if let Some(dir) = &spec.output_dir {
        std::fs::create_dir_all(dir).map_err(|e| EnsembleError::OutputDir {
            path: dir.clone(),
            error: e.to_string(),
        })?;
    }

    let start = Instant::now();
    // The member list is fixed up front, so the pool needs one shared
    // counter: an idle worker claims the next unclaimed member. Which
    // worker ran which member, and in what order they finished, is
    // erased by the sort below. A panicking member propagates through
    // the scope's join.
    let next = AtomicUsize::new(0);
    let mut members: Vec<MemberRecord> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..spec.workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some(m) = spec.members.get(next.fetch_add(1, Ordering::Relaxed)) {
                        done.push(run_member(spec, m));
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    // Aggregation walks members in id order — never completion order.
    members.sort_by_key(|r| r.spec.id);

    let report = EnsembleReport::build(spec, &members);
    let merged_telemetry = TelemetryReport::merged(
        members
            .iter()
            .filter_map(|r| r.output()?.telemetry.as_ref()),
    );

    Ok(EnsembleOutput {
        members,
        report,
        merged_telemetry,
        wall_seconds: start.elapsed().as_secs_f64(),
    })
}

/// Run one member under the run supervisor
/// ([`foam::supervisor::supervise_run`]) to completion or recovery
/// exhaustion.
///
/// The member always starts from a clean checkpoint store (stale
/// snapshots from a previous ensemble in the same directory must not
/// leak into this one). The spec's [`foam::SupervisorConfig`] bounds the
/// rollback-and-resume attempts and paces them. The supervisor classifies
/// each failure, disarms the injected fault class that fired (the
/// transient-fault model), rolls back to the member's newest committed
/// snapshot, and resumes — periodic snapshots lie on the failure-free
/// trajectory, so a recovered member's output is bit-identical to an
/// unfaulted member's.
fn run_member(spec: &EnsembleSpec, m: &MemberSpec) -> MemberRecord {
    let cfg = spec.member_config(m);
    if let Some(dir) = &cfg.ckpt.dir {
        // Ensemble-owned scratch: clear it so the supervisor's rollback
        // can only ever see snapshots from *this* member run.
        let _ = std::fs::remove_dir_all(dir);
    }
    match supervise_run(&cfg, spec.days, &spec.supervisor) {
        Ok(out) => MemberRecord {
            spec: m.clone(),
            retries: out.recovery.rollbacks() as u32,
            result: Ok(MemberOutput::from(out.output)),
        },
        Err(e) => MemberRecord {
            spec: m.clone(),
            retries: e.recovery.rollbacks() as u32,
            result: Err(e.last_error),
        },
    }
}
