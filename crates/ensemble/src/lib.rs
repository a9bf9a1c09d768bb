//! `foam-ensemble` — fault-tolerant orchestration of *ensembles* of
//! coupled FOAM runs.
//!
//! FOAM's reason for existing is throughput for century-to-millennium
//! climate-variability studies, and those studies are not one run: they
//! are ensembles of perturbed coupled simulations whose spread *is* the
//! science. This crate adds the missing layer above
//! [`foam::try_run_coupled`]: take an [`EnsembleSpec`] (a base
//! [`foam::FoamConfig`] plus per-member perturbations of seeds and
//! parameters, and an optional injected rank death), execute the
//! members across a pool of OS workers ([`run_ensemble`]), retry members
//! that die with a [`foam::CoupledError`] from their own checkpoint
//! store, and reduce everything into one deterministic `foam-ensemble/1`
//! JSON report.
//!
//! # Guarantees
//!
//! * **Determinism / order-independence.** Member outputs depend only
//!   on the member's own configuration (each member is a seeded,
//!   single-trajectory coupled run), and the aggregation is performed
//!   in member-id order over the completed set — so the aggregate
//!   report is **byte-identical** for any worker count and any
//!   submission order. Wall-clock quantities (speedups, phase seconds)
//!   are deliberately kept *out* of the report; they live on
//!   [`EnsembleOutput`] and in the merged telemetry instead.
//! * **Fault tolerance.** A member that fails with a retryable
//!   [`foam::CoupledError`] is recovered by the run supervisor under a
//!   bounded budget and exponential backoff
//!   ([`EnsembleSpec::supervisor`]); when the ensemble has an output
//!   directory, each member checkpoints periodically into its own
//!   store root ([`foam_ckpt::CheckpointStore::member_root`]) and the
//!   retry resumes via [`foam::try_resume_coupled`] — landing on the
//!   uninterrupted run's trajectory **bit-for-bit** (every snapshot is
//!   taken on the failure-free trajectory).
//!
//! # Quickstart
//!
//! ```no_run
//! use foam::FoamConfig;
//! use foam_ensemble::{run_ensemble, EnsembleSpec};
//!
//! // Four members, seeds 42..46, two workers, half a simulated year.
//! let mut spec = EnsembleSpec::seed_sweep(FoamConfig::tiny(42), 180.0, 4);
//! spec.workers = 2;
//! let out = run_ensemble(&spec).unwrap();
//! println!("{}", out.report.to_json().to_string_pretty());
//! ```

pub mod queue;
mod report;
mod runner;
mod spec;

pub use queue::FairShareQueue;
pub use report::{EnsembleReport, MemberDigest, SCHEMA};
pub use runner::{run_ensemble, EnsembleOutput, MemberOutput, MemberRecord};
pub use spec::{EnsembleSpec, MemberSpec, ParamOverride};

// Re-export the driver/config vocabulary an ensemble user needs, so
// `foam_ensemble` works as a single front door.
pub use foam::{
    CkptConfig, ConfigError, CoupledError, FoamConfig, RankKill, RuntimeConfig, TelemetryConfig,
};

use std::path::PathBuf;

/// Typed failure of ensemble orchestration — the spec was unusable or
/// the output directory could not be prepared. Individual member
/// failures do *not* surface here: they are part of the result
/// ([`MemberRecord`]) and the report marks them `failed`.
#[derive(Debug, Clone, PartialEq)]
pub enum EnsembleError {
    /// The spec lists no members.
    NoMembers,
    /// The spec asks for a zero-worker pool.
    NoWorkers,
    /// Two members share an id (ids key checkpoint roots and report
    /// entries, so they must be unique).
    DuplicateMemberId(usize),
    /// A quantity that must be strictly positive was not.
    NonPositive { what: &'static str, value: f64 },
    /// A member's derived configuration failed validation.
    Member { id: usize, error: CoupledError },
    /// The ensemble output directory could not be created.
    OutputDir { path: PathBuf, error: String },
}

impl std::fmt::Display for EnsembleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnsembleError::NoMembers => write!(f, "the ensemble spec lists no members"),
            EnsembleError::NoWorkers => write!(f, "the ensemble spec asks for zero workers"),
            EnsembleError::DuplicateMemberId(id) => {
                write!(f, "duplicate member id {id} in the ensemble spec")
            }
            EnsembleError::NonPositive { what, value } => {
                write!(f, "{what} must be positive and finite, got {value}")
            }
            EnsembleError::Member { id, error } => {
                write!(f, "member {id} has an invalid configuration: {error}")
            }
            EnsembleError::OutputDir { path, error } => {
                write!(
                    f,
                    "cannot create the ensemble output directory {}: {error}",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for EnsembleError {}
