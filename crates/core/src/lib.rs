//! `foam` — the Fast Ocean-Atmosphere Model, reproduced in Rust.
//!
//! This crate is the paper's deliverable: a *coupled* ocean–atmosphere
//! climate model engineered for throughput, assembled from the substrate
//! crates:
//!
//! * `foam-atm` — the R15 spectral atmosphere (latitude-decomposed SPMD),
//! * `foam-ocean` — the 128×128×16 Mercator ocean with FOAM's slowed,
//!   mode-split, subcycled time stepping,
//! * `foam-coupler` — overlap-grid fluxes, land surface, rivers, sea ice,
//! * `foam-mpi` — the message-passing runtime (one thread per "node").
//!
//! [`run_coupled`] launches the paper's production configuration: N
//! atmosphere ranks (the coupler co-located on them, as in the paper) and
//! one ocean rank, with **lagged coupling**: the ocean integrates a 6-hour
//! interval concurrently with the atmosphere's next interval, so one
//! ocean node overlaps its work with 16 atmosphere nodes — the structure
//! visible in the paper's Figure 2. The [`baseline_config`] driver variant integrates
//! the identical physics with the two FOAM advantages removed (unsplit
//! gravity-wave-limited ocean, sequential blocking coupling) — the
//! NCAR-CSM-like comparator of experiment T2.
//!
//! For unattended long runs, [`supervisor::supervise_run`] wraps the
//! driver in a self-healing loop: typed fault classification (rank
//! death, exchange timeout, checkpoint-store I/O, physics sentinel),
//! rollback to the newest readable snapshot, and resume under a bounded
//! recovery budget — with a deterministic, telemetry-embedded record of
//! every recovery taken.
//!
//! # Quickstart
//!
//! ```no_run
//! use foam::{FoamConfig, run_coupled};
//!
//! let cfg = FoamConfig::tiny(42); // reduced resolution for a demo
//! let out = run_coupled(&cfg, 5.0); // five simulated days
//! println!(
//!     "simulated {:.1} days at {:.0}× real time; mean SST {:.2} °C",
//!     out.sim_seconds / 86_400.0,
//!     out.model_speedup,
//!     out.final_mean_sst().unwrap_or(f64::NAN)
//! );
//! ```

mod backoff;
pub mod checkpoint;
mod config;
pub mod diagnostics;
pub mod digest;
mod driver;
pub mod observer;
pub mod stepper;
pub mod stream;
pub mod supervisor;

pub use backoff::Backoff;
pub use checkpoint::GlobalSnapshot;
pub use config::{
    CkptConfig, ConfigError, CouplingMode, FoamConfig, PhysicsFault, PhysicsFaultKind, RankKill,
    RuntimeConfig, StreamStatsConfig, TelemetryConfig,
};
pub use digest::CanonicalHasher;
pub use driver::{
    baseline_config, run_coupled, try_resume_coupled, try_run_coupled, try_run_coupled_observed,
    CoupledError, CoupledOutput,
};
pub use foam_ckpt::{
    CheckpointStore, CkptError, FaultyStore, Snapshot, StoreFault, StoreFaultKind, StoreFaultPlan,
};
pub use observer::{ProgressEvent, RunObserver};
pub use stream::{sea_area_weights, DriverStream};
pub use supervisor::{
    supervise_run, supervise_run_resumable, RecoveryAction, RecoveryEvent, RecoveryReport,
    RunFault, SupervisedOutput, SupervisorConfig, SupervisorError, SupervisorErrorKind,
};

pub use foam_atm::{AtmConfig, AtmModel};
pub use foam_coupler::Coupler;
pub use foam_grid::{Field2, World};
pub use foam_mpi::{CommLint, CommStats, RankTrace, Universe};
pub use foam_ocean::{OceanConfig, OceanModel, SplitScheme};
pub use foam_telemetry::{TelemetryRegistry, TelemetryReport};
