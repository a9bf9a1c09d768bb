//! Live observation hooks for long-running coupled integrations.
//!
//! A batch run only needs its final [`CoupledOutput`]; a *service*
//! hosting the run needs to watch it: stream per-interval diagnostics
//! to a client, cancel a job whose tenant disconnected, and record
//! recoveries as they happen rather than after the fact. A
//! [`RunObserver`] is that window. The driver invokes it **on the root
//! rank only** (the rank that owns the diagnostics series and the
//! exchange protocol), so implementations see one coherent stream of
//! events in simulated-time order, never racing callbacks from sibling
//! ranks.
//!
//! Observation must not perturb the simulated bits: the hooks receive
//! read-only snapshots of values the root already computed, and a
//! cancellation via [`RunObserver::should_stop`] reuses the abort
//! broadcast of the exchange protocol — every rank (and the ocean)
//! tears down cleanly, committed checkpoints stay on disk, and a later
//! resume continues the identical trajectory.
//!
//! [`CoupledOutput`]: crate::CoupledOutput

use crate::supervisor::RecoveryEvent;

/// One completed coupling interval, as seen by the root rank right
/// after it recorded the interval's diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressEvent {
    /// Coupling intervals completed so far (1-based; equals
    /// `n_intervals` on the final event). After a resume this starts
    /// from the snapshot's interval, not from 1.
    pub interval: usize,
    /// Total coupling intervals in the run.
    pub n_intervals: usize,
    /// Simulated days completed (`interval * dt_couple / 86 400`).
    pub day: f64,
    /// Area-weighted mean SST over sea points (°C) at the end of this
    /// interval — the newest value of `mean_sst_series`.
    pub mean_sst: f64,
}

/// Callbacks a hosted run delivers from its root rank. All methods
/// default to no-ops so implementations override only what they watch.
///
/// Implementations must be `Sync`: the observer reference is captured
/// by every rank thread (though only the root calls it).
pub trait RunObserver: Sync {
    /// A coupling interval finished and its diagnostics were recorded.
    fn on_interval(&self, _ev: &ProgressEvent) {}

    /// Polled by the root once per coupling interval, before the
    /// interval's ocean exchange. Returning `true` aborts the run
    /// cleanly: the root broadcasts the abort to the other ranks,
    /// shuts the ocean down, and the run returns
    /// [`CoupledError::Aborted`](crate::CoupledError::Aborted).
    /// Checkpoints already committed remain on disk, so a cancelled
    /// job is resumable.
    fn should_stop(&self) -> bool {
        false
    }

    /// The supervisor rolled back and resumed after a fault (only
    /// delivered by [`supervise_run_resumable`] and friends, which
    /// host the recovery loop).
    ///
    /// [`supervise_run_resumable`]: crate::supervisor::supervise_run_resumable
    fn on_recovery(&self, _ev: &RecoveryEvent) {}
}
