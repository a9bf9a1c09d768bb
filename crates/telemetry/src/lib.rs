//! `foam-telemetry` — built-in performance telemetry for FOAM-RS.
//!
//! The paper's headline claim is *throughput*: "model speedup" =
//! simulated time / wall-clock time (6,000× real time on the 1997 SP).
//! Sustaining that kind of number over years of development requires the
//! model to *measure itself*: always-on phase timing and throughput
//! accounting, the discipline ESiWACE-style performance engineering
//! starts from. This crate is that layer:
//!
//! * **hierarchical phase timers** — RAII [`scope`] guards record
//!   inclusive wall-clock time under `/`-joined paths
//!   (`atmosphere/dynamics/spectral`), mirroring the paper's Figure 2
//!   categories (dynamics, physics, spectral transform, coupler,
//!   barotropic subcycle);
//! * **monotonic counters** — [`count`] accumulates named event counts
//!   (radiation cache hits/misses, barotropic subcycles, retries,
//!   checkpoint bytes, messages/bytes per tag);
//! * a per-rank [`TelemetryRegistry`] installed thread-local on each
//!   rank (ranks are threads in `foam-mpi`), harvested at rank exit and
//!   reduced across ranks into a [`TelemetryReport`]: model speedup,
//!   per-phase min/mean/max across ranks, load imbalance — serialized as
//!   JSON ([`json`]) into the `BENCH_*.json` artifacts and `foam-perf`'s
//!   ledger;
//! * **negligible cost when disabled** — with no registry installed,
//!   [`scope`] and [`count`] are a thread-local `Option` check and
//!   return; instrumented code never branches on configuration itself.
//!
//! Telemetry observes wall-clock time only — it never touches model
//! state, so enabling it cannot change a simulated field (the coupled
//! integration tests assert bit-for-bit equality with telemetry on and
//! off).
//!
//! # Example
//!
//! ```
//! use foam_telemetry as telemetry;
//!
//! telemetry::install(telemetry::TelemetryRegistry::new(0));
//! {
//!     let _run = telemetry::scope("ocean");
//!     {
//!         let _sub = telemetry::scope("barotropic");
//!         telemetry::count("ocean.subcycles", 30);
//!     } // "ocean/barotropic" recorded here
//! } // "ocean" recorded here
//! let reg = telemetry::harvest().unwrap();
//! assert_eq!(reg.counters()["ocean.subcycles"], 30);
//! assert!(reg.phases()["ocean"].seconds >= reg.phases()["ocean/barotropic"].seconds);
//!
//! // With nothing installed, instrumentation is a no-op:
//! let _s = telemetry::scope("ocean");
//! telemetry::count("ocean.subcycles", 1);
//! assert!(telemetry::harvest().is_none());
//! ```

use std::cell::RefCell;
use std::marker::PhantomData;

pub mod alloc;
pub mod json;
mod registry;
mod report;

pub use alloc::{AllocDelta, AllocRate, AllocStats, CountingAlloc, SteadyMeter};
pub use registry::{PhaseStat, TelemetryRegistry};
pub use report::{Imbalance, PhaseAgg, RankReport, TelemetryReport, SCHEMA};

thread_local! {
    static CURRENT: RefCell<Option<TelemetryRegistry>> = const { RefCell::new(None) };
}

/// Install `reg` as this thread's (rank's) active registry. Subsequent
/// [`scope`] and [`count`] calls on this thread record into it until
/// [`harvest`] removes it. Installing over an existing registry replaces
/// it (the old one is dropped).
pub fn install(reg: TelemetryRegistry) {
    CURRENT.with(|c| *c.borrow_mut() = Some(reg));
}

/// Whether a registry is installed on this thread.
pub fn installed() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Remove and return this thread's registry, closing any scopes still
/// open and stamping its wall-clock span. Returns `None` when telemetry
/// was never installed (the disabled path).
pub fn harvest() -> Option<TelemetryRegistry> {
    CURRENT.with(|c| c.borrow_mut().take()).map(|mut r| {
        r.finish();
        r
    })
}

/// Add `n` to the named monotonic counter (no-op when disabled).
pub fn count(counter: &str, n: u64) {
    CURRENT.with(|c| {
        if let Some(reg) = c.borrow_mut().as_mut() {
            reg.add(counter, n);
        }
    });
}

/// Open a phase scope; the returned guard records the elapsed time when
/// dropped. Scopes nest: a scope opened while another is open records
/// under `parent/child`. When no registry is installed the guard is
/// inert. The guard is `!Send` — it must drop on the thread that opened
/// it.
#[must_use = "the scope is timed until this guard is dropped"]
pub fn scope(name: &'static str) -> Scope {
    let depth = CURRENT.with(|c| c.borrow_mut().as_mut().map(|reg| reg.open(name)));
    Scope {
        depth,
        _not_send: PhantomData,
    }
}

/// Re-enter a phase whose calls were already counted: like [`scope`],
/// but the guard adds only elapsed time to the phase, not a call (see
/// [`TelemetryRegistry::resume`]).
#[must_use = "the scope is timed until this guard is dropped"]
pub fn resume(name: &'static str) -> Scope {
    let depth = CURRENT.with(|c| c.borrow_mut().as_mut().map(|reg| reg.resume(name)));
    Scope {
        depth,
        _not_send: PhantomData,
    }
}

/// RAII guard for a phase scope opened with [`scope`] or [`resume`].
pub struct Scope {
    /// Stack depth to restore on drop; `None` when telemetry is off.
    depth: Option<usize>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for Scope {
    fn drop(&mut self) {
        if let Some(depth) = self.depth {
            CURRENT.with(|c| {
                if let Some(reg) = c.borrow_mut().as_mut() {
                    reg.close_to(depth);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Thread-local state: run each test in its own thread so they cannot
    // see each other's registry.
    fn isolated(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().unwrap();
    }

    #[test]
    fn scopes_record_into_installed_registry() {
        isolated(|| {
            install(TelemetryRegistry::new(2));
            {
                let _a = scope("atmosphere");
                let _b = scope("physics");
                count("columns", 100);
            }
            count("columns", 20);
            let reg = harvest().unwrap();
            assert_eq!(reg.rank(), 2);
            assert_eq!(reg.counters()["columns"], 120);
            assert!(reg.phases().contains_key("atmosphere"));
            assert!(reg.phases().contains_key("atmosphere/physics"));
            assert!(reg.wall_seconds() > 0.0);
        });
    }

    #[test]
    fn disabled_thread_records_nothing() {
        isolated(|| {
            assert!(!installed());
            let g = scope("x");
            count("y", 1);
            drop(g);
            assert!(harvest().is_none());
        });
    }

    #[test]
    fn harvest_closes_open_scopes() {
        isolated(|| {
            install(TelemetryRegistry::new(0));
            let _leak = scope("left-open");
            let reg = harvest().unwrap();
            assert_eq!(reg.phases()["left-open"].calls, 1);
            // The guard's later drop must not panic or record anywhere.
        });
    }

    #[test]
    fn reinstall_replaces_the_registry() {
        isolated(|| {
            install(TelemetryRegistry::new(0));
            count("a", 1);
            install(TelemetryRegistry::new(1));
            count("b", 1);
            let reg = harvest().unwrap();
            assert_eq!(reg.rank(), 1);
            assert!(!reg.counters().contains_key("a"));
            assert_eq!(reg.counters()["b"], 1);
        });
    }
}
