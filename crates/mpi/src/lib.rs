//! `foam-mpi` — the message-passing runtime FOAM runs on, standing in
//! for MPI.
//!
//! The SC'97 FOAM paper runs its coupled climate model as an SPMD program
//! over MPI on IBM SP distributed-memory nodes. Rust has no mature MPI
//! bindings, so this crate provides the same programming model with one OS
//! thread per rank and channel-based communication — cut to the
//! communication *pattern* of the original, not to MPI's catalogue:
//!
//! * tagged, typed point-to-point [`Comm::send`] / [`Comm::recv`] with
//!   MPI-style (source, tag) matching and out-of-order message stashing,
//!   plus [`Comm::recv_deadline`], [`Comm::recv_match`] and
//!   [`Comm::drain`] for the SST/forcing exchange with the ocean node,
//! * three collectives: [`Comm::allreduce_mut`] (the global sums of the
//!   spectral transform and of the ocean forcing), [`Comm::gather`] and
//!   [`Comm::bcast`] (the coupler boundary; together an allgather),
//! * communicator splitting ([`Comm::split`]) so the atmosphere, ocean and
//!   coupler can each own a sub-communicator exactly as in the paper,
//! * built-in activity tracing ([`Comm::region`]) so the per-processor time
//!   allocation of the paper's Figure 2 can be regenerated: time blocked in
//!   `recv`/collectives is recorded as *wait* (idle) time.
//!
//! Nothing else of MPI is here. Barriers, scatter, all-to-all, probes,
//! communicator duplication and rooted or allocating reductions had no
//! caller in the model, the figure binaries or the benchmark, so they
//! were deleted rather than kept in step: every collective that remains
//! is one a coupled run executes and the property tests exercise.
//!
//! # Failure-aware runtime
//!
//! On top of the MPI model, the runtime is instrumented for debugging
//! coupled-model communication bugs:
//!
//! * **Deadlines instead of deadlocks** — [`Comm::recv_deadline`] turns
//!   a mismatched tag from an infinite hang into a [`RecvTimeout`] that
//!   names the unmatched messages sitting in the mailbox. The driver
//!   sets one on the two replies it awaits from the ocean (the SST and
//!   the checkpoint acknowledgement); every other receive blocks.
//! * **Comm-lint at teardown** — every [`Universe`] run returns a
//!   [`CommLint`]: leaked (sent-but-never-received) messages by
//!   `(source, tag)`, per-tag send/receive imbalances, and ranks whose
//!   receives timed out. When a rank panics, the lint is printed to
//!   stderr before the panic propagates.
//! * **Per-rank comm statistics** — message/byte counters and wait-time
//!   histograms per tag ([`CommStats`]), carried on each
//!   [`RankTrace`], so trace tooling reports *what* ranks waited on.
//! * **Typed rank-death detection** — [`Universe::try_run_cfg`] returns a
//!   [`RankFailure`] naming the first rank that died instead of
//!   re-raising its panic; survivors are parked (quiesced) by a
//!   job-abort broadcast at their next communication call — the message
//!   itself wakes a blocked receive — so the job tears down promptly.
//!   The broadcast is the job's one abort signal.
//! * **Payload recycling** — the per-thread [`pool`] recycles `Vec<f64>`
//!   message payloads, and [`Comm::allreduce_mut`] is an in-place,
//!   steady-state allocation-free reduction for hot-loop use (see
//!   PERFORMANCE.md).
//!
//! Delivery is reliable and in order, as in MPI: nothing here loses,
//! delays or reorders a message. The faults a run can meet are a dead
//! rank (above) and what lies outside this crate — a failing checkpoint
//! store, a blown-up model — and the run supervisor recovers from all of
//! them by rollback.
//!
//! # Example
//!
//! ```
//! use foam_mpi::Universe;
//!
//! let out = Universe::run(4, |comm| {
//!     // Each rank contributes its rank id; everyone learns the sum.
//!     let mut total = [comm.rank() as f64];
//!     comm.allreduce_mut(&mut total, foam_mpi::ReduceOp::Sum);
//!     total[0] as usize
//! });
//! assert_eq!(out.results, vec![6, 6, 6, 6]);
//! ```

mod comm;
pub mod pool;
mod stats;
mod trace;
mod universe;

pub use comm::{Comm, Message, RecvTimeout, ReduceOp};
pub use stats::{
    tag_label, CommLint, CommStats, LeakedMessage, TagImbalance, TagStats, WaitHistogram,
};
pub use trace::{RankTrace, Segment, SegmentKind};
pub use universe::{RankFailure, RunConfig, RunOutput, Universe};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_universe_runs() {
        let out = Universe::run(1, |comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.size(), 1);
            42
        });
        assert_eq!(out.results, vec![42]);
    }

    #[test]
    fn ranks_are_distinct_and_complete() {
        let out = Universe::run(8, |comm| comm.rank());
        let mut got = out.results.clone();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn results_are_in_rank_order() {
        let out = Universe::run(5, |comm| comm.rank() * 10);
        assert_eq!(out.results, vec![0, 10, 20, 30, 40]);
    }
}
