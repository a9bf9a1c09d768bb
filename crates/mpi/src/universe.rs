//! Launching an SPMD "job": one OS thread per rank, like `mpirun -np N`.
//!
//! Teardown is failure-aware: after the rank closures return (or panic),
//! every rank's mailbox is drained into a [`CommLint`] report — unmatched
//! messages, per-tag send/receive imbalances, expired deadlines — so a
//! miscommunicating job *reports* what it leaked instead of hanging.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel;
use parking_lot::Mutex;

use crate::comm::{make_abort, Comm, Quiesced, RankLint};
use crate::stats::{CommLint, CommStats, LeakedMessage, TagImbalance};
use crate::trace::RankTrace;

/// Knobs for a [`Universe::try_run_cfg`] job.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Record per-rank activity traces from the start (Figure 2).
    pub tracing: bool,
}

/// Results of a [`Universe::run`]: per-rank closure outputs and activity
/// traces (both indexed by rank), plus the teardown comm-lint report.
#[derive(Debug)]
pub struct RunOutput<R> {
    pub results: Vec<R>,
    pub traces: Vec<RankTrace>,
    /// What the communication layer left behind at teardown.
    pub lint: CommLint,
}

/// Typed description of a failed job, returned by
/// [`Universe::try_run_cfg`]: which rank died first, the panic message,
/// which survivors were quiesced by the abort broadcast, plus the
/// teardown lint for diagnosis.
pub struct RankFailure {
    /// World rank of the first rank that died (the culprit).
    pub rank: usize,
    /// The culprit's panic message (best-effort string extraction).
    pub detail: String,
    /// Ranks parked by the abort broadcast (casualties, ascending).
    pub quiesced: Vec<usize>,
    /// What the communication layer left behind at teardown.
    pub lint: CommLint,
    payload: Box<dyn std::any::Any + Send>,
}

impl RankFailure {
    /// Re-raise the culprit's original panic (used by the panicking
    /// [`Universe::run`]-family entry points).
    pub fn resume(self) -> ! {
        std::panic::resume_unwind(self.payload)
    }
}

impl std::fmt::Debug for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankFailure")
            .field("rank", &self.rank)
            .field("detail", &self.detail)
            .field("quiesced", &self.quiesced)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} died: {}", self.rank, self.detail)?;
        if !self.quiesced.is_empty() {
            write!(f, " ({} surviving ranks quiesced)", self.quiesced.len())?;
        }
        Ok(())
    }
}

impl std::error::Error for RankFailure {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Entry point of the message-passing runtime.
pub struct Universe;

/// Stack size per rank thread. The spectral atmosphere keeps its large
/// arrays on the heap, but physics drivers recurse over columns; 16 MiB
/// gives ample headroom (matching common MPI defaults).
const RANK_STACK: usize = 16 * 1024 * 1024;

impl Universe {
    /// Run `f` on `n` ranks and wait for all of them. Panics in any rank
    /// propagate (the whole job aborts, like an MPI error), after the
    /// teardown lint is printed to stderr.
    pub fn run<R, F>(n: usize, f: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        match Self::try_run_cfg(n, RunConfig::default(), f) {
            Ok(out) => out,
            Err(failure) => {
                // Give the user the teardown diagnosis before aborting,
                // the way a batch MPI job prints its error file.
                eprintln!("{}", failure.lint);
                failure.resume()
            }
        }
    }

    /// The configurable launcher (tracing). Every rank runs under
    /// `catch_unwind`, so a rank death comes back as a typed
    /// [`RankFailure`] instead of re-raising the panic, with the
    /// teardown lint. When a rank dies, the universe broadcasts an abort
    /// message to every other rank; survivors park with a quiesce panic
    /// at their next communication call (a blocked receive wakes on the
    /// message), so the job tears down promptly and the *first* failure
    /// is the one attributed. This is the primitive the run supervisor
    /// builds detect-rollback-resume on.
    //
    // The Err variant is large (it carries the teardown lint and the
    // panic payload), but this returns once per *job*, not per message
    // — boxing would only complicate the one caller that matters.
    #[allow(clippy::result_large_err)]
    pub fn try_run_cfg<R, F>(n: usize, cfg: RunConfig, f: F) -> Result<RunOutput<R>, RankFailure>
    where
        R: Send,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        assert!(n > 0, "a universe needs at least one rank");
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel::unbounded();
            txs.push(tx);
            rxs.push(rx);
        }
        let senders = Arc::new(txs);
        let epoch = Instant::now();
        // The first rank to die, attributed as the culprit.
        let culprit = AtomicUsize::new(usize::MAX);

        type Slot<R> = (std::thread::Result<R>, RankTrace, RankLint);
        let slots: Vec<Mutex<Option<Slot<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();

        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(n);
            for (rank, rx) in rxs.into_iter().enumerate() {
                let senders = Arc::clone(&senders);
                let culprit = &culprit;
                let f = &f;
                let slot = &slots[rank];
                let tracing = cfg.tracing;
                let handle = std::thread::Builder::new()
                    .name(format!("foam-rank-{rank}"))
                    .stack_size(RANK_STACK)
                    .spawn_scoped(s, move || {
                        let comm = Comm::new_world(rank, rx, Arc::clone(&senders), epoch, tracing);
                        let out = std::panic::catch_unwind(AssertUnwindSafe(|| f(&comm)));
                        if let Err(p) = &out {
                            if !p.is::<Quiesced>() {
                                let _ = culprit.compare_exchange(
                                    usize::MAX,
                                    rank,
                                    Ordering::SeqCst,
                                    Ordering::SeqCst,
                                );
                            }
                            // Wake everyone still blocked in a receive.
                            // A parked rank repeats the abort too, so
                            // every endpoint that drops after a failure
                            // has left an abort in each peer's mailbox:
                            // a send that finds it gone parks instead of
                            // panicking.
                            for (dst, tx) in senders.iter().enumerate() {
                                if dst != rank {
                                    let _ = tx.send(make_abort(rank));
                                }
                            }
                        }
                        let (trace, lint) = comm.finalize();
                        *slot.lock() = Some((out, trace, lint));
                    })
                    .expect("failed to spawn rank thread");
                handles.push(handle);
            }
            for h in handles {
                // The closure's own panic was caught; a join error here
                // would mean the harness itself failed.
                h.join().expect("rank thread harness panicked");
            }
        });

        let mut results = Vec::with_capacity(n);
        let mut traces = Vec::with_capacity(n);
        let mut rank_lints = Vec::with_capacity(n);
        let mut panics: Vec<(usize, Box<dyn std::any::Any + Send>)> = Vec::new();
        for (rank, slot) in slots.into_iter().enumerate() {
            let (out, trace, lint) = slot
                .into_inner()
                .expect("rank finished without storing a result");
            match out {
                Ok(r) => results.push(r),
                Err(p) => panics.push((rank, p)),
            }
            traces.push(trace);
            rank_lints.push(lint);
        }

        let lint = aggregate_lint(&traces, &rank_lints);

        if panics.is_empty() {
            return Ok(RunOutput {
                results,
                traces,
                lint,
            });
        }

        // Attribute the failure to the first rank that died. A rank only
        // parks on an abort, which a rank that died sent first.
        let quiesced: Vec<usize> = panics
            .iter()
            .filter(|(_, p)| p.is::<Quiesced>())
            .map(|(r, _)| *r)
            .collect();
        let culprit = culprit.into_inner();
        let pos = panics
            .iter()
            .position(|(r, _)| *r == culprit)
            .expect("a rank parks only after another rank died");
        let (rank, payload) = panics.swap_remove(pos);
        Err(RankFailure {
            rank,
            detail: panic_message(payload.as_ref()),
            quiesced,
            lint,
            payload,
        })
    }
}

/// Fold per-rank mailbox leftovers and counters into the job-wide lint.
fn aggregate_lint(traces: &[RankTrace], rank_lints: &[RankLint]) -> CommLint {
    let mut lint = CommLint::default();
    let mut merged = CommStats::default();
    for (rank, (trace, rl)) in traces.iter().zip(rank_lints).enumerate() {
        merged.merge(&trace.stats);
        for ((src, tag), count) in &rl.leaked {
            lint.leaked.push(LeakedMessage {
                rank,
                src: *src,
                tag: *tag,
                count: *count,
            });
        }
        if rl.timed_out {
            lint.timed_out_ranks.push(rank);
        }
    }
    for (tag, t) in &merged.by_tag {
        if t.msgs_sent != t.msgs_recvd {
            lint.unbalanced_tags.push(TagImbalance {
                tag: *tag,
                sent: t.msgs_sent,
                received: t.msgs_recvd,
            });
        }
    }
    lint
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_come_back_per_rank() {
        let traced = RunConfig { tracing: true };
        let out = Universe::try_run_cfg(3, traced, |comm| {
            comm.region("alpha", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            comm.rank()
        })
        .unwrap();
        assert_eq!(out.traces.len(), 3);
        for (i, t) in out.traces.iter().enumerate() {
            assert_eq!(t.rank, i);
            assert!(t.work_time("alpha") > 0.0);
        }
    }

    #[test]
    fn untraced_run_has_empty_traces() {
        let out = Universe::run(2, |comm| {
            comm.region("alpha", || {});
        });
        assert!(out.traces.iter().all(|t| t.segments.is_empty()));
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn rank_panic_propagates() {
        Universe::run(2, |comm| {
            if comm.rank() == 1 {
                panic!("deliberate");
            }
        });
    }

    #[test]
    fn try_run_reports_the_dead_rank_and_quiesces_survivors() {
        // Rank 2 dies while ranks 0 and 1 are blocked in receives that
        // will never match; the abort broadcast must park them instead
        // of hanging the job, and the failure must name rank 2.
        let failure = Universe::try_run_cfg(3, RunConfig::default(), |comm| {
            match comm.rank() {
                2 => panic!("injected rank death"),
                _ => {
                    // Blocks forever without the abort broadcast.
                    let _: i32 = comm.recv((comm.rank() + 1) % 3, 77);
                }
            }
        })
        .unwrap_err();
        assert_eq!(failure.rank, 2);
        assert!(
            failure.detail.contains("injected rank death"),
            "{}",
            failure.detail
        );
        assert_eq!(failure.quiesced, vec![0, 1]);
    }

    #[test]
    fn a_survivor_sending_to_a_dead_rank_is_quiesced() {
        // Rank 0 never receives, so only the send path can see the
        // abort: once rank 1's endpoint is gone, rank 0 must park, not
        // die as a second culprit.
        let failure = Universe::try_run_cfg(2, RunConfig::default(), |comm| {
            if comm.rank() == 1 {
                panic!("injected rank death");
            }
            for i in 0u64.. {
                comm.send(1, 5, i);
                std::thread::yield_now();
            }
        })
        .unwrap_err();
        assert_eq!(failure.rank, 1);
        assert_eq!(failure.quiesced, vec![0]);
    }

    #[test]
    fn clean_job_reports_clean_lint() {
        let out = Universe::run(4, |comm| {
            let mut n = [1.0];
            comm.allreduce_mut(&mut n, crate::ReduceOp::Sum);
            n[0]
        });
        assert!(out.lint.is_clean(), "{}", out.lint);
    }
}

#[cfg(test)]
mod stress_tests {
    use super::*;
    use crate::ReduceOp;

    #[test]
    fn many_interleaved_collectives_and_pt2pt() {
        // A stress pattern mixing rings of sends with collectives, the
        // kind of traffic one coupled step generates.
        let p = 5;
        let out = Universe::run(p, move |comm| {
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            let mut acc = comm.rank() as f64;
            for round in 0..50u32 {
                comm.send(right, round, acc);
                let from_left: f64 = comm.recv(left, round);
                acc += from_left;
                if round % 7 == 0 {
                    let mut total = [acc];
                    comm.allreduce_mut(&mut total, ReduceOp::Sum);
                    assert!(total[0].is_finite());
                }
                if round % 11 == 0 {
                    let everyone = comm.gather(comm.rank(), 0);
                    assert_eq!(comm.bcast(0, everyone).len(), p);
                }
            }
            // Everyone survived with a finite accumulator.
            assert!(acc.is_finite());
        });
        assert!(out.lint.is_clean(), "{}", out.lint);
    }

    #[test]
    fn nested_splits_stay_isolated() {
        Universe::run(6, |comm| {
            let half = comm
                .split((comm.rank() / 3) as i64, comm.rank() as i64)
                .unwrap();
            let pair = half.split((half.rank() % 2) as i64, 0).unwrap();
            // Sum ranks at each level; sizes must be consistent.
            assert_eq!(half.size(), 3);
            assert!(pair.size() == 1 || pair.size() == 2);
            let mut s = [1.0];
            half.allreduce_mut(&mut s, ReduceOp::Sum);
            assert_eq!(s[0], 3.0);
            let mut s2 = [1.0];
            pair.allreduce_mut(&mut s2, ReduceOp::Sum);
            assert_eq!(s2[0], pair.size() as f64);
        });
    }

    #[test]
    fn large_payloads_round_trip() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let big: Vec<f64> = (0..200_000).map(|i| i as f64 * 0.5).collect();
                comm.send(1, 0, big);
            } else {
                let got: Vec<f64> = comm.recv(0, 0);
                assert_eq!(got.len(), 200_000);
                assert_eq!(got[199_999], 199_999.0 * 0.5);
            }
        });
    }
}
