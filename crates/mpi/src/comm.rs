//! The communicator: tagged typed point-to-point messaging, the three
//! collectives FOAM runs (`bcast`, `gather`, `allreduce_mut`), and
//! communicator splitting, in the style of MPI — instrumented with
//! per-tag statistics and configurable receive deadlines.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use crate::stats::{tag_label, CommStats, INTERNAL_TAG};
use crate::trace::{RankTrace, Tracer};

/// Reduction operators supported by [`Comm::allreduce_mut`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Min,
    Max,
}

impl ReduceOp {
    #[inline]
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

/// A message in flight. `src` is the *world* rank of the sender; matching
/// is on `(ctx, src, tag)`.
pub(crate) struct Envelope {
    ctx: u32,
    src: usize,
    tag: u32,
    /// Shallow payload size (`size_of_val`), for the byte counters.
    bytes: usize,
    payload: Box<dyn Any + Send>,
}

// The gaps are deliberate: `tag_label` and the pinned per-tag message
// tables key on these values.
const TAG_BCAST: u32 = INTERNAL_TAG + 2;
const TAG_REDUCE: u32 = INTERNAL_TAG + 3;
const TAG_GATHER: u32 = INTERNAL_TAG + 4;
/// Job-abort broadcast injected by the universe when a rank dies: any
/// rank that sees it parks itself with a [`Quiesced`] panic so the job
/// can tear down instead of hanging in a receive that will never match.
/// It is the job's only abort signal.
const TAG_ABORT: u32 = INTERNAL_TAG + 8;

/// Panic payload marking a rank parked by the job-abort broadcast — a
/// casualty of another rank's failure, not a culprit. The universe
/// recognizes it and excludes such ranks from failure attribution.
pub(crate) struct Quiesced;

/// Envelope carrying the job-abort broadcast from the universe on
/// behalf of dead rank `src`. Not counted in comm statistics and
/// filtered from teardown lint.
pub(crate) fn make_abort(src: usize) -> Envelope {
    Envelope {
        ctx: 0,
        src,
        tag: TAG_ABORT,
        bytes: 0,
        payload: Box::new(()),
    }
}

/// Error returned when a receive deadline expires. Carries enough of the
/// mailbox state to diagnose the mismatch that caused the stall.
#[derive(Debug, Clone)]
pub struct RecvTimeout {
    /// World rank that timed out.
    pub rank: usize,
    /// Communicator rank it was expecting a message from.
    pub src: usize,
    /// Tag(s) it was matching.
    pub tags: Vec<u32>,
    /// How long it waited.
    pub waited: Duration,
    /// `(source world rank, tag)` of every message sitting unmatched in
    /// the mailbox — the "leaked" traffic a mismatched tag leaves behind.
    pub pending: Vec<(usize, u32)>,
}

impl std::fmt::Display for RecvTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tags: Vec<String> = self.tags.iter().map(|t| tag_label(*t)).collect();
        write!(
            f,
            "recv deadline expired on rank {} after {:.3} s waiting for [{}] from rank {}",
            self.rank,
            self.waited.as_secs_f64(),
            tags.join(", "),
            self.src
        )?;
        if self.pending.is_empty() {
            write!(f, "; mailbox is empty")
        } else {
            let got: Vec<String> = self
                .pending
                .iter()
                .map(|(s, t)| format!("(src {}, {})", s, tag_label(*t)))
                .collect();
            write!(f, "; unmatched in mailbox: {}", got.join(", "))
        }
    }
}

impl std::error::Error for RecvTimeout {}

/// A received message whose payload has not been downcast yet, returned
/// by [`Comm::recv_match`] when receiving on several tags at once.
pub struct Message {
    env: Envelope,
}

impl Message {
    pub fn tag(&self) -> u32 {
        self.env.tag
    }

    /// Extract the payload.
    ///
    /// # Panics
    /// Panics if the payload is not a `T`.
    pub fn downcast<T: Send + 'static>(self) -> T {
        downcast(self.env)
    }
}

/// What one rank's endpoint knows at teardown — folded into the
/// job-wide [`crate::CommLint`] by the universe.
#[derive(Debug, Clone, Default)]
pub(crate) struct RankLint {
    /// `((src world rank, tag), count)` of unmatched messages left in
    /// the mailbox.
    pub leaked: Vec<((usize, u32), usize)>,
    /// A receive deadline expired on this rank.
    pub timed_out: bool,
}

/// Per-thread endpoint shared by every communicator that lives on this
/// rank: the inbound channel, the stash of out-of-order messages, the
/// tracer, comm statistics, and the context-id allocator.
pub(crate) struct Endpoint {
    rx: Receiver<Envelope>,
    pending: VecDeque<Envelope>,
    pub(crate) tracer: Tracer,
    next_ctx: u32,
    stats: CommStats,
    /// Set when a receive deadline expires; cleared again by the next
    /// successful receive, so at teardown it means "ended blocked"
    /// rather than "ever timed out".
    timed_out: bool,
}

/// A communicator over a group of ranks.
///
/// Cheap to clone within a rank (shared endpoint). `Comm` is deliberately
/// *not* `Send`: like an `MPI_Comm`, it belongs to the rank that holds it.
pub struct Comm {
    endpoint: Rc<RefCell<Endpoint>>,
    senders: Arc<Vec<Sender<Envelope>>>,
    /// Context id distinguishing this communicator's traffic.
    ctx: u32,
    /// Map from communicator rank to world rank.
    group: Rc<Vec<usize>>,
    /// This process's rank within the group.
    rank: usize,
}

impl Comm {
    pub(crate) fn new_world(
        world_rank: usize,
        rx: Receiver<Envelope>,
        senders: Arc<Vec<Sender<Envelope>>>,
        epoch: Instant,
        tracing: bool,
    ) -> Self {
        let n = senders.len();
        let mut tracer = Tracer::new(world_rank, epoch);
        tracer.set_enabled(tracing);
        Comm {
            endpoint: Rc::new(RefCell::new(Endpoint {
                rx,
                pending: VecDeque::new(),
                tracer,
                next_ctx: 1,
                stats: CommStats::default(),
                timed_out: false,
            })),
            senders,
            ctx: 0,
            group: Rc::new((0..n).collect()),
            rank: world_rank,
        }
    }

    /// Rank of this process within this communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in this communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// World rank of this process.
    #[inline]
    pub fn world_rank(&self) -> usize {
        self.group[self.rank]
    }

    /// Seconds since the universe epoch.
    pub fn now(&self) -> f64 {
        self.endpoint.borrow().tracer.now()
    }

    /// Run `f` inside a named work region (for Figure 2-style traces).
    /// Time spent blocked in `recv`/collectives inside the region is
    /// recorded as wait, not work.
    pub fn region<R>(&self, label: &str, f: impl FnOnce() -> R) -> R {
        self.endpoint.borrow_mut().tracer.open_region(label);
        let out = f();
        self.endpoint.borrow_mut().tracer.close_region();
        out
    }

    /// Teardown hook: pull everything still in the mailbox into a lint
    /// report and hand back the final trace. Called by the universe
    /// after the rank closure finishes.
    pub(crate) fn finalize(&self) -> (RankTrace, RankLint) {
        let mut ep = self.endpoint.borrow_mut();
        while let Ok(env) = ep.rx.try_recv() {
            ep.pending.push_back(env);
        }
        let mut leaked: BTreeMap<(usize, u32), usize> = BTreeMap::new();
        for e in &ep.pending {
            // Abort broadcasts are harness traffic, not application
            // leakage.
            if e.tag == TAG_ABORT {
                continue;
            }
            *leaked.entry((e.src, e.tag)).or_default() += 1;
        }
        let lint = RankLint {
            leaked: leaked.into_iter().collect(),
            timed_out: ep.timed_out,
        };
        let mut trace = ep.tracer.take();
        trace.stats = std::mem::take(&mut ep.stats);
        (trace, lint)
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Send `value` to `dst` (a rank of this communicator) with `tag`.
    /// Non-blocking (buffered): like MPI's eager protocol.
    ///
    /// # Panics
    /// Panics if `tag` is in the internal range (>= 2^31) or `dst` is out
    /// of range.
    pub fn send<T: Send + 'static>(&self, dst: usize, tag: u32, value: T) {
        assert!(tag < INTERNAL_TAG, "user tags must be < 2^31");
        self.send_internal(dst, tag, value);
    }

    fn send_internal<T: Send + 'static>(&self, dst: usize, tag: u32, value: T) {
        let dst_world = self.group[dst];
        let bytes = std::mem::size_of_val(&value);
        let env = Envelope {
            ctx: self.ctx,
            src: self.world_rank(),
            tag,
            bytes,
            payload: Box::new(value),
        };
        let mut ep = self.endpoint.borrow_mut();
        ep.stats.on_send(tag, bytes);
        // A peer's endpoint drops when its rank ends. A rank that ends by
        // a panic broadcasts the job abort before its endpoint drops, so
        // if the abort is in our mailbox, park quietly instead of turning
        // the casualty into a second loud panic.
        if self.senders[dst_world].send(env).is_err() {
            ep.stash_arrivals();
            panic!("peer rank endpoint dropped while sending");
        }
    }

    /// Receive a `T` from rank `src` of this communicator with `tag`,
    /// blocking until it arrives. Messages between the same (ctx, src,
    /// tag) triple are delivered in send order.
    ///
    /// # Panics
    /// Panics if the matched message's payload is not a `T`.
    pub fn recv<T: Send + 'static>(&self, src: usize, tag: u32) -> T {
        assert!(tag < INTERNAL_TAG, "user tags must be < 2^31");
        self.recv_internal(src, tag)
    }

    /// Like [`Comm::recv`] but with an explicit deadline; expiry returns
    /// a [`RecvTimeout`] carrying the unmatched mailbox contents instead
    /// of panicking, so callers can retry or degrade gracefully.
    pub fn recv_deadline<T: Send + 'static>(
        &self,
        src: usize,
        tag: u32,
        deadline: Duration,
    ) -> Result<T, RecvTimeout> {
        assert!(tag < INTERNAL_TAG, "user tags must be < 2^31");
        self.recv_matching(src, &[tag], Some(deadline))
            .map(downcast)
    }

    /// Block until a message from `src` carrying *any* of `tags`
    /// arrives. Use this to serve several protocol tags from one wait
    /// loop without busy-polling.
    pub fn recv_match(&self, src: usize, tags: &[u32]) -> Message {
        assert!(!tags.is_empty(), "recv_match needs at least one tag");
        for t in tags {
            assert!(*t < INTERNAL_TAG, "user tags must be < 2^31");
        }
        Message {
            env: self.recv_blocking(src, tags),
        }
    }

    fn recv_internal<T: Send + 'static>(&self, src: usize, tag: u32) -> T {
        downcast(self.recv_blocking(src, &[tag]))
    }

    /// [`Comm::recv_matching`] without a deadline: it can only come back
    /// with a match (a job abort parks the rank instead).
    fn recv_blocking(&self, src: usize, tags: &[u32]) -> Envelope {
        self.recv_matching(src, tags, None)
            .unwrap_or_else(|e| unreachable!("no deadline, yet {e}"))
    }

    /// The receive engine: move every arrival into the stash (parking on
    /// a job abort), match the stash, then block (with wait-time
    /// accounting and optional deadline). The stash keeps arrival order,
    /// so its first match is the earliest matching delivery.
    fn recv_matching(
        &self,
        src: usize,
        tags: &[u32],
        deadline: Option<Duration>,
    ) -> Result<Envelope, RecvTimeout> {
        let src_world = self.group[src];
        let matches =
            |e: &Envelope| e.ctx == self.ctx && e.src == src_world && tags.contains(&e.tag);
        let mut ep = self.endpoint.borrow_mut();
        ep.stash_arrivals();
        if let Some(pos) = ep.pending.iter().position(matches) {
            let env = ep.pending.remove(pos).unwrap();
            ep.stats.on_recv(env.tag, env.bytes);
            ep.timed_out = false;
            return Ok(env);
        }

        // Block; account the blocked interval as wait time.
        let t0 = ep.tracer.now();
        let started = Instant::now();
        loop {
            let arrival = match deadline {
                None => ep.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                Some(d) => match d.checked_sub(started.elapsed()) {
                    Some(remaining) => ep.rx.recv_timeout(remaining),
                    None => Err(RecvTimeoutError::Timeout),
                },
            };
            match arrival {
                Ok(env) => {
                    park_on_abort(&env);
                    if matches(&env) {
                        let t1 = ep.tracer.now();
                        ep.tracer.record_wait(t0, t1);
                        ep.stats.on_wait(env.tag, t1 - t0);
                        ep.stats.on_recv(env.tag, env.bytes);
                        ep.timed_out = false;
                        return Ok(env);
                    }
                    ep.pending.push_back(env);
                }
                Err(RecvTimeoutError::Timeout) => {
                    let t1 = ep.tracer.now();
                    ep.tracer.record_wait(t0, t1);
                    ep.stats.on_wait(tags[0], t1 - t0);
                    ep.timed_out = true;
                    let pending: Vec<(usize, u32)> =
                        ep.pending.iter().map(|e| (e.src, e.tag)).collect();
                    return Err(RecvTimeout {
                        rank: self.world_rank(),
                        src,
                        tags: tags.to_vec(),
                        waited: started.elapsed(),
                        pending,
                    });
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("all senders dropped while this rank is still receiving")
                }
            }
        }
    }

    /// Consume every currently-delivered message from `src` with `tag`,
    /// in delivery order, without blocking. Used to clear a reply an
    /// abandoned exchange left behind before teardown lint runs.
    pub fn drain<T: Send + 'static>(&self, src: usize, tag: u32) -> Vec<T> {
        assert!(tag < INTERNAL_TAG, "user tags must be < 2^31");
        let src_world = self.group[src];
        let mut ep = self.endpoint.borrow_mut();
        ep.stash_arrivals();
        let mut out = Vec::new();
        let mut i = 0;
        while i < ep.pending.len() {
            let e = &ep.pending[i];
            if e.ctx == self.ctx && e.src == src_world && e.tag == tag {
                let env = ep.pending.remove(i).unwrap();
                ep.stats.on_recv(env.tag, env.bytes);
                out.push(downcast(env));
            } else {
                i += 1;
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Collectives (binomial trees; all ranks of the comm must call)
    // ------------------------------------------------------------------

    /// Broadcast from `root`. `value` must be `Some` on the root and is
    /// ignored elsewhere; every rank returns the root's value.
    pub fn bcast<T: Clone + Send + 'static>(&self, root: usize, value: Option<T>) -> T {
        let p = self.size();
        let vr = (self.rank + p - root) % p; // virtual rank, root -> 0
        let mut current: Option<T> = if vr == 0 {
            Some(value.expect("bcast root must supply a value"))
        } else {
            None
        };
        // Receive from virtual parent.
        if vr != 0 {
            let mut mask = 1usize;
            while mask < p {
                if vr & mask != 0 {
                    let parent = ((vr - mask) + root) % p;
                    current = Some(self.recv_internal(parent, TAG_BCAST));
                    break;
                }
                mask <<= 1;
            }
        }
        // Forward to virtual children.
        let v = current.expect("bcast tree delivered no value");
        let mut mask = 1usize;
        while mask < p && vr & mask == 0 {
            mask <<= 1;
        }
        let mut child = mask >> 1;
        while child > 0 {
            if vr + child < p {
                let dst = (vr + child + root) % p;
                self.send_internal(dst, TAG_BCAST, v.clone());
            }
            child >>= 1;
        }
        v
    }

    /// In-place all-reduce: every rank's `data` is overwritten with the
    /// element-wise reduction over all ranks — the global sum behind the
    /// spectral transform. The fold is a binomial tree rooted at rank 0
    /// (rank `r` absorbs `r + 1`, `r + 2`, `r + 4`, ... in that order),
    /// then a tree broadcast, so the result is the same bits on every
    /// rank and from run to run. Steady-state allocation-free: on one
    /// rank it is a pure no-op, and on several ranks message payloads
    /// are drawn from and returned to the per-thread [`crate::pool`],
    /// so repeated calls with the same length stop touching the heap.
    ///
    /// ```
    /// use foam_mpi::{ReduceOp, Universe};
    ///
    /// let out = Universe::run(4, |comm| {
    ///     let mut x = vec![comm.rank() as f64, 1.0];
    ///     comm.allreduce_mut(&mut x, ReduceOp::Sum);
    ///     x
    /// });
    /// for r in out.results {
    ///     assert_eq!(r, vec![6.0, 4.0]);
    /// }
    /// ```
    pub fn allreduce_mut(&self, data: &mut [f64], op: ReduceOp) {
        let p = self.size();
        if p == 1 {
            return;
        }
        // Fan-in reduce to rank 0, accumulating into `data`.
        let vr = self.rank;
        let mut mask = 1usize;
        while mask < p {
            if vr & mask != 0 {
                let parent = vr - mask;
                let mut buf = crate::pool::take(data.len());
                buf.copy_from_slice(data);
                self.send_internal(parent, TAG_REDUCE, buf);
                break;
            } else if vr + mask < p {
                let other: Vec<f64> = self.recv_internal(vr + mask, TAG_REDUCE);
                assert_eq!(
                    other.len(),
                    data.len(),
                    "allreduce_mut called with mismatched lengths"
                );
                for (a, b) in data.iter_mut().zip(other.iter()) {
                    *a = op.apply(*a, *b);
                }
                crate::pool::put(other);
            }
            mask <<= 1;
        }
        // Tree broadcast of the reduced vector from rank 0, in place.
        if vr != 0 {
            let mut mask = 1usize;
            while mask < p {
                if vr & mask != 0 {
                    let got: Vec<f64> = self.recv_internal(vr - mask, TAG_BCAST);
                    data.copy_from_slice(&got);
                    crate::pool::put(got);
                    break;
                }
                mask <<= 1;
            }
        }
        let mut mask = 1usize;
        while mask < p && vr & mask == 0 {
            mask <<= 1;
        }
        let mut child = mask >> 1;
        while child > 0 {
            if vr + child < p {
                let mut buf = crate::pool::take(data.len());
                buf.copy_from_slice(data);
                self.send_internal(vr + child, TAG_BCAST, buf);
            }
            child >>= 1;
        }
    }

    /// Gather one `T` from each rank to `root`, in rank order.
    pub fn gather<T: Send + 'static>(&self, value: T, root: usize) -> Option<Vec<T>> {
        if self.rank == root {
            let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            out[root] = Some(value);
            for r in 0..self.size() {
                if r != root {
                    out[r] = Some(self.recv_internal(r, TAG_GATHER));
                }
            }
            Some(out.into_iter().map(Option::unwrap).collect())
        } else {
            self.send_internal(root, TAG_GATHER, value);
            None
        }
    }

    // ------------------------------------------------------------------
    // Splitting
    // ------------------------------------------------------------------

    /// Partition this communicator by `color` (like `MPI_Comm_split`).
    /// Ranks passing the same non-negative color form a new communicator
    /// ordered by `(key, parent rank)`; a negative color returns `None`.
    /// All ranks of this communicator must call.
    pub fn split(&self, color: i64, key: i64) -> Option<Comm> {
        // Agree on a fresh context id: max of everyone's allocator, +1.
        let my_next = self.endpoint.borrow().next_ctx;
        let mut agreed = [my_next as f64];
        self.allreduce_mut(&mut agreed, ReduceOp::Max);
        let new_ctx = agreed[0] as u32;
        self.endpoint.borrow_mut().next_ctx = new_ctx + 1;

        // Share (color, key, world_rank) with everyone.
        let entries: Vec<(i64, i64, usize)> = {
            let mine = (color, key, self.world_rank());
            // allgather over parent ctx
            let g = self.gather(mine, 0);
            self.bcast(0, g)
        };

        if color < 0 {
            return None;
        }
        let mut members: Vec<(i64, usize, usize)> = entries
            .iter()
            .enumerate()
            .filter(|(_, (c, _, _))| *c == color)
            .map(|(parent_rank, (_, k, w))| (*k, parent_rank, *w))
            .collect();
        members.sort();
        let group: Vec<usize> = members.iter().map(|(_, _, w)| *w).collect();
        let my_world = self.world_rank();
        let rank = group
            .iter()
            .position(|&w| w == my_world)
            .expect("split member missing from its own group");
        Some(Comm {
            endpoint: Rc::clone(&self.endpoint),
            senders: Arc::clone(&self.senders),
            ctx: new_ctx,
            group: Rc::new(group),
            rank,
        })
    }
}

impl Endpoint {
    /// Move everything delivered so far into the stash, in arrival order,
    /// parking the rank if the job-abort broadcast is among it.
    fn stash_arrivals(&mut self) {
        while let Ok(env) = self.rx.try_recv() {
            park_on_abort(&env);
            self.pending.push_back(env);
        }
    }
}

fn park_on_abort(env: &Envelope) {
    if env.tag == TAG_ABORT {
        std::panic::panic_any(Quiesced);
    }
}

fn downcast<T: Send + 'static>(env: Envelope) -> T {
    *env.payload.downcast::<T>().unwrap_or_else(|_| {
        panic!(
            "message type mismatch: received payload is not a {}",
            std::any::type_name::<T>()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunConfig, Universe};

    #[test]
    fn send_recv_roundtrip() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![1.0f64, 2.0, 3.0]);
            } else {
                let v: Vec<f64> = comm.recv(0, 7);
                assert_eq!(v, vec![1.0, 2.0, 3.0]);
            }
        });
    }

    #[test]
    fn tag_matching_reorders_messages() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 10i32);
                comm.send(1, 2, 20i32);
            } else {
                // Receive tag 2 first even though tag 1 was sent first.
                let b: i32 = comm.recv(0, 2);
                let a: i32 = comm.recv(0, 1);
                assert_eq!((a, b), (10, 20));
            }
        });
    }

    #[test]
    fn fifo_order_within_a_tag() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..100i64 {
                    comm.send(1, 3, i);
                }
            } else {
                for i in 0..100i64 {
                    let got: i64 = comm.recv(0, 3);
                    assert_eq!(got, i);
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, 1.5f64);
            } else {
                let _: i32 = comm.recv(0, 0);
            }
        });
    }

    #[test]
    fn bcast_from_every_root() {
        for p in 1..=6 {
            Universe::run(p, move |comm| {
                for root in 0..p {
                    let v = if comm.rank() == root {
                        Some(vec![root as f64; 3])
                    } else {
                        None
                    };
                    let got = comm.bcast(root, v);
                    assert_eq!(got, vec![root as f64; 3]);
                }
            });
        }
    }

    #[test]
    fn reduce_sum_min_max() {
        Universe::run(7, |comm| {
            let x = comm.rank() as f64;
            for (op, expect) in [
                (ReduceOp::Sum, 21.0),
                (ReduceOp::Min, 0.0),
                (ReduceOp::Max, 6.0),
            ] {
                let mut v = [x];
                comm.allreduce_mut(&mut v, op);
                assert_eq!(v[0], expect, "{op:?}");
            }
        });
    }

    #[test]
    fn gather_and_allgather_preserve_rank_order() {
        // An allgather is a gather to rank 0 and a broadcast of the
        // result (what `split` and the coupled stepper's runoff do).
        Universe::run(6, |comm| {
            let gathered = comm.gather(comm.rank() * 2, 0);
            assert_eq!(gathered.is_some(), comm.rank() == 0);
            let all = comm.bcast(0, gathered);
            assert_eq!(all, vec![0, 2, 4, 6, 8, 10]);
        });
    }

    #[test]
    fn split_into_even_odd_groups() {
        Universe::run(6, |comm| {
            let color = (comm.rank() % 2) as i64;
            let sub = comm.split(color, comm.rank() as i64).unwrap();
            assert_eq!(sub.size(), 3);
            // Sum of ranks within each sub-comm is over world ranks with
            // the same parity.
            let mut s = [comm.rank() as f64];
            sub.allreduce_mut(&mut s, ReduceOp::Sum);
            if color == 0 {
                assert_eq!(s[0], 0.0 + 2.0 + 4.0);
            } else {
                assert_eq!(s[0], 1.0 + 3.0 + 5.0);
            }
        });
    }

    #[test]
    fn split_with_negative_color_excludes() {
        Universe::run(4, |comm| {
            let color = if comm.rank() == 0 { -1 } else { 0 };
            let sub = comm.split(color, 0);
            if comm.rank() == 0 {
                assert!(sub.is_none());
            } else {
                let sub = sub.unwrap();
                assert_eq!(sub.size(), 3);
                let mut n = [1.0];
                sub.allreduce_mut(&mut n, ReduceOp::Sum);
                assert_eq!(n[0], 3.0);
            }
        });
    }

    #[test]
    fn sub_comm_traffic_is_isolated_from_parent() {
        Universe::run(4, |comm| {
            let sub = comm.split(0, comm.rank() as i64).unwrap();
            if comm.rank() == 0 {
                comm.send(1, 5, 111i32);
                sub.send(1, 5, 222i32);
            } else if comm.rank() == 1 {
                // Receive in the opposite order: ctx separation must hold.
                let from_sub: i32 = sub.recv(0, 5);
                let from_parent: i32 = comm.recv(0, 5);
                assert_eq!(from_sub, 222);
                assert_eq!(from_parent, 111);
            }
        });
    }

    #[test]
    fn split_key_reorders_ranks() {
        Universe::run(4, |comm| {
            // Reverse order via descending keys.
            let sub = comm.split(0, -(comm.rank() as i64)).unwrap();
            assert_eq!(sub.rank(), 3 - comm.rank());
            assert_eq!(sub.world_rank(), comm.rank());
        });
    }

    #[test]
    fn wait_time_is_recorded_when_tracing() {
        let traced = RunConfig { tracing: true };
        let out = Universe::try_run_cfg(2, traced, |comm| {
            if comm.rank() == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
                comm.send(1, 0, ());
            } else {
                comm.region("work", || {
                    let () = comm.recv(0, 0);
                });
            }
        })
        .unwrap();
        let t1 = &out.traces[1];
        assert!(
            t1.wait_time() > 0.01,
            "expected blocked recv to record wait, got {:?}",
            t1
        );
    }

    // ------------------------------------------------------------------
    // Deadlines, stats, lint
    // ------------------------------------------------------------------

    #[test]
    fn recv_deadline_times_out_and_names_the_leaked_message() {
        // Rank 0 sends tag 7 but rank 1 listens on tag 8: in classic MPI
        // this hangs forever. Here the deadline trips, the error names
        // the unmatched (source, tag) pair, and teardown lint reports
        // the leak.
        let out = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, 42i32);
                None
            } else {
                // Give the send time to land so the diagnostic sees it.
                std::thread::sleep(Duration::from_millis(20));
                Some(
                    comm.recv_deadline::<i32>(0, 8, Duration::from_millis(50))
                        .unwrap_err(),
                )
            }
        });
        let err = out.results[1].clone().unwrap();
        assert_eq!(err.rank, 1);
        assert_eq!(err.tags, vec![8]);
        assert!(err.pending.contains(&(0, 7)), "pending: {:?}", err.pending);
        let msg = err.to_string();
        assert!(msg.contains("deadline expired"), "{msg}");
        assert!(msg.contains("tag 7"), "{msg}");
        // Teardown lint singles out the same leaked pair.
        assert!(!out.lint.is_clean());
        assert_eq!(out.lint.leaked_pairs(), vec![(0, 7)]);
        assert_eq!(out.lint.timed_out_ranks, vec![1]);
    }

    #[test]
    fn clean_run_has_clean_lint_and_balanced_tags() {
        let out = Universe::run(3, |comm| {
            let right = (comm.rank() + 1) % 3;
            let left = (comm.rank() + 2) % 3;
            comm.send(right, 5, comm.rank());
            let _: usize = comm.recv(left, 5);
            let mut n = [1.0];
            comm.allreduce_mut(&mut n, ReduceOp::Sum);
        });
        assert!(out.lint.is_clean(), "{}", out.lint);
        assert!(out.lint.unbalanced_tags.is_empty());
    }

    #[test]
    fn stats_count_messages_bytes_and_waits() {
        let out = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                std::thread::sleep(Duration::from_millis(10));
                comm.send(1, 9, vec![0.0f64; 8]);
            } else {
                let _: Vec<f64> = comm.recv(0, 9);
            }
        });
        let s0 = out.traces[0].stats.tag(9);
        assert_eq!(s0.msgs_sent, 1);
        assert!(s0.bytes_sent >= std::mem::size_of::<Vec<f64>>() as u64);
        let s1 = out.traces[1].stats.tag(9);
        assert_eq!(s1.msgs_recvd, 1);
        assert!(s1.wait_seconds > 5e-3, "wait {}", s1.wait_seconds);
        assert!(s1.wait_hist.count() >= 1);
    }

    #[test]
    fn recv_match_serves_multiple_tags_in_arrival_order() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 11, 1.5f64);
                comm.send(1, 12, 7usize);
            } else {
                let first = comm.recv_match(0, &[11, 12]);
                assert_eq!(first.tag(), 11);
                assert_eq!(first.downcast::<f64>(), 1.5);
                let second = comm.recv_match(0, &[11, 12]);
                assert_eq!(second.tag(), 12);
                assert_eq!(second.downcast::<usize>(), 7);
            }
        });
    }

    #[test]
    fn unmatched_send_shows_as_tag_imbalance() {
        // Rank 0 posts a message nobody receives; both the per-mailbox
        // leak and the global per-tag imbalance must flag it.
        let out = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 31, 9i64);
            }
            // Rank 1 leaves only after hearing from rank 0, so the stray
            // message is in its mailbox at teardown.
            let mut n = [1.0];
            comm.allreduce_mut(&mut n, ReduceOp::Sum);
        });
        assert!(!out.lint.is_clean());
        assert_eq!(out.lint.leaked_pairs(), vec![(0, 31)]);
        let imb: Vec<u32> = out.lint.unbalanced_tags.iter().map(|t| t.tag).collect();
        assert_eq!(imb, vec![31]);
    }
}
