//! A multi-tenant, priority + fair-share job queue.
//!
//! [`run_ensemble`](crate::run_ensemble) runs a member list known up
//! front: its workers claim it position by position. A long-lived
//! service needs a dynamic queue — jobs arrive over time, from
//! different tenants, with different priorities, and a greedy FIFO
//! would let one chatty tenant starve everyone else. The
//! [`FairShareQueue`] keeps the same worker-facing shape (a pool of OS
//! threads looping on "give me the next job") while making dispatch
//! **fair across tenants and prioritized within each**:
//!
//! 1. **Fair share across tenants.** A pop serves the tenant with the
//!    fewest jobs *currently running* (completions reported via
//!    [`FairShareQueue::complete`]). Among tied tenants, the one whose
//!    oldest pending job arrived first wins — which round-robins tied
//!    tenants instead of alphabetizing them.
//! 2. **Priority, then FIFO, within a tenant.** Higher
//!    [`priority`](FairShareQueue::submit) first; equal priorities in
//!    submission order.
//!
//! Selection is a pure function of queue state, so any replay of the
//! same submission/completion sequence dispatches identically; what
//! *varies* across runs is only which worker thread performs a pop,
//! which the service layer makes harmless the same way the ensemble
//! does — results keyed by job identity, never by worker or timing.
//!
//! Built on `std::sync::{Mutex, Condvar}`; [`FairShareQueue::pop`]
//! blocks workers when idle and [`FairShareQueue::close`] releases
//! them for shutdown.

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};

/// One queued job: dispatch metadata plus the payload.
#[derive(Debug)]
struct Entry<T> {
    priority: i32,
    seq: u64,
    job: T,
}

#[derive(Debug)]
struct State<T> {
    /// Pending jobs per tenant. `BTreeMap` so state dumps and tie
    /// scans are deterministically ordered.
    pending: BTreeMap<String, Vec<Entry<T>>>,
    /// Jobs handed to a worker and not yet [`complete`]d, per tenant.
    running: BTreeMap<String, usize>,
    /// Monotone submission counter (the FIFO axis).
    seq: u64,
    closed: bool,
}

/// A blocking multi-tenant job queue; see the module docs for the
/// dispatch policy.
///
/// ```
/// use foam_ensemble::FairShareQueue;
///
/// let q: FairShareQueue<&str> = FairShareQueue::new();
/// q.submit("alice", 0, "a-first");
/// q.submit("bob", 0, "b-first");
/// q.submit("alice", 5, "a-urgent");
/// // Alice's urgent job beats her earlier one; Bob interleaves fairly.
/// let (t, job) = q.pop().unwrap();
/// assert_eq!((t.as_str(), job), ("alice", "a-urgent"));
/// let (t, job) = q.pop().unwrap();
/// assert_eq!((t.as_str(), job), ("bob", "b-first"));
/// q.close();
/// ```
#[derive(Debug)]
pub struct FairShareQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> Default for FairShareQueue<T> {
    fn default() -> Self {
        FairShareQueue::new()
    }
}

impl<T> FairShareQueue<T> {
    pub fn new() -> Self {
        FairShareQueue {
            state: Mutex::new(State {
                pending: BTreeMap::new(),
                running: BTreeMap::new(),
                seq: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Enqueue `job` for `tenant`. Higher `priority` dispatches first
    /// within the tenant; ties dispatch in submission order.
    /// Submissions to a closed queue are dropped (the service is
    /// shutting down; persistent job state lives on disk, not here).
    pub fn submit(&self, tenant: &str, priority: i32, job: T) {
        let mut st = self.state.lock().expect("queue lock poisoned");
        if st.closed {
            return;
        }
        let seq = st.seq;
        st.seq += 1;
        st.pending
            .entry(tenant.to_string())
            .or_default()
            .push(Entry { priority, seq, job });
        drop(st);
        self.ready.notify_one();
    }

    /// Block until a job is available (or the queue closes), then
    /// dispatch the fair-share pick: `(tenant, job)`. The job counts
    /// against the tenant's running share until the caller reports
    /// [`complete`](FairShareQueue::complete). Returns `None` once the
    /// queue is closed — remaining pending jobs are abandoned to their
    /// durable representation.
    pub fn pop(&self) -> Option<(String, T)> {
        let mut st = self.state.lock().expect("queue lock poisoned");
        loop {
            if st.closed {
                return None;
            }
            if let Some(tenant) = pick_tenant(&st) {
                let entries = st.pending.get_mut(&tenant).expect("picked tenant pending");
                // Best entry: highest priority, then earliest seq.
                let best = entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| (-e.priority, e.seq))
                    .map(|(i, _)| i)
                    .expect("picked tenant has entries");
                let entry = entries.swap_remove(best);
                if entries.is_empty() {
                    st.pending.remove(&tenant);
                }
                *st.running.entry(tenant.clone()).or_insert(0) += 1;
                return Some((tenant, entry.job));
            }
            st = self.ready.wait(st).expect("queue lock poisoned");
        }
    }

    /// Report that a job previously popped for `tenant` finished
    /// (successfully or not), releasing its share so the tenant
    /// competes fairly for the next slot.
    pub fn complete(&self, tenant: &str) {
        let mut st = self.state.lock().expect("queue lock poisoned");
        if let Some(n) = st.running.get_mut(tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                st.running.remove(tenant);
            }
        }
        drop(st);
        // A freed share can make a previously over-quota tenant
        // eligible, so wake a waiter to re-evaluate.
        self.ready.notify_one();
    }

    /// Close the queue: blocked and future [`pop`](FairShareQueue::pop)
    /// calls return `None`, and new submissions are dropped.
    pub fn close(&self) {
        self.state.lock().expect("queue lock poisoned").closed = true;
        self.ready.notify_all();
    }

    /// Number of jobs waiting for dispatch (excludes running jobs).
    pub fn len(&self) -> usize {
        let st = self.state.lock().expect("queue lock poisoned");
        st.pending.values().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The fair-share pick: among tenants with pending work, the fewest
/// running jobs; ties broken by whose oldest pending job arrived first.
fn pick_tenant<T>(st: &State<T>) -> Option<String> {
    st.pending
        .iter()
        .filter(|(_, entries)| !entries.is_empty())
        .min_by_key(|(tenant, entries)| {
            let running = st.running.get(*tenant).copied().unwrap_or(0);
            let oldest = entries.iter().map(|e| e.seq).min().unwrap_or(u64::MAX);
            (running, oldest)
        })
        .map(|(tenant, _)| tenant.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn priority_then_fifo_within_a_tenant() {
        let q: FairShareQueue<u32> = FairShareQueue::new();
        q.submit("t", 0, 1);
        q.submit("t", 0, 2);
        q.submit("t", 9, 3);
        q.submit("t", 9, 4);
        let order: Vec<u32> = (0..4).map(|_| q.pop().unwrap().1).collect();
        assert_eq!(order, vec![3, 4, 1, 2]);
    }

    #[test]
    fn fair_share_prefers_the_tenant_with_the_fewest_running_jobs() {
        let q: FairShareQueue<&str> = FairShareQueue::new();
        q.submit("a", 0, "a1");
        q.submit("a", 0, "a2");
        q.submit("b", 0, "b1");
        // Equal running shares: earliest pending wins → a1.
        assert_eq!(q.pop().unwrap(), ("a".to_string(), "a1"));
        // "a" now runs one job, so "b" is preferred despite arriving later.
        assert_eq!(q.pop().unwrap(), ("b".to_string(), "b1"));
        assert_eq!(q.pop().unwrap(), ("a".to_string(), "a2"));
    }

    #[test]
    fn completion_releases_a_tenants_share() {
        let q: FairShareQueue<&str> = FairShareQueue::new();
        q.submit("a", 0, "a1");
        assert_eq!(q.pop().unwrap().1, "a1");
        q.submit("a", 0, "a2");
        q.submit("b", 0, "b1");
        // With a1 still running, "b" goes first...
        assert_eq!(q.pop().unwrap().1, "b1");
        q.complete("a");
        q.complete("b");
        // ...and once both complete, "a" is eligible again.
        q.submit("b", 0, "b2");
        assert_eq!(q.pop().unwrap().1, "a2");
        assert_eq!(q.pop().unwrap().1, "b2");
    }

    #[test]
    fn pop_blocks_until_submit_and_close_releases_waiters() {
        let q: Arc<FairShareQueue<u8>> = Arc::new(FairShareQueue::new());
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(30));
        q.submit("t", 0, 7);
        assert_eq!(popper.join().unwrap(), Some(("t".to_string(), 7)));

        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(30));
        q.close();
        assert_eq!(waiter.join().unwrap(), None);
        // Closed queue drops new submissions and keeps returning None.
        q.submit("t", 0, 8);
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn concurrent_workers_drain_everything_exactly_once() {
        let q: Arc<FairShareQueue<usize>> = Arc::new(FairShareQueue::new());
        let n = 64;
        for i in 0..n {
            q.submit(if i % 3 == 0 { "a" } else { "b" }, (i % 5) as i32, i);
        }
        let mut handles = Vec::new();
        for _ in 0..4 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some((tenant, job)) = q.pop() {
                    got.push(job);
                    q.complete(&tenant);
                    if q.is_empty() {
                        q.close(); // release the other workers
                    }
                }
                got
            }));
        }
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
    }
}
