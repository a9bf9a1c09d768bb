//! Deterministic execution of a fixed list of independent jobs.
//!
//! The scheduler runs `n` independent jobs (ensemble members, here)
//! across a pool of OS worker threads. The whole list is known up
//! front, so the policy is one shared counter: a worker that goes idle
//! claims the next unclaimed position of the submission order. Jobs run
//! for seconds each, so the one atomic per job is free and no worker
//! idles while work remains. Which worker executes which job depends on
//! timing, but the *results* do not: every job's output lands in the
//! slot keyed by its job index, so [`execute`] returns the same `Vec`
//! for any worker count and any interleaving. That slot-indexed result
//! vector is the foundation of the ensemble's byte-identical-report
//! guarantee.
//!
//! Jobs that arrive over time, from several tenants, go through
//! [`FairShareQueue`](crate::FairShareQueue) instead; the crate has
//! these two policies and no third.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

/// Run `f(job)` for every job index in `order` across `workers` OS
/// threads, returning results indexed by job id (`0..n_slots`).
///
/// * `order` — job indices in submission order (jobs start in this
///   order). Indices must be unique and `< n_slots`.
/// * `n_slots` — length of the result vector; slots whose index never
///   appears in `order` stay `None`.
/// * `workers` — worker threads (clamped to at least 1; spawning more
///   workers than jobs is allowed, the extras find nothing to claim).
///
/// `f` runs on the worker threads, so it must be `Sync` (shared by
/// reference) and the results `Send`.
///
/// ```
/// let results = foam_ensemble::scheduler::execute(&[2, 0, 1], 3, 2, |job| job * 10);
/// assert_eq!(results, vec![Some(0), Some(10), Some(20)]);
/// ```
///
/// # Panics
///
/// Panics if a job index repeats or is out of range, or if a job
/// panics (the panic is propagated by `std::thread::scope`).
pub fn execute<T, F>(order: &[usize], n_slots: usize, workers: usize, f: F) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // Result slots, keyed by job index. Each slot is written at most
    // once (job indices are unique), so a Mutex per slot is contention
    // free; it exists to make the sharing safe, not to serialize.
    let slots: Vec<Mutex<Option<T>>> = (0..n_slots).map(|_| Mutex::new(None)).collect();
    // The next unclaimed position of `order`. `Relaxed` is enough: the
    // counter publishes no other data (`order` is read-only, and the
    // scope's join is what publishes the slots).
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| {
                while let Some(&job) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let result = f(job);
                    let mut slot = slots[job].lock();
                    assert!(slot.is_none(), "job index {job} executed twice");
                    *slot = Some(result);
                }
            });
        }
    });

    slots.into_iter().map(|s| s.into_inner()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_slot_indexed_for_any_worker_count() {
        let order: Vec<usize> = (0..17).rev().collect();
        let expect: Vec<Option<usize>> = (0..17).map(|i| Some(i * i)).collect();
        for workers in [1, 2, 3, 8, 32] {
            let got = execute(&order, 17, workers, |job| job * job);
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn sparse_orders_leave_unsubmitted_slots_empty() {
        let got = execute(&[3, 1], 5, 2, |job| job);
        assert_eq!(got, vec![None, Some(1), None, Some(3), None]);
    }

    #[test]
    fn uneven_job_durations_still_fill_every_slot() {
        // Long and short jobs interleaved: idle workers must pick up the
        // rest.
        let order: Vec<usize> = (0..12).collect();
        let got = execute(&order, 12, 4, |job| {
            if job % 3 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            job + 100
        });
        for (i, slot) in got.iter().enumerate() {
            assert_eq!(*slot, Some(i + 100));
        }
    }

    #[test]
    fn zero_jobs_is_fine() {
        let got: Vec<Option<u8>> = execute(&[], 0, 4, |_| unreachable!());
        assert!(got.is_empty());
    }
}
