//! Process-wide heap accounting: a [`GlobalAlloc`] wrapper that counts
//! live and peak heap bytes.
//!
//! Container-grade RSS measurement is not portable (and `/proc` parsing
//! races the allocator); what the century bench actually needs is a
//! *proxy* that moves with the statistics memory — live heap bytes and
//! their high-water mark. [`CountingAlloc`] wraps the system allocator
//! and maintains both in relaxed atomics, costing two `fetch_add`s per
//! allocation. Opt in per binary:
//!
//! ```ignore
//! use foam_telemetry::alloc::CountingAlloc;
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc::new();
//!
//! fn main() {
//!     let before = CountingAlloc::stats();
//!     // ... run ...
//!     let after = CountingAlloc::stats();
//!     println!("peak heap {} bytes", after.peak_bytes - before.live_bytes);
//! }
//! ```
//!
//! The counters are global to the process (allocations from every
//! thread land in them), so in the SPMD driver they bound the *whole
//! job's* footprint — exactly the quantity a century run must keep flat
//! in the number of simulated months.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static TOTAL: AtomicU64 = AtomicU64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);

/// A point-in-time snapshot of the process's heap accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes currently allocated and not yet freed.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since process start (or the last
    /// [`CountingAlloc::reset_peak`]).
    pub peak_bytes: u64,
    /// Cumulative bytes ever allocated.
    pub total_bytes: u64,
    /// Cumulative allocation calls.
    pub allocations: u64,
}

impl AllocStats {
    /// Allocation activity between `earlier` and `self` — the
    /// cumulative counters only, since the instantaneous ones
    /// (`live_bytes`, `peak_bytes`) have no meaningful difference.
    /// Saturating, so a mismatched pair reads zero instead of wrapping.
    ///
    /// ```
    /// use foam_telemetry::alloc::AllocStats;
    ///
    /// let before = AllocStats { live_bytes: 0, peak_bytes: 0, total_bytes: 1_000, allocations: 10 };
    /// let after = AllocStats { live_bytes: 0, peak_bytes: 0, total_bytes: 1_640, allocations: 17 };
    /// let d = after.since(&before);
    /// assert_eq!(d.allocations, 7);
    /// assert_eq!(d.total_bytes, 640);
    /// assert_eq!(before.since(&after), Default::default()); // saturates
    /// ```
    pub fn since(&self, earlier: &AllocStats) -> AllocDelta {
        AllocDelta {
            allocations: self.allocations.saturating_sub(earlier.allocations),
            total_bytes: self.total_bytes.saturating_sub(earlier.total_bytes),
        }
    }
}

/// Allocation activity over a window: the difference of two
/// [`AllocStats`] snapshots (see [`AllocStats::since`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocDelta {
    /// Allocation calls made inside the window.
    pub allocations: u64,
    /// Bytes requested inside the window.
    pub total_bytes: u64,
}

impl AllocDelta {
    /// Normalize the window to a rate — e.g. allocations per simulated
    /// year when `units` is the simulated years the window covered.
    /// Returns zero counts for a non-positive `units` rather than an
    /// infinity that would poison a JSON report.
    ///
    /// ```
    /// use foam_telemetry::alloc::AllocDelta;
    ///
    /// let d = AllocDelta { allocations: 990, total_bytes: 4_950 };
    /// let per_year = d.per(99.0);
    /// assert_eq!(per_year.allocations, 10.0);
    /// assert_eq!(per_year.total_bytes, 50.0);
    /// assert_eq!(d.per(0.0).allocations, 0.0);
    /// ```
    pub fn per(&self, units: f64) -> AllocRate {
        if units > 0.0 {
            AllocRate {
                allocations: self.allocations as f64 / units,
                total_bytes: self.total_bytes as f64 / units,
            }
        } else {
            AllocRate {
                allocations: 0.0,
                total_bytes: 0.0,
            }
        }
    }
}

/// An [`AllocDelta`] normalized per unit (simulated year, step, ...).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AllocRate {
    /// Allocation calls per unit.
    pub allocations: f64,
    /// Bytes requested per unit.
    pub total_bytes: f64,
}

/// A scoped steady-state allocation measurement: snapshot the counters
/// when the warm-up ends ([`SteadyMeter::begin`]), then read the
/// activity of the steady window ([`SteadyMeter::so_far`]). The century
/// bench begins one at the end of the first simulated year and divides
/// by the remaining years to report `steady_allocs_per_year`, the
/// number the CI regression gate watches (see PERFORMANCE.md).
///
/// ```
/// use foam_telemetry::alloc::SteadyMeter;
///
/// let meter = SteadyMeter::begin();
/// let warm = Vec::from([0u8; 64]); // churn (only counted if the
///                                  // counting allocator is installed)
/// let d = meter.so_far();
/// assert!(d.allocations <= 1_000); // bounded either way
/// drop(warm);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SteadyMeter {
    start: AllocStats,
}

impl SteadyMeter {
    /// Open the measurement window at the current counters.
    pub fn begin() -> Self {
        SteadyMeter {
            start: CountingAlloc::stats(),
        }
    }

    /// Allocation activity since [`SteadyMeter::begin`].
    pub fn so_far(&self) -> AllocDelta {
        CountingAlloc::stats().since(&self.start)
    }
}

/// The counting wrapper around the system allocator. Install it with
/// `#[global_allocator]` in binaries that report memory, then read
/// [`CountingAlloc::stats`].
pub struct CountingAlloc;

impl CountingAlloc {
    /// The allocator value for the `#[global_allocator]` static.
    pub const fn new() -> Self {
        CountingAlloc
    }

    /// Current heap accounting. Meaningful only in processes where
    /// `CountingAlloc` *is* the global allocator; elsewhere every field
    /// reads zero.
    pub fn stats() -> AllocStats {
        AllocStats {
            live_bytes: LIVE.load(Ordering::Relaxed),
            peak_bytes: PEAK.load(Ordering::Relaxed),
            total_bytes: TOTAL.load(Ordering::Relaxed),
            allocations: COUNT.load(Ordering::Relaxed),
        }
    }

    /// Reset the peak to the current live size — call at the start of
    /// the phase whose high-water mark is being measured.
    pub fn reset_peak() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

fn on_alloc(size: u64) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
    TOTAL.fetch_add(size, Ordering::Relaxed);
    COUNT.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: defers entirely to `System` for memory; the bookkeeping is
// lock-free atomics and cannot allocate or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            let (old, new) = (layout.size() as u64, new_size as u64);
            if new > old {
                on_alloc(new - old);
            } else {
                LIVE.fetch_sub(old - new, Ordering::Relaxed);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install the allocator globally, so the
    // counters only move when we drive them directly — but they are
    // process-wide and these tests assert exact deltas, so they take
    // turns.
    static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn turn() -> std::sync::MutexGuard<'static, ()> {
        TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn bookkeeping_tracks_live_and_peak() {
        let _turn = turn();
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(1024, 8).unwrap();
        let before = CountingAlloc::stats();
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            let mid = CountingAlloc::stats();
            assert_eq!(mid.live_bytes, before.live_bytes + 1024);
            assert!(mid.peak_bytes >= mid.live_bytes);
            assert_eq!(mid.allocations, before.allocations + 1);
            a.dealloc(p, layout);
        }
        let after = CountingAlloc::stats();
        assert_eq!(after.live_bytes, before.live_bytes);
        assert_eq!(after.total_bytes, before.total_bytes + 1024);
        // The peak survives the free until explicitly reset.
        assert!(after.peak_bytes >= before.live_bytes + 1024);
        CountingAlloc::reset_peak();
        assert_eq!(CountingAlloc::stats().peak_bytes, after.live_bytes);
    }

    #[test]
    fn steady_window_sees_activity_inside_it() {
        let _turn = turn();
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(64, 8).unwrap();
        let meter = SteadyMeter::begin();
        unsafe {
            let p = a.alloc(layout);
            a.dealloc(p, layout);
        }
        let d = meter.so_far();
        assert!(d.allocations >= 1);
        assert!(d.total_bytes >= 64);
        let rate = AllocDelta {
            allocations: 9,
            total_bytes: 900,
        }
        .per(3.0);
        assert_eq!(rate.allocations, 3.0);
        assert_eq!(rate.total_bytes, 300.0);
    }

    #[test]
    fn realloc_moves_live_by_the_difference() {
        let _turn = turn();
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(256, 8).unwrap();
        unsafe {
            let p = a.alloc(layout);
            let live0 = CountingAlloc::stats().live_bytes;
            let p2 = a.realloc(p, layout, 512);
            assert_eq!(CountingAlloc::stats().live_bytes, live0 + 256);
            let grown = Layout::from_size_align(512, 8).unwrap();
            let p3 = a.realloc(p2, grown, 128);
            assert_eq!(CountingAlloc::stats().live_bytes, live0 - 128);
            a.dealloc(p3, Layout::from_size_align(128, 8).unwrap());
        }
    }
}
