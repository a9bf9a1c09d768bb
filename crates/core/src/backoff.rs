//! Deterministic (jitter-free) exponential backoff for the run
//! supervisor's retry loop.
//!
//! The [supervisor](crate::supervisor) paces its rollback-and-resume
//! attempts with a doubling delay, and ensemble members and hosted jobs
//! run under it.
//! The schedule must be *deterministic* — identical configuration must
//! produce identical delays, so recovery reports stay byte-identical —
//! which rules out the usual randomized jitter.

use std::time::Duration;

/// A deterministic exponential-backoff schedule: attempt `k` (1-based)
/// waits `base * 2^(k-1)` seconds, saturating at an optional cap.
///
/// ```
/// use foam::Backoff;
///
/// let b = Backoff::capped(0.05, 0.35);
/// assert_eq!(b.delay_secs(1), 0.05);
/// assert_eq!(b.delay_secs(2), 0.10);
/// assert_eq!(b.delay_secs(4), 0.35); // capped
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Backoff {
    /// Delay of the first attempt, in seconds.
    pub base_secs: f64,
    /// Upper bound on any single delay, in seconds (`INFINITY` = none).
    pub cap_secs: f64,
}

impl Backoff {
    /// Uncapped schedule starting at `base_secs`.
    pub fn new(base_secs: f64) -> Self {
        Backoff {
            base_secs,
            cap_secs: f64::INFINITY,
        }
    }

    /// Schedule starting at `base_secs`, never exceeding `cap_secs`.
    pub fn capped(base_secs: f64, cap_secs: f64) -> Self {
        Backoff {
            base_secs,
            cap_secs,
        }
    }

    /// Delay before attempt `attempt` (1-based), in seconds. Attempt 0
    /// is treated as attempt 1. The doubling exponent is clamped at 16
    /// so the shift cannot overflow (the cap has long since saturated
    /// any realistic schedule by then).
    pub fn delay_secs(&self, attempt: u32) -> f64 {
        let exp = attempt.saturating_sub(1).min(16);
        (self.base_secs * (1u64 << exp) as f64).min(self.cap_secs)
    }

    /// [`Backoff::delay_secs`] as a [`Duration`].
    pub fn delay(&self, attempt: u32) -> Duration {
        Duration::from_secs_f64(self.delay_secs(attempt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_from_the_base() {
        let b = Backoff::new(0.05);
        assert_eq!(b.delay_secs(1), 0.05);
        assert_eq!(b.delay_secs(2), 0.10);
        assert_eq!(b.delay_secs(3), 0.20);
        assert_eq!(b.delay_secs(4), 0.40);
    }

    #[test]
    fn attempt_zero_is_attempt_one() {
        let b = Backoff::new(0.05);
        assert_eq!(b.delay_secs(0), b.delay_secs(1));
    }

    #[test]
    fn cap_saturates() {
        let b = Backoff::capped(0.1, 0.35);
        assert_eq!(b.delay_secs(1), 0.1);
        assert_eq!(b.delay_secs(2), 0.2);
        assert_eq!(b.delay_secs(3), 0.35);
        assert_eq!(b.delay_secs(30), 0.35);
    }

    #[test]
    fn shift_is_clamped_not_overflowed() {
        let b = Backoff::new(1.0);
        // Attempt 200 must not overflow the 1u64 shift; it clamps at
        // 2^16 seconds.
        assert_eq!(b.delay_secs(200), 65_536.0);
    }

    #[test]
    fn duration_matches_seconds() {
        let b = Backoff::capped(0.05, 2.0);
        assert_eq!(b.delay(3), Duration::from_secs_f64(0.2));
    }

    #[test]
    fn schedule_is_deterministic() {
        let a = Backoff::capped(0.05, 2.0);
        let b = Backoff::capped(0.05, 2.0);
        for k in 0..40 {
            assert_eq!(a.delay_secs(k), b.delay_secs(k));
        }
    }
}
