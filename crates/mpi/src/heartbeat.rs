//! Per-rank lifecycle states of a running job.
//!
//! The universe marks each rank's terminal state here — done, dead
//! (panicked), or quiesced (parked by a job abort) — and reads back the
//! quiesced ranks for the [`RankFailure`](crate::RankFailure) it
//! returns. Liveness of a *blocked* rank is not recorded: its receive
//! polls the job-abort flag every `BEACON` interval instead.

use std::sync::atomic::{AtomicU8, Ordering};

/// Lifecycle of one rank as seen by the board.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RankState {
    /// The rank closure is executing (or blocked in a receive).
    Running,
    /// The rank closure returned normally.
    Done,
    /// The rank closure panicked — the failure that aborts the job.
    Dead,
    /// The rank was parked by the job-abort broadcast after another
    /// rank died; it is a casualty, not a culprit.
    Quiesced,
}

impl RankState {
    fn from_u8(v: u8) -> RankState {
        match v {
            1 => RankState::Done,
            2 => RankState::Dead,
            3 => RankState::Quiesced,
            _ => RankState::Running,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            RankState::Running => 0,
            RankState::Done => 1,
            RankState::Dead => 2,
            RankState::Quiesced => 3,
        }
    }
}

/// One lifecycle state per rank. All operations are lock-free relaxed
/// atomics — the board is advisory, never a synchronization point.
#[derive(Debug)]
pub(crate) struct HeartbeatBoard {
    states: Vec<AtomicU8>,
}

impl HeartbeatBoard {
    /// A fresh board for `n` ranks, all `Running`.
    pub(crate) fn new(n: usize) -> Self {
        HeartbeatBoard {
            states: (0..n).map(|_| AtomicU8::new(0)).collect(),
        }
    }

    /// Record `rank`'s lifecycle state.
    pub(crate) fn set_state(&self, rank: usize, state: RankState) {
        self.states[rank].store(state.as_u8(), Ordering::Relaxed);
    }

    /// `rank`'s last recorded lifecycle state.
    pub(crate) fn state(&self, rank: usize) -> RankState {
        RankState::from_u8(self.states[rank].load(Ordering::Relaxed))
    }

    /// Ranks currently in the given state, ascending.
    pub(crate) fn ranks_in(&self, state: RankState) -> Vec<usize> {
        (0..self.states.len())
            .filter(|&r| self.state(r) == state)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn states_round_trip() {
        let b = HeartbeatBoard::new(4);
        assert_eq!(b.state(0), RankState::Running);
        b.set_state(1, RankState::Done);
        b.set_state(2, RankState::Dead);
        b.set_state(3, RankState::Quiesced);
        assert_eq!(b.state(1), RankState::Done);
        assert_eq!(b.state(2), RankState::Dead);
        assert_eq!(b.state(3), RankState::Quiesced);
        assert_eq!(b.ranks_in(RankState::Running), vec![0]);
        assert_eq!(b.ranks_in(RankState::Quiesced), vec![3]);
    }
}
