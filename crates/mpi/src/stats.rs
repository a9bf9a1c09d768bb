//! Per-rank communication statistics and the teardown "comm-lint".
//!
//! Every send/recv through a [`crate::Comm`] is counted per tag —
//! message counts, (shallow) payload bytes, and a log-scale histogram of
//! time spent blocked waiting for each tag. The counters ride along in
//! [`crate::RankTrace`], so the Figure 2 tooling can report *what* the
//! ranks were waiting on, not just that they waited.
//!
//! At teardown, [`crate::Universe`] folds the per-rank counters and the
//! leftover mailbox contents into a [`CommLint`] report: messages that
//! were sent but never matched by a receive, per-tag send/recv
//! imbalances, and ranks whose receives timed out — the debugging
//! information a hung MPI job never gives you.

use std::collections::BTreeMap;

/// Tags at or above this bound are internal to the runtime (broadcast
/// and reduction trees, gathers, the job abort); user tags stay below it.
pub(crate) const INTERNAL_TAG: u32 = 0x8000_0000;

/// Human-readable name for a tag: internal tags get their protocol name,
/// user tags are shown numerically.
pub fn tag_label(tag: u32) -> String {
    match tag.checked_sub(INTERNAL_TAG) {
        Some(2) => "internal:bcast".to_string(),
        Some(3) => "internal:reduce".to_string(),
        Some(4) => "internal:gather".to_string(),
        Some(n) => format!("internal:{n}"),
        None => format!("tag {tag}"),
    }
}

/// Histogram of wait durations with power-of-4 microsecond buckets:
/// <1 µs, <4 µs, <16 µs, ..., the last bucket catching everything else.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaitHistogram {
    pub buckets: [u64; 12],
}

impl WaitHistogram {
    pub fn record(&mut self, seconds: f64) {
        let micros = seconds * 1e6;
        let mut bound = 1.0;
        for b in &mut self.buckets[..11] {
            if micros < bound {
                *b += 1;
                return;
            }
            bound *= 4.0;
        }
        self.buckets[11] += 1;
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Compact rendering like `2@<1µs 5@<64µs` listing non-empty buckets.
    pub fn summarize(&self) -> String {
        let mut parts = Vec::new();
        let mut bound = 1u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                if i < 11 {
                    parts.push(format!("{n}@<{}", fmt_micros(bound)));
                } else {
                    parts.push(format!("{n}@>={}", fmt_micros(bound / 4)));
                }
            }
            bound = bound.saturating_mul(4);
        }
        if parts.is_empty() {
            "-".to_string()
        } else {
            parts.join(" ")
        }
    }
}

fn fmt_micros(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{}s", us / 1_000_000)
    } else if us >= 1_000 {
        format!("{}ms", us / 1_000)
    } else {
        format!("{us}µs")
    }
}

/// Counters for one tag on one rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TagStats {
    pub msgs_sent: u64,
    pub msgs_recvd: u64,
    /// Shallow payload bytes (`size_of_val` of the sent value — heap
    /// contents behind pointers are not chased).
    pub bytes_sent: u64,
    pub bytes_recvd: u64,
    /// Total seconds this rank spent blocked waiting on this tag.
    pub wait_seconds: f64,
    pub wait_hist: WaitHistogram,
}

/// Per-tag communication counters for one rank (or, after merging, a
/// whole job).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommStats {
    pub by_tag: BTreeMap<u32, TagStats>,
}

impl CommStats {
    pub(crate) fn on_send(&mut self, tag: u32, bytes: usize) {
        let t = self.by_tag.entry(tag).or_default();
        t.msgs_sent += 1;
        t.bytes_sent += bytes as u64;
    }

    pub(crate) fn on_recv(&mut self, tag: u32, bytes: usize) {
        let t = self.by_tag.entry(tag).or_default();
        t.msgs_recvd += 1;
        t.bytes_recvd += bytes as u64;
    }

    pub(crate) fn on_wait(&mut self, tag: u32, seconds: f64) {
        let t = self.by_tag.entry(tag).or_default();
        t.wait_seconds += seconds;
        t.wait_hist.record(seconds);
    }

    /// Counters for one tag (zeros if the tag never appeared).
    pub fn tag(&self, tag: u32) -> TagStats {
        self.by_tag.get(&tag).cloned().unwrap_or_default()
    }

    /// Fold another rank's counters into this one.
    pub fn merge(&mut self, other: &CommStats) {
        for (tag, o) in &other.by_tag {
            let t = self.by_tag.entry(*tag).or_default();
            t.msgs_sent += o.msgs_sent;
            t.msgs_recvd += o.msgs_recvd;
            t.bytes_sent += o.bytes_sent;
            t.bytes_recvd += o.bytes_recvd;
            t.wait_seconds += o.wait_seconds;
            for (b, ob) in t.wait_hist.buckets.iter_mut().zip(o.wait_hist.buckets) {
                *b += ob;
            }
        }
    }
}

/// A message that was still sitting unmatched in a rank's mailbox when
/// that rank finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakedMessage {
    /// Rank whose mailbox held the message.
    pub rank: usize,
    /// World rank that sent it.
    pub src: usize,
    pub tag: u32,
    pub count: usize,
}

/// A tag whose global send and receive counts do not balance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagImbalance {
    pub tag: u32,
    pub sent: u64,
    pub received: u64,
}

/// The teardown report of a [`crate::Universe`] run: what the
/// communication layer left behind.
#[derive(Debug, Clone, Default)]
pub struct CommLint {
    /// Unmatched messages found in rank mailboxes at teardown, by
    /// receiving rank then (src, tag).
    pub leaked: Vec<LeakedMessage>,
    /// Tags where `sent != received` across the job.
    pub unbalanced_tags: Vec<TagImbalance>,
    /// Ranks on which at least one receive deadline expired.
    pub timed_out_ranks: Vec<usize>,
}

impl CommLint {
    /// True when the run left no communication residue.
    pub fn is_clean(&self) -> bool {
        self.leaked.is_empty() && self.unbalanced_tags.is_empty() && self.timed_out_ranks.is_empty()
    }

    /// The (src, tag) pairs of all leaked messages, deduplicated — the
    /// first thing to look at when a run times out.
    pub fn leaked_pairs(&self) -> Vec<(usize, u32)> {
        let mut out: Vec<(usize, u32)> = self.leaked.iter().map(|l| (l.src, l.tag)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl std::fmt::Display for CommLint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return writeln!(f, "comm-lint: clean");
        }
        writeln!(f, "comm-lint: DIRTY")?;
        for l in &self.leaked {
            writeln!(
                f,
                "  leaked: rank {} holds {} unmatched message(s) from rank {} with {}",
                l.rank,
                l.count,
                l.src,
                tag_label(l.tag)
            )?;
        }
        for t in &self.unbalanced_tags {
            writeln!(
                f,
                "  imbalance: {} sent {} but received {}",
                tag_label(t.tag),
                t.sent,
                t.received
            )?;
        }
        if !self.timed_out_ranks.is_empty() {
            writeln!(f, "  timed-out ranks: {:?}", self.timed_out_ranks)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_magnitude() {
        let mut h = WaitHistogram::default();
        h.record(0.5e-6); // <1 µs
        h.record(2e-6); // <4 µs
        h.record(10.0); // catch-all (>= 4^10 µs ≈ 1.05 s)
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[11], 1);
        assert_eq!(h.count(), 3);
        let s = h.summarize();
        assert!(s.contains("1@<1µs"), "{s}");
    }

    #[test]
    fn stats_count_and_merge() {
        let mut a = CommStats::default();
        a.on_send(7, 100);
        a.on_send(7, 50);
        a.on_recv(7, 100);
        a.on_wait(7, 1e-3);
        let mut b = CommStats::default();
        b.on_send(7, 10);
        a.merge(&b);
        let t = a.tag(7);
        assert_eq!(t.msgs_sent, 3);
        assert_eq!(t.bytes_sent, 160);
        assert_eq!(t.msgs_recvd, 1);
        assert!(t.wait_seconds > 0.0);
    }

    #[test]
    fn internal_tags_are_named_and_filtered() {
        assert_eq!(tag_label(INTERNAL_TAG + 2), "internal:bcast");
        assert_eq!(tag_label(INTERNAL_TAG + 3), "internal:reduce");
        assert_eq!(tag_label(INTERNAL_TAG + 4), "internal:gather");
        assert_eq!(tag_label(INTERNAL_TAG + 8), "internal:8");
        assert_eq!(tag_label(5), "tag 5");
        assert_eq!(tag_label(INTERNAL_TAG - 1), "tag 2147483647");
    }

    #[test]
    fn lint_clean_and_dirty_rendering() {
        let clean = CommLint::default();
        assert!(clean.is_clean());
        assert!(clean.to_string().contains("clean"));

        let dirty = CommLint {
            leaked: vec![LeakedMessage {
                rank: 1,
                src: 0,
                tag: 7,
                count: 2,
            }],
            ..Default::default()
        };
        assert!(!dirty.is_clean());
        assert_eq!(dirty.leaked_pairs(), vec![(0, 7)]);
        assert!(dirty.to_string().contains("tag 7"));
    }
}
