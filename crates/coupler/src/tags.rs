//! The message tags of the atmosphere↔ocean exchange protocol.
//!
//! All traffic crosses the *world* communicator between the atmosphere
//! root (world rank 0) and the ocean rank. Tags live here, next to the
//! coupler they belong to, so trace/stats tooling and the driver agree
//! on their meaning.
//!
//! A healthy exchange, by tag: the ocean opens with the sequence-0 SST,
//! then each coupling interval is one `TAG_FORCING` (root → ocean)
//! answered by one `TAG_SST` (ocean → root), with `TAG_CKPT` requesting
//! snapshot shards and a `TAG_DONE` handshake closing the run. Nothing
//! is ever resent: delivery is reliable and in order, and a reply that
//! never comes ends the run with a typed error the supervisor recovers
//! from by rollback. The tag values are pinned by the per-tag message
//! counts of the driver's digest tests. Telemetry folds
//! the per-tag communication counters into the run report under these
//! names:
//!
//! ```
//! use foam_coupler::tags::{tag_name, TAG_FORCING, TAG_SST};
//!
//! assert_eq!(tag_name(TAG_FORCING), Some("forcing"));
//! assert_eq!(tag_name(TAG_SST), Some("sst"));
//! assert_eq!(tag_name(999), None); // not a protocol tag
//! // e.g. counter "comm.forcing.msgs_sent" in the telemetry report.
//! ```

/// Accumulated ocean forcing, atmosphere root → ocean. Payload:
/// `(usize, OceanForcing)` — the coupling-interval index it closes.
pub const TAG_FORCING: u32 = 10;

/// Sea-surface temperature, ocean → atmosphere root. Payload:
/// `(usize, Field2)` — the sequence number counts completed ocean
/// integrations (0 = initial condition), letting the receiver skip the
/// stale announce a resumed ocean opens with.
pub const TAG_SST: u32 = 11;

/// Shutdown handshake. The root sends `()` when it has everything it
/// needs (or is aborting); the ocean acknowledges with `()` on the same
/// tag and exits. The ack is ordered after any SST or checkpoint ack the
/// ocean sent before it, so the root can drain what an aborted run left
/// unread and teardown comm-lint comes back clean.
pub const TAG_DONE: u32 = 13;

/// Checkpoint request, atmosphere root → ocean. Payload:
/// `(usize, String)` — the coupling-interval index the snapshot must
/// capture and the staging directory the ocean writes its shard into.
/// FIFO ordering behind the interval's forcing guarantees the ocean has
/// integrated through that interval when it sees the request. The ocean
/// acknowledges with `(usize, bool)` (interval, shard written) on the
/// same tag.
pub const TAG_CKPT: u32 = 14;

/// Human-readable name for a coupler protocol tag.
pub fn tag_name(tag: u32) -> Option<&'static str> {
    match tag {
        TAG_FORCING => Some("forcing"),
        TAG_SST => Some("sst"),
        TAG_DONE => Some("done"),
        TAG_CKPT => Some("ckpt"),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_distinct_and_named() {
        let tags = [TAG_FORCING, TAG_SST, TAG_DONE, TAG_CKPT];
        for (i, a) in tags.iter().enumerate() {
            assert!(tag_name(*a).is_some());
            for b in &tags[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(tag_name(99), None);
    }
}
