//! The communication-statistics report that accompanies the Figure 2
//! timeline.

use foam_mpi::RankTrace;

/// Render the per-tag communication counters carried on a run's traces
/// as a table: messages, bytes, blocked time, and the wait-time
/// histogram, merged over all ranks. Coupler protocol tags are shown by
/// name; the runtime's internal collective traffic is summed into one
/// row so the exchange protocol stands out.
pub fn comm_stats_report(traces: &[RankTrace]) -> String {
    use std::fmt::Write;
    let mut merged = foam_mpi::CommStats::default();
    for t in traces {
        merged.merge(&t.stats);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>7} {:>7} {:>12} {:>9}  wait histogram",
        "tag", "sent", "recvd", "bytes-sent", "wait[s]"
    );
    let mut internal = foam_mpi::TagStats::default();
    let mut internal_wait = foam_mpi::WaitHistogram::default();
    for (tag, s) in &merged.by_tag {
        let label = match foam_coupler::tags::tag_name(*tag) {
            Some(name) => format!("{name} ({tag})"),
            None => foam_mpi::tag_label(*tag),
        };
        if label.starts_with("internal") {
            internal.msgs_sent += s.msgs_sent;
            internal.msgs_recvd += s.msgs_recvd;
            internal.bytes_sent += s.bytes_sent;
            internal.wait_seconds += s.wait_seconds;
            for (b, ob) in internal_wait.buckets.iter_mut().zip(s.wait_hist.buckets) {
                *b += ob;
            }
            continue;
        }
        let _ = writeln!(
            out,
            "{:<16} {:>7} {:>7} {:>12} {:>9.3}  {}",
            label,
            s.msgs_sent,
            s.msgs_recvd,
            s.bytes_sent,
            s.wait_seconds,
            s.wait_hist.summarize()
        );
    }
    if internal.msgs_sent > 0 {
        let _ = writeln!(
            out,
            "{:<16} {:>7} {:>7} {:>12} {:>9.3}  {}",
            "(collectives)",
            internal.msgs_sent,
            internal.msgs_recvd,
            internal.bytes_sent,
            internal.wait_seconds,
            internal_wait.summarize()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_stats_report_names_protocol_tags() {
        let out = crate::run_coupled(&crate::FoamConfig::tiny(8), 0.5);
        let report = comm_stats_report(&out.traces);
        assert!(report.contains("forcing (10)"), "{report}");
        assert!(report.contains("sst (11)"), "{report}");
        assert!(report.contains("(collectives)"), "{report}");
    }
}
