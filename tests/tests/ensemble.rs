//! The ensemble orchestration contract, end to end:
//!
//! * a member whose ocean rank dies mid-run is retried from its
//!   checkpoint and produces output **bit-identical** to the same
//!   member run without the fault;
//! * the aggregate `foam-ensemble/1` report is **byte-identical** for
//!   any worker count and any member submission order;
//! * members that exhaust their retry budget are marked `failed` in
//!   the report without failing the ensemble.

use std::path::PathBuf;

use foam::FoamConfig;
use foam_ensemble::{run_ensemble, EnsembleError, EnsembleSpec, MemberOutput, RankKill};

/// A fresh scratch directory under the system temp dir (the build has
/// no `tempfile` crate); any debris from a previous run is removed.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("foam-ensemble-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_member_bit_equal(a: &MemberOutput, b: &MemberOutput, what: &str) {
    assert_eq!(
        a.mean_sst_series.len(),
        b.mean_sst_series.len(),
        "{what}: series length"
    );
    for (k, (x, y)) in a.mean_sst_series.iter().zip(&b.mean_sst_series).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: series entry {k} differs ({x} vs {y})"
        );
    }
    for (k, (x, y)) in a
        .final_sst
        .as_slice()
        .iter()
        .zip(b.final_sst.as_slice())
        .enumerate()
    {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: final SST cell {k} differs ({x} vs {y})"
        );
    }
    assert_eq!(
        a.ice_fraction.to_bits(),
        b.ice_fraction.to_bits(),
        "{what}: ice fraction"
    );
}

/// The acceptance scenario: one member of a two-member ensemble loses
/// its ocean rank mid-run, is resumed from its per-member checkpoint
/// store, and its output matches the unfaulted ensemble bit-for-bit.
#[test]
fn faulted_member_recovers_bit_identically() {
    let days = 2.0; // 8 coupling intervals, checkpoints at 2, 4, 6, 8
    let mut spec = EnsembleSpec::seed_sweep(FoamConfig::tiny(77), days, 2);
    spec.workers = 2;
    spec.output_dir = Some(scratch("recovery"));
    spec.ckpt_interval = 2;
    // Member 1: the ocean dies at interval 5 — past the interval-4
    // checkpoint, before the end of the run.
    spec.members[1].kill_rank = Some(RankKill {
        rank: spec.base.n_atm_ranks,
        interval: 5,
    });

    let faulted = run_ensemble(&spec).unwrap();
    assert_eq!(faulted.report.n_ok, 2, "both members must complete");
    let rec = &faulted.members[1];
    assert!(
        rec.retries > 0,
        "the faulted member must have been retried (retries = {})",
        rec.retries
    );
    assert_eq!(faulted.report.members[1].retries, rec.retries);
    assert_eq!(faulted.report.members[1].status, "ok");
    assert_eq!(faulted.members[0].retries, 0, "healthy member, no retries");

    // The same ensemble with no fault is the reference.
    let mut clean_spec = spec.clone();
    clean_spec.members[1].kill_rank = None;
    clean_spec.output_dir = Some(scratch("recovery-ref"));
    let clean = run_ensemble(&clean_spec).unwrap();

    for id in 0..2 {
        assert_member_bit_equal(
            faulted.members[id].output().unwrap(),
            clean.members[id].output().unwrap(),
            &format!("member {id}"),
        );
    }
    // Byte-level check of the whole aggregate: beyond the retry counts,
    // the fault may only show in the recovered member's telemetry
    // digests (its phase calls describe the resumed segment, not the
    // full run — the failed attempt's telemetry dies with it). All
    // *science* values must be untouched.
    let mut normalized = faulted.report.clone();
    normalized.total_retries = 0;
    for m in &mut normalized.members {
        m.retries = 0;
    }
    normalized.members[1].phase_calls = clean.report.members[1].phase_calls.clone();
    normalized.members[1].counters = clean.report.members[1].counters.clone();
    assert_eq!(
        normalized.to_json().to_string_pretty(),
        clean.report.to_json().to_string_pretty(),
        "recovery must leave every science value in the report untouched"
    );
}

/// The determinism half of the contract: worker count and member
/// submission order are invisible in the aggregate report, byte for
/// byte.
#[test]
fn report_is_byte_identical_across_worker_counts_and_orders() {
    let mk_spec = || {
        let mut s = EnsembleSpec::seed_sweep(FoamConfig::tiny(5), 0.5, 3);
        s.output_dir = None; // pure in-memory members
        s
    };

    let reference = {
        let mut s = mk_spec();
        s.workers = 1;
        run_ensemble(&s).unwrap()
    };
    let reference_json = reference.report.to_json().to_string_pretty();
    let report = &reference.report;
    assert_eq!(report.n_ok, 3);
    assert!(reference_json.contains("\"schema\": \"foam-ensemble/1\""));
    // Half a day is two coupling intervals: finite statistics of that
    // length, and every member carries its phase breakdown and its
    // pattern distance to the ensemble mean.
    assert_eq!(report.sst_mean_series.len(), 2);
    assert_eq!(report.sst_spread_series.len(), 2);
    assert!(report.sst_mean_series.iter().all(|x| x.is_finite()));
    assert!(report.sst_spread_series.iter().all(|&s| s >= 0.0));
    for m in &report.members {
        assert_eq!(m.status, "ok");
        assert!(!m.phase_calls.is_empty(), "member {}: no phase calls", m.id);
        let pattern = m.pattern_vs_ensemble_mean.as_ref().expect("three members");
        assert!(
            pattern.rmse >= 0.0,
            "member {}: rmse {}",
            m.id,
            pattern.rmse
        );
    }

    for workers in [2, 8] {
        let mut s = mk_spec();
        s.workers = workers;
        let out = run_ensemble(&s).unwrap();
        assert_eq!(
            out.report.to_json().to_string_pretty(),
            reference_json,
            "report changed under workers = {workers}"
        );
    }

    // Reversed submission order: the scheduler sees the members in a
    // different order, the report must not.
    let mut s = mk_spec();
    s.workers = 2;
    s.members.reverse();
    let out = run_ensemble(&s).unwrap();
    assert_eq!(
        out.report.to_json().to_string_pretty(),
        reference_json,
        "report changed under reversed submission order"
    );

    // Cross-member telemetry is merged and carries every rank.
    let merged = reference.merged_telemetry.expect("telemetry is forced on");
    assert_eq!(merged.ranks.len(), FoamConfig::tiny(5).n_ranks());
}

/// A member whose retry budget cannot absorb the fault is marked
/// `failed` in the report; the ensemble completes and the statistics
/// come from the surviving members only.
#[test]
fn exhausted_member_is_marked_failed_without_failing_the_ensemble() {
    let mut spec = EnsembleSpec::seed_sweep(FoamConfig::tiny(9), 0.5, 2);
    spec.workers = 2;
    spec.supervisor.max_recoveries = 0;
    spec.members[0].kill_rank = Some(RankKill {
        rank: spec.base.n_atm_ranks,
        interval: 1,
    });

    let out = run_ensemble(&spec).unwrap();
    assert_eq!(out.report.n_ok, 1);
    assert_eq!(out.report.n_failed, 1);
    assert_eq!(out.report.members[0].status, "failed");
    assert!(out.report.members[0].error.is_some());
    assert!(out.members[0].result.is_err());

    // Statistics reduce over the one survivor: spread is exactly zero.
    assert_eq!(out.report.sst_mean_series.len(), 2);
    assert!(out.report.sst_spread_series.iter().all(|&s| s == 0.0));
    // A single survivor has no ensemble mean to compare patterns to.
    assert!(out.report.members[1].pattern_vs_ensemble_mean.is_none());

    let json = out.report.to_json().to_string_pretty();
    assert!(json.contains("\"n_failed\": 1"));
    assert!(json.contains("\"status\": \"failed\""));
}

/// FNV-1a of the compact `foam-ensemble/1` JSON of a two-member
/// `tiny(13)` seed sweep over one simulated day.
const TWO_MEMBER_REPORT: u64 = 0x0739_875f_1ce9_7fc3;

/// The report's bytes are frozen across builds, not only across worker
/// counts: a change to the member statistics or their weighting that
/// moves one byte fails here.
#[test]
fn two_member_report_bytes_are_pinned() {
    let mut spec = EnsembleSpec::seed_sweep(FoamConfig::tiny(13), 1.0, 2);
    spec.output_dir = None;
    let out = run_ensemble(&spec).unwrap();
    assert_eq!(out.report.n_ok, 2);
    let json = out.report.to_json().to_string();
    let digest = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(
        digest, TWO_MEMBER_REPORT,
        "report digest {digest:#018x}, pinned {TWO_MEMBER_REPORT:#018x}"
    );
}

/// Orchestration-level failures (as opposed to member failures) are
/// typed `EnsembleError`s, checked before any member starts.
#[test]
fn invalid_specs_are_rejected_up_front() {
    let spec = EnsembleSpec::seed_sweep(FoamConfig::tiny(1), 1.0, 0);
    assert_eq!(run_ensemble(&spec).unwrap_err(), EnsembleError::NoMembers);

    let mut spec = EnsembleSpec::seed_sweep(FoamConfig::tiny(1), 1.0, 2);
    spec.base.dt_couple = f64::NAN;
    assert!(matches!(
        run_ensemble(&spec).unwrap_err(),
        EnsembleError::Member { id: 0, .. }
    ));
}
