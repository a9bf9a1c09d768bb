//! The self-healing contract, end to end: a supervised run hit by the
//! full fault matrix — rank death (the ocean's included), checkpoint-
//! store sabotage (torn write, CRC corruption, ENOSPC), physics blow-up
//! — must detect the fault, roll back to the newest *readable* snapshot,
//! resume, and finish **bit-identical** to a fault-free run of the same
//! configuration and seed. The recovery record must be byte-identical
//! across reruns of the same seed + fault plan.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use foam::checkpoint::{load_latest, load_snapshot};
use foam::supervisor::{supervise_run, RecoveryAction, RunFault, SupervisorConfig};
use foam::{
    try_run_coupled, Backoff, CheckpointStore, CkptConfig, CkptError, CoupledError, CoupledOutput,
    FoamConfig, PhysicsFault, PhysicsFaultKind, RankKill, StoreFaultPlan,
};
use foam::{SupervisorError, SupervisorErrorKind};
use foam_grid::Field2;
use proptest::prelude::*;

/// A fresh scratch directory under the system temp dir (the build has
/// no `tempfile` crate); any debris from a previous run is removed.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("foam-heal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Tiny config checkpointing into `dir` every 2 coupling intervals,
/// keeping three snapshots.
fn ckpt_tiny(seed: u64, dir: &Path) -> FoamConfig {
    let mut cfg = FoamConfig::tiny(seed);
    cfg.ckpt = CkptConfig {
        dir: Some(dir.to_path_buf()),
        interval: 2,
        keep: 3,
        ..CkptConfig::default()
    };
    cfg
}

/// Zero-sleep supervisor with room for `n` recoveries.
fn sup(n: u32) -> SupervisorConfig {
    SupervisorConfig {
        max_recoveries: n,
        backoff: Backoff::capped(0.0, 0.0),
    }
}

fn assert_fields_bit_equal(a: &Field2, b: &Field2, what: &str) {
    assert_eq!((a.nx(), a.ny()), (b.nx(), b.ny()), "{what}: shape");
    for (k, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: cell {k} differs ({x} vs {y})"
        );
    }
}

fn assert_outputs_bit_equal(a: &CoupledOutput, b: &CoupledOutput, what: &str) {
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
    assert_fields_bit_equal(&a.final_sst, &b.final_sst, what);
    assert_eq!(
        a.ice_fraction.to_bits(),
        b.ice_fraction.to_bits(),
        "{what}: ice fraction"
    );
}

/// The fault-free 2-day reference run, shared across tests (same seed
/// everywhere bit-identity is asserted).
fn reference() -> &'static CoupledOutput {
    static REF: OnceLock<CoupledOutput> = OnceLock::new();
    REF.get_or_init(|| try_run_coupled(&FoamConfig::tiny(91), 2.0).expect("reference run"))
}

/// The acceptance scenario: the snapshot at interval 4 is sabotaged by
/// a torn write, then rank 1 dies at interval 5. The supervisor must
/// classify the death, fall back *past the torn snapshot* to the intact
/// interval-2 one, resume, and land bit-identical to the fault-free
/// run — while the recovery record names both the fault and the
/// rollback point.
#[test]
fn rank_death_plus_torn_checkpoint_recovers_bit_identically() {
    let dir = scratch("torn");
    let mut cfg = ckpt_tiny(91, &dir);
    cfg.ckpt.fault_plan = Some(StoreFaultPlan::new().torn_write(4));
    cfg.runtime.kill_rank = Some(RankKill {
        rank: 1,
        interval: 5,
    });

    let out = supervise_run(&cfg, 2.0, &sup(2)).expect("supervised recovery");
    assert_outputs_bit_equal(&out.output, reference(), "torn+death");

    assert_eq!(out.recovery.rollbacks(), 1);
    let e = &out.recovery.events[0];
    assert!(
        matches!(&e.fault, RunFault::RankDead { rank: 1, .. }),
        "{:?}",
        e.fault
    );
    // The interval-4 snapshot is torn, so the rollback landed on 2 and
    // replayed intervals 2..5.
    assert_eq!(e.action, RecoveryAction::Resumed { from_interval: 2 });
    assert_eq!(e.replayed_intervals, 3);
    // 3 intervals × 6 h = 0.75 simulated days integrated twice.
    assert!((out.recovery.sim_days_replayed - 0.75).abs() < 1e-12);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Injected CRC corruption: the sabotaged snapshot fails its section
/// checksum with a typed error, the loader falls back to the previous
/// retained snapshot, and a supervised run recovering across it is
/// still bit-identical.
#[test]
fn crc_corrupted_checkpoint_is_typed_and_fallen_back_over() {
    let dir = scratch("crc");
    let mut cfg = ckpt_tiny(91, &dir);
    cfg.ckpt.fault_plan = Some(StoreFaultPlan::new().crc_corruption(4));
    cfg.runtime.kill_rank = Some(RankKill {
        rank: 0,
        interval: 5,
    });

    let out = supervise_run(&cfg, 2.0, &sup(2)).expect("supervised recovery");
    assert_outputs_bit_equal(&out.output, reference(), "crc+death");
    assert_eq!(
        out.recovery.events[0].action,
        RecoveryAction::Resumed { from_interval: 2 }
    );

    // The corrupt snapshot is still on disk (retention keeps 3): its
    // damage surfaces as the typed CRC error, and `load_latest` keeps
    // falling back to the newest intact snapshot.
    let store = CheckpointStore::open(dir.as_path()).unwrap();
    let dirs = store.candidates().unwrap();
    let (_, corrupt_dir) = dirs.iter().find(|(i, _)| *i == 4).expect("ckpt-4 retained");
    let err = load_snapshot(corrupt_dir, &cfg).unwrap_err();
    assert!(matches!(err, CkptError::CrcMismatch { .. }), "{err}");
    let newest_intact = load_latest(&store, &cfg).unwrap();
    assert_ne!(newest_intact.interval, 4, "the corrupt snapshot is dead");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An ENOSPC-style write failure abandons the snapshot — never the
/// run: the supervised run completes with zero rollbacks and the
/// faulted interval's snapshot is simply missing.
#[test]
fn write_error_abandons_the_snapshot_not_the_run() {
    let dir = scratch("enospc");
    let mut cfg = ckpt_tiny(91, &dir);
    cfg.ckpt.fault_plan = Some(StoreFaultPlan::new().write_error(2));

    let out = supervise_run(&cfg, 2.0, &sup(2)).expect("run survives ENOSPC");
    assert_outputs_bit_equal(&out.output, reference(), "enospc");
    assert_eq!(out.recovery.rollbacks(), 0);

    let store = CheckpointStore::open(dir.as_path()).unwrap();
    let intervals: Vec<u64> = store
        .candidates()
        .unwrap()
        .into_iter()
        .map(|(i, _)| i)
        .collect();
    assert!(!intervals.contains(&2), "interval 2 was abandoned");
    assert!(intervals.contains(&4), "later snapshots committed normally");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The ocean rank dies on accepting the interval-5 forcing. Its death
/// is classified like any other rank's, the supervisor resumes from the
/// interval-4 snapshot, and the output is bit-identical to the
/// fault-free run.
#[test]
fn ocean_death_recovers_bit_identically() {
    let dir = scratch("ocean-death");
    let mut cfg = ckpt_tiny(91, &dir);
    let ocean = cfg.n_atm_ranks;
    cfg.runtime.kill_rank = Some(RankKill {
        rank: ocean,
        interval: 5,
    });

    let out = supervise_run(&cfg, 2.0, &sup(2)).expect("supervised recovery");
    assert_outputs_bit_equal(&out.output, reference(), "ocean death");
    assert_eq!(out.recovery.rollbacks(), 1);
    let e = &out.recovery.events[0];
    assert_eq!(e.fault.kind(), "rank_dead", "{:?}", e.fault);
    assert_eq!(e.action, RecoveryAction::Resumed { from_interval: 4 });
    let _ = std::fs::remove_dir_all(&dir);
}

/// The recovery record of a faulted supervised run is byte-identical
/// across reruns of the same seed + fault plan, the run lands on the
/// fault-free bits, and the telemetry report embeds exactly that record
/// as its `recovery` section. Two fault schedules, both tearing the
/// interval-4 snapshot: a rank death at interval 5, and the chaos
/// combination — the ocean's death at interval 5 and a NaN blow-up at
/// interval 6.
#[test]
fn recovery_report_is_byte_identical_across_reruns() {
    let schedules: [(&str, &[&str]); 2] = [
        ("torn+death", &["rank_dead"]),
        ("chaos", &["rank_dead", "physics_sentinel"]),
    ];
    for (name, kinds) in schedules {
        let run = |tag: &str| {
            let dir = scratch(&format!("{name}-{tag}"));
            let mut cfg = ckpt_tiny(91, &dir);
            cfg.telemetry.enabled = true;
            cfg.ckpt.fault_plan = Some(StoreFaultPlan::new().torn_write(4));
            // The chaos schedule kills the ocean, the other one an
            // atmosphere rank.
            let rank = if name == "chaos" { cfg.n_atm_ranks } else { 1 };
            cfg.runtime.kill_rank = Some(RankKill { rank, interval: 5 });
            if name == "chaos" {
                cfg.runtime.physics_fault = Some(PhysicsFault {
                    interval: 6,
                    kind: PhysicsFaultKind::Nan,
                });
            }
            let out = supervise_run(&cfg, 2.0, &sup(4)).expect("supervised recovery");
            let _ = std::fs::remove_dir_all(&dir);
            out
        };
        let a = run("a");
        let b = run("b");
        assert_outputs_bit_equal(&a.output, reference(), name);
        assert_outputs_bit_equal(&b.output, reference(), name);
        let ja = a.recovery.to_json().to_string_pretty();
        let jb = b.recovery.to_json().to_string_pretty();
        assert_eq!(
            ja, jb,
            "{name}: recovery record must not depend on wall clock"
        );
        assert!(ja.contains("\"schema\": \"foam-recovery/1\""), "{ja}");
        let fired: Vec<&str> = a.recovery.events.iter().map(|e| e.fault.kind()).collect();
        assert_eq!(fired, kinds, "{name}: {ja}");
        assert!(a.recovery.sim_days_replayed > 0.0, "{name}: {ja}");

        // The telemetry report carries the identical section.
        let report = a.output.telemetry.expect("telemetry on");
        let section = report.extra.get("recovery").expect("recovery section");
        assert_eq!(section.to_string_pretty(), ja);
    }
}

/// A run that can never start (the checkpoint root is a regular file)
/// burns through the recovery budget and surfaces the typed terminal
/// error, with every attempt — and the failing rollback loads — on the
/// record.
#[test]
fn unusable_store_exhausts_the_recovery_budget() {
    let dir = scratch("budget");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("not-a-directory");
    std::fs::write(&file, b"occupied").unwrap();
    let mut cfg = FoamConfig::tiny(91);
    cfg.ckpt = CkptConfig {
        dir: Some(file),
        interval: 2,
        keep: 2,
        ..CkptConfig::default()
    };

    let err: SupervisorError = supervise_run(&cfg, 0.5, &sup(2)).unwrap_err();
    assert_eq!(
        err.kind,
        SupervisorErrorKind::BudgetExhausted { recoveries: 2 }
    );
    assert!(matches!(err.last_error, CoupledError::Ckpt(_)));
    assert_eq!(err.recovery.rollbacks(), 2);
    for e in &err.recovery.events {
        assert!(matches!(e.fault, RunFault::CheckpointStore { .. }));
        assert_eq!(e.action, RecoveryAction::Restarted);
        assert!(e.store_error.is_some(), "the rollback load failed too");
    }
    // Two run faults + two failed rollback loads.
    assert_eq!(err.recovery.faults_seen(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Shuffling the fault schedule within the same simulated day — a
    /// rank death and a physics blow-up landing on any intervals of day
    /// 2, in any order, against any rank — must converge to the same
    /// final bits as the fault-free run. The fault positions may only
    /// show in the recovery record.
    #[test]
    fn shuffled_fault_schedules_converge_to_identical_bits(
        kill_interval in 4usize..8,
        rank in 0usize..3,
        pf_interval in 4usize..8,
        nan in any::<bool>(),
    ) {
        let dir = scratch(&format!("shuffle-{kill_interval}-{rank}-{pf_interval}-{nan}"));
        let mut cfg = ckpt_tiny(91, &dir);
        cfg.runtime.kill_rank = Some(RankKill { rank, interval: kill_interval });
        cfg.runtime.physics_fault = Some(PhysicsFault {
            interval: pf_interval,
            kind: if nan { PhysicsFaultKind::Nan } else { PhysicsFaultKind::OutOfRange },
        });

        let out = supervise_run(&cfg, 2.0, &sup(3)).expect("supervised recovery");
        assert_outputs_bit_equal(&out.output, reference(), "shuffled schedule");
        prop_assert_eq!(out.recovery.rollbacks(), 2, "both faults fired: {:?}", out.recovery.events);
        let kinds: Vec<&str> = out.recovery.events.iter().map(|e| e.fault.kind()).collect();
        prop_assert!(kinds.contains(&"rank_dead"), "{kinds:?}");
        prop_assert!(kinds.contains(&"physics_sentinel"), "{kinds:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
