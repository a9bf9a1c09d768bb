//! The checkpoint/restart contract, end to end: a run interrupted at a
//! snapshot and resumed must land on *bit-identical* state (same rank
//! count), corrupted snapshots must fail with typed errors and fall
//! back to older retained ones, and the crash-recovery path — kill the
//! ocean rank mid-run, restart from the last good checkpoint — must
//! reproduce the uninterrupted run exactly.

use std::path::{Path, PathBuf};

use foam::checkpoint::{load_latest, load_snapshot};
use foam::{
    try_resume_coupled, try_run_coupled, CheckpointStore, CkptConfig, CkptError, CoupledError,
    FoamConfig, RankKill, StreamStatsConfig,
};
use foam_grid::Field2;

/// A fresh scratch directory under the system temp dir (the build has
/// no `tempfile` crate); any debris from a previous run is removed.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("foam-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Tiny config with checkpointing into `dir` every `interval` coupling
/// intervals, keeping three snapshots.
fn ckpt_tiny(seed: u64, dir: &Path, interval: usize) -> FoamConfig {
    let mut cfg = FoamConfig::tiny(seed);
    cfg.ckpt = CkptConfig {
        dir: Some(dir.to_path_buf()),
        interval,
        keep: 3,
        ..CkptConfig::default()
    };
    cfg
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

fn assert_series_bit_equal(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: entry {k} differs ({x} vs {y})"
        );
    }
}

#[test]
fn restart_resumes_bit_identically() {
    // N + M straight vs N → checkpoint → restart → M, with the stream on
    // so the month accumulator and the stream cross the snapshot too:
    // every field and every diagnostic must agree to the last bit.
    let dir = scratch("bitident");
    let mut straight_cfg = FoamConfig::tiny(31);
    straight_cfg.stream = Some(StreamStatsConfig::default());
    let straight = try_run_coupled(&straight_cfg, 2.0).unwrap();

    let mut cfg = ckpt_tiny(31, &dir, 4);
    cfg.stream = Some(StreamStatsConfig::default());
    let part1 = try_run_coupled(&cfg, 1.0).unwrap(); // snapshots at interval 4
    assert_series_bit_equal(
        &part1.mean_sst_series,
        &straight.mean_sst_series[..4],
        "first-leg series",
    );

    let resumed = try_resume_coupled(&cfg, 2.0).unwrap(); // intervals 4..8
    assert_fields_bit_equal(&resumed.final_sst, &straight.final_sst, "final SST");
    assert_series_bit_equal(
        &resumed.mean_sst_series,
        &straight.mean_sst_series,
        "mean-SST series",
    );
    assert_eq!(
        resumed.ice_fraction.to_bits(),
        straight.ice_fraction.to_bits(),
        "ice fraction"
    );
    assert_eq!(resumed.stream, straight.stream, "stream state");
    assert_eq!(resumed.sim_seconds, straight.sim_seconds);
    // The speedup counts only the four intervals the resumed leg ran.
    let charged = resumed.model_speedup * resumed.wall_seconds;
    assert!(
        (charged / (4.0 * cfg.dt_couple) - 1.0).abs() < 1e-12,
        "{charged} s"
    );

    // Resuming a run the checkpoint has already finished is a typed
    // config mismatch, not a silent no-op.
    let err = try_resume_coupled(&cfg, 1.0).unwrap_err();
    assert!(
        matches!(err, CoupledError::Ckpt(CkptError::ConfigMismatch(_))),
        "{err}"
    );

    // So is resuming under a different model geometry.
    let mut cfg_bad = cfg.clone();
    cfg_bad.ocean.nx = 48;
    let err = try_resume_coupled(&cfg_bad, 2.0).unwrap_err();
    assert!(
        matches!(err, CoupledError::Ckpt(CkptError::ConfigMismatch(_))),
        "{err}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_without_snapshots_is_a_typed_error() {
    let dir = scratch("empty");
    let cfg = ckpt_tiny(32, &dir, 2);
    let err = try_resume_coupled(&cfg, 1.0).unwrap_err();
    assert_eq!(err, CoupledError::Ckpt(CkptError::NoCheckpoint));

    // No checkpoint directory configured at all: same typed refusal.
    let err = try_resume_coupled(&FoamConfig::tiny(32), 1.0).unwrap_err();
    assert_eq!(err, CoupledError::Ckpt(CkptError::NoCheckpoint));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_recovery_reproduces_the_uninterrupted_run() {
    // The crash-recovery harness of the roadmap: the ocean rank dies on
    // accepting the interval-5 forcing, after the periodic snapshots at
    // intervals 2 and 4 committed on the failure-free trajectory. The
    // run comes back with a typed rank death, is restarted from the
    // last good checkpoint with a clean runtime, and must finish
    // bit-identical to a run that never crashed.
    let dir = scratch("crash");
    let straight = try_run_coupled(&FoamConfig::tiny(34), 2.0).unwrap();

    let mut crashing = ckpt_tiny(34, &dir, 2);
    let ocean = crashing.n_atm_ranks;
    crashing.runtime.kill_rank = Some(RankKill {
        rank: ocean,
        interval: 5,
    });
    let err = try_run_coupled(&crashing, 2.0).unwrap_err();
    assert!(
        matches!(err, CoupledError::RankDead { rank, .. } if rank == ocean),
        "{err}"
    );

    // The periodic snapshots survived the crash; the newest is the
    // restart point.
    let recover = ckpt_tiny(34, &dir, 2);
    let store = CheckpointStore::open(dir.as_path()).unwrap();
    let last_good = load_latest(&store, &recover).unwrap();
    assert_eq!(last_good.interval, 4);

    let resumed = try_resume_coupled(&recover, 2.0).unwrap();
    assert_fields_bit_equal(&resumed.final_sst, &straight.final_sst, "final SST");
    assert_series_bit_equal(
        &resumed.mean_sst_series,
        &straight.mean_sst_series,
        "mean-SST series",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshots_are_typed_and_fall_back_to_older_ones() {
    // Write three snapshots, then damage them one by one: a flipped
    // payload byte (CRC mismatch), a truncated shard, a wrong-version
    // manifest. Each damage mode must surface as its typed error, and
    // the loader must keep falling back to the newest *intact*
    // snapshot until none is left.
    let dir = scratch("corrupt");
    let cfg = ckpt_tiny(35, &dir, 2);
    try_run_coupled(&cfg, 1.5).unwrap(); // snapshots at intervals 2, 4, 6

    let store = CheckpointStore::open(dir.as_path()).unwrap();
    let dirs: Vec<(u64, PathBuf)> = store.candidates().unwrap();
    assert_eq!(
        dirs.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
        vec![6, 4, 2]
    );
    assert_eq!(load_latest(&store, &cfg).unwrap().interval, 6);

    // Newest snapshot: flip one payload byte in a shard → CRC mismatch.
    let shard6 = CheckpointStore::shard_path(&dirs[0].1, 0);
    let mut bytes = std::fs::read(&shard6).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&shard6, &bytes).unwrap();
    let err = load_snapshot(&dirs[0].1, &cfg).unwrap_err();
    assert!(matches!(err, CkptError::CrcMismatch { .. }), "{err}");

    // Second snapshot: truncate the other rank's shard.
    let shard4 = CheckpointStore::shard_path(&dirs[1].1, 1);
    let bytes = std::fs::read(&shard4).unwrap();
    std::fs::write(&shard4, &bytes[..bytes.len() / 2]).unwrap();
    let err = load_snapshot(&dirs[1].1, &cfg).unwrap_err();
    assert!(matches!(err, CkptError::Truncated { .. }), "{err}");

    // The loader now falls back past both to the oldest snapshot.
    assert_eq!(load_latest(&store, &cfg).unwrap().interval, 2);

    // Oldest snapshot: stamp a wrong format version into the manifest.
    let manifest2 = CheckpointStore::manifest_path(&dirs[2].1);
    let good_manifest = std::fs::read(&manifest2).unwrap();
    let mut bad = good_manifest.clone();
    bad[8] ^= 0xFF; // version field, u32 LE at offset 8
    std::fs::write(&manifest2, &bad).unwrap();
    let err = load_snapshot(&dirs[2].1, &cfg).unwrap_err();
    assert!(matches!(err, CkptError::BadVersion { .. }), "{err}");

    // Nothing intact is left: the driver reports a typed failure...
    let err = try_resume_coupled(&cfg, 2.0).unwrap_err();
    assert!(matches!(err, CoupledError::Ckpt(_)), "{err}");

    // ...and repairing the manifest makes the oldest snapshot resumable
    // again: the fall-back chain ends in a working restart.
    std::fs::write(&manifest2, &good_manifest).unwrap();
    let resumed = try_resume_coupled(&cfg, 2.0).unwrap();
    assert_eq!(resumed.mean_sst_series.len(), 8);
    assert!(resumed.final_sst.all_finite());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_on_a_different_rank_count_is_functional() {
    // Shards are stitched into a global snapshot and re-decomposed, so
    // a job checkpointed on 2 atmosphere ranks restarts on 3. Reduction
    // order changes with the decomposition, so this resume is
    // *functional* rather than bit-identical: the run completes and
    // stays physically close to the single-decomposition trajectory.
    let dir = scratch("ranks");
    let cfg2 = ckpt_tiny(37, &dir, 4);
    try_run_coupled(&cfg2, 1.0).unwrap();

    let mut cfg3 = ckpt_tiny(37, &dir, 4);
    cfg3.n_atm_ranks = 3;
    let resumed = try_resume_coupled(&cfg3, 2.0).unwrap();
    assert_eq!(resumed.mean_sst_series.len(), 8);
    assert!(resumed.final_sst.all_finite());

    let straight = try_run_coupled(&FoamConfig::tiny(37), 2.0).unwrap();
    let d = (resumed.mean_sst_series[7] - straight.mean_sst_series[7]).abs();
    assert!(d < 0.1, "rank-count change drifted the mean SST by {d} °C");
    let _ = std::fs::remove_dir_all(&dir);
}
