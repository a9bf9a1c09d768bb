//! What the coupled driver produces, frozen. Every constant below was
//! recorded on the hand-written `atm_rank` / `ocean_rank` loop that the
//! stepping core replaced, through entry points that exist on both sides
//! of that rewrite (`try_run_coupled`, `try_resume_coupled`,
//! `foam_ckpt::Snapshot`): the model outputs on 1, 2 and 3 atmosphere
//! ranks in both coupling modes, the same outputs across a
//! checkpoint → stop → resume, the bytes of a committed snapshot, and the
//! message count per exchange tag. A change that moves one has moved the
//! model's answers, the on-disk format or the exchange protocol (see
//! ROADMAP's re-pin gate before editing a constant here).

use std::path::{Path, PathBuf};

use foam::{
    try_resume_coupled, try_run_coupled, CheckpointStore, CkptConfig, CoupledOutput, CouplingMode,
    FoamConfig, Snapshot, StreamStatsConfig,
};
use foam_ckpt::Codec;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fnv_f64s(h: u64, xs: &[f64]) -> u64 {
    xs.iter().fold(h, |h, x| fnv(h, &x.to_bits().to_le_bytes()))
}

/// FNV-1a over the bits of `mean_sst_series`, `final_sst` and
/// `work_per_rank`, then the `Codec` bytes of the stream when there is
/// one.
fn output_digest(out: &CoupledOutput) -> u64 {
    let mut h = fnv_f64s(FNV_OFFSET, &out.mean_sst_series);
    h = fnv_f64s(h, out.final_sst.as_slice());
    for &w in &out.work_per_rank {
        h = fnv(h, &(w as u64).to_le_bytes());
    }
    if let Some(stream) = &out.stream {
        h = fnv(h, &stream.to_bytes());
    }
    h
}

fn tiny(seed: u64, ranks: usize, coupling: CouplingMode) -> FoamConfig {
    let mut cfg = FoamConfig::tiny(seed);
    cfg.n_atm_ranks = ranks;
    cfg.coupling = coupling;
    cfg
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("foam-driver-digest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[track_caller]
fn check(name: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{name}: digest {got:#018x}, pinned {want:#018x}");
}

/// `(ranks, lagged digest, sequential digest)` of `FoamConfig::tiny(41)`
/// after two simulated days.
const TINY_TWO_DAYS: [(usize, u64, u64); 3] = [
    (1, 0xb803_34f7_ad72_46f5, 0x1f87_6341_42f1_d18c),
    (2, 0x37c6_80e6_565b_046b, 0x98ce_ddcf_3132_e7c2),
    (3, 0x9f7e_4f11_6e38_fdd6, 0xd309_06e4_224d_b236),
];

/// `FoamConfig::century(41)` after 30 days: one completed month in the
/// stream.
const CENTURY_MONTH: u64 = 0x1ea5_85f7_baef_3724;

#[test]
fn outputs_on_one_two_and_three_ranks_in_both_modes() {
    for (ranks, lagged, sequential) in TINY_TWO_DAYS {
        for (mode, want) in [
            (CouplingMode::Lagged, lagged),
            (CouplingMode::Sequential, sequential),
        ] {
            let out = try_run_coupled(&tiny(41, ranks, mode), 2.0).expect("fault-free run");
            assert_eq!(out.mean_sst_series.len(), 8);
            assert_eq!(out.work_per_rank.len(), ranks);
            check(
                &format!("tiny, {ranks} ranks, {mode:?}"),
                output_digest(&out),
                want,
            );
        }
    }
}

#[test]
fn century_month_with_the_stream_on() {
    let out = try_run_coupled(&FoamConfig::century(41), 30.0).expect("fault-free run");
    assert_eq!(out.stream.as_ref().map(|s| s.months()), Some(1));
    check("century, 30 days", output_digest(&out), CENTURY_MONTH);
}

/// Run `cfg` for `stop_days` with a checkpoint every two intervals,
/// then resume it to `days` in a second job.
fn stopped_and_resumed(mut cfg: FoamConfig, tag: &str, stop_days: f64, days: f64) -> CoupledOutput {
    let dir = scratch(tag);
    cfg.ckpt = CkptConfig::every(&dir, 2);
    try_run_coupled(&cfg, stop_days).expect("first leg");
    let out = try_resume_coupled(&cfg, days).expect("resumed leg");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn a_stopped_and_resumed_run_lands_on_the_same_digests() {
    // Same rank count on both legs, so the resumed run is the
    // uninterrupted one bit for bit, work counters included.
    let (_, lagged_2, _) = TINY_TWO_DAYS[1];
    let out = stopped_and_resumed(tiny(41, 2, CouplingMode::Lagged), "lag2", 1.0, 2.0);
    check(
        "tiny, 2 ranks, lagged, resumed at 4",
        output_digest(&out),
        lagged_2,
    );

    let (_, _, sequential_3) = TINY_TWO_DAYS[2];
    let out = stopped_and_resumed(tiny(41, 3, CouplingMode::Sequential), "seq3", 1.5, 2.0);
    check(
        "tiny, 3 ranks, sequential, resumed at 6",
        output_digest(&out),
        sequential_3,
    );

    // Resumed mid-month: the month accumulator and the stream cross the
    // snapshot.
    let out = stopped_and_resumed(FoamConfig::century(41), "century", 12.5, 30.0);
    check("century, resumed at 50", output_digest(&out), CENTURY_MONTH);
}

fn file_digest(path: &Path) -> u64 {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    fnv(FNV_OFFSET, &bytes)
}

fn section_names(path: &Path) -> Vec<String> {
    let snap = Snapshot::open(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    snap.section_names().map(str::to_string).collect()
}

/// File digests of snapshot `ckpt-4` of a lagged two-rank `tiny(41)`
/// run with the stream on: the root's shard (a live month accumulator
/// and an empty stream among its sections), the other atmosphere shard,
/// the ocean's, the manifest.
const SNAPSHOT_FILES: [u64; 4] = [
    0x660c_cdfd_b807_1e32,
    0x9416_e89c_ebf0_f688,
    0x10cf_831c_43cb_ee7e,
    0x9fd7_8e63_e03e_54f2,
];

#[test]
fn a_committed_snapshot_is_the_same_bytes() {
    let dir = scratch("bytes");
    let mut cfg = tiny(41, 2, CouplingMode::Lagged);
    cfg.stream = Some(StreamStatsConfig::default());
    cfg.ckpt = CkptConfig::every(&dir, 4);
    try_run_coupled(&cfg, 1.0).expect("fault-free run");
    let store = CheckpointStore::open(&dir).expect("store opens");
    let snap = store.committed_dir(4);

    let atm_sections = [
        "meta/role",
        "meta/rank",
        "meta/rows",
        "atm/state",
        "atm/export",
        "coupler/soil",
        "coupler/bucket",
        "coupler/ice_col",
        "coupler/acc",
        "driver/work",
    ];
    let root_sections = [
        "coupler/river",
        "coupler/ice",
        "coupler/acc_shared",
        "coupler/acc_seconds",
        "coupler/fw_oneshot",
        "exchange",
        "driver/series",
        "driver/month_acc",
        "driver/stream",
    ];
    let shard = |rank| CheckpointStore::shard_path(&snap, rank);
    assert_eq!(
        section_names(&shard(0)),
        [&atm_sections[..], &root_sections[..]].concat()
    );
    assert_eq!(section_names(&shard(1)), atm_sections);
    assert_eq!(
        section_names(&shard(2)),
        ["meta/role", "meta/rank", "ocean/state", "ocean/completed"]
    );
    let manifest = CheckpointStore::manifest_path(&snap);
    assert_eq!(
        section_names(&manifest),
        [
            "manifest/interval",
            "manifest/n_atm_ranks",
            "manifest/dims",
            "manifest/dts",
            "manifest/forcings",
            "manifest/scenario_statics",
        ]
    );
    // A typed read through the public format API, so the pin does not
    // rest on raw bytes alone.
    let interval: u64 = Snapshot::open(&manifest)
        .and_then(|m| m.get("manifest/interval"))
        .expect("manifest interval");
    assert_eq!(interval, 4);

    let files = [shard(0), shard(1), shard(2), manifest];
    for (path, want) in files.iter().zip(SNAPSHOT_FILES) {
        check(&path.display().to_string(), file_digest(path), want);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `(tag, msgs_sent)` summed over the three ranks of a fault-free lagged
/// two-atmosphere-rank `tiny(41)` day checkpointed every two intervals,
/// every tag the runtime saw (protocol tags and the collectives'
/// internal ones alike).
const MSGS_SENT_PER_TAG: &[(u32, u64)] = &[
    (10, 4), // TAG_FORCING
    (11, 5), // TAG_SST: the initial one + one per interval
    (13, 2), // TAG_DONE and its ack
    (14, 4), // TAG_CKPT: two rendezvous, request + ack
    (0x8000_0002, 258),
    (0x8000_0003, 198),
    (0x8000_0004, 52),
];

#[test]
fn the_exchange_sends_the_same_messages() {
    let dir = scratch("msgs");
    let mut cfg = tiny(41, 2, CouplingMode::Lagged);
    cfg.ckpt = CkptConfig::every(&dir, 2);
    let out = try_run_coupled(&cfg, 1.0).expect("fault-free run");
    let mut merged = foam_mpi::CommStats::default();
    for t in &out.traces {
        merged.merge(&t.stats);
    }
    let got: Vec<(u32, u64)> = merged
        .by_tag
        .iter()
        .map(|(&tag, t)| (tag, t.msgs_sent))
        .filter(|&(_, n)| n > 0)
        .collect();
    assert_eq!(got, MSGS_SENT_PER_TAG);
    assert!(out.comm_lint.is_clean(), "{}", out.comm_lint);
    let _ = std::fs::remove_dir_all(&dir);
}
