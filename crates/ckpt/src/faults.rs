//! Deterministic checkpoint-store fault injection.
//!
//! The storage entry of the fault matrix the run supervisor recovers
//! from, beside an injected rank death and a poisoned SST, so that
//! storage, rank and physics faults can be injected into one seeded run.
//! A [`FaultyStore`] wraps a [`CheckpointStore`] and, at the
//! intervals named by its [`StoreFaultPlan`], produces exactly the
//! failure modes real filesystems produce:
//!
//! * [`StoreFaultKind::TornWrite`] — a shard is truncated mid-file
//!   *after* the checkpoint commits, as when a node loses power during
//!   a buffered write;
//! * [`StoreFaultKind::CrcCorruption`] — one payload byte is flipped in
//!   a committed shard (bit rot), which the section CRC64 catches at
//!   load time;
//! * [`StoreFaultKind::WriteError`] — `begin` fails with an
//!   ENOSPC-style typed I/O error, as when the disk fills up.
//!
//! All three are deterministic: the same plan corrupts the same bytes
//! of the same interval every run, which is what lets the run
//! supervisor's recovery reports stay byte-identical across reruns.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::store::{CheckpointStore, PendingCheckpoint};
use crate::CkptError;

/// The storage failure modes the fault matrix can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFaultKind {
    /// Truncate one committed shard to half its length (power loss
    /// during a buffered write). Caught as [`CkptError::Truncated`] or
    /// [`CkptError::CrcMismatch`] on load.
    TornWrite,
    /// Flip one byte of a committed shard (bit rot). Caught as
    /// [`CkptError::CrcMismatch`] on load.
    CrcCorruption,
    /// Fail the checkpoint's `begin` with an ENOSPC-style I/O error —
    /// the snapshot is never written at all.
    WriteError,
}

/// One scheduled storage fault: fire `kind` at checkpoint `interval`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreFault {
    /// Coupling interval of the checkpoint to sabotage.
    pub interval: u64,
    /// Which failure mode to produce.
    pub kind: StoreFaultKind,
}

/// A deterministic schedule of checkpoint-store faults. Each entry
/// fires at most once per [`FaultyStore`] instance (one sabotage per
/// scheduled interval).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreFaultPlan {
    faults: Vec<StoreFault>,
}

impl StoreFaultPlan {
    /// An empty plan (no faults — `FaultyStore` becomes a transparent
    /// wrapper).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule a torn shard write at checkpoint `interval`.
    pub fn torn_write(mut self, interval: u64) -> Self {
        self.faults.push(StoreFault {
            interval,
            kind: StoreFaultKind::TornWrite,
        });
        self
    }

    /// Schedule a one-byte shard corruption at checkpoint `interval`.
    pub fn crc_corruption(mut self, interval: u64) -> Self {
        self.faults.push(StoreFault {
            interval,
            kind: StoreFaultKind::CrcCorruption,
        });
        self
    }

    /// Schedule an ENOSPC-style `begin` failure at checkpoint
    /// `interval`.
    pub fn write_error(mut self, interval: u64) -> Self {
        self.faults.push(StoreFault {
            interval,
            kind: StoreFaultKind::WriteError,
        });
        self
    }

    /// Consume and return the fault scheduled for `interval`, if any.
    fn take(&mut self, interval: u64) -> Option<StoreFaultKind> {
        let pos = self.faults.iter().position(|f| f.interval == interval)?;
        Some(self.faults.remove(pos).kind)
    }
}

/// A [`CheckpointStore`] wrapper that injects the faults scheduled by a
/// [`StoreFaultPlan`] and is otherwise transparent. With an empty plan
/// it adds no behavior, so production paths route through it
/// unconditionally.
#[derive(Debug)]
pub struct FaultyStore {
    inner: CheckpointStore,
    plan: Mutex<StoreFaultPlan>,
}

impl FaultyStore {
    /// Wrap `inner`, sabotaging the intervals scheduled in `plan`.
    pub fn wrap(inner: CheckpointStore, plan: StoreFaultPlan) -> Self {
        FaultyStore {
            inner,
            plan: Mutex::new(plan),
        }
    }

    /// Like [`CheckpointStore::begin`], but a scheduled
    /// [`StoreFaultKind::WriteError`] fails here with a typed
    /// ENOSPC-style error, and a scheduled torn-write/corruption arms
    /// the returned [`PendingCheckpoint`] to sabotage its own commit.
    pub fn begin(&self, interval: u64) -> Result<PendingCheckpoint, CkptError> {
        let fault = self.plan.lock().expect("fault plan lock").take(interval);
        if let Some(StoreFaultKind::WriteError) = fault {
            return Err(CkptError::Io {
                op: "write shard",
                detail: "injected fault: no space left on device".to_string(),
            });
        }
        let mut pending = self.inner.begin(interval)?;
        if let Some(kind) = fault {
            pending.arm(kind);
        }
        Ok(pending)
    }

    /// Passthrough to [`CheckpointStore::retain`].
    pub fn retain(&self, keep: usize) -> Result<(), CkptError> {
        self.inner.retain(keep)
    }
}

/// Sabotage a fully written staging directory according to `kind`,
/// just before it is renamed into place. Deterministic: shards are
/// chosen by sorted file name, and the corruption touches fixed
/// offsets.
pub(crate) fn apply(staging: &Path, kind: StoreFaultKind) -> Result<(), CkptError> {
    let mut shards: Vec<PathBuf> = std::fs::read_dir(staging)
        .map_err(|e| CkptError::io("list staging dir", e))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("rank-") && n.ends_with(".foam"))
        })
        .collect();
    shards.sort();
    match kind {
        StoreFaultKind::TornWrite => {
            // Tear the highest-rank shard: truncate to half its length.
            if let Some(path) = shards.last() {
                let len = std::fs::metadata(path)
                    .map_err(|e| CkptError::io("stat shard", e))?
                    .len();
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| CkptError::io("open shard", e))?;
                f.set_len(len / 2)
                    .map_err(|e| CkptError::io("truncate shard", e))?;
            }
        }
        StoreFaultKind::CrcCorruption => {
            // Flip the last byte of the lowest-rank shard's payload.
            if let Some(path) = shards.first() {
                let mut bytes = std::fs::read(path).map_err(|e| CkptError::io("read shard", e))?;
                if let Some(last) = bytes.last_mut() {
                    *last ^= 0xFF;
                }
                std::fs::write(path, bytes).map_err(|e| CkptError::io("write shard", e))?;
            }
        }
        StoreFaultKind::WriteError => {
            unreachable!("WriteError fails begin(); it is never armed on a pending checkpoint")
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "foam-ckpt-faults-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn commit_two_shards(store: &FaultyStore, interval: u64) -> PathBuf {
        let pending = store.begin(interval).unwrap();
        std::fs::write(
            CheckpointStore::shard_path(pending.staging_dir(), 0),
            vec![0xAAu8; 64],
        )
        .unwrap();
        std::fs::write(
            CheckpointStore::shard_path(pending.staging_dir(), 1),
            vec![0xBBu8; 64],
        )
        .unwrap();
        std::fs::write(
            CheckpointStore::manifest_path(pending.staging_dir()),
            b"manifest",
        )
        .unwrap();
        pending.commit().unwrap()
    }

    #[test]
    fn empty_plan_is_transparent() {
        let root = scratch("transparent");
        let store = FaultyStore::wrap(CheckpointStore::open(&root).unwrap(), StoreFaultPlan::new());
        let dir = commit_two_shards(&store, 3);
        assert_eq!(
            std::fs::read(CheckpointStore::shard_path(&dir, 0)).unwrap(),
            vec![0xAAu8; 64]
        );
        assert_eq!(
            std::fs::read(CheckpointStore::shard_path(&dir, 1)).unwrap(),
            vec![0xBBu8; 64]
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_write_halves_the_last_shard() {
        let root = scratch("torn");
        let store = FaultyStore::wrap(
            CheckpointStore::open(&root).unwrap(),
            StoreFaultPlan::new().torn_write(3),
        );
        let dir = commit_two_shards(&store, 3);
        assert_eq!(
            std::fs::metadata(CheckpointStore::shard_path(&dir, 1))
                .unwrap()
                .len(),
            32,
            "highest-rank shard torn to half length"
        );
        assert_eq!(
            std::fs::metadata(CheckpointStore::shard_path(&dir, 0))
                .unwrap()
                .len(),
            64,
            "other shards untouched"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn crc_corruption_flips_one_byte_of_the_first_shard() {
        let root = scratch("crc");
        let store = FaultyStore::wrap(
            CheckpointStore::open(&root).unwrap(),
            StoreFaultPlan::new().crc_corruption(5),
        );
        let dir = commit_two_shards(&store, 5);
        let bytes = std::fs::read(CheckpointStore::shard_path(&dir, 0)).unwrap();
        assert_eq!(bytes.len(), 64);
        assert_eq!(*bytes.last().unwrap(), 0xAA ^ 0xFF);
        assert!(bytes[..63].iter().all(|&b| b == 0xAA));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn write_error_fails_begin_with_a_typed_io_error() {
        let root = scratch("enospc");
        let store = FaultyStore::wrap(
            CheckpointStore::open(&root).unwrap(),
            StoreFaultPlan::new().write_error(2),
        );
        let err = store.begin(2).unwrap_err();
        assert!(
            matches!(
                err,
                CkptError::Io {
                    op: "write shard",
                    ..
                }
            ),
            "{err:?}"
        );
        // The fault fired once; the retried checkpoint succeeds.
        let dir = commit_two_shards(&store, 2);
        assert!(CheckpointStore::manifest_path(&dir).exists());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn faults_only_fire_at_their_interval() {
        let root = scratch("other-intervals");
        let store = FaultyStore::wrap(
            CheckpointStore::open(&root).unwrap(),
            StoreFaultPlan::new().torn_write(7),
        );
        let dir = commit_two_shards(&store, 3);
        assert_eq!(
            std::fs::metadata(CheckpointStore::shard_path(&dir, 1))
                .unwrap()
                .len(),
            64,
            "interval 3 untouched by a fault scheduled at 7"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }
}
