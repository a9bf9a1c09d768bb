//! A directory of checkpoints with atomic commit and retention.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/
//!   ckpt-0000000004/            committed checkpoint (coupling interval 4)
//!     MANIFEST.foam
//!     rank-0000.foam
//!     rank-0001.foam
//!   ckpt-0000000008.tmp/        in-flight checkpoint (never resumed from)
//! ```
//!
//! Each checkpoint is one directory named by the coupling interval it
//! captures. Ranks write their shards into a `.tmp` directory; once the
//! manifest is in place the directory is `rename`d to its final name —
//! the commit point. Readers only ever look at committed directories,
//! so a crash mid-checkpoint leaves at worst `.tmp` debris, which the
//! next retention pass sweeps up.

use std::path::{Path, PathBuf};

use crate::CkptError;

/// File name of the per-checkpoint manifest.
pub const MANIFEST_FILE: &str = "MANIFEST.foam";

const PREFIX: &str = "ckpt-";
const TMP_SUFFIX: &str = ".tmp";

/// Handle to a directory holding numbered checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    root: PathBuf,
}

impl CheckpointStore {
    /// Open (creating if needed) the store rooted at `root`.
    pub fn open(root: &Path) -> Result<Self, CkptError> {
        std::fs::create_dir_all(root).map_err(|e| CkptError::io("create store dir", e))?;
        Ok(CheckpointStore {
            root: root.to_path_buf(),
        })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    fn dir_name(interval: u64) -> String {
        format!("{PREFIX}{interval:010}")
    }

    /// Final (committed) directory for `interval`.
    pub fn committed_dir(&self, interval: u64) -> PathBuf {
        self.root.join(Self::dir_name(interval))
    }

    /// Path of a rank's shard inside a checkpoint directory.
    pub fn shard_path(dir: &Path, rank: usize) -> PathBuf {
        dir.join(format!("rank-{rank:04}.foam"))
    }

    /// Path of the manifest inside a checkpoint directory.
    pub fn manifest_path(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    /// Directory of ensemble member `member`'s own checkpoint store
    /// under a shared ensemble root: `<root>/member-0007`. Keeping one
    /// store per member means retention, staging debris, and restarts
    /// of concurrent members never interfere with each other.
    pub fn member_root(root: &Path, member: usize) -> PathBuf {
        root.join(format!("member-{member:04}"))
    }

    /// Directory of job `job`'s own checkpoint store under a shared
    /// server root: `<root>/job-<id>`. Job ids are caller-chosen
    /// (content digests, in practice); only `[A-Za-z0-9._-]` survive,
    /// so an id can never escape the root or collide by case tricks.
    pub fn job_root(root: &Path, job: &str) -> PathBuf {
        let safe: String = job
            .chars()
            .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
            .collect();
        root.join(format!("job-{safe}"))
    }

    /// Enumerate the per-member (`member-NNNN`) and per-job
    /// (`job-<id>`) store roots that already exist under `root`, sorted
    /// by name. This is what lets a long-lived service reopen a shared
    /// root and *see* the jobs a previous process left behind —
    /// historically only ensembles created member roots and nothing
    /// ever listed them again. A missing `root` is an empty listing,
    /// not an error (the service simply has no history yet).
    pub fn roots(root: &Path) -> Result<Vec<(String, PathBuf)>, CkptError> {
        let entries = match std::fs::read_dir(root) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(CkptError::io("list store roots", e)),
        };
        let mut out = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| CkptError::io("list store roots", e))?;
            if !entry.path().is_dir() {
                continue;
            }
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with("member-") || name.starts_with("job-") {
                out.push((name.to_string(), entry.path()));
            }
        }
        out.sort();
        Ok(out)
    }

    /// Retention-driven garbage collection of store roots under `root`:
    /// every `member-*`/`job-*` root for which `keep` returns `false`
    /// is deleted (snapshots, staging debris and all). Returns the
    /// names of the roots removed, sorted. The caller decides the
    /// policy — a server keeps roots of jobs still queued or running
    /// and sweeps the rest once their results are safely in the cache.
    pub fn sweep_roots(root: &Path, keep: impl Fn(&str) -> bool) -> Result<Vec<String>, CkptError> {
        let mut removed = Vec::new();
        for (name, path) in Self::roots(root)? {
            if !keep(&name) {
                std::fs::remove_dir_all(&path).map_err(|e| CkptError::io("sweep store root", e))?;
                removed.push(name);
            }
        }
        Ok(removed)
    }

    /// Start a new checkpoint for `interval`: creates a fresh `.tmp`
    /// staging directory for ranks to write shards into. Any stale
    /// staging directory from an earlier attempt is discarded.
    pub fn begin(&self, interval: u64) -> Result<PendingCheckpoint, CkptError> {
        let staging = self
            .root
            .join(format!("{}{}", Self::dir_name(interval), TMP_SUFFIX));
        if staging.exists() {
            std::fs::remove_dir_all(&staging).map_err(|e| CkptError::io("clear staging", e))?;
        }
        std::fs::create_dir_all(&staging).map_err(|e| CkptError::io("create staging", e))?;
        Ok(PendingCheckpoint {
            staging,
            committed: self.committed_dir(interval),
            fault: None,
        })
    }

    /// Committed checkpoints as `(interval, dir)`, newest first.
    pub fn candidates(&self) -> Result<Vec<(u64, PathBuf)>, CkptError> {
        let entries =
            std::fs::read_dir(&self.root).map_err(|e| CkptError::io("list store dir", e))?;
        let mut out = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| CkptError::io("list store dir", e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(num) = name.strip_prefix(PREFIX) else {
                continue;
            };
            if num.ends_with(TMP_SUFFIX) {
                continue;
            }
            let Ok(interval) = num.parse::<u64>() else {
                continue;
            };
            out.push((interval, entry.path()));
        }
        out.sort_by_key(|&(interval, _)| std::cmp::Reverse(interval));
        Ok(out)
    }

    /// Newest committed checkpoint, if any.
    pub fn latest(&self) -> Result<Option<(u64, PathBuf)>, CkptError> {
        Ok(self.candidates()?.into_iter().next())
    }

    /// Keep the newest `keep` committed checkpoints; delete the rest,
    /// along with any `.tmp` staging debris from interrupted attempts.
    pub fn retain(&self, keep: usize) -> Result<(), CkptError> {
        for (_, dir) in self.candidates()?.into_iter().skip(keep.max(1)) {
            std::fs::remove_dir_all(&dir).map_err(|e| CkptError::io("remove old checkpoint", e))?;
        }
        let entries =
            std::fs::read_dir(&self.root).map_err(|e| CkptError::io("list store dir", e))?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(PREFIX) && name.ends_with(TMP_SUFFIX) {
                // Staging debris from a crashed attempt; a live attempt
                // holds its own PendingCheckpoint and recreates freely.
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        Ok(())
    }
}

/// An in-flight checkpoint: a staging directory that becomes visible to
/// readers only on [`commit`](PendingCheckpoint::commit).
#[derive(Debug)]
pub struct PendingCheckpoint {
    staging: PathBuf,
    committed: PathBuf,
    /// Injected sabotage applied just before commit (see
    /// [`crate::faults::FaultyStore`]).
    fault: Option<crate::faults::StoreFaultKind>,
}

impl PendingCheckpoint {
    /// Directory ranks should write their shards into.
    pub fn staging_dir(&self) -> &Path {
        &self.staging
    }

    /// Arm an injected storage fault to fire at commit time.
    pub(crate) fn arm(&mut self, kind: crate::faults::StoreFaultKind) {
        self.fault = Some(kind);
    }

    /// Atomically publish the checkpoint: rename staging → committed.
    /// Call only after every shard and the manifest are in place.
    pub fn commit(self) -> Result<PathBuf, CkptError> {
        if let Some(kind) = self.fault {
            // Sabotage the staged bytes, then publish them anyway: the
            // injected failure modes are exactly the ones atomic rename
            // cannot protect against (the *contents* are bad).
            crate::faults::apply(&self.staging, kind)?;
        }
        if self.committed.exists() {
            std::fs::remove_dir_all(&self.committed)
                .map_err(|e| CkptError::io("replace checkpoint", e))?;
        }
        std::fs::rename(&self.staging, &self.committed)
            .map_err(|e| CkptError::io("commit checkpoint", e))?;
        Ok(self.committed)
    }

    /// Discard the staging directory without publishing.
    pub fn abort(self) {
        let _ = std::fs::remove_dir_all(&self.staging);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "foam-ckpt-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn touch(path: &Path) {
        std::fs::write(path, b"x").unwrap();
    }

    fn commit_one(store: &CheckpointStore, interval: u64) -> PathBuf {
        let pending = store.begin(interval).unwrap();
        touch(&CheckpointStore::shard_path(pending.staging_dir(), 0));
        touch(&CheckpointStore::manifest_path(pending.staging_dir()));
        pending.commit().unwrap()
    }

    #[test]
    fn commit_renames_staging_into_place() {
        let root = scratch("commit");
        let store = CheckpointStore::open(&root).unwrap();
        let dir = commit_one(&store, 4);
        assert_eq!(dir, store.committed_dir(4));
        assert!(CheckpointStore::manifest_path(&dir).exists());
        assert!(
            store.root().read_dir().unwrap().count() == 1,
            "no staging debris"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn candidates_are_newest_first_and_skip_staging() {
        let root = scratch("candidates");
        let store = CheckpointStore::open(&root).unwrap();
        commit_one(&store, 2);
        commit_one(&store, 8);
        commit_one(&store, 4);
        let _still_pending = store.begin(12).unwrap();
        let got: Vec<u64> = store
            .candidates()
            .unwrap()
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        assert_eq!(got, vec![8, 4, 2]);
        assert_eq!(store.latest().unwrap().unwrap().0, 8);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn retain_keeps_newest_and_sweeps_tmp_debris() {
        let root = scratch("retain");
        let store = CheckpointStore::open(&root).unwrap();
        for i in [1, 2, 3, 4] {
            commit_one(&store, i);
        }
        // Simulated crash: staging dir left behind, never committed.
        drop(store.begin(5).unwrap());
        store.retain(2).unwrap();
        let got: Vec<u64> = store
            .candidates()
            .unwrap()
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        assert_eq!(got, vec![4, 3]);
        assert_eq!(
            store.root().read_dir().unwrap().count(),
            2,
            "tmp debris swept"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn member_stores_are_disjoint() {
        let root = scratch("members");
        let a = CheckpointStore::open(&CheckpointStore::member_root(&root, 0)).unwrap();
        let b = CheckpointStore::open(&CheckpointStore::member_root(&root, 1)).unwrap();
        assert_ne!(a.root(), b.root());
        assert_eq!(a.root(), CheckpointStore::member_root(&root, 0));
        commit_one(&a, 4);
        // Member 1's store is untouched by member 0's commits.
        assert!(b.latest().unwrap().is_none());
        assert_eq!(a.latest().unwrap().unwrap().0, 4);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopened_root_enumerates_prior_jobs_and_members() {
        let root = scratch("reopen");
        let a = CheckpointStore::open(&CheckpointStore::member_root(&root, 3)).unwrap();
        commit_one(&a, 2);
        let b = CheckpointStore::open(&CheckpointStore::job_root(&root, "deadbeef01")).unwrap();
        commit_one(&b, 6);
        // Unrelated files and directories are not store roots.
        std::fs::write(root.join("cache.json"), b"{}").unwrap();
        std::fs::create_dir_all(root.join("scratch")).unwrap();
        // A new handle over the same directory (a restarted process)
        // sees both roots, in sorted order, with their snapshots.
        let roots = CheckpointStore::roots(&root).unwrap();
        let names: Vec<&str> = roots.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["job-deadbeef01", "member-0003"]);
        let reopened = CheckpointStore::open(&roots[0].1).unwrap();
        assert_eq!(reopened.latest().unwrap().unwrap().0, 6);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn roots_of_a_missing_directory_are_empty() {
        let root = scratch("missing-roots");
        assert!(CheckpointStore::roots(&root).unwrap().is_empty());
    }

    #[test]
    fn sweep_roots_applies_the_retention_policy() {
        let root = scratch("sweep");
        for job in ["aa", "bb", "cc"] {
            let s = CheckpointStore::open(&CheckpointStore::job_root(&root, job)).unwrap();
            commit_one(&s, 1);
        }
        let removed = CheckpointStore::sweep_roots(&root, |name| name == "job-bb").unwrap();
        assert_eq!(removed, vec!["job-aa", "job-cc"]);
        let names: Vec<String> = CheckpointStore::roots(&root)
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["job-bb"]);
        // The kept root's snapshots are untouched.
        let kept = CheckpointStore::open(&CheckpointStore::job_root(&root, "bb")).unwrap();
        assert_eq!(kept.latest().unwrap().unwrap().0, 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn job_root_sanitizes_hostile_ids() {
        let root = PathBuf::from("/srv/foam");
        assert_eq!(
            CheckpointStore::job_root(&root, "../../etc/passwd"),
            root.join("job-....etcpasswd")
        );
        assert_eq!(
            CheckpointStore::job_root(&root, "0123abcd"),
            root.join("job-0123abcd")
        );
    }

    #[test]
    fn abort_discards_staging() {
        let root = scratch("abort");
        let store = CheckpointStore::open(&root).unwrap();
        let pending = store.begin(7).unwrap();
        touch(&CheckpointStore::shard_path(pending.staging_dir(), 0));
        pending.abort();
        assert!(store.latest().unwrap().is_none());
        assert_eq!(store.root().read_dir().unwrap().count(), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn recommit_replaces_existing_interval() {
        let root = scratch("recommit");
        let store = CheckpointStore::open(&root).unwrap();
        commit_one(&store, 3);
        let pending = store.begin(3).unwrap();
        touch(&CheckpointStore::manifest_path(pending.staging_dir()));
        std::fs::write(
            CheckpointStore::shard_path(pending.staging_dir(), 1),
            b"second",
        )
        .unwrap();
        pending.commit().unwrap();
        let (_, dir) = store.latest().unwrap().unwrap();
        assert!(CheckpointStore::shard_path(&dir, 1).exists());
        assert!(
            !CheckpointStore::shard_path(&dir, 0).exists(),
            "old contents replaced"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }
}
