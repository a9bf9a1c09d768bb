//! The content-addressed result cache.
//!
//! One file per digest under `<root>/cache/`, holding the report's
//! exact serialized bytes. Byte-exactness is the point: FOAM's reports
//! are deterministic down to the IEEE-754 bit (the ensemble and
//! supervisor test suites prove it), so the cache can hand every
//! future requester *the same bytes* the first run produced, and an
//! integration test can assert `cached == fresh` with `==`, not an
//! epsilon.
//!
//! Writes go through the same tmp-then-rename discipline as
//! `foam-ckpt` snapshot commits: a reader never observes a torn file,
//! and a crash mid-write leaves only a `*.tmp` that the next store
//! overwrites harmlessly.
//!
//! # Eviction
//!
//! An optional byte budget bounds the cache. Every access (`get` or
//! `put`) stamps the digest with a monotonic sequence number persisted
//! in a `<digest>.at` sidecar; when a `put` pushes the total report
//! bytes over the budget, the least-recently-stamped entries are
//! evicted until the cache fits again. The sequence survives restarts
//! (it resumes from the largest stamp on disk), so recency is a
//! property of the cache directory, not of one server incarnation.
//!
//! Accesses and evictions run concurrently on the server's worker and
//! connection threads. A stamp is rewritten in place, so an eviction
//! scan can catch it empty; that entry is being touched *right now* and
//! ranks newest. Only an entry with no sidecar at all — a file this
//! cache did not write — ranks oldest. A `put` stamps before it
//! publishes the report, so its entry is never seen unstamped.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct ResultCache {
    dir: PathBuf,
    /// Byte budget over the stored report bytes; `None` = unbounded.
    budget: Option<u64>,
    /// Monotonic access clock; the next stamp to hand out.
    clock: AtomicU64,
}

impl ResultCache {
    /// Open (creating if needed) the cache directory under `root`, with
    /// an optional LRU byte budget over the stored report bytes (sidecar
    /// stamps are not counted; they are tens of bytes per entry).
    pub fn open_with_budget(root: &Path, budget: Option<u64>) -> io::Result<ResultCache> {
        let dir = root.join("cache");
        fs::create_dir_all(&dir)?;
        // Resume the access clock past every stamp already on disk.
        // Nothing is touching the cache yet, so a stamp that does not
        // parse is debris of a crash mid-touch: drop it, and the entry
        // ranks oldest until its next access.
        let mut max_stamp = 0u64;
        for e in fs::read_dir(&dir)?.flatten() {
            if let Some(name) = e.file_name().to_str() {
                if let Some(digest) = name.strip_suffix(".at") {
                    match read_stamp(&dir, digest) {
                        MID_TOUCH => {
                            let _ = fs::remove_file(e.path());
                        }
                        stamp => max_stamp = max_stamp.max(stamp),
                    }
                }
            }
        }
        Ok(ResultCache {
            dir,
            budget,
            clock: AtomicU64::new(max_stamp + 1),
        })
    }

    fn path(&self, digest: &str) -> PathBuf {
        // Digests are 16 hex chars; anything else could not have come
        // from us and must not touch the filesystem.
        debug_assert!(digest.chars().all(|c| c.is_ascii_hexdigit()));
        self.dir.join(format!("{digest}.json"))
    }

    fn stamp_path(&self, digest: &str) -> PathBuf {
        self.dir.join(format!("{digest}.at"))
    }

    /// Record an access: bump the clock and persist the stamp.
    fn touch(&self, digest: &str) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let _ = fs::write(self.stamp_path(digest), stamp.to_string());
    }

    /// The cached report bytes, if this digest has completed before.
    /// Refreshes the entry's recency.
    pub fn get(&self, digest: &str) -> Option<Vec<u8>> {
        let bytes = fs::read(self.path(digest)).ok()?;
        self.touch(digest);
        Some(bytes)
    }

    pub fn contains(&self, digest: &str) -> bool {
        self.path(digest).is_file()
    }

    /// Atomically store the report for `digest`, then evict the
    /// least-recently-used entries if the byte budget is exceeded. The
    /// entry just stored is the most recent, so a single oversized
    /// report can only evict *others*, never break the cache.
    pub fn put(&self, digest: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!("{digest}.tmp"));
        fs::write(&tmp, bytes)?;
        // Stamp first: a concurrent eviction must never see the report
        // without its stamp and take it for a foreign file.
        self.touch(digest);
        fs::rename(&tmp, self.path(digest))?;
        self.evict_to_budget();
        Ok(())
    }

    /// All cached digests, sorted (restart uses this to list completed
    /// jobs without any in-memory state surviving).
    pub fn digests(&self) -> Vec<String> {
        let mut out: Vec<String> = fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                name.strip_suffix(".json").map(str::to_string)
            })
            .collect();
        out.sort();
        out
    }

    /// Total stored report bytes (the quantity the budget bounds).
    pub fn total_bytes(&self) -> u64 {
        self.entries().iter().map(|e| e.bytes).sum()
    }

    fn entries(&self) -> Vec<EntryMeta> {
        self.digests()
            .into_iter()
            .map(|digest| {
                let bytes = fs::metadata(self.path(&digest))
                    .map(|m| m.len())
                    .unwrap_or(0);
                let stamp = read_stamp(&self.dir, &digest);
                EntryMeta {
                    digest,
                    bytes,
                    stamp,
                }
            })
            .collect()
    }

    fn evict_to_budget(&self) {
        let Some(budget) = self.budget else { return };
        let mut entries = self.entries();
        let mut total: u64 = entries.iter().map(|e| e.bytes).sum();
        if total <= budget {
            return;
        }
        // Oldest stamp first; unstamped entries (foreign files) first
        // of all. Ties break on digest so eviction is deterministic.
        entries.sort_by(|a, b| a.stamp.cmp(&b.stamp).then(a.digest.cmp(&b.digest)));
        // Never evict the newest entry (the one just stored): a report
        // larger than the whole budget must still be servable.
        for e in &entries[..entries.len() - 1] {
            if total <= budget {
                break;
            }
            let _ = fs::remove_file(self.path(&e.digest));
            let _ = fs::remove_file(self.stamp_path(&e.digest));
            total = total.saturating_sub(e.bytes);
        }
    }
}

struct EntryMeta {
    digest: String,
    bytes: u64,
    stamp: u64,
}

/// The stamp read for a sidecar that exists but does not parse:
/// `touch` on another thread has truncated it and not yet written the
/// new stamp. Newer than any real stamp.
const MID_TOUCH: u64 = u64::MAX;

/// The access stamp of `digest`: 0 (oldest) when it has no sidecar,
/// [`MID_TOUCH`] (newest) when the sidecar is being rewritten.
fn read_stamp(dir: &Path, digest: &str) -> u64 {
    match fs::read_to_string(dir.join(format!("{digest}.at"))) {
        Ok(s) => s.trim().parse().unwrap_or(MID_TOUCH),
        Err(_) => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("foam-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_round_trips_exact_bytes() {
        let dir = tmp_dir("rt");
        let cache = ResultCache::open_with_budget(&dir, None).unwrap();
        assert!(cache.get("00ff00ff00ff00ff").is_none());
        let payload = b"{\"x\": 0.30000000000000004}\n".to_vec();
        cache.put("00ff00ff00ff00ff", &payload).unwrap();
        assert_eq!(cache.get("00ff00ff00ff00ff").unwrap(), payload);
        assert!(cache.contains("00ff00ff00ff00ff"));
        assert_eq!(cache.digests(), vec!["00ff00ff00ff00ff".to_string()]);
        // Reopening sees the same content (it is all on disk).
        let reopened = ResultCache::open_with_budget(&dir, None).unwrap();
        assert_eq!(reopened.get("00ff00ff00ff00ff").unwrap(), payload);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let dir = tmp_dir("lru");
        // Budget for ~2.5 100-byte entries.
        let cache = ResultCache::open_with_budget(&dir, Some(250)).unwrap();
        let blob = vec![b'x'; 100];
        cache.put("aaaaaaaaaaaaaaaa", &blob).unwrap();
        cache.put("bbbbbbbbbbbbbbbb", &blob).unwrap();
        // Refresh `a`: it is now more recent than `b`.
        assert!(cache.get("aaaaaaaaaaaaaaaa").is_some());
        // Third entry busts the budget: the LRU entry (`b`) goes.
        cache.put("cccccccccccccccc", &blob).unwrap();
        assert!(cache.contains("aaaaaaaaaaaaaaaa"), "recently read survives");
        assert!(!cache.contains("bbbbbbbbbbbbbbbb"), "LRU entry evicted");
        assert!(cache.contains("cccccccccccccccc"), "fresh entry survives");
        assert!(cache.total_bytes() <= 250);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recency_survives_restart_and_oversize_put_keeps_itself() {
        let dir = tmp_dir("restart");
        {
            let cache = ResultCache::open_with_budget(&dir, Some(250)).unwrap();
            cache.put("aaaaaaaaaaaaaaaa", &[b'x'; 100]).unwrap();
            cache.put("bbbbbbbbbbbbbbbb", &[b'x'; 100]).unwrap();
            assert!(cache.get("aaaaaaaaaaaaaaaa").is_some());
        }
        // A new incarnation resumes the clock: `b` is still the LRU.
        let cache = ResultCache::open_with_budget(&dir, Some(250)).unwrap();
        cache.put("cccccccccccccccc", &[b'x'; 100]).unwrap();
        assert!(cache.contains("aaaaaaaaaaaaaaaa"));
        assert!(!cache.contains("bbbbbbbbbbbbbbbb"));
        // A single report larger than the whole budget evicts everything
        // else but remains cached itself.
        cache.put("dddddddddddddddd", &[b'x'; 400]).unwrap();
        assert!(cache.contains("dddddddddddddddd"));
        assert_eq!(cache.digests(), vec!["dddddddddddddddd".to_string()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_caught_mid_touch_ranks_newest_not_oldest() {
        let dir = tmp_dir("midtouch");
        let cache = ResultCache::open_with_budget(&dir, Some(250)).unwrap();
        let blob = vec![b'x'; 100];
        cache.put("aaaaaaaaaaaaaaaa", &blob).unwrap();
        cache.put("bbbbbbbbbbbbbbbb", &blob).unwrap();
        // What an eviction scan sees while another thread's `touch` of
        // `a` is between truncating the stamp and writing it.
        fs::write(cache.stamp_path("aaaaaaaaaaaaaaaa"), "").unwrap();
        cache.put("cccccccccccccccc", &blob).unwrap();
        assert!(cache.contains("aaaaaaaaaaaaaaaa"), "entry in use evicted");
        assert!(!cache.contains("bbbbbbbbbbbbbbbb"), "LRU entry evicted");
        // A report with no sidecar at all is foreign and goes first.
        fs::remove_file(cache.stamp_path("aaaaaaaaaaaaaaaa")).unwrap();
        cache.put("dddddddddddddddd", &blob).unwrap();
        assert!(!cache.contains("aaaaaaaaaaaaaaaa"));
        assert!(cache.contains("cccccccccccccccc"));
        // After a restart an unparseable stamp is crash debris, not an
        // access in flight: the clock resumes from the real stamps and
        // the entry ranks oldest again.
        fs::write(cache.stamp_path("cccccccccccccccc"), "").unwrap();
        let reopened = ResultCache::open_with_budget(&dir, Some(250)).unwrap();
        assert!(reopened.clock.load(Ordering::Relaxed) < 100);
        reopened.put("eeeeeeeeeeeeeeee", &blob).unwrap();
        assert!(!reopened.contains("cccccccccccccccc"));
        assert!(reopened.contains("dddddddddddddddd"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hot_entry_survives_gets_racing_evicting_puts() {
        // Budget for about eight reports; one thread keeps reading a hot
        // digest while another stores fresh ones, every one of which
        // evicts. Each put waits for a get since the previous put, so
        // the hot entry is the most recently used at every eviction —
        // while gets (and their stamp rewrites) keep landing inside the
        // eviction scans.
        use std::sync::atomic::AtomicBool;
        let dir = tmp_dir("race");
        let cache = ResultCache::open_with_budget(&dir, Some(8 * 1400 + 700)).unwrap();
        let blob = vec![b'x'; 1400];
        let hot = "00000000000000ff";
        cache.put(hot, &blob).unwrap();
        let gets = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..600u64 {
                    let seen = gets.load(Ordering::SeqCst);
                    while gets.load(Ordering::SeqCst) == seen {
                        std::thread::yield_now();
                    }
                    cache.put(&format!("{:016x}", 0x1000 + i), &blob).unwrap();
                }
                done.store(true, Ordering::SeqCst);
            });
            // Keep counting after a miss so the putter is never left
            // waiting; the verdict comes once both threads are done.
            let mut misses = 0;
            while !done.load(Ordering::SeqCst) {
                misses += u64::from(cache.get(hot).is_none());
                gets.fetch_add(1, Ordering::SeqCst);
            }
            assert_eq!(misses, 0, "hot digest was evicted while in use");
        });
        assert!(cache.contains(hot));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let dir = tmp_dir("unbounded");
        let cache = ResultCache::open_with_budget(&dir, None).unwrap();
        for i in 0..8 {
            cache.put(&format!("{i:016x}"), &[b'x'; 1000]).unwrap();
        }
        assert_eq!(cache.digests().len(), 8);
        let _ = fs::remove_dir_all(&dir);
    }
}
