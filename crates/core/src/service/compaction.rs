//! Store GC: validate and bound the on-disk cache.
//!
//! A long-lived daemon cannot let its store grow without limit or keep
//! serving records a format bump has orphaned. A compaction pass walks
//! every `*.run` file and enforces two invariants:
//!
//! 1. **Validity** — files that fail validation (corrupt bytes, version
//!    skew, undecodable payload, a filename that is not a fingerprint) or
//!    sit in the store root instead of their two-hex-digit shard are
//!    deleted. They would never be served anyway: the load path rejects
//!    or never looks at them and re-runs the cell, so dropping them only
//!    reclaims bytes, never information (records are re-derivable).
//! 2. **Size** — when a byte budget is set and the store exceeds it,
//!    valid records are evicted in reverse-lexicographic fingerprint
//!    order until the store fits. Fingerprints are uniformly distributed
//!    hashes, so this order is arbitrary-but-deterministic: every
//!    compaction pass on every replica picks the same victims.
//!
//! Stale `*.tmp` writer droppings (a crashed process mid-`store`) are
//! swept as well. Compaction holds the store lock in the daemon, so a
//! pass never races a write through the same store handle.

use std::fs;
use std::path::{Path, PathBuf};

use crate::store::{Fingerprint, StoreError, SweepStore};

/// What a compaction pass is allowed to do.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactionPolicy {
    /// Evict valid records (reverse-lexicographic fingerprint order)
    /// until total record bytes fit under this budget. `None` keeps
    /// every valid record.
    pub max_store_bytes: Option<u64>,
}

/// What a compaction pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Records examined.
    pub(crate) scanned: u64,
    /// Valid records still present after the pass.
    pub(crate) kept: u64,
    /// Invalid records deleted (corrupt, version skew, bad name, or
    /// misplaced in the store root).
    pub(crate) dropped: u64,
    /// Valid records deleted by the size bound.
    pub(crate) evicted: u64,
    /// Stale `*.tmp` files swept.
    pub(crate) stale_tmp: u64,
    /// Bytes reclaimed (dropped + evicted + swept tmp files).
    pub(crate) reclaimed_bytes: u64,
    /// Record bytes remaining on disk.
    pub(crate) live_bytes: u64,
}

fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// One valid record found by the scan.
struct LiveRecord {
    fingerprint: Fingerprint,
    path: PathBuf,
    bytes: u64,
}

/// Run one compaction pass over `store` (see module docs for the
/// invariants). The caller serializes passes against writes by holding
/// whatever lock guards the store.
pub fn compact(
    store: &mut SweepStore,
    policy: CompactionPolicy,
) -> Result<CompactionReport, StoreError> {
    let mut report = CompactionReport::default();
    let mut live: Vec<LiveRecord> = Vec::new();

    for path in store.record_files()? {
        report.scanned += 1;
        let fingerprint = path
            .file_stem()
            .and_then(|stem| stem.to_str())
            .and_then(Fingerprint::from_hex)
            .filter(|_| path.parent() != Some(store.dir()));
        let Some(fingerprint) = fingerprint else {
            report.dropped += 1;
            report.reclaimed_bytes += remove_counting(&path)?;
            continue;
        };
        let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
        if SweepStore::validate_and_decode(&path, &bytes, fingerprint).is_err() {
            report.dropped += 1;
            report.reclaimed_bytes += remove_counting(&path)?;
            continue;
        }
        live.push(LiveRecord {
            fingerprint,
            path,
            bytes: bytes.len() as u64,
        });
    }

    report.stale_tmp = sweep_stale_tmp(store.dir(), &mut report.reclaimed_bytes)?;

    // Size bound: evict largest-fingerprint-first until under budget.
    let mut total: u64 = live.iter().map(|r| r.bytes).sum();
    if let Some(budget) = policy.max_store_bytes {
        live.sort_by_key(|r| r.fingerprint);
        while total > budget {
            let Some(victim) = live.pop() else { break };
            fs::remove_file(&victim.path).map_err(|e| io_err(&victim.path, e))?;
            total -= victim.bytes;
            report.evicted += 1;
            report.reclaimed_bytes += victim.bytes;
        }
    }

    report.kept = live.len() as u64;
    report.live_bytes = total;
    Ok(report)
}

/// Delete `path`, returning how many bytes that reclaimed.
fn remove_counting(path: &Path) -> Result<u64, StoreError> {
    let len = fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    fs::remove_file(path).map_err(|e| io_err(path, e))?;
    Ok(len)
}

/// Sweep `*.tmp` droppings from the store root and its shard dirs.
fn sweep_stale_tmp(dir: &Path, reclaimed: &mut u64) -> Result<u64, StoreError> {
    let mut swept = 0u64;
    let mut dirs = vec![dir.to_path_buf()];
    let entries = fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        if entry.path().is_dir() {
            dirs.push(entry.path());
        }
    }
    for dir in dirs {
        let entries = fs::read_dir(&dir).map_err(|e| io_err(&dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&dir, e))?;
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                *reclaimed += remove_counting(&path)?;
                swept += 1;
            }
        }
    }
    Ok(swept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::store::fingerprint_experiment;
    use crate::strategy::DvsStrategy;
    use crate::workload::Workload;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pwrperf-compact-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn seeded_store(dir: &Path, mhz: &[u32]) -> SweepStore {
        let mut store = SweepStore::open(dir).unwrap();
        for &m in mhz {
            let exp = Experiment::new(Workload::ft_test(2), DvsStrategy::StaticMhz(m));
            let result = exp.run();
            store.store(fingerprint_experiment(&exp), &result).unwrap();
        }
        store
    }

    #[test]
    fn drops_corrupt_and_root_level_records_and_sweeps_tmp() {
        let dir = tmp_dir("gc");
        let mut store = seeded_store(&dir, &[600, 800]);
        // Move one record to the store root, where no lookup finds it.
        let exp = Experiment::new(Workload::ft_test(2), DvsStrategy::StaticMhz(600));
        let fp = fingerprint_experiment(&exp);
        let root_level = dir.join(format!("{}.run", fp.to_hex()));
        fs::rename(store.record_path(fp), &root_level).unwrap();
        assert!(!store.contains(fp));
        assert_eq!(store.load(fp).unwrap(), None, "a clean miss");
        // Plant a corrupt record under a plausible name and a stale tmp.
        let bogus = Fingerprint::from_hex("00112233445566778899aabbccddeeff").unwrap();
        let shard = dir.join("00");
        fs::create_dir_all(&shard).unwrap();
        fs::write(
            shard.join("00112233445566778899aabbccddeeff.run"),
            b"not a record",
        )
        .unwrap();
        fs::write(shard.join("junk.12345.0.tmp"), b"crashed writer").unwrap();

        let report = compact(&mut store, CompactionPolicy::default()).unwrap();
        assert_eq!(report.scanned, 3);
        assert_eq!(report.kept, 1);
        assert_eq!(report.dropped, 2);
        assert_eq!(report.stale_tmp, 1);
        assert_eq!(report.evicted, 0);
        assert!(report.reclaimed_bytes > 0);
        assert!(!store.contains(bogus));
        assert!(!root_level.exists());
        assert_eq!(store.record_files().unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn size_bound_evicts_deterministically() {
        let dir = tmp_dir("bound");
        let mut store = seeded_store(&dir, &[600, 800, 1000, 1200]);
        let full = compact(&mut store, CompactionPolicy::default()).unwrap();
        assert_eq!(full.kept, 4);
        let budget = full.live_bytes / 2;
        let bounded = compact(
            &mut store,
            CompactionPolicy {
                max_store_bytes: Some(budget),
            },
        )
        .unwrap();
        assert!(bounded.evicted >= 1);
        assert!(bounded.live_bytes <= budget);
        assert_eq!(bounded.kept + bounded.evicted, 4);
        // Survivors are exactly the lexicographically-smallest keys: the
        // victim order is a pure function of the key set, so every
        // replica compacts to the same store.
        let mut all_keys: Vec<String> = [600u32, 800, 1000, 1200]
            .iter()
            .map(|&m| {
                let exp = Experiment::new(Workload::ft_test(2), DvsStrategy::StaticMhz(m));
                fingerprint_experiment(&exp).to_hex()
            })
            .collect();
        all_keys.sort();
        all_keys.truncate(bounded.kept as usize);
        let mut names: Vec<String> = store
            .record_files()
            .unwrap()
            .iter()
            .map(|p| p.file_stem().unwrap().to_str().unwrap().to_string())
            .collect();
        names.sort();
        assert_eq!(names, all_keys);
        let _ = fs::remove_dir_all(&dir);
    }
}
