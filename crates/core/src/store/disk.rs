//! The persistent record store: one checksummed file per fingerprint.
//!
//! Records are sharded by the first fingerprint byte —
//! `<store-dir>/<hh>/<fingerprint-hex>.run`, where `hh` is the first two
//! hex digits — so a store holding tens of thousands of records never
//! puts more than ~1/256th of them in one directory. This is the only
//! layout: a `*.run` file in the root is not a record (a lookup there is
//! a clean miss), and compaction (the service layer) drops it.
//!
//! Layout of a record file:
//!
//! ```text
//! magic      b"PWRS"                      4 bytes
//! version    STORE_FORMAT_VERSION         u32 LE
//! key        fingerprint digest           16 bytes
//! length     payload byte count           u64 LE
//! payload    encode_run_result(...)       `length` bytes
//! checksum   checksum64(payload)          u64 LE
//! ```
//!
//! Writes go to a temporary sibling — named with the writer's pid and a
//! per-process sequence number, so concurrent writers of the *same* key
//! never interleave on one tmp file — then `sync_all` and `rename` into
//! place. A killed sweep leaves either a complete record or no record,
//! never a torn one the next run would have to distrust. Reads validate
//! every header field and the checksum before decoding; any mismatch is a
//! typed [`StoreError`], which the sweep layer treats as a cache miss.

use std::fs;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use mpi_sim::RunResult;

use super::codec::{ByteReader, ByteWriter, DecodeError, Sink};
use super::fingerprint::{checksum64, Fingerprint, STORE_FORMAT_VERSION};
use super::run_codec::{decode_run_result, encode_run_result};

const RECORD_MAGIC: &[u8; 4] = b"PWRS";
const HEADER_LEN: usize = 4 + 4 + 16 + 8;

/// Per-process sequence for unique tmp-file names: two threads writing
/// the same fingerprint concurrently must never share a tmp sibling, or
/// one renames the other's half-written bytes into place.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// The filesystem said no (permissions, disk full, ...).
    Io {
        /// Path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The record bytes failed structural validation (bad magic, wrong
    /// key, truncation, checksum mismatch).
    Corrupt {
        /// Path of the offending record.
        path: PathBuf,
        /// What failed.
        reason: &'static str,
    },
    /// The record was written by a different format version.
    Version {
        /// Path of the offending record.
        path: PathBuf,
        /// Version found in the header.
        found: u32,
    },
    /// The payload validated but its contents would not decode.
    Decode {
        /// Path of the offending record.
        path: PathBuf,
        /// The underlying decode error.
        source: DecodeError,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "store I/O error at {}: {source}", path.display())
            }
            StoreError::Corrupt { path, reason } => {
                write!(f, "corrupt store record {}: {reason}", path.display())
            }
            StoreError::Version { path, found } => write!(
                f,
                "store record {} has format version {found}, expected {STORE_FORMAT_VERSION}",
                path.display()
            ),
            StoreError::Decode { path, source } => {
                write!(f, "undecodable store record {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Decode { source, .. } => Some(source),
            StoreError::Corrupt { .. } | StoreError::Version { .. } => None,
        }
    }
}

/// Cumulative I/O accounting for one store handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records found and decoded.
    pub(crate) hits: u64,
    /// Lookups that found no record.
    pub misses: u64,
    /// Lookups that found a record but rejected it (corruption, version
    /// skew, undecodable payload).
    pub corrupt: u64,
    /// Record bytes read (including rejected records).
    pub(crate) bytes_read: u64,
    /// Record bytes written.
    pub(crate) bytes_written: u64,
}

impl std::fmt::Display for StoreStats {
    /// The one-line summary `pwrperf sweep --store` and
    /// `all_figures --store` print.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits, {} misses, {} corrupt, {} B read, {} B written",
            self.hits, self.misses, self.corrupt, self.bytes_read, self.bytes_written
        )
    }
}

/// A content-addressed cache of [`RunResult`]s in one directory.
#[derive(Debug)]
pub struct SweepStore {
    dir: PathBuf,
    stats: StoreStats,
}

impl SweepStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|source| StoreError::Io {
            path: dir.clone(),
            source,
        })?;
        Ok(SweepStore {
            dir,
            stats: StoreStats::default(),
        })
    }

    /// The store's directory.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where `fingerprint`'s record lives (whether or not it exists):
    /// the sharded location, `<dir>/<hh>/<hex>.run`.
    pub fn record_path(&self, fingerprint: Fingerprint) -> PathBuf {
        let hex = fingerprint.to_hex();
        self.dir.join(&hex[..2]).join(format!("{hex}.run"))
    }

    /// Cheap existence probe (no validation) — what `--dry-run` reports.
    pub(crate) fn contains(&self, fingerprint: Fingerprint) -> bool {
        self.record_path(fingerprint).exists()
    }

    /// Every `*.run` file on disk (any validity): sharded records plus
    /// misplaced ones in the root, sorted by path for deterministic
    /// iteration.
    pub(crate) fn record_files(&self) -> Result<Vec<PathBuf>, StoreError> {
        let read_dir = |dir: &Path| -> Result<Vec<PathBuf>, StoreError> {
            let entries = fs::read_dir(dir).map_err(|source| StoreError::Io {
                path: dir.to_path_buf(),
                source,
            })?;
            let mut out = Vec::new();
            for entry in entries {
                let entry = entry.map_err(|source| StoreError::Io {
                    path: dir.to_path_buf(),
                    source,
                })?;
                out.push(entry.path());
            }
            Ok(out)
        };
        let mut files = Vec::new();
        for path in read_dir(&self.dir)? {
            if path.is_dir() {
                for sub in read_dir(&path)? {
                    if sub.extension().is_some_and(|e| e == "run") {
                        files.push(sub);
                    }
                }
            } else if path.extension().is_some_and(|e| e == "run") {
                files.push(path);
            }
        }
        files.sort();
        Ok(files)
    }

    /// Load the record for `fingerprint`. `Ok(None)` is a clean miss; a
    /// record that exists but fails validation is a typed error (and the
    /// caller decides to re-run — the record is left in place for
    /// inspection and will be overwritten by the fresh result).
    pub fn load(&mut self, fingerprint: Fingerprint) -> Result<Option<RunResult>, StoreError> {
        let path = self.record_path(fingerprint);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == ErrorKind::NotFound => {
                self.stats.misses += 1;
                return Ok(None);
            }
            Err(source) => {
                self.stats.corrupt += 1;
                return Err(StoreError::Io { path, source });
            }
        };
        self.stats.bytes_read += bytes.len() as u64;
        match Self::validate_and_decode(&path, &bytes, fingerprint) {
            Ok(result) => {
                self.stats.hits += 1;
                Ok(Some(result))
            }
            Err(e) => {
                self.stats.corrupt += 1;
                Err(e)
            }
        }
    }

    /// Validate a record's framing (magic, version, key, length,
    /// checksum) and decode its payload. Compaction uses this to decide
    /// whether a record is worth keeping.
    pub(crate) fn validate_and_decode(
        path: &Path,
        bytes: &[u8],
        fingerprint: Fingerprint,
    ) -> Result<RunResult, StoreError> {
        let corrupt = |reason: &'static str| StoreError::Corrupt {
            path: path.to_path_buf(),
            reason,
        };
        if bytes.len() < HEADER_LEN + 8 {
            return Err(corrupt("record shorter than header"));
        }
        let mut r = ByteReader::new(bytes);
        let read_header =
            |r: &mut ByteReader<'_>| -> Result<(Vec<u8>, u32, [u8; 16], u64), DecodeError> {
                let magic = r.get_raw(4)?.to_vec();
                let version = r.get_u32()?;
                let mut key = [0u8; 16];
                key.copy_from_slice(r.get_raw(16)?);
                let payload_len = r.get_u64()?;
                Ok((magic, version, key, payload_len))
            };
        let (magic, version, key, payload_len) =
            read_header(&mut r).map_err(|_| corrupt("record shorter than header"))?;
        if magic != RECORD_MAGIC {
            return Err(corrupt("bad magic"));
        }
        if version != STORE_FORMAT_VERSION {
            return Err(StoreError::Version {
                path: path.to_path_buf(),
                found: version,
            });
        }
        if Fingerprint::from_bytes(key) != fingerprint {
            return Err(corrupt("record key does not match its filename"));
        }
        let expected_payload = bytes.len() - HEADER_LEN - 8;
        if payload_len != expected_payload as u64 {
            return Err(corrupt("payload length mismatch (truncated or padded)"));
        }
        let payload = r
            .get_raw(expected_payload)
            .map_err(|_| corrupt("payload truncated"))?;
        let stored_checksum = r.get_u64().map_err(|_| corrupt("checksum truncated"))?;
        if stored_checksum != checksum64(payload) {
            return Err(corrupt("checksum mismatch"));
        }
        decode_run_result(payload).map_err(|source| StoreError::Decode {
            path: path.to_path_buf(),
            source,
        })
    }

    /// Persist `result` under `fingerprint`, atomically: write to a
    /// uniquely named temporary sibling (pid + per-process sequence, so
    /// concurrent writers of the same key never share a tmp file),
    /// `sync_all`, then rename into place. Readers racing the rename see
    /// either the old complete record or the new one — never torn bytes.
    pub fn store(
        &mut self,
        fingerprint: Fingerprint,
        result: &RunResult,
    ) -> Result<(), StoreError> {
        let payload = encode_run_result(result);
        let mut w = ByteWriter::new();
        w.put_raw(RECORD_MAGIC);
        w.put_u32(STORE_FORMAT_VERSION);
        w.put_raw(&fingerprint.to_bytes());
        w.put_usize(payload.len());
        w.put_raw(&payload);
        w.put_u64(checksum64(&payload));
        let record = w.into_bytes();

        let hex = fingerprint.to_hex();
        let shard = self.dir.join(&hex[..2]);
        fs::create_dir_all(&shard).map_err(|source| StoreError::Io {
            path: shard.clone(),
            source,
        })?;
        let path = self.record_path(fingerprint);
        let tmp = shard.join(format!(
            "{hex}.{}.{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let io_err = |path: &Path| {
            let path = path.to_path_buf();
            move |source| StoreError::Io { path, source }
        };
        let mut file = fs::File::create(&tmp).map_err(io_err(&tmp))?;
        file.write_all(&record).map_err(io_err(&tmp))?;
        file.sync_all().map_err(io_err(&tmp))?;
        drop(file);
        fs::rename(&tmp, &path).map_err(io_err(&path))?;
        self.stats.bytes_written += record.len() as u64;
        Ok(())
    }

    /// Cumulative stats for this handle.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::store::fingerprint::fingerprint_experiment;
    use crate::strategy::DvsStrategy;
    use crate::workload::Workload;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pwrperf-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_and_load_round_trip() {
        let dir = tmp_dir("roundtrip");
        let mut store = SweepStore::open(&dir).unwrap();
        let exp = Experiment::new(Workload::ft_test(2), DvsStrategy::StaticMhz(800));
        let fp = fingerprint_experiment(&exp);
        assert!(store.load(fp).unwrap().is_none());
        let result = exp.run();
        store.store(fp, &result).unwrap();
        assert!(store.contains(fp));
        assert_eq!(store.record_files().unwrap().len(), 1);
        assert_eq!(store.load(fp).unwrap(), Some(result));
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.corrupt), (1, 1, 0));
        assert!(stats.bytes_written > 0 && stats.bytes_read > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_record_is_a_typed_error() {
        let dir = tmp_dir("corrupt");
        let mut store = SweepStore::open(&dir).unwrap();
        let exp = Experiment::new(Workload::ft_test(2), DvsStrategy::StaticMhz(600));
        let fp = fingerprint_experiment(&exp);
        store.store(fp, &exp.run()).unwrap();

        // Flip one payload byte: the checksum must catch it.
        let path = store.record_path(fp);
        let mut bytes = fs::read(&path).unwrap();
        let mid = HEADER_LEN + 10;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load(fp),
            Err(StoreError::Corrupt {
                reason: "checksum mismatch",
                ..
            })
        ));

        // Truncate: length validation catches it.
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(store.load(fp), Err(StoreError::Corrupt { .. })));
        assert_eq!(store.stats().corrupt, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_land_in_two_hex_shard_dirs() {
        let dir = tmp_dir("sharded");
        let mut store = SweepStore::open(&dir).unwrap();
        let exp = Experiment::new(Workload::ft_test(2), DvsStrategy::StaticMhz(1000));
        let fp = fingerprint_experiment(&exp);
        store.store(fp, &exp.run()).unwrap();
        let path = store.record_path(fp);
        assert!(path.exists());
        let shard = path
            .parent()
            .unwrap()
            .file_name()
            .unwrap()
            .to_str()
            .unwrap();
        assert_eq!(shard, &fp.to_hex()[..2]);
        assert_eq!(store.record_files().unwrap().len(), 1);
        // No stray tmp files survive a successful store.
        assert!(fs::read_dir(path.parent().unwrap()).unwrap().all(|e| e
            .unwrap()
            .path()
            .extension()
            .is_some_and(|x| x == "run")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_skew_is_detected() {
        let dir = tmp_dir("version");
        let mut store = SweepStore::open(&dir).unwrap();
        let exp = Experiment::new(Workload::ft_test(2), DvsStrategy::Cpuspeed);
        let fp = fingerprint_experiment(&exp);
        store.store(fp, &exp.run()).unwrap();
        let path = store.record_path(fp);
        let mut bytes = fs::read(&path).unwrap();
        bytes[4] = 0xEE; // version field, little-endian low byte
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load(fp),
            Err(StoreError::Version { found, .. }) if found != STORE_FORMAT_VERSION
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
