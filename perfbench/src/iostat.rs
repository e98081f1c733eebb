//! Benchmark-side view of the storage layer: a [`Storage`] that forwards
//! every call to [`RealStorage`] and records its duration and byte count.
//! Each session gets its own instance and its own log, so the wrapper adds
//! no lock that two sessions share.

use deepcat::{RealStorage, Storage, StorageError};
use parking_lot::Mutex;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    Append,
    Fsync,
    WriteAll,
    Rename,
    SyncDir,
    Other,
}

#[derive(Clone, Copy, Debug)]
pub struct CallRecord {
    pub call: Call,
    /// When the call returned.
    pub end: Instant,
    pub dur_s: f64,
    pub bytes: u64,
}

/// One session's storage calls, in order.
pub type IoLog = Arc<Mutex<Vec<CallRecord>>>;

#[derive(Debug)]
pub struct TimedStorage {
    inner: RealStorage,
    log: IoLog,
}

impl TimedStorage {
    pub fn new(log: IoLog) -> Self {
        Self {
            inner: RealStorage::new(),
            log,
        }
    }

    fn timed<T>(&mut self, call: Call, bytes: u64, f: impl FnOnce(&mut RealStorage) -> T) -> T {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        let end = Instant::now();
        self.log.lock().push(CallRecord {
            call,
            end,
            dur_s: (end - t0).as_secs_f64(),
            bytes,
        });
        out
    }
}

impl Storage for TimedStorage {
    fn create_dir_all(&mut self, dir: &Path) -> Result<(), StorageError> {
        self.timed(Call::Other, 0, |s| s.create_dir_all(dir))
    }
    fn list(&mut self, dir: &Path) -> Result<Vec<String>, StorageError> {
        self.timed(Call::Other, 0, |s| s.list(dir))
    }
    fn read(&mut self, path: &Path) -> Result<Vec<u8>, StorageError> {
        self.timed(Call::Other, 0, |s| s.read(path))
    }
    fn append(&mut self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        self.timed(Call::Append, bytes.len() as u64, |s| s.append(path, bytes))
    }
    fn write_all(&mut self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        self.timed(Call::WriteAll, bytes.len() as u64, |s| {
            s.write_all(path, bytes)
        })
    }
    fn fsync(&mut self, path: &Path) -> Result<(), StorageError> {
        self.timed(Call::Fsync, 0, |s| s.fsync(path))
    }
    fn sync_dir(&mut self, dir: &Path) -> Result<(), StorageError> {
        self.timed(Call::SyncDir, 0, |s| s.sync_dir(dir))
    }
    fn rename(&mut self, from: &Path, to: &Path) -> Result<(), StorageError> {
        self.timed(Call::Rename, 0, |s| s.rename(from, to))
    }
    fn remove(&mut self, path: &Path) -> Result<(), StorageError> {
        self.timed(Call::Other, 0, |s| s.remove(path))
    }
    fn truncate(&mut self, path: &Path, len: u64) -> Result<(), StorageError> {
        self.timed(Call::Other, 0, |s| s.truncate(path, len))
    }
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mounts`
/// (longest matching mount point wins).
pub fn filesystem_type(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}
