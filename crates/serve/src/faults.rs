//! Deterministic fault injection for the durability layer.
//!
//! [`FaultyStorage`] wraps any [`Storage`] implementation and fails chosen
//! operations on exact, counted triggers — the Nth journal append, the Nth
//! snapshot publish, every snapshot read — so the recovery paths of
//! `crate::server` are *proven* by tests instead of assumed:
//!
//! * **fail-at-Nth-write** — the Nth journal append returns an error (after
//!   optionally tearing the record: a prefix of its bytes is written first,
//!   exactly what a crash mid-`write(2)` leaves behind);
//! * **fail-at-Nth-snapshot** — the Nth atomic snapshot publish fails
//!   before the rename, so no torn snapshot is ever observed but the
//!   rotation is refused;
//! * **short-read** — snapshot reads return a truncated prefix, modelling a
//!   torn file surviving a crash on a weaker filesystem.
//!
//! Counters are shared between the storage and every append handle it
//! opened, so a plan armed mid-run applies to the journal the server is
//! already holding. All triggers are counted and exact — no randomness, no
//! timing dependence — which is what lets the fault-injection suite assert
//! *specific* recovery outcomes (fallback to the previous generation,
//! valid-prefix replay, structured `io` errors) on every run.

use crate::journal::{AppendFile, Storage};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What to fail, and when. Counters are 1-based: `fail_append_at: Some(3)`
/// fails the third data append issued after the plan was armed.
#[derive(Debug, Default, Clone)]
pub struct FaultPlan {
    /// Fail the Nth journal record append (header writes count too).
    pub fail_append_at: Option<u64>,
    /// When failing an append, write a prefix of the record first — a torn
    /// write — instead of failing cleanly.
    pub torn_append: bool,
    /// Fail the Nth atomic write (snapshot publish) before it renames.
    pub fail_write_atomic_at: Option<u64>,
    /// Truncate every `read` of a file whose name starts with this prefix
    /// to at most the given byte count (models a short read of a torn
    /// snapshot).
    pub short_read: Option<(String, usize)>,
}

#[derive(Default)]
struct FaultState {
    plan: Mutex<FaultPlan>,
    appends: AtomicU64,
    atomic_writes: AtomicU64,
}

impl FaultState {
    fn fail_this_append(&self) -> Option<bool> {
        let plan = self.plan.lock().unwrap();
        let n = self.appends.fetch_add(1, Ordering::SeqCst) + 1;
        match plan.fail_append_at {
            Some(at) if n == at => Some(plan.torn_append),
            _ => None,
        }
    }

    fn fail_this_atomic_write(&self) -> bool {
        let plan = self.plan.lock().unwrap();
        let n = self.atomic_writes.fetch_add(1, Ordering::SeqCst) + 1;
        plan.fail_write_atomic_at == Some(n)
    }
}

/// A [`Storage`] decorator that injects the faults described by its
/// [`FaultPlan`]. Share it as an `Arc` between the test and
/// `crate::server::start_with_storage`, then arm plans mid-run with
/// [`FaultyStorage::set_plan`].
pub struct FaultyStorage {
    inner: Arc<dyn Storage>,
    state: Arc<FaultState>,
}

impl FaultyStorage {
    /// Wrap `inner` with an empty (no-fault) plan.
    pub fn new(inner: Arc<dyn Storage>) -> Self {
        Self {
            inner,
            state: Arc::new(FaultState::default()),
        }
    }

    /// Replace the active plan and reset the operation counters, so the
    /// plan's 1-based triggers count from "now".
    pub fn set_plan(&self, plan: FaultPlan) {
        self.state.appends.store(0, Ordering::SeqCst);
        self.state.atomic_writes.store(0, Ordering::SeqCst);
        *self.state.plan.lock().unwrap() = plan;
    }

    /// Disarm every fault.
    pub fn clear(&self) {
        self.set_plan(FaultPlan::default());
    }
}

struct FaultyAppend {
    inner: Box<dyn AppendFile>,
    state: Arc<FaultState>,
}

impl AppendFile for FaultyAppend {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        if let Some(torn) = self.state.fail_this_append() {
            if torn && !bytes.is_empty() {
                // A crash mid-write: a prefix lands on disk, the rest never
                // does. Half the record (at least one byte) survives.
                let cut = (bytes.len() / 2).max(1);
                self.inner.append(&bytes[..cut])?;
                let _ = self.inner.sync();
            }
            return Err(io::Error::other("injected fault: append failed"));
        }
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }
}

impl Storage for FaultyStorage {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let bytes = self.inner.read(path)?;
        let plan = self.state.plan.lock().unwrap();
        if let Some((prefix, cap)) = &plan.short_read {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with(prefix.as_str()) && bytes.len() > *cap {
                return Ok(bytes[..*cap].to_vec());
            }
        }
        Ok(bytes)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn AppendFile>> {
        let inner = self.inner.open_append(path)?;
        Ok(Box::new(FaultyAppend {
            inner,
            state: Arc::clone(&self.state),
        }))
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.state.fail_this_atomic_write() {
            return Err(io::Error::other("injected fault: atomic write failed"));
        }
        self.inner.write_atomic(path, bytes)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{journal_path, scan_journal, DiskStorage, JournalWriter};

    #[test]
    fn counted_faults_fire_exactly_once_and_tears_leave_prefixes() {
        let dir = std::env::temp_dir().join(format!("cora_faults_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let storage = FaultyStorage::new(Arc::new(DiskStorage));

        let mut journal = JournalWriter::create(&storage, &dir, 0).unwrap();
        // Arming resets the counters, so the three records below are
        // appends #1..=#3 — the plan tears the third.
        storage.set_plan(FaultPlan {
            fail_append_at: Some(3),
            torn_append: true,
            ..FaultPlan::default()
        });
        journal.append_batch(&[(1, 1)], &[], None, true).unwrap();
        journal.append_batch(&[(2, 2)], &[], None, true).unwrap();
        let err = journal.append_batch(&[(3, 3)], &[], None, true).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        // Poisoned: the next append is refused without touching the file.
        assert!(journal.is_poisoned());
        let refused = journal.append_batch(&[(4, 4)], &[], None, true).unwrap_err();
        assert!(refused.to_string().contains("poisoned"), "{refused}");

        // The torn record is on disk as a prefix; the scan drops it and
        // keeps the two good records.
        let bytes = DiskStorage.read(&journal_path(&dir, 0)).unwrap();
        let scan = scan_journal(&bytes).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(scan.torn.is_some());

        // Atomic-write faults and short reads.
        storage.set_plan(FaultPlan {
            fail_write_atomic_at: Some(2),
            short_read: Some(("snap-".into(), 4)),
            ..FaultPlan::default()
        });
        let snap = dir.join("snap-9.csrv");
        storage.write_atomic(&snap, b"full contents").unwrap();
        assert!(storage.write_atomic(&snap, b"second").is_err());
        assert_eq!(storage.read(&snap).unwrap(), b"full");
        assert_eq!(storage.read(&journal_path(&dir, 0)).unwrap(), bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
