//! Crash-safe durability primitives: the write-ahead ingest journal, the
//! generation-numbered snapshot files, and the [`Storage`] abstraction the
//! fault-injection harness ([`crate::faults`]) hooks into.
//!
//! ## On-disk layout
//!
//! A durable directory holds two file families, both named by a
//! monotonically increasing **generation** number:
//!
//! ```text
//! snap-<g>.csrv      snapshot bundle (the sections container of crate::server)
//! journal-<g>.cjl    every ingest batch accepted AFTER snap-<g> was written
//! ```
//!
//! A snapshot rotation creates `journal-<g+1>` first, then atomically
//! publishes `snap-<g+1>` (write temp → fsync → rename → fsync dir), and
//! only then swaps the live journal — so at every instant the newest
//! *published* snapshot plus the journals at or above its generation
//! reconstruct the server exactly. Recovery restores the newest decodable
//! snapshot and replays those journals in ascending generation order,
//! falling back past a torn or corrupt snapshot to the previous generation
//! (the retention policy always keeps the previous good generation on disk).
//!
//! ## Journal frame format
//!
//! A record's payload is the batch payload of [`crate::wire`] (the bytes of
//! an `INGEST` frame's payload), checksummed with the FNV-1a 64 of the
//! snapshot frames:
//!
//! ```text
//! file   = header record*
//! header = magic b"CJRN" | u16 version (1) | u64 generation
//! record = u32 payload_len | payload | u64 fnv1a64(payload)
//! payload = u8 meta | [u64 writer, u64 seq] | u32 n
//!           | n×u64 xs | n×u64 ys | [n×u64 ts]
//! ```
//!
//! [`scan_journal`] accepts the longest **valid prefix** of a journal: a
//! short or checksum-corrupt tail (a torn write from a crash mid-append) is
//! reported, not fatal — exactly the bounded-loss semantics the server's
//! fsync policy promises (an *acked* batch is never in the torn tail,
//! because the ack is only sent after the append is fsynced).

use crate::wire::{decode_ingest_into, encode_ingest_into};
use cora_sketch::codec::fnv1a64;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening every journal file.
pub const JOURNAL_MAGIC: [u8; 4] = *b"CJRN";

/// Journal format version; readers reject other versions.
pub const JOURNAL_VERSION: u16 = 1;

/// Byte length of the journal file header.
pub const JOURNAL_HEADER_BYTES: usize = 4 + 2 + 8;

/// An open append-only file handle, as seen by the journal writer. The
/// fault-injection harness wraps these to fail or tear specific writes.
pub trait AppendFile: Send {
    /// Append `bytes` at the end of the file.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Force appended bytes to stable storage (`fsync`).
    fn sync(&mut self) -> io::Result<()>;
}

/// The storage surface the durability layer runs on. Production uses
/// [`DiskStorage`]; the deterministic fault-injection tests substitute
/// [`crate::faults::FaultyStorage`] to fail the Nth write, tear an append
/// mid-record, or short-read a snapshot — without touching a real syscall's
/// worth of nondeterminism.
pub trait Storage: Send + Sync {
    /// Create `dir` (and parents) if missing.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// File names (not paths) directly inside `dir`; empty if `dir` is
    /// missing.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Open `path` for appending, creating it if missing.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn AppendFile>>;
    /// Durably publish `bytes` at `path`: write a temporary sibling, fsync
    /// it, rename it over `path`, and fsync the directory.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Delete a file; missing files are not an error.
    fn remove(&self, path: &Path) -> io::Result<()>;
}

/// The real filesystem implementation of [`Storage`].
#[derive(Debug, Default)]
pub struct DiskStorage;

struct DiskAppend {
    file: fs::File,
}

impl AppendFile for DiskAppend {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// Best-effort directory fsync so a rename or create survives a power cut
/// (a failure here is ignored: some filesystems refuse directory handles).
fn sync_dir(dir: &Path) {
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

impl Storage for DiskStorage {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let entries = match fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut names = Vec::new();
        for entry in entries {
            if let Some(name) = entry?.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        Ok(names)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = Vec::new();
        fs::File::open(path)?.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn AppendFile>> {
        let file = fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Box::new(DiskAppend { file }))
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent() {
            sync_dir(dir);
        }
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match fs::remove_file(path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

/// Path of generation `g`'s snapshot bundle inside `dir`.
pub fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snap-{generation}.csrv"))
}

/// Path of generation `g`'s journal inside `dir`.
pub fn journal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("journal-{generation}.cjl"))
}

fn parse_generation(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
}

/// The durable files present in a directory: snapshot generations sorted
/// descending (newest first — the recovery probe order) and journal
/// generations sorted ascending (the replay order).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct GenerationListing {
    /// Snapshot generations, newest first.
    pub snapshots: Vec<u64>,
    /// Journal generations, oldest first.
    pub journals: Vec<u64>,
}

/// Enumerate the durable files in `dir` (missing directory = empty listing).
/// Stray files — including the `.tmp` siblings a crash mid-publish can
/// leave behind — are ignored.
pub fn list_generations(storage: &dyn Storage, dir: &Path) -> io::Result<GenerationListing> {
    let mut listing = GenerationListing::default();
    for name in storage.list(dir)? {
        if let Some(g) = parse_generation(&name, "snap-", ".csrv") {
            listing.snapshots.push(g);
        } else if let Some(g) = parse_generation(&name, "journal-", ".cjl") {
            listing.journals.push(g);
        }
    }
    listing.snapshots.sort_unstable_by(|a, b| b.cmp(a));
    listing.journals.sort_unstable();
    Ok(listing)
}

/// One decoded journal record: an ingest batch exactly as the server
/// accepted it (timestamp lane included, so the windowed structures replay
/// onto the same pane ticks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// The `(writer, seq)` idempotency pair, when the client sent one.
    pub seq: Option<(u64, u64)>,
    /// The `(x, y)` tuples of the batch.
    pub tuples: Vec<(u64, u64)>,
    /// Explicit per-tuple timestamps, or empty for arrival-clock stamping.
    pub ts: Vec<u64>,
}

/// The result of scanning a journal file: its header generation, the
/// records of the longest valid prefix, and what (if anything) stopped the
/// scan.
#[derive(Debug)]
pub struct JournalScan {
    /// The generation recorded in the file header.
    pub generation: u64,
    /// Every record of the valid prefix, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes covered by the header plus the valid records.
    pub valid_bytes: usize,
    /// Why the scan stopped before the end of the file, if it did — a torn
    /// or corrupt tail that recovery drops.
    pub torn: Option<String>,
}

/// Scan journal `bytes`, accepting the longest valid prefix. A malformed
/// header is an error (the file is not a journal); a short or corrupt
/// *record* merely ends the scan and is reported via [`JournalScan::torn`].
pub fn scan_journal(bytes: &[u8]) -> Result<JournalScan, String> {
    if bytes.len() < JOURNAL_HEADER_BYTES {
        return Err(format!(
            "journal too short for its header: {} bytes",
            bytes.len()
        ));
    }
    if bytes[..4] != JOURNAL_MAGIC {
        return Err("not a cora-serve journal (bad magic)".into());
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version != JOURNAL_VERSION {
        return Err(format!(
            "unsupported journal version {version} (this build reads {JOURNAL_VERSION})"
        ));
    }
    let generation = u64::from_le_bytes(bytes[6..14].try_into().expect("8 bytes"));
    let mut records = Vec::new();
    let mut pos = JOURNAL_HEADER_BYTES;
    let mut torn = None;
    while pos < bytes.len() {
        let stop = |detail: String| Some(format!("record {} at byte {pos}: {detail}", records.len()));
        if bytes.len() - pos < 4 {
            torn = stop("short length prefix".into());
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        if bytes.len() - pos < 4 + len + 8 {
            torn = stop(format!("short record ({len}-byte payload declared)"));
            break;
        }
        let payload = &bytes[pos + 4..pos + 4 + len];
        let stored =
            u64::from_le_bytes(bytes[pos + 4 + len..pos + 12 + len].try_into().expect("8 bytes"));
        if stored != fnv1a64(payload) {
            torn = stop("payload checksum mismatch".into());
            break;
        }
        let (mut tuples, mut ts) = (Vec::new(), Vec::new());
        match decode_ingest_into(payload, &mut tuples, &mut ts) {
            Ok(meta) => records.push(JournalRecord { seq: meta.seq, tuples, ts }),
            Err(detail) => {
                torn = stop(detail);
                break;
            }
        }
        pos += 4 + len + 8;
    }
    Ok(JournalScan {
        generation,
        records,
        valid_bytes: pos,
        torn,
    })
}

/// The live write-ahead journal: an append handle plus the write-ordering
/// discipline. After any append or sync failure the writer is **poisoned**
/// — the on-disk tail can no longer be trusted, so every further append is
/// refused until a snapshot rotation opens a fresh generation (the server
/// surfaces those refusals as structured `io` errors and keeps serving
/// queries).
pub struct JournalWriter {
    file: Box<dyn AppendFile>,
    generation: u64,
    batches: u64,
    bytes: u64,
    poisoned: bool,
    scratch: Vec<u8>,
}

impl JournalWriter {
    /// Create the journal for `generation` inside `dir`, writing and
    /// syncing its header. Any half-written file from a failed earlier
    /// attempt at the same generation is removed first.
    pub fn create(storage: &dyn Storage, dir: &Path, generation: u64) -> io::Result<Self> {
        let path = journal_path(dir, generation);
        storage.remove(&path)?;
        let mut file = storage.open_append(&path)?;
        let mut header = Vec::with_capacity(JOURNAL_HEADER_BYTES);
        header.extend_from_slice(&JOURNAL_MAGIC);
        header.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        header.extend_from_slice(&generation.to_le_bytes());
        file.append(&header)?;
        file.sync()?;
        Ok(Self {
            file,
            generation,
            batches: 0,
            bytes: JOURNAL_HEADER_BYTES as u64,
            poisoned: false,
            scratch: Vec::new(),
        })
    }

    /// The generation this journal belongs to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Records appended since the journal was created.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Bytes written, header included.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether an earlier write failure poisoned this journal.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Append one batch record, fsyncing afterwards when `fsync` is set.
    /// The record is on stable storage when this returns `Ok` under
    /// `fsync = true` — the server's precondition for acking the batch.
    pub fn append_batch(
        &mut self,
        tuples: &[(u64, u64)],
        ts: &[u64],
        seq: Option<(u64, u64)>,
        fsync: bool,
    ) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "journal poisoned by an earlier write failure; \
                 a snapshot rotation will open a fresh generation",
            ));
        }
        // One record: the length prefix, the batch payload, its checksum.
        self.scratch.clear();
        self.scratch.extend_from_slice(&[0; 4]);
        encode_ingest_into(tuples, ts, seq, &mut self.scratch);
        let payload = &self.scratch[4..];
        let (len, checksum) = (payload.len() as u32, fnv1a64(payload));
        self.scratch[..4].copy_from_slice(&len.to_le_bytes());
        self.scratch.extend_from_slice(&checksum.to_le_bytes());
        if let Err(e) = self.file.append(&self.scratch) {
            self.poisoned = true;
            return Err(e);
        }
        if fsync {
            if let Err(e) = self.file.sync() {
                self.poisoned = true;
                return Err(e);
            }
        }
        self.batches += 1;
        self.bytes += self.scratch.len() as u64;
        Ok(())
    }
}

/// Convenience: the production storage as a shareable trait object.
pub fn disk_storage() -> Arc<dyn Storage> {
    Arc::new(DiskStorage)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cora_journal_{tag}_{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn records_round_trip_and_scan_accepts_valid_prefixes() {
        let dir = temp_dir("roundtrip");
        let storage = DiskStorage;
        let mut journal = JournalWriter::create(&storage, &dir, 3).unwrap();
        let batches = [
            (vec![(1u64, 10u64), (2, 20)], vec![], None),
            (vec![(3, 30)], vec![77u64], Some((9u64, 1u64))),
            (vec![], vec![], Some((9, 2))),
        ];
        for (tuples, ts, seq) in &batches {
            journal.append_batch(tuples, ts, *seq, true).unwrap();
        }
        assert_eq!(journal.batches(), 3);
        let bytes = storage.read(&journal_path(&dir, 3)).unwrap();
        assert_eq!(bytes.len() as u64, journal.bytes());
        let scan = scan_journal(&bytes).unwrap();
        assert_eq!(scan.generation, 3);
        assert!(scan.torn.is_none());
        assert_eq!(scan.valid_bytes, bytes.len());
        assert_eq!(scan.records.len(), 3);
        for (record, (tuples, ts, seq)) in scan.records.iter().zip(&batches) {
            assert_eq!(&record.tuples, tuples);
            assert_eq!(&record.ts, ts);
            assert_eq!(&record.seq, seq);
        }
        // Every truncation point past the header yields a valid prefix —
        // the torn-tail semantics recovery depends on. A cut exactly on a
        // record boundary is indistinguishable from a clean shutdown, so
        // only mid-record cuts report a tear.
        let mut boundaries = vec![JOURNAL_HEADER_BYTES];
        for record in &scan.records {
            let mut payload = Vec::new();
            encode_ingest_into(&record.tuples, &record.ts, record.seq, &mut payload);
            boundaries.push(boundaries.last().unwrap() + 4 + payload.len() + 8);
        }
        for cut in JOURNAL_HEADER_BYTES..bytes.len() {
            let scan = scan_journal(&bytes[..cut]).unwrap();
            assert!(scan.records.len() < 3, "cut at {cut} kept all records");
            assert_eq!(
                scan.torn.is_some(),
                !boundaries.contains(&cut),
                "cut at {cut} misreported tear state"
            );
            assert!(scan.valid_bytes <= cut);
        }
        // A flipped payload byte stops the scan at the corrupt record.
        let mut corrupt = bytes.clone();
        corrupt[JOURNAL_HEADER_BYTES + 6] ^= 0x10;
        let scan = scan_journal(&corrupt).unwrap();
        assert_eq!(scan.records.len(), 0);
        assert!(scan.torn.unwrap().contains("checksum"));
        // Headers are strict.
        assert!(scan_journal(b"CJRN").is_err());
        assert!(scan_journal(b"XXXXXXXXXXXXXXXX").is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The exact bytes of a journal on disk: the header, then one record
    /// with a timestamp lane and a `(writer, seq)` pair and one with
    /// neither. A format change fails here first; an upgraded node must
    /// still replay the journals an older one wrote.
    #[test]
    fn journal_bytes_are_pinned() {
        let dir = temp_dir("pinned");
        let storage = DiskStorage;
        let mut journal = JournalWriter::create(&storage, &dir, 5).unwrap();
        journal.append_batch(&[(1, 2)], &[3], Some((4, 5)), true).unwrap();
        journal.append_batch(&[(6, 7)], &[], None, true).unwrap();
        let bytes = storage.read(&journal_path(&dir, 5)).unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "434a524e01000500000000000000\
             2d000000\
             03040000000000000005000000000000000100000001000000000000000200000000000000\
             0300000000000000\
             9233f2704b797160\
             15000000\
             000100000006000000000000000700000000000000\
             9fa15540eee36cb5"
        );
        assert_eq!(bytes.len() as u64, journal.bytes());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn listing_names_generations_and_ignores_strays() {
        let dir = temp_dir("listing");
        let storage = DiskStorage;
        for name in ["snap-3.csrv", "snap-10.csrv", "journal-3.cjl", "journal-10.cjl",
                     "snap-4.csrv.tmp", "notes.txt"] {
            fs::write(dir.join(name), b"x").unwrap();
        }
        let listing = list_generations(&storage, &dir).unwrap();
        assert_eq!(listing.snapshots, vec![10, 3]);
        assert_eq!(listing.journals, vec![3, 10]);
        let missing = list_generations(&storage, &dir.join("nope")).unwrap();
        assert!(missing.snapshots.is_empty() && missing.journals.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let dir = temp_dir("atomic");
        let storage = DiskStorage;
        let path = snapshot_path(&dir, 1);
        storage.write_atomic(&path, b"first").unwrap();
        storage.write_atomic(&path, b"second").unwrap();
        assert_eq!(storage.read(&path).unwrap(), b"second");
        assert_eq!(
            list_generations(&storage, &dir).unwrap().snapshots,
            vec![1]
        );
        storage.remove(&path).unwrap();
        storage.remove(&path).unwrap(); // idempotent
        let _ = fs::remove_dir_all(&dir);
    }
}
