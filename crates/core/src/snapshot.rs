//! Versioned, checksummed snapshot framing for the correlated structures.
//!
//! A snapshot is one self-describing binary **frame**:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"CORA"
//! 4       2     format version (little-endian u16, currently 2)
//! 6       1     kind tag (which structure the payload describes)
//! 7       8     payload length (little-endian u64)
//! 15      n     payload (structure-specific, see the snapshot methods)
//! 15+n    8     FNV-1a 64 checksum of the payload
//! ```
//!
//! The payload carries the full construction configuration (accuracy
//! parameters, domains, **seed**) ahead of the state, so a restored structure
//! is built with exactly the hash functions the snapshot was, answers every
//! query bit-identically to the encoded one, and remains merge-compatible
//! with sketches still running in other processes (Property V needs only the
//! shared configuration, which the header preserves). Decoding validates the
//! magic, version, kind, length, and checksum **before** interpreting a
//! single payload byte, so truncated, corrupted, or foreign files are
//! rejected with [`CoreError::Snapshot`] instead of deserialising garbage.
//!
//! Sketch counter state is serialised through
//! [`cora_sketch::codec::StateCodec`]; hash coefficient tables are never
//! written — they are re-derived from the seed on restore.
//!
//! Entry points:
//!
//! * [`CorrelatedSketch::snapshot`](crate::CorrelatedSketch::snapshot) /
//!   [`restore_from`](crate::CorrelatedSketch::restore_from) — the generic
//!   framework sketch, for every aggregate (correlated `F_2`, `F_k`, sum,
//!   and [`CorrelatedHeavyHitters`](crate::CorrelatedHeavyHitters));
//! * [`CorrelatedF0`](crate::CorrelatedF0) and
//!   [`CorrelatedRarity`](crate::CorrelatedRarity) expose the same pair
//!   with their parameters embedded (restore takes only bytes);
//! * `cora_stream::sharded::ShardedIngest` snapshots its merged composite
//!   through the framework frame, so a restored front-end serves identical
//!   answers.

use crate::aggregate::{BucketStore, CorrelatedAggregate};
use crate::config::{AlphaPolicy, CorrelatedConfig};
use crate::error::{CoreError, Result};
use cora_sketch::codec::{fnv1a64, ByteReader, ByteWriter, CodecError, CodecResult, StateCodec};
use cora_sketch::ExactFrequencies;

/// The four magic bytes opening every snapshot frame.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"CORA";

/// The current snapshot format version. Bumped on any incompatible payload
/// change; decoders reject snapshots from other versions.
///
/// * 1 — heavy-hitters buckets carried an `F_2` sketch plus a separately
///   seeded CountSketch with an item-sorted candidate set.
/// * 2 — heavy-hitters buckets carry one counter lane plus the candidate
///   list in tracker order.
pub const SNAPSHOT_VERSION: u16 = 2;

/// Which structure a snapshot frame describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SnapshotKind {
    /// A generic [`CorrelatedSketch`](crate::CorrelatedSketch) (framework
    /// levels + singleton level + shared tail).
    Framework = 1,
    /// A [`CorrelatedF0`](crate::CorrelatedF0) distinct-count sketch.
    F0 = 2,
    /// A [`CorrelatedRarity`](crate::CorrelatedRarity) sketch.
    Rarity = 3,
    // Tag 4 is retired (it framed a heavy-hitters wrapper; heavy-hitters
    // sketches use `Framework`). Never reuse it: old frames must be refused
    // as an unknown kind.
    /// A windowed pane ring over framework sketches
    /// (`cora_stream::windowed::WindowedSketch`).
    WindowedFramework = 5,
    /// A windowed pane ring over [`CorrelatedF0`](crate::CorrelatedF0) panes
    /// (`cora_stream::windowed::WindowedF0`).
    WindowedF0 = 6,
    /// Serving-layer metadata that must travel with the sketches to keep a
    /// restored server semantically identical: the per-writer ingest
    /// sequence high-water marks that make batch replay idempotent
    /// (`cora_serve`'s snapshot bundle and write-ahead journal).
    ServeMeta = 7,
    /// An incremental **delta** container covering the tuples ingested in a
    /// generation span `(g_from, g_to]`: a replication header plus tagged
    /// inner frames, each itself a sealed snapshot of a same-seeded
    /// structure fed only that span (see [`seal_delta_into`] /
    /// [`open_delta`]). Because the sketches are mergeable (Property V),
    /// merging the delta into a base holding everything up to `g_from`
    /// yields exactly the structure for everything up to `g_to`.
    Delta = 8,
}

impl SnapshotKind {
    fn from_byte(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(SnapshotKind::Framework),
            2 => Some(SnapshotKind::F0),
            3 => Some(SnapshotKind::Rarity),
            5 => Some(SnapshotKind::WindowedFramework),
            6 => Some(SnapshotKind::WindowedF0),
            7 => Some(SnapshotKind::ServeMeta),
            8 => Some(SnapshotKind::Delta),
            _ => None,
        }
    }
}

/// Append a sealed frame (magic, version, kind, length, checksum) around
/// `payload` to a caller-provided buffer — the zero-extra-copy primitive
/// behind every `snapshot_to`. Public so out-of-crate structures (the
/// windowed pane rings in `cora-stream`) can frame their own state in the
/// same validated format.
pub fn seal_frame_into(kind: SnapshotKind, payload: &[u8], out: &mut Vec<u8>) {
    out.reserve(payload.len() + 23);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.push(kind as u8);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
}

/// Wrap a payload in a sealed frame, as a fresh buffer.
#[cfg(test)]
pub(crate) fn seal_frame(kind: SnapshotKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    seal_frame_into(kind, payload, &mut out);
    out
}

/// Validate a frame end to end (magic, version, expected kind, exact length,
/// checksum) and return its payload. Corrupted, truncated, or foreign bytes
/// are rejected **before** any payload byte is interpreted.
pub fn open_frame(bytes: &[u8], expected: SnapshotKind) -> Result<&[u8]> {
    let err = |detail: String| CoreError::Snapshot { detail };
    if bytes.len() < 23 {
        return Err(err(format!(
            "snapshot too short to hold a frame header: {} bytes",
            bytes.len()
        )));
    }
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(err("not a cora snapshot (bad magic)".into()));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(err(format!(
            "unsupported snapshot version {version} (this build reads version {SNAPSHOT_VERSION})"
        )));
    }
    let kind = SnapshotKind::from_byte(bytes[6])
        .ok_or_else(|| err(format!("unknown snapshot kind tag {}", bytes[6])))?;
    if kind != expected {
        return Err(err(format!(
            "snapshot holds a {kind:?} structure, expected {expected:?}"
        )));
    }
    let len = u64::from_le_bytes(bytes[7..15].try_into().expect("8 bytes")) as usize;
    if bytes.len() != 15 + len + 8 {
        return Err(err(format!(
            "snapshot length mismatch: header says {len}-byte payload, file holds {}",
            bytes.len().saturating_sub(23)
        )));
    }
    let payload = &bytes[15..15 + len];
    let stored = u64::from_le_bytes(bytes[15 + len..].try_into().expect("8 bytes"));
    let actual = fnv1a64(payload);
    if stored != actual {
        return Err(err(format!(
            "payload checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        )));
    }
    Ok(payload)
}

/// Serialise a bucket store (exact or sketched representation).
pub(crate) fn encode_store<A: CorrelatedAggregate>(store: &BucketStore<A>, w: &mut ByteWriter) {
    match store {
        BucketStore::Exact(freqs) => {
            w.put_u8(0);
            freqs.encode_state(w);
        }
        BucketStore::Sketched(sketch) => {
            w.put_u8(1);
            sketch.encode_state(w);
        }
    }
}

/// Decode a bucket store; sketched representations are decoded into a fresh
/// sketch from `agg` (same seed and dimensions by construction).
pub(crate) fn decode_store<A: CorrelatedAggregate>(
    agg: &A,
    r: &mut ByteReader<'_>,
) -> CodecResult<BucketStore<A>> {
    match r.get_u8()? {
        0 => {
            let mut freqs = ExactFrequencies::new();
            freqs.decode_state(r)?;
            Ok(BucketStore::Exact(freqs))
        }
        1 => {
            let mut sketch = agg.new_sketch();
            sketch.decode_state(r)?;
            Ok(BucketStore::Sketched(sketch))
        }
        tag => Err(CodecError::Corrupt(format!("unknown bucket-store tag {tag}"))),
    }
}

/// Serialise a [`CorrelatedConfig`] (every field, seed included). Public for
/// wrapper structures whose frames must carry a framework configuration of
/// their own (the windowed pane rings in `cora-stream`).
pub fn encode_config(config: &CorrelatedConfig, w: &mut ByteWriter) {
    w.put_f64(config.epsilon);
    w.put_f64(config.delta);
    w.put_u64(config.y_max);
    w.put_u32(config.f_max_log2);
    match config.alpha_policy {
        AlphaPolicy::Theoretical => w.put_u8(0),
        AlphaPolicy::Practical { scale } => {
            w.put_u8(1);
            w.put_f64(scale);
        }
        AlphaPolicy::Fixed(a) => {
            w.put_u8(2);
            w.put_u64(a as u64);
        }
    }
    w.put_u64(config.seed);
}

/// Decode a [`CorrelatedConfig`] written by [`encode_config`]; the decoded
/// configuration is re-validated before it is returned.
pub fn decode_config(r: &mut ByteReader<'_>) -> CodecResult<CorrelatedConfig> {
    let epsilon = r.get_f64()?;
    let delta = r.get_f64()?;
    let y_max = r.get_u64()?;
    let f_max_log2 = r.get_u32()?;
    let alpha_policy = match r.get_u8()? {
        0 => AlphaPolicy::Theoretical,
        1 => AlphaPolicy::Practical { scale: r.get_f64()? },
        2 => AlphaPolicy::Fixed(r.get_len()?),
        tag => return Err(CodecError::Corrupt(format!("unknown alpha-policy tag {tag}"))),
    };
    let seed = r.get_u64()?;
    let config = CorrelatedConfig {
        epsilon,
        delta,
        y_max,
        f_max_log2,
        alpha_policy,
        seed,
    };
    config
        .validate()
        .map_err(|e| CodecError::Corrupt(format!("snapshot configuration invalid: {e}")))?;
    Ok(config)
}

/// The replication header of a [`SnapshotKind::Delta`] container: which
/// generation span the inner frames cover and a fingerprint of the
/// producer's construction parameters. A consumer must refuse a delta whose
/// fingerprint differs from its own (different seeds or accuracy parameters
/// make the structures non-mergeable) or whose `g_from` is not its current
/// high-water generation (the delta would double-count or skip tuples).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaHeader {
    /// The generation the consumer must already hold; `0` means the
    /// container is a **full** replacement snapshot, not an increment.
    pub g_from: u64,
    /// The generation the consumer holds after applying the container.
    pub g_to: u64,
    /// Producer-side fingerprint over every construction parameter that
    /// affects mergeability (accuracy, domains, seed). Opaque to this codec.
    pub fingerprint: u64,
}

/// Seal a delta container: the [`DeltaHeader`] plus `sections`, each a
/// `(tag, bytes)` pair where the tag names the structure (assigned by the
/// producer) and the bytes are normally themselves a sealed frame. The whole
/// container is one checksummed [`SnapshotKind::Delta`] frame, so torn or
/// corrupted deltas are rejected wholesale by [`open_delta`].
pub fn seal_delta_into(header: &DeltaHeader, sections: &[(u8, &[u8])], out: &mut Vec<u8>) {
    let mut w = ByteWriter::new();
    w.put_u64(header.g_from);
    w.put_u64(header.g_to);
    w.put_u64(header.fingerprint);
    w.put_u32(sections.len() as u32);
    for &(tag, bytes) in sections {
        w.put_u8(tag);
        w.put_u64(bytes.len() as u64);
        w.put_bytes(bytes);
    }
    seal_frame_into(SnapshotKind::Delta, w.as_bytes(), out);
}

/// The `(tag, bytes)` sections of an opened delta container, borrowing from
/// the container's bytes.
pub type DeltaSections<'a> = Vec<(u8, &'a [u8])>;

/// Open a delta container sealed by [`seal_delta_into`]: validates the outer
/// frame (magic, version, kind, length, checksum), then returns the header
/// and the `(tag, bytes)` sections. A span with `g_from > g_to` is rejected
/// here; fingerprint and base-generation checks are the consumer's job,
/// because only it knows its own parameters and high-water mark.
pub fn open_delta(bytes: &[u8]) -> Result<(DeltaHeader, DeltaSections<'_>)> {
    let payload = open_frame(bytes, SnapshotKind::Delta)?;
    let mut r = ByteReader::new(payload);
    let take = |r: &mut ByteReader<'_>, field: &str| -> Result<u64> {
        r.get_u64().map_err(|e| CoreError::Snapshot {
            detail: format!("delta header field {field}: {e}"),
        })
    };
    let g_from = take(&mut r, "g_from")?;
    let g_to = take(&mut r, "g_to")?;
    let fingerprint = take(&mut r, "fingerprint")?;
    if g_from > g_to {
        return Err(CoreError::Snapshot {
            detail: format!("delta spans a negative generation range ({g_from}, {g_to}]"),
        });
    }
    let n = r.get_u32().map_err(CoreError::from)? as usize;
    let mut sections = Vec::with_capacity(n);
    for i in 0..n {
        let e = |detail: String| CoreError::Snapshot {
            detail: format!("delta section {i}: {detail}"),
        };
        let tag = r.get_u8().map_err(|err| e(err.to_string()))?;
        let len = r.get_u64().map_err(|err| e(err.to_string()))? as usize;
        if len > r.remaining() {
            return Err(e(format!(
                "declares {len} bytes but only {} remain",
                r.remaining()
            )));
        }
        let bytes = r.take(len).map_err(|err| e(err.to_string()))?;
        sections.push((tag, bytes));
    }
    if r.remaining() != 0 {
        return Err(CoreError::Snapshot {
            detail: format!("delta has {} trailing bytes after its sections", r.remaining()),
        });
    }
    Ok((DeltaHeader { g_from, g_to, fingerprint }, sections))
}

/// Map a low-level codec error into the crate error type.
impl From<CodecError> for CoreError {
    fn from(e: CodecError) -> Self {
        CoreError::Snapshot {
            detail: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip_and_rejections() {
        let payload = b"hello snapshot".to_vec();
        let frame = seal_frame(SnapshotKind::F0, &payload);
        assert_eq!(open_frame(&frame, SnapshotKind::F0).unwrap(), &payload[..]);

        // Wrong kind.
        assert!(open_frame(&frame, SnapshotKind::Framework).is_err());
        // Truncated.
        assert!(open_frame(&frame[..frame.len() - 1], SnapshotKind::F0).is_err());
        assert!(open_frame(&frame[..10], SnapshotKind::F0).is_err());
        // Flipped payload byte -> checksum mismatch.
        let mut corrupt = frame.clone();
        corrupt[16] ^= 0x40;
        let e = open_frame(&corrupt, SnapshotKind::F0).unwrap_err();
        assert!(e.to_string().contains("checksum"), "{e}");
        // Bad magic.
        let mut foreign = frame.clone();
        foreign[0] = b'X';
        assert!(open_frame(&foreign, SnapshotKind::F0).is_err());
        // Future version.
        let mut future = frame.clone();
        future[4] = 0xFF;
        let e = open_frame(&future, SnapshotKind::F0).unwrap_err();
        assert!(e.to_string().contains("version"), "{e}");
        // A version-1 frame (the pre-lane-merge heavy-hitters payload) is
        // refused outright, never mis-decoded.
        let mut stale = frame.clone();
        stale[4..6].copy_from_slice(&1u16.to_le_bytes());
        let e = open_frame(&stale, SnapshotKind::F0).unwrap_err();
        assert!(
            e.to_string().contains("unsupported snapshot version 1"),
            "{e}"
        );
        // Unknown kind tags, including the retired tag 4.
        for tag in [4, 99] {
            let mut unknown = frame.clone();
            unknown[6] = tag;
            let e = open_frame(&unknown, SnapshotKind::F0).unwrap_err();
            assert!(e.to_string().contains("unknown snapshot kind tag"), "{e}");
        }
    }

    #[test]
    fn delta_container_round_trip_and_rejections() {
        let header = DeltaHeader { g_from: 3, g_to: 7, fingerprint: 0xFEED_F00D };
        let inner = seal_frame(SnapshotKind::F0, b"inner state");
        let mut out = Vec::new();
        seal_delta_into(&header, &[(1, b"raw"), (2, &inner)], &mut out);
        let (decoded, sections) = open_delta(&out).unwrap();
        assert_eq!(decoded, header);
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0], (1, &b"raw"[..]));
        assert_eq!(sections[1].0, 2);
        assert_eq!(
            open_frame(sections[1].1, SnapshotKind::F0).unwrap(),
            b"inner state"
        );

        // Empty container is legal (a heartbeat cut with no new tuples).
        let mut empty = Vec::new();
        seal_delta_into(&header, &[], &mut empty);
        assert!(open_delta(&empty).unwrap().1.is_empty());

        // Torn and corrupted containers are rejected wholesale.
        assert!(open_delta(&out[..out.len() - 1]).is_err());
        let mut corrupt = out.clone();
        corrupt[20] ^= 0x01;
        assert!(open_delta(&corrupt).is_err());
        // A non-delta frame is not a delta.
        assert!(open_delta(&inner).is_err());
        // Negative generation spans are rejected in the codec.
        let mut backwards = Vec::new();
        seal_delta_into(
            &DeltaHeader { g_from: 9, g_to: 2, fingerprint: 0 },
            &[],
            &mut backwards,
        );
        assert!(open_delta(&backwards).is_err());
        // A section length pointing past the payload is rejected.
        let mut w = ByteWriter::new();
        w.put_u64(0);
        w.put_u64(1);
        w.put_u64(0);
        w.put_u32(1);
        w.put_u8(1);
        w.put_u64(1_000_000);
        let mut oversize = Vec::new();
        seal_frame_into(SnapshotKind::Delta, w.as_bytes(), &mut oversize);
        assert!(open_delta(&oversize).is_err());
    }

    #[test]
    fn config_round_trip_all_policies() {
        for policy in [
            AlphaPolicy::Theoretical,
            AlphaPolicy::Practical { scale: 24.0 },
            AlphaPolicy::Fixed(77),
        ] {
            let config = CorrelatedConfig::new(0.23, 0.07, 4095, 40)
                .unwrap()
                .with_alpha_policy(policy)
                .with_seed(0xDEAD);
            let mut w = ByteWriter::new();
            encode_config(&config, &mut w);
            let bytes = w.into_bytes();
            let decoded = decode_config(&mut ByteReader::new(&bytes)).unwrap();
            assert_eq!(decoded, config);
        }
    }

    #[test]
    fn invalid_decoded_config_is_rejected() {
        let config = CorrelatedConfig::new(0.2, 0.1, 1023, 40).unwrap();
        let mut w = ByteWriter::new();
        encode_config(&config, &mut w);
        let mut bytes = w.into_bytes();
        // Corrupt epsilon to an out-of-range bit pattern (2.0).
        bytes[..8].copy_from_slice(&2.0f64.to_bits().to_le_bytes());
        assert!(decode_config(&mut ByteReader::new(&bytes)).is_err());
    }
}
