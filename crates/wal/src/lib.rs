//! `cad-wal` — per-shard segmented write-ahead log of accepted tick batches.
//!
//! The serving layer appends every accepted `PushSamples` batch (plus session
//! lifecycle events) *before* acknowledging it, so that after a crash the
//! detector state can be reconstructed exactly: load the newest durable
//! snapshot/spill, then replay the WAL suffix. The same log powers offline
//! what-if re-detection (`cad-replay`).
//!
//! # On-disk format
//!
//! A WAL directory holds one subdirectory per shard (`shard-NNNN/`), each
//! containing fixed-size-bounded segment files `seg-<seq>.cadw`:
//!
//! ```text
//! segment  := header record*
//! header   := magic "CADW" | version u16 | reserved u16 | shard u32 | seq u64   (20 bytes, LE)
//! record   := len u32 | crc32 u32 | payload[len]
//! payload  := tag u8 | fields…   (tag 1=Create, 2=Push, 3=Close, 4=Checkpoint, 5=Reshape)
//! ```
//!
//! The CRC-32 (IEEE) covers the payload only. All integers and float bit
//! patterns are little-endian; floats are stored as raw IEEE-754 bits so a
//! round trip is bit-exact. A segment is *sealed* once a record would
//! overflow `segment_bytes`; appends then roll to a new segment with the
//! next sequence number.
//!
//! # Recovery semantics
//!
//! [`ShardWal::open`] scans existing segments in sequence order. A segment
//! with a bad header is skipped wholesale (counted, never deleted); a record
//! that fails its length or CRC check ends that segment's readable prefix.
//! In the newest segment this is treated as a torn tail from a crash and the
//! file is truncated back to the last valid record so appends resume
//! cleanly; in older segments the corrupt suffix is merely dropped and
//! counted. Recovery never panics on corrupt input — every dropped byte and
//! record is tallied in [`OpenReport`].
//!
//! # Compaction
//!
//! Each segment tracks a per-session footprint (max push end-tick, whether
//! it holds the session's `Create`/`Close`). [`ShardWal::compact`] removes
//! sealed segments oldest-first while every session referenced by the
//! segment either no longer exists or has durable state (snapshot/spill)
//! covering at least the segment's highest tick — i.e. once every tick in
//! the segment has aged out of every resident session's recovery window.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Segment header magic: `"CADW"`.
pub const SEGMENT_MAGIC: [u8; 4] = *b"CADW";
/// Current segment format version.
pub const SEGMENT_VERSION: u16 = 1;
/// Bytes occupied by a segment header.
pub const HEADER_BYTES: u64 = 20;
/// Bytes of record framing (`len` + `crc`) preceding each payload.
pub const FRAME_BYTES: u64 = 8;
/// Default cap on a segment's size before appends roll to a new file.
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;
/// Hard cap on a single record payload (a push batch is bounded by the wire
/// protocol's 16 MiB frame limit; anything above this is corruption).
pub const MAX_RECORD_BYTES: u32 = 64 << 20;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven, computed at compile time.
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `data`, as used for record checksums.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Fsync policy
// ---------------------------------------------------------------------------

/// When appends are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync on append (the OS decides; fastest, weakest).
    Never,
    /// Fsync once every `n` appended records.
    EveryN(u32),
    /// Fsync after every appended record (strongest durability).
    EveryBatch,
}

impl FsyncPolicy {
    /// Parse the `CAD_WAL_FSYNC` syntax: `never`, `every_batch`, or a
    /// positive integer `n` meaning "every n records".
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s.trim() {
            "never" => Some(FsyncPolicy::Never),
            "every_batch" => Some(FsyncPolicy::EveryBatch),
            other => match other.parse::<u32>() {
                Ok(0) => None,
                Ok(1) => Some(FsyncPolicy::EveryBatch),
                Ok(n) => Some(FsyncPolicy::EveryN(n)),
                Err(_) => None,
            },
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Never => write!(f, "never"),
            FsyncPolicy::EveryN(n) => write!(f, "every_{n}"),
            FsyncPolicy::EveryBatch => write!(f, "every_batch"),
        }
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// Engine selector recorded in a session's `Create` record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalEngine {
    /// Recompute correlations exactly every round.
    Exact,
    /// Incremental engine with a full rebuild every `rebuild_every` rounds.
    Incremental {
        /// Rounds between full rebuilds (0 = never rebuild).
        rebuild_every: u32,
    },
}

/// Degraded-input policy recorded in a session's `Create` record. Mirrors
/// `cad_core::GapPolicy` and shares its tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalGapPolicy {
    /// Strict: NaN readings and unfillable gaps are rejected.
    #[default]
    Fail,
    /// Missing readings become holes; correlations use pairwise deletion.
    Skip,
    /// Missing readings are substituted with the sensor's last valid value.
    HoldLast,
}

impl WalGapPolicy {
    fn tag(self) -> u8 {
        match self {
            WalGapPolicy::Fail => 0,
            WalGapPolicy::Skip => 1,
            WalGapPolicy::HoldLast => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(WalGapPolicy::Fail),
            1 => Some(WalGapPolicy::Skip),
            2 => Some(WalGapPolicy::HoldLast),
            _ => None,
        }
    }
}

/// Self-describing session configuration stored in the log, so replay tools
/// need no dependency on the wire protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalSpec {
    /// Number of sensors per tick.
    pub n_sensors: u32,
    /// Sliding window length in ticks.
    pub w: u32,
    /// Detection stride in ticks.
    pub s: u32,
    /// Top-k correlated pairs tracked per sensor.
    pub k: u32,
    /// Correlation-change threshold τ.
    pub tau: f64,
    /// Fraction threshold θ.
    pub theta: f64,
    /// Anomaly sensitivity η (verdict = n_r > μ + η·σ).
    pub eta: f64,
    /// Root-cause horizon in rounds; 0 = disabled.
    pub rc_horizon: u32,
    /// Detection engine.
    pub engine: WalEngine,
    /// Degraded-input policy. Encoded as trailing bytes, so records from
    /// pre-hostile-streams builds decode to the strict default.
    pub gap_policy: WalGapPolicy,
    /// Reorder-buffer slack in ticks (0 = strict in-order ingest).
    pub reorder_slack: u32,
}

/// One logged event.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A session was created with the given spec.
    Create {
        /// Session identifier.
        session_id: u64,
        /// Full detector configuration at creation.
        spec: WalSpec,
    },
    /// An accepted batch of ticks (logged before the ack is sent).
    Push {
        /// Session identifier.
        session_id: u64,
        /// Tick index of the first sample row in this batch.
        base_tick: u64,
        /// Row width; `samples.len()` is a multiple of this.
        n_sensors: u32,
        /// Row-major sample payload (`n_ticks × n_sensors`).
        samples: Vec<f64>,
    },
    /// The session was closed and its durable state removed.
    Close {
        /// Session identifier.
        session_id: u64,
    },
    /// Durable state covering `samples_seen` ticks was written. Current
    /// `cad-serve` builds no longer append it (watermarks come from the
    /// session files themselves), but logs from older builds contain it,
    /// so it still decodes: an undecodable record would end its
    /// segment's valid prefix.
    Checkpoint {
        /// Session identifier.
        session_id: u64,
        /// Ticks covered by the durable state.
        samples_seen: u64,
    },
    /// The session's sensor set was reshaped mid-stream (sensor churn).
    /// Logged before the ack, like `Push`; replay applies it in order.
    Reshape {
        /// Session identifier.
        session_id: u64,
        /// New sensor count; later `Push` records carry this width.
        n_sensors: u32,
        /// Ticks the session had consumed when the reshape was admitted
        /// (lets compaction treat it like a push ending at this tick).
        at_tick: u64,
    },
}

const TAG_CREATE: u8 = 1;
const TAG_PUSH: u8 = 2;
const TAG_CLOSE: u8 = 3;
const TAG_CHECKPOINT: u8 = 4;
const TAG_RESHAPE: u8 = 5;

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn done(&self) -> bool {
        self.at == self.buf.len()
    }
}

impl WalRecord {
    /// The session this record belongs to.
    pub fn session_id(&self) -> u64 {
        match *self {
            WalRecord::Create { session_id, .. }
            | WalRecord::Push { session_id, .. }
            | WalRecord::Close { session_id }
            | WalRecord::Checkpoint { session_id, .. }
            | WalRecord::Reshape { session_id, .. } => session_id,
        }
    }

    /// For a push, the exclusive end tick (`base_tick + n_ticks`).
    pub fn push_end_tick(&self) -> Option<u64> {
        match self {
            WalRecord::Push {
                base_tick,
                n_sensors,
                samples,
                ..
            } => Some(base_tick + (samples.len() / (*n_sensors).max(1) as usize) as u64),
            _ => None,
        }
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            WalRecord::Create { session_id, spec } => {
                buf.push(TAG_CREATE);
                put_u64(&mut buf, *session_id);
                put_u32(&mut buf, spec.n_sensors);
                put_u32(&mut buf, spec.w);
                put_u32(&mut buf, spec.s);
                put_u32(&mut buf, spec.k);
                put_f64(&mut buf, spec.tau);
                put_f64(&mut buf, spec.theta);
                put_f64(&mut buf, spec.eta);
                put_u32(&mut buf, spec.rc_horizon);
                match spec.engine {
                    WalEngine::Exact => {
                        buf.push(0);
                        put_u32(&mut buf, 0);
                    }
                    WalEngine::Incremental { rebuild_every } => {
                        buf.push(1);
                        put_u32(&mut buf, rebuild_every);
                    }
                }
                buf.push(spec.gap_policy.tag());
                put_u32(&mut buf, spec.reorder_slack);
            }
            WalRecord::Push {
                session_id,
                base_tick,
                n_sensors,
                samples,
            } => {
                buf.push(TAG_PUSH);
                put_u64(&mut buf, *session_id);
                put_u64(&mut buf, *base_tick);
                put_u32(&mut buf, *n_sensors);
                put_u32(&mut buf, samples.len() as u32);
                buf.reserve(samples.len() * 8);
                for &v in samples {
                    put_f64(&mut buf, v);
                }
            }
            WalRecord::Close { session_id } => {
                buf.push(TAG_CLOSE);
                put_u64(&mut buf, *session_id);
            }
            WalRecord::Checkpoint {
                session_id,
                samples_seen,
            } => {
                buf.push(TAG_CHECKPOINT);
                put_u64(&mut buf, *session_id);
                put_u64(&mut buf, *samples_seen);
            }
            WalRecord::Reshape {
                session_id,
                n_sensors,
                at_tick,
            } => {
                buf.push(TAG_RESHAPE);
                put_u64(&mut buf, *session_id);
                put_u32(&mut buf, *n_sensors);
                put_u64(&mut buf, *at_tick);
            }
        }
        buf
    }

    /// Encode as a framed record (`len | crc | payload`).
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(payload.len() + FRAME_BYTES as usize);
        put_u32(&mut out, payload.len() as u32);
        put_u32(&mut out, crc32(&payload));
        out.extend_from_slice(&payload);
        out
    }

    /// Decode a record payload (the bytes covered by the CRC). Returns
    /// `None` on any structural problem; never panics.
    pub fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
        let mut c = Cursor::new(payload);
        let rec = match c.u8()? {
            TAG_CREATE => {
                let session_id = c.u64()?;
                let n_sensors = c.u32()?;
                let w = c.u32()?;
                let s = c.u32()?;
                let k = c.u32()?;
                let tau = c.f64()?;
                let theta = c.f64()?;
                let eta = c.f64()?;
                let rc_horizon = c.u32()?;
                let engine = match c.u8()? {
                    0 => {
                        c.u32()?;
                        WalEngine::Exact
                    }
                    1 => WalEngine::Incremental {
                        rebuild_every: c.u32()?,
                    },
                    _ => return None,
                };
                // Trailing hostile-streams extension; absent in records
                // written by older builds.
                let (gap_policy, reorder_slack) = if c.done() {
                    (WalGapPolicy::Fail, 0)
                } else {
                    (WalGapPolicy::from_tag(c.u8()?)?, c.u32()?)
                };
                WalRecord::Create {
                    session_id,
                    spec: WalSpec {
                        n_sensors,
                        w,
                        s,
                        k,
                        tau,
                        theta,
                        eta,
                        rc_horizon,
                        engine,
                        gap_policy,
                        reorder_slack,
                    },
                }
            }
            TAG_PUSH => {
                let session_id = c.u64()?;
                let base_tick = c.u64()?;
                let n_sensors = c.u32()?;
                let n_values = c.u32()? as usize;
                if n_sensors == 0 || !n_values.is_multiple_of(n_sensors as usize) {
                    return None;
                }
                if payload.len() != 1 + 8 + 8 + 4 + 4 + n_values * 8 {
                    return None;
                }
                let mut samples = Vec::with_capacity(n_values);
                for _ in 0..n_values {
                    samples.push(c.f64()?);
                }
                WalRecord::Push {
                    session_id,
                    base_tick,
                    n_sensors,
                    samples,
                }
            }
            TAG_CLOSE => WalRecord::Close {
                session_id: c.u64()?,
            },
            TAG_CHECKPOINT => WalRecord::Checkpoint {
                session_id: c.u64()?,
                samples_seen: c.u64()?,
            },
            TAG_RESHAPE => WalRecord::Reshape {
                session_id: c.u64()?,
                n_sensors: c.u32()?,
                at_tick: c.u64()?,
            },
            _ => return None,
        };
        if !c.done() {
            return None;
        }
        Some(rec)
    }
}

// ---------------------------------------------------------------------------
// Segments
// ---------------------------------------------------------------------------

/// What a sealed segment still holds for one session — the inputs to the
/// compaction decision.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Highest exclusive push end-tick in the segment for this session.
    pub max_push_end: u64,
    /// Whether the segment contains the session's `Create` record.
    pub has_create: bool,
    /// Whether the segment contains the session's `Close` record.
    pub has_close: bool,
}

impl Footprint {
    fn absorb(&mut self, rec: &WalRecord) {
        match rec {
            WalRecord::Create { .. } => self.has_create = true,
            WalRecord::Close { .. } => self.has_close = true,
            WalRecord::Push { .. } => {
                self.max_push_end = self.max_push_end.max(rec.push_end_tick().unwrap_or(0));
            }
            // A reshape is durably covered once a snapshot spans the tick
            // it was admitted at — same retention rule as a push ending
            // there.
            WalRecord::Reshape { at_tick, .. } => {
                self.max_push_end = self.max_push_end.max(*at_tick);
            }
            WalRecord::Checkpoint { .. } => {}
        }
    }
}

/// Metadata for one on-disk segment.
#[derive(Debug, Clone)]
pub struct SegmentInfo {
    /// Monotonic segment sequence number within the shard.
    pub seq: u64,
    /// Path to the segment file.
    pub path: PathBuf,
    /// Bytes the segment occupies on disk (valid prefix only).
    pub bytes: u64,
    /// Per-session footprint used by compaction.
    pub footprint: BTreeMap<u64, Footprint>,
}

fn segment_file_name(seq: u64) -> String {
    format!("seg-{seq:016}.cadw")
}

/// Parse `seg-<seq>.cadw` back into its sequence number.
fn parse_segment_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".cadw")?;
    rest.parse().ok()
}

/// Directory for one shard's segments under the WAL base directory.
pub fn shard_dir(base: &Path, shard: u32) -> PathBuf {
    base.join(format!("shard-{shard:04}"))
}

fn encode_header(shard: u32, seq: u64) -> [u8; HEADER_BYTES as usize] {
    let mut h = [0u8; HEADER_BYTES as usize];
    h[0..4].copy_from_slice(&SEGMENT_MAGIC);
    h[4..6].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    // bytes 6..8 reserved (zero)
    h[8..12].copy_from_slice(&shard.to_le_bytes());
    h[12..20].copy_from_slice(&seq.to_le_bytes());
    h
}

/// Why a segment's header was rejected during a scan.
fn check_header(buf: &[u8], want_shard: Option<u32>) -> Result<(u32, u64), String> {
    if buf.len() < HEADER_BYTES as usize {
        return Err(format!("short header ({} bytes)", buf.len()));
    }
    if buf[0..4] != SEGMENT_MAGIC {
        return Err("bad magic".into());
    }
    let version = u16::from_le_bytes(buf[4..6].try_into().unwrap());
    if version != SEGMENT_VERSION {
        return Err(format!("unsupported version {version}"));
    }
    let shard = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    if let Some(want) = want_shard {
        if shard != want {
            return Err(format!("header shard {shard} != directory shard {want}"));
        }
    }
    let seq = u64::from_le_bytes(buf[12..20].try_into().unwrap());
    Ok((shard, seq))
}

struct SegmentScan {
    records: Vec<WalRecord>,
    /// Bytes of the valid prefix (header + intact records).
    valid_bytes: u64,
    /// Bytes past the valid prefix (torn tail or corruption).
    dropped_bytes: u64,
    /// 1 if the valid prefix ended on a partial/corrupt record, else 0.
    dropped_records: u64,
    note: Option<String>,
}

fn scan_segment_bytes(buf: &[u8]) -> SegmentScan {
    let mut records = Vec::new();
    let mut at = HEADER_BYTES as usize;
    let mut note = None;
    while at < buf.len() {
        let remaining = buf.len() - at;
        if remaining < FRAME_BYTES as usize {
            note = Some(format!("partial frame header at offset {at}"));
            break;
        }
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(buf[at + 4..at + 8].try_into().unwrap());
        if len > MAX_RECORD_BYTES {
            note = Some(format!("implausible record length {len} at offset {at}"));
            break;
        }
        let body_start = at + FRAME_BYTES as usize;
        let body_end = match body_start.checked_add(len as usize) {
            Some(e) if e <= buf.len() => e,
            _ => {
                note = Some(format!("truncated record body at offset {at}"));
                break;
            }
        };
        let payload = &buf[body_start..body_end];
        if crc32(payload) != crc {
            note = Some(format!("crc mismatch at offset {at}"));
            break;
        }
        match WalRecord::decode_payload(payload) {
            Some(rec) => records.push(rec),
            None => {
                note = Some(format!("undecodable record at offset {at}"));
                break;
            }
        }
        at = body_end;
    }
    let valid_bytes = at as u64;
    let dropped_bytes = (buf.len() - at) as u64;
    SegmentScan {
        records,
        valid_bytes,
        dropped_bytes,
        dropped_records: u64::from(dropped_bytes > 0),
        note,
    }
}

// ---------------------------------------------------------------------------
// ShardWal
// ---------------------------------------------------------------------------

/// Configuration for one shard's WAL.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Base WAL directory (shared across shards).
    pub dir: PathBuf,
    /// Shard index (selects the `shard-NNNN/` subdirectory).
    pub shard: u32,
    /// Segment size cap; appends roll to a new segment past this.
    pub segment_bytes: u64,
    /// Fsync policy for appends.
    pub fsync: FsyncPolicy,
}

/// Running totals for one shard's WAL (monotonic since open).
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStats {
    /// Records appended.
    pub appended_records: u64,
    /// Bytes appended (framing included).
    pub appended_bytes: u64,
    /// fsync calls issued.
    pub fsyncs: u64,
    /// Segment rolls (seals).
    pub rolls: u64,
    /// Segments removed by compaction.
    pub compacted_segments: u64,
    /// Bytes reclaimed by compaction.
    pub compacted_bytes: u64,
    /// Sealed segments force-removed by size-based retention (these
    /// sacrificed replay history, unlike `compacted_segments`).
    pub retention_segments: u64,
    /// Bytes reclaimed by size-based retention.
    pub retention_bytes: u64,
}

/// What [`ShardWal::open`] found on disk.
#[derive(Debug, Default)]
pub struct OpenReport {
    /// Every intact record, in log order.
    pub records: Vec<WalRecord>,
    /// Bytes dropped (torn tails, corrupt suffixes, unreadable segments).
    pub dropped_bytes: u64,
    /// Partial/corrupt records dropped (lower bound; garbage suffixes count
    /// as one).
    pub dropped_records: u64,
    /// Segments skipped wholesale for a bad header.
    pub corrupt_segments: u64,
    /// Whether the newest segment was truncated back to its valid prefix.
    pub truncated_tail: bool,
    /// Human-readable descriptions of everything dropped.
    pub notes: Vec<String>,
}

/// Result of one append.
#[derive(Debug, Clone, Copy)]
pub struct AppendOutcome {
    /// Framed bytes written.
    pub bytes: u64,
    /// Whether this append fsynced.
    pub synced: bool,
    /// Whether this append sealed the previous segment and rolled.
    pub rolled: bool,
}

/// Durability status of a session, as seen by the compaction decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionDurability {
    /// Session no longer exists (closed); its records are dead.
    Gone,
    /// Session exists with durable state (snapshot/spill) covering this many
    /// ticks; `None` means no durable state has been written yet.
    Durable(Option<u64>),
}

/// Result of one compaction pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactOutcome {
    /// Segments removed in this pass.
    pub removed_segments: u64,
    /// Bytes reclaimed in this pass.
    pub removed_bytes: u64,
}

/// Append handle for one shard's segmented log.
pub struct ShardWal {
    cfg: WalConfig,
    dir: PathBuf,
    active: File,
    active_seq: u64,
    active_bytes: u64,
    active_footprint: BTreeMap<u64, Footprint>,
    sealed: Vec<SegmentInfo>,
    since_sync: u32,
    dirty: bool,
    /// Running totals since open.
    pub stats: WalStats,
}

impl fmt::Debug for ShardWal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardWal")
            .field("dir", &self.dir)
            .field("active_seq", &self.active_seq)
            .field("active_bytes", &self.active_bytes)
            .field("sealed", &self.sealed.len())
            .finish()
    }
}

impl ShardWal {
    /// Open (or create) the shard's log, scanning existing segments and
    /// returning every intact record for recovery replay.
    pub fn open(cfg: WalConfig) -> io::Result<(ShardWal, OpenReport)> {
        let dir = shard_dir(&cfg.dir, cfg.shard);
        fs::create_dir_all(&dir)?;

        let mut names: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if let Some(seq) = name.to_str().and_then(parse_segment_name) {
                names.push((seq, entry.path()));
            }
        }
        names.sort_by_key(|&(seq, _)| seq);

        let mut report = OpenReport::default();
        let mut segments: Vec<SegmentInfo> = Vec::new();
        let mut max_seq_seen: Option<u64> = None;
        let last_idx = names.len().wrapping_sub(1);
        for (i, (name_seq, path)) in names.iter().enumerate() {
            max_seq_seen = Some(max_seq_seen.map_or(*name_seq, |m: u64| m.max(*name_seq)));
            let mut buf = Vec::new();
            if let Err(err) = File::open(path).and_then(|mut f| f.read_to_end(&mut buf)) {
                report.corrupt_segments += 1;
                report
                    .notes
                    .push(format!("{}: unreadable: {err}", path.display()));
                continue;
            }
            match check_header(&buf, Some(cfg.shard)) {
                Err(why) => {
                    report.corrupt_segments += 1;
                    report.dropped_bytes += buf.len() as u64;
                    report
                        .notes
                        .push(format!("{}: {why}; segment skipped", path.display()));
                    continue;
                }
                Ok((_, header_seq)) if header_seq != *name_seq => {
                    report.corrupt_segments += 1;
                    report.dropped_bytes += buf.len() as u64;
                    report.notes.push(format!(
                        "{}: header seq {header_seq} != file name seq {name_seq}; segment skipped",
                        path.display()
                    ));
                    continue;
                }
                Ok(_) => {}
            }
            let scan = scan_segment_bytes(&buf);
            if let Some(note) = &scan.note {
                report.notes.push(format!("{}: {note}", path.display()));
            }
            report.dropped_bytes += scan.dropped_bytes;
            report.dropped_records += scan.dropped_records;
            if scan.dropped_bytes > 0 && i == last_idx {
                // Torn tail in the newest segment: truncate so appends
                // resume on a clean record boundary.
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(scan.valid_bytes)?;
                f.sync_data()?;
                report.truncated_tail = true;
            }
            let mut footprint: BTreeMap<u64, Footprint> = BTreeMap::new();
            for rec in &scan.records {
                footprint.entry(rec.session_id()).or_default().absorb(rec);
            }
            segments.push(SegmentInfo {
                seq: *name_seq,
                path: path.clone(),
                bytes: scan.valid_bytes,
                footprint,
            });
            report.records.extend(scan.records);
        }

        // The newest intact segment stays active iff it can still take
        // appends; otherwise (or when none exists) start a fresh one whose
        // seq is past everything seen, including corrupt files left behind.
        let next_seq = max_seq_seen.map_or(0, |m| m + 1);
        let (active, active_seq, active_bytes, active_footprint) = match segments.last() {
            Some(last) if Some(last.seq) == max_seq_seen && last.bytes < cfg.segment_bytes => {
                let seg = segments.pop().unwrap();
                let mut f = OpenOptions::new().write(true).read(true).open(&seg.path)?;
                f.seek(SeekFrom::Start(seg.bytes))?;
                (f, seg.seq, seg.bytes, seg.footprint)
            }
            _ => {
                let (f, seq) = Self::create_segment(&dir, cfg.shard, next_seq)?;
                (f, seq, HEADER_BYTES, BTreeMap::new())
            }
        };

        Ok((
            ShardWal {
                cfg,
                dir,
                active,
                active_seq,
                active_bytes,
                active_footprint,
                sealed: segments,
                since_sync: 0,
                dirty: false,
                stats: WalStats::default(),
            },
            report,
        ))
    }

    fn create_segment(dir: &Path, shard: u32, seq: u64) -> io::Result<(File, u64)> {
        let path = dir.join(segment_file_name(seq));
        let mut f = OpenOptions::new()
            .write(true)
            .read(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        f.write_all(&encode_header(shard, seq))?;
        Ok((f, seq))
    }

    /// Append one record, rolling and fsyncing per policy.
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<AppendOutcome> {
        let framed = rec.encode();
        let mut rolled = false;
        if self.active_bytes > HEADER_BYTES
            && self.active_bytes + framed.len() as u64 > self.cfg.segment_bytes
        {
            self.seal_active()?;
            rolled = true;
        }
        self.active.write_all(&framed)?;
        self.active_bytes += framed.len() as u64;
        self.active_footprint
            .entry(rec.session_id())
            .or_default()
            .absorb(rec);
        self.dirty = true;
        self.stats.appended_records += 1;
        self.stats.appended_bytes += framed.len() as u64;

        let synced = match self.cfg.fsync {
            FsyncPolicy::Never => false,
            FsyncPolicy::EveryBatch => {
                self.fsync_active()?;
                true
            }
            FsyncPolicy::EveryN(n) => {
                self.since_sync += 1;
                if self.since_sync >= n {
                    self.fsync_active()?;
                    true
                } else {
                    false
                }
            }
        };
        Ok(AppendOutcome {
            bytes: framed.len() as u64,
            synced,
            rolled,
        })
    }

    fn fsync_active(&mut self) -> io::Result<()> {
        self.active.sync_data()?;
        self.stats.fsyncs += 1;
        self.since_sync = 0;
        self.dirty = false;
        Ok(())
    }

    /// Flush pending bytes to stable storage regardless of policy (used at
    /// graceful shutdown and after checkpoint records). Returns whether an
    /// fsync was actually issued.
    pub fn sync(&mut self) -> io::Result<bool> {
        if self.dirty {
            self.fsync_active()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn seal_active(&mut self) -> io::Result<()> {
        // A sealed segment is immutable history: make it durable before any
        // successor record can land, whatever the append policy says.
        self.active.sync_data()?;
        self.stats.fsyncs += 1;
        self.dirty = false;
        self.since_sync = 0;
        let seq = self.active_seq + 1;
        let (f, seq) = Self::create_segment(&self.dir, self.cfg.shard, seq)?;
        let old = SegmentInfo {
            seq: self.active_seq,
            path: self.dir.join(segment_file_name(self.active_seq)),
            bytes: self.active_bytes,
            footprint: std::mem::take(&mut self.active_footprint),
        };
        self.sealed.push(old);
        self.active = f;
        self.active_seq = seq;
        self.active_bytes = HEADER_BYTES;
        self.stats.rolls += 1;
        Ok(())
    }

    /// Number of segments on disk (sealed + active).
    pub fn segments(&self) -> u64 {
        self.sealed.len() as u64 + 1
    }

    /// Number of sealed (compactable) segments.
    pub fn sealed_segments(&self) -> u64 {
        self.sealed.len() as u64
    }

    /// Total bytes across all live segments.
    pub fn bytes(&self) -> u64 {
        self.sealed.iter().map(|s| s.bytes).sum::<u64>() + self.active_bytes
    }

    /// Remove sealed segments oldest-first while every session referenced by
    /// the segment is either gone or has durable state covering the
    /// segment's highest push tick. `durability` maps a session id to its
    /// current durability status.
    pub fn compact<F>(&mut self, mut durability: F) -> io::Result<CompactOutcome>
    where
        F: FnMut(u64) -> SessionDurability,
    {
        let mut out = CompactOutcome::default();
        while let Some(seg) = self.sealed.first() {
            let removable = seg.footprint.iter().all(|(&sid, fp)| {
                match durability(sid) {
                    SessionDurability::Gone => true,
                    // Keep `Close` records until the session is actually
                    // gone from the durable view — conservative, but avoids
                    // replay ever resurrecting a closed-then-recreated id
                    // out of order.
                    SessionDurability::Durable(_) if fp.has_close => false,
                    SessionDurability::Durable(Some(d)) => d >= fp.max_push_end,
                    SessionDurability::Durable(None) => false,
                }
            });
            if !removable {
                break;
            }
            fs::remove_file(&seg.path)?;
            out.removed_segments += 1;
            out.removed_bytes += seg.bytes;
            self.sealed.remove(0);
        }
        self.stats.compacted_segments += out.removed_segments;
        self.stats.compacted_bytes += out.removed_bytes;
        Ok(out)
    }

    /// Size-based retention on top of watermark compaction: cap the total
    /// bytes held in *sealed* segments at `cap_bytes` (the active segment
    /// is never touched). A normal [`Self::compact`] pass runs first, so
    /// everything durably covered is reclaimed for free; only if the shard
    /// is still over the cap are the oldest sealed segments force-removed
    /// — deliberately sacrificing replay history for those ticks.
    ///
    /// Returns only the force-removed amount; the embedded compaction pass
    /// is accounted under the usual `compacted_*` stats.
    pub fn enforce_retention<F>(
        &mut self,
        cap_bytes: u64,
        durability: F,
    ) -> io::Result<CompactOutcome>
    where
        F: FnMut(u64) -> SessionDurability,
    {
        self.compact(durability)?;
        let mut out = CompactOutcome::default();
        let mut sealed_bytes: u64 = self.sealed.iter().map(|s| s.bytes).sum();
        while sealed_bytes > cap_bytes {
            // sealed_bytes > 0 implies at least one sealed segment exists.
            let seg = self.sealed.remove(0);
            fs::remove_file(&seg.path)?;
            sealed_bytes -= seg.bytes;
            out.removed_segments += 1;
            out.removed_bytes += seg.bytes;
        }
        self.stats.retention_segments += out.removed_segments;
        self.stats.retention_bytes += out.removed_bytes;
        Ok(out)
    }

    /// The shard's configuration.
    pub fn config(&self) -> &WalConfig {
        &self.cfg
    }
}

// ---------------------------------------------------------------------------
// Read-only scanning (cad-replay, tests)
// ---------------------------------------------------------------------------

/// Read-only scan summary for a WAL directory tree.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Shard directories visited.
    pub shards: u64,
    /// Segments read.
    pub segments: u64,
    /// Bytes dropped to corruption or torn tails (nothing is modified).
    pub dropped_bytes: u64,
    /// Records dropped (lower bound).
    pub dropped_records: u64,
    /// Segments skipped for bad headers.
    pub corrupt_segments: u64,
    /// Descriptions of everything dropped.
    pub notes: Vec<String>,
}

/// Scan every shard directory under `base` without modifying anything,
/// returning all intact records in per-shard log order. Sessions live
/// entirely within one shard, so per-session record order is total.
pub fn scan_wal(base: &Path) -> io::Result<(Vec<WalRecord>, ScanReport)> {
    let mut report = ScanReport::default();
    let mut records = Vec::new();
    let mut shard_dirs: Vec<PathBuf> = Vec::new();
    // A base directory that never existed is an empty log, not an error:
    // recovery and replay tooling point here before the first append.
    let entries = match fs::read_dir(base) {
        Ok(entries) => entries,
        Err(err) if err.kind() == io::ErrorKind::NotFound => {
            return Ok((records, report));
        }
        Err(err) => return Err(err),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        if name.to_str().is_some_and(|n| n.starts_with("shard-")) && entry.path().is_dir() {
            shard_dirs.push(entry.path());
        }
    }
    shard_dirs.sort();
    for dir in shard_dirs {
        report.shards += 1;
        let mut names: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_name) {
                names.push((seq, entry.path()));
            }
        }
        names.sort_by_key(|&(seq, _)| seq);
        for (_, path) in names {
            let mut buf = Vec::new();
            if let Err(err) = File::open(&path).and_then(|mut f| f.read_to_end(&mut buf)) {
                report.corrupt_segments += 1;
                report
                    .notes
                    .push(format!("{}: unreadable: {err}", path.display()));
                continue;
            }
            if let Err(why) = check_header(&buf, None) {
                report.corrupt_segments += 1;
                report.dropped_bytes += buf.len() as u64;
                report
                    .notes
                    .push(format!("{}: {why}; segment skipped", path.display()));
                continue;
            }
            report.segments += 1;
            let scan = scan_segment_bytes(&buf);
            if let Some(note) = scan.note {
                report.notes.push(format!("{}: {note}", path.display()));
            }
            report.dropped_bytes += scan.dropped_bytes;
            report.dropped_records += scan.dropped_records;
            records.extend(scan.records);
        }
    }
    Ok((records, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cad-wal-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cfg(dir: &Path, segment_bytes: u64) -> WalConfig {
        WalConfig {
            dir: dir.to_path_buf(),
            shard: 0,
            segment_bytes,
            fsync: FsyncPolicy::Never,
        }
    }

    fn spec() -> WalSpec {
        WalSpec {
            n_sensors: 4,
            w: 32,
            s: 8,
            k: 2,
            tau: 0.3,
            theta: 0.3,
            eta: 3.0,
            rc_horizon: 0,
            engine: WalEngine::Incremental { rebuild_every: 16 },
            gap_policy: WalGapPolicy::Skip,
            reorder_slack: 3,
        }
    }

    fn push(id: u64, base: u64, ticks: usize) -> WalRecord {
        WalRecord::Push {
            session_id: id,
            base_tick: base,
            n_sensors: 4,
            samples: (0..ticks * 4)
                .map(|i| i as f64 * 0.5 + base as f64)
                .collect(),
        }
    }

    #[test]
    fn record_roundtrip_is_bit_exact() {
        let records = vec![
            WalRecord::Create {
                session_id: 7,
                spec: spec(),
            },
            WalRecord::Push {
                session_id: 7,
                base_tick: 42,
                n_sensors: 2,
                samples: vec![1.5, -0.0, f64::NAN, f64::INFINITY, 1e-308, 3.25],
            },
            WalRecord::Checkpoint {
                session_id: 7,
                samples_seen: 45,
            },
            WalRecord::Reshape {
                session_id: 7,
                n_sensors: 6,
                at_tick: 45,
            },
            WalRecord::Close { session_id: 7 },
        ];
        for rec in &records {
            let framed = rec.encode();
            let len = u32::from_le_bytes(framed[0..4].try_into().unwrap()) as usize;
            assert_eq!(len + 8, framed.len());
            let decoded = WalRecord::decode_payload(&framed[8..]).unwrap();
            // NaN != NaN under PartialEq; compare via bit patterns.
            assert_eq!(format!("{:?}", bits(rec)), format!("{:?}", bits(&decoded)));
        }
    }

    fn bits(rec: &WalRecord) -> WalRecord {
        match rec {
            WalRecord::Push {
                session_id,
                base_tick,
                n_sensors,
                samples,
            } => WalRecord::Push {
                session_id: *session_id,
                base_tick: *base_tick,
                n_sensors: *n_sensors,
                samples: samples
                    .iter()
                    .map(|v| f64::from_bits(v.to_bits()))
                    .collect(),
            },
            other => other.clone(),
        }
    }

    #[test]
    fn legacy_create_without_gap_bytes_decodes_to_strict_default() {
        // Records written before the hostile-streams change end right after
        // the engine field; the decoder must fall back to Fail / slack 0.
        let rec = WalRecord::Create {
            session_id: 3,
            spec: WalSpec {
                gap_policy: WalGapPolicy::Fail,
                reorder_slack: 0,
                ..spec()
            },
        };
        let framed = rec.encode();
        let payload = &framed[8..framed.len() - 5]; // drop tag + slack bytes
        let decoded = WalRecord::decode_payload(payload).unwrap();
        match decoded {
            WalRecord::Create { spec: got, .. } => {
                assert_eq!(got.gap_policy, WalGapPolicy::Fail);
                assert_eq!(got.reorder_slack, 0);
                assert_eq!(got.n_sensors, 4);
            }
            other => panic!("expected Create, got {other:?}"),
        }
    }

    #[test]
    fn create_with_unknown_gap_tag_is_rejected() {
        let rec = WalRecord::Create {
            session_id: 3,
            spec: spec(),
        };
        let framed = rec.encode();
        let mut payload = framed[8..].to_vec();
        let tag_at = payload.len() - 5;
        payload[tag_at] = 9;
        assert!(WalRecord::decode_payload(&payload).is_none());
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(
            FsyncPolicy::parse("every_batch"),
            Some(FsyncPolicy::EveryBatch)
        );
        assert_eq!(FsyncPolicy::parse("1"), Some(FsyncPolicy::EveryBatch));
        assert_eq!(FsyncPolicy::parse(" 64 "), Some(FsyncPolicy::EveryN(64)));
        assert_eq!(FsyncPolicy::parse("0"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        assert_eq!(FsyncPolicy::EveryN(8).to_string(), "every_8");
    }

    #[test]
    fn append_reopen_replays_everything() {
        let dir = tmp_dir("reopen");
        let mut appended = Vec::new();
        {
            let (mut wal, report) = ShardWal::open(cfg(&dir, 1 << 20)).unwrap();
            assert!(report.records.is_empty());
            appended.push(WalRecord::Create {
                session_id: 1,
                spec: spec(),
            });
            for i in 0..10u64 {
                appended.push(push(1, i * 3, 3));
            }
            appended.push(WalRecord::Checkpoint {
                session_id: 1,
                samples_seen: 30,
            });
            for rec in &appended {
                wal.append(rec).unwrap();
            }
            wal.sync().unwrap();
        }
        let (_, report) = ShardWal::open(cfg(&dir, 1 << 20)).unwrap();
        assert_eq!(report.records, appended);
        assert_eq!(report.dropped_bytes, 0);
        assert!(!report.truncated_tail);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn small_segments_roll_and_scan_in_order() {
        let dir = tmp_dir("roll");
        let mut appended = Vec::new();
        {
            // Tiny segments: every push rolls.
            let (mut wal, _) = ShardWal::open(cfg(&dir, 256)).unwrap();
            for i in 0..20u64 {
                let rec = push(9, i * 2, 2);
                wal.append(&rec).unwrap();
                appended.push(rec);
            }
            assert!(wal.sealed_segments() > 5, "expected many rolls");
            wal.sync().unwrap();
        }
        let (records, report) = scan_wal(&dir).unwrap();
        assert_eq!(records, appended);
        assert_eq!(report.dropped_bytes, 0);
        let (_, reopen) = ShardWal::open(cfg(&dir, 256)).unwrap();
        assert_eq!(reopen.records, appended);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_and_appends_resume() {
        let dir = tmp_dir("torn");
        {
            let (mut wal, _) = ShardWal::open(cfg(&dir, 1 << 20)).unwrap();
            wal.append(&push(3, 0, 4)).unwrap();
            wal.append(&push(3, 4, 4)).unwrap();
            wal.sync().unwrap();
        }
        // Chop bytes off the tail, mid-record.
        let seg = shard_dir(&dir, 0).join(segment_file_name(0));
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 9)
            .unwrap();

        let (mut wal, report) = ShardWal::open(cfg(&dir, 1 << 20)).unwrap();
        assert_eq!(report.records, vec![push(3, 0, 4)]);
        assert!(report.truncated_tail);
        assert_eq!(report.dropped_records, 1);
        assert!(report.dropped_bytes > 0);
        assert!(!report.notes.is_empty());

        // The log keeps working after truncation, on a clean boundary.
        wal.append(&push(3, 4, 4)).unwrap();
        wal.sync().unwrap();
        let (_, reopen) = ShardWal::open(cfg(&dir, 1 << 20)).unwrap();
        assert_eq!(reopen.records, vec![push(3, 0, 4), push(3, 4, 4)]);
        assert_eq!(reopen.dropped_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_respects_durability() {
        let dir = tmp_dir("compact");
        let (mut wal, _) = ShardWal::open(cfg(&dir, 200)).unwrap();
        wal.append(&WalRecord::Create {
            session_id: 1,
            spec: spec(),
        })
        .unwrap();
        for i in 0..10u64 {
            wal.append(&push(1, i * 2, 2)).unwrap();
        }
        let sealed = wal.sealed_segments();
        assert!(sealed >= 3);

        // No durable state yet: nothing is removable.
        let out = wal.compact(|_| SessionDurability::Durable(None)).unwrap();
        assert_eq!(out.removed_segments, 0);

        // Durable through tick 8: only segments fully below that age out.
        let out = wal
            .compact(|_| SessionDurability::Durable(Some(8)))
            .unwrap();
        assert!(out.removed_segments > 0);
        assert!(wal.sealed_segments() < sealed);

        // Gone: everything sealed ages out.
        let out = wal.compact(|_| SessionDurability::Gone).unwrap();
        assert!(out.removed_segments > 0);
        assert_eq!(wal.sealed_segments(), 0);

        // Replay after compaction only sees the surviving suffix, and the
        // scan must stay clean (no gaps inside segments).
        let (_, report) = ShardWal::open(cfg(&dir, 200)).unwrap();
        assert_eq!(report.dropped_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_caps_sealed_bytes_never_the_active_segment() {
        let dir = tmp_dir("retain");
        let (mut wal, _) = ShardWal::open(cfg(&dir, 200)).unwrap();
        wal.append(&WalRecord::Create {
            session_id: 1,
            spec: spec(),
        })
        .unwrap();
        for i in 0..12u64 {
            wal.append(&push(1, i * 2, 2)).unwrap();
        }
        let sealed = wal.sealed_segments();
        assert!(sealed >= 3);
        let sealed_bytes: u64 = wal.bytes() - HEADER_BYTES; // roughly; cap below forces removals

        // Nothing durable, so compaction alone reclaims nothing — but the
        // byte cap force-removes the oldest sealed segments anyway.
        let cap = sealed_bytes / 3;
        let out = wal
            .enforce_retention(cap, |_| SessionDurability::Durable(None))
            .unwrap();
        assert!(out.removed_segments > 0, "cap must force removals");
        assert_eq!(wal.stats.retention_segments, out.removed_segments);
        assert_eq!(wal.stats.retention_bytes, out.removed_bytes);
        let sealed_after: u64 = wal.sealed_segments();
        assert!(sealed_after < sealed);

        // Oldest-first: the surviving log is a clean suffix.
        let (_, report) = ShardWal::open(cfg(&dir, 200)).unwrap();
        assert_eq!(report.dropped_bytes, 0);
        let first_tick = report
            .records
            .iter()
            .filter_map(|r| r.push_end_tick())
            .next()
            .unwrap();
        assert!(first_tick > 2, "oldest pushes must have been dropped");

        // A cap of 0 clears every sealed segment but never the active one.
        let (mut wal, _) = ShardWal::open(cfg(&dir, 200)).unwrap();
        wal.enforce_retention(0, |_| SessionDurability::Durable(None))
            .unwrap();
        assert_eq!(wal.sealed_segments(), 0);
        assert_eq!(wal.segments(), 1);
        // Appends keep working afterwards.
        wal.append(&push(1, 100, 2)).unwrap();
        wal.sync().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn close_record_blocks_compaction_until_gone() {
        let dir = tmp_dir("close");
        let (mut wal, _) = ShardWal::open(cfg(&dir, 64)).unwrap();
        wal.append(&WalRecord::Close { session_id: 5 }).unwrap();
        wal.append(&push(6, 0, 2)).unwrap(); // forces a roll, sealing the Close
        assert!(wal.sealed_segments() >= 1);
        let out = wal
            .compact(|_| SessionDurability::Durable(Some(1_000_000)))
            .unwrap();
        assert_eq!(
            out.removed_segments, 0,
            "Close pins the segment while the id is durable"
        );
        let out = wal.compact(|_| SessionDurability::Gone).unwrap();
        assert!(out.removed_segments >= 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_is_a_clean_open() {
        let dir = tmp_dir("empty");
        let (wal, report) = ShardWal::open(cfg(&dir, 1 << 20)).unwrap();
        assert!(report.records.is_empty());
        assert_eq!(report.dropped_bytes, 0);
        assert_eq!(wal.segments(), 1);
        assert_eq!(wal.bytes(), HEADER_BYTES);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_policies_count() {
        let dir = tmp_dir("fsync");
        let mut c = cfg(&dir, 1 << 20);
        c.fsync = FsyncPolicy::EveryN(3);
        let (mut wal, _) = ShardWal::open(c).unwrap();
        let mut synced = 0;
        for i in 0..7u64 {
            if wal.append(&push(1, i, 1)).unwrap().synced {
                synced += 1;
            }
        }
        assert_eq!(synced, 2); // after records 3 and 6
        assert_eq!(wal.stats.fsyncs, 2);
        assert!(wal.sync().unwrap()); // record 7 still pending
        assert!(!wal.sync().unwrap()); // now clean
        let _ = fs::remove_dir_all(&dir);
    }
}
