//! Session manager: many independent [`StreamingCad`] detectors behind
//! bounded ingress queues, sharded across worker threads, one drain
//! thread per shard.
//!
//! ## Routing and determinism
//!
//! Every session is owned by exactly one shard (`session_id % n_shards`),
//! and every shard owns a bounded queue and one pump thread. Connection
//! handlers enqueue commands into the owning shard's queue, and its pump
//! drains them in arrival order. Sessions never share state across
//! shards, and one session's commands are only ever handled by its own
//! shard in FIFO order, so each session's outcome stream is exactly what
//! a serial loop over the same pushes would produce, whatever the shard
//! count.
//!
//! ## Backpressure
//!
//! Each shard queue is bounded in *ticks* (pending samples), not
//! commands, so memory stays proportional to the configured capacity no
//! matter how the clients batch. [`SessionManager::would_block`] lets a
//! connection handler emit an explicit
//! [`Backpressure`](crate::protocol::Frame) frame before admission;
//! admission itself is the non-blocking [`SessionManager::try_enqueue`],
//! and a refused push parks the *connection* (interest off), never a
//! thread. One exception keeps the system live: a batch larger than the
//! whole capacity is admitted alone into an empty queue instead of
//! deadlocking.
//!
//! ## Session files
//!
//! A session reaches disk in exactly one form:
//! `spill_dir/session-<id>.cadh`, a `cad-spill v1` header line (payload
//! length, FNV-1a checksum, `n_sensors`, `samples_seen`, then four
//! process counters) followed by the session's full `cad-stream v3`
//! state (ring cursors, ExplainJournal and all; see `cad_core::state`).
//! One writer (tmp file + rename) serves hibernation, the `Snapshot`
//! command and shutdown; one [`Shard`] method reads a file back and
//! makes its session resident. A file stays on disk after it is loaded —
//! the next hibernate, snapshot or shutdown overwrites it — and only
//! `Close` or an unusable payload deletes it.
//!
//! With `hibernate_after_rounds > 0`, a session that sees no push for
//! that many pump sweeps (a sweep is one drain of its shard's queue —
//! roughly one batch under load, one 100 ms idle tick otherwise) is
//! written out and its in-memory state dropped, leaving only a small
//! metadata stub. The next command for that id transparently resurrects
//! it, bit-identical to a never-hibernated run. A damaged payload
//! surfaces as [`codes::RESURRECT_FAILED`], never a panic, and the
//! session is dropped.
//!
//! Restart registers every file from its header alone, as hibernated:
//! nothing is loaded until the session's next command (or until WAL
//! replay has ticks to splice past the file). A header that does not
//! parse fails startup with `InvalidData` naming the file. With a WAL,
//! each file's `samples_seen` seeds the session's durable watermark —
//! the only cross-reference between the files and the log.
//!
//! ## Shutdown
//!
//! Closing the manager wakes every shard's pump, which drains its
//! remaining commands, replies to the waiting handlers, writes each of
//! its resident sessions' files to `spill_dir`, syncs its WAL and exits.
//! A server restarted over the same directories resumes each session
//! mid-window, bit-identically.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cad_core::{
    load_stream, save_stream, CadConfig, CadDetector, EngineChoice, GapPolicy, StreamingCad,
};
use cad_obs::{Gauge, TraceEvent};
use cad_runtime::Timer;
use cad_wal::{
    FsyncPolicy, SessionDurability, ShardWal, WalConfig, WalEngine, WalGapPolicy, WalRecord,
    WalSpec,
};

use crate::metrics;
use crate::protocol::{
    codes, max_push_ticks, SessionSpec, SessionStats, WireEngine, WireGapPolicy, WireOutcome,
    WireRoundRecord,
};
use crate::timing::{self, TickTimings};

/// Admission, queue, pump and hibernation limits for a [`SessionManager`].
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Worker shards (defaults to the `cad-runtime` thread count).
    pub shards: usize,
    /// Maximum live sessions (resident + hibernated) across all shards.
    pub max_sessions: usize,
    /// Maximum sensors per session.
    pub max_sensors: usize,
    /// Per-shard ingress-queue capacity in ticks (pending samples).
    pub queue_capacity: usize,
    /// Forensics-journal capacity applied to every session (rounds
    /// retained for `/explain`; 0 disables journaling). Applied on create
    /// *and* after a session file is loaded, so the server configuration
    /// is authoritative regardless of what a file recorded.
    pub explain_rounds: usize,
    /// Hibernate a session after this many pump sweeps without a push
    /// (0 disables hibernation). Requires `spill_dir`.
    pub hibernate_after_rounds: usize,
    /// The state directory: one `session-<id>.cadh` file per persisted
    /// session, written by hibernation, `Snapshot` and shutdown and read
    /// back at restart. `None` disables all three.
    pub spill_dir: Option<PathBuf>,
    /// Directory for the per-shard write-ahead log of accepted pushes;
    /// `None` disables the WAL (and with it crash recovery between
    /// session-file writes).
    pub wal_dir: Option<PathBuf>,
    /// Fsync policy for WAL appends (see [`cad_wal::FsyncPolicy`]).
    pub wal_fsync: FsyncPolicy,
    /// WAL segment size cap in bytes; appends past it roll to a new
    /// segment file.
    pub wal_segment_bytes: u64,
    /// Size-based WAL retention: cap on total sealed-segment bytes per
    /// shard (0 disables). Over the cap, the oldest sealed segments are
    /// force-removed after watermark compaction — sacrificing replay
    /// history, never the active segment.
    pub wal_retain_bytes: u64,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        Self {
            shards: cad_runtime::effective_threads(),
            max_sessions: 4096,
            max_sensors: 1024,
            queue_capacity: 8192,
            explain_rounds: 256,
            hibernate_after_rounds: 0,
            spill_dir: None,
            wal_dir: None,
            wal_fsync: FsyncPolicy::EveryBatch,
            wal_segment_bytes: cad_wal::DEFAULT_SEGMENT_BYTES,
            wal_retain_bytes: 0,
        }
    }
}

/// Reply to one command, delivered through the command's own channel.
#[derive(Debug)]
pub enum Reply {
    /// Session created or re-attached.
    Created {
        /// Whether the session already existed.
        resumed: bool,
        /// Samples consumed so far.
        samples_seen: u64,
    },
    /// Batch processed; rounds it completed, in tick order.
    Pushed {
        /// Completed detection rounds, in tick order.
        outcomes: Vec<WireOutcome>,
        /// Per-stage latency breakdown of this push; `None` on paths that
        /// bypass the timed pump pipeline.
        timings: Option<TickTimings>,
    },
    /// Sensor set resized; the count now in effect.
    Reshaped {
        /// Sensor count after the reshape.
        n_sensors: u32,
    },
    /// Snapshot written (bytes).
    Snapshotted(u64),
    /// Session dropped.
    Closed,
    /// Per-session counters.
    Stats(SessionStats),
    /// The session's forensics journal, oldest record first.
    Explained(Vec<WireRoundRecord>),
    /// One row per live session (see [`Command::SessionTable`]).
    Sessions(Vec<SessionRow>),
    /// Command failed with a protocol error code.
    Failed {
        /// One of [`codes`].
        code: u16,
        /// Description for the client.
        message: String,
    },
}

/// Where a [`Reply`] goes: a blocking handler's private channel, or the
/// poller path's shared reply router keyed by connection token.
#[derive(Debug, Clone)]
pub enum ReplyTo {
    /// One-shot channel a blocking caller is `recv`ing on.
    Channel(Sender<Reply>),
    /// Shared router channel; the reply is tagged with the token so the
    /// router can find the connection it belongs to.
    Routed {
        /// The reply router's ingress.
        tx: Sender<(u64, Reply)>,
        /// Connection token the router resolves.
        token: u64,
    },
}

impl From<Sender<Reply>> for ReplyTo {
    fn from(tx: Sender<Reply>) -> Self {
        ReplyTo::Channel(tx)
    }
}

impl ReplyTo {
    /// Deliver the reply. A receiver that gave up (dead connection) is
    /// not an error.
    pub fn send(&self, reply: Reply) {
        match self {
            ReplyTo::Channel(tx) => {
                let _ = tx.send(reply);
            }
            ReplyTo::Routed { tx, token } => {
                let _ = tx.send((*token, reply));
            }
        }
    }
}

/// A command routed through the ingress queues to a session's shard.
#[derive(Debug)]
pub enum Command {
    /// Create or re-attach.
    Create {
        /// Caller-chosen id.
        session_id: u64,
        /// Detector parameters.
        spec: SessionSpec,
        /// Reply destination.
        reply: ReplyTo,
    },
    /// Feed a batch of ticks.
    Push {
        /// Target session.
        session_id: u64,
        /// Expected `samples_seen` at admission.
        base_tick: u64,
        /// Claimed width.
        n_sensors: u32,
        /// `n_ticks × n_sensors` readings, tick-major.
        samples: Vec<f64>,
        /// Reply destination.
        reply: ReplyTo,
    },
    /// Resize a session's sensor set mid-stream (sensor churn).
    Reshape {
        /// Target session.
        session_id: u64,
        /// New sensor count.
        n_sensors: u32,
        /// Reply destination.
        reply: ReplyTo,
    },
    /// Persist one session now.
    Snapshot {
        /// Target session.
        session_id: u64,
        /// Reply destination.
        reply: ReplyTo,
    },
    /// Drop one session.
    Close {
        /// Target session.
        session_id: u64,
        /// Reply destination.
        reply: ReplyTo,
    },
    /// Read one session's counters.
    Stats {
        /// Target session.
        session_id: u64,
        /// Reply destination.
        reply: ReplyTo,
    },
    /// Read one session's forensics journal.
    Explain {
        /// Target session.
        session_id: u64,
        /// Reply destination.
        reply: ReplyTo,
    },
    /// Read the session table of the *receiving* shard, answered in
    /// queue order by its pump;
    /// [`SessionManager::request_session_table`] broadcasts one per shard
    /// and the caller merges the rows into the cross-shard table.
    SessionTable {
        /// Reply destination.
        reply: ReplyTo,
    },
}

/// Residency of one session as reported by [`SessionRow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Detector state resident in memory.
    Active,
    /// State spilled to `spill_dir`; resurrects on the next command.
    Hibernated,
}

/// One live session as reported by [`Reply::Sessions`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRow {
    /// Shard that owns the session.
    pub shard: u32,
    /// Session id.
    pub session_id: u64,
    /// Sensor count.
    pub n_sensors: u32,
    /// Samples consumed so far.
    pub samples_seen: u64,
    /// Rounds completed since this process started serving the session.
    pub rounds: u64,
    /// Abnormal rounds since this process started serving the session.
    pub anomalies: u64,
    /// Whether the session was recovered at startup (file or WAL).
    pub resumed: bool,
    /// Resident in memory or hibernated to its session file.
    pub state: SessionState,
    /// `rounds` as of the last accepted push (how stale the stream is).
    pub last_push_round: u64,
    /// Sensors still inside the reshape warm-up quarantine (0 for
    /// hibernated rows: their frozen quarantine state lives in the file
    /// and is reloaded on resurrection).
    pub quarantined_sensors: u32,
    /// Rounds until every quarantined sensor is eligible again (0 when
    /// nothing is quarantined, and for hibernated rows).
    pub warmup_rounds_left: u64,
}

/// The work half of a [`Command`], split from its reply channel so a
/// panicking command can still be answered (see [`Shard::run`]).
enum Work {
    Create {
        spec: SessionSpec,
    },
    Push {
        base_tick: u64,
        n_sensors: u32,
        samples: Vec<f64>,
    },
    Reshape {
        n_sensors: u32,
    },
    Snapshot,
    Close,
    Stats,
    Explain,
}

impl Command {
    /// The target session (drives shard routing).
    pub fn session_id(&self) -> u64 {
        match self {
            Command::Create { session_id, .. }
            | Command::Push { session_id, .. }
            | Command::Reshape { session_id, .. }
            | Command::Snapshot { session_id, .. }
            | Command::Close { session_id, .. }
            | Command::Stats { session_id, .. }
            | Command::Explain { session_id, .. } => *session_id,
            // Broadcast to every shard, never routed by session (see
            // `request_session_table`).
            Command::SessionTable { .. } => 0,
        }
    }

    /// Queue cost in ticks (only pushes occupy capacity).
    pub fn cost(&self) -> usize {
        match self {
            Command::Push {
                samples, n_sensors, ..
            } => samples.len() / (*n_sensors).max(1) as usize,
            _ => 0,
        }
    }

    fn into_parts(self) -> (u64, Work, ReplyTo) {
        match self {
            Command::Create {
                session_id,
                spec,
                reply,
            } => (session_id, Work::Create { spec }, reply),
            Command::Push {
                session_id,
                base_tick,
                n_sensors,
                samples,
                reply,
            } => (
                session_id,
                Work::Push {
                    base_tick,
                    n_sensors,
                    samples,
                },
                reply,
            ),
            Command::Reshape {
                session_id,
                n_sensors,
                reply,
            } => (session_id, Work::Reshape { n_sensors }, reply),
            Command::Snapshot { session_id, reply } => (session_id, Work::Snapshot, reply),
            Command::Close { session_id, reply } => (session_id, Work::Close, reply),
            Command::Stats { session_id, reply } => (session_id, Work::Stats, reply),
            Command::Explain { session_id, reply } => (session_id, Work::Explain, reply),
            Command::SessionTable { .. } => {
                unreachable!("SessionTable is answered by Shard::run before the split")
            }
        }
    }
}

/// Server-wide counters, shared between shards, handlers and stats frames.
#[derive(Debug, Default)]
pub struct Counters {
    /// Live sessions (resident + hibernated).
    pub sessions: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Samples consumed.
    pub total_ticks: AtomicU64,
    /// Rounds completed.
    pub total_rounds: AtomicU64,
    /// Abnormal rounds.
    pub total_anomalies: AtomicU64,
    /// Backpressure frames emitted.
    pub backpressure_events: AtomicU64,
    /// High-water mark of total pending ticks across all shard queues.
    pub peak_queue_depth: AtomicU64,
    /// Sessions hibernated to their session files.
    pub hibernations: AtomicU64,
    /// Sessions resurrected from the hibernation tier.
    pub resurrections: AtomicU64,
}

/// Aggregate WAL counters shared across shards (the `/wal` ops endpoint
/// and `ServerStats` read these; the authoritative per-event metrics live
/// in the registry).
#[derive(Debug, Default)]
pub struct WalCounters {
    /// Records appended across all shards.
    pub appends: AtomicU64,
    /// Bytes appended (framing included).
    pub appended_bytes: AtomicU64,
    /// fsync calls issued.
    pub fsyncs: AtomicU64,
    /// Appends that failed with an I/O error (served anyway; logged).
    pub append_errors: AtomicU64,
    /// Live segment files across all shards.
    pub segments: AtomicI64,
    /// Bytes across all live segments.
    pub bytes: AtomicI64,
    /// Sealed segments removed by compaction.
    pub compacted_segments: AtomicU64,
    /// Sealed segments force-removed by size-based retention.
    pub retention_segments: AtomicU64,
    /// Bytes reclaimed by size-based retention.
    pub retention_bytes: AtomicU64,
    /// Records replayed during recovery at startup.
    pub recovery_records: AtomicU64,
    /// Ticks applied to sessions during recovery replay.
    pub recovery_ticks: AtomicU64,
    /// Records dropped during recovery (corruption, torn tails,
    /// undecodable specs).
    pub recovery_dropped_records: AtomicU64,
    /// Bytes dropped during recovery.
    pub recovery_dropped_bytes: AtomicU64,
    /// Tick-gap splice failures during recovery (batches skipped because
    /// preceding ticks were missing).
    pub recovery_gaps: AtomicU64,
}

/// Point-in-time WAL health, as served by the `/wal` ops endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct WalStatus {
    /// Base WAL directory.
    pub dir: PathBuf,
    /// Configured fsync policy (display form).
    pub fsync: String,
    /// Configured segment size cap.
    pub segment_bytes: u64,
    /// Records appended since start.
    pub appends: u64,
    /// Bytes appended since start.
    pub appended_bytes: u64,
    /// fsyncs issued since start.
    pub fsyncs: u64,
    /// Failed appends since start.
    pub append_errors: u64,
    /// Live segment files.
    pub segments: u64,
    /// Bytes across live segments.
    pub bytes: u64,
    /// Segments removed by compaction.
    pub compacted_segments: u64,
    /// Configured sealed-byte retention cap (0 = unlimited).
    pub retain_bytes: u64,
    /// Sealed segments force-removed by size-based retention.
    pub retention_segments: u64,
    /// Bytes reclaimed by size-based retention.
    pub retention_bytes: u64,
    /// Records replayed at startup.
    pub recovery_records: u64,
    /// Ticks applied at startup.
    pub recovery_ticks: u64,
    /// Records dropped at startup.
    pub recovery_dropped_records: u64,
    /// Bytes dropped at startup.
    pub recovery_dropped_bytes: u64,
    /// Splice gaps hit at startup.
    pub recovery_gaps: u64,
}

///// One monitored deployment: a streaming detector plus its counters.
#[derive(Debug)]
struct Session {
    stream: StreamingCad,
    rounds: u64,
    anomalies: u64,
    /// Recovered at startup from a session file or the WAL (surfaces in
    /// the `/sessions` table so an operator can tell recovered state from
    /// fresh state).
    resumed: bool,
    /// Owning shard's sweep counter at the last accepted push (or
    /// create/resurrect); drives the hibernation idle test.
    last_push_sweep: u64,
    /// `rounds` as of the last accepted push.
    last_push_round: u64,
}

impl Session {
    fn stats(&self, session_id: u64) -> SessionStats {
        SessionStats {
            session_id,
            n_sensors: self.stream.detector().n_sensors() as u32,
            ticks: self.stream.samples_seen() as u64,
            rounds: self.rounds,
            anomalies: self.anomalies,
        }
    }

    fn row(&self, shard: u32, session_id: u64) -> SessionRow {
        let detector = self.stream.detector();
        SessionRow {
            shard,
            session_id,
            n_sensors: detector.n_sensors() as u32,
            samples_seen: self.stream.samples_seen() as u64,
            rounds: self.rounds,
            anomalies: self.anomalies,
            resumed: self.resumed,
            state: SessionState::Active,
            last_push_round: self.last_push_round,
            quarantined_sensors: detector.quarantined_sensors() as u32,
            warmup_rounds_left: detector.warmup_rounds_left() as u64,
        }
    }
}

/// What a shard remembers about a hibernated session without loading it:
/// enough to answer the `/sessions` table and to restore the non-stream
/// counters on resurrection. The counters are process-relative: a restart
/// registers them as zero, with `resumed` set.
#[derive(Debug, Clone, Copy)]
struct HibernatedMeta {
    n_sensors: u32,
    samples_seen: u64,
    rounds: u64,
    anomalies: u64,
    resumed: bool,
    last_push_round: u64,
}

impl HibernatedMeta {
    fn of(session: &Session) -> Self {
        Self {
            n_sensors: session.stream.detector().n_sensors() as u32,
            samples_seen: session.stream.samples_seen() as u64,
            rounds: session.rounds,
            anomalies: session.anomalies,
            resumed: session.resumed,
            last_push_round: session.last_push_round,
        }
    }

    fn row(&self, shard: u32, session_id: u64) -> SessionRow {
        SessionRow {
            shard,
            session_id,
            n_sensors: self.n_sensors,
            samples_seen: self.samples_seen,
            rounds: self.rounds,
            anomalies: self.anomalies,
            resumed: self.resumed,
            state: SessionState::Hibernated,
            last_push_round: self.last_push_round,
            quarantined_sensors: 0,
            warmup_rounds_left: 0,
        }
    }
}

/// One worker shard: the sessions it owns, keyed by id.
#[derive(Debug)]
struct Shard {
    /// Global shard index (`session_id % n_shards` routes here).
    index: usize,
    sessions: BTreeMap<u64, Session>,
    /// Hibernated sessions: metadata stub only, state lives on disk.
    hibernated: BTreeMap<u64, HibernatedMeta>,
    /// Resident-session gauge for this shard
    /// (`serve_shard_sessions{shard=i}`), resolved once at construction.
    sessions_gauge: Arc<Gauge>,
    /// Drains of this shard's queue since process start; the hibernation
    /// clock.
    sweep: u64,
    /// Earliest sweep at which the hibernation scan could find an idle
    /// session; while `sweep < hibernate_check_at` the O(resident) scan is
    /// skipped entirely. Pulled earlier on every push/create/resurrect,
    /// recomputed after every scan.
    hibernate_check_at: u64,
    /// This shard's write-ahead log; `None` when the WAL is disabled.
    wal: Option<ShardWal>,
    /// Per-session durable watermark (WAL only): `samples_seen` covered by
    /// the session's file on disk, seeded from file headers at restart and
    /// advanced by every write. Presence implies the file exists; drives
    /// WAL compaction.
    durable: BTreeMap<u64, u64>,
    /// Set when an append rolled a segment: a compaction pass may now be
    /// able to reclaim the sealed file.
    wal_compact_pending: bool,
}

impl Shard {
    fn new(index: usize) -> Self {
        Self {
            index,
            sessions: BTreeMap::new(),
            hibernated: BTreeMap::new(),
            sessions_gauge: metrics::shard_sessions_gauge(index),
            sweep: 0,
            hibernate_check_at: 0,
            wal: None,
            durable: BTreeMap::new(),
            wal_compact_pending: false,
        }
    }

    /// All rows this shard owns, ordered by session id.
    fn rows(&self) -> Vec<SessionRow> {
        let shard = self.index as u32;
        let mut rows: Vec<SessionRow> = self
            .sessions
            .iter()
            .map(|(&id, s)| s.row(shard, id))
            .chain(self.hibernated.iter().map(|(&id, m)| m.row(shard, id)))
            .collect();
        rows.sort_by_key(|r| r.session_id);
        rows
    }
}

#[derive(Default)]
struct IngressQueue {
    /// Pending commands, each stamped with its admission instant so the
    /// pump can attribute ingress-queue wait per push.
    jobs: VecDeque<(Command, Instant)>,
    pending_ticks: usize,
}

/// One shard's bounded ingress queue.
#[derive(Default)]
struct ShardQueue {
    q: Mutex<IngressQueue>,
    not_empty: Condvar,
}

struct Shared {
    cfg: ManagerConfig,
    /// One queue per shard, indexed like the shards.
    queues: Vec<ShardQueue>,
    closed: AtomicBool,
    /// Total pending ticks across all shard queues — the global depth
    /// gauge without any cross-queue lock ordering.
    pending_total: AtomicI64,
    counters: Counters,
    /// Aggregate WAL counters; `Some` iff the WAL is enabled.
    wal: Option<WalCounters>,
}

impl Shared {
    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}

/// Handle used by connection handlers to submit commands and read
/// counters. Cloneable; the pump thread holds the shards.
#[derive(Clone)]
pub struct SessionManager {
    shared: Arc<Shared>,
}

/// The pump half: owns the shards and runs one drain thread per shard
/// until the manager is closed; each then persists its resident sessions.
pub struct SessionPump {
    shared: Arc<Shared>,
    shards: Vec<Shard>,
}

/// Errors surfaced by [`SessionManager::request_session_table`].
#[derive(Debug, PartialEq, Eq)]
pub enum EnqueueError {
    /// The queue is closed: the server is shutting down.
    ShuttingDown,
}

/// Errors surfaced by [`SessionManager::try_enqueue`]; both hand the
/// command back so the caller can defer it without cloning.
#[derive(Debug)]
pub enum TryEnqueueError {
    /// The manager is closed: the server is shutting down.
    ShuttingDown(Command),
    /// Admission would block; retry after the shard drains.
    Full(Command),
}

fn validate_spec(spec: &SessionSpec, max_sensors: usize) -> Result<CadConfig, (u16, String)> {
    let n = spec.n_sensors as usize;
    if n < 2 {
        return Err((codes::BAD_SPEC, "a session needs at least 2 sensors".into()));
    }
    if n > max_sensors {
        return Err((
            codes::ADMISSION,
            format!("{n} sensors exceeds the per-session limit of {max_sensors}"),
        ));
    }
    // A width no push frame can carry even one tick of would make the
    // session permanently unfeedable; refuse it at the door.
    if max_push_ticks(spec.n_sensors) == 0 {
        return Err((
            codes::BAD_SPEC,
            format!("{n} sensors leaves no room for even one tick per push frame"),
        ));
    }
    if spec.w == 0 || spec.s == 0 || spec.s > spec.w {
        return Err((
            codes::BAD_SPEC,
            format!(
                "window must satisfy 1 <= s <= w, got w={} s={}",
                spec.w, spec.s
            ),
        ));
    }
    if !(0.0..=1.0).contains(&spec.theta) {
        return Err((
            codes::BAD_SPEC,
            format!("theta {} not in [0,1]", spec.theta),
        ));
    }
    // NaN η must be refused too, hence the negated comparison shape.
    if spec.eta.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err((
            codes::BAD_SPEC,
            format!("eta {} must be positive", spec.eta),
        ));
    }
    // KnnConfig asserts τ ∈ [0,1]; refusing the same range here (NaN
    // fails contains() too) keeps a well-formed frame from panicking a
    // shard worker and taking the pump thread down with it.
    if !(0.0..=1.0).contains(&spec.tau) {
        return Err((codes::BAD_SPEC, format!("tau {} not in [0,1]", spec.tau)));
    }
    // CoappearanceTracker asserts a horizon of at least one round.
    if spec.rc_horizon == Some(0) {
        return Err((
            codes::BAD_SPEC,
            "rc_horizon must be at least 1 round".into(),
        ));
    }
    let engine = match spec.engine {
        WireEngine::Exact => EngineChoice::Exact,
        WireEngine::Incremental { rebuild_every } => {
            if rebuild_every == 0 {
                return Err((codes::BAD_SPEC, "rebuild_every must be at least 1".into()));
            }
            EngineChoice::Incremental {
                rebuild_every: rebuild_every as usize,
            }
        }
    };
    Ok(CadConfig::builder(n)
        .window(spec.w as usize, spec.s as usize)
        .k((spec.k as usize).max(1))
        .tau(spec.tau)
        .theta(spec.theta)
        .eta(spec.eta)
        .rc_horizon(spec.rc_horizon.map(|h| h as usize))
        .engine(engine)
        .gap_policy(core_gap_policy(spec.gap_policy))
        .reorder_slack(spec.reorder_slack as usize)
        .build())
}

fn core_gap_policy(policy: WireGapPolicy) -> GapPolicy {
    match policy {
        WireGapPolicy::Fail => GapPolicy::Fail,
        WireGapPolicy::Skip => GapPolicy::Skip,
        WireGapPolicy::HoldLast => GapPolicy::HoldLast,
    }
}

/// The WAL's self-describing copy of a wire spec (recorded in `Create`).
fn wal_spec_of(spec: &SessionSpec) -> WalSpec {
    WalSpec {
        n_sensors: spec.n_sensors,
        w: spec.w,
        s: spec.s,
        k: spec.k,
        tau: spec.tau,
        theta: spec.theta,
        eta: spec.eta,
        rc_horizon: spec.rc_horizon.unwrap_or(0),
        engine: match spec.engine {
            WireEngine::Exact => WalEngine::Exact,
            WireEngine::Incremental { rebuild_every } => WalEngine::Incremental { rebuild_every },
        },
        gap_policy: match spec.gap_policy {
            WireGapPolicy::Fail => WalGapPolicy::Fail,
            WireGapPolicy::Skip => WalGapPolicy::Skip,
            WireGapPolicy::HoldLast => WalGapPolicy::HoldLast,
        },
        reorder_slack: spec.reorder_slack,
    }
}

/// Map a logged [`WalSpec`] back to the wire spec it was recorded from.
pub fn session_spec_from_wal(spec: &WalSpec) -> SessionSpec {
    SessionSpec {
        n_sensors: spec.n_sensors,
        w: spec.w,
        s: spec.s,
        k: spec.k,
        tau: spec.tau,
        theta: spec.theta,
        eta: spec.eta,
        rc_horizon: (spec.rc_horizon != 0).then_some(spec.rc_horizon),
        engine: match spec.engine {
            WalEngine::Exact => WireEngine::Exact,
            WalEngine::Incremental { rebuild_every } => WireEngine::Incremental { rebuild_every },
        },
        gap_policy: match spec.gap_policy {
            WalGapPolicy::Fail => WireGapPolicy::Fail,
            WalGapPolicy::Skip => WireGapPolicy::Skip,
            WalGapPolicy::HoldLast => WireGapPolicy::HoldLast,
        },
        reorder_slack: spec.reorder_slack,
    }
}

/// Validate a logged spec and build its detector config. Mirrors the wire
/// path's screening so a corrupt-but-CRC-valid `Create` record fails
/// recovery (or replay) gracefully instead of panicking a constructor.
/// Public for `cad-replay`, which re-runs logged sessions without ever
/// speaking the wire protocol.
pub fn config_from_wal_spec(spec: &WalSpec) -> Result<CadConfig, String> {
    validate_spec(&session_spec_from_wal(spec), usize::MAX).map_err(|(_, msg)| msg)
}

// ---------------------------------------------------------------------
// Session files
//
// `session-<id>.cadh`: a single ASCII header line
//
//   cad-spill v1 <payload_len> <fnv1a64 hex16> <n_sensors> \
//     <samples_seen> <rounds> <anomalies> <resumed 0|1> <last_push_round>
//
// followed by the raw `cad-stream v3` payload. Length + checksum catch a
// truncated or bit-flipped payload before `load_stream` ever parses it;
// `n_sensors` and `samples_seen` let a restart register the session (and
// seed its WAL watermark) without reading the payload. The four counters
// are the writing process's view, kept for operators; they are never
// read back, because a restart starts process-relative counters at zero.
// ---------------------------------------------------------------------

const FILE_MAGIC: &str = "cad-spill v1";

fn session_path(dir: &Path, session_id: u64) -> PathBuf {
    dir.join(format!("session-{session_id}.cadh"))
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn file_header(payload: &[u8], meta: &HibernatedMeta) -> String {
    format!(
        "{FILE_MAGIC} {} {:016x} {} {} {} {} {} {}\n",
        payload.len(),
        fnv1a64(payload),
        meta.n_sensors,
        meta.samples_seen,
        meta.rounds,
        meta.anomalies,
        meta.resumed as u8,
        meta.last_push_round,
    )
}

/// Parse a header line into `(payload_len, checksum, n_sensors,
/// samples_seen)`, checking that the unread counters are well-formed too.
fn parse_file_header(line: &str) -> Option<(usize, u64, u32, u64)> {
    let fields: Vec<&str> = line.strip_prefix(FILE_MAGIC)?.split_whitespace().collect();
    if fields.len() != 8
        || !matches!(fields[6], "0" | "1")
        || [fields[4], fields[5], fields[7]]
            .iter()
            .any(|f| f.parse::<u64>().is_err())
    {
        return None;
    }
    Some((
        fields[0].parse().ok()?,
        u64::from_str_radix(fields[1], 16).ok()?,
        fields[2].parse().ok()?,
        fields[3].parse().ok()?,
    ))
}

fn bad_file(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Read only a session file's header line, as `(n_sensors,
/// samples_seen)`: restart registers the session from it and leaves the
/// payload on disk. Every error names the file.
fn read_file_header(path: &Path) -> std::io::Result<(u32, u64)> {
    let mut line = String::new();
    if let Err(e) =
        std::fs::File::open(path).and_then(|f| std::io::BufReader::new(f).read_line(&mut line))
    {
        return Err(std::io::Error::new(
            e.kind(),
            format!("{}: {e}", path.display()),
        ));
    }
    parse_file_header(line.trim_end_matches('\n'))
        .map(|(_, _, n_sensors, samples_seen)| (n_sensors, samples_seen))
        .ok_or_else(|| {
            bad_file(format!(
                "{}: malformed session file header (expected `{FILE_MAGIC} …`)",
                path.display()
            ))
        })
}

/// Read, verify and decode a full session file.
fn read_file_payload(path: &Path, explain_rounds: usize) -> std::io::Result<StreamingCad> {
    let bytes = std::fs::read(path)?;
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| bad_file("session file has no header line"))?;
    let header = std::str::from_utf8(&bytes[..nl])
        .map_err(|_| bad_file("session file header is not UTF-8"))?;
    let (payload_len, checksum, _, _) =
        parse_file_header(header).ok_or_else(|| bad_file("malformed session file header"))?;
    let payload = &bytes[nl + 1..];
    if payload.len() != payload_len {
        return Err(bad_file(format!(
            "session payload is {} bytes, header says {payload_len}",
            payload.len()
        )));
    }
    let got = fnv1a64(payload);
    if got != checksum {
        return Err(bad_file(format!(
            "session file checksum mismatch: file says {checksum:016x}, payload hashes to {got:016x}"
        )));
    }
    let mut stream = load_stream(payload)
        .map_err(|e| bad_file(format!("session payload does not decode: {e}")))?;
    stream.set_explain_capacity(explain_rounds);
    Ok(stream)
}

/// Test-only fault injection: while the file named by
/// `CAD_WAL_TEST_STALL_FILE` exists, every fourth WAL append sleeps a
/// large multiple (12× / 16×) of `CAD_WAL_TEST_STALL_MS` milliseconds
/// (default 50) while the rest run untouched — what a real disk
/// brown-out looks like: intermittent huge fsync spikes between
/// normal-speed writes. The intermittency is what makes the self-watch
/// drill honest: a *constant* delay on *every* append merely scales the
/// WAL latency metrics, leaving them perfectly proportional to load —
/// hence perfectly correlated, breaking nothing upstream. With sparse
/// spikes, a sampling interval holding a spike shows huge WAL time but
/// *few* completed ticks, and full-speed intervals show the opposite —
/// the WAL timings actively decorrelate from throughput, which is the
/// break the embedded detector is meant to catch. The delay lands
/// inside the timed append window, so it must surface in the
/// `wal_append` stage histogram and in `/slowz`. Zero cost unless the
/// variable is set.
fn wal_test_stall() {
    static STALL: std::sync::OnceLock<Option<(PathBuf, u64)>> = std::sync::OnceLock::new();
    let Some((path, ms)) = STALL.get_or_init(|| {
        let path = std::env::var_os("CAD_WAL_TEST_STALL_FILE")?;
        let ms = std::env::var("CAD_WAL_TEST_STALL_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(50);
        Some((PathBuf::from(path), ms))
    }) else {
        return;
    };
    if path.exists() {
        static TICKS: AtomicU64 = AtomicU64::new(0);
        const PATTERN: [u64; 8] = [0, 0, 0, 12, 0, 0, 0, 16];
        let k = TICKS.fetch_add(1, Ordering::Relaxed) as usize;
        std::thread::sleep(Duration::from_millis(*ms * PATTERN[k % PATTERN.len()]));
    }
}

/// The two pipeline stages measured before a command reaches its shard:
/// ingress-queue wait and pump dispatch. Computed in [`Shard::run`] and
/// handed to `exec` so a push can fill the leading fields of its
/// [`TickTimings`].
#[derive(Debug, Clone, Copy)]
struct StageLead {
    queue_nanos: u64,
    dispatch_nanos: u64,
}

/// Nanoseconds from `a` to `b`, saturating at zero if the instants are
/// out of order (they come from different threads' reads of the same
/// monotonic clock).
fn nanos_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a)
        .as_nanos()
        .min(u64::MAX as u128) as u64
}

/// Nanoseconds elapsed since `started`.
fn nanos_since(started: Instant) -> u64 {
    nanos_between(started, Instant::now())
}

impl Shard {
    /// Append one record to this shard's WAL. An I/O failure is counted
    /// and logged but never takes serving down: the WAL degrades to a
    /// shorter recoverable suffix, it does not become an availability
    /// dependency.
    fn wal_append(&mut self, shared: &Shared, rec: &WalRecord) {
        let Some(wal) = self.wal.as_mut() else {
            return;
        };
        let started = Instant::now();
        wal_test_stall();
        match wal.append(rec) {
            Ok(out) => {
                metrics::wal_append_latency().record_duration(started.elapsed());
                if out.synced {
                    metrics::wal_fsyncs_total().inc();
                }
                if out.rolled {
                    self.wal_compact_pending = true;
                    metrics::wal_segments_gauge().add(1);
                }
                metrics::wal_bytes_gauge().add(out.bytes as i64);
                if let Some(w) = &shared.wal {
                    w.appends.fetch_add(1, Ordering::Relaxed);
                    w.appended_bytes.fetch_add(out.bytes, Ordering::Relaxed);
                    if out.synced {
                        w.fsyncs.fetch_add(1, Ordering::Relaxed);
                    }
                    if out.rolled {
                        w.segments.fetch_add(1, Ordering::Relaxed);
                    }
                    w.bytes.fetch_add(out.bytes as i64, Ordering::Relaxed);
                }
            }
            Err(e) => {
                metrics::wal_append_errors_total().inc();
                if let Some(w) = &shared.wal {
                    w.append_errors.fetch_add(1, Ordering::Relaxed);
                }
                eprintln!("cad-serve: shard {}: WAL append failed: {e}", self.index);
            }
        }
    }

    /// Write one resident session's file (tmp file + rename) and advance
    /// its durable watermark; returns the bytes written. The only writer
    /// of session files: hibernation, `Snapshot` and shutdown all land
    /// here. With the WAL on and a policy other than `never`, the file is
    /// fsynced before the rename and the directory after it, so compaction
    /// never trusts a watermark whose file could vanish with the page
    /// cache.
    fn persist(&mut self, cfg: &ManagerConfig, session_id: u64) -> std::io::Result<u64> {
        let dir = cfg
            .spill_dir
            .as_deref()
            .expect("callers check for a spill_dir");
        let session = &self.sessions[&session_id];
        let mut payload = Vec::new();
        save_stream(&session.stream, &mut payload)?;
        let mut buf = file_header(&payload, &HibernatedMeta::of(session)).into_bytes();
        buf.extend_from_slice(&payload);
        let samples_seen = session.stream.samples_seen() as u64;
        let sync = self.wal.is_some() && cfg.wal_fsync != FsyncPolicy::Never;
        let tmp = dir.join(format!("session-{session_id}.cadh.tmp"));
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&buf)?;
        if sync {
            file.sync_all()?;
        }
        drop(file);
        std::fs::rename(&tmp, session_path(dir, session_id))?;
        if sync {
            std::fs::File::open(dir)?.sync_all()?;
        }
        if self.wal.is_some() {
            self.durable.insert(session_id, samples_seen);
        }
        cad_obs::tracer().emit(TraceEvent::SnapshotSaved { session_id });
        Ok(buf.len() as u64)
    }

    /// Log a session's removal and forget its durable watermark.
    fn wal_close(&mut self, shared: &Shared, session_id: u64) {
        if self.wal.is_none() {
            return;
        }
        self.durable.remove(&session_id);
        self.wal_append(shared, &WalRecord::Close { session_id });
    }

    /// Reclaim sealed segments whose every tick has aged out of every
    /// referenced session's recovery window (durable state covers it, or
    /// the session is gone). Cheap no-op unless an append rolled a segment
    /// since the last pass.
    fn wal_compact(&mut self, shared: &Shared) {
        if !self.wal_compact_pending {
            return;
        }
        self.wal_compact_pending = false;
        let Some(wal) = self.wal.as_mut() else {
            return;
        };
        let sessions = &self.sessions;
        let hibernated = &self.hibernated;
        let durable = &self.durable;
        match wal.compact(|sid| {
            if sessions.contains_key(&sid) || hibernated.contains_key(&sid) {
                SessionDurability::Durable(durable.get(&sid).copied())
            } else {
                SessionDurability::Gone
            }
        }) {
            Ok(out) if out.removed_segments > 0 => {
                metrics::wal_compactions_total().add(out.removed_segments);
                metrics::wal_segments_gauge().sub(out.removed_segments as i64);
                metrics::wal_bytes_gauge().sub(out.removed_bytes as i64);
                if let Some(w) = &shared.wal {
                    w.compacted_segments
                        .fetch_add(out.removed_segments, Ordering::Relaxed);
                    w.segments
                        .fetch_sub(out.removed_segments as i64, Ordering::Relaxed);
                    w.bytes
                        .fetch_sub(out.removed_bytes as i64, Ordering::Relaxed);
                }
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!(
                    "cad-serve: shard {}: WAL compaction failed: {e}",
                    self.index
                );
            }
        }
        let retain = shared.cfg.wal_retain_bytes;
        if retain == 0 {
            return;
        }
        // Size-based retention rides the same roll-gated cadence: the
        // compact pass above already reclaimed everything watermark-safe,
        // so anything this removes is genuinely sacrificed history.
        let Some(wal) = self.wal.as_mut() else {
            return;
        };
        let sessions = &self.sessions;
        let hibernated = &self.hibernated;
        let durable = &self.durable;
        match wal.enforce_retention(retain, |sid| {
            if sessions.contains_key(&sid) || hibernated.contains_key(&sid) {
                SessionDurability::Durable(durable.get(&sid).copied())
            } else {
                SessionDurability::Gone
            }
        }) {
            Ok(out) if out.removed_segments > 0 => {
                metrics::wal_retention_deleted_total().add(out.removed_segments);
                metrics::wal_segments_gauge().sub(out.removed_segments as i64);
                metrics::wal_bytes_gauge().sub(out.removed_bytes as i64);
                if let Some(w) = &shared.wal {
                    w.retention_segments
                        .fetch_add(out.removed_segments, Ordering::Relaxed);
                    w.retention_bytes
                        .fetch_add(out.removed_bytes, Ordering::Relaxed);
                    w.segments
                        .fetch_sub(out.removed_segments as i64, Ordering::Relaxed);
                    w.bytes
                        .fetch_sub(out.removed_bytes as i64, Ordering::Relaxed);
                }
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("cad-serve: shard {}: WAL retention failed: {e}", self.index);
            }
        }
    }

    /// A push/create/resurrect just reset a session's idle clock: the
    /// hibernation scan cannot find work before `sweep + after`, but must
    /// run by then.
    fn note_activity(&mut self, shared: &Shared) {
        let after = shared.cfg.hibernate_after_rounds as u64;
        if after > 0 && shared.cfg.spill_dir.is_some() {
            self.hibernate_check_at = self.hibernate_check_at.min(self.sweep + after);
        }
    }

    /// Process one drained batch of this shard's queue, in arrival order.
    /// A [`Command::SessionTable`] is answered with the rows as of its
    /// place in the queue.
    fn run(
        &mut self,
        batch: VecDeque<(Command, Instant)>,
        drained_at: Instant,
        shared: &Shared,
    ) -> Vec<(ReplyTo, Reply)> {
        let _t = Timer::start("serve.shard");
        let mut out = Vec::with_capacity(batch.len());
        for (cmd, enqueued_at) in batch {
            if let Command::SessionTable { reply } = cmd {
                out.push((reply, Reply::Sessions(self.rows())));
                continue;
            }
            let (session_id, work, reply_to) = cmd.into_parts();
            let exec_start = Instant::now();
            let lead = StageLead {
                queue_nanos: nanos_between(enqueued_at, drained_at),
                dispatch_nanos: nanos_between(drained_at, exec_start),
            };
            // validate_spec screens every known panic path, but detector
            // internals assert their own invariants; a panic must cost
            // one command, not the pump thread (and with it the server).
            let reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.exec(session_id, work, shared, lead)
            }))
            .unwrap_or_else(|_| {
                // The session may be mid-mutation; drop it rather than
                // keep serving a detector in an unknown state.
                if self.sessions.remove(&session_id).is_some() {
                    shared.counters.sessions.fetch_sub(1, Ordering::Relaxed);
                    self.sessions_gauge.sub(1);
                    metrics::resident_sessions_gauge().sub(1);
                    // The WAL must agree the session is gone, or recovery
                    // would rebuild a detector we just declared poisoned.
                    self.wal_close(shared, session_id);
                    cad_obs::tracer().emit(TraceEvent::SessionPanicked { session_id });
                }
                Reply::Failed {
                    code: codes::INTERNAL,
                    message: format!(
                        "internal error while processing session {session_id}; session dropped"
                    ),
                }
            });
            out.push((reply_to, reply));
        }
        out
    }

    /// Load a hibernated session's file and make the session resident:
    /// the only reader of session payloads, shared by live commands and
    /// WAL replay. The file stays on disk. On failure the file is
    /// unusable — keeping it (or the stub) would fail every later command
    /// the same way — so it is deleted, the session forgotten, and the
    /// error returned for the caller to report.
    fn resurrect(&mut self, session_id: u64, cfg: &ManagerConfig) -> std::io::Result<()> {
        let meta = self
            .hibernated
            .remove(&session_id)
            .expect("resurrect caller checked the hibernated map");
        metrics::hibernated_sessions_gauge().sub(1);
        let dir = cfg
            .spill_dir
            .as_ref()
            .expect("hibernated sessions imply a spill_dir");
        let path = session_path(dir, session_id);
        let stream = match read_file_payload(&path, cfg.explain_rounds) {
            Ok(stream) => stream,
            Err(e) => {
                let _ = std::fs::remove_file(&path);
                self.durable.remove(&session_id);
                return Err(e);
            }
        };
        self.sessions.insert(
            session_id,
            Session {
                stream,
                rounds: meta.rounds,
                anomalies: meta.anomalies,
                resumed: meta.resumed,
                last_push_sweep: self.sweep,
                last_push_round: meta.last_push_round,
            },
        );
        self.sessions_gauge.add(1);
        metrics::resident_sessions_gauge().add(1);
        Ok(())
    }

    /// Hibernate every session that has not seen a push for `after`
    /// sweeps.
    fn hibernate_idle(&mut self, shared: &Shared, after: u64) {
        if shared.cfg.spill_dir.is_none() {
            return;
        }
        // No session's idle counter can have crossed the threshold before
        // `hibernate_check_at` (activity pulls it earlier, every scan
        // recomputes it), so idle sweeps skip the O(resident) scan.
        if self.sweep < self.hibernate_check_at {
            return;
        }
        let sweep = self.sweep;
        let idle: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| sweep.saturating_sub(s.last_push_sweep) >= after)
            .map(|(&id, _)| id)
            .collect();
        for session_id in idle {
            // A failed write (disk full, …) keeps the session resident;
            // the next sweep retries.
            if self.persist(&shared.cfg, session_id).is_err() {
                continue;
            }
            let session = self
                .sessions
                .remove(&session_id)
                .expect("session present above");
            self.hibernated
                .insert(session_id, HibernatedMeta::of(&session));
            self.sessions_gauge.sub(1);
            metrics::resident_sessions_gauge().sub(1);
            metrics::hibernated_sessions_gauge().add(1);
            metrics::hibernations_total().inc();
            shared.counters.hibernations.fetch_add(1, Ordering::Relaxed);
            cad_obs::tracer().emit(TraceEvent::SessionHibernated { session_id });
        }
        // Earliest sweep at which a remaining resident could next become
        // idle. Sessions whose write just failed keep a deadline in the
        // past, so the retry happens on the very next sweep.
        self.hibernate_check_at = self
            .sessions
            .values()
            .map(|s| s.last_push_sweep + after)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Execute one command against this shard's sessions.
    fn exec(&mut self, session_id: u64, work: Work, shared: &Shared, lead: StageLead) -> Reply {
        // Hibernated sessions resurrect on any command except Close,
        // which deletes the file without ever loading it.
        if !self.sessions.contains_key(&session_id) && self.hibernated.contains_key(&session_id) {
            if matches!(work, Work::Close) {
                self.hibernated.remove(&session_id);
                if let Some(dir) = &shared.cfg.spill_dir {
                    let _ = std::fs::remove_file(session_path(dir, session_id));
                }
                shared.counters.sessions.fetch_sub(1, Ordering::Relaxed);
                metrics::hibernated_sessions_gauge().sub(1);
                self.wal_close(shared, session_id);
                cad_obs::tracer().emit(TraceEvent::SessionDropped { session_id });
                return Reply::Closed;
            }
            let started = Instant::now();
            if let Err(e) = self.resurrect(session_id, &shared.cfg) {
                shared.counters.sessions.fetch_sub(1, Ordering::Relaxed);
                self.wal_close(shared, session_id);
                cad_obs::tracer().emit(TraceEvent::SessionDropped { session_id });
                return Reply::Failed {
                    code: codes::RESURRECT_FAILED,
                    message: format!("session {session_id}: resurrect failed: {e}"),
                };
            }
            self.note_activity(shared);
            metrics::resurrections_total().inc();
            metrics::resurrect_latency().record_duration(started.elapsed());
            shared
                .counters
                .resurrections
                .fetch_add(1, Ordering::Relaxed);
            cad_obs::tracer().emit(TraceEvent::SessionResurrected { session_id });
        }
        let counters = &shared.counters;
        let sweep = self.sweep;
        match work {
            Work::Create { spec } => {
                if let Some(session) = self.sessions.get(&session_id) {
                    Reply::Created {
                        resumed: true,
                        samples_seen: session.stream.samples_seen() as u64,
                    }
                } else {
                    match validate_spec(&spec, shared.cfg.max_sensors) {
                        Err((code, message)) => Reply::Failed { code, message },
                        Ok(config) => {
                            // Optimistic global admission: shards run in
                            // parallel, so reserve first, undo on refusal.
                            let prev = counters.sessions.fetch_add(1, Ordering::Relaxed);
                            if prev >= shared.cfg.max_sessions as u64 {
                                counters.sessions.fetch_sub(1, Ordering::Relaxed);
                                Reply::Failed {
                                    code: codes::ADMISSION,
                                    message: format!(
                                        "session limit of {} reached",
                                        shared.cfg.max_sessions
                                    ),
                                }
                            } else {
                                let n = spec.n_sensors as usize;
                                let mut stream = StreamingCad::new(CadDetector::new(n, config));
                                stream.set_explain_capacity(shared.cfg.explain_rounds);
                                // Logged before the ack: if we crash after
                                // replying Created, recovery rebuilds the
                                // session from this record.
                                self.wal_append(
                                    shared,
                                    &WalRecord::Create {
                                        session_id,
                                        spec: wal_spec_of(&spec),
                                    },
                                );
                                self.sessions.insert(
                                    session_id,
                                    Session {
                                        stream,
                                        rounds: 0,
                                        anomalies: 0,
                                        resumed: false,
                                        last_push_sweep: sweep,
                                        last_push_round: 0,
                                    },
                                );
                                self.note_activity(shared);
                                self.sessions_gauge.add(1);
                                metrics::resident_sessions_gauge().add(1);
                                cad_obs::tracer().emit(TraceEvent::SessionCreated { session_id });
                                Reply::Created {
                                    resumed: false,
                                    samples_seen: 0,
                                }
                            }
                        }
                    }
                }
            }
            Work::Push {
                base_tick,
                n_sensors,
                samples,
            } => {
                // Validate against the session before logging: only batches
                // the detector will actually consume reach the WAL, so
                // replay never re-faces a rejected push.
                let check = match self.sessions.get(&session_id) {
                    None => Err(Reply::Failed {
                        code: codes::UNKNOWN_SESSION,
                        message: format!("no session {session_id}"),
                    }),
                    Some(session) => {
                        let width = session.stream.detector().n_sensors();
                        if n_sensors as usize != width {
                            Err(Reply::Failed {
                                code: codes::BAD_PUSH,
                                message: format!("push width {n_sensors} != session width {width}"),
                            })
                        } else if base_tick != session.stream.samples_seen() as u64 {
                            Err(Reply::Failed {
                                code: codes::BAD_PUSH,
                                message: format!(
                                    "base_tick {base_tick} != samples_seen {}",
                                    session.stream.samples_seen()
                                ),
                            })
                        } else if session.stream.detector().config().gap_policy == GapPolicy::Fail
                            && samples.iter().any(|v| v.is_nan())
                        {
                            // Screened before the WAL append and before the
                            // detector ever sees the batch: under the strict
                            // policy a NaN reading would otherwise panic the
                            // pump thread, and replay must never re-face it.
                            Err(Reply::Failed {
                                code: codes::BAD_PUSH,
                                message: "batch contains NaN readings; the session's \
                                          gap policy is fail (create it with skip or \
                                          hold_last to accept degraded input)"
                                    .into(),
                            })
                        } else {
                            Ok(width)
                        }
                    }
                };
                match check {
                    Err(reply) => reply,
                    Ok(width) => {
                        // Append before the ack. The samples move into the
                        // record and back out — no copy of the batch.
                        let wal_started = Instant::now();
                        let samples = if self.wal.is_some() {
                            let rec = WalRecord::Push {
                                session_id,
                                base_tick,
                                n_sensors: width as u32,
                                samples,
                            };
                            self.wal_append(shared, &rec);
                            match rec {
                                WalRecord::Push { samples, .. } => samples,
                                _ => unreachable!("record built as Push above"),
                            }
                        } else {
                            samples
                        };
                        let wal_nanos = nanos_since(wal_started);
                        let session = self
                            .sessions
                            .get_mut(&session_id)
                            .expect("session presence checked above");
                        let engine_started = Instant::now();
                        let mut outcomes = Vec::new();
                        for (i, tick) in samples.chunks_exact(width).enumerate() {
                            if let Some(o) = session.stream.push_sample(tick) {
                                session.rounds += 1;
                                session.anomalies += o.abnormal as u64;
                                outcomes.push(WireOutcome {
                                    tick: base_tick + i as u64,
                                    n_r: o.n_r as u64,
                                    zscore_bits: o.zscore.to_bits(),
                                    abnormal: o.abnormal,
                                    outliers: o.outliers.iter().map(|&v| v as u32).collect(),
                                });
                            }
                        }
                        let engine_nanos = nanos_since(engine_started);
                        session.last_push_sweep = sweep;
                        session.last_push_round = session.rounds;
                        let n_ticks = (samples.len() / width) as u64;
                        self.note_activity(shared);
                        counters.total_ticks.fetch_add(n_ticks, Ordering::Relaxed);
                        counters
                            .total_rounds
                            .fetch_add(outcomes.len() as u64, Ordering::Relaxed);
                        counters.total_anomalies.fetch_add(
                            outcomes.iter().filter(|o| o.abnormal).count() as u64,
                            Ordering::Relaxed,
                        );
                        let timings = TickTimings {
                            session_id,
                            base_tick,
                            n_ticks: n_ticks.min(u32::MAX as u64) as u32,
                            rounds: outcomes.len().min(u32::MAX as usize) as u32,
                            queue_nanos: lead.queue_nanos,
                            dispatch_nanos: lead.dispatch_nanos,
                            engine_nanos,
                            wal_nanos,
                            ack_nanos: 0,
                        };
                        // Recorded shard-side so the stage histograms count
                        // the push even if the client vanishes before the
                        // ack; the router adds ack_flush and the exemplar.
                        timing::record_shard_stages(&timings);
                        Reply::Pushed {
                            outcomes,
                            timings: Some(timings),
                        }
                    }
                }
            }
            Work::Reshape { n_sensors } => {
                // Screen against the live session with a shared borrow, then
                // log + mutate. Every refusal is a protocol error — a
                // well-formed ReshapeSensors frame must never panic a shard.
                let check = match self.sessions.get(&session_id) {
                    None => Err(Reply::Failed {
                        code: codes::UNKNOWN_SESSION,
                        message: format!("no session {session_id}"),
                    }),
                    Some(session) => {
                        let m = n_sensors as usize;
                        let width = session.stream.detector().n_sensors();
                        let policy = session.stream.detector().config().gap_policy;
                        if m < 2 {
                            Err(Reply::Failed {
                                code: codes::BAD_SPEC,
                                message: "a session needs at least 2 sensors".into(),
                            })
                        } else if m > shared.cfg.max_sensors {
                            Err(Reply::Failed {
                                code: codes::ADMISSION,
                                message: format!(
                                    "{m} sensors exceeds the per-session limit of {}",
                                    shared.cfg.max_sensors
                                ),
                            })
                        } else if max_push_ticks(n_sensors) == 0 {
                            Err(Reply::Failed {
                                code: codes::BAD_SPEC,
                                message: format!(
                                    "{m} sensors leaves no room for even one tick \
                                     per push frame"
                                ),
                            })
                        } else if m > width && !policy.is_masked() {
                            Err(Reply::Failed {
                                code: codes::BAD_SPEC,
                                message: "growing the sensor set requires gap policy \
                                          skip or hold_last: joiners have no window \
                                          history and stream in as missing samples"
                                    .into(),
                            })
                        } else {
                            Ok((m, width, session.stream.samples_seen() as u64))
                        }
                    }
                };
                match check {
                    Err(reply) => reply,
                    Ok((m, width, at_tick)) => {
                        if m != width {
                            // Logged before the ack, like Push: recovery and
                            // offline replay re-apply the reshape in stream
                            // order so later (wider/narrower) batches land.
                            self.wal_append(
                                shared,
                                &WalRecord::Reshape {
                                    session_id,
                                    n_sensors,
                                    at_tick,
                                },
                            );
                            let session = self
                                .sessions
                                .get_mut(&session_id)
                                .expect("session presence checked above");
                            session.stream.reshape_sensors(m);
                            cad_obs::tracer().emit(TraceEvent::SessionReshaped {
                                session_id,
                                n_sensors,
                            });
                        }
                        self.note_activity(shared);
                        Reply::Reshaped { n_sensors }
                    }
                }
            }
            Work::Snapshot => {
                if shared.cfg.spill_dir.is_none() {
                    Reply::Failed {
                        code: codes::NO_SNAPSHOTS,
                        message: "server has no state directory (set CAD_SPILL_DIR)".into(),
                    }
                } else if !self.sessions.contains_key(&session_id) {
                    Reply::Failed {
                        code: codes::UNKNOWN_SESSION,
                        message: format!("no session {session_id}"),
                    }
                } else {
                    match self.persist(&shared.cfg, session_id) {
                        Ok(bytes) => Reply::Snapshotted(bytes),
                        Err(e) => Reply::Failed {
                            code: codes::BAD_REQUEST,
                            message: format!("snapshot failed: {e}"),
                        },
                    }
                }
            }
            Work::Close => {
                match self.sessions.remove(&session_id) {
                    None => Reply::Failed {
                        code: codes::UNKNOWN_SESSION,
                        message: format!("no session {session_id}"),
                    },
                    Some(_) => {
                        counters.sessions.fetch_sub(1, Ordering::Relaxed);
                        self.sessions_gauge.sub(1);
                        metrics::resident_sessions_gauge().sub(1);
                        self.wal_close(shared, session_id);
                        cad_obs::tracer().emit(TraceEvent::SessionDropped { session_id });
                        if let Some(dir) = &shared.cfg.spill_dir {
                            // Best-effort: a closed session must not be
                            // resurrected by the next restart.
                            let _ = std::fs::remove_file(session_path(dir, session_id));
                        }
                        Reply::Closed
                    }
                }
            }
            Work::Stats => match self.sessions.get(&session_id) {
                None => Reply::Failed {
                    code: codes::UNKNOWN_SESSION,
                    message: format!("no session {session_id}"),
                },
                Some(session) => Reply::Stats(session.stats(session_id)),
            },
            Work::Explain => match self.sessions.get(&session_id) {
                None => Reply::Failed {
                    code: codes::UNKNOWN_SESSION,
                    message: format!("no session {session_id}"),
                },
                Some(session) => Reply::Explained(
                    session
                        .stream
                        .detector()
                        .explain()
                        .records()
                        .map(WireRoundRecord::from)
                        .collect(),
                ),
            },
        }
    }
}

/// Counters accumulated while replaying the WAL suffix at startup.
#[derive(Debug, Default, Clone, Copy)]
struct WalRecoverySummary {
    records: u64,
    ticks: u64,
    dropped_records: u64,
    dropped_bytes: u64,
    gaps: u64,
}

/// Load a hibernated session during WAL replay because the log holds
/// ticks past its file. Returns `false` when the file is unusable: the
/// session is dropped and the loss counted and logged.
fn resurrect_for_replay(
    shard: &mut Shard,
    session_id: u64,
    cfg: &ManagerConfig,
    summary: &mut WalRecoverySummary,
) -> bool {
    match shard.resurrect(session_id, cfg) {
        Ok(()) => true,
        Err(e) => {
            summary.dropped_records += 1;
            eprintln!(
                "cad-serve: shard {}: WAL replay: session {session_id}: \
                 session file unusable, session dropped: {e}",
                shard.index
            );
            false
        }
    }
}

/// Splice one shard's recovered WAL records on top of the sessions
/// registered from their files. Replay is total: anything that cannot be applied
/// (unknown session, undecodable spec, tick gap) is counted and logged,
/// never a panic — a damaged log costs data, not the process.
fn replay_wal_records(
    shard: &mut Shard,
    records: Vec<WalRecord>,
    cfg: &ManagerConfig,
    summary: &mut WalRecoverySummary,
) {
    for rec in records {
        summary.records += 1;
        match rec {
            WalRecord::Create { session_id, spec } => {
                if shard.sessions.contains_key(&session_id)
                    || shard.hibernated.contains_key(&session_id)
                {
                    // Durable state already embodies this create.
                    continue;
                }
                match config_from_wal_spec(&spec) {
                    Ok(config) => {
                        let n = spec.n_sensors as usize;
                        let mut stream = StreamingCad::new(CadDetector::new(n, config));
                        stream.set_explain_capacity(cfg.explain_rounds);
                        shard.sessions.insert(
                            session_id,
                            Session {
                                stream,
                                rounds: 0,
                                anomalies: 0,
                                resumed: true,
                                last_push_sweep: 0,
                                last_push_round: 0,
                            },
                        );
                        shard.sessions_gauge.add(1);
                        metrics::resident_sessions_gauge().add(1);
                    }
                    Err(msg) => {
                        summary.dropped_records += 1;
                        eprintln!(
                            "cad-serve: shard {}: WAL replay: session {session_id}: \
                             undecodable spec dropped: {msg}",
                            shard.index
                        );
                    }
                }
            }
            WalRecord::Push {
                session_id,
                base_tick,
                n_sensors,
                samples,
            } => {
                if !shard.sessions.contains_key(&session_id) {
                    let Some(meta) = shard.hibernated.get(&session_id) else {
                        // No create survived for this id (e.g. its segment
                        // was corrupt): the push has nothing to land on.
                        summary.dropped_records += 1;
                        summary.dropped_bytes += (samples.len() * 8) as u64;
                        eprintln!(
                            "cad-serve: shard {}: WAL replay: push for unknown \
                             session {session_id} dropped",
                            shard.index
                        );
                        continue;
                    };
                    let rows = if n_sensors == 0 {
                        0
                    } else {
                        (samples.len() / n_sensors as usize) as u64
                    };
                    if base_tick + rows <= meta.samples_seen {
                        // The file already covers every tick in the batch;
                        // leave the session hibernated.
                        continue;
                    }
                    // The batch extends past the file: load it now so the
                    // suffix can be spliced in.
                    if !resurrect_for_replay(shard, session_id, cfg, summary) {
                        continue;
                    }
                }
                let session = shard
                    .sessions
                    .get_mut(&session_id)
                    .expect("resident or just resurrected");
                let before = session.stream.samples_seen();
                match cad_core::splice_batch(
                    &mut session.stream,
                    base_tick,
                    n_sensors as usize,
                    &samples,
                ) {
                    Ok(rounds) => {
                        summary.ticks += (session.stream.samples_seen() - before) as u64;
                        for r in &rounds {
                            session.rounds += 1;
                            session.anomalies += r.outcome.abnormal as u64;
                        }
                        session.last_push_round = session.rounds;
                    }
                    Err(e) => {
                        if matches!(e, cad_core::SpliceError::Gap { .. }) {
                            summary.gaps += 1;
                        }
                        summary.dropped_records += 1;
                        summary.dropped_bytes += (samples.len() * 8) as u64;
                        eprintln!(
                            "cad-serve: shard {}: WAL replay: session {session_id}: \
                             batch at tick {base_tick} dropped: {e}",
                            shard.index
                        );
                    }
                }
            }
            WalRecord::Close { session_id } => {
                let was_resident = shard.sessions.remove(&session_id).is_some();
                let was_hibernated = shard.hibernated.remove(&session_id).is_some();
                if was_resident {
                    shard.sessions_gauge.sub(1);
                    metrics::resident_sessions_gauge().sub(1);
                } else if was_hibernated {
                    metrics::hibernated_sessions_gauge().sub(1);
                }
                if was_resident || was_hibernated {
                    shard.durable.remove(&session_id);
                    if let Some(dir) = &cfg.spill_dir {
                        let _ = std::fs::remove_file(session_path(dir, session_id));
                    }
                }
            }
            WalRecord::Reshape {
                session_id,
                n_sensors,
                at_tick,
            } => {
                if !shard.sessions.contains_key(&session_id) {
                    if let Some(meta) = shard.hibernated.get(&session_id) {
                        if at_tick <= meta.samples_seen {
                            // The file was written after the reshape; its
                            // ring already has the new width.
                            continue;
                        }
                        // The reshape postdates the file: load it now so
                        // it (and the wider batches behind it) can apply.
                        if !resurrect_for_replay(shard, session_id, cfg, summary) {
                            continue;
                        }
                    }
                }
                let Some(session) = shard.sessions.get_mut(&session_id) else {
                    summary.dropped_records += 1;
                    eprintln!(
                        "cad-serve: shard {}: WAL replay: reshape for unknown \
                         session {session_id} dropped",
                        shard.index
                    );
                    continue;
                };
                let m = n_sensors as usize;
                let width = session.stream.detector().n_sensors();
                // Mirror the live screening: a logged reshape that the
                // current state cannot absorb (e.g. a grow replayed onto a
                // strict-policy session restored from an older spec) is
                // dropped, never a panic.
                if m < 2
                    || (m > width && !session.stream.detector().config().gap_policy.is_masked())
                {
                    summary.dropped_records += 1;
                    eprintln!(
                        "cad-serve: shard {}: WAL replay: session {session_id}: \
                         reshape to {m} sensors dropped",
                        shard.index
                    );
                    continue;
                }
                session.stream.reshape_sensors(m);
            }
            WalRecord::Checkpoint { .. } => {
                // Written by older builds only. Durable watermarks come
                // from the session files' headers, never from the log.
            }
        }
    }
}

impl SessionManager {
    /// Build a manager plus its pump. Every session file in
    /// `cfg.spill_dir` is registered as hibernated from its header alone
    /// (the payload stays on disk until the session's next command), then
    /// the WAL, if any, is replayed on top. A header that does not parse
    /// fails with `InvalidData` naming the file.
    pub fn new(cfg: ManagerConfig) -> std::io::Result<(SessionManager, SessionPump)> {
        let shards_n = cfg.shards.max(1);
        let mut shards: Vec<Shard> = (0..shards_n).map(Shard::new).collect();
        let mut restored = 0u64;
        if let Some(dir) = &cfg.spill_dir {
            std::fs::create_dir_all(dir)?;
            for (id, path) in scan_session_files(dir)? {
                let (n_sensors, samples_seen) = read_file_header(&path)?;
                let shard = &mut shards[(id % shards_n as u64) as usize];
                if cfg.wal_dir.is_some() {
                    // The file covers this prefix: WAL replay splices from
                    // here, compaction may reclaim below it.
                    shard.durable.insert(id, samples_seen);
                }
                shard.hibernated.insert(
                    id,
                    HibernatedMeta {
                        n_sensors,
                        samples_seen,
                        rounds: 0,
                        anomalies: 0,
                        resumed: true,
                        last_push_round: 0,
                    },
                );
                metrics::hibernated_sessions_gauge().add(1);
                restored += 1;
            }
        }
        let mut total_sessions = restored;
        let mut wal_summary = WalRecoverySummary::default();
        let (mut wal_segments, mut wal_bytes) = (0i64, 0i64);
        if let Some(base) = &cfg.wal_dir {
            std::fs::create_dir_all(base)?;
            for shard in shards.iter_mut() {
                let (wal, report) = ShardWal::open(WalConfig {
                    dir: base.clone(),
                    shard: shard.index as u32,
                    segment_bytes: cfg.wal_segment_bytes,
                    fsync: cfg.wal_fsync,
                })?;
                wal_summary.dropped_records += report.dropped_records;
                wal_summary.dropped_bytes += report.dropped_bytes;
                for note in &report.notes {
                    eprintln!("cad-serve: shard {}: WAL: {note}", shard.index);
                }
                replay_wal_records(shard, report.records, &cfg, &mut wal_summary);
                wal_segments += wal.segments() as i64;
                wal_bytes += wal.bytes() as i64;
                shard.wal = Some(wal);
            }
            // Replay may have rebuilt sessions (creates past the last
            // durable write) or removed them (closes); recount.
            total_sessions = shards
                .iter()
                .map(|s| (s.sessions.len() + s.hibernated.len()) as u64)
                .sum();
        }
        let wal_enabled = cfg.wal_dir.is_some();
        let shared = Arc::new(Shared {
            cfg,
            queues: (0..shards_n).map(|_| ShardQueue::default()).collect(),
            closed: AtomicBool::new(false),
            pending_total: AtomicI64::new(0),
            counters: Counters::default(),
            wal: wal_enabled.then(WalCounters::default),
        });
        shared
            .counters
            .sessions
            .store(total_sessions, Ordering::Relaxed);
        if let Some(w) = &shared.wal {
            w.segments.store(wal_segments, Ordering::Relaxed);
            w.bytes.store(wal_bytes, Ordering::Relaxed);
            w.recovery_records
                .store(wal_summary.records, Ordering::Relaxed);
            w.recovery_ticks.store(wal_summary.ticks, Ordering::Relaxed);
            w.recovery_dropped_records
                .store(wal_summary.dropped_records, Ordering::Relaxed);
            w.recovery_dropped_bytes
                .store(wal_summary.dropped_bytes, Ordering::Relaxed);
            w.recovery_gaps.store(wal_summary.gaps, Ordering::Relaxed);
            metrics::wal_segments_gauge().set(wal_segments);
            metrics::wal_bytes_gauge().set(wal_bytes);
            metrics::wal_recovered_records_total().add(wal_summary.records);
            metrics::wal_recovered_ticks_total().add(wal_summary.ticks);
            metrics::wal_recovery_dropped_total().add(wal_summary.dropped_records);
            metrics::wal_recovery_gaps_total().add(wal_summary.gaps);
        }
        Ok((
            SessionManager {
                shared: Arc::clone(&shared),
            },
            SessionPump { shared, shards },
        ))
    }

    /// Server-wide counters.
    pub fn counters(&self) -> &Counters {
        &self.shared.counters
    }

    /// Point-in-time WAL health; `None` when the WAL is disabled.
    pub fn wal_status(&self) -> Option<WalStatus> {
        let w = self.shared.wal.as_ref()?;
        let cfg = &self.shared.cfg;
        Some(WalStatus {
            dir: cfg.wal_dir.clone().expect("wal counters imply a wal_dir"),
            fsync: cfg.wal_fsync.to_string(),
            segment_bytes: cfg.wal_segment_bytes,
            appends: w.appends.load(Ordering::Relaxed),
            appended_bytes: w.appended_bytes.load(Ordering::Relaxed),
            fsyncs: w.fsyncs.load(Ordering::Relaxed),
            append_errors: w.append_errors.load(Ordering::Relaxed),
            segments: w.segments.load(Ordering::Relaxed).max(0) as u64,
            bytes: w.bytes.load(Ordering::Relaxed).max(0) as u64,
            compacted_segments: w.compacted_segments.load(Ordering::Relaxed),
            retain_bytes: cfg.wal_retain_bytes,
            retention_segments: w.retention_segments.load(Ordering::Relaxed),
            retention_bytes: w.retention_bytes.load(Ordering::Relaxed),
            recovery_records: w.recovery_records.load(Ordering::Relaxed),
            recovery_ticks: w.recovery_ticks.load(Ordering::Relaxed),
            recovery_dropped_records: w.recovery_dropped_records.load(Ordering::Relaxed),
            recovery_dropped_bytes: w.recovery_dropped_bytes.load(Ordering::Relaxed),
            recovery_gaps: w.recovery_gaps.load(Ordering::Relaxed),
        })
    }

    /// Admission limits (echoed in `HelloAck`).
    pub fn limits(&self) -> (usize, usize) {
        (self.shared.cfg.max_sessions, self.shared.cfg.max_sensors)
    }

    /// Shard count: one queue and one pump thread each.
    pub fn shards(&self) -> usize {
        self.shared.queues.len()
    }

    /// Total pending ticks across all shard queues.
    pub fn queue_depth(&self) -> usize {
        self.shared.pending_total.load(Ordering::Relaxed).max(0) as usize
    }

    /// The queue of the shard that owns `session_id`.
    fn queue_for(&self, session_id: u64) -> &ShardQueue {
        let queues = &self.shared.queues;
        &queues[(session_id % queues.len() as u64) as usize]
    }

    /// Whether enqueueing a command of this cost for this session would
    /// block right now — the handler's cue to send an explicit
    /// `Backpressure` frame first.
    pub fn would_block(&self, session_id: u64, cost: usize) -> bool {
        let q = self
            .queue_for(session_id)
            .q
            .lock()
            .expect("ingress queue poisoned");
        !self.shared.is_closed()
            && cost > 0
            && q.pending_ticks > 0
            && q.pending_ticks + cost > self.shared.cfg.queue_capacity
    }

    /// Submit a command without blocking: either it is queued, or it
    /// comes back in the error so the caller can park the *connection*
    /// (not a thread) and retry after the shard drains. The bound is in
    /// ticks; control commands (cost 0) are always admitted, and a batch
    /// larger than the whole capacity enters an *empty* queue alone.
    /// Returns the global queue depth (ticks) after admission.
    pub fn try_enqueue(&self, cmd: Command) -> Result<usize, TryEnqueueError> {
        let cost = cmd.cost();
        let queue = self.queue_for(cmd.session_id());
        let mut q = queue.q.lock().expect("ingress queue poisoned");
        if self.shared.is_closed() {
            return Err(TryEnqueueError::ShuttingDown(cmd));
        }
        let fits = cost == 0
            || q.pending_ticks == 0
            || q.pending_ticks + cost <= self.shared.cfg.queue_capacity;
        if !fits {
            return Err(TryEnqueueError::Full(cmd));
        }
        q.pending_ticks += cost;
        let total = self
            .shared
            .pending_total
            .fetch_add(cost as i64, Ordering::Relaxed)
            + cost as i64;
        let depth = total.max(0) as usize;
        self.shared
            .counters
            .peak_queue_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
        metrics::queue_depth_gauge().set(depth as i64);
        q.jobs.push_back((cmd, Instant::now()));
        queue.not_empty.notify_all();
        Ok(depth)
    }

    /// Ask every shard for its slice of the session table, each
    /// answering `reply` with one [`Reply::Sessions`]. Returns how many
    /// replies to expect; merged, they form the cross-shard table. Never
    /// blocks on a saturated queue (control commands cost nothing).
    pub fn request_session_table(&self, reply: ReplyTo) -> Result<usize, EnqueueError> {
        for queue in &self.shared.queues {
            let mut q = queue.q.lock().expect("ingress queue poisoned");
            if self.shared.is_closed() {
                return Err(EnqueueError::ShuttingDown);
            }
            q.jobs.push_back((
                Command::SessionTable {
                    reply: reply.clone(),
                },
                Instant::now(),
            ));
            queue.not_empty.notify_all();
        }
        Ok(self.shared.queues.len())
    }

    /// Close every queue: wakes the shard pumps for their final
    /// drain-and-persist pass and makes every later
    /// [`SessionManager::try_enqueue`] fail.
    pub fn close(&self) {
        self.shared.closed.store(true, Ordering::Release);
        for queue in &self.shared.queues {
            // Take the lock so a waiter between its closed-check and its
            // wait cannot miss the wakeup.
            let _q = queue.q.lock().expect("ingress queue poisoned");
            queue.not_empty.notify_all();
        }
    }
}

/// Enumerate `session-<id>.cadh` files in `dir`, sorted by path (so
/// registration order is deterministic).
fn scan_session_files(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    Ok(entries
        .into_iter()
        .filter_map(|path| {
            let id = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|name| name.strip_prefix("session-"))
                .and_then(|rest| rest.strip_suffix(".cadh"))
                .and_then(|rest| rest.parse::<u64>().ok())?;
            Some((id, path))
        })
        .collect())
}

impl SessionPump {
    /// Run one drain thread per shard until the manager is closed; each
    /// drains its queue to empty, then persists its resident sessions.
    /// Returns the number of sessions persisted.
    pub fn run(self) -> usize {
        let SessionPump { shared, shards } = self;
        let shared = &*shared;
        std::thread::scope(|s| {
            let pumps: Vec<_> = shards
                .into_iter()
                .map(|shard| s.spawn(move || run_shard(shard, shared)))
                .collect();
            pumps
                .into_iter()
                .map(|pump| pump.join().expect("shard pump panicked"))
                .sum()
        })
    }
}

/// One shard's drain loop: blocks on its queue, runs each batch through
/// the shard and advances the hibernation clock. Once the manager is
/// closed and the queue empty, it writes every resident session's file
/// (hibernated sessions already have theirs) and syncs the shard's log.
/// Returns the number of files written; 0 without a `spill_dir`.
fn run_shard(mut shard: Shard, shared: &Shared) -> usize {
    let queue = &shared.queues[shard.index];
    let hibernate_after = shared.cfg.hibernate_after_rounds as u64;
    let hibernation = hibernate_after > 0 && shared.cfg.spill_dir.is_some();
    let mut batches = 0u64;
    loop {
        let mut closed = false;
        let batch = {
            let mut q = queue.q.lock().expect("ingress queue poisoned");
            loop {
                if !q.jobs.is_empty() {
                    let drained = q.pending_ticks as i64;
                    q.pending_ticks = 0;
                    let total =
                        shared.pending_total.fetch_sub(drained, Ordering::Relaxed) - drained;
                    metrics::queue_depth_gauge().set(total.max(0));
                    break std::mem::take(&mut q.jobs);
                }
                if shared.is_closed() {
                    closed = true;
                    break VecDeque::new();
                }
                let (guard, wait) = queue
                    .not_empty
                    .wait_timeout(q, Duration::from_millis(100))
                    .expect("ingress queue poisoned");
                q = guard;
                if wait.timed_out() && hibernation {
                    // Idle tick: no work, but the hibernation clock must
                    // advance or idle sessions never hibernate.
                    break VecDeque::new();
                }
            }
        };
        if !batch.is_empty() {
            // One instant for the whole batch: per-command queue wait is
            // measured to the drain, per-command dispatch from it.
            let drained_at = Instant::now();
            let pump = Timer::start("serve.pump");
            for (reply_to, reply) in shard.run(batch, drained_at, shared) {
                reply_to.send(reply);
            }
            drop(pump);
            batches += 1;
            // Keep the RSS and thread gauges warm under load but never
            // touch them while quiesced — scrape-to-scrape byte parity
            // (the loadgen /metrics assertion) depends on an idle
            // registry staying frozen.
            if batches % 32 == 1 {
                let _ = cad_obs::sample_process_rss();
                let _ = cad_obs::sample_process_threads();
            }
        }
        shard.sweep += 1;
        if hibernation {
            shard.hibernate_idle(shared, hibernate_after);
        }
        // No-op unless an append rolled a segment since the last pass.
        shard.wal_compact(shared);
        if closed {
            break;
        }
    }
    if shared.cfg.spill_dir.is_none() && shard.wal.is_none() {
        return 0;
    }
    let _t = Timer::start("serve.persist");
    let mut persisted = 0usize;
    if shared.cfg.spill_dir.is_some() {
        let ids: Vec<u64> = shard.sessions.keys().copied().collect();
        for id in ids {
            persisted += shard.persist(&shared.cfg, id).is_ok() as usize;
        }
    }
    if let Some(wal) = shard.wal.as_mut() {
        // Graceful shutdown leaves nothing in the page cache even under
        // `never`/`every_n` policies.
        if let Err(e) = wal.sync() {
            eprintln!("cad-serve: shard {}: WAL sync failed: {e}", shard.index);
        }
    }
    persisted
}
