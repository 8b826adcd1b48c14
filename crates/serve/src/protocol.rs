//! The `cad-serve` wire protocol: length-prefixed binary frames.
//!
//! Every frame is a fixed 12-byte header followed by a payload:
//!
//! ```text
//! magic    u32  "CADS" (little-endian byte order on the wire)
//! version  u16  protocol version (1)
//! msg_type u8   frame discriminant (see the `Frame` table in DESIGN.md)
//! flags    u8   reserved, must be 0
//! len      u32  payload length in bytes
//! ```
//!
//! All integers and floats are little-endian; strings are a `u32` length
//! followed by UTF-8 bytes; vectors are a `u32` count followed by their
//! elements. `zscore` travels as raw IEEE-754 bits so a round outcome is
//! byte-identical across the wire — the e2e parity suite depends on it.
//!
//! Decoding is total: any malformed input yields a [`ProtoError`], never a
//! panic, and payloads above [`MAX_PAYLOAD`] are rejected before being
//! buffered (a garbage length prefix must not allocate gigabytes).

use std::io::{self, Read, Write};

/// Wire magic: the ASCII bytes `CADS`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"CADS");
/// Protocol version spoken by this build.
pub const PROTOCOL_VERSION: u16 = 1;
/// Upper bound on a single frame's payload (16 MiB).
pub const MAX_PAYLOAD: usize = 16 << 20;
/// Size of the fixed frame header.
pub const HEADER_LEN: usize = 12;

/// Largest number of ticks one `PushSamples` may carry for an
/// `n_sensors`-wide session such that the worst-case `PushAck` — every
/// tick completes a round (`s = 1`) and every sensor is an outlier —
/// still fits in [`MAX_PAYLOAD`]. The server refuses larger batches with
/// [`codes::BAD_PUSH`] instead of emitting a reply the client would have
/// to reject as `TooLarge`.
pub fn max_push_ticks(n_sensors: u32) -> usize {
    // PushAck payload: session_id u64 + throttled u8 + queue_depth u32 +
    // outcome count u32 = 17 bytes, then per outcome: tick/n_r/zscore
    // (3 × u64) + abnormal u8 + outlier count u32 + n_sensors × u32.
    let per_outcome = 8 + 8 + 8 + 1 + 4 + 4 * n_sensors as usize;
    (MAX_PAYLOAD - 17) / per_outcome
}

/// Error codes carried by [`Frame::Error`].
pub mod codes {
    /// Malformed frame or protocol-order violation (e.g. no `Hello`).
    pub const BAD_REQUEST: u16 = 1;
    /// The referenced session does not exist.
    pub const UNKNOWN_SESSION: u16 = 2;
    /// Admission denied: session/sensor limits reached.
    pub const ADMISSION: u16 = 3;
    /// Push rejected: wrong width or out-of-order `base_tick`.
    pub const BAD_PUSH: u16 = 4;
    /// The server is shutting down.
    pub const SHUTTING_DOWN: u16 = 5;
    /// Snapshots are disabled (no state directory, `spill_dir`, configured).
    pub const NO_SNAPSHOTS: u16 = 6;
    /// Invalid session specification.
    pub const BAD_SPEC: u16 = 7;
    /// The server hit an internal error processing the command; the
    /// session was dropped rather than left in an unknown state.
    pub const INTERNAL: u16 = 8;
    /// A hibernated session's spill file was missing, truncated or
    /// corrupt; the session was dropped rather than left resurrecting
    /// forever. The client may re-create it.
    pub const RESURRECT_FAILED: u16 = 9;
}

/// Round-engine choice as it travels in a [`SessionSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireEngine {
    /// Recompute the correlation structure every round.
    Exact,
    /// Sliding co-moment engine with the given exact-rebuild period.
    Incremental {
        /// Exact-rebuild period (≥ 1).
        rebuild_every: u32,
    },
}

/// Degraded-input policy as it travels in a [`SessionSpec`]. Mirrors
/// `cad_core::GapPolicy` (and shares its wire tags).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireGapPolicy {
    /// Reject NaN readings and unfillable gaps (strict mode).
    #[default]
    Fail,
    /// Store missing readings as holes; correlations use pairwise deletion.
    Skip,
    /// Substitute the sensor's last valid reading for a missing one.
    HoldLast,
}

impl WireGapPolicy {
    /// Wire tag (identical to `cad_core::GapPolicy::tag`).
    pub fn tag(self) -> u8 {
        match self {
            WireGapPolicy::Fail => 0,
            WireGapPolicy::Skip => 1,
            WireGapPolicy::HoldLast => 2,
        }
    }

    /// Decode a wire tag.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(WireGapPolicy::Fail),
            1 => Some(WireGapPolicy::Skip),
            2 => Some(WireGapPolicy::HoldLast),
            _ => None,
        }
    }
}

/// Detector parameters a client supplies when creating a session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Sensor count of the monitored group (≥ 2).
    pub n_sensors: u32,
    /// Sliding window length `w`.
    pub w: u32,
    /// Window step `s` (`1 ≤ s ≤ w`).
    pub s: u32,
    /// k-NN degree for the TSG.
    pub k: u32,
    /// Correlation threshold τ.
    pub tau: f64,
    /// Outlier threshold θ.
    pub theta: f64,
    /// Chebyshev multiplier η.
    pub eta: f64,
    /// Sliding RC horizon (`None` = cumulative).
    pub rc_horizon: Option<u32>,
    /// Round engine.
    pub engine: WireEngine,
    /// Degraded-input policy. Travels as trailing bytes after the engine
    /// so a pre-hostile-streams client (which omits them) still decodes to
    /// the strict default — no protocol version bump.
    pub gap_policy: WireGapPolicy,
    /// Reorder-buffer slack in ticks (0 = strict in-order ingest).
    pub reorder_slack: u32,
}

impl SessionSpec {
    /// Paper-flavoured defaults for an `n_sensors`-wide session.
    pub fn new(n_sensors: u32, w: u32, s: u32) -> Self {
        Self {
            n_sensors,
            w,
            s,
            k: (n_sensors / 4).clamp(1, 50),
            tau: 0.3,
            theta: 0.3,
            eta: 3.0,
            rc_horizon: None,
            engine: WireEngine::Exact,
            gap_policy: WireGapPolicy::Fail,
            reorder_slack: 0,
        }
    }
}

/// One completed detection round as reported over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireOutcome {
    /// 0-based index of the sample that completed this round.
    pub tick: u64,
    /// Outlier-variation count `n_r`.
    pub n_r: u64,
    /// `|n_r − μ|/σ` as raw IEEE-754 bits (bit-exact transport).
    pub zscore_bits: u64,
    /// The 3σ verdict.
    pub abnormal: bool,
    /// The outlier set `O_r`, sorted.
    pub outliers: Vec<u32>,
}

impl WireOutcome {
    /// The z-score as a float.
    pub fn zscore(&self) -> f64 {
        f64::from_bits(self.zscore_bits)
    }
}

/// One forensics-journal entry as it travels in a [`Frame::ExplainReply`].
///
/// Mirrors `cad_core::explain::RoundRecord`; the three statistics travel
/// as raw IEEE-754 bits so the record is byte-identical across the wire
/// (the `/explain` parity suite depends on it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRoundRecord {
    /// Detection round index (0-based).
    pub round: u64,
    /// Outlier-variation count `n_r`.
    pub n_r: u64,
    /// Pre-update mean μ as raw bits.
    pub mu_pre_bits: u64,
    /// Pre-update standard deviation σ as raw bits.
    pub sigma_pre_bits: u64,
    /// The verdict threshold η·σ as raw bits.
    pub eta_sigma_bits: u64,
    /// The η·σ verdict.
    pub abnormal: bool,
    /// The outlier set `O_r`, sorted.
    pub outlier_sensors: Vec<u32>,
}

impl WireRoundRecord {
    /// Pre-update mean μ as a float.
    pub fn mu_pre(&self) -> f64 {
        f64::from_bits(self.mu_pre_bits)
    }

    /// Pre-update standard deviation σ as a float.
    pub fn sigma_pre(&self) -> f64 {
        f64::from_bits(self.sigma_pre_bits)
    }

    /// The verdict threshold η·σ as a float.
    pub fn eta_sigma(&self) -> f64 {
        f64::from_bits(self.eta_sigma_bits)
    }
}

impl From<&cad_core::explain::RoundRecord> for WireRoundRecord {
    fn from(rec: &cad_core::explain::RoundRecord) -> Self {
        Self {
            round: rec.round,
            n_r: rec.n_r,
            mu_pre_bits: rec.mu_pre.to_bits(),
            sigma_pre_bits: rec.sigma_pre.to_bits(),
            eta_sigma_bits: rec.eta_sigma.to_bits(),
            abnormal: rec.abnormal,
            outlier_sensors: rec.outlier_sensors.clone(),
        }
    }
}

/// Per-session counters reported by [`Frame::StatsReply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionStats {
    /// Session id.
    pub session_id: u64,
    /// Sensor count.
    pub n_sensors: u32,
    /// Samples consumed.
    pub ticks: u64,
    /// Rounds completed.
    pub rounds: u64,
    /// Rounds flagged abnormal.
    pub anomalies: u64,
}

/// Server-wide counters reported by [`Frame::StatsReply`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Live sessions.
    pub sessions: u64,
    /// Connections accepted since start.
    pub connections: u64,
    /// Samples consumed across all sessions.
    pub total_ticks: u64,
    /// Rounds completed across all sessions.
    pub total_rounds: u64,
    /// Abnormal rounds across all sessions.
    pub total_anomalies: u64,
    /// Current ingress-queue depth, in ticks.
    pub queue_depth: u64,
    /// High-water mark of the ingress queue, in ticks.
    pub peak_queue_depth: u64,
    /// Backpressure frames emitted since start.
    pub backpressure_events: u64,
    /// Per-phase `cad_runtime` timings as a JSON object string.
    pub phases_json: String,
    /// Counters of one session, when the request named one.
    pub session: Option<SessionStats>,
}

/// Every message in the protocol. The `u8` discriminants are the wire
/// `msg_type` values and must never be reused.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server greeting; must be the first frame on a connection.
    Hello {
        /// Free-form client identification (logged, never parsed).
        client: String,
    },
    /// Server → client greeting response with the admission limits.
    HelloAck {
        /// Maximum concurrent sessions.
        max_sessions: u32,
        /// Maximum sensors per session.
        max_sensors: u32,
    },
    /// Create (or re-attach to) the session with this id.
    CreateSession {
        /// Caller-chosen session id.
        session_id: u64,
        /// Detector parameters (ignored when re-attaching).
        spec: SessionSpec,
    },
    /// Session created or re-attached.
    SessionAck {
        /// Echoed session id.
        session_id: u64,
        /// `true` when the session already existed (restored session file or
        /// an earlier connection); the spec was ignored.
        resumed: bool,
        /// Samples the session has consumed so far — where to resume.
        samples_seen: u64,
    },
    /// A batch of ticks for one session, tick-major
    /// (`n_ticks × n_sensors` readings).
    PushSamples {
        /// Target session.
        session_id: u64,
        /// 0-based index of the first tick in this batch; must equal the
        /// session's `samples_seen` (detects gaps and duplicates).
        base_tick: u64,
        /// Sensor count (validated against the session).
        n_sensors: u32,
        /// `n_ticks × n_sensors` readings, tick-major.
        samples: Vec<f64>,
    },
    /// Outcomes of a processed batch.
    PushAck {
        /// Echoed session id.
        session_id: u64,
        /// Whether the ingress queue was saturated when this batch was
        /// admitted — a hint to slow down.
        throttled: bool,
        /// Queue depth (ticks) right after admission.
        queue_depth: u32,
        /// Rounds completed by this batch, in tick order.
        outcomes: Vec<WireOutcome>,
    },
    /// Request server-wide (and optionally one session's) counters.
    StatsRequest {
        /// Session to include, if any.
        session_id: Option<u64>,
    },
    /// Counters snapshot.
    StatsReply {
        /// The counters.
        stats: ServerStats,
    },
    /// Write one session's file to the state directory now.
    Snapshot {
        /// Session to persist.
        session_id: u64,
    },
    /// Snapshot written.
    SnapshotAck {
        /// Echoed session id.
        session_id: u64,
        /// Snapshot size in bytes.
        bytes: u64,
    },
    /// Drop a session (and its session file, if any).
    CloseSession {
        /// Session to drop.
        session_id: u64,
    },
    /// Session dropped.
    CloseAck {
        /// Echoed session id.
        session_id: u64,
    },
    /// Request graceful shutdown: stop accepting, drain the queue, persist
    /// every session.
    Shutdown,
    /// Shutdown acknowledged; teardown proceeds after this frame.
    ShutdownAck {
        /// Sessions that will be persisted.
        sessions: u32,
    },
    /// Server → client, unsolicited: the ingress queue is full and the
    /// server is about to block this connection until space frees up.
    /// Slow down instead of pushing harder.
    Backpressure {
        /// Queue depth (ticks) at the time of the event.
        queue_depth: u32,
    },
    /// Request failed.
    Error {
        /// One of [`codes`].
        code: u16,
        /// Human-readable description.
        message: String,
    },
    /// Request the server's full metrics registry as a binary dump.
    MetricsRequest,
    /// A versioned `cad-obs` metrics dump (`CADM` v1). The protocol
    /// carries the bytes opaquely; decode with
    /// `cad_obs::MetricsSnapshot::decode` (or re-serve them verbatim —
    /// the dump round-trips losslessly).
    MetricsReply {
        /// Encoded [`cad_obs::MetricsSnapshot`] bytes.
        dump: Vec<u8>,
    },
    /// Request one session's forensics journal (per-round detection
    /// records; see `cad_core::explain`).
    ExplainRequest {
        /// Session to explain.
        session_id: u64,
    },
    /// The retained forensics records, oldest first. Empty when journaling
    /// is disabled for the session.
    ExplainReply {
        /// Echoed session id.
        session_id: u64,
        /// Retained per-round records, oldest first.
        records: Vec<WireRoundRecord>,
    },
    /// Change a session's sensor count mid-stream (sensor churn without a
    /// cold restart). Growing requires the session to run a masked gap
    /// policy; every later `PushSamples` must carry the new width.
    ReshapeSensors {
        /// Target session.
        session_id: u64,
        /// New sensor count.
        n_sensors: u32,
    },
    /// Reshape applied.
    ReshapeAck {
        /// Echoed session id.
        session_id: u64,
        /// The session's sensor count after the reshape.
        n_sensors: u32,
    },
}

impl Frame {
    /// Wire discriminant of this frame.
    pub fn msg_type(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::HelloAck { .. } => 2,
            Frame::CreateSession { .. } => 3,
            Frame::SessionAck { .. } => 4,
            Frame::PushSamples { .. } => 5,
            Frame::PushAck { .. } => 6,
            Frame::StatsRequest { .. } => 7,
            Frame::StatsReply { .. } => 8,
            Frame::Snapshot { .. } => 9,
            Frame::SnapshotAck { .. } => 10,
            Frame::CloseSession { .. } => 11,
            Frame::CloseAck { .. } => 12,
            Frame::Shutdown => 13,
            Frame::ShutdownAck { .. } => 14,
            Frame::Backpressure { .. } => 15,
            Frame::Error { .. } => 16,
            Frame::MetricsRequest => 17,
            Frame::MetricsReply { .. } => 18,
            Frame::ExplainRequest { .. } => 19,
            Frame::ExplainReply { .. } => 20,
            Frame::ReshapeSensors { .. } => 21,
            Frame::ReshapeAck { .. } => 22,
        }
    }
}

/// Protocol-level failures.
#[derive(Debug)]
pub enum ProtoError {
    /// Underlying I/O failure (includes clean EOF between frames).
    Io(io::Error),
    /// Structurally invalid frame.
    Corrupt(String),
    /// The peer speaks a different protocol version.
    Version(u16),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    TooLarge(usize),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "I/O error: {e}"),
            ProtoError::Corrupt(m) => write!(f, "corrupt frame: {m}"),
            ProtoError::Version(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::TooLarge(n) => write!(f, "payload of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

fn corrupt(m: impl Into<String>) -> ProtoError {
    ProtoError::Corrupt(m.into())
}

// ---------------------------------------------------------------- encoding

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
    fn f64s(&mut self, vs: &[f64]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.f64(v);
        }
    }
    fn u32s(&mut self, vs: &[u32]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u32(v);
        }
    }
    fn spec(&mut self, spec: &SessionSpec) {
        self.u32(spec.n_sensors);
        self.u32(spec.w);
        self.u32(spec.s);
        self.u32(spec.k);
        self.f64(spec.tau);
        self.f64(spec.theta);
        self.f64(spec.eta);
        match spec.rc_horizon {
            None => self.u8(0),
            Some(h) => {
                self.u8(1);
                self.u32(h);
            }
        }
        match spec.engine {
            WireEngine::Exact => self.u8(0),
            WireEngine::Incremental { rebuild_every } => {
                self.u8(1);
                self.u32(rebuild_every);
            }
        }
        self.u8(spec.gap_policy.tag());
        self.u32(spec.reorder_slack);
    }
    fn outcome(&mut self, o: &WireOutcome) {
        self.u64(o.tick);
        self.u64(o.n_r);
        self.u64(o.zscore_bits);
        self.u8(o.abnormal as u8);
        self.u32s(&o.outliers);
    }
    fn session_stats(&mut self, s: &SessionStats) {
        self.u64(s.session_id);
        self.u32(s.n_sensors);
        self.u64(s.ticks);
        self.u64(s.rounds);
        self.u64(s.anomalies);
    }
    fn round_record(&mut self, r: &WireRoundRecord) {
        self.u64(r.round);
        self.u64(r.n_r);
        self.u64(r.mu_pre_bits);
        self.u64(r.sigma_pre_bits);
        self.u64(r.eta_sigma_bits);
        self.u8(r.abnormal as u8);
        self.u32s(&r.outlier_sensors);
    }
}

// ---------------------------------------------------------------- decoding

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.buf.len() - self.pos < n {
            return Err(corrupt("payload truncated"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn bool(&mut self) -> Result<bool, ProtoError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(corrupt(format!("bad bool byte {other}"))),
        }
    }
    fn len(&mut self) -> Result<usize, ProtoError> {
        let n = self.u32()? as usize;
        // A count can never imply more bytes than remain (elements are at
        // least one byte each), so bail before trying to allocate for it.
        if n > self.buf.len() - self.pos {
            return Err(corrupt(format!("length {n} exceeds remaining payload")));
        }
        Ok(n)
    }
    fn string(&mut self) -> Result<String, ProtoError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("string is not UTF-8"))
    }
    fn bytes(&mut self) -> Result<Vec<u8>, ProtoError> {
        let n = self.len()?;
        Ok(self.take(n)?.to_vec())
    }
    fn f64s(&mut self) -> Result<Vec<f64>, ProtoError> {
        let n = self.len()?;
        (0..n).map(|_| self.f64()).collect()
    }
    fn u32s(&mut self) -> Result<Vec<u32>, ProtoError> {
        let n = self.len()?;
        (0..n).map(|_| self.u32()).collect()
    }
    fn spec(&mut self) -> Result<SessionSpec, ProtoError> {
        let n_sensors = self.u32()?;
        let w = self.u32()?;
        let s = self.u32()?;
        let k = self.u32()?;
        let tau = self.f64()?;
        let theta = self.f64()?;
        let eta = self.f64()?;
        let rc_horizon = match self.u8()? {
            0 => None,
            1 => Some(self.u32()?),
            other => return Err(corrupt(format!("bad rc_horizon tag {other}"))),
        };
        let engine = match self.u8()? {
            0 => WireEngine::Exact,
            1 => WireEngine::Incremental {
                rebuild_every: self.u32()?,
            },
            other => return Err(corrupt(format!("bad engine tag {other}"))),
        };
        // Trailing hostile-streams extension: absent in frames from
        // pre-extension clients, which therefore get the strict default.
        let (gap_policy, reorder_slack) = if self.pos < self.buf.len() {
            let tag = self.u8()?;
            let policy = WireGapPolicy::from_tag(tag)
                .ok_or_else(|| corrupt(format!("bad gap policy tag {tag}")))?;
            (policy, self.u32()?)
        } else {
            (WireGapPolicy::Fail, 0)
        };
        Ok(SessionSpec {
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
        })
    }
    fn outcome(&mut self) -> Result<WireOutcome, ProtoError> {
        Ok(WireOutcome {
            tick: self.u64()?,
            n_r: self.u64()?,
            zscore_bits: self.u64()?,
            abnormal: self.bool()?,
            outliers: self.u32s()?,
        })
    }
    fn session_stats(&mut self) -> Result<SessionStats, ProtoError> {
        Ok(SessionStats {
            session_id: self.u64()?,
            n_sensors: self.u32()?,
            ticks: self.u64()?,
            rounds: self.u64()?,
            anomalies: self.u64()?,
        })
    }
    fn round_record(&mut self) -> Result<WireRoundRecord, ProtoError> {
        Ok(WireRoundRecord {
            round: self.u64()?,
            n_r: self.u64()?,
            mu_pre_bits: self.u64()?,
            sigma_pre_bits: self.u64()?,
            eta_sigma_bits: self.u64()?,
            abnormal: self.bool()?,
            outlier_sensors: self.u32s()?,
        })
    }
    fn finish(self) -> Result<(), ProtoError> {
        if self.pos != self.buf.len() {
            return Err(corrupt(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Serialise `frame` into a complete wire message (header + payload).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut e = Enc { buf: Vec::new() };
    match frame {
        Frame::Hello { client } => e.string(client),
        Frame::HelloAck {
            max_sessions,
            max_sensors,
        } => {
            e.u32(*max_sessions);
            e.u32(*max_sensors);
        }
        Frame::CreateSession { session_id, spec } => {
            e.u64(*session_id);
            e.spec(spec);
        }
        Frame::SessionAck {
            session_id,
            resumed,
            samples_seen,
        } => {
            e.u64(*session_id);
            e.u8(*resumed as u8);
            e.u64(*samples_seen);
        }
        Frame::PushSamples {
            session_id,
            base_tick,
            n_sensors,
            samples,
        } => {
            e.u64(*session_id);
            e.u64(*base_tick);
            e.u32(*n_sensors);
            e.f64s(samples);
        }
        Frame::PushAck {
            session_id,
            throttled,
            queue_depth,
            outcomes,
        } => {
            e.u64(*session_id);
            e.u8(*throttled as u8);
            e.u32(*queue_depth);
            e.u32(outcomes.len() as u32);
            for o in outcomes {
                e.outcome(o);
            }
        }
        Frame::StatsRequest { session_id } => match session_id {
            None => e.u8(0),
            Some(id) => {
                e.u8(1);
                e.u64(*id);
            }
        },
        Frame::StatsReply { stats } => {
            e.u64(stats.sessions);
            e.u64(stats.connections);
            e.u64(stats.total_ticks);
            e.u64(stats.total_rounds);
            e.u64(stats.total_anomalies);
            e.u64(stats.queue_depth);
            e.u64(stats.peak_queue_depth);
            e.u64(stats.backpressure_events);
            e.string(&stats.phases_json);
            match &stats.session {
                None => e.u8(0),
                Some(s) => {
                    e.u8(1);
                    e.session_stats(s);
                }
            }
        }
        Frame::Snapshot { session_id } => e.u64(*session_id),
        Frame::SnapshotAck { session_id, bytes } => {
            e.u64(*session_id);
            e.u64(*bytes);
        }
        Frame::CloseSession { session_id } => e.u64(*session_id),
        Frame::CloseAck { session_id } => e.u64(*session_id),
        Frame::Shutdown => {}
        Frame::ShutdownAck { sessions } => e.u32(*sessions),
        Frame::Backpressure { queue_depth } => e.u32(*queue_depth),
        Frame::MetricsRequest => {}
        Frame::MetricsReply { dump } => e.bytes(dump),
        Frame::ExplainRequest { session_id } => e.u64(*session_id),
        Frame::ExplainReply {
            session_id,
            records,
        } => {
            e.u64(*session_id);
            e.u32(records.len() as u32);
            for r in records {
                e.round_record(r);
            }
        }
        Frame::ReshapeSensors {
            session_id,
            n_sensors,
        }
        | Frame::ReshapeAck {
            session_id,
            n_sensors,
        } => {
            e.u64(*session_id);
            e.u32(*n_sensors);
        }
        Frame::Error { code, message } => {
            e.u16(*code);
            e.string(message);
        }
    }
    let payload = e.buf;
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    out.push(frame.msg_type());
    out.push(0); // flags
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decode one frame's payload given its wire `msg_type`.
pub fn decode_payload(msg_type: u8, payload: &[u8]) -> Result<Frame, ProtoError> {
    let mut d = Dec {
        buf: payload,
        pos: 0,
    };
    let frame = match msg_type {
        1 => Frame::Hello {
            client: d.string()?,
        },
        2 => Frame::HelloAck {
            max_sessions: d.u32()?,
            max_sensors: d.u32()?,
        },
        3 => Frame::CreateSession {
            session_id: d.u64()?,
            spec: d.spec()?,
        },
        4 => Frame::SessionAck {
            session_id: d.u64()?,
            resumed: d.bool()?,
            samples_seen: d.u64()?,
        },
        5 => {
            let session_id = d.u64()?;
            let base_tick = d.u64()?;
            let n_sensors = d.u32()?;
            let samples = d.f64s()?;
            if n_sensors == 0 || samples.len() % n_sensors as usize != 0 {
                return Err(corrupt("sample count is not a multiple of n_sensors"));
            }
            Frame::PushSamples {
                session_id,
                base_tick,
                n_sensors,
                samples,
            }
        }
        6 => {
            let session_id = d.u64()?;
            let throttled = d.bool()?;
            let queue_depth = d.u32()?;
            let n = d.len()?;
            let outcomes = (0..n).map(|_| d.outcome()).collect::<Result<Vec<_>, _>>()?;
            Frame::PushAck {
                session_id,
                throttled,
                queue_depth,
                outcomes,
            }
        }
        7 => Frame::StatsRequest {
            session_id: match d.u8()? {
                0 => None,
                1 => Some(d.u64()?),
                other => return Err(corrupt(format!("bad stats tag {other}"))),
            },
        },
        8 => {
            let sessions = d.u64()?;
            let connections = d.u64()?;
            let total_ticks = d.u64()?;
            let total_rounds = d.u64()?;
            let total_anomalies = d.u64()?;
            let queue_depth = d.u64()?;
            let peak_queue_depth = d.u64()?;
            let backpressure_events = d.u64()?;
            let phases_json = d.string()?;
            let session = match d.u8()? {
                0 => None,
                1 => Some(d.session_stats()?),
                other => return Err(corrupt(format!("bad session-stats tag {other}"))),
            };
            Frame::StatsReply {
                stats: ServerStats {
                    sessions,
                    connections,
                    total_ticks,
                    total_rounds,
                    total_anomalies,
                    queue_depth,
                    peak_queue_depth,
                    backpressure_events,
                    phases_json,
                    session,
                },
            }
        }
        9 => Frame::Snapshot {
            session_id: d.u64()?,
        },
        10 => Frame::SnapshotAck {
            session_id: d.u64()?,
            bytes: d.u64()?,
        },
        11 => Frame::CloseSession {
            session_id: d.u64()?,
        },
        12 => Frame::CloseAck {
            session_id: d.u64()?,
        },
        13 => Frame::Shutdown,
        14 => Frame::ShutdownAck { sessions: d.u32()? },
        15 => Frame::Backpressure {
            queue_depth: d.u32()?,
        },
        16 => Frame::Error {
            code: d.u16()?,
            message: d.string()?,
        },
        17 => Frame::MetricsRequest,
        18 => Frame::MetricsReply { dump: d.bytes()? },
        19 => Frame::ExplainRequest {
            session_id: d.u64()?,
        },
        20 => {
            let session_id = d.u64()?;
            let n = d.len()?;
            let records = (0..n)
                .map(|_| d.round_record())
                .collect::<Result<Vec<_>, _>>()?;
            Frame::ExplainReply {
                session_id,
                records,
            }
        }
        21 => Frame::ReshapeSensors {
            session_id: d.u64()?,
            n_sensors: d.u32()?,
        },
        22 => Frame::ReshapeAck {
            session_id: d.u64()?,
            n_sensors: d.u32()?,
        },
        other => return Err(corrupt(format!("unknown msg_type {other}"))),
    };
    d.finish()?;
    Ok(frame)
}

/// Write one frame to `out` (header + payload, single `write_all`).
/// A payload over [`MAX_PAYLOAD`] is refused here — the peer could never
/// read it, so emitting it would only desync the stream.
pub fn write_frame<W: Write>(mut out: W, frame: &Frame) -> io::Result<()> {
    let bytes = encode_frame(frame);
    if bytes.len() - HEADER_LEN > MAX_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame payload of {} bytes exceeds the {MAX_PAYLOAD}-byte limit",
                bytes.len() - HEADER_LEN
            ),
        ));
    }
    out.write_all(&bytes)?;
    out.flush()
}

/// Validate a complete frame header; returns `(msg_type, payload_len)`.
fn validate_header(header: &[u8; HEADER_LEN]) -> Result<(u8, usize), ProtoError> {
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(corrupt(format!("bad magic {magic:#010x}")));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if version != PROTOCOL_VERSION {
        return Err(ProtoError::Version(version));
    }
    let msg_type = header[6];
    if header[7] != 0 {
        return Err(corrupt("non-zero flags"));
    }
    let len = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD {
        return Err(ProtoError::TooLarge(len));
    }
    Ok((msg_type, len))
}

/// Read one frame from `input`, validating magic, version and size before
/// buffering the payload. Bytes consumed before an error are lost, so on
/// a stream with a read timeout use [`FrameReader`] instead — a timeout
/// mid-frame here would desync the connection.
pub fn read_frame<R: Read>(mut input: R) -> Result<Frame, ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    input.read_exact(&mut header)?;
    let (msg_type, len) = validate_header(&header)?;
    let mut payload = vec![0u8; len];
    input.read_exact(&mut payload)?;
    decode_payload(msg_type, &payload)
}

/// Incremental frame reader that is safe under socket read timeouts.
///
/// [`read_frame`] discards bytes already consumed when a read times out
/// mid-frame, desyncing the stream; this reader keeps partial header and
/// payload bytes across calls, so a `WouldBlock`/`TimedOut` error is a
/// pause, not a protocol failure — call again with the same reader and it
/// resumes exactly where the stream stalled.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Bytes of the current frame accumulated so far, header first.
    buf: Vec<u8>,
    /// Full frame size (header + payload), known once the header is in.
    frame_len: Option<usize>,
}

impl FrameReader {
    /// A fresh reader with no partial frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether some bytes of a frame have been consumed without
    /// completing it — a timeout now is a mid-frame stall, not idleness.
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Read one frame, resuming any partial progress from earlier calls.
    pub fn read_frame<R: Read>(&mut self, input: &mut R) -> Result<Frame, ProtoError> {
        loop {
            let target = self.frame_len.unwrap_or(HEADER_LEN);
            while self.buf.len() < target {
                let mut chunk = [0u8; 4096];
                let want = (target - self.buf.len()).min(chunk.len());
                match input.read(&mut chunk[..want]) {
                    Ok(0) => {
                        return Err(ProtoError::Io(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            if self.mid_frame() {
                                "connection closed mid-frame"
                            } else {
                                "connection closed between frames"
                            },
                        )))
                    }
                    Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(ProtoError::Io(e)),
                }
            }
            if self.frame_len.is_none() {
                // Header complete: validate before buffering the payload,
                // so a garbage length never allocates.
                let header: [u8; HEADER_LEN] = self.buf[..HEADER_LEN].try_into().unwrap();
                let (_, len) = validate_header(&header)?;
                self.frame_len = Some(HEADER_LEN + len);
                continue;
            }
            let msg_type = self.buf[6];
            let frame = decode_payload(msg_type, &self.buf[HEADER_LEN..]);
            self.buf.clear();
            self.frame_len = None;
            return frame;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let bytes = encode_frame(&frame);
        let decoded = read_frame(bytes.as_slice()).expect("decode");
        assert_eq!(decoded, frame);
    }

    fn sample_spec() -> SessionSpec {
        SessionSpec {
            n_sensors: 16,
            w: 64,
            s: 8,
            k: 4,
            tau: 0.3,
            theta: 0.25,
            eta: 3.0,
            rc_horizon: Some(10),
            engine: WireEngine::Incremental { rebuild_every: 64 },
            gap_policy: WireGapPolicy::Skip,
            reorder_slack: 4,
        }
    }

    fn sample_outcome() -> WireOutcome {
        WireOutcome {
            tick: 1234,
            n_r: 7,
            zscore_bits: 3.25f64.to_bits(),
            abnormal: true,
            outliers: vec![0, 3, 11],
        }
    }

    #[test]
    fn every_variant_roundtrips() {
        roundtrip(Frame::Hello {
            client: "loadgen/0.1 unicode: åß∂".into(),
        });
        roundtrip(Frame::HelloAck {
            max_sessions: 4096,
            max_sensors: 1024,
        });
        roundtrip(Frame::CreateSession {
            session_id: u64::MAX,
            spec: sample_spec(),
        });
        roundtrip(Frame::CreateSession {
            session_id: 0,
            spec: SessionSpec {
                rc_horizon: None,
                engine: WireEngine::Exact,
                ..sample_spec()
            },
        });
        roundtrip(Frame::SessionAck {
            session_id: 9,
            resumed: true,
            samples_seen: 4242,
        });
        roundtrip(Frame::PushSamples {
            session_id: 5,
            base_tick: 640,
            n_sensors: 4,
            samples: vec![0.5, -1.25, f64::MIN_POSITIVE, 1e300, 0.0, -0.0, 3.5, 7.0],
        });
        roundtrip(Frame::PushAck {
            session_id: 5,
            throttled: true,
            queue_depth: 129,
            outcomes: vec![
                sample_outcome(),
                WireOutcome {
                    outliers: vec![],
                    abnormal: false,
                    ..sample_outcome()
                },
            ],
        });
        roundtrip(Frame::StatsRequest { session_id: None });
        roundtrip(Frame::StatsRequest {
            session_id: Some(77),
        });
        roundtrip(Frame::StatsReply {
            stats: ServerStats {
                sessions: 100,
                connections: 12,
                total_ticks: 1 << 40,
                total_rounds: 999,
                total_anomalies: 3,
                queue_depth: 17,
                peak_queue_depth: 4096,
                backpressure_events: 21,
                phases_json: "{\"serve.pump\": {\"calls\": 3, \"secs\": 0.000010}}".into(),
                session: Some(SessionStats {
                    session_id: 77,
                    n_sensors: 16,
                    ticks: 640,
                    rounds: 73,
                    anomalies: 2,
                }),
            },
        });
        roundtrip(Frame::StatsReply {
            stats: ServerStats {
                sessions: 0,
                connections: 0,
                total_ticks: 0,
                total_rounds: 0,
                total_anomalies: 0,
                queue_depth: 0,
                peak_queue_depth: 0,
                backpressure_events: 0,
                phases_json: "{}".into(),
                session: None,
            },
        });
        roundtrip(Frame::Snapshot { session_id: 8 });
        roundtrip(Frame::SnapshotAck {
            session_id: 8,
            bytes: 123456,
        });
        roundtrip(Frame::CloseSession { session_id: 8 });
        roundtrip(Frame::CloseAck { session_id: 8 });
        roundtrip(Frame::Shutdown);
        roundtrip(Frame::ShutdownAck { sessions: 128 });
        roundtrip(Frame::Backpressure { queue_depth: 4096 });
        roundtrip(Frame::Error {
            code: codes::ADMISSION,
            message: "session limit reached".into(),
        });
        roundtrip(Frame::MetricsRequest);
        roundtrip(Frame::MetricsReply { dump: vec![] });
        roundtrip(Frame::MetricsReply {
            dump: (0..=255u8).collect(),
        });
        roundtrip(Frame::ReshapeSensors {
            session_id: 5,
            n_sensors: 17,
        });
        roundtrip(Frame::ReshapeAck {
            session_id: 5,
            n_sensors: 17,
        });
        roundtrip(Frame::CreateSession {
            session_id: 3,
            spec: SessionSpec {
                gap_policy: WireGapPolicy::HoldLast,
                reorder_slack: 0,
                ..sample_spec()
            },
        });
        roundtrip(Frame::ExplainRequest { session_id: 77 });
        roundtrip(Frame::ExplainReply {
            session_id: 77,
            records: vec![],
        });
        roundtrip(Frame::ExplainReply {
            session_id: 77,
            records: vec![
                WireRoundRecord {
                    round: 12,
                    n_r: 4,
                    mu_pre_bits: 2.75f64.to_bits(),
                    sigma_pre_bits: 0.5f64.to_bits(),
                    eta_sigma_bits: 1.5f64.to_bits(),
                    abnormal: true,
                    outlier_sensors: vec![1, 7, 9],
                },
                WireRoundRecord {
                    round: 13,
                    n_r: 0,
                    // NaN and negative zero must travel bit-exactly.
                    mu_pre_bits: f64::NAN.to_bits(),
                    sigma_pre_bits: (-0.0f64).to_bits(),
                    eta_sigma_bits: 0,
                    abnormal: false,
                    outlier_sensors: vec![],
                },
            ],
        });
    }

    #[test]
    fn legacy_spec_without_gap_policy_decodes_to_strict_default() {
        // A pre-hostile-streams client encodes the spec without the
        // trailing gap-policy bytes; the server must decode it as Fail/0.
        let spec = SessionSpec {
            gap_policy: WireGapPolicy::Fail,
            reorder_slack: 0,
            ..sample_spec()
        };
        let mut bytes = encode_frame(&Frame::CreateSession {
            session_id: 7,
            spec: spec.clone(),
        });
        // Strip the 5 trailing extension bytes and patch the length.
        bytes.truncate(bytes.len() - 5);
        let len = (bytes.len() - HEADER_LEN) as u32;
        bytes[8..12].copy_from_slice(&len.to_le_bytes());
        match read_frame(bytes.as_slice()).expect("legacy decode") {
            Frame::CreateSession {
                session_id,
                spec: got,
            } => {
                assert_eq!(session_id, 7);
                assert_eq!(got, spec);
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_gap_policy_tag() {
        let mut bytes = encode_frame(&Frame::CreateSession {
            session_id: 7,
            spec: sample_spec(),
        });
        // The gap-policy tag is the 5th byte from the end (tag + u32).
        let at = bytes.len() - 5;
        bytes[at] = 9;
        assert!(matches!(
            read_frame(bytes.as_slice()),
            Err(ProtoError::Corrupt(_))
        ));
    }

    #[test]
    fn metrics_reply_carries_an_obs_dump_losslessly() {
        // The protocol treats the dump as opaque bytes; a real cad-obs
        // dump must survive the frame round trip byte-for-byte.
        let registry = cad_obs::Registry::new();
        registry.counter("cad_rounds_total", &[]).add(42);
        registry
            .histogram("serve_push_latency_nanos", &[("shard", "0")])
            .record(12_345);
        let dump = registry.snapshot().encode();
        match read_frame(encode_frame(&Frame::MetricsReply { dump: dump.clone() }).as_slice())
            .expect("decode")
        {
            Frame::MetricsReply { dump: back } => {
                assert_eq!(back, dump);
                let snap = cad_obs::MetricsSnapshot::decode(&back).expect("valid dump");
                assert_eq!(snap.counters[0].value, 42);
                assert_eq!(snap.encode(), dump);
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn zscore_travels_bit_exact() {
        for v in [0.0, -0.0, f64::NAN, f64::INFINITY, 1.0 / 3.0, -2.5e-308] {
            let frame = Frame::PushAck {
                session_id: 1,
                throttled: false,
                queue_depth: 0,
                outcomes: vec![WireOutcome {
                    tick: 0,
                    n_r: 0,
                    zscore_bits: v.to_bits(),
                    abnormal: false,
                    outliers: vec![],
                }],
            };
            match read_frame(encode_frame(&frame).as_slice()).expect("decode") {
                Frame::PushAck { outcomes, .. } => {
                    assert_eq!(outcomes[0].zscore_bits, v.to_bits());
                }
                other => panic!("wrong frame {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = encode_frame(&Frame::Shutdown);
        bytes[0] ^= 0xFF;
        assert!(matches!(
            read_frame(bytes.as_slice()),
            Err(ProtoError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = encode_frame(&Frame::Shutdown);
        bytes[4] = 99;
        assert!(matches!(
            read_frame(bytes.as_slice()),
            Err(ProtoError::Version(99))
        ));
    }

    #[test]
    fn rejects_nonzero_flags() {
        let mut bytes = encode_frame(&Frame::Shutdown);
        bytes[7] = 1;
        assert!(matches!(
            read_frame(bytes.as_slice()),
            Err(ProtoError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_oversized_payload_before_buffering() {
        let mut bytes = encode_frame(&Frame::Shutdown);
        bytes[8..12].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            read_frame(bytes.as_slice()),
            Err(ProtoError::TooLarge(_))
        ));
    }

    #[test]
    fn rejects_truncated_payload() {
        let bytes = encode_frame(&Frame::Error {
            code: 1,
            message: "hello".into(),
        });
        // Cut the payload short but leave the declared length intact.
        assert!(matches!(
            read_frame(&bytes[..bytes.len() - 2]),
            Err(ProtoError::Io(_))
        ));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = encode_frame(&Frame::Snapshot { session_id: 1 });
        // Grow the payload by one byte and fix up the declared length.
        bytes.push(0xAB);
        let len = (bytes.len() - 12) as u32;
        bytes[8..12].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            read_frame(bytes.as_slice()),
            Err(ProtoError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_unknown_msg_type() {
        let mut bytes = encode_frame(&Frame::Shutdown);
        bytes[6] = 250;
        assert!(matches!(
            read_frame(bytes.as_slice()),
            Err(ProtoError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_ragged_push_batch() {
        // 3 samples for 2 sensors: not a whole number of ticks.
        let mut e = Vec::new();
        e.extend_from_slice(&5u64.to_le_bytes());
        e.extend_from_slice(&0u64.to_le_bytes());
        e.extend_from_slice(&2u32.to_le_bytes());
        e.extend_from_slice(&3u32.to_le_bytes());
        for v in [1.0f64, 2.0, 3.0] {
            e.extend_from_slice(&v.to_le_bytes());
        }
        assert!(matches!(decode_payload(5, &e), Err(ProtoError::Corrupt(_))));
    }

    #[test]
    fn rejects_absurd_element_count() {
        // A declared vector length far beyond the actual payload must fail
        // fast instead of allocating.
        let mut e = Vec::new();
        e.extend_from_slice(&5u64.to_le_bytes());
        e.extend_from_slice(&0u64.to_le_bytes());
        e.extend_from_slice(&2u32.to_le_bytes());
        e.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_payload(5, &e), Err(ProtoError::Corrupt(_))));
    }

    #[test]
    fn clean_eof_surfaces_as_io() {
        assert!(matches!(read_frame(&[][..]), Err(ProtoError::Io(_))));
    }

    /// A reader that times out between every chunk it yields — the worst
    /// case a socket with a read timeout can present.
    struct Stutter<'a> {
        data: &'a [u8],
        pos: usize,
        step: usize,
        ready: bool,
    }

    impl Read for Stutter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stutter"));
            }
            self.ready = false;
            let n = self.step.min(self.data.len() - self.pos).min(buf.len());
            if n == 0 {
                return Ok(0);
            }
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_survives_timeouts_at_every_offset() {
        let frames = [
            Frame::PushSamples {
                session_id: 5,
                base_tick: 640,
                n_sensors: 2,
                samples: vec![0.5, -1.25, 1e300, 0.0],
            },
            Frame::Shutdown, // empty payload
            Frame::Error {
                code: codes::BAD_PUSH,
                message: "after the pause".into(),
            },
        ];
        let bytes: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
        for step in [1usize, 3, 7, 64] {
            let mut input = Stutter {
                data: &bytes,
                pos: 0,
                step,
                ready: false,
            };
            let mut reader = FrameReader::new();
            let mut got = Vec::new();
            while got.len() < frames.len() {
                match reader.read_frame(&mut input) {
                    Ok(f) => got.push(f),
                    Err(ProtoError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => continue,
                    Err(e) => panic!("step {step}: {e}"),
                }
            }
            assert_eq!(got.as_slice(), frames.as_slice(), "step {step}");
            assert!(!reader.mid_frame());
        }
    }

    #[test]
    fn frame_reader_reports_mid_frame_progress() {
        let bytes = encode_frame(&Frame::Snapshot { session_id: 1 });
        let mut reader = FrameReader::new();
        // Half the header, then a timeout.
        let mut half = Stutter {
            data: &bytes[..6],
            pos: 0,
            step: 6,
            ready: true,
        };
        assert!(matches!(
            reader.read_frame(&mut half),
            Err(ProtoError::Io(_))
        ));
        assert!(reader.mid_frame());
        // The rest completes the same frame.
        let mut rest = &bytes[6..];
        let frame = reader.read_frame(&mut rest).expect("resume");
        assert_eq!(frame, Frame::Snapshot { session_id: 1 });
        assert!(!reader.mid_frame());
    }

    #[test]
    fn write_frame_refuses_oversized_payload() {
        let frame = Frame::Error {
            code: 1,
            message: "x".repeat(MAX_PAYLOAD + 1),
        };
        let err = write_frame(io::sink(), &frame).expect_err("must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn push_ack_size_model_matches_encoder() {
        // max_push_ticks budgets 17 fixed bytes plus (29 + 4·n) per
        // worst-case outcome; the encoder must agree or the cap is wrong.
        let n = 5u32;
        let empty = Frame::PushAck {
            session_id: 0,
            throttled: false,
            queue_depth: 0,
            outcomes: vec![],
        };
        let full = Frame::PushAck {
            session_id: 0,
            throttled: false,
            queue_depth: 0,
            outcomes: vec![WireOutcome {
                tick: 0,
                n_r: 0,
                zscore_bits: 0,
                abnormal: true,
                outliers: (0..n).collect(),
            }],
        };
        let base = encode_frame(&empty).len();
        assert_eq!(base - HEADER_LEN, 17);
        assert_eq!(encode_frame(&full).len() - base, 29 + 4 * n as usize);
        let per_outcome = 29 + 4 * n as usize;
        let ticks = max_push_ticks(n);
        assert!(17 + ticks * per_outcome <= MAX_PAYLOAD);
        assert!(17 + (ticks + 1) * per_outcome > MAX_PAYLOAD);
    }
}
