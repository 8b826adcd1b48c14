//! Synchronous client for the `cad-serve` protocol.
//!
//! One [`ServeClient`] wraps one TCP connection. Every request method
//! writes a frame and reads until its reply arrives; interim
//! [`Backpressure`](crate::protocol::Frame::Backpressure) frames are
//! counted (see [`ServeClient::backpressure_events`]) and skipped, and
//! [`Error`](crate::protocol::Frame::Error) frames surface as
//! [`ClientError::Server`] with the protocol code intact, so callers can
//! distinguish admission refusals from transport failures.

use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    read_frame, write_frame, Frame, ProtoError, ServerStats, SessionSpec, WireOutcome,
    WireRoundRecord,
};

/// Outcome of one [`ServeClient::push_samples`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct PushResult {
    /// Whether the server throttled this batch (saturated ingress queue).
    pub throttled: bool,
    /// Queue depth (ticks) right after this batch was admitted.
    pub queue_depth: u32,
    /// Rounds the batch completed, in tick order.
    pub outcomes: Vec<WireOutcome>,
}

/// Result of [`ServeClient::create_session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionHandle {
    /// The session id (echoed).
    pub session_id: u64,
    /// Whether the session already existed server-side.
    pub resumed: bool,
    /// Samples the session has consumed — push from this tick.
    pub samples_seen: u64,
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Proto(ProtoError),
    /// The server replied with an [`Frame::Error`] frame.
    Server {
        /// One of [`crate::protocol::codes`].
        code: u16,
        /// Server-provided description.
        message: String,
    },
    /// The server replied with a frame that does not answer the request.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "protocol failure: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected reply: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Proto(ProtoError::Io(e))
    }
}

/// A connected, greeted `cad-serve` client.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    max_sessions: u32,
    max_sensors: u32,
    backpressure_events: u64,
}

impl ServeClient {
    /// Connect, send `Hello`, and wait for the `HelloAck`.
    pub fn connect(addr: impl ToSocketAddrs, client_name: &str) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Generous safety net so a dead server cannot hang a client
        // forever; normal replies arrive well within this.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        let writer = BufWriter::new(stream.try_clone()?);
        let reader = BufReader::new(stream);
        let mut client = ServeClient {
            reader,
            writer,
            max_sessions: 0,
            max_sensors: 0,
            backpressure_events: 0,
        };
        match client.request(&Frame::Hello {
            client: client_name.into(),
        })? {
            Frame::HelloAck {
                max_sessions,
                max_sensors,
            } => {
                client.max_sessions = max_sessions;
                client.max_sensors = max_sensors;
                Ok(client)
            }
            _ => Err(ClientError::Unexpected("handshake")),
        }
    }

    /// Admission limits announced by the server's `HelloAck`.
    pub fn limits(&self) -> (u32, u32) {
        (self.max_sessions, self.max_sensors)
    }

    /// Backpressure frames observed on this connection so far.
    pub fn backpressure_events(&self) -> u64 {
        self.backpressure_events
    }

    /// Write one frame, then read until a non-interim reply arrives.
    /// `Backpressure` frames are counted and skipped; `Error` frames
    /// become [`ClientError::Server`].
    fn request(&mut self, frame: &Frame) -> Result<Frame, ClientError> {
        write_frame(&mut self.writer, frame)?;
        loop {
            match read_frame(&mut self.reader)? {
                Frame::Backpressure { .. } => {
                    self.backpressure_events += 1;
                }
                Frame::Error { code, message } => {
                    return Err(ClientError::Server { code, message });
                }
                reply => return Ok(reply),
            }
        }
    }

    /// Create the session, or re-attach if it already exists (the spec is
    /// then ignored and `resumed` is true).
    pub fn create_session(
        &mut self,
        session_id: u64,
        spec: SessionSpec,
    ) -> Result<SessionHandle, ClientError> {
        match self.request(&Frame::CreateSession { session_id, spec })? {
            Frame::SessionAck {
                session_id,
                resumed,
                samples_seen,
            } => Ok(SessionHandle {
                session_id,
                resumed,
                samples_seen,
            }),
            _ => Err(ClientError::Unexpected("create_session")),
        }
    }

    /// Push `samples` (tick-major, `n_ticks × n_sensors`) starting at
    /// `base_tick`, which must equal the session's samples-seen count.
    pub fn push_samples(
        &mut self,
        session_id: u64,
        base_tick: u64,
        n_sensors: u32,
        samples: Vec<f64>,
    ) -> Result<PushResult, ClientError> {
        match self.request(&Frame::PushSamples {
            session_id,
            base_tick,
            n_sensors,
            samples,
        })? {
            Frame::PushAck {
                throttled,
                queue_depth,
                outcomes,
                ..
            } => Ok(PushResult {
                throttled,
                queue_depth,
                outcomes,
            }),
            _ => Err(ClientError::Unexpected("push_samples")),
        }
    }

    /// Resize the session's sensor set mid-stream (sensor churn). Growing
    /// requires the session to have been created with a masked gap policy
    /// (skip or hold_last); subsequent pushes must carry the new width.
    /// Returns the sensor count now in effect.
    pub fn reshape_sensors(&mut self, session_id: u64, n_sensors: u32) -> Result<u32, ClientError> {
        match self.request(&Frame::ReshapeSensors {
            session_id,
            n_sensors,
        })? {
            Frame::ReshapeAck { n_sensors, .. } => Ok(n_sensors),
            _ => Err(ClientError::Unexpected("reshape_sensors")),
        }
    }

    /// Server-wide counters, optionally including one session's.
    pub fn stats(&mut self, session_id: Option<u64>) -> Result<ServerStats, ClientError> {
        match self.request(&Frame::StatsRequest { session_id })? {
            Frame::StatsReply { stats } => Ok(stats),
            _ => Err(ClientError::Unexpected("stats")),
        }
    }

    /// Write one session's file to the server's state directory now.
    /// Returns the file size in bytes.
    pub fn snapshot(&mut self, session_id: u64) -> Result<u64, ClientError> {
        match self.request(&Frame::Snapshot { session_id })? {
            Frame::SnapshotAck { bytes, .. } => Ok(bytes),
            _ => Err(ClientError::Unexpected("snapshot")),
        }
    }

    /// Drop a session (and its session file, if any).
    pub fn close_session(&mut self, session_id: u64) -> Result<(), ClientError> {
        match self.request(&Frame::CloseSession { session_id })? {
            Frame::CloseAck { .. } => Ok(()),
            _ => Err(ClientError::Unexpected("close_session")),
        }
    }

    /// The server's metrics registry as a raw `CADM` binary dump — the
    /// exact bytes the server encoded, useful when the caller wants to
    /// persist or forward the dump without re-encoding.
    pub fn metrics_raw(&mut self) -> Result<Vec<u8>, ClientError> {
        match self.request(&Frame::MetricsRequest)? {
            Frame::MetricsReply { dump } => Ok(dump),
            _ => Err(ClientError::Unexpected("metrics")),
        }
    }

    /// The server's metrics registry, decoded into a
    /// [`cad_obs::MetricsSnapshot`].
    pub fn metrics(&mut self) -> Result<cad_obs::MetricsSnapshot, ClientError> {
        let dump = self.metrics_raw()?;
        cad_obs::MetricsSnapshot::decode(&dump).map_err(|_| ClientError::Unexpected("metrics dump"))
    }

    /// One session's forensics journal: the most recent per-round
    /// records (μ/σ before the update, the η·σ bound, the verdict and
    /// the outlier sensor set), oldest first. Empty when the server runs
    /// with journaling disabled.
    pub fn explain(&mut self, session_id: u64) -> Result<Vec<WireRoundRecord>, ClientError> {
        match self.request(&Frame::ExplainRequest { session_id })? {
            Frame::ExplainReply { records, .. } => Ok(records),
            _ => Err(ClientError::Unexpected("explain")),
        }
    }

    /// Request graceful shutdown. Returns the number of live sessions the
    /// server will persist.
    pub fn shutdown_server(&mut self) -> Result<u32, ClientError> {
        match self.request(&Frame::Shutdown)? {
            Frame::ShutdownAck { sessions } => Ok(sessions),
            _ => Err(ClientError::Unexpected("shutdown")),
        }
    }
}
