//! The ops plane: a std-only HTTP/1.1 GET endpoint for scrapes and
//! forensics.
//!
//! `cad-serve` exposes a *second* listener (config `ops_addr`, daemon
//! env `CAD_OPS_ADDR`, off by default) speaking just enough HTTP for
//! `curl` and a Prometheus scraper:
//!
//! | Path                     | Body                                           |
//! |--------------------------|------------------------------------------------|
//! | `/healthz`               | `ok` while the process is up                   |
//! | `/readyz`                | `ready`, or 503 `draining` once shutdown began |
//! | `/metrics`               | Prometheus text exposition of the global registry |
//! | `/tracez`                | JSON dump of the trace ring (with seq numbers) |
//! | `/wal`                   | JSON WAL health (404 when the WAL is disabled) |
//! | `/sessions`              | JSON per-shard session table                   |
//! | `/explain/<session_id>`  | JSON forensics journal for one session         |
//! | `/slowz`                 | JSON slowest-N per-tick stage breakdowns       |
//! | `/flightz`               | JSON flight-recorder window (`?metric=&last=`; 404 when off) |
//! | `/flightz/dump`          | raw CADF binary dump (`?from=&to=` frame seqs) |
//! | `/selfwatch`             | JSON self-watch verdicts (404 when off)        |
//!
//! An ops connection is one more connection kind on the server's
//! readiness loop (see [`crate::server`]): the poller accepts it, an I/O
//! worker reads its request head without blocking (`HttpConn`), and
//! the response goes out through the connection's write queue, after
//! which the connection closes. No thread is ever dedicated to a scrape,
//! and no worker ever waits on a pump: `/healthz`, `/readyz`, `/metrics`
//! and `/tracez` never touch the session queue at all, while `/sessions`
//! and `/explain` are submitted with a routed reply and answered by the
//! reply router, or with a 503 once [`QUEUE_REPLY_TIMEOUT`] passes, so a
//! scraper never queues behind a saturated pump. Handlers deliberately
//! record **no metrics**: a `/metrics` scrape must render
//! byte-identically to a native-protocol `MetricsRequest` taken in the
//! same quiesced state.
//!
//! Request parsing is bounded and defensive: request lines over
//! [`MAX_REQUEST_LINE`] bytes earn a 431, heads over [`MAX_HEAD_BYTES`]
//! likewise, non-GET methods a 405, unknown paths a 404. Each connection
//! carries a deadline that the poller's timeout tick enforces: a peer
//! that stalls mid-request (slow loris) past the read timeout gets a
//! best-effort 408, and a peer that will not take its response within
//! the write timeout is dropped. At most `MAX_OPS_CONNECTIONS` (32) are
//! live at once; further accepts are dropped. Every response carries
//! `Connection: close`; keep-alive is intentionally not offered.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cad_obs::{
    json_array, json_f64, json_str, FlightRecorder, MetricsSnapshot, TraceEvent, TracedEvent,
};

use crate::protocol::{codes, WireRoundRecord};
use crate::selfwatch::{SelfWatch, SelfWatchVerdict};
use crate::server::ShutdownHandle;
use crate::session::{Reply, SessionManager, SessionRow, SessionState};
use crate::timing::{self, TickTimings};

/// Longest accepted request line (method + path + version), in bytes.
pub const MAX_REQUEST_LINE: usize = 2048;
/// Longest accepted request head (request line + all headers), in bytes.
pub const MAX_HEAD_BYTES: usize = 8192;
/// How long `/sessions` and `/explain` wait for the session pump before
/// answering 503; keeps scrapers from queuing behind backpressure.
pub const QUEUE_REPLY_TIMEOUT: Duration = Duration::from_secs(2);
/// Concurrent ops connections; beyond this, accepts are dropped.
pub(crate) const MAX_OPS_CONNECTIONS: usize = 32;

/// What the ops handlers read besides the request itself.
pub(crate) struct OpsShared {
    pub(crate) manager: SessionManager,
    pub(crate) shutdown: ShutdownHandle,
    /// The flight recorder, when enabled (`/flightz`).
    pub(crate) flight: Option<Arc<FlightRecorder>>,
    /// The self-watch session, when enabled (`/selfwatch`).
    pub(crate) selfwatch: Option<Arc<SelfWatch>>,
}

/// One ops connection's state on the I/O worker pool.
pub(crate) struct HttpConn {
    /// Request head bytes read so far; never more than [`MAX_HEAD_BYTES`].
    head: Vec<u8>,
    /// When the poller tick expires the connection: 408 while reading,
    /// 503 while waiting on a pump, dropped while writing.
    pub(crate) deadline: Instant,
    /// The pump answer the request is waiting on, if any.
    pub(crate) wait: Option<PumpWait>,
}

/// A request submitted to the pumps with a routed reply.
pub(crate) enum PumpWait {
    /// `/explain/<id>`: one [`Reply::Explained`] for this session.
    Explain(u64),
    /// `/sessions`: one [`Reply::Sessions`] per shard.
    Sessions {
        /// Shard replies still due.
        shards_left: usize,
        /// Rows collected so far.
        rows: Vec<SessionRow>,
    },
}

/// What a parsed request needs next.
pub(crate) enum Route {
    /// Answer right away.
    Respond(Response),
    /// Submit a [`crate::session::Command::Explain`] for this session.
    Explain(u64),
    /// Broadcast a session-table request to every shard.
    Sessions,
}

/// Outcome of reading whatever the socket has.
pub(crate) enum HeadRead {
    /// The head is incomplete and the socket would block.
    Pending,
    /// A complete head.
    Request(Request),
    /// Answer 431: the request line or head exceeded its bound (or the
    /// peer closed before finishing it).
    TooLarge,
    /// Any other transport failure — not worth a response.
    Failed,
}

impl HttpConn {
    pub(crate) fn new(deadline: Instant) -> HttpConn {
        HttpConn {
            head: Vec::new(),
            deadline,
            wait: None,
        }
    }

    /// Read from the nonblocking `stream` until the head completes, its
    /// bound is hit, or the socket would block.
    pub(crate) fn read_head(&mut self, mut stream: &TcpStream) -> HeadRead {
        let mut buf = [0u8; 1024];
        loop {
            let room = (MAX_HEAD_BYTES - self.head.len()).min(buf.len());
            if room == 0 {
                // The bound hit mid-head reads as oversized.
                return HeadRead::TooLarge;
            }
            match stream.read(&mut buf[..room]) {
                // EOF before the blank line: a truncated request reads as
                // oversized, as a head cut off by the bound would.
                Ok(0) => return HeadRead::TooLarge,
                Ok(n) => {
                    self.head.extend_from_slice(&buf[..n]);
                    match parse_head(&self.head) {
                        Ok(Some(request)) => return HeadRead::Request(request),
                        Ok(None) => {}
                        Err(()) => return HeadRead::TooLarge,
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return HeadRead::Pending,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return HeadRead::Failed,
            }
        }
    }

    /// Fold one pump reply into the wait; returns the response once the
    /// last reply the request needs has arrived. A reply with no wait
    /// behind it (the deadline already answered 503) is dropped.
    pub(crate) fn collect(&mut self, reply: Reply, manager: &SessionManager) -> Option<Response> {
        let response = match (self.wait.as_mut()?, reply) {
            (PumpWait::Explain(session_id), reply) => explain_response(*session_id, reply),
            (PumpWait::Sessions { shards_left, rows }, Reply::Sessions(shard_rows)) => {
                rows.extend(shard_rows);
                *shards_left -= 1;
                if *shards_left > 0 {
                    return None;
                }
                rows.sort_by_key(|r| (r.shard, r.session_id));
                sessions_response(rows, manager)
            }
            (PumpWait::Sessions { .. }, _) => internal_error("unexpected pump reply\n"),
        };
        self.wait = None;
        Some(response)
    }
}

/// The response to a connection whose deadline passed before it was
/// answered: 408 while its head was still arriving, 503 while it waited
/// on a pump.
pub(crate) fn timeout_response(waiting_on_pump: bool) -> Response {
    if waiting_on_pump {
        service_unavailable("session pump did not answer in time\n")
    } else {
        (408, "Request Timeout", TEXT, "timeout\n".into())
    }
}

/// 503 for a pump query refused because the server is shutting down.
pub(crate) fn shutting_down() -> Response {
    service_unavailable("server is shutting down\n")
}

fn service_unavailable(body: &str) -> Response {
    (503, "Service Unavailable", TEXT, body.into())
}

fn not_found(body: &str) -> Response {
    (404, "Not Found", TEXT, body.into())
}

const TEXT: &str = "text/plain; charset=utf-8";
/// The content type Prometheus scrapers negotiate for the text format.
const PROM_TEXT: &str = "text/plain; version=0.0.4; charset=utf-8";
const JSON: &str = "application/json";
/// Raw CADF dumps (`/flightz/dump`).
const OCTET: &str = "application/octet-stream";

/// Body is bytes, not text: `/flightz/dump` streams raw CADF.
pub(crate) type Response = (u16, &'static str, &'static str, Vec<u8>);

pub(crate) fn http_431() -> Response {
    (
        431,
        "Request Header Fields Too Large",
        TEXT,
        "request line or headers too large\n".into(),
    )
}

pub(crate) struct Request {
    method: String,
    /// Path with any query string stripped.
    path: String,
    /// The raw query string (no leading `?`; empty when absent).
    query: String,
}

/// Parse a request head: the request line, then headers up to the blank
/// line (discarded — no header influences routing). `Ok(None)` while the
/// blank line has not arrived; `Err` once a line exceeds its bound.
fn parse_head(buf: &[u8]) -> Result<Option<Request>, ()> {
    let mut request_line: &[u8] = &[];
    for (i, line) in buf.split_inclusive(|&b| b == b'\n').enumerate() {
        let max = if i == 0 {
            MAX_REQUEST_LINE
        } else {
            MAX_HEAD_BYTES
        };
        let mut end = line.len();
        while end > 0 && matches!(line[end - 1], b'\n' | b'\r') {
            end -= 1;
        }
        if end > max {
            return Err(());
        }
        if !line.ends_with(b"\n") {
            return Ok(None);
        }
        if i == 0 {
            request_line = &line[..end];
        } else if end == 0 {
            return Ok(Some(parse_request_line(&String::from_utf8_lossy(
                request_line,
            ))));
        }
    }
    Ok(None)
}

fn parse_request_line(line: &str) -> Request {
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("");
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Request {
        method,
        path,
        query,
    }
}

/// Route one parsed request. Pure; `/sessions` and `/explain` name the
/// pump query the caller must submit.
pub(crate) fn route(request: &Request, shared: &OpsShared) -> Route {
    if request.method != "GET" {
        return Route::Respond((
            405,
            "Method Not Allowed",
            TEXT,
            "only GET is supported\n".into(),
        ));
    }
    Route::Respond(match request.path.as_str() {
        "/healthz" => (200, "OK", TEXT, "ok\n".into()),
        "/readyz" => {
            if shared.shutdown.requested() {
                service_unavailable("draining\n")
            } else {
                (200, "OK", TEXT, "ready\n".into())
            }
        }
        "/metrics" => (
            200,
            "OK",
            PROM_TEXT,
            cad_obs::global().snapshot().render_text().into(),
        ),
        "/tracez" => (200, "OK", JSON, render_tracez().into()),
        "/wal" => wal_response(shared),
        "/sessions" => return Route::Sessions,
        "/slowz" => slowz_response(),
        "/flightz" => flightz_response(&request.query, shared),
        "/flightz/dump" => flight_dump_response(&request.query, shared),
        "/selfwatch" => selfwatch_response(shared),
        path => match path.strip_prefix("/explain/") {
            Some(raw_id) => match raw_id.parse::<u64>() {
                Ok(session_id) => return Route::Explain(session_id),
                Err(_) => (
                    400,
                    "Bad Request",
                    TEXT,
                    "session id must be a decimal u64\n".into(),
                ),
            },
            None => not_found("unknown path\n"),
        },
    })
}

/// One `key=value` from a raw query string; no percent-decoding (metric
/// and parameter names here never need it).
fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// The slowest-N per-tick stage breakdowns (see [`crate::timing`]).
fn slowz_response() -> Response {
    let slowest = timing::slowest();
    let body = format!(
        "{{\"capacity\":{},\"stages\":{},\"slowest\":{}}}",
        timing::SLOW_RING_CAPACITY,
        json_array(timing::STAGES.iter().map(|s| json_str(s))),
        json_array(slowest.iter().map(render_timings)),
    );
    (200, "OK", JSON, body.into())
}

fn render_timings(t: &TickTimings) -> String {
    format!(
        "{{\"session_id\":{},\"base_tick\":{},\"n_ticks\":{},\"rounds\":{},\
         \"total_nanos\":{},\"slowest_stage\":{},\"queue_nanos\":{},\
         \"dispatch_nanos\":{},\"engine_nanos\":{},\"wal_nanos\":{},\
         \"ack_nanos\":{}}}",
        t.session_id,
        t.base_tick,
        t.n_ticks,
        t.rounds,
        t.total_nanos(),
        json_str(t.slowest_stage()),
        t.queue_nanos,
        t.dispatch_nanos,
        t.engine_nanos,
        t.wal_nanos,
        t.ack_nanos,
    )
}

/// A JSON window over the flight-recorder ring. `?last=N` bounds the
/// frame count (default 32); `?metric=substr` filters metrics by name.
fn flightz_response(query: &str, shared: &OpsShared) -> Response {
    let Some(recorder) = &shared.flight else {
        return not_found("flight recorder is disabled\n");
    };
    let last: usize = query_param(query, "last")
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    let metric = query_param(query, "metric").unwrap_or("");
    // Decode the whole retained ring (it chains from its oldest
    // keyframe), then keep the newest `last` frames.
    let bytes = recorder.dump(0, u64::MAX);
    let decoded = match cad_obs::decode_stream(&bytes) {
        Ok(d) => d,
        Err(_) => return internal_error("flight ring failed to decode\n"),
    };
    let skip = decoded.frames.len().saturating_sub(last);
    let body = format!(
        "{{\"cadence_ms\":{},\"ring\":{},\"frames_recorded\":{},\"spool_errors\":{},\
         \"frames\":{}}}",
        recorder.cadence().as_millis(),
        recorder.ring_capacity(),
        recorder.frames_recorded(),
        recorder.spool_errors(),
        json_array(
            decoded
                .frames
                .iter()
                .skip(skip)
                .map(|f| render_flight_frame(f.seq, f.ts_ms, f.keyframe, &f.snapshot, metric)),
        ),
    );
    (200, "OK", JSON, body.into())
}

fn render_flight_frame(
    seq: u64,
    ts_ms: u64,
    keyframe: bool,
    snap: &MetricsSnapshot,
    metric: &str,
) -> String {
    let mut metrics = Vec::new();
    for c in &snap.counters {
        if metric.is_empty() || c.name.contains(metric) {
            metrics.push(format!(
                "{{\"name\":{},\"kind\":\"counter\",\"value\":{}}}",
                json_str(&render_metric_name(&c.name, &c.labels)),
                c.value
            ));
        }
    }
    for g in &snap.gauges {
        if metric.is_empty() || g.name.contains(metric) {
            metrics.push(format!(
                "{{\"name\":{},\"kind\":\"gauge\",\"value\":{}}}",
                json_str(&render_metric_name(&g.name, &g.labels)),
                g.value
            ));
        }
    }
    for h in &snap.histograms {
        if metric.is_empty() || h.name.contains(metric) {
            metrics.push(format!(
                "{{\"name\":{},\"kind\":\"histogram\",\"count\":{},\"sum\":{},\
                 \"p99\":{}}}",
                json_str(&render_metric_name(&h.name, &h.labels)),
                h.count,
                h.sum,
                h.quantile(0.99)
            ));
        }
    }
    format!(
        "{{\"seq\":{seq},\"ts_ms\":{ts_ms},\"keyframe\":{keyframe},\"metrics\":[{}]}}",
        metrics.join(",")
    )
}

fn render_metric_name(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name}{{{}}}", pairs.join(","))
}

/// Raw CADF bytes for offline replay. `?from=&to=` bound the frame seqs;
/// the recorder extends the window back to the nearest keyframe, so the
/// dump is independently decodable and byte-identical across calls while
/// the frames stay in the ring.
fn flight_dump_response(query: &str, shared: &OpsShared) -> Response {
    let Some(recorder) = &shared.flight else {
        return not_found("flight recorder is disabled\n");
    };
    let from: u64 = query_param(query, "from")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let to: u64 = query_param(query, "to")
        .and_then(|v| v.parse().ok())
        .unwrap_or(u64::MAX);
    (200, "OK", OCTET, recorder.dump(from, to))
}

/// The self-watch status and recent verdicts.
fn selfwatch_response(shared: &OpsShared) -> Response {
    let Some(watch) = &shared.selfwatch else {
        return not_found("self-watch is disabled\n");
    };
    let status = watch.status();
    let body = format!(
        "{{\"w\":{},\"s\":{},\"eta\":{},\"theta\":{},\"tau\":{},\"horizon\":{},\
         \"sensors\":{},\"quarantined_sensors\":{},\
         \"frames\":{},\"rounds\":{},\"abnormal\":{},\"verdicts\":{}}}",
        status.w,
        status.s,
        json_f64(status.eta),
        json_f64(status.theta),
        json_f64(status.tau),
        status.horizon,
        status.sensors,
        status.quarantined_sensors,
        status.frames,
        status.rounds,
        status.abnormal,
        json_array(status.verdicts.iter().map(render_verdict)),
    );
    (200, "OK", JSON, body.into())
}

fn render_verdict(v: &SelfWatchVerdict) -> String {
    format!(
        "{{\"seq\":{},\"round\":{},\"n_r\":{},\"zscore\":{},\"abnormal\":{},\
         \"outliers\":{}}}",
        v.seq,
        v.round,
        v.n_r,
        json_f64(v.zscore),
        v.abnormal,
        json_array(v.outliers.iter().map(|name| json_str(name))),
    )
}

/// WAL health straight from the shared counters: no pump round trip, so
/// the endpoint answers even while every ingress queue is saturated.
fn wal_response(shared: &OpsShared) -> Response {
    let Some(wal) = shared.manager.wal_status() else {
        return not_found("WAL is disabled\n");
    };
    let body = format!(
        "{{\"dir\":{},\"fsync\":{},\"segment_bytes\":{},\"segments\":{},\
         \"bytes\":{},\"appends\":{},\"appended_bytes\":{},\"fsyncs\":{},\
         \"append_errors\":{},\"compacted_segments\":{},\
         \"retain_bytes\":{},\"retention_segments\":{},\"retention_bytes\":{},\
         \"recovery\":{{\"records\":{},\"ticks\":{},\"dropped_records\":{},\
         \"dropped_bytes\":{},\"gaps\":{}}}}}",
        json_str(&wal.dir.display().to_string()),
        json_str(&wal.fsync),
        wal.segment_bytes,
        wal.segments,
        wal.bytes,
        wal.appends,
        wal.appended_bytes,
        wal.fsyncs,
        wal.append_errors,
        wal.compacted_segments,
        wal.retain_bytes,
        wal.retention_segments,
        wal.retention_bytes,
        wal.recovery_records,
        wal.recovery_ticks,
        wal.recovery_dropped_records,
        wal.recovery_dropped_bytes,
        wal.recovery_gaps,
    );
    (200, "OK", JSON, body.into())
}

fn sessions_response(rows: &[SessionRow], manager: &SessionManager) -> Response {
    (
        200,
        "OK",
        JSON,
        format!(
            "{{\"queue_depth\":{},\"sessions\":{}}}",
            manager.queue_depth(),
            json_array(rows.iter().map(render_session_row))
        )
        .into(),
    )
}

fn explain_response(session_id: u64, reply: Reply) -> Response {
    match reply {
        Reply::Explained(records) => (
            200,
            "OK",
            JSON,
            format!(
                "{{\"session_id\":{},\"records\":{}}}",
                session_id,
                json_array(records.iter().map(render_round_record))
            )
            .into(),
        ),
        Reply::Failed { code, message } if code == codes::UNKNOWN_SESSION => {
            not_found(&format!("{message}\n"))
        }
        Reply::Failed { message, .. } => service_unavailable(&format!("{message}\n")),
        _ => internal_error("unexpected pump reply\n"),
    }
}

fn internal_error(body: &str) -> Response {
    (500, "Internal Server Error", TEXT, body.into())
}

/// One forensics record as a JSON object; floats render via `Display`
/// (shortest round-trip form), so parsing them back recovers the bits.
fn render_round_record(r: &WireRoundRecord) -> String {
    format!(
        "{{\"round\":{},\"n_r\":{},\"mu_pre\":{},\"sigma_pre\":{},\"eta_sigma\":{},\
         \"abnormal\":{},\"outlier_sensors\":{}}}",
        r.round,
        r.n_r,
        json_f64(r.mu_pre()),
        json_f64(r.sigma_pre()),
        json_f64(r.eta_sigma()),
        r.abnormal,
        json_array(r.outlier_sensors.iter().map(|s| s.to_string())),
    )
}

fn render_session_row(row: &SessionRow) -> String {
    let state = match row.state {
        SessionState::Active => "active",
        SessionState::Hibernated => "hibernated",
    };
    format!(
        "{{\"shard\":{},\"session_id\":{},\"n_sensors\":{},\"samples_seen\":{},\
         \"rounds\":{},\"anomalies\":{},\"resumed\":{},\"state\":{},\
         \"last_push_round\":{},\"quarantined_sensors\":{},\
         \"warmup_rounds_left\":{}}}",
        row.shard,
        row.session_id,
        row.n_sensors,
        row.samples_seen,
        row.rounds,
        row.anomalies,
        row.resumed,
        json_str(state),
        row.last_push_round,
        row.quarantined_sensors,
        row.warmup_rounds_left,
    )
}

/// The trace ring as JSON, newest last, without draining it.
fn render_tracez() -> String {
    let events = cad_obs::tracer().events();
    format!(
        "{{\"enabled\":{},\"events\":{}}}",
        cad_obs::tracer().enabled(),
        json_array(events.iter().map(render_traced_event))
    )
}

fn render_traced_event(e: &TracedEvent) -> String {
    let (name, field, value) = match e.event {
        TraceEvent::RoundEvaluated { n_r, abnormal } => {
            return format!(
                "{{\"seq\":{},\"type\":\"RoundEvaluated\",\"n_r\":{n_r},\"abnormal\":{abnormal}}}",
                e.seq
            );
        }
        TraceEvent::AnomalyFlagged { n_r } => ("AnomalyFlagged", "n_r", n_r),
        TraceEvent::RebuildTriggered {
            rounds_since_rebuild,
        } => (
            "RebuildTriggered",
            "rounds_since_rebuild",
            rounds_since_rebuild,
        ),
        TraceEvent::BackpressureEntered { queue_depth } => {
            ("BackpressureEntered", "queue_depth", queue_depth)
        }
        TraceEvent::BackpressureExited { waited_nanos } => {
            ("BackpressureExited", "waited_nanos", waited_nanos)
        }
        TraceEvent::SessionCreated { session_id } => ("SessionCreated", "session_id", session_id),
        TraceEvent::SessionDropped { session_id } => ("SessionDropped", "session_id", session_id),
        TraceEvent::SessionPanicked { session_id } => ("SessionPanicked", "session_id", session_id),
        TraceEvent::SnapshotSaved { session_id } => ("SnapshotSaved", "session_id", session_id),
        TraceEvent::SessionHibernated { session_id } => {
            ("SessionHibernated", "session_id", session_id)
        }
        TraceEvent::SessionResurrected { session_id } => {
            ("SessionResurrected", "session_id", session_id)
        }
        TraceEvent::SelfWatchAbnormal { n_r } => ("SelfWatchAbnormal", "n_r", n_r),
        TraceEvent::SessionReshaped {
            session_id,
            n_sensors,
        } => {
            return format!(
                "{{\"seq\":{},\"type\":\"SessionReshaped\",\"session_id\":{session_id},\
                 \"n_sensors\":{n_sensors}}}",
                e.seq
            );
        }
    };
    format!(
        "{{\"seq\":{},\"type\":{},{}:{value}}}",
        e.seq,
        json_str(name),
        json_str(field)
    )
}

/// Append one complete response to `out`; always `Connection: close`.
pub(crate) fn encode_response(out: &mut Vec<u8>, response: Response) {
    let (status, reason, content_type, body) = response;
    // Writing into a Vec cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    out.extend_from_slice(&body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SessionSpec;
    use crate::server::{CadServer, ServeConfig};
    use crate::session::Command;
    use std::sync::mpsc;

    /// A live server with the ops plane on; returns the ops address,
    /// the manager (for seeding sessions), and the teardown.
    struct OpsFixture {
        addr: std::net::SocketAddr,
        manager: SessionManager,
        shutdown: ShutdownHandle,
        server: Option<std::thread::JoinHandle<io::Result<usize>>>,
    }

    fn fixture() -> OpsFixture {
        fixture_with(ServeConfig {
            shards: 1,
            explain_rounds: 16,
            ..ServeConfig::default()
        })
    }

    fn fixture_with(cfg: ServeConfig) -> OpsFixture {
        let server = CadServer::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            ops_addr: Some("127.0.0.1:0".into()),
            ..cfg
        })
        .expect("bind");
        let addr = server.local_ops_addr().expect("ops addr");
        let manager = server.manager();
        let shutdown = server.shutdown_handle();
        let server = std::thread::spawn(move || server.run());
        OpsFixture {
            addr,
            manager,
            shutdown,
            server: Some(server),
        }
    }

    impl Drop for OpsFixture {
        fn drop(&mut self) {
            self.shutdown.request();
            if let Some(h) = self.server.take() {
                let _ = h.join();
            }
        }
    }

    /// Send raw bytes, read the whole response, return it as a string.
    fn raw_request(addr: std::net::SocketAddr, bytes: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        stream.write_all(bytes).expect("write");
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        out
    }

    fn get(addr: std::net::SocketAddr, path: &str) -> String {
        raw_request(
            addr,
            format!("GET {path} HTTP/1.1\r\nHost: cad\r\n\r\n").as_bytes(),
        )
    }

    fn status_of(response: &str) -> u16 {
        response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    }

    #[test]
    fn health_ready_and_metrics_answer_200() {
        let fx = fixture();
        assert_eq!(status_of(&get(fx.addr, "/healthz")), 200);
        assert_eq!(status_of(&get(fx.addr, "/readyz")), 200);
        let metrics = get(fx.addr, "/metrics");
        assert_eq!(status_of(&metrics), 200);
        assert!(metrics.contains("Connection: close"), "{metrics}");
    }

    #[test]
    fn readyz_reports_draining_after_shutdown_request() {
        let fx = fixture();
        fx.shutdown.request();
        // The accept loop may exit before we connect; only assert when a
        // response made it back.
        if let Ok(mut stream) = TcpStream::connect(fx.addr) {
            let _ = stream.write_all(b"GET /readyz HTTP/1.1\r\n\r\n");
            let mut out = String::new();
            let _ = stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .and_then(|_| stream.read_to_string(&mut out).map(|_| ()));
            if !out.is_empty() {
                assert_eq!(status_of(&out), 503);
                assert!(out.contains("draining"), "{out}");
            }
        }
    }

    #[test]
    fn unknown_path_is_404_and_non_get_is_405() {
        let fx = fixture();
        assert_eq!(status_of(&get(fx.addr, "/nope")), 404);
        let post = raw_request(fx.addr, b"POST /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status_of(&post), 405);
    }

    #[test]
    fn oversized_request_line_is_431() {
        let fx = fixture();
        let long_path = "a".repeat(MAX_REQUEST_LINE + 10);
        let response = raw_request(
            fx.addr,
            format!("GET /{long_path} HTTP/1.1\r\n\r\n").as_bytes(),
        );
        assert_eq!(status_of(&response), 431);
        // Oversized heads (many headers) hit the same bound.
        let many_headers = format!(
            "GET /healthz HTTP/1.1\r\n{}\r\n",
            "X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n".repeat(400)
        );
        assert_eq!(
            status_of(&raw_request(fx.addr, many_headers.as_bytes())),
            431
        );
    }

    #[test]
    fn slow_loris_times_out_without_wedging_the_ops_plane() {
        let fx = fixture();
        // A partial request line, then silence past the read timeout.
        let mut loris = TcpStream::connect(fx.addr).expect("connect");
        loris.write_all(b"GET /heal").expect("write");
        loris
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut out = String::new();
        let _ = loris.read_to_string(&mut out);
        // The handler dropped it — either silently or with a 408.
        if !out.is_empty() {
            assert_eq!(status_of(&out), 408);
        }
        // And the plane still answers fresh requests.
        assert_eq!(status_of(&get(fx.addr, "/healthz")), 200);
    }

    #[test]
    fn explain_rejects_bad_ids_and_unknown_sessions() {
        let fx = fixture();
        assert_eq!(status_of(&get(fx.addr, "/explain/not-a-number")), 400);
        assert_eq!(status_of(&get(fx.addr, "/explain/999")), 404);
    }

    #[test]
    fn sessions_and_explain_render_live_state() {
        let fx = fixture();
        let (tx, rx) = mpsc::channel();
        fx.manager
            .try_enqueue(Command::Create {
                session_id: 7,
                spec: SessionSpec::new(4, 16, 4),
                reply: tx.into(),
            })
            .expect("enqueue");
        assert!(matches!(rx.recv().expect("reply"), Reply::Created { .. }));
        let sessions = get(fx.addr, "/sessions");
        assert_eq!(status_of(&sessions), 200);
        assert!(sessions.contains("\"session_id\":7"), "{sessions}");
        assert!(sessions.contains("\"queue_depth\":"), "{sessions}");
        let explain = get(fx.addr, "/explain/7");
        assert_eq!(status_of(&explain), 200);
        assert!(explain.contains("\"records\":["), "{explain}");
    }

    #[test]
    fn tracez_is_json_shaped() {
        let fx = fixture();
        let tracez = get(fx.addr, "/tracez");
        assert_eq!(status_of(&tracez), 200);
        assert!(tracez.contains("\"events\":["), "{tracez}");
    }

    #[test]
    fn wal_endpoint_is_404_when_disabled() {
        let fx = fixture();
        assert_eq!(status_of(&get(fx.addr, "/wal")), 404);
    }

    #[test]
    fn wal_endpoint_reports_health_when_enabled() {
        let dir = std::env::temp_dir().join(format!("cad-ops-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fx = fixture_with(ServeConfig {
            shards: 1,
            explain_rounds: 16,
            wal_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        fx.manager
            .try_enqueue(Command::Create {
                session_id: 3,
                spec: SessionSpec::new(4, 16, 4),
                reply: tx.into(),
            })
            .expect("enqueue");
        assert!(matches!(rx.recv().expect("reply"), Reply::Created { .. }));
        let wal = get(fx.addr, "/wal");
        assert_eq!(status_of(&wal), 200);
        assert!(wal.contains("\"fsync\":"), "{wal}");
        assert!(wal.contains("\"appends\":1"), "{wal}");
        assert!(wal.contains("\"recovery\":{"), "{wal}");
        drop(fx);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
