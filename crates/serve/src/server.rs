//! The TCP server: one readiness loop for every socket the process owns,
//! and graceful shutdown.
//!
//! ## I/O core
//!
//! Every socket — the native listener, the ops-plane listener and every
//! connection on either — is driven by a fixed worker pool and a
//! one-shot readiness [`Poller`](crate::poll::Poller) (epoll on Linux,
//! `poll(2)` elsewhere). The thread roles:
//!
//! * a **poller thread** waits for readiness. A ready listener is
//!   accepted from until it would block, then re-armed: each native
//!   socket is admitted (or refused above `max_connections`), made
//!   nonblocking and registered; so is each ops socket, as an HTTP
//!   connection kind with its own cap. Ready connection tokens go to a
//!   bounded ready queue. The wait's timeout tick also re-dispatches
//!   deferred pushes and expires ops connections past their deadline;
//! * **I/O workers** pop tokens, flush any queued reply bytes and decode
//!   frames through the resumable `FrameReader` (which survives partial
//!   reads across `WouldBlock` — the seam that makes readiness-driven
//!   reads safe). A command frame is submitted to the session manager
//!   with a *routed* reply and the connection's read interest stays off
//!   until the reply is written — one command in flight per connection,
//!   exactly the old thread-per-connection discipline without the thread.
//!   An ops connection reads one bounded HTTP request head instead and is
//!   answered once (see [`crate::ops`]);
//! * a **reply router** receives `(token, reply)` pairs from the pumps,
//!   encodes the reply into the connection's write queue (a wire frame,
//!   or an HTTP response for `/explain` and `/sessions`), flushes what
//!   the socket accepts and re-arms interest (write interest while bytes
//!   remain — backpressure parks the *connection*, never a worker);
//! * the **pumps**, one per shard (see [`crate::session`]), plus the
//!   flight-recorder sampler and self-watch threads when configured.
//!
//! One-shot delivery means a token in flight cannot fire again, so two
//! workers never enter the same connection; a wedged peer (mid-frame
//! stall, slow-loris) owns no thread and stalls nobody.
//!
//! A push that would overrun the ingress queue is *deferred*: the client
//! has already seen an explicit `Backpressure` frame, the command waits
//! at the connection (read off), and the poller retries admission every
//! few milliseconds — the same lossless throttling the blocking path
//! provided, without occupying a worker.
//!
//! ## Shutdown
//!
//! Teardown stops accepting (the poller no longer re-arms a listener
//! once the flag is up), gives live connections a grace window to
//! finish their in-flight command, closes the ingress queues, lets the
//! pumps drain every queued command (replies still flow through the
//! router), persists all sessions, then retires the router, workers and
//! poller. A `Shutdown` frame is acknowledged before the flag takes
//! effect; later frames are refused with `SHUTTING_DOWN`.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cad_obs::TraceEvent;

use crate::metrics;
use crate::ops::{self, HeadRead, HttpConn, OpsShared, PumpWait, Route, MAX_OPS_CONNECTIONS};
use crate::poll::{Event, Interest, Poller};
use crate::protocol::{
    codes, max_push_ticks, write_frame, Frame, FrameReader, ProtoError, ServerStats, SessionStats,
};
use crate::session::{
    Command, ManagerConfig, Reply, ReplyTo, SessionManager, SessionPump, TryEnqueueError,
};
use crate::timing;

/// Configuration for [`CadServer::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7464`. Port 0 picks a free port.
    pub addr: String,
    /// Worker shards (defaults to the `cad-runtime` thread count).
    pub shards: usize,
    /// Maximum live sessions.
    pub max_sessions: usize,
    /// Maximum sensors per session.
    pub max_sensors: usize,
    /// Per-shard ingress-queue capacity in ticks.
    pub queue_capacity: usize,
    /// Ops-plane request deadline: a peer whose request head has not
    /// arrived this long after the accept is answered 408.
    pub read_timeout: Duration,
    /// Ops-plane response deadline: a peer that has not taken its whole
    /// response this long after it was queued is dropped.
    pub write_timeout: Duration,
    /// Maximum concurrent connections; accepts beyond this are refused
    /// with an `ADMISSION` error frame instead of being registered.
    pub max_connections: usize,
    /// Ops-plane (HTTP) bind address, e.g. `127.0.0.1:7465`; `None`
    /// (the default) disables the ops listener entirely.
    pub ops_addr: Option<String>,
    /// Per-session forensics journal bound in rounds (0 disables
    /// journaling; see [`cad_core::ExplainJournal`]).
    pub explain_rounds: usize,
    /// Hibernate a session after this many pump sweeps without a push
    /// (0 disables; requires `spill_dir`).
    pub hibernate_after_rounds: usize,
    /// The state directory: one checksummed `session-<id>.cadh` file per
    /// persisted session, written by hibernation, `Snapshot` and shutdown
    /// and registered at restart. `None` disables persistence.
    pub spill_dir: Option<PathBuf>,
    /// I/O worker threads (0 = auto: `min(cores, 8)`, at least 2).
    pub io_workers: usize,
    /// Write-ahead-log directory; `None` (the default) disables the WAL.
    pub wal_dir: Option<PathBuf>,
    /// WAL fsync policy (`CAD_WAL_FSYNC` syntax).
    pub wal_fsync: cad_wal::FsyncPolicy,
    /// WAL segment size cap in bytes.
    pub wal_segment_bytes: u64,
    /// Size-based WAL retention: force-remove the oldest *sealed*
    /// segments once they exceed this many bytes (0 disables; sacrifices
    /// replay history for a bounded disk footprint).
    pub wal_retain_bytes: u64,
    /// Flight recorder tuning; `None` (the default) disables recording
    /// entirely — no sampler thread, zero steady-state cost.
    pub flight: Option<cad_obs::FlightConfig>,
    /// Self-watch tuning; requires `flight` (the recorder ring is the
    /// window source). `None` disables the watcher.
    pub selfwatch: Option<crate::selfwatch::SelfWatchConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let m = ManagerConfig::default();
        Self {
            addr: "127.0.0.1:7464".into(),
            shards: m.shards,
            max_sessions: m.max_sessions,
            max_sensors: m.max_sensors,
            queue_capacity: m.queue_capacity,
            read_timeout: Duration::from_millis(200),
            write_timeout: Duration::from_secs(5),
            max_connections: 1024,
            ops_addr: None,
            explain_rounds: m.explain_rounds,
            hibernate_after_rounds: 0,
            spill_dir: None,
            io_workers: 0,
            wal_dir: None,
            wal_fsync: m.wal_fsync,
            wal_segment_bytes: m.wal_segment_bytes,
            wal_retain_bytes: m.wal_retain_bytes,
            flight: None,
            selfwatch: None,
        }
    }
}

impl ServeConfig {
    fn effective_io_workers(&self) -> usize {
        match self.io_workers {
            // At least 2 so one connection mid-service can never starve
            // the pool on a single-core host.
            0 => cad_runtime::effective_threads().clamp(2, 8),
            n => n.max(1),
        }
    }
}

/// Flag that stops a running server; cloneable into signal handlers and
/// frames alike.
#[derive(Debug, Clone, Default)]
pub struct ShutdownHandle(Arc<ShutdownFlag>);

/// The flag (read lock-free on every frame) plus the condvar
/// [`CadServer::run`] sleeps on until it goes up.
#[derive(Debug, Default)]
struct ShutdownFlag {
    requested: AtomicBool,
    lock: Mutex<()>,
    raised: Condvar,
}

impl ShutdownHandle {
    /// Request shutdown; idempotent.
    pub fn request(&self) {
        self.0.requested.store(true, Ordering::SeqCst);
        let _guard = self.0.lock.lock().expect("shutdown lock poisoned");
        self.0.raised.notify_all();
    }

    /// Whether shutdown has been requested.
    pub fn requested(&self) -> bool {
        self.0.requested.load(Ordering::SeqCst)
    }

    /// Block until shutdown is requested.
    fn wait(&self) {
        let mut guard = self.0.lock.lock().expect("shutdown lock poisoned");
        while !self.requested() {
            guard = self.0.raised.wait(guard).expect("shutdown lock poisoned");
        }
    }
}

/// A bound, not-yet-running CAD ingestion server.
pub struct CadServer {
    listener: TcpListener,
    /// The ops-plane (HTTP) listener, bound eagerly so port 0 resolves
    /// before `run` and scrape addresses are known up front.
    ops_listener: Option<TcpListener>,
    manager: SessionManager,
    pump: SessionPump,
    shutdown: ShutdownHandle,
    /// Built at bind so the backend choice is visible (and fails) before
    /// `run`.
    poller: Poller,
    cfg: ServeConfig,
}

/// One command in flight: enough context to turn the eventual [`Reply`]
/// back into the right wire frame (each command has its own reply kind).
struct Pending {
    session_id: u64,
    /// Push only: the client was warned with a `Backpressure` frame.
    throttled: bool,
    /// Push only: queue depth at admission, echoed in the ack.
    queue_depth: u32,
    /// Push only: frame-decoded instant, for the latency histogram.
    started: Option<Instant>,
}

/// A push the ingress queue refused: it waits at the connection (read
/// interest off) until the poller's retry tick re-attempts admission.
struct Deferred {
    cmd: Command,
    throttled: bool,
    started: Instant,
}

/// Per-connection state. All mutation happens under the connection's own
/// mutex; one-shot readiness plus the in-flight flags keep the protocol's
/// one-command-at-a-time discipline.
struct Conn {
    /// `Some` for an ops-plane (HTTP) connection; the frame fields below
    /// are then unused.
    http: Option<HttpConn>,
    stream: TcpStream,
    token: u64,
    frames: FrameReader,
    /// Encoded reply bytes not yet accepted by the socket.
    out: Vec<u8>,
    out_pos: usize,
    greeted: bool,
    awaiting: Option<Pending>,
    deferred: Option<Deferred>,
    /// Write out the queued bytes, then drop the connection.
    close_after_flush: bool,
}

impl Conn {
    fn quiesced(&self) -> bool {
        self.awaiting.is_none()
            && self.deferred.is_none()
            && !matches!(&self.http, Some(h) if h.wait.is_some())
            && self.out_pos >= self.out.len()
    }
}

/// Everything the poller, workers and router share.
struct IoShared {
    poller: Poller,
    listener: TcpListener,
    ops_listener: Option<TcpListener>,
    conns: Mutex<HashMap<u64, Arc<Mutex<Conn>>>>,
    /// Live ops connections (the rest of `conns` is the data plane).
    ops_live: AtomicUsize,
    /// Ops connection deadlines, checked on the poller's timeout tick.
    deadlines: Mutex<Vec<(u64, Instant)>>,
    ready: Mutex<VecDeque<u64>>,
    ready_cv: Condvar,
    /// Tokens with a deferred push awaiting an admission retry.
    deferred: Mutex<Vec<u64>>,
    manager: SessionManager,
    shutdown: ShutdownHandle,
    ops: OpsShared,
    cfg: ServeConfig,
    reply_tx: Sender<(u64, Reply)>,
    /// Workers and the poller exit when set (after the pumps drained).
    done: AtomicBool,
    ready_peak: AtomicI64,
    /// A listener or poller failure that ends the server; `run` returns
    /// it after the drain.
    fatal: Mutex<Option<io::Error>>,
}

/// Router sentinel: no connection ever gets this token (it is the
/// poller's reserved wake token too).
const ROUTER_STOP: u64 = u64::MAX;
/// Poller token of the native listener.
const LISTENER: u64 = u64::MAX - 1;
/// Poller token of the ops-plane listener. Connection tokens stay below.
const OPS_LISTENER: u64 = u64::MAX - 2;
/// Ops connection tokens carry this bit; data-plane tokens stay below it.
const OPS_TOKEN: u64 = 1 << 62;

impl CadServer {
    /// Bind the listener and register every session file found in
    /// `cfg.spill_dir` (see [`SessionManager::new`]).
    pub fn bind(cfg: ServeConfig) -> io::Result<CadServer> {
        let (manager, pump) = SessionManager::new(ManagerConfig {
            shards: cfg.shards,
            max_sessions: cfg.max_sessions,
            max_sensors: cfg.max_sensors,
            queue_capacity: cfg.queue_capacity,
            explain_rounds: cfg.explain_rounds,
            hibernate_after_rounds: cfg.hibernate_after_rounds,
            spill_dir: cfg.spill_dir.clone(),
            wal_dir: cfg.wal_dir.clone(),
            wal_fsync: cfg.wal_fsync,
            wal_segment_bytes: cfg.wal_segment_bytes,
            wal_retain_bytes: cfg.wal_retain_bytes,
        })?;
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let ops_listener = match &cfg.ops_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        Ok(CadServer {
            listener,
            ops_listener,
            manager,
            pump,
            shutdown: ShutdownHandle::default(),
            // Honours CAD_SERVE_POLLER, else the platform default.
            poller: Poller::new()?,
            cfg,
        })
    }

    /// The session manager, for tests that seed sessions directly.
    #[cfg(test)]
    pub(crate) fn manager(&self) -> SessionManager {
        self.manager.clone()
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound ops-plane address, when `ops_addr` was configured.
    pub fn local_ops_addr(&self) -> Option<SocketAddr> {
        self.ops_listener.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Handle that stops [`CadServer::run`] from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Which poller backend connection I/O will run on (`"epoll"` or
    /// `"poll"`).
    pub fn poller_kind(&self) -> &'static str {
        self.poller.kind()
    }

    /// The shard count: one ingress queue and one pump thread each.
    pub fn shards(&self) -> usize {
        self.manager.shards()
    }

    /// The effective connection I/O worker-pool size.
    pub fn io_workers(&self) -> usize {
        self.cfg.effective_io_workers()
    }

    /// Accept and serve connections until shutdown is requested, then
    /// drain the queues and persist every session. Returns the number of
    /// sessions persisted.
    pub fn run(self) -> io::Result<usize> {
        let CadServer {
            listener,
            ops_listener,
            manager,
            pump,
            shutdown,
            poller,
            cfg,
        } = self;
        let pump_thread = spawn("cad-serve-pump", move || pump.run())?;
        // Flight recorder and self-watch start before the ops plane so
        // the first scrape can already see them; both are fully absent
        // (no thread, no ring) unless configured.
        let flight = match &cfg.flight {
            Some(fc) => Some(Arc::new(cad_obs::FlightRecorder::new(fc.clone())?)),
            None => None,
        };
        let sampler = flight
            .as_ref()
            .map(|r| cad_obs::start_sampler(Arc::clone(r)));
        let selfwatch = match (&flight, &cfg.selfwatch) {
            (Some(rec), Some(swc)) => Some(Arc::new(crate::selfwatch::SelfWatch::new(
                Arc::clone(rec),
                swc.clone(),
            ))),
            _ => None,
        };
        let watcher = selfwatch
            .as_ref()
            .map(|w| crate::selfwatch::start_watcher(Arc::clone(w)));
        poller.register(listener.as_raw_fd(), LISTENER, Interest::READ)?;
        if let Some(l) = &ops_listener {
            poller.register(l.as_raw_fd(), OPS_LISTENER, Interest::READ)?;
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        let shared = Arc::new(IoShared {
            poller,
            listener,
            ops_listener,
            conns: Mutex::new(HashMap::new()),
            ops_live: AtomicUsize::new(0),
            deadlines: Mutex::new(Vec::new()),
            ready: Mutex::new(VecDeque::new()),
            ready_cv: Condvar::new(),
            deferred: Mutex::new(Vec::new()),
            manager: manager.clone(),
            shutdown: shutdown.clone(),
            ops: OpsShared {
                manager: manager.clone(),
                shutdown: shutdown.clone(),
                flight,
                selfwatch,
            },
            cfg,
            reply_tx,
            done: AtomicBool::new(false),
            ready_peak: AtomicI64::new(0),
            fatal: Mutex::new(None),
        });
        let with_shared = |f: fn(&IoShared)| {
            let shared = Arc::clone(&shared);
            move || f(&shared)
        };
        let poller_thread = spawn("cad-serve-poll", with_shared(run_poller))?;
        let router_thread = {
            let shared = Arc::clone(&shared);
            spawn("cad-serve-router", move || run_router(&shared, reply_rx))?
        };
        let mut workers = Vec::new();
        for i in 0..shared.cfg.effective_io_workers() {
            workers.push(spawn(
                &format!("cad-serve-io-{i}"),
                with_shared(run_worker),
            )?);
        }

        shutdown.wait();

        // Grace window: let connections finish the command they have in
        // flight (replies still flow) before the queues close. Quiesced
        // connections are the common case, so this usually exits in one
        // probe.
        let grace_deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let busy = {
                let conns = shared.conns.lock().expect("conn table poisoned");
                conns
                    .values()
                    .any(|c| c.lock().map(|conn| !conn.quiesced()).unwrap_or(false))
            };
            if !busy || Instant::now() >= grace_deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Wind down the observers before the pumps drain so their final
        // frames cover the full serving window.
        if let Some(w) = watcher {
            w.stop();
        }
        if let Some(s) = sampler {
            s.stop();
        }
        manager.close();
        let persisted = pump_thread
            .join()
            .map_err(|_| io::Error::other("pump thread panicked"))?;
        // The pumps answered everything they will ever answer; stop the
        // router, then the workers and the poller.
        let _ = shared.reply_tx.send((ROUTER_STOP, Reply::Closed));
        let _ = router_thread.join();
        shared.done.store(true, Ordering::SeqCst);
        shared.poller.wake();
        {
            let _ready = shared.ready.lock().expect("ready queue poisoned");
            shared.ready_cv.notify_all();
        }
        for h in workers {
            let _ = h.join();
        }
        let _ = poller_thread.join();
        let fatal = shared.fatal.lock().expect("fatal slot poisoned").take();
        match fatal {
            Some(e) => Err(e),
            None => Ok(persisted),
        }
    }
}

fn spawn<T: Send + 'static>(
    name: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> io::Result<std::thread::JoinHandle<T>> {
    std::thread::Builder::new().name(name.into()).spawn(f)
}

/// Record a failure that ends the server and start the shutdown.
fn fail(shared: &IoShared, e: io::Error) {
    shared
        .fatal
        .lock()
        .expect("fatal slot poisoned")
        .get_or_insert(e);
    shared.shutdown.request();
}

/// Accept from a ready listener until it would block, then re-arm it.
/// Once shutdown is requested the listener is left disarmed: accepting
/// stops.
fn accept_ready(shared: &IoShared, token: u64, next_token: &mut u64) {
    let listener = match &shared.ops_listener {
        Some(l) if token == OPS_LISTENER => l,
        _ => &shared.listener,
    };
    while !shared.shutdown.requested() {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                let rearm = shared
                    .poller
                    .rearm(listener.as_raw_fd(), token, Interest::READ);
                return rearm.unwrap_or_else(|e| fail(shared, e));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return fail(shared, e),
        };
        let ops_live = shared.ops_live.load(Ordering::Relaxed);
        let http = if token == OPS_LISTENER {
            if ops_live >= MAX_OPS_CONNECTIONS {
                // Scrapers retry; dropping beats queueing unboundedly.
                continue;
            }
            Some(HttpConn::new(Instant::now() + shared.cfg.read_timeout))
        } else {
            // Off by one while a worker drops an ops connection; the cap
            // only needs to hold approximately.
            let conns = shared.conns.lock().expect("conn table poisoned").len();
            if conns.saturating_sub(ops_live) >= shared.cfg.max_connections {
                refuse_connection(stream);
                continue;
            }
            let connections = &shared.manager.counters().connections;
            connections.fetch_add(1, Ordering::Relaxed);
            None
        };
        // Registration failures (fd pressure) cost one connection, never
        // the server.
        let tag = if http.is_some() { OPS_TOKEN } else { 0 };
        let _ = admit_connection(shared, stream, tag | *next_token, http);
        *next_token = (*next_token + 1) % OPS_TOKEN;
    }
}

/// Make an accepted socket nonblocking, register it and seed its state.
fn admit_connection(
    shared: &IoShared,
    stream: TcpStream,
    token: u64,
    http: Option<HttpConn>,
) -> io::Result<()> {
    stream.set_nonblocking(true)?;
    let _ = stream.set_nodelay(true);
    let fd = stream.as_raw_fd();
    let deadline = http.as_ref().map(|h| h.deadline);
    let conn = Arc::new(Mutex::new(Conn {
        http,
        stream,
        token,
        frames: FrameReader::new(),
        out: Vec::new(),
        out_pos: 0,
        greeted: false,
        awaiting: None,
        deferred: None,
        close_after_flush: false,
    }));
    shared
        .conns
        .lock()
        .expect("conn table poisoned")
        .insert(token, Arc::clone(&conn));
    if let Err(e) = shared.poller.register(fd, token, Interest::READ) {
        shared
            .conns
            .lock()
            .expect("conn table poisoned")
            .remove(&token);
        return Err(e);
    }
    if deadline.is_some() {
        shared.ops_live.fetch_add(1, Ordering::Relaxed);
        set_deadline(shared, token, deadline);
    }
    Ok(())
}

/// Remove a connection entirely: interest, table entry, socket.
fn drop_connection(shared: &IoShared, token: u64) {
    let conn = shared
        .conns
        .lock()
        .expect("conn table poisoned")
        .remove(&token);
    if let Some(conn) = conn {
        if let Ok(c) = conn.lock() {
            let _ = shared.poller.deregister(c.stream.as_raw_fd());
            let _ = c.stream.shutdown(std::net::Shutdown::Both);
            if c.http.is_some() {
                shared.ops_live.fetch_sub(1, Ordering::Relaxed);
                set_deadline(shared, token, None);
            }
        }
    }
    shared
        .deferred
        .lock()
        .expect("deferred list poisoned")
        .retain(|&t| t != token);
}

/// Replace (or with `None`, clear) an ops connection's deadline on the
/// poller tick.
fn set_deadline(shared: &IoShared, token: u64, at: Option<Instant>) {
    let mut deadlines = shared.deadlines.lock().expect("deadline list poisoned");
    deadlines.retain(|&(t, _)| t != token);
    deadlines.extend(at.map(|at| (token, at)));
}

/// The poller loop: waits for readiness, accepts on ready listeners,
/// feeds connection tokens to the workers, and on a short tick
/// re-dispatches deferred pushes and expired ops connections.
fn run_poller(shared: &IoShared) {
    let mut events = Vec::new();
    let mut next_token = 0;
    loop {
        if shared.done.load(Ordering::SeqCst) {
            return;
        }
        let has_deferred = !shared
            .deferred
            .lock()
            .expect("deferred list poisoned")
            .is_empty();
        let mut timeout = if has_deferred {
            Duration::from_millis(10)
        } else {
            Duration::from_millis(100)
        };
        let deadlines = shared.deadlines.lock().expect("deadline list poisoned");
        if let Some(&(_, at)) = deadlines.iter().min_by_key(|&&(_, at)| at) {
            timeout = timeout.min(at.saturating_duration_since(Instant::now()));
        }
        drop(deadlines);
        events.clear();
        if let Err(e) = shared.poller.wait(&mut events, timeout) {
            // A dying poller would strand every connection; treat wait
            // errors as fatal-for-io and let shutdown unwind the rest.
            fail(shared, e);
            return;
        }
        let mut retries: Vec<u64> = {
            let deferred = shared.deferred.lock().expect("deferred list poisoned");
            deferred.clone()
        };
        let now = Instant::now();
        shared
            .deadlines
            .lock()
            .expect("deadline list poisoned")
            .retain(|&(token, at)| {
                if at <= now {
                    retries.push(token);
                }
                at > now
            });
        // Accept before taking the ready lock: workers keep popping.
        let is_listener = |ev: &&Event| ev.token == LISTENER || ev.token == OPS_LISTENER;
        for ev in events.iter().filter(is_listener) {
            accept_ready(shared, ev.token, &mut next_token);
        }
        let mut ready = shared.ready.lock().expect("ready queue poisoned");
        ready.extend(
            events
                .iter()
                .filter(|ev| !is_listener(ev))
                .map(|ev| ev.token),
        );
        for token in retries {
            if !ready.contains(&token) {
                ready.push_back(token);
            }
        }
        // The ready gauges describe the data plane: a wake for ops sockets
        // alone leaves them untouched, so scrapes record no metrics.
        if events.is_empty() || events.iter().any(|ev| ev.token < OPS_TOKEN) {
            let depth = ready.iter().filter(|&&t| t < OPS_TOKEN).count() as i64;
            metrics::poller_ready_depth().set(depth);
            let peak = shared
                .ready_peak
                .fetch_max(depth, Ordering::Relaxed)
                .max(depth);
            metrics::poller_ready_peak().set(peak);
        }
        if !ready.is_empty() {
            shared.ready_cv.notify_all();
        }
        drop(ready);
    }
}

/// One I/O worker: pops ready tokens and services the connection.
fn run_worker(shared: &IoShared) {
    loop {
        let token = {
            let mut ready = shared.ready.lock().expect("ready queue poisoned");
            loop {
                if let Some(t) = ready.pop_front() {
                    break t;
                }
                if shared.done.load(Ordering::SeqCst) {
                    return;
                }
                ready = shared
                    .ready_cv
                    .wait_timeout(ready, Duration::from_millis(100))
                    .expect("ready queue poisoned")
                    .0;
            }
        };
        with_conn(shared, token, |conn| service_locked(shared, conn));
    }
}

/// Write queued bytes until the socket blocks (`Ok(false)`: bytes remain
/// queued) or the queue empties (`Ok(true)`).
fn flush_out(conn: &mut Conn) -> io::Result<bool> {
    while conn.out_pos < conn.out.len() {
        match (&conn.stream).write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    Ok(true)
}

/// Flush, then re-arm poller interest to match the connection's state.
/// Called with the connection lock held; returns `false` when the
/// connection is done (flush error, close requested, re-arm failure) and
/// the caller must drop it.
fn finish_io(shared: &IoShared, conn: &mut Conn) -> bool {
    // Reads stay off while a command is in flight or a close is pending.
    let read = conn.awaiting.is_none() && conn.deferred.is_none() && !conn.close_after_flush;
    let interest = match flush_out(conn) {
        Err(_) => return false,
        // Keep write interest until the queue drains.
        Ok(false) if read => Interest::BOTH,
        Ok(false) => Interest::WRITE,
        Ok(true) if read => Interest::READ,
        Ok(true) => return !conn.close_after_flush,
    };
    shared
        .poller
        .rearm(conn.stream.as_raw_fd(), conn.token, interest)
        .is_ok()
}

/// Run `f` on a live connection under its lock; drop the connection when
/// `f` reports it dead (or its lock is poisoned).
fn with_conn(shared: &IoShared, token: u64, f: impl FnOnce(&mut Conn) -> bool) {
    let conns = shared.conns.lock().expect("conn table poisoned");
    let Some(conn) = conns.get(&token).cloned() else {
        return;
    };
    drop(conns);
    let alive = match conn.lock() {
        Ok(mut conn) => f(&mut conn),
        Err(_) => false,
    };
    if !alive {
        drop_connection(shared, token);
    }
}

/// Service one ready connection: flush queued bytes, retry a deferred
/// push, then decode and dispatch frames (or read an ops request) until
/// the socket runs dry.
fn service_locked(shared: &IoShared, conn: &mut Conn) -> bool {
    if let Some(http) = &mut conn.http {
        if Instant::now() >= http.deadline {
            // A response the peer would not take in time: drop it.
            if conn.close_after_flush {
                return false;
            }
            let waiting_on_pump = http.wait.take().is_some();
            return respond_http(shared, conn, ops::timeout_response(waiting_on_pump));
        }
    }
    // Queued bytes first: readiness may be the writability we asked for.
    match flush_out(conn) {
        Err(_) => return false,
        Ok(false) => return finish_io(shared, conn),
        Ok(true) => {}
    }
    if conn.close_after_flush {
        return false;
    }
    if conn.http.is_some() {
        return service_http(shared, conn);
    }
    // A deferred push blocks the read path until it is admitted: pushes
    // must reach the queue in arrival order.
    if conn.deferred.is_some() && !retry_deferred(shared, conn) {
        return !conn.close_after_flush && finish_io(shared, conn);
    }
    if conn.awaiting.is_some() || conn.deferred.is_some() {
        // Reply (or admission) still outstanding: interest stays off.
        return true;
    }
    read_frames(shared, conn)
}

/// Try to admit the deferred push. Returns `true` when the connection no
/// longer has a deferred command (admitted, or refused with an error).
fn retry_deferred(shared: &IoShared, conn: &mut Conn) -> bool {
    let Some(push) = conn.deferred.take() else {
        return true;
    };
    let admitted = admit_push(shared, conn, push);
    if admitted {
        let mut deferred = shared.deferred.lock().expect("deferred list poisoned");
        deferred.retain(|&t| t != conn.token);
    }
    admitted
}

/// Offer a push to its ingress queue: admitted (the reply is awaited),
/// refused because the server is shutting down (close after the error
/// frame), or `false` when the queue is full and the push stays parked
/// at the connection.
fn admit_push(shared: &IoShared, conn: &mut Conn, push: Deferred) -> bool {
    let session_id = push.cmd.session_id();
    match shared.manager.try_enqueue(push.cmd) {
        Ok(depth) => {
            if push.throttled {
                let waited = push.started.elapsed();
                metrics::backpressure_wait().record_duration(waited);
                cad_obs::tracer().emit(TraceEvent::BackpressureExited {
                    waited_nanos: waited.as_nanos().min(u64::MAX as u128) as u64,
                });
            }
            conn.awaiting = Some(Pending {
                session_id,
                throttled: push.throttled,
                queue_depth: depth.min(u32::MAX as usize) as u32,
                started: Some(push.started),
            });
        }
        Err(TryEnqueueError::Full(cmd)) => {
            conn.deferred = Some(Deferred { cmd, ..push });
            return false;
        }
        Err(TryEnqueueError::ShuttingDown(_)) => {
            metrics::push_latency().record_duration(push.started.elapsed());
            refuse_shutting_down(conn);
            conn.close_after_flush = true;
        }
    }
    true
}

/// Read an ops connection's request head and answer it, or submit the
/// pump query it needs with a routed reply.
fn service_http(shared: &IoShared, conn: &mut Conn) -> bool {
    let Some(http) = &mut conn.http else {
        return false;
    };
    if http.wait.is_some() {
        // The router answers; interest stays off until then.
        return true;
    }
    let route = match http.read_head(&conn.stream) {
        HeadRead::Pending => return finish_io(shared, conn),
        HeadRead::Failed => return false,
        HeadRead::TooLarge => Route::Respond(ops::http_431()),
        HeadRead::Request(request) => ops::route(&request, &shared.ops),
    };
    let reply = routed(shared, conn);
    let wait = match route {
        Route::Respond(response) => return respond_http(shared, conn, response),
        Route::Explain(session_id) => {
            let cmd = Command::Explain { session_id, reply };
            let queued = shared.manager.try_enqueue(cmd).is_ok();
            queued.then_some(PumpWait::Explain(session_id))
        }
        Route::Sessions => shared
            .manager
            .request_session_table(reply)
            .ok()
            .map(|shards_left| PumpWait::Sessions {
                shards_left,
                rows: Vec::new(),
            }),
    };
    let Some(wait) = wait else {
        return respond_http(shared, conn, ops::shutting_down());
    };
    http_deadline(shared, conn, ops::QUEUE_REPLY_TIMEOUT).wait = Some(wait);
    true
}

/// Queue an ops response, then close once it is written (or once the
/// write deadline passes).
fn respond_http(shared: &IoShared, conn: &mut Conn, response: ops::Response) -> bool {
    http_deadline(shared, conn, shared.cfg.write_timeout);
    ops::encode_response(&mut conn.out, response);
    conn.close_after_flush = true;
    finish_io(shared, conn)
}

/// Move an ops connection's deadline to `after` from now.
fn http_deadline<'c>(shared: &IoShared, conn: &'c mut Conn, after: Duration) -> &'c mut HttpConn {
    let at = Instant::now() + after;
    set_deadline(shared, conn.token, Some(at));
    let http = conn.http.as_mut().expect("ops connection");
    http.deadline = at;
    http
}

/// Refuse a frame because the server is shutting down; the caller closes.
fn refuse_shutting_down(conn: &mut Conn) {
    queue_reply(
        conn,
        &error_frame(codes::SHUTTING_DOWN, "server is shutting down"),
    );
}

/// Append one frame to the connection's write queue.
fn queue_reply(conn: &mut Conn, frame: &Frame) {
    // Encoding into a Vec cannot fail.
    let _ = write_frame(&mut conn.out, frame);
}

/// Decode and dispatch frames until the socket would block (rearm read),
/// a command goes in flight (interest off), or the connection dies.
fn read_frames(shared: &IoShared, conn: &mut Conn) -> bool {
    loop {
        let frame = {
            // Split borrows: the reader state and the socket are separate
            // fields.
            let Conn { frames, stream, .. } = conn;
            match frames.read_frame(&mut (&*stream)) {
                Ok(f) => f,
                Err(ProtoError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => {
                    return finish_io(shared, conn);
                }
                Err(ProtoError::Io(e)) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(ProtoError::Io(_)) => return false,
                Err(e) => {
                    queue_reply(conn, &error_frame(codes::BAD_REQUEST, e.to_string()));
                    conn.close_after_flush = true;
                    return finish_io(shared, conn);
                }
            }
        };
        match dispatch_frame(shared, conn, frame) {
            Dispatch::Continue => {
                // Opportunistic flush keeps the write queue small while a
                // client pipelines control frames.
                if flush_out(conn).is_err() {
                    return false;
                }
            }
            Dispatch::Submitted => return true,
            Dispatch::CloseNow => {
                conn.close_after_flush = true;
                return finish_io(shared, conn);
            }
        }
    }
}

/// What a dispatched frame did to the connection's control flow.
enum Dispatch {
    /// Reply queued (or nothing to do); keep reading.
    Continue,
    /// Command in flight (queued or deferred); stop reading until the
    /// reply is written.
    Submitted,
    /// Write out what is queued, then close.
    CloseNow,
}

/// Handle one decoded frame. Inline frames queue their reply directly;
/// session commands are submitted with a routed reply and park the read
/// side until the router answers.
fn dispatch_frame(shared: &IoShared, conn: &mut Conn, frame: Frame) -> Dispatch {
    let manager = &shared.manager;
    if !conn.greeted {
        return match frame {
            Frame::Hello { .. } => {
                conn.greeted = true;
                let (max_sessions, max_sensors) = manager.limits();
                queue_reply(
                    conn,
                    &Frame::HelloAck {
                        max_sessions: max_sessions as u32,
                        max_sensors: max_sensors as u32,
                    },
                );
                Dispatch::Continue
            }
            _ => {
                queue_reply(
                    conn,
                    &error_frame(codes::BAD_REQUEST, "first frame must be Hello"),
                );
                Dispatch::CloseNow
            }
        };
    }
    // A peer that streams continuously must not stall graceful shutdown:
    // everything but the Shutdown frame itself is refused once the flag
    // is up.
    if shared.shutdown.requested() && !matches!(frame, Frame::Shutdown) {
        refuse_shutting_down(conn);
        return Dispatch::CloseNow;
    }
    match frame {
        Frame::Hello { .. } => {
            queue_reply(conn, &error_frame(codes::BAD_REQUEST, "duplicate Hello"));
            Dispatch::Continue
        }
        Frame::PushSamples {
            session_id,
            base_tick,
            n_sensors,
            samples,
        } => {
            let started = Instant::now();
            if n_sensors == 0 || samples.len() % n_sensors as usize != 0 {
                metrics::push_latency().record_duration(started.elapsed());
                queue_reply(conn, &error_frame(codes::BAD_PUSH, "ragged sample batch"));
                return Dispatch::Continue;
            }
            let cost = samples.len() / n_sensors as usize;
            // A batch whose worst-case PushAck would not fit in a frame
            // is refused up front: the client could never read the reply.
            let max_ticks = max_push_ticks(n_sensors);
            if cost > max_ticks {
                metrics::push_latency().record_duration(started.elapsed());
                queue_reply(
                    conn,
                    &error_frame(
                        codes::BAD_PUSH,
                        format!(
                            "batch of {cost} ticks could overflow the reply frame; \
                             push at most {max_ticks} ticks for {n_sensors} sensors"
                        ),
                    ),
                );
                return Dispatch::Continue;
            }
            // Saturated queue: tell the client explicitly before the push
            // is parked — its ack will be delayed by exactly this wait,
            // so the signal must precede it on the wire.
            let throttled = manager.would_block(session_id, cost);
            if throttled {
                manager
                    .counters()
                    .backpressure_events
                    .fetch_add(1, Ordering::Relaxed);
                let depth = manager.queue_depth();
                cad_obs::tracer().emit(TraceEvent::BackpressureEntered {
                    queue_depth: depth as u64,
                });
                queue_reply(
                    conn,
                    &Frame::Backpressure {
                        queue_depth: depth.min(u32::MAX as usize) as u32,
                    },
                );
            }
            let cmd = Command::Push {
                session_id,
                base_tick,
                n_sensors,
                samples,
                reply: routed(shared, conn),
            };
            let push = Deferred {
                cmd,
                throttled,
                started,
            };
            if !admit_push(shared, conn, push) {
                // Park the push at the connection; the poller's retry
                // tick re-attempts admission. The client already saw the
                // Backpressure frame above (a full queue implies
                // would_block was true).
                shared
                    .deferred
                    .lock()
                    .expect("deferred list poisoned")
                    .push(conn.token);
            }
            if conn.close_after_flush {
                Dispatch::CloseNow
            } else {
                Dispatch::Submitted
            }
        }
        Frame::CreateSession { session_id, spec } => {
            submit(shared, conn, |reply| Command::Create {
                session_id,
                spec,
                reply,
            })
        }
        Frame::StatsRequest { session_id } => match session_id {
            None => {
                queue_reply(
                    conn,
                    &Frame::StatsReply {
                        stats: server_stats(manager, None),
                    },
                );
                Dispatch::Continue
            }
            Some(session_id) => submit(shared, conn, |reply| Command::Stats { session_id, reply }),
        },
        Frame::ReshapeSensors {
            session_id,
            n_sensors,
        } => submit(shared, conn, |reply| Command::Reshape {
            session_id,
            n_sensors,
            reply,
        }),
        Frame::Snapshot { session_id } => submit(shared, conn, |reply| Command::Snapshot {
            session_id,
            reply,
        }),
        Frame::CloseSession { session_id } => {
            submit(shared, conn, |reply| Command::Close { session_id, reply })
        }
        Frame::ExplainRequest { session_id } => {
            submit(shared, conn, |reply| Command::Explain { session_id, reply })
        }
        // Served inline: the registry is process-global, so the dump
        // needs no trip through the ingress queue.
        Frame::MetricsRequest => {
            queue_reply(
                conn,
                &Frame::MetricsReply {
                    dump: cad_obs::global().snapshot().encode(),
                },
            );
            Dispatch::Continue
        }
        Frame::Shutdown => {
            shared.shutdown.request();
            queue_reply(
                conn,
                &Frame::ShutdownAck {
                    sessions: manager
                        .counters()
                        .sessions
                        .load(Ordering::Relaxed)
                        .min(u32::MAX as u64) as u32,
                },
            );
            Dispatch::CloseNow
        }
        // Server-to-client frames arriving at the server are protocol
        // violations.
        Frame::HelloAck { .. }
        | Frame::SessionAck { .. }
        | Frame::PushAck { .. }
        | Frame::StatsReply { .. }
        | Frame::SnapshotAck { .. }
        | Frame::CloseAck { .. }
        | Frame::ShutdownAck { .. }
        | Frame::Backpressure { .. }
        | Frame::MetricsReply { .. }
        | Frame::ExplainReply { .. }
        | Frame::ReshapeAck { .. }
        | Frame::Error { .. } => {
            queue_reply(
                conn,
                &error_frame(codes::BAD_REQUEST, "unexpected client frame"),
            );
            Dispatch::Continue
        }
    }
}

fn routed(shared: &IoShared, conn: &Conn) -> ReplyTo {
    ReplyTo::Routed {
        tx: shared.reply_tx.clone(),
        token: conn.token,
    }
}

/// Submit a control command built around the connection's routed reply
/// (cost 0 — always admitted unless the manager is closed) and park the
/// read side until the router writes the reply.
fn submit(shared: &IoShared, conn: &mut Conn, cmd: impl FnOnce(ReplyTo) -> Command) -> Dispatch {
    let cmd = cmd(routed(shared, conn));
    let session_id = cmd.session_id();
    match shared.manager.try_enqueue(cmd) {
        Ok(_) => {
            conn.awaiting = Some(Pending {
                session_id,
                throttled: false,
                queue_depth: 0,
                started: None,
            });
            Dispatch::Submitted
        }
        Err(_) => {
            refuse_shutting_down(conn);
            Dispatch::CloseNow
        }
    }
}

/// The reply router: turns `(token, reply)` pairs from the pumps back
/// into wire frames (or HTTP responses) on the owning connection and
/// re-arms its read side.
fn run_router(shared: &IoShared, rx: Receiver<(u64, Reply)>) {
    while let Ok((token, reply)) = rx.recv() {
        if token == ROUTER_STOP {
            return;
        }
        with_conn(shared, token, |conn| deliver(shared, conn, reply));
    }
}

/// Queue one pump reply on its connection and flush what the socket
/// takes. Returns `false` when the connection died.
fn deliver(shared: &IoShared, conn: &mut Conn, reply: Reply) -> bool {
    if let Some(http) = &mut conn.http {
        return match http.collect(reply, &shared.manager) {
            Some(response) => respond_http(shared, conn, response),
            None => true,
        };
    }
    let Some(pending) = conn.awaiting.take() else {
        return true;
    };
    if let Some(started) = pending.started {
        // Push latency is frame-in to reply-ready: queue admission
        // (including any deferred wait) plus the detector rounds the
        // batch completed, but not the reply write.
        metrics::push_latency().record_duration(started.elapsed());
    }
    // Lift the shard-side stage breakdown out before the reply is
    // consumed; the ack stage is measured around the encode and the
    // first flush attempt below.
    let push_timings = match &reply {
        Reply::Pushed { timings, .. } => *timings,
        _ => None,
    };
    let ack_started = Instant::now();
    queue_reply(conn, &reply_frame(&shared.manager, &pending, reply));
    let alive = finish_io(shared, conn);
    if let Some(t) = push_timings {
        timing::finish_ack(t, ack_started.elapsed().as_nanos() as u64);
    }
    alive
}

/// Turn a pump reply into the wire frame the pending command expects.
fn reply_frame(manager: &SessionManager, pending: &Pending, reply: Reply) -> Frame {
    let session_id = pending.session_id;
    match reply {
        Reply::Failed { code, message } => error_frame(code, message),
        Reply::Created {
            resumed,
            samples_seen,
        } => Frame::SessionAck {
            session_id,
            resumed,
            samples_seen,
        },
        Reply::Pushed { outcomes, .. } => Frame::PushAck {
            session_id,
            throttled: pending.throttled,
            queue_depth: pending.queue_depth,
            outcomes,
        },
        Reply::Stats(s) => Frame::StatsReply {
            stats: server_stats(manager, Some(s)),
        },
        Reply::Snapshotted(bytes) => Frame::SnapshotAck { session_id, bytes },
        Reply::Reshaped { n_sensors } => Frame::ReshapeAck {
            session_id,
            n_sensors,
        },
        Reply::Closed => Frame::CloseAck { session_id },
        Reply::Explained(records) => Frame::ExplainReply {
            session_id,
            records,
        },
        // Session tables only go to ops connections.
        Reply::Sessions(_) => error_frame(codes::BAD_REQUEST, "unexpected reply"),
    }
}

/// Build a `StatsReply` from the shared counters (plus one session's
/// stats when the request named one).
fn server_stats(manager: &SessionManager, session: Option<SessionStats>) -> ServerStats {
    let c = manager.counters();
    ServerStats {
        sessions: c.sessions.load(Ordering::Relaxed),
        connections: c.connections.load(Ordering::Relaxed),
        total_ticks: c.total_ticks.load(Ordering::Relaxed),
        total_rounds: c.total_rounds.load(Ordering::Relaxed),
        total_anomalies: c.total_anomalies.load(Ordering::Relaxed),
        queue_depth: manager.queue_depth() as u64,
        peak_queue_depth: c.peak_queue_depth.load(Ordering::Relaxed),
        backpressure_events: c.backpressure_events.load(Ordering::Relaxed),
        phases_json: cad_runtime::phases_json(),
        session,
    }
}

fn error_frame(code: u16, message: impl Into<String>) -> Frame {
    // The single construction point for error frames, so every error the
    // server emits is counted under its protocol code.
    metrics::count_error_frame(code);
    Frame::Error {
        code,
        message: message.into(),
    }
}

/// Tell a peer over the connection cap why it is being dropped (best
/// effort — the peer may already be gone). The frame fits a fresh
/// socket's send buffer, so one nonblocking write suffices.
fn refuse_connection(stream: TcpStream) {
    let _ = stream.set_nonblocking(true);
    let _ = write_frame(
        &stream,
        &error_frame(codes::ADMISSION, "connection limit reached"),
    );
}
