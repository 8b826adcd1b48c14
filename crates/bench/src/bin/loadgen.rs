//! Load generator for `cad-serve`: N client connections × M sessions
//! each, pushing synthetic telemetry over loopback against an in-process
//! server, emitting machine-readable `results/BENCH_serve.json`.
//!
//! Three profiles:
//!
//! * **steady** (default) — every session pushes continuously for a
//!   fixed tick budget. Reported figures: aggregate ticks/sec and
//!   rounds/sec, per-push latency (p50/p99/p999 from the server's
//!   `serve_push_latency_nanos` histogram, fetched over the wire via
//!   `ServeClient::metrics()`, plus client-side wall-clock p50/p99), and
//!   the server's own counters — queue high-water mark and backpressure
//!   events, which the default queue sizing deliberately provokes so the
//!   bounded-queue path is exercised, not just configured.
//! * **idle-heavy** — a large session population (the scale knob; tens
//!   of thousands) is created and warmed with one full window of data,
//!   then only a small active subset keeps pushing for `--duration`
//!   seconds while the rest sit idle, hibernate to the spill dir, and
//!   are finally resurrected by one more push each (a sample), asserting
//!   bit-identical outcome streams across the spill round-trip. Adds
//!   resident-memory-per-session and hibernation/resurrection figures.
//! * **chaos** — every session's telemetry is wrapped in the full
//!   `cad-datagen` hostile-stream pipeline (drift, duty-cycle, NaN
//!   bursts, drops, reordering and sensor churn, seeded per session).
//!   Each client resolves the hostility at the edge exactly the way
//!   `StreamingCad::push_tick` would — reorder buffer, late-tick
//!   rejection, NaN gap fill — and drives the resulting in-order wire
//!   stream, including mid-stream `ReshapeSensors`, against Skip-policy
//!   sessions. Waves of fresh sessions repeat until `--duration`
//!   elapses. The run asserts **no silent tick loss** (committed +
//!   buffered + late-dropped reconciles exactly with the mutator truth
//!   track, per session and in aggregate), zero protocol errors, and a
//!   per-client spot check replays the raw hostile events through a
//!   direct `StreamingCad` and demands bit-identical wire outcomes.
//!   Writes `results/CHAOS_truth.json` next to the usual report.
//!
//! Both profiles report the I/O plane shape (`poller` backend, worker
//! count, shard count) and scrape the HTTP ops plane *mid-run*
//! (latencies reported, proving scrapes stay responsive under load). A
//! final quiesced scrape must render byte-identical to the CADM snapshot
//! fetched over the native protocol — retried briefly, since hibernation
//! sweeps may land between the two fetches. A spot check replays sampled
//! sessions through a direct [`StreamingCad`] loop and asserts
//! bit-identical outcome streams, so the numbers can't come from a
//! server that quietly corrupts verdicts.
//!
//! ```text
//! cargo run --release -p cad-bench --bin loadgen -- \
//!     --profile idle-heavy --clients 4 --sessions 12500 --duration 10
//! ```
//!
//! Every flag mirrors an environment variable, and the **environment
//! wins** when both are set — CI pins runs through env vars, flags are
//! for humans: `--clients`/`CAD_LOADGEN_CLIENTS` (4),
//! `--sessions`/`CAD_LOADGEN_SESSIONS` (32, per client),
//! `--ticks`/`CAD_LOADGEN_TICKS` (1024, steady),
//! `--profile`/`CAD_LOADGEN_PROFILE` (steady),
//! `--duration`/`CAD_LOADGEN_DURATION` (10s, idle-heavy). Further
//! env-only knobs: `CAD_LOADGEN_SENSORS` (8), `CAD_LOADGEN_W` (64),
//! `CAD_LOADGEN_S` (8), `CAD_LOADGEN_QUEUE` (steady: one batch — forces
//! observable backpressure; idle-heavy: 32 batches),
//! `CAD_LOADGEN_ACTIVE` (64, idle-heavy active subset),
//! `CAD_LOADGEN_HIBERNATE_AFTER` (8 × the active set, min 64 — a sweep
//! advances with every in-flight push, so the threshold scales with the
//! hot set or the hot set itself would thrash),
//! `CAD_LOADGEN_RESURRECT_SAMPLE` (64, idle-heavy).
//!
//! **WAL-on profile** (steady only): setting `CAD_LOADGEN_WAL_DIR=path`
//! runs the steady profile with the durable tick log enabled at `path`
//! (created if absent, left on disk afterwards so `cad-replay` can chew
//! on it). `CAD_WAL_FSYNC` selects the fsync policy exactly as it does
//! for the daemon (default `every_batch`). The report gains a `"wal"`
//! object with the server-side append-latency quantiles — p99 is the
//! headline durability-tax figure — plus fsync/segment/byte counters.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cad_core::{CadConfig, CadDetector, GapPolicy, StreamingCad};
use cad_datagen::{Churn, Drift, DutyCycle, Gap, HostileStream, NanBurst, Reorder, StreamEvent};
use cad_mts::Mts;
use cad_serve::{CadServer, ServeClient, ServeConfig, SessionSpec, WireGapPolicy, WireOutcome};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Profile {
    Steady,
    IdleHeavy,
    Chaos,
}

struct Opts {
    clients: usize,
    sessions_per_client: usize,
    ticks: usize,
    profile: Profile,
    duration_secs: f64,
    n_sensors: usize,
    w: usize,
    s: usize,
}

const USAGE: &str = "usage: loadgen [--profile steady|idle-heavy|chaos] [--clients N] \
                     [--sessions N] [--ticks N] [--duration SECS]";

/// Parse CLI flags, then let the environment override — env vars are
/// authoritative so CI-pinned runs can't be skewed by a stray flag.
fn parse_opts() -> Opts {
    let mut clients = 4usize;
    let mut sessions = 32usize;
    let mut ticks = 1024usize;
    let mut profile = Profile::Steady;
    let mut duration = 10.0f64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("loadgen: {name} needs a value\n{USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--clients" => clients = parse_num(&take("--clients"), "--clients"),
            "--sessions" => sessions = parse_num(&take("--sessions"), "--sessions"),
            "--ticks" => ticks = parse_num(&take("--ticks"), "--ticks"),
            "--duration" => {
                let raw = take("--duration");
                duration = raw.parse().unwrap_or_else(|_| {
                    eprintln!("loadgen: --duration {raw} is not a number\n{USAGE}");
                    std::process::exit(2);
                });
            }
            "--profile" => {
                profile = match take("--profile").as_str() {
                    "steady" => Profile::Steady,
                    "idle-heavy" => Profile::IdleHeavy,
                    "chaos" => Profile::Chaos,
                    other => {
                        eprintln!("loadgen: unknown profile {other:?}\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("loadgen: unknown argument {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    if let Ok(raw) = std::env::var("CAD_LOADGEN_PROFILE") {
        profile = match raw.as_str() {
            "steady" => Profile::Steady,
            "idle-heavy" => Profile::IdleHeavy,
            "chaos" => Profile::Chaos,
            other => {
                eprintln!("loadgen: CAD_LOADGEN_PROFILE={other:?} is not a profile");
                std::process::exit(2);
            }
        };
    }
    let w = env_usize("CAD_LOADGEN_W", 64);
    Opts {
        clients: env_usize("CAD_LOADGEN_CLIENTS", clients),
        sessions_per_client: env_usize("CAD_LOADGEN_SESSIONS", sessions),
        ticks: env_usize("CAD_LOADGEN_TICKS", ticks),
        profile,
        duration_secs: env_f64("CAD_LOADGEN_DURATION", duration),
        n_sensors: env_usize("CAD_LOADGEN_SENSORS", 8),
        w,
        s: env_usize("CAD_LOADGEN_S", 8).min(w),
    }
}

fn parse_num(raw: &str, flag: &str) -> usize {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("loadgen: {flag} {raw} is not a number\n{USAGE}");
        std::process::exit(2);
    })
}

/// Deterministic reading for (session, tick, sensor) — must match the
/// spot-check reference below.
/// Flight-recorder overhead A/B (steady profile): two short arms over
/// identical load — recorder off, then on at the daemon-documented
/// 250ms cadence — comparing the client-observed push p99. The ratio is
/// the headline observability-tax figure the serve perf gate guards:
/// the sampler thread walks the whole registry once per cadence off the
/// push path, so the ratio should ride at ~1.0 and a recorder that
/// starts contending with serving shows up as a ratio step.
fn flight_overhead_ab(n_sensors: usize, w: usize, s: usize) -> String {
    let cadence_ms = 250u64;
    let (sessions, ticks) = (16usize, 1024usize);
    let arm = |flight: Option<cad_obs::FlightConfig>| -> f64 {
        let server = CadServer::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            queue_capacity: s * 32,
            max_sessions: sessions.max(16),
            read_timeout: Duration::from_millis(100),
            flight,
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr().expect("local_addr").to_string();
        let handle = std::thread::spawn(move || server.run());
        let mut client = ServeClient::connect(&addr, "loadgen-flight-ab").expect("connect");
        for id in 0..sessions {
            client
                .create_session(id as u64, session_spec(n_sensors, w, s))
                .expect("create");
        }
        let mut lat = Vec::with_capacity(sessions * ticks / s.max(1));
        let mut t = 0usize;
        while t < ticks {
            let len = s.min(ticks - t);
            for id in 0..sessions {
                let samples: Vec<f64> = (t..t + len)
                    .flat_map(|u| (0..n_sensors).map(move |v| reading(id as u64, u, v)))
                    .collect();
                let push_t0 = Instant::now();
                client
                    .push_samples(id as u64, t as u64, n_sensors as u32, samples)
                    .expect("push");
                lat.push(push_t0.elapsed().as_secs_f64());
            }
            t += len;
        }
        client.shutdown_server().expect("shutdown");
        handle.join().expect("server thread").expect("server run");
        lat.sort_by(|a, b| a.total_cmp(b));
        quantile(&lat, 0.99)
    };
    let p99_off = arm(None);
    let p99_on = arm(Some(cad_obs::FlightConfig {
        cadence: Duration::from_millis(cadence_ms),
        ring: 512,
        keyframe_every: 16,
        spool: None,
    }));
    let ratio = if p99_off > 0.0 { p99_on / p99_off } else { 1.0 };
    eprintln!(
        "[loadgen] flight A/B: push p99 off {:.3}ms on {:.3}ms → ratio {ratio:.3} \
         ({cadence_ms}ms cadence)",
        p99_off * 1e3,
        p99_on * 1e3,
    );
    format!(
        "{{\"cadence_ms\": {cadence_ms}, \"p99_off_secs\": {p99_off:.9}, \
         \"p99_on_secs\": {p99_on:.9}, \"p99_ratio\": {ratio:.4}}}"
    )
}

fn reading(session: u64, t: usize, sensor: usize) -> f64 {
    let phase = session as f64 * 0.61 + sensor as f64 * 0.23;
    (t as f64 * 0.17 + phase).sin() + 0.05 * sensor as f64
}

fn session_spec(n: usize, w: usize, s: usize) -> SessionSpec {
    let mut spec = SessionSpec::new(n as u32, w as u32, s as u32);
    spec.k = 2.min(n as u32 - 1);
    spec
}

/// Replay `ticks` of a session through a direct streaming loop and
/// assert the wire outcomes match bit for bit.
fn spot_check(id: u64, ticks: usize, n: usize, w: usize, s: usize, outs: &[WireOutcome]) {
    let config = CadConfig::builder(n)
        .window(w, s)
        .k(2.min(n - 1))
        .tau(0.3)
        .theta(0.3)
        .build();
    let mut stream = StreamingCad::new(CadDetector::new(n, config));
    let mut reference = Vec::new();
    for t in 0..ticks {
        let row: Vec<f64> = (0..n).map(|v| reading(id, t, v)).collect();
        if let Some(o) = stream.push_sample(&row) {
            reference.push((t as u64, o));
        }
    }
    assert_eq!(outs.len(), reference.len(), "session {id}: round count");
    for (wire, (tick, o)) in outs.iter().zip(&reference) {
        assert_eq!(wire.tick, *tick, "session {id}: tick");
        assert_eq!(wire.n_r, o.n_r as u64, "session {id}: n_r");
        assert_eq!(
            wire.zscore_bits,
            o.zscore.to_bits(),
            "session {id}: zscore bits"
        );
        assert_eq!(wire.abnormal, o.abnormal, "session {id}: abnormal");
    }
}

/// Minimal HTTP GET against the ops plane; returns `(status, body)`.
fn http_get(ops_addr: &str, path: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(ops_addr).expect("ops connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: loadgen\r\n\r\n").as_bytes())
        .expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Fetch the registry over both transports until they agree byte for
/// byte. With hibernation enabled an idle-sweep can mutate counters
/// between the two fetches, so parity is eventually-consistent — but it
/// must settle fast once the server quiesces.
fn assert_metrics_parity(admin: &mut ServeClient, ops_addr: &str) -> cad_obs::MetricsSnapshot {
    let mut last_diff = 0usize;
    for _ in 0..100 {
        let metrics = admin.metrics().expect("metrics");
        let (status, scraped) = http_get(ops_addr, "/metrics");
        assert_eq!(status, 200);
        if scraped == metrics.render_text() {
            eprintln!(
                "[loadgen] ops parity ok: /metrics == native render_text ({} bytes)",
                scraped.len()
            );
            return metrics;
        }
        last_diff = scraped.len();
        std::thread::sleep(Duration::from_millis(100));
    }
    panic!(
        "quiesced /metrics scrape never converged with the native CADM \
         snapshot (last scrape {last_diff} bytes)"
    );
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn counter_value(metrics: &cad_obs::MetricsSnapshot, name: &str) -> u64 {
    metrics
        .counters
        .iter()
        .find(|c| c.name == name)
        .map(|c| c.value)
        .unwrap_or(0)
}

/// Like [`counter_value`], but selects one label set of a labelled family.
fn labeled_counter_value(
    metrics: &cad_obs::MetricsSnapshot,
    name: &str,
    label: (&str, &str),
) -> u64 {
    metrics
        .counters
        .iter()
        .find(|c| {
            c.name == name
                && c.labels
                    .iter()
                    .any(|(k, v)| (k.as_str(), v.as_str()) == label)
        })
        .map(|c| c.value)
        .unwrap_or(0)
}

fn gauge_value(metrics: &cad_obs::MetricsSnapshot, name: &str) -> i64 {
    metrics
        .gauges
        .iter()
        .find(|g| g.name == name)
        .map(|g| g.value)
        .unwrap_or(0)
}

/// The `"wal"` report object: append-latency quantiles from the server's
/// `serve_wal_append_nanos` histogram plus durability counters, or
/// `{"enabled": false}` when the run had no WAL.
fn wal_json(
    metrics: &cad_obs::MetricsSnapshot,
    dir: Option<&std::path::Path>,
    fsync: cad_wal::FsyncPolicy,
) -> String {
    let Some(dir) = dir else {
        return "{\"enabled\": false}".into();
    };
    let h = metrics
        .histograms
        .iter()
        .find(|h| h.name == "serve_wal_append_nanos")
        .expect("WAL-on run must expose serve_wal_append_nanos");
    assert!(h.count > 0, "WAL-on run recorded no appends");
    format!(
        concat!(
            "{{\"enabled\": true, \"dir\": \"{}\", \"fsync\": \"{}\", ",
            "\"appends\": {}, \"append_p50_secs\": {:.9}, ",
            "\"append_p99_secs\": {:.9}, \"append_p999_secs\": {:.9}, ",
            "\"fsyncs\": {}, \"segments\": {}, \"bytes\": {}}}"
        ),
        dir.display(),
        fsync,
        h.count,
        h.quantile(0.50) as f64 * 1e-9,
        h.quantile(0.99) as f64 * 1e-9,
        h.quantile(0.999) as f64 * 1e-9,
        counter_value(metrics, "serve_wal_fsyncs_total"),
        gauge_value(metrics, "serve_wal_segments"),
        gauge_value(metrics, "serve_wal_bytes"),
    )
}

/// The server histogram that is the authoritative push-latency source:
/// frame-in to reply-ready, excluding loopback round-trips.
fn push_latency_quantiles(metrics: &cad_obs::MetricsSnapshot) -> (f64, f64, f64) {
    let h = metrics
        .histograms
        .iter()
        .find(|h| h.name == "serve_push_latency_nanos")
        .expect("server must expose serve_push_latency_nanos");
    (
        h.quantile(0.50) as f64 * 1e-9,
        h.quantile(0.99) as f64 * 1e-9,
        h.quantile(0.999) as f64 * 1e-9,
    )
}

/// Scrape `/metrics` in a loop until every worker handle finishes;
/// returns scrape latencies. Proves the ops plane stays responsive while
/// the data plane is saturated.
fn scrape_until_done<T>(ops_addr: &str, workers: &[std::thread::JoinHandle<T>]) -> Vec<f64> {
    let mut scrape_latencies = Vec::new();
    while workers.iter().any(|h| !h.is_finished()) {
        let scrape_t0 = Instant::now();
        let (status, body) = http_get(ops_addr, "/metrics");
        scrape_latencies.push(scrape_t0.elapsed().as_secs_f64());
        assert_eq!(status, 200, "mid-run /metrics scrape failed");
        assert!(!body.is_empty());
        std::thread::sleep(Duration::from_millis(50));
    }
    scrape_latencies
}

/// The I/O plane shape as a JSON object (captured before `run` consumes
/// the server).
struct IoPlane {
    poller: &'static str,
    io_workers: usize,
    shards: usize,
}

impl IoPlane {
    fn of(server: &CadServer) -> IoPlane {
        IoPlane {
            poller: server.poller_kind(),
            io_workers: server.io_workers(),
            shards: server.shards(),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"kind\": \"{}\", \"io_workers\": {}, \"shards\": {}}}",
            self.poller, self.io_workers, self.shards
        )
    }
}

struct ClientReport {
    ticks: u64,
    rounds: u64,
    latencies: Vec<f64>,
    backpressure: u64,
    sample_outcomes: Vec<(u64, Vec<WireOutcome>)>,
    /// Final tick horizon of this client's sampled *active* session —
    /// idle-heavy runs a wall-clock loop, so the replay length varies.
    ticks_hint: usize,
}

fn main() {
    let opts = parse_opts();
    match opts.profile {
        Profile::Steady => run_steady(&opts),
        Profile::IdleHeavy => run_idle_heavy(&opts),
        Profile::Chaos => run_chaos(&opts),
    }
}

fn run_steady(opts: &Opts) {
    let n_clients = opts.clients;
    let sessions_per_client = opts.sessions_per_client;
    let ticks = opts.ticks;
    let (n_sensors, w, s) = (opts.n_sensors, opts.w, opts.s);
    let batch = s;
    // One batch of capacity: concurrent pushers saturate the queue and
    // the explicit-backpressure path runs under load.
    let queue_capacity = env_usize("CAD_LOADGEN_QUEUE", batch);
    let total_sessions = n_clients * sessions_per_client;
    let threads = cad_runtime::effective_threads();

    // WAL-on profile: durable tick log under CAD_LOADGEN_WAL_DIR, fsync
    // policy shared with the daemon's CAD_WAL_FSYNC knob. The directory
    // is left behind on purpose — it is a valid `cad-replay` input.
    let wal_dir = std::env::var("CAD_LOADGEN_WAL_DIR")
        .ok()
        .filter(|p| !p.is_empty())
        .map(std::path::PathBuf::from);
    let wal_fsync = match std::env::var("CAD_WAL_FSYNC") {
        Ok(raw) => cad_wal::FsyncPolicy::parse(&raw).unwrap_or_else(|| {
            eprintln!("loadgen: CAD_WAL_FSYNC={raw} is not never|every_batch|<n>");
            std::process::exit(2);
        }),
        Err(_) => ServeConfig::default().wal_fsync,
    };

    eprintln!(
        "[loadgen] steady: {n_clients} clients × {sessions_per_client} sessions \
         ({total_sessions} total), {ticks} ticks × {n_sensors} sensors, \
         w={w} s={s}, queue {queue_capacity} ticks, {threads} threads, WAL {}",
        match &wal_dir {
            Some(dir) => format!("{} (fsync {wal_fsync})", dir.display()),
            None => "off".into(),
        }
    );

    let server = CadServer::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        queue_capacity,
        max_sessions: total_sessions.max(16),
        read_timeout: Duration::from_millis(100),
        ops_addr: Some("127.0.0.1:0".into()),
        wal_dir: wal_dir.clone(),
        wal_fsync,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("local_addr").to_string();
    let ops_addr = server.local_ops_addr().expect("ops bound").to_string();
    let io_plane = IoPlane::of(&server);
    let server = std::thread::spawn(move || server.run());

    let t0 = Instant::now();
    let mut workers = Vec::new();
    for c in 0..n_clients {
        let addr = addr.clone();
        let (n_sensors, w, s) = (n_sensors, w, s);
        workers.push(std::thread::spawn(move || -> ClientReport {
            let mut client = ServeClient::connect(&addr, &format!("loadgen-{c}")).expect("connect");
            let ids: Vec<u64> = (0..sessions_per_client)
                .map(|i| (c * sessions_per_client + i) as u64)
                .collect();
            for &id in &ids {
                client
                    .create_session(id, session_spec(n_sensors, w, s))
                    .expect("create");
            }
            let mut report = ClientReport {
                ticks: 0,
                rounds: 0,
                latencies: Vec::with_capacity(ids.len() * ticks / batch),
                backpressure: 0,
                sample_outcomes: Vec::new(),
                ticks_hint: ticks,
            };
            // First session of each client is spot-checked against a
            // direct StreamingCad loop afterwards.
            let sampled = ids[0];
            let mut sample = Vec::new();
            let mut t = 0usize;
            while t < ticks {
                let len = batch.min(ticks - t);
                for &id in &ids {
                    let samples: Vec<f64> = (t..t + len)
                        .flat_map(|u| (0..n_sensors).map(move |v| reading(id, u, v)))
                        .collect();
                    let push_t0 = Instant::now();
                    let res = client
                        .push_samples(id, t as u64, n_sensors as u32, samples)
                        .expect("push");
                    report.latencies.push(push_t0.elapsed().as_secs_f64());
                    report.ticks += len as u64;
                    report.rounds += res.outcomes.len() as u64;
                    if id == sampled {
                        sample.extend(res.outcomes);
                    }
                }
                t += len;
            }
            report.backpressure = client.backpressure_events();
            report.sample_outcomes.push((sampled, sample));
            report
        }));
    }

    // Scrape the ops plane while the workers hammer the data plane: each
    // GET must come back 200 even with the ingress queue in backpressure.
    let scrape_latencies = scrape_until_done(&ops_addr, &workers);

    let reports: Vec<ClientReport> = workers
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let wall_secs = t0.elapsed().as_secs_f64();

    // Server-side counters and the full metrics registry before shutdown,
    // once both transports agree on the quiesced state.
    let mut admin = ServeClient::connect(&addr, "loadgen-admin").expect("connect");
    let stats = admin.stats(None).expect("stats");
    let metrics = assert_metrics_parity(&mut admin, &ops_addr);
    eprintln!(
        "[loadgen] {} mid-run scrapes stayed 200",
        scrape_latencies.len()
    );

    admin.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("server run");

    // Spot-check: sampled sessions must match a direct streaming loop
    // bit for bit.
    for report in &reports {
        for (id, outs) in &report.sample_outcomes {
            spot_check(*id, ticks, n_sensors, w, s, outs);
        }
    }
    eprintln!(
        "[loadgen] spot check passed: {} sampled sessions bit-identical",
        reports.len()
    );

    let total_ticks: u64 = reports.iter().map(|r| r.ticks).sum();
    let total_rounds: u64 = reports.iter().map(|r| r.rounds).sum();
    let client_backpressure: u64 = reports.iter().map(|r| r.backpressure).sum();
    let mut latencies: Vec<f64> = reports.iter().flat_map(|r| r.latencies.clone()).collect();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let client_p50 = quantile(&latencies, 0.50);
    let client_p99 = quantile(&latencies, 0.99);
    let ticks_per_sec = total_ticks as f64 / wall_secs.max(1e-12);
    let rounds_per_sec = total_rounds as f64 / wall_secs.max(1e-12);
    let mut sorted_scrapes = scrape_latencies.clone();
    sorted_scrapes.sort_by(|a, b| a.total_cmp(b));
    let scrape_p50 = quantile(&sorted_scrapes, 0.50);
    let scrape_p99 = quantile(&sorted_scrapes, 0.99);
    let (p50, p99, p999) = push_latency_quantiles(&metrics);
    let resident_bytes = cad_obs::read_process_rss().unwrap_or(0);
    let wal = wal_json(&metrics, wal_dir.as_deref(), wal_fsync);
    // The A/B spins its own paired servers after the main run so its
    // arms see a quiet machine rather than the tail of the hammering.
    let flight = flight_overhead_ab(n_sensors, w, s);

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"serve-loadgen\",\n",
            "  \"profile\": \"steady\",\n",
            "  \"clients\": {},\n",
            "  \"sessions_per_client\": {},\n",
            "  \"sessions\": {},\n",
            "  \"ticks_per_session\": {},\n",
            "  \"sensors\": {},\n",
            "  \"window\": {},\n",
            "  \"step\": {},\n",
            "  \"batch\": {},\n",
            "  \"queue_capacity\": {},\n",
            "  \"threads\": {},\n",
            "  \"poller\": {},\n",
            "  \"wall_secs\": {:.6},\n",
            "  \"total_ticks\": {},\n",
            "  \"total_rounds\": {},\n",
            "  \"ticks_per_sec\": {:.3},\n",
            "  \"rounds_per_sec\": {:.3},\n",
            "  \"push_latency_p50_secs\": {:.9},\n",
            "  \"push_latency_p99_secs\": {:.9},\n",
            "  \"push_latency_p999_secs\": {:.9},\n",
            "  \"client_push_latency_p50_secs\": {:.6},\n",
            "  \"client_push_latency_p99_secs\": {:.6},\n",
            "  \"ops_scrapes_mid_run\": {},\n",
            "  \"ops_scrape_p50_secs\": {:.6},\n",
            "  \"ops_scrape_p99_secs\": {:.6},\n",
            "  \"client_backpressure_events\": {},\n",
            "  \"server_backpressure_events\": {},\n",
            "  \"peak_queue_depth\": {},\n",
            "  \"resident_bytes\": {},\n",
            "  \"resident_bytes_per_session\": {:.1},\n",
            "  \"hibernated_sessions\": {},\n",
            "  \"resident_sessions\": {},\n",
            "  \"hibernations\": {},\n",
            "  \"resurrections\": {},\n",
            "  \"server_total_ticks\": {},\n",
            "  \"server_total_rounds\": {},\n",
            "  \"server_total_anomalies\": {},\n",
            "  \"wal\": {},\n",
            "  \"flight\": {},\n",
            "  \"phases\": {}\n",
            "}}\n"
        ),
        n_clients,
        sessions_per_client,
        total_sessions,
        ticks,
        n_sensors,
        w,
        s,
        batch,
        queue_capacity,
        threads,
        io_plane.json(),
        wall_secs,
        total_ticks,
        total_rounds,
        ticks_per_sec,
        rounds_per_sec,
        p50,
        p99,
        p999,
        client_p50,
        client_p99,
        scrape_latencies.len(),
        scrape_p50,
        scrape_p99,
        client_backpressure,
        stats.backpressure_events,
        stats.peak_queue_depth,
        resident_bytes,
        resident_bytes as f64 / total_sessions.max(1) as f64,
        gauge_value(&metrics, "serve_hibernated_sessions"),
        gauge_value(&metrics, "serve_resident_sessions"),
        counter_value(&metrics, "serve_hibernations_total"),
        counter_value(&metrics, "serve_resurrections_total"),
        stats.total_ticks,
        stats.total_rounds,
        stats.total_anomalies,
        wal,
        flight,
        stats.phases_json,
    );
    write_results(&json, &metrics);
    eprintln!(
        "[loadgen] {total_sessions} sessions, {ticks_per_sec:.0} ticks/s, \
         {rounds_per_sec:.0} rounds/s, p50 {:.2}ms p99 {:.2}ms p999 {:.2}ms, \
         {} backpressure events (peak queue {}) → results/BENCH_serve.json \
         (+ BENCH_serve_metrics.txt)",
        p50 * 1e3,
        p99 * 1e3,
        p999 * 1e3,
        stats.backpressure_events,
        stats.peak_queue_depth,
    );
    assert!(
        total_ticks == (total_sessions * ticks) as u64,
        "every session must be fed to completion"
    );
}

fn run_idle_heavy(opts: &Opts) {
    let n_clients = opts.clients;
    let sessions_per_client = opts.sessions_per_client;
    let (n_sensors, w, s) = (opts.n_sensors, opts.w, opts.s);
    let batch = s;
    let duration = Duration::from_secs_f64(opts.duration_secs);
    // Roomier queue than the steady default: this profile measures the
    // hibernation tier and tail latency, not forced backpressure.
    let queue_capacity = env_usize("CAD_LOADGEN_QUEUE", batch * 32);
    let total_sessions = n_clients * sessions_per_client;
    let active_total = env_usize("CAD_LOADGEN_ACTIVE", 64).min(total_sessions);
    let active_per_client = (active_total / n_clients).max(1);
    // A sweep is one pump drain iteration, so under load the clock runs
    // fast: every push in flight advances it. Between one hot session's
    // consecutive pushes the other active_total - 1 pushers each drain a
    // batch, so the threshold must clear active_total with margin or the
    // hot set itself thrashes hibernate→resurrect on every cycle. Idle
    // sessions rack up thousands of sweeps in well under a second, so the
    // higher threshold costs the idle tier nothing.
    let hibernate_after = env_usize("CAD_LOADGEN_HIBERNATE_AFTER", (active_total * 8).max(64));
    let resurrect_sample = env_usize("CAD_LOADGEN_RESURRECT_SAMPLE", 64)
        .min(total_sessions.saturating_sub(active_per_client * n_clients));
    let resurrect_per_client = (resurrect_sample / n_clients).max(1);
    let threads = cad_runtime::effective_threads();

    let spill_dir = std::env::temp_dir().join(format!("cad-loadgen-spill-{}", std::process::id()));
    std::fs::create_dir_all(&spill_dir).expect("spill dir");
    let rss_baseline = cad_obs::read_process_rss().unwrap_or(0);

    eprintln!(
        "[loadgen] idle-heavy: {n_clients} clients × {sessions_per_client} sessions \
         ({total_sessions} total, {} active), warmup {w} ticks, run {:.1}s, \
         hibernate after {hibernate_after} idle sweeps → {}, queue {queue_capacity} \
         ticks, {threads} threads",
        active_per_client * n_clients,
        duration.as_secs_f64(),
        spill_dir.display(),
    );

    let server = CadServer::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        queue_capacity,
        max_sessions: total_sessions.max(16),
        read_timeout: Duration::from_millis(100),
        ops_addr: Some("127.0.0.1:0".into()),
        hibernate_after_rounds: hibernate_after,
        spill_dir: Some(spill_dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("local_addr").to_string();
    let ops_addr = server.local_ops_addr().expect("ops bound").to_string();
    let io_plane = IoPlane::of(&server);
    let server = std::thread::spawn(move || server.run());

    let t0 = Instant::now();
    let mut workers = Vec::new();
    for c in 0..n_clients {
        let addr = addr.clone();
        let (n_sensors, w, s) = (n_sensors, w, s);
        workers.push(std::thread::spawn(move || -> ClientReport {
            let mut client = ServeClient::connect(&addr, &format!("loadgen-{c}")).expect("connect");
            let ids: Vec<u64> = (0..sessions_per_client)
                .map(|i| (c * sessions_per_client + i) as u64)
                .collect();
            // The first `active_per_client` ids stay hot; the rest go
            // idle after warmup and are expected to hibernate.
            let (active, idle) = ids.split_at(active_per_client.min(ids.len()));
            let mut report = ClientReport {
                ticks: 0,
                rounds: 0,
                latencies: Vec::new(),
                backpressure: 0,
                sample_outcomes: Vec::new(),
                ticks_hint: 0,
            };
            let sampled_active = active[0];
            let sampled_idle = idle.first().copied();
            let mut active_sample = Vec::new();
            let mut idle_sample = Vec::new();

            // Create + warm in one pass — one full window per session, so
            // each has a real detector state worth spilling (and at least
            // one round). Creating all sessions up front instead would let
            // the early ones hibernate *empty* before their warmup push
            // arrives (creates drive the sweep clock too), inflating the
            // hibernation counters with trivial round trips.
            for &id in &ids {
                client
                    .create_session(id, session_spec(n_sensors, w, s))
                    .expect("create");
                let samples: Vec<f64> = (0..w)
                    .flat_map(|u| (0..n_sensors).map(move |v| reading(id, u, v)))
                    .collect();
                let push_t0 = Instant::now();
                let res = client
                    .push_samples(id, 0, n_sensors as u32, samples)
                    .expect("warmup push");
                report.latencies.push(push_t0.elapsed().as_secs_f64());
                report.ticks += w as u64;
                report.rounds += res.outcomes.len() as u64;
                if id == sampled_active {
                    active_sample.extend(res.outcomes.clone());
                }
                if Some(id) == sampled_idle {
                    idle_sample.extend(res.outcomes);
                }
            }

            // Active phase: only the hot subset pushes; everyone else
            // sits idle while the sweep clock hibernates them.
            let deadline = Instant::now() + duration;
            let mut t = w;
            while Instant::now() < deadline {
                for &id in active {
                    let samples: Vec<f64> = (t..t + s)
                        .flat_map(|u| (0..n_sensors).map(move |v| reading(id, u, v)))
                        .collect();
                    let push_t0 = Instant::now();
                    let res = client
                        .push_samples(id, t as u64, n_sensors as u32, samples)
                        .expect("active push");
                    report.latencies.push(push_t0.elapsed().as_secs_f64());
                    report.ticks += s as u64;
                    report.rounds += res.outcomes.len() as u64;
                    if id == sampled_active {
                        active_sample.extend(res.outcomes);
                    }
                }
                t += s;
            }

            // Resurrect a sample of the idle population: one more batch
            // each, transparently pulling them back off disk.
            for &id in idle.iter().take(resurrect_per_client) {
                let samples: Vec<f64> = (w..w + s)
                    .flat_map(|u| (0..n_sensors).map(move |v| reading(id, u, v)))
                    .collect();
                let push_t0 = Instant::now();
                let res = client
                    .push_samples(id, w as u64, n_sensors as u32, samples)
                    .expect("resurrect push");
                report.latencies.push(push_t0.elapsed().as_secs_f64());
                report.ticks += s as u64;
                report.rounds += res.outcomes.len() as u64;
                if Some(id) == sampled_idle {
                    idle_sample.extend(res.outcomes);
                }
            }

            report.backpressure = client.backpressure_events();
            report.sample_outcomes.push((sampled_active, active_sample));
            if let Some(id) = sampled_idle {
                report.sample_outcomes.push((id, idle_sample));
            }
            report.ticks_hint = t;
            report
        }));
    }

    let scrape_latencies = scrape_until_done(&ops_addr, &workers);
    let reports: Vec<ClientReport> = workers
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let wall_secs = t0.elapsed().as_secs_f64();

    let mut admin = ServeClient::connect(&addr, "loadgen-admin").expect("connect");
    let stats = admin.stats(None).expect("stats");
    let metrics = assert_metrics_parity(&mut admin, &ops_addr);

    let hibernated = gauge_value(&metrics, "serve_hibernated_sessions");
    let resident = gauge_value(&metrics, "serve_resident_sessions");
    let hibernations = counter_value(&metrics, "serve_hibernations_total");
    let resurrections = counter_value(&metrics, "serve_resurrections_total");
    assert!(
        hibernations > 0,
        "idle-heavy run produced no hibernations (total {total_sessions}, \
         active {active_total})"
    );
    assert!(
        resurrections as usize >= resurrect_per_client,
        "resurrect sample did not resurrect: {resurrections} resurrections"
    );
    let resident_bytes = cad_obs::read_process_rss().unwrap_or(0);

    admin.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&spill_dir);

    // Spot checks: the always-hot session against its full horizon, and
    // the hibernated→resurrected session against warmup + one batch.
    for report in &reports {
        let (active_id, active_outs) = &report.sample_outcomes[0];
        spot_check(*active_id, report.ticks_hint, n_sensors, w, s, active_outs);
        if let Some((idle_id, idle_outs)) = report.sample_outcomes.get(1) {
            spot_check(*idle_id, w + s, n_sensors, w, s, idle_outs);
        }
    }
    eprintln!(
        "[loadgen] spot check passed: hot and resurrected sessions bit-identical \
         across the spill round-trip"
    );

    let total_ticks: u64 = reports.iter().map(|r| r.ticks).sum();
    let total_rounds: u64 = reports.iter().map(|r| r.rounds).sum();
    let client_backpressure: u64 = reports.iter().map(|r| r.backpressure).sum();
    let mut latencies: Vec<f64> = reports.iter().flat_map(|r| r.latencies.clone()).collect();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let client_p50 = quantile(&latencies, 0.50);
    let client_p99 = quantile(&latencies, 0.99);
    let ticks_per_sec = total_ticks as f64 / wall_secs.max(1e-12);
    let rounds_per_sec = total_rounds as f64 / wall_secs.max(1e-12);
    let mut sorted_scrapes = scrape_latencies.clone();
    sorted_scrapes.sort_by(|a, b| a.total_cmp(b));
    let scrape_p50 = quantile(&sorted_scrapes, 0.50);
    let scrape_p99 = quantile(&sorted_scrapes, 0.99);
    let (p50, p99, p999) = push_latency_quantiles(&metrics);

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"serve-loadgen\",\n",
            "  \"profile\": \"idle-heavy\",\n",
            "  \"clients\": {},\n",
            "  \"sessions_per_client\": {},\n",
            "  \"sessions\": {},\n",
            "  \"active_sessions\": {},\n",
            "  \"resurrect_sample\": {},\n",
            "  \"duration_secs\": {:.3},\n",
            "  \"sensors\": {},\n",
            "  \"window\": {},\n",
            "  \"step\": {},\n",
            "  \"batch\": {},\n",
            "  \"queue_capacity\": {},\n",
            "  \"hibernate_after_sweeps\": {},\n",
            "  \"threads\": {},\n",
            "  \"poller\": {},\n",
            "  \"wall_secs\": {:.6},\n",
            "  \"total_ticks\": {},\n",
            "  \"total_rounds\": {},\n",
            "  \"ticks_per_sec\": {:.3},\n",
            "  \"rounds_per_sec\": {:.3},\n",
            "  \"push_latency_p50_secs\": {:.9},\n",
            "  \"push_latency_p99_secs\": {:.9},\n",
            "  \"push_latency_p999_secs\": {:.9},\n",
            "  \"client_push_latency_p50_secs\": {:.6},\n",
            "  \"client_push_latency_p99_secs\": {:.6},\n",
            "  \"ops_scrapes_mid_run\": {},\n",
            "  \"ops_scrape_p50_secs\": {:.6},\n",
            "  \"ops_scrape_p99_secs\": {:.6},\n",
            "  \"client_backpressure_events\": {},\n",
            "  \"server_backpressure_events\": {},\n",
            "  \"peak_queue_depth\": {},\n",
            "  \"rss_baseline_bytes\": {},\n",
            "  \"resident_bytes\": {},\n",
            "  \"resident_bytes_per_session\": {:.1},\n",
            "  \"hibernated_sessions\": {},\n",
            "  \"resident_sessions\": {},\n",
            "  \"hibernations\": {},\n",
            "  \"resurrections\": {},\n",
            "  \"server_total_ticks\": {},\n",
            "  \"server_total_rounds\": {},\n",
            "  \"server_total_anomalies\": {},\n",
            "  \"phases\": {}\n",
            "}}\n"
        ),
        n_clients,
        sessions_per_client,
        total_sessions,
        active_per_client * n_clients,
        resurrect_per_client * n_clients,
        duration.as_secs_f64(),
        n_sensors,
        w,
        s,
        batch,
        queue_capacity,
        hibernate_after,
        threads,
        io_plane.json(),
        wall_secs,
        total_ticks,
        total_rounds,
        ticks_per_sec,
        rounds_per_sec,
        p50,
        p99,
        p999,
        client_p50,
        client_p99,
        scrape_latencies.len(),
        scrape_p50,
        scrape_p99,
        client_backpressure,
        stats.backpressure_events,
        stats.peak_queue_depth,
        rss_baseline,
        resident_bytes,
        resident_bytes as f64 / total_sessions.max(1) as f64,
        hibernated,
        resident,
        hibernations,
        resurrections,
        stats.total_ticks,
        stats.total_rounds,
        stats.total_anomalies,
        stats.phases_json,
    );
    write_results(&json, &metrics);
    eprintln!(
        "[loadgen] {total_sessions} sessions ({} active), {hibernations} hibernations, \
         {resurrections} resurrections, {hibernated} still hibernated, \
         p50 {:.2}ms p99 {:.2}ms p999 {:.2}ms, {:.0} bytes resident/session \
         → results/BENCH_serve.json (+ BENCH_serve_metrics.txt)",
        active_per_client * n_clients,
        p50 * 1e3,
        p99 * 1e3,
        p999 * 1e3,
        resident_bytes as f64 / total_sessions.max(1) as f64,
    );
}

/// Per-session ledger of what the chaos adapter did with the hostile
/// event stream. The reconciliation invariant (asserted per session):
///
/// ```text
/// (sent − gaps_filled) + late_dropped + width_dropped + pending_left == emitted
/// ```
///
/// i.e. every tick the mutators emitted was either committed to the wire
/// as itself, replaced by a synthesised NaN column it arrived too late
/// for, rejected with the wrong width, or still in the reorder buffer at
/// end of stream — nothing vanishes.
#[derive(Default, Clone, Copy)]
struct ChaosLedger {
    /// Tick events the mutator pipeline emitted.
    emitted: u64,
    /// Ticks pushed over the wire (real + synthesised NaN columns).
    sent: u64,
    /// Missing slots synthesised as all-NaN columns.
    gaps_filled: u64,
    /// Ticks rejected because their slot was already committed.
    late_dropped: u64,
    /// Ticks rejected because their width predates a reshape fence.
    width_dropped: u64,
    /// Ticks still in the reorder buffer at end of stream.
    pending_left: u64,
    /// `ReshapeSensors` round-trips.
    reshapes: u64,
}

impl ChaosLedger {
    fn add(&mut self, other: &ChaosLedger) {
        self.emitted += other.emitted;
        self.sent += other.sent;
        self.gaps_filled += other.gaps_filled;
        self.late_dropped += other.late_dropped;
        self.width_dropped += other.width_dropped;
        self.pending_left += other.pending_left;
        self.reshapes += other.reshapes;
    }

    fn reconciles(&self) -> bool {
        (self.sent - self.gaps_filled) + self.late_dropped + self.width_dropped + self.pending_left
            == self.emitted
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"emitted\": {}, \"sent\": {}, \"gaps_filled\": {}, ",
                "\"late_dropped\": {}, \"width_dropped\": {}, ",
                "\"pending_left\": {}, \"reshapes\": {}}}"
            ),
            self.emitted,
            self.sent,
            self.gaps_filled,
            self.late_dropped,
            self.width_dropped,
            self.pending_left,
            self.reshapes,
        )
    }
}

struct ChaosReport {
    ledger: ChaosLedger,
    rounds: u64,
    waves: u64,
    checked: u64,
    latencies: Vec<f64>,
    backpressure: u64,
}

/// The hostile pipeline for one chaos session. Churn runs *last* so the
/// reshape fences it emits are consistent with the width of every tick
/// that follows them on the wire, whatever the earlier stages reordered.
fn chaos_events(id: u64, n: usize, ticks: usize) -> Vec<StreamEvent> {
    let clean = Mts::from_series(
        (0..n)
            .map(|v| (0..ticks).map(|t| reading(id, t, v)).collect())
            .collect(),
    );
    let (events, _truth) = HostileStream::new(id.wrapping_add(1))
        .with(Drift::new(2 % n, 0.002))
        .with(DutyCycle::new(1 % n, 24, 8))
        .with(NanBurst::new(0.05, 2))
        .with(Gap::new(0.04, 2))
        .with(Reorder::new(0.12, 2))
        .with(Churn::new(ticks as u64 / 3, ticks as u64 * 2 / 3))
        .run(&clean);
    events
}

/// The mirror configuration for a chaos session: must match what
/// `validate_spec` derives from [`chaos_spec`] so the spot check compares
/// like with like.
fn chaos_mirror(n: usize, w: usize, s: usize, slack: usize) -> StreamingCad {
    let config = CadConfig::builder(n)
        .window(w, s)
        .k(2.min(n - 1))
        .tau(0.3)
        .theta(0.3)
        .gap_policy(GapPolicy::Skip)
        .reorder_slack(slack)
        .build();
    StreamingCad::new(CadDetector::new(n, config))
}

fn chaos_spec(n: usize, w: usize, s: usize, slack: usize) -> SessionSpec {
    let mut spec = session_spec(n, w, s);
    spec.gap_policy = WireGapPolicy::Skip;
    spec.reorder_slack = slack as u32;
    spec
}

/// Drive one session's hostile event stream against the server,
/// resolving reorder/gaps at the edge exactly as `StreamingCad::push_tick`
/// does, so the wire sees the identical committed column sequence. When
/// `check` is set, the raw events are also replayed through a direct
/// [`StreamingCad`] and the wire outcomes must match bit for bit.
#[allow(clippy::too_many_arguments)]
fn run_chaos_session(
    client: &mut ServeClient,
    id: u64,
    events: &[StreamEvent],
    n: usize,
    w: usize,
    s: usize,
    slack: usize,
    check: bool,
    latencies: &mut Vec<f64>,
) -> (ChaosLedger, u64) {
    client
        .create_session(id, chaos_spec(n, w, s, slack))
        .expect("create chaos session");

    let mut ledger = ChaosLedger::default();
    let mut mirror = check.then(|| chaos_mirror(n, w, s, slack));
    let mut mirror_outcomes = Vec::new();

    let mut next = 0u64;
    let mut pending: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let mut width = n;
    let mut batch: Vec<f64> = Vec::new();
    let mut batch_ticks = 0usize;
    let mut wire_outcomes: Vec<WireOutcome> = Vec::new();
    let mut rounds = 0u64;

    macro_rules! flush {
        () => {
            if batch_ticks > 0 {
                let push_t0 = Instant::now();
                let res = client
                    .push_samples(id, ledger.sent, width as u32, std::mem::take(&mut batch))
                    .expect("chaos push");
                latencies.push(push_t0.elapsed().as_secs_f64());
                ledger.sent += batch_ticks as u64;
                rounds += res.outcomes.len() as u64;
                if check {
                    wire_outcomes.extend(res.outcomes);
                }
                batch_ticks = 0;
            }
        };
    }
    macro_rules! commit {
        ($row:expr) => {
            batch.extend_from_slice($row);
            batch_ticks += 1;
            if batch_ticks == s {
                flush!();
            }
        };
    }

    for ev in events {
        match ev {
            StreamEvent::Reshape { n_sensors } => {
                flush!();
                let acked = client
                    .reshape_sensors(id, *n_sensors as u32)
                    .expect("chaos reshape");
                assert_eq!(acked as usize, *n_sensors, "reshape ack width");
                ledger.reshapes += 1;
                width = *n_sensors;
                for row in pending.values_mut() {
                    row.truncate(width);
                    row.resize(width, f64::NAN);
                }
                if let Some(m) = mirror.as_mut() {
                    m.reshape_sensors(width);
                }
            }
            StreamEvent::Tick { seq, values } => {
                ledger.emitted += 1;
                if let Some(m) = mirror.as_mut() {
                    if let Ok(outs) = m.push_tick(*seq, values) {
                        mirror_outcomes.extend(outs);
                    }
                }
                if values.len() != width {
                    ledger.width_dropped += 1;
                    continue;
                }
                if *seq < next {
                    ledger.late_dropped += 1;
                    continue;
                }
                if *seq > next {
                    if *seq - next <= slack as u64 {
                        pending.insert(*seq, values.clone());
                        continue;
                    }
                    while next < *seq {
                        match pending.remove(&next) {
                            Some(row) => {
                                commit!(&row);
                            }
                            None => {
                                ledger.gaps_filled += 1;
                                commit!(&vec![f64::NAN; width]);
                            }
                        }
                        next += 1;
                    }
                }
                commit!(values);
                next += 1;
                while let Some(row) = pending.remove(&next) {
                    commit!(&row);
                    next += 1;
                }
            }
        }
    }
    flush!();
    assert_eq!(batch_ticks, 0, "final flush must drain the batch");
    ledger.pending_left = pending.len() as u64;

    assert!(
        ledger.reconciles(),
        "session {id}: tick accounting does not reconcile: {}",
        ledger.json()
    );
    if check {
        assert_eq!(
            wire_outcomes.len(),
            mirror_outcomes.len(),
            "session {id}: round count vs direct replay"
        );
        for (i, (wire, o)) in wire_outcomes.iter().zip(&mirror_outcomes).enumerate() {
            // Rounds fire on commit cadence alone (reshape does not
            // disturb it), so the i-th round sits at tick w−1+i·s.
            assert_eq!(wire.tick, (w - 1 + i * s) as u64, "session {id}: tick");
            assert_eq!(wire.n_r, o.n_r as u64, "session {id}: n_r");
            assert_eq!(
                wire.zscore_bits,
                o.zscore.to_bits(),
                "session {id}: zscore bits"
            );
            assert_eq!(wire.abnormal, o.abnormal, "session {id}: abnormal");
        }
    }
    client.close_session(id).expect("close chaos session");
    (ledger, rounds)
}

fn run_chaos(opts: &Opts) {
    let n_clients = opts.clients;
    let sessions_per_client = opts.sessions_per_client;
    let ticks = opts.ticks;
    let (n_sensors, w, s) = (opts.n_sensors, opts.w, opts.s);
    let slack = env_usize("CAD_LOADGEN_SLACK", 4);
    let queue_capacity = env_usize("CAD_LOADGEN_QUEUE", s);
    let duration = Duration::from_secs_f64(opts.duration_secs);
    let total_sessions = n_clients * sessions_per_client;
    let threads = cad_runtime::effective_threads();
    assert!(
        n_sensors >= 3,
        "chaos needs ≥ 3 sensors (drift hits sensor 2)"
    );
    assert!(
        ticks >= 3 * w,
        "chaos needs ≥ 3·w ticks for the churn window"
    );

    eprintln!(
        "[loadgen] chaos: {n_clients} clients × {sessions_per_client} sessions/wave, \
         {ticks} ticks × {n_sensors} sensors (churn to {}), w={w} s={s} slack={slack}, \
         waves for {:.1}s, queue {queue_capacity} ticks, {threads} threads",
        n_sensors + 1,
        duration.as_secs_f64(),
    );

    let server = CadServer::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        queue_capacity,
        max_sessions: total_sessions.max(16),
        // The churn joiner needs headroom above the base width.
        max_sensors: n_sensors + 1,
        read_timeout: Duration::from_millis(100),
        ops_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("local_addr").to_string();
    let ops_addr = server.local_ops_addr().expect("ops bound").to_string();
    let io_plane = IoPlane::of(&server);
    let server = std::thread::spawn(move || server.run());

    let t0 = Instant::now();
    let deadline = t0 + duration;
    let mut workers = Vec::new();
    for c in 0..n_clients {
        let addr = addr.clone();
        workers.push(std::thread::spawn(move || -> ChaosReport {
            let mut client = ServeClient::connect(&addr, &format!("chaos-{c}")).expect("connect");
            let mut report = ChaosReport {
                ledger: ChaosLedger::default(),
                rounds: 0,
                waves: 0,
                checked: 0,
                latencies: Vec::new(),
                backpressure: 0,
            };
            loop {
                for i in 0..sessions_per_client {
                    let id =
                        ((report.waves as usize * n_clients + c) * sessions_per_client + i) as u64;
                    let events = chaos_events(id, n_sensors, ticks);
                    // Spot-check the first session of every wave against a
                    // direct replay of the raw hostile events.
                    let check = i == 0;
                    let (ledger, rounds) = run_chaos_session(
                        &mut client,
                        id,
                        &events,
                        n_sensors,
                        w,
                        s,
                        slack,
                        check,
                        &mut report.latencies,
                    );
                    report.ledger.add(&ledger);
                    report.rounds += rounds;
                    report.checked += check as u64;
                }
                report.waves += 1;
                if Instant::now() >= deadline {
                    break;
                }
            }
            report.backpressure = client.backpressure_events();
            report
        }));
    }

    let scrape_latencies = scrape_until_done(&ops_addr, &workers);
    let reports: Vec<ChaosReport> = workers
        .into_iter()
        .map(|h| h.join().expect("chaos client thread"))
        .collect();
    let wall_secs = t0.elapsed().as_secs_f64();

    let mut admin = ServeClient::connect(&addr, "chaos-admin").expect("connect");
    let stats = admin.stats(None).expect("stats");
    let metrics = assert_metrics_parity(&mut admin, &ops_addr);
    admin.shutdown_server().expect("shutdown");
    // "No pump panic" is load-bearing: a panicked shard surfaces here.
    server.join().expect("server thread").expect("server run");

    let mut total = ChaosLedger::default();
    for r in &reports {
        total.add(&r.ledger);
    }
    assert!(
        total.reconciles(),
        "aggregate tick accounting does not reconcile: {}",
        total.json()
    );
    // The server must have committed exactly what the adapters sent: the
    // wire path loses nothing either.
    assert_eq!(
        stats.total_ticks, total.sent,
        "server tick counter vs client ledger"
    );
    let total_rounds: u64 = reports.iter().map(|r| r.rounds).sum();
    assert_eq!(stats.total_rounds, total_rounds, "server round counter");
    let waves: u64 = reports.iter().map(|r| r.waves).sum();
    let checked: u64 = reports.iter().map(|r| r.checked).sum();
    let client_backpressure: u64 = reports.iter().map(|r| r.backpressure).sum();
    eprintln!(
        "[loadgen] chaos spot check: {checked} sessions replayed bit-identically; \
         ledger {}",
        total.json()
    );

    let mut latencies: Vec<f64> = reports.iter().flat_map(|r| r.latencies.clone()).collect();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let client_p50 = quantile(&latencies, 0.50);
    let client_p99 = quantile(&latencies, 0.99);
    let mut sorted_scrapes = scrape_latencies.clone();
    sorted_scrapes.sort_by(|a, b| a.total_cmp(b));
    let (p50, p99, p999) = push_latency_quantiles(&metrics);

    let truth_json = format!(
        concat!(
            "{{\n",
            "  \"profile\": \"chaos\",\n",
            "  \"waves\": {},\n",
            "  \"sessions\": {},\n",
            "  \"spot_checked_sessions\": {},\n",
            "  \"ledger\": {},\n",
            "  \"reconciled\": true,\n",
            "  \"stream_counters\": {{\n",
            "    \"late_ticks\": {},\n",
            "    \"gaps_filled\": {},\n",
            "    \"nan_samples\": {},\n",
            "    \"held_samples\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        waves,
        waves as usize * sessions_per_client,
        checked,
        total.json(),
        counter_value(&metrics, "cad_stream_late_ticks_total"),
        counter_value(&metrics, "cad_stream_gaps_filled_total"),
        labeled_counter_value(
            &metrics,
            "cad_stream_degraded_samples_total",
            ("mode", "nan")
        ),
        labeled_counter_value(
            &metrics,
            "cad_stream_degraded_samples_total",
            ("mode", "held")
        ),
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/CHAOS_truth.json", &truth_json).expect("write CHAOS_truth.json");

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"serve-loadgen\",\n",
            "  \"profile\": \"chaos\",\n",
            "  \"clients\": {},\n",
            "  \"sessions_per_client\": {},\n",
            "  \"waves\": {},\n",
            "  \"ticks_per_session\": {},\n",
            "  \"sensors\": {},\n",
            "  \"window\": {},\n",
            "  \"step\": {},\n",
            "  \"reorder_slack\": {},\n",
            "  \"queue_capacity\": {},\n",
            "  \"threads\": {},\n",
            "  \"poller\": {},\n",
            "  \"wall_secs\": {:.6},\n",
            "  \"ledger\": {},\n",
            "  \"total_rounds\": {},\n",
            "  \"spot_checked_sessions\": {},\n",
            "  \"push_latency_p50_secs\": {:.9},\n",
            "  \"push_latency_p99_secs\": {:.9},\n",
            "  \"push_latency_p999_secs\": {:.9},\n",
            "  \"client_push_latency_p50_secs\": {:.6},\n",
            "  \"client_push_latency_p99_secs\": {:.6},\n",
            "  \"ops_scrapes_mid_run\": {},\n",
            "  \"ops_scrape_p50_secs\": {:.6},\n",
            "  \"ops_scrape_p99_secs\": {:.6},\n",
            "  \"client_backpressure_events\": {},\n",
            "  \"server_backpressure_events\": {},\n",
            "  \"peak_queue_depth\": {},\n",
            "  \"server_total_ticks\": {},\n",
            "  \"server_total_rounds\": {},\n",
            "  \"server_total_anomalies\": {},\n",
            "  \"phases\": {}\n",
            "}}\n"
        ),
        n_clients,
        sessions_per_client,
        waves,
        ticks,
        n_sensors,
        w,
        s,
        slack,
        queue_capacity,
        threads,
        io_plane.json(),
        wall_secs,
        total.json(),
        total_rounds,
        checked,
        p50,
        p99,
        p999,
        client_p50,
        client_p99,
        scrape_latencies.len(),
        quantile(&sorted_scrapes, 0.50),
        quantile(&sorted_scrapes, 0.99),
        client_backpressure,
        stats.backpressure_events,
        stats.peak_queue_depth,
        stats.total_ticks,
        stats.total_rounds,
        stats.total_anomalies,
        stats.phases_json,
    );
    write_results(&json, &metrics);
    eprintln!(
        "[loadgen] chaos: {waves} waves, {} ticks survived hostility \
         ({} gap-filled, {} late-dropped, {} reshapes), {total_rounds} rounds, \
         0 protocol errors → results/BENCH_serve.json + CHAOS_truth.json",
        total.sent, total.gaps_filled, total.late_dropped, total.reshapes,
    );
}

fn write_results(json: &str, metrics: &cad_obs::MetricsSnapshot) {
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_serve.json", json).expect("write BENCH_serve.json");
    std::fs::write("results/BENCH_serve_metrics.txt", metrics.render_text())
        .expect("write BENCH_serve_metrics.txt");
    println!("{json}");
}
