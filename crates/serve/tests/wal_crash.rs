//! WAL recovery end-to-end (ISSUE 8 tentpole acceptance).
//!
//! Three properties, each checked under BOTH round engines:
//!
//! 1. **Graceful restart, WAL only** — with no snapshot directory, the
//!    write-ahead log alone must carry sessions across a restart so that
//!    the spliced outcome stream is bit-identical (zscore as raw
//!    IEEE-754 bits) to an uninterrupted [`StreamingCad`] run.
//! 2. **SIGKILL crash-kill** — the real `cad-serve` binary is killed
//!    with SIGKILL mid-stream (no drain, no persist hook) and restarted
//!    over the same `CAD_WAL_DIR`. Every *acknowledged* tick must
//!    survive (`CAD_WAL_FSYNC=every_batch` appends before the ack), and
//!    the splice must again match the uninterrupted reference.
//! 3. **`cad-replay` determinism** — the same log and config produce a
//!    byte-identical report on every invocation; the base run reproduces
//!    the live server's verdicts exactly; and a changed-η what-if diff is
//!    identical no matter how many shards the recording server ran with.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use cad_core::{CadConfig, CadDetector, EngineChoice, GapPolicy, StreamingCad};
use cad_serve::{
    CadServer, ServeClient, ServeConfig, SessionSpec, WireEngine, WireGapPolicy, WireOutcome,
};

const N_SENSORS: usize = 6;
const W: u32 = 48;
const S: u32 = 8;

fn spec(engine: WireEngine) -> SessionSpec {
    let mut spec = SessionSpec::new(N_SENSORS as u32, W, S);
    spec.k = 2;
    spec.engine = engine;
    spec
}

fn core_engine(engine: WireEngine) -> EngineChoice {
    match engine {
        WireEngine::Exact => EngineChoice::Exact,
        WireEngine::Incremental { rebuild_every } => EngineChoice::Incremental {
            rebuild_every: rebuild_every as usize,
        },
    }
}

fn reading(session: u64, t: usize, sensor: usize) -> f64 {
    let phase = session as f64 * 0.61 + sensor as f64 * 0.23;
    (t as f64 * 0.17 + phase).sin() + 0.05 * sensor as f64
}

fn tick_batch(session: u64, from: usize, to: usize) -> Vec<f64> {
    (from..to)
        .flat_map(|t| (0..N_SENSORS).map(move |s| reading(session, t, s)))
        .collect()
}

fn reference_outcomes(
    session: u64,
    ticks: usize,
    engine: WireEngine,
) -> Vec<(u64, u64, u64, bool, Vec<u32>)> {
    let config = CadConfig::builder(N_SENSORS)
        .window(W as usize, S as usize)
        .k(2)
        .tau(0.3)
        .theta(0.3)
        .engine(core_engine(engine))
        .build();
    let mut stream = StreamingCad::new(CadDetector::new(N_SENSORS, config));
    let mut outs = Vec::new();
    for t in 0..ticks {
        let row: Vec<f64> = (0..N_SENSORS).map(|s| reading(session, t, s)).collect();
        if let Some(o) = stream.push_sample(&row) {
            outs.push((
                t as u64,
                o.n_r as u64,
                o.zscore.to_bits(),
                o.abnormal,
                o.outliers.iter().map(|&v| v as u32).collect(),
            ));
        }
    }
    outs
}

fn as_tuples(outs: &[WireOutcome]) -> Vec<(u64, u64, u64, bool, Vec<u32>)> {
    outs.iter()
        .map(|o| (o.tick, o.n_r, o.zscore_bits, o.abnormal, o.outliers.clone()))
        .collect()
}

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cad-wal-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(cfg: ServeConfig) -> (String, std::thread::JoinHandle<std::io::Result<usize>>) {
    let server = CadServer::bind(cfg).expect("bind");
    let addr = server.local_addr().expect("local_addr").to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

// ---------------------------------------------------------------------------
// 1. Graceful restart with the WAL as the only persistence substrate.
// ---------------------------------------------------------------------------

#[test]
fn wal_only_restart_splice_is_bit_identical_under_both_engines() {
    for engine in [
        WireEngine::Exact,
        WireEngine::Incremental { rebuild_every: 16 },
    ] {
        wal_only_restart_one(engine);
    }
}

fn wal_only_restart_one(engine: WireEngine) {
    let tag = match engine {
        WireEngine::Exact => "grace-exact",
        WireEngine::Incremental { .. } => "grace-incr",
    };
    let dir = unique_dir(tag);
    let ticks = 500usize;
    let split = 261usize; // not round-aligned: the ring restores mid-window
    let session_ids = [3u64, 8, 11];
    let cfg = || ServeConfig {
        addr: "127.0.0.1:0".into(),
        spill_dir: None, // the WAL is the only way back
        wal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    let (addr, server) = start_server(cfg());
    let mut first_half: BTreeMap<u64, Vec<WireOutcome>> = BTreeMap::new();
    {
        let mut client = ServeClient::connect(&addr, "wal-1").expect("connect");
        for &id in &session_ids {
            assert!(
                !client
                    .create_session(id, spec(engine))
                    .expect("create")
                    .resumed
            );
        }
        for &id in &session_ids {
            let mut t = 0usize;
            let mut outs = Vec::new();
            while t < split {
                let len = 37usize.min(split - t);
                outs.extend(
                    client
                        .push_samples(id, t as u64, N_SENSORS as u32, tick_batch(id, t, t + len))
                        .expect("push")
                        .outcomes,
                );
                t += len;
            }
            first_half.insert(id, outs);
        }
        client.shutdown_server().expect("shutdown");
    }
    server.join().expect("server thread").expect("server run");

    let (addr, server) = start_server(cfg());
    {
        let mut client = ServeClient::connect(&addr, "wal-2").expect("connect");
        for &id in &session_ids {
            let h = client.create_session(id, spec(engine)).expect("re-attach");
            assert!(h.resumed, "session {id} should resume from the WAL");
            assert_eq!(h.samples_seen as usize, split);
            let mut outs = first_half.remove(&id).expect("first half");
            let mut t = split;
            while t < ticks {
                let len = 37usize.min(ticks - t);
                outs.extend(
                    client
                        .push_samples(id, t as u64, N_SENSORS as u32, tick_batch(id, t, t + len))
                        .expect("push")
                        .outcomes,
                );
                t += len;
            }
            assert_eq!(
                as_tuples(&outs),
                reference_outcomes(id, ticks, engine),
                "WAL-spliced stream for session {id} ({tag}) diverged"
            );
        }
        client.shutdown_server().expect("shutdown");
    }
    server.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// 2. SIGKILL the real binary mid-stream; restart over the same WAL.
// ---------------------------------------------------------------------------

/// Spawn the `cad-serve` binary on an ephemeral port with the WAL on (and
/// the state directory too, when given) and parse the bound address out
/// of its startup banner.
fn spawn_cad_serve(wal_dir: &PathBuf, state_dir: Option<&Path>, shards: usize) -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cad-serve"));
    cmd.env("CAD_SERVE_ADDR", "127.0.0.1:0")
        .env("CAD_SERVE_SHARDS", shards.to_string())
        .env("CAD_WAL_DIR", wal_dir)
        .env("CAD_WAL_FSYNC", "every_batch")
        .env_remove("CAD_SERVE_SNAPSHOT_DIR")
        .env_remove("CAD_SPILL_DIR")
        .env_remove("CAD_OPS_ADDR");
    if let Some(dir) = state_dir {
        cmd.env("CAD_SPILL_DIR", dir);
    }
    let mut child = cmd
        .stderr(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn cad-serve");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        assert!(
            Instant::now() < deadline,
            "cad-serve never announced its address"
        );
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(rest) = line.strip_prefix("cad-serve: listening on ") {
                    break rest
                        .split_whitespace()
                        .next()
                        .expect("addr token")
                        .to_string();
                }
            }
            other => panic!("cad-serve banner ended early: {other:?}"),
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines.by_ref() {});
    (child, addr)
}

/// The retired snapshot directory variable must stop the daemon before
/// it binds (exit 2, naming `CAD_SPILL_DIR`), so a deployment that still
/// sets it cannot silently run without persistence.
#[test]
fn retired_snapshot_dir_variable_is_refused() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cad-serve"))
        .env("CAD_SERVE_ADDR", "127.0.0.1:0")
        .env("CAD_SERVE_SNAPSHOT_DIR", std::env::temp_dir())
        .env_remove("CAD_OPS_ADDR")
        .stderr(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn cad-serve");
    // A daemon that ignored the variable would serve forever; bound the
    // wait so that regression fails instead of hanging the suite.
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll cad-serve") {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().expect("kill cad-serve");
            child.wait().expect("reap");
            panic!("cad-serve started despite CAD_SERVE_SNAPSHOT_DIR");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(2));
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().expect("stderr"), &mut stderr)
        .expect("read stderr");
    assert!(stderr.contains("CAD_SPILL_DIR"), "{stderr}");
}

#[test]
fn sigkill_crash_recovery_is_bit_identical_under_both_engines() {
    for engine in [
        WireEngine::Exact,
        WireEngine::Incremental { rebuild_every: 16 },
    ] {
        sigkill_one(engine, false);
        // With a state directory and a mid-stream snapshot, recovery must
        // splice the WAL suffix onto the header-registered session file.
        sigkill_one(engine, true);
    }
}

fn sigkill_one(engine: WireEngine, snapshot_mid_stream: bool) {
    let tag = match (engine, snapshot_mid_stream) {
        (WireEngine::Exact, false) => "kill-exact",
        (WireEngine::Incremental { .. }, false) => "kill-incr",
        (WireEngine::Exact, true) => "kill-snap-exact",
        (WireEngine::Incremental { .. }, true) => "kill-snap-incr",
    };
    let dir = unique_dir(tag);
    std::fs::create_dir_all(&dir).expect("wal dir");
    let state_dir = snapshot_mid_stream.then(|| dir.join("state"));
    let ticks = 400usize;
    let split = 213usize;
    // Not round-aligned either: the file holds a partially filled ring.
    let snapshot_at = 116usize;
    let session_ids = [5u64, 9];

    // Phase 1: real process, push the first half, SIGKILL with no drain.
    let (mut child, addr) = spawn_cad_serve(&dir.join("wal"), state_dir.as_deref(), 2);
    let mut first_half: BTreeMap<u64, Vec<WireOutcome>> = BTreeMap::new();
    {
        let mut client = ServeClient::connect(&addr, "kill-1").expect("connect");
        for &id in &session_ids {
            assert!(
                !client
                    .create_session(id, spec(engine))
                    .expect("create")
                    .resumed
            );
        }
        for &id in &session_ids {
            let mut t = 0usize;
            let mut outs = Vec::new();
            while t < split {
                let end = if snapshot_mid_stream && t < snapshot_at {
                    snapshot_at
                } else {
                    split
                };
                let len = 29usize.min(end - t);
                outs.extend(
                    client
                        .push_samples(id, t as u64, N_SENSORS as u32, tick_batch(id, t, t + len))
                        .expect("push")
                        .outcomes,
                );
                t += len;
                if snapshot_mid_stream && t == snapshot_at {
                    assert!(client.snapshot(id).expect("snapshot") > 0);
                }
            }
            first_half.insert(id, outs);
        }
        if let Some(state) = &state_dir {
            for &id in &session_ids {
                assert!(
                    state.join(format!("session-{id}.cadh")).exists(),
                    "snapshot left no session file for {id}"
                );
            }
        }
        // Every push above was ACKed, and the WAL appends before the ack
        // with fsync every_batch — so all `split` ticks are durable even
        // though the process dies right now without any shutdown path.
        child.kill().expect("SIGKILL cad-serve");
        child.wait().expect("reap");
    }

    // Phase 2: fresh process over the same WAL; re-attach and finish.
    let (mut child, addr) = spawn_cad_serve(&dir.join("wal"), state_dir.as_deref(), 2);
    {
        let mut client = ServeClient::connect(&addr, "kill-2").expect("connect");
        for &id in &session_ids {
            let h = client.create_session(id, spec(engine)).expect("re-attach");
            assert!(h.resumed, "session {id} should be rebuilt from the WAL");
            assert_eq!(
                h.samples_seen as usize, split,
                "every acknowledged tick must have survived the SIGKILL"
            );
            let mut outs = first_half.remove(&id).expect("first half");
            let mut t = split;
            while t < ticks {
                let len = 29usize.min(ticks - t);
                outs.extend(
                    client
                        .push_samples(id, t as u64, N_SENSORS as u32, tick_batch(id, t, t + len))
                        .expect("push")
                        .outcomes,
                );
                t += len;
            }
            assert_eq!(
                as_tuples(&outs),
                reference_outcomes(id, ticks, engine),
                "crash-kill splice for session {id} ({tag}) diverged"
            );
        }
    }
    child.kill().expect("kill phase-2 server");
    child.wait().expect("reap");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// 3. cad-replay determinism and live-verdict reproduction.
// ---------------------------------------------------------------------------

/// Record a small session into a WAL via an in-process server with the
/// given shard count; return the live outcome stream.
fn record_log(dir: &Path, shards: usize, engine: WireEngine) -> Vec<WireOutcome> {
    let (addr, server) = start_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards,
        wal_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    });
    let ticks = 300usize;
    let id = 42u64;
    let mut outs = Vec::new();
    {
        let mut client = ServeClient::connect(&addr, "replay-rec").expect("connect");
        client.create_session(id, spec(engine)).expect("create");
        let mut t = 0usize;
        while t < ticks {
            let len = 23usize.min(ticks - t);
            outs.extend(
                client
                    .push_samples(id, t as u64, N_SENSORS as u32, tick_batch(id, t, t + len))
                    .expect("push")
                    .outcomes,
            );
            t += len;
        }
        client.shutdown_server().expect("shutdown");
    }
    server.join().expect("server thread").expect("server run");
    outs
}

fn run_replay(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cad-replay"))
        .args(args)
        .output()
        .expect("run cad-replay");
    assert!(
        out.status.success(),
        "cad-replay failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 report")
}

/// The report suffix that depends only on the recorded records (drops the
/// leading `wal_dir`/`scan` fields, which vary with path and shard count).
fn record_dependent_suffix(report: &str) -> &str {
    let at = report
        .find("\"pushes\":")
        .expect("report has a pushes field");
    &report[at..]
}

#[test]
fn cad_replay_is_deterministic_and_reproduces_live_verdicts() {
    for engine in [
        WireEngine::Exact,
        WireEngine::Incremental { rebuild_every: 16 },
    ] {
        replay_one(engine);
    }
}

// ---------------------------------------------------------------------------
// 4. Chaos traffic — NaN holes and sensor churn — through the WAL.
// ---------------------------------------------------------------------------

const CHAOS_TICKS: usize = 400;
const CHAOS_GROW: usize = 150; // join fence (width 6 → 7)
const CHAOS_SHRINK: usize = 280; // leave fence (width 7 → 6)

fn chaos_spec() -> SessionSpec {
    let mut spec = SessionSpec::new(N_SENSORS as u32, W, S);
    spec.k = 2;
    spec.gap_policy = WireGapPolicy::Skip;
    spec.reorder_slack = 4;
    spec
}

/// Deterministic hostile reading: periodic NaN holes (a client-side gap
/// fill looks exactly like this on the wire), a duty-cycled sensor, and a
/// joiner (slot ≥ `N_SENSORS`) shadowing sensor 0.
fn chaos_reading(session: u64, t: usize, sensor: usize) -> f64 {
    if sensor >= N_SENSORS {
        return 0.8 * chaos_reading(session, t, 0) + 0.01;
    }
    if (t * 13 + sensor * 7) % 29 == 0 {
        return f64::NAN;
    }
    if sensor == 1 && (t / 16) % 3 == 2 {
        return f64::NAN; // duty-cycle off phase
    }
    reading(session, t, sensor)
}

fn chaos_batch(session: u64, from: usize, to: usize, width: usize) -> Vec<f64> {
    (from..to)
        .flat_map(|t| (0..width).map(move |s| chaos_reading(session, t, s)))
        .collect()
}

/// The uninterrupted direct reference for the chaos schedule.
fn chaos_reference(session: u64) -> Vec<(u64, u64, u64, bool, Vec<u32>)> {
    let config = CadConfig::builder(N_SENSORS)
        .window(W as usize, S as usize)
        .k(2)
        .tau(0.3)
        .theta(0.3)
        .gap_policy(GapPolicy::Skip)
        .reorder_slack(4)
        .build();
    let mut stream = StreamingCad::new(CadDetector::new(N_SENSORS, config));
    let mut outs = Vec::new();
    let mut width = N_SENSORS;
    for t in 0..CHAOS_TICKS {
        if t == CHAOS_GROW {
            stream.reshape_sensors(N_SENSORS + 1);
            width = N_SENSORS + 1;
        }
        if t == CHAOS_SHRINK {
            stream.reshape_sensors(N_SENSORS);
            width = N_SENSORS;
        }
        let row: Vec<f64> = (0..width).map(|s| chaos_reading(session, t, s)).collect();
        if let Some(o) = stream.push_sample(&row) {
            outs.push((
                t as u64,
                o.n_r as u64,
                o.zscore.to_bits(),
                o.abnormal,
                o.outliers.iter().map(|&v| v as u32).collect(),
            ));
        }
    }
    outs
}

/// Push the chaos schedule for `[from, to)` in uneven batches, flushing at
/// the reshape fences.
fn push_chaos(
    client: &mut ServeClient,
    id: u64,
    from: usize,
    to: usize,
    outs: &mut Vec<WireOutcome>,
) {
    let mut t = from;
    while t < to {
        if t == CHAOS_GROW {
            client
                .reshape_sensors(id, (N_SENSORS + 1) as u32)
                .expect("grow");
        }
        if t == CHAOS_SHRINK {
            client
                .reshape_sensors(id, N_SENSORS as u32)
                .expect("shrink");
        }
        let width = if (CHAOS_GROW..CHAOS_SHRINK).contains(&t) {
            N_SENSORS + 1
        } else {
            N_SENSORS
        };
        let fence = if t < CHAOS_GROW {
            CHAOS_GROW
        } else if t < CHAOS_SHRINK {
            CHAOS_SHRINK
        } else {
            CHAOS_TICKS
        };
        let len = 23usize.min(fence.min(to) - t);
        outs.extend(
            client
                .push_samples(
                    id,
                    t as u64,
                    width as u32,
                    chaos_batch(id, t, t + len, width),
                )
                .expect("chaos push")
                .outcomes,
        );
        t += len;
    }
}

/// Chaos-shaped traffic — NaN holes in the payload, a mid-stream grow and
/// shrink — must survive the WAL: a graceful restart splices the session
/// bit-identically (the Reshape record replays in stream order), and
/// `cad-replay` reproduces the live verdicts byte for byte, run after run.
#[test]
fn chaos_wal_restart_and_replay_are_bit_identical() {
    let dir = unique_dir("chaos");
    let id = 17u64;
    let split = 201usize; // mid-churn: the joiner is live and warming up
    let cfg = || ServeConfig {
        addr: "127.0.0.1:0".into(),
        spill_dir: None,
        max_sensors: N_SENSORS + 1,
        wal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    let mut outs = Vec::new();
    let (addr, server) = start_server(cfg());
    {
        let mut client = ServeClient::connect(&addr, "chaos-1").expect("connect");
        assert!(
            !client
                .create_session(id, chaos_spec())
                .expect("create")
                .resumed
        );
        push_chaos(&mut client, id, 0, split, &mut outs);
        client.shutdown_server().expect("shutdown");
    }
    server.join().expect("server thread").expect("server run");

    let (addr, server) = start_server(cfg());
    {
        let mut client = ServeClient::connect(&addr, "chaos-2").expect("connect");
        let h = client.create_session(id, chaos_spec()).expect("re-attach");
        assert!(h.resumed, "chaos session should resume from the WAL");
        assert_eq!(
            h.samples_seen as usize,
            split,
            "every NaN-bearing tick must survive, and the Reshape record \
             must leave the resumed width at {}",
            N_SENSORS + 1
        );
        push_chaos(&mut client, id, split, CHAOS_TICKS, &mut outs);
        client.shutdown_server().expect("shutdown");
    }
    server.join().expect("server thread").expect("server run");

    assert_eq!(
        as_tuples(&outs),
        chaos_reference(id),
        "chaos WAL splice diverged from the uninterrupted run"
    );

    // cad-replay over the same log: deterministic, and byte-identical to
    // the live verdicts — NaN payloads and Reshape records included.
    let wal = dir.to_str().expect("utf8 path");
    let report_a = run_replay(&["--wal", wal]);
    let report_b = run_replay(&["--wal", wal]);
    assert_eq!(report_a, report_b, "chaos replay is not deterministic");
    let rendered: Vec<String> = outs
        .iter()
        .map(|o| {
            let outliers = o
                .outliers
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "{{\"tick\":{},\"n_r\":{},\"zscore_bits\":{},\"abnormal\":{},\"outliers\":[{}]}}",
                o.tick, o.n_r, o.zscore_bits, o.abnormal, outliers
            )
        })
        .collect();
    let expected = format!("\"outcomes\":[{}]", rendered.join(","));
    assert!(
        report_a.contains(&expected),
        "chaos replay does not reproduce the live verdicts"
    );
    assert!(
        report_a.contains("\"gap_policy\":\"skip\""),
        "replay report must carry the session's gap policy"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

fn replay_one(engine: WireEngine) {
    let tag = match engine {
        WireEngine::Exact => "replay-exact",
        WireEngine::Incremental { .. } => "replay-incr",
    };
    let dir1 = unique_dir(&format!("{tag}-s1"));
    let dir4 = unique_dir(&format!("{tag}-s4"));
    let live = record_log(&dir1, 1, engine);
    let live4 = record_log(&dir4, 4, engine);
    assert_eq!(as_tuples(&live), as_tuples(&live4));

    let wal1 = dir1.to_str().expect("utf8 path");
    let wal4 = dir4.to_str().expect("utf8 path");

    // Same log + same config => byte-identical report, run to run.
    let base_a = run_replay(&["--wal", wal1]);
    let base_b = run_replay(&["--wal", wal1]);
    assert_eq!(
        base_a, base_b,
        "same-config replay is not deterministic ({tag})"
    );

    // The base run reproduces the live server's verdicts exactly: the
    // report's outcome array is the live stream rendered in replay form.
    let rendered: Vec<String> = live
        .iter()
        .map(|o| {
            let outliers = o
                .outliers
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "{{\"tick\":{},\"n_r\":{},\"zscore_bits\":{},\"abnormal\":{},\"outliers\":[{}]}}",
                o.tick, o.n_r, o.zscore_bits, o.abnormal, outliers
            )
        })
        .collect();
    let expected = format!("\"outcomes\":[{}]", rendered.join(","));
    assert!(
        base_a.contains(&expected),
        "replay base run does not reproduce the recorded verdicts ({tag})"
    );

    // Changed-η what-if: deterministic run to run, and identical across
    // the 1-shard and 4-shard recordings of the same session (only the
    // path/scan preamble may differ between the two logs).
    let eta_a = run_replay(&["--wal", wal1, "--eta", "1.5"]);
    let eta_b = run_replay(&["--wal", wal1, "--eta", "1.5"]);
    assert_eq!(eta_a, eta_b, "what-if replay is not deterministic ({tag})");
    let eta_s4 = run_replay(&["--wal", wal4, "--eta", "1.5"]);
    assert_eq!(
        record_dependent_suffix(&eta_a),
        record_dependent_suffix(&eta_s4),
        "what-if diff differs across recording shard counts ({tag})"
    );
    // And the diff actually registers the η change.
    assert!(eta_a.contains("\"diff\":"), "report carries a diff section");

    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir4);
}
