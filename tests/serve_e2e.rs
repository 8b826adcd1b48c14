//! End-to-end suite for the `cad-serve` layer: server and clients in one
//! process over loopback.
//!
//! The property under test is the serving layer's whole reason to exist:
//! a session's outcome stream over the wire must be **bit-identical**
//! (zscore compared as raw IEEE-754 bits) to a direct [`StreamingCad`]
//! loop over the same readings — across many concurrent sessions, across
//! explicit backpressure, and across a kill/restart splice that resumes
//! sessions from their session files mid-window.
//!
//! Like the determinism suite, the whole file honours `CAD_TEST_ENGINE`
//! (CI runs it under both engines × both thread configs), and one test
//! exercises both engines explicitly regardless of the env.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use cad_core::{CadConfig, CadDetector, EngineChoice, StreamingCad};
use cad_serve::{
    codes, CadServer, ClientError, ServeClient, ServeConfig, SessionSpec, WireEngine, WireOutcome,
};

/// Round engine under test (`CAD_TEST_ENGINE=incremental` switches the
/// suite onto the sliding-correlation path; CI runs both).
fn wire_engine_under_test() -> WireEngine {
    match std::env::var("CAD_TEST_ENGINE").as_deref() {
        Ok("incremental") => WireEngine::Incremental { rebuild_every: 16 },
        _ => WireEngine::Exact,
    }
}

fn core_engine(engine: WireEngine) -> EngineChoice {
    match engine {
        WireEngine::Exact => EngineChoice::Exact,
        WireEngine::Incremental { rebuild_every } => EngineChoice::Incremental {
            rebuild_every: rebuild_every as usize,
        },
    }
}

/// Deterministic readings for (session, tick, sensor): correlated enough
/// for a k-NN graph, distinct per session.
fn reading(session: u64, t: usize, sensor: usize) -> f64 {
    let phase = session as f64 * 0.61 + sensor as f64 * 0.23;
    (t as f64 * 0.17 + phase).sin() + 0.05 * sensor as f64
}

fn tick_row(session: u64, t: usize, n: usize) -> Vec<f64> {
    (0..n).map(|s| reading(session, t, s)).collect()
}

const N_SENSORS: usize = 6;
const W: u32 = 48;
const S: u32 = 8;

fn spec(engine: WireEngine) -> SessionSpec {
    let mut spec = SessionSpec::new(N_SENSORS as u32, W, S);
    spec.k = 2;
    spec.engine = engine;
    spec
}

/// The reference: drive a plain `StreamingCad` over the same readings and
/// report `(tick, n_r, zscore_bits, abnormal, outliers)` per round.
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
        if let Some(o) = stream.push_sample(&tick_row(session, t, N_SENSORS)) {
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

/// Bind on an ephemeral port, run the server on a background thread, and
/// hand back the address plus the join handle (which yields the number of
/// sessions persisted at shutdown).
fn start_server(cfg: ServeConfig) -> (String, std::thread::JoinHandle<std::io::Result<usize>>) {
    let server = CadServer::bind(cfg).expect("bind");
    let addr = server.local_addr().expect("local_addr").to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cad-serve-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Many concurrent sessions, uneven batching, verdicts must match the
/// serial reference bit for bit.
#[test]
fn concurrent_sessions_match_serial_reference() {
    let engine = wire_engine_under_test();
    let (addr, server) = start_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    });
    let ticks = 400usize;
    let n_clients = 3u64;
    let sessions_per_client = 4u64;

    let mut workers = Vec::new();
    for c in 0..n_clients {
        let addr = addr.clone();
        workers.push(std::thread::spawn(move || {
            let mut client = ServeClient::connect(&addr, &format!("e2e-{c}")).expect("connect");
            let ids: Vec<u64> = (0..sessions_per_client)
                .map(|i| c * sessions_per_client + i)
                .collect();
            for &id in &ids {
                let h = client.create_session(id, spec(engine)).expect("create");
                assert!(!h.resumed);
            }
            // Interleave sessions with uneven batch sizes.
            let mut cursor: BTreeMap<u64, usize> = ids.iter().map(|&id| (id, 0)).collect();
            let mut got: BTreeMap<u64, Vec<WireOutcome>> =
                ids.iter().map(|&id| (id, Vec::new())).collect();
            let batches = [5usize, 17, 3, 29, 11];
            let mut b = 0usize;
            loop {
                let mut progressed = false;
                for &id in &ids {
                    let t = cursor[&id];
                    if t >= ticks {
                        continue;
                    }
                    let len = batches[b % batches.len()].min(ticks - t);
                    b += 1;
                    let samples: Vec<f64> = (t..t + len)
                        .flat_map(|u| tick_row(id, u, N_SENSORS))
                        .collect();
                    let res = client
                        .push_samples(id, t as u64, N_SENSORS as u32, samples)
                        .expect("push");
                    got.get_mut(&id).unwrap().extend(res.outcomes);
                    cursor.insert(id, t + len);
                    progressed = true;
                }
                if !progressed {
                    break;
                }
            }
            got
        }));
    }
    for worker in workers {
        let got = worker.join().expect("client thread");
        for (id, outs) in got {
            assert_eq!(
                as_tuples(&outs),
                reference_outcomes(id, ticks, engine),
                "session {id} diverged from the serial reference"
            );
        }
    }
    let mut admin = ServeClient::connect(&addr, "e2e-admin").expect("connect");
    let stats = admin.stats(Some(2)).expect("stats");
    assert_eq!(stats.sessions, n_clients * sessions_per_client);
    assert_eq!(
        stats.total_ticks,
        n_clients * sessions_per_client * ticks as u64
    );
    let per_session = stats.session.expect("session stats");
    assert_eq!(per_session.ticks, ticks as u64);
    assert!(per_session.rounds > 0);
    assert!(stats.phases_json.contains("serve.pump"));
    admin.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// Kill the server mid-stream, restart it over the same snapshot
/// directory, re-attach, push the rest: the full spliced outcome stream
/// must equal an uninterrupted run — under both engines explicitly.
#[test]
fn splice_across_restart_is_bit_identical_under_both_engines() {
    for engine in [
        WireEngine::Exact,
        WireEngine::Incremental { rebuild_every: 16 },
    ] {
        splice_one(engine);
    }
    // And whatever CI selected via CAD_TEST_ENGINE, for symmetry with the
    // rest of the suite (redundant for Exact, cheap either way).
    splice_one(wire_engine_under_test());
}

fn splice_one(engine: WireEngine) {
    let tag = match engine {
        WireEngine::Exact => "exact",
        WireEngine::Incremental { .. } => "incr",
    };
    let dir = unique_dir(tag);
    let ticks = 500usize;
    // Split at a tick that is NOT round-aligned: the ring must restore
    // mid-window, partial fill and all.
    let split = 261usize;
    let session_ids = [3u64, 8, 11];

    let cfg = || ServeConfig {
        addr: "127.0.0.1:0".into(),
        spill_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    // Phase 1: push the first half in odd-sized batches, then Shutdown.
    let (addr, server) = start_server(cfg());
    let mut first_half: BTreeMap<u64, Vec<WireOutcome>> = BTreeMap::new();
    {
        let mut client = ServeClient::connect(&addr, "splice-1").expect("connect");
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
                let samples: Vec<f64> = (t..t + len)
                    .flat_map(|u| tick_row(id, u, N_SENSORS))
                    .collect();
                outs.extend(
                    client
                        .push_samples(id, t as u64, N_SENSORS as u32, samples)
                        .expect("push")
                        .outcomes,
                );
                t += len;
            }
            first_half.insert(id, outs);
        }
        let persisting = client.shutdown_server().expect("shutdown");
        assert_eq!(persisting as usize, session_ids.len());
    }
    let persisted = server.join().expect("server thread").expect("server run");
    assert_eq!(persisted, session_ids.len(), "all sessions persisted");

    // Phase 2: fresh server over the same directory; re-attach and finish.
    let (addr, server) = start_server(cfg());
    {
        let mut client = ServeClient::connect(&addr, "splice-2").expect("connect");
        for &id in &session_ids {
            let h = client.create_session(id, spec(engine)).expect("re-attach");
            assert!(h.resumed, "session {id} should resume from its snapshot");
            assert_eq!(h.samples_seen as usize, split);
            let mut outs = first_half.remove(&id).expect("first half");
            let mut t = split;
            while t < ticks {
                let len = 37usize.min(ticks - t);
                let samples: Vec<f64> = (t..t + len)
                    .flat_map(|u| tick_row(id, u, N_SENSORS))
                    .collect();
                outs.extend(
                    client
                        .push_samples(id, t as u64, N_SENSORS as u32, samples)
                        .expect("push")
                        .outcomes,
                );
                t += len;
            }
            assert_eq!(
                as_tuples(&outs),
                reference_outcomes(id, ticks, engine),
                "spliced stream for session {id} ({tag}) diverged from the \
                 uninterrupted reference"
            );
        }
        client.shutdown_server().expect("shutdown");
    }
    server.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tiny ingress queue must produce explicit backpressure frames without
/// corrupting the outcome stream.
#[test]
fn backpressure_is_explicit_and_lossless() {
    let engine = wire_engine_under_test();
    let (addr, server) = start_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        queue_capacity: S as usize, // one round per admission — saturates
        ..ServeConfig::default()
    });
    let ticks = 320usize;
    // Two pushers keep the queue contended while each still observes
    // per-session FIFO.
    let mut workers = Vec::new();
    for id in [21u64, 22] {
        let addr = addr.clone();
        workers.push(std::thread::spawn(move || {
            let mut client = ServeClient::connect(&addr, "bp").expect("connect");
            client.create_session(id, spec(engine)).expect("create");
            let mut outs = Vec::new();
            let mut t = 0usize;
            while t < ticks {
                let len = (S as usize * 2).min(ticks - t);
                let samples: Vec<f64> = (t..t + len)
                    .flat_map(|u| tick_row(id, u, N_SENSORS))
                    .collect();
                outs.extend(
                    client
                        .push_samples(id, t as u64, N_SENSORS as u32, samples)
                        .expect("push")
                        .outcomes,
                );
                t += len;
            }
            (id, outs, client.backpressure_events())
        }));
    }
    let mut _seen_backpressure = 0u64;
    for worker in workers {
        let (id, outs, bp) = worker.join().expect("worker");
        _seen_backpressure += bp;
        assert_eq!(
            as_tuples(&outs),
            reference_outcomes(id, ticks, engine),
            "backpressured session {id} diverged"
        );
    }
    let mut admin = ServeClient::connect(&addr, "bp-admin").expect("connect");
    let stats = admin.stats(None).expect("stats");
    // The queue's high-water mark must have hit (or legally overshot, via
    // the empty-queue exception) its tiny capacity.
    assert!(
        stats.peak_queue_depth >= S as u64,
        "peak queue depth {} never reached capacity {}",
        stats.peak_queue_depth,
        S
    );
    admin.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// Poll server stats until at least `events` backpressure events were
/// counted; panics after 60 s instead of spinning forever.
fn wait_for_backpressure(admin: &mut ServeClient, events: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let seen = admin.stats(None).expect("stats").backpressure_events;
        if seen >= events {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "only {seen} of {events} backpressure events after 60 s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A `Shutdown` frame arriving while other sessions are mid-backpressure
/// (pushers parked on the saturated ingress queue) must not lose work:
/// every already-admitted push is processed and acknowledged during the
/// drain, and **every** session's snapshot lands on disk — restoring with
/// exactly the progress its client saw acknowledged.
#[test]
fn shutdown_during_backpressure_persists_every_session() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let engine = wire_engine_under_test();
    let dir = unique_dir("bp-shutdown");
    let cfg = || ServeConfig {
        addr: "127.0.0.1:0".into(),
        // One shard, so both pushers share one ingress queue: with one
        // command in flight per connection, a pusher alone on its queue
        // can never see backpressure.
        shards: 1,
        queue_capacity: S as usize, // tiny — concurrent pushers saturate it
        spill_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let (addr, server) = start_server(cfg());

    // Two pushers stream forever; each publishes its acknowledged tick
    // high-water mark, so the restart check below can pin each restored
    // session to exactly what its client saw acked.
    let session_ids = [30u64, 31];
    let acked: Vec<Arc<AtomicU64>> = session_ids
        .iter()
        .map(|_| Arc::new(AtomicU64::new(0)))
        .collect();
    let mut pushers = Vec::new();
    for (i, &id) in session_ids.iter().enumerate() {
        let addr = addr.clone();
        let acked = Arc::clone(&acked[i]);
        pushers.push(std::thread::spawn(move || -> u16 {
            let mut client = ServeClient::connect(&addr, &format!("bp-{id}")).expect("connect");
            client.create_session(id, spec(engine)).expect("create");
            let mut t = 0usize;
            loop {
                let len = S as usize * 2;
                let samples: Vec<f64> = (t..t + len)
                    .flat_map(|u| tick_row(id, u, N_SENSORS))
                    .collect();
                match client.push_samples(id, t as u64, N_SENSORS as u32, samples) {
                    Ok(_) => {
                        t += len;
                        acked.store(t as u64, Ordering::SeqCst);
                    }
                    Err(ClientError::Server { code, .. }) => return code,
                    Err(other) => panic!("unexpected failure: {other:?}"),
                }
            }
        }));
    }

    // Wait until the queue has actually produced backpressure, so the
    // shutdown below races against pushers genuinely parked on admission.
    let mut admin = ServeClient::connect(&addr, "bp-stopper").expect("connect");
    wait_for_backpressure(&mut admin, 3);
    admin.shutdown_server().expect("shutdown");
    let persisted = server.join().expect("server thread").expect("server run");
    assert_eq!(
        persisted,
        session_ids.len(),
        "the drain must persist every session, including backpressured ones"
    );
    for pusher in pushers {
        assert_eq!(pusher.join().expect("pusher"), codes::SHUTTING_DOWN);
    }

    // Restart over the same directory: each session resumes with its
    // acknowledged progress — nothing admitted was dropped by the drain,
    // nothing unacknowledged was half-applied.
    let (addr, server) = start_server(cfg());
    let mut client = ServeClient::connect(&addr, "bp-reattach").expect("connect");
    for (i, &id) in session_ids.iter().enumerate() {
        let h = client.create_session(id, spec(engine)).expect("re-attach");
        assert!(h.resumed, "session {id} should resume from its snapshot");
        assert_eq!(
            h.samples_seen,
            acked[i].load(std::sync::atomic::Ordering::SeqCst),
            "session {id} restored with different progress than its \
             client saw acknowledged"
        );
    }
    client.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission control over the wire: session and sensor limits surface as
/// protocol errors, not panics; closing frees a slot.
#[test]
fn admission_limits_surface_as_protocol_errors() {
    let engine = wire_engine_under_test();
    let (addr, server) = start_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        max_sessions: 2,
        max_sensors: 8,
        ..ServeConfig::default()
    });
    let mut client = ServeClient::connect(&addr, "limits").expect("connect");
    assert_eq!(client.limits(), (2, 8));
    client.create_session(1, spec(engine)).expect("create 1");
    client.create_session(2, spec(engine)).expect("create 2");
    match client.create_session(3, spec(engine)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, codes::ADMISSION),
        other => panic!("expected admission error, got {other:?}"),
    }
    match client.create_session(4, SessionSpec::new(9, W, S)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, codes::ADMISSION),
        other => panic!("expected sensor-limit error, got {other:?}"),
    }
    match client.create_session(5, SessionSpec::new(1, W, S)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, codes::BAD_SPEC),
        other => panic!("expected BAD_SPEC error, got {other:?}"),
    }
    client.close_session(2).expect("close");
    client.create_session(3, spec(engine)).expect("slot freed");
    // Pushing to a closed session is UNKNOWN_SESSION.
    match client.push_samples(2, 0, N_SENSORS as u32, vec![0.0; N_SENSORS]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, codes::UNKNOWN_SESSION),
        other => panic!("expected unknown-session error, got {other:?}"),
    }
    client.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// On-demand snapshots round-trip through the wire and land on disk.
#[test]
fn snapshot_on_demand_writes_a_restorable_file() {
    let engine = wire_engine_under_test();
    let dir = unique_dir("ondemand");
    let (addr, server) = start_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        spill_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let mut client = ServeClient::connect(&addr, "snap").expect("connect");
    client.create_session(42, spec(engine)).expect("create");
    let samples: Vec<f64> = (0..100).flat_map(|t| tick_row(42, t, N_SENSORS)).collect();
    client
        .push_samples(42, 0, N_SENSORS as u32, samples)
        .expect("push");
    let bytes = client.snapshot(42).expect("snapshot");
    assert!(bytes > 0);
    let path = dir.join("session-42.cadh");
    let bytes = std::fs::read(&path).expect("snapshot file exists");
    // The payload follows the one-line `cad-spill v1` header.
    let nl = bytes.iter().position(|&b| b == b'\n').expect("header line");
    let restored = cad_core::load_stream(&bytes[nl + 1..]).expect("restorable");
    assert_eq!(restored.samples_seen(), 100);
    client.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Specs that would satisfy naive finiteness checks but panic the
/// detector's asserting constructors (τ out of range, zero RC horizon)
/// must surface as `BAD_SPEC` — and the server must keep serving
/// afterwards, proving no shard worker or pump thread died.
#[test]
fn hostile_specs_are_refused_and_server_survives() {
    let engine = wire_engine_under_test();
    let (addr, server) = start_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    });
    let mut client = ServeClient::connect(&addr, "hostile").expect("connect");
    let hostile = |f: &dyn Fn(&mut SessionSpec)| {
        let mut s = spec(engine);
        f(&mut s);
        s
    };
    for bad in [
        hostile(&|s| s.tau = 1.5),
        hostile(&|s| s.tau = -0.25),
        hostile(&|s| s.tau = f64::INFINITY),
        hostile(&|s| s.rc_horizon = Some(0)),
    ] {
        match client.create_session(99, bad) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, codes::BAD_SPEC),
            other => panic!("expected BAD_SPEC, got {other:?}"),
        }
    }
    // The pump must still be alive: a well-formed session works end to
    // end on the same connection.
    client.create_session(1, spec(engine)).expect("create");
    let samples: Vec<f64> = (0..100).flat_map(|t| tick_row(1, t, N_SENSORS)).collect();
    let res = client
        .push_samples(1, 0, N_SENSORS as u32, samples)
        .expect("push after refusals");
    assert!(!res.outcomes.is_empty());
    client.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// A client that pauses longer than the server's read timeout mid-frame
/// must not desync the stream: the partial bytes are kept and the frame
/// completes normally once the peer resumes.
#[test]
fn mid_frame_pause_does_not_desync_the_connection() {
    use cad_serve::protocol::{encode_frame, read_frame, write_frame, Frame};
    use std::io::Write;
    let read_timeout = Duration::from_millis(100);
    let (addr, server) = start_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        read_timeout,
        ..ServeConfig::default()
    });
    let engine = wire_engine_under_test();
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    write_frame(
        &stream,
        &Frame::Hello {
            client: "pause".into(),
        },
    )
    .expect("hello");
    assert!(matches!(
        read_frame(&stream).expect("hello ack"),
        Frame::HelloAck { .. }
    ));
    write_frame(
        &stream,
        &Frame::CreateSession {
            session_id: 1,
            spec: spec(engine),
        },
    )
    .expect("create");
    assert!(matches!(
        read_frame(&stream).expect("session ack"),
        Frame::SessionAck { .. }
    ));
    let ticks = W as usize + S as usize;
    let push = Frame::PushSamples {
        session_id: 1,
        base_tick: 0,
        n_sensors: N_SENSORS as u32,
        samples: (0..ticks).flat_map(|t| tick_row(1, t, N_SENSORS)).collect(),
    };
    let bytes = encode_frame(&push);
    // Stall twice per frame — inside the header and inside the payload —
    // each pause several read-timeouts long.
    for split in [5usize, 40] {
        stream.write_all(&bytes[..split]).expect("first half");
        stream.flush().expect("flush");
        std::thread::sleep(read_timeout * 4);
        stream.write_all(&bytes[split..]).expect("second half");
        stream.flush().expect("flush");
        match read_frame(&stream).expect("push ack after pause") {
            Frame::PushAck { outcomes, .. } => {
                assert_eq!(as_tuples(&outcomes), reference_outcomes(1, ticks, engine));
            }
            Frame::Error { code, message } => panic!("server error {code}: {message}"),
            other => panic!("unexpected reply {other:?}"),
        }
        // Reset the session so the next split pushes from tick 0 again.
        write_frame(&stream, &Frame::CloseSession { session_id: 1 }).expect("close");
        assert!(matches!(
            read_frame(&stream).expect("close ack"),
            Frame::CloseAck { .. }
        ));
        write_frame(
            &stream,
            &Frame::CreateSession {
                session_id: 1,
                spec: spec(engine),
            },
        )
        .expect("recreate");
        assert!(matches!(
            read_frame(&stream).expect("session ack"),
            Frame::SessionAck { .. }
        ));
    }
    write_frame(&stream, &Frame::Shutdown).expect("shutdown");
    assert!(matches!(
        read_frame(&stream).expect("shutdown ack"),
        Frame::ShutdownAck { .. }
    ));
    server.join().expect("server thread").expect("server run");
}

/// A connection that streams frames back to back never idles into the
/// read-timeout path; graceful shutdown must still interrupt it after
/// its current frame instead of stalling until the client gives up.
#[test]
fn busy_connection_cannot_stall_shutdown() {
    let engine = wire_engine_under_test();
    let (addr, server) = start_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    });
    let pusher = {
        let addr = addr.clone();
        std::thread::spawn(move || -> u16 {
            let mut client = ServeClient::connect(&addr, "busy").expect("connect");
            client.create_session(7, spec(engine)).expect("create");
            let mut t = 0usize;
            loop {
                let len = S as usize;
                let samples: Vec<f64> = (t..t + len)
                    .flat_map(|u| tick_row(7, u, N_SENSORS))
                    .collect();
                match client.push_samples(7, t as u64, N_SENSORS as u32, samples) {
                    Ok(_) => t += len,
                    Err(ClientError::Server { code, .. }) => return code,
                    Err(other) => panic!("unexpected failure: {other:?}"),
                }
            }
        })
    };
    // Let the pusher saturate its connection, then ask for shutdown from
    // another one. The joins below would hang (and time the test out) if
    // a busy handler could stall teardown.
    std::thread::sleep(Duration::from_millis(300));
    let mut admin = ServeClient::connect(&addr, "stopper").expect("connect");
    admin.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("server run");
    assert_eq!(pusher.join().expect("pusher"), codes::SHUTTING_DOWN);
}

/// A legal `PushSamples` whose worst-case reply could not fit in a frame
/// is refused up front with `BAD_PUSH`, not answered with an ack the
/// client would have to reject as oversized.
#[test]
fn oversized_push_batches_are_refused_before_processing() {
    use cad_serve::max_push_ticks;
    let (addr, server) = start_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    });
    let mut client = ServeClient::connect(&addr, "oversize").expect("connect");
    let n = 2u32;
    let ticks = max_push_ticks(n) + 1;
    // The request itself is legal (~6.5 MiB payload, under MAX_PAYLOAD);
    // size screening happens before session routing, so no session is
    // needed and nothing is processed.
    match client.push_samples(1, 0, n, vec![0.0; ticks * n as usize]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, codes::BAD_PUSH),
        other => panic!("expected BAD_PUSH, got {other:?}"),
    }
    client.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// Connections over the configured cap are refused with an explicit
/// `ADMISSION` error frame instead of an unbounded handler pile-up.
#[test]
fn connection_cap_refuses_extra_connections() {
    let (addr, server) = start_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        max_connections: 1,
        ..ServeConfig::default()
    });
    let mut first = ServeClient::connect(&addr, "first").expect("connect");
    match ServeClient::connect(&addr, "second") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, codes::ADMISSION),
        Err(other) => panic!("expected ADMISSION refusal, got {other:?}"),
        Ok(_) => panic!("second connection should have been refused"),
    }
    first.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// Like [`start_server`], but with the HTTP ops plane enabled on an
/// ephemeral port; returns `(native_addr, ops_addr, handle)`.
fn start_server_with_ops(
    mut cfg: ServeConfig,
) -> (
    String,
    String,
    std::thread::JoinHandle<std::io::Result<usize>>,
) {
    cfg.ops_addr = Some("127.0.0.1:0".into());
    let server = CadServer::bind(cfg).expect("bind");
    let addr = server.local_addr().expect("local_addr").to_string();
    let ops = server.local_ops_addr().expect("ops bound").to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, ops, handle)
}

/// Minimal HTTP GET over a fresh connection; returns `(status, body)`.
fn http_get(ops_addr: &str, path: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(ops_addr).expect("ops connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: cad\r\n\r\n").as_bytes())
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

/// Acceptance: in a quiesced state, `GET /metrics` must return the exact
/// bytes `render_text()` produces for the CADM snapshot fetched over the
/// native protocol — one registry, two transports, zero drift.
#[test]
fn http_metrics_scrape_matches_native_snapshot_byte_for_byte() {
    let engine = wire_engine_under_test();
    let (addr, ops, server) = start_server_with_ops(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    });
    let mut client = ServeClient::connect(&addr, "parity").expect("connect");
    client.create_session(5, spec(engine)).expect("create");
    let samples: Vec<f64> = (0..200).flat_map(|t| tick_row(5, t, N_SENSORS)).collect();
    client
        .push_samples(5, 0, N_SENSORS as u32, samples)
        .expect("push");

    // The push ack means the pump finished the batch and neither fetch
    // below records anything itself — but the registry is process-global,
    // so sibling tests running in this binary can record between the two
    // captures. Retry until a native/HTTP pair lands on a quiescent
    // registry; a genuine transport-level divergence never converges.
    let mut last = None;
    for _ in 0..100 {
        let native = cad_obs::MetricsSnapshot::decode(&client.metrics_raw().expect("metrics_raw"))
            .expect("decode")
            .render_text();
        let (status, scraped) = http_get(&ops, "/metrics");
        assert_eq!(status, 200);
        if scraped == native {
            last = None;
            break;
        }
        last = Some((scraped, native));
        std::thread::sleep(Duration::from_millis(100));
    }
    if let Some((scraped, native)) = last {
        assert_eq!(
            scraped, native,
            "HTTP /metrics body diverged from the native snapshot's render_text()"
        );
    }

    client.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// Acceptance: `/explain/<id>` returns the per-round forensics journal,
/// its records agree with the `RoundOutcome`s the client observed, and
/// the journal is bit-identical across both engines.
#[test]
fn explain_matches_outcomes_and_is_engine_independent() {
    let run = |engine: WireEngine| -> (Vec<cad_serve::WireRoundRecord>, String) {
        let (addr, ops, server) = start_server_with_ops(ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        });
        let mut client = ServeClient::connect(&addr, "explain").expect("connect");
        client.create_session(9, spec(engine)).expect("create");
        let ticks = 400usize;
        let samples: Vec<f64> = (0..ticks).flat_map(|t| tick_row(9, t, N_SENSORS)).collect();
        let outcomes = client
            .push_samples(9, 0, N_SENSORS as u32, samples)
            .expect("push")
            .outcomes;
        assert!(!outcomes.is_empty());

        // Native protocol: the journal must mirror the acked outcomes
        // one-to-one (same rounds, same n_r, same verdicts, same outlier
        // sensors) and add the μ/σ/η·σ evidence behind each verdict.
        let records = client.explain(9).expect("explain");
        assert_eq!(records.len(), outcomes.len());
        for (i, (r, o)) in records.iter().zip(&outcomes).enumerate() {
            assert_eq!(r.round, i as u64);
            assert_eq!(r.n_r, o.n_r, "round {i}");
            assert_eq!(r.abnormal, o.abnormal, "round {i}");
            assert_eq!(r.outlier_sensors, o.outliers, "round {i}");
            if r.sigma_pre() > 0.0 {
                assert_eq!(
                    r.abnormal,
                    (r.n_r as f64 - r.mu_pre()).abs() >= r.eta_sigma(),
                    "round {i}: recorded verdict disagrees with recorded evidence"
                );
            }
        }

        // HTTP plane: same source of truth, rendered as JSON.
        let (status, body) = http_get(&ops, "/explain/9");
        assert_eq!(status, 200);
        assert_eq!(body.matches("\"round\":").count(), records.len(), "{body}");
        for r in &records {
            assert!(
                body.contains(&format!("\"round\":{},\"n_r\":{}", r.round, r.n_r)),
                "record {} missing from HTTP body",
                r.round
            );
        }

        client.shutdown_server().expect("shutdown");
        server.join().expect("server thread").expect("server run");
        (records, body)
    };

    let (exact, exact_body) = run(WireEngine::Exact);
    let (incr, incr_body) = run(WireEngine::Incremental { rebuild_every: 16 });
    // WireRoundRecord carries μ/σ/η·σ as raw IEEE-754 bits, so equality
    // here is bit-equality of the whole journal.
    assert_eq!(exact, incr, "forensics journal depends on the engine");
    assert_eq!(exact_body, incr_body);
}

/// Acceptance: the ops plane stays responsive while the data plane is
/// saturated — `/healthz` (and `/readyz`, `/metrics`) answer 200 while
/// pushers are parked in backpressure on a tiny ingress queue.
#[test]
fn healthz_answers_while_ingress_queues_are_saturated() {
    let engine = wire_engine_under_test();
    let (addr, ops, server) = start_server_with_ops(ServeConfig {
        addr: "127.0.0.1:0".into(),
        // One shard, so both pushers contend for one ingress queue.
        shards: 1,
        queue_capacity: S as usize, // one round per admission — saturates
        ..ServeConfig::default()
    });
    let mut pushers = Vec::new();
    for id in [61u64, 62] {
        let addr = addr.clone();
        pushers.push(std::thread::spawn(move || -> u16 {
            let mut client = ServeClient::connect(&addr, "sat").expect("connect");
            client.create_session(id, spec(engine)).expect("create");
            let mut t = 0usize;
            loop {
                let len = S as usize * 2;
                let samples: Vec<f64> = (t..t + len)
                    .flat_map(|u| tick_row(id, u, N_SENSORS))
                    .collect();
                match client.push_samples(id, t as u64, N_SENSORS as u32, samples) {
                    Ok(_) => t += len,
                    Err(ClientError::Server { code, .. }) => return code,
                    Err(other) => panic!("unexpected failure: {other:?}"),
                }
            }
        }));
    }
    // Wait until pushers are genuinely parked on admission.
    let mut admin = ServeClient::connect(&addr, "sat-admin").expect("connect");
    wait_for_backpressure(&mut admin, 3);
    // The scrape endpoints never touch the ingress queue, so saturation
    // must not slow them down, let alone block them.
    for _ in 0..3 {
        let (status, body) = http_get(&ops, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(body, "ok\n");
        assert_eq!(http_get(&ops, "/readyz").0, 200);
        assert_eq!(http_get(&ops, "/metrics").0, 200);
    }
    // A pusher only sees a second Backpressure frame after its first
    // throttled push was admitted, so three events imply at least one
    // recorded admission wait.
    let (_, metrics) = http_get(&ops, "/metrics");
    let waits: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("serve_backpressure_wait_nanos_count "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no backpressure wait histogram in /metrics:\n{metrics}"));
    assert!(
        waits > 0,
        "throttled pushes were admitted but no wait was recorded"
    );
    let (status, tracez) = http_get(&ops, "/tracez");
    assert_eq!(status, 200);
    assert!(tracez.contains("\"events\":"), "{tracez}");
    admin.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("server run");
    for pusher in pushers {
        assert_eq!(pusher.join().expect("pusher"), codes::SHUTTING_DOWN);
    }
}

/// The `/sessions` table reflects live per-shard state over HTTP.
#[test]
fn sessions_endpoint_lists_live_sessions() {
    let engine = wire_engine_under_test();
    let (addr, ops, server) = start_server_with_ops(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    });
    let mut client = ServeClient::connect(&addr, "table").expect("connect");
    for id in [1u64, 2, 3] {
        client.create_session(id, spec(engine)).expect("create");
    }
    let samples: Vec<f64> = (0..100).flat_map(|t| tick_row(2, t, N_SENSORS)).collect();
    client
        .push_samples(2, 0, N_SENSORS as u32, samples)
        .expect("push");
    let (status, body) = http_get(&ops, "/sessions");
    assert_eq!(status, 200);
    for id in [1u64, 2, 3] {
        assert!(body.contains(&format!("\"session_id\":{id}")), "{body}");
    }
    assert!(body.contains("\"samples_seen\":100"), "{body}");
    assert!(body.contains("\"resumed\":false"), "{body}");
    client.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// Poll `/sessions` until the predicate matches the body (or panic after
/// ~10s). Hibernation is driven by the pump's idle sweeps, so state
/// transitions are asynchronous to any client action.
fn wait_for_sessions_body(ops: &str, what: &str, pred: impl Fn(&str) -> bool) -> String {
    for _ in 0..200 {
        let (status, body) = http_get(ops, "/sessions");
        assert_eq!(status, 200);
        if pred(&body) {
            return body;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("/sessions never showed {what}");
}

/// Acceptance: a session that hibernates to the spill tier and is
/// transparently resurrected by its next push produces an outcome stream
/// bit-identical to an always-resident run — under both engines
/// explicitly, plus whatever CI selected.
#[test]
fn hibernation_roundtrip_is_bit_identical_under_both_engines() {
    for engine in [
        WireEngine::Exact,
        WireEngine::Incremental { rebuild_every: 16 },
    ] {
        hibernate_one(engine);
    }
    hibernate_one(wire_engine_under_test());
}

fn hibernate_one(engine: WireEngine) {
    let tag = match engine {
        WireEngine::Exact => "hib-exact",
        WireEngine::Incremental { .. } => "hib-incr",
    };
    let dir = unique_dir(tag);
    let ticks = 300usize;
    // Not round-aligned: the spill must round-trip a partially filled ring.
    let split = 151usize;
    let (addr, ops, server) = start_server_with_ops(ServeConfig {
        addr: "127.0.0.1:0".into(),
        hibernate_after_rounds: 2,
        spill_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let mut client = ServeClient::connect(&addr, "hib").expect("connect");
    client.create_session(70, spec(engine)).expect("create");
    let samples: Vec<f64> = (0..split)
        .flat_map(|t| tick_row(70, t, N_SENSORS))
        .collect();
    let mut outs = client
        .push_samples(70, 0, N_SENSORS as u32, samples)
        .expect("push first half")
        .outcomes;

    // Idle pump sweeps (~100ms apiece) tick the hibernation clock; the
    // session must spill without any further client action.
    wait_for_sessions_body(&ops, "session 70 hibernated", |b| {
        b.contains("\"session_id\":70") && b.contains("\"state\":\"hibernated\"")
    });
    assert!(
        dir.join("session-70.cadh").exists(),
        "hibernated session left no spill file"
    );

    // The next push transparently resurrects — no client-visible seam.
    let samples: Vec<f64> = (split..ticks)
        .flat_map(|t| tick_row(70, t, N_SENSORS))
        .collect();
    outs.extend(
        client
            .push_samples(70, split as u64, N_SENSORS as u32, samples)
            .expect("push after hibernate")
            .outcomes,
    );
    assert_eq!(
        as_tuples(&outs),
        reference_outcomes(70, ticks, engine),
        "hibernate→resurrect stream ({tag}) diverged from the \
         always-resident reference"
    );
    // And the table reflects the round trip: active again, with the
    // last-push round advanced past the resurrection.
    let body = wait_for_sessions_body(&ops, "session 70 active again", |b| {
        b.contains("\"session_id\":70") && b.contains("\"state\":\"active\"")
    });
    assert!(body.contains("\"last_push_round\":"), "{body}");

    client.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill the daemon while sessions sit in the hibernation tier, restart
/// over the same spill directory: the restart scan must register the
/// spills, `CreateSession` re-attaches (`resumed`, correct progress), and
/// the finished stream is bit-identical to an uninterrupted run.
#[test]
fn restart_scans_spill_dir_and_resumes_hibernated_sessions() {
    let engine = wire_engine_under_test();
    let dir = unique_dir("hib-restart");
    let ticks = 300usize;
    let split = 151usize;
    let cfg = || ServeConfig {
        addr: "127.0.0.1:0".into(),
        hibernate_after_rounds: 2,
        spill_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    // Phase 1: feed, hibernate, shut down with the session still spilled.
    let (addr, ops, server) = start_server_with_ops(cfg());
    let mut first_half = {
        let mut client = ServeClient::connect(&addr, "hib-1").expect("connect");
        client.create_session(80, spec(engine)).expect("create");
        let samples: Vec<f64> = (0..split)
            .flat_map(|t| tick_row(80, t, N_SENSORS))
            .collect();
        let outs = client
            .push_samples(80, 0, N_SENSORS as u32, samples)
            .expect("push")
            .outcomes;
        wait_for_sessions_body(&ops, "session 80 hibernated", |b| {
            b.contains("\"state\":\"hibernated\"")
        });
        client.shutdown_server().expect("shutdown");
        outs
    };
    server.join().expect("server thread").expect("server run");
    assert!(
        dir.join("session-80.cadh").exists(),
        "shutdown must leave the hibernated session's spill in place"
    );

    // Phase 2: fresh daemon, same spill dir. The scan registers the
    // spill; re-attach resumes exactly where the client left off.
    let (addr, ops, server) = start_server_with_ops(cfg());
    {
        // Registered from the header alone: recovered, with counters that
        // start over in this process.
        let body = wait_for_sessions_body(&ops, "session 80 registered", |b| {
            b.contains("\"session_id\":80")
        });
        assert!(body.contains("\"resumed\":true"), "{body}");
        assert!(body.contains("\"rounds\":0"), "{body}");
        let mut client = ServeClient::connect(&addr, "hib-2").expect("connect");
        let h = client.create_session(80, spec(engine)).expect("re-attach");
        assert!(h.resumed, "session 80 should resume from its spill");
        assert_eq!(h.samples_seen as usize, split);
        let samples: Vec<f64> = (split..ticks)
            .flat_map(|t| tick_row(80, t, N_SENSORS))
            .collect();
        first_half.extend(
            client
                .push_samples(80, split as u64, N_SENSORS as u32, samples)
                .expect("push rest")
                .outcomes,
        );
        assert_eq!(
            as_tuples(&first_half),
            reference_outcomes(80, ticks, engine),
            "stream spliced across a restart of the hibernation tier \
             diverged from the uninterrupted reference"
        );
        client.shutdown_server().expect("shutdown");
    }
    server.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted spill file must surface as a `RESURRECT_FAILED` error
/// frame — never a panic — and the server must keep serving: the broken
/// session is dropped, new sessions work, other traffic is unaffected.
#[test]
fn corrupted_spill_surfaces_resurrect_failed_not_panic() {
    let engine = wire_engine_under_test();
    let dir = unique_dir("hib-corrupt");
    let (addr, ops, server) = start_server_with_ops(ServeConfig {
        addr: "127.0.0.1:0".into(),
        hibernate_after_rounds: 2,
        spill_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let mut client = ServeClient::connect(&addr, "corrupt").expect("connect");
    client.create_session(85, spec(engine)).expect("create");
    let samples: Vec<f64> = (0..100).flat_map(|t| tick_row(85, t, N_SENSORS)).collect();
    client
        .push_samples(85, 0, N_SENSORS as u32, samples)
        .expect("push");
    wait_for_sessions_body(&ops, "session 85 hibernated", |b| {
        b.contains("\"state\":\"hibernated\"")
    });

    // Flip a payload byte: the header still parses, the checksum doesn't.
    let path = dir.join("session-85.cadh");
    let mut bytes = std::fs::read(&path).expect("read spill");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("corrupt spill");

    match client.push_samples(85, 100, N_SENSORS as u32, vec![0.0; N_SENSORS]) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, codes::RESURRECT_FAILED);
            assert!(message.contains("resurrect failed"), "{message}");
        }
        other => panic!("expected RESURRECT_FAILED, got {other:?}"),
    }
    // The unusable session is gone — subsequent pushes are UNKNOWN_SESSION,
    // not repeated resurrection attempts against a deleted spill.
    match client.push_samples(85, 100, N_SENSORS as u32, vec![0.0; N_SENSORS]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, codes::UNKNOWN_SESSION),
        other => panic!("expected UNKNOWN_SESSION, got {other:?}"),
    }
    // And the server is still healthy: a fresh session runs end to end on
    // the same connection.
    client
        .create_session(86, spec(engine))
        .expect("create after corruption");
    let ticks = 120usize;
    let samples: Vec<f64> = (0..ticks)
        .flat_map(|t| tick_row(86, t, N_SENSORS))
        .collect();
    let outs = client
        .push_samples(86, 0, N_SENSORS as u32, samples)
        .expect("push after corruption")
        .outcomes;
    assert_eq!(as_tuples(&outs), reference_outcomes(86, ticks, engine));
    client.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A session file whose header does not parse can never be loaded, so
/// startup refuses it outright — `InvalidData`, naming the file — rather
/// than silently serving without that session.
#[test]
fn garbage_session_file_header_fails_startup_naming_the_file() {
    let dir = unique_dir("bad-header");
    std::fs::create_dir_all(&dir).expect("state dir");
    let path = dir.join("session-7.cadh");
    std::fs::write(&path, b"definitely not a session file\npayload\n").expect("write");
    let err = match CadServer::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        spill_dir: Some(dir.clone()),
        ..ServeConfig::default()
    }) {
        Ok(_) => panic!("bind accepted a session file with a garbage header"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(
        err.to_string().contains(&path.display().to_string()),
        "error does not name the file: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Wedged connections must not wedge the server: one peer stalls
/// mid-frame indefinitely and another drips its handshake a byte at a
/// time (slow loris) while a third pushes a full workload. Under the
/// readiness-driven I/O plane the stalled peers simply stop producing
/// events — they cannot pin an I/O worker, so the busy session makes
/// full-speed progress and both laggards still complete once they
/// finally deliver their bytes.
#[test]
fn stalled_and_slow_loris_peers_do_not_stall_other_sessions() {
    use cad_serve::protocol::{encode_frame, read_frame, write_frame, Frame};
    use std::io::Write;
    let engine = wire_engine_under_test();
    let (addr, server) = start_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        read_timeout: Duration::from_millis(100),
        ..ServeConfig::default()
    });

    // Peer 1: handshake, create a session, then send only the first 5
    // bytes of a push frame and go silent.
    let mut stalled = std::net::TcpStream::connect(&addr).expect("connect");
    stalled
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    write_frame(
        &stalled,
        &Frame::Hello {
            client: "stalled".into(),
        },
    )
    .expect("hello");
    assert!(matches!(
        read_frame(&stalled).expect("hello ack"),
        Frame::HelloAck { .. }
    ));
    write_frame(
        &stalled,
        &Frame::CreateSession {
            session_id: 90,
            spec: spec(engine),
        },
    )
    .expect("create");
    assert!(matches!(
        read_frame(&stalled).expect("session ack"),
        Frame::SessionAck { .. }
    ));
    let stall_ticks = W as usize + S as usize;
    let push = Frame::PushSamples {
        session_id: 90,
        base_tick: 0,
        n_sensors: N_SENSORS as u32,
        samples: (0..stall_ticks)
            .flat_map(|t| tick_row(90, t, N_SENSORS))
            .collect(),
    };
    let push_bytes = encode_frame(&push);
    stalled.write_all(&push_bytes[..5]).expect("stall prefix");
    stalled.flush().expect("flush");

    // Peer 2: a slow loris dripping its Hello one byte every 20ms from a
    // background thread — alive the whole time the busy session runs.
    let loris = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            let hello = encode_frame(&Frame::Hello {
                client: "loris".into(),
            });
            for b in hello {
                stream.write_all(&[b]).expect("drip");
                stream.flush().expect("flush");
                std::thread::sleep(Duration::from_millis(20));
            }
            assert!(matches!(
                read_frame(&stream).expect("loris hello ack"),
                Frame::HelloAck { .. }
            ));
        })
    };

    // Peer 3: a normal client pushes a real workload while both laggards
    // are wedged. If a stalled peer could pin an I/O worker (let alone
    // the pump), this would crawl or hang outright.
    let busy_t0 = std::time::Instant::now();
    let mut client = ServeClient::connect(&addr, "busy").expect("connect");
    client.create_session(91, spec(engine)).expect("create");
    let ticks = 400usize;
    let mut outs = Vec::new();
    let mut t = 0usize;
    while t < ticks {
        let len = (S as usize * 3).min(ticks - t);
        let samples: Vec<f64> = (t..t + len)
            .flat_map(|u| tick_row(91, u, N_SENSORS))
            .collect();
        outs.extend(
            client
                .push_samples(91, t as u64, N_SENSORS as u32, samples)
                .expect("busy push")
                .outcomes,
        );
        t += len;
    }
    assert_eq!(as_tuples(&outs), reference_outcomes(91, ticks, engine));
    assert!(
        busy_t0.elapsed() < Duration::from_secs(20),
        "busy session took {:?} alongside two wedged peers",
        busy_t0.elapsed()
    );

    // The mid-frame stall was never dropped: completing the frame now
    // must yield a normal, bit-identical ack.
    stalled.write_all(&push_bytes[5..]).expect("stall rest");
    stalled.flush().expect("flush");
    match read_frame(&stalled).expect("push ack after stall") {
        Frame::PushAck { outcomes, .. } => {
            assert_eq!(
                as_tuples(&outcomes),
                reference_outcomes(90, stall_ticks, engine)
            );
        }
        other => panic!("unexpected reply {other:?}"),
    }
    loris.join().expect("loris thread");

    let mut admin = ServeClient::connect(&addr, "wedge-admin").expect("connect");
    admin.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// Handshake discipline: a frame before `Hello` is refused.
#[test]
fn server_requires_hello_first() {
    use cad_serve::protocol::{read_frame, write_frame, Frame};
    let (addr, server) = start_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    });
    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    write_frame(&stream, &Frame::StatsRequest { session_id: None }).expect("write");
    match read_frame(&stream).expect("reply") {
        Frame::Error { code, .. } => assert_eq!(code, codes::BAD_REQUEST),
        other => panic!("expected Error, got {other:?}"),
    }
    drop(stream);
    let mut admin = ServeClient::connect(&addr, "hello").expect("connect");
    admin.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}
