//! End-to-end incident drill: a WAL fsync stall must be *attributed* by
//! `/slowz`, *early-warned* by `/selfwatch`, and *replayable* from
//! `/flightz` — the observability tentpole exercised as one story.
//!
//! The drill: a server runs with the WAL, the flight recorder and
//! self-watch all on. A client establishes a steady push baseline, then
//! the test trips the `CAD_WAL_TEST_STALL_FILE` fault injector so every
//! WAL append sleeps. The assertions:
//!
//! 1. `/slowz` pins the slowdown on the `wal_append` stage (not just
//!    "pushes got slow" — the breakdown names the stage).
//! 2. `/selfwatch` flips abnormal with a WAL metric among the named
//!    outliers, while the *cumulative* client-side push p99 still reads
//!    pre-incident — the correlation detector beats the threshold metric.
//! 3. `/flightz/dump` over the incident window is byte-identical across
//!    two queries and decodes standalone.
//!
//! A second server without the recorder checks the off switch: the new
//! endpoints 404 and serving is unaffected.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cad_obs::FlightConfig;
use cad_serve::{CadServer, SelfWatchConfig, ServeClient, ServeConfig, SessionSpec};

const N: u32 = 6;

fn spec() -> SessionSpec {
    let mut spec = SessionSpec::new(N, 32, 8);
    spec.k = 2;
    spec
}

fn row(t: usize) -> Vec<f64> {
    (0..N as usize)
        .map(|s| (t as f64 * 0.19 + s as f64 * 0.37).sin() + 0.03 * s as f64)
        .collect()
}

/// Minimal HTTP GET against the ops plane: returns (status, body bytes).
fn http_get(addr: &str, target: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("ops connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: cad\r\n\r\n").as_bytes())
        .expect("request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("response");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head");
    let head = String::from_utf8_lossy(&raw[..head_end]).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, raw[head_end + 4..].to_vec())
}

fn get_text(addr: &str, target: &str) -> (u16, String) {
    let (status, body) = http_get(addr, target);
    (status, String::from_utf8_lossy(&body).into_owned())
}

/// Pull `"key":value` (a bare JSON number) out of a flat JSON body.
fn json_u64(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat).unwrap_or_else(|| panic!("{key} in {body}"));
    body[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not a number in {body}"))
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cad-selfwatch-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

#[test]
fn wal_stall_is_attributed_selfwatched_and_replayable() {
    let dir = unique_dir("drill");
    let stall_file = dir.join("stall");
    // The fault injector caches its env on first WAL append; set it
    // before the server sees any traffic. The stall arms only when the
    // file exists.
    // Base 5ms: the injector stalls every fourth append for 60/80ms
    // and leaves the rest untouched — intermittent spikes like a real
    // disk brown-out, which is what decorrelates the WAL latency
    // metrics from load for self-watch.
    std::env::set_var("CAD_WAL_TEST_STALL_FILE", &stall_file);
    std::env::set_var("CAD_WAL_TEST_STALL_MS", "5");

    let server = CadServer::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ops_addr: Some("127.0.0.1:0".into()),
        shards: 2,
        wal_dir: Some(dir.join("wal")),
        flight: Some(FlightConfig {
            cadence: Duration::from_millis(25),
            ring: 2048,
            keyframe_every: 16,
            spool: None,
        }),
        selfwatch: Some(SelfWatchConfig {
            // 64-sample windows: a short Pearson estimate flickers by
            // ±0.2, and the stalled WAL pair only splits once its
            // correlation with the *best-looking* of ~20 load metrics
            // drops below tau — the max over that many noisy estimates
            // sits ~2σ above the true value, so the noise has to be
            // small for the break to land (and hold) quickly.
            w: 64,
            // Stride 1: a detection round every flight frame. The WAL
            // stall has to be *named* within a couple of hundred pushes
            // for assertion 2, and the round rate bounds how fast the
            // windowed RC can decay.
            s: 1,
            // Chebyshev multiplier 1.5: the drill wants the *first*
            // regime-change spike flagged, and the p99 budget of
            // assertion 2 punishes a missed spike (a later one can be
            // seconds away) far more than a spurious baseline verdict,
            // which the incident-era seq guard below already ignores.
            eta: 1.5,
            // Five metrics *contain* the WAL append time (the
            // wal_append stage + histogram, the serve.shard and
            // serve.pump phases, and push latency), so during the stall
            // they splinter together as a 5-peer cluster with RC = 5/35
            // ≈ 0.143; in healthy operation the dispatch stage rides
            // with them, making a 6-peer cluster at 6/35 ≈ 0.171. Theta
            // sits between the two: the stall cluster counts as
            // outliers, the healthy one stays communal.
            theta: 0.15,
            // Healthy server metrics are near-deterministically
            // proportional (corr ≥ 0.95); the stalled WAL pair still
            // shares the pushes' on/off frame rhythm with the load
            // community (corr ~0.7-0.85), so only a strict tau actually
            // cuts those edges.
            tau: 0.9,
            horizon: 8,
            poll: Duration::from_millis(25),
        }),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let ops = server.local_ops_addr().expect("ops addr").to_string();
    let handle = std::thread::spawn(move || server.run());

    let mut client = ServeClient::connect(&addr, "selfwatch-drill").expect("connect");
    client.create_session(9, spec()).expect("create");

    // Baseline: bursty load on a ~75ms period, slower than the 25ms
    // flight cadence, so per-frame metric deltas genuinely *vary* and
    // the load-correlated metrics (tick counters, stage latency sums,
    // WAL bytes/appends, ...) cluster into a stable community for the
    // embedded detector. The push count also matters for assertion 2:
    // with ~9000 baseline samples the cumulative p99 needs ~90 stalled
    // pushes to move, while self-watch sees the regime change within a
    // second or two of 25ms rounds.
    let mut durations_ns: Vec<u64> = Vec::new();
    let mut t = 0usize;
    let mut push_burst = |t: &mut usize, durations: &mut Vec<u64>, count: usize| {
        for _ in 0..count {
            let batch: Vec<f64> = (*t..*t + 4).flat_map(row).collect();
            let started = Instant::now();
            client.push_samples(9, *t as u64, N, batch).expect("push");
            durations.push(started.elapsed().as_nanos() as u64);
            *t += 4;
        }
    };
    let settle_deadline = Instant::now() + Duration::from_secs(60);
    let baseline_rounds = loop {
        push_burst(&mut t, &mut durations_ns, 25);
        std::thread::sleep(Duration::from_millis(50));
        if durations_ns.len() >= 9000 {
            let (status, body) = get_text(&ops, "/selfwatch");
            assert_eq!(status, 200, "{body}");
            let rounds = json_u64(&body, "rounds");
            if rounds >= 40 {
                break rounds;
            }
            assert!(
                Instant::now() < settle_deadline,
                "self-watch never settled: {body}"
            );
        }
    };

    // Incident: arm the WAL stall. Every append now eats the injector's
    // erratic delay inside the timed window.
    std::fs::write(&stall_file, b"stall").expect("arm stall");
    let incident_frame = {
        let (_, body) = get_text(&ops, "/flightz?last=1");
        json_u64(&body, "frames_recorded")
    };

    let mut p99_at_flip_ns = None;
    let mut iter = 0u32;
    let flip_deadline = Instant::now() + Duration::from_secs(60);
    while p99_at_flip_ns.is_none() {
        assert!(
            Instant::now() < flip_deadline,
            "self-watch never flagged the WAL stall (baseline rounds {baseline_rounds})"
        );
        // Keep pushes flowing continuously (checking the ops plane only
        // every few bursts): with pushes in nearly every flight frame the
        // on/off load rhythm no longer correlates everything with
        // everything, and what remains is the broken WAL behaviour.
        push_burst(&mut t, &mut durations_ns, 1);
        iter += 1;
        if !iter.is_multiple_of(4) {
            continue;
        }
        let (status, body) = get_text(&ops, "/selfwatch");
        assert_eq!(status, 200, "{body}");
        if std::env::var_os("CAD_DRILL_DEBUG").is_some() {
            eprintln!("DRILL selfwatch incident={incident_frame}: {body}");
        }
        // An abnormal verdict from an incident-era frame, naming a WAL
        // latency metric among the outliers. "Incident-era" leaves a
        // 12-frame (~0.3s) guard after arming: by then roughly ten
        // stalled appends — including a double-digit one — are really
        // in the books, so a baseline flicker of the WAL pair landing
        // right at the arming instant can't fake the early warning
        // (and /slowz below genuinely has its tail exemplar).
        let flagged = body
            .split("{\"seq\":")
            .skip(1)
            .filter_map(|v| {
                let seq: u64 = v
                    .chars()
                    .take_while(|c| c.is_ascii_digit())
                    .collect::<String>()
                    .parse()
                    .ok()?;
                Some((seq, v))
            })
            .any(|(seq, v)| {
                seq >= incident_frame + 12
                    && v.contains("\"abnormal\":true")
                    && v.contains("wal_append")
            });
        if flagged {
            let mut sorted = durations_ns.clone();
            sorted.sort_unstable();
            let rank = ((0.99 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            p99_at_flip_ns = Some(sorted[rank - 1]);
        }
    }
    // Assertion 2: the cumulative p99 still reads pre-incident when the
    // correlation detector has already flagged and named WAL metrics —
    // the early warning arrived before the threshold metric moved.
    // "Breached" = 10ms, twice the injector's base stall; the cumulative
    // p99 only gets there after ~1% of all pushes have eaten a
    // double-digit stall, well after the flip.
    let breach_ns = 10 * 1_000_000u64;
    assert!(
        p99_at_flip_ns.unwrap() < breach_ns,
        "p99 had already breached ({}ns >= {breach_ns}ns) before self-watch flagged",
        p99_at_flip_ns.unwrap()
    );

    // Assertion 1: /slowz pins the incident on the wal_append stage.
    let (status, slowz) = get_text(&ops, "/slowz");
    assert_eq!(status, 200, "{slowz}");
    let top = slowz
        .split("\"slowest\":[")
        .nth(1)
        .expect("slowest array")
        .to_string();
    assert!(
        top.starts_with("{\"session_id\":9"),
        "slowest exemplar is not the drilled session: {slowz}"
    );
    assert!(
        top.contains("\"slowest_stage\":\"wal_append\""),
        "stall not attributed to wal_append: {slowz}"
    );
    let top_wal = json_u64(&top, "wal_nanos");
    assert!(
        top_wal >= 50 * 1_000_000,
        "wal_append stage missed the injected tail delay: {slowz}"
    );

    // Assertion 3: the incident window replays byte-identically, and the
    // dump decodes standalone.
    let to = {
        let (_, body) = get_text(&ops, "/flightz?last=1");
        json_u64(&body, "frames_recorded").saturating_sub(1)
    };
    let from = incident_frame.saturating_sub(8);
    let target = format!("/flightz/dump?from={from}&to={to}");
    let (s1, dump1) = http_get(&ops, &target);
    let (s2, dump2) = http_get(&ops, &target);
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(dump1, dump2, "incident dump is not byte-stable");
    let decoded = cad_obs::decode_stream(&dump1).expect("dump decodes");
    assert!(
        decoded.frames.iter().any(|f| f.seq >= incident_frame),
        "dump does not cover the incident window"
    );
    assert_eq!(decoded.truncated_bytes, 0);

    // Satellite surfaces while everything is live: /sessions rows carry
    // the warm-up quarantine columns, /wal the retention counters.
    let (_, sessions) = get_text(&ops, "/sessions");
    assert!(sessions.contains("\"quarantined_sensors\":"), "{sessions}");
    assert!(sessions.contains("\"warmup_rounds_left\":"), "{sessions}");
    let (_, wal) = get_text(&ops, "/wal");
    assert!(wal.contains("\"retain_bytes\":"), "{wal}");
    assert!(wal.contains("\"retention_segments\":"), "{wal}");

    // Disarm and shut down cleanly.
    std::fs::remove_file(&stall_file).expect("disarm stall");
    client.shutdown_server().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
    std::env::remove_var("CAD_WAL_TEST_STALL_FILE");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recorder_off_serves_404s_and_normal_pushes() {
    let server = CadServer::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ops_addr: Some("127.0.0.1:0".into()),
        shards: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let ops = server.local_ops_addr().expect("ops addr").to_string();
    let handle = std::thread::spawn(move || server.run());

    let mut client = ServeClient::connect(&addr, "recorder-off").expect("connect");
    client.create_session(1, spec()).expect("create");
    let batch: Vec<f64> = (0..40).flat_map(row).collect();
    let ack = client.push_samples(1, 0, N, batch).expect("push");
    assert!(!ack.outcomes.is_empty());

    // The observability endpoints degrade to explicit 404s; /slowz stays
    // up (the exemplar ring is process-global and costs nothing).
    assert_eq!(get_text(&ops, "/flightz").0, 404);
    assert_eq!(get_text(&ops, "/flightz/dump").0, 404);
    assert_eq!(get_text(&ops, "/selfwatch").0, 404);
    let (status, slowz) = get_text(&ops, "/slowz");
    assert_eq!(status, 200);
    assert!(slowz.contains("\"stages\":"), "{slowz}");

    client.shutdown_server().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}
