//! End-to-end checks for the `cad-obs` observability layer wired through
//! the detector core and the serving layer.
//!
//! Three properties:
//!
//! 1. **Structural parity across engines** — the same workload run under
//!    the exact and incremental engines must agree on every *structural*
//!    counter (rounds evaluated, threshold crossings, anomalies flagged)
//!    while the engine-internal counters (rebuilds) differ, proving the
//!    metrics measure the algorithm and not the engine.
//! 2. **Bit-reproducibility** — with a fixed input, the counter values
//!    and the drained trace-event stream are identical across runs. CI
//!    pins `CAD_RUNTIME_THREADS=1` and repeats this under both engines;
//!    the stream carries no timestamps, so equality is exact.
//! 3. **Wire losslessness** — a `CADM` dump fetched from a live server
//!    via `Metrics` frames decodes and re-encodes to the same bytes, and
//!    the decoded snapshot contains the serve-layer metrics.
//! 4. **A complete phase list** — every `Timer` site under `crates/` names
//!    a phase in `KNOWN_PHASES`, so bench JSON lists it from the first run.
//!
//! The obs registry and tracer are process-global, so every test body
//! serializes on [`OBS_LOCK`] and starts from `Registry::reset()` /
//! `Tracer::set_capacity()`.

use std::sync::Mutex;

use cad_core::{CadConfig, CadDetector, EngineChoice, StreamingCad};
use cad_datagen::{Dataset, GeneratorConfig};
use cad_obs::TracedEvent;

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Engine under test (`CAD_TEST_ENGINE=incremental` switches; CI runs
/// both), mirroring the determinism and serve e2e suites.
fn engine_under_test() -> EngineChoice {
    match std::env::var("CAD_TEST_ENGINE").as_deref() {
        Ok("incremental") => EngineChoice::Incremental { rebuild_every: 16 },
        _ => EngineChoice::Exact,
    }
}

/// A small synthetic deployment with injected anomalies, so the workload
/// exercises threshold crossings and anomaly verdicts, not just quiet
/// rounds.
fn dataset() -> Dataset {
    Dataset::generate(&GeneratorConfig::small("obs-integration", 24, 42))
}

/// Warm up on the history, stream the detection segment, return the
/// number of completed rounds. Same parameterisation as the
/// `full_pipeline` suite, which asserts this workload detects its
/// injected anomalies well above chance.
fn run_workload(engine: EngineChoice) -> usize {
    let data = dataset();
    let config = CadConfig::builder(24)
        .window(48, 8)
        .k(5)
        .tau(0.4)
        .theta(0.27)
        .rc_horizon(Some(10))
        .engine(engine)
        .build();
    let mut stream = StreamingCad::new(CadDetector::new(24, config));
    stream.warm_up(&data.his);
    let mut rounds = 0usize;
    for t in 0..data.test.len() {
        if stream.push_sample(&data.test.column(t)).is_some() {
            rounds += 1;
        }
    }
    rounds
}

fn counter_value(snap: &cad_obs::MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.value)
        .sum()
}

/// `(name, labels, value)` triples — the comparable slice of a snapshot.
type CounterStream = Vec<(String, Vec<(String, String)>, u64)>;

/// Counter readings only — gauges and histograms carry wall-clock
/// durations and are legitimately run-dependent.
fn counter_stream(snap: &cad_obs::MetricsSnapshot) -> CounterStream {
    snap.counters
        .iter()
        .map(|c| (c.name.clone(), c.labels.clone(), c.value))
        .collect()
}

#[test]
fn structural_counters_agree_across_engines_while_rebuilds_differ() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let registry = cad_obs::global();

    registry.reset();
    let rounds_exact = run_workload(EngineChoice::Exact);
    let exact = registry.snapshot();

    registry.reset();
    let rounds_incr = run_workload(EngineChoice::Incremental { rebuild_every: 16 });
    let incr = registry.snapshot();

    // The structural story is engine-independent.
    assert_eq!(rounds_exact, rounds_incr);
    assert!(rounds_exact > 0, "workload produced no rounds");
    for name in [
        "cad_rounds_total",
        "cad_threshold_crossings_total",
        "cad_round_anomalies_total",
    ] {
        assert_eq!(
            counter_value(&exact, name),
            counter_value(&incr, name),
            "{name} must not depend on the engine"
        );
    }
    assert_eq!(
        counter_value(&exact, "cad_rounds_total"),
        rounds_exact as u64
    );
    assert!(
        counter_value(&exact, "cad_threshold_crossings_total") > 0,
        "the injected anomalies should cross the threshold at least once"
    );
    assert!(
        counter_value(&exact, "cad_round_anomalies_total") > 0,
        "the injected anomalies should produce abnormal verdicts"
    );

    // The engine internals differ by construction: the exact engine
    // rebuilds every round (warm-up included), the incremental one mostly
    // slides.
    let rebuilds_exact = counter_value(&exact, "cad_engine_rebuilds_total");
    let rebuilds_incr = counter_value(&incr, "cad_engine_rebuilds_total");
    assert!(rebuilds_exact >= rounds_exact as u64);
    assert!(
        rebuilds_incr < rebuilds_exact,
        "incremental engine rebuilt {rebuilds_incr} times, expected fewer \
         than the exact engine's {rebuilds_exact}"
    );
    assert!(counter_value(&incr, "cad_engine_slides_total") > 0);
    assert_eq!(counter_value(&exact, "cad_engine_slides_total"), 0);
}

#[test]
fn counter_and_trace_streams_are_bit_reproducible() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let engine = engine_under_test();

    let run = |engine: EngineChoice| -> (CounterStream, Vec<TracedEvent>) {
        cad_obs::global().reset();
        cad_obs::tracer().set_capacity(16 * 1024);
        run_workload(engine);
        let counters = counter_stream(&cad_obs::global().snapshot());
        let events = cad_obs::tracer().take();
        (counters, events)
    };

    let (counters_a, events_a) = run(engine);
    let (counters_b, events_b) = run(engine);

    assert!(!counters_a.is_empty());
    assert_eq!(
        counters_a, counters_b,
        "counter stream diverged across runs"
    );
    assert!(
        events_a
            .iter()
            .any(|e| matches!(e.event, cad_obs::TraceEvent::RoundEvaluated { .. })),
        "tracing was enabled; round events must be present"
    );
    assert_eq!(events_a, events_b, "trace stream diverged across runs");
    // seq numbering restarted cleanly at the reset.
    assert_eq!(events_a[0].seq, 0);

    cad_obs::tracer().set_capacity(0);
}

/// Run the standard workload with the forensics journal enabled and
/// return the captured records (cloned out of the ring).
fn run_journaled_workload(engine: EngineChoice) -> Vec<cad_core::explain::RoundRecord> {
    let data = dataset();
    let config = CadConfig::builder(24)
        .window(48, 8)
        .k(5)
        .tau(0.4)
        .theta(0.27)
        .rc_horizon(Some(10))
        .engine(engine)
        .build();
    let mut stream = StreamingCad::new(CadDetector::new(24, config));
    stream.set_explain_capacity(4096);
    stream.warm_up(&data.his);
    for t in 0..data.test.len() {
        stream.push_sample(&data.test.column(t));
    }
    stream.detector().explain().records().cloned().collect()
}

#[test]
fn forensics_journal_is_bit_identical_across_engines() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    cad_obs::global().reset();

    let exact = run_journaled_workload(EngineChoice::Exact);
    let incr = run_journaled_workload(EngineChoice::Incremental { rebuild_every: 16 });

    assert!(!exact.is_empty(), "journal captured no rounds");
    // `RoundRecord` holds f64s compared via PartialEq, so equality here
    // is bit-equality of μ/σ/η·σ, not approximate agreement.
    assert_eq!(
        exact, incr,
        "forensics journal must not depend on the round engine"
    );
    // Sanity: the η·σ verdict recorded per round is self-consistent with
    // the recorded inputs once σ is established (Chebyshev rule).
    let mut verdicts = 0usize;
    for r in exact.iter().filter(|r| r.sigma_pre > 0.0) {
        let crossed = (r.n_r as f64 - r.mu_pre).abs() >= r.eta_sigma;
        assert_eq!(
            r.abnormal, crossed,
            "round {}: abnormal flag disagrees with |n_r − μ| vs η·σ",
            r.round
        );
        verdicts += 1;
    }
    assert!(verdicts > 0, "no rounds had established deviation");
}

#[test]
fn forensics_journal_is_bit_identical_across_thread_counts() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    cad_obs::global().reset();
    let engine = engine_under_test();

    let single = cad_runtime::with_thread_override(1, || run_journaled_workload(engine));
    let multi = cad_runtime::with_thread_override(4, || run_journaled_workload(engine));

    assert!(!single.is_empty());
    assert_eq!(
        single, multi,
        "forensics journal must not depend on CAD_RUNTIME_THREADS"
    );
}

#[test]
fn forensics_journal_survives_a_mid_stream_snapshot() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    cad_obs::global().reset();

    let data = dataset();
    let config = CadConfig::builder(24)
        .window(48, 8)
        .k(5)
        .tau(0.4)
        .theta(0.27)
        .rc_horizon(Some(10))
        .engine(engine_under_test())
        .build();

    // Reference: one uninterrupted run.
    let mut reference = StreamingCad::new(CadDetector::new(24, config.clone()));
    reference.set_explain_capacity(64);
    reference.warm_up(&data.his);
    for t in 0..data.test.len() {
        reference.push_sample(&data.test.column(t));
    }

    // Same run, save/load mid-stream at an un-aligned tick.
    let mut first = StreamingCad::new(CadDetector::new(24, config));
    first.set_explain_capacity(64);
    first.warm_up(&data.his);
    let split = data.test.len() / 2 + 3;
    for t in 0..split {
        first.push_sample(&data.test.column(t));
    }
    let mut blob = Vec::new();
    cad_core::save_stream(&first, &mut blob).expect("save");
    let mut second = cad_core::load_stream(&blob[..]).expect("load");
    for t in split..data.test.len() {
        second.push_sample(&data.test.column(t));
    }

    let direct: Vec<_> = reference.detector().explain().records().cloned().collect();
    let resumed: Vec<_> = second.detector().explain().records().cloned().collect();
    assert!(!direct.is_empty());
    assert_eq!(
        direct, resumed,
        "journal diverged across a save/load round-trip"
    );
    assert_eq!(
        reference.detector().explain().next_round(),
        second.detector().explain().next_round()
    );
}

#[test]
fn server_metrics_dump_round_trips_losslessly_over_the_wire() {
    use cad_serve::{CadServer, ServeClient, ServeConfig, SessionSpec};

    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    cad_obs::global().reset();

    let server = CadServer::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("local_addr").to_string();
    let server = std::thread::spawn(move || server.run());

    let mut client = ServeClient::connect(&addr, "obs-e2e").expect("connect");
    let n = 6u32;
    let mut spec = SessionSpec::new(n, 48, 8);
    spec.k = 2;
    client.create_session(77, spec).expect("create");
    let samples: Vec<f64> = (0..128)
        .flat_map(|t| {
            (0..n).map(move |s| (t as f64 * 0.17 + s as f64 * 0.23).sin() + 0.05 * s as f64)
        })
        .collect();
    client.push_samples(77, 0, n, samples).expect("push");

    // Raw dump → decode → re-encode must reproduce the exact bytes the
    // server sent (deterministic encoding of a sorted snapshot).
    let raw = client.metrics_raw().expect("metrics_raw");
    let decoded = cad_obs::MetricsSnapshot::decode(&raw).expect("decode");
    assert_eq!(decoded.encode(), raw, "CADM dump is not byte-stable");

    // The decoded snapshot reflects both the core and the serve layer.
    assert!(counter_value(&decoded, "cad_rounds_total") > 0);
    let push_hist = decoded
        .histograms
        .iter()
        .find(|h| h.name == "serve_push_latency_nanos")
        .expect("serve_push_latency_nanos registered");
    assert!(push_hist.count > 0);
    assert!(push_hist.quantile(0.99) >= push_hist.quantile(0.5));

    // The typed accessor agrees with the raw path.
    let snap = client.metrics().expect("metrics");
    assert_eq!(
        counter_value(&snap, "cad_rounds_total"),
        counter_value(&decoded, "cad_rounds_total")
    );

    client.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// Property 4: every `Timer::start("…")` literal under `crates/` is in
/// `KNOWN_PHASES`. Names under `test.` belong to unit tests and are exempt.
#[test]
fn every_timer_phase_is_a_known_phase() {
    fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    rust_files(
        &std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates"),
        &mut files,
    );
    const CALL: &str = "Timer::start(\"";
    let mut sites = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable source file");
        for (at, _) in text.match_indices(CALL) {
            let rest = &text[at + CALL.len()..];
            let name = &rest[..rest.find('"').expect("closing quote")];
            sites.push((name.to_string(), file.display().to_string()));
        }
    }
    assert!(
        sites.iter().any(|(name, _)| name == "graph.louvain"),
        "the scan found no Timer sites: {sites:?}"
    );
    for (name, file) in &sites {
        assert!(
            name.starts_with("test.") || cad_runtime::stats::KNOWN_PHASES.contains(&name.as_str()),
            "phase {name:?} timed in {file} is missing from KNOWN_PHASES"
        );
    }
}
