//! Determinism suite: the full CAD pipeline must produce bit-identical
//! round-outcome streams for every thread count.
//!
//! The `cad-runtime` contract (fixed chunk boundaries, index-ordered
//! results, pure workers) is verified at the unit level inside
//! `crates/runtime`; these tests verify it end-to-end — warm-up plus
//! streaming detection over a wide synthetic deployment, serial
//! (one pinned thread) versus heavily oversubscribed. The whole test
//! suite is additionally run under `CAD_RUNTIME_THREADS=1` in CI, which
//! exercises the env-var half of the thread-count plumbing.

use cad_core::{CadConfig, CadDetector, EngineChoice, RoundOutcome, StreamingCad};
use cad_datagen::{Dataset, GeneratorConfig};

/// Round engine under test: `CAD_TEST_ENGINE=incremental` switches the
/// whole suite onto the sliding-correlation path (CI runs it both ways);
/// anything else (or unset) keeps the exact oracle.
fn engine_under_test() -> EngineChoice {
    match std::env::var("CAD_TEST_ENGINE").as_deref() {
        Ok("incremental") => EngineChoice::incremental(),
        _ => EngineChoice::Exact,
    }
}

/// Warm up on the history, then stream the detection segment tick by
/// tick, collecting every completed round.
fn stream_pipeline(config: &CadConfig, data: &Dataset) -> Vec<RoundOutcome> {
    let n = data.test.n_sensors();
    let mut stream = StreamingCad::new(CadDetector::new(n, config.clone()));
    stream.warm_up(&data.his);
    (0..data.test.len())
        .filter_map(|t| stream.push_sample(&data.test.column(t)))
        .collect()
}

fn assert_bit_identical(a: &[RoundOutcome], b: &[RoundOutcome]) {
    assert_eq!(a.len(), b.len(), "round counts differ");
    for (r, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.n_r, y.n_r, "round {r}: n_r");
        assert_eq!(x.zscore.to_bits(), y.zscore.to_bits(), "round {r}: zscore");
        assert_eq!(x.abnormal, y.abnormal, "round {r}: abnormal");
        assert_eq!(x.outliers, y.outliers, "round {r}: outliers");
        assert_eq!(x.rc.len(), y.rc.len(), "round {r}: rc length");
        for (v, (p, q)) in x.rc.iter().zip(&y.rc).enumerate() {
            assert_eq!(p.to_bits(), q.to_bits(), "round {r}: rc[{v}]");
        }
    }
}

/// 256 sensors — wide enough that every parallel stage (correlation
/// matrix, neighbour selection) actually fans out.
fn wide_dataset() -> Dataset {
    let mut gen = GeneratorConfig::small("determinism", 256, 7);
    gen.his_len = 250;
    gen.test_len = 550;
    gen.n_anomalies = 4;
    Dataset::generate(&gen)
}

fn wide_config() -> CadConfig {
    CadConfig::builder(256)
        .window(48, 12)
        .k(6)
        .tau(0.3)
        .theta(0.5)
        .engine(engine_under_test())
        .build()
}

#[test]
fn pipeline_outcomes_bit_identical_across_thread_counts() {
    let data = wide_dataset();
    let config = wide_config();
    let serial = cad_runtime::with_thread_override(1, || stream_pipeline(&config, &data));
    let parallel = cad_runtime::with_thread_override(8, || stream_pipeline(&config, &data));
    assert!(serial.len() > 10, "expected a meaningful number of rounds");
    assert_bit_identical(&serial, &parallel);
}

#[test]
fn pipeline_outcomes_match_under_ambient_thread_count() {
    // Same comparison against whatever the environment provides
    // (`CAD_RUNTIME_THREADS` or the machine's parallelism) — this is the
    // configuration CI runs twice, with the variable set and unset.
    let data = wide_dataset();
    let config = wide_config();
    let serial = cad_runtime::with_thread_override(1, || stream_pipeline(&config, &data));
    let ambient = stream_pipeline(&config, &data);
    assert_bit_identical(&serial, &ambient);
}

#[test]
fn pipeline_verdicts_identical_across_engines() {
    // The exact engine dots z-normalised windows; the incremental engine
    // slides co-moment sums. The two sum in wholly different orders
    // (~1e-14 apart on raw correlations), but every discrete output the
    // detector reports — outlier sets, n_r and abnormal verdicts — must be
    // identical on the same wide configuration.
    let data = wide_dataset();
    let run = |engine: EngineChoice| {
        let mut config = wide_config();
        config.engine = engine;
        stream_pipeline(&config, &data)
    };
    let exact = run(EngineChoice::Exact);
    let incremental = run(EngineChoice::incremental());
    assert_eq!(exact.len(), incremental.len(), "round counts differ");
    assert!(exact.len() > 10, "expected a meaningful number of rounds");
    for (r, (e, i)) in exact.iter().zip(&incremental).enumerate() {
        assert_eq!(e.n_r, i.n_r, "round {r}: n_r");
        assert_eq!(e.abnormal, i.abnormal, "round {r}: abnormal");
        assert_eq!(e.outliers, i.outliers, "round {r}: outliers");
    }
}
