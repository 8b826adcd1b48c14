//! Engine-parity suite: the incremental round engine must be observably
//! indistinguishable from the exact oracle.
//!
//! The incremental engine computes mathematically identical Pearson
//! correlations along a differently rounded path (sliding co-moment sums
//! instead of per-window z-normalised dot products), so raw edge weights
//! agree only to ~1e-15 — but everything the detector *reports* is
//! discrete: outlier sets, variation counts `n_r`, abnormal verdicts.
//! These tests pin that discrete output round-for-round across the
//! datagen suite, for batch and streaming drivers, across rebuild
//! cadences, and across a save/load round-trip mid-stream.

use cad_core::{load_detector, save_detector, CadConfig, CadDetector, EngineChoice, RoundOutcome};
use cad_datagen::{Dataset, GeneratorConfig};

fn config(n: usize, engine: EngineChoice) -> CadConfig {
    CadConfig::builder(n)
        .window(48, 8)
        .k(5)
        .tau(0.4)
        .theta(0.27)
        .rc_horizon(Some(10))
        .engine(engine)
        .build()
}

fn dataset(seed: u64) -> Dataset {
    Dataset::generate(&GeneratorConfig::small("parity", 24, seed))
}

/// Warm up on the history, then push every detection window, collecting
/// the full outcome stream.
fn drive(mut det: CadDetector, data: &Dataset) -> Vec<RoundOutcome> {
    det.warm_up(&data.his);
    let spec = det.config().window;
    (0..spec.rounds(data.test.len()))
        .map(|r| det.push_window(&data.test, spec.start(r)))
        .collect()
}

fn assert_verdict_parity(exact: &[RoundOutcome], incremental: &[RoundOutcome]) {
    assert_eq!(exact.len(), incremental.len(), "round counts differ");
    for (r, (e, i)) in exact.iter().zip(incremental).enumerate() {
        assert_eq!(e.outliers, i.outliers, "round {r}: outlier sets");
        assert_eq!(e.n_r, i.n_r, "round {r}: n_r");
        assert_eq!(e.abnormal, i.abnormal, "round {r}: abnormal verdict");
    }
}

#[test]
fn verdict_streams_identical_across_seeds() {
    for seed in [3, 17, 91] {
        let data = dataset(seed);
        let exact = drive(CadDetector::new(24, config(24, EngineChoice::Exact)), &data);
        let incremental = drive(
            CadDetector::new(24, config(24, EngineChoice::incremental())),
            &data,
        );
        assert!(
            exact.len() > 20,
            "seed {seed}: too few rounds to be meaningful"
        );
        assert_verdict_parity(&exact, &incremental);
    }
}

#[test]
fn parity_holds_across_rebuild_cadences() {
    // R=1 degenerates to per-round rebuilds; R=2 rebuilds constantly;
    // R=10_000 never rebuilds after the first window, so the whole test
    // segment rides one slide run — drift must stay below every verdict
    // threshold the entire way.
    let data = dataset(7);
    let exact = drive(CadDetector::new(24, config(24, EngineChoice::Exact)), &data);
    for rebuild_every in [1, 2, 10_000] {
        let engine = EngineChoice::Incremental { rebuild_every };
        let incremental = drive(CadDetector::new(24, config(24, engine)), &data);
        assert_verdict_parity(&exact, &incremental);
    }
}

#[test]
fn parity_survives_save_load_mid_stream() {
    // Snapshot the incremental detector halfway through the detection
    // segment — deep inside a slide run — and finish on the restored
    // copy: the spliced stream must still match the exact oracle.
    let data = dataset(42);
    let exact = drive(CadDetector::new(24, config(24, EngineChoice::Exact)), &data);

    let engine = EngineChoice::Incremental { rebuild_every: 500 };
    let mut det = CadDetector::new(24, config(24, engine));
    det.warm_up(&data.his);
    let spec = det.config().window;
    let rounds = spec.rounds(data.test.len());
    let half = rounds / 2;
    let mut spliced = Vec::with_capacity(rounds);
    for r in 0..half {
        spliced.push(det.push_window(&data.test, spec.start(r)));
    }
    let mut buf = Vec::new();
    save_detector(&det, &mut buf).expect("save");
    drop(det);
    let mut restored = load_detector(buf.as_slice()).expect("load");
    for r in half..rounds {
        spliced.push(restored.push_window(&data.test, spec.start(r)));
    }
    assert_verdict_parity(&exact, &spliced);
}

#[test]
fn streaming_front_end_matches_exact_batch() {
    // StreamingCad's ring buffer + incremental engine versus the exact
    // batch detector driven window-by-window: the deployment
    // configuration the refactor exists for, compared end-to-end. Both
    // start cold so their round schedules coincide exactly.
    use cad_core::StreamingCad;
    let data = dataset(11);
    let mut exact_det = CadDetector::new(24, config(24, EngineChoice::Exact));
    let spec = exact_det.config().window;
    let exact: Vec<RoundOutcome> = (0..spec.rounds(data.test.len()))
        .map(|r| exact_det.push_window(&data.test, spec.start(r)))
        .collect();

    let mut stream = StreamingCad::new(CadDetector::new(
        24,
        config(24, EngineChoice::incremental()),
    ));
    let streamed: Vec<RoundOutcome> = (0..data.test.len())
        .filter_map(|t| stream.push_sample(&data.test.column(t)))
        .collect();
    assert!(exact.len() > 20, "too few rounds to be meaningful");
    assert_verdict_parity(&exact, &streamed);
}
