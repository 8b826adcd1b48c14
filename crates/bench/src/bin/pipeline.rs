//! Full-pipeline benchmark: warm-up + streaming detection on one wide
//! synthetic deployment, emitting machine-readable
//! `results/BENCH_pipeline.json`.
//!
//! Two comparisons in one run:
//!
//! * **serial vs parallel** (exact engine) — pins `cad-runtime` to one
//!   thread, then uses the effective thread count. Both passes must
//!   produce bit-identical round outcomes; the benchmark asserts this, so
//!   it doubles as an end-to-end determinism check on real workload
//!   shapes.
//! * **exact vs incremental engine** (both at the effective thread count)
//!   — the O(n²·w) from-scratch path against the O(n²·s) sliding
//!   co-moment path. The benchmark asserts verdict parity (identical
//!   outlier sets, `n_r`, abnormal flags round-for-round), reports
//!   rounds/sec for each and the incremental speedup, and samples the
//!   maximum correlation divergence between a continuously-slid
//!   accumulator and freshly computed matrices.
//!
//! A third, masked pass runs the incremental engine under
//! `GapPolicy::Skip` on the same test data with seeded holes shared across
//! sensors (gaps that blank every sensor, bursts that blank half), so the
//! pairwise-deletion accumulator `MaskedSlidingCov` and its slide are
//! timed too (`phases_masked`, `masked_rounds_per_sec`).
//!
//! ```text
//! cargo run --release -p cad-bench --bin pipeline
//! ```
//!
//! Size knobs (defaults reproduce the 256 × 20k reference run):
//! `CAD_BENCH_SENSORS`, `CAD_BENCH_POINTS`, `CAD_BENCH_HIS`,
//! `CAD_BENCH_W`, `CAD_BENCH_S`.

use std::time::Instant;

use cad_bench::holes;
use cad_core::{CadConfig, CadDetector, EngineChoice, GapPolicy, RoundOutcome, StreamingCad};
use cad_datagen::{Dataset, GeneratorConfig};
use cad_mts::Mts;
use cad_stats::{active_kernel, pearson_matrix_normalized, znorm_in_place, SlidingCov};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One timed warm-up + streaming-detection pass; returns the outcomes and
/// the (warm-up, detect) wall-clock split.
fn run_pipeline(config: &CadConfig, his: &Mts, test: &Mts) -> (Vec<RoundOutcome>, f64, f64) {
    let n = his.n_sensors();
    let mut stream = StreamingCad::new(CadDetector::new(n, config.clone()));
    let t0 = Instant::now();
    stream.warm_up(his);
    let warm_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let mut outcomes = Vec::new();
    for t in 0..test.len() {
        if let Some(o) = stream.push_sample(&test.column(t)) {
            outcomes.push(o);
        }
    }
    let detect_secs = t0.elapsed().as_secs_f64();
    (outcomes, warm_secs, detect_secs)
}

/// `test` with [`holes::shared`] blanked out.
fn with_shared_holes(test: &Mts) -> Mts {
    let mut holed = test.clone();
    for t in 0..test.len() {
        for i in 0..test.n_sensors() {
            if holes::shared(i, t) {
                holed.set(i, t, f64::NAN);
            }
        }
    }
    holed
}

fn bit_identical(a: &[RoundOutcome], b: &[RoundOutcome]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.n_r == y.n_r
                && x.zscore.to_bits() == y.zscore.to_bits()
                && x.abnormal == y.abnormal
                && x.outliers == y.outliers
                && x.rc.len() == y.rc.len()
                && x.rc
                    .iter()
                    .zip(&y.rc)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// The discrete output the detector reports: outliers, `n_r`, verdicts.
fn verdict_parity(a: &[RoundOutcome], b: &[RoundOutcome]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.n_r == y.n_r && x.abnormal == y.abnormal && x.outliers == y.outliers)
}

/// Slide one `SlidingCov` across every round of `test` and, at sampled
/// rounds, compare its full matrix against a freshly computed exact one.
/// Returns the maximum absolute divergence observed — the fp-drift figure
/// the periodic rebuild (disabled here to measure worst case) bounds.
fn max_correlation_divergence(test: &Mts, w: usize, s: usize, samples: usize) -> f64 {
    let n = test.n_sensors();
    let rounds = (test.len() - w) / s + 1;
    let stride = (rounds / samples.max(1)).max(1);
    let mut cov = SlidingCov::new(n, w);
    let rows_at = |start: usize| {
        let mut rows = Vec::with_capacity(n * w);
        for i in 0..n {
            rows.extend_from_slice(test.sensor_window(i, start, w));
        }
        rows
    };
    let mut incoming = vec![0.0; n * s];
    let mut matrix = Vec::new();
    let mut max_div = 0.0f64;
    for r in 0..rounds {
        let start = r * s;
        if r == 0 {
            cov.rebuild(&rows_at(0));
        } else {
            let prev_start = start - s;
            for i in 0..n {
                incoming[i * s..(i + 1) * s].copy_from_slice(test.sensor_window(
                    i,
                    start + w - s,
                    s,
                ));
            }
            let mut outgoing = vec![0.0; n * s];
            for i in 0..n {
                outgoing[i * s..(i + 1) * s].copy_from_slice(test.sensor_window(i, prev_start, s));
            }
            cov.slide(&incoming, &outgoing, s);
        }
        if r % stride == 0 || r == rounds - 1 {
            let mut normed = rows_at(start);
            for i in 0..n {
                znorm_in_place(&mut normed[i * w..(i + 1) * w]);
            }
            let exact = pearson_matrix_normalized(&normed, n, w);
            cov.correlation_matrix_into(&mut matrix);
            for (a, b) in exact.iter().zip(&matrix) {
                max_div = max_div.max((a - b).abs());
            }
        }
    }
    max_div
}

fn main() {
    let n_sensors = env_usize("CAD_BENCH_SENSORS", 256);
    let points = env_usize("CAD_BENCH_POINTS", 20_000);
    let his_len = env_usize("CAD_BENCH_HIS", points / 5);
    let w = env_usize("CAD_BENCH_W", 256);
    let s = env_usize("CAD_BENCH_S", 16).min(w);
    let threads = cad_runtime::effective_threads();

    eprintln!("[pipeline] generating {n_sensors} sensors × {points} points (his={his_len})");
    let mut gen = GeneratorConfig::small("pipeline", n_sensors, 42);
    gen.his_len = his_len;
    gen.test_len = points;
    gen.n_anomalies = 8;
    let data = Dataset::generate(&gen);

    let base = CadConfig::builder(n_sensors)
        .window(w, s)
        .k(8.min(n_sensors - 1))
        .tau(0.3)
        .theta(0.5);
    let config_exact = base.clone().build();
    let incremental_base = base.engine(EngineChoice::incremental());
    let config_incremental = incremental_base.clone().build();
    let config_masked = incremental_base.gap_policy(GapPolicy::Skip).build();
    eprintln!("[pipeline] w={w} s={s} threads={threads}");

    cad_runtime::reset_phase_stats();
    let (serial, serial_warm, serial_detect) =
        cad_runtime::with_thread_override(1, || run_pipeline(&config_exact, &data.his, &data.test));
    let phases_serial = cad_runtime::phases_json();
    let serial_secs = serial_warm + serial_detect;
    eprintln!(
        "[pipeline] serial exact: {serial_secs:.3}s ({} rounds)",
        serial.len()
    );

    cad_runtime::reset_phase_stats();
    let (parallel, par_warm, par_detect) = run_pipeline(&config_exact, &data.his, &data.test);
    let phases_parallel = cad_runtime::phases_json();
    let parallel_secs = par_warm + par_detect;
    eprintln!("[pipeline] parallel exact ({threads} threads): {parallel_secs:.3}s");

    let identical = bit_identical(&serial, &parallel);
    assert!(
        identical,
        "serial and parallel outcome streams must be bit-identical"
    );

    cad_runtime::reset_phase_stats();
    let (incremental, inc_warm, inc_detect) =
        run_pipeline(&config_incremental, &data.his, &data.test);
    let phases_incremental = cad_runtime::phases_json();
    let incremental_secs = inc_warm + inc_detect;
    eprintln!("[pipeline] parallel incremental ({threads} threads): {incremental_secs:.3}s");

    let parity = verdict_parity(&parallel, &incremental);
    assert!(
        parity,
        "exact and incremental engines must report identical verdict streams"
    );

    let holed = with_shared_holes(&data.test);
    cad_runtime::reset_phase_stats();
    let (masked, masked_warm, masked_detect) = run_pipeline(&config_masked, &data.his, &holed);
    let phases_masked = cad_runtime::phases_json();
    let masked_secs = masked_warm + masked_detect;
    eprintln!("[pipeline] masked incremental, shared holes ({threads} threads): {masked_secs:.3}s");

    eprintln!("[pipeline] sampling correlation divergence (no rebuilds)");
    let max_div = max_correlation_divergence(&data.test, w, s, 16);

    let rounds = parallel.len();
    let rounds_per_sec = rounds as f64 / par_detect.max(1e-12);
    let speedup = serial_secs / parallel_secs.max(1e-12);
    let incremental_rounds_per_sec = incremental.len() as f64 / inc_detect.max(1e-12);
    let incremental_speedup = par_detect / inc_detect.max(1e-12);
    let masked_rounds_per_sec = masked.len() as f64 / masked_detect.max(1e-12);

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"pipeline\",\n",
            "  \"sensors\": {},\n",
            "  \"points\": {},\n",
            "  \"his_len\": {},\n",
            "  \"window\": {},\n",
            "  \"step\": {},\n",
            "  \"threads\": {},\n",
            "  \"kernel\": \"{}\",\n",
            "  \"rounds\": {},\n",
            "  \"serial_secs\": {:.6},\n",
            "  \"serial_warm_secs\": {:.6},\n",
            "  \"serial_detect_secs\": {:.6},\n",
            "  \"parallel_secs\": {:.6},\n",
            "  \"parallel_warm_secs\": {:.6},\n",
            "  \"parallel_detect_secs\": {:.6},\n",
            "  \"speedup\": {:.4},\n",
            "  \"rounds_per_sec\": {:.3},\n",
            "  \"incremental_secs\": {:.6},\n",
            "  \"incremental_warm_secs\": {:.6},\n",
            "  \"incremental_detect_secs\": {:.6},\n",
            "  \"incremental_rounds_per_sec\": {:.3},\n",
            "  \"incremental_speedup\": {:.4},\n",
            "  \"masked_secs\": {:.6},\n",
            "  \"masked_warm_secs\": {:.6},\n",
            "  \"masked_detect_secs\": {:.6},\n",
            "  \"masked_rounds_per_sec\": {:.3},\n",
            "  \"verdict_parity\": {},\n",
            "  \"max_correlation_divergence\": {:e},\n",
            "  \"bit_identical\": {},\n",
            "  \"phases_serial\": {},\n",
            "  \"phases_parallel\": {},\n",
            "  \"phases_incremental\": {},\n",
            "  \"phases_masked\": {}\n",
            "}}\n"
        ),
        n_sensors,
        points,
        his_len,
        w,
        s,
        threads,
        active_kernel().name(),
        rounds,
        serial_secs,
        serial_warm,
        serial_detect,
        parallel_secs,
        par_warm,
        par_detect,
        speedup,
        rounds_per_sec,
        incremental_secs,
        inc_warm,
        inc_detect,
        incremental_rounds_per_sec,
        incremental_speedup,
        masked_secs,
        masked_warm,
        masked_detect,
        masked_rounds_per_sec,
        parity,
        max_div,
        identical,
        phases_serial,
        phases_parallel,
        phases_incremental,
        phases_masked,
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
    println!("{json}");
    eprintln!(
        "[pipeline] threads speedup {speedup:.2}x, engine speedup {incremental_speedup:.2}x \
         ({rounds_per_sec:.1} → {incremental_rounds_per_sec:.1} rounds/s), \
         max divergence {max_div:.2e} → results/BENCH_pipeline.json"
    );
}
