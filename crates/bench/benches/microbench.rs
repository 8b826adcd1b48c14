//! Criterion micro-benchmarks for the per-round cost drivers:
//!
//! * `tsg_build/{n}` — correlation k-NN graph construction (the O(n²·w)
//!   part of Algorithm 1), up to n = 2 048 sensors;
//! * `louvain/{n}` — Phase 1 community detection;
//! * `cad_round/{n}` — one full `push_window` (the paper's TPR, Table VII
//!   and Fig. 6's right panel);
//! * `masked_slide/{input}` — one `MaskedSlidingCov` slide at the hostile
//!   shape (n = 128, w = 128, s = 16): all-valid and hostile-like shared
//!   holes take the per-class tables, independent per-sample NaN the six
//!   blocked folds;
//! * `baseline_score` — per-point scoring cost of the cheap baselines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cad_baselines::{Detector, Ecod, IsolationForest};
use cad_bench::holes;
use cad_core::{CadConfig, CadDetector};
use cad_datagen::{Dataset, GeneratorConfig};
use cad_graph::{louvain, CorrelationKnn, KnnConfig, LouvainConfig};
use cad_stats::MaskedSlidingCov;

fn dataset(n: usize) -> Dataset {
    let mut cfg = GeneratorConfig::small("bench", n, 1);
    cfg.his_len = 400;
    cfg.test_len = 400;
    Dataset::generate(&cfg)
}

fn k_for(n: usize) -> usize {
    match n {
        0..=40 => 10,
        41..=300 => 20,
        _ => 30,
    }
}

fn bench_tsg_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("tsg_build");
    for n in [26usize, 51, 143, 406, 2048] {
        if n > 406 {
            // A 2 048-sensor build takes ~30 ms; ten samples keep the group short.
            group.sample_size(10);
        }
        let data = dataset(n);
        let mut builder = CorrelationKnn::new(KnnConfig::new(k_for(n), 0.5));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(builder.build(&data.test, 0, 64)));
        });
    }
    group.finish();
}

fn bench_louvain(c: &mut Criterion) {
    let mut group = c.benchmark_group("louvain");
    for n in [26usize, 51, 143, 406] {
        let data = dataset(n);
        let mut builder = CorrelationKnn::new(KnnConfig::new(k_for(n), 0.5));
        let graph = builder.build(&data.test, 0, 64);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(louvain(&graph, LouvainConfig::default())));
        });
    }
    group.finish();
}

fn bench_cad_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("cad_round");
    group.sample_size(20);
    for n in [26usize, 51, 143, 406] {
        let data = dataset(n);
        let config = CadConfig::builder(n)
            .window(64, 8)
            .k(k_for(n))
            .tau(0.5)
            .theta(0.2)
            .rc_horizon(Some(12))
            .build();
        let mut det = CadDetector::new(n, config);
        det.warm_up(&data.his);
        let spec = det.config().window;
        let rounds = spec.rounds(data.test.len());
        let mut r = 0usize;
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let start = spec.start(r % rounds);
                r += 1;
                black_box(det.push_window(&data.test, start))
            });
        });
    }
    group.finish();
}

/// Whether sample `t` of sensor `i` is missing, per masked input.
type Holes = fn(usize, usize) -> bool;

fn no_holes(_: usize, _: usize) -> bool {
    false
}

fn bench_masked_slide(c: &mut Criterion) {
    const SLIDES: usize = 16;
    let (n, w, s) = (128usize, 128usize, 16usize);
    let mut group = c.benchmark_group("masked_slide");
    let inputs: [(&str, Holes); 3] = [
        ("all_valid", no_holes),
        ("shared_holes", holes::shared),
        ("independent_nan", holes::independent),
    ];
    for (name, holes) in inputs {
        let block = |t0: usize, cols: usize| -> Vec<f64> {
            (0..n)
                .flat_map(|i| (t0..t0 + cols).map(move |t| (i, t)))
                .map(|(i, t)| {
                    if holes(i, t) {
                        f64::NAN
                    } else {
                        (t as f64 * (0.05 + 0.001 * i as f64)).sin() * 10.0 + i as f64
                    }
                })
                .collect()
        };
        let slides: Vec<(Vec<f64>, Vec<f64>)> = (0..SLIDES)
            .map(|r| (block(w + r * s, s), block(r * s, s)))
            .collect();
        let mut cov = MaskedSlidingCov::new(n, w);
        cov.rebuild(&block(0, w));
        let mut r = 0usize;
        group.bench_function(name, |b| {
            b.iter(|| {
                let (incoming, outgoing) = &slides[r % SLIDES];
                r += 1;
                cov.slide(incoming, outgoing, s);
                black_box(cov.pair_valid_count(0, 1))
            });
        });
    }
    group.finish();
}

fn bench_baseline_score(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline_score");
    group.sample_size(20);
    let data = dataset(26);
    let mut ecod = Ecod::new();
    ecod.fit(&data.his);
    group.bench_function("ecod_400pts", |b| {
        b.iter(|| black_box(ecod.score(&data.test)));
    });
    let mut forest = IsolationForest::new(3);
    forest.fit(&data.his);
    group.bench_function("iforest_400pts", |b| {
        b.iter(|| black_box(forest.score(&data.test)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_tsg_build,
    bench_louvain,
    bench_cad_round,
    bench_masked_slide,
    bench_baseline_score
);
criterion_main!(benches);
