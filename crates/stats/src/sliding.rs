//! Sliding co-moment accumulator — the incremental round engine's core.
//!
//! CAD recomputes an n×n Pearson matrix every round even though consecutive
//! windows share `w − s` of their points. [`SlidingCov`] exploits that
//! overlap: it maintains per-sensor running sums `Σx, Σx²` and per-pair
//! `Σxy` over the current window, updated by *adding* the `s` incoming
//! points and *retiring* the `s` outgoing ones — O(n²·s) per round instead
//! of the from-scratch O(n²·w). Under the tiled kernel the pair update is
//! one call to the blocked slide fold [`crate::tiled::fold_delta_upper`],
//! which adds the incoming Gram and subtracts the outgoing one in place,
//! bit-equal to per-pair `dot8` deltas.
//!
//! ## Numerical conditioning
//!
//! Raw co-moments of large-mean data cancel catastrophically
//! (`Σxy − ΣxΣy/w` subtracts two huge numbers). Every sensor is therefore
//! *anchored*: a rebuild records the sensor's window mean as an anchor `c`
//! and all sums run over deviations `x − c`. Correlation is shift-invariant,
//! so the anchor changes nothing mathematically, but it keeps the summands
//! near zero — the same conditioning trick as two-pass covariance. Slides
//! accumulate O(ε) drift per update; callers bound it with a periodic exact
//! [`SlidingCov::rebuild`] (the engine's rebuild period `R`), which also
//! re-centres the anchors on the current window.
//!
//! Degenerate-case conventions match [`crate::correlation`]: a (numerically)
//! constant sensor correlates 0.0 with everything, including itself.

use cad_runtime::Timer;

use crate::tiled::{active_kernel, dot8, fold_delta_upper, gram_upper_tiled, Kernel};

/// Per-pair sliding covariance/correlation state over an `n`-sensor window
/// of length `w`.
#[derive(Debug, Clone)]
pub struct SlidingCov {
    n: usize,
    w: usize,
    /// Per-sensor anchor `c` (the window mean at the last rebuild).
    anchors: Vec<f64>,
    /// Per-sensor `Σ(x − c)`.
    s1: Vec<f64>,
    /// Per-sensor `Σ(x − c)²`.
    s2: Vec<f64>,
    /// Per-pair `Σ(x_i − c_i)(x_j − c_j)`, packed upper triangle: row `i`
    /// holds pairs `(i, j)` for `j > i`.
    sxy: Vec<f64>,
    /// Whether a rebuild has primed the sums.
    primed: bool,
    /// Centred incoming/outgoing scratch for [`Self::slide`].
    scratch: Vec<f64>,
    /// Transposed-partner scratch of the blocked slide kernel.
    partners: Vec<f64>,
}

/// Packed-triangle offset of pair `(i, j)`, `j > i`.
#[inline]
fn pair_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < n);
    i * (2 * n - i - 1) / 2 + (j - i - 1)
}

/// Start offset of row `i` in the packed triangle.
#[inline]
fn row_start(n: usize, i: usize) -> usize {
    i * (2 * n - i - 1) / 2
}

impl SlidingCov {
    /// Empty accumulator for `n` sensors over windows of length `w`.
    /// [`Self::rebuild`] must prime it before correlations are read.
    pub fn new(n: usize, w: usize) -> Self {
        assert!(w >= 1, "window length must be positive");
        Self {
            n,
            w,
            anchors: vec![0.0; n],
            s1: vec![0.0; n],
            s2: vec![0.0; n],
            sxy: vec![0.0; n.saturating_sub(1) * n / 2],
            primed: false,
            scratch: Vec::new(),
            partners: Vec::new(),
        }
    }

    /// Number of sensors.
    pub fn n_sensors(&self) -> usize {
        self.n
    }

    /// Window length `w`.
    pub fn w(&self) -> usize {
        self.w
    }

    /// Whether the sums describe a full window (a rebuild has run).
    pub fn is_primed(&self) -> bool {
        self.primed
    }

    /// Recompute every sum exactly from the full window (`rows` is raw —
    /// not normalised — row-major `n × w` data). Re-anchors each sensor on
    /// its current window mean, resetting accumulated floating-point drift.
    /// O(n²·w), parallel across the `cad-runtime` pool; per-pair sums are
    /// pure functions of the window, so the result is thread-count
    /// invariant.
    pub fn rebuild(&mut self, rows: &[f64]) {
        assert_eq!(rows.len(), self.n * self.w, "rows must be n × w row-major");
        let _t = Timer::start("sliding.rebuild");
        let (n, w) = (self.n, self.w);
        let kernel = active_kernel();
        // Centred copy of the window: dev[i][t] = x − c_i.
        let mut dev = vec![0.0; n * w];
        for i in 0..n {
            let row = &rows[i * w..(i + 1) * w];
            let c = row.iter().sum::<f64>() / w as f64;
            self.anchors[i] = c;
            let out = &mut dev[i * w..(i + 1) * w];
            for (d, &x) in out.iter_mut().zip(row) {
                *d = x - c;
            }
            self.s1[i] = out.iter().sum();
            self.s2[i] = match kernel {
                Kernel::Tiled => dot8(out, out),
                Kernel::Scalar => out.iter().map(|d| d * d).sum(),
            };
        }
        match kernel {
            // Tiled SIMD kernel: one Gram over the centred rows, the same
            // 32×32 tile-chunked `Z·Zᵀ` the exact correlation path uses —
            // the packed output layout *is* the sxy triangle.
            Kernel::Tiled => {
                let sxy = gram_upper_tiled(&dev, n, w, false);
                self.sxy.copy_from_slice(&sxy);
            }
            // Seed arithmetic: sequential per-pair sums, row-chunked.
            Kernel::Scalar => {
                let upper: Vec<Vec<f64>> = cad_runtime::par_map_indexed(n, |i| {
                    let di = &dev[i * w..(i + 1) * w];
                    ((i + 1)..n)
                        .map(|j| {
                            let dj = &dev[j * w..(j + 1) * w];
                            di.iter().zip(dj).map(|(a, b)| a * b).sum()
                        })
                        .collect()
                });
                for (i, row) in upper.iter().enumerate() {
                    let start = row_start(n, i);
                    self.sxy[start..start + row.len()].copy_from_slice(row);
                }
            }
        }
        self.primed = true;
    }

    /// Advance the window: add `cols` incoming points per sensor and retire
    /// `cols` outgoing ones (both row-major `n × cols`, oldest first).
    /// O(n²·cols), parallel across packed-triangle rows with index-ordered
    /// placement — thread-count invariant like every other hot path.
    pub fn slide(&mut self, incoming: &[f64], outgoing: &[f64], cols: usize) {
        assert!(self.primed, "slide before rebuild");
        assert_eq!(incoming.len(), self.n * cols, "incoming must be n × cols");
        assert_eq!(outgoing.len(), self.n * cols, "outgoing must be n × cols");
        let _t = Timer::start("sliding.slide");
        let n = self.n;
        // Centre both deltas once: scratch = [in − c | out − c], each n×cols.
        self.scratch.clear();
        self.scratch.resize(2 * n * cols, 0.0);
        let (cin, cout) = self.scratch.split_at_mut(n * cols);
        for i in 0..n {
            let c = self.anchors[i];
            for t in 0..cols {
                cin[i * cols + t] = incoming[i * cols + t] - c;
                cout[i * cols + t] = outgoing[i * cols + t] - c;
            }
            for t in 0..cols {
                let (di, do_) = (cin[i * cols + t], cout[i * cols + t]);
                self.s1[i] += di - do_;
                self.s2[i] += di * di - do_ * do_;
            }
        }
        let (cin, cout) = (&*cin, &*cout);
        match active_kernel() {
            // Tiled SIMD kernel: the blocked slide primitive adds the
            // incoming Gram and subtracts the outgoing one in place, four
            // partners per register, each cell bit-equal to the per-pair
            // `dot8(in_i, in_j) − dot8(out_i, out_j)`.
            Kernel::Tiled => fold_delta_upper(
                &mut self.sxy,
                n,
                cols,
                [cin, cin],
                [cout, cout],
                &mut self.partners,
            ),
            // Seed arithmetic: disjoint mutable views of the triangle rows
            // fan out across the pool; each row's update is a pure function
            // of (i, cin, cout), sequentially summed.
            Kernel::Scalar => {
                let mut rows: Vec<(usize, &mut [f64])> = Vec::with_capacity(n);
                let mut rest: &mut [f64] = &mut self.sxy;
                for i in 0..n {
                    let (head, tail) = rest.split_at_mut(n - 1 - i);
                    rows.push((i, head));
                    rest = tail;
                }
                cad_runtime::par_map_mut(&mut rows, |_, (i, row)| {
                    let i = *i;
                    let in_i = &cin[i * cols..(i + 1) * cols];
                    let out_i = &cout[i * cols..(i + 1) * cols];
                    for (offset, acc) in row.iter_mut().enumerate() {
                        let j = i + 1 + offset;
                        let in_j = &cin[j * cols..(j + 1) * cols];
                        let out_j = &cout[j * cols..(j + 1) * cols];
                        let mut delta = 0.0;
                        for t in 0..cols {
                            delta += in_i[t] * in_j[t] - out_i[t] * out_j[t];
                        }
                        *acc += delta;
                    }
                });
            }
        }
    }

    /// Centred variance sum `Σ(x − m)²` of sensor `i` (non-negative).
    #[inline]
    fn va(&self, i: usize) -> f64 {
        (self.s2[i] - self.s1[i] * self.s1[i] / self.w as f64).max(0.0)
    }

    /// Whether sensor `i` is numerically constant over the window — the
    /// same `σ ≤ ε` test `znorm_in_place` applies on the exact path.
    #[inline]
    fn is_flat(&self, i: usize) -> bool {
        (self.va(i) / self.w as f64).sqrt() <= f64::EPSILON
    }

    /// Pearson correlation of sensors `i` and `j` from the current sums
    /// (0.0 when either side is numerically constant, matching
    /// [`crate::correlation::pearson`]).
    pub fn correlation(&self, i: usize, j: usize) -> f64 {
        assert!(self.primed, "correlation before rebuild");
        if i == j {
            return if self.is_flat(i) { 0.0 } else { 1.0 };
        }
        if self.is_flat(i) || self.is_flat(j) {
            return 0.0;
        }
        let (lo, hi) = (i.min(j), i.max(j));
        let cov = self.sxy[pair_index(self.n, lo, hi)] - self.s1[lo] * self.s1[hi] / self.w as f64;
        let denom = (self.va(lo) * self.va(hi)).sqrt();
        if denom <= f64::EPSILON {
            0.0
        } else {
            (cov / denom).clamp(-1.0, 1.0)
        }
    }

    /// Fill `matrix` with the full symmetric `n × n` correlation matrix
    /// (diagonal 1.0, or 0.0 for a constant sensor — the same conventions
    /// as [`crate::correlation::pearson_matrix_normalized`]).
    pub fn correlation_matrix_into(&self, matrix: &mut Vec<f64>) {
        assert!(self.primed, "correlation matrix before rebuild");
        let _t = Timer::start("sliding.matrix");
        let n = self.n;
        matrix.clear();
        matrix.resize(n * n, 0.0);
        let va: Vec<f64> = (0..n).map(|i| self.va(i)).collect();
        let flat: Vec<bool> = (0..n).map(|i| self.is_flat(i)).collect();
        for i in 0..n {
            matrix[i * n + i] = if flat[i] { 0.0 } else { 1.0 };
            let start = row_start(n, i);
            for j in (i + 1)..n {
                let c = if flat[i] || flat[j] {
                    0.0
                } else {
                    let cov = self.sxy[start + j - i - 1] - self.s1[i] * self.s1[j] / self.w as f64;
                    let denom = (va[i] * va[j]).sqrt();
                    if denom <= f64::EPSILON {
                        0.0
                    } else {
                        (cov / denom).clamp(-1.0, 1.0)
                    }
                };
                matrix[i * n + j] = c;
                matrix[j * n + i] = c;
            }
        }
    }

    /// Persistence view: `(anchors, s1, s2, sxy, primed)`.
    pub fn state(&self) -> (&[f64], &[f64], &[f64], &[f64], bool) {
        (&self.anchors, &self.s1, &self.s2, &self.sxy, self.primed)
    }

    /// Restore an accumulator persisted via [`Self::state`].
    pub fn from_state(
        n: usize,
        w: usize,
        anchors: Vec<f64>,
        s1: Vec<f64>,
        s2: Vec<f64>,
        sxy: Vec<f64>,
        primed: bool,
    ) -> Self {
        assert_eq!(anchors.len(), n, "anchors length mismatch");
        assert_eq!(s1.len(), n, "s1 length mismatch");
        assert_eq!(s2.len(), n, "s2 length mismatch");
        assert_eq!(
            sxy.len(),
            n.saturating_sub(1) * n / 2,
            "sxy length mismatch"
        );
        assert!(w >= 1, "window length must be positive");
        Self {
            n,
            w,
            anchors,
            s1,
            s2,
            sxy,
            primed,
            scratch: Vec::new(),
            partners: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::pearson;
    use proptest::prelude::*;

    /// Direct reference: window held as a Vec<Vec<f64>> of per-sensor rows.
    fn flatten(window: &[Vec<f64>]) -> Vec<f64> {
        window.iter().flat_map(|r| r.iter().copied()).collect()
    }

    fn assert_matches_pearson(cov: &SlidingCov, window: &[Vec<f64>], tol: f64, ctx: &str) {
        let n = window.len();
        for i in 0..n {
            for j in (i + 1)..n {
                let direct = pearson(&window[i], &window[j]);
                let sliding = cov.correlation(i, j);
                assert!(
                    (direct - sliding).abs() <= tol,
                    "{ctx}: pair ({i},{j}) direct={direct} sliding={sliding}"
                );
            }
        }
    }

    #[test]
    fn rebuild_matches_direct_pearson() {
        let w = 32;
        let window: Vec<Vec<f64>> = (0..5)
            .map(|s| {
                (0..w)
                    .map(|t| ((t + 3 * s) as f64 * (0.2 + 0.07 * s as f64)).sin() + s as f64)
                    .collect()
            })
            .collect();
        let mut cov = SlidingCov::new(5, w);
        cov.rebuild(&flatten(&window));
        assert_matches_pearson(&cov, &window, 1e-12, "after rebuild");
    }

    #[test]
    fn slide_tracks_moving_window() {
        let n = 4;
        let w = 24;
        let s = 6;
        let total = 200;
        let series: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..total)
                    .map(|t| ((t as f64) * (0.11 + 0.05 * i as f64) + i as f64).sin() * 10.0)
                    .collect()
            })
            .collect();
        let window_at = |start: usize| -> Vec<Vec<f64>> {
            series
                .iter()
                .map(|r| r[start..start + w].to_vec())
                .collect()
        };
        let mut cov = SlidingCov::new(n, w);
        cov.rebuild(&flatten(&window_at(0)));
        let mut start = 0;
        while start + s + w <= total {
            let incoming: Vec<f64> = series
                .iter()
                .flat_map(|r| r[start + w..start + w + s].iter().copied())
                .collect();
            let outgoing: Vec<f64> = series
                .iter()
                .flat_map(|r| r[start..start + s].iter().copied())
                .collect();
            cov.slide(&incoming, &outgoing, s);
            start += s;
            assert_matches_pearson(&cov, &window_at(start), 1e-10, "after slide");
        }
        assert!(start > 10 * s, "test must exercise many slides");
    }

    #[test]
    fn constant_sensor_correlates_zero() {
        let w = 16;
        let window = vec![
            vec![5.0; w],
            (0..w).map(|t| (t as f64 * 0.4).sin()).collect::<Vec<_>>(),
        ];
        let mut cov = SlidingCov::new(2, w);
        cov.rebuild(&flatten(&window));
        assert_eq!(cov.correlation(0, 1), 0.0);
        assert_eq!(cov.correlation(0, 0), 0.0, "flat diagonal convention");
        assert_eq!(cov.correlation(1, 1), 1.0);
        // Sliding constant data keeps the sensor flat.
        let incoming = vec![5.0, 0.3];
        let outgoing = vec![window[0][0], window[1][0]];
        cov.slide(&incoming, &outgoing, 1);
        assert_eq!(cov.correlation(0, 1), 0.0);
    }

    #[test]
    fn matrix_agrees_with_pairwise() {
        let w = 20;
        let n = 6;
        let window: Vec<Vec<f64>> = (0..n)
            .map(|s| {
                (0..w)
                    .map(|t| ((t * (s + 2)) as f64 * 0.13).cos() * (1.0 + s as f64))
                    .collect()
            })
            .collect();
        let mut cov = SlidingCov::new(n, w);
        cov.rebuild(&flatten(&window));
        // A reused buffer with stale contents must not leak into the result.
        let mut matrix = vec![f64::NAN; n * n];
        cov.correlation_matrix_into(&mut matrix);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    matrix[i * n + j].to_bits(),
                    cov.correlation(i, j).to_bits(),
                    "cell ({i},{j})"
                );
                assert_eq!(matrix[i * n + j].to_bits(), matrix[j * n + i].to_bits());
            }
        }
    }

    #[test]
    fn slide_is_identical_across_thread_counts() {
        let _kernel = crate::tiled::kernel_test_lock();
        let n = 40;
        let w = 32;
        let s = 8;
        let make = |threads: usize| {
            cad_runtime::with_thread_override(threads, || {
                let series: Vec<Vec<f64>> = (0..n)
                    .map(|i| {
                        (0..w + 3 * s)
                            .map(|t| ((t * 13 + i * 7) % 29) as f64 + (t as f64 * 0.21).sin())
                            .collect()
                    })
                    .collect();
                let mut cov = SlidingCov::new(n, w);
                let first: Vec<f64> = series.iter().flat_map(|r| r[..w].iter().copied()).collect();
                cov.rebuild(&first);
                for k in 0..3 {
                    let a = k * s;
                    let incoming: Vec<f64> = series
                        .iter()
                        .flat_map(|r| r[a + w..a + w + s].iter().copied())
                        .collect();
                    let outgoing: Vec<f64> = series
                        .iter()
                        .flat_map(|r| r[a..a + s].iter().copied())
                        .collect();
                    cov.slide(&incoming, &outgoing, s);
                }
                let mut m = Vec::new();
                cov.correlation_matrix_into(&mut m);
                m
            })
        };
        let serial = make(1);
        let parallel = make(8);
        assert!(
            serial
                .iter()
                .zip(&parallel)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "sliding matrix must be bit-identical for any thread count"
        );
    }

    #[test]
    fn kernels_agree_across_rebuild_and_slides() {
        let _kernel = crate::tiled::kernel_test_lock();
        // The tiled SIMD kernel and the seed scalar arithmetic must track
        // each other through a rebuild and a long slide run — including at
        // a sensor count straddling the 32-row tile boundary — and the
        // tiled path must stay thread-count invariant.
        let n = 33;
        let (w, s) = (40, 7);
        let total = w + 6 * s;
        let series: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..total)
                    .map(|t| ((t * 13 + i * 7) % 29) as f64 + (t as f64 * 0.21 + i as f64).sin())
                    .collect()
            })
            .collect();
        let drive = || {
            let mut cov = SlidingCov::new(n, w);
            let first: Vec<f64> = series.iter().flat_map(|r| r[..w].iter().copied()).collect();
            cov.rebuild(&first);
            for k in 0..6 {
                let a = k * s;
                let incoming: Vec<f64> = series
                    .iter()
                    .flat_map(|r| r[a + w..a + w + s].iter().copied())
                    .collect();
                let outgoing: Vec<f64> = series
                    .iter()
                    .flat_map(|r| r[a..a + s].iter().copied())
                    .collect();
                cov.slide(&incoming, &outgoing, s);
            }
            let mut m = Vec::new();
            cov.correlation_matrix_into(&mut m);
            m
        };
        let tiled = crate::tiled::with_kernel_override(crate::tiled::Kernel::Tiled, drive);
        let scalar = crate::tiled::with_kernel_override(crate::tiled::Kernel::Scalar, drive);
        for (a, b) in tiled.iter().zip(&scalar) {
            assert!((a - b).abs() <= 1e-12, "tiled {a} vs scalar {b}");
        }
        let parallel = cad_runtime::with_thread_override(8, || {
            crate::tiled::with_kernel_override(crate::tiled::Kernel::Tiled, drive)
        });
        assert!(
            tiled
                .iter()
                .zip(&parallel)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "tiled sliding path must be bit-identical for any thread count"
        );
    }

    #[test]
    fn state_roundtrip_is_exact() {
        let w = 16;
        let window: Vec<Vec<f64>> = (0..3)
            .map(|s| (0..w).map(|t| ((t + s) as f64 * 0.3).sin()).collect())
            .collect();
        let mut cov = SlidingCov::new(3, w);
        cov.rebuild(&flatten(&window));
        let (anchors, s1, s2, sxy, primed) = cov.state();
        let restored = SlidingCov::from_state(
            3,
            w,
            anchors.to_vec(),
            s1.to_vec(),
            s2.to_vec(),
            sxy.to_vec(),
            primed,
        );
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(
                    cov.correlation(i, j).to_bits(),
                    restored.correlation(i, j).to_bits()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "slide before rebuild")]
    fn slide_requires_priming() {
        let mut cov = SlidingCov::new(2, 8);
        cov.slide(&[0.0, 0.0], &[0.0, 0.0], 1);
    }

    /// Sensor archetypes the property test mixes: ordinary signals,
    /// exactly-constant sensors and near-constant (σ≈0) ones.
    fn sensor_value(archetype: usize, base: f64, t: usize, jitter: f64) -> f64 {
        match archetype % 3 {
            // Ordinary signal with O(100) magnitude.
            0 => base + 40.0 * ((t as f64 * 0.37) + base).sin() + jitter,
            // Exactly constant.
            1 => base,
            // Near-constant: large level, σ ≈ 1e-7.
            _ => base + 1e-7 * ((t as f64 * 0.53) + base).sin(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Satellite property: over random slide/retire sequences —
        /// including constant and near-constant sensors — every pairwise
        /// correlation matches direct `pearson` on the same window within
        /// 1e-9.
        #[test]
        fn prop_sliding_matches_pearson(
            bases in proptest::collection::vec((-100.0f64..100.0, 0usize..3), 2..6),
            w in 8usize..40,
            steps in proptest::collection::vec(1usize..12, 1..16),
            jitter_seed in 0u64..1000,
        ) {
            let n = bases.len();
            let total = w + steps.iter().sum::<usize>();
            let series: Vec<Vec<f64>> = bases
                .iter()
                .enumerate()
                .map(|(i, &(base, archetype))| {
                    (0..total)
                        .map(|t| {
                            let jitter = ((t * 31 + i * 17 + jitter_seed as usize) % 13) as f64
                                * 0.9
                                - 5.4;
                            sensor_value(archetype, base, t, jitter)
                        })
                        .collect()
                })
                .collect();
            let window_at = |start: usize| -> Vec<Vec<f64>> {
                series.iter().map(|r| r[start..start + w].to_vec()).collect()
            };
            let mut cov = SlidingCov::new(n, w);
            cov.rebuild(&flatten(&window_at(0)));
            let mut start = 0;
            for &s in &steps {
                let s = s.min(w);
                let incoming: Vec<f64> = series
                    .iter()
                    .flat_map(|r| r[start + w..start + w + s].iter().copied())
                    .collect();
                let outgoing: Vec<f64> = series
                    .iter()
                    .flat_map(|r| r[start..start + s].iter().copied())
                    .collect();
                cov.slide(&incoming, &outgoing, s);
                start += s;
                let window = window_at(start);
                for i in 0..n {
                    for j in (i + 1)..n {
                        let direct = pearson(&window[i], &window[j]);
                        let sliding = cov.correlation(i, j);
                        prop_assert!(
                            (direct - sliding).abs() <= 1e-9,
                            "pair ({},{}) after {} points: direct={} sliding={}",
                            i, j, start, direct, sliding
                        );
                    }
                }
            }
        }
    }
}
