//! Sliding co-moment accumulator — the incremental round engine's core.
//!
//! CAD recomputes an n×n Pearson matrix every round even though consecutive
//! windows share `w − s` of their points. [`SlidingCov`] exploits that
//! overlap: it maintains per-sensor running sums `Σx, Σx²` and per-pair
//! `Σxy` over the current window, updated by *adding* the `s` incoming
//! points and *retiring* the `s` outgoing ones — O(n²·s) per round instead
//! of the from-scratch O(n²·w). The pair update is one call to the blocked
//! slide fold [`crate::tiled::fold_delta_upper`], which adds the incoming
//! Gram and subtracts the outgoing one in place, bit-equal to per-pair
//! `dot8` deltas.
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

use crate::finish::{self, pair_index, Triangle};
use crate::tiled::{dot8, fold_delta_upper, gram_upper_tiled};

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
    /// Centred window in [`Self::rebuild`], centred incoming/outgoing
    /// samples in [`Self::slide`].
    scratch: Vec<f64>,
    /// Transposed-partner scratch of the blocked slide kernel.
    partners: Vec<f64>,
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
        // Centred copy of the window: dev[i][t] = x − c_i.
        let mut dev = std::mem::take(&mut self.scratch);
        dev.clear();
        dev.resize(n * w, 0.0);
        for i in 0..n {
            let row = &rows[i * w..(i + 1) * w];
            let c = row.iter().sum::<f64>() / w as f64;
            self.anchors[i] = c;
            let out = &mut dev[i * w..(i + 1) * w];
            for (d, &x) in out.iter_mut().zip(row) {
                *d = x - c;
            }
            self.s1[i] = out.iter().sum();
            self.s2[i] = dot8(out, out);
        }
        // One Gram over the centred rows, the same 32×32 tile-chunked
        // `Z·Zᵀ` the exact correlation path uses — the packed output layout
        // *is* the sxy triangle.
        gram_upper_tiled(&mut self.sxy, &dev, n, w, false);
        self.scratch = dev;
        self.primed = true;
    }

    /// Advance the window: add `cols` incoming points per sensor and retire
    /// `cols` outgoing ones (both row-major `n × cols`, oldest first).
    /// O(n²·cols), tile-chunked across the `cad-runtime` pool with each cell
    /// updated by one task — thread-count invariant like every other hot
    /// path.
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
        // The blocked slide fold adds the incoming Gram and subtracts the
        // outgoing one in place, four partners per register, each cell
        // bit-equal to the per-pair `dot8(in_i, in_j) − dot8(out_i, out_j)`.
        let (cin, cout) = (&*cin, &*cout);
        fold_delta_upper(
            &mut self.sxy,
            n,
            cols,
            [cin, cin],
            [cout, cout],
            &mut self.partners,
        );
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
        let sxy = self.sxy[pair_index(self.n, lo, hi)];
        pair_cell(
            sxy,
            self.s1[lo],
            self.s1[hi],
            self.va(lo),
            self.va(hi),
            self.w as f64,
        )
    }

    /// Finish the round into `tri`: every pair's correlation in the packed
    /// triangle, with its block maxima. The engines' finish.
    pub fn correlation_triangle_into(&self, tri: &mut Triangle) {
        self.correlation_triangle_with(tri, finish::avx())
    }

    /// Fill `matrix` with the full symmetric `n × n` correlation matrix
    /// (diagonal 1.0, or 0.0 for a constant sensor — the same conventions
    /// as [`crate::correlation::pearson_matrix_normalized`]): an adapter
    /// that writes the triangle into a square buffer and mirrors it.
    pub fn correlation_matrix_into(&self, matrix: &mut Vec<f64>) {
        let mut tri = Triangle::new();
        self.correlation_triangle_into(&mut tri);
        tri.write_matrix(matrix, |i| if self.is_flat(i) { 0.0 } else { 1.0 });
    }

    /// [`Self::correlation_triangle_into`] with the finish body chosen by
    /// the caller: each row is written four cells per AVX register when
    /// `avx`, cell by cell otherwise.
    fn correlation_triangle_with(&self, tri: &mut Triangle, avx: bool) {
        assert!(self.primed, "correlation matrix before rebuild");
        let _t = Timer::start("sliding.matrix");
        let n = self.n;
        let w = self.w as f64;
        let va: Vec<f64> = (0..n).map(|i| self.va(i)).collect();
        let flat: Vec<f64> = (0..n).map(|i| finish::lane_flag(self.is_flat(i))).collect();
        tri.sized(n);
        let mut start = 0;
        tri.finish_rows(|i, upper| {
            let sxy = &self.sxy[start..start + upper.len()];
            start += upper.len();
            if flat[i].to_bits() != 0 {
                upper.fill(0.0);
                return;
            }
            let op = DenseRow {
                i,
                w,
                sxy,
                s1: &self.s1,
                va: &va,
                flat: &flat,
            };
            match avx {
                // SAFETY: the caller checked AVX support.
                #[cfg(target_arch = "x86_64")]
                true => unsafe { op.fill_avx(upper) },
                _ => upper
                    .iter_mut()
                    .enumerate()
                    .for_each(|(k, c)| *c = op.cell(k)),
            }
        });
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

/// The dense cell of a non-flat pair: the clamped Pearson ratio of the
/// pair's co-moment `sxy`, or 0.0 when the variance product is too small.
#[inline]
fn pair_cell(sxy: f64, s1i: f64, s1j: f64, vai: f64, vaj: f64, w: f64) -> f64 {
    let cov = sxy - s1i * s1j / w;
    let denom = (vai * vaj).sqrt();
    if denom <= f64::EPSILON {
        0.0
    } else {
        (cov / denom).clamp(-1.0, 1.0)
    }
}

/// Operands of one upper row `i` of the dense finish: cell `k` is the pair
/// `(i, i + 1 + k)`. `flat` holds [`finish::lane_flag`] masks.
struct DenseRow<'a> {
    i: usize,
    w: f64,
    sxy: &'a [f64],
    s1: &'a [f64],
    va: &'a [f64],
    flat: &'a [f64],
}

impl DenseRow<'_> {
    /// Cell `k`, per pair.
    #[inline]
    fn cell(&self, k: usize) -> f64 {
        let (i, j) = (self.i, self.i + 1 + k);
        if self.flat[j].to_bits() != 0 {
            return 0.0;
        }
        pair_cell(
            self.sxy[k],
            self.s1[i],
            self.s1[j],
            self.va[i],
            self.va[j],
            self.w,
        )
    }

    /// Every cell of the row, [`Self::cell`]'s arithmetic four lanes per
    /// register: both screens become masks over the computed ratio.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn fill_avx(&self, upper: &mut [f64]) {
        use core::arch::x86_64::*;
        let j0 = self.i + 1;
        assert!(upper.len() == self.sxy.len() && j0 + upper.len() <= self.s1.len());
        assert!(self.va.len() == self.s1.len() && self.flat.len() == self.s1.len());
        let s1i = _mm256_set1_pd(self.s1[self.i]);
        let vai = _mm256_set1_pd(self.va[self.i]);
        let w = _mm256_set1_pd(self.w);
        // SAFETY (every load): `fill_lanes` passes k + 4 ≤ upper.len(), so
        // k + 3 is inside `sxy` and j0 + k + 3 inside the per-sensor arrays.
        let at = |v: &[f64], k: usize| _mm256_loadu_pd(v.as_ptr().add(k));
        finish::fill_lanes(
            upper,
            |k| {
                let j = j0 + k;
                let cov = _mm256_sub_pd(
                    at(self.sxy, k),
                    _mm256_div_pd(_mm256_mul_pd(s1i, at(self.s1, j)), w),
                );
                let denom = _mm256_sqrt_pd(_mm256_mul_pd(vai, at(self.va, j)));
                let zero = _mm256_or_pd(finish::le_eps(denom), at(self.flat, j));
                _mm256_andnot_pd(zero, finish::clamp_unit(_mm256_div_pd(cov, denom)))
            },
            |k| self.cell(k),
        );
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
        // n = 4 folds every pair per pair; n = 33 takes the blocked fold
        // and straddles the 32-row tile edge.
        for (n, w, s, total) in [(4, 24, 6, 200), (33, 40, 7, 250)] {
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
                let ctx = format!("n={n} after slide to {start}");
                assert_matches_pearson(&cov, &window_at(start), 1e-10, &ctx);
            }
            assert!(start > 10 * s, "test must exercise many slides");
        }
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
        // Every cell and block maximum of both finish bodies, bit for bit,
        // against the per-pair view, after a slide, with a constant sensor,
        // an all-NaN one (its variance maps to 0.0) and a stale triangle.
        let (w, s) = (20, 3);
        for n in crate::finish::TEST_SIZES {
            let window: Vec<Vec<f64>> = (0..n)
                .map(|i| match i % 11 {
                    3 => vec![5.0; w + s],
                    7 => vec![f64::NAN; w + s],
                    _ => (0..w + s)
                        .map(|t| ((t * (i + 2)) as f64 * 0.13).cos() * (1.0 + i as f64))
                        .collect(),
                })
                .collect();
            let cols = |range: std::ops::Range<usize>| -> Vec<f64> {
                window
                    .iter()
                    .flat_map(|r| r[range.clone()].iter().copied())
                    .collect()
            };
            let mut cov = SlidingCov::new(n, w);
            cov.rebuild(&cols(0..w));
            cov.slide(&cols(w..w + s), &cols(0..s), s);
            let mut bodies = vec![false];
            if crate::finish::avx() {
                bodies.push(true);
            }
            for avx in bodies {
                // A stale triangle over more vertices, then one over n.
                let mut tri = Triangle::from_matrix(&vec![f64::NAN; 4 * n * n], 2 * n);
                for _ in 0..2 {
                    cov.correlation_triangle_with(&mut tri, avx);
                    let ctx = format!("n={n} avx={avx}");
                    crate::finish::assert_triangle_holds(
                        &tri,
                        n,
                        |i, j| cov.correlation(i, j),
                        &ctx,
                    );
                }
            }
            // The matrix adapter, diagonal included, into a stale buffer
            // larger than n².
            let mut matrix = vec![f64::NAN; 3 * n * n + 5];
            cov.correlation_matrix_into(&mut matrix);
            assert_eq!(matrix.len(), n * n);
            for i in 0..n {
                for j in 0..n {
                    let want = cov.correlation(i, j);
                    assert_eq!(
                        matrix[i * n + j].to_bits(),
                        want.to_bits(),
                        "n={n} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn slide_is_identical_across_thread_counts() {
        // Both shapes straddle the 32-row tile edge; (33, 40, 7) also runs
        // the blocked fold on a step narrower than one lane block.
        for (n, w, s) in [(40, 32, 8), (33, 40, 7)] {
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
                    let first: Vec<f64> =
                        series.iter().flat_map(|r| r[..w].iter().copied()).collect();
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
                "n={n}: sliding matrix must be bit-identical for any thread count"
            );
        }
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
