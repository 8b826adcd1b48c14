//! NaN-tolerant sliding co-moments — pairwise-deletion Pearson for
//! degraded streams.
//!
//! [`crate::sliding::SlidingCov`] assumes dense windows: a single NaN
//! poisons its co-moments forever. Real deployments duty-cycle sensors,
//! drop ticks and hot-plug sensors mid-stream, so the hostile-stream path
//! needs correlation over *whatever samples both sensors actually share*.
//! [`MaskedSlidingCov`] implements pairwise deletion incrementally: every
//! sample position carries an implicit validity mask (`x.is_nan()` ⇒
//! missing), and each pair `(i, j)` tracks its own sums over the positions
//! where **both** sensors are valid.
//!
//! ## The masked-row formulation
//!
//! Per sensor the window is expanded into three derived rows: the anchored
//! value row `v` (`x − c`, 0 where missing), the mask row `m` (1 where
//! valid, 0 where missing), and `v² = v·v`. Every per-pair sum is then a
//! plain dot product:
//!
//! | sum                        | dot                |
//! |----------------------------|--------------------|
//! | common count `c_ij`        | `m_i · m_j`        |
//! | `Σ v_i` over common        | `v_i · m_j`        |
//! | `Σ v_j` over common        | `v_j · m_i`        |
//! | `Σ v_i²` over common       | `v²_i · m_j`       |
//! | `Σ v_j²` over common       | `v²_j · m_i`       |
//! | `Σ v_i v_j`                | `v_i · v_j`        |
//!
//! which means the tiled SIMD kernel ([`crate::tiled`]) drives the masked
//! path exactly like the dense one — same lane-parallel dots, same
//! tile-chunked parallelism, same thread-count invariance. Slides add the
//! incoming dots and subtract the outgoing ones — six calls to the blocked
//! slide fold [`crate::tiled::fold_delta_upper`], one per triangle, with
//! every derived-row buffer kept in the accumulator's scratch; a missing
//! sample contributes zero everywhere, so retiring it is also zero.
//!
//! ## Conventions
//!
//! Correlation of a pair with fewer than two common samples is 0.0; a side
//! that is numerically constant over the common samples is 0.0 (the same
//! `σ ≤ ε` screen as the dense paths); results clamp to [-1, 1]. These
//! match [`crate::correlation::pearson_pairwise`], the direct oracle this
//! accumulator is property-tested against.
//!
//! ## Slots and churn
//!
//! The layout is *slot-mapped*: [`MaskedSlidingCov::reshape`] grows or
//! shrinks the sensor set in place. Kept slots keep their sums; new slots
//! start with zero counts — indistinguishable from a sensor whose whole
//! history was missing — so a freshly joined sensor warms up naturally as
//! real samples slide in, with no cold rebuild of the surviving pairs.

use cad_runtime::Timer;

use crate::finish::{self, pair_index, row_start, Triangle};
use crate::tiled::{dot8, fold_delta_upper, gram_upper_tiled, pair_upper_tiled};

/// Row `i` of a row-major block of rows of length `len`.
#[inline]
fn seg(block: &[f64], i: usize, len: usize) -> &[f64] {
    &block[i * len..(i + 1) * len]
}

/// Number of packed pairs for `n` sensors.
#[inline]
fn n_pairs(n: usize) -> usize {
    n.saturating_sub(1) * n / 2
}

/// Owned persistence snapshot of a [`MaskedSlidingCov`] (cad-stream v3).
#[derive(Debug, Clone, PartialEq)]
pub struct MaskedCovState {
    pub anchors: Vec<f64>,
    pub cnt: Vec<f64>,
    pub s1: Vec<f64>,
    pub q1: Vec<f64>,
    pub pc: Vec<f64>,
    pub psi: Vec<f64>,
    pub psj: Vec<f64>,
    pub pqi: Vec<f64>,
    pub pqj: Vec<f64>,
    pub psxy: Vec<f64>,
    pub primed: bool,
}

/// Pairwise-deletion sliding covariance/correlation over an `n`-slot
/// window of length `w`, tolerant of NaN (missing) samples.
#[derive(Debug, Clone)]
pub struct MaskedSlidingCov {
    n: usize,
    w: usize,
    /// Per-slot anchor `c` (mean of the slot's valid samples at the last
    /// rebuild; 0.0 for a slot with no valid history).
    anchors: Vec<f64>,
    /// Per-slot valid-sample count (integer-valued; exact in f64).
    cnt: Vec<f64>,
    /// Per-slot `Σ(x − c)` over the slot's own valid samples.
    s1: Vec<f64>,
    /// Per-slot `Σ(x − c)²` over the slot's own valid samples.
    q1: Vec<f64>,
    /// Per-pair common valid count `c_ij` (packed upper triangle).
    pc: Vec<f64>,
    /// Per-pair `Σ(x_i − c_i)` over common samples.
    psi: Vec<f64>,
    /// Per-pair `Σ(x_j − c_j)` over common samples.
    psj: Vec<f64>,
    /// Per-pair `Σ(x_i − c_i)²` over common samples.
    pqi: Vec<f64>,
    /// Per-pair `Σ(x_j − c_j)²` over common samples.
    pqj: Vec<f64>,
    /// Per-pair `Σ(x_i − c_i)(x_j − c_j)` over common samples.
    psxy: Vec<f64>,
    /// Whether a rebuild has primed the sums.
    primed: bool,
    /// Derived-row scratch: the window in [`Self::rebuild`], the incoming
    /// samples in [`Self::slide`].
    scratch: Vec<f64>,
    /// Derived rows of the retired samples in [`Self::slide`].
    out_scratch: Vec<f64>,
    /// Transposed-partner scratch of the blocked slide kernel.
    partners: Vec<f64>,
}

impl MaskedSlidingCov {
    /// Empty accumulator for `n` slots over windows of length `w`.
    pub fn new(n: usize, w: usize) -> Self {
        assert!(w >= 1, "window length must be positive");
        let p = n_pairs(n);
        Self {
            n,
            w,
            anchors: vec![0.0; n],
            cnt: vec![0.0; n],
            s1: vec![0.0; n],
            q1: vec![0.0; n],
            pc: vec![0.0; p],
            psi: vec![0.0; p],
            psj: vec![0.0; p],
            pqi: vec![0.0; p],
            pqj: vec![0.0; p],
            psxy: vec![0.0; p],
            primed: false,
            scratch: Vec::new(),
            out_scratch: Vec::new(),
            partners: Vec::new(),
        }
    }

    /// Number of slots.
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

    /// Valid (non-NaN) samples currently in slot `i`'s window.
    pub fn valid_count(&self, i: usize) -> usize {
        self.cnt[i] as usize
    }

    /// Samples where both `i` and `j` are valid in the current window.
    pub fn pair_valid_count(&self, i: usize, j: usize) -> usize {
        if i == j {
            return self.valid_count(i);
        }
        let (lo, hi) = (i.min(j), i.max(j));
        self.pc[pair_index(self.n, lo, hi)] as usize
    }

    /// Expand `rows` (row-major `n × w`, NaN = missing) into the derived
    /// `v`/`m`/`v²` rows against the current anchors. Layout: three
    /// consecutive `n × w` blocks in `buf`.
    fn derive_rows(anchors: &[f64], rows: &[f64], n: usize, w: usize, buf: &mut Vec<f64>) {
        buf.clear();
        buf.resize(3 * n * w, 0.0);
        let (vals, rest) = buf.split_at_mut(n * w);
        let (masks, sqs) = rest.split_at_mut(n * w);
        for i in 0..n {
            let c = anchors[i];
            let src = &rows[i * w..(i + 1) * w];
            for t in 0..w {
                let x = src[t];
                if x.is_nan() {
                    // All three derived rows stay 0: the sample contributes
                    // nothing to any sum.
                } else {
                    let v = x - c;
                    vals[i * w + t] = v;
                    masks[i * w + t] = 1.0;
                    sqs[i * w + t] = v * v;
                }
            }
        }
    }

    /// Recompute every sum exactly from the full window (`rows` is raw
    /// row-major `n × w`; NaN marks a missing sample). Re-anchors each slot
    /// on the mean of its *valid* samples — the NaN-tolerant Welford pass —
    /// resetting accumulated drift. O(n²·w), parallel across the
    /// `cad-runtime` pool, thread-count invariant.
    pub fn rebuild(&mut self, rows: &[f64]) {
        assert_eq!(rows.len(), self.n * self.w, "rows must be n × w row-major");
        let _t = Timer::start("masked.rebuild");
        let (n, w) = (self.n, self.w);
        for i in 0..n {
            let row = &rows[i * w..(i + 1) * w];
            let mut sum = 0.0;
            let mut cnt = 0.0;
            for &x in row {
                if !x.is_nan() {
                    sum += x;
                    cnt += 1.0;
                }
            }
            self.anchors[i] = if cnt > 0.0 { sum / cnt } else { 0.0 };
            self.cnt[i] = cnt;
        }
        let mut buf = std::mem::take(&mut self.scratch);
        Self::derive_rows(&self.anchors, rows, n, w, &mut buf);
        {
            let (vals, rest) = buf.split_at(n * w);
            let (masks, sqs) = rest.split_at(n * w);
            for i in 0..n {
                let (v, sq) = (seg(vals, i, w), seg(sqs, i, w));
                self.s1[i] = v.iter().sum();
                self.q1[i] = dot8(sq, seg(masks, i, w));
            }
            // Each triangle is filled in place (see the table in the module
            // docs).
            gram_upper_tiled(&mut self.psxy, vals, n, w, false);
            gram_upper_tiled(&mut self.pc, masks, n, w, false);
            let pair = |out: &mut [f64], a: &[f64], b: &[f64]| {
                pair_upper_tiled(out, n, false, |i, j| dot8(seg(a, i, w), seg(b, j, w)))
            };
            pair(&mut self.psi, vals, masks);
            pair(&mut self.psj, masks, vals);
            pair(&mut self.pqi, sqs, masks);
            pair(&mut self.pqj, masks, sqs);
        }
        self.scratch = buf;
        self.primed = true;
    }

    /// Advance the window: add `cols` incoming points per slot and retire
    /// `cols` outgoing ones (both row-major `n × cols`, oldest first, NaN =
    /// missing). O(n²·cols), thread-count invariant.
    pub fn slide(&mut self, incoming: &[f64], outgoing: &[f64], cols: usize) {
        assert!(self.primed, "slide before rebuild");
        assert_eq!(incoming.len(), self.n * cols, "incoming must be n × cols");
        assert_eq!(outgoing.len(), self.n * cols, "outgoing must be n × cols");
        let _t = Timer::start("masked.slide");
        let n = self.n;
        // Re-anchor any slot that has no valid history: its sums are all
        // zero, so the anchor is a free choice — and anchoring on the first
        // real samples (instead of the 0.0 a joiner inherits) keeps the
        // conditioning trick working for slots that join mid-stream far
        // from zero. Without this, a constant joiner's variance is pure
        // catastrophic cancellation and the flatness screen breaks.
        for i in 0..n {
            if self.cnt[i] == 0.0 {
                let row = &incoming[i * cols..(i + 1) * cols];
                let mut sum = 0.0;
                let mut k = 0.0;
                for &x in row {
                    if !x.is_nan() {
                        sum += x;
                        k += 1.0;
                    }
                }
                if k > 0.0 {
                    self.anchors[i] = sum / k;
                }
            }
        }
        Self::derive_rows(&self.anchors, incoming, n, cols, &mut self.scratch);
        Self::derive_rows(&self.anchors, outgoing, n, cols, &mut self.out_scratch);
        {
            let (iv, rest) = self.scratch.split_at(n * cols);
            let (im, iq) = rest.split_at(n * cols);
            let (ov, rest) = self.out_scratch.split_at(n * cols);
            let (om, oq) = rest.split_at(n * cols);
            for i in 0..n {
                for t in 0..cols {
                    let (vi, vo) = (iv[i * cols + t], ov[i * cols + t]);
                    self.s1[i] += vi - vo;
                    self.q1[i] += vi * vi - vo * vo;
                    self.cnt[i] += im[i * cols + t] - om[i * cols + t];
                }
            }
            // Six blocked slide folds, one per co-moment triangle (see the
            // table in the module docs).
            let partners = &mut self.partners;
            let mut fold = |acc: &mut [f64], a, b, oa, ob| {
                fold_delta_upper(acc, n, cols, [a, b], [oa, ob], partners)
            };
            fold(&mut self.pc, im, im, om, om);
            fold(&mut self.psi, iv, im, ov, om);
            fold(&mut self.psj, im, iv, om, ov);
            fold(&mut self.pqi, iq, im, oq, om);
            fold(&mut self.pqj, im, iq, om, oq);
            fold(&mut self.psxy, iv, iv, ov, ov);
        }
    }

    /// Centred variance sum `Σ(x − m)²` of slot `i` over its own valid
    /// samples (non-negative).
    #[inline]
    fn va_own(&self, i: usize) -> f64 {
        if self.cnt[i] < 1.0 {
            return 0.0;
        }
        (self.q1[i] - self.s1[i] * self.s1[i] / self.cnt[i]).max(0.0)
    }

    /// Whether slot `i` is numerically constant over its valid samples.
    #[inline]
    fn is_flat_own(&self, i: usize) -> bool {
        self.cnt[i] < 2.0 || (self.va_own(i) / self.cnt[i]).sqrt() <= f64::EPSILON
    }

    /// Pairwise-deletion Pearson correlation of slots `i` and `j` from the
    /// current sums. Conventions match
    /// [`crate::correlation::pearson_pairwise`].
    pub fn correlation(&self, i: usize, j: usize) -> f64 {
        assert!(self.primed, "correlation before rebuild");
        if i == j {
            return if self.is_flat_own(i) { 0.0 } else { 1.0 };
        }
        let (lo, hi) = (i.min(j), i.max(j));
        self.pair_row(pair_index(self.n, lo, hi), 1).cell(0)
    }

    /// The packed sums of `len` pairs starting at offset `p`.
    fn pair_row(&self, p: usize, len: usize) -> PairRow<'_> {
        PairRow {
            pc: &self.pc[p..p + len],
            psi: &self.psi[p..p + len],
            psj: &self.psj[p..p + len],
            pqi: &self.pqi[p..p + len],
            pqj: &self.pqj[p..p + len],
            psxy: &self.psxy[p..p + len],
        }
    }

    /// Finish the round into `tri`: every pair's correlation in the packed
    /// triangle, with its block maxima. The engines' finish.
    pub fn correlation_triangle_into(&self, tri: &mut Triangle) {
        self.correlation_triangle_with(tri, finish::avx())
    }

    /// Fill `matrix` with the full symmetric `n × n` correlation matrix
    /// (diagonal 1.0, or 0.0 for a constant/under-observed slot): an
    /// adapter that writes the triangle into a square buffer and mirrors
    /// it.
    pub fn correlation_matrix_into(&self, matrix: &mut Vec<f64>) {
        let mut tri = Triangle::new();
        self.correlation_triangle_into(&mut tri);
        tri.write_matrix(matrix, |i| if self.is_flat_own(i) { 0.0 } else { 1.0 });
    }

    /// [`Self::correlation_triangle_into`] with the finish body chosen by
    /// the caller: each row is written four cells per AVX register when
    /// `avx`, cell by cell otherwise.
    fn correlation_triangle_with(&self, tri: &mut Triangle, avx: bool) {
        assert!(self.primed, "correlation matrix before rebuild");
        let _t = Timer::start("masked.matrix");
        let n = self.n;
        tri.sized(n);
        tri.finish_rows(|i, upper| {
            let op = self.pair_row(row_start(n, i), upper.len());
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

    /// Grow or shrink the slot set in place. Slots `< min(n, new_n)` keep
    /// their sums and pair state; new slots start empty (zero counts —
    /// equivalent to a slot whose entire history was missing). Stays primed
    /// if it was: surviving pairs keep sliding with no rebuild.
    pub fn reshape(&mut self, new_n: usize) {
        let old_n = self.n;
        if new_n == old_n {
            return;
        }
        let keep = old_n.min(new_n);
        let resize_slot = |v: &mut Vec<f64>| v.resize(new_n, 0.0);
        resize_slot(&mut self.anchors);
        resize_slot(&mut self.cnt);
        resize_slot(&mut self.s1);
        resize_slot(&mut self.q1);
        let repack = |old: &Vec<f64>| -> Vec<f64> {
            let mut fresh = vec![0.0; n_pairs(new_n)];
            for i in 0..keep {
                for j in (i + 1)..keep {
                    fresh[pair_index(new_n, i, j)] = old[pair_index(old_n, i, j)];
                }
            }
            fresh
        };
        self.pc = repack(&self.pc);
        self.psi = repack(&self.psi);
        self.psj = repack(&self.psj);
        self.pqi = repack(&self.pqi);
        self.pqj = repack(&self.pqj);
        self.psxy = repack(&self.psxy);
        self.n = new_n;
    }

    /// Owned persistence snapshot.
    pub fn to_state(&self) -> MaskedCovState {
        MaskedCovState {
            anchors: self.anchors.clone(),
            cnt: self.cnt.clone(),
            s1: self.s1.clone(),
            q1: self.q1.clone(),
            pc: self.pc.clone(),
            psi: self.psi.clone(),
            psj: self.psj.clone(),
            pqi: self.pqi.clone(),
            pqj: self.pqj.clone(),
            psxy: self.psxy.clone(),
            primed: self.primed,
        }
    }

    /// Restore an accumulator persisted via [`Self::to_state`].
    pub fn from_state(n: usize, w: usize, st: MaskedCovState) -> Self {
        assert!(w >= 1, "window length must be positive");
        let p = n_pairs(n);
        assert_eq!(st.anchors.len(), n, "anchors length mismatch");
        assert_eq!(st.cnt.len(), n, "cnt length mismatch");
        assert_eq!(st.s1.len(), n, "s1 length mismatch");
        assert_eq!(st.q1.len(), n, "q1 length mismatch");
        for (name, tri) in [
            ("pc", &st.pc),
            ("psi", &st.psi),
            ("psj", &st.psj),
            ("pqi", &st.pqi),
            ("pqj", &st.pqj),
            ("psxy", &st.psxy),
        ] {
            assert_eq!(tri.len(), p, "{name} length mismatch");
        }
        Self {
            n,
            w,
            anchors: st.anchors,
            cnt: st.cnt,
            s1: st.s1,
            q1: st.q1,
            pc: st.pc,
            psi: st.psi,
            psj: st.psj,
            pqi: st.pqi,
            pqj: st.pqj,
            psxy: st.psxy,
            primed: st.primed,
            scratch: Vec::new(),
            out_scratch: Vec::new(),
            partners: Vec::new(),
        }
    }
}

/// A run of consecutive packed pairs — one upper row of the finish, or a
/// single pair — with cell `k` read from offset `k` of every sum.
struct PairRow<'a> {
    pc: &'a [f64],
    psi: &'a [f64],
    psj: &'a [f64],
    pqi: &'a [f64],
    pqj: &'a [f64],
    psxy: &'a [f64],
}

impl PairRow<'_> {
    /// Cell `k`: 0.0 under two common samples or with a constant side,
    /// else the clamped pairwise-deletion Pearson ratio.
    #[inline]
    fn cell(&self, k: usize) -> f64 {
        let c = self.pc[k];
        if c < 2.0 {
            return 0.0;
        }
        let (si, sj) = (self.psi[k], self.psj[k]);
        let vi = (self.pqi[k] - si * si / c).max(0.0);
        let vj = (self.pqj[k] - sj * sj / c).max(0.0);
        if (vi / c).sqrt() <= f64::EPSILON || (vj / c).sqrt() <= f64::EPSILON {
            return 0.0;
        }
        let cov = self.psxy[k] - si * sj / c;
        let denom = (vi * vj).sqrt();
        if denom <= f64::EPSILON {
            0.0
        } else {
            (cov / denom).clamp(-1.0, 1.0)
        }
    }

    /// Every cell of the row, [`Self::cell`]'s arithmetic four lanes per
    /// register: the four screens become one mask over the computed ratio.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn fill_avx(&self, upper: &mut [f64]) {
        use core::arch::x86_64::*;
        let len = upper.len();
        for sums in [self.pc, self.psi, self.psj, self.pqi, self.pqj, self.psxy] {
            assert_eq!(sums.len(), len, "pair sums cover the row");
        }
        // SAFETY (every load): `fill_lanes` passes k + 4 ≤ len.
        let at = |v: &[f64], k: usize| _mm256_loadu_pd(v.as_ptr().add(k));
        let two = _mm256_set1_pd(2.0);
        finish::fill_lanes(
            upper,
            |k| {
                let c = at(self.pc, k);
                let (si, sj) = (at(self.psi, k), at(self.psj, k));
                let var = |q: __m256d, s: __m256d| {
                    finish::max_zero(_mm256_sub_pd(q, _mm256_div_pd(_mm256_mul_pd(s, s), c)))
                };
                let (vi, vj) = (var(at(self.pqi, k), si), var(at(self.pqj, k), sj));
                let flat = |v: __m256d| finish::le_eps(_mm256_sqrt_pd(_mm256_div_pd(v, c)));
                let cov = _mm256_sub_pd(at(self.psxy, k), _mm256_div_pd(_mm256_mul_pd(si, sj), c));
                let denom = _mm256_sqrt_pd(_mm256_mul_pd(vi, vj));
                let zero = _mm256_or_pd(
                    _mm256_or_pd(_mm256_cmp_pd(c, two, _CMP_LT_OQ), finish::le_eps(denom)),
                    _mm256_or_pd(flat(vi), flat(vj)),
                );
                _mm256_andnot_pd(zero, finish::clamp_unit(_mm256_div_pd(cov, denom)))
            },
            |k| self.cell(k),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::pearson_pairwise;
    use proptest::prelude::*;

    fn flatten(window: &[Vec<f64>]) -> Vec<f64> {
        window.iter().flat_map(|r| r.iter().copied()).collect()
    }

    fn assert_matches_oracle(cov: &MaskedSlidingCov, window: &[Vec<f64>], tol: f64, ctx: &str) {
        let n = window.len();
        for i in 0..n {
            for j in (i + 1)..n {
                let direct = pearson_pairwise(&window[i], &window[j]);
                let masked = cov.correlation(i, j);
                assert!(
                    (direct - masked).abs() <= tol,
                    "{ctx}: pair ({i},{j}) direct={direct} masked={masked}"
                );
            }
        }
    }

    /// Deterministic hole pattern: sample `t` of sensor `i` is missing.
    fn holed(i: usize, t: usize, x: f64) -> f64 {
        if (t * 7 + i * 13).is_multiple_of(5) {
            f64::NAN
        } else {
            x
        }
    }

    fn series(n: usize, total: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..total)
                    .map(|t| {
                        let x = ((t as f64) * (0.11 + 0.045 * i as f64) + i as f64).sin() * 10.0
                            + ((t * 13 + i * 7) % 29) as f64;
                        holed(i, t, x)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn rebuild_matches_pairwise_oracle() {
        let (n, w) = (6, 32);
        let window: Vec<Vec<f64>> = series(n, w);
        let mut cov = MaskedSlidingCov::new(n, w);
        cov.rebuild(&flatten(&window));
        assert_matches_oracle(&cov, &window, 1e-12, "after rebuild");
    }

    #[test]
    fn matrix_agrees_with_pairwise() {
        // Every cell and block maximum of both finish bodies, bit for bit,
        // against the pairwise view, after a slide, with holes, an
        // all-missing slot, a constant slot, a single-sample slot, two
        // slots that never share a sample, and a stale triangle.
        let (w, s) = (24, 5);
        for n in crate::finish::TEST_SIZES {
            let mut data = series(n, w + s);
            for (i, row) in data.iter_mut().enumerate() {
                match i % 13 {
                    3 => row.iter_mut().for_each(|x| *x = f64::NAN),
                    5 => row.iter_mut().for_each(|x| *x = 5.0),
                    // One valid sample, in the incoming columns.
                    6 => {
                        row.iter_mut().for_each(|x| *x = f64::NAN);
                        row[w] = 2.0;
                    }
                    // Valid on even and on odd samples only: no common ones.
                    8 | 9 => {
                        for (t, x) in row.iter_mut().enumerate() {
                            if t % 2 == i % 2 {
                                *x = f64::NAN;
                            }
                        }
                    }
                    _ => {}
                }
            }
            let cols = |range: std::ops::Range<usize>| -> Vec<f64> {
                data.iter()
                    .flat_map(|r| r[range.clone()].iter().copied())
                    .collect()
            };
            let mut cov = MaskedSlidingCov::new(n, w);
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
    fn slide_tracks_moving_window_with_holes() {
        // n = 5 folds every pair per pair; n = 33 takes the blocked fold
        // and straddles the 32-row tile edge.
        for (n, w, s, total) in [(5, 24, 6, 180), (33, 40, 7, 215)] {
            let data = series(n, total);
            let window_at =
                |a: usize| -> Vec<Vec<f64>> { data.iter().map(|r| r[a..a + w].to_vec()).collect() };
            let mut cov = MaskedSlidingCov::new(n, w);
            cov.rebuild(&flatten(&window_at(0)));
            let mut a = 0;
            while a + s + w <= total {
                let incoming: Vec<f64> = data
                    .iter()
                    .flat_map(|r| r[a + w..a + w + s].iter().copied())
                    .collect();
                let outgoing: Vec<f64> = data
                    .iter()
                    .flat_map(|r| r[a..a + s].iter().copied())
                    .collect();
                cov.slide(&incoming, &outgoing, s);
                a += s;
                let ctx = format!("n={n} after slide to {a}");
                assert_matches_oracle(&cov, &window_at(a), 1e-10, &ctx);
            }
            assert!(a > 10 * s, "test must exercise many slides");
        }
    }

    #[test]
    fn degenerate_pairs_follow_conventions() {
        let w = 16;
        let window = vec![
            vec![f64::NAN; w],                                          // all missing
            (0..w).map(|t| (t as f64 * 0.4).sin()).collect::<Vec<_>>(), // signal
            vec![5.0; w],                                               // constant
            (0..w)
                .map(|t| if t == 3 { 2.0 } else { f64::NAN })
                .collect::<Vec<_>>(), // one sample
        ];
        let mut cov = MaskedSlidingCov::new(4, w);
        cov.rebuild(&flatten(&window));
        assert_eq!(cov.correlation(0, 1), 0.0, "all-NaN pair");
        assert_eq!(cov.correlation(0, 0), 0.0, "all-NaN diagonal");
        assert_eq!(cov.correlation(2, 1), 0.0, "constant sensor");
        assert_eq!(cov.correlation(2, 2), 0.0, "constant diagonal");
        assert_eq!(cov.correlation(3, 1), 0.0, "single common sample");
        assert_eq!(cov.correlation(1, 1), 1.0);
        assert_eq!(cov.valid_count(0), 0);
        assert_eq!(cov.valid_count(3), 1);
        assert_eq!(cov.pair_valid_count(0, 1), 0);
        assert_eq!(cov.pair_valid_count(3, 1), 1);
    }

    #[test]
    fn thread_counts_are_bit_identical() {
        let (n, w, s) = (40, 32, 8);
        let make = |threads: usize| {
            cad_runtime::with_thread_override(threads, || {
                let data = series(n, w + 3 * s);
                let mut cov = MaskedSlidingCov::new(n, w);
                cov.rebuild(&flatten(
                    &data.iter().map(|r| r[..w].to_vec()).collect::<Vec<_>>(),
                ));
                for k in 0..3 {
                    let a = k * s;
                    let incoming: Vec<f64> = data
                        .iter()
                        .flat_map(|r| r[a + w..a + w + s].iter().copied())
                        .collect();
                    let outgoing: Vec<f64> = data
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
            "masked matrix must be bit-identical for any thread count"
        );
    }

    #[test]
    fn reshape_grows_and_shrinks_without_rebuild() {
        let (n, w, s, total) = (4, 20, 5, 120);
        let grown = 6;
        // Full series at the grown width; the first `n` sensors exist from
        // t=0, the joiners' history before the grow point is missing.
        let data = series(grown, total);
        let join_at = w + 2 * s;
        let mut cov = MaskedSlidingCov::new(n, w);
        let first: Vec<f64> = data[..n]
            .iter()
            .flat_map(|r| r[..w].iter().copied())
            .collect();
        cov.rebuild(&first);
        let mut a = 0;
        while a + 2 * s + w <= total {
            let width = cov.n_sensors();
            if a + w == join_at {
                cov.reshape(grown);
                assert!(cov.is_primed(), "reshape must not un-prime");
            }
            let width_now = cov.n_sensors().max(width);
            let value = |i: usize, t: usize| -> f64 {
                // Joiners have no samples before the join tick.
                if i >= n && t < join_at {
                    f64::NAN
                } else {
                    data[i][t]
                }
            };
            let incoming: Vec<f64> = (0..width_now)
                .flat_map(|i| (a + w..a + w + s).map(move |t| (i, t)))
                .map(|(i, t)| value(i, t))
                .collect();
            let outgoing: Vec<f64> = (0..width_now)
                .flat_map(|i| (a..a + s).map(move |t| (i, t)))
                .map(|(i, t)| value(i, t))
                .collect();
            cov.slide(&incoming, &outgoing, s);
            a += s;
            let window: Vec<Vec<f64>> = (0..cov.n_sensors())
                .map(|i| (a..a + w).map(|t| value(i, t)).collect())
                .collect();
            assert_matches_oracle(&cov, &window, 1e-10, "after churn slide");
        }
        // Shrink back below the original width and keep sliding.
        cov.reshape(3);
        assert_eq!(cov.n_sensors(), 3);
        let incoming: Vec<f64> = (0..3)
            .flat_map(|i| (a + w..a + w + s).map(move |t| (i, t)))
            .map(|(i, t)| data[i][t])
            .collect();
        let outgoing: Vec<f64> = (0..3)
            .flat_map(|i| (a..a + s).map(move |t| (i, t)))
            .map(|(i, t)| data[i][t])
            .collect();
        cov.slide(&incoming, &outgoing, s);
        a += s;
        let window: Vec<Vec<f64>> = (0..3).map(|i| data[i][a..a + w].to_vec()).collect();
        assert_matches_oracle(&cov, &window, 1e-10, "after shrink slide");
    }

    #[test]
    fn state_roundtrip_is_exact() {
        let (n, w) = (4, 16);
        let window = series(n, w);
        let mut cov = MaskedSlidingCov::new(n, w);
        cov.rebuild(&flatten(&window));
        let restored = MaskedSlidingCov::from_state(n, w, cov.to_state());
        for i in 0..n {
            for j in 0..n {
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
        let mut cov = MaskedSlidingCov::new(2, 8);
        cov.slide(&[0.0, 0.0], &[0.0, 0.0], 1);
    }

    /// Sensor archetypes for the property test: ordinary signals with NaN
    /// holes, exactly-constant sensors, duty-cycled sensors (long NaN
    /// stretches) and all-NaN sensors.
    fn hostile_value(archetype: usize, base: f64, i: usize, t: usize) -> f64 {
        match archetype % 4 {
            0 => {
                let x = base
                    + 40.0 * ((t as f64 * 0.37) + base).sin()
                    + ((t * 31 + i * 17) % 13) as f64 * 0.9;
                holed(i, t, x)
            }
            1 => base,
            2 => {
                // Duty-cycled: 60% off.
                if (t / 5) % 5 < 3 {
                    f64::NAN
                } else {
                    base + ((t as f64) * 0.7).cos() * 3.0
                }
            }
            _ => f64::NAN,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]
        /// Satellite property: over random slide sequences with NaN holes,
        /// all-NaN sensors, constants and mid-run churn at tile-edge slot
        /// counts (31/32/33 — straddling the 32-row tile boundary so the
        /// tiled kernel path is exercised), every pairwise correlation
        /// matches the direct pairwise-deletion oracle within 1e-9.
        #[test]
        fn prop_masked_matches_pairwise_oracle(
            n0 in 31usize..34,
            archetypes in proptest::collection::vec(0usize..4, 34),
            bases in proptest::collection::vec(-50.0f64..50.0, 34),
            w in 8usize..24,
            steps in proptest::collection::vec(1usize..8, 1..6),
            churn_step in 0usize..6,
        ) {
            let n_max = 34usize;
            // Churn grows n0 → n0+1 at `churn_step` (if the run is long
            // enough), crossing the tile edge for n0 ∈ {31, 32, 33}.
            let joined_at: Vec<usize> = (0..n_max)
                .map(|i| if i < n0 { 0 } else { usize::MAX })
                .collect();
            let value = |i: usize, t: usize, joined: usize| -> f64 {
                if t < joined {
                    f64::NAN
                } else {
                    hostile_value(archetypes[i], bases[i], i, t)
                }
            };
            let mut cov = MaskedSlidingCov::new(n0, w);
            let first: Vec<f64> = (0..n0)
                .flat_map(|i| (0..w).map(move |t| (i, t)))
                .map(|(i, t)| value(i, t, joined_at[i]))
                .collect();
            cov.rebuild(&first);
            let mut joined = joined_at;
            let mut a = 0usize;
            for (step_idx, &s) in steps.iter().enumerate() {
                let s = s.min(w);
                if step_idx == churn_step {
                    joined[n0] = a + w;
                    cov.reshape(n0 + 1);
                }
                let width = cov.n_sensors();
                let incoming: Vec<f64> = (0..width)
                    .flat_map(|i| (a + w..a + w + s).map(move |t| (i, t)))
                    .map(|(i, t)| value(i, t, joined[i]))
                    .collect();
                let outgoing: Vec<f64> = (0..width)
                    .flat_map(|i| (a..a + s).map(move |t| (i, t)))
                    .map(|(i, t)| value(i, t, joined[i]))
                    .collect();
                cov.slide(&incoming, &outgoing, s);
                a += s;
                let window: Vec<Vec<f64>> = (0..width)
                    .map(|i| (a..a + w).map(|t| value(i, t, joined[i])).collect())
                    .collect();
                for i in 0..width {
                    for j in (i + 1)..width {
                        let direct = pearson_pairwise(&window[i], &window[j]);
                        let masked = cov.correlation(i, j);
                        prop_assert!(
                            (direct - masked).abs() <= 1e-9,
                            "pair ({},{}) after {} points: direct={} masked={} arch=({},{}) bases=({},{}) w={} c={} steps={:?} churn={}",
                            i, j, a, direct, masked,
                            archetypes[i], archetypes[j], bases[i], bases[j], w,
                            cov.pair_valid_count(i, j), steps, churn_step
                        );
                    }
                }
            }
        }
    }
}
