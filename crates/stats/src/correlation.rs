//! Pearson correlation — the TSG edge weight (§III-B of the paper).
//!
//! The hot path of CAD computes every pair's correlation each round.
//! Correlation of two z-normalised vectors is just their dot product divided
//! by the length, so the TSG builder pre-normalises each sensor's window once
//! and then takes lane-parallel dot products over the packed upper triangle
//! ([`pearson_triangle_into`]); [`pearson_matrix_into`] is its full-matrix
//! adapter. [`pearson`], [`pearson_pairwise`] and
//! [`pearson_normalized`] are the sequential per-pair forms, and the
//! oracles the matrix path is tested against.

use cad_runtime::Timer;

use crate::descriptive::mean;
use crate::finish::{self, Triangle};
use crate::tiled::{dot8, gram_upper_tiled};

/// Pearson correlation coefficient of two equal-length slices.
///
/// Returns 0.0 when either side has (numerically) zero variance: a constant
/// sensor carries no correlation information, and the paper's pipeline
/// treats such sensors as uncorrelated rather than propagating NaN through
/// the TSG.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "pearson requires equal-length inputs");
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let ma = mean(a);
    let mb = mean(b);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for i in 0..n {
        let da = a[i] - ma;
        let db = b[i] - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    let denom = (va * vb).sqrt();
    if denom <= f64::EPSILON {
        0.0
    } else {
        (cov / denom).clamp(-1.0, 1.0)
    }
}

/// Pairwise-deletion Pearson: correlation over the sample positions where
/// *both* sides are non-NaN, ignoring every other position.
///
/// This is the reference oracle for the NaN-tolerant sliding accumulator
/// ([`crate::masked::MaskedSlidingCov`]). Conventions extend [`pearson`]'s:
/// fewer than two common samples → 0.0, a side that is (numerically)
/// constant over the common samples → 0.0, result clamped to [-1, 1].
pub fn pearson_pairwise(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "pearson_pairwise requires equal lengths");
    let mut c = 0usize;
    let (mut sa, mut sb) = (0.0, 0.0);
    for (&x, &y) in a.iter().zip(b) {
        if !x.is_nan() && !y.is_nan() {
            c += 1;
            sa += x;
            sb += y;
        }
    }
    if c < 2 {
        return 0.0;
    }
    let (ma, mb) = (sa / c as f64, sb / c as f64);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        if !x.is_nan() && !y.is_nan() {
            let da = x - ma;
            let db = y - mb;
            cov += da * db;
            va += da * da;
            vb += db * db;
        }
    }
    // The same per-side σ ≤ ε flatness screen as the sliding accumulators,
    // taken over the common samples only.
    let cf = c as f64;
    if (va / cf).sqrt() <= f64::EPSILON || (vb / cf).sqrt() <= f64::EPSILON {
        return 0.0;
    }
    let denom = (va * vb).sqrt();
    if denom <= f64::EPSILON {
        0.0
    } else {
        (cov / denom).clamp(-1.0, 1.0)
    }
}

/// Correlation of two vectors that are already z-normalised (mean 0,
/// population std 1): the scaled dot product. The caller promises the
/// precondition; `debug_assert`s check it in dev builds.
pub fn pearson_normalized(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(
        a.len() < 2 || mean(a).abs() < 1e-6,
        "input a not z-normalised"
    );
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    (dot / n as f64).clamp(-1.0, 1.0)
}

/// Z-normalise in place: subtract mean, divide by population std. A constant
/// slice becomes all zeros (its correlation with anything is then 0, matching
/// [`pearson`]'s degenerate-case convention).
pub fn znorm_in_place(xs: &mut [f64]) {
    let n = xs.len();
    if n == 0 {
        return;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64;
    let sd = var.sqrt();
    if sd <= f64::EPSILON {
        xs.iter_mut().for_each(|x| *x = 0.0);
    } else {
        xs.iter_mut().for_each(|x| *x = (*x - m) / sd);
    }
}

/// Z-normalised copy of a slice.
pub fn znormed(xs: &[f64]) -> Vec<f64> {
    let mut out = xs.to_vec();
    znorm_in_place(&mut out);
    out
}

/// Full symmetric `n × n` Pearson matrix over `n` pre-z-normalised rows
/// (row-major `rows`, each of length `w`), row-major output.
///
/// A thin allocating wrapper over [`pearson_matrix_into`], which holds the
/// arithmetic; round loops call that one with a buffer they keep.
pub fn pearson_matrix_normalized(rows: &[f64], n: usize, w: usize) -> Vec<f64> {
    let mut matrix = Vec::new();
    pearson_matrix_into(rows, n, w, &mut matrix);
    matrix
}

/// [`pearson_matrix_normalized`] into a caller-owned buffer, resized to
/// `n × n`: an adapter that writes [`pearson_triangle_into`]'s triangle
/// into the square buffer and mirrors it. The diagonal holds each row's
/// self-correlation (1.0, or 0.0 for an all-zero row, matching
/// [`pearson`]'s constant-input convention).
pub fn pearson_matrix_into(rows: &[f64], n: usize, w: usize, matrix: &mut Vec<f64>) {
    let mut tri = Triangle::new();
    pearson_triangle_into(rows, n, w, &mut tri);
    tri.write_matrix(matrix, |i| match w {
        0 | 1 => 0.0,
        _ => scaled_cell(
            dot8(&rows[i * w..(i + 1) * w], &rows[i * w..(i + 1) * w]),
            w as f64,
        ),
    });
}

/// Every pair's Pearson correlation over `n` pre-z-normalised rows
/// (row-major `rows`, each of length `w`), finished into `tri`.
///
/// This is the per-round hot path of exact TSG construction: one tiled
/// `Z·Zᵀ` Gram (`crate::tiled`: 32×32 upper-triangle tiles, lane-parallel
/// dots, tile-chunked parallelism) fills the packed triangle in place —
/// O(n²/2·w) — then each row is scaled and clamped, four cells per AVX
/// register where the CPU has it, and folded into the block maxima. Each
/// cell is a pure function of its pair, so the triangle is bit-identical
/// for every thread count.
pub fn pearson_triangle_into(rows: &[f64], n: usize, w: usize, tri: &mut Triangle) {
    pearson_triangle_with(rows, n, w, tri, finish::avx())
}

/// [`pearson_triangle_into`] with the finish body chosen by the caller.
fn pearson_triangle_with(rows: &[f64], n: usize, w: usize, tri: &mut Triangle, avx: bool) {
    assert_eq!(rows.len(), n * w, "rows must be n × w row-major");
    let cells = tri.sized(n);
    let _t = Timer::start("tsg.correlation.tiled");
    if w < 2 {
        // Degenerate windows carry no correlation information — the same
        // `n < 2 → 0.0` convention as [`pearson_normalized`].
        tri.finish_rows(|_, row| row.fill(0.0));
        return;
    }
    gram_upper_tiled(cells, rows, n, w, false);
    tri.finish_rows(|_, row| scale_row(row, w as f64, avx));
}

/// One exact-path cell: the normalised rows' dot over `w`, clamped.
#[inline]
fn scaled_cell(dot: f64, w: f64) -> f64 {
    (dot / w).clamp(-1.0, 1.0)
}

/// [`scaled_cell`] across a row in place; `avx` asks for the lane body,
/// bit-equal to the per-cell one, which runs where the CPU has AVX.
fn scale_row(row: &mut [f64], w: f64, avx: bool) {
    match avx && finish::avx() {
        // SAFETY: AVX support was just checked.
        #[cfg(target_arch = "x86_64")]
        true => unsafe { scale_row_avx(row, w) },
        _ => row.iter_mut().for_each(|c| *c = scaled_cell(*c, w)),
    }
}

/// [`scaled_cell`] across a row in place, four lanes per register.
///
/// # Safety
/// Caller must ensure the CPU supports AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn scale_row_avx(row: &mut [f64], w: f64) {
    use core::arch::x86_64::*;
    let wv = _mm256_set1_pd(w);
    let mut lanes = row.chunks_exact_mut(4);
    for cells in &mut lanes {
        // SAFETY: `cells` holds exactly four f64s.
        let q = _mm256_div_pd(_mm256_loadu_pd(cells.as_ptr()), wv);
        _mm256_storeu_pd(cells.as_mut_ptr(), finish::clamp_unit(q));
    }
    for c in lanes.into_remainder() {
        *c = scaled_cell(*c, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfectly_correlated() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfectly_anticorrelated() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [4.0, 3.0, 2.0, 1.0];
        assert!((pearson(&a, &b) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_input_gives_zero() {
        let a = [5.0; 8];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(pearson(&a, &b), 0.0);
        assert_eq!(pearson(&b, &a), 0.0);
    }

    #[test]
    fn shift_and_scale_invariance() {
        let a = [0.3, -1.2, 2.5, 0.0, 1.1];
        let b: Vec<f64> = a.iter().map(|x| 3.0 * x - 7.0).collect();
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn znorm_produces_zero_mean_unit_std() {
        let mut xs = vec![1.0, 4.0, 2.0, 8.0, 5.0];
        znorm_in_place(&mut xs);
        let m = mean(&xs);
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
        assert!(m.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn znorm_of_constant_is_zeros() {
        let mut xs = vec![7.0; 5];
        znorm_in_place(&mut xs);
        assert!(xs.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn normalized_matches_raw() {
        let a = [0.5, 2.0, -1.0, 3.0, 0.0, 1.5];
        let b = [1.0, 1.5, -0.5, 2.0, 0.2, 0.9];
        let raw = pearson(&a, &b);
        let fast = pearson_normalized(&znormed(&a), &znormed(&b));
        assert!((raw - fast).abs() < 1e-10, "raw={raw} fast={fast}");
    }

    #[test]
    fn short_inputs_give_zero() {
        assert_eq!(pearson(&[], &[]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn matrix_is_symmetric_with_unit_diagonal() {
        let n = 5;
        let w = 16;
        let rows: Vec<f64> = (0..n)
            .flat_map(|s| {
                znormed(
                    &(0..w)
                        .map(|t| (t as f64 * 0.3 + s as f64).cos())
                        .collect::<Vec<f64>>(),
                )
            })
            .collect();
        let m = pearson_matrix_normalized(&rows, n, w);
        for i in 0..n {
            assert!((m[i * n + i] - 1.0).abs() < 1e-12);
            for j in 0..n {
                assert_eq!(m[i * n + j].to_bits(), m[j * n + i].to_bits());
            }
        }
    }

    #[test]
    fn matrix_zero_row_gives_zero_correlations() {
        let n = 3;
        let w = 8;
        let mut rows = vec![0.0; n * w];
        for (t, v) in rows[w..2 * w].iter_mut().enumerate() {
            *v = (t as f64 * 0.9).sin();
        }
        znorm_in_place(&mut rows[w..2 * w]);
        rows[2 * w..].copy_from_slice(&znormed(
            &(0..w).map(|t| (t as f64 * 0.9).sin()).collect::<Vec<f64>>(),
        ));
        let m = pearson_matrix_normalized(&rows, n, w);
        assert_eq!(m[0], 0.0, "all-zero row self-correlation");
        assert_eq!(m[1], 0.0);
        assert!((m[n + 2] - 1.0).abs() < 1e-9, "rows 1 and 2 identical");
    }

    #[test]
    fn tiled_finish_is_bit_equal_per_cell() {
        // Both finish bodies against `scaled_cell` of the packed Gram, with
        // a zero row, a NaN row and over-scaled rows whose ratios clamp,
        // into a stale triangle; then the matrix adapter, diagonal
        // included.
        let w = 24;
        for n in crate::finish::TEST_SIZES {
            let rows: Vec<f64> = (0..n)
                .flat_map(|i| {
                    let row = znormed(
                        &(0..w)
                            .map(|t| ((t * 17 + i * 31) % 23) as f64 + (t as f64 * 0.11).sin())
                            .collect::<Vec<f64>>(),
                    );
                    row.into_iter().map(move |x| match i % 9 {
                        2 => 0.0,
                        4 => f64::NAN,
                        6 | 7 => 3.0 * x,
                        _ => x,
                    })
                })
                .collect();
            let mut packed = vec![0.0; crate::tiled::packed_len(n, true)];
            crate::tiled::gram_upper_tiled(&mut packed, &rows, n, w, true);
            let at = |i: usize, j: usize| i * (2 * n - i + 1) / 2 + (j - i);
            let want = |i: usize, j: usize| scaled_cell(packed[at(i.min(j), i.max(j))], w as f64);
            let mut bodies = vec![false];
            if crate::finish::avx() {
                bodies.push(true);
            }
            for avx in bodies {
                // A stale triangle over more vertices, then one over n.
                let mut tri = Triangle::from_matrix(&vec![f64::NAN; 4 * n * n], 2 * n);
                for _ in 0..2 {
                    pearson_triangle_with(&rows, n, w, &mut tri, avx);
                    let ctx = format!("n={n} avx={avx}");
                    crate::finish::assert_triangle_holds(&tri, n, want, &ctx);
                }
            }
            // The matrix adapter, diagonal included, into a stale buffer
            // larger than n².
            let mut m = vec![f64::NAN; 3 * n * n + 5];
            pearson_matrix_into(&rows, n, w, &mut m);
            assert_eq!(m.len(), n * n);
            for i in 0..n {
                for j in 0..n {
                    let ctx = format!("n={n} cell ({i},{j})");
                    assert_eq!(m[i * n + j].to_bits(), want(i, j).to_bits(), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn degenerate_windows_overwrite_a_stale_buffer_with_zeros() {
        let (n, w) = (5, 1);
        let rows = vec![1.0; n * w];
        let mut m = vec![f64::NAN; 40];
        pearson_matrix_into(&rows, n, w, &mut m);
        assert_eq!(m, vec![0.0; n * n]);
    }

    #[test]
    fn matrix_is_identical_across_thread_counts() {
        let n = 40;
        let w = 32;
        let rows: Vec<f64> = (0..n)
            .flat_map(|s| {
                znormed(
                    &(0..w)
                        .map(|t| ((t * 17 + s * 31) % 23) as f64 + (t as f64 * 0.11).sin())
                        .collect::<Vec<f64>>(),
                )
            })
            .collect();
        let serial =
            cad_runtime::with_thread_override(1, || pearson_matrix_normalized(&rows, n, w));
        let parallel =
            cad_runtime::with_thread_override(8, || pearson_matrix_normalized(&rows, n, w));
        let same = serial
            .iter()
            .zip(&parallel)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "matrix must be bit-identical for any thread count");
    }

    #[test]
    fn empty_matrix_is_empty() {
        assert!(pearson_matrix_normalized(&[], 0, 0).is_empty());
    }

    /// Raw (un-normalised) test sensor: archetype 0 is an ordinary signal,
    /// 1 is exactly constant, 2 is near-constant (large level, σ ≈ 1e-7) —
    /// the same degenerate shapes the sliding-accumulator suite stresses.
    fn raw_sensor(archetype: usize, s: usize, w: usize) -> Vec<f64> {
        (0..w)
            .map(|t| match archetype % 3 {
                0 => {
                    ((t + 3 * s) as f64 * (0.13 + 0.07 * (s % 5) as f64)).sin() * 40.0
                        + ((t * 31 + s * 17) % 13) as f64
                }
                1 => 7.5 + s as f64,
                // Near-constant: σ/level ≈ 2e-9, but σ itself stays far
                // enough above f64::EPSILON that the flatness tests of
                // `pearson` (Σd² ≤ ε) and `znorm_in_place` (√(Σd²/w) ≤ ε)
                // agree even at the smallest windows — right between those
                // thresholds the two paths legitimately classify a sensor
                // differently, which is a property of the seed conventions,
                // not of the kernels under test.
                _ => 500.0 + s as f64 + 1e-6 * ((t as f64 * 0.53) + s as f64).sin(),
            })
            .collect()
    }

    fn edge_case_rows(n: usize, w: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        // Sensor 0 constant and sensor 1 near-constant (when present) so
        // every tile-boundary shape also sees the degenerate conventions.
        let raw: Vec<Vec<f64>> = (0..n)
            .map(|s| {
                raw_sensor(
                    if s == 0 {
                        1
                    } else if s == 1 {
                        2
                    } else {
                        0
                    },
                    s,
                    w,
                )
            })
            .collect();
        let normed: Vec<f64> = raw.iter().flat_map(|r| znormed(r)).collect();
        (raw, normed)
    }

    /// The tiled kernel against the direct [`pearson`] oracle at every
    /// awkward `n` around the 32-row tile size — 1, 2, 31, 33, 255, 257 —
    /// with constant and near-constant sensors included, at ≤ 1e-12.
    #[test]
    fn tiled_matrix_matches_pearson_oracle_at_tile_edges() {
        let w = 48; // not a multiple of the 16-element dot chunk either
        for n in [1usize, 2, 31, 33, 255, 257] {
            let (raw, normed) = edge_case_rows(n, w);
            let m = pearson_matrix_normalized(&normed, n, w);
            for i in 0..n {
                for j in 0..n {
                    let direct = pearson(&raw[i], &raw[j]);
                    let got = m[i * n + j];
                    assert!(
                        (direct - got).abs() <= 1e-12,
                        "n={n} cell ({i},{j}): oracle={direct} tiled={got}"
                    );
                }
            }
        }
    }

    /// The matrix is thread-count invariant at non-tile-multiple sizes.
    #[test]
    fn matrix_is_thread_invariant_at_tile_edges() {
        let w = 33;
        for n in [31usize, 33] {
            let (_, normed) = edge_case_rows(n, w);
            let serial =
                cad_runtime::with_thread_override(1, || pearson_matrix_normalized(&normed, n, w));
            let parallel =
                cad_runtime::with_thread_override(8, || pearson_matrix_normalized(&normed, n, w));
            assert!(
                serial
                    .iter()
                    .zip(&parallel)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "n={n}: matrix must be bit-identical across thread counts"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_pearson_bounded(
            a in proptest::collection::vec(-1e6f64..1e6, 2..64),
        ) {
            let b: Vec<f64> = a.iter().rev().cloned().collect();
            let r = pearson(&a, &b);
            prop_assert!((-1.0..=1.0).contains(&r));
        }

        #[test]
        fn prop_pearson_symmetric(
            pair in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..64),
        ) {
            let a: Vec<f64> = pair.iter().map(|p| p.0).collect();
            let b: Vec<f64> = pair.iter().map(|p| p.1).collect();
            prop_assert!((pearson(&a, &b) - pearson(&b, &a)).abs() < 1e-12);
        }

        #[test]
        fn prop_self_correlation_is_one_or_zero(
            a in proptest::collection::vec(-1e3f64..1e3, 2..64),
        ) {
            let r = pearson(&a, &a);
            // 1.0 for any non-constant vector; 0.0 for a (near-)constant one.
            prop_assert!((r - 1.0).abs() < 1e-9 || r == 0.0);
        }

        /// The tiled kernel tracks the direct
        /// [`pearson`] oracle at ≤ 1e-12 for arbitrary sensor mixes —
        /// ordinary, exactly-constant and near-constant — at any `n`/`w`,
        /// divisible by the tile/lane sizes or not.
        #[test]
        fn prop_tiled_matrix_matches_pearson_oracle(
            archetypes in proptest::collection::vec(0usize..3, 1..40),
            w in 4usize..70,
        ) {
            let n = archetypes.len();
            let raw: Vec<Vec<f64>> = archetypes
                .iter()
                .enumerate()
                .map(|(s, &a)| raw_sensor(a, s, w))
                .collect();
            let normed: Vec<f64> = raw.iter().flat_map(|r| znormed(r)).collect();
            let m = pearson_matrix_normalized(&normed, n, w);
            for i in 0..n {
                for j in 0..n {
                    let direct = pearson(&raw[i], &raw[j]);
                    let got = m[i * n + j];
                    prop_assert!(
                        (direct - got).abs() <= 1e-12,
                        "n={} w={} cell ({},{}): oracle={} tiled={}",
                        n, w, i, j, direct, got
                    );
                }
            }
        }

        #[test]
        fn prop_znorm_normalized_matches_raw(
            pair in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 4..48),
        ) {
            let a: Vec<f64> = pair.iter().map(|p| p.0).collect();
            let b: Vec<f64> = pair.iter().map(|p| p.1).collect();
            let raw = pearson(&a, &b);
            let fast = pearson_normalized(&znormed(&a), &znormed(&b));
            prop_assert!((raw - fast).abs() < 1e-8);
        }
    }
}
