//! Pearson correlation — the TSG edge weight (§III-B of the paper).
//!
//! The hot path of CAD computes an n×n correlation matrix for every round.
//! Correlation of two z-normalised vectors is just their dot product divided
//! by the length, so the TSG builder pre-normalises each sensor's window once
//! and then calls [`pearson_normalized`] per pair. [`pearson`] is the
//! self-contained variant for callers that have raw readings.

use cad_runtime::Timer;

use crate::descriptive::mean;
use crate::finish;
use crate::tiled::{active_kernel, gram_upper_tiled, Kernel};

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
/// This is the per-round hot path of TSG construction: only the upper
/// triangle is computed — O(n²/2·w) instead of the O(n²·w) of per-vertex
/// rescans — in parallel across the `cad-runtime` pool, then mirrored.
/// Each cell is a pure function of its pair, so the matrix is bit-identical
/// for every thread count. The diagonal holds each row's self-correlation
/// (1.0, or 0.0 for an all-zero row, matching [`pearson`]'s
/// constant-input convention).
///
/// Dispatches on [`active_kernel`]: the default tiled SIMD kernel
/// (`crate::tiled`, 32×32 upper-triangle tiles, lane-parallel dots,
/// tile-chunked parallelism) or the seed scalar kernel (`CAD_KERNEL=scalar`:
/// sequential per-pair sums, row-chunked parallelism). Both are
/// thread-count invariant; they differ only in floating-point summation
/// order (~1e-14).
pub fn pearson_matrix_normalized(rows: &[f64], n: usize, w: usize) -> Vec<f64> {
    assert_eq!(rows.len(), n * w, "rows must be n × w row-major");
    match active_kernel() {
        Kernel::Tiled => pearson_matrix_tiled(rows, n, w),
        Kernel::Scalar => pearson_matrix_scalar(rows, n, w),
    }
}

/// Tiled-kernel matrix path: one `Z·Zᵀ` Gram over the contiguous
/// z-normalised buffer, tile-parallel, then scale/clamp/mirror.
fn pearson_matrix_tiled(rows: &[f64], n: usize, w: usize) -> Vec<f64> {
    pearson_matrix_tiled_with(rows, n, w, finish::avx())
}

/// [`pearson_matrix_tiled`] with the finish body chosen by the caller:
/// each upper row (diagonal first) is scaled and clamped from the packed
/// Gram, four cells per AVX register when `avx`, then mirrored.
fn pearson_matrix_tiled_with(rows: &[f64], n: usize, w: usize, avx: bool) -> Vec<f64> {
    let mut matrix = vec![0.0; n * n];
    if n == 0 {
        return matrix;
    }
    let _t = Timer::start("tsg.correlation.tiled");
    if w < 2 {
        // Degenerate windows carry no correlation information — the same
        // `n < 2 → 0.0` convention as [`pearson_normalized`].
        return matrix;
    }
    let packed = gram_upper_tiled(rows, n, w, true);
    let w_f = w as f64;
    let mut start = 0;
    for i in 0..n {
        let src = &packed[start..start + n - i];
        start += n - i;
        let row = &mut matrix[i * n + i..(i + 1) * n];
        match avx {
            // SAFETY: the caller checked AVX support.
            #[cfg(target_arch = "x86_64")]
            true => unsafe { scaled_row_avx(row, src, w_f) },
            _ => row
                .iter_mut()
                .zip(src)
                .for_each(|(c, &dot)| *c = scaled_cell(dot, w_f)),
        }
    }
    finish::mirror_lower(&mut matrix, n);
    matrix
}

/// One exact-path cell: the normalised rows' dot over `w`, clamped.
#[inline]
fn scaled_cell(dot: f64, w: f64) -> f64 {
    (dot / w).clamp(-1.0, 1.0)
}

/// [`scaled_cell`] across a row, four lanes per register.
///
/// # Safety
/// Caller must ensure the CPU supports AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn scaled_row_avx(row: &mut [f64], src: &[f64], w: f64) {
    use core::arch::x86_64::*;
    assert_eq!(row.len(), src.len());
    let wv = _mm256_set1_pd(w);
    finish::fill_lanes(
        row,
        // SAFETY: `fill_lanes` passes k + 4 ≤ row.len() = src.len().
        |k| finish::clamp_unit(_mm256_div_pd(_mm256_loadu_pd(src.as_ptr().add(k)), wv)),
        |k| scaled_cell(src[k], w),
    );
}

/// Seed-arithmetic matrix path (`CAD_KERNEL=scalar`): sequential per-pair
/// sums, one row-chunked work unit per source row.
fn pearson_matrix_scalar(rows: &[f64], n: usize, w: usize) -> Vec<f64> {
    let mut matrix = vec![0.0; n * n];
    if n == 0 {
        return matrix;
    }
    // One work unit per source row: row i computes its pairs (i, j) for
    // j > i. Work per row shrinks with i, which the pool's chunk stealing
    // balances; the output placement depends only on indices.
    let upper: Vec<Vec<f64>> = cad_runtime::par_map_indexed(n, |i| {
        let row_i = &rows[i * w..(i + 1) * w];
        ((i + 1)..n)
            .map(|j| pearson_normalized(row_i, &rows[j * w..(j + 1) * w]))
            .collect()
    });
    for (i, row_vals) in upper.iter().enumerate() {
        let row = &rows[i * w..(i + 1) * w];
        matrix[i * n + i] = pearson_normalized(row, row);
        for (offset, &c) in row_vals.iter().enumerate() {
            let j = i + 1 + offset;
            matrix[i * n + j] = c;
            matrix[j * n + i] = c;
        }
    }
    matrix
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
    fn scalar_matrix_matches_pairwise_calls() {
        let _kernel = crate::tiled::kernel_test_lock();
        let n = 7;
        let w = 24;
        let rows: Vec<f64> = (0..n)
            .flat_map(|s| {
                znormed(
                    &(0..w)
                        .map(|t| ((t + 3 * s) as f64 * (0.2 + 0.07 * s as f64)).sin())
                        .collect::<Vec<f64>>(),
                )
            })
            .collect();
        // The scalar kernel is the seed arithmetic: each cell must be
        // bit-for-bit the direct pairwise call.
        let m = crate::tiled::with_kernel_override(Kernel::Scalar, || {
            pearson_matrix_normalized(&rows, n, w)
        });
        for i in 0..n {
            for j in 0..n {
                let direct =
                    pearson_normalized(&rows[i * w..(i + 1) * w], &rows[j * w..(j + 1) * w]);
                assert_eq!(m[i * n + j].to_bits(), direct.to_bits(), "cell ({i},{j})");
            }
        }
        // The tiled kernel sums in lane order instead: same maths, agreement
        // to well under 1e-12.
        let tiled = crate::tiled::with_kernel_override(Kernel::Tiled, || {
            pearson_matrix_normalized(&rows, n, w)
        });
        for (a, b) in m.iter().zip(&tiled) {
            assert!((a - b).abs() < 1e-12, "scalar {a} vs tiled {b}");
        }
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
        // a zero row, a NaN row and over-scaled rows whose ratios clamp.
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
            let packed = gram_upper_tiled(&rows, n, w, true);
            let at = |i: usize, j: usize| i * (2 * n - i + 1) / 2 + (j - i);
            let mut bodies = vec![false];
            if crate::finish::avx() {
                bodies.push(true);
            }
            for avx in bodies {
                let m = pearson_matrix_tiled_with(&rows, n, w, avx);
                for i in 0..n {
                    for j in 0..n {
                        let want = scaled_cell(packed[at(i.min(j), i.max(j))], w as f64);
                        assert_eq!(
                            m[i * n + j].to_bits(),
                            want.to_bits(),
                            "n={n} avx={avx} cell ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn matrix_is_identical_across_thread_counts() {
        let _kernel = crate::tiled::kernel_test_lock();
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

    /// Satellite: the tiled kernel against the direct [`pearson`] oracle at
    /// every awkward `n` around the 32-row tile size — 1, 2, 31, 33, 255,
    /// 257 — with constant and near-constant sensors included, at ≤ 1e-12.
    #[test]
    fn tiled_matrix_matches_pearson_oracle_at_tile_edges() {
        let _kernel = crate::tiled::kernel_test_lock();
        let w = 48; // not a multiple of the 16-element dot chunk either
        for n in [1usize, 2, 31, 33, 255, 257] {
            let (raw, normed) = edge_case_rows(n, w);
            let m = crate::tiled::with_kernel_override(Kernel::Tiled, || {
                pearson_matrix_normalized(&normed, n, w)
            });
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

    /// The two kernels must agree to ≤ 1e-12 everywhere and both be
    /// thread-count invariant at non-tile-multiple sizes.
    #[test]
    fn kernels_agree_and_are_thread_invariant_at_tile_edges() {
        let _kernel = crate::tiled::kernel_test_lock();
        let w = 33;
        for n in [31usize, 33] {
            let (_, normed) = edge_case_rows(n, w);
            let tiled = crate::tiled::with_kernel_override(Kernel::Tiled, || {
                pearson_matrix_normalized(&normed, n, w)
            });
            let scalar = crate::tiled::with_kernel_override(Kernel::Scalar, || {
                pearson_matrix_normalized(&normed, n, w)
            });
            for (a, b) in tiled.iter().zip(&scalar) {
                assert!((a - b).abs() <= 1e-12, "n={n}: tiled {a} vs scalar {b}");
            }
            let parallel = cad_runtime::with_thread_override(8, || {
                crate::tiled::with_kernel_override(Kernel::Tiled, || {
                    pearson_matrix_normalized(&normed, n, w)
                })
            });
            assert!(
                tiled
                    .iter()
                    .zip(&parallel)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "n={n}: tiled kernel must be bit-identical across thread counts"
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

        /// Satellite property: the tiled kernel tracks the direct
        /// [`pearson`] oracle at ≤ 1e-12 for arbitrary sensor mixes —
        /// ordinary, exactly-constant and near-constant — at any `n`/`w`,
        /// divisible by the tile/lane sizes or not.
        #[test]
        fn prop_tiled_matrix_matches_pearson_oracle(
            archetypes in proptest::collection::vec(0usize..3, 1..40),
            w in 4usize..70,
        ) {
            let _kernel = crate::tiled::kernel_test_lock();
            let n = archetypes.len();
            let raw: Vec<Vec<f64>> = archetypes
                .iter()
                .enumerate()
                .map(|(s, &a)| raw_sensor(a, s, w))
                .collect();
            let normed: Vec<f64> = raw.iter().flat_map(|r| znormed(r)).collect();
            let m = crate::tiled::with_kernel_override(Kernel::Tiled, || {
                pearson_matrix_normalized(&normed, n, w)
            });
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
