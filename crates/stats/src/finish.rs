//! The matrix finish shared by the three correlation producers.
//!
//! The exact engine ([`crate::correlation::pearson_matrix_normalized`]),
//! the dense incremental engine ([`crate::SlidingCov`]) and the masked one
//! ([`crate::MaskedSlidingCov`]) each end a round by turning sums into the
//! full `n × n` Pearson matrix. Each writes its own upper triangle,
//! diagonal included, as contiguous rows — four cells per AVX register
//! where the CPU has it — and then calls [`mirror_lower`], which fills
//! every lower row contiguously from the column above it.
//!
//! The lane bodies are bit-equal to the per-cell scalar forms, which stay
//! as the portable bodies (non-AVX hosts, and the reference the tests
//! compare against): packed `div` and `sqrt` are correctly rounded like
//! their scalar forms, nothing is fused into an FMA, and the two branch
//! emulations below keep `f64::clamp` and `f64::max` semantics for NaN.
//!
//! Why a row gather and not a blocked transpose: at `n = 256` one matrix
//! row is 2 KiB, and L1's 64 sets are indexed by the address modulo
//! 4 KiB, so the 64 cells of one column of a 64×64 block fall into only 2
//! sets. The block thrashes; gathering each lower row from the column
//! above it reads one line per cell but keeps its writes sequential, and
//! measured 3× faster.

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

/// Whether the lane bodies run on this machine (the tiled kernels' one
/// runtime detection).
pub(crate) fn avx() -> bool {
    crate::tiled::avx_available()
}

/// `matrix` resized to `n × n` without a fill pass: the producer writes
/// every upper cell and [`mirror_lower`] every lower one, so stale values
/// are always overwritten.
pub(crate) fn sized(matrix: &mut Vec<f64>, n: usize) -> &mut [f64] {
    matrix.truncate(n * n);
    matrix.resize(n * n, 0.0);
    matrix
}

/// Copy the upper triangle of the row-major `n × n` `matrix` into its
/// lower triangle, one contiguous lower row at a time.
pub(crate) fn mirror_lower(matrix: &mut [f64], n: usize) {
    assert_eq!(matrix.len(), n * n, "matrix must be n × n");
    for i in 1..n {
        let (above, row) = matrix.split_at_mut(i * n);
        for (j, cell) in row[..i].iter_mut().enumerate() {
            *cell = above[j * n + i];
        }
    }
}

/// A lane mask value: all bits set where a per-sensor condition holds.
pub(crate) fn lane_flag(set: bool) -> f64 {
    if set {
        f64::from_bits(u64::MAX)
    } else {
        0.0
    }
}

/// Fill `dst[k]` for every `k`: `lanes(k)` yields cells `k..k + 4` for
/// each whole block of four, `cell(k)` the rest one at a time.
///
/// # Safety
/// Caller must ensure the CPU supports AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
pub(crate) unsafe fn fill_lanes(
    dst: &mut [f64],
    lanes: impl Fn(usize) -> __m256d,
    cell: impl Fn(usize) -> f64,
) {
    let mut k = 0;
    while k + 4 <= dst.len() {
        // SAFETY: k + 4 ≤ dst.len().
        _mm256_storeu_pd(dst.as_mut_ptr().add(k), lanes(k));
        k += 4;
    }
    for (k, c) in dst.iter_mut().enumerate().skip(k) {
        *c = cell(k);
    }
}

/// `q.clamp(-1.0, 1.0)` per lane. `maxpd`/`minpd` return their second
/// operand when either is NaN, so putting `q` second passes NaN through
/// as `f64::clamp` does; a bound is taken only when the ordered compare
/// `bound > q` (or `bound < q`) holds.
///
/// # Safety
/// Caller must ensure the CPU supports AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
pub(crate) unsafe fn clamp_unit(q: __m256d) -> __m256d {
    _mm256_min_pd(_mm256_set1_pd(1.0), _mm256_max_pd(_mm256_set1_pd(-1.0), q))
}

/// `x.max(0.0)` per lane: NaN maps to 0.0, as `f64::max` returns its
/// non-NaN operand. (Only the sign of a zero result may differ from the
/// scalar form, and every caller screens a zero out before it is read.)
///
/// # Safety
/// Caller must ensure the CPU supports AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
pub(crate) unsafe fn max_zero(x: __m256d) -> __m256d {
    _mm256_max_pd(x, _mm256_setzero_pd())
}

/// Lanes where `x <= f64::EPSILON` (ordered: false for NaN).
///
/// # Safety
/// Caller must ensure the CPU supports AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
pub(crate) unsafe fn le_eps(x: __m256d) -> __m256d {
    _mm256_cmp_pd(x, _mm256_set1_pd(f64::EPSILON), _CMP_LE_OQ)
}

/// Matrix sizes around every lane and row boundary of the finish, for the
/// producers' bit-identity tests.
#[cfg(test)]
pub(crate) const TEST_SIZES: [usize; 14] = [1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 128, 256, 257];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirror_copies_upper_into_lower() {
        for n in [0, 1, 2, 3, 7, 64, 65] {
            let mut m: Vec<f64> = (0..n * n).map(|c| c as f64).collect();
            mirror_lower(&mut m, n);
            for i in 0..n {
                for j in 0..n {
                    let (a, b) = (i.min(j), i.max(j));
                    assert_eq!(m[i * n + j], (a * n + b) as f64, "n={n} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn sized_keeps_length_exact() {
        let mut m = vec![f64::NAN; 50];
        assert_eq!(sized(&mut m, 5).len(), 25);
        assert_eq!(sized(&mut m, 7).len(), 49);
        assert_eq!(sized(&mut m, 0).len(), 0);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_helpers_match_scalar_semantics() {
        if !avx() {
            return;
        }
        let xs = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.5,
            -1.0,
            -0.25,
            -0.0,
            0.0,
            f64::EPSILON,
            2.0 * f64::EPSILON,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            7.0,
        ];
        for x in xs {
            let mut out = [0.0f64; 3];
            // SAFETY: AVX support was checked above.
            unsafe {
                let v = _mm256_set1_pd(x);
                out[0] = _mm256_cvtsd_f64(clamp_unit(v));
                out[1] = _mm256_cvtsd_f64(max_zero(v));
                out[2] = _mm256_cvtsd_f64(le_eps(v));
            }
            let clamp = x.clamp(-1.0, 1.0);
            assert_eq!(out[0].to_bits(), clamp.to_bits(), "clamp({x})");
            // The sign of a zero may differ (see `max_zero`).
            assert!(out[1] == x.max(0.0), "max({x})");
            assert_eq!(out[2].to_bits() != 0, x <= f64::EPSILON, "le_eps({x})");
        }
    }
}
