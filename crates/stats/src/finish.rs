//! The finish shared by the three correlation producers, and the packed
//! correlation triangle it writes.
//!
//! The exact engine ([`crate::correlation::pearson_triangle_into`]), the
//! dense incremental engine ([`crate::SlidingCov`]) and the masked one
//! ([`crate::MaskedSlidingCov`]) each end a round by turning sums into
//! Pearson cells. Each writes a [`Triangle`]: the packed upper triangle
//! without the diagonal — the `SlidingCov` `sxy` layout — one contiguous
//! row at a time, four cells per AVX register where the CPU has it. As a
//! row is written, [`Triangle`] folds every cell's `|ρ|` into per-vertex
//! maxima over 8-column blocks, for the cell's row and for its column, so
//! TSG selection (`cad_graph::tsg_from_triangle`) sets each vertex's bar
//! from `n/8` block maxima and reads cells only in blocks at or above it.
//! No producer builds an `n × n` matrix: at `n = 256` the triangle and its
//! block maxima take 319 KB where the mirrored matrix took 512 KB.
//!
//! The full symmetric matrix is still available through the matrix
//! adapters (`correlation_matrix_into`, `pearson_matrix_into`), which
//! write the triangle into a square buffer and [`mirror_lower`] it; no
//! round engine calls them.
//!
//! The lane bodies are bit-equal to the per-cell scalar forms, which stay
//! as the portable bodies (non-AVX hosts, and the reference the tests
//! compare against): packed `div` and `sqrt` are correctly rounded like
//! their scalar forms, nothing is fused into an FMA, and the two branch
//! emulations below keep `f64::clamp` and `f64::max` semantics for NaN.

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

/// Whether the lane bodies run on this machine (the tiled kernels' one
/// runtime detection).
pub(crate) fn avx() -> bool {
    crate::tiled::avx_available()
}

/// Offset of row `i`'s first cell, pair `(i, i + 1)`, in the packed upper
/// triangle without the diagonal over `n` rows.
#[inline]
pub(crate) fn row_start(n: usize, i: usize) -> usize {
    i * (2 * n - i - 1) / 2
}

/// Packed-triangle offset of pair `(i, j)`, `j > i`.
#[inline]
pub(crate) fn pair_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < n);
    row_start(n, i) + (j - i - 1)
}

/// `a` if it is stronger than the running maximum `m`, else `m`: a NaN `a`
/// fails the comparison and leaves `m` as it is.
#[inline]
fn stronger(m: f64, a: f64) -> f64 {
    if a > m {
        a
    } else {
        m
    }
}

/// One round's correlations over `n` vertices: the packed upper triangle
/// without the diagonal (row `i` holds pairs `(i, j)` for `j > i`, the
/// `SlidingCov` `sxy` layout), and for every vertex `u` and 8-column block
/// `b` the largest non-NaN `|ρ(u, v)|` over the columns `v ≠ u` of the
/// block, −1.0 when there is none.
///
/// A producer sizes the cells, writes them row by row through
/// [`Self::finish_rows`], which folds each row into the block maxima as it
/// goes; readers see both through [`Self::get`] and [`Self::block_max`].
#[derive(Debug, Clone, Default)]
pub struct Triangle {
    n: usize,
    cells: Vec<f64>,
    /// `blocks[b · stride + u]`: vertex `u`'s maximum over block `b`.
    /// Block-major, so the column fold of one row writes contiguously; the
    /// stride is `n + 8`, because at `n = 256` a stride of `n` would put
    /// one vertex's 32 block maxima, 2 KiB apart, into 2 of L1's 64 sets.
    blocks: Vec<f64>,
}

impl Triangle {
    /// Columns per block of the block maxima.
    pub const BLOCK: usize = 8;

    /// An empty triangle over no vertices; producers size it.
    pub fn new() -> Self {
        Self::default()
    }

    /// The packed upper triangle of the symmetric row-major `n × n`
    /// `matrix` (its diagonal and lower cells are not read), with its
    /// block maxima.
    pub fn from_matrix(matrix: &[f64], n: usize) -> Self {
        assert_eq!(matrix.len(), n * n, "matrix must be n × n");
        let mut tri = Self::new();
        tri.sized(n);
        tri.finish_rows(|i, row| row.copy_from_slice(&matrix[i * n + i + 1..(i + 1) * n]));
        tri
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Every cell, packed row-major.
    pub fn cells(&self) -> &[f64] {
        &self.cells
    }

    /// Row `i`'s cells: pairs `(i, i + 1)` through `(i, n − 1)`.
    pub fn row(&self, i: usize) -> &[f64] {
        let start = row_start(self.n, i);
        &self.cells[start..start + (self.n - 1 - i)]
    }

    /// `ρ(u, v)` for `u ≠ v`: the upper cell of the pair.
    #[inline]
    pub fn get(&self, u: usize, v: usize) -> f64 {
        self.cells[pair_index(self.n, u.min(v), u.max(v))]
    }

    /// Number of column blocks, `⌈n / 8⌉`.
    pub fn n_blocks(&self) -> usize {
        self.n.div_ceil(Self::BLOCK)
    }

    /// The largest non-NaN `|ρ(u, v)|` over `v ≠ u` in columns
    /// `8b..8b + 8`, −1.0 when there is none.
    #[inline]
    pub fn block_max(&self, u: usize, b: usize) -> f64 {
        self.blocks[b * self.stride() + u]
    }

    /// Distance between the block maxima of consecutive blocks.
    fn stride(&self) -> usize {
        self.n + Self::BLOCK
    }

    /// The cells resized to `n` vertices without a fill pass: the producer
    /// writes every cell before [`Self::finish_rows`] folds it.
    pub(crate) fn sized(&mut self, n: usize) -> &mut [f64] {
        let len = n.saturating_sub(1) * n / 2;
        self.n = n;
        self.cells.truncate(len);
        self.cells.resize(len, 0.0);
        &mut self.cells
    }

    /// Finish every row in order: `row(i, cells)` writes row `i`'s final
    /// values (the segment holds whatever the producer left there, such
    /// as the exact path's Gram dots), then the row is folded into the
    /// block maxima.
    pub(crate) fn finish_rows(&mut self, mut row: impl FnMut(usize, &mut [f64])) {
        let (n, stride) = (self.n, self.stride());
        self.blocks.clear();
        self.blocks.resize(self.n_blocks() * stride, -1.0);
        let mut start = 0;
        for i in 0..n {
            let cells = &mut self.cells[start..start + (n - 1 - i)];
            start += cells.len();
            row(i, cells);
            fold_row(&mut self.blocks, stride, i, cells);
        }
    }

    /// The full symmetric `n × n` matrix: the cells above the diagonal,
    /// `diag(i)` on it, mirrored below. The matrix adapters' one path.
    pub(crate) fn write_matrix(&self, matrix: &mut Vec<f64>, diag: impl Fn(usize) -> f64) {
        let n = self.n;
        matrix.truncate(n * n);
        matrix.resize(n * n, 0.0);
        for i in 0..n {
            matrix[i * n + i] = diag(i);
            matrix[i * n + i + 1..(i + 1) * n].copy_from_slice(self.row(i));
        }
        mirror_lower(matrix, n);
    }
}

/// Fold row `i`'s cells into the block maxima: cell `(i, j)` is in vertex
/// `j`'s block `i / 8` (one contiguous run per row) and in vertex `i`'s
/// block `j / 8` (one maximum per block of the row).
fn fold_row(blocks: &mut [f64], stride: usize, i: usize, cells: &[f64]) {
    let b = i / Triangle::BLOCK;
    let column = &mut blocks[b * stride + i + 1..][..cells.len()];
    for (m, &c) in column.iter_mut().zip(cells) {
        *m = stronger(*m, c.abs());
    }
    let (mut j, mut rest) = (i + 1, cells);
    while !rest.is_empty() {
        let take = (Triangle::BLOCK - j % Triangle::BLOCK).min(rest.len());
        let (block, tail) = rest.split_at(take);
        let m = &mut blocks[j / Triangle::BLOCK * stride + i];
        *m = block.iter().fold(*m, |m, &c| stronger(m, c.abs()));
        (j, rest) = (j + take, tail);
    }
}

/// Copy the upper triangle of the row-major `n × n` `matrix` into its
/// lower triangle, one contiguous lower row at a time: a row gather, not a
/// blocked transpose, because at `n = 256` the 64 cells of one column of a
/// 64×64 block fall into only 2 of L1's 64 sets and the block thrashes.
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

/// Assert that `tri` holds `cell(i, j)`'s bits for every pair of `n`
/// vertices, and block maxima equal to a per-vertex scan of those cells.
#[cfg(test)]
pub(crate) fn assert_triangle_holds(
    tri: &Triangle,
    n: usize,
    cell: impl Fn(usize, usize) -> f64,
    ctx: &str,
) {
    assert_eq!(tri.n(), n, "{ctx}: vertex count");
    assert_eq!(
        tri.cells().len(),
        n.saturating_sub(1) * n / 2,
        "{ctx}: cells"
    );
    for u in 0..n {
        let mut want = vec![-1.0f64; tri.n_blocks()];
        for v in (0..n).filter(|&v| v != u) {
            let c = cell(u, v);
            assert_eq!(
                tri.get(u, v).to_bits(),
                c.to_bits(),
                "{ctx}: cell ({u},{v})"
            );
            want[v / 8] = stronger(want[v / 8], c.abs());
        }
        for (b, m) in want.iter().enumerate() {
            let got = tri.block_max(u, b);
            assert_eq!(got.to_bits(), m.to_bits(), "{ctx}: vertex {u} block {b}");
        }
    }
}

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

    /// A symmetric `n × n` matrix of coarse values (ties), signed zeros
    /// and NaN cells, with a NaN diagonal no reader may see.
    fn symmetric(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut m = vec![f64::NAN; n * n];
        for i in 0..n {
            for j in i + 1..n {
                let c = match next() % 8 {
                    0 => f64::NAN,
                    1 => -0.0,
                    r => (next() % 9) as f64 / 8.0 * if r % 2 == 0 { 1.0 } else { -1.0 },
                };
                m[i * n + j] = c;
                m[j * n + i] = c;
            }
        }
        m
    }

    #[test]
    fn block_maxima_match_a_per_vertex_scan() {
        for n in TEST_SIZES.into_iter().chain([0, 6, 15, 17, 100]) {
            let m = symmetric(n, 0x9e37_79b9 + n as u64);
            let tri = Triangle::from_matrix(&m, n);
            assert_eq!(tri.n_blocks(), n.div_ceil(8));
            assert_triangle_holds(&tri, n, |u, v| m[u * n + v], &format!("n={n}"));
            // The oracle's own fold, restated: NaN never wins, −1.0 for a
            // block with no other column.
            for u in 0..n {
                for b in 0..tri.n_blocks() {
                    let want = (b * 8..(b * 8 + 8).min(n))
                        .filter(|&v| v != u)
                        .map(|v| m[u * n + v].abs())
                        .filter(|a| !a.is_nan())
                        .fold(-1.0, f64::max);
                    assert_eq!(tri.block_max(u, b).to_bits(), want.to_bits());
                }
            }
        }
    }

    #[test]
    fn refinishing_overwrites_stale_state() {
        // A wider triangle, then a narrower one: lengths shrink exactly and
        // no block maximum of the old round survives.
        let mut tri = Triangle::from_matrix(&symmetric(40, 7), 40);
        let m = symmetric(9, 11);
        let cells = tri.sized(9);
        assert_eq!(cells.len(), 36);
        tri.finish_rows(|i, row| row.copy_from_slice(&m[i * 9 + i + 1..(i + 1) * 9]));
        let fresh = Triangle::from_matrix(&m, 9);
        assert_eq!(tri.cells().len(), fresh.cells().len());
        for (a, b) in tri.cells().iter().zip(fresh.cells()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for u in 0..9 {
            for b in 0..2 {
                assert_eq!(
                    tri.block_max(u, b).to_bits(),
                    fresh.block_max(u, b).to_bits()
                );
            }
        }
    }

    #[test]
    fn write_matrix_mirrors_the_triangle_around_the_diagonal() {
        for n in [0, 1, 2, 9, 33] {
            let m = symmetric(n, 3 + n as u64);
            let tri = Triangle::from_matrix(&m, n);
            let mut out = vec![7.0; 3 * n * n + 2];
            tri.write_matrix(&mut out, |i| i as f64);
            assert_eq!(out.len(), n * n);
            for i in 0..n {
                for j in 0..n {
                    let want = if i == j { i as f64 } else { m[i * n + j] };
                    assert_eq!(out[i * n + j].to_bits(), want.to_bits(), "n={n} ({i},{j})");
                }
            }
        }
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
