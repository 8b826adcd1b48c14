//! Cache-blocked SIMD correlation kernel — the hardware-fast `Z·Zᵀ` path.
//!
//! The per-round hot path of CAD is a Gram matrix: every pair of
//! z-normalised sensor windows is dotted and scaled. The seed kernel walked
//! the upper triangle row by row with a *sequential* floating-point sum —
//! a loop-carried dependency chain the compiler must not reorder, so it
//! runs one fused step every ~4 cycles and reloads each partner row from
//! memory once per pair. This module restructures that work twice over:
//!
//! 1. **Lane-parallel dot product** ([`dot8`]). The window is consumed in
//!    chunks of [`DOT_LANES`] elements accumulated into `DOT_LANES`
//!    *independent* partial sums, which are combined at the end by a fixed
//!    reduction tree. Independent lanes mean the compiler can (and, checked
//!    by `scripts/check_autovec.sh`, does) autovectorise the loop into
//!    packed `vmulpd`/`vaddpd`, and an explicit `core::arch` AVX path
//!    ([`dot8_avx`], selected at runtime via `is_x86_feature_detected!`)
//!    performs the *same* lane arithmetic with 256-bit registers even when
//!    the crate is compiled for baseline x86-64. Because every lane chain
//!    and the final reduction order are identical across the portable and
//!    AVX implementations, the two are **bit-identical** — asserted by
//!    tests here, so runtime dispatch never perturbs the determinism
//!    contract.
//!
//! 2. **Tile-chunked traversal** ([`pair_upper_tiled`]). The upper
//!    triangle is enumerated as [`TILE`]`×`[`TILE`] tiles and the
//!    `cad-runtime` pool is fed one tile per work unit instead of one row:
//!    work per unit is near-uniform (no shrinking-row imbalance), the ~64
//!    rows a tile touches stay resident in L1/L2 across its `TILE²` dot
//!    products, and — unlike row chunking — the unit count grows
//!    quadratically with `n`, so speedup tracks core count. Cell values
//!    are pure functions of their row pair (tile boundaries only order the
//!    traversal), so the output is bit-identical for every thread count
//!    *and* every tile size.
//!
//! 3. **Blocked slide fold** ([`fold_delta_upper`]). The incremental
//!    engines update a packed co-moment triangle by `dot8(in_i, in_j) −
//!    dot8(out_i, out_j)` per pair every round, with only `s` samples per
//!    dot — too short for per-pair calls to amortise their dispatch and
//!    reduction. The partner rows are transposed once per call, so four
//!    `j` partners share one f64×4 register and each broadcast `in_i[t]`
//!    feeds eight partners; every register lane still runs the `dot8`
//!    lane arithmetic, so each cell is bit-equal to the per-pair form,
//!    and the delta is added in place over the same tile traversal.
//!
//! ## One arithmetic
//!
//! Every correlation producer — the exact engine's matrix and both
//! incremental accumulators — runs on this kernel; there is no second
//! arithmetic to select. The only choice made at runtime is between the
//! AVX and portable bodies, which are bit-identical. [`active_kernel`]
//! names the kernel for benchmark reports.

use std::sync::OnceLock;

/// Rows per side of one work-unit tile of the upper-triangle traversal.
pub const TILE: usize = 32;

/// Independent accumulator lanes of [`dot8`] (four f64×4 register blocks).
pub const DOT_LANES: usize = 16;

/// The correlation kernel, as benchmark reports label it. There is one;
/// nothing selects it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Cache-blocked, lane-parallel SIMD kernel.
    Tiled,
}

impl Kernel {
    /// Display name (`"tiled"`).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Tiled => "tiled",
        }
    }
}

/// The kernel every correlation producer runs, for benches to report.
pub fn active_kernel() -> Kernel {
    Kernel::Tiled
}

/// Whether the explicit AVX dot path is usable on this machine (cached).
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx_available() -> bool {
    static CACHED: OnceLock<bool> = OnceLock::new();
    *CACHED.get_or_init(|| std::is_x86_feature_detected!("avx"))
}

/// Lane-parallel dot product of two equal-length slices.
///
/// Semantics (identical across the portable and AVX implementations):
/// elements are consumed in chunks of [`DOT_LANES`]; lane `l` accumulates
/// `Σ a[16k+l]·b[16k+l]` in its own chain; lanes reduce by the fixed tree
/// `m_k = (l_k + l_{k+8}) + (l_{k+4} + l_{k+12})`, `sum = (m_0 + m_2) +
/// (m_1 + m_3)`; the `len % 16` tail is added sequentially. Independent
/// chains break the loop-carried dependency of a naive `Σ a·b`, which is
/// what lets hardware retire several multiply-adds per cycle.
#[inline]
pub fn dot8(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if avx_available() {
        // SAFETY: AVX support was verified at runtime.
        return unsafe { dot8_avx(a, b) };
    }
    dot8_portable(a, b)
}

/// Portable implementation of [`dot8`]: plain lane arithmetic the compiler
/// autovectorises (packed `vmulpd`/`vaddpd` under `-C
/// target-cpu=x86-64-v3`; `scripts/check_autovec.sh` greps the emitted asm
/// so a refactor that reintroduces a sequential chain is caught in CI).
#[inline]
pub fn dot8_portable(a: &[f64], b: &[f64]) -> f64 {
    let len = a.len().min(b.len());
    let chunks = len / DOT_LANES;
    let mut acc = [0.0f64; DOT_LANES];
    // `chunks_exact` plus the fixed-size-array view is what convinces LLVM
    // to keep the whole lane block in 256-bit registers — slice indexing
    // alone only gets 128-bit SLP pieces (verified by check_autovec.sh).
    for (va, vb) in a[..chunks * DOT_LANES]
        .chunks_exact(DOT_LANES)
        .zip(b[..chunks * DOT_LANES].chunks_exact(DOT_LANES))
    {
        let va: &[f64; DOT_LANES] = va.try_into().expect("chunks_exact size");
        let vb: &[f64; DOT_LANES] = vb.try_into().expect("chunks_exact size");
        for l in 0..DOT_LANES {
            acc[l] += va[l] * vb[l];
        }
    }
    let mut sum = reduce_lanes(&acc);
    for t in chunks * DOT_LANES..len {
        sum += a[t] * b[t];
    }
    sum
}

/// Two dot products sharing one left operand: `(a·b0, a·b1)`.
///
/// Each output is computed with *exactly* the [`dot8`] lane arithmetic —
/// `dot8x2(a, b0, b1).0` is bit-equal to `dot8(a, b0)` (asserted in
/// tests) — but the shared `a` chunk is loaded once per iteration instead
/// of twice, which matters because the Gram inner loop is load-port bound:
/// 12 loads feed 32 element-multiply-adds instead of 16. This is the
/// register-blocking step of the tiled kernel ([`gram_upper_tiled`]).
#[inline]
pub fn dot8x2(a: &[f64], b0: &[f64], b1: &[f64]) -> (f64, f64) {
    #[cfg(target_arch = "x86_64")]
    if avx_available() {
        // SAFETY: AVX support was verified at runtime.
        return unsafe { dot8x2_avx(a, b0, b1) };
    }
    dot8x2_portable(a, b0, b1)
}

/// Portable implementation of [`dot8x2`]; same autovectorisation story as
/// [`dot8_portable`], with both accumulator blocks in one loop.
#[inline]
pub fn dot8x2_portable(a: &[f64], b0: &[f64], b1: &[f64]) -> (f64, f64) {
    let len = a.len().min(b0.len()).min(b1.len());
    let chunks = len / DOT_LANES;
    let bound = chunks * DOT_LANES;
    let mut acc0 = [0.0f64; DOT_LANES];
    let mut acc1 = [0.0f64; DOT_LANES];
    for ((va, vb0), vb1) in a[..bound]
        .chunks_exact(DOT_LANES)
        .zip(b0[..bound].chunks_exact(DOT_LANES))
        .zip(b1[..bound].chunks_exact(DOT_LANES))
    {
        let va: &[f64; DOT_LANES] = va.try_into().expect("chunks_exact size");
        let vb0: &[f64; DOT_LANES] = vb0.try_into().expect("chunks_exact size");
        let vb1: &[f64; DOT_LANES] = vb1.try_into().expect("chunks_exact size");
        for l in 0..DOT_LANES {
            acc0[l] += va[l] * vb0[l];
            acc1[l] += va[l] * vb1[l];
        }
    }
    let mut s0 = reduce_lanes(&acc0);
    let mut s1 = reduce_lanes(&acc1);
    for t in bound..len {
        s0 += a[t] * b0[t];
        s1 += a[t] * b1[t];
    }
    (s0, s1)
}

/// Explicit AVX implementation of [`dot8x2`]: eight `__m256d` accumulators
/// (four per output), each `a` chunk loaded once and multiplied against
/// both `b` rows. Per-output arithmetic and reduction order are identical
/// to [`dot8_avx`], so the pairing is invisible in the results.
///
/// # Safety
/// Caller must ensure the CPU supports AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
pub unsafe fn dot8x2_avx(a: &[f64], b0: &[f64], b1: &[f64]) -> (f64, f64) {
    use core::arch::x86_64::*;
    let len = a.len().min(b0.len()).min(b1.len());
    let chunks = len / DOT_LANES;
    let (pa, pb0, pb1) = (a.as_ptr(), b0.as_ptr(), b1.as_ptr());
    let mut p0 = [_mm256_setzero_pd(); 4];
    let mut p1 = [_mm256_setzero_pd(); 4];
    for c in 0..chunks {
        let o = c * DOT_LANES;
        for (k, (r0, r1)) in p0.iter_mut().zip(p1.iter_mut()).enumerate() {
            let va = _mm256_loadu_pd(pa.add(o + 4 * k));
            *r0 = _mm256_add_pd(*r0, _mm256_mul_pd(va, _mm256_loadu_pd(pb0.add(o + 4 * k))));
            *r1 = _mm256_add_pd(*r1, _mm256_mul_pd(va, _mm256_loadu_pd(pb1.add(o + 4 * k))));
        }
    }
    let reduce = |acc: [__m256d; 4]| -> f64 {
        let m = _mm256_add_pd(_mm256_add_pd(acc[0], acc[2]), _mm256_add_pd(acc[1], acc[3]));
        let lo = _mm256_castpd256_pd128(m);
        let hi = _mm256_extractf128_pd(m, 1);
        let s = _mm_add_pd(lo, hi);
        _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s))
    };
    let mut s0 = reduce(p0);
    let mut s1 = reduce(p1);
    for t in chunks * DOT_LANES..len {
        s0 += *pa.add(t) * *pb0.add(t);
        s1 += *pa.add(t) * *pb1.add(t);
    }
    (s0, s1)
}

/// Un-mangled, never-inlined entry point for `scripts/check_autovec.sh`:
/// the script compiles this crate with `--emit asm` and greps the body of
/// this symbol for packed `vmulpd`/`vfmadd` instructions to prove the
/// portable lane loop still autovectorises. Not part of the public API.
///
/// # Safety
/// `a` and `b` must point to `len` readable `f64`s each.
#[no_mangle]
pub unsafe extern "C" fn cad_stats_autovec_probe(a: *const f64, b: *const f64, len: usize) -> f64 {
    dot8_portable(
        std::slice::from_raw_parts(a, len),
        std::slice::from_raw_parts(b, len),
    )
}

/// The fixed lane-reduction tree shared by both implementations; mirrors
/// the AVX register combine (`acc0+acc2`, `acc1+acc3`, vertical add,
/// 128-bit halves, final scalar add) exactly.
///
/// `inline(never)` is load-bearing: when LLVM's SLP vectoriser sees the
/// tree inlined next to the accumulation loop it re-plans the *whole*
/// function around 128-bit pairs, halving the main loop's width (observed
/// on rustc 1.95, caught by `scripts/check_autovec.sh`). Keeping the
/// epilogue out of line costs one call per dot product and keeps the loop
/// on 256-bit registers.
#[inline(never)]
fn reduce_lanes(acc: &[f64; DOT_LANES]) -> f64 {
    let mut m = [0.0f64; 4];
    for (k, mk) in m.iter_mut().enumerate() {
        *mk = (acc[k] + acc[k + 8]) + (acc[k + 4] + acc[k + 12]);
    }
    (m[0] + m[2]) + (m[1] + m[3])
}

/// Explicit 256-bit implementation of [`dot8`]: four `__m256d` accumulator
/// registers (the register-blocked f64×4 inner loop), multiply-then-add —
/// deliberately *not* FMA, whose single rounding would diverge from the
/// portable path — and the same reduction tree as [`reduce_lanes`].
///
/// # Safety
/// Caller must ensure the CPU supports AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
pub unsafe fn dot8_avx(a: &[f64], b: &[f64]) -> f64 {
    use core::arch::x86_64::*;
    let len = a.len().min(b.len());
    let chunks = len / DOT_LANES;
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut acc2 = _mm256_setzero_pd();
    let mut acc3 = _mm256_setzero_pd();
    for c in 0..chunks {
        let o = c * DOT_LANES;
        acc0 = _mm256_add_pd(
            acc0,
            _mm256_mul_pd(_mm256_loadu_pd(pa.add(o)), _mm256_loadu_pd(pb.add(o))),
        );
        acc1 = _mm256_add_pd(
            acc1,
            _mm256_mul_pd(
                _mm256_loadu_pd(pa.add(o + 4)),
                _mm256_loadu_pd(pb.add(o + 4)),
            ),
        );
        acc2 = _mm256_add_pd(
            acc2,
            _mm256_mul_pd(
                _mm256_loadu_pd(pa.add(o + 8)),
                _mm256_loadu_pd(pb.add(o + 8)),
            ),
        );
        acc3 = _mm256_add_pd(
            acc3,
            _mm256_mul_pd(
                _mm256_loadu_pd(pa.add(o + 12)),
                _mm256_loadu_pd(pb.add(o + 12)),
            ),
        );
    }
    // m_k = (l_k + l_{k+8}) + (l_{k+4} + l_{k+12}) — acc0 holds lanes
    // 0..4, acc1 lanes 4..8, acc2 lanes 8..12, acc3 lanes 12..16.
    let m = _mm256_add_pd(_mm256_add_pd(acc0, acc2), _mm256_add_pd(acc1, acc3));
    let lo = _mm256_castpd256_pd128(m); // [m0, m1]
    let hi = _mm256_extractf128_pd(m, 1); // [m2, m3]
    let s = _mm_add_pd(lo, hi); // [m0+m2, m1+m3]
    let mut sum = _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
    for t in chunks * DOT_LANES..len {
        sum += *pa.add(t) * *pb.add(t);
    }
    sum
}

/// Upper-triangle pair map, tile-chunked across the `cad-runtime` pool.
///
/// Writes `f(i, j)` for every pair `0 ≤ i ≤ j < n` (or `i < j` when
/// `include_diag` is false) into `out`, packed row-major — exactly the
/// `SlidingCov` triangle layout when the diagonal is excluded. `out` must
/// hold `n(n+1)/2` cells with the diagonal, `n(n−1)/2` without. The
/// triangle is covered by [`TILE`]`×`[`TILE`] tiles, one pool work unit
/// each; each cell is a pure function of `(i, j)` placed by index, so the
/// result is bit-identical for every thread count and tile size.
pub fn pair_upper_tiled<F>(out: &mut [f64], n: usize, include_diag: bool, f: F)
where
    F: Fn(usize, usize) -> f64 + Sync,
{
    triangle_tiled(out, n, Layout::Packed { include_diag }, |i, lo, j1, dst| {
        for (cell, j) in dst.iter_mut().zip(lo..j1) {
            *cell = f(i, j);
        }
    });
}

/// Gram-matrix specialisation of [`pair_upper_tiled`]: `cell(i, j) =
/// rows[i] · rows[j]` over `n` contiguous rows of length `w`, with the
/// inner tile loop register-blocked 1×2 via [`dot8x2`] so each `i` row
/// chunk is loaded once per *pair* of `j` rows. Bit-identical to
/// `pair_upper_tiled(out, n, d, |i, j| dot8(row_i, row_j))` — the blocking
/// only changes load scheduling, never the per-cell arithmetic.
pub fn gram_upper_tiled(out: &mut [f64], rows: &[f64], n: usize, w: usize, include_diag: bool) {
    gram_into(out, rows, n, w, Layout::Packed { include_diag });
}

/// [`gram_upper_tiled`] with the diagonal, written straight into the upper
/// triangle of the row-major `n × n` `matrix`; the lower cells are left as
/// they were.
pub(crate) fn gram_upper_square(matrix: &mut [f64], rows: &[f64], n: usize, w: usize) {
    gram_into(matrix, rows, n, w, Layout::Square);
}

fn gram_into(out: &mut [f64], rows: &[f64], n: usize, w: usize, layout: Layout) {
    assert!(rows.len() >= n * w, "rows must be n × w row-major");
    let row = |i: usize| &rows[i * w..(i + 1) * w];
    triangle_tiled(out, n, layout, |i, lo, j1, dst| {
        let a = row(i);
        let mut j = lo;
        while j + 1 < j1 {
            let (d0, d1) = dot8x2(a, row(j), row(j + 1));
            dst[j - lo] = d0;
            dst[j + 1 - lo] = d1;
            j += 2;
        }
        if j < j1 {
            dst[j - lo] = dot8(a, row(j));
        }
    });
}

/// `j` partners that share one f64×4 register in [`fold_delta_upper`].
const PARTNERS: usize = 4;

/// Operands of one [`fold_delta_upper`] call: the row-major `n × cols`
/// blocks and transposed `cols × n` copies of the two partner blocks.
struct DeltaOperands<'a> {
    n: usize,
    cols: usize,
    a: &'a [f64],
    b: &'a [f64],
    a_out: &'a [f64],
    b_out: &'a [f64],
    bt: &'a [f64],
    bt_out: &'a [f64],
}

impl DeltaOperands<'_> {
    #[inline]
    fn row<'b>(&self, block: &'b [f64], i: usize) -> &'b [f64] {
        &block[i * self.cols..(i + 1) * self.cols]
    }
}

/// Blocked slide update of a packed upper triangle (diagonal excluded):
/// for every pair `i < j`,
///
/// `packed[(i, j)] += dot8(a_i, b_j) − dot8(a_out_i, b_out_j)`
///
/// where `plus = [a, b]` and `minus = [a_out, b_out]` are row-major
/// `n × cols` blocks — a sliding window's incoming and retired samples.
///
/// Four `j` partners share one f64×4 register: the partner blocks are
/// transposed into `scratch` (`cols × n`, reused across calls), so one
/// broadcast `a_i[t]` meets `b[j..j+4][t]` in a single load. Each register
/// lane runs exactly the [`dot8`] arithmetic — multiply then add (no FMA),
/// [`DOT_LANES`] accumulator chains, the `reduce_lanes` tree, then the
/// sequential `cols % 16` tail — so every cell is bit-equal to the
/// per-pair `dot8` form (asserted in tests, signed zeros included). The
/// triangle is traversed tile-chunked across the `cad-runtime` pool; each
/// cell is updated once by one task, so the result is thread-count
/// invariant.
pub fn fold_delta_upper(
    packed: &mut [f64],
    n: usize,
    cols: usize,
    plus: [&[f64]; 2],
    minus: [&[f64]; 2],
    scratch: &mut Vec<f64>,
) {
    #[cfg(target_arch = "x86_64")]
    if avx_available() {
        // SAFETY: AVX support was verified at runtime.
        return unsafe { fold_delta_upper_avx(packed, n, cols, plus, minus, scratch) };
    }
    fold_delta_upper_portable(packed, n, cols, plus, minus, scratch)
}

/// Portable implementation of [`fold_delta_upper`]: the same lane
/// arithmetic on `[f64; 4]` partner arrays; the fewer-than-four partners
/// left at a tile row's end use [`dot8_portable`].
fn fold_delta_upper_portable(
    packed: &mut [f64],
    n: usize,
    cols: usize,
    plus: [&[f64]; 2],
    minus: [&[f64]; 2],
    scratch: &mut Vec<f64>,
) {
    fold_delta_with(packed, n, cols, plus, minus, scratch, delta_row_portable)
}

/// Explicit AVX implementation of [`fold_delta_upper`].
///
/// # Safety
/// Caller must ensure the CPU supports AVX.
#[cfg(target_arch = "x86_64")]
unsafe fn fold_delta_upper_avx(
    packed: &mut [f64],
    n: usize,
    cols: usize,
    plus: [&[f64]; 2],
    minus: [&[f64]; 2],
    scratch: &mut Vec<f64>,
) {
    fold_delta_with(
        packed,
        n,
        cols,
        plus,
        minus,
        scratch,
        |op, i, lo, j1, dst| {
            // SAFETY: the caller guarantees AVX support.
            unsafe { delta_row_avx(op, i, lo, j1, dst) }
        },
    )
}

/// What both bodies share: transpose the partner blocks into
/// `scratch`, then hand every tile row of the triangle to `row_body`.
fn fold_delta_with<F>(
    packed: &mut [f64],
    n: usize,
    cols: usize,
    [a, b]: [&[f64]; 2],
    [a_out, b_out]: [&[f64]; 2],
    scratch: &mut Vec<f64>,
    row_body: F,
) where
    F: Fn(&DeltaOperands, usize, usize, usize, &mut [f64]) + Sync,
{
    for block in [a, b, a_out, b_out] {
        assert_eq!(block.len(), n * cols, "operands must be n × cols");
    }
    scratch.clear();
    scratch.resize(2 * n * cols, 0.0);
    let (bt, bt_out) = scratch.split_at_mut(n * cols);
    for (src, dst) in [(b, &mut *bt), (b_out, &mut *bt_out)] {
        for (i, row) in src.chunks_exact(cols.max(1)).enumerate() {
            for (t, &x) in row.iter().enumerate() {
                dst[t * n + i] = x;
            }
        }
    }
    let op = DeltaOperands {
        n,
        cols,
        a,
        b,
        a_out,
        b_out,
        bt,
        bt_out,
    };
    triangle_tiled(
        packed,
        n,
        Layout::Packed {
            include_diag: false,
        },
        |i, lo, j1, dst| row_body(&op, i, lo, j1, dst),
    );
}

/// One tile row of the portable body: four-partner blocks, then the
/// per-pair remainder.
fn delta_row_portable(op: &DeltaOperands, i: usize, lo: usize, j1: usize, dst: &mut [f64]) {
    let (a, a_out) = (op.row(op.a, i), op.row(op.a_out, i));
    let mut j = lo;
    while j + PARTNERS <= j1 {
        let add = dot8x4t_portable(a, op.bt, op.n, j);
        let sub = dot8x4t_portable(a_out, op.bt_out, op.n, j);
        for (p, cell) in dst[j - lo..j - lo + PARTNERS].iter_mut().enumerate() {
            *cell += add[p] - sub[p];
        }
        j += PARTNERS;
    }
    for j in j..j1 {
        dst[j - lo] +=
            dot8_portable(a, op.row(op.b, j)) - dot8_portable(a_out, op.row(op.b_out, j));
    }
}

/// `dot8(a, b_p)` for the four partners `p = j..j+4`, read from the
/// transposed block `bt` (`a.len() × n`).
///
/// Lane chains are built one reduction quartet at a time — lanes `k, k+4,
/// k+8, k+12` make `m_k = (l_k + l_{k+8}) + (l_{k+4} + l_{k+12})` — which
/// keeps few accumulators live and is the [`reduce_lanes`] tree exactly.
/// Each chain starts from its first product rather than from `0.0 +` it:
/// the two differ only where every summand so far is `-0.0` (the sum is
/// then `-0.0` where `dot8` has `+0.0`), and that difference survives the
/// tree only as a `-0.0` total, so one `+ 0.0` after the tree gives
/// `dot8`'s bits while saving an add per lane.
#[inline]
fn dot8x4t_portable(a: &[f64], bt: &[f64], n: usize, j: usize) -> [f64; PARTNERS] {
    let cols = a.len();
    let chunks = cols / DOT_LANES;
    let col = |t: usize| -> &[f64; PARTNERS] {
        bt[t * n + j..t * n + j + PARTNERS]
            .try_into()
            .expect("partner block")
    };
    let term = |t: usize| -> [f64; PARTNERS] { col(t).map(|b| a[t] * b) };
    let mut m = [[0.0f64; PARTNERS]; 4];
    if chunks > 0 {
        for (k, mk) in m.iter_mut().enumerate() {
            let mut l = [term(k), term(k + 4), term(k + 8), term(k + 12)];
            for c in 1..chunks {
                for (q, lq) in l.iter_mut().enumerate() {
                    let x = term(c * DOT_LANES + k + 4 * q);
                    for p in 0..PARTNERS {
                        lq[p] += x[p];
                    }
                }
            }
            for p in 0..PARTNERS {
                mk[p] = (l[0][p] + l[2][p]) + (l[1][p] + l[3][p]);
            }
        }
    }
    let mut sum = [0.0f64; PARTNERS];
    for p in 0..PARTNERS {
        sum[p] = ((m[0][p] + m[2][p]) + (m[1][p] + m[3][p])) + 0.0;
    }
    for t in chunks * DOT_LANES..cols {
        let x = term(t);
        for p in 0..PARTNERS {
            sum[p] += x[p];
        }
    }
    sum
}

/// `__m256d` registers per step of the AVX body: the [`PARTNERS`] of each
/// register share one broadcast of `a_i[t]` with the other register's.
#[cfg(target_arch = "x86_64")]
const STEP_REGS: usize = 2;

/// One tile row of the AVX body: the lane arithmetic of
/// [`dot8x4t_portable`] with one `__m256d` per four partners (multiply
/// then add, no FMA), eight partners per step.
///
/// A step that would run past the row's end is shifted left to end at
/// `n` when the row is near the matrix edge; either way only the row's own
/// cells are updated, and the extra lanes — pure functions of their own
/// `(i, j)` — are dropped. Rows narrower than a step (`n < 8`) use
/// per-pair [`dot8_avx`].
///
/// # Safety
/// Caller must ensure the CPU supports AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn delta_row_avx(op: &DeltaOperands, i: usize, lo: usize, j1: usize, dst: &mut [f64]) {
    use core::arch::x86_64::*;
    const STEP: usize = STEP_REGS * PARTNERS;
    type Regs = [__m256d; STEP_REGS];
    let (n, cols) = (op.n, op.cols);
    let chunks = cols / DOT_LANES;
    let (a, a_out) = (op.row(op.a, i), op.row(op.a_out, i));
    assert!(j1 <= n && dst.len() == j1 - lo, "tile row in bounds");
    assert!(op.bt.len() == cols * n && op.bt_out.len() == cols * n);
    if n < STEP {
        for j in lo..j1 {
            dst[j - lo] += dot8_avx(a, op.row(op.b, j)) - dot8_avx(a_out, op.row(op.b_out, j));
        }
        return;
    }
    let add = |x: Regs, y: Regs| -> Regs {
        let mut out = x;
        for r in 0..STEP_REGS {
            out[r] = _mm256_add_pd(x[r], y[r]);
        }
        out
    };
    // `dot8(x, b_p)` for partners `p = j..j + STEP` of the transposed block
    // `bt`. SAFETY (every load): t < cols and j + STEP ≤ n, so the last
    // element read, t·n + j + STEP − 1, is inside the `cols × n` block.
    let dots = |x: *const f64, bt: *const f64, j: usize| -> Regs {
        let pb = bt.add(j);
        let term = |t: usize| -> Regs {
            let xt = _mm256_broadcast_sd(&*x.add(t));
            let mut out = [_mm256_setzero_pd(); STEP_REGS];
            for (r, o) in out.iter_mut().enumerate() {
                *o = _mm256_mul_pd(xt, _mm256_loadu_pd(pb.add(t * n + r * PARTNERS)));
            }
            out
        };
        let zero = [_mm256_setzero_pd(); STEP_REGS];
        // m_k from lanes k, k+4, k+8, k+12; summing m_0 + m_2 before m_1
        // and m_3 are built keeps the live registers within the sixteen.
        let quartet = |k: usize| -> Regs {
            if chunks == 0 {
                return zero;
            }
            let mut l = [term(k), term(k + 4), term(k + 8), term(k + 12)];
            for c in 1..chunks {
                for (q, lq) in l.iter_mut().enumerate() {
                    *lq = add(*lq, term(c * DOT_LANES + k + 4 * q));
                }
            }
            add(add(l[0], l[2]), add(l[1], l[3]))
        };
        let m02 = add(quartet(0), quartet(2));
        let m13 = add(quartet(1), quartet(3));
        // The `+ 0.0` owed by chains seeded from their first product.
        let mut sum = add(add(m02, m13), zero);
        for t in chunks * DOT_LANES..cols {
            sum = add(sum, term(t));
        }
        sum
    };
    let mut j = lo;
    while j < j1 {
        let base = j.min(n - STEP);
        let plus = dots(a.as_ptr(), op.bt.as_ptr(), base);
        let minus = dots(a_out.as_ptr(), op.bt_out.as_ptr(), base);
        let mut delta = [0.0f64; STEP];
        for r in 0..STEP_REGS {
            let d = _mm256_sub_pd(plus[r], minus[r]);
            // SAFETY: r·PARTNERS + PARTNERS ≤ STEP, the length of `delta`.
            _mm256_storeu_pd(delta.as_mut_ptr().add(r * PARTNERS), d);
        }
        let end = j1.min(base + STEP);
        for (cell, d) in dst[j - lo..end - lo].iter_mut().zip(&delta[j - base..]) {
            *cell += d;
        }
        j = end;
    }
}

/// Shared pointer to the triangle's output buffer, handed to pool
/// workers. Writes are race-free by construction: tiles partition the
/// triangle, so every per-row destination segment belongs to exactly one
/// tile task.
struct SharedOut(*mut f64);
// SAFETY: see above — disjoint segments, one writer each.
unsafe impl Sync for SharedOut {}

impl SharedOut {
    /// Mutable view of `len` cells at `start`.
    ///
    /// # Safety
    /// Caller must guarantee the range is in bounds and not aliased by any
    /// concurrent access (the tile partition provides both).
    #[allow(clippy::mut_from_ref)]
    unsafe fn segment(&self, start: usize, len: usize) -> &mut [f64] {
        std::slice::from_raw_parts_mut(self.0.add(start), len)
    }
}

/// Cells of the packed upper triangle over `n` rows.
pub(crate) fn packed_len(n: usize, include_diag: bool) -> usize {
    if include_diag {
        n * (n + 1) / 2
    } else {
        n.saturating_sub(1) * n / 2
    }
}

/// Where [`triangle_tiled`] places the upper triangle's cells.
#[derive(Clone, Copy)]
enum Layout {
    /// Packed row-major; row `i` holds pairs `(i, i)` (with the diagonal)
    /// or `(i, i + 1)` (without) through `(i, n − 1)`.
    Packed { include_diag: bool },
    /// Cell `(i, j)`, `j ≥ i`, at `i·n + j` of a row-major `n × n` matrix.
    Square,
}

impl Layout {
    fn include_diag(self) -> bool {
        match self {
            Layout::Packed { include_diag } => include_diag,
            Layout::Square => true,
        }
    }

    fn len(self, n: usize) -> usize {
        match self {
            Layout::Packed { include_diag } => packed_len(n, include_diag),
            Layout::Square => n * n,
        }
    }

    /// Offset of cell `(i, lo)`, `lo` at or right of row `i`'s first cell.
    fn at(self, n: usize, i: usize, lo: usize) -> usize {
        match self {
            Layout::Packed { include_diag: true } => i * (2 * n - i + 1) / 2 + (lo - i),
            Layout::Packed {
                include_diag: false,
            } => i * (2 * n - i - 1) / 2 + (lo - i - 1),
            Layout::Square => i * n + lo,
        }
    }
}

/// Shared traversal of every tiled pair map: enumerate the upper triangle
/// as [`TILE`]`×`[`TILE`] tiles (one pool work unit each) and call
/// `fill(i, lo, j1, dst)` once per tile row, where `dst` is the row's
/// segment of `out` for columns `lo..j1` — written in place, no per-tile
/// staging buffers or serial scatter pass. Each cell is visited exactly
/// once by a function of `(i, j)` alone, so the output is bit-identical
/// for every thread count and tile size.
fn triangle_tiled<F>(out: &mut [f64], n: usize, layout: Layout, fill: F)
where
    F: Fn(usize, usize, usize, &mut [f64]) + Sync,
{
    assert_eq!(out.len(), layout.len(n), "triangle output length");
    let diag = usize::from(layout.include_diag());
    if n == 0 {
        return;
    }
    let nt = n.div_ceil(TILE);
    // Upper-triangle tile tasks, enumerated row-major: (ti, tj) with
    // tj ≥ ti. One task per tile; the pool's chunk stealing balances the
    // half-work diagonal tiles.
    let n_tasks = nt * (nt + 1) / 2;
    let tile_of = |task: usize| -> (usize, usize) {
        // Row-major walk of the tile triangle.
        let mut t = task;
        let mut ti = 0;
        while t >= nt - ti {
            t -= nt - ti;
            ti += 1;
        }
        (ti, ti + t)
    };
    let dst = SharedOut(out.as_mut_ptr());
    cad_runtime::par_map_ranges(n_tasks, 1, |range| {
        let task = range.start;
        let (ti, tj) = tile_of(task);
        let (i0, i1) = (ti * TILE, ((ti + 1) * TILE).min(n));
        let (j0, j1) = (tj * TILE, ((tj + 1) * TILE).min(n));
        for i in i0..i1 {
            let lo = j0.max(i + 1 - diag);
            if lo >= j1 {
                continue;
            }
            // SAFETY: row `i`'s cells `lo..j1` lie inside `out` in either
            // layout (the last row ends at the asserted length), and no
            // other tile covers row `i` columns `lo..j1`.
            let seg = unsafe { dst.segment(layout.at(n, i, lo), j1 - lo) };
            fill(i, lo, j1, seg);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(len: usize, seed: usize) -> Vec<f64> {
        (0..len)
            .map(|t| {
                ((t * 31 + seed * 17) % 23) as f64 * 0.37
                    + ((t as f64) * (0.11 + seed as f64)).sin()
            })
            .collect()
    }

    #[test]
    fn dot8_matches_naive_to_tolerance() {
        for len in [0, 1, 7, 15, 16, 17, 31, 33, 48, 255, 257] {
            let a = series(len, 1);
            let b = series(len, 2);
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let fast = dot8(&a, &b);
            assert!(
                (naive - fast).abs() <= 1e-9 * naive.abs().max(1.0),
                "len {len}: naive={naive} fast={fast}"
            );
        }
    }

    #[test]
    fn portable_and_simd_are_bit_identical() {
        #[cfg(target_arch = "x86_64")]
        {
            if !avx_available() {
                eprintln!("skipping: AVX not available");
                return;
            }
            for len in [
                0, 1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 65, 255, 256, 257, 1000,
            ] {
                let a = series(len, 3);
                let b = series(len, 5);
                let portable = dot8_portable(&a, &b);
                let simd = unsafe { dot8_avx(&a, &b) };
                assert_eq!(
                    portable.to_bits(),
                    simd.to_bits(),
                    "len {len}: portable={portable} simd={simd}"
                );
            }
        }
    }

    #[test]
    fn dot8x2_is_bit_equal_to_two_dot8_calls() {
        // The 1×2 register blocking must be invisible in the results —
        // including on lengths with a sequential tail.
        for len in [0, 1, 15, 16, 17, 48, 255, 257] {
            let a = series(len, 1);
            let b0 = series(len, 2);
            let b1 = series(len, 9);
            let (d0, d1) = dot8x2(&a, &b0, &b1);
            assert_eq!(d0.to_bits(), dot8(&a, &b0).to_bits(), "len {len} .0");
            assert_eq!(d1.to_bits(), dot8(&a, &b1).to_bits(), "len {len} .1");
            #[cfg(target_arch = "x86_64")]
            if avx_available() {
                let portable = dot8x2_portable(&a, &b0, &b1);
                let simd = unsafe { dot8x2_avx(&a, &b0, &b1) };
                assert_eq!(portable.0.to_bits(), simd.0.to_bits(), "len {len} .0");
                assert_eq!(portable.1.to_bits(), simd.1.to_bits(), "len {len} .1");
            }
        }
    }

    #[test]
    fn gram_matches_pair_map_bitwise() {
        // Odd n exercises the unpaired-j tail of every tile row.
        for n in [1, 2, 5, TILE - 1, TILE, TILE + 1, 2 * TILE + 3] {
            let w = 48;
            let rows: Vec<f64> = (0..n).flat_map(|i| series(w, i)).collect();
            for include_diag in [false, true] {
                // Stale NaN cells: every one must be overwritten.
                let mut gram = vec![f64::NAN; packed_len(n, include_diag)];
                gram_upper_tiled(&mut gram, &rows, n, w, include_diag);
                let mut map = vec![f64::NAN; gram.len()];
                pair_upper_tiled(&mut map, n, include_diag, |i, j| {
                    dot8(&rows[i * w..(i + 1) * w], &rows[j * w..(j + 1) * w])
                });
                assert_eq!(gram.len(), map.len(), "n={n} diag={include_diag}");
                assert!(
                    gram.iter()
                        .zip(&map)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "n={n} diag={include_diag}: register blocking changed a cell"
                );
            }
        }
    }

    #[test]
    fn pair_map_covers_every_pair_once() {
        for n in [0, 1, 2, 5, TILE - 1, TILE, TILE + 1, 2 * TILE + 3] {
            for include_diag in [false, true] {
                let mut got = vec![f64::NAN; packed_len(n, include_diag)];
                pair_upper_tiled(&mut got, n, include_diag, |i, j| (i * 1000 + j) as f64);
                let mut expect = Vec::new();
                for i in 0..n {
                    for j in (i + usize::from(!include_diag))..n {
                        expect.push((i * 1000 + j) as f64);
                    }
                }
                assert_eq!(got, expect, "n={n} diag={include_diag}");
            }
        }
    }

    #[test]
    fn pair_map_is_identical_across_thread_counts() {
        let n = 2 * TILE + 7;
        let rows: Vec<Vec<f64>> = (0..n).map(|i| series(48, i)).collect();
        let run = || {
            let mut out = vec![0.0; packed_len(n, true)];
            pair_upper_tiled(&mut out, n, true, |i, j| dot8(&rows[i], &rows[j]));
            out
        };
        let serial = cad_runtime::with_thread_override(1, run);
        let parallel = cad_runtime::with_thread_override(8, run);
        assert!(
            serial
                .iter()
                .zip(&parallel)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "tiled pair map must be bit-identical for any thread count"
        );
    }

    /// Row-major `n × cols` block with signed zeros mixed in, so the
    /// `0.0 + -0.0` corner of the lane chains is exercised.
    /// Row-major `n × cols` block with signed zeros mixed in.
    fn zeroed_block(n: usize, cols: usize, seed: usize) -> Vec<f64> {
        let mut block = series(n * cols, seed);
        for (t, x) in block.iter_mut().enumerate() {
            match (t * 7 + seed) % 11 {
                0 => *x = 0.0,
                1 => *x = -0.0,
                _ => {}
            }
        }
        block
    }

    /// The per-pair `dot8` fold [`fold_delta_upper`] replaces.
    fn fold_per_pair(packed: &mut [f64], n: usize, cols: usize, ops: [&[f64]; 4]) {
        let row =
            |block: &[f64], i: usize| -> Vec<f64> { block[i * cols..(i + 1) * cols].to_vec() };
        let [a, b, a_out, b_out] = ops;
        let mut cell = packed.iter_mut();
        for i in 0..n {
            for j in (i + 1)..n {
                *cell.next().expect("packed length") +=
                    dot8(&row(a, i), &row(b, j)) - dot8(&row(a_out, i), &row(b_out, j));
            }
        }
    }

    fn same_bits(x: &[f64], y: &[f64]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Portable body, AVX body and the dispatched kernel at 1 and 4
    /// threads, each from `start`, against the per-pair `dot8` fold.
    fn check_fold(n: usize, cols: usize, ops: [&[f64]; 4], start: &[f64], ctx: &str) {
        let [a, b, a_out, b_out] = ops;
        let mut expect = start.to_vec();
        fold_per_pair(&mut expect, n, cols, ops);
        let mut scratch = Vec::new();

        let mut portable = start.to_vec();
        fold_delta_upper_portable(&mut portable, n, cols, [a, b], [a_out, b_out], &mut scratch);
        assert!(
            same_bits(&portable, &expect),
            "{ctx}: portable vs per-pair dot8"
        );
        #[cfg(target_arch = "x86_64")]
        if avx_available() {
            let mut simd = start.to_vec();
            // SAFETY: AVX support was checked just above.
            unsafe {
                fold_delta_upper_avx(&mut simd, n, cols, [a, b], [a_out, b_out], &mut scratch)
            };
            assert!(same_bits(&simd, &portable), "{ctx}: AVX vs portable");
        }
        for threads in [1, 4] {
            let out = cad_runtime::with_thread_override(threads, || {
                let mut out = start.to_vec();
                fold_delta_upper(&mut out, n, cols, [a, b], [a_out, b_out], &mut scratch);
                out
            });
            assert!(
                same_bits(&out, &expect),
                "{ctx}: dispatched at {threads} thread(s)"
            );
        }
    }

    #[test]
    fn fold_delta_is_bit_equal_to_per_pair_fold_in_every_body() {
        for n in [1, 2, 3, 4, 5, 33, 130, 256] {
            for cols in [1, 7, 8, 16, 17, 24, 48] {
                let ops: Vec<Vec<f64>> = (1..=4).map(|seed| zeroed_block(n, cols, seed)).collect();
                let start: Vec<f64> = series(packed_len(n, false), 5)
                    .into_iter()
                    .enumerate()
                    .map(|(p, x)| if p % 4 == 0 { -0.0 } else { x })
                    .collect();
                let ops = [&ops[0][..], &ops[1], &ops[2], &ops[3]];
                check_fold(n, cols, ops, &start, &format!("n={n} cols={cols}"));
            }
        }
    }

    #[test]
    fn fold_delta_keeps_dot8_signed_zeros() {
        // Every incoming product is -0.0, so every incoming lane chain sums
        // to -0.0 — where `dot8`, whose chains start at 0.0, has +0.0 — and
        // every retired product is +0.0. A -0.0 delta would survive the
        // fold into a -0.0 cell; the per-pair fold gives +0.0.
        let n = 9;
        for cols in [7, 16, 33] {
            let (neg_zero, one) = (vec![-0.0; n * cols], vec![1.0; n * cols]);
            let minus_one = vec![-1.0; n * cols];
            let start = vec![-0.0; packed_len(n, false)];
            let ops = [&neg_zero[..], &one, &neg_zero, &minus_one];
            check_fold(n, cols, ops, &start, &format!("signed zeros, cols={cols}"));
        }
    }
}
