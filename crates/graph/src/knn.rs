//! Correlation k-NN graph construction — the TSG of §III-B.
//!
//! Each vertex (sensor) connects to its `k` most strongly correlated
//! neighbours (by |Pearson|, the consistent reading given the |ω(e)| < τ
//! pruning rule); edges keep the *signed* correlation as weight, and edges
//! whose |weight| falls below τ are pruned.
//!
//! The builder pre-z-normalises each sensor's window once, turning every
//! pairwise correlation into a dot product (O(w)). The exact path then
//! computes the round's correlation matrix over the upper triangle only —
//! O(n²/2·w), parallel across the `cad-runtime` pool — and selects each
//! vertex's top-k from its matrix row (O(n·k log n) total). The paper
//! reaches O(n log n) with approximate HNSW search — exactness here only
//! improves the graphs (see DESIGN.md substitution #3).
//!
//! Every parallel stage follows the `cad-runtime` determinism contract:
//! per-pair/per-vertex results are pure and placed by index, so the TSG is
//! bit-identical for any `CAD_RUNTIME_THREADS` value.

use cad_mts::{Mts, WindowSource};
use cad_runtime::Timer;
use cad_stats::correlation::{pearson_matrix_normalized, pearson_normalized, znorm_in_place};
use cad_stats::rank_correlation::fractional_ranks;

use crate::hnsw::{Hnsw, HnswConfig};
use crate::weighted::WeightedGraph;

/// Which correlation coefficient weighs the TSG edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorrelationKind {
    /// Pearson product-moment correlation — the paper's choice (§III-B).
    #[default]
    Pearson,
    /// Spearman rank correlation — a robust variant that ignores monotone
    /// distortions and single-point spikes (ablation option).
    Spearman,
}

/// How neighbour candidates are found.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BuildStrategy {
    /// Exact O(n²·w) pairwise scan (default; always correct).
    #[default]
    Exact,
    /// Approximate O(n log n) search via HNSW (Malkov & Yashunin) over the
    /// correlation distance `1 − |ρ|` — the construction the paper cites
    /// for its complexity bound. Falls back to exact below 64 sensors,
    /// where the index overhead dominates.
    Hnsw(HnswConfig),
}

/// TSG construction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnnConfig {
    /// Number of nearest (most correlated) neighbours per vertex.
    pub k: usize,
    /// Correlation threshold τ: edges with |weight| < τ are pruned.
    pub tau: f64,
    /// Correlation coefficient in use.
    pub kind: CorrelationKind,
    /// Candidate-search strategy.
    pub strategy: BuildStrategy,
}

impl KnnConfig {
    /// Validated constructor (Pearson, as in the paper).
    pub fn new(k: usize, tau: f64) -> Self {
        Self::with_kind(k, tau, CorrelationKind::Pearson)
    }

    /// Validated constructor with an explicit correlation kind.
    pub fn with_kind(k: usize, tau: f64, kind: CorrelationKind) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(
            (0.0..=1.0).contains(&tau),
            "tau must be in [0,1], got {tau}"
        );
        Self {
            k,
            tau,
            kind,
            strategy: BuildStrategy::Exact,
        }
    }

    /// Switch to HNSW candidate search (see [`BuildStrategy::Hnsw`]).
    pub fn with_hnsw(mut self, hnsw: HnswConfig) -> Self {
        self.strategy = BuildStrategy::Hnsw(hnsw);
        self
    }
}

/// Above this vertex count the O(n²) correlation matrix is skipped (its
/// memory would dominate) and correlations are recomputed per vertex.
const MATRIX_VERTEX_LIMIT: usize = 2048;

/// Vertices per parallel selection chunk. Fixed, so chunk boundaries —
/// hence scratch reuse and output placement — never depend on the thread
/// layout.
const SELECT_CHUNK: usize = 16;

/// Append the k strongest (by |ρ|) τ-passing neighbours of vertex `u` to
/// `picks`, strongest first, given the correlations of `u` against every
/// vertex; ties break toward the lower vertex id so the TSG is fully
/// deterministic.
///
/// A bounded insertion into k slots at the end of `picks`: no per-vertex
/// allocation and no comparator over the whole row. Strength is compared
/// through `|ρ|.to_bits()`, which orders non-negative finite values like
/// the values themselves (NaN never passes the τ test). Candidates arrive
/// in ascending id order, so a candidate whose key equals a held one ranks
/// after it — the lower-id tie-break.
fn select_neighbors_from_row(
    correlations: &[f64],
    k: usize,
    tau: f64,
    u: usize,
    picks: &mut Vec<(f64, usize)>,
) {
    if k == 0 {
        return;
    }
    let base = picks.len();
    let key = |c: f64| c.abs().to_bits();
    for (v, &c) in correlations.iter().enumerate() {
        let passes = c.abs() >= tau;
        if v == u || !passes {
            continue;
        }
        let held = &picks[base..];
        let kc = key(c);
        if held.len() == k && kc <= key(held[k - 1].0) {
            continue;
        }
        let pos = base + held.partition_point(|&(d, _)| key(d) >= kc);
        if held.len() == k {
            picks.pop();
        }
        picks.insert(pos, (c, v));
    }
}

/// One selection chunk's output: every vertex's picks in one flat buffer,
/// with `ends[o]` closing the picks of the chunk's `o`-th vertex.
struct ChunkPicks {
    picks: Vec<(f64, usize)>,
    ends: Vec<usize>,
}

impl ChunkPicks {
    fn with_capacity(vertices: usize, k: usize) -> Self {
        Self {
            picks: Vec::with_capacity(vertices * k),
            ends: Vec::with_capacity(vertices),
        }
    }

    /// Select vertex `u`'s neighbours from its correlation row.
    fn push_vertex(&mut self, correlations: &[f64], k: usize, tau: f64, u: usize) {
        select_neighbors_from_row(correlations, k, tau, u, &mut self.picks);
        self.ends.push(self.picks.len());
    }
}

/// Assemble the TSG from per-chunk picks laid out in vertex order.
fn assemble(n: usize, chunks: &[ChunkPicks]) -> WeightedGraph {
    let mut graph = WeightedGraph::new(n);
    let mut u = 0;
    for chunk in chunks {
        let mut start = 0;
        for &end in &chunk.ends {
            for &(c, v) in &chunk.picks[start..end] {
                if !graph.has_edge(u, v) {
                    graph.add_edge(u, v, c);
                }
            }
            start = end;
            u += 1;
        }
    }
    graph
}

/// TSG assembly from a pre-computed symmetric `n × n` correlation matrix:
/// per-vertex top-k selection (by |ρ|, ties toward the lower id) with
/// τ-pruning, fanned out across the `cad-runtime` pool. This is the entry
/// the incremental round engine uses — its `SlidingCov` accumulator
/// maintains the matrix across rounds, so TSG construction costs only the
/// selection, never a correlation rescan. The exact path funnels through
/// the same function once its matrix is built, so both engines share one
/// selection code path (and its determinism contract).
pub fn tsg_from_matrix(matrix: &[f64], n: usize, config: &KnnConfig) -> WeightedGraph {
    assert_eq!(matrix.len(), n * n, "matrix must be n × n");
    let k = config.k.min(n.saturating_sub(1));
    if k == 0 {
        return WeightedGraph::new(n);
    }
    let tau = config.tau;
    let _t = Timer::start("tsg.select");
    let chunks = cad_runtime::par_map_ranges(n, SELECT_CHUNK, |range| {
        let mut chunk = ChunkPicks::with_capacity(range.len(), k);
        for u in range {
            chunk.push_vertex(&matrix[u * n..(u + 1) * n], k, tau, u);
        }
        chunk
    });
    assemble(n, &chunks)
}

/// Correlations of `u` against all vertices, computed directly from the
/// normalised windows (fallback for networks too wide for the matrix).
fn correlation_row(normalized: &[f64], n: usize, w: usize, u: usize, out: &mut Vec<f64>) {
    let row_u = &normalized[u * w..(u + 1) * w];
    out.clear();
    out.extend((0..n).map(|v| pearson_normalized(row_u, &normalized[v * w..(v + 1) * w])));
}

/// Reusable correlation k-NN builder. Holds scratch buffers so per-round
/// TSG construction performs no allocations beyond the output graph.
#[derive(Debug)]
pub struct CorrelationKnn {
    config: KnnConfig,
    /// Z-normalised windows, row-major `n × w`.
    normalized: Vec<f64>,
}

impl CorrelationKnn {
    /// New builder with the given parameters.
    pub fn new(config: KnnConfig) -> Self {
        Self {
            config,
            normalized: Vec::new(),
        }
    }

    /// Build parameters in use.
    pub fn config(&self) -> KnnConfig {
        self.config
    }

    /// Build the TSG for the window `[start, start+w)` of `mts`.
    pub fn build(&mut self, mts: &Mts, start: usize, w: usize) -> WeightedGraph {
        self.build_from_source(&mts.window(start, w))
    }

    /// Build the TSG for any [`WindowSource`] — a contiguous `Mts` window
    /// or a streaming ring buffer. This is the exact engine's round path.
    pub fn build_from_source<S: WindowSource + ?Sized>(&mut self, src: &S) -> WeightedGraph {
        let n = src.n_sensors();
        let w = src.w();
        let k = self.config.k.min(n.saturating_sub(1));
        // Phase 1: z-normalise each sensor's window into the scratch
        // matrix. For Spearman, the window is replaced by its fractional
        // ranks first — Spearman's ρ is Pearson on ranks, so the dot-product
        // fast path applies unchanged.
        {
            let _t = Timer::start("tsg.normalize");
            self.normalized.clear();
            self.normalized.reserve(n * w);
            for s in 0..n {
                src.copy_sensor_into(s, &mut self.normalized);
                let row = &mut self.normalized[s * w..(s + 1) * w];
                if self.config.kind == CorrelationKind::Spearman {
                    let ranks = fractional_ranks(row);
                    row.copy_from_slice(&ranks);
                }
                znorm_in_place(row);
            }
        }
        // Phase 2: for each vertex pick the k largest |corr| neighbours.
        if k == 0 {
            return WeightedGraph::new(n);
        }
        if let BuildStrategy::Hnsw(hnsw_config) = self.config.strategy {
            if n >= 64 {
                return self.build_hnsw(n, w, k, hnsw_config);
            }
        }
        // Per-vertex candidate selection is embarrassingly parallel and fans
        // out across the cad-runtime pool. Each selection is a pure function
        // of the correlation values placed by vertex index, so the TSG is
        // bit-identical for every thread count. Typical networks share one
        // upper-triangle correlation matrix (then funnel through
        // [`tsg_from_matrix`], the selection path both engines share); very
        // wide ones recompute rows per vertex to cap memory at O(n·w).
        let tau = self.config.tau;
        let normalized = &self.normalized;
        if n <= MATRIX_VERTEX_LIMIT {
            let matrix = {
                let _t = Timer::start("tsg.correlation");
                pearson_matrix_normalized(normalized, n, w)
            };
            return tsg_from_matrix(&matrix, n, &self.config);
        }
        let _t = Timer::start("tsg.select");
        let chunks = cad_runtime::par_map_ranges(n, SELECT_CHUNK, |range| {
            let mut chunk = ChunkPicks::with_capacity(range.len(), k);
            let mut row: Vec<f64> = Vec::with_capacity(n);
            for u in range {
                correlation_row(normalized, n, w, u, &mut row);
                chunk.push_vertex(&row, k, tau, u);
            }
            chunk
        });
        assemble(n, &chunks)
    }

    /// HNSW-based candidate search over the already-normalised windows.
    fn build_hnsw(&self, n: usize, w: usize, k: usize, hnsw_config: HnswConfig) -> WeightedGraph {
        let normalized = &self.normalized;
        let corr = |a: usize, b: usize| -> f64 {
            pearson_normalized(
                &normalized[a * w..(a + 1) * w],
                &normalized[b * w..(b + 1) * w],
            )
        };
        // Correlation distance: 0 for |ρ| = 1, 1 for uncorrelated.
        let dist = |a: usize, b: usize| -> f64 { 1.0 - corr(a, b).abs() };
        let mut index = Hnsw::new(hnsw_config, &dist);
        for i in 0..n {
            index.insert(i);
        }
        let mut graph = WeightedGraph::new(n);
        for u in 0..n {
            for (d, v) in index.knn(u, k) {
                let c_abs = 1.0 - d;
                if c_abs < self.config.tau {
                    continue;
                }
                if !graph.has_edge(u, v) {
                    graph.add_edge(u, v, corr(u, v));
                }
            }
        }
        graph
    }

    /// Convenience: build over the full series.
    pub fn build_full(&mut self, mts: &Mts) -> WeightedGraph {
        self.build(mts, 0, mts.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The collect + partial-select + sort selection the k-slot insertion
    /// replaced, kept as the oracle.
    fn reference_selection(row: &[f64], k: usize, tau: f64, u: usize) -> Vec<(f64, usize)> {
        let mut cands: Vec<(f64, usize)> = row
            .iter()
            .enumerate()
            .filter(|&(v, c)| v != u && c.abs() >= tau)
            .map(|(v, &c)| (c, v))
            .collect();
        cands.sort_by(|a, b| {
            b.0.abs()
                .partial_cmp(&a.0.abs())
                .expect("finite")
                .then(a.1.cmp(&b.1))
        });
        cands.truncate(k);
        cands
    }

    #[test]
    fn slot_selection_matches_sorting_oracle_bit_for_bit() {
        // A coarse value grid forces ties (including ±x and ±0.0 pairs);
        // NaN cells must never be picked.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..3000 {
            let n = 1 + (next() % 40) as usize;
            let row: Vec<f64> = (0..n)
                .map(|_| match next() % 10 {
                    0 => f64::NAN,
                    1 => -0.0,
                    2 => 0.0,
                    r => (next() % 9) as f64 / 8.0 * if r % 2 == 0 { 1.0 } else { -1.0 },
                })
                .collect();
            let k = 1 + (next() % 10) as usize;
            let tau = [0.0, 0.25, 0.5][case % 3];
            let u = (next() as usize) % n;
            let mut picks = vec![(9.0, usize::MAX)];
            select_neighbors_from_row(&row, k, tau, u, &mut picks);
            let expect = reference_selection(&row, k, tau, u);
            assert_eq!(picks.len(), expect.len() + 1, "case {case}: count");
            for (got, want) in picks[1..].iter().zip(&expect) {
                assert_eq!(
                    (got.0.to_bits(), got.1),
                    (want.0.to_bits(), want.1),
                    "case {case}: row {row:?} k={k} tau={tau} u={u}"
                );
            }
        }
    }

    /// Two tightly correlated blocks of sensors with an uncorrelated loner.
    fn blocky_mts() -> Mts {
        let t: Vec<f64> = (0..64).map(|i| i as f64 * 0.1).collect();
        let base_a: Vec<f64> = t.iter().map(|x| (x * 2.0).sin()).collect();
        let base_b: Vec<f64> = t.iter().map(|x| (x * 5.0).cos()).collect();
        // Deterministic "noise" decorrelated from both bases.
        let loner: Vec<f64> = (0..64)
            .map(|i| (((i * 2654435761usize) % 97) as f64) / 97.0)
            .collect();
        Mts::from_series(vec![
            base_a.clone(),
            base_a.iter().map(|x| 2.0 * x + 1.0).collect(),
            base_a.iter().map(|x| -3.0 * x).collect(),
            base_b.clone(),
            base_b.iter().map(|x| 0.5 * x - 2.0).collect(),
            loner,
        ])
    }

    #[test]
    fn connects_correlated_blocks() {
        let mts = blocky_mts();
        let mut builder = CorrelationKnn::new(KnnConfig::new(2, 0.5));
        let g = builder.build_full(&mts);
        // Block A (0,1,2) must be mutually connected.
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(1, 2));
        // Block B (3,4) connected.
        assert!(g.has_edge(3, 4));
        // No cross-block strong edges.
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(1, 4));
    }

    #[test]
    fn negative_correlations_survive_with_sign() {
        let mts = blocky_mts();
        let mut builder = CorrelationKnn::new(KnnConfig::new(2, 0.5));
        let g = builder.build_full(&mts);
        // Sensor 2 is −3× sensor 0: strong negative edge.
        let w = g.edge_weight(0, 2).expect("edge (0,2) must exist");
        assert!(w < -0.99, "expected strong negative weight, got {w}");
    }

    #[test]
    fn tau_prunes_weak_edges() {
        let mts = blocky_mts();
        // τ = 0.95 keeps only the near-perfect in-block edges; the loner is
        // isolated.
        let mut builder = CorrelationKnn::new(KnnConfig::new(5, 0.95));
        let g = builder.build_full(&mts);
        assert_eq!(g.degree(5), 0, "loner must be isolated under high tau");
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn tau_zero_keeps_k_edges_per_vertex() {
        let mts = blocky_mts();
        let mut builder = CorrelationKnn::new(KnnConfig::new(2, 0.0));
        let g = builder.build_full(&mts);
        // Every vertex initiates exactly k=2 edges, but mutual selections
        // dedup, so degree ≥ 2 is not guaranteed; the *initiated* count is.
        // Instead check the weaker invariant: every vertex has degree ≥ 1
        // and total edges ≤ n·k.
        for u in 0..g.n_vertices() {
            assert!(g.degree(u) >= 1, "vertex {u} unexpectedly isolated");
        }
        assert!(g.n_edges() <= g.n_vertices() * 2);
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let mts = blocky_mts();
        let mut builder = CorrelationKnn::new(KnnConfig::new(100, 0.0));
        let g = builder.build_full(&mts);
        // With k clamped to n-1 and τ=0 the graph is complete.
        assert_eq!(g.n_edges(), 6 * 5 / 2);
    }

    #[test]
    fn windows_differ_when_data_changes() {
        // First half: sensors 0,1 correlated. Second half: sensor 1 flips to
        // an independent pattern → the strong (0,1) edge must disappear.
        let n = 64;
        let a: Vec<f64> = (0..2 * n).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut b = a.clone();
        for (j, bj) in b.iter_mut().enumerate().skip(n) {
            *bj = (((j * 2654435761usize) % 89) as f64) / 89.0;
        }
        let mts = Mts::from_series(vec![a, b]);
        let mut builder = CorrelationKnn::new(KnnConfig::new(1, 0.6));
        let g1 = builder.build(&mts, 0, n);
        let g2 = builder.build(&mts, n, n);
        assert!(g1.has_edge(0, 1));
        assert!(!g2.has_edge(0, 1));
    }

    #[test]
    fn deterministic_across_builds() {
        let mts = blocky_mts();
        let mut b1 = CorrelationKnn::new(KnnConfig::new(3, 0.4));
        let mut b2 = CorrelationKnn::new(KnnConfig::new(3, 0.4));
        assert_eq!(b1.build_full(&mts), b2.build_full(&mts));
    }

    #[test]
    fn constant_sensors_are_isolated() {
        let mts = Mts::from_series(vec![
            vec![1.0; 32],
            (0..32).map(|i| (i as f64).sin()).collect(),
            (0..32).map(|i| (i as f64).sin() * 2.0).collect(),
        ]);
        let mut builder = CorrelationKnn::new(KnnConfig::new(2, 0.3));
        let g = builder.build_full(&mts);
        assert_eq!(g.degree(0), 0);
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn hnsw_strategy_matches_exact_on_structured_data() {
        // 80 sensors in 4 strongly-driven blocks: the approximate index
        // must recover the same block edges as the exact scan.
        let len = 96usize;
        let series: Vec<Vec<f64>> = (0..80)
            .map(|s| {
                let block = s % 4;
                (0..len)
                    .map(|t| {
                        let base = ((t as f64) * (0.11 + 0.07 * block as f64)).sin();
                        base * (1.0 + 0.01 * (s / 4) as f64)
                            + 0.02 * (((t * 31 + s * 17) % 13) as f64 - 6.0)
                    })
                    .collect()
            })
            .collect();
        let mts = Mts::from_series(series);
        let mut exact = CorrelationKnn::new(KnnConfig::new(5, 0.6));
        let mut approx =
            CorrelationKnn::new(KnnConfig::new(5, 0.6).with_hnsw(HnswConfig::default()));
        let ge = exact.build_full(&mts);
        let ga = approx.build_full(&mts);
        // Every approximate edge must be a genuine strong correlation…
        for (u, v, wt) in ga.edges() {
            assert!(wt.abs() >= 0.6, "edge ({u},{v}) weight {wt}");
        }
        // …and edge recall against the exact TSG must be high.
        let recalled = ge.edges().filter(|&(u, v, _)| ga.has_edge(u, v)).count();
        let recall = recalled as f64 / ge.n_edges().max(1) as f64;
        assert!(recall > 0.85, "edge recall = {recall:.3}");
    }

    #[test]
    fn parallel_path_matches_small_path_logic() {
        // 200 sensors → the threaded path runs; the result must be
        // identical across repeated builds (thread layout must not leak).
        let len = 64usize;
        let series: Vec<Vec<f64>> = (0..200)
            .map(|s| {
                let block = s % 5;
                (0..len)
                    .map(|t| {
                        ((t as f64) * (0.1 + 0.05 * block as f64)).sin()
                            + 0.03 * (((t * 31 + s * 17) % 13) as f64 - 6.0)
                    })
                    .collect()
            })
            .collect();
        let mts = Mts::from_series(series);
        let mut b1 = CorrelationKnn::new(KnnConfig::new(6, 0.5));
        let mut b2 = CorrelationKnn::new(KnnConfig::new(6, 0.5));
        let g1 = b1.build_full(&mts);
        let g2 = b2.build_full(&mts);
        assert_eq!(g1, g2, "parallel TSG build must be deterministic");
        // Structure sanity: vertex 0's strong neighbours are all in-block
        // (block = id mod 5) and the graph is well populated.
        assert!(g1.degree(0) >= 3);
        assert!(
            g1.neighbors(0).iter().all(|&(v, _)| v % 5 == 0),
            "vertex 0 linked across blocks: {:?}",
            g1.neighbors(0)
        );
        assert!(g1.n_edges() > 100);
    }

    #[test]
    fn tsg_identical_across_thread_counts() {
        let len = 48usize;
        let series: Vec<Vec<f64>> = (0..96)
            .map(|s| {
                (0..len)
                    .map(|t| {
                        ((t as f64) * (0.09 + 0.04 * (s % 6) as f64)).sin()
                            + 0.05 * (((t * 29 + s * 13) % 11) as f64 - 5.0)
                    })
                    .collect()
            })
            .collect();
        let mts = Mts::from_series(series);
        let serial = cad_runtime::with_thread_override(1, || {
            CorrelationKnn::new(KnnConfig::new(4, 0.4)).build_full(&mts)
        });
        let parallel = cad_runtime::with_thread_override(8, || {
            CorrelationKnn::new(KnnConfig::new(4, 0.4)).build_full(&mts)
        });
        assert_eq!(serial, parallel, "TSG must not depend on the thread count");
    }

    #[test]
    fn hnsw_strategy_falls_back_below_threshold() {
        // Under 64 sensors the exact path runs even with the HNSW flag.
        let mts = blocky_mts();
        let mut exact = CorrelationKnn::new(KnnConfig::new(2, 0.5));
        let mut approx =
            CorrelationKnn::new(KnnConfig::new(2, 0.5).with_hnsw(HnswConfig::default()));
        assert_eq!(exact.build_full(&mts), approx.build_full(&mts));
    }

    #[test]
    fn spearman_kind_survives_spikes() {
        // A single huge spike on one sensor wrecks its Pearson edge but
        // not its Spearman edge.
        let base: Vec<f64> = (0..64).map(|i| (i as f64 * 0.2).sin()).collect();
        let mut spiked = base.clone();
        spiked[30] = 1e6;
        let third: Vec<f64> = base.iter().map(|x| 0.9 * x + 0.1).collect();
        let mts = Mts::from_series(vec![base, spiked, third]);
        let mut pearson_b =
            CorrelationKnn::new(KnnConfig::with_kind(1, 0.8, CorrelationKind::Pearson));
        let mut spearman_b =
            CorrelationKnn::new(KnnConfig::with_kind(1, 0.8, CorrelationKind::Spearman));
        let gp = pearson_b.build_full(&mts);
        let gs = spearman_b.build_full(&mts);
        assert!(
            !gp.has_edge(0, 1),
            "Pearson edge should be destroyed by the spike"
        );
        assert!(gs.has_edge(0, 1), "Spearman edge should survive the spike");
    }

    #[test]
    fn spearman_matches_pearson_on_clean_monotone_data() {
        let mts = blocky_mts();
        let mut p = CorrelationKnn::new(KnnConfig::with_kind(2, 0.5, CorrelationKind::Pearson));
        let mut sp = CorrelationKnn::new(KnnConfig::with_kind(2, 0.5, CorrelationKind::Spearman));
        let gp = p.build_full(&mts);
        let gs = sp.build_full(&mts);
        // The block structure is identical under both coefficients.
        for (u, v) in [(0, 1), (0, 2), (1, 2), (3, 4)] {
            assert_eq!(gp.has_edge(u, v), gs.has_edge(u, v), "edge ({u},{v})");
        }
    }

    #[test]
    #[should_panic(expected = "tau must be in [0,1]")]
    fn invalid_tau_rejected() {
        KnnConfig::new(3, 1.5);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_rejected() {
        KnnConfig::new(0, 0.5);
    }
}
