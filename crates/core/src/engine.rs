//! Round engines — the strategy that turns one round's window into a TSG.
//!
//! Every CAD round needs the window's correlation structure (§III-B). The
//! seed implementation recomputed it from scratch each round — O(n²·w) —
//! even though consecutive windows share `w − s` of their points. Two
//! arithmetics build the round's correlation matrix, one type each, and
//! [`Engine`] holds the one a configuration asks for:
//!
//! * [`Engine::Exact`] — [`CorrelationKnn`]: z-normalise, tiled Gram,
//!   top-k selection. The dense exact engine; no cross-round state.
//! * [`Engine::Accumulator`] — an [`IncrementalEngine`]: a dense
//!   [`SlidingCov`] or masked [`MaskedSlidingCov`] co-moment accumulator
//!   updated by the `s` incoming and `s` retiring points, O(n²·s) per
//!   round, with an exact rebuild every `R` rounds to bound floating-point
//!   drift (see `cad_stats::sliding` for the conditioning story). Memory
//!   is O(n²) sums and one packed correlation triangle, plus last round's
//!   window kept as a ring of `n·w` values. Every engine other than the
//!   dense exact one is this accumulator: a masked [`EngineChoice::Exact`]
//!   is the masked accumulator with `R = 1`, a fresh pairwise-deletion
//!   rebuild every round.
//!
//! Batch detection, `push_window` streaming and [`StreamingCad`]
//! (crate::StreamingCad) ring buffers all funnel through one
//! engine-driven code path: the detector hands the engine a
//! [`WindowSource`] and gets a TSG back. Every engine finishes its round
//! into a packed [`Triangle`] and selects from it; none builds an `n × n`
//! matrix.
//!
//! ## Continuity
//!
//! The incremental path is only valid when the new window really is the
//! previous one advanced by `s`. Rather than trust callers to declare
//! continuity (an unverifiable contract across `push_window`'s arbitrary
//! `start` values), the engine keeps last round's window and *checks*: the
//! overlap region must match bit-for-bit. A mismatch — warm-up/detect
//! boundaries, schedule jumps, a brand-new stream — silently falls back to
//! an exact rebuild. The check reads the window source's segments in
//! place, O(n·w) comparisons and no copy, negligible next to the O(n²·s)
//! update it guards, and makes the engine unconditionally correct.
//!
//! The kept window is a ring per sensor with one shared head. A slide
//! copies the oldest `s` columns out as the retire block and overwrites
//! them with the `s` incoming ones — `n·s` writes, not an `n·w` copy — and
//! a rebuild copies the window in linearly. The continuity check, the
//! column exchange and the rebuild copy are timed as `engine.window`.

use std::borrow::Cow;

use cad_graph::{tsg_from_triangle, CorrelationKnn, KnnConfig, WeightedGraph};
use cad_mts::WindowSource;
use cad_runtime::Timer;
use cad_stats::{MaskedCovState, MaskedSlidingCov, SlidingCov, Triangle};

use crate::config::{CadConfig, EngineChoice};

/// The incremental engine's co-moment accumulator: dense (the historical
/// bit-exact path) or masked (pairwise deletion for NaN-bearing streams).
#[derive(Debug)]
pub(crate) enum CovSlot {
    Dense(SlidingCov),
    Masked(MaskedSlidingCov),
}

impl CovSlot {
    fn n_sensors(&self) -> usize {
        match self {
            CovSlot::Dense(c) => c.n_sensors(),
            CovSlot::Masked(c) => c.n_sensors(),
        }
    }

    fn rebuild(&mut self, rows: &[f64]) {
        match self {
            CovSlot::Dense(c) => c.rebuild(rows),
            CovSlot::Masked(c) => c.rebuild(rows),
        }
    }

    fn slide(&mut self, incoming: &[f64], outgoing: &[f64], cols: usize) {
        match self {
            CovSlot::Dense(c) => c.slide(incoming, outgoing, cols),
            CovSlot::Masked(c) => c.slide(incoming, outgoing, cols),
        }
    }

    fn correlation_triangle_into(&self, tri: &mut Triangle) {
        match self {
            CovSlot::Dense(c) => c.correlation_triangle_into(tri),
            CovSlot::Masked(c) => c.correlation_triangle_into(tri),
        }
    }

    #[cfg(test)]
    fn correlation(&self, i: usize, j: usize) -> f64 {
        match self {
            CovSlot::Dense(c) => c.correlation(i, j),
            CovSlot::Masked(c) => c.correlation(i, j),
        }
    }
}

/// Sliding co-moment engine: O(n²·s) per round instead of O(n²·w).
#[derive(Debug)]
pub(crate) struct IncrementalEngine {
    knn: KnnConfig,
    w: usize,
    step: usize,
    rebuild_every: usize,
    /// Stands for a masked [`EngineChoice::Exact`]: rebuilt every round,
    /// and named, timed and counted as the exact engine.
    exact: bool,
    cov: CovSlot,
    /// Last round's window, one ring of `w` readings per sensor: sensor
    /// `i`'s reading at time offset `t` (0 = oldest) sits at
    /// `prev[i·w + (head + t) % w]`. The retire source and the bit-for-bit
    /// continuity witness.
    prev: Vec<f64>,
    /// Ring position of every sensor's oldest reading.
    pub(crate) head: usize,
    primed: bool,
    rounds_since_rebuild: usize,
    // Scratch (not part of the logical state).
    incoming: Vec<f64>,
    outgoing: Vec<f64>,
    triangle: Triangle,
}

/// A sequence held as two slices, `a ++ b` — a window source's segments
/// or a ring read from its head.
type Pieces<'a> = (&'a [f64], &'a [f64]);

/// The `len` items of `pieces` from offset `start`, as two slices.
fn span<'a>((a, b): Pieces<'a>, start: usize, len: usize) -> Pieces<'a> {
    if start >= a.len() {
        let at = start - a.len();
        (&b[at..at + len], &[])
    } else {
        let first = &a[start..(start + len).min(a.len())];
        (first, &b[..len - first.len()])
    }
}

/// Row `i` of `n` rings of `w` readings with head `head`, from its oldest
/// reading.
fn ring_row(prev: &[f64], w: usize, head: usize, i: usize) -> Pieces<'_> {
    let row = &prev[i * w..(i + 1) * w];
    (&row[head..], &row[..head])
}

/// Whether two equally long sequences agree, `same` applied to aligned
/// runs of equal length.
fn pieces_agree(x: Pieces, y: Pieces, same: impl Fn(&[f64], &[f64]) -> bool) -> bool {
    let ((mut x0, mut x1), (mut y0, mut y1)) = (x, y);
    loop {
        if x0.is_empty() {
            if x1.is_empty() {
                return true;
            }
            (x0, x1) = (x1, &[]);
        }
        if y0.is_empty() {
            (y0, y1) = (y1, &[]);
        }
        let m = x0.len().min(y0.len());
        if !same(&x0[..m], &y0[..m]) {
            return false;
        }
        (x0, y0) = (&x0[m..], &y0[m..]);
    }
}

/// Whether `same` holds for every pair of lanes of the equally long `a`
/// and `b`: eight lanes per step with no branch between them, so the
/// comparison vectorises.
fn lanes_agree(a: &[f64], b: &[f64], same: impl Fn(f64, f64) -> bool) -> bool {
    let (xa, xb) = (a.chunks_exact(8), b.chunks_exact(8));
    let tail = xa.remainder().iter().zip(xb.remainder());
    tail.fold(true, |ok, (&p, &q)| ok & same(p, q))
        && xa
            .zip(xb)
            .all(|(x, y)| x.iter().zip(y).fold(true, |ok, (&p, &q)| ok & same(p, q)))
}

impl IncrementalEngine {
    /// The accumulator `config` asks for on `n_sensors` sensors: masked
    /// under a masked gap policy, dense otherwise, rebuilt every
    /// `rebuild_every` rounds — every round for [`EngineChoice::Exact`].
    pub(crate) fn new(config: &CadConfig, n_sensors: usize) -> Self {
        let (exact, rebuild_every) = match config.engine {
            EngineChoice::Exact => (true, 1),
            EngineChoice::Incremental { rebuild_every } => (false, rebuild_every),
        };
        assert!(rebuild_every >= 1, "rebuild period must be at least 1");
        let w = config.window.w;
        Self {
            knn: config.knn,
            w,
            step: config.window.s,
            rebuild_every,
            exact,
            cov: if config.gap_policy.is_masked() {
                CovSlot::Masked(MaskedSlidingCov::new(n_sensors, w))
            } else {
                CovSlot::Dense(SlidingCov::new(n_sensors, w))
            },
            prev: Vec::new(),
            head: 0,
            primed: false,
            rounds_since_rebuild: 0,
            incoming: Vec::new(),
            outgoing: Vec::new(),
            triangle: Triangle::new(),
        }
    }

    /// Sensor `i`'s kept window from its oldest reading.
    fn ring(&self, i: usize) -> Pieces<'_> {
        ring_row(&self.prev, self.w, self.head, i)
    }

    /// Whether `window` is the kept one advanced by `step`: the overlap
    /// must match bit-for-bit per sensor, read from the source in place.
    ///
    /// The masked path compares raw bit patterns, because the overlap may
    /// legitimately contain NaN and `NaN != NaN` would force a rebuild
    /// every round, silently degrading the engine to exact cost. The dense
    /// path keeps plain `==` (NaN never enters it; `GapPolicy::Fail`
    /// rejects NaN at the push boundary) — preserving the historical
    /// behavior bit for bit.
    fn is_continuation(&self, window: &dyn WindowSource) -> bool {
        match &self.cov {
            CovSlot::Dense(_) => self.overlap_agrees(window, |a, b| a == b),
            CovSlot::Masked(_) => self.overlap_agrees(window, |a, b| a.to_bits() == b.to_bits()),
        }
    }

    /// Whether `same` holds between every overlap reading of `window` and
    /// the kept one it should repeat.
    fn overlap_agrees(&self, window: &dyn WindowSource, same: impl Fn(f64, f64) -> bool) -> bool {
        if !self.primed {
            return false;
        }
        let (w, s) = (self.w, self.step);
        let overlap = w - s.min(w);
        (0..self.cov.n_sensors()).all(|i| {
            let new = span(window.segments(i), 0, overlap);
            pieces_agree(new, span(self.ring(i), s, overlap), |a, b| {
                lanes_agree(a, b, &same)
            })
        })
    }

    /// Copy every sensor's oldest `step` readings out as the retire block
    /// and the window's newest `step` in as the incoming one, then
    /// overwrite the first with the second in the ring.
    fn exchange_columns(&mut self, window: &dyn WindowSource) {
        let (w, s, head) = (self.w, self.step, self.head);
        let (incoming, outgoing) = (&mut self.incoming, &mut self.outgoing);
        incoming.clear();
        outgoing.clear();
        for i in 0..self.cov.n_sensors() {
            let (a, b) = span(ring_row(&self.prev, w, head, i), 0, s);
            outgoing.extend_from_slice(a);
            outgoing.extend_from_slice(b);
            let (a, b) = span(window.segments(i), w - s, s);
            incoming.extend_from_slice(a);
            incoming.extend_from_slice(b);
        }
        let first = (w - head).min(s);
        for (row, cols) in self.prev.chunks_exact_mut(w).zip(incoming.chunks_exact(s)) {
            row[head..head + first].copy_from_slice(&cols[..first]);
            row[..s - first].copy_from_slice(&cols[first..]);
        }
        self.head = (head + s) % w;
    }

    /// Last round's window in time order, row-major `n × w`.
    fn window_in_time_order(&self) -> Cow<'_, [f64]> {
        if self.head == 0 {
            return Cow::Borrowed(&self.prev);
        }
        let mut rows = Vec::with_capacity(self.prev.len());
        for i in 0..self.cov.n_sensors() {
            let (a, b) = self.ring(i);
            rows.extend_from_slice(a);
            rows.extend_from_slice(b);
        }
        Cow::Owned(rows)
    }

    /// Persistence view: `(rounds_since_rebuild, cov, prev_window)` once
    /// the engine has processed at least one round (dense path only).
    pub(crate) fn persist_parts(&self) -> Option<(usize, &SlidingCov, Cow<'_, [f64]>)> {
        match &self.cov {
            CovSlot::Dense(cov) if self.primed => {
                Some((self.rounds_since_rebuild, cov, self.window_in_time_order()))
            }
            _ => None,
        }
    }

    /// Persistence view of the masked path: `(rounds_since_rebuild,
    /// masked-cov state, prev_window)` once primed.
    pub(crate) fn persist_parts_masked(&self) -> Option<(usize, MaskedCovState, Cow<'_, [f64]>)> {
        match &self.cov {
            CovSlot::Masked(cov) if self.primed => Some((
                self.rounds_since_rebuild,
                cov.to_state(),
                self.window_in_time_order(),
            )),
            _ => None,
        }
    }

    /// Restore state captured via [`Self::persist_parts`].
    pub(crate) fn restore(&mut self, rounds_since_rebuild: usize, cov: SlidingCov, prev: Vec<f64>) {
        assert_eq!(
            cov.n_sensors(),
            self.cov.n_sensors(),
            "sensor count mismatch"
        );
        assert_eq!(cov.w(), self.w, "window length mismatch");
        assert_eq!(
            prev.len(),
            self.cov.n_sensors() * self.w,
            "window size mismatch"
        );
        assert!(cov.is_primed(), "restored engine state must be primed");
        self.cov = CovSlot::Dense(cov);
        self.prev = prev;
        self.head = 0;
        self.primed = true;
        self.rounds_since_rebuild = rounds_since_rebuild;
    }

    /// Restore masked state captured via [`Self::persist_parts_masked`].
    pub(crate) fn restore_masked(
        &mut self,
        rounds_since_rebuild: usize,
        state: MaskedCovState,
        prev: Vec<f64>,
    ) {
        let n = self.cov.n_sensors();
        assert_eq!(prev.len(), n * self.w, "window size mismatch");
        let cov = MaskedSlidingCov::from_state(n, self.w, state);
        assert!(cov.is_primed(), "restored engine state must be primed");
        self.cov = CovSlot::Masked(cov);
        self.prev = prev;
        self.head = 0;
        self.primed = true;
        self.rounds_since_rebuild = rounds_since_rebuild;
    }

    /// Whether this engine runs the masked (pairwise-deletion) path.
    pub(crate) fn is_masked(&self) -> bool {
        matches!(self.cov, CovSlot::Masked(_))
    }

    /// Build the TSG over `window`: a slide when the window continues the
    /// previous one and the rebuild period allows it, else a rebuild.
    pub(crate) fn build_tsg(&mut self, window: &dyn WindowSource) -> WeightedGraph {
        let _t = Timer::start(if self.exact {
            "engine.exact"
        } else {
            "engine.incremental"
        });
        let n = self.cov.n_sensors();
        assert_eq!(window.n_sensors(), n, "sensor count mismatch");
        assert_eq!(window.w(), self.w, "window length mismatch");
        let slide_ok = {
            let _t = Timer::start("engine.window");
            let ok =
                self.rounds_since_rebuild + 1 < self.rebuild_every && self.is_continuation(window);
            if ok {
                self.exchange_columns(window);
            } else {
                self.prev.clear();
                for i in 0..n {
                    window.copy_sensor_into(i, &mut self.prev);
                }
                self.head = 0;
            }
            ok
        };
        if slide_ok {
            self.cov.slide(&self.incoming, &self.outgoing, self.step);
            self.rounds_since_rebuild += 1;
            crate::metrics::incremental_slides_total().inc();
        } else {
            if self.exact {
                crate::metrics::exact_rebuilds_total().inc();
            } else {
                crate::metrics::incremental_rebuilds_total().inc();
                cad_obs::tracer().emit(cad_obs::TraceEvent::RebuildTriggered {
                    rounds_since_rebuild: self.rounds_since_rebuild as u64,
                });
            }
            self.cov.rebuild(&self.prev);
            self.rounds_since_rebuild = 0;
        }
        self.primed = true;
        self.cov.correlation_triangle_into(&mut self.triangle);
        tsg_from_triangle(&self.triangle, &self.knn)
    }

    /// Drop all cross-round state (the stream is starting over).
    pub(crate) fn reset(&mut self) {
        self.prev.clear();
        self.head = 0;
        self.primed = false;
        self.rounds_since_rebuild = 0;
        self.cov = match &self.cov {
            CovSlot::Dense(c) => CovSlot::Dense(SlidingCov::new(c.n_sensors(), self.w)),
            CovSlot::Masked(c) => CovSlot::Masked(MaskedSlidingCov::new(c.n_sensors(), self.w)),
        };
    }
}

/// The detector's engine slot: one variant per correlation arithmetic.
#[derive(Debug)]
pub(crate) enum Engine {
    /// The dense exact engine.
    Exact(CorrelationKnn),
    /// Every other engine (see [`IncrementalEngine::new`]).
    Accumulator(Box<IncrementalEngine>),
}

impl Engine {
    /// Engine mandated by `config` for an `n_sensors`-wide detector.
    pub(crate) fn for_config(config: &CadConfig, n_sensors: usize) -> Self {
        match config.engine {
            EngineChoice::Exact if !config.gap_policy.is_masked() => {
                Engine::Exact(CorrelationKnn::new(config.knn))
            }
            _ => Engine::Accumulator(Box::new(IncrementalEngine::new(config, n_sensors))),
        }
    }

    /// Build the TSG over `window`, carrying state from the previous call
    /// where the engine has any.
    pub(crate) fn build_tsg(&mut self, window: &dyn WindowSource) -> WeightedGraph {
        match self {
            Engine::Exact(knn) => {
                let _t = Timer::start("engine.exact");
                crate::metrics::exact_rebuilds_total().inc();
                knn.build_from_source(window)
            }
            Engine::Accumulator(e) => e.build_tsg(window),
        }
    }

    /// Drop all cross-round state (the stream is starting over).
    pub(crate) fn reset(&mut self) {
        if let Engine::Accumulator(e) = self {
            e.reset();
        }
    }

    /// Engine display name (`"exact"` / `"incremental"`).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Engine::Accumulator(e) if !e.exact => "incremental",
            _ => "exact",
        }
    }

    /// The accumulator, for persistence.
    pub(crate) fn accumulator(&self) -> Option<&IncrementalEngine> {
        match self {
            Engine::Accumulator(e) => Some(e),
            Engine::Exact(_) => None,
        }
    }

    /// The accumulator, for the restore path.
    pub(crate) fn accumulator_mut(&mut self) -> Option<&mut IncrementalEngine> {
        match self {
            Engine::Accumulator(e) => Some(e),
            Engine::Exact(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GapPolicy;
    use cad_mts::Mts;
    use cad_stats::pearson;

    /// A configuration for `n` sensors under `w`/`s` windows with TSG
    /// parameters `knn`.
    fn config(
        knn: KnnConfig,
        n: usize,
        (w, s): (usize, usize),
        engine: EngineChoice,
        gap_policy: GapPolicy,
    ) -> CadConfig {
        let mut config = CadConfig::builder(n)
            .window(w, s)
            .engine(engine)
            .gap_policy(gap_policy)
            .build();
        config.knn = knn;
        config
    }

    /// The dense accumulator rebuilt every `rebuild_every` rounds.
    fn incremental(
        knn: KnnConfig,
        n: usize,
        w: usize,
        s: usize,
        rebuild_every: usize,
    ) -> IncrementalEngine {
        let engine = EngineChoice::Incremental { rebuild_every };
        IncrementalEngine::new(&config(knn, n, (w, s), engine, GapPolicy::Fail), n)
    }

    /// Same vertices, same edges, weights within `tol` (the two engines
    /// compute mathematically identical correlations along differently
    /// rounded paths, so edge weights agree only to ~1e-15).
    fn assert_graphs_match(a: &WeightedGraph, b: &WeightedGraph, tol: f64, ctx: &str) {
        assert_eq!(a.n_vertices(), b.n_vertices(), "{ctx}: vertex count");
        assert_eq!(a.n_edges(), b.n_edges(), "{ctx}: edge count");
        for (u, v, wa) in a.edges() {
            let wb = b
                .edge_weight(u, v)
                .unwrap_or_else(|| panic!("{ctx}: edge ({u},{v}) missing"));
            assert!(
                (wa - wb).abs() <= tol,
                "{ctx}: edge ({u},{v}) weight {wa} vs {wb}"
            );
        }
    }

    fn mts(n: usize, len: usize) -> Mts {
        let series: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..len)
                    .map(|t| {
                        ((t as f64) * (0.1 + 0.03 * (i % 3) as f64)).sin() * (1.0 + i as f64 * 0.1)
                            + 0.02 * (((t * 31 + i * 17) % 13) as f64 - 6.0)
                    })
                    .collect()
            })
            .collect();
        Mts::from_series(series)
    }

    #[test]
    fn incremental_matches_exact_over_contiguous_rounds() {
        let n = 9;
        let (w, s) = (40, 8);
        let data = mts(n, 400);
        let knn = KnnConfig::new(3, 0.3);
        let mut exact = CorrelationKnn::new(knn);
        let mut inc = incremental(knn, n, w, s, 16);
        for r in 0..((400 - w) / s + 1) {
            let src = data.window(r * s, w);
            let ge = exact.build_from_source(&src);
            let gi = inc.build_tsg(&src);
            assert_graphs_match(&ge, &gi, 1e-9, &format!("round {r}"));
        }
    }

    #[test]
    fn discontinuity_falls_back_to_rebuild() {
        let n = 6;
        let (w, s) = (32, 8);
        let data = mts(n, 300);
        let knn = KnnConfig::new(2, 0.3);
        let mut exact = CorrelationKnn::new(knn);
        let mut inc = incremental(knn, n, w, s, 1000);
        // A contiguous run, then a jump to an unrelated start, then more
        // contiguous rounds from there: every graph must match the oracle.
        let starts = [0, 8, 16, 24, 150, 158, 166];
        for &start in &starts {
            let src = data.window(start, w);
            let ge = exact.build_from_source(&src);
            let gi = inc.build_tsg(&src);
            assert_graphs_match(&ge, &gi, 1e-9, &format!("start {start}"));
        }
    }

    #[test]
    fn rebuild_period_bounds_drift() {
        // With R=4, every 4th round re-anchors: correlations after many
        // rounds stay within 1e-9 of direct pearson.
        let n = 5;
        let (w, s) = (24, 6);
        let data = mts(n, 600);
        let knn = KnnConfig::new(2, 0.0);
        let mut inc = incremental(knn, n, w, s, 4);
        let rounds = (600 - w) / s + 1;
        for r in 0..rounds {
            let src = data.window(r * s, w);
            inc.build_tsg(&src);
        }
        let last_start = (rounds - 1) * s;
        for i in 0..n {
            for j in (i + 1)..n {
                let direct = pearson(
                    data.sensor_window(i, last_start, w),
                    data.sensor_window(j, last_start, w),
                );
                let sliding = inc.cov.correlation(i, j);
                assert!(
                    (direct - sliding).abs() < 1e-9,
                    "pair ({i},{j}): {direct} vs {sliding}"
                );
            }
        }
    }

    #[test]
    fn reset_forgets_continuity() {
        let n = 4;
        let (w, s) = (16, 4);
        let data = mts(n, 100);
        let knn = KnnConfig::new(2, 0.2);
        let mut inc = incremental(knn, n, w, s, 64);
        inc.build_tsg(&data.window(0, w));
        inc.build_tsg(&data.window(s, w));
        assert!(inc.primed);
        inc.reset();
        assert!(!inc.primed);
        assert!(inc.persist_parts().is_none());
        // Still produces correct graphs afterwards.
        let src = data.window(2 * s, w);
        let ge = CorrelationKnn::new(knn).build_from_source(&src);
        let gi = inc.build_tsg(&src);
        assert_graphs_match(&ge, &gi, 1e-9, "after reset");
    }

    /// [`mts`] with holes: scattered NaN samples, a NaN burst on sensor 1,
    /// and sensors `from..` missing before `born` (sensors that joined the
    /// stream late).
    fn holed(n: usize, len: usize, from: usize, born: usize) -> Mts {
        let clean = mts(n, len);
        let series: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let row = clean.sensor_window(i, 0, len);
                (0..len)
                    .map(|t| {
                        let missing = (t * 7 + i * 3) % 11 == 0
                            || (i == 1 && (90..130).contains(&t))
                            || (i >= from && t < born);
                        if missing {
                            f64::NAN
                        } else {
                            row[t]
                        }
                    })
                    .collect()
            })
            .collect();
        Mts::from_series(series)
    }

    #[test]
    fn masked_exact_matches_a_fresh_masked_rebuild_every_round() {
        // Outcome digests cannot tell a masked exact engine from a masked
        // accumulator at any period, so each round's graph is compared,
        // weights and adjacency order included, with the one a freshly
        // rebuilt `MaskedSlidingCov` of the same window gives.
        let (w, s) = (32, 8);
        let knn = KnnConfig::new(2, 0.3);
        for gap_policy in [GapPolicy::Skip, GapPolicy::HoldLast] {
            // Five sensors, then a reshape to seven: the two new ones are
            // missing until tick 200. The starts jump twice.
            let mut edges = 0;
            for (n, starts) in [
                (5, vec![0, 8, 16, 24, 96, 104, 112]),
                (7, vec![176, 184, 192, 200, 300, 308, 316]),
            ] {
                let cfg = config(knn, n, (w, s), EngineChoice::Exact, gap_policy);
                let mut engine = Engine::for_config(&cfg, n);
                assert_eq!(engine.name(), "exact");
                let data = holed(n, 400, 5, 200);
                for start in starts {
                    let src = data.window(start, w);
                    let got = engine.build_tsg(&src);
                    let mut rows = Vec::new();
                    for i in 0..n {
                        src.copy_sensor_into(i, &mut rows);
                    }
                    let mut cov = MaskedSlidingCov::new(n, w);
                    cov.rebuild(&rows);
                    let mut tri = Triangle::new();
                    cov.correlation_triangle_into(&mut tri);
                    let want = tsg_from_triangle(&tri, &knn);
                    assert!(got == want, "{gap_policy:?} n={n} start {start}");
                    edges += got.n_edges();
                }
            }
            assert!(edges > 0, "every graph was empty");
        }
    }

    /// An [`Mts`] window served as two segments cut at `cut`, the way a
    /// streaming ring hands its window over.
    struct Split<'a> {
        data: &'a Mts,
        start: usize,
        w: usize,
        cut: usize,
    }

    impl WindowSource for Split<'_> {
        fn n_sensors(&self) -> usize {
            self.data.n_sensors()
        }

        fn w(&self) -> usize {
            self.w
        }

        fn segments(&self, s: usize) -> (&[f64], &[f64]) {
            let row = self.data.sensor_window(s, self.start, self.w);
            row.split_at(self.cut)
        }
    }

    /// The window's rows in time order, row-major.
    fn rows_of(src: &dyn WindowSource) -> Vec<f64> {
        let mut rows = Vec::new();
        for i in 0..src.n_sensors() {
            src.copy_sensor_into(i, &mut rows);
        }
        rows
    }

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn ring_slides_at_every_step_from_one_to_w() {
        // Dense against the exact builder, masked against a fresh masked
        // rebuild, at s = 1, a step that does not divide w, and s = w;
        // sources arrive cut at shifting points. Every round must slide,
        // and the ring must hold the window in time order.
        let w = 24;
        let knn = KnnConfig::new(2, 0.3);
        for s in [1, 7, w] {
            for gap_policy in [GapPolicy::Fail, GapPolicy::Skip] {
                let n = 6;
                let data = match gap_policy {
                    GapPolicy::Fail => mts(n, 300),
                    _ => holed(n, 300, n, 0),
                };
                let engine = EngineChoice::Incremental {
                    rebuild_every: 1000,
                };
                let cfg = config(knn, n, (w, s), engine, gap_policy);
                let mut inc = IncrementalEngine::new(&cfg, n);
                for r in 0..(300 - w) / s + 1 {
                    let start = r * s;
                    let src = Split {
                        data: &data,
                        start,
                        w,
                        cut: (r * 5) % (w + 1),
                    };
                    let got = inc.build_tsg(&src);
                    let ctx = format!("s={s} {gap_policy:?} round {r}");
                    assert_eq!(inc.rounds_since_rebuild, r, "{ctx}: must slide");
                    assert_eq!(inc.head, (r * s) % w, "{ctx}: ring head");
                    assert!(
                        same_bits(&inc.window_in_time_order(), &rows_of(&src)),
                        "{ctx}"
                    );
                    let want = if inc.is_masked() {
                        let mut cov = MaskedSlidingCov::new(n, w);
                        cov.rebuild(&rows_of(&src));
                        let mut tri = Triangle::new();
                        cov.correlation_triangle_into(&mut tri);
                        tsg_from_triangle(&tri, &knn)
                    } else {
                        CorrelationKnn::new(knn).build_from_source(&src)
                    };
                    assert_graphs_match(&want, &got, 1e-9, &ctx);
                }
            }
        }
    }

    #[test]
    fn a_turned_ring_persists_the_bytes_of_a_head_zero_engine() {
        // After slides the ring's head is not 0, yet the persisted window
        // is in time order: an engine restored from it (head 0) persists
        // the same bytes and keeps sliding to the same graphs.
        let (n, w, s) = (5, 20, 6);
        let knn = KnnConfig::new(2, 0.2);
        for gap_policy in [GapPolicy::Fail, GapPolicy::Skip] {
            let data = match gap_policy {
                GapPolicy::Fail => mts(n, 200),
                _ => holed(n, 200, n, 0),
            };
            let engine = EngineChoice::Incremental { rebuild_every: 50 };
            let cfg = config(knn, n, (w, s), engine, gap_policy);
            let mut turned = IncrementalEngine::new(&cfg, n);
            for r in 0..3 {
                turned.build_tsg(&data.window(r * s, w));
            }
            assert_ne!(turned.head, 0, "{gap_policy:?}: the ring must have turned");
            let mut fresh = IncrementalEngine::new(&cfg, n);
            let saved = match gap_policy {
                GapPolicy::Fail => {
                    let (rounds, cov, prev) = turned.persist_parts().expect("primed");
                    fresh.restore(rounds, cov.clone(), prev.into_owned());
                    let (_, _, again) = fresh.persist_parts().expect("restored");
                    assert!(same_bits(
                        &again,
                        &turned.persist_parts().expect("primed").2
                    ));
                    again.into_owned()
                }
                _ => {
                    let (rounds, st, prev) = turned.persist_parts_masked().expect("primed");
                    fresh.restore_masked(rounds, st, prev.into_owned());
                    let (_, _, again) = fresh.persist_parts_masked().expect("restored");
                    let (_, _, before) = turned.persist_parts_masked().expect("primed");
                    assert!(same_bits(&again, &before));
                    again.into_owned()
                }
            };
            assert_eq!(fresh.head, 0);
            assert!(same_bits(&saved, &rows_of(&data.window(2 * s, w))));
            for r in 3..8 {
                let src = data.window(r * s, w);
                let ctx = format!("{gap_policy:?} round {r}");
                assert!(turned.build_tsg(&src) == fresh.build_tsg(&src), "{ctx}");
            }
        }
    }
}
