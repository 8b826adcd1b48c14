//! The CAD detector — Algorithms 1 and 2 of the paper.
//!
//! [`CadDetector::warm_up`] is the WarmUp function (lines 16–23): it runs
//! outlier detection over the historical MTS to seed the μ/σ statistics of
//! the outlier-variation count, without declaring anomalies.
//! [`CadDetector::detect`] is the main loop (lines 4–13); each iteration is
//! one [`CadDetector::push_window`] call, which is also the public
//! streaming API (§IV-F: "when a new round of data arrives, repeat lines
//! 6–11").

use cad_graph::louvain::LouvainWorkspace;
use cad_mts::{Mts, WindowSource};
use cad_runtime::Timer;
use cad_stats::RunningStats;

use crate::coappearance::{outlier_variations, CoappearanceTracker};
use crate::config::CadConfig;
use crate::engine::Engine;
use crate::explain::ExplainJournal;
use crate::result::{Anomaly, DetectionResult, RoundRecord};

/// Outcome of processing one round (Algorithm 1 plus the 3σ verdict).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// Number of outlier variations `n_r`.
    pub n_r: usize,
    /// `|n_r − μ|/σ` against the pre-update statistics.
    pub zscore: f64,
    /// Whether `|n_r − μ| ≥ η·σ` held (always `false` until at least two
    /// variation counts have been observed — the `r > 1` guard of line 7).
    pub abnormal: bool,
    /// The outlier set `O_r`, sorted.
    pub outliers: Vec<usize>,
    /// Per-vertex ratios `RC_{v,r}` after this round.
    pub rc: Vec<f64>,
}

/// Streaming CAD state. One instance per monitored MTS.
#[derive(Debug)]
pub struct CadDetector {
    config: CadConfig,
    n_sensors: usize,
    engine: Engine,
    /// Louvain's buffers, reused every round.
    louvain: LouvainWorkspace,
    tracker: CoappearanceTracker,
    /// Running statistics over the observed `n_r` series (the `N` of
    /// Algorithm 2).
    stats: RunningStats,
    /// `O_{r−1}`, sorted.
    prev_outliers: Vec<usize>,
    /// Per-slot warm-up gate for sensors added by [`Self::reshape_sensors`]:
    /// slot `v` participates in outlier sets (and therefore in `n_r`) only
    /// once `tracker.rounds() > warmup_until[v]`. Original slots carry 0 —
    /// always participating, preserving the pre-churn behaviour bit for
    /// bit.
    warmup_until: Vec<usize>,
    /// Bounded per-round forensics ring (see [`crate::explain`]).
    journal: ExplainJournal,
}

impl CadDetector {
    /// Fresh detector for an `n_sensors`-wide MTS.
    pub fn new(n_sensors: usize, config: CadConfig) -> Self {
        assert!(n_sensors >= 2, "CAD needs at least two sensors");
        let engine = Engine::for_config(&config, n_sensors);
        let tracker = CoappearanceTracker::with_horizon(n_sensors, config.rc_horizon);
        Self {
            config,
            n_sensors,
            engine,
            louvain: LouvainWorkspace::new(),
            tracker,
            stats: RunningStats::new(),
            prev_outliers: Vec::new(),
            warmup_until: vec![0; n_sensors],
            journal: ExplainJournal::from_env(),
        }
    }

    /// Parameters in use.
    pub fn config(&self) -> &CadConfig {
        &self.config
    }

    /// Sensor count this detector was built for.
    pub(crate) fn config_n_sensors(&self) -> usize {
        self.n_sensors
    }

    /// Persistence access: `(tracker, stats, prev outliers)`.
    pub(crate) fn persist_parts(&self) -> (&CoappearanceTracker, &RunningStats, &[usize]) {
        (&self.tracker, &self.stats, &self.prev_outliers)
    }

    /// Persistence access to the round engine.
    pub(crate) fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Persistence access to the round engine (restore path).
    pub(crate) fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Display name of the active round engine (`"exact"` / `"incremental"`).
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    /// Rebuild a detector from persisted state (see `cad_core::state`).
    pub(crate) fn from_persisted(
        n_sensors: usize,
        config: CadConfig,
        tracker: CoappearanceTracker,
        stats: RunningStats,
        prev_outliers: Vec<usize>,
    ) -> Self {
        let engine = Engine::for_config(&config, n_sensors);
        Self {
            config,
            n_sensors,
            engine,
            louvain: LouvainWorkspace::new(),
            tracker,
            stats,
            prev_outliers,
            warmup_until: vec![0; n_sensors],
            journal: ExplainJournal::from_env(),
        }
    }

    /// Per-slot warm-up gates (see the field; for persistence).
    pub(crate) fn warmup_until(&self) -> &[usize] {
        &self.warmup_until
    }

    /// Replace the per-slot warm-up gates (snapshot restore path).
    pub(crate) fn restore_warmup_until(&mut self, warmup_until: Vec<usize>) {
        assert_eq!(
            warmup_until.len(),
            self.n_sensors,
            "warm-up gate count does not match sensor count"
        );
        self.warmup_until = warmup_until;
    }

    /// Grow or shrink the monitored sensor set to `new_n` slots without a
    /// cold restart (sensor churn). Slot identity is positional: growing
    /// appends fresh slots after the existing ones, shrinking removes the
    /// highest-numbered slots.
    ///
    /// Surviving slots keep their entire co-appearance history, the μ/σ
    /// variation statistics carry over untouched, and the round engine is
    /// rebuilt for the new width (its first round after the reshape is an
    /// exact rebuild — there is no previous window of matching shape).
    /// Fresh slots enter a warm-up quarantine of `⌈w/s⌉ + 1` rounds during
    /// which they are excluded from the outlier set and hence from `n_r`:
    /// a joiner has no correlation history, so its community membership is
    /// noise until a full window of its data has streamed in.
    ///
    /// Growing requires a masked [`crate::GapPolicy`] (the joiner's ring
    /// history is NaN until its first real samples arrive); shrinking is
    /// valid under any policy.
    pub fn reshape_sensors(&mut self, new_n: usize) {
        assert!(new_n >= 2, "CAD needs at least two sensors");
        if new_n == self.n_sensors {
            return;
        }
        if new_n > self.n_sensors {
            assert!(
                self.config.gap_policy.is_masked(),
                "growing the sensor set requires a masked gap policy \
                 (GapPolicy::Skip or GapPolicy::HoldLast): new sensors have \
                 no window history and must stream in as missing samples"
            );
        }
        let mut config = self.config.clone();
        config.knn.k = config.knn.k.min(new_n - 1).max(1);
        self.tracker.reshape(new_n);
        self.prev_outliers.retain(|&v| v < new_n);
        self.engine = Engine::for_config(&config, new_n);
        self.config = config;
        let spec = self.config.window;
        let until = self.tracker.rounds() + spec.w.div_ceil(spec.s) + 1;
        self.warmup_until.truncate(new_n);
        self.warmup_until.resize(new_n, until);
        self.n_sensors = new_n;
    }

    /// Number of sensor slots still inside the warm-up quarantine that
    /// [`Self::reshape_sensors`] imposes on freshly added slots. Original
    /// slots (`warmup_until == 0`) are never counted, even before the
    /// first round.
    pub fn quarantined_sensors(&self) -> usize {
        let r = self.tracker.rounds();
        self.warmup_until
            .iter()
            .filter(|&&u| u > 0 && u >= r)
            .count()
    }

    /// Detection rounds remaining until every quarantined slot becomes
    /// eligible for the outlier set again (0 when nothing is quarantined).
    pub fn warmup_rounds_left(&self) -> usize {
        let r = self.tracker.rounds();
        self.warmup_until
            .iter()
            .filter(|&&u| u > 0)
            .map(|&u| (u + 1).saturating_sub(r))
            .max()
            .unwrap_or(0)
    }

    /// Observed variation-count statistics (μ, σ, count).
    pub fn stats(&self) -> &RunningStats {
        &self.stats
    }

    /// The per-round forensics journal (empty unless enabled via
    /// `CAD_EXPLAIN` or [`Self::set_explain_capacity`]).
    pub fn explain(&self) -> &ExplainJournal {
        &self.journal
    }

    /// Resize the forensics ring: retain the most recent `capacity`
    /// detection rounds (0 disables journaling; see [`crate::explain`]).
    pub fn set_explain_capacity(&mut self, capacity: usize) {
        self.journal.set_capacity(capacity);
    }

    /// Replace the journal wholesale (snapshot restore path).
    pub(crate) fn restore_explain(&mut self, journal: ExplainJournal) {
        self.journal = journal;
    }

    /// Algorithm 1 — one round of outlier detection over a window. The
    /// engine turns the window into the TSG; everything downstream
    /// (Louvain, co-appearance, variations) is engine-independent. Returns
    /// `(O_r, n_r)`.
    fn outlier_detection(&mut self, window: &dyn WindowSource) -> (Vec<usize>, usize) {
        let tsg = self.engine.build_tsg(window);
        let partition = {
            let _t = Timer::start("graph.louvain");
            self.louvain.run(&tsg, self.config.louvain)
        };
        let _t = Timer::start("core.coappear");
        self.tracker.push(&partition);
        let mut outliers = self.tracker.outliers(self.config.theta);
        // Churn quarantine: slots still warming up (their RC denominator
        // covers rounds they did not exist for) are invisible to the
        // outlier set, so they cannot inflate `n_r`. Original slots have
        // `warmup_until == 0 < rounds()` and always pass.
        let r = self.tracker.rounds();
        outliers.retain(|&v| self.warmup_until[v] < r);
        let n_r = outlier_variations(&self.prev_outliers, &outliers);
        (outliers, n_r)
    }

    /// WarmUp (Algorithm 2, lines 16–23): run outlier detection over every
    /// round of the historical MTS, accumulating `n_r` into the μ/σ
    /// statistics but declaring nothing.
    ///
    /// Algorithm 2's line 2 re-initialises `O_0 ← ∅` before detection;
    /// taken literally, that makes the first detection round's variation
    /// count equal `|O_1|` — a guaranteed spurious spike right at the start
    /// of monitoring. We instead carry the final warm-up outlier set across
    /// the boundary (the streaming-consistent reading of §IV-F, where
    /// detection simply continues the warm-up loop).
    pub fn warm_up(&mut self, his: &Mts) {
        assert_eq!(
            his.n_sensors(),
            self.n_sensors,
            "warm-up sensor count mismatch"
        );
        let spec = self.config.window;
        self.engine.reset();
        for r in 0..spec.rounds(his.len()) {
            let window = his.window(spec.start(r), spec.w);
            let (outliers, n_r) = self.outlier_detection(&window);
            crate::metrics::observe_warmup_round(
                self.stats.count() >= 2 && self.stats.is_outlier(n_r as f64, self.config.eta),
            );
            self.stats.push(n_r as f64);
            self.prev_outliers = outliers;
        }
    }

    /// Process one detection round (Algorithm 2, lines 5–13) on the window
    /// of `mts` beginning at `start`. This is the streaming entry point.
    pub fn push_window(&mut self, mts: &Mts, start: usize) -> RoundOutcome {
        assert_eq!(mts.n_sensors(), self.n_sensors, "sensor count mismatch");
        let window = mts.window(start, self.config.window.w);
        self.process_round(&window, false)
    }

    /// [`Self::push_window`] over any [`WindowSource`] — lets callers that
    /// own non-contiguous storage (ring buffers, memory-mapped segments)
    /// feed the round pipeline without materialising an [`Mts`].
    pub fn push_window_source(&mut self, window: &impl WindowSource) -> RoundOutcome {
        self.process_round(window, false)
    }

    /// One round with optional verdict suppression (used for the burn-in
    /// rounds right after a warm-up/detection boundary, where the window
    /// schedule jumps by up to `w` points and the community structure
    /// reshuffles for spurious reasons). A suppressed round still updates
    /// the co-appearance state but contributes nothing to μ/σ and can
    /// never be abnormal.
    fn process_round(&mut self, window: &dyn WindowSource, suppress: bool) -> RoundOutcome {
        assert_eq!(window.n_sensors(), self.n_sensors, "sensor count mismatch");
        assert_eq!(window.w(), self.config.window.w, "window length mismatch");
        let (outliers, n_r) = self.outlier_detection(window);
        let rc = {
            let _t = Timer::start("core.coappear");
            self.tracker.ratios()
        };
        let crossed = self.stats.count() >= 2 && self.stats.is_outlier(n_r as f64, self.config.eta);
        crate::metrics::observe_round(n_r as u64, crossed, !suppress && crossed);
        // The verdict is computed against the pre-update μ/σ; snapshot them
        // for the forensics record before `stats.push` below. The round
        // counter advances even while journaling is off, so records keep
        // meaningful indices if it is enabled mid-stream.
        let round = self.journal.advance();
        let journal_pre = self
            .journal
            .enabled()
            .then(|| (self.stats.mean(), self.stats.stddev()));
        if suppress {
            if let Some((mu_pre, sigma_pre)) = journal_pre {
                self.journal.push(crate::explain::RoundRecord {
                    round,
                    n_r: n_r as u64,
                    mu_pre,
                    sigma_pre,
                    eta_sigma: self.config.eta * sigma_pre,
                    abnormal: false,
                    outlier_sensors: outliers.iter().map(|&v| v as u32).collect(),
                });
            }
            self.prev_outliers = outliers.clone();
            return RoundOutcome {
                n_r,
                zscore: 0.0,
                abnormal: false,
                outliers,
                rc,
            };
        }
        // Line 7's `r > 1` guard: a verdict needs at least two prior
        // variation counts so that σ is an estimate, not an artefact.
        let have_history = self.stats.count() >= 2;
        let zscore = if have_history {
            self.stats.zscore(n_r as f64)
        } else {
            0.0
        };
        let abnormal = have_history && self.stats.is_outlier(n_r as f64, self.config.eta);
        if let Some((mu_pre, sigma_pre)) = journal_pre {
            self.journal.push(crate::explain::RoundRecord {
                round,
                n_r: n_r as u64,
                mu_pre,
                sigma_pre,
                eta_sigma: self.config.eta * sigma_pre,
                abnormal,
                outlier_sensors: outliers.iter().map(|&v| v as u32).collect(),
            });
        }
        // Lines 12–13: fold n_r into N and refresh μ/σ.
        self.stats.push(n_r as f64);
        self.prev_outliers = outliers.clone();
        RoundOutcome {
            n_r,
            zscore,
            abnormal,
            outliers,
            rc,
        }
    }

    /// Algorithm 2 — batch detection over `test`. Consecutive abnormal
    /// rounds merge into one anomaly `(V_Z, R_Z)`; `V_Z` accumulates the
    /// outlier sets of the abnormal rounds (line 8).
    ///
    /// When a warm-up preceded this call, the window schedule jumps from
    /// the end of the historical segment to the start of `test`; the first
    /// ~w/s rounds are suppressed as boundary artefacts. Callers that keep
    /// the stream contiguous (e.g. by prepending the last `w − s`
    /// historical points to `test`) should use
    /// [`Self::detect_with_burn_in`] with `burn_in = 0`.
    pub fn detect(&mut self, test: &Mts) -> DetectionResult {
        let spec = self.config.window;
        let burn_in = if self.stats.count() > 0 {
            spec.w.div_ceil(spec.s)
        } else {
            0
        };
        self.detect_with_burn_in(test, burn_in)
    }

    /// [`Self::detect`] with an explicit number of suppressed leading
    /// rounds.
    pub fn detect_with_burn_in(&mut self, test: &Mts, burn_in: usize) -> DetectionResult {
        assert_eq!(
            test.n_sensors(),
            self.n_sensors,
            "detect sensor count mismatch"
        );
        let spec = self.config.window;
        let n_rounds = spec.rounds(test.len());
        let mut rounds = Vec::with_capacity(n_rounds);
        let mut anomalies: Vec<Anomaly> = Vec::new();
        let mut point_scores = vec![0.0f64; test.len()];

        // Open-anomaly accumulator (V_Z, R_Z).
        let mut open: Option<(Vec<usize>, usize, usize)> = None;
        let close = |open: &mut Option<(Vec<usize>, usize, usize)>,
                     anomalies: &mut Vec<Anomaly>| {
            if let Some((mut sensors, first, last)) = open.take() {
                sensors.sort_unstable();
                sensors.dedup();
                // Tail attribution (see the scoring loop): the anomaly's
                // span runs from the first abnormal round's new step to
                // the last abnormal round's window end.
                let (fa, fb) = spec.span(first);
                let start = if first == 0 {
                    fa
                } else {
                    fb.saturating_sub(spec.s)
                };
                let (_, end) = spec.span(last);
                anomalies.push(Anomaly {
                    sensors,
                    first_round: first,
                    last_round: last,
                    start: start.min(test.len()),
                    end: end.min(test.len()),
                });
            }
        };

        for r in 0..n_rounds {
            let start = spec.start(r);
            let outcome = self.process_round(&test.window(start, spec.w), r < burn_in);
            // Attribute the round's evidence to the *newly arrived* step —
            // the last `s` points of the window. Rounds overlap by `w − s`,
            // so span-wide attribution would mark up to `w − 1` points
            // *before* an anomaly's onset as abnormal; tail attribution is
            // the honest streaming reading (the verdict fires when this
            // step's data enters the window) and keeps onsets sharp.
            let (a, b) = spec.span(r);
            let b = b.min(test.len());
            let tail_start = if r == 0 { a } else { b.saturating_sub(spec.s) };
            for score in &mut point_scores[tail_start..b] {
                if outcome.zscore > *score {
                    *score = outcome.zscore;
                }
            }
            if outcome.abnormal {
                match &mut open {
                    Some((sensors, _, last)) => {
                        sensors.extend_from_slice(&outcome.outliers);
                        *last = r;
                    }
                    None => open = Some((outcome.outliers.clone(), r, r)),
                }
            } else {
                close(&mut open, &mut anomalies);
            }
            rounds.push(RoundRecord {
                round: r,
                start,
                n_r: outcome.n_r,
                zscore: outcome.zscore,
                abnormal: outcome.abnormal,
                outliers: outcome.outliers,
                rc: outcome.rc,
            });
        }
        close(&mut open, &mut anomalies);

        let mut point_labels = vec![false; test.len()];
        for a in &anomalies {
            for l in &mut point_labels[a.start..a.end] {
                *l = true;
            }
        }
        DetectionResult {
            anomalies,
            rounds,
            point_scores,
            point_labels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CadConfig;
    use cad_datagen::{Dataset, GeneratorConfig};

    /// Synthetic MTS: three communities of four sensors; one community
    /// breaks correlation during [break_start, break_end).
    fn broken_mts(len: usize, break_start: usize, break_end: usize) -> (Mts, Vec<usize>) {
        let drivers: Vec<Vec<f64>> = (0..3)
            .map(|c| {
                (0..len)
                    .map(|t| ((t as f64) * (0.07 + 0.04 * c as f64) + c as f64).sin())
                    .collect()
            })
            .collect();
        let mut series = Vec::new();
        for s in 0..12 {
            let c = s % 3;
            let gain = 1.0 + 0.2 * (s / 3) as f64;
            let mut x: Vec<f64> = drivers[c].iter().map(|&d| gain * d).collect();
            // tiny deterministic jitter so windows are never exactly equal
            for (t, v) in x.iter_mut().enumerate() {
                *v += 0.01 * (((t * 31 + s * 17) % 13) as f64 - 6.0);
            }
            series.push(x);
        }
        // Community 0's sensors {0, 3, 6} decouple during the break window
        // (sensor 9 stays, so the community loses cohesion).
        let affected = vec![0usize, 3, 6];
        for (i, &s) in affected.iter().enumerate() {
            #[allow(clippy::needless_range_loop)]
            for t in break_start..break_end {
                series[s][t] = ((t as f64) * (0.31 + 0.11 * i as f64)).cos() * 1.5 + 0.3 * i as f64;
            }
        }
        (Mts::from_series(series), affected)
    }

    /// Test parameters: the synthetic MTS has 3 communities of 4 sensors,
    /// so the steady-state RC is (4−1)/(12−1) ≈ 0.273; θ sits just below
    /// it and the sliding horizon keeps single-round dips visible.
    fn config() -> CadConfig {
        CadConfig::builder(12)
            .window(60, 10)
            .k(3)
            .tau(0.3)
            .theta(0.24)
            .rc_horizon(Some(8))
            .build()
    }

    #[test]
    fn detects_correlation_break() {
        let (mts, affected) = broken_mts(1500, 1000, 1200);
        let mut det = CadDetector::new(12, config());
        // Warm up on the clean prefix.
        let his = mts.slice_time(0, 600);
        let test = mts.slice_time(600, 900);
        det.warm_up(&his);
        let result = det.detect(&test);
        assert!(!result.anomalies.is_empty(), "break must be detected");
        // Some detected anomaly must overlap the true span (400..600 in
        // test coordinates).
        let hit = result
            .anomalies
            .iter()
            .any(|a| a.start < 600 && a.end > 400);
        assert!(
            hit,
            "no anomaly overlaps the true break: {:?}",
            result.anomalies
        );
        // Affected sensors must be implicated.
        let sensors = result.all_sensors();
        let found = affected.iter().filter(|s| sensors.contains(s)).count();
        assert!(
            found >= 2,
            "affected sensors {affected:?} not implicated in {sensors:?}"
        );
    }

    #[test]
    fn clean_data_is_mostly_quiet() {
        let (mts, _) = broken_mts(1500, 1400, 1450); // break outside the range we use
        let mut det = CadDetector::new(12, config());
        det.warm_up(&mts.slice_time(0, 600));
        let result = det.detect(&mts.slice_time(600, 700));
        let abnormal = result.rounds.iter().filter(|r| r.abnormal).count();
        assert!(
            abnormal * 10 <= result.rounds.len(),
            "too many false alarms: {abnormal}/{}",
            result.rounds.len()
        );
    }

    #[test]
    fn deterministic_end_to_end() {
        let (mts, _) = broken_mts(1200, 800, 950);
        let run = || {
            let mut det = CadDetector::new(12, config());
            det.warm_up(&mts.slice_time(0, 500));
            det.detect(&mts.slice_time(500, 700))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn streaming_matches_batch() {
        let (mts, _) = broken_mts(1200, 800, 950);
        let his = mts.slice_time(0, 500);
        let test = mts.slice_time(500, 700);

        let mut batch = CadDetector::new(12, config());
        batch.warm_up(&his);
        let result = batch.detect(&test);

        let mut streaming = CadDetector::new(12, config());
        streaming.warm_up(&his);
        let spec = streaming.config().window;
        for r in 0..spec.rounds(test.len()) {
            let outcome = streaming.push_window(&test, spec.start(r));
            let rec = &result.rounds[r];
            assert_eq!(outcome.n_r, rec.n_r, "round {r}");
            assert_eq!(outcome.abnormal, rec.abnormal, "round {r}");
            assert_eq!(outcome.outliers, rec.outliers, "round {r}");
        }
    }

    #[test]
    fn incremental_engine_matches_exact_end_to_end() {
        use crate::config::EngineChoice;
        let (mts, _) = broken_mts(1200, 800, 950);
        let his = mts.slice_time(0, 500);
        let test = mts.slice_time(500, 700);
        let run = |engine: EngineChoice| {
            let cfg = CadConfig::builder(12)
                .window(60, 10)
                .k(3)
                .tau(0.3)
                .theta(0.24)
                .rc_horizon(Some(8))
                .engine(engine)
                .build();
            let mut det = CadDetector::new(12, cfg);
            det.warm_up(&his);
            det.detect(&test)
        };
        let exact = run(EngineChoice::Exact);
        let incremental = run(EngineChoice::Incremental { rebuild_every: 8 });
        assert_eq!(exact, incremental);
    }

    #[test]
    fn point_scores_cover_series() {
        let (mts, _) = broken_mts(1200, 800, 950);
        let mut det = CadDetector::new(12, config());
        det.warm_up(&mts.slice_time(0, 500));
        let test = mts.slice_time(500, 700);
        let result = det.detect(&test);
        assert_eq!(result.point_scores.len(), 700);
        assert_eq!(result.point_labels.len(), 700);
        assert!(result
            .point_scores
            .iter()
            .all(|s| s.is_finite() && *s >= 0.0));
    }

    #[test]
    fn warm_up_seeds_statistics() {
        let (mts, _) = broken_mts(1200, 1100, 1150);
        let mut det = CadDetector::new(12, config());
        assert_eq!(det.stats().count(), 0);
        det.warm_up(&mts.slice_time(0, 600));
        let expected_rounds = det.config().window.rounds(600) as u64;
        assert_eq!(det.stats().count(), expected_rounds);
    }

    #[test]
    fn no_warmup_bootstraps_online() {
        // SMD mode: no warm-up. The first two rounds cannot be abnormal.
        let (mts, _) = broken_mts(1200, 600, 750);
        let mut det = CadDetector::new(12, config());
        let result = det.detect(&mts.slice_time(0, 1200));
        assert!(!result.rounds[0].abnormal);
        assert!(!result.rounds[1].abnormal);
        // The break still gets caught once statistics exist.
        assert!(
            result
                .anomalies
                .iter()
                .any(|a| a.start < 800 && a.end > 550),
            "online bootstrap failed to catch the break"
        );
    }

    #[test]
    fn works_on_generated_dataset() {
        let data = Dataset::generate(&GeneratorConfig::small("det", 24, 9));
        // 3 latent communities of 8 → steady RC ≈ 7/23 ≈ 0.30.
        let cfg = CadConfig::builder(24)
            .window(48, 8)
            .k(5)
            .tau(0.4)
            .theta(0.27)
            .rc_horizon(Some(10))
            .build();
        let mut det = CadDetector::new(24, cfg);
        det.warm_up(&data.his);
        let result = det.detect(&data.test);
        // The binary 3σ output must overlap at least one injected anomaly…
        let caught = data
            .truth
            .anomalies
            .iter()
            .filter(|gt| {
                result
                    .anomalies
                    .iter()
                    .any(|d| d.start < gt.end && d.end > gt.start)
            })
            .count();
        assert!(
            caught >= 1,
            "caught only {caught}/{} anomalies",
            data.truth.count()
        );
        // …and the score stream must separate anomalies from normal data:
        // the mean per-anomaly peak score beats twice the normal median.
        let labels = data.truth.point_labels();
        let mut normal: Vec<f64> = result
            .point_scores
            .iter()
            .zip(&labels)
            .filter(|&(_, &l)| !l)
            .map(|(&v, _)| v)
            .collect();
        normal.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
        let normal_median = normal[normal.len() / 2];
        let mean_peak: f64 = data
            .truth
            .anomalies
            .iter()
            .map(|a| {
                result.point_scores[a.start..a.end]
                    .iter()
                    .cloned()
                    .fold(0.0, f64::max)
            })
            .sum::<f64>()
            / data.truth.count() as f64;
        assert!(
            mean_peak > 2.0 * normal_median,
            "peaks {mean_peak:.2} vs normal median {normal_median:.2}"
        );
    }

    #[test]
    fn abnormal_rounds_merge_into_one_anomaly() {
        let (mts, _) = broken_mts(1500, 1000, 1250);
        let mut det = CadDetector::new(12, config());
        det.warm_up(&mts.slice_time(0, 600));
        let result = det.detect(&mts.slice_time(600, 900));
        for a in &result.anomalies {
            assert!(a.first_round <= a.last_round);
            assert!(a.start < a.end);
            // Rounds inside [first, last] flagged abnormal must be contiguousy
            // represented: every anomaly's recorded rounds are abnormal.
            for r in a.first_round..=a.last_round {
                // Not all intermediate rounds need be abnormal individually;
                // the accumulator only extends on abnormal rounds, so first
                // and last always are.
                let _ = r;
            }
            assert!(result.rounds[a.first_round].abnormal);
            assert!(result.rounds[a.last_round].abnormal);
        }
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            /// The full pipeline must never panic and always produce
            /// finite, shape-correct output on arbitrary finite data —
            /// including constant sensors, identical sensors and wild
            /// magnitudes.
            #[test]
            fn prop_detector_total_on_arbitrary_data(
                raw in proptest::collection::vec(-1e6f64..1e6, 4 * 120),
                w in 8usize..24,
                s_step in 2usize..8,
                theta in 0.05f64..0.6,
            ) {
                let mts = Mts::from_rows(4, 120, raw);
                let config = CadConfig::builder(4)
                    .window(w, s_step.min(w))
                    .k(2)
                    .tau(0.3)
                    .theta(theta)
                    .rc_horizon(Some(6))
                    .build();
                let mut det = CadDetector::new(4, config);
                let result = det.detect(&mts);
                prop_assert_eq!(result.point_scores.len(), 120);
                prop_assert!(result.point_scores.iter().all(|v| v.is_finite()));
                for a in &result.anomalies {
                    prop_assert!(a.start < a.end && a.end <= 120);
                    prop_assert!(a.sensors.iter().all(|&v| v < 4));
                }
            }

            #[test]
            fn prop_warmup_then_detect_total(
                raw in proptest::collection::vec(-1e3f64..1e3, 3 * 200),
            ) {
                let mts = Mts::from_rows(3, 200, raw);
                let config = CadConfig::builder(3)
                    .window(16, 4)
                    .k(1)
                    .theta(0.3)
                    .build();
                let mut det = CadDetector::new(3, config);
                det.warm_up(&mts.slice_time(0, 100));
                let result = det.detect(&mts.slice_time(100, 100));
                prop_assert_eq!(result.point_labels.len(), 100);
            }
        }
    }

    #[test]
    #[should_panic(expected = "sensor count mismatch")]
    fn mismatched_sensor_count_panics() {
        let (mts, _) = broken_mts(300, 200, 250);
        let mut det = CadDetector::new(12, config());
        det.warm_up(&mts);
        let wrong = Mts::zeros(5, 100);
        det.push_window(&wrong, 0);
    }
}
