//! CAD wrapped in the common [`Detector`] interface, with honest automatic
//! θ calibration from the anomaly-free warm-up segment.
//!
//! The paper grid-searches CAD's parameters (θ from 0.1 to 0.9, §VI-A).
//! Rather than peeking at test labels, this adapter calibrates θ from the
//! *historical* segment only: it runs the TSG/community/co-appearance
//! pipeline over the warm-up rounds, reads off the steady-state ratio
//! distribution, and places θ at a fixed fraction of its median — just
//! under where stable vertices sit, so genuine correlation breaks cross it
//! while noise does not.
//!
//! The TSG is built exactly at every network size, by the same
//! `CorrelationKnn` path `cad-serve` runs.

use cad_baselines::Detector;
use cad_core::{CadConfig, CadDetector, CoappearanceTracker, DetectionResult};
use cad_graph::{louvain, CorrelationKnn};
use cad_mts::Mts;
use cad_stats::median;

/// CAD behind the benchmark-harness interface.
#[derive(Debug)]
pub struct CadMethod {
    /// Window length `w`.
    pub w: usize,
    /// Step `s`.
    pub s: usize,
    /// Number of k-NN neighbours (Table II's per-dataset `k`).
    pub k: usize,
    /// Correlation threshold τ.
    pub tau: f64,
    /// Sliding RC horizon.
    pub rc_horizon: Option<usize>,
    /// Fraction of the calibrated median RC used as θ.
    pub theta_frac: f64,
    /// Explicit θ override (skips calibration).
    pub theta_override: Option<f64>,
    detector: Option<CadDetector>,
    /// Last `w − s` points of the warm-up segment, prepended at scoring
    /// time so the sliding windows stay contiguous across the
    /// warm-up/detection boundary (no burn-in artefacts, no dead zone).
    his_tail: Option<Mts>,
    /// The last `detect` call's full output (sensors, rounds, scores) — the
    /// extra information CAD provides beyond a score stream.
    pub last_result: Option<DetectionResult>,
    /// Calibrated θ (after `fit`).
    pub theta: f64,
    /// Wall-clock per detection round from the last `score` call, seconds.
    pub last_tpr: f64,
}

impl CadMethod {
    /// CAD with paper-style defaults for an `n`-sensor dataset: `k` from
    /// the caller (Table II), τ = 0.5, auto-calibrated θ, windowed RC.
    pub fn new(w: usize, s: usize, k: usize) -> Self {
        Self {
            w,
            s,
            k,
            tau: 0.5,
            rc_horizon: Some(16),
            theta_frac: 0.8,
            theta_override: None,
            detector: None,
            his_tail: None,
            last_result: None,
            theta: 0.3,
            last_tpr: 0.0,
        }
    }

    /// Builder-style τ override.
    pub fn with_tau(mut self, tau: f64) -> Self {
        self.tau = tau;
        self
    }

    /// Builder-style explicit θ (disables calibration).
    pub fn with_theta(mut self, theta: f64) -> Self {
        self.theta_override = Some(theta);
        self
    }

    /// Builder-style RC horizon.
    pub fn with_rc_horizon(mut self, horizon: Option<usize>) -> Self {
        self.rc_horizon = horizon;
        self
    }

    fn config(&self, n_sensors: usize, theta: f64) -> CadConfig {
        CadConfig::builder(n_sensors)
            .window(self.w, self.s)
            .k(self.k)
            .tau(self.tau)
            .theta(theta)
            .rc_horizon(self.rc_horizon)
            .build()
    }

    /// Calibrate θ from the steady-state RC distribution of (a prefix of)
    /// the warm-up segment.
    fn calibrate_theta(&self, his: &Mts) -> f64 {
        if let Some(theta) = self.theta_override {
            return theta;
        }
        let n = his.n_sensors();
        let probe = self.config(n, 0.5);
        let mut knn = CorrelationKnn::new(probe.knn);
        let mut tracker = CoappearanceTracker::with_horizon(n, self.rc_horizon);
        let rounds = probe.window.rounds(his.len()).min(40);
        if rounds == 0 {
            return 0.3; // no history; fall back to the paper's suggestion
        }
        for r in 0..rounds {
            let start = probe.window.start(r);
            let tsg = knn.build(his, start, probe.window.w);
            let partition = louvain(&tsg, probe.louvain);
            tracker.push(&partition);
        }
        let ratios = tracker.ratios();
        let med = median(&ratios);
        (self.theta_frac * med).clamp(0.01, 0.9)
    }

    /// Borrow the last detection result (after `score`).
    pub fn result(&self) -> Option<&DetectionResult> {
        self.last_result.as_ref()
    }
}

impl Detector for CadMethod {
    fn name(&self) -> &'static str {
        "CAD"
    }

    fn fit(&mut self, train: &Mts) {
        let n = train.n_sensors();
        self.theta = self.calibrate_theta(train);
        let mut detector = CadDetector::new(n, self.config(n, self.theta));
        detector.warm_up(train);
        let tail = self.w.saturating_sub(self.s).min(train.len());
        self.his_tail = if tail > 0 {
            Some(train.slice_time(train.len() - tail, tail))
        } else {
            None
        };
        self.detector = Some(detector);
    }

    fn score(&mut self, test: &Mts) -> Vec<f64> {
        if self.detector.is_none() {
            // SMD mode: no warm-up — μ/σ bootstrap online, and θ is
            // calibrated from the leading quarter of the stream itself
            // (anomaly contamination there only shifts the median RC
            // slightly; using a fixed θ above the steady-state ratio would
            // make *every* vertex a permanent outlier instead).
            let prefix_len = (test.len() / 4).max(4 * self.w).min(test.len());
            let prefix = test.slice_time(0, prefix_len);
            let theta = self.calibrate_theta(&prefix);
            self.theta = theta;
            self.detector = Some(CadDetector::new(
                test.n_sensors(),
                self.config(test.n_sensors(), theta),
            ));
        }
        let detector = self.detector.as_mut().expect("set above");
        let started = std::time::Instant::now();
        let mut result = match &self.his_tail {
            Some(tail) => {
                // Contiguous stream: no burn-in needed; trim the prepended
                // region off every output afterwards.
                let combined = tail.concat_time(test);
                let mut r = detector.detect_with_burn_in(&combined, 0);
                let p = tail.len();
                r.point_scores.drain(..p);
                r.point_labels.drain(..p);
                r.anomalies.retain(|a| a.end > p);
                for a in &mut r.anomalies {
                    a.start = a.start.saturating_sub(p);
                    a.end -= p;
                }
                r
            }
            None => detector.detect(test),
        };
        let rounds = result.rounds.len().max(1);
        self.last_tpr = started.elapsed().as_secs_f64() / rounds as f64;
        // Round start offsets refer to the combined stream; shift them so
        // downstream consumers see test coordinates.
        if let Some(tail) = &self.his_tail {
            for rec in &mut result.rounds {
                rec.start = rec.start.saturating_sub(tail.len());
            }
        }
        let scores = result.point_scores.clone();
        self.last_result = Some(result);
        scores
    }

    fn sensor_scores(&mut self, test: &Mts) -> Option<Vec<Vec<f64>>> {
        if self.last_result.is_none() {
            self.score(test);
        }
        let result = self.last_result.as_ref().expect("scored above");
        let n = test.n_sensors();
        let len = test.len();
        let mut out = vec![vec![0.0f64; len]; n];
        // Suspect evidence: each vertex's RC *drawdown* — the drop from
        // its recent peak ratio over the last `lookback` rounds. When an
        // anomaly begins, affected sensors' co-appearance collapses over a
        // few consecutive rounds; the drawdown accumulates that descent
        // while round-to-round noise (which rises as often as it falls)
        // stays near its own amplitude.
        let lookback = self.rc_horizon.unwrap_or(12);
        let rcs: Vec<&Vec<f64>> = result
            .rounds
            .iter()
            .map(|rec| &rec.rc)
            .filter(|rc| rc.len() == n)
            .collect();
        for (i, rec) in result.rounds.iter().enumerate() {
            if rec.rc.len() != n {
                continue;
            }
            let from = i.saturating_sub(lookback);
            // Tail attribution, matching the detector's point scores.
            let end = (rec.start + self.w).min(len);
            let start = end.saturating_sub(self.s);
            for sensor in 0..n {
                let peak = rcs[from..=i]
                    .iter()
                    .map(|rc| rc[sensor])
                    .fold(f64::MIN, f64::max);
                let evidence = (peak - rec.rc[sensor]).max(0.0);
                if evidence <= 0.0 {
                    continue;
                }
                for o in &mut out[sensor][start..end] {
                    if evidence > *o {
                        *o = evidence;
                    }
                }
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad_datagen::{Dataset, GeneratorConfig};

    fn dataset() -> Dataset {
        Dataset::generate(&GeneratorConfig::small("cadm", 24, 5))
    }

    #[test]
    fn calibrated_theta_sits_below_steady_state() {
        let data = dataset();
        let mut m = CadMethod::new(48, 8, 5).with_tau(0.4);
        m.fit(&data.his);
        // 3 latent communities of 8 → steady RC ≈ 7/23 ≈ 0.30; calibration
        // should land somewhere meaningfully below that but above zero.
        assert!(m.theta > 0.05 && m.theta < 0.30, "theta = {}", m.theta);
    }

    #[test]
    fn end_to_end_scores_are_informative() {
        let data = dataset();
        let mut m = CadMethod::new(48, 8, 5).with_tau(0.4);
        m.fit(&data.his);
        let scores = m.score(&data.test);
        assert_eq!(scores.len(), data.test.len());
        // The binary 3σ output is conservative; the score stream is what
        // Table III evaluates. It must both (a) flag at least one anomaly
        // outright and (b) separate anomalies from normal operation well
        // enough for a useful grid-searched F1.
        let result = m.result().expect("scored");
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
        assert!(caught >= 1, "no anomaly caught outright");
        let truth = data.truth.point_labels();
        let eval = crate::runner::evaluate_scores(&scores, &truth);
        assert!(eval.f1_pa > 50.0, "F1_PA too low: {}", eval.f1_pa);
        assert!(m.last_tpr > 0.0);
    }

    #[test]
    fn sensor_scores_highlight_affected_sensors() {
        let data = dataset();
        let mut m = CadMethod::new(48, 8, 5).with_tau(0.4);
        m.fit(&data.his);
        m.score(&data.test);
        let per_sensor = m
            .sensor_scores(&data.test)
            .expect("CAD provides sensor scores");
        assert_eq!(per_sensor.len(), data.test.n_sensors());
        assert_eq!(per_sensor[0].len(), data.test.len());
        assert!(per_sensor
            .iter()
            .flatten()
            .all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn theta_override_skips_calibration() {
        let data = dataset();
        let mut m = CadMethod::new(48, 8, 5).with_theta(0.123);
        m.fit(&data.his);
        assert_eq!(m.theta, 0.123);
    }

    #[test]
    fn no_warmup_mode_bootstraps() {
        let data = dataset();
        let mut m = CadMethod::new(48, 8, 5).with_theta(0.27);
        let scores = m.score(&data.test);
        assert_eq!(scores.len(), data.test.len());
    }
}
