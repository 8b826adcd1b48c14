//! CAD hyper-parameters (Table I / §VI-H).

use cad_graph::{KnnConfig, LouvainConfig};
use cad_mts::WindowSpec;

/// Which round engine builds each round's TSG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineChoice {
    /// Recompute the correlation structure from scratch every round —
    /// O(n²·w). The oracle; always valid. Under a masked [`GapPolicy`]
    /// this is a fresh pairwise-deletion rebuild of the window each round.
    #[default]
    Exact,
    /// Maintain sliding co-moment sums, updated by the `s` incoming and
    /// `s` retiring points — O(n²·s) per round. An exact rebuild runs
    /// every `rebuild_every` rounds to re-anchor the sums and bound
    /// floating-point drift.
    Incremental {
        /// Exact-rebuild period `R ≥ 1` (1 degenerates to `Exact`).
        rebuild_every: usize,
    },
}

impl EngineChoice {
    /// Default rebuild period for the incremental engine: frequent enough
    /// that drift never approaches the parity tolerance, rare enough that
    /// the amortised rebuild cost is noise.
    pub const DEFAULT_REBUILD_EVERY: usize = 64;

    /// Incremental engine with the default rebuild period.
    pub fn incremental() -> Self {
        EngineChoice::Incremental {
            rebuild_every: Self::DEFAULT_REBUILD_EVERY,
        }
    }
}

/// What a detector does with a missing (NaN) sample — the explicit
/// degraded-input semantics of the hostile-stream subsystem.
///
/// The policy decides both the per-sample treatment *and* the correlation
/// arithmetic: any policy other than [`GapPolicy::Fail`] switches the round
/// engines onto the pairwise-deletion masked path
/// (`cad_stats::MaskedSlidingCov`), statically — even windows that happen
/// to be clean use masked sums, so the code path never flips mid-stream
/// and outcomes stay deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GapPolicy {
    /// Reject NaN at the push boundary (an error from `push_tick`, a panic
    /// from the legacy `push_sample`). The default — bit-identical to the
    /// historical dense behavior for clean streams.
    #[default]
    Fail,
    /// Treat NaN as missing: the sample is masked out of every co-moment
    /// and correlations use pairwise deletion over the samples both
    /// sensors actually share.
    Skip,
    /// Substitute the sensor's last valid value. Before a sensor's first
    /// valid sample there is nothing to hold, so such samples degrade to
    /// [`GapPolicy::Skip`] semantics (masked).
    HoldLast,
}

impl GapPolicy {
    /// Whether this policy routes the engines through the masked
    /// (pairwise-deletion) correlation path.
    pub fn is_masked(self) -> bool {
        !matches!(self, GapPolicy::Fail)
    }

    /// Stable wire/persistence tag.
    pub fn tag(self) -> u8 {
        match self {
            GapPolicy::Fail => 0,
            GapPolicy::Skip => 1,
            GapPolicy::HoldLast => 2,
        }
    }

    /// Inverse of [`Self::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(GapPolicy::Fail),
            1 => Some(GapPolicy::Skip),
            2 => Some(GapPolicy::HoldLast),
            _ => None,
        }
    }
}

/// All CAD parameters: the sliding window `w`/step `s`, the TSG's `k` and
/// τ, the outlier threshold θ, and the abnormality multiplier η (the paper
/// fixes η = 3, giving the `|n_r − μ| ≥ 3σ` rule).
#[derive(Debug, Clone, PartialEq)]
pub struct CadConfig {
    /// Sliding window and step.
    pub window: WindowSpec,
    /// k-NN graph parameters (k, τ).
    pub knn: KnnConfig,
    /// Outlier threshold θ on `RC_{v,r}` (Definition 7). The paper suggests
    /// θ ≈ 0.3 (§VI-H).
    pub theta: f64,
    /// Chebyshev multiplier η (Inequality 5); 3 by default.
    pub eta: f64,
    /// Sliding horizon for the co-appearance ratio: `None` is the paper's
    /// cumulative Definition 6; `Some(H)` averages the last `H` rounds,
    /// keeping sensitivity constant over long streams (see
    /// `cad_core::coappearance`).
    pub rc_horizon: Option<usize>,
    /// Louvain parameters.
    pub louvain: LouvainConfig,
    /// Round engine producing each round's TSG.
    pub engine: EngineChoice,
    /// Missing-sample policy (see [`GapPolicy`]; `Fail` by default).
    pub gap_policy: GapPolicy,
    /// Bound of the out-of-order tick buffer in `StreamingCad::push_tick`:
    /// a tick arriving up to `reorder_slack` sequence numbers early is
    /// buffered and re-sequenced; later than that the gap is handled by
    /// the gap policy. 0 (the default) demands strictly in-order arrival.
    pub reorder_slack: usize,
}

impl CadConfig {
    /// Start a builder for an `n_sensors`-wide MTS; defaults follow the
    /// paper's suggestions (τ = 0.5, θ = 0.3, η = 3, k = n/4 clamped to
    /// Table II's range).
    pub fn builder(n_sensors: usize) -> CadConfigBuilder {
        CadConfigBuilder::new(n_sensors)
    }

    /// Paper-suggested defaults for a series of `len` points and
    /// `n_sensors` sensors (w ≈ 0.02·|T|, s ≈ 0.02·w — §VI-H).
    pub fn suggested(n_sensors: usize, len: usize) -> CadConfig {
        CadConfigBuilder::new(n_sensors).window_for_len(len).build()
    }
}

/// Builder with validation at `build`.
#[derive(Debug, Clone)]
pub struct CadConfigBuilder {
    n_sensors: usize,
    w: usize,
    s: usize,
    k: usize,
    tau: f64,
    theta: f64,
    eta: f64,
    rc_horizon: Option<usize>,
    louvain: LouvainConfig,
    engine: EngineChoice,
    gap_policy: GapPolicy,
    reorder_slack: usize,
}

impl CadConfigBuilder {
    fn new(n_sensors: usize) -> Self {
        assert!(n_sensors >= 2, "CAD needs at least two sensors");
        Self {
            n_sensors,
            w: 64,
            s: 8,
            k: (n_sensors / 4).clamp(2, 50),
            tau: 0.5,
            theta: 0.3,
            eta: 3.0,
            rc_horizon: None,
            louvain: LouvainConfig::default(),
            engine: EngineChoice::Exact,
            gap_policy: GapPolicy::Fail,
            reorder_slack: 0,
        }
    }

    /// Set window and step directly.
    pub fn window(mut self, w: usize, s: usize) -> Self {
        self.w = w;
        self.s = s;
        self
    }

    /// Pick w/s from a series length per the paper's §VI-H suggestion.
    pub fn window_for_len(mut self, len: usize) -> Self {
        let spec = WindowSpec::suggested(len);
        self.w = spec.w;
        self.s = spec.s;
        self
    }

    /// Number of nearest neighbours `k`.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Correlation threshold τ.
    pub fn tau(mut self, tau: f64) -> Self {
        self.tau = tau;
        self
    }

    /// Outlier threshold θ.
    pub fn theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Chebyshev multiplier η.
    pub fn eta(mut self, eta: f64) -> Self {
        self.eta = eta;
        self
    }

    /// Sliding RC horizon (`None` = the paper's cumulative ratio).
    pub fn rc_horizon(mut self, horizon: Option<usize>) -> Self {
        self.rc_horizon = horizon;
        self
    }

    /// Louvain configuration.
    pub fn louvain(mut self, louvain: LouvainConfig) -> Self {
        self.louvain = louvain;
        self
    }

    /// Round engine (exact by default; [`EngineChoice::incremental`] turns
    /// on the O(n²·s) sliding-correlation path).
    pub fn engine(mut self, engine: EngineChoice) -> Self {
        self.engine = engine;
        self
    }

    /// Missing-sample policy ([`GapPolicy::Fail`] by default).
    pub fn gap_policy(mut self, policy: GapPolicy) -> Self {
        self.gap_policy = policy;
        self
    }

    /// Out-of-order tick buffer bound (0 = strictly in-order).
    pub fn reorder_slack(mut self, slack: usize) -> Self {
        self.reorder_slack = slack;
        self
    }

    /// Validate and build.
    pub fn build(self) -> CadConfig {
        assert!((0.0..=1.0).contains(&self.theta), "theta must be in [0,1]");
        assert!(self.eta > 0.0, "eta must be positive");
        if let EngineChoice::Incremental { rebuild_every } = self.engine {
            assert!(rebuild_every >= 1, "rebuild period must be at least 1");
        }
        CadConfig {
            window: WindowSpec::new(self.w, self.s),
            knn: KnnConfig::new(
                self.k.min(self.n_sensors.saturating_sub(1)).max(1),
                self.tau,
            ),
            theta: self.theta,
            eta: self.eta,
            rc_horizon: self.rc_horizon,
            louvain: self.louvain,
            engine: self.engine,
            gap_policy: self.gap_policy,
            reorder_slack: self.reorder_slack,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper() {
        let c = CadConfig::builder(40).build();
        assert_eq!(c.theta, 0.3);
        assert_eq!(c.eta, 3.0);
        assert_eq!(c.knn.tau, 0.5);
        assert_eq!(c.knn.k, 10); // 40/4
    }

    #[test]
    fn k_clamped_to_n_minus_one() {
        let c = CadConfig::builder(3).k(10).build();
        assert_eq!(c.knn.k, 2);
    }

    #[test]
    fn suggested_window_scales_with_len() {
        let c = CadConfig::suggested(10, 50_000);
        assert!(c.window.w >= 8);
        assert!(c.window.s >= 1);
        assert!(c.window.s <= c.window.w);
    }

    #[test]
    fn builder_setters() {
        let c = CadConfig::builder(20)
            .window(128, 16)
            .k(5)
            .tau(0.4)
            .theta(0.25)
            .eta(2.5)
            .build();
        assert_eq!(c.window.w, 128);
        assert_eq!(c.window.s, 16);
        assert_eq!(c.knn.k, 5);
        assert_eq!(c.knn.tau, 0.4);
        assert_eq!(c.theta, 0.25);
        assert_eq!(c.eta, 2.5);
    }

    #[test]
    #[should_panic(expected = "theta must be in [0,1]")]
    fn bad_theta_rejected() {
        CadConfig::builder(4).theta(1.5).build();
    }

    #[test]
    fn engine_defaults_to_exact() {
        assert_eq!(CadConfig::builder(4).build().engine, EngineChoice::Exact);
        let c = CadConfig::builder(4)
            .engine(EngineChoice::incremental())
            .build();
        assert_eq!(
            c.engine,
            EngineChoice::Incremental {
                rebuild_every: EngineChoice::DEFAULT_REBUILD_EVERY
            }
        );
    }

    #[test]
    #[should_panic(expected = "rebuild period")]
    fn zero_rebuild_period_rejected() {
        CadConfig::builder(4)
            .engine(EngineChoice::Incremental { rebuild_every: 0 })
            .build();
    }

    #[test]
    #[should_panic(expected = "at least two sensors")]
    fn single_sensor_rejected() {
        CadConfig::builder(1);
    }
}
