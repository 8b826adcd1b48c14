//! # CAD — Correlation-analysis-based Anomaly Detection
//!
//! The core contribution of *"A Stitch in Time Saves Nine: Enabling Early
//! Anomaly Detection with Correlation Analysis"* (ICDE 2023), implemented
//! end-to-end:
//!
//! 1. **TSG construction** (§III-B) — every sliding window of the MTS
//!    becomes a Time-Series Graph: a correlation k-NN graph pruned at τ
//!    (built by `cad-graph`).
//! 2. **Phase 1 — community detection** (§IV-B) — Louvain partitions each
//!    TSG.
//! 3. **Phase 2 — co-appearance mining** (§IV-C) — per vertex, count peers
//!    that stayed in its community across consecutive rounds
//!    ([`coappearance::CoappearanceTracker`]), accumulate the ratio
//!    `RC_{v,r}` and flag outliers below θ.
//! 4. **Phase 3 — variation analysis** (§IV-D) — the number of outlier
//!    variations `n_r = |O_{r−1} Δ O_r|`; a round is abnormal when
//!    `|n_r − μ| ≥ 3σ` (Theorem 1 + Chebyshev), with μ/σ maintained online
//!    and seeded by the warm-up process.
//!
//! The entry point is [`CadDetector`]: batch (`detect`) and streaming
//! (`push_window`) APIs share the same internals, exactly as §IV-F's
//! generalisation argument describes.
//!
//! ```
//! use cad_core::{CadConfig, CadDetector};
//! use cad_mts::Mts;
//!
//! // Two correlated sensors; the second decouples halfway through.
//! let a: Vec<f64> = (0..600).map(|t| (t as f64 * 0.2).sin()).collect();
//! let mut b = a.clone();
//! for t in 400..500 {
//!     b[t] = (t as f64 * 1.7).cos() * 2.0 + 10.0;
//! }
//! let series = Mts::from_series(vec![a.clone(), b, a.iter().map(|x| -x).collect()]);
//!
//! let config = CadConfig::builder(3)
//!     .window(64, 16)
//!     .k(2)
//!     .tau(0.3)
//!     .theta(0.5)
//!     .build();
//! let mut detector = CadDetector::new(3, config);
//! let result = detector.detect(&series);
//! // The report covers every round and exposes anomalies + scores.
//! assert_eq!(result.point_scores.len(), 600);
//! ```

pub mod coappearance;
pub mod config;
pub mod detector;
pub(crate) mod engine;
pub mod explain;
pub(crate) mod metrics;
pub mod replay;
pub mod result;
pub mod state;
pub mod stream;

pub use coappearance::CoappearanceTracker;
pub use config::{CadConfig, CadConfigBuilder, EngineChoice, GapPolicy};
pub use detector::{CadDetector, RoundOutcome};
// `explain::RoundRecord` stays module-scoped: `result::RoundRecord` (the
// batch report row) already owns the top-level name.
pub use explain::ExplainJournal;
pub use replay::{splice_batch, SpliceError, SplicedRound};
pub use result::{Anomaly, DetectionResult, RoundRecord};
pub use state::{load_detector, load_stream, save_detector, save_stream, StateError};
pub use stream::{PushError, StreamCounters, StreamingCad};
