//! Statistics substrate for the CAD anomaly-detection suite.
//!
//! Everything the paper's pipeline needs that is "just statistics" lives
//! here: Pearson correlation (the TSG edge weight, §III-B), running
//! mean/variance (the `μ`/`σ` of Algorithm 2 and the warm-up process),
//! autocorrelation-based period estimation (used to pick the pattern length
//! for SAND/SAND*/NormA, §VI-A), empirical CDFs (ECOD), ranking utilities
//! (Table III average ranks) and a small deterministic sampler for Gaussian
//! noise (Box–Muller on top of `rand`, keeping the dependency list minimal).
//!
//! All routines operate on `&[f64]` slices so they compose with both the
//! matrix types in `cad-mts` and raw buffers in the benchmarks.

pub mod correlation;
pub mod descriptive;
pub mod ecdf;
mod finish;
pub mod masked;
pub mod periodicity;
pub mod rank;
pub mod running;
pub mod sampling;
pub mod sliding;
pub mod tiled;

pub use correlation::{
    pearson, pearson_matrix_into, pearson_matrix_normalized, pearson_normalized, pearson_pairwise,
    pearson_triangle_into, znorm_in_place, znormed,
};
pub use descriptive::{mean, median, quantile, stddev, variance};
pub use ecdf::Ecdf;
pub use finish::Triangle;
pub use masked::{MaskedCovState, MaskedSlidingCov};
pub use periodicity::{autocorrelation, estimate_period};
pub use rank::{average_ranks, rank_descending};
pub use running::RunningStats;
pub use sampling::GaussianSampler;
pub use sliding::SlidingCov;
pub use tiled::{active_kernel, Kernel};

/// Numerical tolerance used across the suite when comparing floating-point
/// statistics in tests and guard conditions.
pub const EPS: f64 = 1e-9;
