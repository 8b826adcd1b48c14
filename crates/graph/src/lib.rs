//! Graph substrate for the CAD suite.
//!
//! §III-B converts each windowed sub-matrix `T_r` into a *Time-Series
//! Graph*: a k-nearest-neighbour graph over Pearson correlation, pruned by
//! a correlation threshold τ. §IV-B partitions that graph into communities
//! with Louvain. This crate owns the general graph machinery:
//!
//! * [`WeightedGraph`] — undirected weighted adjacency-list graph;
//! * [`knn`] — the correlation k-NN graph builder with τ-pruning. It is
//!   exact at every network size: one correlation matrix per round;
//! * [`mod@louvain`] — Louvain modularity optimisation (Blondel et al., 2008),
//!   the paper's chosen community-detection method (O(n log n));
//! * [`components`] — connected components (used as a sanity oracle for
//!   Louvain in tests and as a fallback partitioner).

pub mod components;
pub mod knn;
pub mod louvain;
pub mod weighted;

pub use components::connected_components;
pub use knn::{tsg_from_matrix, tsg_from_triangle, CorrelationKnn, KnnConfig};
pub use louvain::{louvain, modularity, LouvainConfig, Partition};
pub use weighted::WeightedGraph;
