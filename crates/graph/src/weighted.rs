//! Undirected weighted graph on dense vertex ids `0..n`.
//!
//! The TSG is small (one vertex per sensor, ≤ a few thousand) but rebuilt
//! every round, so construction cost matters more than query sophistication.
//! Adjacency lists over a flat `Vec` keep rebuilds allocation-friendly.

/// An undirected weighted graph. Parallel edges are rejected at insertion;
/// self-loops are rejected (a sensor is trivially correlated with itself and
/// the TSG never contains loops).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedGraph {
    n: usize,
    /// Per-vertex list of `(neighbor, weight)`.
    adj: Vec<Vec<(usize, f64)>>,
    n_edges: usize,
}

impl WeightedGraph {
    /// Empty graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            adj: vec![Vec::new(); n],
            n_edges: 0,
        }
    }

    /// Empty graph with one vertex per entry of `degrees`, each adjacency
    /// list sized for that vertex's final degree, so a builder that knows
    /// every degree up front fills the lists without regrowing them.
    pub(crate) fn with_degrees(degrees: &[usize]) -> Self {
        Self {
            n: degrees.len(),
            adj: degrees.iter().map(|&d| Vec::with_capacity(d)).collect(),
            n_edges: 0,
        }
    }

    /// [`Self::add_edge`] for a builder that has already ruled out
    /// self-loops and duplicates: the checks run in debug builds only.
    pub(crate) fn push_edge_unchecked(&mut self, u: usize, v: usize, weight: f64) {
        debug_assert!(
            u != v && !self.has_edge(u, v),
            "self-loop or duplicate edge ({u},{v})"
        );
        self.adj[u].push((v, weight));
        self.adj[v].push((u, weight));
        self.n_edges += 1;
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Add the undirected edge `{u, v}` with `weight`. Panics on self-loops,
    /// out-of-range vertices, or duplicate edges — all of which indicate a
    /// bug in the TSG builder rather than recoverable conditions.
    pub fn add_edge(&mut self, u: usize, v: usize, weight: f64) {
        assert!(
            u < self.n && v < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        assert_ne!(u, v, "self-loops are not allowed");
        assert!(
            !self.has_edge(u, v),
            "duplicate edge ({u},{v}); TSG builder must deduplicate"
        );
        self.adj[u].push((v, weight));
        self.adj[v].push((u, weight));
        self.n_edges += 1;
    }

    /// Whether `{u, v}` is present.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u].iter().any(|&(w, _)| w == v)
    }

    /// Weight of `{u, v}` if present.
    pub fn edge_weight(&self, u: usize, v: usize) -> Option<f64> {
        self.adj[u]
            .iter()
            .find(|&&(w, _)| w == v)
            .map(|&(_, wt)| wt)
    }

    /// Neighbours of `u` with weights.
    pub fn neighbors(&self, u: usize) -> &[(usize, f64)] {
        &self.adj[u]
    }

    /// Degree of `u` (number of incident edges).
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Weighted degree of `u` using `|weight|`.
    ///
    /// Pearson weights can be negative; Louvain's modularity needs
    /// non-negative weights, and the paper prunes by |ω(e)| — a strong
    /// negative correlation is still a strong tie. All weight-sum consumers
    /// therefore use magnitudes.
    pub fn weighted_degree_abs(&self, u: usize) -> f64 {
        self.adj[u].iter().map(|&(_, w)| w.abs()).sum()
    }

    /// Total |weight| over all undirected edges (each edge counted once).
    pub fn total_weight_abs(&self) -> f64 {
        let twice: f64 = (0..self.n).map(|u| self.weighted_degree_abs(u)).sum();
        twice / 2.0
    }

    /// Iterate all undirected edges once as `(u, v, weight)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            nbrs.iter()
                .filter(move |&&(v, _)| u < v)
                .map(move |&(v, w)| (u, v, w))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn triangle() -> WeightedGraph {
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 0.9);
        g.add_edge(1, 2, -0.8);
        g.add_edge(0, 2, 0.7);
        g
    }

    #[test]
    fn counts() {
        let g = triangle();
        assert_eq!(g.n_vertices(), 4);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn symmetry() {
        let g = triangle();
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert_eq!(g.edge_weight(2, 1), Some(-0.8));
        assert_eq!(g.edge_weight(1, 2), Some(-0.8));
        assert_eq!(g.edge_weight(0, 3), None);
    }

    #[test]
    fn abs_weight_sums() {
        let g = triangle();
        assert!((g.weighted_degree_abs(1) - 1.7).abs() < 1e-12);
        assert!((g.total_weight_abs() - 2.4).abs() < 1e-12);
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = triangle();
        let mut edges: Vec<(usize, usize)> = g.edges().map(|(u, v, _)| (u, v)).collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        WeightedGraph::new(2).add_edge(1, 1, 0.5);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_rejected() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 0.5);
        g.add_edge(1, 0, 0.6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        WeightedGraph::new(2).add_edge(0, 2, 0.5);
    }

    proptest! {
        #[test]
        fn prop_handshake_lemma(
            edges in proptest::collection::btree_set((0usize..12, 0usize..12), 0..40),
        ) {
            let mut g = WeightedGraph::new(12);
            for &(u, v) in &edges {
                if u != v && !g.has_edge(u, v) {
                    g.add_edge(u, v, 1.0);
                }
            }
            let degree_sum: usize = (0..12).map(|u| g.degree(u)).sum();
            prop_assert_eq!(degree_sum, 2 * g.n_edges());
            prop_assert_eq!(g.edges().count(), g.n_edges());
        }
    }
}
