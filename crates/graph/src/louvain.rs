//! Louvain community detection (Blondel, Guillaume, Lambiotte, Lefebvre —
//! J. Stat. Mech. 2008), the method CAD adopts in Phase 1 (§IV-B) for its
//! O(n log n) behaviour.
//!
//! Standard two-phase scheme, iterated over levels:
//!
//! 1. **Local moving** — repeatedly move single vertices to the neighbouring
//!    community with the highest positive modularity gain, until no move
//!    improves anything.
//! 2. **Aggregation** — collapse each community to one super-vertex (intra-
//!    community weight becomes a self-loop) and recurse.
//!
//! Pearson edge weights may be negative; modularity assumes non-negative
//! weights, so all computations use |weight| (a strong negative correlation
//! is still a strong tie — see `WeightedGraph::weighted_degree_abs`).
//! Vertices are visited in index order and ties break toward the smaller
//! community label, making the whole procedure deterministic — a property
//! the paper leans on ("CAD is a deterministic method", §VI-E).

use crate::weighted::WeightedGraph;

/// A partition of vertices `0..n` into communities, as per-vertex labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    labels: Vec<usize>,
    n_communities: usize,
}

impl Partition {
    /// Build from raw labels, relabelling to the dense range
    /// `0..n_communities` in order of first appearance.
    pub fn from_labels(raw: &[usize]) -> Self {
        let mut remap: Vec<Option<usize>> = Vec::new();
        let mut labels = Vec::with_capacity(raw.len());
        let mut next = 0usize;
        // First appearance order keeps output deterministic.
        let max = raw.iter().copied().max().map_or(0, |m| m + 1);
        remap.resize(max, None);
        for &r in raw {
            let id = match remap[r] {
                Some(id) => id,
                None => {
                    let id = next;
                    remap[r] = Some(id);
                    next += 1;
                    id
                }
            };
            labels.push(id);
        }
        Self {
            labels,
            n_communities: next,
        }
    }

    /// Singleton partition: every vertex in its own community.
    pub fn singletons(n: usize) -> Self {
        Self {
            labels: (0..n).collect(),
            n_communities: n,
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True for the empty partition.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Community label of vertex `v`.
    pub fn community_of(&self, v: usize) -> usize {
        self.labels[v]
    }

    /// Number of communities `c_r`.
    pub fn n_communities(&self) -> usize {
        self.n_communities
    }

    /// Per-vertex labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Member lists per community, each sorted ascending.
    pub fn communities(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.n_communities];
        for (v, &c) in self.labels.iter().enumerate() {
            out[c].push(v);
        }
        out
    }

    /// Whether `u` and `v` share a community.
    pub fn same_community(&self, u: usize, v: usize) -> bool {
        self.labels[u] == self.labels[v]
    }
}

/// Louvain parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LouvainConfig {
    /// Stop after this many aggregation levels (safety bound; real runs
    /// converge in a handful).
    pub max_levels: usize,
    /// Minimum total modularity gain per level to keep going.
    pub min_gain: f64,
}

impl Default for LouvainConfig {
    fn default() -> Self {
        Self {
            max_levels: 16,
            min_gain: 1e-7,
        }
    }
}

/// Modularity `Q` of a partition over a (loop-free) weighted graph, using
/// |weight| throughout. Returns 0 for an edgeless graph.
pub fn modularity(graph: &WeightedGraph, partition: &Partition) -> f64 {
    assert_eq!(graph.n_vertices(), partition.len());
    let m = graph.total_weight_abs();
    if m <= f64::EPSILON {
        return 0.0;
    }
    let two_m = 2.0 * m;
    let nc = partition.n_communities();
    let mut internal = vec![0.0; nc]; // Σ_in(c): intra edges, each once
    let mut total = vec![0.0; nc]; // Σ_tot(c): summed weighted degrees
    for (u, v, w) in graph.edges() {
        if partition.same_community(u, v) {
            internal[partition.community_of(u)] += w.abs();
        }
    }
    for u in 0..graph.n_vertices() {
        total[partition.community_of(u)] += graph.weighted_degree_abs(u);
    }
    (0..nc)
        .map(|c| {
            let frac_in = internal[c] / m; // = 2·W_in / 2m
            let frac_tot = total[c] / two_m;
            frac_in - frac_tot * frac_tot
        })
        .sum()
}

/// One level's graph in CSR form. Self-loops (created by aggregation) are
/// kept apart: a self-loop of weight `w` contributes `2w` to its vertex's
/// degree, the usual Louvain convention.
#[derive(Debug, Clone, Default)]
struct Level {
    /// Row `u` of `edges` is `offsets[u]..offsets[u + 1]`.
    offsets: Vec<usize>,
    /// `(neighbour, |weight|)`, both directions of every edge.
    edges: Vec<(usize, f64)>,
    self_loop: Vec<f64>,
    /// Σ of row `u`'s weights, summed in row order.
    degree: Vec<f64>,
    total_weight: f64,
}

impl Level {
    fn n(&self) -> usize {
        self.self_loop.len()
    }

    fn row(&self, u: usize) -> &[(usize, f64)] {
        &self.edges[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Empty the level for `n` vertices: zero self-loops and degrees.
    fn reset(&mut self, n: usize) {
        for v in [&mut self.self_loop, &mut self.degree] {
            v.clear();
            v.resize(n, 0.0);
        }
        self.total_weight = 0.0;
    }

    /// Size the CSR rows from per-vertex counts held in `offsets[..n]`
    /// (turned into row starts in place) and return each row's write
    /// cursor in `cursor`.
    fn size_rows(&mut self, cursor: &mut Vec<usize>) {
        let mut start = 0;
        for o in self.offsets.iter_mut() {
            let count = *o;
            *o = start;
            start += count;
        }
        cursor.clear();
        cursor.extend_from_slice(&self.offsets[..self.n()]);
        self.edges.clear();
        self.edges.resize(start, (0, 0.0));
    }

    /// Append the undirected edge `{a, b}` to both rows and to the sums.
    fn push_edge(&mut self, cursor: &mut [usize], a: usize, b: usize, w: f64) {
        self.edges[cursor[a]] = (b, w);
        cursor[a] += 1;
        self.edges[cursor[b]] = (a, w);
        cursor[b] += 1;
        self.degree[a] += w;
        self.degree[b] += w;
        self.total_weight += w;
    }

    /// Level 0: `graph` with |weight|, each row in the order
    /// [`WeightedGraph::edges`] visits the row's edges.
    fn load(&mut self, graph: &WeightedGraph, cursor: &mut Vec<usize>) {
        let n = graph.n_vertices();
        self.reset(n);
        self.offsets.clear();
        self.offsets.extend((0..n).map(|u| graph.degree(u)));
        self.offsets.push(0);
        self.size_rows(cursor);
        for (u, v, w) in graph.edges() {
            self.push_edge(cursor, u, v, w.abs());
        }
    }
}

/// Reusable state of [`louvain`]: the level graph (double-buffered for
/// aggregation) and every per-vertex buffer of local moving, aggregation
/// and modularity. Once its buffers have grown to fit the graphs it runs,
/// a workspace allocates nothing but the returned [`Partition`].
#[derive(Debug, Clone, Default)]
pub struct LouvainWorkspace {
    level: Level,
    next: Level,
    /// CSR write cursors.
    cursor: Vec<usize>,
    community: Vec<usize>,
    sigma_tot: Vec<f64>,
    /// Weight from the current vertex to each community, reset sparsely.
    weight_to: Vec<f64>,
    touched: Vec<usize>,
    /// First-appearance relabel map, and the level's dense labels.
    remap: Vec<usize>,
    dense: Vec<usize>,
    /// Original vertex → current community.
    membership: Vec<usize>,
    /// Cross-community edges `(higher id, w)`, bucketed by lower id.
    bucket_start: Vec<usize>,
    bucket: Vec<(usize, f64)>,
    /// Stamped dense accumulator of one bucket's pair weights.
    pair_weight: Vec<f64>,
    stamp: Vec<usize>,
    partners: Vec<usize>,
    /// Aggregated edges `(a, b, w)`, `a < b`, in ascending `(a, b)` order.
    pairs: Vec<(usize, usize, f64)>,
    /// Modularity inputs: per-vertex |w| degree, relabelled membership,
    /// and per-community internal and total weight.
    degree_abs: Vec<f64>,
    labels: Vec<usize>,
    internal: Vec<f64>,
    total: Vec<f64>,
}

impl LouvainWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`louvain`] on this workspace's buffers. The result is identical to
    /// a fresh workspace's, whatever graphs this one ran before.
    pub fn run(&mut self, graph: &WeightedGraph, config: LouvainConfig) -> Partition {
        let n = graph.n_vertices();
        if n == 0 {
            return Partition::from_labels(&[]);
        }
        self.level.load(graph, &mut self.cursor);
        let m = graph.total_weight_abs();
        self.degree_abs.clear();
        self.degree_abs
            .extend((0..n).map(|u| graph.weighted_degree_abs(u)));
        self.membership.clear();
        self.membership.extend(0..n);
        let mut current_q = f64::NEG_INFINITY;
        let mut aggregated = 0;
        for _level in 0..config.max_levels {
            if !self.local_moving() {
                break;
            }
            let n_level = self.level.n();
            let nc = relabel(&self.community, &mut self.remap, &mut self.dense);
            for c in self.membership.iter_mut() {
                *c = self.dense[*c];
            }
            let q = self.modularity(graph, m);
            if q <= current_q + config.min_gain {
                // Accept the move (it is still a valid partition) but stop.
                break;
            }
            current_q = q;
            if nc == n_level {
                break; // nothing merged; fixed point
            }
            self.aggregate(nc);
            std::mem::swap(&mut self.level, &mut self.next);
            aggregated += 1;
        }
        if aggregated % 2 == 1 {
            // Level 0 always loads into the same buffer, so the buffer
            // that has held the largest level is the one it reuses.
            std::mem::swap(&mut self.level, &mut self.next);
        }
        let nc = relabel(&self.membership, &mut self.remap, &mut self.labels);
        Partition {
            labels: self.labels.clone(),
            n_communities: nc,
        }
    }

    /// One level of local moving over `self.level`, leaving per-vertex
    /// community labels (not yet dense) in `self.community`. Returns
    /// whether any vertex moved.
    fn local_moving(&mut self) -> bool {
        let g = &self.level;
        let n = g.n();
        let community = &mut self.community;
        community.clear();
        community.extend(0..n);
        // Σ_tot per community (includes self-loops twice via degree).
        let sigma_tot = &mut self.sigma_tot;
        sigma_tot.clear();
        sigma_tot.extend((0..n).map(|u| g.degree[u] + 2.0 * g.self_loop[u]));
        let m = g.total_weight + g.self_loop.iter().sum::<f64>();
        if m <= f64::EPSILON {
            return false;
        }
        let mut moved_any = false;
        let weight_to = &mut self.weight_to;
        weight_to.clear();
        weight_to.resize(n, 0.0);
        let touched = &mut self.touched;
        loop {
            let mut moved_this_pass = false;
            for u in 0..n {
                let cu = community[u];
                let k_u = g.degree[u] + 2.0 * g.self_loop[u];
                // Gather weights from u to each neighbouring community.
                touched.clear();
                for &(v, w) in g.row(u) {
                    let cv = community[v];
                    if weight_to[cv] == 0.0 {
                        touched.push(cv);
                    }
                    weight_to[cv] += w;
                }
                if !touched.contains(&cu) {
                    touched.push(cu);
                }
                // Remove u from its community for the comparison.
                sigma_tot[cu] -= k_u;
                let base_links = weight_to[cu];
                let mut best_c = cu;
                let mut best_gain = base_links - sigma_tot[cu] * k_u / (2.0 * m);
                for &c in touched.iter() {
                    if c == cu {
                        continue;
                    }
                    let gain = weight_to[c] - sigma_tot[c] * k_u / (2.0 * m);
                    if gain > best_gain + 1e-12 || (gain > best_gain - 1e-12 && c < best_c) {
                        if gain > best_gain + 1e-12 {
                            best_gain = gain;
                            best_c = c;
                        } else if (gain - best_gain).abs() <= 1e-12 && c < best_c {
                            best_c = c;
                        }
                    }
                }
                sigma_tot[best_c] += k_u;
                if best_c != cu {
                    community[u] = best_c;
                    moved_this_pass = true;
                    moved_any = true;
                }
                for &c in touched.iter() {
                    weight_to[c] = 0.0;
                }
            }
            if !moved_this_pass {
                break;
            }
        }
        moved_any
    }

    /// Collapse `self.level` by the dense labels in `self.dense` (`0..nc`)
    /// into `self.next`: intra-community weight becomes a self-loop, and
    /// each pair of communities one edge carrying its summed weight.
    ///
    /// Every sum keeps the order of the map-based aggregation it replaces:
    /// a pair's weights are added in edge-encounter order (vertex
    /// ascending, row order, each edge once), and the new rows list
    /// partners ascending, which is where sorting the pairs put them.
    fn aggregate(&mut self, nc: usize) {
        let (g, labels) = (&self.level, &self.dense);
        let next = &mut self.next;
        next.reset(nc);
        // Each undirected edge once, from its lower endpoint.
        let each_edge = |u: usize| g.row(u).iter().filter(move |&&(v, _)| v >= u);
        // Bucket the cross-community edges by lower community id, keeping
        // encounter order within a bucket (a counting sort).
        let starts = &mut self.bucket_start;
        starts.clear();
        starts.resize(nc + 1, 0);
        for u in 0..g.n() {
            for &(v, _) in each_edge(u) {
                let (cu, cv) = (labels[u], labels[v]);
                if cu != cv {
                    starts[cu.min(cv) + 1] += 1;
                }
            }
        }
        for a in 0..nc {
            starts[a + 1] += starts[a];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&starts[..nc]);
        self.bucket.clear();
        self.bucket.resize(starts[nc], (0, 0.0));
        for u in 0..g.n() {
            let cu = labels[u];
            next.self_loop[cu] += g.self_loop[u];
            for &(v, w) in each_edge(u) {
                let cv = labels[v];
                if cu == cv {
                    next.self_loop[cu] += w;
                } else {
                    let (a, b) = (cu.min(cv), cu.max(cv));
                    self.bucket[self.cursor[a]] = (b, w);
                    self.cursor[a] += 1;
                }
            }
        }
        // Sum each pair through a stamped dense accumulator, then list
        // the bucket's partners ascending.
        self.pairs.clear();
        self.pair_weight.clear();
        self.pair_weight.resize(nc, 0.0);
        self.stamp.clear();
        self.stamp.resize(nc, usize::MAX);
        for a in 0..nc {
            self.partners.clear();
            for &(b, w) in &self.bucket[starts[a]..starts[a + 1]] {
                if self.stamp[b] != a {
                    self.stamp[b] = a;
                    self.pair_weight[b] = 0.0;
                    self.partners.push(b);
                }
                self.pair_weight[b] += w;
            }
            self.partners.sort_unstable();
            let weights = &self.pair_weight;
            self.pairs
                .extend(self.partners.iter().map(|&b| (a, b, weights[b])));
        }
        next.offsets.clear();
        next.offsets.resize(nc + 1, 0);
        for &(a, b, _) in &self.pairs {
            next.offsets[a] += 1;
            next.offsets[b] += 1;
        }
        next.size_rows(&mut self.cursor);
        for &(a, b, w) in &self.pairs {
            next.push_edge(&mut self.cursor, a, b, w);
        }
    }

    /// [`modularity`] of the current membership over `graph`, whose total
    /// |weight| is `m`, with the same partition labels and the same
    /// summation order.
    fn modularity(&mut self, graph: &WeightedGraph, m: f64) -> f64 {
        if m <= f64::EPSILON {
            return 0.0;
        }
        let two_m = 2.0 * m;
        let nc = relabel(&self.membership, &mut self.remap, &mut self.labels);
        let labels = &self.labels;
        for v in [&mut self.internal, &mut self.total] {
            v.clear();
            v.resize(nc, 0.0);
        }
        for (u, v, w) in graph.edges() {
            if labels[u] == labels[v] {
                self.internal[labels[u]] += w.abs();
            }
        }
        for (u, &d) in self.degree_abs.iter().enumerate() {
            self.total[labels[u]] += d;
        }
        (0..nc)
            .map(|c| {
                let frac_in = self.internal[c] / m;
                let frac_tot = self.total[c] / two_m;
                frac_in - frac_tot * frac_tot
            })
            .sum()
    }
}

/// Relabel `raw` into `out` by order of first appearance, exactly as
/// [`Partition::from_labels`] does; returns the number of labels.
fn relabel(raw: &[usize], remap: &mut Vec<usize>, out: &mut Vec<usize>) -> usize {
    const UNSEEN: usize = usize::MAX;
    remap.clear();
    remap.resize(raw.iter().max().map_or(0, |m| m + 1), UNSEEN);
    out.clear();
    let mut next = 0;
    for &r in raw {
        if remap[r] == UNSEEN {
            remap[r] = next;
            next += 1;
        }
        out.push(remap[r]);
    }
    next
}

/// Run Louvain on `graph` and return the final partition of the original
/// vertices. Deterministic for a given graph. Runs on a fresh
/// [`LouvainWorkspace`]; a caller that partitions every round keeps one.
pub fn louvain(graph: &WeightedGraph, config: LouvainConfig) -> Partition {
    LouvainWorkspace::new().run(graph, config)
}

/// The map-based Louvain the workspace replaced: a fresh `Vec<Vec>`
/// adjacency per level and a `HashMap` of community-pair weights sorted
/// for determinism. Kept as the oracle the workspace must equal.
#[cfg(test)]
mod reference {
    use super::{modularity, LouvainConfig, Partition};
    use crate::weighted::WeightedGraph;

    /// Internal graph representation allowing self-loops (needed after
    /// aggregation). A self-loop of weight `w` contributes `2w` to its vertex's
    /// degree, the usual Louvain convention.
    pub(super) struct InnerGraph {
        pub(super) adj: Vec<Vec<(usize, f64)>>,
        pub(super) self_loop: Vec<f64>,
        pub(super) degree: Vec<f64>,
        pub(super) total_weight: f64,
    }

    impl InnerGraph {
        pub(super) fn from_weighted(g: &WeightedGraph) -> Self {
            let n = g.n_vertices();
            let mut adj = vec![Vec::new(); n];
            let mut degree = vec![0.0; n];
            let mut total = 0.0;
            for (u, v, w) in g.edges() {
                let w = w.abs();
                adj[u].push((v, w));
                adj[v].push((u, w));
                degree[u] += w;
                degree[v] += w;
                total += w;
            }
            Self {
                adj,
                self_loop: vec![0.0; n],
                degree,
                total_weight: total,
            }
        }

        fn n(&self) -> usize {
            self.adj.len()
        }

        /// One level of local moving. Returns the final per-vertex community
        /// labels (not yet dense) and whether any vertex moved.
        pub(super) fn local_moving(&self) -> (Vec<usize>, bool) {
            let n = self.n();
            let mut community: Vec<usize> = (0..n).collect();
            // Σ_tot per community (includes self-loops twice via degree).
            let mut sigma_tot: Vec<f64> = (0..n)
                .map(|u| self.degree[u] + 2.0 * self.self_loop[u])
                .collect();
            let m = self.total_weight + self.self_loop.iter().sum::<f64>();
            if m <= f64::EPSILON {
                return (community, false);
            }
            let mut moved_any = false;
            // neighbour-community weight accumulator, reset sparsely per vertex.
            let mut weight_to: Vec<f64> = vec![0.0; n];
            let mut touched: Vec<usize> = Vec::new();
            loop {
                let mut moved_this_pass = false;
                for u in 0..n {
                    let cu = community[u];
                    let k_u = self.degree[u] + 2.0 * self.self_loop[u];
                    // Gather weights from u to each neighbouring community.
                    touched.clear();
                    for &(v, w) in &self.adj[u] {
                        let cv = community[v];
                        if weight_to[cv] == 0.0 {
                            touched.push(cv);
                        }
                        weight_to[cv] += w;
                    }
                    if !touched.contains(&cu) {
                        touched.push(cu);
                    }
                    // Remove u from its community for the comparison.
                    sigma_tot[cu] -= k_u;
                    let base_links = weight_to[cu];
                    let mut best_c = cu;
                    let mut best_gain = base_links - sigma_tot[cu] * k_u / (2.0 * m);
                    for &c in &touched {
                        if c == cu {
                            continue;
                        }
                        let gain = weight_to[c] - sigma_tot[c] * k_u / (2.0 * m);
                        if gain > best_gain + 1e-12 || (gain > best_gain - 1e-12 && c < best_c) {
                            if gain > best_gain + 1e-12 {
                                best_gain = gain;
                                best_c = c;
                            } else if (gain - best_gain).abs() <= 1e-12 && c < best_c {
                                best_c = c;
                            }
                        }
                    }
                    sigma_tot[best_c] += k_u;
                    if best_c != cu {
                        community[u] = best_c;
                        moved_this_pass = true;
                        moved_any = true;
                    }
                    for &c in &touched {
                        weight_to[c] = 0.0;
                    }
                }
                if !moved_this_pass {
                    break;
                }
            }
            (community, moved_any)
        }

        /// Aggregate by community labels (assumed dense `0..nc`).
        pub(super) fn aggregate(&self, labels: &[usize], nc: usize) -> InnerGraph {
            let mut self_loop = vec![0.0; nc];
            // Accumulate inter-community weights via a dense map per vertex.
            let mut pair_weight: std::collections::HashMap<(usize, usize), f64> =
                std::collections::HashMap::new();
            for u in 0..self.n() {
                let cu = labels[u];
                self_loop[cu] += self.self_loop[u];
                for &(v, w) in &self.adj[u] {
                    if v < u {
                        continue; // each undirected edge once
                    }
                    let cv = labels[v];
                    if cu == cv {
                        self_loop[cu] += w;
                    } else {
                        let key = if cu < cv { (cu, cv) } else { (cv, cu) };
                        *pair_weight.entry(key).or_insert(0.0) += w;
                    }
                }
            }
            let mut adj = vec![Vec::new(); nc];
            let mut degree = vec![0.0; nc];
            let mut total = 0.0;
            let mut pairs: Vec<((usize, usize), f64)> = pair_weight.into_iter().collect();
            pairs.sort_by_key(|&(k, _)| k); // determinism
            for ((a, b), w) in pairs {
                adj[a].push((b, w));
                adj[b].push((a, w));
                degree[a] += w;
                degree[b] += w;
                total += w;
            }
            InnerGraph {
                adj,
                self_loop,
                degree,
                total_weight: total,
            }
        }
    }

    pub(super) fn louvain(graph: &WeightedGraph, config: LouvainConfig) -> Partition {
        let n = graph.n_vertices();
        if n == 0 {
            return Partition::from_labels(&[]);
        }
        let mut inner = InnerGraph::from_weighted(graph);
        // vertex → current community chain, flattened each level.
        let mut membership: Vec<usize> = (0..n).collect();
        let mut current_q = f64::NEG_INFINITY;
        for _level in 0..config.max_levels {
            let (labels, moved) = inner.local_moving();
            if !moved {
                break;
            }
            let dense = Partition::from_labels(&labels);
            // Flatten into the original-vertex membership.
            for m in membership.iter_mut() {
                *m = dense.community_of(*m);
            }
            let partition = Partition::from_labels(&membership);
            let q = modularity(graph, &partition);
            if q <= current_q + config.min_gain {
                // Accept the move (it is still a valid partition) but stop.
                break;
            }
            current_q = q;
            inner = inner.aggregate(dense.labels(), dense.n_communities());
            if dense.n_communities() == labels.len() {
                break; // nothing merged; fixed point
            }
        }
        Partition::from_labels(&membership)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two 4-cliques joined by a single weak bridge.
    fn two_cliques() -> WeightedGraph {
        let mut g = WeightedGraph::new(8);
        for a in 0..4 {
            for b in (a + 1)..4 {
                g.add_edge(a, b, 1.0);
                g.add_edge(a + 4, b + 4, 1.0);
            }
        }
        g.add_edge(3, 4, 0.1);
        g
    }

    #[test]
    fn separates_two_cliques() {
        let p = louvain(&two_cliques(), LouvainConfig::default());
        assert_eq!(p.n_communities(), 2);
        for v in 1..4 {
            assert!(p.same_community(0, v));
        }
        for v in 5..8 {
            assert!(p.same_community(4, v));
        }
        assert!(!p.same_community(0, 4));
    }

    #[test]
    fn modularity_of_good_partition_beats_bad() {
        let g = two_cliques();
        let good = louvain(&g, LouvainConfig::default());
        let all_one = Partition::from_labels(&[0; 8]);
        let singles = Partition::singletons(8);
        let qg = modularity(&g, &good);
        assert!(qg > modularity(&g, &all_one));
        assert!(qg > modularity(&g, &singles));
        assert!(qg > 0.3, "two-clique modularity should be high, got {qg}");
    }

    #[test]
    fn edgeless_graph_gives_singletons() {
        let g = WeightedGraph::new(5);
        let p = louvain(&g, LouvainConfig::default());
        assert_eq!(p.n_communities(), 5);
        assert_eq!(modularity(&g, &p), 0.0);
    }

    #[test]
    fn empty_graph() {
        let g = WeightedGraph::new(0);
        let p = louvain(&g, LouvainConfig::default());
        assert_eq!(p.len(), 0);
        assert_eq!(p.n_communities(), 0);
    }

    #[test]
    fn single_edge_merges_pair() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 1.0);
        let p = louvain(&g, LouvainConfig::default());
        assert!(p.same_community(0, 1));
        assert!(!p.same_community(0, 2));
        assert_eq!(p.n_communities(), 2);
    }

    #[test]
    fn negative_weights_treated_as_strength() {
        // A clique with negative weights must still form one community.
        let mut g = WeightedGraph::new(6);
        for a in 0..3 {
            for b in (a + 1)..3 {
                g.add_edge(a, b, -0.9);
                g.add_edge(a + 3, b + 3, 0.9);
            }
        }
        let p = louvain(&g, LouvainConfig::default());
        assert_eq!(p.n_communities(), 2);
        assert!(p.same_community(0, 1) && p.same_community(1, 2));
    }

    #[test]
    fn deterministic() {
        let g = two_cliques();
        let p1 = louvain(&g, LouvainConfig::default());
        let p2 = louvain(&g, LouvainConfig::default());
        assert_eq!(p1, p2);
    }

    #[test]
    fn three_communities_ring_of_cliques() {
        // Three 5-cliques connected in a ring by single weak edges.
        let mut g = WeightedGraph::new(15);
        for c in 0..3 {
            let base = c * 5;
            for a in 0..5 {
                for b in (a + 1)..5 {
                    g.add_edge(base + a, base + b, 1.0);
                }
            }
        }
        g.add_edge(4, 5, 0.05);
        g.add_edge(9, 10, 0.05);
        g.add_edge(14, 0, 0.05);
        let p = louvain(&g, LouvainConfig::default());
        assert_eq!(p.n_communities(), 3);
    }

    #[test]
    fn partition_relabels_densely() {
        let p = Partition::from_labels(&[7, 7, 2, 9, 2]);
        assert_eq!(p.labels(), &[0, 0, 1, 2, 1]);
        assert_eq!(p.n_communities(), 3);
        assert_eq!(p.communities(), vec![vec![0, 1], vec![2, 4], vec![3]]);
    }

    #[test]
    fn modularity_bounds() {
        // Q is always in [-0.5, 1].
        let g = two_cliques();
        for labels in [
            [0usize; 8].to_vec(),
            (0..8).collect::<Vec<_>>(),
            vec![0, 1, 0, 1, 0, 1, 0, 1],
        ] {
            let q = modularity(&g, &Partition::from_labels(&labels));
            assert!((-0.5..=1.0).contains(&q), "Q={q} out of range");
        }
    }

    #[test]
    fn star_graph_is_one_community() {
        let mut g = WeightedGraph::new(5);
        for v in 1..5 {
            g.add_edge(0, v, 1.0);
        }
        let p = louvain(&g, LouvainConfig::default());
        // A star has no better split than (center + leaves) merged or a
        // 2-way split; Louvain must at least beat singletons.
        assert!(modularity(&g, &p) >= modularity(&g, &Partition::singletons(5)));
        assert!(p.n_communities() < 5);
    }

    /// A random graph: `n` vertices, some isolated; weights of either sign
    /// drawn from a few levels so that gains tie, or continuous.
    fn random_graph(rng: &mut rand::rngs::StdRng, n: usize) -> WeightedGraph {
        use rand::Rng;
        let mut g = WeightedGraph::new(n);
        if n < 2 {
            return g;
        }
        let isolated = n / rng.gen_range(3..20usize);
        let live = n - isolated;
        let tied = rng.gen_bool(0.5);
        let degree = rng.gen_range(1..12usize);
        for u in 0..live {
            for _ in 0..degree {
                let v = rng.gen_range(0..live);
                if v == u || g.has_edge(u, v) {
                    continue;
                }
                let w = if tied {
                    [0.5, 0.75, 1.0][rng.gen_range(0..3usize)]
                } else {
                    rng.gen_range(0.05..1.0)
                };
                g.add_edge(u, v, if rng.gen_bool(0.3) { -w } else { w });
            }
        }
        g
    }

    #[test]
    fn workspace_matches_map_based_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1_605_160);
        // One workspace across growing and shrinking n.
        let mut ws = LouvainWorkspace::new();
        let config = LouvainConfig::default();
        for case in 0..520 {
            let n = match case % 4 {
                0 => rng.gen_range(1..=300),
                1 => rng.gen_range(1..=12),
                _ => rng.gen_range(1..=120),
            };
            let g = random_graph(&mut rng, n);
            let want = reference::louvain(&g, config);
            assert_eq!(ws.run(&g, config), want, "case {case}, n = {n}");
            assert_eq!(louvain(&g, config), want, "fresh workspace, case {case}");
        }
        for g in [two_cliques(), WeightedGraph::new(0), WeightedGraph::new(7)] {
            assert_eq!(ws.run(&g, config), reference::louvain(&g, config));
        }
    }

    /// Every level's graph — rows in order, self-loops, degrees and total —
    /// and every modularity value are bit-equal to the reference's, so
    /// each sum keeps its order, not just the final partition.
    #[test]
    fn levels_and_modularity_match_reference_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let bits = |row: &[(usize, f64)]| -> Vec<(usize, u64)> {
            row.iter().map(|&(v, w)| (v, w.to_bits())).collect()
        };
        let f64_bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        let mut rng = rand::rngs::StdRng::seed_from_u64(1_605_161);
        let mut ws = LouvainWorkspace::new();
        for case in 0..120 {
            let n = rng.gen_range(1..=160);
            let g = random_graph(&mut rng, n);
            let m = g.total_weight_abs();
            ws.level.load(&g, &mut ws.cursor);
            ws.degree_abs.clear();
            ws.degree_abs
                .extend((0..n).map(|u| g.weighted_degree_abs(u)));
            ws.membership.clear();
            ws.membership.extend(0..n);
            let mut inner = reference::InnerGraph::from_weighted(&g);
            for _level in 0..16 {
                let level = &ws.level;
                assert_eq!(level.n(), inner.adj.len(), "case {case}");
                for (u, row) in inner.adj.iter().enumerate() {
                    assert_eq!(bits(level.row(u)), bits(row), "case {case}, row {u}");
                }
                assert_eq!(f64_bits(&level.self_loop), f64_bits(&inner.self_loop));
                assert_eq!(f64_bits(&level.degree), f64_bits(&inner.degree));
                assert_eq!(level.total_weight.to_bits(), inner.total_weight.to_bits());
                let (labels, moved) = inner.local_moving();
                assert_eq!(ws.local_moving(), moved, "case {case}");
                assert_eq!(ws.community, labels, "case {case}");
                if !moved {
                    break;
                }
                let dense = Partition::from_labels(&labels);
                let nc = relabel(&ws.community, &mut ws.remap, &mut ws.dense);
                assert_eq!(
                    (ws.dense.as_slice(), nc),
                    (dense.labels(), dense.n_communities())
                );
                for c in ws.membership.iter_mut() {
                    *c = ws.dense[*c];
                }
                let q = modularity(&g, &Partition::from_labels(&ws.membership));
                assert_eq!(ws.modularity(&g, m).to_bits(), q.to_bits(), "case {case}");
                if nc == labels.len() {
                    break;
                }
                ws.aggregate(nc);
                std::mem::swap(&mut ws.level, &mut ws.next);
                inner = inner.aggregate(dense.labels(), nc);
            }
        }
    }

    #[test]
    fn workspace_matches_reference_on_tsg_shaped_graphs() {
        // k-NN graphs over correlated clusters: what CAD partitions.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        let mut ws = LouvainWorkspace::new();
        for _ in 0..12 {
            let (n, w) = (rng.gen_range(16..=256), 48);
            let clusters = rng.gen_range(2..9usize);
            let base: Vec<Vec<f64>> = (0..clusters)
                .map(|_| (0..w).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect();
            let rows: Vec<f64> = (0..n)
                .flat_map(|i| {
                    let b = base[i % clusters].clone();
                    let noise: Vec<f64> = (0..w).map(|_| rng.gen_range(-0.6..0.6)).collect();
                    cad_stats::znormed(
                        &b.iter().zip(&noise).map(|(x, e)| x + e).collect::<Vec<_>>(),
                    )
                })
                .collect();
            let m = cad_stats::pearson_matrix_normalized(&rows, n, w);
            let g = crate::knn::tsg_from_matrix(&m, n, &crate::knn::KnnConfig::new(8, 0.3));
            let config = LouvainConfig::default();
            assert_eq!(ws.run(&g, config), reference::louvain(&g, config));
        }
    }
}
