//! Phase 2 — co-appearance mining (§IV-C, Definitions 4–7).
//!
//! Per round `r` and vertex `v`, the co-appearance number
//! `S_r(v) = |{u ≠ v : u ∈ C_{r−1}(v) ∧ u ∈ C_r(v)}|` counts peers that
//! were in `v`'s community last round *and* are in `v`'s community this
//! round. Grouping vertices by the joint key (previous label, current
//! label) computes all `S_r(v)` in O(n): every vertex in the same joint
//! cell shares the same count, namely `|cell| − 1`. Labels are dense
//! (`0..n`), so the cells are counted in reused vectors: vertices are
//! bucketed by previous label, then each bucket counts its current labels.
//!
//! The ratio `RC_{v,r} = (Σ_{i≤r} S_i(v)) / (r·(n−1))` (Definition 6) is
//! maintained from a per-vertex cumulative sum. Vertices with
//! `RC_{v,r} < θ` form the outlier set `O_r` (Definition 7).

use cad_graph::Partition;

/// Streaming co-appearance state across rounds.
///
/// `horizon = None` implements Definition 6 verbatim: the ratio averages
/// over *all* rounds since round 1. With a long history this makes the
/// ratio very sluggish — a single low-`S` round moves `RC` by only `~1/r`
/// relative. `horizon = Some(H)` averages over the last `H` rounds
/// instead, a windowed variant that keeps the detector's sensitivity
/// constant over time; the ablation bench (`cargo bench`/`fig8`) compares
/// the two.
#[derive(Debug, Clone)]
pub struct CoappearanceTracker {
    n_sensors: usize,
    /// Dense labels of the previous round's partition (`None` before the
    /// first round).
    prev: Option<Vec<usize>>,
    /// Per-vertex running `Σ S_i(v)` over the active window.
    cumulative: Vec<f64>,
    /// Number of rounds folded in so far (the `r` of Definition 6).
    rounds: usize,
    /// Sliding horizon `H`; `None` = cumulative (paper-faithful).
    horizon: Option<usize>,
    /// Ring buffer of the last `H` rounds' S-vectors (only with a horizon).
    history: std::collections::VecDeque<Vec<usize>>,
    /// Joint-cell counting scratch, reused every round.
    cells: JointCells,
}

impl CoappearanceTracker {
    /// Fresh tracker for `n_sensors` vertices with the paper's cumulative
    /// ratio (Definition 6).
    pub fn new(n_sensors: usize) -> Self {
        Self::with_horizon(n_sensors, None)
    }

    /// Fresh tracker with an optional sliding horizon.
    pub fn with_horizon(n_sensors: usize, horizon: Option<usize>) -> Self {
        assert!(n_sensors >= 2, "co-appearance needs at least two vertices");
        if let Some(h) = horizon {
            assert!(h >= 1, "horizon must be at least 1 round");
        }
        Self {
            n_sensors,
            prev: None,
            cumulative: vec![0.0; n_sensors],
            rounds: 0,
            horizon,
            history: std::collections::VecDeque::new(),
            cells: JointCells::default(),
        }
    }

    /// Number of rounds processed.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Fold in the partition of the next round and return this round's
    /// co-appearance numbers `S_r(v)`.
    ///
    /// Definition 4 is stated for `r > 1`; for the very first round the
    /// previous partition is taken to equal the current one, so
    /// `S_1(v) = |C_1(v)| − 1` (every community peer "co-appears"). This
    /// gives stable-community vertices a head start toward `RC = 1`,
    /// matching the intuition that round 1 carries no change evidence.
    pub fn push(&mut self, partition: &Partition) -> Vec<usize> {
        assert_eq!(partition.len(), self.n_sensors, "partition size mismatch");
        let cur = partition.labels();
        let s = self.cells.peers(self.prev.as_deref().unwrap_or(cur), cur);
        for (c, &sv) in self.cumulative.iter_mut().zip(&s) {
            *c += sv as f64;
        }
        self.rounds += 1;
        if let Some(h) = self.horizon {
            self.history.push_back(s.clone());
            if self.history.len() > h {
                let old = self.history.pop_front().expect("non-empty after push");
                for (c, &sv) in self.cumulative.iter_mut().zip(&old) {
                    *c -= sv as f64;
                }
            }
        }
        match &mut self.prev {
            Some(prev) => prev.copy_from_slice(cur),
            None => self.prev = Some(cur.to_vec()),
        }
        s
    }

    /// Current `RC_{v,r}` for every vertex (Definition 6, or its windowed
    /// variant when a horizon is set). Zeros before the first round.
    pub fn ratios(&self) -> Vec<f64> {
        if self.rounds == 0 {
            return vec![0.0; self.n_sensors];
        }
        let effective_rounds = match self.horizon {
            Some(_) => self.history.len(),
            None => self.rounds,
        };
        let denom = (effective_rounds * (self.n_sensors - 1)) as f64;
        self.cumulative.iter().map(|&c| c / denom).collect()
    }

    /// Full internal state for persistence: `(prev partition labels,
    /// cumulative sums, rounds, horizon, history of S-vectors)`.
    #[allow(clippy::type_complexity)]
    pub fn state(
        &self,
    ) -> (
        Option<Vec<usize>>,
        Vec<f64>,
        usize,
        Option<usize>,
        Vec<Vec<usize>>,
    ) {
        (
            self.prev.clone(),
            self.cumulative.clone(),
            self.rounds,
            self.horizon,
            self.history.iter().cloned().collect(),
        )
    }

    /// Rebuild from state captured by [`Self::state`].
    pub fn from_state(
        n_sensors: usize,
        prev_labels: Option<Vec<usize>>,
        cumulative: Vec<f64>,
        rounds: usize,
        horizon: Option<usize>,
        history: Vec<Vec<usize>>,
    ) -> Self {
        assert_eq!(cumulative.len(), n_sensors, "cumulative length mismatch");
        if let Some(labels) = &prev_labels {
            assert_eq!(labels.len(), n_sensors, "partition length mismatch");
        }
        for row in &history {
            assert_eq!(row.len(), n_sensors, "history row length mismatch");
        }
        Self {
            n_sensors,
            prev: prev_labels.map(|l| Partition::from_labels(&l).labels().to_vec()),
            cumulative,
            rounds,
            horizon,
            history: history.into(),
            cells: JointCells::default(),
        }
    }

    /// Grow or shrink the tracked vertex set to `new_n` slots (sensor
    /// churn: a sensor joining or leaving the fleet mid-stream).
    ///
    /// Growing keeps every existing slot's history untouched; new slots
    /// start with zero cumulative co-appearance, zeroed history columns and
    /// — crucially — a fresh *singleton* label in the previous partition,
    /// so their first round computes `S_r = 0` (nobody was with them last
    /// round) rather than inheriting a stranger's community. Shrinking
    /// truncates: the removed suffix slots simply stop existing, and the
    /// surviving slots' sums are unaffected (co-appearance counts are per
    /// joint cell, already folded in).
    pub fn reshape(&mut self, new_n: usize) {
        assert!(new_n >= 2, "co-appearance needs at least two vertices");
        if new_n == self.n_sensors {
            return;
        }
        if new_n > self.n_sensors {
            self.cumulative.resize(new_n, 0.0);
            for row in &mut self.history {
                row.resize(new_n, 0);
            }
            if let Some(labels) = &mut self.prev {
                let mut fresh = labels.iter().copied().max().unwrap_or(0);
                for _ in self.n_sensors..new_n {
                    fresh += 1;
                    labels.push(fresh);
                }
                *labels = Partition::from_labels(labels).labels().to_vec();
            }
        } else {
            self.cumulative.truncate(new_n);
            for row in &mut self.history {
                row.truncate(new_n);
            }
            if let Some(labels) = &mut self.prev {
                labels.truncate(new_n);
                *labels = Partition::from_labels(labels).labels().to_vec();
            }
        }
        self.n_sensors = new_n;
    }

    /// Outlier set `O_r = {v : RC_{v,r} < θ}` (Definition 7), as a sorted
    /// vertex list.
    pub fn outliers(&self, theta: f64) -> Vec<usize> {
        self.ratios()
            .iter()
            .enumerate()
            .filter(|&(_, &rc)| rc < theta)
            .map(|(v, _)| v)
            .collect()
    }
}

/// Buffers for counting the joint (previous, current) label cells: bucket
/// starts by previous label, the vertices in bucket order, and counts per
/// current label.
#[derive(Debug, Clone, Default)]
struct JointCells {
    bucket_start: Vec<usize>,
    by_prev: Vec<usize>,
    cell: Vec<usize>,
}

impl JointCells {
    /// `|cell(v)| − 1` per vertex, where `cell(v)` is the set of vertices
    /// sharing both `v`'s previous and current label. Both labelings are
    /// dense (`< n`).
    fn peers(&mut self, prev: &[usize], cur: &[usize]) -> Vec<usize> {
        let n = cur.len();
        let starts = &mut self.bucket_start;
        starts.clear();
        starts.resize(n + 1, 0);
        for &p in prev {
            starts[p + 1] += 1;
        }
        for p in 0..n {
            starts[p + 1] += starts[p];
        }
        self.by_prev.clear();
        self.by_prev.resize(n, 0);
        for (v, &p) in prev.iter().enumerate() {
            self.by_prev[starts[p]] = v;
            starts[p] += 1;
        }
        // `starts[p]` is now the end of bucket p, the start of bucket p + 1.
        self.cell.clear();
        self.cell.resize(n, 0);
        let mut s = vec![0; n];
        let mut begin = 0;
        for &end in &starts[..n] {
            let bucket = &self.by_prev[begin..end];
            for &v in bucket {
                self.cell[cur[v]] += 1;
            }
            for &v in bucket {
                s[v] = self.cell[cur[v]] - 1;
            }
            for &v in bucket {
                self.cell[cur[v]] = 0;
            }
            begin = end;
        }
        s
    }
}

/// Number of outlier variations `n_r = |O_{r−1} Δ O_r|` (Definition 8).
/// Both inputs must be sorted ascending (as produced by
/// [`CoappearanceTracker::outliers`]).
pub fn outlier_variations(prev: &[usize], curr: &[usize]) -> usize {
    debug_assert!(prev.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(curr.windows(2).all(|w| w[0] < w[1]));
    let mut i = 0;
    let mut j = 0;
    let mut diff = 0;
    while i < prev.len() && j < curr.len() {
        match prev[i].cmp(&curr[j]) {
            std::cmp::Ordering::Less => {
                diff += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                diff += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    diff + (prev.len() - i) + (curr.len() - j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn part(labels: &[usize]) -> Partition {
        Partition::from_labels(labels)
    }

    #[test]
    fn first_round_counts_community_peers() {
        let mut t = CoappearanceTracker::new(5);
        let s = t.push(&part(&[0, 0, 0, 1, 1]));
        assert_eq!(s, vec![2, 2, 2, 1, 1]);
    }

    #[test]
    fn stable_membership_gives_high_ratio() {
        let mut t = CoappearanceTracker::new(4);
        for _ in 0..10 {
            t.push(&part(&[0, 0, 1, 1]));
        }
        let rc = t.ratios();
        // Each vertex always co-appears with its 1 peer: RC = 1/(n-1) = 1/3.
        for &r in &rc {
            assert!((r - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn community_switch_drops_sr_to_zero() {
        let mut t = CoappearanceTracker::new(6);
        t.push(&part(&[0, 0, 0, 1, 1, 1]));
        // Vertex 0 jumps to community 1: nobody was in both its previous
        // community {0,1,2} and its new community {3,4,5} → S = 0.
        let s = t.push(&part(&[1, 0, 0, 1, 1, 1]));
        assert_eq!(s[0], 0);
        // Its former peers keep each other (S = 1 each).
        assert_eq!(s[1], 1);
        assert_eq!(s[2], 1);
        // New community members co-appear with each other but NOT vertex 0.
        assert_eq!(s[3], 2);
    }

    #[test]
    fn switcher_becomes_outlier() {
        let mut t = CoappearanceTracker::new(6);
        // Long stable history: every round S = 2 for all vertices in the
        // size-3 communities → cum(v0) = 16 after 8 rounds, RC = 16/40.
        for _ in 0..8 {
            t.push(&part(&[0, 0, 0, 1, 1, 1]));
        }
        let rc_before = t.ratios()[0];
        assert!((rc_before - 0.4).abs() < 1e-12);
        // Vertex 0 defects: S_9(0) = 0 (nobody shares both its old and new
        // community) → RC drops to 16/45 ≈ 0.356; its abandoned peers drop
        // to 17/45 ≈ 0.378; the welcoming community keeps S = 2 (v0 was
        // not with them last round) → 18/45 = 0.4.
        t.push(&part(&[1, 0, 0, 1, 1, 1]));
        let rc = t.ratios();
        assert!((rc[0] - 16.0 / 45.0).abs() < 1e-12);
        assert!((rc[1] - 17.0 / 45.0).abs() < 1e-12);
        assert!((rc[3] - 18.0 / 45.0).abs() < 1e-12);
        // θ between v0's dip and everyone else isolates the switcher.
        assert_eq!(t.outliers(0.37), vec![0]);
    }

    #[test]
    fn transient_outlier_recovers_after_settling() {
        // Once the switcher is established in its new community, S recovers
        // (Phase 3 tracks exactly these transitions, §IV-D).
        let mut t = CoappearanceTracker::new(6);
        for _ in 0..8 {
            t.push(&part(&[0, 0, 0, 1, 1, 1]));
        }
        t.push(&part(&[1, 0, 0, 1, 1, 1]));
        assert_eq!(t.outliers(0.37), vec![0]);
        // After settling, v0 co-appears with 3 peers per round; its RC
        // climbs back above θ (16+0+6·3)/75 ≈ 0.45. Its *abandoned* peers,
        // whose community genuinely shrank to two members, keep degrading
        // (S = 1 per round) and take over as the outliers — the paper's
        // transition states in action.
        for _ in 0..6 {
            t.push(&part(&[1, 0, 0, 1, 1, 1]));
        }
        let rc = t.ratios();
        assert!(rc[0] > 0.37, "switcher must recover: {rc:?}");
        assert_eq!(t.outliers(0.37), vec![1, 2]);
    }

    #[test]
    fn horizon_matches_cumulative_while_short() {
        let mut cum = CoappearanceTracker::new(5);
        let mut win = CoappearanceTracker::with_horizon(5, Some(10));
        for labels in [[0, 0, 1, 1, 1], [0, 0, 0, 1, 1], [0, 1, 1, 1, 0]] {
            cum.push(&part(&labels));
            win.push(&part(&labels));
        }
        assert_eq!(cum.ratios(), win.ratios());
    }

    #[test]
    fn horizon_forgets_old_rounds() {
        let mut win = CoappearanceTracker::with_horizon(4, Some(3));
        // Three rounds of one structure, then three of another; with H = 3
        // only the new regime remains.
        for _ in 0..3 {
            win.push(&part(&[0, 0, 1, 1]));
        }
        for _ in 0..3 {
            win.push(&part(&[0, 1, 0, 1]));
        }
        let mut fresh = CoappearanceTracker::with_horizon(4, Some(3));
        // Equivalent fresh history: the regime change round has S = 0 for
        // movers, so replay the exact same last three rounds.
        for _ in 0..3 {
            fresh.push(&part(&[0, 0, 1, 1]));
        }
        for _ in 0..3 {
            fresh.push(&part(&[0, 1, 0, 1]));
        }
        assert_eq!(win.ratios(), fresh.ratios());
        // And the window only spans 3 rounds of sums.
        assert!(win.ratios().iter().all(|&r| (0.0..=1.0).contains(&r)));
    }

    #[test]
    fn horizon_is_more_responsive_than_cumulative() {
        let mut cum = CoappearanceTracker::new(6);
        let mut win = CoappearanceTracker::with_horizon(6, Some(5));
        for _ in 0..40 {
            cum.push(&part(&[0, 0, 0, 1, 1, 1]));
            win.push(&part(&[0, 0, 0, 1, 1, 1]));
        }
        // Vertex 0 breaks away into a singleton for 2 rounds.
        for _ in 0..2 {
            cum.push(&part(&[2, 0, 0, 1, 1, 1]));
            win.push(&part(&[2, 0, 0, 1, 1, 1]));
        }
        let drop_cum = 0.4 - cum.ratios()[0];
        let drop_win = 0.4 - win.ratios()[0];
        assert!(
            drop_win > 2.0 * drop_cum,
            "windowed drop {drop_win} should dwarf cumulative drop {drop_cum}"
        );
    }

    #[test]
    fn ratios_bounded_by_one() {
        let mut t = CoappearanceTracker::new(4);
        for _ in 0..5 {
            t.push(&part(&[0, 0, 0, 0]));
        }
        for &r in &t.ratios() {
            assert!(r <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn variations_symmetric_difference() {
        assert_eq!(outlier_variations(&[], &[]), 0);
        assert_eq!(outlier_variations(&[1, 2], &[1, 2]), 0);
        assert_eq!(outlier_variations(&[1], &[2]), 2);
        assert_eq!(outlier_variations(&[1, 2, 3], &[2, 3, 4]), 2);
        assert_eq!(outlier_variations(&[], &[0, 5, 9]), 3);
        assert_eq!(outlier_variations(&[0, 5, 9], &[]), 3);
    }

    #[test]
    fn outliers_empty_before_first_round() {
        let t = CoappearanceTracker::new(3);
        // RC = 0 < θ for all — by convention everything is an outlier
        // pre-round, but detectors never query before pushing.
        assert_eq!(t.ratios(), vec![0.0; 3]);
    }

    #[test]
    fn co_appearance_matches_its_definition() {
        // S_r(v) = |{u ≠ v : same previous and same current community}|,
        // over a run of pseudo-random partitions of several widths.
        let mut state = 0x5eed_u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        for n in [2, 3, 9, 40, 130] {
            let mut t = CoappearanceTracker::new(n);
            let mut prev: Option<Vec<usize>> = None;
            for _ in 0..12 {
                let k = 1 + next(n);
                let raw: Vec<usize> = (0..n).map(|_| next(k)).collect();
                let p = part(&raw);
                let cur = p.labels().to_vec();
                let before = prev.clone().unwrap_or_else(|| cur.clone());
                let want: Vec<usize> = (0..n)
                    .map(|v| {
                        (0..n)
                            .filter(|&u| u != v && before[u] == before[v] && cur[u] == cur[v])
                            .count()
                    })
                    .collect();
                assert_eq!(t.push(&p), want, "n = {n}");
                prev = Some(cur);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_variations_match_hashset_symmetric_difference(
            a in proptest::collection::btree_set(0usize..30, 0..15),
            b in proptest::collection::btree_set(0usize..30, 0..15),
        ) {
            let av: Vec<usize> = a.iter().cloned().collect();
            let bv: Vec<usize> = b.iter().cloned().collect();
            let expected = a.symmetric_difference(&b).count();
            prop_assert_eq!(outlier_variations(&av, &bv), expected);
        }

        #[test]
        fn prop_sr_bounded_by_n_minus_one(
            labels1 in proptest::collection::vec(0usize..4, 6),
            labels2 in proptest::collection::vec(0usize..4, 6),
        ) {
            let mut t = CoappearanceTracker::new(6);
            let s1 = t.push(&part(&labels1));
            let s2 = t.push(&part(&labels2));
            for &s in s1.iter().chain(&s2) {
                prop_assert!(s <= 5);
            }
            for &r in &t.ratios() {
                prop_assert!((0.0..=1.0 + 1e-12).contains(&r));
            }
        }
    }
}
