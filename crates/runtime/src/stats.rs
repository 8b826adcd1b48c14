//! Per-phase timing adapter over the `cad-obs` metrics registry.
//!
//! Hot-path stages wrap themselves in a [`Timer`]; since PR 4 the
//! accumulated durations live in `cad-obs` log-bucketed histograms
//! (`cad_phase_duration_nanos{phase=...}` in the process-global registry),
//! so phase timings show up in metric dumps with full quantile readouts.
//! [`PhaseStats`] remains as a thin adapter so the BENCH JSON emitters
//! keep their `{"calls": n, "secs": s}` schema unchanged.
//!
//! [`phases_json`] always emits an entry for every phase in
//! [`KNOWN_PHASES`] — explicit zeros instead of absent keys — so bench
//! JSON schemas stay stable run-to-run even when a phase never fired.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use cad_obs::Histogram;

/// The obs histogram family every phase records into.
pub const PHASE_HIST_NAME: &str = "cad_phase_duration_nanos";

/// Every phase name the workspace records, in sorted order. Every
/// `Timer::start` call site's name must be listed (a tier-1 test scans the
/// crates for them), so bench JSON emits its zero entry from the first run.
pub const KNOWN_PHASES: &[&str] = &[
    "bench.matrix",
    "core.coappear",
    "core.sigma",
    "engine.exact",
    "engine.incremental",
    "engine.window",
    "graph.louvain",
    "masked.classes",
    "masked.matrix",
    "masked.rebuild",
    "masked.slide",
    "serve.persist",
    "serve.pump",
    "serve.shard",
    "sliding.matrix",
    "sliding.rebuild",
    "sliding.slide",
    "tsg.correlation",
    "tsg.correlation.tiled",
    "tsg.normalize",
    "tsg.select",
];

/// Accumulated cost of one named phase, read back from its histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Number of completed timer scopes.
    pub calls: u64,
    /// Total wall-clock across those scopes, in nanoseconds.
    pub nanos: u128,
}

impl PhaseStats {
    /// Total seconds spent in the phase.
    pub fn secs(&self) -> f64 {
        self.nanos as f64 * 1e-9
    }

    /// The phase as a JSON object fragment: `{"calls": n, "secs": s}`.
    /// Bench reporters embed these in their machine-readable result files
    /// so per-phase timings travel with the totals.
    pub fn to_json_fragment(&self) -> String {
        format!(
            "{{\"calls\": {}, \"secs\": {:.6}}}",
            self.calls,
            self.secs()
        )
    }

    fn from_histogram(hist: &Histogram) -> Self {
        Self {
            calls: hist.count(),
            nanos: hist.sum() as u128,
        }
    }
}

/// Phase-name → histogram handle cache: keeps the hot path free of
/// registry lookups and label allocations, and gives
/// [`reset_phase_stats`] a targeted clear that leaves the rest of the
/// registry (core/serve counters) untouched.
fn phase_cache() -> &'static Mutex<BTreeMap<&'static str, Arc<Histogram>>> {
    static CACHE: OnceLock<Mutex<BTreeMap<&'static str, Arc<Histogram>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn phase_hist(phase: &'static str) -> Arc<Histogram> {
    let mut cache = phase_cache().lock().expect("phase cache poisoned");
    cache
        .entry(phase)
        .or_insert_with(|| cad_obs::global().histogram(PHASE_HIST_NAME, &[("phase", phase)]))
        .clone()
}

/// Record one completed scope of `phase` directly.
pub fn record_phase(phase: &'static str, elapsed: Duration) {
    phase_hist(phase).record_duration(elapsed);
}

/// RAII scope timer: created via [`Timer::start`], records on drop.
#[derive(Debug)]
pub struct Timer {
    phase: &'static str,
    started: Instant,
}

impl Timer {
    /// Start timing `phase`; the scope ends when the timer drops.
    #[must_use = "the timer records when dropped; binding it to _ ends the scope immediately"]
    pub fn start(phase: &'static str) -> Self {
        Self {
            phase,
            started: Instant::now(),
        }
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        record_phase(self.phase, self.started.elapsed());
    }
}

/// All phases recorded so far in this process, sorted by name.
pub fn phase_snapshot() -> Vec<(String, PhaseStats)> {
    let cache = phase_cache().lock().expect("phase cache poisoned");
    cache
        .iter()
        .map(|(&name, hist)| (name.to_string(), PhaseStats::from_histogram(hist)))
        .collect()
}

/// Zero every phase histogram in place (bench binaries call this between
/// A/B runs). Non-phase metrics in the global registry are untouched.
pub fn reset_phase_stats() {
    let cache = phase_cache().lock().expect("phase cache poisoned");
    for hist in cache.values() {
        hist.clear();
    }
}

/// The phase registry as a JSON object:
/// `{"phase": {"calls": n, "secs": s}, …}`.
///
/// Every [`KNOWN_PHASES`] entry is present — with explicit
/// `{"calls": 0, "secs": 0.000000}` when the phase never recorded — so
/// downstream JSON consumers see a stable key set.
pub fn phases_json() -> String {
    let mut merged: BTreeMap<String, PhaseStats> = KNOWN_PHASES
        .iter()
        .map(|&name| (name.to_string(), PhaseStats::default()))
        .collect();
    for (name, stats) in phase_snapshot() {
        merged.insert(name, stats);
    }
    let mut out = String::from("{");
    for (i, (name, stats)) in merged.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{name}\": {}", stats.to_json_fragment()));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and the test harness is concurrent, so
    // every assertion here reads its own uniquely named phase instead of
    // relying on global counts.

    fn stats_for(phase: &str) -> Option<PhaseStats> {
        phase_snapshot()
            .into_iter()
            .find(|(n, _)| n == phase)
            .map(|(_, s)| s)
    }

    #[test]
    fn timer_accumulates_calls_and_time() {
        for _ in 0..3 {
            let _t = Timer::start("test.timer_accumulates");
            std::hint::black_box(0u64);
        }
        let stats = stats_for("test.timer_accumulates").expect("phase recorded");
        assert_eq!(stats.calls, 3);
        assert!(stats.secs() >= 0.0);
    }

    #[test]
    fn json_contains_recorded_phase() {
        record_phase("test.json_phase", Duration::from_millis(2));
        let json = phases_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"test.json_phase\": {\"calls\": "), "{json}");
    }

    #[test]
    fn json_fragment_is_machine_readable() {
        let stats = PhaseStats {
            calls: 7,
            nanos: 1_500_000,
        };
        assert_eq!(
            stats.to_json_fragment(),
            "{\"calls\": 7, \"secs\": 0.001500}"
        );
    }

    #[test]
    fn record_phase_sums_durations() {
        record_phase("test.sum_phase", Duration::from_nanos(40));
        record_phase("test.sum_phase", Duration::from_nanos(60));
        let stats = stats_for("test.sum_phase").expect("phase recorded");
        assert_eq!(stats.calls, 2);
        assert_eq!(stats.nanos, 100);
    }

    #[test]
    fn phases_land_in_the_obs_registry() {
        record_phase("test.obs_mirror", Duration::from_nanos(500));
        let snap = cad_obs::global().snapshot();
        let hist = snap
            .histograms
            .iter()
            .find(|h| {
                h.name == PHASE_HIST_NAME
                    && h.labels == [("phase".to_string(), "test.obs_mirror".to_string())]
            })
            .expect("phase histogram registered globally");
        assert!(hist.count >= 1);
        assert!(hist.sum >= 500);
    }

    #[test]
    fn phases_json_emits_explicit_zero_entries_for_known_phases() {
        // No runtime unit test records a production phase name, so every
        // KNOWN_PHASES entry must still be present — as an explicit zero.
        // This locks the BENCH JSON schema: the key set never depends on
        // which phases happened to fire.
        let json = phases_json();
        for phase in KNOWN_PHASES {
            assert!(
                json.contains(&format!("\"{phase}\": {{\"calls\": ")),
                "missing known phase {phase} in {json}"
            );
        }
        assert!(
            json.contains("\"bench.matrix\": {\"calls\": 0, \"secs\": 0.000000}"),
            "zero entry shape drifted: {json}"
        );
        // Keys are sorted, so the JSON itself is deterministic.
        let keys: Vec<&str> = json
            .split('"')
            .skip(1)
            .step_by(2)
            .filter(|k| !k.contains(['{', '}']))
            .collect();
        let phase_keys: Vec<&str> = keys.iter().copied().filter(|k| k.contains('.')).collect();
        let mut sorted = phase_keys.clone();
        sorted.sort_unstable();
        assert_eq!(phase_keys, sorted, "phase keys must be sorted: {json}");
    }
}
