//! Detector state persistence.
//!
//! A CAD deployment warms up once and then monitors indefinitely (§IV-F);
//! a process restart must not force a re-warm-up or lose the μ/σ history.
//! [`save_detector`]/[`load_detector`] serialise the complete detector —
//! configuration, variation statistics, outlier set and co-appearance
//! state — into a versioned, line-oriented text format (human-inspectable,
//! no serialisation dependency). Round-tripping is exact: a restored
//! detector produces bit-identical outcomes to an uninterrupted one.

use std::io::{self, BufRead, BufReader, Read, Write};

use cad_graph::LouvainConfig;
use cad_stats::{MaskedCovState, RunningStats, SlidingCov};

use crate::coappearance::CoappearanceTracker;
use crate::config::{CadConfig, EngineChoice, GapPolicy};
use crate::detector::CadDetector;
use crate::stream::StreamCounters;

const MAGIC: &str = "cad-state";
/// v1: config + tracker + stats. v2 adds the round-engine choice and, for
/// the incremental engine, its co-moment snapshot (so a restored detector
/// resumes *sliding* instead of paying a rebuild and, more importantly,
/// produces bit-identical correlations to an uninterrupted run). v3 adds
/// the hostile-stream state: gap policy + reorder slack, per-slot churn
/// warm-up gates, and the masked (pairwise-deletion) engine snapshot.
/// Only v3 loads: no committed fixture or caller needs the older layouts,
/// so they fail with a named `unsupported state version` error.
const VERSION: u32 = 3;

/// Errors surfaced when loading persisted state.
#[derive(Debug)]
pub enum StateError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural/parse failure with a description.
    Format(String),
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Io(e) => write!(f, "I/O error: {e}"),
            StateError::Format(m) => write!(f, "state format error: {m}"),
        }
    }
}

impl std::error::Error for StateError {}

impl From<io::Error> for StateError {
    fn from(e: io::Error) -> Self {
        StateError::Io(e)
    }
}

fn fmt_err(m: impl Into<String>) -> StateError {
    StateError::Format(m.into())
}

/// Serialise a detector. The format is line-oriented `key value…` pairs;
/// floats use Rust's shortest round-trip representation, so reloading is
/// bit-exact.
pub fn save_detector<W: Write>(detector: &CadDetector, mut out: W) -> io::Result<()> {
    let config = detector.config();
    let (tracker, stats, prev_outliers) = detector.persist_parts();
    writeln!(out, "{MAGIC} v{VERSION}")?;
    writeln!(out, "n_sensors {}", detector.n_sensors())?;
    writeln!(out, "window {} {}", config.window.w, config.window.s)?;
    writeln!(out, "knn {} {}", config.knn.k, config.knn.tau)?;
    // Edges are weighed one way and the TSG is built one way; the lines
    // stay so v3 files keep one layout.
    writeln!(out, "kind pearson")?;
    writeln!(out, "strategy exact")?;
    writeln!(out, "theta {}", config.theta)?;
    writeln!(out, "eta {}", config.eta)?;
    match config.rc_horizon {
        Some(h) => writeln!(out, "rc_horizon {h}")?,
        None => writeln!(out, "rc_horizon none")?,
    }
    writeln!(
        out,
        "louvain {} {}",
        config.louvain.max_levels, config.louvain.min_gain
    )?;
    match config.engine {
        EngineChoice::Exact => writeln!(out, "engine exact")?,
        EngineChoice::Incremental { rebuild_every } => {
            writeln!(out, "engine incremental {rebuild_every}")?
        }
    }
    writeln!(
        out,
        "gap_policy {} {}",
        config.gap_policy.tag(),
        config.reorder_slack
    )?;
    let (count, mean, m2) = stats.parts();
    writeln!(out, "stats {count} {mean} {m2}")?;
    let outliers: Vec<String> = prev_outliers.iter().map(|v| v.to_string()).collect();
    writeln!(out, "prev_outliers {}", outliers.join(" "))?;
    let gates: Vec<String> = detector
        .warmup_until()
        .iter()
        .map(|v| v.to_string())
        .collect();
    writeln!(out, "warmup_until {}", gates.join(" "))?;
    let (prev, cumulative, rounds, _, history) = tracker.state();
    writeln!(out, "tracker_rounds {rounds}")?;
    match prev {
        Some(labels) => {
            let labels: Vec<String> = labels.iter().map(|v| v.to_string()).collect();
            writeln!(out, "prev_partition {}", labels.join(" "))?;
        }
        None => writeln!(out, "prev_partition none")?,
    }
    let cum: Vec<String> = cumulative.iter().map(|v| v.to_string()).collect();
    writeln!(out, "cumulative {}", cum.join(" "))?;
    writeln!(out, "history {}", history.len())?;
    for row in &history {
        let row: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        writeln!(out, "h {}", row.join(" "))?;
    }
    // The same test `load_detector` makes: a masked exact detector runs on
    // the accumulator too, but its state is rebuilt every round.
    if let EngineChoice::Incremental { .. } = config.engine {
        let engine = detector
            .engine()
            .accumulator()
            .expect("config built an incremental engine");
        if engine.is_masked() {
            match engine.persist_parts_masked() {
                None => writeln!(out, "engine_state none")?,
                Some((rounds_since_rebuild, st, prev_window)) => {
                    writeln!(out, "engine_state masked {rounds_since_rebuild}")?;
                    writeln!(out, "anchors {}", join_floats(&st.anchors))?;
                    writeln!(out, "cnt {}", join_floats(&st.cnt))?;
                    writeln!(out, "s1 {}", join_floats(&st.s1))?;
                    writeln!(out, "q1 {}", join_floats(&st.q1))?;
                    writeln!(out, "pc {}", join_floats(&st.pc))?;
                    writeln!(out, "psi {}", join_floats(&st.psi))?;
                    writeln!(out, "psj {}", join_floats(&st.psj))?;
                    writeln!(out, "pqi {}", join_floats(&st.pqi))?;
                    writeln!(out, "pqj {}", join_floats(&st.pqj))?;
                    writeln!(out, "psxy {}", join_floats(&st.psxy))?;
                    writeln!(out, "prev_window {}", join_floats(&prev_window))?;
                }
            }
        } else {
            match engine.persist_parts() {
                None => writeln!(out, "engine_state none")?,
                Some((rounds_since_rebuild, cov, prev_window)) => {
                    let (anchors, s1, s2, sxy, _) = cov.state();
                    writeln!(out, "engine_state {rounds_since_rebuild}")?;
                    writeln!(out, "anchors {}", join_floats(anchors))?;
                    writeln!(out, "s1 {}", join_floats(s1))?;
                    writeln!(out, "s2 {}", join_floats(s2))?;
                    writeln!(out, "sxy {}", join_floats(sxy))?;
                    writeln!(out, "prev_window {}", join_floats(&prev_window))?;
                }
            }
        }
    }
    Ok(())
}

fn join_floats(vals: &[f64]) -> String {
    let vals: Vec<String> = vals.iter().map(|v| v.to_string()).collect();
    vals.join(" ")
}

struct Lines<R: BufRead> {
    reader: R,
    buf: String,
}

impl<R: BufRead> Lines<R> {
    fn next(&mut self) -> Result<&str, StateError> {
        self.buf.clear();
        let n = self.reader.read_line(&mut self.buf)?;
        if n == 0 {
            return Err(fmt_err("unexpected end of state"));
        }
        Ok(self.buf.trim_end())
    }

    /// Fail on the first non-blank line left: the state ended before it.
    fn expect_end(&mut self) -> Result<(), StateError> {
        loop {
            self.buf.clear();
            if self.reader.read_line(&mut self.buf)? == 0 {
                return Ok(());
            }
            let line = self.buf.trim();
            if !line.is_empty() {
                return Err(fmt_err(format!(
                    "trailing input after the detector state: {line:?}"
                )));
            }
        }
    }

    /// Read a line expected to start with `key`, returning its payload.
    fn expect(&mut self, key: &str) -> Result<&str, StateError> {
        let line = self.next()?;
        line.strip_prefix(key)
            .map(str::trim_start)
            .ok_or_else(|| fmt_err(format!("expected {key:?}, got {line:?}")))
            // Borrow gymnastics: re-slice from the owned buffer.
            .map(|s| s.to_string())
            .map(|s| {
                self.buf = s;
                self.buf.as_str()
            })
    }
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, StateError> {
    s.trim()
        .parse()
        .map_err(|_| fmt_err(format!("bad {what}: {s:?}")))
}

fn parse_list<T: std::str::FromStr>(s: &str, what: &str) -> Result<Vec<T>, StateError> {
    s.split_whitespace().map(|tok| parse(tok, what)).collect()
}

/// Restore a detector previously written by [`save_detector`]. Any
/// non-blank line after the last section the configuration calls for is a
/// [`StateError::Format`] naming it: a state that carries more than its
/// detector reads is not that detector's.
pub fn load_detector<R: Read>(input: R) -> Result<CadDetector, StateError> {
    let mut lines = Lines {
        reader: BufReader::new(input),
        buf: String::new(),
    };
    let header = lines.next()?.to_string();
    let version: u32 = match header.strip_prefix(MAGIC).map(str::trim_start) {
        Some(rest) if rest.starts_with('v') => parse(&rest[1..], "version")?,
        _ => return Err(fmt_err(format!("unsupported header {header:?}"))),
    };
    if version != VERSION {
        return Err(fmt_err(format!("unsupported state version v{version}")));
    }
    let n_sensors: usize = parse(lines.expect("n_sensors")?, "n_sensors")?;
    let window = lines.expect("window")?.to_string();
    let mut it = window.split_whitespace();
    let w: usize = parse(it.next().unwrap_or(""), "w")?;
    let s: usize = parse(it.next().unwrap_or(""), "s")?;
    let knn = lines.expect("knn")?.to_string();
    let mut it = knn.split_whitespace();
    let k: usize = parse(it.next().unwrap_or(""), "k")?;
    let tau: f64 = parse(it.next().unwrap_or(""), "tau")?;
    match lines.expect("kind")? {
        "pearson" => {}
        "spearman" => {
            return Err(fmt_err(
                "Spearman correlation was removed; this state needs Pearson",
            ))
        }
        other => return Err(fmt_err(format!("unknown correlation kind {other:?}"))),
    }
    match lines.expect("strategy")? {
        "exact" => {}
        other if other.starts_with("hnsw") => {
            return Err(fmt_err(
                "HNSW TSG construction was removed; this state needs the exact strategy",
            ))
        }
        other => return Err(fmt_err(format!("unknown strategy {other:?}"))),
    }
    let theta: f64 = parse(lines.expect("theta")?, "theta")?;
    let eta: f64 = parse(lines.expect("eta")?, "eta")?;
    let rc_horizon = match lines.expect("rc_horizon")? {
        "none" => None,
        other => Some(parse(other, "rc_horizon")?),
    };
    let louvain_line = lines.expect("louvain")?.to_string();
    let mut it = louvain_line.split_whitespace();
    let louvain = LouvainConfig {
        max_levels: parse(it.next().unwrap_or(""), "louvain max_levels")?,
        min_gain: parse(it.next().unwrap_or(""), "louvain min_gain")?,
    };
    let engine_line = lines.expect("engine")?.to_string();
    let engine = if engine_line == "exact" {
        EngineChoice::Exact
    } else if let Some(rest) = engine_line.strip_prefix("incremental") {
        EngineChoice::Incremental {
            rebuild_every: parse(rest, "rebuild_every")?,
        }
    } else {
        return Err(fmt_err(format!("unknown engine {engine_line:?}")));
    };
    let gap_line = lines.expect("gap_policy")?.to_string();
    let mut it = gap_line.split_whitespace();
    let tag: u8 = parse(it.next().unwrap_or(""), "gap_policy tag")?;
    let gap_policy =
        GapPolicy::from_tag(tag).ok_or_else(|| fmt_err(format!("unknown gap policy tag {tag}")))?;
    let reorder_slack: usize = parse(it.next().unwrap_or(""), "reorder_slack")?;

    let stats_line = lines.expect("stats")?.to_string();
    let mut it = stats_line.split_whitespace();
    let stats = RunningStats::from_parts(
        parse(it.next().unwrap_or(""), "stats count")?,
        parse(it.next().unwrap_or(""), "stats mean")?,
        parse(it.next().unwrap_or(""), "stats m2")?,
    );
    let prev_outliers: Vec<usize> = parse_list(lines.expect("prev_outliers")?, "outlier id")?;
    let warmup_until: Vec<usize> = parse_list(lines.expect("warmup_until")?, "warmup gate")?;
    if warmup_until.len() != n_sensors {
        return Err(fmt_err("warmup_until length does not match n_sensors"));
    }
    let rounds: usize = parse(lines.expect("tracker_rounds")?, "tracker_rounds")?;
    let prev_labels = match lines.expect("prev_partition")? {
        "none" => None,
        other => Some(parse_list::<usize>(other, "partition label")?),
    };
    let cumulative: Vec<f64> = parse_list(lines.expect("cumulative")?, "cumulative value")?;
    let n_history: usize = parse(lines.expect("history")?, "history count")?;
    let mut history = Vec::with_capacity(n_history);
    for _ in 0..n_history {
        history.push(parse_list::<usize>(lines.expect("h")?, "history value")?);
    }
    if cumulative.len() != n_sensors {
        return Err(fmt_err("cumulative length does not match n_sensors"));
    }
    let tracker = CoappearanceTracker::from_state(
        n_sensors,
        prev_labels,
        cumulative,
        rounds,
        rc_horizon,
        history,
    );
    let config = CadConfig::builder(n_sensors)
        .window(w, s)
        .k(k)
        .tau(tau)
        .theta(theta)
        .eta(eta)
        .rc_horizon(rc_horizon)
        .louvain(louvain)
        .engine(engine)
        .gap_policy(gap_policy)
        .reorder_slack(reorder_slack)
        .build();
    let mut detector =
        CadDetector::from_persisted(n_sensors, config, tracker, stats, prev_outliers);
    detector.restore_warmup_until(warmup_until);
    if matches!(engine, EngineChoice::Incremental { .. }) {
        let state_line = lines.expect("engine_state")?.to_string();
        if let Some(rest) = state_line.strip_prefix("masked") {
            let rounds_since_rebuild: usize = parse(rest, "engine_state rounds")?;
            let anchors: Vec<f64> = parse_list(lines.expect("anchors")?, "anchor")?;
            let cnt: Vec<f64> = parse_list(lines.expect("cnt")?, "cnt value")?;
            let s1: Vec<f64> = parse_list(lines.expect("s1")?, "s1 value")?;
            let q1: Vec<f64> = parse_list(lines.expect("q1")?, "q1 value")?;
            let pc: Vec<f64> = parse_list(lines.expect("pc")?, "pc value")?;
            let psi: Vec<f64> = parse_list(lines.expect("psi")?, "psi value")?;
            let psj: Vec<f64> = parse_list(lines.expect("psj")?, "psj value")?;
            let pqi: Vec<f64> = parse_list(lines.expect("pqi")?, "pqi value")?;
            let pqj: Vec<f64> = parse_list(lines.expect("pqj")?, "pqj value")?;
            let psxy: Vec<f64> = parse_list(lines.expect("psxy")?, "psxy value")?;
            let prev: Vec<f64> = parse_list(lines.expect("prev_window")?, "window value")?;
            let n_pairs = n_sensors.saturating_sub(1) * n_sensors / 2;
            if anchors.len() != n_sensors
                || cnt.len() != n_sensors
                || s1.len() != n_sensors
                || q1.len() != n_sensors
                || [&pc, &psi, &psj, &pqi, &pqj, &psxy]
                    .iter()
                    .any(|v| v.len() != n_pairs)
                || prev.len() != n_sensors * w
            {
                return Err(fmt_err("engine state dimensions do not match detector"));
            }
            let state = MaskedCovState {
                anchors,
                cnt,
                s1,
                q1,
                pc,
                psi,
                psj,
                pqi,
                pqj,
                psxy,
                primed: true,
            };
            detector
                .engine_mut()
                .accumulator_mut()
                .expect("config built an incremental engine")
                .restore_masked(rounds_since_rebuild, state, prev);
        } else if state_line != "none" {
            let rounds_since_rebuild: usize = parse(&state_line, "engine_state rounds")?;
            let anchors: Vec<f64> = parse_list(lines.expect("anchors")?, "anchor")?;
            let s1: Vec<f64> = parse_list(lines.expect("s1")?, "s1 value")?;
            let s2: Vec<f64> = parse_list(lines.expect("s2")?, "s2 value")?;
            let sxy: Vec<f64> = parse_list(lines.expect("sxy")?, "sxy value")?;
            let prev: Vec<f64> = parse_list(lines.expect("prev_window")?, "window value")?;
            let n_pairs = n_sensors.saturating_sub(1) * n_sensors / 2;
            if anchors.len() != n_sensors
                || s1.len() != n_sensors
                || s2.len() != n_sensors
                || sxy.len() != n_pairs
                || prev.len() != n_sensors * w
            {
                return Err(fmt_err("engine state dimensions do not match detector"));
            }
            let cov = SlidingCov::from_state(n_sensors, w, anchors, s1, s2, sxy, true);
            detector
                .engine_mut()
                .accumulator_mut()
                .expect("config built an incremental engine")
                .restore(rounds_since_rebuild, cov, prev);
        }
    }
    lines.expect_end()?;
    Ok(detector)
}

const STREAM_MAGIC: &str = "cad-stream";
/// v1: cursors + ring + embedded detector. v2 adds the forensics journal
/// (`cad_core::explain`) so `/explain` survives a daemon restart. v3 adds
/// the degraded-input bookkeeping (tick sequencing, the reorder buffer,
/// hold-last values, and drop/fill counters) so a hostile stream resumes
/// mid-gap. Only v3 loads; older headers fail with a named
/// `unsupported stream version` error.
const STREAM_VERSION: u32 = 3;

/// Serialise a [`StreamingCad`] wrapper: the ring buffer and its cursors,
/// the forensics journal, then the complete embedded detector state
/// ([`save_detector`]). A restored stream resumes mid-window and produces
/// bit-identical round outcomes to an uninterrupted one — the property the
/// `cad-serve` graceful-shutdown path relies on.
pub fn save_stream<W: Write>(stream: &crate::StreamingCad, mut out: W) -> io::Result<()> {
    let (detector, ring, next, filled, fresh, total) = stream.persist_parts();
    writeln!(out, "{STREAM_MAGIC} v{STREAM_VERSION}")?;
    writeln!(out, "cursor {next} {filled} {fresh} {total}")?;
    writeln!(out, "ring {}", join_floats(ring))?;
    let (next_seq, pending, last_valid, counters) = stream.persist_degraded_parts();
    writeln!(
        out,
        "seq {next_seq} {} {} {} {}",
        counters.late_dropped, counters.gaps_filled, counters.nan_stored, counters.held_samples
    )?;
    writeln!(out, "last_valid {}", join_floats(last_valid))?;
    writeln!(out, "pending {}", pending.len())?;
    for (seq, row) in pending {
        writeln!(out, "p {seq} {}", join_floats(row))?;
    }
    let journal = detector.explain();
    writeln!(
        out,
        "journal {} {} {}",
        journal.capacity(),
        journal.next_round(),
        journal.len()
    )?;
    for rec in journal.records() {
        let outliers: Vec<String> = rec.outlier_sensors.iter().map(|v| v.to_string()).collect();
        writeln!(
            out,
            "jr {} {} {} {} {} {} {}",
            rec.round,
            rec.n_r,
            u8::from(rec.abnormal),
            rec.mu_pre,
            rec.sigma_pre,
            rec.eta_sigma,
            outliers.join(" ")
        )?;
    }
    save_detector(detector, out)
}

/// Restore a streaming wrapper previously written by [`save_stream`].
pub fn load_stream<R: Read>(input: R) -> Result<crate::StreamingCad, StateError> {
    let mut lines = Lines {
        reader: BufReader::new(input),
        buf: String::new(),
    };
    let header = lines.next()?.to_string();
    let version: u32 = match header.strip_prefix(STREAM_MAGIC).map(str::trim_start) {
        Some(rest) if rest.starts_with('v') => parse(&rest[1..], "stream version")?,
        _ => return Err(fmt_err(format!("unsupported stream header {header:?}"))),
    };
    if version != STREAM_VERSION {
        return Err(fmt_err(format!("unsupported stream version v{version}")));
    }
    let cursor = lines.expect("cursor")?.to_string();
    let mut it = cursor.split_whitespace();
    let next: usize = parse(it.next().unwrap_or(""), "cursor next")?;
    let filled: usize = parse(it.next().unwrap_or(""), "cursor filled")?;
    let fresh: usize = parse(it.next().unwrap_or(""), "cursor fresh")?;
    let total: usize = parse(it.next().unwrap_or(""), "cursor total")?;
    let ring: Vec<f64> = parse_list(lines.expect("ring")?, "ring value")?;
    let seq_line = lines.expect("seq")?.to_string();
    let mut it = seq_line.split_whitespace();
    let next_seq: u64 = parse(it.next().unwrap_or(""), "next_seq")?;
    let counters = StreamCounters {
        late_dropped: parse(it.next().unwrap_or(""), "late_dropped")?,
        gaps_filled: parse(it.next().unwrap_or(""), "gaps_filled")?,
        nan_stored: parse(it.next().unwrap_or(""), "nan_stored")?,
        held_samples: parse(it.next().unwrap_or(""), "held_samples")?,
    };
    let last_valid: Vec<f64> = parse_list(lines.expect("last_valid")?, "last_valid value")?;
    let n_pending: usize = parse(lines.expect("pending")?, "pending count")?;
    let mut pending = std::collections::BTreeMap::new();
    for _ in 0..n_pending {
        let line = lines.expect("p")?.to_string();
        let mut it = line.split_whitespace();
        let seq: u64 = parse(it.next().unwrap_or(""), "pending seq")?;
        let row: Vec<f64> = it
            .map(|tok| parse(tok, "pending value"))
            .collect::<Result<Vec<f64>, _>>()?;
        pending.insert(seq, row);
    }
    let journal_line = lines.expect("journal")?.to_string();
    let mut it = journal_line.split_whitespace();
    let capacity: usize = parse(it.next().unwrap_or(""), "journal capacity")?;
    let next_round: u64 = parse(it.next().unwrap_or(""), "journal next_round")?;
    let len: usize = parse(it.next().unwrap_or(""), "journal len")?;
    if len > capacity {
        return Err(fmt_err("journal holds more records than its capacity"));
    }
    let mut records = Vec::with_capacity(len);
    for _ in 0..len {
        let line = lines.expect("jr")?.to_string();
        let mut it = line.split_whitespace();
        records.push(crate::explain::RoundRecord {
            round: parse(it.next().unwrap_or(""), "jr round")?,
            n_r: parse(it.next().unwrap_or(""), "jr n_r")?,
            abnormal: match it.next().unwrap_or("") {
                "0" => false,
                "1" => true,
                other => return Err(fmt_err(format!("bad jr abnormal flag {other:?}"))),
            },
            mu_pre: parse(it.next().unwrap_or(""), "jr mu_pre")?,
            sigma_pre: parse(it.next().unwrap_or(""), "jr sigma_pre")?,
            eta_sigma: parse(it.next().unwrap_or(""), "jr eta_sigma")?,
            outlier_sensors: it
                .map(|tok| parse(tok, "jr outlier id"))
                .collect::<Result<Vec<u32>, _>>()?,
        });
    }
    let journal = crate::explain::ExplainJournal::restore(capacity, next_round, records);
    // The detector state follows in the same reader; `load_detector`
    // consumes the remaining lines.
    let mut detector = load_detector(lines.reader)?;
    detector.restore_explain(journal);
    let w = detector.config().window.w;
    let n = detector.n_sensors();
    if ring.len() != n * w {
        return Err(fmt_err(format!(
            "ring length {} does not match detector dimensions {n}×{w}",
            ring.len()
        )));
    }
    if next >= w || filled > w || fresh > w {
        return Err(fmt_err("stream cursor out of range"));
    }
    if last_valid.len() != n {
        return Err(fmt_err("last_valid length does not match n_sensors"));
    }
    if pending.values().any(|row| row.len() != n) {
        return Err(fmt_err("pending tick width does not match n_sensors"));
    }
    let mut stream =
        crate::StreamingCad::from_persisted(detector, ring, next, filled, fresh, total);
    stream.restore_degraded(next_seq, pending, last_valid, counters);
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad_mts::Mts;

    fn mts(len: usize) -> Mts {
        let a: Vec<f64> = (0..len).map(|t| (t as f64 * 0.2).sin()).collect();
        let b: Vec<f64> = a.iter().map(|x| 0.7 * x + 0.2).collect();
        let c: Vec<f64> = (0..len).map(|t| (t as f64 * 0.45).cos()).collect();
        let d: Vec<f64> = c.iter().map(|x| -0.9 * x).collect();
        Mts::from_series(vec![a, b, c, d])
    }

    fn config() -> CadConfig {
        CadConfig::builder(4)
            .window(32, 8)
            .k(1)
            .tau(0.3)
            .theta(0.2)
            .rc_horizon(Some(6))
            .build()
    }

    #[test]
    fn roundtrip_preserves_future_behaviour() {
        let data = mts(600);
        let his = data.slice_time(0, 300);
        let live = data.slice_time(300, 300);

        // Reference: uninterrupted detector.
        let mut reference = CadDetector::new(4, config());
        reference.warm_up(&his);
        // Snapshot a copy at the same point.
        let mut snapshotted = CadDetector::new(4, config());
        snapshotted.warm_up(&his);
        let mut buf = Vec::new();
        save_detector(&snapshotted, &mut buf).expect("save");
        let mut restored = load_detector(buf.as_slice()).expect("load");

        // Both must produce identical outcomes from here on.
        let spec = reference.config().window;
        for r in 0..spec.rounds(live.len()) {
            let a = reference.push_window(&live, spec.start(r));
            let b = restored.push_window(&live, spec.start(r));
            assert_eq!(a, b, "round {r} diverged after restore");
        }
    }

    #[test]
    fn roundtrip_mid_detection() {
        let data = mts(800);
        let mut det = CadDetector::new(4, config());
        let spec = det.config().window;
        // Process half the rounds, snapshot, process the rest two ways.
        let half = spec.rounds(data.len()) / 2;
        for r in 0..half {
            det.push_window(&data, spec.start(r));
        }
        let mut buf = Vec::new();
        save_detector(&det, &mut buf).expect("save");
        let mut restored = load_detector(buf.as_slice()).expect("load");
        for r in half..spec.rounds(data.len()) {
            let a = det.push_window(&data, spec.start(r));
            let b = restored.push_window(&data, spec.start(r));
            assert_eq!(a, b, "round {r}");
        }
    }

    #[test]
    fn config_fields_roundtrip() {
        let config = CadConfig::builder(4)
            .window(16, 4)
            .k(2)
            .tau(0.45)
            .theta(0.31)
            .eta(2.5)
            .rc_horizon(None)
            .build();
        let det = CadDetector::new(4, config.clone());
        let mut buf = Vec::new();
        save_detector(&det, &mut buf).expect("save");
        let restored = load_detector(buf.as_slice()).expect("load");
        assert_eq!(restored.config(), &config);
    }

    /// A v3 state exactly as the last writer with a selectable TSG
    /// strategy wrote it (four rounds of `config()`).
    const STATE_WITH_STRATEGY_LINE: &str = "cad-state v3\nn_sensors 4\nwindow 32 8\n\
        knn 1 0.3\nkind pearson\nstrategy exact\ntheta 0.2\neta 3\nrc_horizon 6\n\
        louvain 16 0.0000001\nengine exact\ngap_policy 0 0\nstats 4 0 0\nprev_outliers \n\
        warmup_until 0 0 0 0\ntracker_rounds 4\nprev_partition 0 0 1 1\n\
        cumulative 4 4 4 4\nhistory 4\nh 1 1 1 1\nh 1 1 1 1\nh 1 1 1 1\nh 1 1 1 1\n";

    #[test]
    fn earlier_written_state_loads_and_saves_identically() {
        let restored = load_detector(STATE_WITH_STRATEGY_LINE.as_bytes()).expect("load");
        assert_eq!(restored.config(), &config());
        let mut buf = Vec::new();
        save_detector(&restored, &mut buf).expect("save");
        assert_eq!(String::from_utf8(buf).unwrap(), STATE_WITH_STRATEGY_LINE);
    }

    #[test]
    fn hnsw_state_fails_with_a_named_error() {
        let old =
            STATE_WITH_STRATEGY_LINE.replace("strategy exact", "strategy hnsw 12 64 48 24301");
        match load_detector(old.as_bytes()) {
            Err(StateError::Format(m)) => {
                assert!(m.contains("HNSW TSG construction was removed"), "{m}")
            }
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    /// A masked exact detector's state exactly as the last writer with a
    /// separate exact-engine type wrote it (six rounds of `config()` under
    /// `GapPolicy::Skip`): no `engine_state` section.
    const MASKED_EXACT_STATE: &str = "cad-state v3\nn_sensors 4\nwindow 32 8\n\
        knn 1 0.3\nkind pearson\nstrategy exact\ntheta 0.2\neta 3\nrc_horizon 6\n\
        louvain 16 0.0000001\nengine exact\ngap_policy 1 0\nstats 6 0 0\nprev_outliers \n\
        warmup_until 0 0 0 0\ntracker_rounds 6\nprev_partition 0 0 1 1\n\
        cumulative 6 6 6 6\nhistory 6\nh 1 1 1 1\nh 1 1 1 1\nh 1 1 1 1\nh 1 1 1 1\n\
        h 1 1 1 1\nh 1 1 1 1\n";

    #[test]
    fn masked_exact_state_loads_and_saves_identically() {
        let mut restored = load_detector(MASKED_EXACT_STATE.as_bytes()).expect("load");
        let mut want = config();
        want.gap_policy = GapPolicy::Skip;
        assert_eq!(restored.config(), &want);
        let mut buf = Vec::new();
        save_detector(&restored, &mut buf).expect("save");
        assert_eq!(String::from_utf8(buf).unwrap(), MASKED_EXACT_STATE);
        // Still none once the accumulator under it is primed.
        let data = mts(200);
        let spec = restored.config().window;
        for r in 0..spec.rounds(data.len()) {
            restored.push_window(&data, spec.start(r));
        }
        let mut buf = Vec::new();
        save_detector(&restored, &mut buf).expect("save");
        let text = String::from_utf8(buf).unwrap();
        assert!(!text.contains("engine_state"), "{text}");
        assert!(load_detector(text.as_bytes()).is_ok());
        // Edges are weighed by Pearson only.
        let old = MASKED_EXACT_STATE.replace("kind pearson", "kind spearman");
        match load_detector(old.as_bytes()) {
            Err(StateError::Format(m)) => {
                assert!(m.contains("Spearman correlation was removed"), "{m}")
            }
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    /// Drive two copies of one stream — one through a save/load round-trip
    /// mid-stream — and assert identical outcomes tick-for-tick.
    fn assert_stream_roundtrip(engine: EngineChoice) {
        use crate::StreamingCad;
        let data = mts(700);
        let cfg = CadConfig::builder(4)
            .window(32, 8)
            .k(1)
            .tau(0.3)
            .theta(0.2)
            .rc_horizon(Some(6))
            .engine(engine)
            .build();
        let mut reference = StreamingCad::new(CadDetector::new(4, cfg.clone()));
        let mut live = StreamingCad::new(CadDetector::new(4, cfg));
        // Split at a tick that is neither a round boundary nor ring-aligned.
        let split = 349;
        for t in 0..split {
            let col = data.column(t);
            assert_eq!(reference.push_sample(&col), live.push_sample(&col));
        }
        let mut buf = Vec::new();
        save_stream(&live, &mut buf).expect("save stream");
        let mut restored = load_stream(buf.as_slice()).expect("load stream");
        assert_eq!(restored.samples_seen(), split);
        for t in split..data.len() {
            let col = data.column(t);
            assert_eq!(
                reference.push_sample(&col),
                restored.push_sample(&col),
                "tick {t} diverged after stream restore"
            );
        }
    }

    #[test]
    fn stream_roundtrip_exact_engine() {
        assert_stream_roundtrip(EngineChoice::Exact);
    }

    #[test]
    fn stream_journal_roundtrips() {
        use crate::StreamingCad;
        let data = mts(700);
        let mut det = CadDetector::new(4, config());
        det.set_explain_capacity(8);
        let mut live = StreamingCad::new(det);
        for t in 0..500 {
            live.push_sample(&data.column(t));
        }
        assert!(
            !live.detector().explain().is_empty(),
            "journal should have captured rounds"
        );
        let mut buf = Vec::new();
        save_stream(&live, &mut buf).expect("save stream");
        let restored = load_stream(buf.as_slice()).expect("load stream");
        assert_eq!(restored.detector().explain(), live.detector().explain());
    }

    #[test]
    fn stream_roundtrip_incremental_engine() {
        assert_stream_roundtrip(EngineChoice::Incremental { rebuild_every: 50 });
    }

    #[test]
    fn stream_state_rejects_corrupt_ring() {
        use crate::StreamingCad;
        let det = CadDetector::new(4, config());
        let stream = StreamingCad::new(det);
        let mut buf = Vec::new();
        save_stream(&stream, &mut buf).expect("save stream");
        let text = String::from_utf8(buf).expect("UTF-8");
        assert!(text.starts_with("cad-stream v3\n"));
        let corrupt: String = text
            .lines()
            .map(|l| {
                if l.starts_with("ring ") {
                    "ring 1 2 3".to_string()
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        let err = load_stream(corrupt.as_bytes()).unwrap_err();
        assert!(matches!(err, StateError::Format(_)), "{err}");
    }

    #[test]
    fn stream_state_rejects_detector_header() {
        // A bare detector snapshot is not a stream snapshot.
        let det = CadDetector::new(4, config());
        let mut buf = Vec::new();
        save_detector(&det, &mut buf).expect("save");
        let err = load_stream(buf.as_slice()).unwrap_err();
        assert!(matches!(err, StateError::Format(_)), "{err}");
    }

    #[test]
    fn rejects_bad_header() {
        let err = load_detector("not-a-state v1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, StateError::Format(_)), "{err}");
    }

    #[test]
    fn rejects_truncated_state() {
        let det = CadDetector::new(4, config());
        let mut buf = Vec::new();
        save_detector(&det, &mut buf).expect("save");
        let cut = buf.len() / 2;
        let err = load_detector(&buf[..cut]).unwrap_err();
        assert!(
            matches!(err, StateError::Format(_) | StateError::Io(_)),
            "{err}"
        );
    }

    #[test]
    fn state_is_human_readable() {
        let det = CadDetector::new(4, config());
        let mut buf = Vec::new();
        save_detector(&det, &mut buf).expect("save");
        let text = String::from_utf8(buf).expect("UTF-8");
        assert!(text.starts_with("cad-state v3\n"));
        assert!(text.contains("engine exact"));
        assert!(text.contains("gap_policy 0 0"));
        assert!(text.contains("theta 0.2"));
        assert!(text.contains("rc_horizon 6"));
    }

    #[test]
    fn incremental_engine_state_roundtrips_mid_stream() {
        let data = mts(800);
        let cfg = CadConfig::builder(4)
            .window(32, 8)
            .k(1)
            .tau(0.3)
            .theta(0.2)
            .rc_horizon(Some(6))
            .engine(EngineChoice::Incremental { rebuild_every: 50 })
            .build();
        let mut det = CadDetector::new(4, cfg);
        let spec = det.config().window;
        // Deep into a slide run (rebuild_every is large), snapshot, and
        // continue both copies: the restored one must keep *sliding* with
        // the same co-moments and stay bit-identical to the original.
        let half = spec.rounds(data.len()) / 2;
        for r in 0..half {
            det.push_window(&data, spec.start(r));
        }
        let mut buf = Vec::new();
        save_detector(&det, &mut buf).expect("save");
        let text = String::from_utf8(buf.clone()).expect("UTF-8");
        assert!(text.contains("engine incremental 50"));
        assert!(text.contains("\nsxy "));
        assert!(text.contains("\nprev_window "));
        // The ring of the kept window has turned, yet it is saved in time
        // order: the restored engine (head 0) saves the same bytes.
        let engine = det.engine().accumulator().expect("incremental engine");
        assert_ne!(engine.head, 0, "the ring must have turned");
        let prev = text.lines().find_map(|l| l.strip_prefix("prev_window "));
        let rows: Vec<f64> = (0..4)
            .flat_map(|i| data.sensor_window(i, spec.start(half - 1), spec.w).to_vec())
            .collect();
        assert_eq!(prev, Some(join_floats(&rows).as_str()));
        let mut restored = load_detector(buf.as_slice()).expect("load");
        let mut again = Vec::new();
        save_detector(&restored, &mut again).expect("save");
        assert_eq!(again, buf, "a head-0 save of the same window");
        for r in half..spec.rounds(data.len()) {
            let a = det.push_window(&data, spec.start(r));
            let b = restored.push_window(&data, spec.start(r));
            assert_eq!(a, b, "round {r}");
        }
    }

    #[test]
    fn trailing_input_after_the_detector_fails_by_name() {
        let trailing = |text: &str| match load_detector(text.as_bytes()) {
            Err(StateError::Format(m)) => assert!(m.contains("trailing input"), "{m}"),
            other => panic!("expected a format error, got {other:?}"),
        };
        // A saved incremental detector with one extra line.
        let data = mts(200);
        let cfg = CadConfig::builder(4)
            .window(32, 8)
            .k(1)
            .tau(0.3)
            .theta(0.2)
            .engine(EngineChoice::Incremental { rebuild_every: 50 })
            .build();
        let mut det = CadDetector::new(4, cfg);
        let spec = det.config().window;
        for r in 0..spec.rounds(data.len()) {
            det.push_window(&data, spec.start(r));
        }
        let mut buf = Vec::new();
        save_detector(&det, &mut buf).expect("save");
        let text = String::from_utf8(buf).expect("UTF-8");
        trailing(&format!("{text}h 1 1 1 1\n"));
        // A masked exact detector writes no engine state; one appended is
        // not read as one.
        trailing(&format!(
            "{MASKED_EXACT_STATE}engine_state 0\nanchors 0 0 0 0\n"
        ));
        // Blank lines after the last section are not input.
        assert!(load_detector(format!("{text}\n  \n").as_bytes()).is_ok());
        assert!(load_detector(MASKED_EXACT_STATE.as_bytes()).is_ok());
    }

    #[test]
    fn fresh_incremental_detector_roundtrips() {
        // Never-primed engine: the snapshot records `engine_state none`
        // and the restored detector behaves like a fresh one.
        let cfg = CadConfig::builder(4)
            .window(32, 8)
            .k(1)
            .tau(0.3)
            .theta(0.2)
            .engine(EngineChoice::incremental())
            .build();
        let det = CadDetector::new(4, cfg);
        let mut buf = Vec::new();
        save_detector(&det, &mut buf).expect("save");
        let text = String::from_utf8(buf.clone()).expect("UTF-8");
        assert!(text.contains("engine_state none"));
        let mut restored = load_detector(buf.as_slice()).expect("load");
        let data = mts(400);
        let spec = restored.config().window;
        let mut fresh = CadDetector::new(4, det.config().clone());
        for r in 0..spec.rounds(data.len()) {
            assert_eq!(
                fresh.push_window(&data, spec.start(r)),
                restored.push_window(&data, spec.start(r)),
                "round {r}"
            );
        }
    }

    #[test]
    fn rejects_future_version() {
        let err = load_detector("cad-state v99\n".as_bytes()).unwrap_err();
        assert!(matches!(err, StateError::Format(_)), "{err}");
    }

    #[test]
    fn rejects_corrupt_engine_state_dimensions() {
        let cfg = CadConfig::builder(4)
            .window(32, 8)
            .k(1)
            .tau(0.3)
            .theta(0.2)
            .engine(EngineChoice::incremental())
            .build();
        let mut det = CadDetector::new(4, cfg);
        let data = mts(200);
        let spec = det.config().window;
        for r in 0..spec.rounds(data.len()) {
            det.push_window(&data, spec.start(r));
        }
        let mut buf = Vec::new();
        save_detector(&det, &mut buf).expect("save");
        let text = String::from_utf8(buf).expect("UTF-8");
        // Truncate the sxy vector: wrong pair count must be a clean error.
        let corrupt: String = text
            .lines()
            .map(|l| {
                if l.starts_with("sxy ") {
                    "sxy 1 2 3".to_string()
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        let err = load_detector(corrupt.as_bytes()).unwrap_err();
        assert!(matches!(err, StateError::Format(_)), "{err}");
    }

    #[test]
    fn gap_policy_and_slack_roundtrip() {
        let config = CadConfig::builder(4)
            .window(32, 8)
            .k(1)
            .tau(0.3)
            .theta(0.2)
            .gap_policy(GapPolicy::HoldLast)
            .reorder_slack(5)
            .build();
        let det = CadDetector::new(4, config.clone());
        let mut buf = Vec::new();
        save_detector(&det, &mut buf).expect("save");
        let text = String::from_utf8(buf.clone()).expect("UTF-8");
        assert!(text.contains("gap_policy 2 5"));
        let restored = load_detector(buf.as_slice()).expect("load");
        assert_eq!(restored.config(), &config);
    }

    #[test]
    fn pre_v3_headers_fail_with_named_version_error() {
        // The v1/v2 layouts of both formats are no longer loadable; each
        // old header must be refused by name, not misparsed.
        let det = CadDetector::new(4, config());
        let mut state = Vec::new();
        save_detector(&det, &mut state).expect("save");
        let state = String::from_utf8(state).expect("UTF-8");
        let mut stream = Vec::new();
        save_stream(&crate::StreamingCad::new(det), &mut stream).expect("save stream");
        let stream = String::from_utf8(stream).expect("UTF-8");
        for v in ["v1", "v2"] {
            let old = state.replace("cad-state v3", &format!("cad-state {v}"));
            let err = load_detector(old.as_bytes()).unwrap_err().to_string();
            assert!(
                err.contains(&format!("unsupported state version {v}")),
                "{err}"
            );
            let old = stream.replace("cad-stream v3", &format!("cad-stream {v}"));
            let err = load_stream(old.as_bytes()).unwrap_err().to_string();
            assert!(
                err.contains(&format!("unsupported stream version {v}")),
                "{err}"
            );
        }
    }

    #[test]
    fn rejects_unknown_gap_policy_tag() {
        let det = CadDetector::new(4, config());
        let mut buf = Vec::new();
        save_detector(&det, &mut buf).expect("save");
        let text = String::from_utf8(buf).expect("UTF-8");
        let corrupt = text.replace("gap_policy 0 0", "gap_policy 9 0");
        let err = load_detector(corrupt.as_bytes()).unwrap_err();
        assert!(matches!(err, StateError::Format(_)), "{err}");
    }

    /// A degraded stream — NaN dropouts, a gap mid-flight, and a tick
    /// parked in the reorder buffer — snapshot mid-degradation must resume
    /// bit-identically, including the masked incremental engine state.
    #[test]
    fn masked_stream_roundtrips_mid_degradation() {
        use crate::StreamingCad;
        let data = mts(700);
        let cfg = CadConfig::builder(4)
            .window(32, 8)
            .k(1)
            .tau(0.3)
            .theta(0.2)
            .rc_horizon(Some(6))
            .engine(EngineChoice::Incremental { rebuild_every: 50 })
            .gap_policy(GapPolicy::Skip)
            .reorder_slack(2)
            .build();
        let mut reference = StreamingCad::new(CadDetector::new(4, cfg.clone()));
        let mut live = StreamingCad::new(CadDetector::new(4, cfg));
        let push = |s: &mut StreamingCad, seq: u64| {
            let mut col = data.column(seq as usize % data.len());
            if seq % 7 == 3 {
                col[1] = f64::NAN;
            }
            s.push_tick(seq, &col).expect("push")
        };
        for seq in 0..350u64 {
            assert_eq!(push(&mut reference, seq), push(&mut live, seq));
        }
        // Park seq 351 in the reorder buffer (350 still missing), then
        // snapshot with the hole open.
        assert!(push(&mut reference, 351).is_empty());
        assert!(push(&mut live, 351).is_empty());
        let mut buf = Vec::new();
        save_stream(&live, &mut buf).expect("save stream");
        let text = String::from_utf8(buf.clone()).expect("UTF-8");
        assert!(text.contains("engine_state masked"), "masked engine state");
        assert!(text.contains("\npending 1\n"), "parked tick persisted");
        let engine = live
            .detector()
            .engine()
            .accumulator()
            .expect("masked engine");
        assert_ne!(engine.head, 0, "the ring must have turned");
        let mut restored = load_stream(buf.as_slice()).expect("load stream");
        let mut again = Vec::new();
        save_stream(&restored, &mut again).expect("save stream");
        assert_eq!(again, buf, "a head-0 save of the same window");
        assert_eq!(restored.counters(), live.counters());
        assert_eq!(restored.pending_ticks(), 1);
        assert_eq!(restored.next_seq(), 350);
        // Fill the hole — both drain the parked tick — then run out the
        // stream (351 already arrived) requiring tick-for-tick identical
        // outcomes.
        for seq in (350..700u64).filter(|&s| s != 351) {
            assert_eq!(
                push(&mut reference, seq),
                push(&mut restored, seq),
                "tick {seq} diverged after degraded restore"
            );
        }
        assert_eq!(reference.counters(), restored.counters());
    }

    /// Grow the sensor set mid-stream, snapshot while the new slot is
    /// still inside its warm-up quarantine, and check the restored copy
    /// stays bit-identical — the churn-without-cold-restart guarantee.
    #[test]
    fn reshaped_stream_roundtrips_during_warmup() {
        use crate::StreamingCad;
        let data = mts(700);
        let cfg = CadConfig::builder(4)
            .window(32, 8)
            .k(1)
            .tau(0.3)
            .theta(0.2)
            .rc_horizon(Some(6))
            .gap_policy(GapPolicy::Skip)
            .build();
        let mut reference = StreamingCad::new(CadDetector::new(4, cfg.clone()));
        let mut live = StreamingCad::new(CadDetector::new(4, cfg));
        for seq in 0..300u64 {
            let col = data.column(seq as usize);
            assert_eq!(
                reference.push_tick(seq, &col).expect("push"),
                live.push_tick(seq, &col).expect("push")
            );
        }
        reference.reshape_sensors(5);
        live.reshape_sensors(5);
        let widen = |t: usize| {
            let mut col = data.column(t);
            col.push((t as f64 * 0.11).sin());
            col
        };
        for seq in 300..330u64 {
            let col = widen(seq as usize);
            assert_eq!(
                reference.push_tick(seq, &col).expect("push"),
                live.push_tick(seq, &col).expect("push")
            );
        }
        let mut buf = Vec::new();
        save_stream(&live, &mut buf).expect("save stream");
        let text = String::from_utf8(buf.clone()).expect("UTF-8");
        assert!(
            text.contains("n_sensors 5") || text.contains("\n5\n"),
            "grown width persisted"
        );
        assert!(text.contains("warmup_until"), "quarantine gates persisted");
        let mut restored = load_stream(buf.as_slice()).expect("load stream");
        assert_eq!(restored.detector().n_sensors(), 5);
        for seq in 330..700u64 {
            let col = widen(seq as usize);
            assert_eq!(
                reference.push_tick(seq, &col).expect("push"),
                restored.push_tick(seq, &col).expect("push"),
                "tick {seq} diverged after reshape restore"
            );
        }
    }
}
