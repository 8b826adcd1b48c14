//! `cad-replay`: offline what-if re-detection over a recorded tick WAL.
//!
//! Reads a `cad-serve` write-ahead log (`CAD_WAL_DIR`), rebuilds one
//! session's full tick history, and re-runs detection twice: once under
//! the configuration recorded in the session's `Create` record (the
//! *base* run — bit-identical to what the server answered live), and once
//! under the same configuration with any command-line overrides applied
//! (the *what-if* run). The report diffs the two verdict streams
//! round-by-round and scores the what-if run against the base run with
//! the paper's Ahead/Miss measures, treating the base run's abnormal
//! rounds as the reference episodes.
//!
//! ```text
//! cad-replay --wal <dir> [--session <id>] [--list] [--out <path>]
//!            [--engine exact|incremental[:N]] [--window W] [--stride S]
//!            [--k K] [--tau T] [--theta TH] [--eta E] [--rc-horizon H]
//! ```
//!
//! The output is deterministic JSON: the same log and the same flags
//! produce a byte-identical report, regardless of thread count or host.
//! Replay needs the session's history from tick 0 — if the log's prefix
//! was compacted away (the live server checkpointed against a snapshot),
//! replay refuses with a clear error rather than diverging silently.

use std::collections::BTreeMap;
use std::path::PathBuf;

use cad_core::{CadDetector, StreamingCad};
use cad_eval::{ahead_miss, detection_delays, segments};
use cad_serve::config_from_wal_spec;
use cad_wal::{scan_wal, WalEngine, WalGapPolicy, WalRecord, WalSpec};

/// Cap on per-item diff lists in the report; totals are always exact.
const MAX_LISTED: usize = 256;

#[derive(Default, Clone, Copy)]
struct Overrides {
    engine: Option<WalEngine>,
    w: Option<u32>,
    s: Option<u32>,
    k: Option<u32>,
    tau: Option<f64>,
    theta: Option<f64>,
    eta: Option<f64>,
    rc_horizon: Option<u32>,
}

impl Overrides {
    fn apply(&self, spec: &WalSpec) -> WalSpec {
        WalSpec {
            n_sensors: spec.n_sensors,
            w: self.w.unwrap_or(spec.w),
            s: self.s.unwrap_or(spec.s),
            k: self.k.unwrap_or(spec.k),
            tau: self.tau.unwrap_or(spec.tau),
            theta: self.theta.unwrap_or(spec.theta),
            eta: self.eta.unwrap_or(spec.eta),
            rc_horizon: self.rc_horizon.unwrap_or(spec.rc_horizon),
            engine: self.engine.unwrap_or(spec.engine),
            // Degraded-input semantics are part of what the detector saw;
            // a what-if run never overrides them.
            gap_policy: spec.gap_policy,
            reorder_slack: spec.reorder_slack,
        }
    }
}

struct Args {
    wal: PathBuf,
    session: Option<u64>,
    list: bool,
    out: Option<PathBuf>,
    overrides: Overrides,
}

fn usage(code: i32) -> ! {
    eprintln!(
        "usage: cad-replay --wal <dir> [--session <id>] [--list] [--out <path>]\n\
         \x20      [--engine exact|incremental[:N]] [--window W] [--stride S]\n\
         \x20      [--k K] [--tau T] [--theta TH] [--eta E] [--rc-horizon H]"
    );
    std::process::exit(code);
}

fn fail(msg: &str) -> ! {
    eprintln!("cad-replay: {msg}");
    std::process::exit(1);
}

fn parse_args() -> Args {
    let mut args = Args {
        wal: PathBuf::new(),
        session: None,
        list: false,
        out: None,
        overrides: Overrides::default(),
    };
    let mut it = std::env::args().skip(1);
    fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
        it.next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
    }
    fn num<T: std::str::FromStr>(raw: String, flag: &str) -> T {
        raw.parse()
            .unwrap_or_else(|_| fail(&format!("{flag}={raw} is not a valid value")))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--wal" => args.wal = PathBuf::from(value(&mut it, "--wal")),
            "--session" => args.session = Some(num(value(&mut it, "--session"), "--session")),
            "--list" => args.list = true,
            "--out" => args.out = Some(PathBuf::from(value(&mut it, "--out"))),
            "--engine" => {
                let raw = value(&mut it, "--engine");
                args.overrides.engine = Some(match raw.as_str() {
                    "exact" => WalEngine::Exact,
                    "incremental" => WalEngine::Incremental { rebuild_every: 0 },
                    other => match other.strip_prefix("incremental:") {
                        Some(n) => WalEngine::Incremental {
                            rebuild_every: num(n.to_string(), "--engine incremental:N"),
                        },
                        None => fail(&format!("--engine {raw}: expected exact|incremental[:N]")),
                    },
                });
            }
            "--window" => args.overrides.w = Some(num(value(&mut it, "--window"), "--window")),
            "--stride" => args.overrides.s = Some(num(value(&mut it, "--stride"), "--stride")),
            "--k" => args.overrides.k = Some(num(value(&mut it, "--k"), "--k")),
            "--tau" => args.overrides.tau = Some(num(value(&mut it, "--tau"), "--tau")),
            "--theta" => args.overrides.theta = Some(num(value(&mut it, "--theta"), "--theta")),
            "--eta" => args.overrides.eta = Some(num(value(&mut it, "--eta"), "--eta")),
            "--rc-horizon" => {
                args.overrides.rc_horizon =
                    Some(num(value(&mut it, "--rc-horizon"), "--rc-horizon"))
            }
            "--help" | "-h" => usage(0),
            other => fail(&format!("unknown flag {other} (try --help)")),
        }
    }
    if args.wal.as_os_str().is_empty() {
        usage(2);
    }
    args
}

/// One stream-ordered ingest event of a lifetime: an accepted push batch
/// or a mid-stream sensor reshape. Replay must interleave them exactly as
/// the live server did, or widths stop matching.
enum Op {
    Push {
        base_tick: u64,
        n_sensors: u32,
        samples: Vec<f64>,
    },
    Reshape {
        n_sensors: u32,
    },
}

/// One session's reconstructed final lifetime: the records since its most
/// recent `Create`, in log order.
#[derive(Default)]
struct Lifetime {
    spec: Option<WalSpec>,
    ops: Vec<Op>,
    creates: u64,
    closes: u64,
    closed: bool,
}

impl Lifetime {
    fn pushes(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::Push { .. }))
            .count()
    }

    fn ticks(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Push {
                    n_sensors, samples, ..
                } => (samples.len() / (*n_sensors).max(1) as usize) as u64,
                Op::Reshape { .. } => 0,
            })
            .sum()
    }
}

fn lifetimes(records: Vec<WalRecord>) -> BTreeMap<u64, Lifetime> {
    let mut out: BTreeMap<u64, Lifetime> = BTreeMap::new();
    for rec in records {
        let life = out.entry(rec.session_id()).or_default();
        match rec {
            WalRecord::Create { spec, .. } => {
                life.creates += 1;
                // A re-create after a close starts a fresh history; replay
                // targets the newest lifetime.
                life.spec = Some(spec);
                life.ops.clear();
                life.closed = false;
            }
            WalRecord::Push {
                base_tick,
                n_sensors,
                samples,
                ..
            } => life.ops.push(Op::Push {
                base_tick,
                n_sensors,
                samples,
            }),
            WalRecord::Reshape { n_sensors, .. } => life.ops.push(Op::Reshape { n_sensors }),
            WalRecord::Close { .. } => {
                life.closes += 1;
                life.closed = true;
            }
            // Older builds logged file watermarks; replay has no use for them.
            WalRecord::Checkpoint { .. } => {}
        }
    }
    out
}

/// One detection round of a replay run.
struct Round {
    tick: u64,
    n_r: u64,
    zscore_bits: u64,
    abnormal: bool,
    outliers: Vec<u32>,
}

/// Re-run one lifetime's stream-ordered ops under `spec`, from tick 0.
fn run(spec: &WalSpec, ops: &[Op]) -> Result<(Vec<Round>, u64), String> {
    let config = config_from_wal_spec(spec).map_err(|e| format!("invalid config: {e}"))?;
    let n = spec.n_sensors as usize;
    let mut stream = StreamingCad::new(CadDetector::new(n, config));
    let mut rounds = Vec::new();
    for op in ops {
        match op {
            Op::Reshape { n_sensors } => {
                let m = *n_sensors as usize;
                let width = stream.detector().n_sensors();
                if m < 2 {
                    return Err(format!("logged reshape to {m} sensors is invalid"));
                }
                if m > width && !stream.detector().config().gap_policy.is_masked() {
                    return Err(format!(
                        "logged reshape grows {width} -> {m} sensors but the \
                         session's gap policy is strict"
                    ));
                }
                stream.reshape_sensors(m);
            }
            Op::Push {
                base_tick,
                n_sensors,
                samples,
            } => {
                let width = stream.detector().n_sensors();
                if *n_sensors as usize != width {
                    return Err(format!(
                        "batch at tick {base_tick} has width {n_sensors}, session has {width}"
                    ));
                }
                let spliced = cad_core::splice_batch(&mut stream, *base_tick, width, samples)
                    .map_err(|e| {
                        format!(
                            "batch at tick {base_tick}: {e}\n\
                             (replay needs the full history from tick 0; if the live \
                             server compacted the log against a snapshot, the prefix is \
                             gone and this session cannot be re-detected offline)"
                        )
                    })?;
                rounds.extend(spliced.into_iter().map(|r| Round {
                    tick: r.tick,
                    n_r: r.outcome.n_r as u64,
                    zscore_bits: r.outcome.zscore.to_bits(),
                    abnormal: r.outcome.abnormal,
                    outliers: r.outcome.outliers.iter().map(|&v| v as u32).collect(),
                }));
            }
        }
    }
    Ok((rounds, stream.samples_seen() as u64))
}

fn engine_json(e: &WalEngine) -> String {
    match e {
        WalEngine::Exact => "{\"kind\":\"exact\"}".into(),
        WalEngine::Incremental { rebuild_every } => {
            format!("{{\"kind\":\"incremental\",\"rebuild_every\":{rebuild_every}}}")
        }
    }
}

fn spec_json(spec: &WalSpec) -> String {
    let gap_policy = match spec.gap_policy {
        WalGapPolicy::Fail => "fail",
        WalGapPolicy::Skip => "skip",
        WalGapPolicy::HoldLast => "hold_last",
    };
    format!(
        "{{\"n_sensors\":{},\"w\":{},\"s\":{},\"k\":{},\"tau\":{},\"theta\":{},\
         \"eta\":{},\"rc_horizon\":{},\"engine\":{},\"gap_policy\":\"{}\",\
         \"reorder_slack\":{}}}",
        spec.n_sensors,
        spec.w,
        spec.s,
        spec.k,
        spec.tau,
        spec.theta,
        spec.eta,
        spec.rc_horizon,
        engine_json(&spec.engine),
        gap_policy,
        spec.reorder_slack
    )
}

fn round_json(r: &Round) -> String {
    let outliers = r
        .outliers
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"tick\":{},\"n_r\":{},\"zscore_bits\":{},\"abnormal\":{},\"outliers\":[{}]}}",
        r.tick, r.n_r, r.zscore_bits, r.abnormal, outliers
    )
}

fn run_json(spec: &WalSpec, rounds: &[Round], ticks: u64) -> String {
    let anomalies = rounds.iter().filter(|r| r.abnormal).count();
    let body = rounds.iter().map(round_json).collect::<Vec<_>>().join(",");
    format!(
        "{{\"spec\":{},\"ticks\":{},\"rounds\":{},\"anomalies\":{},\"outcomes\":[{}]}}",
        spec_json(spec),
        ticks,
        rounds.len(),
        anomalies,
        body
    )
}

fn opt_tick(t: Option<u64>) -> String {
    match t {
        Some(t) => t.to_string(),
        None => "null".into(),
    }
}

/// Round-by-round verdict diff plus Ahead/Miss of the what-if run against
/// the base run's abnormal episodes.
fn diff_json(base: &[Round], what_if: &[Round], base_stride: u32, ticks: u64) -> String {
    let base_by_tick: BTreeMap<u64, &Round> = base.iter().map(|r| (r.tick, r)).collect();
    let what_by_tick: BTreeMap<u64, &Round> = what_if.iter().map(|r| (r.tick, r)).collect();

    let mut changed: Vec<String> = Vec::new();
    let mut changed_total = 0u64;
    let mut zscore_changed = 0u64;
    let mut common = 0u64;
    for (tick, b) in &base_by_tick {
        let Some(w) = what_by_tick.get(tick) else {
            continue;
        };
        common += 1;
        if b.zscore_bits != w.zscore_bits {
            zscore_changed += 1;
        }
        if b.abnormal != w.abnormal {
            changed_total += 1;
            if changed.len() < MAX_LISTED {
                changed.push(format!(
                    "{{\"tick\":{},\"base\":{},\"what_if\":{}}}",
                    tick, b.abnormal, w.abnormal
                ));
            }
        }
    }
    let only_base = base.len() as u64 - common;
    let only_what_if = what_if.len() as u64 - common;

    // Ahead/Miss: one reference episode per run of base-abnormal coverage.
    // A base-abnormal round at tick t is charged to the stride of ticks it
    // closed, (t - s + 1)..=t; adjacent strides merge into one episode.
    let n = ticks as usize;
    let mut truth = vec![false; n];
    let mut base_mask = vec![false; n];
    let mut what_mask = vec![false; n];
    for r in base.iter().filter(|r| r.abnormal) {
        let t = r.tick as usize;
        if t < n {
            base_mask[t] = true;
            let from = (r.tick + 1).saturating_sub(base_stride as u64) as usize;
            for slot in truth.iter_mut().take(t + 1).skip(from) {
                *slot = true;
            }
        }
    }
    for r in what_if.iter().filter(|r| r.abnormal) {
        let t = r.tick as usize;
        if t < n {
            what_mask[t] = true;
        }
    }
    let am = ahead_miss(&what_mask, &base_mask, &truth);
    let base_hits = detection_delays(&base_mask, &truth);
    let what_hits = detection_delays(&what_mask, &truth);
    let eps = segments(&truth);
    let mut episodes: Vec<String> = Vec::new();
    for (i, seg) in eps.iter().enumerate().take(MAX_LISTED) {
        episodes.push(format!(
            "{{\"start\":{},\"end\":{},\"base_hit\":{},\"what_if_hit\":{}}}",
            seg.start,
            seg.end,
            opt_tick(base_hits[i].map(|t| t as u64)),
            opt_tick(what_hits[i].map(|t| t as u64)),
        ));
    }

    format!(
        "{{\"rounds_base\":{},\"rounds_what_if\":{},\"common_ticks\":{},\
         \"only_base_ticks\":{},\"only_what_if_ticks\":{},\
         \"verdicts_changed_total\":{},\"zscore_changed_total\":{},\
         \"verdicts_changed\":[{}],\
         \"episodes_total\":{},\"episodes\":[{}],\
         \"ahead\":{},\"miss\":{},\"detected_base\":{},\"detected_what_if\":{}}}",
        base.len(),
        what_if.len(),
        common,
        only_base,
        only_what_if,
        changed_total,
        zscore_changed,
        changed.join(","),
        eps.len(),
        episodes.join(","),
        am.ahead,
        am.miss,
        base_hits.iter().filter(|h| h.is_some()).count(),
        am.detected,
    )
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = parse_args();
    let (records, scan) = match scan_wal(&args.wal) {
        Ok(r) => r,
        Err(e) => fail(&format!("scanning {}: {e}", args.wal.display())),
    };
    for note in &scan.notes {
        eprintln!("cad-replay: note: {note}");
    }
    let sessions = lifetimes(records);
    if args.list {
        let rows: Vec<String> = sessions
            .iter()
            .map(|(id, life)| {
                format!(
                    "{{\"session_id\":{},\"creates\":{},\"closes\":{},\"pushes\":{},\
                     \"ticks\":{},\"closed\":{},\"spec\":{}}}",
                    id,
                    life.creates,
                    life.closes,
                    life.pushes(),
                    life.ticks(),
                    life.closed,
                    life.spec
                        .as_ref()
                        .map(spec_json)
                        .unwrap_or_else(|| "null".into()),
                )
            })
            .collect();
        println!("{{\"sessions\":[{}]}}", rows.join(","));
        return;
    }
    let session_id = match args.session {
        Some(id) => id,
        None if sessions.len() == 1 => *sessions.keys().next().expect("len checked"),
        None => fail(&format!(
            "the log holds {} sessions; pick one with --session (see --list)",
            sessions.len()
        )),
    };
    let Some(life) = sessions.get(&session_id) else {
        fail(&format!("no records for session {session_id} in the log"));
    };
    let Some(spec) = life.spec else {
        fail(&format!(
            "session {session_id} has no Create record in the log (prefix \
             compacted?); replay needs the full history"
        ));
    };
    let what_spec = args.overrides.apply(&spec);
    let (base_rounds, base_ticks) =
        run(&spec, &life.ops).unwrap_or_else(|e| fail(&format!("base run: {e}")));
    let (what_rounds, what_ticks) =
        run(&what_spec, &life.ops).unwrap_or_else(|e| fail(&format!("what-if run: {e}")));

    let report = format!(
        "{{\"wal_dir\":{},\"session_id\":{},\
         \"scan\":{{\"shards\":{},\"segments\":{},\"dropped_records\":{},\
         \"dropped_bytes\":{},\"corrupt_segments\":{}}},\
         \"pushes\":{},\"base\":{},\"what_if\":{},\"diff\":{}}}",
        json_escape(&args.wal.display().to_string()),
        session_id,
        scan.shards,
        scan.segments,
        scan.dropped_records,
        scan.dropped_bytes,
        scan.corrupt_segments,
        life.pushes(),
        run_json(&spec, &base_rounds, base_ticks),
        run_json(&what_spec, &what_rounds, what_ticks),
        diff_json(
            &base_rounds,
            &what_rounds,
            spec.s,
            base_ticks.max(what_ticks)
        ),
    );
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{report}\n")) {
                fail(&format!("writing {}: {e}", path.display()));
            }
        }
        None => println!("{report}"),
    }
}
