//! The `cad-serve` daemon: bind, serve, persist on shutdown.
//!
//! Configuration is environment-driven (no CLI parser dependency):
//!
//! | variable                 | default          | meaning                         |
//! |--------------------------|------------------|---------------------------------|
//! | `CAD_SERVE_ADDR`         | `127.0.0.1:7464` | bind address                    |
//! | `CAD_SERVE_SHARDS`       | runtime threads  | session worker shards           |
//! | `CAD_SERVE_MAX_SESSIONS` | `4096`           | admission limit                 |
//! | `CAD_SERVE_MAX_SENSORS`  | `1024`           | per-session sensor limit        |
//! | `CAD_SERVE_QUEUE`        | `8192`           | ingress capacity in ticks       |
//! | `CAD_SERVE_MAX_CONNS`    | `1024`           | concurrent connection cap       |
//! | `CAD_OPS_ADDR`           | unset            | HTTP ops-plane bind address     |
//! | `CAD_EXPLAIN_ROUNDS`     | `256`            | forensics journal bound (0 off) |
//! | `CAD_SERVE_PUMP_GROUPS`  | `0` (auto)       | pump groups (0 = min(shards, cores)) |
//! | `CAD_HIBERNATE_AFTER`    | `0` (off)        | idle sweeps before hibernation  |
//! | `CAD_SPILL_DIR`          | unset            | state directory (session files)  |
//! | `CAD_SERVE_IO_WORKERS`   | `0` (auto)       | connection I/O worker threads   |
//! | `CAD_SERVE_POLLER`       | platform default | poller backend: `epoll`\|`poll` |
//! | `CAD_WAL_DIR`            | unset            | write-ahead-log directory (off by default) |
//! | `CAD_WAL_FSYNC`          | `every_batch`    | WAL fsync policy: `never`\|`every_batch`\|`<n>` |
//! | `CAD_WAL_SEGMENT_BYTES`  | 4 MiB            | WAL segment size cap            |
//! | `CAD_WAL_RETAIN_BYTES`   | `0` (off)        | size-based WAL retention: drop oldest sealed segments past this |
//! | `CAD_FLIGHT_CADENCE_MS`  | `0` (off)        | flight-recorder sampling cadence |
//! | `CAD_FLIGHT_RING`        | `512`            | flight-recorder ring capacity (frames) |
//! | `CAD_FLIGHT_SPOOL`       | unset            | flight-recorder on-disk spool directory |
//! | `CAD_SELFWATCH`          | `0` (off)        | self-watch detector over the flight ring |
//! | `CAD_SELFWATCH_W`        | `32`             | self-watch window (frames)      |
//! | `CAD_SELFWATCH_S`        | `4`              | self-watch stride (frames)      |
//! | `CAD_SELFWATCH_ETA`      | `3.0`            | self-watch Chebyshev multiplier |
//! | `CAD_SELFWATCH_THETA`    | `0.1`            | self-watch communal threshold θ |
//! | `CAD_SELFWATCH_TAU`      | `0.75`           | self-watch correlation prune τ  |
//! | `CAD_SELFWATCH_HORIZON`  | `16`             | self-watch RC sliding horizon (rounds) |
//! | `CAD_OBS_DUMP`           | unset            | write metrics text here on exit |
//!
//! Shutdown is graceful on a client `Shutdown` frame: the queue drains
//! and, with `CAD_SPILL_DIR` set, every session's file is written before
//! the process exits. The retired `CAD_SERVE_SNAPSHOT_DIR` is refused
//! (exit 2) rather than ignored, so no deployment silently loses
//! persistence. With
//! `CAD_OBS_DUMP=path` set, the final state of the `cad-obs` registry is
//! written to `path` in Prometheus-style text exposition after the drain,
//! so a scrape survives the process.

use std::path::PathBuf;

use cad_serve::{CadServer, ServeConfig};

fn env_usize(key: &str, default: usize) -> usize {
    match std::env::var(key) {
        Err(_) => default,
        Ok(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("cad-serve: {key}={raw} is not a number");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let mut cfg = ServeConfig::default();
    if let Ok(addr) = std::env::var("CAD_SERVE_ADDR") {
        cfg.addr = addr;
    }
    cfg.shards = env_usize("CAD_SERVE_SHARDS", cfg.shards);
    cfg.max_sessions = env_usize("CAD_SERVE_MAX_SESSIONS", cfg.max_sessions);
    cfg.max_sensors = env_usize("CAD_SERVE_MAX_SENSORS", cfg.max_sensors);
    cfg.queue_capacity = env_usize("CAD_SERVE_QUEUE", cfg.queue_capacity);
    cfg.max_connections = env_usize("CAD_SERVE_MAX_CONNS", cfg.max_connections);
    if std::env::var_os("CAD_SERVE_SNAPSHOT_DIR").is_some() {
        eprintln!(
            "cad-serve: CAD_SERVE_SNAPSHOT_DIR is no longer read; session state lives in \
             CAD_SPILL_DIR (set that instead)"
        );
        std::process::exit(2);
    }
    cfg.ops_addr = std::env::var("CAD_OPS_ADDR").ok();
    cfg.explain_rounds = env_usize("CAD_EXPLAIN_ROUNDS", cfg.explain_rounds);
    cfg.pump_groups = env_usize("CAD_SERVE_PUMP_GROUPS", cfg.pump_groups);
    cfg.hibernate_after_rounds = env_usize("CAD_HIBERNATE_AFTER", cfg.hibernate_after_rounds);
    cfg.spill_dir = std::env::var("CAD_SPILL_DIR").ok().map(PathBuf::from);
    cfg.io_workers = env_usize("CAD_SERVE_IO_WORKERS", cfg.io_workers);
    cfg.wal_dir = std::env::var("CAD_WAL_DIR").ok().map(PathBuf::from);
    if let Ok(raw) = std::env::var("CAD_WAL_FSYNC") {
        cfg.wal_fsync = cad_wal::FsyncPolicy::parse(&raw).unwrap_or_else(|| {
            eprintln!("cad-serve: CAD_WAL_FSYNC={raw} is not never|every_batch|<n>");
            std::process::exit(2);
        });
    }
    cfg.wal_segment_bytes =
        env_usize("CAD_WAL_SEGMENT_BYTES", cfg.wal_segment_bytes as usize) as u64;
    cfg.wal_retain_bytes = env_usize("CAD_WAL_RETAIN_BYTES", cfg.wal_retain_bytes as usize) as u64;
    cfg.flight = cad_obs::FlightConfig::from_env();
    cfg.selfwatch = cad_serve::SelfWatchConfig::from_env();
    if cfg.selfwatch.is_some() && cfg.flight.is_none() {
        eprintln!(
            "cad-serve: CAD_SELFWATCH needs the flight recorder; set CAD_FLIGHT_CADENCE_MS too"
        );
        std::process::exit(2);
    }

    let server = match CadServer::bind(cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cad-serve: bind {} failed: {e}", cfg.addr);
            std::process::exit(1);
        }
    };
    let addr = server.local_addr().expect("local_addr");
    if let Some(ops) = server.local_ops_addr() {
        eprintln!("cad-serve: ops plane on http://{ops} (/metrics /healthz /readyz /tracez /wal /sessions /explain /slowz /flightz /selfwatch)");
    }
    if let Some(fc) = &cfg.flight {
        eprintln!(
            "cad-serve: flight recorder on ({}ms cadence, ring {} frames, spool: {}); self-watch: {}",
            fc.cadence.as_millis(),
            fc.ring,
            fc.spool
                .as_deref()
                .map(|p| p.display().to_string())
                .unwrap_or_else(|| "disabled".into()),
            match &cfg.selfwatch {
                Some(sw) => format!(
                    "on (w={}, s={}, eta={}, theta={}, tau={}, horizon={})",
                    sw.w, sw.s, sw.eta, sw.theta, sw.tau, sw.horizon
                ),
                None => "disabled".into(),
            },
        );
    }
    eprintln!(
        "cad-serve: listening on {addr} ({} shards, {} max sessions, queue {} ticks, state: {}, hibernation: {})",
        cfg.shards,
        cfg.max_sessions,
        cfg.queue_capacity,
        cfg.spill_dir
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "disabled".into()),
        match (&cfg.spill_dir, cfg.hibernate_after_rounds) {
            (Some(dir), n) if n > 0 => format!("after {n} idle sweeps -> {}", dir.display()),
            _ => "disabled".into(),
        },
    );
    eprintln!(
        "cad-serve: WAL: {}",
        match &cfg.wal_dir {
            Some(dir) => format!(
                "{} (fsync {}, segments {} bytes)",
                dir.display(),
                cfg.wal_fsync,
                cfg.wal_segment_bytes
            ),
            None => "disabled".into(),
        },
    );
    match server.run() {
        Ok(persisted) => {
            if let Ok(path) = std::env::var("CAD_OBS_DUMP") {
                let text = cad_obs::global().snapshot().render_text();
                if let Err(e) = std::fs::write(&path, text) {
                    eprintln!("cad-serve: writing metrics dump to {path} failed: {e}");
                } else {
                    eprintln!("cad-serve: metrics dump written to {path}");
                }
            }
            eprintln!("cad-serve: shut down cleanly, {persisted} sessions persisted");
        }
        Err(e) => {
            eprintln!("cad-serve: server failed: {e}");
            std::process::exit(1);
        }
    }
}
