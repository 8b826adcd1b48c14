//! Cached `cad-obs` handles for the serving layer.
//!
//! Same pattern as `cad-core`: each handle registers once in the global
//! registry and is cached in a `OnceLock`, so the connection handlers and
//! the pumps pay a relaxed atomic op per event, not a registry lookup.
//!
//! Metric inventory:
//!
//! | name                           | kind      | labels  | meaning                                  |
//! |--------------------------------|-----------|---------|------------------------------------------|
//! | `serve_queue_depth_ticks`      | gauge     | —       | total pending ticks across the shard queues after the last enqueue/drain |
//! | `serve_push_latency_nanos`     | histogram | —       | PushSamples handling, frame-in to reply-ready |
//! | `serve_backpressure_wait_nanos`| histogram | —       | time a throttled push waited for queue admission |
//! | `serve_error_frames_total`     | counter   | `code`  | error frames produced, by protocol code  |
//! | `serve_shard_sessions`         | gauge     | `shard` | resident sessions owned by each shard    |
//! | `serve_resident_sessions`      | gauge     | —       | sessions resident in memory, all shards  |
//! | `serve_hibernated_sessions`    | gauge     | —       | sessions spilled to the hibernation tier |
//! | `serve_hibernations_total`     | counter   | —       | sessions spilled since process start     |
//! | `serve_resurrections_total`    | counter   | —       | sessions resurrected since process start |
//! | `serve_resurrect_latency_nanos`| histogram | —       | spill-read-to-resident resurrection time |
//! | `serve_poller_ready_depth`     | gauge     | —       | data-plane connections awaiting a worker after the last data-plane poll wake |
//! | `serve_poller_ready_peak`      | gauge     | —       | high-water mark of the ready backlog     |
//! | `cad_process_resident_bytes`   | gauge     | —       | process RSS (Linux; sampled by the pumps, see `cad-obs`) |
//! | `cad_process_threads`          | gauge     | —       | live threads (sampled with the RSS gauge, see `cad-obs`) |
//! | `serve_wal_append_nanos`       | histogram | —       | one WAL append, encode to (optional) fsync return |
//! | `serve_wal_fsyncs_total`       | counter   | —       | fsync calls issued by WAL appends        |
//! | `serve_wal_append_errors_total`| counter   | —       | WAL appends that failed (serving continued) |
//! | `serve_wal_segments`           | gauge     | —       | live WAL segment files across all shards |
//! | `serve_wal_bytes`              | gauge     | —       | bytes across all live WAL segments       |
//! | `serve_wal_compacted_segments_total` | counter | —   | sealed segments reclaimed by compaction  |
//! | `serve_wal_recovered_records_total`  | counter | —   | WAL records replayed at startup          |
//! | `serve_wal_recovered_ticks_total`    | counter | —   | ticks spliced into sessions at startup   |
//! | `serve_wal_recovery_dropped_total`   | counter | —   | WAL records dropped during recovery      |
//! | `serve_wal_recovery_gaps_total`      | counter | —   | tick-gap splice failures during recovery |
//! | `serve_wal_retention_deleted_total`  | counter | —   | sealed segments force-removed by size-based retention |
//! | `cad_tick_stage_nanos`         | histogram | `stage` | per-push time in each pipeline stage (`queue_wait`, `dispatch`, `engine`, `wal_append`, `ack_flush`) |
//! | `serve_selfwatch_abnormal`     | counter   | —       | abnormal verdicts from the self-watch detector |

use std::sync::{Arc, OnceLock};

use cad_obs::{Counter, Gauge, Histogram};

pub(crate) fn queue_depth_gauge() -> &'static Arc<Gauge> {
    static HANDLE: OnceLock<Arc<Gauge>> = OnceLock::new();
    HANDLE.get_or_init(|| cad_obs::global().gauge("serve_queue_depth_ticks", &[]))
}

pub(crate) fn push_latency() -> &'static Arc<Histogram> {
    static HANDLE: OnceLock<Arc<Histogram>> = OnceLock::new();
    HANDLE.get_or_init(|| cad_obs::global().histogram("serve_push_latency_nanos", &[]))
}

pub(crate) fn backpressure_wait() -> &'static Arc<Histogram> {
    static HANDLE: OnceLock<Arc<Histogram>> = OnceLock::new();
    HANDLE.get_or_init(|| cad_obs::global().histogram("serve_backpressure_wait_nanos", &[]))
}

pub(crate) fn resident_sessions_gauge() -> &'static Arc<Gauge> {
    static HANDLE: OnceLock<Arc<Gauge>> = OnceLock::new();
    HANDLE.get_or_init(|| cad_obs::global().gauge("serve_resident_sessions", &[]))
}

pub(crate) fn hibernated_sessions_gauge() -> &'static Arc<Gauge> {
    static HANDLE: OnceLock<Arc<Gauge>> = OnceLock::new();
    HANDLE.get_or_init(|| cad_obs::global().gauge("serve_hibernated_sessions", &[]))
}

pub(crate) fn hibernations_total() -> &'static Arc<Counter> {
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| cad_obs::global().counter("serve_hibernations_total", &[]))
}

pub(crate) fn resurrections_total() -> &'static Arc<Counter> {
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| cad_obs::global().counter("serve_resurrections_total", &[]))
}

pub(crate) fn resurrect_latency() -> &'static Arc<Histogram> {
    static HANDLE: OnceLock<Arc<Histogram>> = OnceLock::new();
    HANDLE.get_or_init(|| cad_obs::global().histogram("serve_resurrect_latency_nanos", &[]))
}

pub(crate) fn poller_ready_depth() -> &'static Arc<Gauge> {
    static HANDLE: OnceLock<Arc<Gauge>> = OnceLock::new();
    HANDLE.get_or_init(|| cad_obs::global().gauge("serve_poller_ready_depth", &[]))
}

pub(crate) fn poller_ready_peak() -> &'static Arc<Gauge> {
    static HANDLE: OnceLock<Arc<Gauge>> = OnceLock::new();
    HANDLE.get_or_init(|| cad_obs::global().gauge("serve_poller_ready_peak", &[]))
}

pub(crate) fn wal_append_latency() -> &'static Arc<Histogram> {
    static HANDLE: OnceLock<Arc<Histogram>> = OnceLock::new();
    HANDLE.get_or_init(|| cad_obs::global().histogram("serve_wal_append_nanos", &[]))
}

pub(crate) fn wal_fsyncs_total() -> &'static Arc<Counter> {
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| cad_obs::global().counter("serve_wal_fsyncs_total", &[]))
}

pub(crate) fn wal_append_errors_total() -> &'static Arc<Counter> {
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| cad_obs::global().counter("serve_wal_append_errors_total", &[]))
}

pub(crate) fn wal_segments_gauge() -> &'static Arc<Gauge> {
    static HANDLE: OnceLock<Arc<Gauge>> = OnceLock::new();
    HANDLE.get_or_init(|| cad_obs::global().gauge("serve_wal_segments", &[]))
}

pub(crate) fn wal_bytes_gauge() -> &'static Arc<Gauge> {
    static HANDLE: OnceLock<Arc<Gauge>> = OnceLock::new();
    HANDLE.get_or_init(|| cad_obs::global().gauge("serve_wal_bytes", &[]))
}

pub(crate) fn wal_compactions_total() -> &'static Arc<Counter> {
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| cad_obs::global().counter("serve_wal_compacted_segments_total", &[]))
}

pub(crate) fn wal_recovered_records_total() -> &'static Arc<Counter> {
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| cad_obs::global().counter("serve_wal_recovered_records_total", &[]))
}

pub(crate) fn wal_recovered_ticks_total() -> &'static Arc<Counter> {
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| cad_obs::global().counter("serve_wal_recovered_ticks_total", &[]))
}

pub(crate) fn wal_recovery_dropped_total() -> &'static Arc<Counter> {
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| cad_obs::global().counter("serve_wal_recovery_dropped_total", &[]))
}

pub(crate) fn wal_recovery_gaps_total() -> &'static Arc<Counter> {
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| cad_obs::global().counter("serve_wal_recovery_gaps_total", &[]))
}

pub(crate) fn wal_retention_deleted_total() -> &'static Arc<Counter> {
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| cad_obs::global().counter("serve_wal_retention_deleted_total", &[]))
}

pub(crate) fn selfwatch_abnormal_total() -> &'static Arc<Counter> {
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| cad_obs::global().counter("serve_selfwatch_abnormal", &[]))
}

/// Per-stage tick-latency histogram, one cached handle per pipeline stage
/// (see [`crate::timing`] for the stage definitions).
pub(crate) fn tick_stage(stage: &'static str) -> &'static Arc<Histogram> {
    static QUEUE: OnceLock<Arc<Histogram>> = OnceLock::new();
    static DISPATCH: OnceLock<Arc<Histogram>> = OnceLock::new();
    static ENGINE: OnceLock<Arc<Histogram>> = OnceLock::new();
    static WAL: OnceLock<Arc<Histogram>> = OnceLock::new();
    static ACK: OnceLock<Arc<Histogram>> = OnceLock::new();
    let handle = match stage {
        "queue_wait" => &QUEUE,
        "dispatch" => &DISPATCH,
        "engine" => &ENGINE,
        "wal_append" => &WAL,
        "ack_flush" => &ACK,
        other => unreachable!("unknown tick stage {other}"),
    };
    handle.get_or_init(|| cad_obs::global().histogram("cad_tick_stage_nanos", &[("stage", stage)]))
}

/// Count one produced error frame under its protocol code. Error paths
/// are cold, so the per-call registry lookup (and label allocation) is
/// acceptable here.
pub(crate) fn count_error_frame(code: u16) {
    let label = code.to_string();
    cad_obs::global()
        .counter("serve_error_frames_total", &[("code", &label)])
        .inc();
}

/// The resident-session gauge for one shard; cached per [`Shard`] at
/// construction.
pub(crate) fn shard_sessions_gauge(shard_index: usize) -> Arc<Gauge> {
    let label = shard_index.to_string();
    cad_obs::global().gauge("serve_shard_sessions", &[("shard", &label)])
}
