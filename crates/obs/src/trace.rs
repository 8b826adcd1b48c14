//! Bounded ring-buffer event tracer.
//!
//! Instrumentation sites emit typed [`TraceEvent`]s through the global
//! [`tracer`]; the ring keeps the most recent `capacity` events and every
//! event carries a monotonically increasing sequence number so a wrapped
//! ring still shows *where* it wrapped. Events deliberately carry **no
//! timestamps**: under `CAD_RUNTIME_THREADS=1` the emitted stream is a
//! pure function of the input stream, which is what the bit-reproducibility
//! test in `tests/obs_integration.rs` checks.
//!
//! Tracing is off by default (zero capacity → one relaxed atomic load per
//! emit). Enable it with `CAD_OBS_TRACE=<capacity>` in the environment, or
//! programmatically with [`Tracer::set_capacity`] (which also clears the
//! ring and restarts sequence numbering — tests use this as a reset).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable holding the global ring capacity.
pub const ENV_TRACE: &str = "CAD_OBS_TRACE";

/// A structured observability event. Variants mirror the lifecycle of the
/// detector core and the serving layer; fields are plain integers so the
/// stream is cheap and deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A detection round completed with `n_r` correlation survivors.
    RoundEvaluated { n_r: u64, abnormal: bool },
    /// A round crossed the η·σ threshold and was flagged.
    AnomalyFlagged { n_r: u64 },
    /// The incremental engine fell back to an exact rebuild.
    RebuildTriggered { rounds_since_rebuild: u64 },
    /// The serve ingress queue refused a fast-path enqueue.
    BackpressureEntered { queue_depth: u64 },
    /// A throttled push was admitted to its ingress queue.
    BackpressureExited { waited_nanos: u64 },
    /// A session was admitted.
    SessionCreated { session_id: u64 },
    /// A session was closed or evicted.
    SessionDropped { session_id: u64 },
    /// A session worker panicked and the session was quarantined.
    SessionPanicked { session_id: u64 },
    /// A session's state file was written (hibernation, on-demand
    /// snapshot or shutdown).
    SnapshotSaved { session_id: u64 },
    /// An idle session spilled its state to the hibernation tier.
    SessionHibernated { session_id: u64 },
    /// A hibernated session was loaded back into memory.
    SessionResurrected { session_id: u64 },
    /// A session's sensor set was resized mid-stream.
    SessionReshaped { session_id: u64, n_sensors: u32 },
    /// The server's self-watch detector flagged its own metric stream as
    /// abnormal (`n_r` correlation-break survivors among the metrics).
    SelfWatchAbnormal { n_r: u64 },
}

/// An event plus its position in the global emission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracedEvent {
    /// 0-based emission index since process start (or the last
    /// [`Tracer::set_capacity`] reset). Gaps reveal ring overwrites.
    pub seq: u64,
    pub event: TraceEvent,
}

#[derive(Debug, Default)]
struct Ring {
    capacity: usize,
    next_seq: u64,
    events: VecDeque<TracedEvent>,
}

/// The bounded event ring; use [`tracer`] for the process-global one.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    ring: Mutex<Ring>,
}

impl Tracer {
    /// A tracer with the given ring capacity (0 disables emission).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            enabled: AtomicBool::new(capacity > 0),
            ring: Mutex::new(Ring {
                capacity,
                ..Ring::default()
            }),
        }
    }

    /// Whether emits are currently recorded (cheap; safe on hot paths).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record `event` if tracing is enabled.
    #[inline]
    pub fn emit(&self, event: TraceEvent) {
        if !self.enabled() {
            return;
        }
        self.emit_slow(event);
    }

    fn emit_slow(&self, event: TraceEvent) {
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.capacity == 0 {
            return;
        }
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.events.len() == ring.capacity {
            ring.events.pop_front();
        }
        ring.events.push_back(TracedEvent { seq, event });
    }

    /// Drain the ring, returning the retained events in emission order.
    pub fn take(&self) -> Vec<TracedEvent> {
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        ring.events.drain(..).collect()
    }

    /// Copy the retained events without draining.
    pub fn events(&self) -> Vec<TracedEvent> {
        let ring = self.ring.lock().expect("trace ring poisoned");
        ring.events.iter().copied().collect()
    }

    /// Resize the ring, clearing it and restarting sequence numbers.
    /// Capacity 0 disables tracing.
    pub fn set_capacity(&self, capacity: usize) {
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        ring.capacity = capacity;
        ring.next_seq = 0;
        ring.events.clear();
        self.enabled.store(capacity > 0, Ordering::Relaxed);
    }
}

/// The process-global tracer. Capacity comes from `CAD_OBS_TRACE` at first
/// use (unset, empty, or unparsable → 0 → disabled).
pub fn tracer() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let capacity = std::env::var(ENV_TRACE)
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .unwrap_or(0);
        Tracer::with_capacity(capacity)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::with_capacity(0);
        t.emit(TraceEvent::AnomalyFlagged { n_r: 1 });
        assert!(!t.enabled());
        assert!(t.take().is_empty());
    }

    #[test]
    fn ring_keeps_most_recent_and_sequences_globally() {
        let t = Tracer::with_capacity(3);
        for i in 0..5 {
            t.emit(TraceEvent::SessionCreated { session_id: i });
        }
        let events = t.take();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 2);
        assert_eq!(events[2].seq, 4);
        assert_eq!(
            events[2].event,
            TraceEvent::SessionCreated { session_id: 4 }
        );
        // Drained: nothing left.
        assert!(t.take().is_empty());
    }

    #[test]
    fn set_capacity_resets_sequencing() {
        let t = Tracer::with_capacity(2);
        t.emit(TraceEvent::RebuildTriggered {
            rounds_since_rebuild: 7,
        });
        t.set_capacity(4);
        assert!(t.events().is_empty());
        t.emit(TraceEvent::BackpressureEntered { queue_depth: 9 });
        assert_eq!(t.events()[0].seq, 0);
        t.set_capacity(0);
        assert!(!t.enabled());
    }
}
