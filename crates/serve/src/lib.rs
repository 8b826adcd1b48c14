//! `cad-serve`: the network serving layer for CAD.
//!
//! Everything here is `std`-only: a length-prefixed binary protocol
//! ([`protocol`]), a sharded session manager behind a bounded ingress
//! queue ([`session`]), a TCP server that persists every session on
//! graceful shutdown ([`server`]) and a synchronous client ([`client`]).
//!
//! The layer is the horizontal-scale seam: clients own sensor groups
//! ("sessions"), the server multiplexes thousands of
//! [`cad_core::StreamingCad`] detectors across `cad-runtime` worker
//! shards, and every session's outcome stream is bit-identical to a
//! serial loop over the same pushes — including across a server restart,
//! which resumes sessions mid-window from their checksummed session files
//! (`cad-spill v1` header over a `cad-stream v3` payload) plus the WAL.
//! DESIGN.md ("Serving layer") documents the wire protocol table,
//! backpressure and shutdown semantics, and the session→shard routing.

#![warn(missing_docs)]

pub mod client;
pub(crate) mod metrics;
pub mod ops;
pub mod poll;
pub mod protocol;
pub mod selfwatch;
pub mod server;
pub mod session;
pub mod timing;

pub use client::{ClientError, PushResult, ServeClient, SessionHandle};
pub use poll::Poller;
pub use protocol::{
    codes, max_push_ticks, Frame, FrameReader, ServerStats, SessionSpec, SessionStats, WireEngine,
    WireGapPolicy, WireOutcome, WireRoundRecord,
};
pub use selfwatch::{SelfWatch, SelfWatchConfig, SelfWatchStatus, SelfWatchVerdict};
pub use server::{CadServer, ServeConfig, ShutdownHandle};
pub use session::{
    config_from_wal_spec, session_spec_from_wal, Command, Counters, EnqueueError, ManagerConfig,
    RebalanceError, Reply, ReplyTo, SessionManager, SessionPump, SessionRow, SessionState,
    TryEnqueueError, WalCounters, WalStatus,
};
pub use timing::{TickTimings, SLOW_RING_CAPACITY, STAGES};

#[cfg(test)]
mod tests {
    use std::sync::mpsc;

    use super::protocol::{codes, SessionSpec, WireEngine};
    use super::session::{Command, ManagerConfig, Reply, SessionManager, TryEnqueueError};

    fn manager(cfg: ManagerConfig) -> (SessionManager, std::thread::JoinHandle<usize>) {
        let (mgr, pump) = SessionManager::new(cfg).expect("manager");
        let pump = std::thread::spawn(move || pump.run());
        (mgr, pump)
    }

    fn create(mgr: &SessionManager, id: u64, spec: SessionSpec) -> Reply {
        let (tx, rx) = mpsc::channel();
        mgr.try_enqueue(Command::Create {
            session_id: id,
            spec,
            reply: tx.into(),
        })
        .expect("enqueue");
        rx.recv().expect("reply")
    }

    fn push(mgr: &SessionManager, id: u64, base: u64, n: u32, samples: Vec<f64>) -> Reply {
        let (tx, rx) = mpsc::channel();
        mgr.try_enqueue(Command::Push {
            session_id: id,
            base_tick: base,
            n_sensors: n,
            samples,
            reply: tx.into(),
        })
        .expect("enqueue");
        rx.recv().expect("reply")
    }

    fn readings(t: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|s| (t as f64 * 0.2 + s as f64 * 0.31).sin() + 0.1 * s as f64)
            .collect()
    }

    #[test]
    fn manager_outcomes_match_direct_streaming_loop() {
        use cad_core::{CadConfig, CadDetector, StreamingCad};
        let n = 4;
        let (w, s) = (32usize, 8usize);
        let ticks = 300usize;

        // Direct reference loop.
        let config = CadConfig::builder(n)
            .window(w, s)
            .k(1)
            .tau(0.3)
            .theta(0.3)
            .build();
        let mut reference = StreamingCad::new(CadDetector::new(n, config));
        let mut ref_outs = Vec::new();
        for t in 0..ticks {
            if let Some(o) = reference.push_sample(&readings(t, n)) {
                ref_outs.push((t as u64, o));
            }
        }

        // Same data through the manager, in uneven batches.
        let cfg = ManagerConfig {
            shards: 3,
            ..ManagerConfig::default()
        };
        let (mgr, pump) = manager(cfg);
        let mut spec = SessionSpec::new(n as u32, w as u32, s as u32);
        spec.k = 1;
        assert!(matches!(
            create(&mgr, 7, spec),
            Reply::Created { resumed: false, .. }
        ));
        let mut got = Vec::new();
        let mut t = 0usize;
        for batch in [1usize, 7, 19, 3, 50].iter().cycle() {
            if t >= ticks {
                break;
            }
            let len = (*batch).min(ticks - t);
            let samples: Vec<f64> = (t..t + len).flat_map(|u| readings(u, n)).collect();
            match push(&mgr, 7, t as u64, n as u32, samples) {
                Reply::Pushed { outcomes: outs, .. } => got.extend(outs),
                other => panic!("push failed: {other:?}"),
            }
            t += len;
        }
        mgr.close();
        pump.join().expect("pump");

        assert_eq!(got.len(), ref_outs.len());
        for (wire, (tick, out)) in got.iter().zip(&ref_outs) {
            assert_eq!(wire.tick, *tick);
            assert_eq!(wire.n_r, out.n_r as u64);
            assert_eq!(wire.zscore_bits, out.zscore.to_bits());
            assert_eq!(wire.abnormal, out.abnormal);
            let outliers: Vec<u32> = out.outliers.iter().map(|&v| v as u32).collect();
            assert_eq!(wire.outliers, outliers);
        }
    }

    #[test]
    fn admission_enforces_session_and_sensor_limits() {
        let (mgr, pump) = manager(ManagerConfig {
            shards: 2,
            max_sessions: 2,
            max_sensors: 8,
            ..ManagerConfig::default()
        });
        let spec = |n: u32| SessionSpec::new(n, 16, 4);
        assert!(matches!(create(&mgr, 0, spec(4)), Reply::Created { .. }));
        assert!(matches!(create(&mgr, 1, spec(4)), Reply::Created { .. }));
        match create(&mgr, 2, spec(4)) {
            Reply::Failed { code, .. } => assert_eq!(code, codes::ADMISSION),
            other => panic!("expected admission refusal, got {other:?}"),
        }
        match create(&mgr, 3, spec(9)) {
            Reply::Failed { code, .. } => assert_eq!(code, codes::ADMISSION),
            other => panic!("expected sensor-limit refusal, got {other:?}"),
        }
        // Closing one frees a slot.
        let (tx, rx) = mpsc::channel();
        mgr.try_enqueue(Command::Close {
            session_id: 1,
            reply: tx.into(),
        })
        .expect("enqueue");
        assert!(matches!(rx.recv().expect("reply"), Reply::Closed));
        assert!(matches!(
            create(&mgr, 2, spec(4)),
            Reply::Created { resumed: false, .. }
        ));
        mgr.close();
        pump.join().expect("pump");
    }

    #[test]
    fn invalid_specs_are_refused_not_panicked() {
        let (mgr, pump) = manager(ManagerConfig {
            shards: 1,
            ..ManagerConfig::default()
        });
        let bad_spec = |f: &dyn Fn(&mut SessionSpec)| {
            let mut s = SessionSpec::new(4, 16, 4);
            f(&mut s);
            s
        };
        for spec in [
            bad_spec(&|s| s.n_sensors = 1),
            bad_spec(&|s| s.s = 0),
            bad_spec(&|s| s.s = 17),
            bad_spec(&|s| s.w = 0),
            bad_spec(&|s| s.theta = 1.5),
            bad_spec(&|s| s.eta = 0.0),
            bad_spec(&|s| s.tau = f64::NAN),
            // τ outside [0,1] and a zero RC horizon feed asserting
            // constructors downstream — refusal here, not a shard panic.
            bad_spec(&|s| s.tau = 1.5),
            bad_spec(&|s| s.tau = -0.25),
            bad_spec(&|s| s.rc_horizon = Some(0)),
            bad_spec(&|s| s.engine = WireEngine::Incremental { rebuild_every: 0 }),
        ] {
            match create(&mgr, 9, spec) {
                Reply::Failed { code, .. } => assert_eq!(code, codes::BAD_SPEC),
                other => panic!("expected BAD_SPEC, got {other:?}"),
            }
        }
        mgr.close();
        pump.join().expect("pump");
    }

    #[test]
    fn out_of_order_and_ragged_pushes_are_refused() {
        let n = 4u32;
        let (mgr, pump) = manager(ManagerConfig {
            shards: 1,
            ..ManagerConfig::default()
        });
        assert!(matches!(
            create(&mgr, 5, SessionSpec::new(n, 16, 4)),
            Reply::Created { .. }
        ));
        // Wrong width.
        match push(&mgr, 5, 0, 3, vec![0.0; 9]) {
            Reply::Failed { code, .. } => assert_eq!(code, codes::BAD_PUSH),
            other => panic!("expected BAD_PUSH, got {other:?}"),
        }
        // Gap: base_tick must match samples_seen (0).
        match push(&mgr, 5, 10, n, vec![0.0; 8]) {
            Reply::Failed { code, .. } => assert_eq!(code, codes::BAD_PUSH),
            other => panic!("expected BAD_PUSH, got {other:?}"),
        }
        // Unknown session.
        match push(&mgr, 6, 0, n, vec![0.0; 8]) {
            Reply::Failed { code, .. } => assert_eq!(code, codes::UNKNOWN_SESSION),
            other => panic!("expected UNKNOWN_SESSION, got {other:?}"),
        }
        mgr.close();
        pump.join().expect("pump");
    }

    #[test]
    fn bounded_queue_blocks_then_drains_without_losing_order() {
        // Deterministic backpressure: hold the pump back by not starting
        // it until the producer has filled the queue past capacity from a
        // second thread, then assert every push lands in order.
        let n = 2u32;
        let (mgr, pump_half) = SessionManager::new(ManagerConfig {
            shards: 1,
            queue_capacity: 4, // ticks — tiny on purpose
            ..ManagerConfig::default()
        })
        .expect("manager");

        let (tx, rx) = mpsc::channel();
        mgr.try_enqueue(Command::Create {
            session_id: 1,
            spec: SessionSpec::new(n, 8, 2),
            reply: tx.into(),
        })
        .expect("enqueue");

        let producer = {
            let mgr = mgr.clone();
            std::thread::spawn(move || {
                let mut receivers = Vec::new();
                for t in 0..20u64 {
                    let (tx, rx) = mpsc::channel();
                    // Cost 2 per push against capacity 4: once the pump
                    // is asleep the third push is refused, and the
                    // producer retries the same command until it fits.
                    let mut cmd = Command::Push {
                        session_id: 1,
                        base_tick: t * 2,
                        n_sensors: n,
                        samples: vec![t as f64, -(t as f64), t as f64 + 0.5, 0.25],
                        reply: tx.into(),
                    };
                    loop {
                        match mgr.try_enqueue(cmd) {
                            Ok(_) => break,
                            Err(TryEnqueueError::Full(back)) => {
                                cmd = back;
                                std::thread::sleep(std::time::Duration::from_millis(5));
                            }
                            Err(TryEnqueueError::ShuttingDown(_)) => panic!("manager closed"),
                        }
                    }
                    receivers.push(rx);
                }
                receivers
            })
        };
        // The producer must stall: capacity 4 admits at most a few pushes
        // while nothing drains.
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert!(
            !producer.is_finished(),
            "producer should be blocked on the bounded queue"
        );
        assert!(mgr.would_block(1, 2), "queue should report saturation");
        let depth_before = mgr.queue_depth();
        assert!(depth_before >= 4, "queue should be at capacity");

        // Start the pump; everything drains and replies in order.
        let pump = std::thread::spawn(move || pump_half.run());
        let receivers = producer.join().expect("producer");
        assert!(matches!(rx.recv().expect("create"), Reply::Created { .. }));
        for rx in receivers {
            assert!(matches!(
                rx.recv().expect("push reply"),
                Reply::Pushed { .. }
            ));
        }
        assert!(
            mgr.counters()
                .peak_queue_depth
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 4
        );
        mgr.close();
        pump.join().expect("pump");
    }

    /// Drive `ticks` of data for `ids` through a manager and collect the
    /// per-session outcome streams.
    fn run_sessions(
        cfg: ManagerConfig,
        ids: &[u64],
        ticks: usize,
    ) -> Vec<(u64, Vec<super::protocol::WireOutcome>)> {
        let (mgr, pump) = manager(cfg);
        for &id in ids {
            let mut spec = SessionSpec::new(4, 16, 4);
            spec.k = 1;
            assert!(matches!(create(&mgr, id, spec), Reply::Created { .. }));
        }
        let mut outs: Vec<(u64, Vec<super::protocol::WireOutcome>)> =
            ids.iter().map(|&id| (id, Vec::new())).collect();
        let mut t = 0usize;
        for batch in [3usize, 11, 1, 7].iter().cycle() {
            if t >= ticks {
                break;
            }
            let len = (*batch).min(ticks - t);
            for (slot, &id) in ids.iter().enumerate() {
                // Distinct data per session so cross-session mixups show.
                let samples: Vec<f64> = (t..t + len)
                    .flat_map(|u| readings(u + slot * 13, 4))
                    .collect();
                match push(&mgr, id, t as u64, 4, samples) {
                    Reply::Pushed { outcomes: o, .. } => outs[slot].1.extend(o),
                    other => panic!("push failed: {other:?}"),
                }
            }
            t += len;
        }
        mgr.close();
        pump.join().expect("pump");
        outs
    }

    #[test]
    fn pump_grouping_never_changes_outcome_streams() {
        // The per-session outcome stream must be bit-identical across any
        // shard→group assignment: 1 group, one-per-shard, and an uneven
        // split all agree.
        let ids = [2u64, 9, 17, 40];
        let base = run_sessions(
            ManagerConfig {
                shards: 4,
                pump_groups: 1,
                ..ManagerConfig::default()
            },
            &ids,
            120,
        );
        for groups in [2usize, 3, 4] {
            let got = run_sessions(
                ManagerConfig {
                    shards: 4,
                    pump_groups: groups,
                    ..ManagerConfig::default()
                },
                &ids,
                120,
            );
            assert_eq!(base, got, "outcomes diverged with {groups} pump groups");
        }
    }

    #[test]
    fn rebalance_regroups_without_disturbing_sessions() {
        let (mgr, pump) = manager(ManagerConfig {
            shards: 4,
            pump_groups: 1,
            ..ManagerConfig::default()
        });
        let mut spec = SessionSpec::new(4, 16, 4);
        spec.k = 1;
        assert!(matches!(create(&mgr, 3, spec), Reply::Created { .. }));
        let first: Vec<f64> = (0..40).flat_map(|t| readings(t, 4)).collect();
        let before = match push(&mgr, 3, 0, 4, first) {
            Reply::Pushed { outcomes: o, .. } => o,
            other => panic!("push failed: {other:?}"),
        };
        assert!(!before.is_empty());
        // All replies received → the queues are quiesced.
        assert_eq!(mgr.queue_depth(), 0);
        assert_eq!(mgr.rebalance(4).expect("rebalance"), 4);
        assert_eq!(mgr.pump_groups(), 4);
        // The session keeps streaming bit-identically after the regroup.
        let second: Vec<f64> = (40..80).flat_map(|t| readings(t, 4)).collect();
        match push(&mgr, 3, 40, 4, second) {
            Reply::Pushed { outcomes: o, .. } => assert!(!o.is_empty()),
            other => panic!("push failed: {other:?}"),
        }
        // Group counts clamp to 1..=shards.
        assert_eq!(mgr.rebalance(0).expect("clamped"), 1);
        assert_eq!(mgr.rebalance(99).expect("clamped"), 4);
        mgr.close();
        pump.join().expect("pump");
    }

    #[test]
    fn hibernated_session_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!(
            "cad-hib-unit-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        std::fs::create_dir_all(&dir).expect("spill dir");
        let ticks = 200usize;

        // Reference: one resident session, no hibernation.
        let reference = run_sessions(
            ManagerConfig {
                shards: 1,
                ..ManagerConfig::default()
            },
            &[11],
            ticks,
        );

        // Same data, but a busy sibling session advances the sweep clock
        // while session 11 sits idle between its pushes, forcing it
        // through hibernate→resurrect cycles mid-stream.
        let (mgr, pump) = manager(ManagerConfig {
            shards: 1,
            hibernate_after_rounds: 2,
            spill_dir: Some(dir.clone()),
            ..ManagerConfig::default()
        });
        for id in [11u64, 12] {
            let mut spec = SessionSpec::new(4, 16, 4);
            spec.k = 1;
            assert!(matches!(create(&mgr, id, spec), Reply::Created { .. }));
        }
        let mut got = Vec::new();
        let mut t = 0usize;
        let mut busy_tick = 0u64;
        for batch in [3usize, 11, 1, 7].iter().cycle() {
            if t >= ticks {
                break;
            }
            let len = (*batch).min(ticks - t);
            // Several pushes to the busy session tick the shard's sweep
            // counter past the hibernation threshold…
            for _ in 0..4 {
                let samples: Vec<f64> = (t..t + len).flat_map(|u| readings(u + 29, 4)).collect();
                match push(&mgr, 12, busy_tick, 4, samples) {
                    Reply::Pushed { .. } => {}
                    other => panic!("busy push failed: {other:?}"),
                }
                busy_tick += len as u64;
            }
            // …then the idle session's next push transparently resurrects.
            let samples: Vec<f64> = (t..t + len).flat_map(|u| readings(u, 4)).collect();
            match push(&mgr, 11, t as u64, 4, samples) {
                Reply::Pushed { outcomes: o, .. } => got.extend(o),
                other => panic!("push failed: {other:?}"),
            }
            t += len;
        }
        let hibernations = mgr
            .counters()
            .hibernations
            .load(std::sync::atomic::Ordering::Relaxed);
        let resurrections = mgr
            .counters()
            .resurrections
            .load(std::sync::atomic::Ordering::Relaxed);
        assert!(hibernations >= 1, "session 11 never hibernated");
        assert!(resurrections >= 1, "session 11 never resurrected");
        mgr.close();
        pump.join().expect("pump");
        let _ = std::fs::remove_dir_all(&dir);

        // The outcome stream of the session that slept on disk matches
        // the always-resident reference bit for bit. (Note session 12's
        // base ticks are synthetic; only session 11 is compared.)
        assert_eq!(reference[0].1, got);
    }

    #[test]
    fn closed_queue_refuses_new_work() {
        let (mgr, pump) = manager(ManagerConfig {
            shards: 1,
            ..ManagerConfig::default()
        });
        mgr.close();
        pump.join().expect("pump");
        let (tx, _rx) = mpsc::channel();
        assert!(matches!(
            mgr.try_enqueue(Command::Create {
                session_id: 1,
                spec: SessionSpec::new(2, 8, 2),
                reply: tx.into(),
            }),
            Err(TryEnqueueError::ShuttingDown(_))
        ));
    }
}
