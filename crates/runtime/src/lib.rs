//! # cad-runtime — deterministic parallelism for the CAD hot path
//!
//! The paper's deployment story (§IV-F) has the detector "run concurrently
//! with new data collection"; this crate is the substrate that makes the
//! reproduction's hot paths — TSG k-NN construction, per-round Pearson
//! matrices, the bench harness fan-out and multi-stream sharding — exploit
//! every core **without ever changing a single output bit**.
//!
//! ## Determinism contract
//!
//! 1. **Fixed chunking.** Work is split into chunks whose boundaries depend
//!    only on the problem size (and, for [`par_map_ranges`]/[`par_chunks`],
//!    an explicit caller-chosen chunk size) — never on how many threads
//!    happen to run or which thread grabs which chunk.
//! 2. **Ordered results.** Every primitive returns results positioned by
//!    chunk/element index, so downstream iteration (including
//!    floating-point reductions) always folds in the same order.
//! 3. **Pure workers.** Closures receive an index/range and must not
//!    communicate across chunks; under that discipline, a run with
//!    `CAD_RUNTIME_THREADS=1` is bit-identical to a run with 64 threads.
//!
//! The thread count comes from [`effective_threads`]: an in-process
//! override (for A/B benches), else the `CAD_RUNTIME_THREADS` environment
//! variable, else `std::thread::available_parallelism`. The override and
//! the variable keep their per-call meaning; the hardware count is read
//! once per process and cached, because reading it re-reads the cgroup
//! files each time.
//!
//! A lightweight per-phase timing registry ([`Timer`]/[`PhaseStats`]) lets
//! the bench reporters serialize where each round's time went.

pub mod pool;
pub mod stats;

pub use pool::{
    effective_threads, par_chunks, par_map_indexed, par_map_mut, par_map_ranges,
    with_thread_override, ENV_THREADS,
};
pub use stats::{phase_snapshot, phases_json, reset_phase_stats, PhaseStats, Timer};
