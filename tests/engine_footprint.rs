//! The incremental round's working set. A dense and a masked incremental
//! `StreamingCad` (n = 128, w = 128) warm up and stream 100 rounds; the
//! most heap either holds at once must stay under the buffers the design
//! keeps plus a stated slack. An engine that kept an `n × n` matrix or a
//! per-round copy of the window (128 KiB each here) does not fit. Own test
//! binary: the counting allocator is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

use cad_core::{CadConfig, CadDetector, EngineChoice, GapPolicy, StreamingCad};
use cad_mts::Mts;

/// Live bytes since the measurement began, and their peak.
static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn moved(delta: isize) {
    if ON.load(Relaxed) {
        let live = LIVE.fetch_add(delta, Relaxed) + delta;
        PEAK.fetch_max(live, Relaxed);
    }
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            moved(layout.size() as isize);
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        moved(-(layout.size() as isize));
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            moved(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most bytes `f` held at once; `f` only borrows what existed before.
fn peak_bytes(f: impl FnOnce()) -> usize {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
    f();
    ON.store(false, Relaxed);
    PEAK.load(Relaxed).max(0) as usize
}

const N: usize = 128;
const W: usize = 128;
const S: usize = 16;
const ROUNDS: usize = 100;

/// `N` sensors in four correlated families; with `holes`, scattered NaN
/// samples as a masked stream sees them.
fn data(len: usize, holes: bool) -> Mts {
    let series = (0..N)
        .map(|i| {
            (0..len)
                .map(|t| {
                    if holes && (t * 7 + i * 3) % 31 == 0 {
                        return f64::NAN;
                    }
                    ((t as f64) * (0.05 + 0.02 * (i % 4) as f64)).sin() * (1.0 + i as f64 * 0.01)
                        + 0.1 * (((t * 31 + i * 17) % 13) as f64 - 6.0)
                })
                .collect()
        })
        .collect();
    Mts::from_series(series)
}

/// Peak live heap of one deployment over warm-up and `ROUNDS` rounds.
fn footprint(gap_policy: GapPolicy) -> usize {
    let masked = gap_policy.is_masked();
    let his = data(4 * W, masked);
    let live = data(ROUNDS * S, masked);
    let columns: Vec<Vec<f64>> = (0..live.len()).map(|t| live.column(t)).collect();
    let config = CadConfig::builder(N)
        .window(W, S)
        .k(8)
        .tau(0.3)
        .theta(0.3)
        .engine(EngineChoice::Incremental { rebuild_every: 64 })
        .gap_policy(gap_policy)
        .build();
    let mut rounds = 0;
    let peak = peak_bytes(|| {
        let mut stream = StreamingCad::new(CadDetector::new(N, config));
        stream.warm_up(&his);
        for column in &columns {
            rounds += usize::from(stream.push_sample(column).is_some());
        }
    });
    assert_eq!(rounds, ROUNDS, "{gap_policy:?}: every step closes a round");
    peak
}

#[test]
fn incremental_round_keeps_no_matrix_and_no_window_copy() {
    const F64: usize = 8;
    let window = N * W * F64;
    let pairs = N * (N - 1) / 2 * F64;
    let block_maxima = N * N.div_ceil(8) * F64;
    // What the design keeps, in bytes: `windows` n × w buffers (the
    // stream's ring, the engine's ring of last round's window, and the
    // accumulator's rebuild scratch: one centred window dense; values,
    // masks and squares masked), `triangles` packed pair triangles (the
    // accumulator's sums, one dense and six masked, and the round's
    // correlation triangle), its block maxima, and eight n × s step
    // buffers (incoming, outgoing, their centred or derived copies and
    // the slide fold's transposed partners).
    let kept = |windows: usize, triangles: usize| {
        windows * window + triangles * pairs + block_maxima + 8 * N * S * F64
    };
    // Slack for the rest, each O(n·k) or smaller: the TSG, Louvain's
    // workspace, the co-appearance tracker, the outcome and one round's
    // selection buffers. An n × n matrix or a second n × w window is
    // 128 KiB each here.
    const SLACK: usize = 192 * 1024;
    cad_runtime::with_thread_override(1, || {
        for (gap_policy, bound) in [
            (GapPolicy::Fail, kept(3, 2) + SLACK),
            (GapPolicy::Skip, kept(5, 7) + SLACK),
        ] {
            // The first pass also fills the process-global metric
            // registries; the second sees only the deployment's own heap.
            footprint(gap_policy);
            let peak = footprint(gap_policy);
            eprintln!("{gap_policy:?}: peak {peak} B, bound {bound} B");
            assert!(
                peak <= bound,
                "{gap_policy:?}: peak live heap {peak} B exceeds {bound} B"
            );
        }
    });
}
