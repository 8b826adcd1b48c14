//! Scoped, chunked fork-join primitives with deterministic outputs.
//!
//! All primitives bottom out in [`par_map_ranges`]: split `0..n` into
//! fixed-size chunks, hand chunks to scoped worker threads through an
//! atomic cursor (work stealing), and return the per-chunk results ordered
//! by chunk index. Chunk boundaries never depend on the thread count, so
//! any reduction a caller performs over the returned vector folds in a
//! thread-layout-independent order.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Environment variable overriding the worker-thread count at every
/// `cad-runtime` call site. Values `< 1` or unparsable fall back to the
/// hardware default.
pub const ENV_THREADS: &str = "CAD_RUNTIME_THREADS";

/// In-process override (0 = none). Set through [`with_thread_override`] by
/// benches and tests that A/B serial against parallel without re-exec.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The hardware thread count, read once per process:
/// `available_parallelism` re-reads the cgroup files on every call, a cost
/// every pool call would otherwise pay when no override is set.
fn hardware_threads() -> usize {
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    *HARDWARE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// The worker-thread count every primitive in this crate uses:
/// in-process override, else [`ENV_THREADS`], else hardware parallelism.
/// The override and the variable are read on every call; the hardware
/// count once per process.
pub fn effective_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced >= 1 {
        return forced;
    }
    match std::env::var(ENV_THREADS) {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(hardware_threads),
        Err(_) => hardware_threads(),
    }
}

/// Run `f` with the thread count pinned to `threads` at every call site.
///
/// The override is process-global (so it also reaches nested calls made by
/// worker threads); it is intended for single-threaded drivers — benches
/// and determinism tests — not for concurrent use from multiple threads.
pub fn with_thread_override<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    assert!(threads >= 1, "thread override must be at least 1");
    let previous = THREAD_OVERRIDE.swap(threads, Ordering::Relaxed);
    let result = f();
    THREAD_OVERRIDE.store(previous, Ordering::Relaxed);
    result
}

/// Map fixed-size index chunks to values, in parallel, results ordered by
/// chunk index.
///
/// `0..n` is split into `ceil(n / chunk)` ranges of `chunk` indices (the
/// last may be shorter). Chunk boundaries depend only on `n` and `chunk`,
/// so per-chunk partials — and any serial fold the caller runs over the
/// returned vector — are bit-identical for every thread count.
pub fn par_map_ranges<R, F>(n: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let chunk = chunk.max(1);
    let n_chunks = n.div_ceil(chunk);
    let range_of = |i: usize| -> Range<usize> { (i * chunk)..(((i + 1) * chunk).min(n)) };
    let threads = effective_threads().min(n_chunks);
    if threads <= 1 {
        return (0..n_chunks).map(|i| f(range_of(i))).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n_chunks);
    slots.resize_with(n_chunks, || None);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut produced: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n_chunks {
                            break;
                        }
                        produced.push((i, f(range_of(i))));
                    }
                    produced
                })
            })
            .collect();
        for worker in workers {
            for (i, value) in worker.join().expect("cad-runtime worker panicked") {
                slots[i] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every chunk produced"))
        .collect()
}

/// Default chunk size for element-wise maps: a few chunks per worker so
/// stealing balances uneven work without excessive cursor traffic.
fn auto_chunk(n: usize) -> usize {
    n.div_ceil(effective_threads().saturating_mul(4).max(1))
        .max(1)
}

/// Element-wise parallel map: `(0..n).map(f)` with the work spread across
/// the pool. Output position `i` always holds `f(i)`, so the result is
/// identical to the serial map for every thread layout.
pub fn par_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let per_chunk = par_map_ranges(n, auto_chunk(n), |range| range.map(&f).collect::<Vec<T>>());
    let mut out = Vec::with_capacity(n);
    for mut block in per_chunk {
        out.append(&mut block);
    }
    out
}

/// Parallel map over fixed-size sub-slices of `items`; `f` receives the
/// offset of its chunk and the chunk itself, results ordered by offset.
pub fn par_chunks<T, R, F>(items: &[T], chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    par_map_ranges(items.len(), chunk, |range| f(range.start, &items[range]))
}

/// Parallel in-place map: each element is mutated by exactly one worker and
/// the per-element results come back ordered by index. The slice is split
/// into one contiguous block per worker (fixed partition), which keeps the
/// borrow checker happy and the output order deterministic.
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = effective_threads().min(n);
    let block = n.div_ceil(threads);
    if threads <= 1 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let mut out = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let workers: Vec<_> = items
            .chunks_mut(block)
            .enumerate()
            .map(|(b, slice)| {
                let f = &f;
                scope.spawn(move || {
                    slice
                        .iter_mut()
                        .enumerate()
                        .map(|(off, item)| f(b * block + off, item))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        for worker in workers {
            out.append(&mut worker.join().expect("cad-runtime worker panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_empty_output() {
        assert!(par_map_ranges(0, 8, |r| r.len()).is_empty());
        assert!(par_map_indexed(0, |i| i).is_empty());
        assert!(par_chunks::<u32, usize, _>(&[], 4, |_, c| c.len()).is_empty());
        assert!(par_map_mut::<u32, u32, _>(&mut [], |_, v| *v).is_empty());
    }

    #[test]
    fn fewer_items_than_threads() {
        // n < any plausible thread count: every element still mapped once,
        // in order.
        let out = with_thread_override(16, || par_map_indexed(3, |i| i * 10));
        assert_eq!(out, vec![0, 10, 20]);
    }

    #[test]
    fn chunk_boundaries_are_fixed() {
        let ranges = par_map_ranges(10, 4, |r| (r.start, r.end));
        assert_eq!(ranges, vec![(0, 4), (4, 8), (8, 10)]);
        // Chunk larger than n: one chunk.
        assert_eq!(par_map_ranges(3, 100, |r| r.len()), vec![3]);
        // Zero chunk is clamped to 1.
        assert_eq!(par_map_ranges(3, 0, |r| r.start), vec![0, 1, 2]);
    }

    #[test]
    fn map_matches_serial_for_any_thread_count() {
        let serial: Vec<u64> = (0..997)
            .map(|i| (i as u64).wrapping_mul(2654435761))
            .collect();
        for threads in [1, 2, 3, 8, 64] {
            let par = with_thread_override(threads, || {
                par_map_indexed(997, |i| (i as u64).wrapping_mul(2654435761))
            });
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn chunked_reduction_is_bit_stable_across_thread_counts() {
        // Sum a pathological float series chunk-wise then fold in order:
        // the result must be bit-identical for every thread count.
        let xs: Vec<f64> = (0..10_000)
            .map(|i| ((i * 2654435761usize) % 1000) as f64 * 1e-3 - 0.3)
            .collect();
        let reduce = || -> f64 {
            par_chunks(&xs, 128, |_, c| c.iter().sum::<f64>())
                .iter()
                .sum()
        };
        let reference = with_thread_override(1, reduce);
        for threads in [2, 5, 32] {
            let sum = with_thread_override(threads, reduce);
            assert_eq!(sum.to_bits(), reference.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    fn par_map_mut_mutates_each_element_once() {
        let mut items: Vec<usize> = (0..100).collect();
        let out = with_thread_override(7, || {
            par_map_mut(&mut items, |i, v| {
                *v += 1;
                i * 2
            })
        });
        assert_eq!(items, (1..=100).collect::<Vec<_>>());
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn override_nests_and_restores() {
        with_thread_override(3, || {
            assert_eq!(effective_threads(), 3);
            with_thread_override(1, || assert_eq!(effective_threads(), 1));
            assert_eq!(effective_threads(), 3);
        });
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_override_rejected() {
        with_thread_override(0, || ());
    }
}
