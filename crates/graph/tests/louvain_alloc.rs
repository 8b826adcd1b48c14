//! A warm `LouvainWorkspace` allocates nothing but the partition it
//! returns. Own test binary: the counting allocator is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cad_graph::louvain::LouvainWorkspace;
use cad_graph::{LouvainConfig, WeightedGraph};

/// Counts the allocations made by the current thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: defers every call to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// `groups` cliques of `size` joined in a ring by weak edges, plus a few
/// chords so that Louvain runs more than one level.
fn ring_of_cliques(groups: usize, size: usize) -> WeightedGraph {
    let n = groups * size;
    let mut g = WeightedGraph::new(n);
    for c in 0..groups {
        let base = c * size;
        for a in 0..size {
            for b in (a + 1)..size {
                g.add_edge(base + a, base + b, 0.6 + 0.01 * ((a * 7 + b) % 13) as f64);
            }
        }
        g.add_edge(base + size - 1, (base + size) % n, -0.2);
        g.add_edge(base, (base + 2 * size + 1) % n, 0.1);
    }
    g
}

#[test]
fn warm_workspace_allocates_only_the_partition() {
    let config = LouvainConfig::default();
    let large = ring_of_cliques(32, 8);
    let small = ring_of_cliques(5, 6);
    let mut ws = LouvainWorkspace::new();
    let (first, _) = allocations_in(|| ws.run(&large, config));
    assert!(first.n_communities() > 1 && first.n_communities() < large.n_vertices());
    for g in [&large, &small, &large] {
        let (p, count) = allocations_in(|| ws.run(g, config));
        assert_eq!(p, cad_graph::louvain(g, config));
        assert_eq!(count, 1, "a warm run allocates the partition's labels only");
    }
}
