//! Cross-commit golden digests: bit-level pins on the incremental engine's
//! accumulator state and on a streaming outcome sequence.
//!
//! The other bit-identity suites (`engine_parity`, `hostile_streams`,
//! `determinism`) compare two runs inside one build, so a change that
//! moves every run's bits the same way passes them. These tests compare
//! against FNV-1a digests recorded before the blocked slide kernel landed:
//! a kernel rewrite that claims bit-identity must leave every digest
//! unchanged. Each digest is checked at 1 and at 4 runtime threads, with
//! the tiled kernel pinned so a `CAD_KERNEL=scalar` environment does not
//! change what is compared.
//!
//! A digest mismatch means the arithmetic changed. If that is intended
//! (a new summation order, say), re-record the constants and say so.

use std::sync::Mutex;

use cad_core::{CadConfig, CadDetector, EngineChoice, GapPolicy, StreamingCad};
use cad_runtime::with_thread_override;
use cad_stats::{with_kernel_override, Kernel, MaskedCovState, MaskedSlidingCov, SlidingCov};

const SLIDES: usize = 300;

/// `(n, w, s)` shapes: the benchmark's wide and hostile sizes, a shape
/// straddling the tile and lane boundaries, a tiny one, and a step wider
/// than one lane block with a sequential tail.
const SHAPES: [(usize, usize, usize); 5] = [
    (256, 256, 16),
    (128, 128, 16),
    (37, 50, 7),
    (8, 64, 8),
    (20, 96, 24),
];

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &b in bytes {
            self.word(u64::from(b));
        }
    }
}

/// SplitMix64: a seeded, platform-independent value source.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Sample `t` of sensor `i`: a shared factor (so pairs correlate), a
/// per-sensor level far from zero (so the anchors matter) and noise.
/// With `nan_pct > 0`, that share of samples is missing.
fn sample(i: usize, t: usize, nan_pct: u64) -> f64 {
    let h = mix(((i as u64) << 32) ^ t as u64);
    if h % 100 < nan_pct {
        return f64::NAN;
    }
    let noise = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    let factor = (t as f64 * 0.07 + (i % 5) as f64).sin();
    100.0 * (i % 7) as f64 + (1.0 + (i % 3) as f64) * factor + noise
}

/// Row-major `n × cols` block of samples `t0..t0 + cols`.
fn block(n: usize, t0: usize, cols: usize, nan_pct: u64) -> Vec<f64> {
    (0..n)
        .flat_map(|i| (t0..t0 + cols).map(move |t| sample(i, t, nan_pct)))
        .collect()
}

/// Rebuild on the first window, then slide [`SLIDES`] times, handing each
/// round's incoming and outgoing blocks to `slide`.
fn drive(n: usize, w: usize, s: usize, nan_pct: u64, mut slide: impl FnMut(&[f64], &[f64])) {
    for r in 0..SLIDES {
        let incoming = block(n, w + r * s, s, nan_pct);
        let outgoing = block(n, r * s, s, nan_pct);
        slide(&incoming, &outgoing);
    }
}

fn dense_digest(n: usize, w: usize, s: usize) -> u64 {
    let mut cov = SlidingCov::new(n, w);
    cov.rebuild(&block(n, 0, w, 0));
    drive(n, w, s, 0, |inc, out| cov.slide(inc, out, s));
    let (anchors, s1, s2, sxy, primed) = cov.state();
    let mut h = Fnv::new();
    for part in [anchors, s1, s2, sxy] {
        h.floats(part);
    }
    h.word(u64::from(primed));
    h.0
}

fn masked_digest(n: usize, w: usize, s: usize) -> u64 {
    let mut cov = MaskedSlidingCov::new(n, w);
    cov.rebuild(&block(n, 0, w, 9));
    drive(n, w, s, 9, |inc, out| cov.slide(inc, out, s));
    let MaskedCovState {
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
        primed,
    } = cov.to_state();
    let mut h = Fnv::new();
    for part in [anchors, cnt, s1, q1, pc, psi, psj, pqi, pqj, psxy] {
        h.floats(&part);
    }
    h.word(u64::from(primed));
    h.0
}

/// Every outcome of a masked incremental `StreamingCad` fed ~9% NaN
/// ticks under `GapPolicy::Skip`, hashed through its `Debug` form (which
/// prints every `f64` at round-trip precision).
fn stream_digest() -> u64 {
    const N: usize = 24;
    let cfg = CadConfig::builder(N)
        .window(64, 8)
        .k(3)
        .tau(0.3)
        .theta(0.2)
        .engine(EngineChoice::incremental())
        .gap_policy(GapPolicy::Skip)
        .build();
    let mut stream = StreamingCad::new(CadDetector::new(N, cfg));
    let mut h = Fnv::new();
    let mut rounds = 0;
    for t in 0..1200 {
        let tick: Vec<f64> = (0..N).map(|i| sample(i, t, 9)).collect();
        for outcome in stream.push_tick(t as u64, &tick).expect("tick accepted") {
            h.bytes(format!("{outcome:?}").as_bytes());
            rounds += 1;
        }
    }
    assert!(
        rounds > 100,
        "the stream must close many rounds, got {rounds}"
    );
    h.0
}

/// Digest of `digest` pinned to the tiled kernel, checked equal at 1 and
/// at 4 runtime threads. The kernel and thread overrides are
/// process-global, so the tests of this file take turns.
fn pinned(what: &str, digest: impl Fn() -> u64) -> u64 {
    static TURN: Mutex<()> = Mutex::new(());
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let run =
        |threads| with_thread_override(threads, || with_kernel_override(Kernel::Tiled, &digest));
    let one = run(1);
    assert_eq!(one, run(4), "{what}: 1 vs 4 threads");
    one
}

/// Every shape's digest against the recorded list; the message prints the
/// whole measured list so an intended change can be re-recorded at once.
fn check_shapes(what: &str, recorded: [u64; 5], digest: impl Fn(usize, usize, usize) -> u64) {
    let got: Vec<u64> = SHAPES
        .iter()
        .map(|&(n, w, s)| pinned(&format!("{what} ({n},{w},{s})"), || digest(n, w, s)))
        .collect();
    assert_eq!(
        got, recorded,
        "{what} digests moved for shapes {SHAPES:?}: measured {got:#018x?}"
    );
}

#[test]
fn sliding_cov_state_matches_recorded_digests() {
    const RECORDED: [u64; 5] = [
        0xfc27_cd19_5a19_e5ca,
        0x3d0b_6e23_f965_56f4,
        0x897f_7b77_44a1_08b2,
        0x3f5f_d3a6_0d61_195e,
        0xa8c2_4f13_6d4e_ea13,
    ];
    check_shapes("SlidingCov", RECORDED, dense_digest);
}

#[test]
fn masked_cov_state_matches_recorded_digests() {
    const RECORDED: [u64; 5] = [
        0xd14d_0f4f_5a41_4d4b,
        0xbc6c_b062_3ae2_a8c6,
        0xe6b1_a971_4e5f_1216,
        0xa823_8174_630d_5bd2,
        0x2332_028e_23af_4792,
    ];
    check_shapes("MaskedSlidingCov", RECORDED, masked_digest);
}

#[test]
fn streaming_outcomes_match_recorded_digest() {
    const RECORDED: u64 = 0x38bc_fdbb_6546_a06a;
    let got = pinned("StreamingCad", stream_digest);
    assert_eq!(
        got, RECORDED,
        "StreamingCad Skip/incremental digest moved: measured {got:#018x}"
    );
}
