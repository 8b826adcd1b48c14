//! Seeded hole patterns for the masked benchmarks: which samples of a
//! `GapPolicy::Skip` stream are missing (NaN).

/// SplitMix64: a seeded, platform-independent hash.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Holes shared across sensors, as real outages make them: 4-tick gaps
/// that blank every sensor (one epoch in sixteen) and 8-tick bursts that
/// blank a seeded half of them (one epoch in eight). Whether sample `t` of
/// sensor `i` is missing.
pub fn shared(i: usize, t: usize) -> bool {
    let burst = mix(0xb57 ^ (t / 8) as u64);
    mix(0x6a9 ^ (t / 4) as u64).is_multiple_of(16)
        || (burst.is_multiple_of(8) && mix(burst ^ i as u64) & 1 == 1)
}

/// ~9% of samples missing, each on its own, so no two sensors share a
/// mask. Whether sample `t` of sensor `i` is missing.
pub fn independent(i: usize, t: usize) -> bool {
    mix(((i as u64) << 32) ^ t as u64) % 100 < 9
}
