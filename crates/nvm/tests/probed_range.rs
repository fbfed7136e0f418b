//! The wear probe's closed-form range path against per-line writes.
//!
//! With the probe on and no fault plan, `write_wl_range` sweeps 64-line
//! chunks and moves the probe's sum of squares and max once per chunk.
//! It must be indistinguishable from `n` scalar `write_wl` calls: same
//! applied counts and outcomes, same counters, same derived per-line
//! counts, and a bit-identical `wear_snapshot()` — across every limit
//! encoding and countdown width, for ranges that straddle the failed-line
//! overlay's 64-bit words, and over lines already in that overlay.

use sawl_nvm::{EnduranceModel, NvmConfig, NvmDevice, Pa, WriteOutcome};

/// 512 lines (eight overlay words), 128 spares.
fn device(endurance: u32, variation: EnduranceModel) -> NvmDevice {
    let cfg = NvmConfig::builder()
        .lines(512)
        .banks(1)
        .endurance(endurance)
        .spare_shift(2)
        .variation(variation)
        .seed(41)
        .build()
        .unwrap();
    let mut dev = NvmDevice::new(cfg);
    dev.enable_wear_probe();
    dev
}

/// `write_wl_range`'s contract, spelled out with scalar `write_wl` calls.
fn scalar_wl_range(dev: &mut NvmDevice, start: Pa, n: u64) -> (u64, WriteOutcome) {
    let mut applied = 0;
    let mut last = WriteOutcome::Ok;
    while applied < n {
        let was_dead = dev.is_dead();
        let out = dev.write_wl(start + applied);
        match out {
            WriteOutcome::PowerLost => return (applied, out),
            WriteOutcome::DeviceDead => return (applied + u64::from(!was_dead), out),
            _ => {
                applied += 1;
                last = out;
            }
        }
    }
    (applied, last)
}

fn assert_same(fast: &NvmDevice, slow: &NvmDevice, ctx: &str) {
    assert_eq!(fast.wear(), slow.wear(), "{ctx}: counters");
    assert_eq!(fast.wear_snapshot(), slow.wear_snapshot(), "{ctx}: probe snapshot");
    assert_eq!(fast.write_counts(), slow.write_counts(), "{ctx}: per-line counts");
}

/// The probe must also agree with an O(lines) recompute.
fn assert_probe_exact(dev: &NvmDevice, ctx: &str) {
    let snap = dev.wear_snapshot().unwrap();
    let full = dev.wear_stats();
    assert_eq!((snap.total, snap.max), (full.total, full.max), "{ctx}");
    assert!((snap.cov - full.cov).abs() < 1e-9, "{ctx}: cov {} vs {}", snap.cov, full.cov);
}

/// Ranges that start mid-word, end mid-word, cover exactly one word, or
/// span several, plus single lines at word edges.
const RANGES: [(Pa, u64); 9] =
    [(60, 10), (0, 512), (33, 200), (127, 2), (250, 129), (64, 64), (63, 1), (448, 64), (5, 507)];

/// Lines pushed into the overlay before the sweeps, clustered at word
/// boundaries so straddling chunks see marked lines in both words.
const MARKED: [Pa; 8] = [0, 62, 63, 64, 65, 127, 300, 511];

/// Drive a probed device pair through pre-wear and range sweeps, checking
/// lockstep after every call. Returns how many calls ran.
fn lockstep(endurance: u32, variation: EnduranceModel, layout: &str, rounds: usize) -> usize {
    let mut fast = device(endurance, variation);
    let mut slow = device(endurance, variation);
    assert_eq!(fast.wear_state_layout(), layout);

    // Put lines into the failed-line overlay (one failure refill each,
    // plus a few writes into the next cycle), and bring their neighbours
    // close to a failure so the sweeps cross failure boundaries.
    for (i, &pa) in MARKED.iter().enumerate() {
        let n = u64::from(fast.limit(pa)) + i as u64;
        assert_eq!(fast.write_run(pa, n), slow.write_run(pa, n));
        let near = (pa + 1) % 512;
        let m = u64::from(fast.limit(near)).saturating_sub(2 + i as u64 % 3);
        assert_eq!(fast.write_run(near, m), slow.write_run(near, m));
    }
    assert_same(&fast, &slow, "pre-wear");

    let mut calls = 0;
    'rounds: for round in 0..rounds {
        for &(start, n) in &RANGES {
            let got = fast.write_wl_range(start, n);
            let want = scalar_wl_range(&mut slow, start, n);
            let ctx = format!("{layout} round {round} range ({start}, {n})");
            assert_eq!(got, want, "{ctx}");
            assert_same(&fast, &slow, &ctx);
            calls += 1;
            if fast.is_dead() {
                break 'rounds;
            }
        }
    }
    assert_probe_exact(&fast, layout);
    calls
}

#[test]
fn uniform_u16_range_sweeps_match_scalar_through_death() {
    let calls = lockstep(24, EnduranceModel::Uniform, "u16+uniform", 1_000);
    assert!(calls < 1_000 * RANGES.len(), "sweeps must reach device death");
}

#[test]
fn delta8_u16_range_sweeps_match_scalar_through_death() {
    let calls = lockstep(40, EnduranceModel::Gaussian { cov: 0.2 }, "u16+delta8", 1_000);
    assert!(calls < 1_000 * RANGES.len(), "sweeps must reach device death");
}

#[test]
fn delta16_u16_range_sweeps_match_scalar() {
    lockstep(2_000, EnduranceModel::Gaussian { cov: 0.3 }, "u16+delta16", 40);
}

#[test]
fn uniform_u32_range_sweeps_match_scalar() {
    lockstep(100_000, EnduranceModel::Uniform, "u32+uniform", 10);
}

#[test]
fn delta16_u32_range_sweeps_match_scalar() {
    lockstep(100_000, EnduranceModel::Gaussian { cov: 0.1 }, "u32+delta16", 10);
}

#[test]
fn full_u32_range_sweeps_match_scalar() {
    lockstep(1_000_000, EnduranceModel::Gaussian { cov: 0.3 }, "u32+full", 10);
}

#[test]
fn probe_enabled_after_failures_then_swept() {
    // Enable the probe on a device whose overlay is already populated, so
    // the probe's starting moments come from the O(lines) fold.
    let build = || {
        let cfg =
            NvmConfig::builder().lines(256).banks(1).endurance(9).spare_shift(2).build().unwrap();
        NvmDevice::new(cfg)
    };
    let (mut fast, mut slow) = (build(), build());
    for pa in [3u64, 64, 65, 200] {
        fast.write_run(pa, 20);
        slow.write_run(pa, 20);
    }
    fast.enable_wear_probe();
    slow.enable_wear_probe();
    for (start, n) in [(0u64, 256u64), (60, 70), (1, 255), (0, 256), (64, 2)] {
        assert_eq!(fast.write_wl_range(start, n), scalar_wl_range(&mut slow, start, n));
        assert_same(&fast, &slow, &format!("range ({start}, {n})"));
    }
    assert_probe_exact(&fast, "late probe");
}
