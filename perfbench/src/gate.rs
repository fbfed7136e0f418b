//! The correctness gate: every measured run's simulated statistics must
//! equal a reference, or the run counts as failed.
//!
//! For the default seed the reference is `pinned.json`, committed next to
//! this crate and regenerated only by `perfbench pin`. For any other seed
//! it is `run_lifetime` on the same experiment. A simulator-speed change
//! must leave every one of these statistics identical.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use sawl_simctl::LifetimeResult;

/// The seed whose statistics are pinned in `pinned.json`.
pub const DEFAULT_SEED: u64 = 1;

const PINNED: &str = include_str!("../pinned.json");

/// The simulated statistics the gate compares: demand and overhead
/// writes, normalized lifetime and wear CoV, plus latency percentiles on
/// timed runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    pub demand_writes: u64,
    pub overhead_writes: u64,
    pub normalized_lifetime: f64,
    pub wear_cov: f64,
    pub device_died: bool,
    pub latency: Option<LatencyStats>,
}

/// Latency percentiles of a timed run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    pub requests: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
}

impl SimStats {
    pub fn of(r: &LifetimeResult) -> Self {
        SimStats {
            demand_writes: r.demand_writes,
            overhead_writes: r.overhead_writes,
            normalized_lifetime: r.normalized_lifetime,
            wear_cov: r.wear_cov,
            device_died: r.device_died,
            latency: r.latency.as_ref().map(|l| LatencyStats {
                requests: l.requests,
                p50_ns: l.p50_ns,
                p99_ns: l.p99_ns,
                p999_ns: l.p999_ns,
            }),
        }
    }
}

/// One pinned experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PinnedRun {
    pub id: String,
    pub stats: SimStats,
}

/// The `pinned.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pinned {
    pub seed: u64,
    pub runs: Vec<PinnedRun>,
}

/// Operations checked and failed so far in this process. Global so the
/// watchdog can report them if a run hangs.
pub static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
pub static FAILED: AtomicU64 = AtomicU64::new(0);

/// Reference statistics of one benchmark run. Every check counts in
/// [`ATTEMPTED`], and every failed one in [`FAILED`]: no run is dropped.
#[derive(Debug, Default)]
pub struct Gate {
    expected: HashMap<String, SimStats>,
}

impl Gate {
    /// The default seed's references, from `pinned.json`.
    pub fn pinned() -> Self {
        let pinned: Pinned = serde_json::from_str(PINNED).expect("pinned.json parses");
        assert_eq!(pinned.seed, DEFAULT_SEED, "pinned.json holds another seed");
        Gate { expected: pinned.runs.into_iter().map(|r| (r.id, r.stats)).collect() }
    }

    /// References from `run_lifetime` results, by experiment id. A failed
    /// reference run leaves its id without a reference, so every check of
    /// it fails.
    pub fn against(refs: &HashMap<String, Result<LifetimeResult, String>>) -> Self {
        let expected = refs
            .iter()
            .filter_map(|(id, r)| match r {
                Ok(r) => Some((id.clone(), SimStats::of(r))),
                Err(e) => {
                    eprintln!("perfbench: reference run {id} failed: {e}");
                    None
                }
            })
            .collect();
        Gate { expected }
    }

    /// Count one operation and check its statistics against the
    /// reference. An error, or a missing reference, is a failure too.
    pub fn check(&mut self, id: &str, got: Result<SimStats, String>) -> bool {
        let outcome = match (got, self.expected.get(id)) {
            (Ok(stats), Some(want)) if stats == *want => Ok(()),
            (Ok(stats), Some(want)) => {
                Err(format!("statistics differ\n  got  {stats:?}\n  want {want:?}"))
            }
            (Ok(_), None) => Err("no reference statistics".into()),
            (Err(e), _) => Err(e),
        };
        self.record(id, outcome)
    }

    /// Count one operation that has no statistics to compare: a pass/fail
    /// outcome such as an RPC or a byte-identity assertion.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) -> bool {
        ATTEMPTED.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = outcome {
            eprintln!("perfbench: {what}: {e}");
            FAILED.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        true
    }
}
