//! The benchmark's workloads: which experiments each one runs, per scheme.
//!
//! Every workload runs the same four schemes, configured as in the
//! `speed_probe` figure binary. An experiment's id carries the workload,
//! the scheme and the seed, and the id alone seeds the scheme, device and
//! stream (`stable_seed`), so one `--seed` gives one set of inputs.

use sawl_simctl::{
    DeviceSpec, LifetimeExperiment, SchemeSpec, TelemetrySpec, TimingSpec, WorkloadSpec,
};

/// Logical data lines of every experiment (the `speed_probe` geometry).
const LINES: u64 = 1 << 16;

/// Cell endurance of the lifetime workloads (the `speed_probe` device).
const ENDURANCE: u32 = 10_000;

/// Demand-write cap of one `ycsb-lifetime` run.
const YCSB_CAP: u64 = 3 << 20;

/// Demand-write caps of the BPA and YCSB halves of one `timed-mixed` run,
/// sized so each half takes a comparable share of host time.
const TIMED_BPA_CAP: u64 = 5 << 20;
const TIMED_YCSB_CAP: u64 = 1 << 20;

/// Telemetry stride of the `serve-observed` tenants.
const SERVE_TELEMETRY_STRIDE: u64 = 100_000;

/// Checkpoint interval (demand writes) the `serve-observed` daemon runs
/// with: each BPA tenant lives for 330-400M writes, so it writes several.
pub const SERVE_CHECKPOINT_INTERVAL: u64 = 1 << 26;

/// The four schemes, as `speed_probe` configures them.
pub fn schemes() -> [(&'static str, SchemeSpec); 4] {
    [
        ("pcms", SchemeSpec::PcmS { region_lines: 16, period: 32 }),
        ("tlsr", SchemeSpec::Tlsr { region_lines: 64, inner_period: 8, outer_period: 32 }),
        ("mwsr", SchemeSpec::Mwsr { region_lines: 16, period: 32 }),
        ("sawl", SchemeSpec::sawl_default(1024)),
    ]
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// BPA to device death, telemetry and timing off: the bulk path.
    BpaLifetime,
    /// Write-capped drifting YCSB: one request per run, stream-bound.
    YcsbLifetime,
    /// BPA and YCSB halves with the closed-loop timing model on.
    TimedMixed,
    /// BPA tenants served by the `sawl-serve` daemon, telemetry on.
    ServeObserved,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Self::BpaLifetime, Self::YcsbLifetime, Self::TimedMixed, Self::ServeObserved];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Self::BpaLifetime => "bpa-lifetime",
            Self::YcsbLifetime => "ycsb-lifetime",
            Self::TimedMixed => "timed-mixed",
            Self::ServeObserved => "serve-observed",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The experiments one run of `scheme` performs under this workload:
    /// one lifetime run, or the BPA and YCSB halves of `timed-mixed`.
    pub fn experiments(
        self,
        scheme: &str,
        spec: &SchemeSpec,
        seed: u64,
    ) -> Vec<LifetimeExperiment> {
        let exp =
            |half: &str, workload: WorkloadSpec, endurance: u32, cap: u64| LifetimeExperiment {
                id: format!("perfbench/{}/{half}{scheme}/seed{seed}", self.name()),
                scheme: spec.clone(),
                workload,
                data_lines: LINES,
                device: DeviceSpec { endurance, ..Default::default() },
                max_demand_writes: cap,
                fault: None,
                telemetry: None,
                timing: None,
            };
        match self {
            Self::BpaLifetime => vec![exp("", bpa(), ENDURANCE, 0)],
            Self::YcsbLifetime => vec![exp("", ycsb(), ENDURANCE, YCSB_CAP)],
            // The `fig_latency` device: endurance high enough that every
            // run serves its full cap.
            Self::TimedMixed => [("bpa/", bpa(), TIMED_BPA_CAP), ("ycsb/", ycsb(), TIMED_YCSB_CAP)]
                .into_iter()
                .map(|(half, workload, cap)| LifetimeExperiment {
                    timing: Some(TimingSpec::default()),
                    ..exp(half, workload, u32::MAX, cap)
                })
                .collect(),
            Self::ServeObserved => vec![LifetimeExperiment {
                telemetry: Some(TelemetrySpec::with_stride(SERVE_TELEMETRY_STRIDE)),
                ..exp("", bpa(), ENDURANCE, 0)
            }],
        }
    }
}

/// The paper's Birthday Paradox Attack, as `speed_probe` runs it.
fn bpa() -> WorkloadSpec {
    WorkloadSpec::Bpa { writes_per_target: 2048 }
}

/// The drifting YCSB stream of `fig_workloads`.
fn ycsb() -> WorkloadSpec {
    WorkloadSpec::Ycsb {
        hot_lines: 512,
        exponent: 1.1,
        write_ratio: 0.8,
        rotate_every: 8_192,
        drift: 64,
    }
}
