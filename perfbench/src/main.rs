//! perfbench — host-throughput benchmark of the SAWL reproduction.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --serve-bin PATH --state-dir DIR
//! perfbench pin > pinned.json
//! ```
//!
//! Measures one workload for `S` seconds and prints, as its last line, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. Untraced
//! (`--trace 0`) the metrics are the end-to-end ones; traced (`--trace 1`)
//! they are the per-layer ones. `pin` prints the default seed's simulated
//! statistics, which the correctness gate compares against. `run.py` next
//! to this crate builds everything and is the usual entry point.

mod bench;
mod calibrate;
mod gate;
mod pump;
mod serve;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use serde::Value;

use bench::{Ctx, Metrics};
use gate::{ATTEMPTED, FAILED};
use workloads::Workload;

/// A run that checks no operation for this long has hung.
const HANG: Duration = Duration::from_secs(60);

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                     --serve-bin PATH --state-dir DIR\n       perfbench pin";

/// `VmHWM` (peak resident set) from a `/proc/*/status` file, in MiB.
pub fn peak_rss_mib(status_path: &str) -> f64 {
    let status = std::fs::read_to_string(status_path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// This process's peak resident set, in MiB.
pub fn own_peak_rss_mib() -> f64 {
    peak_rss_mib("/proc/self/status")
}

struct Args {
    ctx: Ctx,
    traced: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("{flag} is required"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload = Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")?.parse().map_err(|_| "--seed needs an integer")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "--seconds needs a number")?;
    let seconds = Duration::try_from_secs_f64(seconds).map_err(|_| "--seconds needs a duration")?;
    let traced = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace is 0 or 1".into()),
    };
    let serve_bin = PathBuf::from(get("--serve-bin")?);
    let state_dir = PathBuf::from(get("--state-dir")?);
    Ok(Args { ctx: Ctx { workload, seed, seconds, serve_bin, state_dir }, traced })
}

/// Count one more operation, failed.
fn count_failure() {
    ATTEMPTED.fetch_add(1, Ordering::Relaxed);
    FAILED.fetch_add(1, Ordering::Relaxed);
}

/// The result line.
fn report(metrics: &Metrics) -> String {
    let attempted = ATTEMPTED.load(Ordering::Relaxed);
    let failed = FAILED.load(Ordering::Relaxed);
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            let m = vec![
                ("value".into(), Value::Float(v)),
                ("unit".into(), Value::Str(unit.to_string())),
            ];
            (name.clone(), Value::Obj(m))
        })
        .collect();
    let doc = Value::Obj(vec![
        ("correct".into(), Value::Bool(failed == 0 && attempted > 0)),
        ("attempted".into(), Value::Int(i128::from(attempted.max(1)))),
        ("failed".into(), Value::Int(i128::from(if attempted == 0 { 1 } else { failed }))),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    serde_json::to_string(&doc).expect("render result")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("pin") {
        let pinned = bench::pin();
        println!("{}", serde_json::to_string_pretty(&pinned).expect("render pinned statistics"));
        return ExitCode::SUCCESS;
    }
    let Args { ctx, traced } = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let state_dir = ctx.state_dir.clone();
    let _ = std::fs::remove_dir_all(&state_dir);
    if let Err(e) = std::fs::create_dir_all(&state_dir) {
        eprintln!("perfbench: cannot create {}: {e}", state_dir.display());
        return ExitCode::from(1);
    }

    // Measure on a worker thread; this one watches for a hang, which
    // counts as one more failed operation. A hung worker is left behind:
    // the process exits without it.
    let worker =
        std::thread::spawn(
            move || {
                if traced {
                    bench::measure_traced(&ctx)
                } else {
                    bench::measure(&ctx)
                }
            },
        );
    let mut seen = (0, Instant::now());
    let metrics = loop {
        if worker.is_finished() {
            match worker.join() {
                Ok(m) => break m,
                Err(_) => {
                    eprintln!("perfbench: the measuring thread panicked");
                    count_failure();
                    break Vec::new();
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50));
        let n = ATTEMPTED.load(Ordering::Relaxed);
        if n != seen.0 {
            seen = (n, Instant::now());
        } else if seen.1.elapsed() > HANG {
            eprintln!("perfbench: no operation finished for {HANG:?}; counting a hang");
            count_failure();
            break Vec::new();
        }
    };
    let _ = std::fs::remove_dir_all(&state_dir);
    println!("{}", report(&metrics));
    ExitCode::SUCCESS
}
