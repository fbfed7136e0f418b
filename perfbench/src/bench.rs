//! One benchmark run: measure a workload for a time budget and report its
//! end-to-end metrics, or, traced, its per-layer metrics.
//!
//! Schemes share a run's time budget by serving time: the next run always
//! goes to the scheme that has been served for the shortest time so far,
//! so every scheme gets about a quarter of the budget, interleaved with
//! the others. A scheme's `*_mwps` is its demand writes over its serving
//! seconds, each run's seconds scaled by the host speed measured around it
//! ([`crate::calibrate`]).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sawl_algos::WearLeveler;
use sawl_simctl::{run_lifetime, LifetimeExperiment, LifetimeResult, ResumableRun, TimingSpec};

use crate::calibrate::{HostSpeed, Speed};
use crate::gate::{Gate, Pinned, PinnedRun, SimStats, DEFAULT_SEED};
use crate::pump::{run_traced, run_untraced, setup_time, Spans};
use crate::serve::{serve_tenant, Daemon, TenantRun};
use crate::workloads::{schemes, Workload, SERVE_CHECKPOINT_INTERVAL};

/// Metrics in report order: name, value, unit.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// Daemon starts whose median is `serve-observed`'s `setup_s`. One start
/// in four or five takes 5-25 ms instead of 2.
const DAEMON_STARTS: usize = 15;

/// Set-ups of each scheme whose median goes into `setup_s`.
const SETUP_ROUNDS: usize = 11;

/// Demand-write cap of the warm-up runs. The first run of a scheme in a
/// process is up to twice as slow as the next (cold caches, branch
/// predictors and allocator), so each scheme serves this much, unmeasured,
/// before its first measured run.
const WARMUP_WRITES: u64 = 1 << 26;

/// `exp` capped for warm-up.
fn warmup(exp: &LifetimeExperiment) -> LifetimeExperiment {
    let cap = match exp.max_demand_writes {
        0 => WARMUP_WRITES,
        cap => cap.min(WARMUP_WRITES),
    };
    LifetimeExperiment { id: format!("{}/warmup", exp.id), max_demand_writes: cap, ..exp.clone() }
}

/// What one run needs to know.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    /// How long to measure (each scheme still runs at least once).
    pub seconds: Duration,
    /// The `sawl-serve` binary.
    pub serve_bin: PathBuf,
    /// Scratch directory for daemon state and checkpoints.
    pub state_dir: PathBuf,
}

/// One scheme's experiments under the run's workload.
struct Job {
    name: &'static str,
    exps: Vec<LifetimeExperiment>,
}

fn jobs(ctx: &Ctx) -> Vec<Job> {
    schemes()
        .into_iter()
        .map(|(name, spec)| Job { name, exps: ctx.workload.experiments(name, &spec, ctx.seed) })
        .collect()
}

/// `run_lifetime` on every experiment: the byte-identity reference of the
/// traced runs, and the gate's reference off the default seed.
fn references(jobs: &[Job]) -> HashMap<String, Result<LifetimeResult, String>> {
    jobs.iter()
        .flat_map(|j| &j.exps)
        .map(|e| (e.id.clone(), run_lifetime(e).map_err(|e| e.to_string())))
        .collect()
}

fn gate_for(
    seed: u64,
    refs: impl FnOnce() -> HashMap<String, Result<LifetimeResult, String>>,
) -> Gate {
    if seed == DEFAULT_SEED {
        Gate::pinned()
    } else {
        Gate::against(&refs())
    }
}

/// The index of the scheme served for the shortest time so far.
fn least_busy(busy: &[f64]) -> usize {
    (0..busy.len()).fold(0, |best, i| if busy[i] < busy[best] { i } else { best })
}

/// Whether measuring is over: past the deadline and every scheme ran.
fn done(deadline: Instant, runs: &[u64]) -> bool {
    Instant::now() >= deadline && runs.iter().all(|&n| n > 0)
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile; 0 for no samples.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let x = q * (s.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-scheme demand writes and serving seconds, the seconds scaled by
/// the host speed measured around each run (see [`crate::calibrate`]).
struct Throughput {
    demand: Vec<u64>,
    seconds: Vec<f64>,
}

impl Throughput {
    fn new(n: usize) -> Self {
        Throughput { demand: vec![0; n], seconds: vec![0.0; n] }
    }

    fn add(&mut self, i: usize, demand: u64, seconds: f64, speed: Speed) {
        self.demand[i] += demand;
        self.seconds[i] += seconds * speed.mean();
    }

    /// The end-to-end metrics.
    fn metrics(&self, jobs: &[Job], setup_s: f64, rss_mib: f64) -> Metrics {
        let mwps = |d: u64, s: f64| ratio(d as f64, s) / 1e6;
        let mut m: Metrics = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                (format!("{}_mwps", j.name), mwps(self.demand[i], self.seconds[i]), "Mw/s")
            })
            .collect();
        m.push((
            "sim_mwps".into(),
            mwps(self.demand.iter().sum(), self.seconds.iter().sum()),
            "Mw/s",
        ));
        m.push(("setup_s".into(), setup_s, "s"));
        m.push(("peak_rss_mib".into(), rss_mib, "MiB"));
        m
    }
}

/// One set-up of every scheme's experiments: the median of
/// [`SETUP_ROUNDS`] set-ups of each scheme, summed.
fn setup_seconds(jobs: &[Job], gate: &mut Gate, hs: &mut HostSpeed) -> f64 {
    let mut per_scheme = vec![Vec::new(); jobs.len()];
    for _ in 0..SETUP_ROUNDS {
        for (job, samples) in jobs.iter().zip(&mut per_scheme) {
            let (s, f) = hs.around(|| job.exps.iter().map(setup_time).sum::<Result<f64, _>>());
            match s {
                Ok(s) => samples.push(s * f.mean()),
                Err(e) => {
                    gate.record(&format!("{} set-up", job.name), Err(e.to_string()));
                }
            }
        }
    }
    per_scheme.iter().map(|s| median(s)).sum()
}

/// End-to-end metrics of one untraced run.
pub fn measure(ctx: &Ctx) -> Metrics {
    let jobs = jobs(ctx);
    let mut gate = gate_for(ctx.seed, || references(&jobs));
    let mut hs = HostSpeed::new();
    if ctx.workload == Workload::ServeObserved {
        return measure_serve(ctx, &jobs, &mut gate, &mut hs);
    }
    let setup_s = setup_seconds(&jobs, &mut gate, &mut hs);
    for exp in jobs.iter().flat_map(|j| &j.exps).map(warmup) {
        gate.record(&exp.id, run_untraced(&exp).map(drop).map_err(|e| e.to_string()));
    }
    let mut tp = Throughput::new(jobs.len());
    let mut busy = vec![0.0; jobs.len()];
    let mut runs = vec![0u64; jobs.len()];
    let deadline = Instant::now() + ctx.seconds;
    while !done(deadline, &runs) {
        let i = least_busy(&busy);
        runs[i] += 1;
        let (mut demand, mut seconds, mut ok) = (0, 0.0, true);
        let (_, speed) = hs.around(|| {
            for exp in &jobs[i].exps {
                match run_untraced(exp) {
                    Ok(t) => {
                        ok &= gate.check(&exp.id, Ok(SimStats::of(&t.result)));
                        demand += t.result.demand_writes;
                        seconds += t.serve_s;
                    }
                    Err(e) => ok = gate.check(&exp.id, Err(e.to_string())),
                }
            }
        });
        // A failed run still uses up its share, so the loop moves on.
        busy[i] += seconds.max(1e-3);
        if ok {
            tp.add(i, demand, seconds, speed);
        }
    }
    tp.metrics(&jobs, setup_s, crate::own_peak_rss_mib())
}

/// `serve-observed`: tenants through the real daemon, one at a time.
/// `setup_s` is the median daemon start, from spawn to the first answer.
/// It is not scaled by host speed: process start is the kernel's work
/// (exec, page faults, thread wake-ups), which the reference kernel does
/// not track.
fn measure_serve(ctx: &Ctx, jobs: &[Job], gate: &mut Gate, hs: &mut HostSpeed) -> Metrics {
    let mut starts = Vec::new();
    let mut daemon = None;
    for k in 1..=DAEMON_STARTS {
        let dir = ctx.state_dir.join(format!("daemon{k}"));
        let started = Daemon::start(&ctx.serve_bin, &dir, SERVE_CHECKPOINT_INTERVAL);
        if let Some((d, s)) = gate_ok(gate, "daemon start", started) {
            starts.push(s);
            // The last daemon started serves the tenants.
            if let Some(previous) = daemon.replace(d) {
                gate.record("daemon shutdown", Daemon::shutdown(previous));
            }
        }
    }
    let mut tp = Throughput::new(jobs.len());
    let setup_s = median(&starts);
    let Some(daemon) = daemon else {
        return tp.metrics(jobs, setup_s, crate::own_peak_rss_mib());
    };
    let mut busy = vec![0.0; jobs.len()];
    let mut runs = vec![0u64; jobs.len()];
    let mut daemon_rss = 0.0;
    if let Some(mut conn) = gate_ok(gate, "connect", daemon.connect()) {
        for job in jobs {
            let exp = warmup(&job.exps[0]);
            let served = serve_tenant(&mut conn, &format!("{}-warmup", job.name), &exp);
            gate.record(&exp.id, served.map(drop));
        }
        let deadline = Instant::now() + ctx.seconds;
        while !done(deadline, &runs) {
            let i = least_busy(&busy);
            runs[i] += 1;
            let exp = &jobs[i].exps[0];
            let name = format!("{}-{}", jobs[i].name, runs[i]);
            let (served, f) = hs.around(|| serve_tenant(&mut conn, &name, exp));
            let Some(t) = gate_ok(gate, &exp.id, served) else { break };
            busy[i] += t.seconds;
            if gate.check(&exp.id, Ok(SimStats::of(&t.result))) {
                tp.add(i, t.result.demand_writes, t.seconds, f);
            }
            // The daemon keeps every finished tenant's result, so its peak
            // is read after one tenant of each scheme: the same work on
            // every run, however many tenants the budget then fits.
            if daemon_rss == 0.0 && runs.iter().all(|&n| n > 0) {
                daemon_rss = daemon.peak_rss_mib();
            }
        }
    }
    gate.record("daemon shutdown", daemon.shutdown());
    tp.metrics(jobs, setup_s, crate::own_peak_rss_mib().max(daemon_rss))
}

/// Count an operation's outcome, handing back its value when it worked.
fn gate_ok<T>(gate: &mut Gate, what: &str, r: Result<T, String>) -> Option<T> {
    match r {
        Ok(v) => {
            gate.record(what, Ok(()));
            Some(v)
        }
        Err(e) => {
            gate.record(what, Err(e));
            None
        }
    }
}

/// What the traced run gathers for one scheme. Sums over every traced
/// pass; the report divides by `passes`.
#[derive(Default)]
struct Layers {
    spans: Spans,
    /// Traced passes (each serves all of the scheme's experiments).
    passes: u64,
    demand: u64,
    overhead: u64,
    exchanges: u64,
    reorgs: u64,
    merges: u64,
    splits: u64,
    cmt_hits: u64,
    cmt_misses: u64,
    timing_events: u64,
    samples: u64,
    /// Host time of the traced runs and of their untraced twins.
    traced_s: f64,
    untraced_s: f64,
    /// Host time of the paired scalar-served and telemetry-off runs.
    scalar_s: f64,
    telemetry_off_s: f64,
    ckpt: Option<CkptTrace>,
    tenant: Option<TenantRun>,
}

/// One step of a traced round.
#[derive(Clone, Copy)]
enum Step {
    /// This crate's pump with spans.
    Traced,
    /// The library's pump on the same experiment.
    Untraced,
    /// The library's pump with `TimingSpec::scalar_serve`.
    Scalar,
    /// The library's pump with telemetry off.
    TelemetryOff,
}

/// Per-layer metrics of one traced run.
pub fn measure_traced(ctx: &Ctx) -> Metrics {
    let jobs = jobs(ctx);
    let refs = references(&jobs);
    let mut gate = gate_for(ctx.seed, || refs.clone());
    let mut layers: Vec<Layers> = jobs.iter().map(|_| Layers::default()).collect();
    let mut status_ms = Vec::new();

    if ctx.workload == Workload::ServeObserved {
        serve_pass(ctx, &jobs, &mut gate, &mut layers, &mut status_ms);
        for (job, l) in jobs.iter().zip(&mut layers) {
            let exp = &job.exps[0];
            let traced =
                trace_checkpoints(exp, &ctx.state_dir.join(format!("ckpt-{}", job.name)), &refs);
            l.ckpt = gate_ok(&mut gate, &format!("{} checkpoints", exp.id), traced);
        }
    }

    // Each round runs every scheme's steps once, in an order that flips
    // between rounds so neither side of a pair always runs first.
    let mut steps = vec![Step::Traced, Step::Untraced];
    match ctx.workload {
        Workload::TimedMixed => steps.push(Step::Scalar),
        Workload::ServeObserved => steps.push(Step::TelemetryOff),
        _ => {}
    }
    let mut runs = vec![0u64; jobs.len()];
    let deadline = Instant::now() + ctx.seconds;
    while !done(deadline, &runs) {
        for (i, job) in jobs.iter().enumerate() {
            runs[i] += 1;
            let mut order = steps.clone();
            if (runs[i] as usize + i) % 2 == 1 {
                order.reverse();
            }
            for exp in &job.exps {
                for &step in &order {
                    run_step(&mut gate, step, exp, &refs, &mut layers[i]);
                }
            }
            layers[i].passes += 1;
        }
    }
    report_layers(&jobs, &layers, &status_ms)
}

fn run_step(
    gate: &mut Gate,
    step: Step,
    exp: &LifetimeExperiment,
    refs: &HashMap<String, Result<LifetimeResult, String>>,
    l: &mut Layers,
) {
    let variant = match step {
        Step::Traced => return traced_step(gate, exp, refs, l),
        Step::Untraced => exp.clone(),
        Step::Scalar => LifetimeExperiment {
            timing: Some(TimingSpec { scalar_serve: true, ..TimingSpec::default() }),
            ..exp.clone()
        },
        // Telemetry only observes: the statistics must not change.
        Step::TelemetryOff => LifetimeExperiment { telemetry: None, ..exp.clone() },
    };
    let Some(t) = gate_ok(gate, &variant.id, run_untraced(&variant).map_err(|e| e.to_string()))
    else {
        return;
    };
    gate.check(&exp.id, Ok(SimStats::of(&t.result)));
    *match step {
        Step::Scalar => &mut l.scalar_s,
        Step::TelemetryOff => &mut l.telemetry_off_s,
        _ => &mut l.untraced_s,
    } += t.serve_s;
}

/// One traced run, asserted byte-identical to `run_lifetime`.
fn traced_step(
    gate: &mut Gate,
    exp: &LifetimeExperiment,
    refs: &HashMap<String, Result<LifetimeResult, String>>,
    l: &mut Layers,
) {
    let Some((t, sp, wl)) = gate_ok(gate, &exp.id, run_traced(exp).map_err(|e| e.to_string()))
    else {
        return;
    };
    gate.record(
        &format!("{}: traced run byte-identical to run_lifetime", exp.id),
        same(&t.result, refs, &exp.id),
    );
    gate.check(&exp.id, Ok(SimStats::of(&t.result)));
    l.spans.add(&sp);
    l.traced_s += t.serve_s;
    l.demand += t.result.demand_writes;
    l.overhead += t.result.overhead_writes;
    let ops = wl.op_counts();
    l.exchanges += ops.exchanges;
    l.reorgs += ops.reorgs;
    if let Some(s) = wl.as_sawl().map(|s| s.stats()) {
        l.merges += s.merges;
        l.splits += s.splits;
        l.cmt_hits += s.hits;
        l.cmt_misses += s.misses;
    }
    l.timing_events += t.result.latency.as_ref().map_or(0, |r| r.requests);
    l.samples += t.result.telemetry.as_ref().map_or(0, |s| s.samples.len() as u64);
}

/// Whether `got` serializes to the same bytes as the reference run.
fn same(
    got: &LifetimeResult,
    refs: &HashMap<String, Result<LifetimeResult, String>>,
    id: &str,
) -> Result<(), String> {
    match refs.get(id) {
        Some(Ok(want)) if serde_json::to_string(got).ok() == serde_json::to_string(want).ok() => {
            Ok(())
        }
        Some(Ok(_)) => Err("result differs from run_lifetime".into()),
        Some(Err(e)) => Err(format!("reference run failed: {e}")),
        None => Err("no reference run".into()),
    }
}

/// One tenant of each scheme through the daemon, timing every RPC.
fn serve_pass(
    ctx: &Ctx,
    jobs: &[Job],
    gate: &mut Gate,
    layers: &mut [Layers],
    status_ms: &mut Vec<f64>,
) {
    let started =
        Daemon::start(&ctx.serve_bin, &ctx.state_dir.join("serve"), SERVE_CHECKPOINT_INTERVAL);
    let Some((daemon, _)) = gate_ok(gate, "daemon start", started) else { return };
    if let Some(mut conn) = gate_ok(gate, "connect", daemon.connect()) {
        for (job, l) in jobs.iter().zip(layers.iter_mut()) {
            let exp = &job.exps[0];
            let Some(t) = gate_ok(gate, &exp.id, serve_tenant(&mut conn, job.name, exp)) else {
                break;
            };
            gate.check(&exp.id, Ok(SimStats::of(&t.result)));
            status_ms.extend_from_slice(&t.status_ms);
            l.tenant = Some(t);
        }
    }
    gate.record("daemon shutdown", daemon.shutdown());
}

/// Checkpoint costs of one tenant, saved by the daemon's rule.
#[derive(Default)]
struct CkptTrace {
    save_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    bytes: u64,
    /// Checkpoints written: one per interval of demand writes, plus the
    /// final one.
    checkpoints: u64,
}

/// Drive `exp` through `ResumableRun` and save whenever the daemon would
/// (after a step that served an interval's worth of demand writes since
/// the last save, and once at the end), timing each save. Then restore
/// the first and last checkpoints, and finish the run restored from the
/// first: it must match `run_lifetime` byte for byte, as must the
/// uninterrupted run.
fn trace_checkpoints(
    exp: &LifetimeExperiment,
    dir: &Path,
    refs: &HashMap<String, Result<LifetimeResult, String>>,
) -> Result<CkptTrace, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let (path, first) = (dir.join("tenant.ckpt"), dir.join("first.ckpt"));
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let mut tr = CkptTrace::default();
    let mut run = ResumableRun::new(exp).map_err(|e| e.to_string())?;
    let mut last = 0;
    loop {
        let more = run.step().map_err(|e| e.to_string())?;
        if more && run.demand_writes() - last < SERVE_CHECKPOINT_INTERVAL {
            continue;
        }
        let t = Instant::now();
        run.save(&path).map_err(|e| e.to_string())?;
        tr.save_ms.push(ms(t));
        tr.checkpoints += 1;
        last = run.demand_writes();
        if tr.checkpoints == 1 {
            std::fs::copy(&path, &first).map_err(|e| e.to_string())?;
        }
        if !more {
            break;
        }
    }
    tr.bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    same(&run.into_result(), refs, &exp.id)?;
    let t = Instant::now();
    let at_end = ResumableRun::resume(exp, &path).map_err(|e| e.to_string())?;
    tr.restore_ms.push(ms(t));
    if !at_end.finished() {
        return Err("run restored from the final checkpoint is not finished".into());
    }
    let t = Instant::now();
    let mut resumed = ResumableRun::resume(exp, &first).map_err(|e| e.to_string())?;
    tr.restore_ms.push(ms(t));
    resumed.run_to_end().map_err(|e| e.to_string())?;
    same(&resumed.into_result(), refs, &exp.id).map_err(|e| format!("resumed run: {e}"))?;
    Ok(tr)
}

fn report_layers(jobs: &[Job], layers: &[Layers], status_ms: &[f64]) -> Metrics {
    let mut m: Metrics = Vec::new();
    for (job, l) in jobs.iter().zip(layers) {
        let mut put = |metric: &str, value: f64, unit: &'static str| {
            m.push((format!("{}.{metric}", job.name), value, unit));
        };
        let p = l.passes.max(1) as f64;
        let sp = &l.spans;
        put("trace.fill_s", sp.fill_s / p, "s");
        put("trace.requests", sp.requests as f64 / p, "count");
        put("trace.runs", sp.runs as f64 / p, "count");
        put("trace.ns_per_request", ratio(sp.fill_s, sp.requests as f64) * 1e9, "ns");
        put("algos.write_run_s", sp.write_run_s() / p, "s");
        put("algos.write_run_calls", sp.write_calls as f64 / p, "count");
        put("algos.exchanges", l.exchanges as f64 / p, "count");
        put("algos.self_s", (sp.write_run_s() - sp.replay_s) / p, "s");
        if job.name == "sawl" {
            put("core.reorgs", l.reorgs as f64 / p, "count");
            put(
                "core.cmt_hit_rate",
                ratio(l.cmt_hits as f64, (l.cmt_hits + l.cmt_misses) as f64),
                "ratio",
            );
            put("core.merges", l.merges as f64 / p, "count");
            put("core.splits", l.splits as f64 / p, "count");
        }
        put("nvm.replay_s", sp.replay_s / p, "s");
        put("nvm.demand_writes", l.demand as f64 / p, "count");
        put("nvm.overhead_writes", l.overhead as f64 / p, "count");
        put("nvm.overhead_ratio", ratio(l.overhead as f64, l.demand as f64), "ratio");
        put("timing.observe_s", sp.observe_s / p, "s");
        put("timing.events", l.timing_events as f64 / p, "count");
        put("timing.quiet_frac", ratio(sp.quiet_writes as f64, l.demand as f64), "ratio");
        put(
            "timing.fast_over_scalar",
            ratio(l.scalar_s, l.untraced_s) * f64::from(l.scalar_s > 0.0),
            "ratio",
        );
        put("telemetry.note_s", sp.note_s / p, "s");
        put("telemetry.samples", l.samples as f64 / p, "count");
        let overhead = if l.telemetry_off_s > 0.0 {
            (l.untraced_s / l.telemetry_off_s - 1.0) * 100.0
        } else {
            0.0
        };
        put("telemetry.overhead_pct", overhead, "%");
        let ck = l.ckpt.as_ref();
        put("ckpt.save_ms", ck.map_or(0.0, |c| median(&c.save_ms)), "ms");
        put("ckpt.restore_ms", ck.map_or(0.0, |c| median(&c.restore_ms)), "ms");
        put("ckpt.bytes", ck.map_or(0.0, |c| c.bytes as f64), "bytes");
        let tn = l.tenant.as_ref();
        put("serve.submit_ms", tn.map_or(0.0, |t| t.submit_ms), "ms");
        put("serve.result_ms", tn.map_or(0.0, |t| t.result_ms), "ms");
        put("serve.result_bytes", tn.map_or(0.0, |t| t.result_bytes as f64), "bytes");
        put("serve.checkpoints", ck.map_or(0.0, |c| c.checkpoints as f64), "count");
        put("simctl.other_s", sp.other_s() / p, "s");
    }
    m.push(("serve.status_p50_ms".into(), quantile(status_ms, 0.5), "ms"));
    m.push(("serve.status_p95_ms".into(), quantile(status_ms, 0.95), "ms"));
    m.push(("serve.status_samples".into(), status_ms.len() as f64, "count"));
    let (traced, untraced): (f64, f64) = layers
        .iter()
        .map(|l| (l.traced_s, l.untraced_s))
        .fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
    m.push(("simctl.trace_overhead_pct".into(), (ratio(traced, untraced) - 1.0) * 100.0, "%"));
    m
}

/// `perfbench pin`: the default seed's statistics of every workload, as
/// `pinned.json`.
pub fn pin() -> Pinned {
    let mut runs = Vec::new();
    for w in Workload::ALL {
        for (name, spec) in schemes() {
            for exp in w.experiments(name, &spec, DEFAULT_SEED) {
                let r = run_lifetime(&exp).unwrap_or_else(|e| panic!("{}: {e}", exp.id));
                runs.push(PinnedRun { id: exp.id, stats: SimStats::of(&r) });
            }
        }
    }
    Pinned { seed: DEFAULT_SEED, runs }
}
