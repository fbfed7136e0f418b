//! Lifetime runs driven through the simulator's public functions, untraced
//! and traced.
//!
//! [`run_untraced`] is `run_lifetime` taken apart so that set-up and
//! serving are timed separately: the same constructors, then the library's
//! own `pump_writes_telemetry` or `pump_writes_timed`.
//!
//! [`run_traced`] drives the same loops from this file instead, through
//! public calls only, with a span around each layer call: the stream's
//! `fill_runs` once per block, the scheme's serving of each block, and the
//! timing and telemetry observers per call. The result it assembles must
//! be byte-identical to `run_lifetime` on the same experiment, which the
//! caller asserts, so the spans describe the program the untraced runs
//! measure.

use std::time::Instant;

use sawl_algos::WearLeveler;
use sawl_nvm::NvmDevice;
use sawl_simctl::driver::READ_SPIN_LIMIT;
use sawl_simctl::scenario::wearless_device;
use sawl_simctl::{
    feed_observation, pump_writes_telemetry, pump_writes_timed, stable_seed, DriverError,
    LatencyReport, LifetimeExperiment, LifetimeResult, PumpStats, SchemeInstance, Series,
    TelemetryRun, TimingRun, BLOCK,
};
use sawl_trace::{AddressStream, MemReq, ReqRun};

/// One finished run: its result and the host seconds it took to serve
/// the demand writes, set-up excluded.
pub struct Timed {
    pub result: LifetimeResult,
    pub serve_s: f64,
}

/// Span totals of one traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// The traced pump loop, replay excluded.
    pub wall_s: f64,
    /// `AddressStream::fill_runs`.
    pub fill_s: f64,
    /// Serving each block: the scheme's `write_run`/`write`/`quiet_writes`
    /// plus the observer spans below.
    pub serve_s: f64,
    /// `TimingRun::observe` and `observe_run`, estimated from one call in
    /// eight.
    pub observe_s: f64,
    /// `TelemetryRun::note_served`.
    pub note_s: f64,
    /// The served write runs replayed into a bare device.
    pub replay_s: f64,
    /// Requests the stream produced.
    pub requests: u64,
    /// Runs the stream produced.
    pub runs: u64,
    /// Scheme serving calls (`write_run` and scalar `write`).
    pub write_calls: u64,
    /// Demand writes served in certified quiet spans (timed runs).
    pub quiet_writes: u64,
    /// Timing-model observer calls.
    pub observe_calls: u64,
}

impl Spans {
    pub fn add(&mut self, o: &Spans) {
        self.wall_s += o.wall_s;
        self.fill_s += o.fill_s;
        self.serve_s += o.serve_s;
        self.observe_s += o.observe_s;
        self.note_s += o.note_s;
        self.replay_s += o.replay_s;
        self.requests += o.requests;
        self.runs += o.runs;
        self.write_calls += o.write_calls;
        self.quiet_writes += o.quiet_writes;
        self.observe_calls += o.observe_calls;
    }

    /// Host time of the scheme itself: block serving minus the observers.
    pub fn write_run_s(&self) -> f64 {
        self.serve_s - self.observe_s - self.note_s
    }

    /// Time of the loop outside every span.
    pub fn other_s(&self) -> f64 {
        self.wall_s - self.fill_s - self.serve_s
    }
}

/// A run's live state, built exactly as `run_lifetime` builds it.
struct Prepared {
    wl: SchemeInstance,
    dev: NvmDevice,
    stream: Box<dyn AddressStream + Send>,
    telemetry: Option<TelemetryRun>,
    timing: Option<TimingRun>,
    cap: u64,
}

fn prepare(exp: &LifetimeExperiment) -> Result<Prepared, DriverError> {
    if exp.fault.is_some() {
        return Err(DriverError::Spec("benchmark runs are fault-free".into()));
    }
    let seed = stable_seed(&exp.id);
    let mut wl = exp.scheme.try_instantiate(exp.data_lines, seed)?;
    let mut dev = exp.device.try_build(exp.scheme.physical_lines(exp.data_lines), seed)?;
    let telemetry = exp.telemetry.as_ref().map(|spec| {
        let run = TelemetryRun::new(&exp.id, spec);
        run.attach(&mut wl, &mut dev);
        run
    });
    let stream = exp.workload.try_build(wl.logical_lines(), seed)?;
    let timing = exp.timing.as_ref().map(|s| TimingRun::new(s, exp.scheme.translation_kind()));
    let cap = match exp.max_demand_writes {
        0 => 4 * dev.config().ideal_lifetime_writes(),
        cap => cap,
    };
    Ok(Prepared { wl, dev, stream, telemetry, timing, cap })
}

/// Finish the observers and assemble the result as `run_lifetime` does.
/// The scheme instance is handed back for its own counters.
fn finish(
    exp: &LifetimeExperiment,
    p: Prepared,
    pump: PumpStats,
) -> (LifetimeResult, SchemeInstance) {
    let Prepared { mut wl, dev, stream, telemetry, timing, .. } = p;
    let latency = timing.map(TimingRun::finish);
    let series = telemetry.map(|t| t.finish(&mut wl));
    (lifetime_result(exp, stream.name().to_string(), &dev, &pump, series, latency), wl)
}

fn lifetime_result(
    exp: &LifetimeExperiment,
    workload: String,
    dev: &NvmDevice,
    pump: &PumpStats,
    telemetry: Option<Series>,
    latency: Option<LatencyReport>,
) -> LifetimeResult {
    let wear = *dev.wear();
    let stats = dev.wear_stats();
    let faults = dev.fault_counters();
    let ideal = exp.data_lines as f64 * f64::from(exp.device.endurance);
    LifetimeResult {
        id: exp.id.clone(),
        scheme: exp.scheme.name(),
        workload,
        normalized_lifetime: wear.demand_writes as f64 / ideal,
        demand_writes: wear.demand_writes,
        overhead_writes: wear.overhead_writes,
        overhead_fraction: if wear.demand_writes == 0 {
            0.0
        } else {
            wear.overhead_writes as f64 / wear.demand_writes as f64
        },
        device_died: dev.is_dead(),
        wear_cov: stats.cov,
        wear_gini: stats.gini,
        stuck_lines_remapped: faults.stuck_lines_remapped,
        transient_faults: faults.transient_write_faults,
        power_losses: faults.power_losses,
        recoveries: pump.recoveries,
        journal_replays: pump.journal_replays,
        journal_rollbacks: pump.journal_rollbacks,
        spares_remaining: dev.spares_remaining(),
        telemetry,
        latency,
    }
}

/// Host seconds to set `exp` up as `run_lifetime` does before it serves
/// the first write: scheme instantiate, device build (which writes every
/// line's wear countdown), observer set-up and stream build.
pub fn setup_time(exp: &LifetimeExperiment) -> Result<f64, DriverError> {
    let t = Instant::now();
    let p = prepare(exp)?;
    let s = t.elapsed().as_secs_f64();
    drop(p);
    Ok(s)
}

/// Run `exp` through the library's pump, timing set-up and serving apart.
pub fn run_untraced(exp: &LifetimeExperiment) -> Result<Timed, DriverError> {
    let mut p = prepare(exp)?;
    let t = Instant::now();
    let pump = match p.timing.as_mut() {
        Some(t) => pump_writes_timed(
            &mut p.wl,
            &mut p.dev,
            &mut *p.stream,
            p.cap,
            p.telemetry.as_mut(),
            t,
        )?,
        None => pump_writes_telemetry(
            &mut p.wl,
            &mut p.dev,
            &mut *p.stream,
            p.cap,
            p.telemetry.as_mut(),
        )?,
    };
    let serve_s = t.elapsed().as_secs_f64();
    Ok(Timed { result: finish(exp, p, pump).0, serve_s })
}

/// Run `exp` through this file's copy of the pump loop, with spans. The
/// scheme instance is handed back for its own counters.
pub fn run_traced(exp: &LifetimeExperiment) -> Result<(Timed, Spans, SchemeInstance), DriverError> {
    let mut p = prepare(exp)?;
    let mut bare = wearless_device(exp.scheme.physical_lines(exp.data_lines));
    let mut sp = Spans::default();
    let t = Instant::now();
    traced_pump(&mut p, &mut bare, &mut sp)?;
    sp.wall_s = t.elapsed().as_secs_f64() - sp.replay_s;
    // The loop serves fault-free runs only (`prepare` rejects fault
    // plans), so there is no recovery to count.
    let (result, wl) = finish(exp, p, PumpStats::default());
    Ok((Timed { result, serve_s: sp.wall_s }, sp, wl))
}

/// The traced copy of `pump_writes_telemetry` (no timing model) and of
/// the fast path of `pump_writes_timed` (timing model, no telemetry).
fn traced_pump(p: &mut Prepared, bare: &mut NvmDevice, sp: &mut Spans) -> Result<(), DriverError> {
    let Prepared { wl, dev, stream, telemetry, timing, cap } = p;
    let cap = *cap;
    if let Some(t) = timing.as_mut() {
        if t.scalar_serve() || telemetry.is_some() {
            return Err(DriverError::Spec(
                "the traced pump covers the fast timed path without telemetry only".into(),
            ));
        }
        t.prime(wl, dev);
    }
    let mut scratch = vec![MemReq::read(0); BLOCK];
    let mut runs: Vec<ReqRun> = Vec::new();
    let mut served: Vec<(u64, u64)> = Vec::new();
    let mut reads = 0u64;
    while !dev.is_dead() && dev.wear().demand_writes < cap {
        feed_observation(stream.as_mut(), dev);
        let a = Instant::now();
        sp.requests += stream.fill_runs(&mut runs, &mut scratch);
        let b = Instant::now();
        sp.runs += runs.len() as u64;
        served.clear();
        let mut block =
            Block { wl: &mut *wl, dev: &mut *dev, cap, served: &mut served, sp: &mut *sp };
        let stop = match timing.as_mut() {
            Some(t) => block.serve_timed(&runs, &mut reads, t),
            None => block.serve(&runs, &mut reads, telemetry.as_mut()),
        }
        .map_err(|()| DriverError::WriteFreeStream { stream: stream.name().to_string() })?;
        let c = Instant::now();
        for &(la, n) in &served {
            bare.write_run(la, n);
        }
        sp.fill_s += (b - a).as_secs_f64();
        sp.serve_s += (c - b).as_secs_f64();
        sp.replay_s += c.elapsed().as_secs_f64();
        if stop {
            break;
        }
    }
    Ok(())
}

/// Observer calls per timed one (see [`sampled`]).
const OBSERVE_SAMPLE: u64 = 8;

/// Make one timing-model observer call, timing one call in
/// [`OBSERVE_SAMPLE`] and counting it that many times. Request-granular
/// streams make one call per request, and a timer pair around each would
/// add a third to the run.
fn sampled(sp: &mut Spans, observe: impl FnOnce()) {
    sp.observe_calls += 1;
    if !sp.observe_calls.is_multiple_of(OBSERVE_SAMPLE) {
        return observe();
    }
    let a = Instant::now();
    observe();
    sp.observe_s += a.elapsed().as_secs_f64() * OBSERVE_SAMPLE as f64;
}

/// One block's serving state.
struct Block<'a> {
    wl: &'a mut SchemeInstance,
    dev: &'a mut NvmDevice,
    cap: u64,
    /// `(la, n)` of every write run served, for the device replay.
    served: &'a mut Vec<(u64, u64)>,
    sp: &'a mut Spans,
}

impl Block<'_> {
    /// Count a read run; `Err` once the stream looks write-free.
    fn read(reads: &mut u64, run: &ReqRun) -> Result<(), ()> {
        *reads += run.len;
        if *reads >= READ_SPIN_LIMIT {
            return Err(());
        }
        Ok(())
    }

    fn finished(&self) -> bool {
        self.dev.is_dead() || self.dev.wear().demand_writes >= self.cap
    }

    /// `pump_writes_telemetry`'s serving of one block. Returns whether the
    /// run is over.
    fn serve(
        &mut self,
        runs: &[ReqRun],
        reads: &mut u64,
        mut telemetry: Option<&mut TelemetryRun>,
    ) -> Result<bool, ()> {
        for run in runs {
            if !run.write {
                Self::read(reads, run)?;
                continue;
            }
            *reads = 0;
            let mut done_total = 0u64;
            while done_total < run.len {
                let until = telemetry.as_deref().map_or(u64::MAX, TelemetryRun::until_sample);
                let n =
                    (run.len - done_total).min(self.cap - self.dev.wear().demand_writes).min(until);
                let done = self.wl.write_run(run.la, n, self.dev);
                self.sp.write_calls += 1;
                self.served.push((run.la, done));
                if let Some(t) = telemetry.as_deref_mut() {
                    let a = Instant::now();
                    t.note_served(done, &*self.wl, self.dev);
                    self.sp.note_s += a.elapsed().as_secs_f64();
                }
                if self.finished() {
                    return Ok(true);
                }
                done_total += done;
            }
        }
        Ok(false)
    }

    /// The fast path of `pump_writes_timed` for one block: certified quiet
    /// spans as one `write_run` and one `observe_run`, everything else as
    /// a scalar `write` and `observe`.
    fn serve_timed(
        &mut self,
        runs: &[ReqRun],
        reads: &mut u64,
        timing: &mut TimingRun,
    ) -> Result<bool, ()> {
        for run in runs {
            if !run.write {
                Self::read(reads, run)?;
                continue;
            }
            *reads = 0;
            let mut done_total = 0u64;
            while done_total < run.len {
                let n = self
                    .wl
                    .quiet_writes(run.la)
                    .min(run.len - done_total)
                    .min(self.cap - self.dev.wear().demand_writes);
                let done = if n == 0 {
                    let pa = self.wl.write(run.la, self.dev);
                    sampled(self.sp, || timing.observe(true, pa, &*self.wl, self.dev));
                    1
                } else {
                    let pa = self.wl.translate(run.la);
                    let done = self.wl.write_run(run.la, n, self.dev);
                    sampled(self.sp, || timing.observe_run(true, pa, done, &*self.wl, self.dev));
                    self.sp.quiet_writes += done;
                    done
                };
                self.sp.write_calls += 1;
                self.served.push((run.la, done));
                done_total += done;
                if self.finished() {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }
}
