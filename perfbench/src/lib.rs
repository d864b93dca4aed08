//! The secflow benchmark: four workloads (`fig6`, `campaign`, `serve`,
//! `scale`), each measured end to end with observability off, plus a
//! traced run that times every call the benchmark makes into a layer's
//! public function and reads work counts from the `secflow-obs`
//! counter catalog. `NOTES.md` next to this crate explains the
//! workloads, the metrics and what each layer metric should move.

pub mod campaign;
pub mod fig6;
pub mod flows;
pub mod scale;
pub mod serve;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use secflow::obs;

/// End-to-end metrics `(name, unit)`, printed by every workload's
/// untraced run. Must match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_latency_p90_ms", "ms"),
];

/// Per-layer metrics `(name, unit)`, printed by every workload's traced
/// run; a layer the workload never calls reads 0. Must match
/// `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("place.s", "s"),
    ("place.moves", "count"),
    ("place.accept_ratio", "ratio"),
    ("place.hpwl", "tracks"),
    ("route.s", "s"),
    ("route.nets", "count"),
    ("route.ripups", "count"),
    ("route.iterations", "count"),
    ("signoff.s", "s"),
    ("synth.s", "s"),
    ("synth.gates", "count"),
    ("substitute.s", "s"),
    ("decompose.s", "s"),
    ("decompose.rails", "count"),
    ("railcheck.s", "s"),
    ("lec.s", "s"),
    ("lec.bdd_peak_nodes", "count"),
    ("lec.random_rounds", "count"),
    ("extract.s", "s"),
    ("extract.couplings", "count"),
    ("sim.program_build_s", "s"),
    ("sim.s", "s"),
    ("sim.evals", "count"),
    ("sim.ns_per_eval", "ns"),
    ("dpa.attack_s", "s"),
    ("dpa.traces", "count"),
    ("dpa.guesses", "count"),
    ("exec.busy_ratio", "ratio"),
    ("exec.scaling", "ratio"),
    ("serve.hit_latency_ms", "ms"),
    ("serve.miss_latency_ms", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evict", "count"),
    ("obs.overhead_pct", "%"),
    ("glue.s", "s"),
    ("traced.wall_s", "s"),
    ("traces_per_s", "1/s"),
    ("mtd_secure", "count"),
    ("wirelength_tracks", "tracks"),
    ("critical_path_ps", "ps"),
    ("pair_mismatch_mean", "ratio"),
];

/// Key guesses every attack evaluates (the Fig. 4 module's 6-bit key).
const KEY_GUESSES: f64 = 64.0;

/// Fewest set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Cheap set-ups repeat until this much time has passed, so that their
/// median is steady.
const SETUP_MIN_S: f64 = 0.25;
/// Fewest timed operations a run takes, however short `--seconds` is.
const MIN_OPS: usize = 3;
/// Share of the traced wall time the timed layer calls must cover.
pub const MIN_LAYER_COVERAGE: f64 = 0.9;

/// What one benchmark run is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Smoke size: the same pipeline and self-checks on small inputs.
    pub smoke: bool,
    /// Directory for sockets and cache spill files.
    pub work_dir: PathBuf,
    /// Executable whose `daemon` subcommand runs the job server.
    pub daemon_exe: PathBuf,
}

/// Operations attempted and failed; a failed self-check counts as a
/// failed operation and never aborts the run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    /// Operations attempted (including self-checks).
    pub attempted: u64,
    /// Operations whose result or self-check failed.
    pub failed: u64,
}

impl Checks {
    /// Records one operation's verdict.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            eprintln!("perfbench: failed operation: {e}");
        }
    }
}

/// The outcome of one run: checks, metrics by name, and deterministic
/// outputs (design quality, thread counts) for the information line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation verdicts.
    pub checks: Checks,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra facts printed before the result line.
    pub info: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Renders the result line: `correct`, `attempted`, `failed` and
    /// every metric of `catalog` with its unit. A metric the run did
    /// not set reads 0 (a layer the workload never calls).
    pub fn result_json(&self, catalog: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = catalog
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.checks.failed == 0 && self.checks.attempted > 0,
            self.checks.attempted,
            self.checks.failed,
            metrics.join(",")
        )
    }

    /// Renders the information line.
    pub fn info_json(&self, workload: &str) -> String {
        let fields: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{\"workload\":\"{workload}\",{}}}", fields.join(","))
    }

    /// Sets the end-to-end operation metrics from per-operation wall
    /// times: median, 90th percentile and throughput.
    pub fn set_op_metrics(&mut self, walls: &[f64]) {
        self.metrics.insert("wall_s", median(walls));
        self.metrics
            .insert("jobs_per_s", walls.len() as f64 / walls.iter().sum::<f64>());
        self.metrics
            .insert("job_latency_p90_ms", quantile(walls, 0.9) * 1e3);
    }

    /// Records the worker count the workload ran at.
    pub fn set_threads(&mut self) {
        self.info
            .insert("threads", secflow::exec::effective_threads() as f64);
        self.info.insert(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        );
    }

    /// The traced run: alternates one untraced and one traced operation
    /// until `seconds` have passed (at least one pair), then sets every
    /// per-layer metric to its median over the traced operations and
    /// `obs.overhead_pct` from the median walls of the two kinds.
    /// `untraced` returns its wall time, `traced` its layer record.
    pub fn trace(
        &mut self,
        seconds: f64,
        checks: &mut Checks,
        mut untraced: impl FnMut(&mut Checks) -> f64,
        mut traced: impl FnMut(&mut Checks) -> BTreeMap<&'static str, f64>,
    ) {
        let mut walls = Vec::new();
        let mut records = Vec::new();
        let start = Instant::now();
        while records.is_empty() || start.elapsed().as_secs_f64() < seconds {
            walls.push(untraced(checks));
            records.push(traced(checks));
        }
        for (name, _) in PER_LAYER {
            let xs: Vec<f64> = records
                .iter()
                .filter_map(|r| r.get(name).copied())
                .collect();
            if !xs.is_empty() {
                self.metrics.insert(name, median(&xs));
            }
        }
        let traced = self.metrics["traced.wall_s"];
        let plain = median(&walls);
        self.metrics
            .insert("obs.overhead_pct", 100.0 * (traced - plain) / plain);
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between closest
/// ranks (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set (`VmHWM`) of process `pid` (this process when
/// `None`), in MiB; 0 where `/proc` is unavailable.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` at least [`SETUP_REPEATS`] times and for at least
/// [`SETUP_MIN_S`], and returns the last result with the median set-up
/// time.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPEATS || times.iter().sum::<f64>() < SETUP_MIN_S {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Runs `op` until `seconds` have passed and at least [`MIN_OPS`]
/// operations ran. `op` returns the wall time it wants counted, so
/// result comparisons stay outside the measurement.
pub fn measure(seconds: f64, mut op: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        walls.push(op());
    }
    walls
}

/// Per-layer wall time of the calls the benchmark makes into each
/// layer's public functions. An untraced ledger only runs the calls.
#[derive(Debug, Default)]
pub struct Ledger {
    on: bool,
    times: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// A ledger that times nothing (the end-to-end path).
    pub fn off() -> Ledger {
        Ledger::default()
    }

    /// A ledger that times every call.
    pub fn on() -> Ledger {
        Ledger {
            on: true,
            times: BTreeMap::new(),
        }
    }

    /// Runs `f`, adding its wall time to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        *self.times.entry(layer).or_default() += t.elapsed().as_secs_f64();
        r
    }

    /// Seconds recorded for `layer`.
    pub fn get(&self, layer: &str) -> f64 {
        self.times.get(layer).copied().unwrap_or(0.0)
    }

    /// Moves `secs` of `from`'s time to `to` (splitting a fused call
    /// by a separately measured part of it).
    pub fn shift(&mut self, from: &'static str, to: &'static str, secs: f64) {
        *self.times.entry(from).or_default() -= secs;
        *self.times.entry(to).or_default() += secs;
    }
}

/// One traced operation: `f` runs under an observability session with
/// an armed ledger; the record holds its layer times, the session's
/// work counters, glue time and the traced wall. The layer times must
/// cover [`MIN_LAYER_COVERAGE`] of the wall, or the verdict is a
/// failure.
pub fn traced_op<T>(
    f: impl FnOnce(&mut Ledger) -> T,
) -> (T, Ledger, BTreeMap<&'static str, f64>, Result<(), String>) {
    let fresh = obs::start();
    let t = Instant::now();
    let mut led = Ledger::on();
    let value = f(&mut led);
    let wall = t.elapsed().as_secs_f64();
    let report = obs::finish().unwrap_or_else(obs::Report::empty);
    let mut rec = counters(&report);
    let covered: f64 = led.times.values().sum();
    rec.insert("traced.wall_s", wall);
    rec.insert("glue.s", wall - covered);
    let threads = secflow::exec::effective_threads() as f64;
    let busy_ns: u64 = report.workers.iter().map(|w| w.busy_ns).sum();
    rec.insert("exec.busy_ratio", busy_ns as f64 / (threads * wall * 1e9));
    let verdict = if !fresh {
        Err("an observability session was already active".to_string())
    } else if covered < MIN_LAYER_COVERAGE * wall {
        Err(format!(
            "layer calls cover {:.1}% of the traced wall ({wall:.3} s), below {:.0}%",
            100.0 * covered / wall,
            100.0 * MIN_LAYER_COVERAGE
        ))
    } else {
        Ok(())
    };
    (value, led, rec, verdict)
}

/// Copies the ledger's layer times into `rec` and derives the
/// per-evaluation simulation cost once `sim.s` is final.
pub fn finish_record(led: &Ledger, rec: &mut BTreeMap<&'static str, f64>) {
    for (layer, secs) in &led.times {
        rec.insert(layer, *secs);
    }
    let evals = rec.get("sim.evals").copied().unwrap_or(0.0)
        + rec.get("sim.bitslice.evals").copied().unwrap_or(0.0);
    if evals > 0.0 {
        rec.insert("sim.ns_per_eval", led.get("sim.s") * 1e9 / evals);
    }
}

/// Work counts of a finished session, under the benchmark's metric
/// names.
fn counters(r: &obs::Report) -> BTreeMap<&'static str, f64> {
    use obs::{Counter as C, Gauge as G};
    let c = |k| r.counter(k) as f64;
    let mut m = BTreeMap::new();
    m.insert("place.moves", c(C::PlaceMoves));
    if c(C::PlaceMoves) > 0.0 {
        m.insert("place.accept_ratio", c(C::PlaceAccepted) / c(C::PlaceMoves));
    }
    m.insert("route.nets", c(C::RouteNets));
    m.insert("route.ripups", c(C::RouteRipups));
    m.insert("route.iterations", c(C::RouteIterations));
    m.insert("decompose.rails", c(C::DecomposeRails));
    m.insert("lec.bdd_peak_nodes", r.gauge(G::LecBddPeakNodes) as f64);
    m.insert("lec.random_rounds", c(C::LecRandomRounds));
    m.insert("extract.couplings", c(C::ExtractCouplings));
    m.insert("sim.evals", c(C::SimEvals));
    m.insert("sim.bitslice.evals", c(C::SimBitsliceEvals));
    m.insert("dpa.traces", c(C::DpaTraces));
    // The streaming attacks leave `dpa.guesses` (a batch-attack count)
    // alone; their work is one update of every key guess per trace fed
    // to each stream.
    m.insert(
        "dpa.guesses",
        c(C::DpaGuesses) + c(C::DpaStreamTraces) * KEY_GUESSES,
    );
    m
}
