//! `serve`: the job server at its defaults (one job worker, 256 MiB
//! artifact cache) plus a spill directory, driven by a closed loop of
//! `nproc` clients on a Unix socket. Each client sends a seeded mix of
//! campaign jobs over both implementations, DPA and CPA, and both trace
//! paths, in blocks of [`BLOCK`] requests ([`PATTERN`]):
//!
//! * 8 exactly repeat an earlier request (response-cache hit);
//! * 9 use a new plaintext seed on a default implementation, built in
//!   set-up (stage hits over place and route);
//! * 3 use new flow options, forcing a cold place and route.
//!
//! The block's shape is the same for every seed, so runs with different
//! seeds do the same kinds of work; the seed picks the repeats and every
//! plaintext and placement seed. Fresh
//! plaintext seeds grow the materialized trace sets past the cache
//! budget, so LRU eviction and spill run.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use secflow::rand::{split_seed, RngExt, SeedableRng, StdRng};
use secflow::serve::{submit, Bind, Response, Value};

use crate::{median, peak_rss_mb, quantile, repeat_setup, Checks, Outcome, RunConfig};

/// Requests per block of the mix.
const BLOCK: usize = 20;
/// Fewest jobs a full-size run sends, however short `--seconds` is.
const MIN_JOBS: usize = 100;
/// Cached responses per run re-checked against a fresh daemon.
const FRESH_CHECKS: usize = 2;
/// How long a daemon may take to accept connections.
const START_TIMEOUT: Duration = Duration::from_secs(30);

/// A job-server process, stopped (and waited for) on drop.
pub struct Daemon {
    child: Child,
    bind: Bind,
}

impl Daemon {
    /// Starts `exe daemon` on `dir/<tag>.sock` with spill directory
    /// `dir/<tag>-cache`, and waits until it answers.
    ///
    /// # Errors
    ///
    /// Spawn errors, or the daemon not answering within the timeout.
    pub fn start(exe: &Path, dir: &Path, tag: &str) -> io::Result<Daemon> {
        let sock = dir.join(format!("{tag}.sock"));
        let cache = dir.join(format!("{tag}-cache"));
        let _ = std::fs::remove_file(&sock);
        let _ = std::fs::remove_dir_all(&cache);
        std::fs::create_dir_all(&cache)?;
        let child = Command::new(exe)
            .arg("daemon")
            .arg(&sock)
            .arg(&cache)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()?;
        let daemon = Daemon {
            child,
            bind: Bind::Unix(sock),
        };
        let t = Instant::now();
        while submit(&daemon.bind, br#"{"job":"stats"}"#).is_err() {
            if t.elapsed() > START_TIMEOUT {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "daemon did not start",
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(daemon)
    }

    /// Peak resident set of the daemon process, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(Some(self.child.id()))
    }

    /// Cache `(hits, misses, evicts)` from the `stats` job.
    fn cache_stats(&self) -> Option<(f64, f64, f64)> {
        let r = submit(&self.bind, br#"{"job":"stats"}"#).ok()?;
        let v = Value::parse(std::str::from_utf8(&r.payload).ok()?).ok()?;
        let c = v.get("cache")?;
        let n = |k| c.get(k).and_then(Value::as_u64).map(|x| x as f64);
        Some((n("hits")?, n("misses")?, n("evicts")?))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = submit(&self.bind, br#"{"job":"shutdown"}"#);
        let t = Instant::now();
        while t.elapsed() < Duration::from_secs(10) {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// An implementation the daemon builds: which flow, and the placement
/// seed standing in for "new flow options".
#[derive(Debug, Clone, Copy)]
struct Impl {
    secure: bool,
    place_seed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Repeat,
    Stage,
    Cold,
}

/// The kinds of one block, spread so that neither client meets a run
/// of cold jobs: 8 repeats, 9 stage hits, 3 cold.
const PATTERN: [Kind; BLOCK] = {
    use Kind::{Cold as C, Repeat as R, Stage as S};
    [S, R, S, R, S, C, R, S, R, S, S, R, C, S, R, S, R, S, C, R]
};

/// A campaign request. `variant` cycles the job kind (with or without
/// MTD), the attack and the trace path through all eight combinations.
fn request(imp: Impl, n: usize, seed: u64, variant: u64) -> String {
    format!(
        concat!(
            r#"{{"job":"{}","implementation":"{}","attack":"{}","trace_path":"{}","#,
            r#""n":{},"seed":{},"options":{{"seed":{},"sim_backend":"bitslice"}}}}"#
        ),
        ["campaign", "attack"][(variant & 1) as usize],
        if imp.secure { "secure" } else { "regular" },
        ["dpa", "cpa"][(variant >> 1 & 1) as usize],
        ["materialize", "streaming"][(variant >> 2 & 1) as usize],
        n,
        seed,
        imp.place_seed,
    )
}

/// The implementations every run starts from: both flows at the
/// default placement seed, built during set-up.
const WARM: [Impl; 2] = [
    Impl {
        secure: true,
        place_seed: 1,
    },
    Impl {
        secure: false,
        place_seed: 1,
    },
];

/// Warm-up requests; their responses seed every client's history.
fn warm_requests(seed: u64, n: usize) -> Vec<String> {
    WARM.iter()
        .enumerate()
        .map(|(i, imp)| request(*imp, n, split_seed(seed, 1 << 48 | i as u64) >> 32, 0))
        .collect()
}

/// Requests with the payloads they returned.
type History = Vec<(String, Vec<u8>)>;

/// One client's seeded request stream.
struct Client {
    rng: StdRng,
    base: u64,
    n: usize,
    /// Requests sent; the position in [`PATTERN`], offset per client.
    sent: usize,
    fresh: u64,
    /// Stage-hit and cold request counts, alternating the flow.
    turns: [u64; 2],
    /// Completed requests with their payloads (repeat candidates).
    history: History,
}

impl Client {
    fn new(seed: u64, id: u64, clients: u64, n: usize, warm: &[(String, Vec<u8>)]) -> Client {
        Client {
            rng: StdRng::seed_from_u64(split_seed(seed, id)),
            base: split_seed(seed, 1 << 40 | id),
            n,
            sent: (id * BLOCK as u64 / clients) as usize,
            fresh: 0,
            turns: [id; 2],
            history: warm.to_vec(),
        }
    }

    /// A new seed for plaintexts or placement, kept below 2^32 so it
    /// survives any JSON number parser.
    fn fresh_seed(&mut self) -> u64 {
        self.fresh += 1;
        split_seed(self.base, self.fresh) >> 32
    }

    fn next(&mut self) -> (Kind, String) {
        let kind = PATTERN[self.sent % BLOCK];
        self.sent += 1;
        let variant = self.turns[0] + self.turns[1];
        match kind {
            Kind::Repeat => {
                let i = self.rng.random_range(0..self.history.len());
                (kind, self.history[i].0.clone())
            }
            Kind::Stage => {
                // Stage hits go to the default implementations, which
                // they keep hot in the LRU; the flows alternate so each
                // run has the same cost mix.
                self.turns[0] += 1;
                let imp = WARM[(self.turns[0] % 2) as usize];
                let seed = self.fresh_seed();
                (kind, request(imp, self.n, seed, variant))
            }
            Kind::Cold => {
                self.turns[1] += 1;
                let imp = Impl {
                    secure: self.turns[1].is_multiple_of(2),
                    place_seed: self.fresh_seed(),
                };
                let seed = self.fresh_seed();
                (kind, request(imp, self.n, seed, variant))
            }
        }
    }
}

/// One completed job as the client saw it.
struct Job {
    kind: Kind,
    request: String,
    payload: Vec<u8>,
    cached: bool,
    latency: f64,
}

/// Checks one response: the envelope says `ok`, and a repeat returns
/// the first response's payload byte for byte.
fn verdict(r: &io::Result<Response>, first: Option<&[u8]>) -> Result<bool, String> {
    let r = r.as_ref().map_err(|e| format!("submit: {e}"))?;
    let env = Value::parse(&r.envelope).map_err(|e| format!("envelope: {e}"))?;
    if env.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("job failed: {}", r.envelope));
    }
    if first.is_some_and(|p| p != r.payload.as_slice()) {
        return Err("repeated request returned a different payload".to_string());
    }
    Ok(env.get("cached").and_then(Value::as_bool) == Some(true))
}

/// Starts a daemon and builds the warm implementations on it.
fn set_up(cfg: &RunConfig, tag: &str, n: usize) -> Result<(Daemon, History), String> {
    let daemon = Daemon::start(&cfg.daemon_exe, &cfg.work_dir, tag).map_err(|e| e.to_string())?;
    let mut warm = Vec::new();
    for req in warm_requests(cfg.seed, n) {
        let r = submit(&daemon.bind, req.as_bytes());
        verdict(&r, None)?;
        warm.push((req, r.map_err(|e| e.to_string())?.payload));
    }
    Ok((daemon, warm))
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let (n, min_jobs) = if cfg.smoke {
        (64, 20)
    } else {
        (2048, MIN_JOBS)
    };
    let clients = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut out = Outcome::default();
    out.set_threads();
    let mut checks = Checks::default();
    let mut round = 0;
    let (up, setup_s) = repeat_setup(|| {
        round += 1;
        set_up(cfg, &format!("serve{round}"), n)
    });
    let (daemon, warm) = match up {
        Ok(x) => x,
        Err(e) => {
            checks.record(Err(e));
            out.checks = checks;
            return out;
        }
    };

    // Completed jobs, verdicts, and each client's time in its loop.
    let shared = Mutex::new((Vec::<Job>::new(), checks, 0.0f64));
    let sent = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for id in 0..clients as u64 {
            let (daemon, warm, shared, sent) = (&daemon, &warm, &shared, &sent);
            s.spawn(move || {
                let mut client = Client::new(cfg.seed, id, clients as u64, n, warm);
                loop {
                    let k = sent.fetch_add(1, Ordering::Relaxed);
                    if k >= min_jobs && start.elapsed().as_secs_f64() >= cfg.seconds {
                        break;
                    }
                    let (kind, req) = client.next();
                    let first = (kind == Kind::Repeat).then(|| {
                        client
                            .history
                            .iter()
                            .find(|(r, _)| *r == req)
                            .map(|(_, p)| p.clone())
                    });
                    let t = Instant::now();
                    let r = submit(&daemon.bind, req.as_bytes());
                    let latency = t.elapsed().as_secs_f64();
                    let v = verdict(&r, first.flatten().as_deref());
                    let mut g = shared.lock().expect("a client thread panicked");
                    if let (Ok(cached), Ok(resp)) = (&v, r) {
                        if kind != Kind::Repeat {
                            client.history.push((req.clone(), resp.payload.clone()));
                        }
                        g.0.push(Job {
                            kind,
                            request: req,
                            payload: resp.payload,
                            cached: *cached,
                            latency,
                        });
                    }
                    g.1.record(v.map(|_| ()));
                }
                shared.lock().expect("a client thread panicked").2 += start.elapsed().as_secs_f64();
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let (jobs, mut checks, client_s) = shared.into_inner().expect("a client thread panicked");
    let rss = daemon.peak_rss_mb();
    let stats = daemon.cache_stats();
    drop(daemon);

    // A seeded sample of cached responses must equal a cold run on a
    // fresh daemon.
    let cached: Vec<&Job> = jobs.iter().filter(|j| j.cached).collect();
    let mut rng = StdRng::seed_from_u64(split_seed(cfg.seed, u64::MAX - 1));
    for _ in 0..FRESH_CHECKS.min(cached.len()) {
        let job = cached[rng.random_range(0..cached.len())];
        let verdict = Daemon::start(&cfg.daemon_exe, &cfg.work_dir, "fresh")
            .map_err(|e| e.to_string())
            .and_then(|fresh| {
                let r = submit(&fresh.bind, job.request.as_bytes());
                match verdict(&r, Some(&job.payload)) {
                    Ok(false) => Ok(()),
                    Ok(true) => Err("a fresh daemon answered from its cache".to_string()),
                    Err(e) => Err(format!("fresh-daemon check: {e}")),
                }
            });
        checks.record(verdict);
    }

    let latencies: Vec<f64> = jobs.iter().map(|j| j.latency).collect();
    if cfg.trace {
        let by = |cached: bool| -> Vec<f64> {
            jobs.iter()
                .filter(|j| j.cached == cached)
                .map(|j| j.latency)
                .collect()
        };
        out.metrics
            .insert("serve.hit_latency_ms", median(&by(true)) * 1e3);
        out.metrics
            .insert("serve.miss_latency_ms", median(&by(false)) * 1e3);
        if let Some((hits, misses, evicts)) = stats {
            out.metrics
                .insert("serve.cache.hit_ratio", hits / (hits + misses));
            out.metrics.insert("serve.cache.evict", evicts);
        }
        // The layer call here is `submit`: client time outside it is glue.
        let busy: f64 = latencies.iter().sum();
        out.metrics.insert("traced.wall_s", elapsed);
        out.metrics
            .insert("glue.s", (client_s - busy) / clients as f64);
        if busy < crate::MIN_LAYER_COVERAGE * client_s {
            checks.record(Err(format!(
                "submit calls cover {:.1}% of client time",
                100.0 * busy / client_s
            )));
        }
        out.metrics
            .insert("traces_per_s", (jobs.len() * n) as f64 / elapsed);
    } else {
        out.metrics.insert("setup_s", setup_s);
        out.metrics.insert("peak_rss_mb", rss);
        out.metrics.insert("wall_s", median(&latencies));
        out.metrics
            .insert("jobs_per_s", jobs.len() as f64 / elapsed);
        out.metrics
            .insert("job_latency_p90_ms", quantile(&latencies, 0.9) * 1e3);
    }
    out.info.insert("clients", clients as f64);
    out.info.insert("jobs", jobs.len() as f64);
    for (name, kind) in [
        ("cold_jobs", Kind::Cold),
        ("stage_jobs", Kind::Stage),
        ("repeat_jobs", Kind::Repeat),
    ] {
        out.info
            .insert(name, jobs.iter().filter(|j| j.kind == kind).count() as f64);
    }
    out.checks = checks;
    out
}

/// The `daemon` subcommand: the job server at its defaults on `socket`,
/// spilling to `cache_dir`, until a `shutdown` job arrives.
///
/// # Errors
///
/// Bind or worker-spawn errors.
pub fn daemon_main(socket: PathBuf, cache_dir: PathBuf) -> io::Result<()> {
    secflow::serve::serve(&secflow::serve::ServerOptions {
        bind: Bind::Unix(socket),
        cache_dir: Some(cache_dir),
        ..Default::default()
    })
}
