//! Smoke sizes of every workload, end-to-end and traced: the same
//! pipelines and self-checks as a full run, on small inputs. Also pins
//! the metric catalog to `BENCHMARK.json`.

use std::path::PathBuf;
use std::sync::Mutex;

use perfbench::{RunConfig, END_TO_END, PER_LAYER};
use secflow::serve::Value;

/// Observability sessions are process-wide: one traced run at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn config(workload: &str, trace: bool) -> RunConfig {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}"));
    std::fs::create_dir_all(&work_dir).expect("create work dir");
    RunConfig {
        seed: 5,
        seconds: 0.0,
        trace,
        smoke: true,
        work_dir,
        daemon_exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
    }
}

fn smoke(workload: &str, run: fn(&RunConfig) -> perfbench::Outcome) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for trace in [false, true] {
        let out = run(&config(workload, trace));
        assert!(out.checks.attempted > 0, "{workload}: nothing attempted");
        assert_eq!(
            out.checks.failed, 0,
            "{workload} (trace {trace}): failed operations"
        );
        if !trace {
            for (name, _) in END_TO_END {
                let v = out.metrics.get(name).copied().unwrap_or(0.0);
                assert!(v > 0.0, "{workload}: {name} = {v}");
            }
        }
    }
}

#[test]
fn fig6_smoke() {
    smoke("fig6", perfbench::fig6::run);
}

#[test]
fn campaign_smoke() {
    smoke("campaign", perfbench::campaign::run);
}

#[test]
fn serve_smoke() {
    smoke("serve", perfbench::serve::run);
}

#[test]
fn scale_smoke() {
    smoke("scale", perfbench::scale::run);
}

fn names(v: &Value, key: &str) -> Vec<(String, String)> {
    let Some(Value::Arr(items)) = v.get(key) else {
        panic!("BENCHMARK.json: `{key}` is not a list");
    };
    items
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn catalog_matches_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let v = Value::parse(&text).expect("parse BENCHMARK.json");
    let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names(&v, "end_to_end"), own(END_TO_END));
    assert_eq!(names(&v, "per_layer"), own(PER_LAYER));
}
