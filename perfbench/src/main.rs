//! `perfbench <workload> --seed N --seconds S --trace 0|1 [--smoke]`
//! runs one benchmark workload and prints an information line and then
//! the result line (`correct`, `attempted`, `failed`, `metrics`).
//! `perfbench daemon SOCKET CACHE_DIR` runs the job server the `serve`
//! workload talks to. `run.py` builds this and is the entry point.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{campaign, fig6, scale, serve, RunConfig, END_TO_END, PER_LAYER};

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench fig6|campaign|serve|scale --seed N --seconds S --trace 0|1 [--smoke]\n\
         \x20      perfbench daemon SOCKET CACHE_DIR"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(workload) = args.first() else {
        return usage();
    };
    if workload == "daemon" {
        let [_, socket, cache] = args.as_slice() else {
            return usage();
        };
        return match serve::daemon_main(PathBuf::from(socket), PathBuf::from(cache)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench daemon: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        work_dir: PathBuf::from("."),
        daemon_exe: match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => cfg.smoke = true,
            "--seed" | "--seconds" | "--trace" => {
                let Some(value) = it.next() else {
                    return usage();
                };
                let ok = match flag.as_str() {
                    "--seed" => value.parse().map(|v| cfg.seed = v).is_ok(),
                    "--seconds" => value.parse().map(|v| cfg.seconds = v).is_ok(),
                    _ => match value.as_str() {
                        "0" | "1" => {
                            cfg.trace = value == "1";
                            true
                        }
                        _ => false,
                    },
                };
                if !ok {
                    return usage();
                }
            }
            _ => return usage(),
        }
    }
    let run = match workload.as_str() {
        "fig6" => fig6::run,
        "campaign" => campaign::run,
        "serve" => serve::run,
        "scale" => scale::run,
        _ => return usage(),
    };
    let out = run(&cfg);
    println!("{}", out.info_json(workload));
    println!(
        "{}",
        out.result_json(if cfg.trace { PER_LAYER } else { END_TO_END })
    );
    ExitCode::SUCCESS
}
