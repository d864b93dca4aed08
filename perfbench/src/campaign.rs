//! `campaign`: both implementations are built in set-up; each operation
//! runs a long fused streaming campaign on each of them (bit-slice
//! kernel, 100 samples per cycle as `exp_mtd_1m`, DPA + CPA + MTD).
//! Simulation does most of the work and place and route none, so a
//! place/route change should move only `setup_s` here.

use std::time::Instant;

use secflow::dpa::harness::CampaignAnalysis;
use secflow::exec::with_threads;
use secflow::flow::FlowOptions;
use secflow::sim::{SimBackend, SimConfig};

use crate::flows::{self, CampaignSpec, DesBuilt};
use crate::{
    finish_record, measure, median, peak_rss_mb, repeat_setup, traced_op, Checks, Ledger, Outcome,
    RunConfig,
};

fn spec(cfg: &RunConfig, n: usize) -> CampaignSpec {
    let sim = SimConfig {
        samples_per_cycle: 100,
        ..SimConfig::default()
    };
    CampaignSpec::new(sim, SimBackend::Bitslice, n, cfg.seed, true)
}

fn encryptions(cfg: &RunConfig) -> usize {
    if cfg.smoke {
        512
    } else {
        1 << 16
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut checks = Checks::default();
    let (built, setup_s) =
        repeat_setup(|| flows::build_untraced(&flows::des_inputs(), &FlowOptions::default()));
    let mut out = Outcome::default();
    out.set_threads();
    let built = match built {
        Ok(b) => b,
        Err(e) => {
            checks.record(Err(e));
            out.checks = checks;
            return out;
        }
    };
    let spec = spec(cfg, encryptions(cfg));

    // Self-check before any timing: the campaigns match the DES model,
    // and every later operation with this seed must reproduce them.
    let reference = flows::campaigns(&built, &spec, &mut Ledger::off());
    checks.record(reference.as_ref().map(|_| ()).map_err(Clone::clone));
    let agree = |r: Result<&[CampaignAnalysis; 2], String>| -> Result<(), String> {
        match &reference {
            Ok(want) if r.as_ref().is_ok_and(|got| *got == want) => Ok(()),
            Ok(_) => r.and(Err(
                "campaign analysis differs between runs of one seed".into()
            )),
            Err(_) => Err("no reference campaign".to_string()),
        }
    };

    if cfg.trace {
        let mut untraced = Vec::new();
        out.trace(
            cfg.seconds,
            &mut checks,
            |checks| {
                let t = Instant::now();
                let r = flows::campaigns(&built, &spec, &mut Ledger::off());
                let wall = t.elapsed().as_secs_f64();
                untraced.push(wall);
                checks.record(agree(r.as_ref().map_err(Clone::clone)));
                wall
            },
            |checks| {
                let (r, mut led, mut rec, covered) =
                    traced_op(|led| flows::campaigns(&built, &spec, led));
                checks.record(covered);
                checks.record(agree(r.as_ref().map_err(Clone::clone)));
                match flows::sim_only_seconds(&built, &spec) {
                    Ok(sim) => led.shift("dpa.attack_s", "sim.s", sim),
                    Err(e) => checks.record(Err(e)),
                }
                finish_record(&led, &mut rec);
                rec
            },
        );
        out.metrics
            .insert("traces_per_s", 2.0 * spec.n as f64 / median(&untraced));
        match scaling(&built, cfg) {
            Ok(s) => {
                out.metrics.insert("exec.scaling", s);
            }
            Err(e) => checks.record(Err(e)),
        }
        if let Ok(r) = &reference {
            out.metrics.extend(flows::quality(&built.qor, &r[1]));
        }
    } else {
        let walls = measure(cfg.seconds, || {
            let t = Instant::now();
            let r = flows::campaigns(&built, &spec, &mut Ledger::off());
            let wall = t.elapsed().as_secs_f64();
            checks.record(agree(r.as_ref().map_err(Clone::clone)));
            wall
        });
        out.set_op_metrics(&walls);
        out.metrics.insert("setup_s", setup_s);
        out.metrics.insert("peak_rss_mb", peak_rss_mb(None));
    }
    if let Ok(r) = &reference {
        out.info.extend(flows::quality(&built.qor, &r[1]));
    }
    out.checks = checks;
    out
}

/// Producer speed-up of `nproc` workers over one, on a quarter of the
/// campaign.
fn scaling(built: &DesBuilt, cfg: &RunConfig) -> Result<f64, String> {
    let quarter = spec(cfg, encryptions(cfg) / 4);
    let parallel = flows::sim_only_seconds(built, &quarter)?;
    let serial = with_threads(1, || flows::sim_only_seconds(built, &quarter))?;
    Ok(serial / parallel)
}
