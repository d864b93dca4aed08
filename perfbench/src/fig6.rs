//! `fig6`: the paper's Fig. 6 run end to end in one process. Both DES
//! flows at paper settings, then a 2 000-encryption, 800-sample,
//! event-kernel DPA + MTD campaign on each implementation. Place and
//! route dominate it.

use std::time::Instant;

use secflow::dpa::harness::CampaignAnalysis;
use secflow::flow::FlowOptions;
use secflow::sim::{SimBackend, SimConfig};

use crate::flows::{self, CampaignSpec, DesInputs, ImplQor};
use crate::{
    finish_record, measure, median, peak_rss_mb, repeat_setup, traced_op, Checks, Ledger, Outcome,
    RunConfig,
};

/// What one Fig. 6 run produces; two runs with one seed must agree.
struct Fig6 {
    qor: [ImplQor; 2],
    analyses: [CampaignAnalysis; 2],
}

impl Fig6 {
    fn same(&self, o: &Fig6) -> Result<(), String> {
        if !(self.qor[0].same(&o.qor[0]) && self.qor[1].same(&o.qor[1])) {
            return Err(format!(
                "design quality differs: {:?} vs {:?}",
                self.qor, o.qor
            ));
        }
        if self.analyses != o.analyses {
            return Err("campaign analysis differs between runs of one seed".to_string());
        }
        Ok(())
    }
}

fn spec(cfg: &RunConfig) -> CampaignSpec {
    let n = if cfg.smoke { 150 } else { 2000 };
    CampaignSpec::new(SimConfig::default(), SimBackend::Event, n, cfg.seed, false)
}

/// One end-to-end run as a user does it: `run_*_flow`, then the
/// campaigns. Returns the result and the campaign part's wall time.
fn run_once(inp: &DesInputs, spec: &CampaignSpec) -> Result<(Fig6, f64), String> {
    let built = flows::build_untraced(inp, &FlowOptions::default())?;
    let t = Instant::now();
    let analyses = flows::campaigns(&built, spec, &mut Ledger::off())?;
    Ok((
        Fig6 {
            qor: built.qor,
            analyses,
        },
        t.elapsed().as_secs_f64(),
    ))
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let (inp, setup_s) = repeat_setup(flows::des_inputs);
    let spec = spec(cfg);
    let mut out = Outcome::default();
    out.set_threads();
    let mut checks = Checks::default();

    // Self-check before any timing: both flows verify, the campaigns
    // match the DES model; every later run must reproduce this one.
    let reference = run_once(&inp, &spec).map(|(r, _)| r);
    checks.record(reference.as_ref().map(|_| ()).map_err(Clone::clone));
    let agree = |r: Result<&Fig6, String>| -> Result<(), String> {
        match &reference {
            Ok(want) => r.and_then(|got| got.same(want)),
            Err(_) => Err("no reference run".to_string()),
        }
    };

    if cfg.trace {
        let mut campaign_s = Vec::new();
        out.trace(
            cfg.seconds,
            &mut checks,
            |checks| {
                let t = Instant::now();
                let r = run_once(&inp, &spec);
                let wall = t.elapsed().as_secs_f64();
                if let Ok((_, c)) = &r {
                    campaign_s.push(*c);
                }
                checks.record(agree(r.as_ref().map(|(f, _)| f).map_err(Clone::clone)));
                wall
            },
            |checks| {
                let (r, mut led, mut rec, covered) = traced_op(|led| {
                    let built = flows::build_traced(&inp, &FlowOptions::default(), led)?;
                    let analyses = flows::campaigns(&built, &spec, led)?;
                    Ok::<_, String>((built, analyses))
                });
                checks.record(covered);
                let r = r.and_then(|(built, analyses)| {
                    let sim = flows::sim_only_seconds(&built, &spec)?;
                    led.shift("dpa.attack_s", "sim.s", sim);
                    rec.insert("place.hpwl", built.hpwl());
                    rec.insert("synth.gates", built.mapped_gates as f64);
                    Ok(Fig6 {
                        qor: built.qor,
                        analyses,
                    })
                });
                // The traced composition must be the program that was timed.
                checks.record(agree(r.as_ref().map_err(Clone::clone)));
                finish_record(&led, &mut rec);
                rec
            },
        );
        out.metrics
            .insert("traces_per_s", 2.0 * spec.n as f64 / median(&campaign_s));
        if let Ok(r) = &reference {
            out.metrics.extend(flows::quality(&r.qor, &r.analyses[1]));
        }
    } else {
        let walls = measure(cfg.seconds, || {
            let t = Instant::now();
            let r = run_once(&inp, &spec);
            let wall = t.elapsed().as_secs_f64();
            checks.record(agree(r.as_ref().map(|(f, _)| f).map_err(Clone::clone)));
            wall
        });
        out.set_op_metrics(&walls);
        out.metrics.insert("setup_s", setup_s);
        out.metrics.insert("peak_rss_mb", peak_rss_mb(None));
    }
    if let Ok(r) = &reference {
        out.info.extend(flows::quality(&r.qor, &r.analyses[1]));
    }
    out.checks = checks;
    out
}
