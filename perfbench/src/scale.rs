//! `scale`: the paper's 39 K-gate synthetic design (`synthetic_design`
//! as `exp_runtime_39k`, generated in set-up) through map → substitute
//! → coarse fat placement → synthetic fat `.def` → decompose →
//! random-simulation equivalence check → rail check. Synthesis and the
//! rail check dominate it; no other workload shows them.
//!
//! Routing is left out because it does not complete at this size, and
//! extraction because synthetic L-routes are not real geometry.

use std::time::Instant;

use secflow::cells::Library;
use secflow::crypto::bench_gen::synthetic_design;
use secflow::flow::{decompose, substitute, verify_precharge_wave, verify_rail_complementarity};
use secflow::lec::check_equiv_random_with_parity;
use secflow::netlist::Netlist;
use secflow::pnr::{
    place_best_of, GridPitch, PlaceOptions, PlacedDesign, Point, RoutedDesign, RoutedNet, Segment,
    LAYER_H, LAYER_V,
};
use secflow::synth::{map_design, Design, MapOptions};

use crate::{
    finish_record, measure, peak_rss_mb, repeat_setup, traced_op, Checks, Ledger, Outcome,
    RunConfig,
};

/// Seed of the paper-scale synthetic design (`exp_runtime_39k`'s
/// default). The design is fixed so that every workload seed does the
/// same amount of work; the workload seed drives the LEC and railcheck
/// vectors.
const DESIGN_SEED: u64 = 7;
/// Random equivalence-check rounds (64 vectors each), as the secure
/// flow runs above its BDD gate limit.
const LEC_ROUNDS: usize = 8;
/// Rail-complementarity rounds, as the secure flow runs them.
const RAILCHECK_ROUNDS: usize = 32;

/// What one flow produces; two runs with one seed must agree.
#[derive(Debug, PartialEq)]
struct ScaleQor {
    mapped_gates: usize,
    hpwl: i64,
    rails: usize,
    wirelength: i64,
}

/// One L-shaped route between consecutive pins of every net: a
/// synthetic fat `.def` with realistic geometry volume.
fn synthetic_routes(nl: &Netlist, lib: &Library, placed: &PlacedDesign) -> RoutedDesign {
    let mut nets = Vec::new();
    for net in nl.net_ids() {
        let pins = placed.net_pins(nl, lib, net);
        if pins.len() < 2 {
            continue;
        }
        let mut segments = Vec::new();
        for w in pins.windows(2) {
            let ((x0, y0), (x1, y1)) = (w[0], w[1]);
            if x0 != x1 {
                segments.push(Segment::new(
                    Point::new(LAYER_H, x0.min(x1), y0),
                    Point::new(LAYER_H, x0.max(x1), y0),
                ));
            }
            segments.push(Segment::new(
                Point::new(LAYER_H, x1, y0),
                Point::new(LAYER_V, x1, y0),
            ));
            if y0 != y1 {
                segments.push(Segment::new(
                    Point::new(LAYER_V, x1, y0.min(y1)),
                    Point::new(LAYER_V, x1, y0.max(y1)),
                ));
            }
        }
        nets.push(RoutedNet { net, segments });
    }
    RoutedDesign {
        placed: placed.clone(),
        nets,
    }
}

/// One flow over the design. Self-checks: the random equivalence check
/// finds no difference and the rail check passes.
fn flow(design: &Design, lib: &Library, seed: u64, led: &mut Ledger) -> Result<ScaleQor, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mapped = led
        .time("synth.s", || {
            map_design(design, lib, &MapOptions::default())
        })
        .map_err(|e| err(&e))?;
    let sub = led
        .time("substitute.s", || substitute(&mapped, lib))
        .map_err(|e| err(&e))?;
    let coarse = PlaceOptions {
        anneal_moves_per_gate: 0,
        pitch: GridPitch::Fat,
        ..Default::default()
    };
    let placed = led
        .time("place.s", || {
            place_best_of(&sub.fat, &sub.fat_lib, &coarse, 1)
        })
        .map_err(|e| err(&e))?;
    let routed = synthetic_routes(&sub.fat, &sub.fat_lib, &placed);
    let diff = led
        .time("decompose.s", || decompose(&routed, &sub))
        .map_err(|e| err(&e))?;
    let lec = led
        .time("lec.s", || {
            check_equiv_random_with_parity(
                &mapped,
                lib,
                &sub.fat,
                &sub.fat_lib,
                Some(&sub.fat_output_parity),
                Some(&sub.fat_register_parity),
                LEC_ROUNDS,
                seed,
            )
        })
        .map_err(|e| err(&e))?;
    if !lec.equivalent {
        return Err("random-simulation equivalence check refuted".to_string());
    }
    led.time("railcheck.s", || {
        verify_precharge_wave(&sub)?;
        verify_rail_complementarity(&mapped, lib, &sub, RAILCHECK_ROUNDS, seed)
    })
    .map_err(|e| err(&e))?;
    Ok(ScaleQor {
        mapped_gates: mapped.gate_count(),
        hpwl: placed.total_hpwl(&sub.fat, &sub.fat_lib),
        rails: diff.nets.len(),
        wirelength: diff.total_wirelength(),
    })
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let (target_ands, width) = if cfg.smoke { (1500, 16) } else { (72_000, 128) };
    let (design, setup_s) =
        repeat_setup(|| synthetic_design("proto39k", target_ands, width, DESIGN_SEED));
    let lib = Library::lib180();
    let mut out = Outcome::default();
    out.set_threads();
    let mut checks = Checks::default();

    let reference = flow(&design, &lib, cfg.seed, &mut Ledger::off());
    checks.record(reference.as_ref().map(|_| ()).map_err(Clone::clone));
    let agree = |r: Result<ScaleQor, String>| -> Result<(), String> {
        match &reference {
            Ok(want) => r.and_then(|got| {
                if got == *want {
                    Ok(())
                } else {
                    Err(format!("flow result differs: {got:?} vs {want:?}"))
                }
            }),
            Err(_) => Err("no reference flow".to_string()),
        }
    };

    if cfg.trace {
        out.trace(
            cfg.seconds,
            &mut checks,
            |checks| {
                let t = Instant::now();
                let r = flow(&design, &lib, cfg.seed, &mut Ledger::off());
                let wall = t.elapsed().as_secs_f64();
                checks.record(agree(r));
                wall
            },
            |checks| {
                let (r, led, mut rec, covered) =
                    traced_op(|led| flow(&design, &lib, cfg.seed, led));
                checks.record(covered);
                if let Ok(q) = &r {
                    rec.insert("synth.gates", q.mapped_gates as f64);
                    rec.insert("place.hpwl", q.hpwl as f64);
                }
                checks.record(agree(r));
                finish_record(&led, &mut rec);
                rec
            },
        );
    } else {
        let walls = measure(cfg.seconds, || {
            let t = Instant::now();
            let r = flow(&design, &lib, cfg.seed, &mut Ledger::off());
            let wall = t.elapsed().as_secs_f64();
            checks.record(agree(r));
            wall
        });
        out.set_op_metrics(&walls);
        out.metrics.insert("setup_s", setup_s);
        out.metrics.insert("peak_rss_mb", peak_rss_mb(None));
    }
    if let Ok(q) = &reference {
        out.info.insert("mapped_gates", q.mapped_gates as f64);
        out.info.insert("decomposed_rails", q.rails as f64);
    }
    out.checks = checks;
    out
}
