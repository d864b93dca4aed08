//! The two DES flows and the streaming campaign, shared by the `fig6`
//! and `campaign` workloads. The untraced path calls
//! `run_regular_flow`/`run_secure_flow` exactly as a user does; the
//! traced path composes the same public calls, in the same order and
//! with the same options as `run_regular_backend`/`run_secure_backend`,
//! each timed by a [`Ledger`]. Both paths must produce the same design
//! quality ([`ImplQor`]).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use secflow::cells::Library;
use secflow::crypto::dpa_module::{des_dpa_design, PAPER_KEY};
use secflow::dpa::harness::{
    collect_des_analysis_streaming, AnalysisPlan, CampaignAnalysis, CampaignProgram, DesTarget,
};
use secflow::extract::{pair_mismatch, try_extract, Parasitics};
use secflow::flow::{
    decompose_styled, run_regular_flow, run_secure_flow, substitute, verify_precharge_wave,
    verify_rail_complementarity, FlowOptions, Substitution,
};
use secflow::lec::{check_equiv_random_with_parity, check_equiv_with_parity};
use secflow::netlist::Netlist;
use secflow::pnr::{build_clock_tree, place_best_of, route, ClockOptions, GridPitch, PlaceOptions};
use secflow::sim::{sta, SimBackend, SimConfig};
use secflow::synth::{map_design, Design};

use crate::Ledger;

/// Encryptions simulated per streaming chunk (as `exp_mtd_1m`).
pub const CHUNK: usize = 4096;

/// The Fig. 4 DES module and the base library: the flows' inputs.
pub struct DesInputs {
    /// The DES DPA module.
    pub design: Design,
    /// The 0.18 µm base library.
    pub lib: Library,
}

/// Builds the flows' inputs.
pub fn des_inputs() -> DesInputs {
    DesInputs {
        design: des_dpa_design(),
        lib: Library::lib180(),
    }
}

/// Design quality of one implementation; compared bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct ImplQor {
    /// Routed wirelength in tracks.
    pub wirelength: i64,
    /// Via count.
    pub vias: usize,
    /// Placement half-perimeter wirelength.
    pub hpwl: i64,
    /// Critical path with layout parasitics, ps.
    pub critical_path_ps: f64,
    /// Mean relative pair capacitance mismatch (secure only).
    pub pair_mismatch_mean: Option<f64>,
}

impl ImplQor {
    /// Bitwise equality (floats by `to_bits`).
    pub fn same(&self, o: &ImplQor) -> bool {
        self.wirelength == o.wirelength
            && self.vias == o.vias
            && self.hpwl == o.hpwl
            && self.critical_path_ps.to_bits() == o.critical_path_ps.to_bits()
            && self.pair_mismatch_mean.map(f64::to_bits) == o.pair_mismatch_mean.map(f64::to_bits)
    }
}

/// Both implementations, placed, routed and extracted, with what a
/// campaign needs from them.
pub struct DesBuilt {
    lib: Library,
    regular: Netlist,
    regular_par: Parasitics,
    secure: Substitution,
    secure_par: Parasitics,
    /// Design quality of `[regular, secure]`.
    pub qor: [ImplQor; 2],
    /// Gates the two technology mappings produced.
    pub mapped_gates: usize,
}

impl DesBuilt {
    /// Campaign targets `[regular, secure]` on `backend`.
    pub fn targets(&self, backend: SimBackend) -> [DesTarget<'_>; 2] {
        [
            DesTarget {
                netlist: &self.regular,
                lib: &self.lib,
                parasitics: Some(&self.regular_par),
                wddl_inputs: None,
                glitch_free: false,
                backend,
            },
            DesTarget {
                netlist: &self.secure.differential,
                lib: &self.secure.diff_lib,
                parasitics: Some(&self.secure_par),
                wddl_inputs: Some(&self.secure.input_pairs),
                glitch_free: false,
                backend,
            },
        ]
    }

    /// Summed placement HPWL of both implementations.
    pub fn hpwl(&self) -> f64 {
        (self.qor[0].hpwl + self.qor[1].hpwl) as f64
    }
}

/// Runs both flows as a user does (`run_regular_flow`,
/// `run_secure_flow`, verification on). Self-check: the equivalence
/// check proves the secure netlist equivalent (railcheck failures are
/// flow errors).
pub fn build_untraced(inp: &DesInputs, opts: &FlowOptions) -> Result<DesBuilt, String> {
    let reg = run_regular_flow(&inp.design, &inp.lib, opts).map_err(|e| e.to_string())?;
    let sec = run_secure_flow(&inp.design, &inp.lib, opts).map_err(|e| e.to_string())?;
    if sec.report.lec_equivalent != Some(true) {
        return Err(format!(
            "secure flow equivalence check: {:?}",
            sec.report.lec_equivalent
        ));
    }
    let qor = [
        ImplQor {
            wirelength: reg.report.wirelength_tracks,
            vias: reg.report.vias,
            hpwl: reg.routed.placed.total_hpwl(&reg.netlist, &inp.lib),
            critical_path_ps: reg.report.critical_path_ps,
            pair_mismatch_mean: None,
        },
        ImplQor {
            wirelength: sec.report.wirelength_tracks,
            vias: sec.report.vias,
            hpwl: sec
                .fat_routed
                .placed
                .total_hpwl(&sec.substitution.fat, &sec.substitution.fat_lib),
            critical_path_ps: sec.report.critical_path_ps,
            pair_mismatch_mean: sec.report.mean_pair_mismatch,
        },
    ];
    Ok(DesBuilt {
        lib: inp.lib.clone(),
        mapped_gates: reg.netlist.gate_count() + sec.mapped.gate_count(),
        regular: reg.netlist,
        regular_par: reg.parasitics,
        secure: sec.substitution,
        secure_par: sec.parasitics,
        qor,
    })
}

fn place_opts(opts: &FlowOptions, pitch: GridPitch) -> PlaceOptions {
    PlaceOptions {
        fill_factor: opts.fill_factor,
        aspect_ratio: opts.aspect_ratio,
        anneal_moves_per_gate: opts.anneal_moves_per_gate,
        seed: opts.seed,
        pitch,
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The regular flow, call by call, as `run_regular_flow`.
fn regular_traced(
    inp: &DesInputs,
    opts: &FlowOptions,
    led: &mut Ledger,
) -> Result<(Netlist, Parasitics, ImplQor), String> {
    let lib = &inp.lib;
    let netlist = led
        .time("synth.s", || map_design(&inp.design, lib, &opts.map))
        .map_err(err)?;
    netlist.validate().map_err(err)?;
    let placed = led
        .time("place.s", || {
            place_best_of(
                &netlist,
                lib,
                &place_opts(opts, GridPitch::Normal),
                opts.place_restarts,
            )
        })
        .map_err(err)?;
    let routed = led
        .time("route.s", || route(&netlist, lib, &placed, &opts.route))
        .map_err(err)?;
    let par = led
        .time("extract.s", || try_extract(&routed, &netlist, &opts.tech))
        .map_err(err)?;
    // Sign-off: static timing with parasitics, then the clock tree.
    let clock = ClockOptions::default();
    let cp = led
        .time("signoff.s", || sta::analyze(&netlist, lib, Some(&par)))
        .map_err(err)?
        .critical_path_ps;
    led.time("signoff.s", || {
        build_clock_tree(&netlist, lib, &placed, &clock).map(|t| t.report(&clock))
    });
    let qor = ImplQor {
        wirelength: routed.total_wirelength(),
        vias: routed.total_vias(),
        hpwl: placed.total_hpwl(&netlist, lib),
        critical_path_ps: cp,
        pair_mismatch_mean: None,
    };
    Ok((netlist, par, qor))
}

/// The secure flow, call by call, as `run_secure_flow`.
fn secure_traced(
    inp: &DesInputs,
    opts: &FlowOptions,
    led: &mut Ledger,
) -> Result<(Substitution, Parasitics, ImplQor, usize), String> {
    let lib = &inp.lib;
    let mapped = led
        .time("synth.s", || map_design(&inp.design, lib, &opts.map))
        .map_err(err)?;
    mapped.validate().map_err(err)?;
    let sub = led
        .time("substitute.s", || substitute(&mapped, lib))
        .map_err(err)?;
    let placed = led
        .time("place.s", || {
            place_best_of(
                &sub.fat,
                &sub.fat_lib,
                &place_opts(opts, GridPitch::Fat),
                opts.place_restarts,
            )
        })
        .map_err(err)?;
    let fat_routed = led
        .time("route.s", || {
            route(&sub.fat, &sub.fat_lib, &placed, &opts.route)
        })
        .map_err(err)?;
    let decomposed = led
        .time("decompose.s", || {
            decompose_styled(&fat_routed, &sub, opts.decompose_style)
        })
        .map_err(err)?;
    let par = led
        .time("extract.s", || {
            try_extract(&decomposed, &sub.differential, &opts.tech)
        })
        .map_err(err)?;
    if opts.verify {
        let lec = led
            .time("lec.s", || {
                if mapped.gate_count() <= opts.bdd_gate_limit {
                    check_equiv_with_parity(
                        &mapped,
                        lib,
                        &sub.fat,
                        &sub.fat_lib,
                        Some(&sub.fat_output_parity),
                        Some(&sub.fat_register_parity),
                    )
                } else {
                    check_equiv_random_with_parity(
                        &mapped,
                        lib,
                        &sub.fat,
                        &sub.fat_lib,
                        Some(&sub.fat_output_parity),
                        Some(&sub.fat_register_parity),
                        8,
                        opts.seed,
                    )
                }
            })
            .map_err(err)?;
        if !lec.equivalent {
            return Err("secure flow equivalence check refuted".to_string());
        }
        led.time("railcheck.s", || {
            verify_precharge_wave(&sub)?;
            verify_rail_complementarity(&mapped, lib, &sub, 32, opts.seed)
        })
        .map_err(err)?;
    }
    let mismatch = led.time("extract.s", || {
        let pairs: Vec<_> = sub.pairs.iter().map(|p| (p.t, p.f)).collect();
        let routed: Vec<f64> = pair_mismatch(&par, &pairs)
            .iter()
            .filter(|m| m.cap_t_ff + m.cap_f_ff > 0.0)
            .map(|m| m.relative)
            .collect();
        if routed.is_empty() {
            0.0
        } else {
            routed.iter().sum::<f64>() / routed.len() as f64
        }
    });
    let clock = ClockOptions {
        sink_cap_ff: 2.0 * ClockOptions::default().sink_cap_ff,
        ..Default::default()
    };
    let cp = led
        .time("signoff.s", || {
            sta::analyze(&sub.differential, &sub.diff_lib, Some(&par))
        })
        .map_err(err)?
        .critical_path_ps;
    led.time("signoff.s", || {
        build_clock_tree(&sub.fat, &sub.fat_lib, &placed, &clock).map(|t| t.report(&clock))
    });
    let qor = ImplQor {
        wirelength: decomposed.total_wirelength(),
        vias: decomposed.total_vias(),
        hpwl: placed.total_hpwl(&sub.fat, &sub.fat_lib),
        critical_path_ps: cp,
        pair_mismatch_mean: Some(mismatch),
    };
    Ok((sub, par, qor, mapped.gate_count()))
}

/// Both flows through the traced composition.
pub fn build_traced(
    inp: &DesInputs,
    opts: &FlowOptions,
    led: &mut Ledger,
) -> Result<DesBuilt, String> {
    let (regular, regular_par, rq) = regular_traced(inp, opts, led)?;
    let (secure, secure_par, sq, secure_gates) = secure_traced(inp, opts, led)?;
    Ok(DesBuilt {
        lib: inp.lib.clone(),
        mapped_gates: regular.gate_count() + secure_gates,
        regular,
        regular_par,
        secure,
        secure_par,
        qor: [rq, sq],
    })
}

/// A campaign: simulation settings, size and attack plan.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Simulation configuration.
    pub cfg: SimConfig,
    /// Simulation kernel.
    pub backend: SimBackend,
    /// Encryptions per implementation.
    pub n: usize,
    /// Plaintext seed.
    pub seed: u64,
    /// Attacks to run.
    pub plan: AnalysisPlan,
}

impl CampaignSpec {
    /// A campaign under the paper's key with MTD checkpoints every
    /// `n / 40` traces.
    pub fn new(cfg: SimConfig, backend: SimBackend, n: usize, seed: u64, cpa: bool) -> Self {
        CampaignSpec {
            cfg,
            backend,
            n,
            seed,
            plan: AnalysisPlan {
                n_keys: 64,
                correct_key: PAPER_KEY,
                step: Some((n / 40).max(10)),
                dpa: true,
                cpa,
            },
        }
    }

    /// The same campaign with no attack: the producer alone.
    pub fn sim_only(&self) -> CampaignSpec {
        CampaignSpec {
            plan: AnalysisPlan {
                step: None,
                dpa: false,
                cpa: false,
                ..self.plan
            },
            ..self.clone()
        }
    }
}

/// One streaming campaign. Self-check: the harness compares every
/// simulated ciphertext with the DES model and panics on a mismatch;
/// the panic is caught and reported as a failed operation.
pub fn stream(
    program: &CampaignProgram,
    target: &DesTarget<'_>,
    spec: &CampaignSpec,
) -> Result<CampaignAnalysis, String> {
    catch_unwind(AssertUnwindSafe(|| {
        collect_des_analysis_streaming(
            program, target, &spec.cfg, PAPER_KEY, spec.n, spec.seed, &spec.plan, CHUNK, None,
        )
    }))
    .map_err(|_| {
        "campaign panicked (simulated ciphertext disagrees with the DES model)".to_string()
    })?
    .map_err(err)
}

/// Campaigns on both implementations: program build, then the fused
/// producer and attacks. The attack call's time goes to
/// `dpa.attack_s`; [`sim_only_seconds`] later moves the producer's
/// share to `sim.s`.
pub fn campaigns(
    built: &DesBuilt,
    spec: &CampaignSpec,
    led: &mut Ledger,
) -> Result<[CampaignAnalysis; 2], String> {
    let [reg, sec] = built.targets(spec.backend);
    let mut run = |target: &DesTarget<'_>| -> Result<CampaignAnalysis, String> {
        let program = led
            .time("sim.program_build_s", || {
                CampaignProgram::build(target, &spec.cfg)
            })
            .map_err(err)?;
        led.time("dpa.attack_s", || stream(&program, target, spec))
    };
    Ok([run(&reg)?, run(&sec)?])
}

/// Wall time of the campaign producer alone (empty analysis plan) on
/// both implementations, programs built outside the timing.
pub fn sim_only_seconds(built: &DesBuilt, spec: &CampaignSpec) -> Result<f64, String> {
    let spec = spec.sim_only();
    let mut total = 0.0;
    for target in built.targets(spec.backend) {
        let program = CampaignProgram::build(&target, &spec.cfg).map_err(err)?;
        let t = std::time::Instant::now();
        stream(&program, &target, &spec)?;
        total += t.elapsed().as_secs_f64();
    }
    Ok(total)
}

/// DPA measurements to disclosure; "not disclosed" counts as the
/// campaign length.
pub fn mtd_or_n(a: &CampaignAnalysis) -> f64 {
    a.dpa_mtd.as_ref().and_then(|s| s.mtd).unwrap_or(a.n) as f64
}

/// Design quality of `[regular, secure]` and the secure campaign's DPA
/// resistance, under the benchmark's metric names.
pub fn quality(qor: &[ImplQor; 2], secure: &CampaignAnalysis) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        (
            "wirelength_tracks",
            (qor[0].wirelength + qor[1].wirelength) as f64,
        ),
        ("critical_path_ps", qor[1].critical_path_ps),
        (
            "pair_mismatch_mean",
            qor[1].pair_mismatch_mean.unwrap_or(0.0),
        ),
        ("mtd_secure", mtd_or_n(secure)),
    ])
}
