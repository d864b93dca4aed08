//! Equivalence of the WDDL rail checks against a frozen scalar oracle.
//!
//! `oracle` is a verbatim, test-only copy of the original per-round
//! checker: one scalar zero-delay evaluation of each netlist per random
//! round. The library checkers must return an identical `Result` —
//! the same verdict *and* the same error value — on clean
//! substitutions and on every fault below, for round counts on both
//! sides of each 64-round block boundary.

use secflow::cells::{CellFunction, Library};
use secflow::flow::{
    substitute, verify_precharge_wave, verify_rail_complementarity, RailCheckError, Substitution,
};
use secflow::netlist::{GateKind, NetId, Netlist};
use secflow::synth::{map_design, Design, Lit, MapOptions};
use secflow_testkit::{fault, Gen};

mod oracle {
    use secflow::cells::{CellFunction, Library};
    use secflow::flow::{RailCheckError, Substitution, WDDL_REGISTER};
    use secflow::netlist::{topo_order, GateKind, NetId, Netlist};
    use secflow::rand::SplitMix;

    fn eval(
        nl: &Netlist,
        lib: &Library,
        forced: &[(NetId, bool)],
        tie_override: Option<bool>,
    ) -> Result<Vec<bool>, RailCheckError> {
        let mut values = vec![false; nl.net_count()];
        for &(n, v) in forced {
            values[n.index()] = v;
        }
        let order = topo_order(nl).ok_or_else(|| RailCheckError::Cyclic {
            netlist: nl.name.clone(),
        })?;
        for gid in order {
            let g = nl.gate(gid);
            if g.kind == GateKind::Seq {
                continue;
            }
            let cell = lib
                .by_name(&g.cell)
                .ok_or_else(|| RailCheckError::UnknownCell {
                    gate: g.name.to_string(),
                    cell: g.cell.to_string(),
                })?;
            match cell.function() {
                CellFunction::Comb(tt) => {
                    let mut idx = 0u32;
                    for (i, &inp) in g.inputs.iter().enumerate() {
                        if values[inp.index()] {
                            idx |= 1 << i;
                        }
                    }
                    values[g.outputs[0].index()] = tt.eval(idx);
                }
                CellFunction::Tie(v) => {
                    values[g.outputs[0].index()] = tie_override.unwrap_or(*v);
                }
                CellFunction::Dff | CellFunction::WddlDff => {}
            }
        }
        Ok(values)
    }

    pub fn verify_precharge_wave(sub: &Substitution) -> Result<(), RailCheckError> {
        let nl = &sub.differential;
        let values = eval(nl, &sub.diff_lib, &[], Some(false))?;
        for id in nl.net_ids() {
            if values[id.index()] {
                return Err(RailCheckError::PrechargeLeak {
                    net: nl.net(id).name.to_string(),
                });
            }
        }
        Ok(())
    }

    pub fn verify_rail_complementarity(
        original: &Netlist,
        base_lib: &Library,
        sub: &Substitution,
        rounds: usize,
        seed: u64,
    ) -> Result<(), RailCheckError> {
        let diff = &sub.differential;
        let mut rng = SplitMix(seed);
        let orig_regs: Vec<(NetId, NetId)> = original
            .gates()
            .iter()
            .filter(|g| g.kind == GateKind::Seq)
            .map(|g| (g.inputs[0], g.outputs[0]))
            .collect();
        let diff_regs: Vec<(NetId, NetId, NetId, NetId)> = diff
            .gates()
            .iter()
            .filter(|g| g.cell == WDDL_REGISTER)
            .map(|g| (g.inputs[0], g.inputs[1], g.outputs[0], g.outputs[1]))
            .collect();
        if orig_regs.len() != diff_regs.len() {
            return Err(RailCheckError::RegisterCountMismatch {
                original: orig_regs.len(),
                differential: diff_regs.len(),
            });
        }
        for _ in 0..rounds {
            let pi_vals: Vec<bool> = original
                .inputs()
                .iter()
                .map(|_| rng.next() & 1 == 1)
                .collect();
            let reg_vals: Vec<bool> = orig_regs.iter().map(|_| rng.next() & 1 == 1).collect();
            let mut orig_forced: Vec<(NetId, bool)> = original
                .inputs()
                .iter()
                .copied()
                .zip(pi_vals.iter().copied())
                .collect();
            for ((_, q), &v) in orig_regs.iter().zip(&reg_vals) {
                orig_forced.push((*q, v));
            }
            let orig_values = eval(original, base_lib, &orig_forced, None)?;
            let mut diff_forced: Vec<(NetId, bool)> = Vec::new();
            for (&(t, f), &v) in sub.input_pairs.iter().zip(&pi_vals) {
                diff_forced.push((t, v));
                diff_forced.push((f, !v));
            }
            for ((_, _, qt, qf), &v) in diff_regs.iter().zip(&reg_vals) {
                diff_forced.push((*qt, v));
                diff_forced.push((*qf, !v));
            }
            let diff_values = eval(diff, &sub.diff_lib, &diff_forced, None)?;
            for p in &sub.pairs {
                if diff_values[p.t.index()] == diff_values[p.f.index()] {
                    return Err(RailCheckError::NotComplementary {
                        t: diff.net(p.t).name.to_string(),
                        f: diff.net(p.f).name.to_string(),
                    });
                }
            }
            for (i, (&po, &(t, _))) in original.outputs().iter().zip(&sub.output_pairs).enumerate()
            {
                if orig_values[po.index()] != diff_values[t.index()] {
                    return Err(RailCheckError::OutputMismatch { index: i });
                }
            }
            for (i, ((d, _), (dt, _, _, _))) in orig_regs.iter().zip(&diff_regs).enumerate() {
                if orig_values[d.index()] != diff_values[dt.index()] {
                    return Err(RailCheckError::OutputMismatch {
                        index: original.outputs().len() + i,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Round counts around the 64-round block boundaries.
const ROUNDS: [usize; 7] = [0, 1, 31, 63, 64, 65, 130];

/// A random mapped design with registers (the shape
/// `substitute`'s own property test draws).
fn random_mapped(g: &mut Gen, lib: &Library) -> Netlist {
    let n_inputs = g.random_range(1..6usize);
    let n_regs = g.random_range(0..4usize);
    let mut d = Design::new("rand");
    let mut pool: Vec<Lit> = (0..n_inputs).map(|i| d.input(format!("i{i}"))).collect();
    let regs: Vec<Lit> = (0..n_regs).map(|i| d.register(format!("q{i}"))).collect();
    pool.extend(regs.iter().copied());
    let steps = g.vec_with(1..24, |g| {
        (
            g.random::<u8>(),
            g.random::<u16>(),
            g.random::<u16>(),
            g.random::<bool>(),
        )
    });
    for (op, a, b, neg) in steps {
        let pa = pool[a as usize % pool.len()];
        let pb = pool[b as usize % pool.len()];
        let mut l = match op % 4 {
            0 => d.aig.and(pa, pb),
            1 => d.aig.or(pa, pb),
            2 => d.aig.xor(pa, pb),
            _ => d.aig.and(pa, pb.not()),
        };
        if neg {
            l = l.not();
        }
        pool.push(l);
    }
    for (i, &q) in regs.iter().enumerate() {
        let src = pool[pool.len() - 1 - (i % pool.len().min(8))];
        d.set_next(q, src);
    }
    let n_out = g.random_range(1..4usize).min(pool.len());
    for k in 0..n_out {
        d.output(format!("y{k}"), pool[pool.len() - 1 - k]);
    }
    map_design(&d, lib, &MapOptions::default()).expect("map")
}

/// Copies `nl` gate by gate, letting `edit` rewrite each gate's
/// `(cell, inputs, outputs)`; net ids are preserved.
fn rebuild(
    nl: &Netlist,
    mut edit: impl FnMut(usize, &mut String, &mut Vec<NetId>, &mut Vec<NetId>),
) -> Netlist {
    let mut out = Netlist::new(nl.name.clone());
    for id in nl.net_ids() {
        let name = nl.net(id).name.clone();
        if nl.inputs().contains(&id) {
            out.add_input(name);
        } else {
            out.add_net(name);
        }
    }
    for (i, g) in nl.gates().iter().enumerate() {
        let (mut cell, mut ins, mut outs) =
            (g.cell.to_string(), g.inputs.to_vec(), g.outputs.to_vec());
        edit(i, &mut cell, &mut ins, &mut outs);
        out.add_gate(g.name.clone(), cell, g.kind, ins, outs);
    }
    for &o in nl.outputs() {
        out.mark_output(o);
    }
    out
}

/// Appends a gate of a cell no library has, fed by net 0.
fn with_unknown_cell(nl: &Netlist) -> Netlist {
    let mut out = nl.clone();
    let y = out.add_net("__unknown_y");
    let src = out.net_ids().next().expect("netlist has nets");
    out.add_gate(
        "__unknown",
        "NOT_A_CELL",
        GateKind::Comb,
        vec![src],
        vec![y],
    );
    out
}

/// Appends a two-inverter ring.
fn with_cycle(nl: &Netlist) -> Netlist {
    let mut out = nl.clone();
    let a = out.add_net("__ring_a");
    let b = out.add_net("__ring_b");
    out.add_gate("__ring0", "INV", GateKind::Comb, vec![a], vec![b]);
    out.add_gate("__ring1", "INV", GateKind::Comb, vec![b], vec![a]);
    out
}

/// The faults applied to one clean `(original, substitution)` pair,
/// each with a label for failure messages.
fn variants(
    g: &mut Gen,
    nl: &Netlist,
    sub: &Substitution,
) -> Vec<(&'static str, Netlist, Substitution)> {
    let mut out = vec![("clean", nl.clone(), sub.clone())];
    let has_rail_primitive = sub
        .differential
        .gates()
        .iter()
        .any(|g| matches!(g.cell.as_str(), "AND2" | "OR2"));
    if has_rail_primitive {
        for _ in 0..3 {
            let mut s = sub.clone();
            s.differential =
                fault::mismatch_rail_function(&s.differential, g.random::<u16>() as usize);
            out.push(("mismatch_rail_function", nl.clone(), s));
        }
    }
    if !sub.output_pairs.is_empty() {
        let mut s = sub.clone();
        let i = g.random_range(0..s.output_pairs.len());
        let (t, f) = s.output_pairs[i];
        s.output_pairs[i] = (f, t);
        out.push(("swapped output pair", nl.clone(), s));
    }
    if !sub.input_pairs.is_empty() {
        let mut s = sub.clone();
        let i = g.random_range(0..s.input_pairs.len());
        let (t, f) = s.input_pairs[i];
        s.input_pairs[i] = (f, t);
        out.push(("swapped input pair", nl.clone(), s));
    }
    let regs: Vec<usize> = (0..sub.differential.gate_count())
        .filter(|&i| sub.differential.gates()[i].cell == secflow::flow::WDDL_REGISTER)
        .collect();
    if !regs.is_empty() {
        let victim = regs[g.random_range(0..regs.len())];
        let mut s = sub.clone();
        s.differential = rebuild(&sub.differential, |i, _, ins, _| {
            if i == victim {
                ins.swap(0, 1);
            }
        });
        out.push(("swapped register D pair", nl.clone(), s));
        let mut s = sub.clone();
        s.differential = rebuild(&sub.differential, |i, _, _, outs| {
            if i == victim {
                outs.swap(0, 1);
            }
        });
        out.push(("swapped register Q pair", nl.clone(), s));
    }
    out.push((
        "unknown cell in original",
        with_unknown_cell(nl),
        sub.clone(),
    ));
    let mut s = sub.clone();
    s.differential = with_unknown_cell(&sub.differential);
    out.push(("unknown cell in differential", nl.clone(), s));
    out.push(("cycle in original", with_cycle(nl), sub.clone()));
    let mut s = sub.clone();
    s.differential = with_cycle(&sub.differential);
    out.push(("cycle in differential", nl.clone(), s));
    // A constant driver in the differential netlist that is high even
    // during precharge unless ties are modelled as precharged.
    let mut s = sub.clone();
    let hi = s.differential.add_net("__tie_hi");
    s.differential
        .add_gate("__tiehi", "TIEHI", GateKind::Comb, vec![], vec![hi]);
    out.push(("extra tie-high", nl.clone(), s));
    // An inverter is high when its input precharges to 0.
    let mut s = sub.clone();
    let y = s.differential.add_net("__leak_y");
    let src = s.differential.net_ids().next().expect("netlist has nets");
    s.differential
        .add_gate("__leak", "INV", GateKind::Comb, vec![src], vec![y]);
    out.push(("inverter in differential", nl.clone(), s));
    out
}

fn kind(r: &Result<(), RailCheckError>) -> &'static str {
    match r {
        Ok(()) => "Ok",
        Err(RailCheckError::PrechargeLeak { .. }) => "PrechargeLeak",
        Err(RailCheckError::NotComplementary { .. }) => "NotComplementary",
        Err(RailCheckError::OutputMismatch { .. }) => "OutputMismatch",
        Err(RailCheckError::Cyclic { .. }) => "Cyclic",
        Err(RailCheckError::UnknownCell { .. }) => "UnknownCell",
        Err(_) => "other",
    }
}

#[test]
fn rail_checks_match_the_scalar_oracle() {
    let lib = Library::lib180();
    assert!(matches!(
        lib.by_name("TIEHI").map(|c| c.function()),
        Some(CellFunction::Tie(true))
    ));
    let mut seen = std::collections::BTreeSet::new();
    secflow_testkit::prop_check!(cases: 48, seed: 0x2A11_EC01, |g| {
        let nl = random_mapped(g, &lib);
        let sub = substitute(&nl, &lib).expect("substitute");
        for (label, orig, s) in variants(g, &nl, &sub) {
            let want = oracle::verify_precharge_wave(&s);
            let got = verify_precharge_wave(&s);
            assert_eq!(got, want, "{label}: precharge wave");
            seen.insert(("precharge", kind(&want)));
            for &rounds in &ROUNDS {
                let seed = g.random::<u64>();
                let want = oracle::verify_rail_complementarity(&orig, &lib, &s, rounds, seed);
                let got = verify_rail_complementarity(&orig, &lib, &s, rounds, seed);
                assert_eq!(got, want, "{label}: rounds {rounds}, seed {seed:#x}");
                seen.insert(("rails", kind(&want)));
            }
        }
    });
    // The comparison is only meaningful if every verdict occurred.
    for k in [
        "Ok",
        "NotComplementary",
        "OutputMismatch",
        "Cyclic",
        "UnknownCell",
    ] {
        assert!(
            seen.contains(&("rails", k)),
            "no case produced {k}: {seen:?}"
        );
    }
    for k in ["Ok", "PrechargeLeak", "Cyclic", "UnknownCell"] {
        assert!(
            seen.contains(&("precharge", k)),
            "no case produced {k}: {seen:?}"
        );
    }
}

/// The fault-injection battery's rail fault, pinned to its exact error
/// at several victims and round counts.
#[test]
fn mismatched_rail_function_reports_the_oracle_error() {
    let lib = Library::lib180();
    let d = secflow::crypto::dpa_module::des_dpa_design();
    let nl = map_design(&d, &lib, &MapOptions::default()).expect("map");
    let sub = substitute(&nl, &lib).expect("substitute");
    for victim in [0, 1, 17, 256] {
        let mut s = sub.clone();
        s.differential = fault::mismatch_rail_function(&s.differential, victim);
        for rounds in [1, 4, 64, 65] {
            let want = oracle::verify_rail_complementarity(&nl, &lib, &s, rounds, 11);
            let got = verify_rail_complementarity(&nl, &lib, &s, rounds, 11);
            assert_eq!(got, want, "victim {victim}, rounds {rounds}");
        }
        assert_eq!(verify_precharge_wave(&s), oracle::verify_precharge_wave(&s));
    }
}
