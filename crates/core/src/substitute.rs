//! Cell substitution: single-ended netlist → differential WDDL
//! netlist + fat netlist (the paper's `rtl.v → {fat.v, diff}` step).
//!
//! Inverters are removed and their inversions absorbed: each net is
//! resolved to a *root* signal and a *parity*; consumers fold the
//! parity into their gate function (a negated pin simply reads the
//! other rail inside the compound, which is what "implementing
//! inversions by switching the nets" means physically). Registers
//! store the actual D signal — a negative-parity D swaps the register's
//! input rails, recorded in [`Substitution::fat_register_parity`] for
//! the fat-netlist equivalence check.

use std::collections::HashMap;
use std::fmt;

use secflow_cells::{CellFunction, Library, TruthTable};
use secflow_netlist::{GateId, GateKind, NetId, Netlist, Pins};

use crate::wddl::{CoverNet, PrimSrc, WddlLibrary, WDDL_DFFN_FAT, WDDL_DFF_FAT, WDDL_REGISTER};

/// Errors from cell substitution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubstituteError {
    /// A gate references a cell missing from the base library.
    UnknownCell {
        /// The missing cell name.
        cell: String,
    },
    /// The input netlist has a combinational cycle.
    Cyclic {
        /// Netlist name.
        netlist: String,
    },
}

impl fmt::Display for SubstituteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubstituteError::UnknownCell { cell } => write!(f, "unknown cell `{cell}`"),
            SubstituteError::Cyclic { netlist } => {
                write!(f, "netlist `{netlist}` has a combinational cycle")
            }
        }
    }
}

impl std::error::Error for SubstituteError {}

/// The correspondence between one fat wire and its two differential
/// rails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatPair {
    /// Net in the fat netlist.
    pub fat: NetId,
    /// True rail in the differential netlist.
    pub t: NetId,
    /// False rail in the differential netlist.
    pub f: NetId,
}

/// The result of cell substitution.
#[derive(Debug, Clone)]
pub struct Substitution {
    /// The fat netlist (`fat.v`): one fat cell per original gate, one
    /// fat wire per differential pair. Routed by the fat place & route.
    pub fat: Netlist,
    /// The differential netlist: WDDL compounds expanded into positive
    /// primitive gates plus dual-rail registers. Used for verification
    /// and power simulation.
    pub differential: Netlist,
    /// Library for the fat netlist (cell functions preserved,
    /// footprints in fat grid units).
    pub fat_lib: Library,
    /// Library for the differential netlist (base cells plus
    /// [`WDDL_REGISTER`]).
    pub diff_lib: Library,
    /// The WDDL compound library accumulated during substitution.
    pub wddl: WddlLibrary,
    /// Differential input rail pair per original primary input, in
    /// original order.
    pub input_pairs: Vec<(NetId, NetId)>,
    /// Differential output rail pair per original primary output
    /// (polarity already resolved: `.0` carries the original output's
    /// true value).
    pub output_pairs: Vec<(NetId, NetId)>,
    /// Per fat primary output: true if the fat net carries the
    /// *complement* of the original output (inversion absorbed into a
    /// rail swap).
    pub fat_output_parity: Vec<bool>,
    /// Per register (in order): true if the fat register is the
    /// inverting [`WDDL_DFFN_FAT`] (the differential register's input
    /// rails are swapped).
    pub fat_register_parity: Vec<bool>,
    /// Fat-wire ↔ rail-pair correspondence for every fat net.
    pub pairs: Vec<FatPair>,
    /// For every differential gate, the fat gate it belongs to.
    pub diff_gate_fat: Vec<GateId>,
    /// The grounded shield net used by
    /// [`crate::DecomposeStyle::Shielded`] geometry.
    pub shield: NetId,
    /// Number of inverters removed by rail swapping.
    pub removed_inverters: usize,
}

/// True if the cell function is a one-input inverter.
fn is_inverter(f: &CellFunction) -> bool {
    match f {
        CellFunction::Comb(tt) => tt.vars() == 1 && tt.bits() & 0b11 == 0b01,
        _ => false,
    }
}

/// Runs cell substitution over `nl` with compounds derived from
/// `base`.
///
/// # Errors
///
/// Returns [`SubstituteError`] for unknown cells or combinational
/// cycles.
pub fn substitute(nl: &Netlist, base: &Library) -> Result<Substitution, SubstituteError> {
    let order = secflow_netlist::topo_order(nl).ok_or_else(|| SubstituteError::Cyclic {
        netlist: nl.name.clone(),
    })?;
    let cell_of = |g: GateId| -> Result<&secflow_cells::LibCell, SubstituteError> {
        base.by_name(&nl.gate(g).cell)
            .ok_or_else(|| SubstituteError::UnknownCell {
                cell: nl.gate(g).cell.to_string(),
            })
    };

    // ---- Polarity sweep: resolve every net to (root, parity). ----
    let mut root: Vec<NetId> = nl.net_ids().collect();
    let mut parity = vec![false; nl.net_count()];
    let mut inverter_gates = vec![false; nl.gate_count()];
    let mut removed_inverters = 0;
    for &gid in &order {
        let g = nl.gate(gid);
        if g.kind != GateKind::Comb {
            continue;
        }
        if is_inverter(cell_of(gid)?.function()) {
            let inp = g.inputs[0];
            let out = g.outputs[0];
            root[out.index()] = root[inp.index()];
            parity[out.index()] = !parity[inp.index()];
            inverter_gates[gid.index()] = true;
            removed_inverters += 1;
        }
    }
    let resolve = |n: NetId| (root[n.index()], parity[n.index()]);

    let mut wddl = WddlLibrary::new(base);
    let mut fat = Netlist::new(format!("{}_fat", nl.name));
    let mut diff = Netlist::new(format!("{}_diff", nl.name));
    let shield = diff.add_net("VSS_SHIELD");

    // ---- Root nets in both views. ----
    let mut fat_net: HashMap<NetId, NetId> = HashMap::new();
    let mut rails: HashMap<NetId, (NetId, NetId)> = HashMap::new();
    let mut input_pairs = Vec::new();
    for &pi in nl.inputs() {
        let name = nl.net(pi).name.clone();
        fat_net.insert(pi, fat.add_input(name.clone()));
        let t = diff.add_input(format!("{name}_t"));
        let f = diff.add_input(format!("{name}_f"));
        rails.insert(pi, (t, f));
        input_pairs.push((t, f));
    }
    // Every other root is a gate output; create its nets up front so
    // consumers can connect regardless of processing order.
    for gid in nl.gate_ids() {
        if inverter_gates[gid.index()] {
            continue;
        }
        for &out in &nl.gate(gid).outputs {
            let name = nl.net(out).name.clone();
            fat_net.insert(out, fat.add_net(name.clone()));
            let t = diff.add_net(format!("{name}_t"));
            let f = diff.add_net(format!("{name}_f"));
            rails.insert(out, (t, f));
        }
    }

    // ---- Gate substitution. ----
    let mut diff_gate_fat: Vec<GateId> = Vec::new();
    let mut fat_register_parity = Vec::new();
    for gid in nl.gate_ids() {
        if inverter_gates[gid.index()] {
            continue;
        }
        let g = nl.gate(gid);
        let cell = cell_of(gid)?;
        match cell.function() {
            CellFunction::Dff => {
                let (d_root, d_par) = resolve(g.inputs[0]);
                let q = g.outputs[0];
                let fat_cell = if d_par { WDDL_DFFN_FAT } else { WDDL_DFF_FAT };
                let fat_gid = fat.add_gate(
                    g.name.clone(),
                    fat_cell,
                    GateKind::Seq,
                    vec![fat_net[&d_root]],
                    vec![fat_net[&q]],
                );
                fat_register_parity.push(d_par);
                let (dt, df) = rails[&d_root];
                let (dt, df) = if d_par { (df, dt) } else { (dt, df) };
                let (qt, qf) = rails[&q];
                diff.add_gate(
                    g.name.clone(),
                    WDDL_REGISTER,
                    GateKind::Seq,
                    vec![dt, df],
                    vec![qt, qf],
                );
                diff_gate_fat.push(fat_gid);
            }
            CellFunction::WddlDff => {
                // Substituting an already-differential netlist is not
                // meaningful; treat as unknown.
                return Err(SubstituteError::UnknownCell {
                    cell: g.cell.to_string(),
                });
            }
            CellFunction::Comb(tt) => {
                // Fold input parities into the gate function.
                let mut mask = 0u32;
                let mut in_roots = Vec::with_capacity(g.inputs.len());
                for (i, &inp) in g.inputs.iter().enumerate() {
                    let (r, p) = resolve(inp);
                    if p {
                        mask |= 1 << i;
                    }
                    in_roots.push(r);
                }
                let f_eff = tt.phase(mask);
                let y = g.outputs[0];
                let idx = wddl.compound_for(&f_eff);
                let fat_name = wddl.compound(idx).fat_name.clone();
                let fat_gid = fat.add_gate(
                    g.name.clone(),
                    fat_name,
                    GateKind::Comb,
                    in_roots.iter().map(|r| fat_net[r]).collect::<Pins>(),
                    vec![fat_net[&y]],
                );
                let (yt, yf) = rails[&y];
                let (true_net, false_net) = {
                    let c = wddl.compound(idx);
                    (c.true_net.clone(), c.false_net.clone())
                };
                expand_cover(
                    &mut diff,
                    &true_net,
                    &g.name,
                    "t",
                    &in_roots,
                    &rails,
                    yt,
                    fat_gid,
                    &mut diff_gate_fat,
                );
                expand_cover(
                    &mut diff,
                    &false_net,
                    &g.name,
                    "f",
                    &in_roots,
                    &rails,
                    yf,
                    fat_gid,
                    &mut diff_gate_fat,
                );
            }
            CellFunction::Tie(v) => {
                let y = g.outputs[0];
                let tt0 = TruthTable::from_bits(0, u64::from(*v));
                let idx = wddl.compound_for(&tt0);
                let fat_name = wddl.compound(idx).fat_name.clone();
                let fat_gid = fat.add_gate(
                    g.name.clone(),
                    fat_name,
                    GateKind::Tie,
                    vec![],
                    vec![fat_net[&y]],
                );
                let (yt, yf) = rails[&y];
                let (t_cell, f_cell) = if *v {
                    ("TIEHI", "TIELO")
                } else {
                    ("TIELO", "TIEHI")
                };
                diff.add_gate(
                    format!("{}_t", g.name),
                    t_cell,
                    GateKind::Tie,
                    vec![],
                    vec![yt],
                );
                diff_gate_fat.push(fat_gid);
                diff.add_gate(
                    format!("{}_f", g.name),
                    f_cell,
                    GateKind::Tie,
                    vec![],
                    vec![yf],
                );
                diff_gate_fat.push(fat_gid);
            }
        }
    }

    // ---- Primary outputs. ----
    let mut output_pairs = Vec::new();
    let mut fat_output_parity = Vec::new();
    for &po in nl.outputs() {
        let (r, p) = resolve(po);
        fat.mark_output(fat_net[&r]);
        fat_output_parity.push(p);
        let (t, f) = rails[&r];
        let (t, f) = if p { (f, t) } else { (t, f) };
        diff.mark_output(t);
        diff.mark_output(f);
        output_pairs.push((t, f));
    }

    // ---- Pair table for decomposition. ----
    let mut pairs = Vec::new();
    for (orig, fat_id) in &fat_net {
        let (t, f) = rails[orig];
        pairs.push(FatPair { fat: *fat_id, t, f });
    }
    pairs.sort_by_key(|p| p.fat);

    let fat_lib = wddl.fat_library();
    let diff_lib = wddl.diff_library();
    secflow_obs::add(
        secflow_obs::Counter::SubstituteGates,
        nl.gate_count() as u64,
    );
    Ok(Substitution {
        fat,
        differential: diff,
        fat_lib,
        diff_lib,
        wddl,
        input_pairs,
        output_pairs,
        fat_output_parity,
        fat_register_parity,
        pairs,
        diff_gate_fat,
        shield,
        removed_inverters,
    })
}

/// Expands one rail network of a compound into primitive gates of the
/// differential netlist; the last gate drives `out`.
#[allow(clippy::too_many_arguments)]
fn expand_cover(
    diff: &mut Netlist,
    net: &CoverNet,
    gate_name: &str,
    rail: &str,
    in_roots: &[NetId],
    rails: &HashMap<NetId, (NetId, NetId)>,
    out: NetId,
    fat_gid: GateId,
    diff_gate_fat: &mut Vec<GateId>,
) {
    let mut node_nets: Vec<NetId> = Vec::with_capacity(net.gates.len());
    for (i, pg) in net.gates.iter().enumerate() {
        let is_last = i == net.out();
        let out_net = if is_last {
            out
        } else {
            diff.fresh_net(&format!("{gate_name}_{rail}{i}"))
        };
        let inputs: Vec<NetId> = pg
            .inputs
            .iter()
            .map(|src| match *src {
                PrimSrc::Rail { input, complement } => {
                    let (t, f) = rails[&in_roots[input as usize]];
                    if complement {
                        f
                    } else {
                        t
                    }
                }
                PrimSrc::Node(j) => node_nets[j],
            })
            .collect();
        let kind = if pg.cell.starts_with("TIE") {
            GateKind::Tie
        } else {
            GateKind::Comb
        };
        diff.add_gate(
            format!("{gate_name}_{rail}g{i}"),
            pg.cell.clone(),
            kind,
            inputs,
            vec![out_net],
        );
        diff_gate_fat.push(fat_gid);
        node_nets.push(out_net);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_cells::Library;
    use secflow_netlist::GateKind;

    /// A small netlist with inverters, XOR, a register and a tie.
    fn sample() -> Netlist {
        let mut nl = Netlist::new("s");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let na = nl.add_net("na");
        let x = nl.add_net("x");
        let q = nl.add_net("q");
        let k = nl.add_net("k");
        nl.add_gate("i0", "INV", GateKind::Comb, vec![a], vec![na]);
        nl.add_gate("g0", "XOR2", GateKind::Comb, vec![na, b], vec![x]);
        nl.add_gate("r0", "DFF", GateKind::Seq, vec![x], vec![q]);
        nl.add_gate("t0", "TIEHI", GateKind::Tie, vec![], vec![k]);
        nl.mark_output(q);
        nl.mark_output(na);
        nl.mark_output(k);
        nl
    }

    #[test]
    fn inverters_are_removed() {
        let nl = sample();
        let sub = substitute(&nl, &Library::lib180()).unwrap();
        assert_eq!(sub.removed_inverters, 1);
        assert!(!sub.fat.gates().iter().any(|g| g.cell.contains("INV")));
        // Output `na` is `¬a`: fat output is net `a` with parity.
        assert_eq!(sub.fat_output_parity, vec![false, true, false]);
    }

    #[test]
    fn netlists_are_structurally_valid() {
        let nl = sample();
        let sub = substitute(&nl, &Library::lib180()).unwrap();
        assert!(sub.fat.validate().is_ok(), "{:?}", sub.fat.validate());
        assert!(
            sub.differential.validate().is_ok(),
            "{:?}",
            sub.differential.validate()
        );
    }

    #[test]
    fn fat_gate_count_matches_original_minus_inverters() {
        let nl = sample();
        let sub = substitute(&nl, &Library::lib180()).unwrap();
        assert_eq!(sub.fat.gate_count(), nl.gate_count() - 1);
    }

    #[test]
    fn differential_has_two_rails_per_fat_net() {
        let nl = sample();
        let sub = substitute(&nl, &Library::lib180()).unwrap();
        assert_eq!(sub.pairs.len(), sub.fat.net_count());
        // Rails are distinct nets.
        for p in &sub.pairs {
            assert_ne!(p.t, p.f);
        }
    }

    #[test]
    fn register_parity_recorded() {
        // Register fed by an inverted signal.
        let mut nl = Netlist::new("rp");
        let a = nl.add_input("a");
        let na = nl.add_net("na");
        let q = nl.add_net("q");
        nl.add_gate("i", "INV", GateKind::Comb, vec![a], vec![na]);
        nl.add_gate("r", "DFF", GateKind::Seq, vec![na], vec![q]);
        nl.mark_output(q);
        let sub = substitute(&nl, &Library::lib180()).unwrap();
        assert_eq!(sub.fat_register_parity, vec![true]);
        // The differential register reads swapped rails of `a`.
        let reg = sub
            .differential
            .gates()
            .iter()
            .find(|g| g.cell == WDDL_REGISTER)
            .unwrap();
        let at = sub.differential.net_by_name("a_t").unwrap();
        let af = sub.differential.net_by_name("a_f").unwrap();
        assert_eq!(reg.inputs, vec![af, at]);
    }

    #[test]
    fn diff_gate_mapping_covers_all_gates() {
        let nl = sample();
        let sub = substitute(&nl, &Library::lib180()).unwrap();
        assert_eq!(sub.diff_gate_fat.len(), sub.differential.gate_count());
        for &f in &sub.diff_gate_fat {
            assert!(f.index() < sub.fat.gate_count());
        }
    }

    #[test]
    fn fat_netlist_is_equivalent_to_original() {
        let nl = sample();
        let lib = Library::lib180();
        let sub = substitute(&nl, &lib).unwrap();
        let report = secflow_lec::check_equiv_with_parity(
            &nl,
            &lib,
            &sub.fat,
            &sub.fat_lib,
            Some(&sub.fat_output_parity),
            Some(&sub.fat_register_parity),
        )
        .unwrap();
        assert!(report.equivalent, "{report:?}");
    }

    #[test]
    fn unknown_cell_is_reported() {
        let mut nl = Netlist::new("u");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        nl.add_gate("g", "MYSTERY", GateKind::Comb, vec![a], vec![y]);
        assert!(matches!(
            substitute(&nl, &Library::lib180()),
            Err(SubstituteError::UnknownCell { .. })
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use secflow_cells::Library;
    use secflow_synth::{map_design, Design, MapOptions};

    /// Substituting any random mapped design yields an equivalent
    /// fat netlist and a correct, precharging differential netlist.
    #[test]
    fn substitution_is_correct_on_random_designs() {
        secflow_testkit::prop_check!(cases: 16, seed: 0x5AB5_0001, |g| {
            let n_inputs = g.random_range(2..6usize);
            let n_regs = g.random_range(0..4usize);
            let steps = g.vec_with(1..24, |g| {
                (
                    g.random::<u8>(),
                    g.random::<u16>(),
                    g.random::<u16>(),
                    g.random::<bool>(),
                )
            });
            let mut d = Design::new("rand");
            let mut pool: Vec<secflow_synth::Lit> = (0..n_inputs)
                .map(|i| d.input(format!("i{i}")))
                .collect();
            let regs: Vec<_> = (0..n_regs)
                .map(|i| d.register(format!("q{i}")))
                .collect();
            pool.extend(regs.iter().copied());
            for (op, a, b, neg) in &steps {
                let pa = pool[*a as usize % pool.len()];
                let pb = pool[*b as usize % pool.len()];
                let mut l = match op % 4 {
                    0 => d.aig.and(pa, pb),
                    1 => d.aig.or(pa, pb),
                    2 => d.aig.xor(pa, pb),
                    _ => d.aig.and(pa, pb.not()),
                };
                if *neg {
                    l = l.not();
                }
                pool.push(l);
            }
            for (i, &q) in regs.iter().enumerate() {
                let src = pool[pool.len() - 1 - (i % pool.len().min(8))];
                d.set_next(q, src);
            }
            d.output("y", *pool.last().expect("non-empty"));

            let lib = Library::lib180();
            let mapped = map_design(&d, &lib, &MapOptions::default()).expect("map");
            let sub = substitute(&mapped, &lib).expect("substitute");

            assert!(sub.fat.validate().is_ok());
            assert!(sub.differential.validate().is_ok());

            let lec = secflow_lec::check_equiv_with_parity(
                &mapped,
                &lib,
                &sub.fat,
                &sub.fat_lib,
                Some(&sub.fat_output_parity),
                Some(&sub.fat_register_parity),
            )
            .expect("lec runs");
            assert!(lec.equivalent, "{lec:?}");

            crate::checks::verify_precharge_wave(&sub).expect("precharge");
            crate::checks::verify_rail_complementarity(&mapped, &lib, &sub, 16, 3)
                .expect("rails");
        });
    }
}
