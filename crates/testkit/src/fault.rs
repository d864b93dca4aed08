//! Fault-injection helpers: deterministic generators of the corrupt
//! artifacts a secure flow must reject with a *typed* error rather
//! than a panic — truncated or byte-mangled Verilog, netlists with
//! unknown cells or combinational loops, degenerate placements,
//! non-physical technology constants, and differential netlists whose
//! rails have been swapped.
//!
//! All generators are seeded: the same `(input, seed)` always yields
//! the same fault, so a failing fault-injection test reproduces
//! byte-for-byte at any thread count.

use secflow_extract::Technology;
use secflow_netlist::{GateKind, Netlist};
use secflow_pnr::PlacedDesign;
use secflow_rand::SplitMix;

/// Truncates Verilog source at a seed-chosen byte offset strictly
/// before its final `endmodule`, snapped to a UTF-8 character
/// boundary — the parser must report a typed truncation error.
///
/// # Panics
///
/// Panics if `src` contains no `endmodule` (the fixture itself is
/// broken, not the code under test).
pub fn truncate_verilog(src: &str, seed: u64) -> String {
    let end = src.rfind("endmodule").expect("fixture has an endmodule");
    assert!(end > 0, "fixture starts with endmodule");
    let mut rng = SplitMix(seed);
    let mut cut = (rng.next() % end as u64) as usize;
    while !src.is_char_boundary(cut) {
        cut -= 1;
    }
    src[..cut].to_string()
}

/// Overwrites `mutations` seed-chosen bytes of Verilog source with
/// arbitrary printable junk. The result may or may not still parse;
/// the contract under test is that parsing *never panics* and any
/// rejection is a typed error.
pub fn garble_verilog(src: &str, seed: u64, mutations: usize) -> String {
    let mut bytes = src.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    let mut rng = SplitMix(seed);
    for _ in 0..mutations {
        let pos = (rng.next() % bytes.len() as u64) as usize;
        // Printable ASCII junk keeps the input valid UTF-8 so the
        // fault exercises the parser, not `from_utf8`.
        bytes[pos] = b'!' + (rng.next() % 94) as u8;
    }
    String::from_utf8(bytes).expect("printable ASCII mutations preserve UTF-8")
}

/// A tiny netlist whose single gate names a cell no library maps:
/// stages that look cells up (placement, routing, substitution,
/// simulation) must fail with their unknown-cell variant.
pub fn unknown_cell_netlist() -> Netlist {
    let mut nl = Netlist::new("unknown_cell");
    let a = nl.add_input("a");
    let y = nl.add_net("y");
    nl.add_gate("u1", "NOT_A_CELL", GateKind::Comb, vec![a], vec![y]);
    nl.mark_output(y);
    nl
}

/// A two-inverter ring with no primary input driving it: structurally
/// well-formed per-gate, but combinationally cyclic — evaluation and
/// verification stages must report the cycle, not hang or overflow.
pub fn combinational_loop_netlist() -> Netlist {
    let mut nl = Netlist::new("comb_loop");
    let a = nl.add_net("a");
    let b = nl.add_net("b");
    nl.add_gate("g1", "INV", GateKind::Comb, vec![a], vec![b]);
    nl.add_gate("g2", "INV", GateKind::Comb, vec![b], vec![a]);
    nl.mark_output(a);
    nl
}

/// Shrinks a placement's die to a single site, leaving every placed
/// cell where it was: routing must reject the out-of-bounds pins with
/// a typed error instead of indexing outside its grid.
pub fn shrink_die(placed: &PlacedDesign) -> PlacedDesign {
    let mut d = placed.clone();
    d.width = 1;
    d.height = 1;
    d
}

/// A technology with a NaN capacitance and a negative resistance —
/// extraction must refuse it up front rather than propagate NaN into
/// every parasitic (and from there into traces and DPA statistics).
pub fn bad_technology() -> Technology {
    Technology {
        r_ohm_per_track: -1.0,
        c_ground_ff_per_track: f64::NAN,
        ..Technology::default()
    }
}

/// Rebuilds a netlist with the logic function of rail-driving gate
/// `victim` (an index clamped into the netlist's `AND2`/`OR2` gates)
/// swapped to its dual — on a WDDL differential netlist, whose true
/// and false rails are driven by dual positive primitives, this
/// mismatches one rail pair, so rail verification must fail with a
/// typed error. Both primitives are positive, so the precharge wave
/// still propagates: only complementarity breaks.
///
/// # Panics
///
/// Panics if the netlist has no `AND2` or `OR2` gate (not a WDDL
/// differential netlist — a broken fixture, not a flow fault).
pub fn mismatch_rail_function(nl: &Netlist, victim: usize) -> Netlist {
    let candidates: Vec<usize> = (0..nl.gate_count())
        .filter(|&i| matches!(nl.gates()[i].cell.as_str(), "AND2" | "OR2"))
        .collect();
    assert!(!candidates.is_empty(), "fixture has no AND2/OR2 primitive");
    let victim = candidates[victim % candidates.len()];

    let mut out = Netlist::new(format!("{}_railswap", nl.name));
    for id in nl.net_ids() {
        let name = nl.net(id).name.clone();
        if nl.inputs().contains(&id) {
            out.add_input(name);
        } else {
            out.add_net(name);
        }
    }
    for (i, g) in nl.gates().iter().enumerate() {
        let cell = if i != victim {
            g.cell.clone()
        } else if g.cell == "AND2" {
            "OR2".into()
        } else {
            "AND2".into()
        };
        out.add_gate(
            g.name.clone(),
            cell,
            g.kind,
            g.inputs.clone(),
            g.outputs.clone(),
        );
    }
    for &o in nl.outputs() {
        out.mark_output(o);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "module m(a, y);\n  input a;\n  output y;\n  INV g1(.A(a), .Y(y));\nendmodule\n";

    #[test]
    fn truncation_always_loses_endmodule() {
        for seed in 0..64 {
            let t = truncate_verilog(SRC, seed);
            assert!(t.len() < SRC.rfind("endmodule").unwrap() + 1);
            assert!(!t.contains("endmodule"));
        }
    }

    #[test]
    fn garble_is_deterministic_and_utf8() {
        let a = garble_verilog(SRC, 7, 5);
        let b = garble_verilog(SRC, 7, 5);
        assert_eq!(a, b);
        assert_eq!(a.len(), SRC.len());
        assert_ne!(a, SRC);
    }

    #[test]
    fn loop_netlist_is_cyclic() {
        let nl = combinational_loop_netlist();
        assert!(secflow_netlist::topo_order(&nl).is_none());
    }

    #[test]
    fn rail_mismatch_swaps_exactly_one_dual() {
        let mut nl = Netlist::new("d");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let t = nl.add_net("y_t");
        let f = nl.add_net("y_f");
        nl.add_gate("g_t", "AND2", GateKind::Comb, vec![a, b], vec![t]);
        nl.add_gate("g_f", "OR2", GateKind::Comb, vec![a, b], vec![f]);
        nl.mark_output(t);
        let broken = mismatch_rail_function(&nl, 0);
        assert_eq!(broken.gates()[0].cell, "OR2");
        assert_eq!(broken.gates()[1].cell, "OR2");
        assert_eq!(broken.gate_count(), nl.gate_count());
    }
}
