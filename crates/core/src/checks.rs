//! WDDL-specific verification: the precharge wave and dual-rail
//! complementarity of the differential netlist.

use std::fmt;

use secflow_cells::Library;
use secflow_lec::{CompileError, CompiledComb};
use secflow_netlist::{GateKind, NetId, Netlist};
use secflow_rand::SplitMix;

use crate::substitute::Substitution;
use crate::wddl::WDDL_REGISTER;

/// Violations of the WDDL invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RailCheckError {
    /// During precharge (all sources 0) some net stayed high.
    PrechargeLeak {
        /// Name of the offending net.
        net: String,
    },
    /// In the evaluation phase the two rails of a pair were not
    /// complementary.
    NotComplementary {
        /// True-rail net name.
        t: String,
        /// False-rail net name.
        f: String,
    },
    /// A differential output pair disagrees with the original
    /// netlist's output.
    OutputMismatch {
        /// Index of the original primary output.
        index: usize,
    },
    /// A netlist under check has a combinational cycle.
    Cyclic {
        /// Name of the cyclic netlist.
        netlist: String,
    },
    /// A gate references a cell missing from the library under check.
    UnknownCell {
        /// Gate instance name.
        gate: String,
        /// Unresolved cell name.
        cell: String,
    },
    /// The original and differential netlists disagree on register
    /// count, so no rail correspondence exists.
    RegisterCountMismatch {
        /// Registers in the original netlist.
        original: usize,
        /// WDDL registers in the differential netlist.
        differential: usize,
    },
    /// A rail-pair table of the substitution does not have one entry
    /// per original port (inputs are checked first, then outputs).
    PortCountMismatch {
        /// Ports of that direction in the original netlist.
        original: usize,
        /// Rail pairs in the substitution's table for them.
        differential: usize,
    },
}

impl fmt::Display for RailCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RailCheckError::PrechargeLeak { net } => {
                write!(f, "net `{net}` stays high during precharge")
            }
            RailCheckError::NotComplementary { t, f: fr } => {
                write!(f, "rails `{t}`/`{fr}` are not complementary")
            }
            RailCheckError::OutputMismatch { index } => {
                write!(f, "differential output {index} disagrees with the original")
            }
            RailCheckError::Cyclic { netlist } => {
                write!(f, "netlist `{netlist}` has a combinational cycle")
            }
            RailCheckError::UnknownCell { gate, cell } => {
                write!(f, "gate `{gate}` references unknown cell `{cell}`")
            }
            RailCheckError::RegisterCountMismatch {
                original,
                differential,
            } => {
                write!(
                    f,
                    "register count mismatch: {original} original vs {differential} WDDL"
                )
            }
            RailCheckError::PortCountMismatch {
                original,
                differential,
            } => {
                write!(
                    f,
                    "port count mismatch: {original} original ports vs {differential} rail pairs"
                )
            }
        }
    }
}

impl std::error::Error for RailCheckError {}

/// Compiles `nl` for evaluation, reporting build failures as rail
/// check errors.
fn compile(
    nl: &Netlist,
    lib: &Library,
    tie_override: Option<bool>,
) -> Result<CompiledComb, RailCheckError> {
    CompiledComb::build(nl, lib, tie_override).map_err(|e| match e {
        CompileError::Cyclic => RailCheckError::Cyclic {
            netlist: nl.name.clone(),
        },
        CompileError::UnknownCell { gate, cell } => RailCheckError::UnknownCell { gate, cell },
    })
}

/// Verifies the pre-discharge wave: with every primary-input rail and
/// register output at 0 (and constants treated as precharged), every
/// net of the differential netlist must evaluate to 0 — the WDDL
/// networks are positive-monotone, so the 0-wave traverses the whole
/// combinational logic.
///
/// # Errors
///
/// Returns [`RailCheckError::PrechargeLeak`] naming the first net that
/// stays high.
pub fn verify_precharge_wave(sub: &Substitution) -> Result<(), RailCheckError> {
    let nl = &sub.differential;
    let mut values = Vec::new();
    compile(nl, &sub.diff_lib, Some(false))?.eval_into(&mut values, &[], &[]);
    match nl.net_ids().find(|id| values[id.index()] != 0) {
        Some(id) => Err(RailCheckError::PrechargeLeak {
            net: nl.net(id).name.clone(),
        }),
        None => Ok(()),
    }
}

/// Verifies dual-rail complementarity and output correctness of the
/// differential netlist against the original single-ended netlist on
/// `rounds` random source assignments (sources: primary inputs and
/// register values).
///
/// Round `r` draws one value per primary input, then one per register,
/// from a [`SplitMix`] seeded with `seed`, and runs in bit lane
/// `r mod 64` of a 64-round block: each block is one compiled
/// evaluation per netlist. The reported violation is the first one of
/// the lowest failing round, checking rail pairs, then outputs, then
/// register inputs.
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn verify_rail_complementarity(
    original: &Netlist,
    base_lib: &Library,
    sub: &Substitution,
    rounds: usize,
    seed: u64,
) -> Result<(), RailCheckError> {
    let diff = &sub.differential;
    let mut rng = SplitMix(seed);

    // Register correspondences: original DFFs in order vs WDDL
    // registers in order.
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
    for (original, differential) in [
        (original.inputs().len(), sub.input_pairs.len()),
        (original.outputs().len(), sub.output_pairs.len()),
    ] {
        if original != differential {
            return Err(RailCheckError::PortCountMismatch {
                original,
                differential,
            });
        }
    }
    if rounds == 0 {
        return Ok(());
    }
    let orig_comb = compile(original, base_lib, None)?;
    let diff_comb = compile(diff, &sub.diff_lib, None)?;

    // Sources in draw order: primary inputs, then register outputs;
    // each drives one original net and a (true, false) rail pair.
    let orig_sources: Vec<NetId> = original
        .inputs()
        .iter()
        .copied()
        .chain(orig_regs.iter().map(|&(_, q)| q))
        .collect();
    let diff_sources: Vec<NetId> = sub
        .input_pairs
        .iter()
        .copied()
        .chain(diff_regs.iter().map(|&(_, _, qt, qf)| (qt, qf)))
        .flat_map(|(t, f)| [t, f])
        .collect();
    // Observed points in report order: primary outputs, then register
    // D inputs, each an original net against its true rail.
    let observed: Vec<(NetId, NetId)> = original
        .outputs()
        .iter()
        .zip(&sub.output_pairs)
        .map(|(&po, &(t, _))| (po, t))
        .chain(orig_regs.iter().zip(&diff_regs).map(|(r, dr)| (r.0, dr.0)))
        .collect();
    let mut words = vec![0u64; orig_sources.len()];
    let mut rail_words = vec![0u64; diff_sources.len()];
    let (mut ov, mut dv) = (Vec::new(), Vec::new());
    let mut first = 0;
    while first < rounds {
        let lanes = (rounds - first).min(64);
        words.fill(0);
        for lane in 0..lanes {
            for w in &mut words {
                *w |= (rng.next() & 1) << lane;
            }
        }
        for (rails, &w) in rail_words.chunks_exact_mut(2).zip(&words) {
            rails[0] = w;
            rails[1] = !w;
        }
        orig_comb.eval_into(&mut ov, &orig_sources, &words);
        diff_comb.eval_into(&mut dv, &diff_sources, &rail_words);

        let mut fail = 0u64;
        for p in &sub.pairs {
            fail |= !(dv[p.t.index()] ^ dv[p.f.index()]);
        }
        for &(o, t) in &observed {
            fail |= ov[o.index()] ^ dv[t.index()];
        }
        if lanes < 64 {
            fail &= (1 << lanes) - 1;
        }
        if fail != 0 {
            // Re-check the lowest failing round in report order.
            let lane = fail.trailing_zeros();
            let bit = |w: u64| w >> lane & 1 == 1;
            if let Some(p) = sub
                .pairs
                .iter()
                .find(|p| bit(dv[p.t.index()]) == bit(dv[p.f.index()]))
            {
                return Err(RailCheckError::NotComplementary {
                    t: diff.net(p.t).name.clone(),
                    f: diff.net(p.f).name.clone(),
                });
            }
            if let Some(index) = observed
                .iter()
                .position(|&(o, t)| bit(ov[o.index()]) != bit(dv[t.index()]))
            {
                return Err(RailCheckError::OutputMismatch { index });
            }
        }
        first += lanes;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substitute::substitute;
    use secflow_cells::Library;

    fn sample() -> (Netlist, Library) {
        let mut nl = Netlist::new("s");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let na = nl.add_net("na");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        let q = nl.add_net("q");
        nl.add_gate("i0", "INV", GateKind::Comb, vec![a], vec![na]);
        nl.add_gate("g0", "XOR2", GateKind::Comb, vec![na, b], vec![x]);
        nl.add_gate("g1", "AOI21", GateKind::Comb, vec![x, c, q], vec![y]);
        nl.add_gate("r0", "DFF", GateKind::Seq, vec![x], vec![q]);
        nl.mark_output(y);
        (nl, Library::lib180())
    }

    #[test]
    fn precharge_wave_reaches_everything() {
        let (nl, lib) = sample();
        let sub = substitute(&nl, &lib).unwrap();
        verify_precharge_wave(&sub).unwrap();
    }

    #[test]
    fn rails_complementary_and_outputs_match() {
        let (nl, lib) = sample();
        let sub = substitute(&nl, &lib).unwrap();
        verify_rail_complementarity(&nl, &lib, &sub, 64, 7).unwrap();
    }

    #[test]
    fn sabotage_is_detected() {
        let (nl, lib) = sample();
        let mut sub = substitute(&nl, &lib).unwrap();
        // Swap a pair's rails in the pair table: complementarity still
        // holds, but output checks catch a swapped OUTPUT pair.
        let o = sub.output_pairs[0];
        sub.output_pairs[0] = (o.1, o.0);
        assert!(matches!(
            verify_rail_complementarity(&nl, &lib, &sub, 32, 3),
            Err(RailCheckError::OutputMismatch { .. })
        ));
    }

    #[test]
    fn short_pair_tables_are_a_port_count_mismatch() {
        let (nl, lib) = sample();
        let sub = substitute(&nl, &lib).unwrap();
        let mut short = sub.clone();
        short.output_pairs.pop();
        assert_eq!(
            verify_rail_complementarity(&nl, &lib, &short, 32, 3),
            Err(RailCheckError::PortCountMismatch {
                original: 1,
                differential: 0,
            })
        );
        let mut short = sub;
        short.input_pairs.truncate(1);
        let e = verify_rail_complementarity(&nl, &lib, &short, 32, 3).unwrap_err();
        assert_eq!(
            e,
            RailCheckError::PortCountMismatch {
                original: 3,
                differential: 1,
            }
        );
        let e = crate::FlowError::from(e);
        assert_eq!(e.stage().name(), "railcheck");
        assert_eq!(e.exit_code(), 18);
        assert_eq!(
            e.to_string(),
            "WDDL invariant violated: port count mismatch: 3 original ports vs 1 rail pairs"
        );
    }
}
