//! Combinational equivalence checking between two mapped netlists.

use std::collections::HashMap;
use std::fmt;

use secflow_rand::{RngExt, SeedableRng, StdRng};

use secflow_cells::{CellFunction, Library};
use secflow_netlist::{GateKind, NetId, Netlist};

use crate::bdd::{Bdd, BddRef};
use crate::comb::{CompileError, CompiledComb};

/// Why an equivalence check could not even start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LecError {
    /// The two designs' interfaces do not correspond.
    PortMismatch {
        /// Description of the mismatch.
        reason: String,
    },
    /// A netlist is structurally unusable (cyclic, unknown cell).
    BadNetlist {
        /// Description of the problem.
        reason: String,
    },
}

impl fmt::Display for LecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LecError::PortMismatch { reason } => write!(f, "port mismatch: {reason}"),
            LecError::BadNetlist { reason } => write!(f, "bad netlist: {reason}"),
        }
    }
}

impl std::error::Error for LecError {}

/// The outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivReport {
    /// True if no difference was found (for the BDD engine this is a
    /// proof; for random simulation it only means no counterexample
    /// was found).
    pub equivalent: bool,
    /// Index of the first differing primary output, with a
    /// counterexample assignment over the shared source variables.
    pub failing_output: Option<(usize, Vec<bool>)>,
    /// Index of the first differing register next-state function, with
    /// a counterexample.
    pub failing_register: Option<(usize, Vec<bool>)>,
}

/// Shared source-variable mapping: primary inputs matched by name,
/// register outputs matched by declaration order.
struct Sources {
    /// Variable count.
    n_vars: usize,
    /// Per netlist: net of each variable.
    var_nets_a: Vec<NetId>,
    var_nets_b: Vec<NetId>,
    /// Register D nets (per netlist, in register order).
    reg_d_a: Vec<NetId>,
    reg_d_b: Vec<NetId>,
}

fn build_sources(nl_a: &Netlist, nl_b: &Netlist) -> Result<Sources, LecError> {
    let names_a: HashMap<&str, NetId> = nl_a
        .inputs()
        .iter()
        .map(|&n| (nl_a.net(n).name.as_str(), n))
        .collect();
    if nl_a.inputs().len() != nl_b.inputs().len() {
        return Err(LecError::PortMismatch {
            reason: format!(
                "input counts differ: {} vs {}",
                nl_a.inputs().len(),
                nl_b.inputs().len()
            ),
        });
    }
    let mut var_nets_a = Vec::new();
    let mut var_nets_b = Vec::new();
    for &nb in nl_b.inputs() {
        let name = nl_b.net(nb).name.as_str();
        let na = names_a.get(name).ok_or_else(|| LecError::PortMismatch {
            reason: format!("input `{name}` missing in first design"),
        })?;
        var_nets_a.push(*na);
        var_nets_b.push(nb);
    }
    let regs_a: Vec<_> = nl_a
        .gates()
        .iter()
        .filter(|g| g.kind == GateKind::Seq)
        .collect();
    let regs_b: Vec<_> = nl_b
        .gates()
        .iter()
        .filter(|g| g.kind == GateKind::Seq)
        .collect();
    if regs_a.len() != regs_b.len() {
        return Err(LecError::PortMismatch {
            reason: format!(
                "register counts differ: {} vs {}",
                regs_a.len(),
                regs_b.len()
            ),
        });
    }
    let mut reg_d_a = Vec::new();
    let mut reg_d_b = Vec::new();
    for (ga, gb) in regs_a.iter().zip(&regs_b) {
        var_nets_a.push(ga.outputs[0]);
        var_nets_b.push(gb.outputs[0]);
        reg_d_a.push(ga.inputs[0]);
        reg_d_b.push(gb.inputs[0]);
    }
    if nl_a.outputs().len() != nl_b.outputs().len() {
        return Err(LecError::PortMismatch {
            reason: format!(
                "output counts differ: {} vs {}",
                nl_a.outputs().len(),
                nl_b.outputs().len()
            ),
        });
    }
    Ok(Sources {
        n_vars: var_nets_a.len(),
        var_nets_a,
        var_nets_b,
        reg_d_a,
        reg_d_b,
    })
}

/// Builds BDDs for every net of the combinational portion of `nl`.
fn netlist_bdds(
    bdd: &mut Bdd,
    nl: &Netlist,
    lib: &Library,
    var_nets: &[NetId],
    var_neg: &[bool],
) -> Result<Vec<BddRef>, LecError> {
    let mut refs = vec![BddRef::FALSE; nl.net_count()];
    for (v, &net) in var_nets.iter().enumerate() {
        let r = bdd.var(v as u32);
        refs[net.index()] = if var_neg[v] { bdd.not(r) } else { r };
    }
    let order = secflow_netlist::topo_order(nl).ok_or_else(|| LecError::BadNetlist {
        reason: format!("netlist `{}` has a combinational cycle", nl.name),
    })?;
    // Mapped netlists instantiate a handful of distinct cells tens of
    // thousands of times; resolve each name once, not per gate.
    let mut cell_memo: HashMap<&str, &secflow_cells::LibCell> = HashMap::new();
    let mut memo_hits = 0u64;
    for gid in order {
        let g = nl.gate(gid);
        if g.kind == GateKind::Seq {
            continue;
        }
        let cell = match cell_memo.get(g.cell.as_str()) {
            Some(&c) => {
                memo_hits += 1;
                c
            }
            None => {
                let c = lib.by_name(&g.cell).ok_or_else(|| LecError::BadNetlist {
                    reason: format!("unknown cell `{}`", g.cell),
                })?;
                cell_memo.insert(g.cell.as_str(), c);
                c
            }
        };
        match cell.function() {
            CellFunction::Comb(tt) => {
                let inputs: Vec<BddRef> = g.inputs.iter().map(|&n| refs[n.index()]).collect();
                refs[g.outputs[0].index()] = tt_to_bdd(bdd, tt.vars(), tt.bits(), &inputs);
            }
            CellFunction::Tie(v) => {
                refs[g.outputs[0].index()] = if *v { BddRef::TRUE } else { BddRef::FALSE };
            }
            CellFunction::Dff | CellFunction::WddlDff => {}
        }
    }
    secflow_obs::add(secflow_obs::Counter::LecCellMemoHits, memo_hits);
    Ok(refs)
}

/// Shannon expansion of a packed truth table over input BDDs: minterm
/// index bit `n-1` selects the table half, so the recursion splits on
/// the highest variable first.
fn tt_to_bdd(bdd: &mut Bdd, n: u8, bits: u64, inputs: &[BddRef]) -> BddRef {
    if n == 0 {
        return if bits & 1 == 1 {
            BddRef::TRUE
        } else {
            BddRef::FALSE
        };
    }
    // n ≤ 6 so half ≤ 32 and the shifts below are in range.
    let half = 1u32 << (n - 1);
    let lo_bits = bits & ((1u64 << half) - 1);
    let hi_bits = bits >> half;
    let lo = tt_to_bdd(bdd, n - 1, lo_bits, inputs);
    let hi = tt_to_bdd(bdd, n - 1, hi_bits, inputs);
    bdd.ite(inputs[n as usize - 1], hi, lo)
}

/// Proves or refutes combinational equivalence of two netlists using
/// BDDs.
///
/// Primary inputs are matched by name, registers by declaration order,
/// primary outputs by position. `out_parity_b` optionally complements
/// selected outputs of the second design before comparison (the fat
/// netlist's output-polarity table).
///
/// # Errors
///
/// Returns [`LecError`] if the interfaces do not correspond or a
/// netlist is unusable.
pub fn check_equiv(
    nl_a: &Netlist,
    lib_a: &Library,
    nl_b: &Netlist,
    lib_b: &Library,
    out_parity_b: Option<&[bool]>,
) -> Result<EquivReport, LecError> {
    check_equiv_with_parity(nl_a, lib_a, nl_b, lib_b, out_parity_b, None)
}

/// Like [`check_equiv`], but additionally accepts a register-polarity
/// vector: `reg_parity_b[i]` declares that register `i` of the second
/// design is *inverting* (`Q <= ¬D`), so its next-state function is
/// compared complemented. The WDDL fat netlist records absorbed
/// inverter polarity this way (the `W_DFFN` fat register).
///
/// # Errors
///
/// Returns [`LecError`] if the interfaces do not correspond or a
/// netlist is unusable.
pub fn check_equiv_with_parity(
    nl_a: &Netlist,
    lib_a: &Library,
    nl_b: &Netlist,
    lib_b: &Library,
    out_parity_b: Option<&[bool]>,
    reg_parity_b: Option<&[bool]>,
) -> Result<EquivReport, LecError> {
    let _span = secflow_obs::span("lec.bdd");
    let src = build_sources(nl_a, nl_b)?;
    let neg = vec![false; src.n_vars];
    let mut bdd = Bdd::new();
    let refs_a = netlist_bdds(&mut bdd, nl_a, lib_a, &src.var_nets_a, &neg)?;
    let refs_b = netlist_bdds(&mut bdd, nl_b, lib_b, &src.var_nets_b, &neg)?;
    let report_bdd_stats = |bdd: &Bdd| {
        secflow_obs::add(secflow_obs::Counter::LecIteCacheHits, bdd.ite_cache_hits());
        secflow_obs::gauge_max(
            secflow_obs::Gauge::LecBddPeakNodes,
            bdd.node_count() as u64,
        );
    };
    secflow_obs::add(
        secflow_obs::Counter::LecOutputs,
        nl_a.outputs().len() as u64,
    );

    // Outputs.
    for (i, (&oa, &ob)) in nl_a.outputs().iter().zip(nl_b.outputs()).enumerate() {
        let fa = refs_a[oa.index()];
        let mut fb = refs_b[ob.index()];
        if out_parity_b.is_some_and(|p| p[i]) {
            fb = bdd.not(fb);
        }
        let miter = bdd.xor(fa, fb);
        if let Some(cex) = bdd.any_sat(miter, src.n_vars) {
            report_bdd_stats(&bdd);
            return Ok(EquivReport {
                equivalent: false,
                failing_output: Some((i, cex)),
                failing_register: None,
            });
        }
    }
    // Register next-state functions (with declared polarity applied).
    for (i, (&da, &db)) in src.reg_d_a.iter().zip(&src.reg_d_b).enumerate() {
        let mut fb = refs_b[db.index()];
        if reg_parity_b.is_some_and(|p| p[i]) {
            fb = bdd.not(fb);
        }
        let miter = bdd.xor(refs_a[da.index()], fb);
        if let Some(cex) = bdd.any_sat(miter, src.n_vars) {
            report_bdd_stats(&bdd);
            return Ok(EquivReport {
                equivalent: false,
                failing_output: None,
                failing_register: Some((i, cex)),
            });
        }
    }
    report_bdd_stats(&bdd);
    Ok(EquivReport {
        equivalent: true,
        failing_output: None,
        failing_register: None,
    })
}

/// Compiles one side of a random-simulation check, reporting build
/// failures as [`LecError::BadNetlist`] and the cell-memo hits to obs.
fn compile(nl: &Netlist, lib: &Library) -> Result<CompiledComb, LecError> {
    let comp = CompiledComb::build(nl, lib, None).map_err(|e| LecError::BadNetlist {
        reason: match e {
            CompileError::Cyclic => format!("netlist `{}` has a combinational cycle", nl.name),
            CompileError::UnknownCell { cell, .. } => format!("unknown cell `{cell}`"),
        },
    })?;
    secflow_obs::add(secflow_obs::Counter::LecCellMemoHits, comp.cell_memo_hits());
    Ok(comp)
}

/// Bit-parallel evaluation of a netlist's combinational portion
/// (one-shot convenience over [`CompiledComb`], kept for tests).
#[cfg(test)]
fn eval64(
    nl: &Netlist,
    lib: &Library,
    var_nets: &[NetId],
    var_values: &[u64],
    var_neg: &[bool],
) -> Vec<u64> {
    let comp = CompiledComb::build(nl, lib, None).expect("acyclic netlist with known cells");
    let words: Vec<u64> = var_values
        .iter()
        .zip(var_neg)
        .map(|(&v, &neg)| if neg { !v } else { v })
        .collect();
    let mut values = Vec::new();
    comp.eval_into(&mut values, var_nets, &words);
    values
}

/// Random-simulation equivalence check: `rounds × 64` random source
/// patterns. Fast and scalable, but only ever *refutes* equivalence.
///
/// # Errors
///
/// Returns [`LecError`] if the interfaces do not correspond.
pub fn check_equiv_random(
    nl_a: &Netlist,
    lib_a: &Library,
    nl_b: &Netlist,
    lib_b: &Library,
    out_parity_b: Option<&[bool]>,
    rounds: usize,
    seed: u64,
) -> Result<EquivReport, LecError> {
    check_equiv_random_with_parity(nl_a, lib_a, nl_b, lib_b, out_parity_b, None, rounds, seed)
}

/// Random-simulation variant of [`check_equiv_with_parity`].
///
/// Rounds run in parallel (`secflow-exec`); each round's 64 random
/// vectors come from an independent generator seeded by
/// `split_seed(seed, round)`, so a round's stimulus does not depend
/// on how many rounds precede it. When several rounds find a
/// counterexample, the one from the lowest round index is reported —
/// the result is byte-identical at any thread count.
///
/// # Errors
///
/// Returns [`LecError`] if the interfaces do not correspond.
#[allow(clippy::too_many_arguments)]
pub fn check_equiv_random_with_parity(
    nl_a: &Netlist,
    lib_a: &Library,
    nl_b: &Netlist,
    lib_b: &Library,
    out_parity_b: Option<&[bool]>,
    reg_parity_b: Option<&[bool]>,
    rounds: usize,
    seed: u64,
) -> Result<EquivReport, LecError> {
    let _span = secflow_obs::span("lec.random");
    secflow_obs::add(secflow_obs::Counter::LecRandomRounds, rounds as u64);
    secflow_obs::add(
        secflow_obs::Counter::LecOutputs,
        nl_a.outputs().len() as u64,
    );
    let src = build_sources(nl_a, nl_b)?;
    // Both netlists are compiled once (cells resolved, topological
    // order fixed) and shared read-only across rounds; each pool
    // worker reuses its evaluation buffers between rounds.
    let comp_a = compile(nl_a, lib_a)?;
    let comp_b = compile(nl_b, lib_b)?;
    let failures = secflow_exec::par_map_range_with(
        rounds,
        || (Vec::new(), Vec::new()),
        |(va, vb), round| -> Option<EquivReport> {
            let mut rng = StdRng::seed_from_u64(secflow_rand::split_seed(seed, round as u64));
            let vars: Vec<u64> = (0..src.n_vars).map(|_| rng.random()).collect();
            comp_a.eval_into(va, &src.var_nets_a, &vars);
            comp_b.eval_into(vb, &src.var_nets_b, &vars);
            for (i, (&oa, &ob)) in nl_a.outputs().iter().zip(nl_b.outputs()).enumerate() {
                let mut wb = vb[ob.index()];
                if out_parity_b.is_some_and(|p| p[i]) {
                    wb = !wb;
                }
                let diff = va[oa.index()] ^ wb;
                if diff != 0 {
                    let bit = diff.trailing_zeros();
                    let cex = vars.iter().map(|w| w >> bit & 1 == 1).collect();
                    return Some(EquivReport {
                        equivalent: false,
                        failing_output: Some((i, cex)),
                        failing_register: None,
                    });
                }
            }
            for (i, (&da, &db)) in src.reg_d_a.iter().zip(&src.reg_d_b).enumerate() {
                let mut wb = vb[db.index()];
                if reg_parity_b.is_some_and(|p| p[i]) {
                    wb = !wb;
                }
                let diff = va[da.index()] ^ wb;
                if diff != 0 {
                    let bit = diff.trailing_zeros();
                    let cex = vars.iter().map(|w| w >> bit & 1 == 1).collect();
                    return Some(EquivReport {
                        equivalent: false,
                        failing_output: None,
                        failing_register: Some((i, cex)),
                    });
                }
            }
            None
        },
    );
    // Results arrive in round order; the first failure is the lowest
    // round's, independent of execution interleaving.
    if let Some(report) = failures.into_iter().flatten().next() {
        return Ok(report);
    }
    Ok(EquivReport {
        equivalent: true,
        failing_output: None,
        failing_register: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_netlist::GateKind;

    /// y = a AND b two ways: AND2 vs NAND2 + INV.
    fn equivalent_pair() -> (Netlist, Netlist) {
        let mut a = Netlist::new("a");
        let aa = a.add_input("x");
        let ab = a.add_input("y");
        let ay = a.add_net("out");
        a.add_gate("g", "AND2", GateKind::Comb, vec![aa, ab], vec![ay]);
        a.mark_output(ay);

        let mut b = Netlist::new("b");
        let ba = b.add_input("x");
        let bb = b.add_input("y");
        let bn = b.add_net("n");
        let by = b.add_net("out");
        b.add_gate("g0", "NAND2", GateKind::Comb, vec![ba, bb], vec![bn]);
        b.add_gate("g1", "INV", GateKind::Comb, vec![bn], vec![by]);
        b.mark_output(by);
        (a, b)
    }

    #[test]
    fn proves_equivalence() {
        let (a, b) = equivalent_pair();
        let lib = Library::lib180();
        let r = check_equiv(&a, &lib, &b, &lib, None).unwrap();
        assert!(r.equivalent);
        let r = check_equiv_random(&a, &lib, &b, &lib, None, 4, 1).unwrap();
        assert!(r.equivalent);
    }

    #[test]
    fn finds_counterexample() {
        let (a, mut b) = equivalent_pair();
        // Sabotage: replace INV by BUF (so b computes NAND).
        let bn = b.net_by_name("n").unwrap();
        let by = b.net_by_name("out").unwrap();
        b.retain_gates(|g| g.name != "g1");
        b.add_gate("g1", "BUF", GateKind::Comb, vec![bn], vec![by]);
        let lib = Library::lib180();
        let r = check_equiv(&a, &lib, &b, &lib, None).unwrap();
        assert!(!r.equivalent);
        let (idx, cex) = r.failing_output.unwrap();
        assert_eq!(idx, 0);
        // Verify the counterexample actually differs.
        let va = eval64(
            &a,
            &lib,
            &[a.net_by_name("x").unwrap(), a.net_by_name("y").unwrap()],
            &cex.iter()
                .map(|&v| if v { !0u64 } else { 0 })
                .collect::<Vec<_>>(),
            &[false, false],
        );
        let vb = eval64(
            &b,
            &lib,
            &[b.net_by_name("x").unwrap(), b.net_by_name("y").unwrap()],
            &cex.iter()
                .map(|&v| if v { !0u64 } else { 0 })
                .collect::<Vec<_>>(),
            &[false, false],
        );
        assert_ne!(
            va[a.net_by_name("out").unwrap().index()] & 1,
            vb[b.net_by_name("out").unwrap().index()] & 1
        );
        let r = check_equiv_random(&a, &lib, &b, &lib, None, 4, 1).unwrap();
        assert!(!r.equivalent);
    }

    #[test]
    fn output_parity_flips_comparison() {
        let (a, mut b) = equivalent_pair();
        // b computes NAND (BUF instead of INV) but declared parity
        // true makes it equivalent again.
        let bn = b.net_by_name("n").unwrap();
        let by = b.net_by_name("out").unwrap();
        b.retain_gates(|g| g.name != "g1");
        b.add_gate("g1", "BUF", GateKind::Comb, vec![bn], vec![by]);
        let lib = Library::lib180();
        let r = check_equiv(&a, &lib, &b, &lib, Some(&[true])).unwrap();
        assert!(r.equivalent);
    }

    #[test]
    fn registers_matched_by_order() {
        let mk = |cell: &str| {
            let mut n = Netlist::new("s");
            let a = n.add_input("a");
            let w = n.add_net("w");
            let q = n.add_net("q");
            n.add_gate("g", cell, GateKind::Comb, vec![a], vec![w]);
            n.add_gate("r", "DFF", GateKind::Seq, vec![w], vec![q]);
            n.mark_output(q);
            n
        };
        let lib = Library::lib180();
        let r = check_equiv(&mk("BUF"), &lib, &mk("BUF"), &lib, None).unwrap();
        assert!(r.equivalent);
        let r = check_equiv(&mk("BUF"), &lib, &mk("INV"), &lib, None).unwrap();
        assert!(!r.equivalent);
        assert!(r.failing_register.is_some());
    }

    #[test]
    fn port_mismatch_is_reported() {
        let (a, _) = equivalent_pair();
        let mut c = Netlist::new("c");
        let x = c.add_input("x");
        let z = c.add_input("z");
        let y = c.add_net("out");
        c.add_gate("g", "AND2", GateKind::Comb, vec![x, z], vec![y]);
        c.mark_output(y);
        let lib = Library::lib180();
        assert!(matches!(
            check_equiv(&a, &lib, &c, &lib, None),
            Err(LecError::PortMismatch { .. })
        ));
    }

    #[test]
    fn five_input_cells_convert_to_bdd() {
        // AOI32 in one design, its SOP expansion in the other.
        let mut a = Netlist::new("a");
        let ins: Vec<NetId> = (0..5).map(|i| a.add_input(format!("i{i}"))).collect();
        let y = a.add_net("out");
        a.add_gate("g", "AOI32", GateKind::Comb, ins.clone(), vec![y]);
        a.mark_output(y);

        let mut b = Netlist::new("b");
        let bins: Vec<NetId> = (0..5).map(|i| b.add_input(format!("i{i}"))).collect();
        let t1 = b.add_net("t1");
        let t2 = b.add_net("t2");
        let t3 = b.add_net("t3");
        let o = b.add_net("out");
        b.add_gate(
            "g1",
            "AND3",
            GateKind::Comb,
            vec![bins[0], bins[1], bins[2]],
            vec![t1],
        );
        b.add_gate(
            "g2",
            "AND2",
            GateKind::Comb,
            vec![bins[3], bins[4]],
            vec![t2],
        );
        b.add_gate("g3", "OR2", GateKind::Comb, vec![t1, t2], vec![t3]);
        b.add_gate("g4", "INV", GateKind::Comb, vec![t3], vec![o]);
        b.mark_output(o);

        let lib = Library::lib180();
        let r = check_equiv(&a, &lib, &b, &lib, None).unwrap();
        assert!(r.equivalent, "AOI32 BDD conversion broken");
    }
}
