//! Cut-based technology mapping from an AIG onto a standard cell
//! library.
//!
//! The mapper enumerates K-feasible cuts per AND node, computes each
//! cut's local truth table, matches it against the library (under input
//! permutation, with optional output inversion), and selects covers by
//! area flow in a single topological pass — the classic DAG-mapper
//! recipe. The paper's synthesis `script` constraints (restricting
//! which gates synthesis may use) are honoured through
//! [`MapOptions::allowed_cells`].

use std::collections::hash_map::RandomState;
use std::collections::HashSet;
use std::fmt;
use std::hash::BuildHasher;

use secflow_cells::{Library, MatchedCell, TruthTable};
use secflow_netlist::{GateKind, NetId, Netlist};

use crate::aig::{Aig, Lit, NodeId};
use crate::design::Design;

/// Mapper configuration.
#[derive(Debug, Clone)]
pub struct MapOptions {
    /// Maximum cut size (number of leaves). At most 6.
    pub cut_size: u8,
    /// Maximum number of cuts kept per node.
    pub cuts_per_node: usize,
    /// If set, only these library cells may be instantiated (plus
    /// `DFF`, `TIELO`, `TIEHI` for registers and constants).
    pub allowed_cells: Option<HashSet<String>>,
}

impl Default for MapOptions {
    fn default() -> Self {
        MapOptions {
            cut_size: 5,
            cuts_per_node: 8,
            allowed_cells: None,
        }
    }
}

/// Errors from technology mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// No library cell (combination) realizes some required function —
    /// e.g. the allowlist excludes every 2-input cell.
    Unmappable {
        /// Human-readable description of the failing function.
        reason: String,
    },
    /// The [`MapOptions`] are out of range: a cut size outside
    /// `1..=6` or no cuts kept per node.
    BadOptions {
        /// Which option is out of range, and its value.
        reason: String,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Unmappable { reason } => write!(f, "unmappable function: {reason}"),
            MapError::BadOptions { reason } => write!(f, "bad mapper options: {reason}"),
        }
    }
}

impl std::error::Error for MapError {}

impl MapOptions {
    /// Checks that the options are in range: truth tables hold at most
    /// 6 variables, and a mapper that keeps no cuts can cover nothing.
    fn validate(&self) -> Result<(), MapError> {
        let reason = if self.cut_size == 0 || self.cut_size > TruthTable::MAX_VARS {
            format!("cut_size {} is outside 1..=6", self.cut_size)
        } else if self.cuts_per_node == 0 {
            "cuts_per_node is 0".to_string()
        } else {
            return Ok(());
        };
        Err(MapError::BadOptions { reason })
    }
}

/// A cut: a sorted set of at most 6 leaf nodes, stored inline, with a
/// signature that has bit `id % 64` set for every leaf `id`. Slots past
/// `len` hold `NodeId(0)`, so `==` compares leaf sets, and it checks the
/// signature and the length before the leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cut {
    sig: u64,
    len: u8,
    leaves: [NodeId; 6],
}

impl Cut {
    fn trivial(id: NodeId) -> Self {
        let mut leaves = [NodeId(0); 6];
        leaves[0] = id;
        Cut {
            leaves,
            len: 1,
            sig: 1 << (id.0 % 64),
        }
    }

    fn leaves(&self) -> &[NodeId] {
        &self.leaves[..self.len as usize]
    }

    /// The sorted union of `a` and `b`, or `None` if it has more than
    /// `k` leaves.
    fn merge(a: &Cut, b: &Cut, k: usize) -> Option<Cut> {
        let sig = a.sig | b.sig;
        // Distinct signature bits are distinct leaves.
        if sig.count_ones() as usize > k {
            return None;
        }
        let (a, b) = (a.leaves(), b.leaves());
        let mut out = Cut {
            leaves: [NodeId(0); 6],
            len: 0,
            sig,
        };
        let (mut i, mut j, mut n) = (0, 0, 0);
        loop {
            let next = match (a.get(i), b.get(j)) {
                (None, None) => break,
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                    x
                }
                (Some(&x), Some(&y)) if y < x => {
                    j += 1;
                    y
                }
                (Some(&x), _) => {
                    i += 1;
                    x
                }
                (None, Some(&y)) => {
                    j += 1;
                    y
                }
            };
            if n == k {
                return None;
            }
            out.leaves[n] = next;
            n += 1;
        }
        out.len = n as u8;
        Some(out)
    }
}

/// Open-addressing match cache keyed by (variable count, table bits).
/// Each slot holds the key and the index of the match in `matches`, or
/// `NO_MATCH` if no cell realizes the function. Every cut looks its
/// table up here, so the hash is one multiplication, not SipHash; the
/// multiplier is random and odd, so (as with `HashMap`'s random keys)
/// the tables of a design cannot be chosen to collide.
struct MatchCache {
    /// `(n, bits, entry)`; `n == EMPTY` marks a free slot. The length
    /// is a power of two, kept at least twice the entry count.
    slots: Vec<(u8, u64, u32)>,
    len: usize,
    /// `64 - log2(slots.len())`: the hash is the product's top bits.
    shift: u32,
    mult: u64,
    /// Every distinct match found, stored once.
    matches: Vec<MatchedCell>,
}

const EMPTY: u8 = u8::MAX;
const NO_MATCH: u32 = u32::MAX;

impl MatchCache {
    fn new() -> Self {
        MatchCache {
            slots: vec![(EMPTY, 0, 0); 256],
            len: 0,
            shift: 64 - 8,
            mult: RandomState::new().hash_one(0u64) | 1,
            matches: Vec::new(),
        }
    }

    /// The slot holding `(n, bits)`, or the free slot where it goes.
    fn slot(&self, n: u8, bits: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = ((bits ^ u64::from(n)).wrapping_mul(self.mult) >> self.shift) as usize;
        loop {
            let (sn, sb, _) = self.slots[i];
            if sn == EMPTY || (sn == n && sb == bits) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, n: u8, bits: u64, entry: u32) {
        if 2 * (self.len + 1) > self.slots.len() {
            let grown = vec![(EMPTY, 0, 0); 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, grown);
            self.shift -= 1;
            for (sn, sb, e) in old.into_iter().filter(|s| s.0 != EMPTY) {
                let i = self.slot(sn, sb);
                self.slots[i] = (sn, sb, e);
            }
        }
        let i = self.slot(n, bits);
        self.slots[i] = (n, bits, entry);
        self.len += 1;
    }
}

struct Mapper<'a> {
    aig: &'a Aig,
    lib: &'a Library,
    opts: &'a MapOptions,
    /// Kept cuts of every node, back to back; node `i`'s are
    /// `cuts[cut_start[i]..cut_start[i + 1]]` once it is processed.
    cuts: Vec<Cut>,
    cut_start: Vec<u32>,
    /// Candidate cuts of the node being processed, reused.
    merged: Vec<Cut>,
    /// `cut_tt` memo: table bits per node, valid when the stamp equals
    /// the current epoch.
    tt_memo: Vec<(u32, u64)>,
    epoch: u32,
    /// `VAR_TT[n][i]`: the table of variable `i` over `n` variables.
    var_tt: [[u64; 6]; 7],
    match_cache: MatchCache,
    /// Chosen (cut, index into `match_cache.matches`) per AND node.
    chosen: Vec<Option<(Cut, u32)>>,
    /// Area-flow value per node.
    aflow: Vec<f64>,
    refs: Vec<u32>,
}

impl<'a> Mapper<'a> {
    fn new(aig: &'a Aig, lib: &'a Library, opts: &'a MapOptions, roots: &[Lit]) -> Self {
        let n = aig.node_count();
        let mut var_tt = [[0u64; 6]; 7];
        for (vars, row) in (0u8..).zip(var_tt.iter_mut()) {
            for i in 0..vars {
                row[i as usize] = TruthTable::var(vars, i).bits();
            }
        }
        Mapper {
            aig,
            lib,
            opts,
            cuts: Vec::new(),
            cut_start: Vec::with_capacity(n + 1),
            merged: Vec::new(),
            tt_memo: vec![(0, 0); n],
            epoch: 0,
            var_tt,
            match_cache: MatchCache::new(),
            chosen: vec![None; n],
            aflow: vec![0.0; n],
            refs: aig.reference_counts(roots),
        }
    }

    fn node_cuts(&self, id: NodeId) -> &[Cut] {
        let i = id.0 as usize;
        &self.cuts[self.cut_start[i] as usize..self.cut_start[i + 1] as usize]
    }

    /// Computes the function of `node` over the leaves of `cut`.
    fn cut_tt(&mut self, node: NodeId, cut: &Cut) -> TruthTable {
        let n = cut.len;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamps restart: forget every stamp of the last cycle.
            self.tt_memo.fill((0, 0));
            self.epoch = 1;
        }
        for (i, leaf) in cut.leaves().iter().enumerate() {
            self.tt_memo[leaf.0 as usize] = (self.epoch, self.var_tt[n as usize][i]);
        }
        let ones = TruthTable::one(n).bits();
        TruthTable::from_bits(n, self.tt_rec(node, ones))
    }

    fn tt_rec(&mut self, node: NodeId, ones: u64) -> u64 {
        let (stamp, bits) = self.tt_memo[node.0 as usize];
        if stamp == self.epoch {
            return bits;
        }
        let (a, b) = self.aig.and_fanins(node);
        let lit = |this: &mut Self, l: Lit| {
            let t = this.tt_rec(l.node(), ones);
            if l.is_complement() {
                !t & ones
            } else {
                t
            }
        };
        let t = lit(self, a) & lit(self, b);
        self.tt_memo[node.0 as usize] = (self.epoch, t);
        t
    }

    /// Looks up (with caching) the best library match for `tt`, as an
    /// index into `match_cache.matches`.
    fn find_match(&mut self, tt: &TruthTable) -> Option<u32> {
        let (n, bits) = (tt.vars(), tt.bits());
        let (sn, _, entry) = self.match_cache.slots[self.match_cache.slot(n, bits)];
        if sn != EMPTY {
            return (entry != NO_MATCH).then_some(entry);
        }
        let m = match self.opts.allowed_cells.as_ref() {
            Some(set) => {
                let f = |name: &str| set.contains(name);
                self.lib.find_match(tt, Some(&f))
            }
            None => self.lib.find_match(tt, None),
        };
        let entry = match m {
            Some(m) => {
                self.match_cache.matches.push(m);
                self.match_cache.matches.len() as u32 - 1
            }
            None => NO_MATCH,
        };
        self.match_cache.insert(n, bits, entry);
        (entry != NO_MATCH).then_some(entry)
    }

    /// Enumerates cuts and runs the area-flow DP for one AND node.
    fn process_and(&mut self, id: NodeId) -> Result<(), MapError> {
        let (fa, fb) = self.aig.and_fanins(id);
        let k = self.opts.cut_size as usize;
        let mut merged = std::mem::take(&mut self.merged);
        merged.clear();
        for a in self.node_cuts(fa.node()) {
            for b in self.node_cuts(fb.node()) {
                if let Some(u) = Cut::merge(a, b, k) {
                    if !merged.contains(&u) {
                        merged.push(u);
                    }
                }
            }
        }
        // Prefer smaller cuts when truncating: a stable sort by size.
        merged.sort_by_key(|c| c.len);
        merged.truncate(self.opts.cuts_per_node);

        // DP: choose the cut+match with the lowest area flow.
        let mut best: Option<(f64, Cut, u32)> = None;
        for cut in &merged {
            let raw_tt = self.cut_tt(id, cut);
            // Drop leaves the function does not depend on.
            let (tt, cut) = compress(&raw_tt, cut);
            if tt.vars() == 0 {
                continue; // constant — handled via folding, skip
            }
            let Some(m) = self.find_match(&tt) else {
                continue;
            };
            let leaf_flow: f64 = cut.leaves().iter().map(|l| self.aflow[l.0 as usize]).sum();
            let cost = self.match_cache.matches[m as usize].area_um2 + leaf_flow;
            if best.as_ref().is_none_or(|(c, _, _)| cost < *c) {
                best = Some((cost, cut, m));
            }
        }
        let (cost, cut, m) = best.ok_or_else(|| MapError::Unmappable {
            reason: format!("no cell matches any cut of node {id:?}"),
        })?;
        self.aflow[id.0 as usize] = cost / f64::from(self.refs[id.0 as usize].max(1));
        self.chosen[id.0 as usize] = Some((cut, m));

        // Kept cuts for parents: the trivial cut, then the merged cuts.
        self.cuts.push(Cut::trivial(id));
        let room = self.opts.cuts_per_node - 1;
        self.cuts.extend(merged.iter().take(room));
        self.merged = merged;
        Ok(())
    }

    fn run(&mut self) -> Result<(), MapError> {
        self.cut_start.push(0);
        for id in self.aig.topo_nodes() {
            if self.aig.leaf_index(id).is_some() {
                self.cuts.push(Cut::trivial(id));
            } else if self.aig.is_and(id) {
                self.process_and(id)?;
            }
            // Constant node: no cuts.
            self.cut_start.push(self.cuts.len() as u32);
        }
        Ok(())
    }
}

/// Removes irrelevant variables from a cut function.
fn compress(tt: &TruthTable, cut: &Cut) -> (TruthTable, Cut) {
    let n = tt.vars();
    let mut support = [0u8; 6];
    let mut m = 0;
    for v in 0..n {
        if tt.depends_on(v) {
            support[m] = v;
            m += 1;
        }
    }
    if m == n as usize {
        return (*tt, *cut);
    }
    let support = &support[..m];
    let mut new_cut = Cut {
        leaves: [NodeId(0); 6],
        len: m as u8,
        sig: 0,
    };
    for (i, &v) in support.iter().enumerate() {
        let leaf = cut.leaves[v as usize];
        new_cut.leaves[i] = leaf;
        new_cut.sig |= 1 << (leaf.0 % 64);
    }
    let compressed = TruthTable::from_fn(m as u8, |a| {
        let mut full = 0u32;
        for (i, &v) in support.iter().enumerate() {
            if a >> i & 1 == 1 {
                full |= 1 << v;
            }
        }
        tt.eval(full)
    });
    (compressed, new_cut)
}

/// Maps `design` onto `lib`, returning a flat gate-level netlist.
///
/// Primary inputs keep their names; primary outputs and register
/// outputs drive nets carrying their declared names. Inverted literals
/// are realized with `INV` cells; constant outputs with `TIELO` /
/// `TIEHI`.
///
/// # Errors
///
/// Returns [`MapError::Unmappable`] if some required function has no
/// realization in the (possibly restricted) library.
pub fn map_design(design: &Design, lib: &Library, opts: &MapOptions) -> Result<Netlist, MapError> {
    opts.validate()?;
    let roots = design.roots();
    let mut mapper = Mapper::new(&design.aig, lib, opts, &roots);
    mapper.run()?;

    // Which nodes are actually needed by the cover?
    let mut needed = vec![false; design.aig.node_count()];
    let mut stack: Vec<NodeId> = roots.iter().map(|l| l.node()).collect();
    while let Some(n) = stack.pop() {
        if design.aig.leaf_index(n).is_some() || n == NodeId(0) {
            continue;
        }
        if std::mem::replace(&mut needed[n.0 as usize], true) {
            continue;
        }
        let (cut, _) = mapper.chosen[n.0 as usize]
            .as_ref()
            .expect("needed AND node has a chosen cover");
        stack.extend(cut.leaves().iter().copied());
    }

    let mut nl = Netlist::new(design.name.clone());

    // Nets for leaves: primary inputs and register outputs.
    let mut node_net: Vec<NetId> = vec![NetId(u32::MAX); design.aig.node_count()];
    for (name, l) in &design.inputs {
        node_net[l.node().0 as usize] = nl.add_input(name.as_str());
    }
    for r in &design.registers {
        node_net[r.q.node().0 as usize] = nl.add_net(r.name.as_str());
    }

    // Nets for covered AND nodes, created in topo order.
    let ordered: Vec<NodeId> = design
        .aig
        .topo_nodes()
        .filter(|n| needed[n.0 as usize])
        .collect();
    for &n in &ordered {
        node_net[n.0 as usize] = nl.fresh_net("w");
    }

    // Gate instances. Inverted pin phases share one INV per node.
    let mut gate_n = 0usize;
    let mut inv_cache: Vec<Option<NetId>> = vec![None; design.aig.node_count()];
    for &n in &ordered {
        let (cut, m) = mapper.chosen[n.0 as usize].expect("chosen");
        let m = &mapper.match_cache.matches[m as usize];
        // The match permutation maps cell pin i -> cut variable
        // m.perm[i], inverted when m.input_neg[i] is set.
        let mut inputs = [NetId(0); 6];
        for (pin, (&v, &neg)) in m.perm.iter().zip(&m.input_neg).enumerate() {
            let node = cut.leaves[v as usize];
            let net = node_net[node.0 as usize];
            inputs[pin] = if !neg {
                net
            } else if let Some(inv) = inv_cache[node.0 as usize] {
                inv
            } else {
                let inv = nl.fresh_net("ni");
                nl.add_gate(format!("u{gate_n}"), "INV", GateKind::Comb, [net], [inv]);
                gate_n += 1;
                inv_cache[node.0 as usize] = Some(inv);
                inv
            };
        }
        let inputs = &inputs[..m.perm.len()];
        let out_net = node_net[n.0 as usize];
        if m.inverted {
            let mid = nl.fresh_net("inv_in");
            nl.add_gate(
                format!("u{gate_n}"),
                m.cell.as_str(),
                GateKind::Comb,
                inputs,
                [mid],
            );
            gate_n += 1;
            nl.add_gate(
                format!("u{gate_n}"),
                "INV",
                GateKind::Comb,
                [mid],
                [out_net],
            );
        } else {
            nl.add_gate(
                format!("u{gate_n}"),
                m.cell.as_str(),
                GateKind::Comb,
                inputs,
                [out_net],
            );
        }
        gate_n += 1;
    }

    // Literal resolution with INV/tie sharing, indexed by
    // `2 * node + complement`.
    let mut lit_nets: Vec<Option<NetId>> = vec![None; 2 * design.aig.node_count()];
    let mut resolve = |nl: &mut Netlist, l: Lit, gate_n: &mut usize| -> NetId {
        let slot = 2 * l.node().0 as usize + l.is_complement() as usize;
        if let Some(id) = lit_nets[slot] {
            return id;
        }
        let id = if l == Lit::FALSE || l == Lit::TRUE {
            let id = nl.fresh_net("tie");
            let cell = if l == Lit::TRUE { "TIEHI" } else { "TIELO" };
            nl.add_gate(format!("u{gate_n}"), cell, GateKind::Tie, [], [id]);
            *gate_n += 1;
            id
        } else if !l.is_complement() {
            node_net[l.node().0 as usize]
        } else {
            let src = node_net[l.node().0 as usize];
            let id = nl.fresh_net("nb");
            nl.add_gate(format!("u{gate_n}"), "INV", GateKind::Comb, [src], [id]);
            *gate_n += 1;
            id
        };
        lit_nets[slot] = Some(id);
        id
    };

    // Registers: DFF between resolved next-state net and Q net.
    for r in &design.registers {
        let d_net = resolve(&mut nl, r.next, &mut gate_n);
        let q_net = node_net[r.q.node().0 as usize];
        nl.add_gate(
            format!("r_{}", r.name),
            "DFF",
            GateKind::Seq,
            [d_net],
            [q_net],
        );
    }

    // Primary outputs.
    let mut claimed: HashSet<NetId> = HashSet::new();
    for (name, l) in &design.outputs {
        let src = resolve(&mut nl, *l, &mut gate_n);
        if claimed.insert(src) {
            nl.mark_output(src);
        } else {
            // The same literal drives several ports: buffer a copy.
            let id = nl.add_net(name.as_str());
            nl.add_gate(format!("u{gate_n}"), "BUF", GateKind::Comb, [src], [id]);
            gate_n += 1;
            nl.mark_output(id);
        }
    }

    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Design;
    use crate::eval::simulate_comb;
    use secflow_cells::CellFunction;

    /// Evaluates a mapped combinational netlist on one input pattern.
    fn eval_netlist(nl: &Netlist, lib: &Library, inputs: &[(NetId, bool)]) -> Vec<bool> {
        let mut values: Vec<Option<bool>> = vec![None; nl.net_count()];
        for &(n, v) in inputs {
            values[n.index()] = Some(v);
        }
        let order = secflow_netlist::topo_order(nl).expect("acyclic");
        for gid in order {
            let g = nl.gate(gid);
            let cell = lib.by_name(&g.cell).expect("cell exists");
            match cell.function() {
                CellFunction::Comb(tt) => {
                    let mut idx = 0u32;
                    for (i, &inp) in g.inputs.iter().enumerate() {
                        if values[inp.index()].expect("input ready") {
                            idx |= 1 << i;
                        }
                    }
                    values[g.outputs[0].index()] = Some(tt.eval(idx));
                }
                CellFunction::Tie(v) => values[g.outputs[0].index()] = Some(*v),
                CellFunction::Dff | CellFunction::WddlDff => {
                    panic!("combinational test only")
                }
            }
        }
        nl.outputs()
            .iter()
            .map(|&o| values[o.index()].expect("output driven"))
            .collect()
    }

    fn check_equiv(d: &Design, nl: &Netlist, lib: &Library) {
        let n_in = d.inputs.len();
        assert!(n_in <= 12, "exhaustive check only for small designs");
        for pat in 0..(1u32 << n_in) {
            let inputs: Vec<(NetId, bool)> = d
                .inputs
                .iter()
                .enumerate()
                .map(|(i, (name, _))| (nl.net_by_name(name).expect("input net"), pat >> i & 1 == 1))
                .collect();
            let got = eval_netlist(nl, lib, &inputs);
            let in_words: Vec<u64> = (0..n_in)
                .map(|i| if pat >> i & 1 == 1 { !0u64 } else { 0 })
                .collect();
            let (outs, _) = simulate_comb(d, &in_words, &[]);
            for (g, w) in got.iter().zip(&outs) {
                assert_eq!(*g, *w & 1 == 1, "mismatch at pattern {pat:b}");
            }
        }
    }

    #[test]
    fn maps_simple_and() {
        let mut d = Design::new("t");
        let a = d.input("a");
        let b = d.input("b");
        let y = d.aig.and(a, b);
        d.output("y", y);
        let lib = Library::lib180();
        let nl = map_design(&d, &lib, &MapOptions::default()).unwrap();
        assert!(nl.validate().is_ok());
        check_equiv(&d, &nl, &lib);
    }

    #[test]
    fn maps_xor_mux_mix() {
        let mut d = Design::new("t");
        let a = d.input("a");
        let b = d.input("b");
        let c = d.input("c");
        let s = d.input("s");
        let x = d.aig.xor(a, b);
        let m = d.aig.mux(s, x, c);
        let z = d.aig.or(m, a.not());
        d.output("m", m);
        d.output("z", z);
        let lib = Library::lib180();
        let nl = map_design(&d, &lib, &MapOptions::default()).unwrap();
        assert!(nl.validate().is_ok());
        check_equiv(&d, &nl, &lib);
    }

    #[test]
    fn maps_constants_and_inversions() {
        let mut d = Design::new("t");
        let a = d.input("a");
        d.output("k0", Lit::FALSE);
        d.output("k1", Lit::TRUE);
        d.output("na", a.not());
        let lib = Library::lib180();
        let nl = map_design(&d, &lib, &MapOptions::default()).unwrap();
        assert!(nl.validate().is_ok());
        check_equiv(&d, &nl, &lib);
        let hist = nl.cell_histogram();
        assert!(hist.iter().any(|(c, _)| c == "TIELO"));
        assert!(hist.iter().any(|(c, _)| c == "TIEHI"));
        assert!(hist.iter().any(|(c, _)| c == "INV"));
    }

    #[test]
    fn maps_sequential_design() {
        let mut d = Design::new("cnt");
        let q = d.register_bus("q", 2);
        let n0 = q[0].not();
        let n1 = d.aig.xor(q[1], q[0]);
        d.set_next_bus(&q, &[n0, n1]);
        d.output_bus("count", &q);
        let lib = Library::lib180();
        let nl = map_design(&d, &lib, &MapOptions::default()).unwrap();
        assert!(nl.validate().is_ok());
        assert_eq!(nl.gates().iter().filter(|g| g.cell == "DFF").count(), 2);
    }

    #[test]
    fn allowlist_restricts_cells() {
        let mut d = Design::new("t");
        let a = d.input("a");
        let b = d.input("b");
        let y = d.aig.and(a, b);
        let z = d.aig.or(a, b);
        d.output("y", y);
        d.output("z", z);
        let lib = Library::lib180();
        let allowed: HashSet<String> = ["AND2", "OR2", "INV"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = MapOptions {
            allowed_cells: Some(allowed.clone()),
            ..Default::default()
        };
        let nl = map_design(&d, &lib, &opts).unwrap();
        for g in nl.gates() {
            assert!(
                allowed.contains(g.cell.as_str())
                    || matches!(g.cell.as_str(), "DFF" | "TIELO" | "TIEHI"),
                "forbidden cell {}",
                g.cell
            );
        }
        check_equiv(&d, &nl, &lib);
    }

    #[test]
    fn empty_allowlist_fails() {
        let mut d = Design::new("t");
        let a = d.input("a");
        let b = d.input("b");
        let y = d.aig.and(a, b);
        d.output("y", y);
        let lib = Library::lib180();
        let opts = MapOptions {
            allowed_cells: Some(HashSet::new()),
            ..Default::default()
        };
        assert!(matches!(
            map_design(&d, &lib, &opts),
            Err(MapError::Unmappable { .. })
        ));
    }

    /// An 8-input AND tree: its root has cuts of up to 8 leaves.
    fn and_tree8() -> Design {
        let mut d = Design::new("t");
        let ins: Vec<Lit> = (0..8).map(|i| d.input(format!("i{i}"))).collect();
        let mut level = ins;
        while level.len() > 1 {
            level = level.chunks(2).map(|p| d.aig.and(p[0], p[1])).collect();
        }
        d.output("y", level[0]);
        d
    }

    #[test]
    fn out_of_range_options_are_typed_errors() {
        let d = and_tree8();
        let lib = Library::lib180();
        for (cut_size, cuts_per_node) in [(0, 8), (7, 8), (7, 40), (8, 64), (255, 8), (5, 0)] {
            let opts = MapOptions {
                cut_size,
                cuts_per_node,
                allowed_cells: None,
            };
            let err = map_design(&d, &lib, &opts).expect_err("out-of-range options");
            let MapError::BadOptions { reason } = &err else {
                panic!("({cut_size}, {cuts_per_node}) gave {err:?}");
            };
            let field = if cuts_per_node == 0 {
                "cuts_per_node"
            } else {
                "cut_size"
            };
            assert!(reason.contains(field), "{reason}");
            assert!(err.to_string().starts_with("bad mapper options: "), "{err}");
        }
        // The bounds themselves are in range.
        for (cut_size, cuts_per_node) in [(1, 1), (6, 1), (6, 64)] {
            let opts = MapOptions {
                cut_size,
                cuts_per_node,
                allowed_cells: None,
            };
            let r = map_design(&d, &lib, &opts);
            assert!(!matches!(r, Err(MapError::BadOptions { .. })), "{r:?}");
        }
    }

    #[test]
    fn shared_output_literal_gets_buffer() {
        let mut d = Design::new("t");
        let a = d.input("a");
        let b = d.input("b");
        let y = d.aig.and(a, b);
        d.output("y1", y);
        d.output("y2", y);
        let lib = Library::lib180();
        let nl = map_design(&d, &lib, &MapOptions::default()).unwrap();
        assert!(nl.validate().is_ok());
        assert_eq!(nl.outputs().len(), 2);
        assert_ne!(nl.outputs()[0], nl.outputs()[1]);
        check_equiv(&d, &nl, &lib);
    }

    #[test]
    fn compress_drops_dead_vars() {
        // f over 3 vars depending only on var 2.
        let tt = TruthTable::from_fn(3, |x| x >> 2 & 1 == 1);
        let a = Cut::merge(&Cut::trivial(NodeId(5)), &Cut::trivial(NodeId(6)), 6).unwrap();
        let cut = Cut::merge(&a, &Cut::trivial(NodeId(7)), 6).unwrap();
        let (ctt, ccut) = compress(&tt, &cut);
        assert_eq!(ctt.vars(), 1);
        assert_eq!(ccut, Cut::trivial(NodeId(7)));
    }

    #[test]
    fn bigger_random_logic_maps_correctly() {
        // A deterministic pseudo-random expression tree over 8 inputs.
        let mut d = Design::new("rand");
        let ins: Vec<Lit> = (0..8).map(|i| d.input(format!("i{i}"))).collect();
        let mut pool = ins.clone();
        let mut state = 0x12345678u64;
        let mut next = |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        };
        for k in 0..40 {
            let a = pool[next(pool.len())];
            let b = pool[next(pool.len())];
            let l = match k % 3 {
                0 => d.aig.and(a, b),
                1 => d.aig.or(a, b.not()),
                _ => d.aig.xor(a, b),
            };
            pool.push(l);
        }
        let last = *pool.last().unwrap();
        let mid = pool[pool.len() / 2];
        d.output("y0", last);
        d.output("y1", mid.not());
        let lib = Library::lib180();
        let nl = map_design(&d, &lib, &MapOptions::default()).unwrap();
        assert!(nl.validate().is_ok());
        check_equiv(&d, &nl, &lib);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::design::Design;
    use crate::eval::simulate_comb;

    /// A random expression program: each step combines two earlier
    /// values with one of the AIG operators.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        And,
        Or,
        Xor,
        AndNot,
        Mux,
    }

    const OPS: [Op; 5] = [Op::And, Op::Or, Op::Xor, Op::AndNot, Op::Mux];

    /// Mapping any random expression DAG preserves its function
    /// (checked exhaustively over all input assignments).
    #[test]
    fn mapping_preserves_function() {
        secflow_testkit::prop_check!(cases: 24, seed: 0x3A90_0001, |g| {
            let n_inputs = g.random_range(2..7usize);
            let steps = g.vec_with(1..28, |g| {
                (
                    *g.choose(&OPS),
                    g.random::<u16>(),
                    g.random::<u16>(),
                    g.random::<u16>(),
                    g.random::<bool>(),
                )
            });
            let mut d = Design::new("rand");
            let mut pool: Vec<Lit> = (0..n_inputs)
                .map(|i| d.input(format!("i{i}")))
                .collect();
            for (op, a, b, c, neg) in &steps {
                let pa = pool[*a as usize % pool.len()];
                let pb = pool[*b as usize % pool.len()];
                let pc = pool[*c as usize % pool.len()];
                let mut l = match op {
                    Op::And => d.aig.and(pa, pb),
                    Op::Or => d.aig.or(pa, pb),
                    Op::Xor => d.aig.xor(pa, pb),
                    Op::AndNot => d.aig.and(pa, pb.not()),
                    Op::Mux => d.aig.mux(pc, pa, pb),
                };
                if *neg {
                    l = l.not();
                }
                pool.push(l);
            }
            let y = *pool.last().expect("non-empty pool");
            d.output("y", y);
            let lib = Library::lib180();
            let nl = map_design(&d, &lib, &MapOptions::default()).expect("mappable");
            assert!(nl.validate().is_ok());

            // Exhaustive equivalence via bit-parallel reference
            // evaluation and gate-level netlist evaluation.
            for pat in 0..(1u32 << n_inputs) {
                let words: Vec<u64> = (0..n_inputs)
                    .map(|i| if pat >> i & 1 == 1 { !0u64 } else { 0 })
                    .collect();
                let (outs, _) = simulate_comb(&d, &words, &[]);
                let want = outs[0] & 1 == 1;

                let mut values = vec![false; nl.net_count()];
                for (i, (_, _)) in d.inputs.iter().enumerate() {
                    let net = nl.net_by_name(&format!("i{i}")).expect("input net");
                    values[net.index()] = pat >> i & 1 == 1;
                }
                let order = secflow_netlist::topo_order(&nl).expect("acyclic");
                for gid in order {
                    let g = nl.gate(gid);
                    let cell = lib.by_name(&g.cell).expect("cell");
                    match cell.function() {
                        secflow_cells::CellFunction::Comb(tt) => {
                            let mut idx = 0u32;
                            for (i, &inp) in g.inputs.iter().enumerate() {
                                if values[inp.index()] {
                                    idx |= 1 << i;
                                }
                            }
                            values[g.outputs[0].index()] = tt.eval(idx);
                        }
                        secflow_cells::CellFunction::Tie(v) => {
                            values[g.outputs[0].index()] = *v;
                        }
                        _ => {}
                    }
                }
                let got = values[nl.outputs()[0].index()];
                assert_eq!(got, want, "pattern {pat:#b}");
            }
        });
    }
}
