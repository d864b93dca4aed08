//! The compiled zero-delay evaluator of a netlist's combinational
//! portion, 64 stimuli per pass.

use std::collections::HashMap;
use std::fmt;

use secflow_cells::{eval_cube_words, push_cube_words, CellFunction, CubeWord, Library};
use secflow_netlist::{GateKind, NetId, Netlist};

/// Why a netlist cannot be compiled by [`CompiledComb::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The combinational portion has a cycle.
    Cyclic,
    /// A gate references a cell missing from the library (the first
    /// such gate in topological order).
    UnknownCell {
        /// Gate instance name.
        gate: String,
        /// Unresolved cell name.
        cell: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Cyclic => write!(f, "combinational cycle"),
            CompileError::UnknownCell { gate, cell } => {
                write!(f, "gate `{gate}` references unknown cell `{cell}`")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// A build-once compilation of a netlist's combinational portion:
/// every gate resolved to a cube-word program and placed in
/// topological order exactly once, then evaluated on 64 stimuli per
/// pass (one per `u64` bit lane) as often as needed.
///
/// Sequential gates are not evaluated: their outputs are sources that
/// the caller drives, like primary inputs.
#[derive(Debug)]
pub struct CompiledComb {
    n_nets: usize,
    /// Per op: output net.
    out_net: Vec<u32>,
    /// Per op: index of its cell's program (a `prog_offsets` range).
    prog: Vec<u32>,
    /// CSR offsets into `in_nets`, one more entry than ops.
    in_offsets: Vec<u32>,
    /// Input nets per op, in pin order.
    in_nets: Vec<u32>,
    /// CSR offsets into `cubes`, one range per distinct cell.
    prog_offsets: Vec<u32>,
    cubes: Vec<CubeWord>,
    cell_memo_hits: u64,
}

impl CompiledComb {
    /// Compiles `nl` against `lib`. Cells are resolved once per
    /// distinct name. When `tie_override` is given, every constant
    /// driver outputs it instead of its own value (the precharge wave
    /// models constants as precharged).
    ///
    /// # Errors
    ///
    /// [`CompileError::Cyclic`] if the combinational portion has a
    /// cycle; [`CompileError::UnknownCell`] for the first non-sequential
    /// gate, in topological order, whose cell `lib` lacks.
    pub fn build(
        nl: &Netlist,
        lib: &Library,
        tie_override: Option<bool>,
    ) -> Result<CompiledComb, CompileError> {
        let order = secflow_netlist::topo_order(nl).ok_or(CompileError::Cyclic)?;
        // Mapped netlists instantiate a handful of distinct cells tens
        // of thousands of times; each name maps to its program (`None`
        // for cells with nothing to evaluate) after the first lookup.
        let mut memo: HashMap<&str, Option<u32>> = HashMap::new();
        let mut comp = CompiledComb {
            n_nets: nl.net_count(),
            out_net: Vec::new(),
            prog: Vec::new(),
            in_offsets: vec![0],
            in_nets: Vec::new(),
            prog_offsets: vec![0],
            cubes: Vec::new(),
            cell_memo_hits: 0,
        };
        for gid in order {
            let g = nl.gate(gid);
            if g.kind == GateKind::Seq {
                continue;
            }
            let prog = match memo.get(g.cell.as_str()) {
                Some(&p) => {
                    comp.cell_memo_hits += 1;
                    p
                }
                None => {
                    let cell = lib
                        .by_name(&g.cell)
                        .ok_or_else(|| CompileError::UnknownCell {
                            gate: g.name.clone(),
                            cell: g.cell.clone(),
                        })?;
                    let p = comp.push_program(cell.function(), tie_override);
                    memo.insert(g.cell.as_str(), p);
                    p
                }
            };
            let Some(p) = prog else { continue };
            comp.out_net.push(g.outputs[0].0);
            comp.prog.push(p);
            comp.in_nets.extend(g.inputs.iter().map(|n| n.0));
            comp.in_offsets.push(comp.in_nets.len() as u32);
        }
        Ok(comp)
    }

    /// Appends the program of a cell function; `None` if the function
    /// has nothing to evaluate (registers).
    fn push_program(&mut self, f: &CellFunction, tie_override: Option<bool>) -> Option<u32> {
        match f {
            CellFunction::Comb(tt) => push_cube_words(tt, &mut self.cubes),
            // A constant is the empty (false) or tautology (true) cover.
            CellFunction::Tie(v) => {
                if tie_override.unwrap_or(*v) {
                    self.cubes.push((0, 0));
                }
            }
            CellFunction::Dff | CellFunction::WddlDff => return None,
        }
        self.prog_offsets.push(self.cubes.len() as u32);
        Some(self.prog_offsets.len() as u32 - 2)
    }

    /// Gates whose cell was resolved from the per-name memo rather
    /// than a library lookup.
    pub(crate) fn cell_memo_hits(&self) -> u64 {
        self.cell_memo_hits
    }

    /// Evaluates 64 stimuli at once into `values`, one word per net
    /// (reused across calls; resized and zeroed here). Source words are
    /// applied in order, so a net listed twice takes its last word;
    /// then every gate is evaluated in topological order, overwriting
    /// any source word on a net a gate drives. Nets neither listed nor
    /// driven read 0.
    pub fn eval_into(&self, values: &mut Vec<u64>, source_nets: &[NetId], source_words: &[u64]) {
        values.clear();
        values.resize(self.n_nets, 0u64);
        for (&net, &w) in source_nets.iter().zip(source_words) {
            values[net.index()] = w;
        }
        for (op, &out) in self.out_net.iter().enumerate() {
            let lo = self.in_offsets[op] as usize;
            let hi = self.in_offsets[op + 1] as usize;
            let mut ins = [0u64; 8];
            for (w, &n) in ins.iter_mut().zip(&self.in_nets[lo..hi]) {
                *w = values[n as usize];
            }
            let p = self.prog[op] as usize;
            let clo = self.prog_offsets[p] as usize;
            let chi = self.prog_offsets[p + 1] as usize;
            values[out as usize] = eval_cube_words(&self.cubes[clo..chi], &ins);
        }
    }
}
