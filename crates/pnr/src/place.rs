//! Row-based placement: connectivity-ordered initial placement refined
//! by simulated annealing on half-perimeter wirelength.

use std::fmt;

use secflow_rand::{RngExt, SeedableRng, StdRng};

use secflow_cells::{LefMacro, Library, ROW_TRACKS};
use secflow_netlist::{GateId, NetId, Netlist};

use crate::design::{PlacedCell, PlacedDesign};
use crate::floorplan::Floorplan;
use crate::grid::GridPitch;

/// Placement failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// A gate references a cell that the library does not provide.
    UnknownCell {
        /// Instance name of the offending gate.
        gate: String,
        /// The unresolvable cell name.
        cell: String,
    },
    /// Placement options are degenerate (fill factor outside `(0, 1]`
    /// or non-positive aspect ratio).
    InvalidOptions {
        /// Human-readable description of the bad option.
        detail: String,
    },
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::UnknownCell { gate, cell } => {
                write!(f, "gate `{gate}` references unknown cell `{cell}`")
            }
            PlaceError::InvalidOptions { detail } => {
                write!(f, "invalid placement options: {detail}")
            }
        }
    }
}

impl std::error::Error for PlaceError {}

/// Placement configuration.
#[derive(Debug, Clone)]
pub struct PlaceOptions {
    /// Fraction of row area occupied by cells (paper: 0.8).
    pub fill_factor: f64,
    /// Die width / height (paper: 1.0).
    pub aspect_ratio: f64,
    /// Simulated-annealing moves per gate (0 disables refinement).
    pub anneal_moves_per_gate: usize,
    /// RNG seed for the annealer.
    pub seed: u64,
    /// Grid pitch recorded in the output (placement itself is
    /// pitch-agnostic).
    pub pitch: GridPitch,
}

impl Default for PlaceOptions {
    fn default() -> Self {
        PlaceOptions {
            fill_factor: 0.8,
            aspect_ratio: 1.0,
            anneal_moves_per_gate: 200,
            seed: 1,
            pitch: GridPitch::Normal,
        }
    }
}

/// Resolves every gate's cell against `lib` once, returning the cell's
/// macro (width and pin offsets) per gate (indexed by [`GateId`]).
fn gate_macros<'a>(nl: &Netlist, lib: &'a Library) -> Result<Vec<&'a LefMacro>, PlaceError> {
    nl.gates()
        .iter()
        .map(|g| match lib.by_name(&g.cell) {
            Some(cell) => Ok(cell.physical()),
            None => Err(PlaceError::UnknownCell {
                gate: g.name.to_string(),
                cell: g.cell.to_string(),
            }),
        })
        .collect()
}

fn check_options(opts: &PlaceOptions) -> Result<(), PlaceError> {
    if !(opts.fill_factor > 0.0 && opts.fill_factor <= 1.0) {
        return Err(PlaceError::InvalidOptions {
            detail: format!("fill factor {} not in (0, 1]", opts.fill_factor),
        });
    }
    if !(opts.aspect_ratio > 0.0) {
        return Err(PlaceError::InvalidOptions {
            detail: format!("aspect ratio {} not positive", opts.aspect_ratio),
        });
    }
    Ok(())
}

/// Per-row cell sequences plus derived x coordinates.
struct RowState {
    rows: Vec<Vec<GateId>>,
    /// Summed cell width per row, kept in step with `rows`.
    widths: Vec<u32>,
    cap: u32,
}

impl RowState {
    fn repack(&self, gw: &[u32], out: &mut [PlacedCell]) {
        for r in 0..self.rows.len() {
            self.repack_row(gw, r, out, |_, _| {});
        }
    }

    /// Spreads row `r`'s slack evenly between its cells, reporting
    /// every gate whose placement changed together with its previous
    /// placement.
    fn repack_row(
        &self,
        gw: &[u32],
        r: usize,
        out: &mut [PlacedCell],
        mut on_change: impl FnMut(usize, PlacedCell),
    ) {
        let row = &self.rows[r];
        let slack = self.cap.saturating_sub(self.widths[r]);
        let gap = if row.is_empty() {
            0
        } else {
            slack / (row.len() as u32 + 1)
        };
        let mut x = gap as i32;
        for &g in row {
            let cell = PlacedCell { x, row: r as u32 };
            let old = std::mem::replace(&mut out[g.index()], cell);
            if old != cell {
                on_change(g.index(), old);
            }
            x += gw[g.index()] as i32 + gap as i32;
        }
    }
}

/// One pin as the annealer sees it.
#[derive(Clone, Copy)]
enum Pin {
    /// A gate pin, `dx` tracks right of the gate's origin, at the
    /// vertical center of its row.
    Gate { gate: u32, dx: i32 },
    /// A fixed die-edge pad point.
    Pad { x: i32, y: i32 },
}

/// Flat net → pin and gate → net tables of one placed netlist, so that
/// a net's HPWL is one pass over its pins with no lookups. Pins match
/// [`PlacedDesign::net_pins`] exactly.
struct NetGraph {
    pin_start: Vec<usize>,
    pins: Vec<Pin>,
    net_start: Vec<usize>,
    gate_nets: Vec<usize>,
    row_height: i32,
}

impl NetGraph {
    fn new(nl: &Netlist, macros: &[&LefMacro], design: &PlacedDesign) -> Self {
        // The first pad listed for a net wins, as in `net_pins`.
        let first_pad = |pads: &[(NetId, i32)]| {
            let mut y = vec![None; nl.net_count()];
            for &(n, py) in pads.iter().rev() {
                y[n.index()] = Some(py);
            }
            y
        };
        let in_pad = first_pad(&design.input_pads);
        let out_pad = first_pad(&design.output_pads);
        let gate_pin = |gate: GateId, tracks: &[u32], pin: u32| Pin::Gate {
            gate: gate.0,
            dx: tracks[pin as usize] as i32,
        };

        let mut pin_start = Vec::with_capacity(nl.net_count() + 1);
        let mut pins = Vec::new();
        pin_start.push(0);
        for net in nl.net_ids() {
            let rec = nl.net(net);
            match rec.driver {
                Some(d) => pins.push(gate_pin(
                    d.gate,
                    &macros[d.gate.index()].output_pin_tracks,
                    d.pin,
                )),
                None => {
                    if let Some(y) = in_pad[net.index()] {
                        pins.push(Pin::Pad { x: 0, y });
                    }
                }
            }
            for s in &rec.sinks {
                pins.push(gate_pin(
                    s.gate,
                    &macros[s.gate.index()].input_pin_tracks,
                    s.pin,
                ));
            }
            if let Some(y) = out_pad[net.index()] {
                pins.push(Pin::Pad {
                    x: design.width - 1,
                    y,
                });
            }
            pin_start.push(pins.len());
        }

        let mut net_start = Vec::with_capacity(nl.gate_count() + 1);
        let mut gate_nets = Vec::new();
        net_start.push(0);
        for gate in nl.gates() {
            gate_nets.extend(gate.inputs.iter().chain(&gate.outputs).map(|n| n.index()));
            net_start.push(gate_nets.len());
        }
        NetGraph {
            pin_start,
            pins,
            net_start,
            gate_nets,
            row_height: design.row_height,
        }
    }

    fn net_count(&self) -> usize {
        self.pin_start.len() - 1
    }

    /// Nets incident to gate `g` (inputs then outputs, repeats kept).
    fn nets_of(&self, g: usize) -> &[usize] {
        &self.gate_nets[self.net_start[g]..self.net_start[g + 1]]
    }

    /// Half-perimeter wirelength of `net` under `cells`; equals
    /// [`PlacedDesign::net_hpwl`].
    fn hpwl(&self, net: usize, cells: &[PlacedCell]) -> i64 {
        let pins = &self.pins[self.pin_start[net]..self.pin_start[net + 1]];
        if pins.len() < 2 {
            return 0;
        }
        let (mut x0, mut x1, mut y0, mut y1) = (i32::MAX, i32::MIN, i32::MAX, i32::MIN);
        for &pin in pins {
            let (x, y) = match pin {
                Pin::Gate { gate, dx } => {
                    let pc = cells[gate as usize];
                    (
                        pc.x + dx,
                        pc.row as i32 * self.row_height + self.row_height / 2,
                    )
                }
                Pin::Pad { x, y } => (x, y),
            };
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        i64::from(x1 - x0) + i64::from(y1 - y0)
    }
}

/// Places `nl` on a freshly sized floorplan.
///
/// The initial placement packs gates into rows in topological order
/// (a cheap proxy for connectivity locality), then simulated annealing
/// swaps and relocates cells to reduce total HPWL. Deterministic for a
/// fixed seed.
///
/// # Errors
///
/// Returns [`PlaceError::UnknownCell`] if a gate references a cell
/// missing from `lib`, or [`PlaceError::InvalidOptions`] on degenerate
/// fill factor / aspect ratio.
pub fn place(nl: &Netlist, lib: &Library, opts: &PlaceOptions) -> Result<PlacedDesign, PlaceError> {
    place_scored(nl, lib, opts).map(|(design, _)| design)
}

/// [`place`], plus the annealer's running total HPWL of the returned
/// placement (`None` when annealing is off).
fn place_scored(
    nl: &Netlist,
    lib: &Library,
    opts: &PlaceOptions,
) -> Result<(PlacedDesign, Option<i64>), PlaceError> {
    check_options(opts)?;
    let macros = gate_macros(nl, lib)?;
    let gw: Vec<u32> = macros.iter().map(|m| m.width_tracks).collect();
    let total_width: u64 = gw.iter().map(|&w| u64::from(w)).sum();
    let mut fp = Floorplan::size_for_width(total_width, opts.fill_factor, opts.aspect_ratio);
    // Each die edge offers one pad slot per track except row centers;
    // grow the die until every primary input/output gets a pad.
    let n_pads = nl.inputs().len().max(nl.outputs().len()) as u32;
    while fp.rows * (ROW_TRACKS - 1) < n_pads {
        fp.rows += 1;
    }
    let order = secflow_netlist::topo_order(nl).unwrap_or_else(|| nl.gate_ids().collect());

    // Initial serpentine fill.
    let mut rows: Vec<Vec<GateId>> = vec![Vec::new(); fp.rows as usize];
    let mut widths = vec![0u32; fp.rows as usize];
    let cap = fp.width_tracks;
    let mut r = 0usize;
    for g in order {
        let w = gw[g.index()];
        let mut tries = 0;
        while widths[r] + w > cap && tries < rows.len() {
            r = (r + 1) % rows.len();
            tries += 1;
        }
        // If every row is nominally full, spill into the least-used
        // row (the floorplan has slack, so this stays rare).
        if widths[r] + w > cap {
            let mut least = 0usize;
            for i in 1..rows.len() {
                if widths[i] < widths[least] {
                    least = i;
                }
            }
            r = least;
        }
        rows[r].push(g);
        widths[r] += w;
    }

    let mut state = RowState { rows, widths, cap };
    let height = fp.height_tracks() as i32;
    let pad_slots: Vec<i32> = (0..height)
        .filter(|y| y % ROW_TRACKS as i32 != ROW_TRACKS as i32 / 2)
        .collect();
    let spread = |nets: &[NetId]| -> Vec<(NetId, i32)> {
        nets.iter()
            .enumerate()
            .map(|(i, &n)| (n, pad_slots[i * pad_slots.len() / nets.len().max(1)]))
            .collect()
    };
    let mut design = PlacedDesign {
        name: nl.name.clone(),
        width: fp.width_tracks as i32,
        height,
        row_height: ROW_TRACKS as i32,
        pitch: opts.pitch,
        cells: vec![PlacedCell { x: 0, row: 0 }; nl.gate_count()],
        input_pads: spread(nl.inputs()),
        output_pads: spread(nl.outputs()),
    };
    state.repack(&gw, &mut design.cells);

    let total = if opts.anneal_moves_per_gate > 0 && nl.gate_count() > 1 {
        let graph = NetGraph::new(nl, &macros, &design);
        Some(anneal(&graph, &gw, &mut state, &mut design, opts))
    } else {
        None
    };
    Ok((design, total))
}

/// Simulated annealing over swaps and relocations; returns the total
/// HPWL of the placement it leaves in `design`.
///
/// Each move is evaluated incrementally: only the nets of gates whose
/// [`PlacedCell`] actually changed are re-measured, against a per-net
/// HPWL cache. Every other net keeps its HPWL, so the delta is exactly
/// the whole-row delta, and the RNG draws (`r1, i1, r2, bool(0.5), i2`,
/// then `bool(p)` only for an uphill move) are unchanged.
fn anneal(
    graph: &NetGraph,
    gw: &[u32],
    state: &mut RowState,
    design: &mut PlacedDesign,
    opts: &PlaceOptions,
) -> i64 {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let n_gates = design.cells.len();
    let moves = opts.anneal_moves_per_gate * n_gates;
    let mut accepted = 0u64;
    let n_rows = state.rows.len();
    let mut net_hpwl: Vec<i64> = (0..graph.net_count())
        .map(|n| graph.hpwl(n, &design.cells))
        .collect();
    let mut total: i64 = net_hpwl.iter().sum();
    let mut best = total;
    let mut best_cells = design.cells.clone();
    // Gates moved by accepted moves since `best_cells` was last synced.
    let mut dirty: Vec<usize> = Vec::new();
    let mut is_dirty = vec![false; n_gates];
    // Per-move scratch: changed gates with their previous placement,
    // and re-measured nets with their new HPWL.
    let mut changed: Vec<(usize, PlacedCell)> = Vec::new();
    let mut remeasured: Vec<(usize, i64)> = Vec::new();
    let mut net_epoch = vec![0u64; graph.net_count()];
    let mut epoch = 0u64;
    // Initial temperature scaled to typical net span.
    let mut temp = (design.width + design.height) as f64 / 4.0;
    let cooling = if moves > 0 {
        (0.005f64 / temp).powf(1.0 / moves as f64)
    } else {
        1.0
    };

    for _ in 0..moves {
        // Pick a random occupied (row, index).
        let r1 = rng.random_range(0..n_rows);
        if state.rows[r1].is_empty() {
            temp *= cooling;
            continue;
        }
        let i1 = rng.random_range(0..state.rows[r1].len());
        let g1 = state.rows[r1][i1];
        let w1 = gw[g1.index()];

        // Either swap with another cell or relocate into another row.
        let r2 = rng.random_range(0..n_rows);
        let swap_target: Option<(usize, GateId)> =
            if !state.rows[r2].is_empty() && rng.random_bool(0.5) {
                let i2 = rng.random_range(0..state.rows[r2].len());
                Some((i2, state.rows[r2][i2]))
            } else {
                None
            };

        // Feasibility on row capacity.
        match swap_target {
            Some((_, g2)) if r1 != r2 => {
                let w2 = gw[g2.index()];
                if state.widths[r1] - w1 + w2 > state.cap || state.widths[r2] - w2 + w1 > state.cap
                {
                    temp *= cooling;
                    continue;
                }
            }
            None if r1 != r2 && state.widths[r2] + w1 > state.cap => {
                temp *= cooling;
                continue;
            }
            _ => {}
        }

        // Apply the move and repack the touched rows, logging every
        // gate that actually shifted.
        let saved_widths = (state.widths[r1], state.widths[r2]);
        let undo = apply_move(state, gw, r1, i1, r2, swap_target.map(|(i2, _)| i2));
        changed.clear();
        let mut log = |g, old| changed.push((g, old));
        state.repack_row(gw, r1, &mut design.cells, &mut log);
        if r2 != r1 {
            state.repack_row(gw, r2, &mut design.cells, &mut log);
        }

        // Re-measure each net of a shifted gate once.
        epoch += 1;
        remeasured.clear();
        let mut delta = 0i64;
        for &(g, _) in &changed {
            for &n in graph.nets_of(g) {
                if net_epoch[n] != epoch {
                    net_epoch[n] = epoch;
                    let hpwl = graph.hpwl(n, &design.cells);
                    delta += hpwl - net_hpwl[n];
                    remeasured.push((n, hpwl));
                }
            }
        }

        let delta_f = delta as f64;
        let accept = delta_f <= 0.0 || rng.random_bool((-delta_f / temp.max(1e-9)).exp().min(1.0));
        if !accept {
            undo_move(state, undo);
            (state.widths[r1], state.widths[r2]) = saved_widths;
            for &(g, old) in &changed {
                design.cells[g] = old;
            }
        } else {
            accepted += 1;
            for &(n, hpwl) in &remeasured {
                net_hpwl[n] = hpwl;
            }
            for &(g, _) in &changed {
                if !is_dirty[g] {
                    is_dirty[g] = true;
                    dirty.push(g);
                }
            }
            total += delta;
            if total < best {
                best = total;
                for g in dirty.drain(..) {
                    best_cells[g] = design.cells[g];
                    is_dirty[g] = false;
                }
            }
        }
        temp *= cooling;
    }
    // Annealing may end uphill; keep the best placement seen.
    if best < total {
        for g in dirty {
            design.cells[g] = best_cells[g];
        }
        total = best;
    }
    secflow_obs::add(secflow_obs::Counter::PlaceMoves, moves as u64);
    secflow_obs::add(secflow_obs::Counter::PlaceAccepted, accepted);
    total
}

/// A reversible move description.
enum Undo {
    Swap {
        r1: usize,
        i1: usize,
        r2: usize,
        i2: usize,
    },
    Relocate {
        from: usize,
        to: usize,
        to_idx: usize,
        orig_idx: usize,
    },
}

/// Applies a swap (`swap_i2 = Some`) or a relocation to the end of row
/// `r2`, keeping the row widths in step.
fn apply_move(
    state: &mut RowState,
    gw: &[u32],
    r1: usize,
    i1: usize,
    r2: usize,
    swap_i2: Option<usize>,
) -> Undo {
    let g1 = state.rows[r1][i1];
    let w1 = gw[g1.index()];
    match swap_i2 {
        Some(i2) => {
            let g2 = state.rows[r2][i2];
            state.rows[r1][i1] = g2;
            state.rows[r2][i2] = g1;
            if r1 != r2 {
                let w2 = gw[g2.index()];
                state.widths[r1] = state.widths[r1] - w1 + w2;
                state.widths[r2] = state.widths[r2] - w2 + w1;
            }
            Undo::Swap { r1, i1, r2, i2 }
        }
        None => {
            state.rows[r1].remove(i1);
            state.rows[r2].push(g1);
            state.widths[r1] -= w1;
            state.widths[r2] += w1;
            Undo::Relocate {
                from: r1,
                to: r2,
                to_idx: state.rows[r2].len() - 1,
                orig_idx: i1,
            }
        }
    }
}

/// Reverts the row sequences of a move (widths are restored by the
/// caller).
fn undo_move(state: &mut RowState, undo: Undo) {
    match undo {
        Undo::Swap { r1, i1, r2, i2 } => {
            let g1 = state.rows[r2][i2];
            let g2 = state.rows[r1][i1];
            state.rows[r1][i1] = g1;
            state.rows[r2][i2] = g2;
        }
        Undo::Relocate {
            from,
            to,
            to_idx,
            orig_idx,
        } => {
            let g = state.rows[to].remove(to_idx);
            state.rows[from].insert(orig_idx, g);
        }
    }
}

/// Runs [`place`] `restarts` times with independent annealing seeds
/// derived from `(opts.seed, restart)` and keeps the placement with
/// the smallest total HPWL; ties go to the lowest restart index.
///
/// Restarts run in parallel (`secflow-exec`), and because each seed is
/// a pure function of the restart index the winner is the same at any
/// thread count. `restarts <= 1` is exactly a single [`place`] call
/// with `opts.seed` itself.
///
/// # Errors
///
/// Returns [`PlaceError`] if a gate references a cell missing from
/// `lib` or the options are degenerate.
pub fn place_best_of(
    nl: &Netlist,
    lib: &Library,
    opts: &PlaceOptions,
    restarts: usize,
) -> Result<PlacedDesign, PlaceError> {
    secflow_obs::add(secflow_obs::Counter::PlaceRestarts, restarts.max(1) as u64);
    if restarts <= 1 {
        return place(nl, lib, opts);
    }
    let candidates = secflow_exec::par_map_range(restarts, |r| {
        let restart_opts = PlaceOptions {
            seed: secflow_rand::split_seed(opts.seed, r as u64),
            ..opts.clone()
        };
        place(nl, lib, &restart_opts).map(|placed| (placed.total_hpwl(nl, lib), placed))
    });
    let mut best: Option<(i64, PlacedDesign)> = None;
    for candidate in candidates {
        let (hpwl, placed) = candidate?;
        // Strict `<` keeps the lowest restart index on ties.
        if best.as_ref().is_none_or(|(b, _)| hpwl < *b) {
            best = Some((hpwl, placed));
        }
    }
    match best {
        Some((_, placed)) => Ok(placed),
        // Unreachable for restarts >= 2; fall back to a single run
        // rather than asserting.
        None => place(nl, lib, opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_netlist::GateKind;

    fn chain_netlist(n: usize) -> Netlist {
        let mut nl = Netlist::new("chain");
        let mut prev = nl.add_input("a");
        for i in 0..n {
            let next = nl.add_net(format!("w{i}"));
            nl.add_gate(
                format!("g{i}"),
                "BUF",
                GateKind::Comb,
                vec![prev],
                vec![next],
            );
            prev = next;
        }
        nl.mark_output(prev);
        nl
    }

    fn cell_width(nl: &Netlist, lib: &Library, g: GateId) -> u32 {
        lib.by_name(&nl.gate(g).cell).unwrap().physical().width_tracks
    }

    #[test]
    fn all_cells_inside_die() {
        let nl = chain_netlist(40);
        let lib = Library::lib180();
        let d = place(&nl, &lib, &PlaceOptions::default()).unwrap();
        for gid in nl.gate_ids() {
            let c = d.cells[gid.index()];
            let w = cell_width(&nl, &lib, gid) as i32;
            assert!(c.x >= 0 && c.x + w <= d.width, "cell {gid} out of die");
            assert!((c.row as i32) * d.row_height < d.height);
        }
    }

    #[test]
    fn no_overlaps_within_rows() {
        let nl = chain_netlist(60);
        let lib = Library::lib180();
        let d = place(&nl, &lib, &PlaceOptions::default()).unwrap();
        // Group by row, sort by x, check non-overlap.
        let mut per_row: std::collections::HashMap<u32, Vec<(i32, i32)>> = Default::default();
        for gid in nl.gate_ids() {
            let c = d.cells[gid.index()];
            let w = cell_width(&nl, &lib, gid) as i32;
            per_row.entry(c.row).or_default().push((c.x, c.x + w));
        }
        for (_, mut spans) in per_row {
            spans.sort();
            for pair in spans.windows(2) {
                assert!(pair[0].1 <= pair[1].0, "overlap {pair:?}");
            }
        }
    }

    #[test]
    fn annealing_does_not_increase_wirelength() {
        let nl = chain_netlist(50);
        let lib = Library::lib180();
        let no_anneal = place(
            &nl,
            &lib,
            &PlaceOptions {
                anneal_moves_per_gate: 0,
                ..Default::default()
            },
        )
        .unwrap();
        let annealed = place(&nl, &lib, &PlaceOptions::default()).unwrap();
        assert!(
            annealed.total_hpwl(&nl, &lib) <= no_anneal.total_hpwl(&nl, &lib),
            "annealing made placement worse"
        );
    }

    #[test]
    fn best_of_restarts_is_the_minimum_over_restart_seeds() {
        let nl = chain_netlist(50);
        let lib = Library::lib180();
        let opts = PlaceOptions {
            anneal_moves_per_gate: 40,
            ..Default::default()
        };
        let runs: Vec<PlacedDesign> = (0..4)
            .map(|r| {
                let seed = secflow_rand::split_seed(opts.seed, r);
                place(
                    &nl,
                    &lib,
                    &PlaceOptions {
                        seed,
                        ..opts.clone()
                    },
                )
                .unwrap()
            })
            .collect();
        let hpwl: Vec<i64> = runs.iter().map(|d| d.total_hpwl(&nl, &lib)).collect();
        let min = *hpwl.iter().min().unwrap();
        // `position` finds the lowest restart index, which wins ties.
        let winner = hpwl.iter().position(|&h| h == min).unwrap();
        let best = place_best_of(&nl, &lib, &opts, 4).unwrap();
        assert_eq!(best.total_hpwl(&nl, &lib), min);
        assert_eq!(best.cells, runs[winner].cells);
        // The winner does not depend on the thread count.
        let best3 = secflow_exec::with_threads(3, || place_best_of(&nl, &lib, &opts, 4)).unwrap();
        assert_eq!(best.cells, best3.cells);
        // restarts <= 1 is exactly place().
        let single = place(&nl, &lib, &opts).unwrap();
        let one = place_best_of(&nl, &lib, &opts, 1).unwrap();
        assert_eq!(one.cells, single.cells);
    }

    #[test]
    fn placement_is_deterministic() {
        let nl = chain_netlist(30);
        let lib = Library::lib180();
        let a = place(&nl, &lib, &PlaceOptions::default()).unwrap();
        let b = place(&nl, &lib, &PlaceOptions::default()).unwrap();
        assert_eq!(a.cells, b.cells);
    }

    #[test]
    fn pitch_is_recorded() {
        let nl = chain_netlist(5);
        let lib = Library::lib180();
        let d = place(
            &nl,
            &lib,
            &PlaceOptions {
                pitch: GridPitch::Fat,
                anneal_moves_per_gate: 0,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(d.pitch, GridPitch::Fat);
    }

    #[test]
    fn unknown_cell_is_typed_error() {
        let lib = Library::lib180();
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        nl.add_gate("u1", "NO_SUCH_CELL", GateKind::Comb, vec![a], vec![y]);
        nl.mark_output(y);
        let err = place(&nl, &lib, &PlaceOptions::default()).unwrap_err();
        assert_eq!(
            err,
            PlaceError::UnknownCell {
                gate: "u1".into(),
                cell: "NO_SUCH_CELL".into()
            }
        );
        let err = place_best_of(&nl, &lib, &PlaceOptions::default(), 3).unwrap_err();
        assert!(matches!(err, PlaceError::UnknownCell { .. }));
    }

    #[test]
    fn degenerate_options_are_typed_errors() {
        let nl = chain_netlist(3);
        let lib = Library::lib180();
        let err = place(
            &nl,
            &lib,
            &PlaceOptions {
                fill_factor: 0.0,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, PlaceError::InvalidOptions { .. }));
        let err = place(
            &nl,
            &lib,
            &PlaceOptions {
                aspect_ratio: -1.0,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, PlaceError::InvalidOptions { .. }));
    }

    /// The cells of a placement overlap nowhere and all lie on the die.
    fn assert_legal(nl: &Netlist, lib: &Library, d: &PlacedDesign) {
        let mut per_row = vec![Vec::new(); (d.height / d.row_height) as usize];
        for gid in nl.gate_ids() {
            let c = d.cells[gid.index()];
            let w = cell_width(nl, lib, gid) as i32;
            assert!(
                c.x >= 0 && c.x + w <= d.width,
                "cell {gid} off the die: {c:?}"
            );
            assert!((c.row as usize) < per_row.len(), "cell {gid} above the die");
            per_row[c.row as usize].push((c.x, c.x + w));
        }
        for spans in &mut per_row {
            spans.sort();
            for pair in spans.windows(2) {
                assert!(pair[0].1 <= pair[1].0, "overlap {pair:?}");
            }
        }
    }

    /// A random small combinational netlist. Few gates against many
    /// pads give mostly empty rows (relocations into empty rows); few
    /// pads give one or two rows (relocations within a row).
    fn random_netlist(g: &mut secflow_testkit::Gen) -> Netlist {
        const CELLS: [(&str, usize); 6] = [
            ("INV", 1),
            ("BUF", 1),
            ("NAND2", 2),
            ("XOR2", 2),
            ("AOI21", 3),
            ("AND4", 4),
        ];
        let mut nl = Netlist::new("random");
        let n_inputs = g.len_in(1..24);
        let mut nets: Vec<NetId> = (0..n_inputs)
            .map(|i| nl.add_input(format!("i{i}")))
            .collect();
        for k in 0..g.len_in(2..40) {
            let &(cell, arity) = g.choose(&CELLS);
            let inputs: Vec<NetId> = (0..arity).map(|_| *g.choose(&nets)).collect();
            let y = nl.add_net(format!("n{k}"));
            nl.add_gate(format!("g{k}"), cell, GateKind::Comb, inputs, vec![y]);
            nets.push(y);
        }
        for _ in 0..g.len_in(1..12) {
            // Repeats are allowed: a net may own several output pads.
            let y = *g.choose(&nets[n_inputs..]);
            nl.mark_output(y);
        }
        nl
    }

    /// The incremental annealer's running total is the from-scratch
    /// HPWL of the placement it returns, the placement is legal, and
    /// restarts pick the same winner at any thread count.
    #[test]
    fn prop_incremental_annealer_matches_full_recompute() {
        let lib = Library::lib180();
        secflow_testkit::prop_check!(cases: 64, seed: 0xA22E_A1E5, |g| {
            let nl = random_netlist(g);
            let opts = PlaceOptions {
                fill_factor: *g.choose(&[0.4, 0.6, 0.8]),
                aspect_ratio: *g.choose(&[0.25, 1.0, 4.0]),
                anneal_moves_per_gate: g.len_in(1..80),
                seed: g.random(),
                ..Default::default()
            };
            let (design, total) = place_scored(&nl, &lib, &opts).unwrap();
            assert_eq!(total, Some(design.total_hpwl(&nl, &lib)));
            assert_legal(&nl, &lib, &design);
            let one = secflow_exec::with_threads(1, || place_best_of(&nl, &lib, &opts, 3)).unwrap();
            let three =
                secflow_exec::with_threads(3, || place_best_of(&nl, &lib, &opts, 3)).unwrap();
            assert_eq!(one.cells, three.cells);
        });
    }
}
