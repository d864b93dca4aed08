//! Bit-sliced oblivious simulation backend: 64 stimuli per `u64` lane.
//!
//! Campaign workloads simulate the *same* compiled netlist thousands
//! of times with different stimuli — exactly the shape bit-parallel
//! simulation exploits. [`BitSim`] packs 64 independent campaign
//! windows into the bit lanes of `u64` words and evaluates gates
//! obliviously: every gate evaluation computes all 64 lanes at once
//! with branch-free boolean word operations (the cell's cube-word
//! program, [`secflow_cells::push_cube_words`]), and the per-lane
//! supply traces are reconstructed from lane masks so the result is
//! **byte-identical** (`f64::to_bits`) to running [`CompiledSim`]'s
//! event kernel once per lane.
//!
//! # Why a lane-masked *event* engine
//!
//! A pure zero-delay topological sweep cannot reproduce the event
//! kernel's traces: single-ended CMOS glitches, rise times are
//! data-dependent, and crosstalk depends on transition simultaneity.
//! `BitSim` therefore runs the *same* timing-wheel event loop as
//! [`crate::compiled`], but each event carries a lane `mask`: the set
//! of lanes in which this net changes to the event's per-lane values
//! at this time. WDDL's always-evaluate property (every gate fires
//! every cycle, Tiri & Verbauwhede '04) makes the lanes track each
//! other closely, so one masked event typically stands in for many
//! scalar events — the source of the speedup.
//!
//! # Exactness argument
//!
//! Project any masked execution onto a single lane `l`: injections are
//! issued in the same order as the scalar driver; a masked event's
//! creation position is shared by every lane in its mask; buckets
//! drain in creation (FIFO) order, which equals the scalar engine's
//! `(time, order)` order; and a gate evaluation acts on exactly the
//! lanes whose inputs just changed (for quiescent lanes the evaluated
//! value equals the effective value, so the act mask excludes them
//! automatically). By induction over event positions, lane `l` sees
//! precisely the scalar engine's event sequence, so its per-lane `f64`
//! accumulations (energy, trace bins) run in the scalar order and
//! produce the scalar bits. Lanes outside every injection mask (dead
//! lanes of a ragged batch) never flip a net and contribute nothing.
//! `tests/bitslice_cross_check.rs` pins this contract.

use secflow_cells::{eval_cube_words, push_cube_words, CubeWord, Library};
use secflow_netlist::{GateId, NetId, Netlist};

use crate::compiled::{CellKind, CompiledSim};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::load::LoadModel;

/// Which simulation kernel a campaign uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimBackend {
    /// The compiled event-driven kernel, one window at a time
    /// ([`CompiledSim`]). The golden reference.
    #[default]
    Event,
    /// The bit-sliced oblivious kernel, 64 windows per batch
    /// ([`BitSim`]); byte-identical to `Event` per lane.
    Bitslice,
}

impl SimBackend {
    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            SimBackend::Event => "event",
            SimBackend::Bitslice => "bitslice",
        }
    }
}

impl std::fmt::Display for SimBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SimBackend {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "event" => Ok(SimBackend::Event),
            "bitslice" => Ok(SimBackend::Bitslice),
            other => Err(format!(
                "unknown sim backend `{other}` (expected `event` or `bitslice`)"
            )),
        }
    }
}

/// One lane-masked event: net `net` changes to the per-lane values in
/// `vals` for every lane set in `mask`. `gate == u32::MAX` marks a
/// driver injection; otherwise the scheduling gate, whose pending
/// bookkeeping the event clears when it fires. Cancellation edits
/// `mask` in place through the event pool.
#[derive(Debug, Clone, Copy)]
struct BitEvent {
    net: u32,
    gate: u32,
    mask: u64,
    vals: u64,
}

const INJECT: u32 = u32::MAX;

/// A build-once bit-sliced compilation: the shared [`CompiledSim`]
/// tables plus the per-gate sum-of-products word programs and the
/// per-net deposit geometry the masked engine needs.
#[derive(Debug, Clone)]
pub struct BitSim {
    comp: CompiledSim,
    /// CSR offsets into `cubes`, `n_gates + 1` entries.
    cube_offsets: Vec<u32>,
    /// Per-gate cube-word programs over the gate's input pins.
    cubes: Vec<CubeWord>,
    /// Per-net rising charge before crosstalk: `c_eff · Vdd` (fC).
    q_base: Vec<f64>,
    /// Per-net deposit bin count (`ceil(max(2RC, sample) / sample)`).
    nbins: Vec<u32>,
    /// `nbins as f64`, the exact divisor the scalar engine uses.
    nbins_f: Vec<f64>,
    /// Any coupling exists: per-lane last-transition tracking is
    /// required for exact crosstalk.
    track_lt: bool,
}

impl BitSim {
    /// Compiles `nl` for bit-sliced simulation. Accepts exactly the
    /// inputs of [`CompiledSim::build`] and fails with the same typed
    /// errors, so backend selection never changes error behaviour.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownCell`] / [`SimError::CombinationalCycle`] as
    /// the event kernel; [`SimError::UnsupportedConfig`] if
    /// `cfg.record_waveform` is set (per-lane waveforms are not
    /// reconstructed — use the event backend to dump VCDs).
    pub fn build(
        nl: &Netlist,
        lib: &Library,
        load: &LoadModel,
        cfg: &SimConfig,
    ) -> Result<BitSim, SimError> {
        cfg.validate_backend(SimBackend::Bitslice)?;
        let comp = CompiledSim::build(nl, lib, load, cfg)?;

        let mut cube_offsets = Vec::with_capacity(comp.n_gates + 1);
        let mut cubes: Vec<CubeWord> = Vec::new();
        cube_offsets.push(0u32);
        for g in 0..comp.n_gates {
            if let CellKind::Comb { tt, .. } = comp.cells[g] {
                push_cube_words(&tt, &mut cubes);
            }
            cube_offsets.push(cubes.len() as u32);
        }

        let vdd = comp.cfg.vdd;
        let sample_ps = comp.sample_ps;
        let mut q_base = Vec::with_capacity(comp.n_nets);
        let mut nbins = Vec::with_capacity(comp.n_nets);
        let mut nbins_f = Vec::with_capacity(comp.n_nets);
        for i in 0..comp.n_nets {
            q_base.push(comp.c_eff_ff[i] * vdd);
            let tau_ps = (2.0 * comp.drive_kohm[i] * comp.c_eff_ff[i]).max(sample_ps);
            let n = (tau_ps / sample_ps).ceil().max(1.0) as usize;
            nbins.push(n as u32);
            nbins_f.push(n as f64);
        }
        let track_lt = !comp.coup.is_empty();

        Ok(BitSim {
            comp,
            cube_offsets,
            cubes,
            q_base,
            nbins,
            nbins_f,
            track_lt,
        })
    }

    /// The compiled configuration.
    pub fn config(&self) -> &SimConfig {
        self.comp.config()
    }

    /// Number of primary inputs (one packed word per input per cycle).
    pub fn n_inputs(&self) -> usize {
        self.comp.inputs.len()
    }

    /// Simulates up to 64 single-ended windows at once. `vectors` is
    /// one packed word per primary input per cycle (bit `l` of word
    /// `k` is lane `l`'s value of input `k`); `active` masks the live
    /// lanes — dead lanes receive no injections and contribute
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if any cycle's word count differs from the input count.
    pub fn run_single_ended(&self, scratch: &mut BitScratch, vectors: &[Vec<u64>], active: u64) {
        let mut e = MaskedEngine::new(self, scratch, vectors.len());
        e.drive_single_ended(vectors, active);
    }

    /// Simulates up to 64 WDDL two-phase windows at once; `vectors` is
    /// one packed word per input *pair* per cycle.
    ///
    /// # Panics
    ///
    /// Panics if any cycle's word count differs from the pair count.
    pub fn run_wddl(
        &self,
        scratch: &mut BitScratch,
        input_pairs: &[(NetId, NetId)],
        vectors: &[Vec<u64>],
        active: u64,
    ) {
        let mut e = MaskedEngine::new(self, scratch, vectors.len());
        e.drive_wddl(input_pairs, vectors, active);
    }

    /// Simulates up to 64 windows under the idealized glitch-free
    /// power model (pure zero-delay topological sweep — here the
    /// bitslice is trivial because the model is already oblivious).
    ///
    /// # Panics
    ///
    /// Panics if any cycle's word count differs from the input count.
    pub fn run_single_ended_glitch_free(
        &self,
        scratch: &mut BitScratch,
        vectors: &[Vec<u64>],
        _active: u64,
    ) {
        let comp = &self.comp;
        scratch.reset(comp, vectors.len());
        let spc = comp.cfg.samples_per_cycle;
        let vdd = comp.cfg.vdd;
        let bins = (spc / 4).max(1);
        let bins_f = bins as f64;

        // Consistent initial state: all sources 0, evaluated once.
        scratch.prev_vals.iter_mut().for_each(|v| *v = 0);
        self.eval_comb_words(&mut scratch.prev_vals);

        for (c, words) in vectors.iter().enumerate() {
            assert_eq!(words.len(), comp.inputs.len(), "bad vector length");
            scratch.vals.iter_mut().for_each(|v| *v = 0);
            for (&net, &w) in comp.inputs.iter().zip(words) {
                scratch.vals[net.index()] = w;
            }
            for (&(_, q), &w) in comp.se_regs.iter().zip(&scratch.reg_state) {
                scratch.vals[q.index()] = w;
            }
            self.eval_comb_words(&mut scratch.vals);

            // Ascending net order per lane — the scalar model's exact
            // f64 accumulation order.
            let mut energy = [0.0f64; 64];
            let mut rises = [0u64; 64];
            for i in 0..comp.n_nets {
                if comp.exempt[i] {
                    continue;
                }
                let mut m = scratch.vals[i] & !scratch.prev_vals[i];
                if m == 0 {
                    continue;
                }
                let e_net = comp.c_eff_ff[i] * vdd * vdd;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    energy[l] += e_net;
                    rises[l] += 1;
                    m &= m - 1;
                }
            }
            for (l, &e) in energy.iter().enumerate() {
                if e != 0.0 {
                    let d = e / vdd / bins_f;
                    for b in 0..bins {
                        scratch.trace[(c * spc + b) * 64 + l] += d;
                    }
                }
                scratch.cycle_energy[c * 64 + l] = e;
                scratch.cycle_rises[c * 64 + l] = rises[l];
            }
            for (i, &(d, _)) in comp.se_regs.iter().enumerate() {
                scratch.reg_state[i] = scratch.vals[d.index()];
            }
            for &o in &comp.outputs {
                scratch.outputs.push(scratch.vals[o.index()]);
            }
            std::mem::swap(&mut scratch.vals, &mut scratch.prev_vals);
        }
    }

    /// Zero-delay word evaluation of the combinational portion in
    /// cached topological order.
    fn eval_comb_words(&self, vals: &mut [u64]) {
        for &gid in &self.comp.topo {
            match self.comp.cells[gid.index()] {
                CellKind::Comb { .. } => {
                    let v = self.eval_gate_word(gid.index(), vals);
                    vals[self.comp.out_net[gid.index()].index()] = v;
                }
                CellKind::Tie(v) => {
                    vals[self.comp.out_net[gid.index()].index()] = if v { !0 } else { 0 };
                }
                CellKind::Dff | CellKind::WddlDff => {}
            }
        }
    }

    /// All 64 lanes of one gate's output, from its cube program.
    #[inline]
    fn eval_gate_word(&self, g: usize, vals: &[u64]) -> u64 {
        let lo = self.comp.in_offsets[g] as usize;
        let hi = self.comp.in_offsets[g + 1] as usize;
        let mut ins = [0u64; 8];
        for (i, &inp) in self.comp.in_nets[lo..hi].iter().enumerate() {
            ins[i] = vals[inp.index()];
        }
        let clo = self.cube_offsets[g] as usize;
        let chi = self.cube_offsets[g + 1] as usize;
        eval_cube_words(&self.cubes[clo..chi], &ins)
    }
}

/// The reusable mutable half of the bit-sliced kernel: one per worker
/// thread, reset per batch, allocation-free in steady state. Per-lane
/// results are read back through the lane accessors.
#[derive(Debug, Default)]
pub struct BitScratch {
    // --- masked event-engine state ---
    /// Current lane values per net.
    vals: Vec<u64>,
    /// Per-gate: lanes with a pending output event.
    pend_mask: Vec<u64>,
    /// Per-gate: the pending value per lane (valid under `pend_mask`).
    pend_val: Vec<u64>,
    /// Per-gate: pool indices of live pending events (disjoint masks).
    pend_events: Vec<Vec<u32>>,
    /// Event pool of the current window; wheel buckets hold indices so
    /// cancellation can edit masks in place.
    pool: Vec<BitEvent>,
    wheel: Vec<Vec<u32>>,
    occupancy: Vec<u64>,
    wheel_mask: u64,
    cursor: u64,
    horizon: u64,
    // --- per-lane last transitions (allocated only under crosstalk) ---
    /// `n_nets × 64` transition times.
    lt_time: Vec<u64>,
    /// Per net: lanes with a recorded transition.
    lt_present: Vec<u64>,
    /// Per net: last transition value per lane.
    lt_val: Vec<u64>,
    // --- per-lane accumulators ---
    /// Running cycle energy (fJ) per lane.
    energy_fj: Vec<f64>,
    /// Running cycle rise count per lane.
    rises: Vec<u64>,
    /// Supply trace, transposed: `[(cycle·spc + bin)·64 + lane]`.
    trace: Vec<f64>,
    /// `[cycle·64 + lane]` energies.
    cycle_energy: Vec<f64>,
    /// `[cycle·64 + lane]` rise counts.
    cycle_rises: Vec<u64>,
    /// Primary-output lane words, `n_cycles × n_outputs`, flattened.
    outputs: Vec<u64>,
    /// `[cycle·64 + lane]` WDDL DFA alarm counts.
    wddl_alarms: Vec<u32>,
    // --- cycle-driver state ---
    reg_state: Vec<u64>,
    reg_t: Vec<u64>,
    reg_f: Vec<u64>,
    /// Previous-cycle values (glitch-free model only).
    prev_vals: Vec<u64>,
    // --- geometry of the last run ---
    samples_per_cycle: usize,
    n_outputs: usize,
    n_cycles: usize,
    // --- batch work counters (plain u64, read once per batch) ---
    events_processed: u64,
    gate_evals: u64,
    wheel_pending: u64,
    wheel_peak: u64,
}

impl BitScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, comp: &CompiledSim, n_cycles: usize) {
        let spc = comp.cfg.samples_per_cycle;
        self.vals.clear();
        self.vals.resize(comp.n_nets, 0);
        self.pend_mask.clear();
        self.pend_mask.resize(comp.n_gates, 0);
        self.pend_val.clear();
        self.pend_val.resize(comp.n_gates, 0);
        if self.pend_events.len() != comp.n_gates {
            self.pend_events.clear();
            self.pend_events.resize_with(comp.n_gates, Vec::new);
        } else {
            for v in &mut self.pend_events {
                v.clear();
            }
        }
        self.pool.clear();
        let w = comp.wheel_size as usize;
        if self.wheel.len() != w {
            self.wheel.clear();
            self.wheel.resize_with(w, Vec::new);
            self.occupancy.clear();
            self.occupancy.resize(w / 64, 0);
        } else {
            for (wi, word) in self.occupancy.iter_mut().enumerate() {
                let mut m = *word;
                while m != 0 {
                    self.wheel[wi * 64 + m.trailing_zeros() as usize].clear();
                    m &= m - 1;
                }
                *word = 0;
            }
        }
        self.wheel_mask = comp.wheel_size - 1;
        self.cursor = 0;
        self.horizon = n_cycles as u64 * comp.cfg.period_ps;
        let lt = if comp.coup.is_empty() { 0 } else { comp.n_nets };
        self.lt_time.clear();
        self.lt_time.resize(lt * 64, 0);
        self.lt_present.clear();
        self.lt_present.resize(lt, 0);
        self.lt_val.clear();
        self.lt_val.resize(lt, 0);
        self.energy_fj.clear();
        self.energy_fj.resize(64, 0.0);
        self.rises.clear();
        self.rises.resize(64, 0);
        self.trace.clear();
        self.trace.resize(n_cycles * spc * 64, 0.0);
        self.cycle_energy.clear();
        self.cycle_energy.resize(n_cycles * 64, 0.0);
        self.cycle_rises.clear();
        self.cycle_rises.resize(n_cycles * 64, 0);
        self.outputs.clear();
        self.wddl_alarms.clear();
        self.wddl_alarms.resize(n_cycles * 64, 0);
        self.reg_state.clear();
        self.reg_state.resize(comp.se_regs.len(), 0);
        // Logical 0 as a valid WDDL code word: (t, f) = (0, 1).
        self.reg_t.clear();
        self.reg_t.resize(comp.wddl_regs.len(), 0);
        self.reg_f.clear();
        self.reg_f.resize(comp.wddl_regs.len(), !0);
        self.prev_vals.clear();
        self.prev_vals.resize(comp.n_nets, 0);
        self.samples_per_cycle = spc;
        self.n_outputs = comp.outputs.len();
        self.n_cycles = n_cycles;
        self.events_processed = 0;
        self.gate_evals = 0;
        self.wheel_pending = 0;
        self.wheel_peak = 0;
    }

    /// One lane's samples of one cycle of the last batch.
    pub fn cycle_trace(&self, cycle: usize, lane: usize) -> Vec<f64> {
        let spc = self.samples_per_cycle;
        (0..spc)
            .map(|b| self.trace[(cycle * spc + b) * 64 + lane])
            .collect()
    }

    /// One lane's full trace over the last batch's window.
    pub fn lane_trace(&self, lane: usize) -> Vec<f64> {
        (0..self.n_cycles * self.samples_per_cycle)
            .map(|b| self.trace[b * 64 + lane])
            .collect()
    }

    /// One lane's supply energy of one cycle, in fJ.
    pub fn cycle_energy_fj(&self, cycle: usize, lane: usize) -> f64 {
        self.cycle_energy[cycle * 64 + lane]
    }

    /// One lane's rising-transition count of one cycle.
    pub fn cycle_rises(&self, cycle: usize, lane: usize) -> u64 {
        self.cycle_rises[cycle * 64 + lane]
    }

    /// Rising transitions summed over every cycle and lane of the last
    /// batch — a deterministic function of (design, batch stimuli).
    pub fn total_rises(&self) -> u64 {
        self.cycle_rises.iter().sum()
    }

    /// Primary-output value `j` of `lane` at the end of `cycle`.
    pub fn output_bit(&self, cycle: usize, j: usize, lane: usize) -> bool {
        self.outputs[cycle * self.n_outputs + j] >> lane & 1 == 1
    }

    /// One lane's WDDL DFA alarm count in `cycle`.
    pub fn wddl_alarm_count(&self, cycle: usize, lane: usize) -> u32 {
        self.wddl_alarms[cycle * 64 + lane]
    }

    /// Masked events drained in the last batch.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Masked gate evaluations in the last batch.
    pub fn gate_evals(&self) -> u64 {
        self.gate_evals
    }

    /// Peak simultaneous pending masked events on the timing wheel.
    pub fn wheel_peak(&self) -> u64 {
        self.wheel_peak
    }
}

/// The masked event loop: a thin mutable view pairing one [`BitSim`]
/// with one [`BitScratch`] for one batch window.
struct MaskedEngine<'a> {
    sim: &'a BitSim,
    s: &'a mut BitScratch,
}

impl<'a> MaskedEngine<'a> {
    fn new(sim: &'a BitSim, scratch: &'a mut BitScratch, n_cycles: usize) -> Self {
        scratch.reset(&sim.comp, n_cycles);
        MaskedEngine { sim, s: scratch }
    }

    /// Establishes a consistent initial state in every lane by
    /// zero-delay evaluation, without recording any power.
    fn settle_initial(&mut self) {
        let mut vals = std::mem::take(&mut self.s.vals);
        self.sim.eval_comb_words(&mut vals);
        self.s.vals = vals;
    }

    #[inline]
    fn push_event(&mut self, time: u64, ev: BitEvent) {
        if time >= self.s.horizon {
            return;
        }
        debug_assert!(
            time >= self.s.cursor && time - self.s.cursor <= self.s.wheel_mask,
            "event outside the wheel span"
        );
        let idx = self.s.pool.len() as u32;
        self.s.pool.push(ev);
        let slot = (time & self.s.wheel_mask) as usize;
        self.s.wheel[slot].push(idx);
        self.s.occupancy[slot >> 6] |= 1 << (slot & 63);
        self.s.wheel_pending += 1;
        if self.s.wheel_pending > self.s.wheel_peak {
            self.s.wheel_peak = self.s.wheel_pending;
        }
        if ev.gate != INJECT {
            self.s.pend_events[ev.gate as usize].push(idx);
        }
    }

    /// Injects an externally driven change of `net` at `time`:
    /// per-lane values `vals`, restricted to the `mask` lanes.
    fn inject(&mut self, net: NetId, time: u64, vals: u64, mask: u64) {
        self.push_event(
            time,
            BitEvent {
                net: net.index() as u32,
                gate: INJECT,
                mask,
                vals,
            },
        );
    }

    /// Processes all events strictly before `t_end`, in creation
    /// (FIFO) order per bucket — the scalar `(time, order)` order.
    fn run_until(&mut self, t_end: u64) {
        let mask = self.s.wheel_mask;
        let mut t = self.s.cursor;
        'scan: while t < t_end {
            let p = (t & mask) as usize;
            let mut word = self.s.occupancy[p >> 6] >> (p & 63);
            if word == 0 {
                t += 64 - (t & 63);
                loop {
                    if t >= t_end {
                        break 'scan;
                    }
                    let q = (t & mask) as usize;
                    word = self.s.occupancy[q >> 6];
                    if word != 0 {
                        break;
                    }
                    t += 64;
                }
            }
            t += word.trailing_zeros() as u64;
            if t >= t_end {
                break;
            }
            let slot = (t & mask) as usize;
            self.s.occupancy[slot >> 6] &= !(1u64 << (slot & 63));
            let bucket = std::mem::take(&mut self.s.wheel[slot]);
            self.s.events_processed += bucket.len() as u64;
            self.s.wheel_pending -= bucket.len() as u64;
            for &idx in &bucket {
                // Read at process time: earlier events in this bucket
                // may have cancelled lanes of this one.
                let ev = self.s.pool[idx as usize];
                self.process_event(t, idx, ev);
            }
            let mut bucket = bucket;
            bucket.clear();
            self.s.wheel[slot] = bucket;
            t += 1;
        }
        self.s.cursor = t_end;
    }

    fn process_event(&mut self, t: u64, idx: u32, ev: BitEvent) {
        if ev.gate != INJECT {
            let g = ev.gate as usize;
            // Eager cancellation already removed stale lanes from the
            // mask, so every remaining lane fires; clear its pending
            // bookkeeping exactly as the scalar engine does.
            self.s.pend_mask[g] &= !ev.mask;
            let list = &mut self.s.pend_events[g];
            if let Some(p) = list.iter().position(|&x| x == idx) {
                list.swap_remove(p);
            }
        }
        if ev.mask == 0 {
            return; // fully cancelled
        }
        let net = ev.net as usize;
        if self.sim.track_lt {
            // Every fired lane records a last transition, flip or not
            // (the scalar engine updates it on the no-change path too).
            let base = net * 64;
            let mut m = ev.mask;
            while m != 0 {
                self.s.lt_time[base + m.trailing_zeros() as usize] = t;
                m &= m - 1;
            }
            self.s.lt_present[net] |= ev.mask;
            self.s.lt_val[net] = (self.s.lt_val[net] & !ev.mask) | (ev.vals & ev.mask);
        }
        let cur = self.s.vals[net];
        let flip = ev.mask & (cur ^ ev.vals);
        if flip == 0 {
            return;
        }
        self.s.vals[net] = (cur & !flip) | (ev.vals & flip);
        if !self.sim.comp.exempt[net] {
            let rises = flip & ev.vals;
            if rises != 0 {
                self.record_rise(net, t, rises);
            }
        }
        for &g in self.sim.comp.fanout.fanout(ev_net(net)) {
            self.evaluate_gate(g, t);
        }
    }

    fn evaluate_gate(&mut self, gid: GateId, now: u64) {
        let g = gid.index();
        let CellKind::Comb { delay_ps, .. } = self.sim.comp.cells[g] else {
            return; // registers are driven by the cycle driver
        };
        self.s.gate_evals += 1;
        let out = self.sim.comp.out_net[g].index();
        let v = self.sim.eval_gate_word(g, &self.s.vals);
        let pm = self.s.pend_mask[g];
        // Per lane: the pending value if one exists, else the output.
        let eff = (self.s.pend_val[g] & pm) | (self.s.vals[out] & !pm);
        // Quiescent lanes satisfy v == eff, so `act` is automatically
        // confined to lanes whose inputs just changed.
        let act = v ^ eff;
        if act == 0 {
            return;
        }
        // Cancel pending opposite events (inertial filtering).
        let cancel = act & pm;
        if cancel != 0 {
            self.s.pend_mask[g] &= !cancel;
            let BitScratch {
                pend_events, pool, ..
            } = &mut *self.s;
            pend_events[g].retain(|&idx| {
                let e = &mut pool[idx as usize];
                e.mask &= !cancel;
                e.mask != 0
            });
        }
        // Schedule lanes whose target differs from the current output.
        let sched = act & (v ^ self.s.vals[out]);
        if sched != 0 {
            self.s.pend_mask[g] |= sched;
            self.s.pend_val[g] = (self.s.pend_val[g] & !sched) | (v & sched);
            // The pending flag stays set even when the event falls
            // past the horizon — mirroring the scalar engine.
            self.push_event(
                now + delay_ps,
                BitEvent {
                    net: out as u32,
                    gate: g as u32,
                    mask: sched,
                    vals: v,
                },
            );
        }
    }

    /// Records the supply charge of rising transitions on `net` in
    /// every lane of `rises`, in ascending lane order (each lane's
    /// accumulators are private, so any order gives its scalar bits).
    fn record_rise(&mut self, net: usize, t: u64, rises: u64) {
        let sim = self.sim;
        let comp = &sim.comp;
        let vdd = comp.cfg.vdd;
        let first = (t as f64 / comp.sample_ps) as usize;
        let total_bins = self.s.n_cycles * self.s.samples_per_cycle;
        let last = (first + sim.nbins[net] as usize).min(total_bins);
        let coups = comp.couplings(ev_net(net));
        if coups.is_empty() || !sim.track_lt {
            let q = sim.q_base[net].max(0.0);
            let e = q * vdd;
            let per_bin = q / sim.nbins_f[net];
            let mut m = rises;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                self.s.energy_fj[l] += e;
                self.s.rises[l] += 1;
                for b in first..last {
                    self.s.trace[b * 64 + l] += per_bin;
                }
                m &= m - 1;
            }
        } else {
            let win = comp.cfg.crosstalk_window_ps;
            let mut m = rises;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                let mut q = sim.q_base[net];
                for &(other, cc) in coups {
                    let o = other.index();
                    if self.s.lt_present[o] >> l & 1 == 1
                        && t.saturating_sub(self.s.lt_time[o * 64 + l]) <= win
                    {
                        if self.s.lt_val[o] >> l & 1 == 1 {
                            // Both rising: the coupling cap sees no swing.
                            q -= cc * vdd;
                        } else {
                            // Opposite transitions: Miller doubling.
                            q += cc * vdd;
                        }
                    }
                }
                let q = q.max(0.0);
                self.s.energy_fj[l] += q * vdd;
                self.s.rises[l] += 1;
                let per_bin = q / sim.nbins_f[net];
                for b in first..last {
                    self.s.trace[b * 64 + l] += per_bin;
                }
                m &= m - 1;
            }
        }
    }

    /// Moves the running per-lane energies and rise counts into the
    /// per-cycle result arrays and resets them.
    fn take_energy(&mut self, cycle: usize) {
        for l in 0..64 {
            self.s.cycle_energy[cycle * 64 + l] = self.s.energy_fj[l];
            self.s.energy_fj[l] = 0.0;
            self.s.cycle_rises[cycle * 64 + l] = self.s.rises[l];
            self.s.rises[l] = 0;
        }
    }

    fn capture_outputs(&mut self) {
        for i in 0..self.sim.comp.outputs.len() {
            let o = self.sim.comp.outputs[i];
            self.s.outputs.push(self.s.vals[o.index()]);
        }
    }

    fn drive_single_ended(&mut self, vectors: &[Vec<u64>], active: u64) {
        let comp = &self.sim.comp;
        let (period, clk2q, in_delay) =
            (comp.cfg.period_ps, comp.cfg.clk2q_ps, comp.cfg.input_delay_ps);
        let (n_regs, n_inputs) = (comp.se_regs.len(), comp.inputs.len());
        self.settle_initial();
        for (c, words) in vectors.iter().enumerate() {
            assert_eq!(words.len(), n_inputs, "bad vector length");
            let t0 = c as u64 * period;
            for i in 0..n_regs {
                let (_, q) = self.sim.comp.se_regs[i];
                let w = self.s.reg_state[i];
                self.inject(q, t0 + clk2q, w, active);
            }
            for (i, &w) in words.iter().enumerate() {
                self.inject(self.sim.comp.inputs[i], t0 + in_delay, w, active);
            }
            self.run_until(t0 + period);
            for i in 0..n_regs {
                let (d, _) = self.sim.comp.se_regs[i];
                self.s.reg_state[i] = self.s.vals[d.index()];
            }
            self.take_energy(c);
            self.capture_outputs();
        }
    }

    fn drive_wddl(&mut self, input_pairs: &[(NetId, NetId)], vectors: &[Vec<u64>], active: u64) {
        let comp = &self.sim.comp;
        let (period, clk2q, in_delay) =
            (comp.cfg.period_ps, comp.cfg.clk2q_ps, comp.cfg.input_delay_ps);
        let eval_start = comp.cfg.eval_start_ps();
        let n_regs = comp.wddl_regs.len();
        self.settle_initial();
        for (c, words) in vectors.iter().enumerate() {
            assert_eq!(words.len(), input_pairs.len(), "bad vector length");
            let t0 = c as u64 * period;
            let te = t0 + eval_start;

            // Precharge phase: everything to (0, 0).
            for i in 0..n_regs {
                let (_, _, qt, qf) = self.sim.comp.wddl_regs[i];
                self.inject(qt, t0 + clk2q, 0, active);
                self.inject(qf, t0 + clk2q, 0, active);
            }
            for &(t, f) in input_pairs {
                self.inject(t, t0 + in_delay, 0, active);
                self.inject(f, t0 + in_delay, 0, active);
            }
            // Evaluation phase: stored values and differential inputs.
            for i in 0..n_regs {
                let (_, _, qt, qf) = self.sim.comp.wddl_regs[i];
                let (wt, wf) = (self.s.reg_t[i], self.s.reg_f[i]);
                self.inject(qt, te + clk2q, wt, active);
                self.inject(qf, te + clk2q, wf, active);
            }
            for (i, &w) in words.iter().enumerate() {
                let (t, f) = input_pairs[i];
                self.inject(t, te + in_delay, w, active);
                self.inject(f, te + in_delay, !w, active);
            }
            self.run_until(t0 + period);

            // Capture at the rising edge; (0,0) pairs are DFA alarms.
            for i in 0..n_regs {
                let (dt, df, _, _) = self.sim.comp.wddl_regs[i];
                let vt = self.s.vals[dt.index()];
                let vf = self.s.vals[df.index()];
                let mut z = !vt & !vf & active;
                while z != 0 {
                    let l = z.trailing_zeros() as usize;
                    self.s.wddl_alarms[c * 64 + l] += 1;
                    z &= z - 1;
                }
                self.s.reg_t[i] = vt;
                self.s.reg_f[i] = vf;
            }
            self.take_energy(c);
            self.capture_outputs();
        }
    }
}

/// `NetId` from a dense index (the engine stores raw `usize`s).
#[inline]
fn ev_net(net: usize) -> NetId {
    NetId(net as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::EngineScratch;
    use secflow_netlist::GateKind;

    fn fixture() -> (Netlist, Library, SimConfig) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let w = nl.add_net("w");
        let y = nl.add_net("y");
        nl.add_gate("g0", "AND2", GateKind::Comb, vec![a, b], vec![w]);
        nl.add_gate("g1", "INV", GateKind::Comb, vec![w], vec![y]);
        nl.mark_output(y);
        let cfg = SimConfig {
            samples_per_cycle: 40,
            ..Default::default()
        };
        (nl, Library::lib180(), cfg)
    }

    /// Packs per-lane boolean vectors into lane words.
    fn pack(cycles: &[Vec<Vec<bool>>]) -> (Vec<Vec<u64>>, u64) {
        let lanes = cycles.len();
        let n_cycles = cycles[0].len();
        let n_inputs = cycles[0][0].len();
        let mut packed = vec![vec![0u64; n_inputs]; n_cycles];
        for (l, win) in cycles.iter().enumerate() {
            for (c, v) in win.iter().enumerate() {
                for (k, &bit) in v.iter().enumerate() {
                    if bit {
                        packed[c][k] |= 1 << l;
                    }
                }
            }
        }
        (packed, if lanes == 64 { !0 } else { (1u64 << lanes) - 1 })
    }

    #[test]
    fn lanes_match_scalar_event_kernel_bit_for_bit() {
        let (nl, lib, cfg) = fixture();
        let load = LoadModel::try_build(&nl, &lib, None).unwrap();
        let comp = CompiledSim::build(&nl, &lib, &load, &cfg).unwrap();
        let sim = BitSim::build(&nl, &lib, &load, &cfg).unwrap();

        // 7 lanes (ragged), 3 cycles, all 4 input combinations cycled.
        let windows: Vec<Vec<Vec<bool>>> = (0..7u32)
            .map(|l| {
                (0..3u32)
                    .map(|c| vec![(l + c) & 1 == 1, (l + c) & 2 == 2])
                    .collect()
            })
            .collect();
        let (packed, active) = pack(&windows);
        let mut bs = BitScratch::new();
        sim.run_single_ended(&mut bs, &packed, active);

        let mut es = EngineScratch::new();
        for (l, win) in windows.iter().enumerate() {
            comp.run_single_ended(&mut es, win);
            let want: Vec<u64> = es.trace().iter().map(|x| x.to_bits()).collect();
            let got: Vec<u64> = bs.lane_trace(l).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "trace lane {l}");
            for c in 0..3 {
                assert_eq!(
                    bs.cycle_energy_fj(c, l).to_bits(),
                    es.cycle_energy_fj()[c].to_bits(),
                    "energy lane {l} cycle {c}"
                );
                assert_eq!(bs.cycle_rises(c, l), es.cycle_rises()[c], "rises lane {l}");
                assert_eq!(bs.output_bit(c, 0, l), es.outputs(c)[0], "out lane {l}");
            }
        }
    }

    #[test]
    fn dead_lanes_contribute_nothing() {
        let (nl, lib, cfg) = fixture();
        let load = LoadModel::try_build(&nl, &lib, None).unwrap();
        let sim = BitSim::build(&nl, &lib, &load, &cfg).unwrap();
        let mut bs = BitScratch::new();
        // One live lane toggling hard; 63 dead lanes.
        let packed = vec![vec![1u64, 1u64], vec![0u64, 1u64], vec![1u64, 1u64]];
        sim.run_single_ended(&mut bs, &packed, 1);
        for l in 1..64 {
            assert_eq!(bs.cycle_rises(0, l), 0, "dead lane {l} rose");
            assert_eq!(bs.cycle_energy_fj(0, l), 0.0);
            assert!(bs.lane_trace(l).iter().all(|&x| x == 0.0));
        }
        assert!(bs.lane_trace(0).iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn record_waveform_is_a_typed_unsupported_error() {
        let (nl, lib, mut cfg) = fixture();
        cfg.record_waveform = true;
        let load = LoadModel::try_build(&nl, &lib, None).unwrap();
        let err = BitSim::build(&nl, &lib, &load, &cfg).unwrap_err();
        assert!(matches!(err, SimError::UnsupportedConfig { .. }), "{err:?}");
    }

    #[test]
    fn backend_parses_and_displays() {
        use std::str::FromStr;
        assert_eq!(SimBackend::from_str("event").unwrap(), SimBackend::Event);
        assert_eq!(
            SimBackend::from_str("bitslice").unwrap(),
            SimBackend::Bitslice
        );
        assert!(SimBackend::from_str("spice").is_err());
        assert_eq!(SimBackend::Bitslice.to_string(), "bitslice");
        assert_eq!(SimBackend::default(), SimBackend::Event);
    }
}
