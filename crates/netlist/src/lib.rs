//! Gate-level netlist database for the secure design flow.
//!
//! This crate provides the central data structure that every stage of the
//! flow manipulates: a flat, technology-mapped [`Netlist`] of gate
//! instances connected by nets, together with graph utilities
//! (topological ordering, levelization, fanout maps), validation, and a
//! reader/writer for a structural-Verilog-like text format (the `rtl.v`,
//! `fat.v` and `diff.v` artifacts of the paper's flow).
//!
//! The netlist is deliberately independent of any particular cell
//! library: gate instances reference library cells *by name* and carry a
//! [`GateKind`] flag distinguishing combinational from sequential
//! elements, so the graph algorithms work without consulting electrical
//! data.
//!
//! # Example
//!
//! ```
//! use secflow_netlist::{Netlist, GateKind};
//!
//! let mut nl = Netlist::new("half_adder");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let s = nl.add_net("s");
//! let c = nl.add_net("c");
//! nl.add_gate("u_xor", "XOR2", GateKind::Comb, vec![a, b], vec![s]);
//! nl.add_gate("u_and", "AND2", GateKind::Comb, vec![a, b], vec![c]);
//! nl.mark_output(s);
//! nl.mark_output(c);
//! assert!(nl.validate().is_ok());
//! assert_eq!(nl.gate_count(), 2);
//! ```

mod error;
mod graph;
mod inline;
mod netlist;
mod stats;
mod validate;
mod verilog;

pub use error::NetlistError;
pub use graph::{
    combinational_levels, fanout_map, find_combinational_cycle, topo_order, FanoutCsr,
};
pub use inline::{InlineStr, InlineVec};
pub use netlist::{Gate, GateId, GateKind, Net, NetId, Netlist, PinRef, Pins, Sinks};
pub use stats::NetlistStats;
pub use verilog::{parse_verilog, structurally_equal, write_verilog};
