//! Standard cell library model for the secure design flow.
//!
//! This crate plays the role of the vendor's `.lib`/`.lef` pair in the
//! paper: it describes, for every library cell,
//!
//! * the **logic function** as a [`TruthTable`] (up to 6 inputs),
//! * **electrical data** (pin capacitances, drive resistance, intrinsic
//!   delay) for the linear delay and charge-based power models,
//! * **physical data** ([`LefMacro`]: width in routing tracks, pin
//!   positions) for placement and routing.
//!
//! [`Library::lib180`] builds the default 0.18 µm-flavoured library used
//! throughout the reproduction. [`Sop`]/[`isop`] provide the
//! sum-of-products machinery that the WDDL generator uses to derive
//! positive dual-rail covers; [`push_cube_words`]/[`eval_cube_words`]
//! turn a cover into the 64-lane word program every zero-delay gate
//! evaluator of the workspace runs.
//!
//! # Example
//!
//! ```
//! use secflow_cells::{Library, TruthTable};
//!
//! let lib = Library::lib180();
//! let and2 = lib.by_name("AND2").expect("AND2 exists");
//! assert_eq!(and2.truth_table().unwrap(), &TruthTable::and2());
//! assert!(and2.area_um2() > 0.0);
//! ```

mod cell;
mod export;
mod lef;
mod library;
mod sop;
mod tt;
mod word;

pub use cell::{CellFunction, LibCell};
pub use export::ParseLibertyError;
pub use lef::{LefMacro, ROW_HEIGHT_UM, ROW_TRACKS, TRACK_UM};
pub use library::{Library, MatchedCell};
pub use sop::{Cube, Sop};
pub use tt::{isop, TruthTable};
pub use word::{eval_cube_words, push_cube_words, CubeWord};
