//! Logic equivalence checking — the reproduction's stand-in for
//! Formality / Verplex in the paper's verification step.
//!
//! Two engines are provided:
//!
//! * [`Bdd`] — a reduced ordered BDD package (unique table + ITE with
//!   memoization) used by [`check_equiv`] for formally exact
//!   combinational equivalence;
//! * [`check_equiv_random`] — 64-bit-parallel random simulation for
//!   designs whose BDDs would blow up (finds counterexamples only, it
//!   cannot prove equivalence), on [`CompiledComb`], the workspace's
//!   compiled zero-delay evaluator (also behind the WDDL rail checks).
//!
//! The secure design flow uses this to verify the fat netlist against
//! the original netlist (cell substitution correctness): primary
//! inputs are matched by name, registers by order, and primary outputs
//! by position with an optional polarity vector (the fat abstraction
//! stores output polarity separately, because WDDL implements
//! inversion by swapping the two rails).

mod bdd;
mod check;
mod comb;

pub use bdd::{Bdd, BddRef};
pub use check::{
    check_equiv, check_equiv_random, check_equiv_random_with_parity, check_equiv_with_parity,
    EquivReport, LecError,
};
pub use comb::{CompileError, CompiledComb};
