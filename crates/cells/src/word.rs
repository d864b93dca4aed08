//! Cube-word programs: a truth table's irredundant sum-of-products
//! run as branch-free `u64` word operations, so one pass evaluates 64
//! independent input assignments, one per bit lane.
//!
//! This is the workspace's single zero-delay gate evaluator: the
//! bit-sliced simulator (`secflow-sim`) and the compiled combinational
//! evaluator (`secflow-lec`, which also serves the WDDL rail checks)
//! both build their gate programs with [`push_cube_words`] and run them
//! with [`eval_cube_words`].

use crate::tt::{isop, TruthTable};

/// One product term of a cube-word program: `(positive literal mask,
/// negative literal mask)` over the gate's input pins. A program's
/// value is the OR over its cubes of the AND over each cube's literals.
pub type CubeWord = (u8, u8);

/// Input words holding every assignment of up to 6 variables: lane `l`
/// carries assignment `l` (pin `i` = bit `i` of `l`).
const ALL_ASSIGNMENTS: [u64; 8] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
    0,
    0,
];

/// Appends the cube-word program of `tt` (its [`isop`] cover) to `out`.
///
/// In debug builds the appended program is checked against
/// [`TruthTable::eval`] on every input assignment.
pub fn push_cube_words(tt: &TruthTable, out: &mut Vec<CubeWord>) {
    let lo = out.len();
    out.extend(
        isop(tt)
            .cubes()
            .iter()
            .map(|c| (c.pos_mask(), c.neg_mask())),
    );
    debug_assert_eq!(
        eval_cube_words(&out[lo..], &ALL_ASSIGNMENTS),
        lanes_of(tt),
        "ISOP cover diverges from tt"
    );
}

/// All 64 lanes of a cube-word program's output; `ins[i]` holds input
/// pin `i` in every lane. Pins the program does not reference are
/// ignored.
#[inline]
pub fn eval_cube_words(cubes: &[CubeWord], ins: &[u64; 8]) -> u64 {
    let mut out = 0u64;
    for &(p, n) in cubes {
        let mut term = !0u64;
        let mut pm = p;
        while pm != 0 {
            term &= ins[pm.trailing_zeros() as usize];
            pm &= pm - 1;
        }
        let mut nm = n;
        while nm != 0 {
            term &= !ins[nm.trailing_zeros() as usize];
            nm &= nm - 1;
        }
        out |= term;
    }
    out
}

/// `tt` on [`ALL_ASSIGNMENTS`]: lane `l` holds `tt.eval(l mod 2^n)`.
fn lanes_of(tt: &TruthTable) -> u64 {
    let m = (1u32 << tt.vars()) - 1;
    (0..64u32)
        .filter(|&l| tt.eval(l & m))
        .fold(0, |w, l| w | 1 << l)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(tt: &TruthTable) -> Vec<CubeWord> {
        let mut cubes = Vec::new();
        push_cube_words(tt, &mut cubes);
        cubes
    }

    /// Every input assignment fed as one lane: the program equals
    /// `tt.eval` on each.
    #[test]
    fn program_matches_tt_on_every_assignment() {
        secflow_testkit::prop_check!(cases: 256, seed: 0xC0BE_0001, |g| {
            let n = g.random_range(0..7u8);
            let tt = TruthTable::from_bits(n, g.random());
            let word = eval_cube_words(&program(&tt), &ALL_ASSIGNMENTS);
            for lane in 0..64u32 {
                let idx = lane & ((1 << n) - 1);
                assert_eq!(word >> lane & 1 == 1, tt.eval(idx), "{tt:?}, lane {lane}");
            }
        });
    }

    /// Arbitrary input words: each lane is an independent assignment.
    #[test]
    fn program_matches_tt_on_random_lanes() {
        secflow_testkit::prop_check!(cases: 256, seed: 0xC0BE_0002, |g| {
            let n = g.random_range(0..7u8);
            let tt = TruthTable::from_bits(n, g.random());
            let mut ins = [0u64; 8];
            for w in ins.iter_mut().take(n as usize) {
                *w = g.random();
            }
            let word = eval_cube_words(&program(&tt), &ins);
            for lane in 0..64 {
                let idx = (0..n as usize).fold(0u32, |a, i| a | ((ins[i] >> lane & 1) as u32) << i);
                assert_eq!(word >> lane & 1 == 1, tt.eval(idx), "{tt:?}, lane {lane}");
            }
        });
    }

    #[test]
    fn constants_are_empty_and_tautology_programs() {
        assert!(program(&TruthTable::zero(2)).is_empty());
        assert_eq!(program(&TruthTable::one(2)), vec![(0, 0)]);
        assert_eq!(eval_cube_words(&[(0, 0)], &[0; 8]), !0);
        assert_eq!(eval_cube_words(&[], &[!0; 8]), 0);
    }
}
