//! Truth tables over up to 6 variables, packed into a `u64`.
//!
//! Bit `i` of the table holds the function value for the input
//! assignment whose bits are the binary expansion of `i` (variable 0 is
//! the least significant bit).

use crate::sop::{Cube, Sop};

/// A complete truth table of a boolean function of `n ≤ 6` variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TruthTable {
    bits: u64,
    n: u8,
}

/// `VAR[v]`: the table of variable `v` over 6 variables. Bit `i` is
/// set iff bit `v` of `i` is, so `bits & VAR[v]` keeps the half where
/// `v` is true and shifting it right by `2^v` lines it up with the
/// half where `v` is false.
const VAR: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Mask of the `2^n` valid bits.
#[inline]
fn mask(n: u8) -> u64 {
    if n == 6 {
        u64::MAX
    } else {
        (1u64 << (1usize << n)) - 1
    }
}

impl TruthTable {
    /// Maximum supported variable count.
    pub const MAX_VARS: u8 = 6;

    /// Builds a table from raw bits.
    ///
    /// # Panics
    ///
    /// Panics if `n > 6`.
    pub fn from_bits(n: u8, bits: u64) -> Self {
        assert!(n <= Self::MAX_VARS, "at most 6 variables supported");
        TruthTable {
            bits: bits & mask(n),
            n,
        }
    }

    /// Builds a table by evaluating `f` on every assignment.
    pub fn from_fn(n: u8, mut f: impl FnMut(u32) -> bool) -> Self {
        assert!(n <= Self::MAX_VARS);
        let mut bits = 0u64;
        for i in 0..(1u32 << n) {
            if f(i) {
                bits |= 1 << i;
            }
        }
        TruthTable { bits, n }
    }

    /// The constant-false function of `n` variables.
    pub fn zero(n: u8) -> Self {
        Self::from_bits(n, 0)
    }

    /// The constant-true function of `n` variables.
    pub fn one(n: u8) -> Self {
        Self::from_bits(n, u64::MAX)
    }

    /// The projection function returning variable `i`.
    pub fn var(n: u8, i: u8) -> Self {
        assert!(i < n);
        Self::from_fn(n, |a| a >> i & 1 == 1)
    }

    /// Two-input AND, for convenience in tests and the library.
    pub fn and2() -> Self {
        Self::from_fn(2, |a| a == 3)
    }

    /// Two-input OR.
    pub fn or2() -> Self {
        Self::from_fn(2, |a| a != 0)
    }

    /// Two-input XOR.
    pub fn xor2() -> Self {
        Self::from_fn(2, |a| (a.count_ones() & 1) == 1)
    }

    /// Number of variables.
    #[inline]
    pub fn vars(&self) -> u8 {
        self.n
    }

    /// Raw bit representation (only the low `2^n` bits are meaningful).
    #[inline]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Evaluates the function on the assignment `input` (bit `i` =
    /// variable `i`).
    #[inline]
    pub fn eval(&self, input: u32) -> bool {
        debug_assert!(input < (1u32 << self.n));
        self.bits >> input & 1 == 1
    }

    /// Logical complement.
    pub fn not(&self) -> Self {
        TruthTable {
            bits: !self.bits & mask(self.n),
            n: self.n,
        }
    }

    /// Conjunction with `other` (same variable count required).
    pub fn and(&self, other: &Self) -> Self {
        assert_eq!(self.n, other.n);
        TruthTable {
            bits: self.bits & other.bits,
            n: self.n,
        }
    }

    /// Disjunction with `other`.
    pub fn or(&self, other: &Self) -> Self {
        assert_eq!(self.n, other.n);
        TruthTable {
            bits: self.bits | other.bits,
            n: self.n,
        }
    }

    /// Exclusive-or with `other`.
    pub fn xor(&self, other: &Self) -> Self {
        assert_eq!(self.n, other.n);
        TruthTable {
            bits: (self.bits ^ other.bits) & mask(self.n),
            n: self.n,
        }
    }

    /// Positive cofactor: the function with variable `v` fixed to
    /// `val`. The result still formally ranges over `n` variables (the
    /// fixed variable becomes irrelevant).
    pub fn cofactor(&self, v: u8, val: bool) -> Self {
        assert!(v < self.n);
        Self::from_fn(self.n, |a| {
            let a = if val { a | 1 << v } else { a & !(1u32 << v) };
            self.eval(a)
        })
    }

    /// The boolean dual: `f^d(x) = ¬f(¬x)`. WDDL's false-rail gate of a
    /// positive gate computes the dual on the complementary rails.
    pub fn dual(&self) -> Self {
        Self::from_fn(self.n, |a| !self.eval(!a & ((1 << self.n) - 1)))
    }

    /// True if the function depends on variable `v`: its halves with
    /// `v` false and `v` true differ.
    pub fn depends_on(&self, v: u8) -> bool {
        assert!(v < self.n);
        let var = VAR[v as usize];
        self.bits & !var != (self.bits & var) >> (1u32 << v)
    }

    /// The set of variables the function actually depends on.
    pub fn support(&self) -> Vec<u8> {
        (0..self.n).filter(|&v| self.depends_on(v)).collect()
    }

    /// True if the function is positive unate (monotone non-decreasing)
    /// in variable `v`.
    pub fn is_positive_unate_in(&self, v: u8) -> bool {
        let f0 = self.cofactor(v, false);
        let f1 = self.cofactor(v, true);
        f0.bits & !f1.bits == 0
    }

    /// True if the function is positive unate in all of its variables;
    /// such functions have an all-positive SOP cover.
    pub fn is_positive_unate(&self) -> bool {
        (0..self.n).all(|v| self.is_positive_unate_in(v))
    }

    /// Applies an input permutation: variable `i` of the result reads
    /// variable `perm[i]` of `self`.
    pub fn permute(&self, perm: &[u8]) -> Self {
        assert_eq!(perm.len(), self.n as usize);
        Self::from_fn(self.n, |a| {
            let mut orig = 0u32;
            for (i, &p) in perm.iter().enumerate() {
                if a >> i & 1 == 1 {
                    orig |= 1 << p;
                }
            }
            self.eval(orig)
        })
    }

    /// Applies an input phase: variable `i` of the result is the
    /// complement of variable `i` of `self` whenever bit `i` of `mask`
    /// is set: `tt'(x) = tt(x ^ mask)`.
    pub fn phase(&self, mask: u32) -> Self {
        debug_assert!(mask < 1 << self.n);
        let mut bits = self.bits;
        for v in 0..self.n {
            if mask >> v & 1 == 1 {
                // Swap the halves where `v` is false and true.
                let (var, s) = (VAR[v as usize], 1u32 << v);
                bits = (bits & var) >> s | (bits & !var) << s;
            }
        }
        TruthTable { bits, n: self.n }
    }

    /// Extends the function to `m ≥ n` variables (new variables are
    /// irrelevant).
    pub fn extend(&self, m: u8) -> Self {
        assert!(m >= self.n && m <= Self::MAX_VARS);
        Self::from_fn(m, |a| self.eval(a & ((1 << self.n) - 1)))
    }

    /// Number of input assignments on which the function is true.
    pub fn ones(&self) -> u32 {
        self.bits.count_ones()
    }
}

/// Computes an irredundant sum-of-products cover of `f` using the
/// Minato–Morreale ISOP procedure.
///
/// The cover is exact (`cover.to_truth_table(n) == f`) and irredundant:
/// removing any cube changes the function. WDDL compound-gate generation
/// builds its positive dual-rail covers from this.
pub fn isop(f: &TruthTable) -> Sop {
    let n = f.vars();
    let cubes = isop_rec(*f, *f, n);
    Sop::new(n, cubes)
}

/// Recursive ISOP over the interval `[lower, upper]`: returns cubes
/// covering at least `lower` and staying within `upper`.
fn isop_rec(lower: TruthTable, upper: TruthTable, n: u8) -> Vec<Cube> {
    if lower.bits() == 0 {
        return Vec::new();
    }
    if upper == TruthTable::one(n) {
        return vec![Cube::tautology()];
    }
    // Pick the lowest variable in the support of lower or upper.
    let v = (0..n)
        .find(|&v| lower.depends_on(v) || upper.depends_on(v))
        .expect("non-constant interval must have support");

    let l0 = lower.cofactor(v, false);
    let l1 = lower.cofactor(v, true);
    let u0 = upper.cofactor(v, false);
    let u1 = upper.cofactor(v, true);

    // Cubes that must contain literal ¬v.
    let c0 = isop_rec(l0.and(&u1.not()), u0, n);
    // Cubes that must contain literal v.
    let c1 = isop_rec(l1.and(&u0.not()), u1, n);

    let f0 = Sop::new(n, c0.clone()).to_truth_table(n);
    let f1 = Sop::new(n, c1.clone()).to_truth_table(n);

    // Remaining minterms covered without referencing v.
    let lnew = l0.and(&f0.not()).or(&l1.and(&f1.not()));
    let cstar = isop_rec(lnew, u0.and(&u1), n);

    let mut out = Vec::with_capacity(c0.len() + c1.len() + cstar.len());
    out.extend(c0.into_iter().map(|c| c.with_neg_literal(v)));
    out.extend(c1.into_iter().map(|c| c.with_pos_literal(v)));
    out.extend(cstar);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tables() {
        assert_eq!(TruthTable::and2().bits(), 0b1000);
        assert_eq!(TruthTable::or2().bits(), 0b1110);
        assert_eq!(TruthTable::xor2().bits(), 0b0110);
        assert!(TruthTable::and2().eval(3));
        assert!(!TruthTable::and2().eval(1));
    }

    #[test]
    fn var_projection() {
        let x0 = TruthTable::var(3, 0);
        for a in 0..8 {
            assert_eq!(x0.eval(a), a & 1 == 1);
        }
    }

    #[test]
    fn dual_of_and_is_or() {
        assert_eq!(TruthTable::and2().dual(), TruthTable::or2());
        assert_eq!(TruthTable::or2().dual(), TruthTable::and2());
    }

    #[test]
    fn aoi21_dual_is_oai21() {
        // AOI21 = ¬(ab + c); OAI21 = ¬((a+b)·c)
        let aoi = TruthTable::from_fn(3, |x| {
            let (a, b, c) = (x & 1 == 1, x >> 1 & 1 == 1, x >> 2 & 1 == 1);
            !((a && b) || c)
        });
        let oai = TruthTable::from_fn(3, |x| {
            let (a, b, c) = (x & 1 == 1, x >> 1 & 1 == 1, x >> 2 & 1 == 1);
            !((a || b) && c)
        });
        assert_eq!(aoi.dual(), oai);
    }

    #[test]
    fn unateness() {
        assert!(TruthTable::and2().is_positive_unate());
        assert!(TruthTable::or2().is_positive_unate());
        assert!(!TruthTable::xor2().is_positive_unate());
        let inv = TruthTable::from_fn(1, |a| a == 0);
        assert!(!inv.is_positive_unate_in(0));
    }

    #[test]
    fn support_ignores_irrelevant_vars() {
        let f = TruthTable::and2().extend(4);
        assert_eq!(f.support(), vec![0, 1]);
        assert!(!f.depends_on(3));
    }

    #[test]
    fn permute_swaps_inputs() {
        // f(a, b) = a AND NOT b — not symmetric.
        let f = TruthTable::from_fn(2, |x| x & 1 == 1 && x >> 1 & 1 == 0);
        let g = f.permute(&[1, 0]);
        for x in 0..4u32 {
            let swapped = (x & 1) << 1 | (x >> 1 & 1);
            assert_eq!(g.eval(x), f.eval(swapped));
        }
    }

    #[test]
    fn isop_of_xor_has_two_cubes() {
        let cover = isop(&TruthTable::xor2());
        assert_eq!(cover.cubes().len(), 2);
        assert_eq!(cover.to_truth_table(2), TruthTable::xor2());
    }

    #[test]
    fn isop_of_constants() {
        assert!(isop(&TruthTable::zero(3)).cubes().is_empty());
        let one = isop(&TruthTable::one(3));
        assert_eq!(one.to_truth_table(3), TruthTable::one(3));
    }

    #[test]
    fn isop_is_exact() {
        secflow_testkit::prop_check!(cases: 64, seed: 0x7701, |g| {
            let n = g.random_range(1..6u8);
            let f = TruthTable::from_bits(n, g.random());
            let cover = isop(&f);
            assert_eq!(cover.to_truth_table(n), f);
        });
    }

    #[test]
    fn isop_is_irredundant() {
        secflow_testkit::prop_check!(cases: 64, seed: 0x7702, |g| {
            let n = g.random_range(1..5u8);
            let f = TruthTable::from_bits(n, g.random());
            let cover = isop(&f);
            let cubes = cover.cubes();
            for skip in 0..cubes.len() {
                let reduced: Vec<_> = cubes
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != skip)
                    .map(|(_, c)| *c)
                    .collect();
                let g = Sop::new(n, reduced).to_truth_table(n);
                assert_ne!(g, f, "cube {skip} is redundant");
            }
        });
    }

    #[test]
    fn dual_is_involutive() {
        secflow_testkit::prop_check!(cases: 64, seed: 0x7703, |g| {
            let n = g.random_range(1..6u8);
            let f = TruthTable::from_bits(n, g.random());
            assert_eq!(f.dual().dual(), f);
        });
    }

    #[test]
    fn demorgan_holds() {
        secflow_testkit::prop_check!(cases: 64, seed: 0x7704, |g| {
            let a = TruthTable::from_bits(4, g.random());
            let b = TruthTable::from_bits(4, g.random());
            assert_eq!(a.and(&b).not(), a.not().or(&b.not()));
        });
    }

    /// `phase`, `depends_on` and `support` work on the packed bits;
    /// each equals its pointwise definition on every mask and variable.
    #[test]
    fn bit_parallel_ops_match_pointwise_definitions() {
        secflow_testkit::prop_check!(cases: 64, seed: 0x7706, |g| {
            let bits: u64 = g.random();
            for n in 0..=TruthTable::MAX_VARS {
                let f = TruthTable::from_bits(n, bits);
                for mask in 0..1u32 << n {
                    let want = TruthTable::from_fn(n, |a| f.eval(a ^ mask));
                    assert_eq!(f.phase(mask), want, "phase n={n} mask={mask:#b}");
                }
                let depends = |v: u8| f.cofactor(v, false) != f.cofactor(v, true);
                for v in 0..n {
                    assert_eq!(f.depends_on(v), depends(v), "depends_on n={n} v={v}");
                }
                let support: Vec<u8> = (0..n).filter(|&v| depends(v)).collect();
                assert_eq!(f.support(), support, "support n={n}");
            }
        });
    }

    #[test]
    fn cofactor_shannon_expansion() {
        secflow_testkit::prop_check!(cases: 64, seed: 0x7705, |g| {
            let n = g.random_range(1..6u8);
            let v = g.random_range(0..n);
            let f = TruthTable::from_bits(n, g.random());
            let x = TruthTable::var(n, v);
            let recon = x.not().and(&f.cofactor(v, false)).or(&x.and(&f.cofactor(v, true)));
            assert_eq!(recon, f);
        });
    }
}
