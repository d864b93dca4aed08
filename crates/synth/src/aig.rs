//! And-Inverter Graph with complemented edges and structural hashing.

use std::collections::HashMap;

/// An AIG node index. Node 0 is the constant-false node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// A literal: a node reference with an optional complement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The constant-false literal.
    pub const FALSE: Lit = Lit(0);
    /// The constant-true literal.
    pub const TRUE: Lit = Lit(1);

    /// Builds a literal from a node and a complement flag.
    pub fn new(node: NodeId, complement: bool) -> Self {
        Lit(node.0 << 1 | complement as u32)
    }

    /// The underlying node.
    pub fn node(self) -> NodeId {
        NodeId(self.0 >> 1)
    }

    /// True if the literal is complemented.
    pub fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complemented literal (logical NOT).
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn not(self) -> Self {
        Lit(self.0 ^ 1)
    }
}

/// Node payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    /// Constant false (node 0 only).
    Const,
    /// An external leaf (primary input or register output), with its
    /// leaf index.
    Leaf(u32),
    /// Two-input AND of two literals.
    And(Lit, Lit),
}

/// An And-Inverter Graph.
///
/// All combinational logic is expressed as two-input ANDs with
/// complemented edges; [`Aig::and`] performs constant folding, trivial
/// simplification and structural hashing, so building an expression
/// twice yields the same literal (free CSE).
#[derive(Debug, Clone, Default)]
pub struct Aig {
    nodes: Vec<Node>,
    strash: HashMap<(Lit, Lit), NodeId>,
    n_leaves: u32,
}

impl Aig {
    /// Creates an empty AIG (just the constant node).
    pub fn new() -> Self {
        Aig {
            nodes: vec![Node::Const],
            strash: HashMap::new(),
            n_leaves: 0,
        }
    }

    /// Number of nodes, including the constant and leaves.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of AND nodes (the size metric used in reports). Every
    /// AND node has exactly one structural-hash entry, so this is O(1);
    /// generators that grow a design to a size call it per node.
    pub fn and_count(&self) -> usize {
        self.strash.len()
    }

    /// Number of leaves created so far.
    pub fn leaf_count(&self) -> u32 {
        self.n_leaves
    }

    /// Creates a fresh leaf (primary input or register output) and
    /// returns its positive literal.
    pub fn leaf(&mut self) -> Lit {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::Leaf(self.n_leaves));
        self.n_leaves += 1;
        Lit::new(id, false)
    }

    /// Returns the leaf index of `node`, if it is a leaf.
    pub fn leaf_index(&self, node: NodeId) -> Option<u32> {
        match self.nodes[node.0 as usize] {
            Node::Leaf(i) => Some(i),
            _ => None,
        }
    }

    /// True if `node` is an AND node.
    pub fn is_and(&self, node: NodeId) -> bool {
        matches!(self.nodes[node.0 as usize], Node::And(..))
    }

    /// The fanins of an AND node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an AND node.
    pub fn and_fanins(&self, node: NodeId) -> (Lit, Lit) {
        match self.nodes[node.0 as usize] {
            Node::And(a, b) => (a, b),
            _ => panic!("node {node:?} is not an AND"),
        }
    }

    /// Logical AND of two literals, with folding and hashing.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Normalize operand order for hashing.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        // Constant / trivial folding.
        if a == Lit::FALSE || b == Lit::FALSE || a == b.not() {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if b == Lit::TRUE || a == b {
            return a;
        }
        if let Some(&id) = self.strash.get(&(a, b)) {
            return Lit::new(id, false);
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::And(a, b));
        self.strash.insert((a, b), id);
        Lit::new(id, false)
    }

    /// Logical OR (De Morgan on [`Aig::and`]).
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        self.and(a.not(), b.not()).not()
    }

    /// Logical XOR.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let nand = self.and(a, b).not();
        let x = self.and(a, nand);
        let y = self.and(b, nand);
        self.and(x.not(), y.not()).not()
    }

    /// Multiplexer: `if s { t } else { e }`.
    pub fn mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        let a = self.and(s, t);
        let b = self.and(s.not(), e);
        self.or(a, b)
    }

    /// AND over an iterator of literals (true for empty input).
    pub fn and_all(&mut self, lits: impl IntoIterator<Item = Lit>) -> Lit {
        lits.into_iter().fold(Lit::TRUE, |acc, l| self.and(acc, l))
    }

    /// OR over an iterator of literals (false for empty input).
    pub fn or_all(&mut self, lits: impl IntoIterator<Item = Lit>) -> Lit {
        lits.into_iter().fold(Lit::FALSE, |acc, l| self.or(acc, l))
    }

    /// Node ids in topological order (guaranteed by construction:
    /// fanins always precede their AND node).
    pub fn topo_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Reference counts: for each node, how many AND fanin edges plus
    /// `roots` literals point at it.
    pub fn reference_counts(&self, roots: &[Lit]) -> Vec<u32> {
        let mut refs = vec![0u32; self.nodes.len()];
        for n in &self.nodes {
            if let Node::And(a, b) = n {
                refs[a.node().0 as usize] += 1;
                refs[b.node().0 as usize] += 1;
            }
        }
        for r in roots {
            refs[r.node().0 as usize] += 1;
        }
        refs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding() {
        let l = Lit::new(NodeId(5), true);
        assert_eq!(l.node(), NodeId(5));
        assert!(l.is_complement());
        assert_eq!(l.not().node(), NodeId(5));
        assert!(!l.not().is_complement());
        assert_eq!(Lit::TRUE, Lit::FALSE.not());
    }

    #[test]
    fn constant_folding() {
        let mut g = Aig::new();
        let a = g.leaf();
        assert_eq!(g.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(g.and(a, Lit::TRUE), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, a.not()), Lit::FALSE);
        assert_eq!(g.and_count(), 0);
    }

    #[test]
    fn structural_hashing_dedups() {
        let mut g = Aig::new();
        let a = g.leaf();
        let b = g.leaf();
        let x = g.and(a, b);
        let y = g.and(b, a);
        assert_eq!(x, y);
        assert_eq!(g.and_count(), 1);
    }

    #[test]
    fn xor_uses_four_ands() {
        let mut g = Aig::new();
        let a = g.leaf();
        let b = g.leaf();
        let _x = g.xor(a, b);
        assert_eq!(g.and_count(), 4);
    }

    #[test]
    fn or_all_and_and_all() {
        let mut g = Aig::new();
        let lits: Vec<Lit> = (0..3).map(|_| g.leaf()).collect();
        assert_eq!(g.and_all([]), Lit::TRUE);
        assert_eq!(g.or_all([]), Lit::FALSE);
        let o = g.or_all(lits.clone());
        let a = g.and_all(lits);
        assert_ne!(o, a);
    }

    #[test]
    fn reference_counts_include_roots() {
        let mut g = Aig::new();
        let a = g.leaf();
        let b = g.leaf();
        let x = g.and(a, b);
        let refs = g.reference_counts(&[x]);
        assert_eq!(refs[x.node().0 as usize], 1);
        assert_eq!(refs[a.node().0 as usize], 1);
    }
}
