//! PathFinder-style negotiated-congestion routing on the two-layer
//! track grid.
//!
//! Every net is routed by multi-source Dijkstra from its partial tree
//! to each remaining pin; congestion is resolved by iteratively
//! re-routing all nets with growing present- and history-cost
//! penalties until no grid node is shared.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::fmt;

use secflow_cells::Library;
use secflow_netlist::{NetId, Netlist};

use crate::design::{bbox_hpwl, PlacedDesign, RoutedDesign, RoutedNet};
use crate::grid::{is_horizontal, Point, RoutingGrid, Segment, LAYER_H, LAYER_V};

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouteOptions {
    /// Maximum negotiation iterations before giving up.
    pub max_iterations: usize,
    /// Cost of a via relative to one track of wire.
    pub via_cost: f64,
    /// History cost added to each congested node per iteration.
    pub history_increment: f32,
    /// Number of routing layers (alternating horizontal/vertical).
    pub layers: u8,
}

impl Default for RouteOptions {
    fn default() -> Self {
        RouteOptions {
            max_iterations: 150,
            via_cost: 3.0,
            history_increment: 0.6,
            layers: 4,
        }
    }
}

/// Routing failure.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteError {
    /// A gate references a cell missing from the library, so its pin
    /// locations cannot be resolved.
    UnknownCell {
        /// Instance name of the offending gate.
        gate: String,
        /// The unresolvable cell name.
        cell: String,
    },
    /// A pin of the placed design falls outside the die (degenerate
    /// placement).
    PinOutOfBounds {
        /// Name of the net whose pin is off-die.
        net: String,
        /// Pin x coordinate (grid units).
        x: i32,
        /// Pin y coordinate (grid units).
        y: i32,
    },
    /// Two different nets have pins at the same grid location
    /// (overlapping cells in a degenerate placement).
    PinCollision {
        /// First net at the location.
        net_a: String,
        /// Second net at the location.
        net_b: String,
        /// Collision x coordinate (grid units).
        x: i32,
        /// Collision y coordinate (grid units).
        y: i32,
    },
    /// A pin could not be reached at all (grid disconnected).
    Unreachable {
        /// Name of the failing net.
        net: String,
    },
    /// Congestion never resolved within the iteration budget.
    Congested {
        /// Number of still-congested grid nodes.
        congested_nodes: usize,
        /// Iterations performed.
        iterations: usize,
        /// A few of the congested locations, as display strings.
        examples: Vec<String>,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::UnknownCell { gate, cell } => {
                write!(f, "gate `{gate}` references unknown cell `{cell}`")
            }
            RouteError::PinOutOfBounds { net, x, y } => {
                write!(f, "pin of net `{net}` at ({x},{y}) lies outside the die")
            }
            RouteError::PinCollision { net_a, net_b, x, y } => {
                write!(f, "pins of nets `{net_a}` and `{net_b}` collide at ({x},{y})")
            }
            RouteError::Unreachable { net } => write!(f, "net `{net}` has an unreachable pin"),
            RouteError::Congested {
                congested_nodes,
                iterations,
                examples,
            } => write!(
                f,
                "routing congestion unresolved after {iterations} iterations ({congested_nodes} nodes, e.g. {examples:?})"
            ),
        }
    }
}

impl std::error::Error for RouteError {}

#[derive(PartialEq)]
struct HeapEntry {
    /// Priority: g + heuristic.
    cost: f64,
    /// Path cost from the tree.
    g: f64,
    point: Point,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.point.cmp(&other.point))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Scratch arrays reused across searches.
struct Search {
    dist: Vec<f64>,
    parent: Vec<Point>,
    stamp: Vec<u32>,
    generation: u32,
}

impl Search {
    fn new(n: usize) -> Self {
        Search {
            dist: vec![f64::INFINITY; n],
            parent: vec![Point::new(0, 0, 0); n],
            stamp: vec![0; n],
            generation: 0,
        }
    }

    fn begin(&mut self) {
        self.generation += 1;
    }

    #[inline]
    fn dist(&self, i: usize) -> f64 {
        if self.stamp[i] == self.generation {
            self.dist[i]
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn set(&mut self, i: usize, d: f64, parent: Point) {
        self.stamp[i] = self.generation;
        self.dist[i] = d;
        self.parent[i] = parent;
    }
}

/// The net owning each pin access point (layers 0 and 1). A bitset
/// over those nodes answers the common "no pin here" case; the owner
/// list, sorted by node index, is searched only on a hit.
struct PinOwners {
    bits: Vec<u64>,
    owners: Vec<(usize, NetId)>,
}

impl PinOwners {
    fn new(nodes: usize) -> Self {
        PinOwners {
            bits: vec![0; nodes.div_ceil(64)],
            owners: Vec::new(),
        }
    }

    /// Records `net` as the owner of node `i`. Returns the earlier
    /// owner if a different net already holds the node.
    fn claim(&mut self, i: usize, net: NetId) -> Option<NetId> {
        if !self.is_pin(i) {
            self.bits[i / 64] |= 1 << (i % 64);
            self.owners.push((i, net));
            return None;
        }
        // A repeated pin point: rare, so a scan is fine.
        self.owners
            .iter()
            .find(|&&(node, _)| node == i)
            .map(|&(_, owner)| owner)
            .filter(|&owner| owner != net)
    }

    #[inline]
    fn is_pin(&self, i: usize) -> bool {
        self.bits
            .get(i / 64)
            .is_some_and(|&w| w >> (i % 64) & 1 != 0)
    }

    /// True if node `i` is a pin of a net other than `net`. Needs
    /// `owners` sorted by node.
    #[inline]
    fn is_foreign_pin(&self, i: usize, net: NetId) -> bool {
        self.is_pin(i)
            && self
                .owners
                .binary_search_by_key(&i, |&(node, _)| node)
                .is_ok_and(|k| self.owners[k].1 != net)
    }
}

/// Routes all multi-pin nets of `placed`, returning the routed design.
///
/// # Errors
///
/// Returns [`RouteError`] if a gate's cell is missing from `lib`, the
/// placement is degenerate (off-die or colliding pins), some pin is
/// unreachable, or congestion cannot be negotiated away within
/// [`RouteOptions::max_iterations`].
pub fn route(
    nl: &Netlist,
    lib: &Library,
    placed: &PlacedDesign,
    opts: &RouteOptions,
) -> Result<RoutedDesign, RouteError> {
    // Resolve every cell upfront so pin lookups below cannot fail.
    for g in nl.gates() {
        if lib.by_name(&g.cell).is_none() {
            return Err(RouteError::UnknownCell {
                gate: g.name.to_string(),
                cell: g.cell.to_string(),
            });
        }
    }

    let mut grid = RoutingGrid::new_with_layers(placed.width, placed.height, opts.layers);
    let mut search =
        Search::new(placed.width as usize * placed.height as usize * opts.layers as usize);

    // Reserve every pin's access points (layers 0 and 1) for its own
    // net: a foreign wire through a pin would make the pin
    // permanently unreachable for its owner. Off-die or colliding pins
    // mean the placement is degenerate and routing cannot start.
    let plane = placed.width as usize * placed.height as usize;
    let mut pins_owned = PinOwners::new(2 * plane);
    let mut work: Vec<(NetId, Vec<(i32, i32)>)> = Vec::new();
    for net in nl.net_ids() {
        let pins = placed.net_pins(nl, lib, net);
        for &(x, y) in &pins {
            if x < 0 || x >= placed.width || y < 0 || y >= placed.height {
                return Err(RouteError::PinOutOfBounds {
                    net: nl.net(net).name.to_string(),
                    x,
                    y,
                });
            }
            for layer in [LAYER_H, LAYER_V] {
                let i = usize::from(layer) * plane + (y * placed.width + x) as usize;
                if let Some(other) = pins_owned.claim(i, net) {
                    return Err(RouteError::PinCollision {
                        net_a: nl.net(other).name.to_string(),
                        net_b: nl.net(net).name.to_string(),
                        x,
                        y,
                    });
                }
            }
        }
        if pins.len() >= 2 {
            work.push((net, pins));
        }
    }
    pins_owned.owners.sort_unstable_by_key(|&(node, _)| node);

    // Nets to route, shortest HPWL first.
    work.sort_by_cached_key(|(n, pins)| (bbox_hpwl(pins), n.0, pins.len()));

    // Current tree points per net (for rip-up).
    let mut trees: Vec<Vec<Point>> = vec![Vec::new(); work.len()];
    let mut edges: Vec<Vec<(Point, Point)>> = vec![Vec::new(); work.len()];

    let mut present_factor = 0.5f64;
    let mut iterations = 0usize;
    let mut ripups = 0u64;
    // PathFinder refinement: after the first pass, only nets whose
    // trees touch congested nodes are ripped up and re-routed.
    let mut reroute: Vec<bool> = vec![true; work.len()];
    loop {
        iterations += 1;
        for (i, (net, pins)) in work.iter().enumerate() {
            if !reroute[i] {
                continue;
            }
            if !trees[i].is_empty() {
                ripups += 1;
            }
            // Rip up the previous route of this net.
            for &p in &trees[i] {
                grid.release(p);
            }
            trees[i].clear();
            edges[i].clear();

            let (tree, tree_edges) = route_net(
                &grid,
                &mut search,
                pins,
                opts,
                present_factor,
                *net,
                &pins_owned,
            )
            .ok_or_else(|| RouteError::Unreachable {
                net: nl.net(*net).name.to_string(),
            })?;
            for &p in &tree {
                grid.occupy(p);
            }
            trees[i] = tree;
            edges[i] = tree_edges;
        }

        let congested = grid.accrue_history(opts.history_increment);
        if congested == 0 {
            break;
        }
        for (i, flag) in reroute.iter_mut().enumerate() {
            *flag = trees[i].iter().any(|&p| grid.usage(p) > 1);
        }
        if iterations >= opts.max_iterations {
            let examples = grid
                .congested_points()
                .into_iter()
                .take(4)
                .map(|p| {
                    let owners: Vec<&str> = work
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| trees[i].contains(&p))
                        .map(|(_, (n, _))| nl.net(*n).name.as_str())
                        .collect();
                    format!("{p} used by {owners:?}")
                })
                .collect();
            return Err(RouteError::Congested {
                congested_nodes: congested,
                iterations,
                examples,
            });
        }
        present_factor *= 1.6;
    }

    secflow_obs::add(secflow_obs::Counter::RouteNets, work.len() as u64);
    secflow_obs::add(secflow_obs::Counter::RouteRipups, ripups);
    secflow_obs::add(secflow_obs::Counter::RouteIterations, iterations as u64);

    let nets = work
        .iter()
        .enumerate()
        .map(|(i, (net, _))| RoutedNet {
            net: *net,
            segments: merge_edges(&edges[i]),
        })
        .collect();

    Ok(RoutedDesign {
        placed: placed.clone(),
        nets,
    })
}

/// Routes one net over the current grid state. Returns the set of tree
/// points and unit edges, or `None` if a pin is unreachable.
/// A routed net tree: its occupied points plus the unit edges.
type NetTree = (Vec<Point>, Vec<(Point, Point)>);

#[allow(clippy::too_many_arguments)]
fn route_net(
    grid: &RoutingGrid,
    search: &mut Search,
    pins: &[(i32, i32)],
    opts: &RouteOptions,
    present_factor: f64,
    net: NetId,
    pins_owned: &PinOwners,
) -> Option<NetTree> {
    let mut tree: Vec<Point> = Vec::new();
    let mut tree_set: HashSet<Point> = HashSet::new();
    let mut tree_edges: Vec<(Point, Point)> = Vec::new();

    // Seed the tree with the first pin (both layers).
    let (x0, y0) = pins[0];
    for p in [Point::new(LAYER_H, x0, y0), Point::new(LAYER_V, x0, y0)] {
        if tree_set.insert(p) {
            tree.push(p);
        }
    }
    tree_edges.push((Point::new(LAYER_H, x0, y0), Point::new(LAYER_V, x0, y0)));

    for &(px, py) in &pins[1..] {
        let t_h = Point::new(LAYER_H, px, py);
        let t_v = Point::new(LAYER_V, px, py);
        if tree_set.contains(&t_h) || tree_set.contains(&t_v) {
            // Pin already on the tree; still make sure both layers of
            // the pin point are attached.
            continue;
        }
        search.begin();
        // A*: an admissible heuristic (Manhattan distance to the sink;
        // every wire step costs at least 1, vias cost extra but do not
        // change x/y) keeps the search focused without affecting
        // optimality.
        let h = |p: Point| -> f64 { f64::from((p.x - px).abs() + (p.y - py).abs()) };
        let mut heap = BinaryHeap::new();
        for &p in &tree {
            search.set(grid.index(p), 0.0, p);
            heap.push(HeapEntry {
                cost: h(p),
                g: 0.0,
                point: p,
            });
        }
        let mut found: Option<Point> = None;
        while let Some(HeapEntry { cost: _, g, point }) = heap.pop() {
            let pi = grid.index(point);
            if g > search.dist(pi) {
                continue; // stale entry
            }
            let cost = g;
            if point == t_h || point == t_v {
                found = Some(point);
                break;
            }
            // Neighbours: along the layer direction, plus a via.
            let mut push = |np: Point, step_cost: f64| {
                if !grid.contains(np) {
                    return;
                }
                let ni = grid.index(np);
                // Foreign pin points are hard obstacles.
                if pins_owned.is_foreign_pin(ni, net) {
                    return;
                }
                let usage = f64::from(grid.usage_at(ni));
                let congestion = if usage > 0.0 {
                    present_factor * usage
                } else {
                    0.0
                };
                let nc = cost + step_cost + congestion + f64::from(grid.history_at(ni));
                if nc < search.dist(ni) {
                    search.set(ni, nc, point);
                    heap.push(HeapEntry {
                        cost: nc + h(np),
                        g: nc,
                        point: np,
                    });
                }
            };
            if is_horizontal(point.layer) {
                push(Point::new(point.layer, point.x - 1, point.y), 1.0);
                push(Point::new(point.layer, point.x + 1, point.y), 1.0);
            } else {
                push(Point::new(point.layer, point.x, point.y - 1), 1.0);
                push(Point::new(point.layer, point.x, point.y + 1), 1.0);
            }
            if point.layer > 0 {
                push(Point::new(point.layer - 1, point.x, point.y), opts.via_cost);
            }
            push(Point::new(point.layer + 1, point.x, point.y), opts.via_cost);
        }
        let target = found?;
        // Backtrace to the tree.
        let mut p = target;
        loop {
            let i = grid.index(p);
            let par = search.parent[i];
            if tree_set.insert(p) {
                tree.push(p);
            }
            if par == p {
                break;
            }
            tree_edges.push((par, p));
            p = par;
        }
    }
    Some((tree, tree_edges))
}

/// Merges unit edges into maximal straight segments plus vias.
fn merge_edges(edges: &[(Point, Point)]) -> Vec<Segment> {
    // Vias, first occurrence kept, in first-occurrence order: the final
    // sort is stable and its key ignores `b.layer`, so this order is
    // what ranks an up-via against a down-via at one point.
    let mut vias: Vec<(Point, Point, usize)> = edges
        .iter()
        .enumerate()
        .filter(|(_, (a, b))| a.layer != b.layer)
        .map(|(k, &(a, b))| (a, b, k))
        .collect();
    vias.sort_unstable();
    vias.dedup_by_key(|&mut (a, b, _)| (a, b));
    vias.sort_unstable_by_key(|&(_, _, k)| k);
    // Horizontal runs keyed by (layer, y), vertical by (layer, x).
    let mut h_runs: std::collections::HashMap<(u8, i32), Vec<i32>> = Default::default();
    let mut v_runs: std::collections::HashMap<(u8, i32), Vec<i32>> = Default::default();
    for &(a, b) in edges.iter().filter(|(a, b)| a.layer == b.layer) {
        if is_horizontal(a.layer) {
            // Store the left x of each unit edge.
            h_runs.entry((a.layer, a.y)).or_default().push(a.x.min(b.x));
        } else {
            v_runs.entry((a.layer, a.x)).or_default().push(a.y.min(b.y));
        }
    }
    let mut out: Vec<Segment> = vias
        .into_iter()
        .map(|(a, b, _)| Segment::new(a, b))
        .collect();
    for ((layer, y), mut xs) in h_runs {
        xs.sort_unstable();
        xs.dedup();
        let mut start = xs[0];
        let mut prev = xs[0];
        for &x in &xs[1..] {
            if x != prev + 1 {
                out.push(Segment::new(
                    Point::new(layer, start, y),
                    Point::new(layer, prev + 1, y),
                ));
                start = x;
            }
            prev = x;
        }
        out.push(Segment::new(
            Point::new(layer, start, y),
            Point::new(layer, prev + 1, y),
        ));
    }
    for ((layer, x), mut ys) in v_runs {
        ys.sort_unstable();
        ys.dedup();
        let mut start = ys[0];
        let mut prev = ys[0];
        for &y in &ys[1..] {
            if y != prev + 1 {
                out.push(Segment::new(
                    Point::new(layer, x, start),
                    Point::new(layer, x, prev + 1),
                ));
                start = y;
            }
            prev = y;
        }
        out.push(Segment::new(
            Point::new(layer, x, start),
            Point::new(layer, x, prev + 1),
        ));
    }
    out.sort_by_key(|s| (s.a.layer, s.a.x, s.a.y, s.b.x, s.b.y));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::{place, PlaceOptions};
    use secflow_netlist::GateKind;

    fn small_netlist() -> Netlist {
        let mut nl = Netlist::new("small");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let w1 = nl.add_net("w1");
        let w2 = nl.add_net("w2");
        let y = nl.add_net("y");
        nl.add_gate("g0", "AND2", GateKind::Comb, vec![a, b], vec![w1]);
        nl.add_gate("g1", "OR2", GateKind::Comb, vec![w1, c], vec![w2]);
        nl.add_gate("g2", "INV", GateKind::Comb, vec![w2], vec![y]);
        nl.mark_output(y);
        nl
    }

    /// Checks that every routed net forms a connected tree touching
    /// all its pins.
    fn check_connectivity(nl: &Netlist, lib: &Library, d: &RoutedDesign) {
        use std::collections::HashSet;
        for rn in &d.nets {
            // Expand segments back to points.
            let mut pts: HashSet<Point> = HashSet::new();
            for s in &rn.segments {
                if s.is_via() {
                    pts.insert(s.a);
                    pts.insert(s.b);
                } else if is_horizontal(s.a.layer) {
                    let (x0, x1) = (s.a.x.min(s.b.x), s.a.x.max(s.b.x));
                    for x in x0..=x1 {
                        pts.insert(Point::new(s.a.layer, x, s.a.y));
                    }
                } else {
                    let (y0, y1) = (s.a.y.min(s.b.y), s.a.y.max(s.b.y));
                    for y in y0..=y1 {
                        pts.insert(Point::new(s.a.layer, s.a.x, y));
                    }
                }
            }
            // All pins present on at least one layer.
            for (x, y) in d.placed.net_pins(nl, lib, rn.net) {
                assert!(
                    pts.contains(&Point::new(LAYER_H, x, y))
                        || pts.contains(&Point::new(LAYER_V, x, y)),
                    "pin ({x},{y}) of net {} not covered",
                    nl.net(rn.net).name
                );
            }
            // Connectivity: BFS over adjacency within the point set.
            let start = *pts.iter().next().expect("non-empty route");
            let mut seen = HashSet::from([start]);
            let mut stack = vec![start];
            while let Some(p) = stack.pop() {
                let mut neigh = vec![Point::new(p.layer + 1, p.x, p.y)];
                if p.layer > 0 {
                    neigh.push(Point::new(p.layer - 1, p.x, p.y));
                }
                if is_horizontal(p.layer) {
                    neigh.push(Point::new(p.layer, p.x - 1, p.y));
                    neigh.push(Point::new(p.layer, p.x + 1, p.y));
                } else {
                    neigh.push(Point::new(p.layer, p.x, p.y - 1));
                    neigh.push(Point::new(p.layer, p.x, p.y + 1));
                }
                for q in neigh {
                    if pts.contains(&q) && seen.insert(q) {
                        stack.push(q);
                    }
                }
            }
            assert_eq!(seen.len(), pts.len(), "disconnected route");
        }
    }

    /// No two different nets may share a grid node.
    fn check_no_shorts(d: &RoutedDesign) {
        use std::collections::HashMap;
        let mut owner: HashMap<Point, NetId> = HashMap::new();
        for rn in &d.nets {
            for s in &rn.segments {
                let pts: Vec<Point> = if s.is_via() {
                    vec![s.a, s.b]
                } else if is_horizontal(s.a.layer) {
                    let (x0, x1) = (s.a.x.min(s.b.x), s.a.x.max(s.b.x));
                    (x0..=x1).map(|x| Point::new(s.a.layer, x, s.a.y)).collect()
                } else {
                    let (y0, y1) = (s.a.y.min(s.b.y), s.a.y.max(s.b.y));
                    (y0..=y1).map(|y| Point::new(s.a.layer, s.a.x, y)).collect()
                };
                for p in pts {
                    if let Some(&o) = owner.get(&p) {
                        assert_eq!(o, rn.net, "short at {p}");
                    } else {
                        owner.insert(p, rn.net);
                    }
                }
            }
        }
    }

    #[test]
    fn routes_small_design() {
        let nl = small_netlist();
        let lib = Library::lib180();
        let placed = place(&nl, &lib, &PlaceOptions::default()).unwrap();
        let routed = route(&nl, &lib, &placed, &RouteOptions::default()).unwrap();
        assert!(!routed.nets.is_empty());
        check_connectivity(&nl, &lib, &routed);
        check_no_shorts(&routed);
        assert!(routed.total_wirelength() > 0);
    }

    #[test]
    fn routing_is_deterministic() {
        let nl = small_netlist();
        let lib = Library::lib180();
        let placed = place(&nl, &lib, &PlaceOptions::default()).unwrap();
        let a = route(&nl, &lib, &placed, &RouteOptions::default()).unwrap();
        let b = route(&nl, &lib, &placed, &RouteOptions::default()).unwrap();
        assert_eq!(a.nets, b.nets);
    }

    #[test]
    fn congestion_negotiation_resolves_crossing_nets() {
        // Many nets forced through the same region.
        let mut nl = Netlist::new("cross");
        let mut outs = Vec::new();
        for i in 0..6 {
            let a = nl.add_input(format!("a{i}"));
            let y = nl.add_net(format!("y{i}"));
            nl.add_gate(format!("g{i}"), "BUF", GateKind::Comb, vec![a], vec![y]);
            outs.push(y);
        }
        for y in outs {
            nl.mark_output(y);
        }
        let lib = Library::lib180();
        let placed = place(&nl, &lib, &PlaceOptions::default()).unwrap();
        let routed = route(&nl, &lib, &placed, &RouteOptions::default()).unwrap();
        check_no_shorts(&routed);
        check_connectivity(&nl, &lib, &routed);
    }

    #[test]
    fn merge_produces_maximal_segments() {
        let e = |x0: i32, x1: i32| (Point::new(LAYER_H, x0, 3), Point::new(LAYER_H, x1, 3));
        let segs = merge_edges(&[e(0, 1), e(1, 2), e(2, 3), e(5, 6)]);
        let wires: Vec<_> = segs.iter().filter(|s| !s.is_via()).collect();
        assert_eq!(wires.len(), 2);
        assert!(wires.iter().any(|s| s.len() == 3));
        assert!(wires.iter().any(|s| s.len() == 1));
    }

    #[test]
    fn overlapping_cells_are_a_typed_pin_collision() {
        let nl = small_netlist();
        let lib = Library::lib180();
        let mut placed = place(&nl, &lib, &PlaceOptions::default()).unwrap();
        // Stack the OR2 on the AND2: the first net to claim a shared
        // pin point is reported first.
        placed.cells[1] = placed.cells[0];
        let err = route(&nl, &lib, &placed, &RouteOptions::default()).unwrap_err();
        let RouteError::PinCollision { net_a, net_b, .. } = err else {
            panic!("expected a pin collision, got {err:?}");
        };
        assert_eq!((net_a.as_str(), net_b.as_str()), ("b", "c"));
    }

    #[test]
    fn merge_keeps_first_occurrence_order_of_tied_vias() {
        // An up-via and a down-via from one point tie on the sort key;
        // their order is the order they first appear, duplicates gone.
        let up = (Point::new(1, 2, 2), Point::new(2, 2, 2));
        let down = (Point::new(1, 2, 2), Point::new(0, 2, 2));
        let seg = |(a, b): (Point, Point)| Segment::new(a, b);
        assert_eq!(merge_edges(&[up, down, up]), vec![seg(up), seg(down)]);
        assert_eq!(merge_edges(&[down, up, down, up]), vec![seg(down), seg(up)]);
    }
}
