//! Interconnect decomposition: the routed fat design is turned into
//! the differential design by duplicating and translating every fat
//! wire by one routing pitch and reducing the wire width (§2.3 and
//! Fig. 3 of the paper).
//!
//! Geometrically: fat grid coordinates are doubled (one fat unit = two
//! routing tracks), the true rail takes the doubled geometry, and the
//! false rail is the same polyline translated by `(+1, +1)` tracks.
//! A diagonal translation keeps the two rails exactly one track apart
//! on *both* legs of every bend, which is what makes their parasitics
//! match.

use std::collections::HashMap;
use std::fmt;

use secflow_netlist::NetId;
use secflow_pnr::{GridPitch, PlacedCell, PlacedDesign, Point, RoutedDesign, RoutedNet, Segment};

use crate::substitute::Substitution;

/// A failure of the interconnect decomposition stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecomposeError {
    /// The input design was not routed on the fat grid.
    NotFatPitch,
    /// A routed fat net has no rail pair in the substitution.
    MissingRailPair {
        /// Name of the offending fat net.
        net: String,
    },
    /// The placement does not cover every fat gate of the
    /// substitution.
    CellCountMismatch {
        /// Cells in the placement.
        placed: usize,
        /// Gates in the fat netlist.
        fat_gates: usize,
    },
}

impl fmt::Display for DecomposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecomposeError::NotFatPitch => {
                write!(f, "decomposition applies to fat-routed designs")
            }
            DecomposeError::MissingRailPair { net } => {
                write!(f, "fat net `{net}` has no rail pair")
            }
            DecomposeError::CellCountMismatch { placed, fat_gates } => {
                write!(
                    f,
                    "placement has {placed} cells but the fat netlist has {fat_gates} gates"
                )
            }
        }
    }
}

impl std::error::Error for DecomposeError {}

/// How the fat wires are decomposed — the paper's §2.2 security /
/// area trade-off knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecomposeStyle {
    /// One fat unit = two tracks; differential pairs abut (the paper's
    /// baseline).
    #[default]
    Dense,
    /// One fat unit = three tracks; one empty track between adjacent
    /// pairs ("increasing the distance between the different
    /// differential pairs reduces the effect \[of cross-talk\]. The
    /// tradeoff is an increase in silicon area").
    Spaced,
    /// One fat unit = three tracks; the extra track carries a grounded
    /// shield wire ("shielding the differential routes on either side
    /// with a power or ground line eliminates the cross-talk").
    Shielded,
}

impl DecomposeStyle {
    /// Tracks per fat grid unit under this style.
    pub fn scale(self) -> i32 {
        match self {
            DecomposeStyle::Dense => 2,
            DecomposeStyle::Spaced | DecomposeStyle::Shielded => 3,
        }
    }
}

/// Decomposes a routed fat design into the differential design with
/// the baseline [`DecomposeStyle::Dense`] geometry.
///
/// The returned [`RoutedDesign`] references the *differential*
/// netlist of `sub`: every fat net's geometry becomes two parallel
/// rail wires, every compound cell placement is inherited by its
/// primitive gates, and the grid pitch returns to
/// [`GridPitch::Normal`].
///
/// # Errors
///
/// Returns [`DecomposeError`] if `fat_routed` was not routed at
/// [`GridPitch::Fat`], or routes a net that has no rail pair in `sub`.
pub fn decompose(
    fat_routed: &RoutedDesign,
    sub: &Substitution,
) -> Result<RoutedDesign, DecomposeError> {
    decompose_styled(fat_routed, sub, DecomposeStyle::Dense)
}

/// Decomposes a routed fat design with an explicit geometry style.
///
/// # Errors
///
/// Fails under the same conditions as [`decompose`].
pub fn decompose_styled(
    fat_routed: &RoutedDesign,
    sub: &Substitution,
    style: DecomposeStyle,
) -> Result<RoutedDesign, DecomposeError> {
    if fat_routed.placed.pitch != GridPitch::Fat {
        return Err(DecomposeError::NotFatPitch);
    }
    let pair_of: HashMap<NetId, (NetId, NetId)> =
        sub.pairs.iter().map(|p| (p.fat, (p.t, p.f))).collect();

    let fp = &fat_routed.placed;
    if fp.cells.len() != sub.fat.gate_count() {
        return Err(DecomposeError::CellCountMismatch {
            placed: fp.cells.len(),
            fat_gates: sub.fat.gate_count(),
        });
    }
    // Every pad net must split into a rail pair below; check up front
    // so a degenerate placement cannot panic the indexing.
    for &(net, _) in fp.input_pads.iter().chain(fp.output_pads.iter()) {
        if !pair_of.contains_key(&net) {
            return Err(DecomposeError::MissingRailPair {
                net: if net.index() < sub.fat.net_count() {
                    sub.fat.net(net).name.to_string()
                } else {
                    format!("{net}")
                },
            });
        }
    }
    let k = style.scale();
    let scale = |v: i32| v * k;
    let scale_point = |p: Point| Point::new(p.layer, scale(p.x), scale(p.y));
    let shift_point = |p: Point| Point::new(p.layer, scale(p.x) + 1, scale(p.y) + 1);
    // Shields go on *either side* of the pair (offsets -1 and +2); a
    // shield track shared with the neighbouring pair is deduplicated.
    let shield_points = |p: Point| {
        [
            Point::new(p.layer, scale(p.x) - 1, scale(p.y) - 1),
            Point::new(p.layer, scale(p.x) + 2, scale(p.y) + 2),
        ]
    };

    // Placement: each differential primitive inherits its compound's
    // (doubled) origin; exact in-compound offsets are irrelevant to
    // wire extraction, which uses explicit geometry.
    let cells: Vec<PlacedCell> = sub
        .diff_gate_fat
        .iter()
        .map(|&fg| {
            let c = fp.cells[fg.index()];
            PlacedCell {
                x: scale(c.x),
                row: c.row,
            }
        })
        .collect();

    let map_pads = |pads: &[(NetId, i32)]| -> Vec<(NetId, i32)> {
        pads.iter()
            .flat_map(|&(fat_net, y)| {
                let (t, f) = pair_of[&fat_net];
                [(t, scale(y)), (f, scale(y) + 1)]
            })
            .collect()
    };

    let placed = PlacedDesign {
        name: sub.differential.name.clone(),
        width: scale(fp.width),
        height: scale(fp.height),
        row_height: scale(fp.row_height),
        pitch: GridPitch::Normal,
        cells,
        input_pads: map_pads(&fp.input_pads),
        output_pads: map_pads(&fp.output_pads),
    };

    let mut nets = Vec::with_capacity(fat_routed.nets.len() * 2);
    let mut shield_segments: Vec<Segment> = Vec::new();
    let mut shield_seen: std::collections::HashSet<(u8, i32, i32, i32, i32)> =
        std::collections::HashSet::new();
    for rn in &fat_routed.nets {
        let (t, f) = *pair_of
            .get(&rn.net)
            .ok_or_else(|| DecomposeError::MissingRailPair {
                // The routed net id may not even exist in the fat
                // netlist; fall back to its raw id.
                net: if rn.net.index() < sub.fat.net_count() {
                    sub.fat.net(rn.net).name.to_string()
                } else {
                    format!("{}", rn.net)
                },
            })?;
        let seg_t: Vec<Segment> = rn
            .segments
            .iter()
            .map(|s| Segment::new(scale_point(s.a), scale_point(s.b)))
            .collect();
        let seg_f: Vec<Segment> = rn
            .segments
            .iter()
            .map(|s| Segment::new(shift_point(s.a), shift_point(s.b)))
            .collect();
        nets.push(RoutedNet {
            net: t,
            segments: seg_t,
        });
        nets.push(RoutedNet {
            net: f,
            segments: seg_f,
        });
        if style == DecomposeStyle::Shielded {
            // Grounded guard wires along both sides of the pair; vias
            // are skipped (the shield lives per layer) and tracks
            // shared with a neighbouring pair are emitted once.
            for s in rn.segments.iter().filter(|s| !s.is_via()) {
                for i in 0..2 {
                    let a = shield_points(s.a)[i];
                    let b = shield_points(s.b)[i];
                    let key = (a.layer, a.x, a.y, b.x, b.y);
                    if shield_seen.insert(key) {
                        shield_segments.push(Segment::new(a, b));
                    }
                }
            }
        }
    }
    if !shield_segments.is_empty() {
        nets.push(RoutedNet {
            net: sub.shield,
            segments: shield_segments,
        });
    }

    secflow_obs::add(secflow_obs::Counter::DecomposeRails, nets.len() as u64);
    Ok(RoutedDesign { placed, nets })
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_cells::Library;
    use secflow_netlist::{GateKind, Netlist};
    use secflow_pnr::{LAYER_H, LAYER_V};

    fn fixture() -> (Substitution, RoutedDesign) {
        let mut nl = Netlist::new("d");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_net("y");
        nl.add_gate("g0", "AND2", GateKind::Comb, vec![a, b], vec![y]);
        nl.mark_output(y);
        let sub = crate::substitute::substitute(&nl, &Library::lib180()).unwrap();

        let fat_y = sub.fat.net_by_name("y").unwrap();
        let fat_a = sub.fat.net_by_name("a").unwrap();
        let placed = PlacedDesign {
            name: "d_fat".into(),
            width: 30,
            height: 16,
            row_height: 8,
            pitch: GridPitch::Fat,
            cells: vec![PlacedCell { x: 4, row: 0 }],
            input_pads: vec![(fat_a, 2)],
            output_pads: vec![(fat_y, 3)],
        };
        let routed = RoutedDesign {
            placed,
            nets: vec![RoutedNet {
                net: fat_y,
                segments: vec![
                    Segment::new(Point::new(LAYER_H, 5, 4), Point::new(LAYER_H, 12, 4)),
                    Segment::new(Point::new(LAYER_H, 12, 4), Point::new(LAYER_V, 12, 4)),
                    Segment::new(Point::new(LAYER_V, 12, 4), Point::new(LAYER_V, 12, 9)),
                ],
            }],
        };
        (sub, routed)
    }

    #[test]
    fn rails_are_translated_copies() {
        let (sub, routed) = fixture();
        let d = decompose(&routed, &sub).unwrap();
        assert_eq!(d.placed.pitch, GridPitch::Normal);
        assert_eq!(d.nets.len(), 2);
        let t = &d.nets[0];
        let f = &d.nets[1];
        assert_eq!(t.segments.len(), f.segments.len());
        for (st, sf) in t.segments.iter().zip(&f.segments) {
            assert_eq!(sf.a.x - st.a.x, 1);
            assert_eq!(sf.a.y - st.a.y, 1);
            assert_eq!(sf.b.x - st.b.x, 1);
            assert_eq!(sf.b.y - st.b.y, 1);
            assert_eq!(st.a.layer, sf.a.layer);
        }
        // Same length on both rails — matched resistance.
        assert_eq!(t.wirelength(), f.wirelength());
    }

    #[test]
    fn geometry_is_doubled() {
        let (sub, routed) = fixture();
        let d = decompose(&routed, &sub).unwrap();
        let t = &d.nets[0];
        // Fat wire length 7 + 5 = 12 fat units -> 24 tracks.
        assert_eq!(t.wirelength(), 2 * routed.nets[0].wirelength());
        assert_eq!(d.placed.width, 60);
        assert_eq!(d.placed.height, 32);
    }

    #[test]
    fn pads_split_into_rail_pads() {
        let (sub, routed) = fixture();
        let d = decompose(&routed, &sub).unwrap();
        assert_eq!(d.placed.input_pads.len(), 2);
        let ys: Vec<i32> = d.placed.input_pads.iter().map(|&(_, y)| y).collect();
        assert_eq!(ys, vec![4, 5]);
    }

    #[test]
    fn rejects_normal_pitch_input() {
        let (sub, mut routed) = fixture();
        routed.placed.pitch = GridPitch::Normal;
        assert_eq!(
            decompose(&routed, &sub).unwrap_err(),
            DecomposeError::NotFatPitch
        );
    }

    #[test]
    fn foreign_net_is_typed_error() {
        let (sub, mut routed) = fixture();
        // Route a net id that does not exist in the fat netlist at
        // all — e.g. read from a corrupt DEF.
        routed.nets[0].net = NetId(9999);
        assert!(matches!(
            decompose(&routed, &sub).unwrap_err(),
            DecomposeError::MissingRailPair { .. }
        ));
    }

    #[test]
    fn decomposed_pair_extracts_with_zero_mismatch() {
        // End-to-end: decomposition + extraction => matched caps.
        let (sub, routed) = fixture();
        let d = decompose(&routed, &sub).unwrap();
        let tech = secflow_extract::Technology::default();
        let par = secflow_extract::extract(&d, &sub.differential, &tech);
        let pairs: Vec<(NetId, NetId)> = d.nets.chunks(2).map(|c| (c[0].net, c[1].net)).collect();
        let reports = secflow_extract::pair_mismatch(&par, &pairs);
        for r in reports {
            assert!(r.relative < 1e-9, "mismatch {}", r.relative);
        }
    }
}
