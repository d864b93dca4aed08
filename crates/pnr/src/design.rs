//! The DEF-like design database: placed components and routed nets,
//! with a text writer/reader for the `fat.def` / `diff.def` flow
//! artifacts.

use secflow_cells::Library;
use secflow_netlist::{GateId, NetId, Netlist, NetlistError};

use crate::grid::{GridPitch, Point, Segment, LAYER_H, LAYER_V};

/// A placed gate instance: grid-unit origin column and row index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedCell {
    /// Origin column in grid units.
    pub x: i32,
    /// Row index (row 0 at the bottom).
    pub row: u32,
}

/// A placed design: one [`PlacedCell`] per gate of the netlist, on a
/// grid of `width × height` units.
///
/// In fat mode ([`GridPitch::Fat`]) one grid unit is two routing
/// tracks; the same integer geometry then describes the double-pitch
/// fat design, and physical track coordinates are obtained by
/// multiplying by [`GridPitch::tracks`].
#[derive(Debug, Clone)]
pub struct PlacedDesign {
    /// Design name (module name of the placed netlist).
    pub name: String,
    /// Grid width in grid units.
    pub width: i32,
    /// Grid height in grid units.
    pub height: i32,
    /// Row height in grid units.
    pub row_height: i32,
    /// Pitch of one grid unit.
    pub pitch: GridPitch,
    /// Placement per gate, indexed by [`GateId`].
    pub cells: Vec<PlacedCell>,
    /// Pad rows for primary-input nets on the left die edge:
    /// `(net, y)`.
    pub input_pads: Vec<(NetId, i32)>,
    /// Pad rows for primary-output nets on the right die edge.
    pub output_pads: Vec<(NetId, i32)>,
}

impl PlacedDesign {
    /// The grid-point access location of a gate pin: the pin's track
    /// within the cell, at the vertical center of the cell's row.
    ///
    /// # Panics
    ///
    /// Panics if the gate's cell is not in `lib` or the pin index is
    /// out of range.
    pub fn pin_point(
        &self,
        nl: &Netlist,
        lib: &Library,
        gate: GateId,
        pin: usize,
        is_output: bool,
    ) -> (i32, i32) {
        let g = nl.gate(gate);
        let mac = lib
            .by_name(&g.cell)
            .unwrap_or_else(|| panic!("unknown cell `{}`", g.cell))
            .physical();
        let off = if is_output {
            mac.output_pin_tracks[pin]
        } else {
            mac.input_pin_tracks[pin]
        };
        let pc = self.cells[gate.index()];
        let x = pc.x + off as i32;
        let y = pc.row as i32 * self.row_height + self.row_height / 2;
        (x, y)
    }

    /// The grid-point locations of every pin of `net`: the driver
    /// first (if any), then the sinks. Primary-input nets without a
    /// driver get a pseudo-pin on the left die edge at mid height;
    /// primary outputs similarly attach on the right edge.
    pub fn net_pins(&self, nl: &Netlist, lib: &Library, net: NetId) -> Vec<(i32, i32)> {
        let rec = nl.net(net);
        let mut pins = Vec::with_capacity(rec.sinks.len() + 1);
        match rec.driver {
            Some(d) => pins.push(self.pin_point(nl, lib, d.gate, d.pin as usize, true)),
            None => {
                // Primary input: enters at its left-edge pad.
                if let Some(&(_, y)) = self.input_pads.iter().find(|(n, _)| *n == net) {
                    pins.push((0, y));
                }
            }
        }
        for s in &rec.sinks {
            pins.push(self.pin_point(nl, lib, s.gate, s.pin as usize, false));
        }
        if let Some(&(_, y)) = self.output_pads.iter().find(|(n, _)| *n == net) {
            pins.push((self.width - 1, y));
        }
        pins
    }

    /// Half-perimeter wirelength of one net in grid units.
    pub fn net_hpwl(&self, nl: &Netlist, lib: &Library, net: NetId) -> i64 {
        bbox_hpwl(&self.net_pins(nl, lib, net))
    }

    /// Total half-perimeter wirelength over all nets, in grid units.
    pub fn total_hpwl(&self, nl: &Netlist, lib: &Library) -> i64 {
        nl.net_ids().map(|n| self.net_hpwl(nl, lib, n)).sum()
    }
}

/// Half-perimeter of the bounding box of `pins` (0 for fewer than two
/// pins).
pub(crate) fn bbox_hpwl(pins: &[(i32, i32)]) -> i64 {
    if pins.len() < 2 {
        return 0;
    }
    let (mut x0, mut x1, mut y0, mut y1) = (i32::MAX, i32::MIN, i32::MAX, i32::MIN);
    for &(x, y) in pins {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    i64::from(x1 - x0) + i64::from(y1 - y0)
}

/// One routed net: a list of wire segments and vias forming a
/// connected tree over the net's pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedNet {
    /// The net this geometry belongs to.
    pub net: NetId,
    /// Merged wire segments and vias.
    pub segments: Vec<Segment>,
}

impl RoutedNet {
    /// Total wire length in grid units (vias excluded).
    pub fn wirelength(&self) -> i64 {
        self.segments.iter().map(|s| i64::from(s.len())).sum()
    }

    /// Number of vias.
    pub fn via_count(&self) -> usize {
        self.segments.iter().filter(|s| s.is_via()).count()
    }
}

/// A fully placed and routed design — the in-memory `*.def`.
#[derive(Debug, Clone)]
pub struct RoutedDesign {
    /// The placement this routing was computed on.
    pub placed: PlacedDesign,
    /// Routed geometry per net (nets with fewer than two pins are
    /// omitted).
    pub nets: Vec<RoutedNet>,
}

impl RoutedDesign {
    /// Total routed wirelength in grid units.
    pub fn total_wirelength(&self) -> i64 {
        self.nets.iter().map(RoutedNet::wirelength).sum()
    }

    /// Total via count.
    pub fn total_vias(&self) -> usize {
        self.nets.iter().map(RoutedNet::via_count).sum()
    }
}

/// Serializes a routed design in the DEF-like text format.
pub fn write_def(design: &RoutedDesign, nl: &Netlist) -> String {
    let p = &design.placed;
    let mut s = String::new();
    s.push_str(&format!("DESIGN {} ;\n", p.name));
    s.push_str(&format!(
        "PITCH {} ;\n",
        match p.pitch {
            GridPitch::Normal => "NORMAL",
            GridPitch::Fat => "FAT",
        }
    ));
    s.push_str(&format!(
        "DIEAREA 0 0 {} {} ROWHEIGHT {} ;\n",
        p.width, p.height, p.row_height
    ));
    s.push_str(&format!("COMPONENTS {} ;\n", p.cells.len()));
    for gid in nl.gate_ids() {
        let g = nl.gate(gid);
        let c = p.cells[gid.index()];
        s.push_str(&format!("- {} {} {} {} ;\n", g.name, g.cell, c.x, c.row));
    }
    s.push_str("END COMPONENTS\n");
    s.push_str("PINS ;\n");
    for &(n, y) in &p.input_pads {
        s.push_str(&format!("- IN {} {} ;\n", nl.net(n).name, y));
    }
    for &(n, y) in &p.output_pads {
        s.push_str(&format!("- OUT {} {} ;\n", nl.net(n).name, y));
    }
    s.push_str("END PINS\n");
    s.push_str(&format!("NETS {} ;\n", design.nets.len()));
    for rn in &design.nets {
        s.push_str(&format!("- {} ;\n", nl.net(rn.net).name));
        for seg in &rn.segments {
            if seg.is_via() {
                s.push_str(&format!(
                    "  VIA {} {} {} {} ;\n",
                    seg.a.x, seg.a.y, seg.a.layer, seg.b.layer
                ));
            } else {
                s.push_str(&format!(
                    "  SEG L{} {} {} {} {} ;\n",
                    seg.a.layer, seg.a.x, seg.a.y, seg.b.x, seg.b.y
                ));
            }
        }
    }
    s.push_str("END NETS\nEND DESIGN\n");
    s
}

/// Parses the DEF-like format written by [`write_def`], resolving
/// instance and net names against `nl`.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on malformed input or unknown
/// names.
pub fn parse_def(text: &str, nl: &Netlist) -> Result<RoutedDesign, NetlistError> {
    let err = |line: usize, message: String| NetlistError::Parse { line, message };
    let mut name = String::new();
    let mut pitch = GridPitch::Normal;
    let (mut width, mut height, mut row_height) = (0i32, 0i32, 8i32);
    let mut cells = vec![PlacedCell { x: 0, row: 0 }; nl.gate_count()];
    let mut nets: Vec<RoutedNet> = Vec::new();
    let mut input_pads: Vec<(NetId, i32)> = Vec::new();
    let mut output_pads: Vec<(NetId, i32)> = Vec::new();
    let mut in_components = false;
    let mut in_pins = false;
    let mut in_nets = false;

    let gate_by_name: std::collections::HashMap<&str, GateId> = nl
        .gate_ids()
        .map(|g| (nl.gate(g).name.as_str(), g))
        .collect();

    for (ln0, raw) in text.lines().enumerate() {
        let ln = ln0 + 1;
        let line = raw.trim().trim_end_matches(';').trim();
        if line.is_empty() {
            continue;
        }
        let tok: Vec<&str> = line.split_whitespace().collect();
        match tok[0] {
            "DESIGN" => name = tok.get(1).unwrap_or(&"").to_string(),
            "PITCH" => {
                pitch = match tok.get(1) {
                    Some(&"FAT") => GridPitch::Fat,
                    Some(&"NORMAL") => GridPitch::Normal,
                    other => return Err(err(ln, format!("bad pitch {other:?}"))),
                }
            }
            "DIEAREA" => {
                if tok.len() < 7 {
                    return Err(err(ln, "short DIEAREA".into()));
                }
                width = tok[3].parse().map_err(|e| err(ln, format!("{e}")))?;
                height = tok[4].parse().map_err(|e| err(ln, format!("{e}")))?;
                row_height = tok[6].parse().map_err(|e| err(ln, format!("{e}")))?;
            }
            "COMPONENTS" => in_components = true,
            "PINS" => {
                in_components = false;
                in_pins = true;
            }
            "NETS" => {
                in_components = false;
                in_pins = false;
                in_nets = true;
            }
            "END" => {
                if tok.get(1) == Some(&"COMPONENTS") {
                    in_components = false;
                } else if tok.get(1) == Some(&"PINS") {
                    in_pins = false;
                } else if tok.get(1) == Some(&"NETS") {
                    in_nets = false;
                }
            }
            "-" if in_pins => {
                if tok.len() < 4 {
                    return Err(err(ln, "short pin".into()));
                }
                let net = nl
                    .net_by_name(tok[2])
                    .ok_or_else(|| err(ln, format!("unknown pad net `{}`", tok[2])))?;
                let y: i32 = tok[3].parse().map_err(|e| err(ln, format!("{e}")))?;
                if tok[1] == "IN" {
                    input_pads.push((net, y));
                } else {
                    output_pads.push((net, y));
                }
            }
            "-" if in_components => {
                if tok.len() < 5 {
                    return Err(err(ln, "short component".into()));
                }
                let gid = gate_by_name
                    .get(tok[1])
                    .ok_or_else(|| err(ln, format!("unknown instance `{}`", tok[1])))?;
                cells[gid.index()] = PlacedCell {
                    x: tok[3].parse().map_err(|e| err(ln, format!("{e}")))?,
                    row: tok[4].parse().map_err(|e| err(ln, format!("{e}")))?,
                };
            }
            "-" if in_nets => {
                let net = nl
                    .net_by_name(tok[1])
                    .ok_or_else(|| err(ln, format!("unknown net `{}`", tok[1])))?;
                nets.push(RoutedNet {
                    net,
                    segments: Vec::new(),
                });
            }
            "SEG" if in_nets => {
                let rn = nets
                    .last_mut()
                    .ok_or_else(|| err(ln, "SEG before net header".into()))?;
                if tok.len() < 6 {
                    return Err(err(ln, "short SEG".into()));
                }
                let layer = match tok[1] {
                    "H" => LAYER_H,
                    "V" => LAYER_V,
                    other => other
                        .strip_prefix('L')
                        .and_then(|n| n.parse::<u8>().ok())
                        .ok_or_else(|| err(ln, format!("bad layer `{other}`")))?,
                };
                let c: Vec<i32> = tok[2..6]
                    .iter()
                    .map(|t| t.parse().map_err(|e| err(ln, format!("{e}"))))
                    .collect::<Result<_, _>>()?;
                rn.segments.push(Segment::new(
                    Point::new(layer, c[0], c[1]),
                    Point::new(layer, c[2], c[3]),
                ));
            }
            "VIA" if in_nets => {
                let rn = nets
                    .last_mut()
                    .ok_or_else(|| err(ln, "VIA before net header".into()))?;
                let x: i32 = tok[1].parse().map_err(|e| err(ln, format!("{e}")))?;
                let y: i32 = tok[2].parse().map_err(|e| err(ln, format!("{e}")))?;
                let la: u8 = tok.get(3).and_then(|t| t.parse().ok()).unwrap_or(LAYER_H);
                let lb: u8 = tok.get(4).and_then(|t| t.parse().ok()).unwrap_or(LAYER_V);
                rn.segments
                    .push(Segment::new(Point::new(la, x, y), Point::new(lb, x, y)));
            }
            _ => return Err(err(ln, format!("unexpected token `{}`", tok[0]))),
        }
    }

    Ok(RoutedDesign {
        placed: PlacedDesign {
            name,
            width,
            height,
            row_height,
            pitch,
            cells,
            input_pads,
            output_pads,
        },
        nets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_netlist::GateKind;

    fn tiny() -> (Netlist, RoutedDesign) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_net("y");
        nl.add_gate("g0", "AND2", GateKind::Comb, vec![a, b], vec![y]);
        nl.mark_output(y);
        let placed = PlacedDesign {
            name: "t".into(),
            width: 20,
            height: 16,
            row_height: 8,
            pitch: GridPitch::Fat,
            cells: vec![PlacedCell { x: 3, row: 1 }],
            input_pads: vec![(a, 0), (b, 1)],
            output_pads: vec![(y, 0)],
        };
        let nets = vec![RoutedNet {
            net: y,
            segments: vec![
                Segment::new(Point::new(LAYER_H, 7, 12), Point::new(LAYER_H, 12, 12)),
                Segment::new(Point::new(LAYER_H, 12, 12), Point::new(LAYER_V, 12, 12)),
                Segment::new(Point::new(LAYER_V, 12, 12), Point::new(LAYER_V, 12, 4)),
            ],
        }];
        (nl, RoutedDesign { placed, nets })
    }

    #[test]
    fn def_roundtrip() {
        let (nl, d) = tiny();
        let text = write_def(&d, &nl);
        let parsed = parse_def(&text, &nl).unwrap();
        assert_eq!(parsed.placed.pitch, GridPitch::Fat);
        assert_eq!(parsed.placed.cells, d.placed.cells);
        assert_eq!(parsed.nets, d.nets);
        assert_eq!(parsed.placed.width, 20);
    }

    #[test]
    fn wirelength_and_vias() {
        let (_, d) = tiny();
        assert_eq!(d.total_wirelength(), 5 + 8);
        assert_eq!(d.total_vias(), 1);
    }

    #[test]
    fn parse_rejects_unknown_instance() {
        let (nl, d) = tiny();
        let text = write_def(&d, &nl).replace("- g0 ", "- gX ");
        assert!(parse_def(&text, &nl).is_err());
    }

    #[test]
    fn hpwl_is_bounding_box() {
        let (nl, d) = tiny();
        let lib = Library::lib180();
        let y = nl.net_by_name("y").unwrap();
        // Driver pin at cell x=3 + AND2 output pin offset, row 1 center.
        let hp = d.placed.net_hpwl(&nl, &lib, y);
        assert!(hp > 0);
    }

    #[test]
    fn pin_point_uses_macro_offsets() {
        let (nl, d) = tiny();
        let lib = Library::lib180();
        let (x, y) = d.placed.pin_point(&nl, &lib, GateId(0), 0, true);
        let mac = lib.by_name("AND2").unwrap().physical();
        assert_eq!(x, 3 + mac.output_pin_tracks[0] as i32);
        assert_eq!(y, 12);
    }

    use secflow_netlist::GateId;
}
