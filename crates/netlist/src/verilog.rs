//! Reader and writer for a structural-Verilog-like exchange format.
//!
//! The paper's flow passes `rtl.v`, `fat.v` and the differential netlist
//! between tools as structural Verilog. This module reproduces that
//! interface with a deliberately small subset:
//!
//! ```verilog
//! module top (a, b, y);
//!   input a, b;
//!   output y;
//!   wire w1;
//!   AND2 u1 (.A(a), .B(b), .Y(w1));
//!   BUF  u2 (.A(w1), .Y(y));
//! endmodule
//! ```
//!
//! Pin naming is positional-by-convention: input pins are `A, B, C, D,
//! E, F, G, H` (then `I8, I9, ...`), the single data input of a
//! sequential cell is `D`, combinational outputs are `Y` (then `Y1,
//! Y2, ...`) and sequential outputs are `Q` (then `Q1, ...`).

use crate::error::NetlistError;
use crate::inline::InlineStr;
use crate::netlist::{GateKind, NetId, Netlist};

const INPUT_NAMES: [&str; 8] = ["A", "B", "C", "D", "E", "F", "G", "H"];

/// Returns the conventional name of input pin `idx` for a gate of
/// `kind`.
pub(crate) fn input_pin_name(kind: GateKind, idx: usize, n_inputs: usize) -> String {
    if kind == GateKind::Seq && n_inputs == 1 {
        return "D".to_string();
    }
    if idx < INPUT_NAMES.len() {
        INPUT_NAMES[idx].to_string()
    } else {
        format!("I{idx}")
    }
}

/// Returns the conventional name of output pin `idx` for a gate of
/// `kind`.
pub(crate) fn output_pin_name(kind: GateKind, idx: usize) -> String {
    let stem = if kind == GateKind::Seq { "Q" } else { "Y" };
    if idx == 0 {
        stem.to_string()
    } else {
        format!("{stem}{idx}")
    }
}

/// Serializes `nl` as structural Verilog.
pub fn write_verilog(nl: &Netlist) -> String {
    let mut s = String::new();
    let port_list: Vec<&str> = nl
        .inputs()
        .iter()
        .chain(nl.outputs().iter())
        .map(|&n| nl.net(n).name.as_str())
        .collect();
    s.push_str(&format!("module {} ({});\n", nl.name, port_list.join(", ")));
    for &i in nl.inputs() {
        s.push_str(&format!("  input {};\n", nl.net(i).name));
    }
    for &o in nl.outputs() {
        s.push_str(&format!("  output {};\n", nl.net(o).name));
    }
    for id in nl.net_ids() {
        if nl.inputs().contains(&id) || nl.outputs().contains(&id) {
            continue;
        }
        let net = nl.net(id);
        if net.driver.is_some() || !net.sinks.is_empty() {
            s.push_str(&format!("  wire {};\n", net.name));
        }
    }
    for g in nl.gates() {
        let mut conns = Vec::new();
        for (i, &n) in g.inputs.iter().enumerate() {
            conns.push(format!(
                ".{}({})",
                input_pin_name(g.kind, i, g.inputs.len()),
                nl.net(n).name
            ));
        }
        for (i, &n) in g.outputs.iter().enumerate() {
            conns.push(format!(
                ".{}({})",
                output_pin_name(g.kind, i),
                nl.net(n).name
            ));
        }
        s.push_str(&format!(
            "  {} {} ({});\n",
            g.cell,
            g.name,
            conns.join(", ")
        ));
    }
    s.push_str("endmodule\n");
    s
}

/// Parses the structural subset written by [`write_verilog`].
///
/// `seq_cells` lists the library cell names that must be treated as
/// sequential; everything else is combinational (tie cells are
/// recognized by the names `TIELO`/`TIEHI`).
///
/// The parsed netlist is [`Netlist::validate`]d before it is returned,
/// so a successful parse never yields a partially wired module
/// (truncated files surface as missing drivers or an unterminated
/// statement, not as a silently smaller netlist).
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on malformed input (including
/// duplicate net declarations and doubly driven nets), or the
/// underlying [`NetlistError`] when the completed netlist fails
/// validation.
pub fn parse_verilog(text: &str, seq_cells: &[&str]) -> Result<Netlist, NetlistError> {
    let mut nl = Netlist::new("parsed");
    let mut outputs: Vec<String> = Vec::new();
    /// One parsed instance: (line, cell, name, pin->net connections).
    type RawInstance = (usize, String, String, Vec<(String, String)>);
    let mut instances: Vec<RawInstance> = Vec::new();

    // First pass: declarations.
    let mut statements: Vec<(usize, String)> = Vec::new();
    let mut pending = String::new();
    let mut pending_line = 0usize;
    let mut saw_endmodule = false;
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.split("//").next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if pending.is_empty() {
            pending_line = ln + 1;
        }
        pending.push_str(line);
        pending.push(' ');
        if line.ends_with(';') || line.starts_with("endmodule") {
            statements.push((pending_line, pending.trim().to_string()));
            pending.clear();
        }
    }
    if !pending.trim().is_empty() {
        return Err(NetlistError::Parse {
            line: pending_line,
            message: format!(
                "unterminated statement `{}` (truncated file?)",
                pending.trim()
            ),
        });
    }

    for (ln, stmt) in &statements {
        let stmt = stmt.trim_end_matches(';').trim();
        if let Some(rest) = stmt.strip_prefix("module ") {
            let name = rest.split('(').next().unwrap_or("").trim();
            nl.name = name.to_string();
        } else if let Some(rest) = stmt.strip_prefix("input ") {
            for n in rest.split(',') {
                let n = n.trim();
                if n.is_empty() {
                    return Err(NetlistError::Parse {
                        line: *ln,
                        message: "empty input name".into(),
                    });
                }
                if nl.net_by_name(n).is_some() {
                    return Err(NetlistError::Parse {
                        line: *ln,
                        message: format!("duplicate declaration of net `{n}`"),
                    });
                }
                nl.add_input(n);
            }
        } else if let Some(rest) = stmt.strip_prefix("output ") {
            for n in rest.split(',') {
                let n = n.trim();
                if n.is_empty() {
                    return Err(NetlistError::Parse {
                        line: *ln,
                        message: "empty output name".into(),
                    });
                }
                if outputs.iter().any(|o| o == n) || nl.net_by_name(n).is_some() {
                    return Err(NetlistError::Parse {
                        line: *ln,
                        message: format!("duplicate declaration of net `{n}`"),
                    });
                }
                outputs.push(n.to_string());
            }
        } else if let Some(rest) = stmt.strip_prefix("wire ") {
            for n in rest.split(',') {
                let n = n.trim();
                if n.is_empty() {
                    return Err(NetlistError::Parse {
                        line: *ln,
                        message: "empty wire name".into(),
                    });
                }
                if nl.net_by_name(n).is_none() {
                    nl.add_net(n);
                }
            }
        } else if stmt == "endmodule" {
            saw_endmodule = true;
            break;
        } else {
            // Instance: CELL name ( .PIN(net), ... )
            let open = stmt.find('(').ok_or(NetlistError::Parse {
                line: *ln,
                message: "expected `(` in instance".into(),
            })?;
            let head: Vec<&str> = stmt[..open].split_whitespace().collect();
            if head.len() != 2 {
                return Err(NetlistError::Parse {
                    line: *ln,
                    message: format!("bad instance header `{}`", &stmt[..open]),
                });
            }
            let body = stmt[open + 1..].trim_end_matches(')');
            let mut conns = Vec::new();
            for part in body.split(',') {
                let part = part.trim();
                if part.is_empty() {
                    continue;
                }
                let part = part.strip_prefix('.').ok_or(NetlistError::Parse {
                    line: *ln,
                    message: format!("expected named connection, got `{part}`"),
                })?;
                let p_open = part.find('(').ok_or(NetlistError::Parse {
                    line: *ln,
                    message: format!("expected `(` in connection `{part}`"),
                })?;
                let pin = part[..p_open].trim().to_string();
                let net = part[p_open + 1..].trim_end_matches(')').trim().to_string();
                conns.push((pin, net));
            }
            instances.push((*ln, head[0].to_string(), head[1].to_string(), conns));
        }
    }
    if !saw_endmodule {
        return Err(NetlistError::Parse {
            line: statements.last().map_or(0, |(ln, _)| *ln),
            message: "missing `endmodule` (truncated file?)".into(),
        });
    }

    // Create output nets that were not also declared as wires/inputs,
    // capturing their ids here so net-id creation order stays: module
    // inputs, wires, output nets, then instance-created nets.
    let port_output_ids: Vec<_> = outputs
        .iter()
        .map(|name| match nl.net_by_name(name) {
            Some(id) => id,
            None => nl.add_net(name.clone()),
        })
        .collect();

    // Second pass: instances.
    for (ln, cell, inst, conns) in instances {
        let kind = if seq_cells.contains(&cell.as_str()) {
            GateKind::Seq
        } else if cell == "TIELO" || cell == "TIEHI" {
            GateKind::Tie
        } else {
            GateKind::Comb
        };
        let mut ins: Vec<(usize, String, NetId)> = Vec::new();
        let mut outs: Vec<(usize, String, NetId)> = Vec::new();
        for (pin, net) in conns {
            let id = match nl.net_by_name(&net) {
                Some(id) => id,
                None => nl.add_net(net.clone()),
            };
            let (is_out, idx) = classify_pin(&pin, kind).ok_or(NetlistError::Parse {
                line: ln,
                message: format!("unknown pin name `{pin}`"),
            })?;
            if is_out {
                outs.push((idx, net, id));
            } else {
                ins.push((idx, net, id));
            }
        }
        ins.sort();
        outs.sort();
        // `add_gate` asserts single drivers; turn violations into a
        // parse error up front so a corrupt file cannot panic.
        for (k, (_, net, id)) in outs.iter().enumerate() {
            if nl.net(*id).driver.is_some() || outs[..k].iter().any(|(_, _, prev)| prev == id) {
                return Err(NetlistError::Parse {
                    line: ln,
                    message: format!("net `{net}` already has a driver"),
                });
            }
        }
        let input_ids: Vec<NetId> = ins.into_iter().map(|(_, _, id)| id).collect();
        let output_ids: Vec<NetId> = outs.into_iter().map(|(_, _, id)| id).collect();
        nl.add_gate(inst, cell, kind, input_ids, output_ids);
    }

    for id in port_output_ids {
        nl.mark_output(id);
    }
    nl.validate()?;
    Ok(nl)
}

/// Maps a conventional pin name to (is_output, position). `D` is the
/// data pin of a sequential cell but the fourth input of a
/// combinational one.
fn classify_pin(pin: &str, kind: GateKind) -> Option<(bool, usize)> {
    match pin {
        "D" if kind == GateKind::Seq => return Some((false, 0)),
        "Y" | "Q" => return Some((true, 0)),
        _ => {}
    }
    if let Some(i) = INPUT_NAMES.iter().position(|&p| p == pin) {
        return Some((false, i));
    }
    if let Some(rest) = pin.strip_prefix('I') {
        return rest.parse::<usize>().ok().map(|i| (false, i));
    }
    if let Some(rest) = pin.strip_prefix('Y').or_else(|| pin.strip_prefix('Q')) {
        return rest.parse::<usize>().ok().map(|i| (true, i));
    }
    None
}

/// Checks that two netlists are structurally identical up to gate and
/// net ordering: same module name, ports, and the same multiset of
/// (cell, input-net-names, output-net-names) instances.
pub fn structurally_equal(a: &Netlist, b: &Netlist) -> bool {
    let sig = |nl: &Netlist| -> Vec<String> {
        let mut v: Vec<String> = nl
            .gates()
            .iter()
            .map(|g| {
                let ins: Vec<&str> = g.inputs.iter().map(|&n| nl.net(n).name.as_str()).collect();
                let outs: Vec<&str> = g.outputs.iter().map(|&n| nl.net(n).name.as_str()).collect();
                format!("{}|{}|{}", g.cell, ins.join(","), outs.join(","))
            })
            .collect();
        v.sort();
        v
    };
    let ports = |nl: &Netlist| -> (Vec<InlineStr>, Vec<InlineStr>) {
        (
            nl.inputs()
                .iter()
                .map(|&n| nl.net(n).name.clone())
                .collect(),
            nl.outputs()
                .iter()
                .map(|&n| nl.net(n).name.clone())
                .collect(),
        )
    };
    a.name == b.name && ports(a) == ports(b) && sig(a) == sig(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{GateKind, Netlist};

    fn sample() -> Netlist {
        let mut nl = Netlist::new("top");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let w = nl.add_net("w1");
        let q = nl.add_net("q");
        nl.add_gate("u1", "AND2", GateKind::Comb, vec![a, b], vec![w]);
        nl.add_gate("u2", "DFF", GateKind::Seq, vec![w], vec![q]);
        nl.mark_output(q);
        nl
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let nl = sample();
        let text = write_verilog(&nl);
        let parsed = parse_verilog(&text, &["DFF"]).unwrap();
        assert!(structurally_equal(&nl, &parsed));
        assert!(parsed.validate().is_ok());
    }

    #[test]
    fn writer_emits_expected_syntax() {
        let text = write_verilog(&sample());
        assert!(text.contains("module top (a, b, q);"));
        assert!(text.contains("AND2 u1 (.A(a), .B(b), .Y(w1));"));
        assert!(text.contains("DFF u2 (.D(w1), .Q(q));"));
        assert!(text.ends_with("endmodule\n"));
    }

    #[test]
    fn parse_error_reports_line() {
        let bad = "module x (a);\n  input a;\n  AND2 u1 u2 (.A(a));\nendmodule\n";
        let err = parse_verilog(bad, &[]).unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 3, .. }));
    }

    #[test]
    fn multiline_instance_parses() {
        let text =
            "module m (a, y);\n input a;\n output y;\n BUF u1 (.A(a),\n   .Y(y));\nendmodule\n";
        let nl = parse_verilog(text, &[]).unwrap();
        assert_eq!(nl.gate_count(), 1);
        assert_eq!(nl.gate(crate::netlist::GateId(0)).cell, "BUF");
    }

    #[test]
    fn comments_are_stripped() {
        let text = "// header\nmodule m (a, y); // ports\n input a;\n output y;\n BUF u1 (.A(a), .Y(y));\nendmodule\n";
        let nl = parse_verilog(text, &[]).unwrap();
        assert_eq!(nl.name, "m");
        assert_eq!(nl.gate_count(), 1);
    }

    #[test]
    fn truncated_statement_is_parse_error() {
        // The final instance statement is missing its terminator.
        let bad = "module m (a, y);\n input a;\n output y;\n BUF u1 (.A(a), .Y(y)\n";
        let err = parse_verilog(bad, &[]).unwrap_err();
        assert!(matches!(err, NetlistError::Parse { .. }), "{err}");
    }

    #[test]
    fn missing_endmodule_is_parse_error() {
        let bad = "module m (a, y);\n input a;\n output y;\n BUF u1 (.A(a), .Y(y));\n";
        let err = parse_verilog(bad, &[]).unwrap_err();
        assert!(matches!(err, NetlistError::Parse { .. }), "{err}");
    }

    #[test]
    fn duplicate_input_is_parse_error() {
        let bad = "module m (a, a);\n input a, a;\nendmodule\n";
        let err = parse_verilog(bad, &[]).unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn doubly_driven_net_is_parse_error() {
        let bad = "module m (a, y);\n input a;\n output y;\n BUF u1 (.A(a), .Y(y));\n BUF u2 (.A(a), .Y(y));\nendmodule\n";
        let err = parse_verilog(bad, &[]).unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 5, .. }), "{err}");
    }

    #[test]
    fn undriven_output_fails_validation() {
        let bad = "module m (a, y);\n input a;\n output y;\nendmodule\n";
        let err = parse_verilog(bad, &[]).unwrap_err();
        assert!(matches!(err, NetlistError::NoDriver { .. }), "{err}");
    }

    #[test]
    fn structural_equality_detects_difference() {
        let a = sample();
        let mut b = sample();
        let x = b.add_net("x");
        let w = b.net_by_name("w1").unwrap();
        b.add_gate("u3", "INV", GateKind::Comb, vec![w], vec![x]);
        assert!(!structurally_equal(&a, &b));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::netlist::{GateKind, Netlist};

    /// Any randomly wired netlist survives the Verilog round trip.
    #[test]
    fn verilog_round_trips_random_netlists() {
        secflow_testkit::prop_check!(cases: 32, seed: 0x7E11_0001, |g| {
            let n_inputs = g.random_range(1..6usize);
            let gates = g.vec_with(1..30, |g| {
                (
                    g.random_range(0..6u8),
                    g.random::<u16>(),
                    g.random::<u16>(),
                    g.random::<u16>(),
                    g.random::<bool>(),
                )
            });
            let mut nl = Netlist::new("rand");
            let mut nets: Vec<_> = (0..n_inputs)
                .map(|i| nl.add_input(format!("in{i}")))
                .collect();
            for (gi, (cell_pick, a, b, c, seq)) in gates.iter().enumerate() {
                let out = nl.add_net(format!("n{gi}"));
                let pick = |v: u16, nets: &Vec<_>| nets[v as usize % nets.len()];
                if *seq {
                    nl.add_gate(
                        format!("r{gi}"),
                        "DFF",
                        GateKind::Seq,
                        vec![pick(*a, &nets)],
                        vec![out],
                    );
                } else {
                    let (cell, n_in) = match cell_pick % 5 {
                        0 => ("INV", 1),
                        1 => ("NAND2", 2),
                        2 => ("NOR2", 2),
                        3 => ("AOI21", 3),
                        _ => ("NAND4", 4),
                    };
                    let srcs = [*a, *b, *c, a ^ b];
                    let ins: Vec<NetId> = (0..n_in).map(|i| pick(srcs[i], &nets)).collect();
                    nl.add_gate(format!("g{gi}"), cell, GateKind::Comb, ins, vec![out]);
                }
                nets.push(out);
            }
            nl.mark_output(*nets.last().expect("nets"));
            assert!(nl.validate().is_ok());

            let text = write_verilog(&nl);
            let parsed = parse_verilog(&text, &["DFF"]).expect("parse");
            assert!(structurally_equal(&nl, &parsed));
            assert!(parsed.validate().is_ok());
        });
    }
}
