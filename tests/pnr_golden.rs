//! Golden layout digests: the placed cells, routed geometry and QoR of
//! the DES module through both flows at `FlowOptions::default()`, at
//! placement seeds 1 and 7.
//!
//! Placement and routing are pure functions of (netlist, options), so
//! a faster annealer or router must reproduce these digests exactly. A
//! drift means place & route changed *results*, not just speed.
//! Regenerate only for a deliberate algorithm change, by copying the
//! printed actuals.

use secflow::cells::Library;
use secflow::crypto::dpa_module::des_dpa_design;
use secflow::flow::{run_regular_flow, run_secure_flow, FlowOptions};
use secflow::obs::{self, Counter};
use secflow::pnr::{PlacedDesign, RoutedDesign};
use secflow::serve::ContentHash;

/// Everything the golden pins for one flow run.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    /// Die size, pads and every placed cell.
    placed: String,
    /// Every routed net of the (fat) routed design.
    routed: String,
    /// Every net of the decomposed differential design (secure only).
    decomposed: Option<String>,
    wirelength_tracks: i64,
    vias: usize,
    critical_path_bits: u64,
    mean_pair_mismatch_bits: Option<u64>,
    place_moves: u64,
    place_accepted: u64,
    route_ripups: u64,
    route_iterations: u64,
}

fn push_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn placed_hash(p: &PlacedDesign) -> String {
    let mut buf = Vec::new();
    for v in [p.width, p.height, p.row_height, p.pitch.tracks()] {
        push_i64(&mut buf, i64::from(v));
    }
    for c in &p.cells {
        push_i64(&mut buf, i64::from(c.x));
        push_i64(&mut buf, i64::from(c.row));
    }
    for pads in [&p.input_pads, &p.output_pads] {
        push_i64(&mut buf, pads.len() as i64);
        for &(n, y) in pads {
            push_i64(&mut buf, i64::from(n.0));
            push_i64(&mut buf, i64::from(y));
        }
    }
    ContentHash::of(&buf).to_hex()
}

fn routed_hash(d: &RoutedDesign) -> String {
    let mut buf = Vec::new();
    push_i64(&mut buf, d.nets.len() as i64);
    for rn in &d.nets {
        push_i64(&mut buf, i64::from(rn.net.0));
        push_i64(&mut buf, rn.segments.len() as i64);
        for s in &rn.segments {
            for p in [s.a, s.b] {
                push_i64(&mut buf, i64::from(p.layer));
                push_i64(&mut buf, i64::from(p.x));
                push_i64(&mut buf, i64::from(p.y));
            }
        }
    }
    ContentHash::of(&buf).to_hex()
}

fn options(seed: u64) -> FlowOptions {
    FlowOptions {
        seed,
        ..Default::default()
    }
}

fn regular_digest(seed: u64) -> Digest {
    let (result, report) =
        obs::capture(|| run_regular_flow(&des_dpa_design(), &Library::lib180(), &options(seed)));
    let r = result.expect("regular flow");
    Digest {
        placed: placed_hash(&r.routed.placed),
        routed: routed_hash(&r.routed),
        decomposed: None,
        wirelength_tracks: r.report.wirelength_tracks,
        vias: r.report.vias,
        critical_path_bits: r.report.critical_path_ps.to_bits(),
        mean_pair_mismatch_bits: r.report.mean_pair_mismatch.map(f64::to_bits),
        place_moves: report.counter(Counter::PlaceMoves),
        place_accepted: report.counter(Counter::PlaceAccepted),
        route_ripups: report.counter(Counter::RouteRipups),
        route_iterations: report.counter(Counter::RouteIterations),
    }
}

fn secure_digest(seed: u64) -> Digest {
    let (result, report) =
        obs::capture(|| run_secure_flow(&des_dpa_design(), &Library::lib180(), &options(seed)));
    let s = result.expect("secure flow");
    Digest {
        placed: placed_hash(&s.fat_routed.placed),
        routed: routed_hash(&s.fat_routed),
        decomposed: Some(routed_hash(&s.decomposed)),
        wirelength_tracks: s.report.wirelength_tracks,
        vias: s.report.vias,
        critical_path_bits: s.report.critical_path_ps.to_bits(),
        mean_pair_mismatch_bits: s.report.mean_pair_mismatch.map(f64::to_bits),
        place_moves: report.counter(Counter::PlaceMoves),
        place_accepted: report.counter(Counter::PlaceAccepted),
        route_ripups: report.counter(Counter::RouteRipups),
        route_iterations: report.counter(Counter::RouteIterations),
    }
}

fn check(label: &str, got: Digest, want: Digest) {
    // Printed so regeneration after a deliberate change is a
    // copy-paste, not a bisection.
    eprintln!("{label} actual: {got:#?}");
    assert_eq!(got, want, "{label}: layout digest drifted");
}

#[test]
fn regular_flow_layout_seed_1() {
    check(
        "regular seed 1",
        regular_digest(1),
        Digest {
            placed: "3acd755c097bc0b7013d1a08adbc44d1".into(),
            routed: "cd1a1ac8efb70a7d7c710f5f2ce4b8ee".into(),
            decomposed: None,
            wirelength_tracks: 12629,
            vias: 1407,
            critical_path_bits: 4655675364623698938,
            mean_pair_mismatch_bits: None,
            place_moves: 28400,
            place_accepted: 1250,
            route_ripups: 143,
            route_iterations: 4,
        },
    );
}

#[test]
fn regular_flow_layout_seed_7() {
    check(
        "regular seed 7",
        regular_digest(7),
        Digest {
            placed: "6d2764a4b9bf0423d6de3231dadc072e".into(),
            routed: "72d03752cb3629ec01d1a451a9d8827e".into(),
            decomposed: None,
            wirelength_tracks: 12909,
            vias: 1402,
            critical_path_bits: 4655780299594528301,
            mean_pair_mismatch_bits: None,
            place_moves: 28400,
            place_accepted: 1283,
            route_ripups: 179,
            route_iterations: 6,
        },
    );
}

#[test]
fn secure_flow_layout_seed_1() {
    check(
        "secure seed 1",
        secure_digest(1),
        Digest {
            placed: "138e3fe6668a6507ce061b6b3ac2bb5c".into(),
            routed: "9c880f757bd14f249cafd82adc4ea10b".into(),
            decomposed: Some("87524c0976fe94be4157a26d977fc1d2".into()),
            wirelength_tracks: 42920,
            vias: 2098,
            critical_path_bits: 4657312470257296949,
            mean_pair_mismatch_bits: Some(4590308738740932673),
            place_moves: 18700,
            place_accepted: 999,
            route_ripups: 98,
            route_iterations: 5,
        },
    );
}

#[test]
fn secure_flow_layout_seed_7() {
    check(
        "secure seed 7",
        secure_digest(7),
        Digest {
            placed: "f82e7674abc84bc2c0a966b01233a0a6".into(),
            routed: "f5233bf8a80a46c81d294adc30cbc9a7".into(),
            decomposed: Some("6c1fa208172e968c64be5f2f1449a8fa".into()),
            wirelength_tracks: 42188,
            vias: 2104,
            critical_path_bits: 4656898422325774178,
            mean_pair_mismatch_bits: Some(4590888137529978021),
            place_moves: 18700,
            place_accepted: 996,
            route_ripups: 80,
            route_iterations: 3,
        },
    );
}
