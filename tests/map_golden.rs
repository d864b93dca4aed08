//! Golden mapper digests: the content hash of the structural Verilog
//! that `map_design` writes for the DES designs and three synthetic
//! designs, each under four option sets.
//!
//! Mapping is a pure function of (design, library, options), so a
//! faster mapper must reproduce every digest exactly: the same cuts,
//! the same cover, the same gate and net names in the same order. A
//! drift means the mapper changed its *result*, not just its speed.
//! The values were recorded before the allocation-light mapper was
//! written; do not edit them to make a mapper change pass.

use std::collections::HashSet;

use secflow::cells::Library;
use secflow::crypto::bench_gen::synthetic_design;
use secflow::crypto::des_round::des_round_design;
use secflow::crypto::dpa_module::des_dpa_design;
use secflow::netlist::write_verilog;
use secflow::serve::ContentHash;
use secflow::synth::{map_design, Design, MapOptions};

/// The four option sets every design is mapped under, in the column
/// order of the pinned tables below.
fn option_sets() -> [MapOptions; 4] {
    let allowed: HashSet<String> = ["NAND2", "NOR2", "INV", "AOI21", "XOR2"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    [
        MapOptions::default(),
        MapOptions {
            cut_size: 4,
            cuts_per_node: 5,
            ..Default::default()
        },
        MapOptions {
            cut_size: 6,
            cuts_per_node: 12,
            ..Default::default()
        },
        MapOptions {
            allowed_cells: Some(allowed),
            ..Default::default()
        },
    ]
}

fn digests(design: &Design) -> Vec<String> {
    let lib = Library::lib180();
    option_sets()
        .iter()
        .map(|opts| {
            let nl = map_design(design, &lib, opts).expect("mappable");
            ContentHash::of(write_verilog(&nl).as_bytes()).to_hex()
        })
        .collect()
}

fn check(label: &str, design: &Design, want: [&str; 4]) {
    let got = digests(design);
    // Printed so a deliberate change is a copy-paste, not a bisection.
    eprintln!("{label} actual: {got:#?}");
    assert_eq!(got, want, "{label}: mapped Verilog drifted");
}

#[test]
fn des_dpa_design_maps_to_golden_verilog() {
    check(
        "des_dpa_design",
        &des_dpa_design(),
        [
            "820fc74d96d06115a9c59f084d9b0bad",
            "820fc74d96d06115a9c59f084d9b0bad",
            "820fc74d96d06115a9c59f084d9b0bad",
            "ea1f85056ea598e927dcedd1bdcb1b38",
        ],
    );
}

#[test]
fn des_round_design_maps_to_golden_verilog() {
    check(
        "des_round_design",
        &des_round_design(),
        [
            "128c79ca710d31a6666edff8beb7c681",
            "128c79ca710d31a6666edff8beb7c681",
            "128c79ca710d31a6666edff8beb7c681",
            "23f44f62ccdc9ea9443771d44d75205a",
        ],
    );
}

#[test]
fn synthetic_1500_16_1_maps_to_golden_verilog() {
    check(
        "synthetic (1500, 16, 1)",
        &synthetic_design("syn", 1500, 16, 1),
        [
            "fbe782245d2098a8cf65fd7ae08a6786",
            "16ea290bd10ec22f8654692ca4e16cfe",
            "6b7c15e114518717c6689f59b4423c96",
            "6d66e870d3eab6d890a0c50e0175d4de",
        ],
    );
}

#[test]
fn synthetic_1000_64_7_maps_to_golden_verilog() {
    check(
        "synthetic (1000, 64, 7)",
        &synthetic_design("syn", 1000, 64, 7),
        [
            "a08e84d376b341993e00ddd03bc6efd1",
            "ab9a1771c389a5628f56dcf533ff8685",
            "babda1bf7f5576d11e60b024d31fd204",
            "7c4a5a76f2f6db7f33d47c15f64ecdb0",
        ],
    );
}

#[test]
fn synthetic_5000_32_3_maps_to_golden_verilog() {
    check(
        "synthetic (5000, 32, 3)",
        &synthetic_design("syn", 5000, 32, 3),
        [
            "f0cb84c9fca92a018cca177be9267823",
            "7d05215484095e0d32125c4b4310a9d3",
            "7383898ce900099b1f6e6505b9b233eb",
            "3e53a8f2a8d8ec2a3fdfaaf338539007",
        ],
    );
}
