//! Per-net load and drive model.

use secflow_cells::{CellFunction, Library};
use secflow_extract::Parasitics;
use secflow_netlist::{NetId, Netlist};

use crate::error::SimError;

/// Default wire-load estimate (fF per sink) used before layout
/// parasitics exist.
const PRE_LAYOUT_WIRE_FF_PER_SINK: f64 = 1.5;

/// Load presented by an output pad driver on every primary-output net.
const OUTPUT_PAD_FF: f64 = 5.0;

/// Electrical context for simulation: effective switched capacitance
/// and drive resistance per net, plus coupling lists.
#[derive(Debug, Clone)]
pub struct LoadModel {
    /// Effective capacitance per net in fF: wire ground cap plus all
    /// static coupling cap plus sink pin caps.
    pub c_eff_ff: Vec<f64>,
    /// Drive resistance of each net's driver in kΩ (0 for undriven
    /// nets).
    pub drive_kohm: Vec<f64>,
    /// Coupling list per net: `(other net, fF)`.
    pub couplings: Vec<Vec<(NetId, f64)>>,
}

impl LoadModel {
    /// Builds the load model for `nl`, using extracted `parasitics`
    /// when available and a pre-layout wire-load estimate otherwise.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownCell`] if a gate references a cell missing
    /// from `lib`.
    pub fn try_build(
        nl: &Netlist,
        lib: &Library,
        parasitics: Option<&Parasitics>,
    ) -> Result<Self, SimError> {
        let n = nl.net_count();
        let mut c_eff = vec![0.0f64; n];
        let mut drive = vec![0.0f64; n];
        let mut couplings = vec![Vec::new(); n];
        let resolve = |gate: secflow_netlist::GateId| {
            let g = nl.gate(gate);
            lib.by_name(&g.cell).ok_or_else(|| SimError::UnknownCell {
                gate: g.name.to_string(),
                cell: g.cell.to_string(),
            })
        };

        for id in nl.net_ids() {
            let net = nl.net(id);
            let mut c = if nl.outputs().contains(&id) {
                OUTPUT_PAD_FF
            } else {
                0.0
            };
            for s in &net.sinks {
                let cell = resolve(s.gate)?;
                // Tie cells have no inputs; everything else has one
                // pin cap per input pin.
                if !matches!(cell.function(), CellFunction::Tie(_)) {
                    c += cell.pin_cap_ff(s.pin as usize);
                }
            }
            match parasitics {
                Some(p) => {
                    let np = p.net(id);
                    c += np.c_ground_ff;
                    c += np.couplings.iter().map(|&(_, cc)| cc).sum::<f64>();
                    couplings[id.index()] = np.couplings.clone();
                }
                None => {
                    c += PRE_LAYOUT_WIRE_FF_PER_SINK * net.sinks.len() as f64;
                }
            }
            c_eff[id.index()] = c;
            if let Some(d) = net.driver {
                drive[id.index()] = resolve(d.gate)?.drive_kohm();
            }
        }
        Ok(LoadModel {
            c_eff_ff: c_eff,
            drive_kohm: drive,
            couplings,
        })
    }

    /// Gate propagation delay in ps for the driver of `net`, using the
    /// linear delay model of `cell`.
    pub fn delay_ps(&self, intrinsic_ps: f64, drive_kohm: f64, net: NetId) -> f64 {
        intrinsic_ps + drive_kohm * self.c_eff_ff[net.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_netlist::GateKind;

    #[test]
    fn pin_caps_accumulate() {
        let lib = Library::lib180();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.add_gate("g0", "INV", GateKind::Comb, vec![a], vec![x]);
        nl.add_gate("g1", "AND2", GateKind::Comb, vec![x, a], vec![y]);
        let lm = LoadModel::try_build(&nl, &lib, None).unwrap();
        let and2_cap = lib.by_name("AND2").unwrap().pin_cap_ff(0);
        let inv_cap = lib.by_name("INV").unwrap().pin_cap_ff(0);
        // `a` feeds INV.A and AND2.B.
        let expect = inv_cap + and2_cap + 2.0 * PRE_LAYOUT_WIRE_FF_PER_SINK;
        assert!((lm.c_eff_ff[a.index()] - expect).abs() < 1e-9);
        // x is driven by INV.
        assert!((lm.drive_kohm[x.index()] - lib.by_name("INV").unwrap().drive_kohm()).abs() < 1e-9);
    }

    #[test]
    fn unconnected_net_has_zero_load() {
        let lib = Library::lib180();
        let mut nl = Netlist::new("t");
        let spare = nl.add_net("spare");
        let lm = LoadModel::try_build(&nl, &lib, None).unwrap();
        assert_eq!(lm.c_eff_ff[spare.index()], 0.0);
        assert_eq!(lm.drive_kohm[spare.index()], 0.0);
    }
}
