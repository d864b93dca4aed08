//! Structural validation of a netlist.

use std::collections::HashSet;

use crate::error::NetlistError;
use crate::graph::find_combinational_cycle;
use crate::netlist::Netlist;

impl Netlist {
    /// Checks the structural invariants a legal netlist must satisfy:
    ///
    /// * every net that feeds a gate or a primary output has exactly one
    ///   driver (a gate output or a primary input);
    /// * gate instance names are unique;
    /// * the combinational portion is acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first violation found as a [`NetlistError`].
    pub fn validate(&self) -> Result<(), NetlistError> {
        let input_set: HashSet<_> = self.inputs().iter().copied().collect();
        for id in self.net_ids() {
            let net = self.net(id);
            let used = !net.sinks.is_empty() || self.outputs().contains(&id);
            let driven = net.driver.is_some() || input_set.contains(&id);
            if used && !driven {
                return Err(NetlistError::NoDriver {
                    net: net.name.to_string(),
                });
            }
            if net.driver.is_some() && input_set.contains(&id) {
                return Err(NetlistError::MultipleDrivers {
                    net: net.name.to_string(),
                });
            }
        }
        let mut names = HashSet::new();
        for g in self.gates() {
            if !names.insert(g.name.as_str()) {
                return Err(NetlistError::DuplicateGateName {
                    name: g.name.to_string(),
                });
            }
        }
        if let Some(g) = find_combinational_cycle(self) {
            return Err(NetlistError::CombinationalCycle {
                gate: self.gate(g).name.to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::error::NetlistError;
    use crate::netlist::{GateKind, Netlist};

    #[test]
    fn valid_netlist_passes() {
        let mut nl = Netlist::new("ok");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        nl.add_gate("g0", "BUF", GateKind::Comb, vec![a], vec![y]);
        nl.mark_output(y);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn undriven_net_fails() {
        let mut nl = Netlist::new("bad");
        let float = nl.add_net("float");
        let y = nl.add_net("y");
        nl.add_gate("g0", "BUF", GateKind::Comb, vec![float], vec![y]);
        nl.mark_output(y);
        assert!(matches!(
            nl.validate(),
            Err(NetlistError::NoDriver { net }) if net == "float"
        ));
    }

    #[test]
    fn duplicate_gate_name_fails() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.add_gate("g", "BUF", GateKind::Comb, vec![a], vec![x]);
        nl.add_gate("g", "BUF", GateKind::Comb, vec![a], vec![y]);
        assert!(matches!(
            nl.validate(),
            Err(NetlistError::DuplicateGateName { .. })
        ));
    }

    #[test]
    fn cycle_fails() {
        let mut nl = Netlist::new("bad");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.add_gate("g0", "BUF", GateKind::Comb, vec![y], vec![x]);
        nl.add_gate("g1", "BUF", GateKind::Comb, vec![x], vec![y]);
        assert!(matches!(
            nl.validate(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn unused_undriven_net_is_fine() {
        let mut nl = Netlist::new("ok");
        nl.add_net("spare");
        assert!(nl.validate().is_ok());
    }
}
