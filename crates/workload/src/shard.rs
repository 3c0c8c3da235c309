//! Converts generated [`Flow`]s into the [`FlowSpec`]s the flow-sharded
//! runtime consumes.

use sdm_core::FlowSpec;

use crate::flows::Flow;

/// Converts generated flows into injection specs with a uniform per-packet
/// payload (the experiments use [`crate::WorkloadConfig::payload`]).
pub fn to_flow_specs(flows: &[Flow], payload: u32) -> Vec<FlowSpec> {
    flows
        .iter()
        .map(|f| FlowSpec {
            flow: f.five_tuple,
            packets: f.packets,
            payload,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{evaluation_policies, PolicyClassCounts};
    use crate::WorkloadConfig;
    use sdm_netsim::AddressPlan;
    use sdm_topology::campus::campus;

    fn flows(n: usize) -> Vec<Flow> {
        let plan = campus(1);
        let addrs = AddressPlan::new(&plan);
        let gp = evaluation_policies(&addrs, PolicyClassCounts::default(), 3);
        crate::generate_flows(&gp, &addrs, &WorkloadConfig { flows: n, ..Default::default() })
    }

    #[test]
    fn specs_carry_flow_identity_and_payload() {
        let fl = flows(20);
        let specs = to_flow_specs(&fl, 512);
        assert_eq!(specs.len(), fl.len());
        for (s, f) in specs.iter().zip(&fl) {
            assert_eq!(s.flow, f.five_tuple);
            assert_eq!(s.packets, f.packets);
            assert_eq!(s.payload, 512);
        }
    }
}
