//! The simulated network between the mediator and the data sources.
//!
//! Paper §6: "The total evaluation time was computed by simulating the
//! transfer of temporary tables among the distributed data sources, i.e.,
//! the mediator and different databases, using different bandwidths." This
//! module is that simulation: `trans_cost(S1, S2, B)` from §5.2, with data
//! between two non-mediator sources routed *via* the mediator.

use aig_relstore::SourceId;

/// Bandwidth/latency model of the mediator's links to the sources.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    /// Link bandwidth in bytes per second (each source ↔ mediator link).
    pub bandwidth_bytes_per_sec: f64,
    /// Per-transfer latency in seconds (connection setup, framing).
    pub latency_secs: f64,
    /// Per-byte cost of materializing a received input as a temporary table
    /// at the consuming engine (§5.1: "temporary tables may have to be
    /// created and populated with inputs to a query"). Query merging saves
    /// this whenever it internalizes an edge.
    pub temp_load_secs_per_byte: f64,
}

impl NetworkModel {
    /// A model with the given bandwidth in megabits per second. The paper's
    /// headline experiment (Fig. 10) uses 1 Mbps.
    pub fn mbps(megabits: f64) -> NetworkModel {
        NetworkModel {
            bandwidth_bytes_per_sec: megabits * 125_000.0,
            latency_secs: 0.001,
            // ~100 kB/s temp-table population (row-at-a-time inserts through a
            // 2003-era client interface, ~2k rows/s).
            temp_load_secs_per_byte: 1e-5,
        }
    }

    /// An effectively infinite network (for isolating computation costs).
    pub fn infinite() -> NetworkModel {
        NetworkModel {
            bandwidth_bytes_per_sec: f64::INFINITY,
            latency_secs: 0.0,
            temp_load_secs_per_byte: 0.0,
        }
    }

    /// The cost the *consuming engine* pays to materialize `bytes` of
    /// shipped input as a temporary table before a query can use them. The
    /// mediator caches results natively (application memory), so only
    /// source-side consumers pay it.
    pub fn temp_load_cost(&self, consumer: SourceId, bytes: f64) -> f64 {
        if consumer.is_mediator() {
            0.0
        } else {
            bytes * self.temp_load_secs_per_byte
        }
    }

    /// `trans_cost(S1, S2, B)`: seconds to move `bytes` from `from` to `to`.
    ///
    /// * zero when the endpoints coincide;
    /// * one hop when either endpoint is the mediator;
    /// * two hops (via the mediator) between two data sources, per §5.2:
    ///   "if neither S1 nor S2 refers to the mediator, then the data is
    ///   shipped from S1 to S2 via the mediator".
    pub fn trans_cost(&self, from: SourceId, to: SourceId, bytes: f64) -> f64 {
        if from == to {
            return 0.0;
        }
        let hops = if from.is_mediator() || to.is_mediator() {
            1.0
        } else {
            2.0
        };
        if self.bandwidth_bytes_per_sec.is_infinite() {
            return hops * self.latency_secs;
        }
        hops * (self.latency_secs + bytes / self.bandwidth_bytes_per_sec)
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::mbps(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_source_is_free() {
        let net = NetworkModel::mbps(1.0);
        assert_eq!(net.trans_cost(SourceId(1), SourceId(1), 1e6), 0.0);
        assert_eq!(
            net.trans_cost(SourceId::MEDIATOR, SourceId::MEDIATOR, 1e6),
            0.0
        );
    }

    #[test]
    fn source_to_source_goes_via_mediator() {
        let net = NetworkModel::mbps(1.0); // 125 kB/s
        let one_hop = net.trans_cost(SourceId(1), SourceId::MEDIATOR, 125_000.0);
        let two_hop = net.trans_cost(SourceId(1), SourceId(2), 125_000.0);
        assert!((one_hop - 1.001).abs() < 1e-9);
        assert!((two_hop - 2.002).abs() < 1e-9);
    }

    #[test]
    fn higher_bandwidth_is_cheaper() {
        let slow = NetworkModel::mbps(1.0);
        let fast = NetworkModel::mbps(100.0);
        let bytes = 1e6;
        assert!(
            fast.trans_cost(SourceId(1), SourceId::MEDIATOR, bytes)
                < slow.trans_cost(SourceId(1), SourceId::MEDIATOR, bytes)
        );
    }

    #[test]
    fn infinite_network_only_pays_latency() {
        let net = NetworkModel::infinite();
        assert_eq!(net.trans_cost(SourceId(1), SourceId(2), 1e12), 0.0);
    }
}
