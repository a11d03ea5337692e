//! Virtual machine models.
//!
//! A [`MachineModel`] fixes everything about the simulated platform that the
//! paper's results depend on: node width (cores per node), message
//! latencies (intra- vs inter-node), per-operation compute costs, and
//! collective costs. Presets approximate the paper's two platforms:
//!
//! * [`MachineModel::hopper`] — Cray XE6 "Hopper": 24 cores/node, fast
//!   Gemini-class interconnect;
//! * [`MachineModel::opteron`] — Opteron Linux cluster: 8 cores/node,
//!   slower commodity interconnect, slower cores.
//!
//! Absolute values are order-of-magnitude calibrations, not measurements;
//! the figures only require the *relative* shape to be right (DESIGN.md §2).

/// Virtual-nanosecond cost of each chargeable primitive operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCosts {
    /// One collision-detection evaluation (point validity or LP step).
    pub cd_check: u64,
    /// Fixed overhead per local-plan invocation.
    pub lp_call: u64,
    /// Drawing one sample.
    pub sample: u64,
    /// Examining one kNN candidate.
    pub knn_candidate: u64,
    /// Creating one graph vertex.
    pub vertex: u64,
    /// Creating one graph edge.
    pub edge: u64,
}

impl OpCosts {
    /// Uniformly scale all costs (slower cores).
    pub fn scaled(self, factor: f64) -> OpCosts {
        let s = |v: u64| ((v as f64) * factor).round() as u64;
        OpCosts {
            cd_check: s(self.cd_check),
            lp_call: s(self.lp_call),
            sample: s(self.sample),
            knn_candidate: s(self.knn_candidate),
            vertex: s(self.vertex),
            edge: s(self.edge),
        }
    }
}

/// Message and collective latencies (virtual ns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Steal request / small control message, same node.
    pub msg_local: u64,
    /// Steal request / small control message, different node.
    pub msg_remote: u64,
    /// Extra transfer cost per task (region descriptor) in a steal response
    /// or migration.
    pub per_task_transfer: u64,
    /// Extra transfer cost per roadmap vertex migrated.
    pub per_vertex_transfer: u64,
    /// One remote read of a graph entry owned by another PE.
    pub remote_access: u64,
    /// Base cost of a barrier; total is `barrier_base * ceil(log2 p)`.
    pub barrier_base: u64,
    /// Thief back-off before a new steal round after all victims denied.
    pub steal_backoff: u64,
    /// Victim-side cost of servicing one steal request (RMI handler).
    pub steal_service: u64,
    /// Expected wait until a busy victim's runtime polls for incoming RMIs
    /// and can service a steal request.
    pub poll_delay: u64,
    /// Thief-side timeout on an outstanding steal request; sized above the
    /// worst-case fault-free round trip so it only fires on lost messages
    /// or dead victims.
    pub steal_timeout: u64,
    /// Upper bound on the exponential steal back-off.
    pub steal_backoff_cap: u64,
    /// Delay between a PE crash and the re-assignment of its orphaned
    /// queue (failure-detector latency).
    pub crash_detect: u64,
}

/// A simulated parallel platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineModel {
    /// Human-readable preset name (e.g. `"hopper"`).
    pub name: String,
    /// PEs per node: intra-node messages are cheaper than inter-node.
    pub cores_per_node: usize,
    /// Per-operation virtual costs charged to measured work counters.
    pub ops: OpCosts,
    /// Message / migration / steal-protocol latency model.
    pub lat: LatencyModel,
}

impl MachineModel {
    /// Cray XE6 ("Hopper")-like preset.
    pub fn hopper() -> Self {
        MachineModel {
            name: "HOPPER".to_string(),
            cores_per_node: 24,
            ops: OpCosts {
                cd_check: 800,
                lp_call: 400,
                sample: 300,
                knn_candidate: 15,
                vertex: 150,
                edge: 150,
            },
            lat: LatencyModel {
                msg_local: 1_500,
                msg_remote: 8_000,
                per_task_transfer: 800,
                per_vertex_transfer: 100,
                remote_access: 12_000,
                barrier_base: 5_000,
                steal_backoff: 100_000,
                steal_service: 2_000,
                poll_delay: 30_000,
                steal_timeout: 400_000,
                steal_backoff_cap: 1_600_000,
                crash_detect: 500_000,
            },
        }
    }

    /// Opteron-cluster-like preset: narrower nodes, slower cores, slower
    /// interconnect.
    pub fn opteron() -> Self {
        MachineModel {
            name: "OPTERON".to_string(),
            cores_per_node: 8,
            ops: OpCosts {
                cd_check: 800,
                lp_call: 400,
                sample: 300,
                knn_candidate: 15,
                vertex: 150,
                edge: 150,
            }
            .scaled(1.6),
            lat: LatencyModel {
                msg_local: 2_500,
                msg_remote: 25_000,
                per_task_transfer: 2_000,
                per_vertex_transfer: 300,
                remote_access: 20_000,
                barrier_base: 30_000,
                steal_backoff: 250_000,
                steal_service: 5_000,
                poll_delay: 60_000,
                steal_timeout: 1_000_000,
                steal_backoff_cap: 4_000_000,
                crash_detect: 1_000_000,
            },
        }
    }

    /// Node id of a PE.
    pub fn node_of(&self, pe: usize) -> usize {
        pe / self.cores_per_node.max(1)
    }

    /// Latency of a small message between two PEs.
    pub fn msg_latency(&self, from: usize, to: usize) -> u64 {
        if self.node_of(from) == self.node_of(to) {
            self.lat.msg_local
        } else {
            self.lat.msg_remote
        }
    }

    /// Cost of a barrier over `p` PEs.
    pub fn barrier(&self, p: usize) -> u64 {
        let log = usize::BITS - p.max(1).next_power_of_two().leading_zeros() - 1;
        self.lat.barrier_base * u64::from(log.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_mapping() {
        let m = MachineModel::hopper();
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(23), 0);
        assert_eq!(m.node_of(24), 1);
    }

    #[test]
    fn latency_local_vs_remote() {
        let m = MachineModel::hopper();
        assert_eq!(m.msg_latency(0, 5), m.lat.msg_local);
        assert_eq!(m.msg_latency(0, 30), m.lat.msg_remote);
        assert!(m.lat.msg_remote > m.lat.msg_local);
    }

    #[test]
    fn opteron_is_slower() {
        let h = MachineModel::hopper();
        let o = MachineModel::opteron();
        assert!(o.ops.cd_check > h.ops.cd_check);
        assert!(o.lat.msg_remote > h.lat.msg_remote);
        assert!(o.cores_per_node < h.cores_per_node);
    }

    #[test]
    fn barrier_grows_logarithmically() {
        let m = MachineModel::hopper();
        assert!(m.barrier(1024) > m.barrier(16));
        assert_eq!(m.barrier(16), m.lat.barrier_base * 4);
        // p = 1 still nonzero
        assert!(m.barrier(1) > 0);
    }

    #[test]
    fn timeouts_exceed_roundtrips() {
        // a fault-free steal round trip (request + poll + service + grant)
        // must always beat the timeout, or clean runs would fire timeouts
        for m in [MachineModel::hopper(), MachineModel::opteron()] {
            let worst = m.lat.msg_remote * 2
                + m.lat.poll_delay
                + m.lat.steal_service
                + m.lat.per_task_transfer * 4;
            assert!(m.lat.steal_timeout > worst, "{}", m.name);
            assert!(m.lat.steal_backoff_cap >= m.lat.steal_backoff);
            assert!(m.lat.crash_detect > 0);
        }
    }

    #[test]
    fn scaled_costs() {
        let c = OpCosts {
            cd_check: 100,
            lp_call: 10,
            sample: 10,
            knn_candidate: 1,
            vertex: 2,
            edge: 2,
        };
        let s = c.scaled(2.0);
        assert_eq!(s.cd_check, 200);
        assert_eq!(s.knn_candidate, 2);
    }
}
