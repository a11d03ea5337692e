//! The metric and workload catalogue (single source for `BENCHMARK.json`,
//! the printed report and `compare`) and the per-run result.

use crate::util;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "prm-live-skew",
        why: "Subdivision PRM on real threads in a skewed cube: block partition is imbalanced, so stealing matters; kd-tree kNN, LP and 1-obstacle collision kernels plus the live executor do the work.",
    },
    Workload {
        name: "rrt-live-clutter",
        why: "Radial RRT on the same executor in 604-obstacle clutter: incremental NN interleaves writes with reads and the broad phase sees many obstacles, so kernel trade-offs against PRM show.",
    },
    Workload {
        name: "prm-dist",
        why: "PRM on worker processes over Unix sockets with a fresh pool per call: spawn, handshake, blob decode, frames and steal messages dominate; kernels are the minority and should move nothing here.",
    },
    Workload {
        name: "des-replay",
        why: "Host cost of the simulator that regenerates the paper's figures (event loop, partitioners at 2048 PEs); no planner kernel runs, so it is the bypass for kernel changes; virtual times must repeat.",
    },
    Workload {
        name: "serve-warm",
        why: "Serving with working set = cache: admission, gating, batching, per-batch executor spawn and query solve are the whole cost; one cluttered tenant exposes the per-request environment rebuild.",
    },
    Workload {
        name: "serve-cold",
        why: "Same server with working set 2x the cache: every batch is an LRU miss and eviction, so snapshot build dominates and query evaluation is minor; a heavier snapshot shows here as a loss.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every bound is the contract's maximum, 25 %: on the 2-vCPU virtual
/// machine this was defined on, slow spells of the host lasting seconds to
/// minutes move the allocation-heavy serve paths and the three-process dist
/// runs by 10–15 % between runs of one commit (README, "End-to-end
/// metrics"), and a bound must be at least twice the spread it has to hold.
pub const END_TO_END: &[EndToEnd] = &[
    // Median of 3 set-ups: input generation, environments, reference
    // digests, prewarm, warm-up operations.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // Median wall time of one operation: a whole planner call + assemble +
    // digest, one DES sweep, or one open-loop request from its due time.
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    // Tail of the same samples: p75 for planner iterations and sweeps
    // (n >= 40), p99 for requests (n >= 1000); a failed request counts as
    // slower than any.
    EndToEnd {
        name: "op_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    // Operations completed / timed wall: iterations or sweeps per second;
    // for serve, closed-loop requests settled per second.
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    // VmHWM of the workload's process at exit (prm-dist: coordinator only).
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics, layer = crate. A workload that never enters a layer
/// reports 0 for that layer's metrics.
pub const PER_LAYER: &[PerLayer] = &[
    // smp-geom
    lo("geom.is_valid_ns", "ns"),
    lo("geom.first_invalid_ns_per_pt", "ns"),
    lo("geom.env_build_ms", "ms"),
    // smp-cspace
    lo("cspace.lp_check_ns_per_step", "ns"),
    lo("cspace.sample_ns", "ns"),
    // smp-graph
    lo("graph.kd_build_ns_per_pt", "ns"),
    lo("graph.knn_ns_per_query", "ns"),
    lo("graph.knn_examined_per_query", "count"),
    lo("graph.incnn_ns_per_op", "ns"),
    lo("graph.astar_us", "us"),
    // smp-plan
    lo("plan.query_solve_us", "us"),
    lo("plan.query_index_build_ms", "ms"),
    lo("plan.grow_rrt_us_per_node", "us"),
    // smp-core
    lo("core.gen_ms", "ms"),
    lo("core.lb_ms", "ms"),
    lo("core.node_conn_ms", "ms"),
    lo("core.region_conn_ms", "ms"),
    lo("core.assemble_ms", "ms"),
    lo("core.partition_ms", "ms"),
    lo("core.unphased_share", "ratio"),
    lo("core.work.cd_checks", "count"),
    lo("core.work.lp_steps", "count"),
    lo("core.work.knn_candidates", "count"),
    lo("core.work.samples", "count"),
    lo("core.kernel_share.cd", "ratio"),
    lo("core.kernel_share.lp", "ratio"),
    lo("core.kernel_share.knn", "ratio"),
    lo("core.attrib_residual", "ratio"),
    // smp-runtime: live
    lo("live.busy_ms", "ms"),
    lo("live.idle_share", "ratio"),
    lo("live.busy_cov", "ratio"),
    lo("live.steal_attempts", "count"),
    hi("live.steal_hits", "count"),
    hi("live.steal_hit_ratio", "ratio"),
    lo("live.tasks_transferred", "count"),
    lo("live.dispatch_us", "us"),
    hi("live.par_eff", "ratio"),
    hi("live.lb_gain", "ratio"),
    // smp-runtime: sim
    lo("sim.host_ms.nolb", "ms"),
    lo("sim.host_ms.repart", "ms"),
    lo("sim.host_ms.hybrid", "ms"),
    hi("sim.events_per_s", "1/s"),
    lo("sim.vtime_ns.nolb", "ns"),
    lo("sim.vtime_ns.repart", "ns"),
    lo("sim.vtime_ns.hybrid", "ns"),
    lo("sim.steal_attempts", "count"),
    // smp-runtime: dist
    lo("dist.spawn_ms", "ms"),
    lo("dist.phase_rtt_ms", "ms"),
    lo("dist.per_task_us", "us"),
    lo("dist.warm_run_ms", "ms"),
    lo("dist.cold_penalty_ms", "ms"),
    lo("dist.teardown_ms", "ms"),
    lo("dist.overhead_x", "ratio"),
    lo("dist.msgs_sent", "count"),
    hi("dist.steal_hits", "count"),
    lo("dist.retransmits", "count"),
    lo("dist.steal_unresolved", "count"),
    // smp-serve
    lo("serve.resolve_env_ms.cube", "ms"),
    lo("serve.resolve_env_ms.clutter", "ms"),
    lo("serve.gate_share", "ratio"),
    lo("serve.submit_ns", "ns"),
    lo("serve.batches_per_wave", "count"),
    hi("serve.batch_size_mean", "count"),
    hi("serve.cache_hit_ratio", "ratio"),
    lo("serve.cache_evictions", "count"),
    lo("serve.snapshot_build_ms.cube", "ms"),
    lo("serve.snapshot_build_ms.clutter", "ms"),
    lo("serve.exec_batch_us", "us"),
    lo("serve.answer_us", "us"),
    lo("serve.overhead_share", "ratio"),
    lo("serve.queue_wait_ms", "ms"),
    lo("serve.rejected", "count"),
    lo("serve.expired", "count"),
    // smp-obs and the harness itself
    lo("obs.tracer_overhead_x", "ratio"),
    lo("bench.trace_overhead_x", "ratio"),
    lo("bench.gen_late_ms", "ms"),
    hi("bench.host_nproc", "count"),
    lo("bench.host_load1", "ratio"),
];

/// What one `--workload` run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed or a check did not hold (first few).
    pub errors: Vec<String>,
    pub setup_s: f64,
    /// Wall time of every timed operation, ms.
    pub op_ms: Vec<f64>,
    /// Tail quantile reported as `op_tail_ms`.
    pub tail_q: f64,
    /// `op_p50_ms` / `op_tail_ms` are the calm quartile (`util::CALM_Q`) over
    /// this many consecutive equal blocks of `op_ms` of each block's
    /// quantile (0 or 1: one pooled block).
    pub blocks: usize,
    pub ops_per_s: f64,
    pub layer: BTreeMap<&'static str, f64>,
    /// Free-form lines printed before the result (decompositions, notes).
    pub notes: Vec<String>,
}

impl Report {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// A check over the whole run (not one operation) did not hold.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unknown per-layer metric {name}"
        );
        self.layer.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn end_to_end(&self, peak_rss_mb: f64) -> Vec<(&'static str, f64)> {
        let over_blocks = |q: f64| {
            let each: Vec<f64> = util::blocks(&self.op_ms, self.blocks)
                .map(|b| util::quantile(b, q))
                .collect();
            util::calm_time(&each)
        };
        vec![
            ("setup_s", self.setup_s),
            ("op_p50_ms", over_blocks(0.5)),
            ("op_tail_ms", over_blocks(self.tail_q)),
            ("ops_per_s", self.ops_per_s),
            ("peak_rss_mb", peak_rss_mb),
        ]
    }

    pub fn per_layer(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|m| (m.name, self.layer.get(m.name).copied().unwrap_or(0.0)))
            .collect()
    }
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Per-layer metrics that are counts made by the program and must repeat
/// bit for bit for a fixed seed; `compare` checks them for identity.
pub const EXACT_COUNTS: &[&str] = &[
    "graph.knn_examined_per_query",
    "core.work.cd_checks",
    "core.work.lp_steps",
    "core.work.knn_candidates",
    "core.work.samples",
    "sim.vtime_ns.nolb",
    "sim.vtime_ns.repart",
    "sim.vtime_ns.hybrid",
    "sim.steal_attempts",
];
