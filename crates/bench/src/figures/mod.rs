//! Figure drivers: one function per figure of the paper's evaluation.
//!
//! All drivers share lazily-built workloads through [`Suite`] (a workload is
//! strategy- and PE-count-independent, so each environment is measured
//! exactly once per harness invocation).

pub mod ablations;
pub mod fig4;
pub mod hopper;
pub mod opteron;
pub mod resilience;
pub mod restarts;
pub mod rrt;
pub mod serve_load;

use crate::config::HarnessConfig;
use crate::table::Table;
use smp_core::model::{ModelConfig, ModelInstance};
use smp_core::{
    build_prm_workload, build_prm_workload_on_grid, build_rrt_workload, replay_prm, replay_rrt,
    ParallelPrmConfig, ParallelRrtConfig, PrmRun, PrmWorkload, RrtRun, RrtWorkload, RunOptions,
    Strategy, WeightKind,
};
use smp_geom::{envs, GridSubdivision};
use smp_runtime::MachineModel;

/// Repartitioning by sample count: the paper's PRM weight.
const REPART: Strategy = Strategy::Repartition(WeightKind::SampleCount);

/// The DES replay of a PRM workload on `p` PEs of `machine`.
fn prm<const D: usize>(
    w: &PrmWorkload<D>,
    machine: &MachineModel,
    p: usize,
    s: &Strategy,
) -> PrmRun {
    replay_prm(w, machine, RunOptions::new(p, s)).expect("sim failed")
}

/// The DES replay of an RRT workload on `p` PEs of `machine`.
fn rrt(w: &RrtWorkload<3>, machine: &MachineModel, p: usize, s: &Strategy) -> RrtRun {
    replay_rrt(w, machine, RunOptions::new(p, s)).expect("sim failed")
}

/// Lazily-built shared workloads for the whole harness run.
pub struct Suite {
    pub cfg: HarnessConfig,
    hopper_medcube: Option<PrmWorkload<3>>,
    opteron_medcube: Option<PrmWorkload<3>>,
    opteron_smallcube: Option<PrmWorkload<3>>,
    opteron_free: Option<PrmWorkload<3>>,
    rrt_mixed: Option<RrtWorkload<3>>,
    rrt_mixed30: Option<RrtWorkload<3>>,
    rrt_free: Option<RrtWorkload<3>>,
    model: Option<(ModelInstance, PrmWorkload<2>)>,
}

impl Suite {
    pub fn new(cfg: HarnessConfig) -> Self {
        Suite {
            cfg,
            hopper_medcube: None,
            opteron_medcube: None,
            opteron_smallcube: None,
            opteron_free: None,
            rrt_mixed: None,
            rrt_mixed30: None,
            rrt_free: None,
            model: None,
        }
    }

    fn prm_workload(
        cfg: &HarnessConfig,
        env: &smp_geom::Environment<3>,
        regions: usize,
    ) -> PrmWorkload<3> {
        let pcfg = ParallelPrmConfig {
            regions_target: regions,
            overlap: 0.004,
            attempts_per_region: cfg.attempts_per_region,
            k_neighbors: cfg.k_neighbors,
            lp_resolution: cfg.lp_resolution,
            robot_radius: cfg.robot_radius,
            connect_max_pairs: 1,
            connect_stop_after: 1,
            seed: cfg.seed,
            ..ParallelPrmConfig::new(env)
        };
        build_prm_workload(&pcfg)
    }

    /// Med-cube workload at Hopper scale (Figs. 5, 6, 7, 9).
    pub fn hopper_medcube(&mut self) -> &PrmWorkload<3> {
        if self.hopper_medcube.is_none() {
            let env = envs::med_cube();
            eprintln!(
                "[suite] building hopper med-cube workload ({} regions)...",
                self.cfg.hopper_regions
            );
            self.hopper_medcube =
                Some(Self::prm_workload(&self.cfg, &env, self.cfg.hopper_regions));
        }
        self.hopper_medcube.as_ref().unwrap()
    }

    /// Opteron-scale workloads (Fig. 8): `"med-cube"`, `"small-cube"`, `"free"`.
    pub fn opteron_env(&mut self, name: &str) -> &PrmWorkload<3> {
        let regions = self.cfg.opteron_regions;
        let cfg = self.cfg.clone();
        let slot = match name {
            "med-cube" => &mut self.opteron_medcube,
            "small-cube" => &mut self.opteron_smallcube,
            "free" => &mut self.opteron_free,
            other => panic!("unknown opteron env {other}"),
        };
        if slot.is_none() {
            let env = match name {
                "med-cube" => envs::med_cube(),
                "small-cube" => envs::small_cube(),
                _ => envs::free_env(),
            };
            eprintln!("[suite] building opteron {name} workload ({regions} regions)...");
            *slot = Some(Self::prm_workload(&cfg, &env, regions));
        }
        slot.as_ref().unwrap()
    }

    /// RRT workloads (Fig. 10): `"mixed"`, `"mixed-30"`, `"free"`.
    pub fn rrt_env(&mut self, name: &str) -> &RrtWorkload<3> {
        let cfg = self.cfg.clone();
        let slot = match name {
            "mixed" => &mut self.rrt_mixed,
            "mixed-30" => &mut self.rrt_mixed30,
            "free" => &mut self.rrt_free,
            other => panic!("unknown rrt env {other}"),
        };
        if slot.is_none() {
            let env = match name {
                "mixed" => envs::mixed(),
                "mixed-30" => envs::mixed_30(),
                _ => envs::free_env(),
            };
            eprintln!(
                "[suite] building rrt {name} workload ({} cones)...",
                cfg.rrt_regions
            );
            let rcfg = ParallelRrtConfig {
                num_regions: cfg.rrt_regions,
                nodes_per_region: cfg.nodes_per_region,
                max_iters: cfg.rrt_max_iters,
                stall_limit: cfg.rrt_stall_limit,
                radius: 0.75,
                overlap_factor: 2.5,
                step_size: 0.05,
                lp_resolution: 0.002,
                robot_radius: 0.0,
                krays: 4,
                seed: cfg.seed,
                ..ParallelRrtConfig::new(&env)
            };
            *slot = Some(build_rrt_workload(&rcfg));
        }
        slot.as_ref().unwrap()
    }

    /// Model instance plus the experimental PRM workload on the *same* grid
    /// (Fig. 4).
    pub fn model(&mut self) -> &(ModelInstance, PrmWorkload<2>) {
        if self.model.is_none() {
            let mcfg = ModelConfig {
                blocked_fraction: 0.25,
                columns: self.cfg.model_columns,
                rows: self.cfg.model_rows,
            };
            eprintln!(
                "[suite] building model workload ({}x{} regions)...",
                mcfg.columns, mcfg.rows
            );
            let instance = ModelInstance::new(&mcfg);
            let env = envs::model_env(mcfg.blocked_fraction);
            let pcfg = ParallelPrmConfig {
                regions_target: mcfg.columns * mcfg.rows,
                overlap: 0.0,
                attempts_per_region: self.cfg.attempts_per_region,
                k_neighbors: self.cfg.k_neighbors,
                lp_resolution: self.cfg.lp_resolution,
                robot_radius: 0.0,
                connect_max_pairs: 2,
                connect_stop_after: 1,
                seed: self.cfg.seed,
                ..ParallelPrmConfig::new(&env)
            };
            let grid = GridSubdivision::new(*env.bounds(), [mcfg.columns, mcfg.rows], 0.0);
            let workload = build_prm_workload_on_grid(&pcfg, grid);
            self.model = Some((instance, workload));
        }
        self.model.as_ref().unwrap()
    }
}

/// Every figure id the harness can regenerate.
pub const ALL_FIGURES: &[&str] = &[
    "fig4a", "fig4b", "fig5a", "fig5b", "fig5c", "fig6", "fig7a", "fig7b", "fig8a", "fig8b",
    "fig8c", "fig9a", "fig9b", "fig10a", "fig10b", "fig10c",
];

/// Every ablation id.
pub const ALL_ABLATIONS: &[&str] = &[
    "ablation-steal-amount",
    "ablation-lifeline",
    "ablation-adaptive",
    "study-walls45",
    "ablation-weights",
    "ablation-partitioner",
    "balance",
    "ablation-granularity",
    "ablation-overlap",
    "resilience",
    "restarts",
    "serve-load",
];

/// The CSV file name of table `i` of the `n` that figure `id` yields:
/// `<id>.csv` for a single table, `<id>_<i>.csv` otherwise.
pub fn csv_name(id: &str, i: usize, n: usize) -> String {
    if n == 1 {
        format!("{id}.csv")
    } else {
        format!("{id}_{i}.csv")
    }
}

/// Run one figure (or ablation) by id.
pub fn run(id: &str, suite: &mut Suite) -> Vec<Table> {
    match id {
        "fig4a" => vec![fig4::fig4a(suite)],
        "fig4b" => vec![fig4::fig4b(suite)],
        "fig5a" => vec![hopper::fig5a(suite)],
        "fig5b" => vec![hopper::fig5b(suite)],
        "fig5c" => vec![hopper::fig5c(suite)],
        "fig6" => vec![hopper::fig6(suite)],
        "fig7a" => vec![hopper::fig7a(suite)],
        "fig7b" => vec![hopper::fig7b(suite)],
        "fig8a" => vec![opteron::fig8(suite, "med-cube", "fig8a")],
        "fig8b" => vec![opteron::fig8(suite, "small-cube", "fig8b")],
        "fig8c" => vec![opteron::fig8(suite, "free", "fig8c")],
        "fig9a" => vec![hopper::fig9(suite, true)],
        "fig9b" => vec![hopper::fig9(suite, false)],
        "fig10a" => vec![rrt::fig10(suite, "mixed", "fig10a")],
        "fig10b" => vec![rrt::fig10(suite, "mixed-30", "fig10b")],
        "fig10c" => vec![rrt::fig10(suite, "free", "fig10c")],
        "ablation-steal-amount" => vec![ablations::steal_amount(suite)],
        "ablation-lifeline" => vec![ablations::lifeline(suite)],
        "ablation-adaptive" => vec![ablations::adaptive(suite)],
        "study-walls45" => vec![ablations::walls45(suite)],
        "ablation-weights" => vec![ablations::weight_quality(suite)],
        "ablation-partitioner" => vec![ablations::partitioner(suite)],
        "balance" => vec![ablations::balance(suite)],
        "ablation-granularity" => vec![ablations::granularity(suite)],
        "ablation-overlap" => vec![ablations::overlap(suite)],
        "resilience" => vec![
            resilience::straggler(suite),
            resilience::message_loss(suite),
            resilience::crash(suite),
        ],
        "restarts" => vec![restarts::restarts(suite)],
        "serve-load" => vec![serve_load::serve_load(suite)],
        other => panic!("unknown figure id: {other}"),
    }
}
