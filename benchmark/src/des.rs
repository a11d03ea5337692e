//! `des-replay`: host cost of the discrete-event simulator that regenerates
//! the paper's figures. Set-up measures one `PrmWorkload` once; an operation
//! is one sweep replaying it at two PE counts under three strategies. No
//! planner kernel runs in the timed part, and every virtual makespan must
//! repeat exactly.

use crate::gen::{self, PrmSize};
use crate::planner::{hybrid, prm_work, report_work, OP_BLOCKS};
use crate::report::Report;
use crate::spans::Spans;
use crate::util::{self, SplitMix64};
use crate::RunSpec;
use smp::core::partition::greedy_lpt;
use smp::core::{build_prm_workload, run_parallel_prm, PrmRun, PrmWorkload, Strategy, WeightKind};
use smp::geom::envs;
use smp::runtime::MachineModel;
use std::time::Instant;

const SIZE: PrmSize = PrmSize {
    regions: 13_824,
    attempts: 6,
    k: 4,
    lp_resolution: 0.02,
    robot_radius: 0.0,
};
const PES: [usize; 2] = [512, 2048];
const STRATEGY_NAMES: [&str; 3] = ["nolb", "repart", "hybrid"];
const SETUPS: usize = 3;
const WARMUPS: usize = 3;

fn strategies() -> [Strategy; 3] {
    [
        Strategy::NoLb,
        Strategy::Repartition(WeightKind::SampleCount),
        hybrid(),
    ]
}

struct Cell {
    host_ms: f64,
    run: PrmRun,
}

/// One sweep: every (PE count, strategy) cell, in a fixed order.
fn sweep(
    workload: &PrmWorkload<3>,
    machine: &MachineModel,
    spans: &mut Spans,
) -> Result<Vec<Cell>, String> {
    let mut cells = Vec::with_capacity(PES.len() * 3);
    for p in PES {
        for (strategy, name) in strategies().iter().zip(STRATEGY_NAMES) {
            let t0 = Instant::now();
            let run = spans
                .span(name, |_| run_parallel_prm(workload, machine, p, strategy))
                .map_err(|e| format!("{name} at P={p}: {e}"))?;
            cells.push(Cell {
                host_ms: util::ms(t0.elapsed()),
                run,
            });
        }
    }
    Ok(cells)
}

pub fn run(spec: &RunSpec, spans: &mut Spans) -> Report {
    let mut report = Report {
        tail_q: 0.75,
        blocks: OP_BLOCKS,
        ..Report::default()
    };
    let machine = MachineModel::hopper();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let planner_seed = SplitMix64::new(spec.seed).fork(1).next_u64();
        let env = envs::med_cube();
        let workload = build_prm_workload(&gen::prm_cfg(&env, &SIZE, planner_seed));
        let mut vtimes: Option<Vec<u64>> = None;
        for _ in 0..WARMUPS {
            match sweep(&workload, &machine, spans) {
                Ok(cells) => {
                    let now: Vec<u64> = cells.iter().map(|c| c.run.total_time).collect();
                    let same = vtimes.get_or_insert_with(|| now.clone()) == &now;
                    report.check(same, || {
                        "warm-up sweeps disagree on virtual time".to_string()
                    });
                }
                Err(e) => report.fail(format!("warm-up sweep failed: {e}")),
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        state = Some((workload, vtimes.unwrap_or_default()));
    }
    report.setup_s = util::median(&setup_s);
    let Some((workload, reference)) = state else {
        return report;
    };

    // In a traced run every other sweep records a span per cell; the ratio
    // of the two kinds is the recorder's overhead.
    let t_run = Instant::now();
    let mut last = Vec::new();
    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    let mut host_ms: Vec<Vec<f64>> = vec![Vec::new(); PES.len() * 3];
    while t_run.elapsed().as_secs_f64() < spec.seconds {
        report.attempted += 1;
        let traced = spec.trace && report.attempted % 2 == 1;
        spans.set_on(traced);
        spans.set_op(report.attempted);
        let t0 = Instant::now();
        let cells = spans.span("sweep", |s| sweep(&workload, &machine, s));
        let took = util::ms(t0.elapsed());
        match cells {
            Ok(cells) => {
                let now: Vec<u64> = cells.iter().map(|c| c.run.total_time).collect();
                if now == reference {
                    report.op_ms.push(took);
                    if traced {
                        &mut traced_ms
                    } else {
                        &mut plain_ms
                    }
                    .push(took);
                } else {
                    report.fail(format!("virtual makespans moved: {now:?} vs {reference:?}"));
                }
                for (samples, c) in host_ms.iter_mut().zip(&cells) {
                    samples.push(c.host_ms);
                }
                last = cells;
            }
            Err(e) => report.fail(e),
        }
    }
    report.ops_per_s = util::block_rate(&report.op_ms, OP_BLOCKS);
    spans.set_on(false);
    if !spec.trace || last.is_empty() {
        return report;
    }

    // Cells of the largest PE count, in strategy order.
    let top = (PES.len() - 1) * 3;
    let names = [
        ("sim.host_ms.nolb", "sim.vtime_ns.nolb"),
        ("sim.host_ms.repart", "sim.vtime_ns.repart"),
        ("sim.host_ms.hybrid", "sim.vtime_ns.hybrid"),
    ];
    let (mut events, mut host_s) = (0.0, 0.0);
    for (i, (host_name, vtime_name)) in names.into_iter().enumerate() {
        let cell = &last[top + i];
        let ms = util::median(&host_ms[top + i]);
        report.set(host_name, ms);
        report.set(vtime_name, cell.run.total_time as f64);
        events += workload.num_regions() as f64 + cell.run.construction.messages as f64;
        host_s += ms / 1e3;
    }
    report.set("sim.events_per_s", util::ratio(events, host_s));
    report.set(
        "sim.steal_attempts",
        last[top + 2].run.construction.steal_attempts as f64,
    );
    let weights: Vec<f64> = workload.sample_counts().iter().map(|&c| c as f64).collect();
    report.set(
        "core.partition_ms",
        util::median_ms(5, || {
            std::hint::black_box(greedy_lpt(&weights, PES[PES.len() - 1]));
        }),
    );
    // Counts of the measured workload being replayed (built in set-up).
    report_work(&mut report, &prm_work(&workload).0);
    report.set(
        "bench.trace_overhead_x",
        util::ratio(util::median(&traced_ms), util::median(&plain_ms)),
    );

    report.note(spans.decomposition_line("sweep", "unaccounted"));
    report
}
