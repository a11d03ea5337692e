//! The replay-file format.
//!
//! A shrunk failure serializes to a small, line-oriented text file that
//! `smp-check --replay` re-executes on the backend it failed on (twice
//! on the DES, where replay is exact and the two runs must agree).
//! The format is versioned, order-insensitive past the header, and
//! self-describing (DESIGN.md §10):
//!
//! ```text
//! smp-check-repro v1
//! # free-text context lines
//! backend des
//! machine hopper
//! sim_seed 42
//! schedule seeded 17
//! steal randk 8 one
//! costs 100 200 300
//! queue 0 2
//! queue 1
//! fault_seed 7
//! msg_loss 0.25
//! msg_jitter 0.1 50000
//! straggler 0 0 1000000 4.0
//! crash 2 300000 1 false
//! drop 17
//! delay 9 4000
//! ```
//!
//! One `queue` line per PE (possibly empty); every other fault line is
//! optional, and a file without a `backend` line replays on the DES. A
//! `crash` line reads `PE AT AFTER_TASKS RESPAWN`; a legacy `crash PE AT`
//! line takes [`FaultPlan::with_crash`]'s wall-clock defaults.
//! Floats round-trip through Rust's shortest-representation formatting,
//! so parse(serialize(c)) == c exactly.

use crate::backend::Backend;
use crate::case::{CaseSpec, MachineKind, SchedulePlan};
use smp_runtime::{Crash, FaultPlan, StealAmount, StealConfig, StealPolicyKind};

const HEADER: &str = "smp-check-repro v1";

/// Serialize a case, the backend it failed on, and optional context
/// comment lines.
pub fn serialize(spec: &CaseSpec, backend: Backend, context: &[String]) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    for line in context {
        out.push_str("# ");
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(&format!("backend {}\n", backend.name()));
    out.push_str(&format!("machine {}\n", spec.machine.name()));
    out.push_str(&format!("sim_seed {}\n", spec.sim_seed));
    match spec.schedule {
        SchedulePlan::Fifo => out.push_str("schedule fifo\n"),
        SchedulePlan::Seeded(s) => out.push_str(&format!("schedule seeded {s}\n")),
    }
    match spec.steal {
        None => out.push_str("steal none\n"),
        Some(cfg) => {
            let policy = match cfg.policy {
                StealPolicyKind::RandK(k) => format!("randk {k}"),
                StealPolicyKind::Diffusive => "diffusive".to_string(),
                StealPolicyKind::DiffusiveAdaptive => "diffusive-ca".to_string(),
                StealPolicyKind::Hybrid(k) => format!("hybrid {k}"),
                StealPolicyKind::Lifeline => "lifeline".to_string(),
            };
            let amount = match cfg.amount {
                StealAmount::One => "one".to_string(),
                StealAmount::Half => "half".to_string(),
                StealAmount::Fixed(k) => format!("fixed {k}"),
            };
            out.push_str(&format!("steal {policy} {amount}\n"));
        }
    }
    out.push_str("costs");
    for c in &spec.costs {
        out.push_str(&format!(" {c}"));
    }
    out.push('\n');
    for q in &spec.assignment {
        out.push_str("queue");
        for t in q {
            out.push_str(&format!(" {t}"));
        }
        out.push('\n');
    }
    let f = &spec.fault;
    out.push_str(&format!("fault_seed {}\n", f.seed));
    if f.msg_loss > 0.0 {
        out.push_str(&format!("msg_loss {}\n", f.msg_loss));
    }
    if f.msg_jitter > 0.0 {
        out.push_str(&format!("msg_jitter {} {}\n", f.msg_jitter, f.jitter_max));
    }
    for s in &f.stragglers {
        out.push_str(&format!(
            "straggler {} {} {} {}\n",
            s.pe, s.from, s.until, s.factor
        ));
    }
    for c in &f.crashes {
        out.push_str(&format!(
            "crash {} {} {} {}\n",
            c.pe, c.at, c.after_tasks, c.respawn
        ));
    }
    for &s in &f.drop_seqs {
        out.push_str(&format!("drop {s}\n"));
    }
    for &(s, extra) in &f.jitter_seqs {
        out.push_str(&format!("delay {s} {extra}\n"));
    }
    out
}

/// Parse a replay file into its case and backend. Errors carry the
/// offending line.
pub fn parse(text: &str) -> Result<(CaseSpec, Backend), String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty replay file")?.trim();
    if header != HEADER {
        return Err(format!("bad header {header:?}, expected {HEADER:?}"));
    }
    let mut backend = Backend::Des;
    let mut machine = None;
    let mut sim_seed = None;
    let mut schedule = None;
    let mut steal: Option<Option<StealConfig>> = None;
    let mut costs: Option<Vec<u64>> = None;
    let mut queues: Vec<Vec<u32>> = Vec::new();
    let mut fault = FaultPlan::new(0);

    for raw in lines {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let key = it.next().ok_or_else(|| format!("blank key in {line:?}"))?;
        let rest: Vec<&str> = it.collect();
        let num = |i: usize, what: &str| -> Result<u64, String> {
            rest.get(i)
                .ok_or_else(|| format!("{line:?}: missing {what}"))?
                .parse::<u64>()
                .map_err(|e| format!("{line:?}: bad {what}: {e}"))
        };
        let flt = |i: usize, what: &str| -> Result<f64, String> {
            rest.get(i)
                .ok_or_else(|| format!("{line:?}: missing {what}"))?
                .parse::<f64>()
                .map_err(|e| format!("{line:?}: bad {what}: {e}"))
        };
        match key {
            "backend" => {
                let name = rest
                    .first()
                    .ok_or_else(|| format!("{line:?}: no backend"))?;
                backend = Backend::parse(name)
                    .ok_or_else(|| format!("{line:?}: unknown backend {name:?}"))?;
            }
            "machine" => {
                let name = rest
                    .first()
                    .ok_or_else(|| format!("{line:?}: no machine"))?;
                machine = Some(
                    MachineKind::parse(name)
                        .ok_or_else(|| format!("{line:?}: unknown machine {name:?}"))?,
                );
            }
            "sim_seed" => sim_seed = Some(num(0, "seed")?),
            "schedule" => {
                schedule = Some(match rest.first().copied() {
                    Some("fifo") => SchedulePlan::Fifo,
                    Some("seeded") => SchedulePlan::Seeded(num(1, "schedule seed")?),
                    other => return Err(format!("{line:?}: unknown schedule {other:?}")),
                });
            }
            "steal" => {
                steal = Some(match rest.first().copied() {
                    Some("none") => None,
                    Some(kind) => {
                        let (policy, amount_at) = match kind {
                            "randk" => (StealPolicyKind::RandK(num(1, "k")? as usize), 2),
                            "hybrid" => (StealPolicyKind::Hybrid(num(1, "k")? as usize), 2),
                            "diffusive" => (StealPolicyKind::Diffusive, 1),
                            "diffusive-ca" => (StealPolicyKind::DiffusiveAdaptive, 1),
                            "lifeline" => (StealPolicyKind::Lifeline, 1),
                            _ => return Err(format!("{line:?}: unknown policy {kind:?}")),
                        };
                        let amount = match rest.get(amount_at).copied() {
                            Some("one") => StealAmount::One,
                            Some("half") => StealAmount::Half,
                            Some("fixed") => {
                                StealAmount::Fixed(num(amount_at + 1, "fixed amount")? as usize)
                            }
                            other => return Err(format!("{line:?}: unknown amount {other:?}")),
                        };
                        Some(StealConfig { policy, amount })
                    }
                    None => return Err(format!("{line:?}: empty steal")),
                });
            }
            "costs" => {
                costs = Some(
                    rest.iter()
                        .map(|c| {
                            c.parse::<u64>()
                                .map_err(|e| format!("{line:?}: bad cost {c:?}: {e}"))
                        })
                        .collect::<Result<_, _>>()?,
                );
            }
            "queue" => {
                queues.push(
                    rest.iter()
                        .map(|t| {
                            t.parse::<u32>()
                                .map_err(|e| format!("{line:?}: bad task {t:?}: {e}"))
                        })
                        .collect::<Result<_, _>>()?,
                );
            }
            "fault_seed" => fault.seed = num(0, "fault seed")?,
            "msg_loss" => fault.msg_loss = flt(0, "loss rate")?,
            "msg_jitter" => {
                fault.msg_jitter = flt(0, "jitter rate")?;
                fault.jitter_max = num(1, "jitter max")?;
            }
            "straggler" => {
                fault = fault.with_straggler(
                    num(0, "pe")? as usize,
                    num(1, "from")?,
                    num(2, "until")?,
                    flt(3, "factor")?,
                );
            }
            "crash" => {
                let (pe, at) = (num(0, "pe")? as usize, num(1, "at")?);
                if rest.len() == 2 {
                    fault = fault.with_crash(pe, at);
                } else {
                    let respawn = rest
                        .get(3)
                        .and_then(|r| r.parse().ok())
                        .ok_or_else(|| format!("{line:?}: bad respawn"))?;
                    fault.crashes.push(Crash {
                        pe,
                        at,
                        after_tasks: num(2, "after_tasks")?,
                        respawn,
                    });
                }
            }
            "drop" => fault = fault.with_dropped_message(num(0, "seq")?),
            "delay" => fault = fault.with_delayed_message(num(0, "seq")?, num(1, "extra")?),
            _ => return Err(format!("unknown key {key:?} in {line:?}")),
        }
    }

    let spec = CaseSpec {
        costs: costs.ok_or("missing costs line")?,
        assignment: queues,
        machine: machine.ok_or("missing machine line")?,
        steal: steal.ok_or("missing steal line")?,
        sim_seed: sim_seed.ok_or("missing sim_seed line")?,
        fault,
        schedule: schedule.ok_or("missing schedule line")?,
    };
    if spec.assignment.is_empty() {
        return Err("missing queue lines (need at least one PE)".to_string());
    }
    Ok((spec, backend))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_case;

    #[test]
    fn round_trips_exactly() {
        let backends = [Backend::Des, Backend::Live, Backend::Dist];
        let mut crashes = Vec::new();
        for seed in 0..120 {
            let case = generate_case(seed);
            let backend = backends[seed as usize % 3];
            let text = serialize(&case, backend, &["context".to_string()]);
            let back = parse(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            crashes.extend_from_slice(&case.fault.crashes);
            assert_eq!((case, backend), back, "seed {seed} did not round-trip");
        }
        // the wall-clock crash fields travelled, not just their defaults
        assert!(crashes.iter().any(|c| c.respawn));
        assert!(crashes.iter().any(|c| c.after_tasks != 1));
    }

    #[test]
    fn parsed_cases_replay_identically_on_the_des() {
        for seed in 0..20 {
            let text = serialize(&generate_case(seed), Backend::Des, &[]);
            let (case, _) = parse(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(case.replays_identically(), "seed {seed}");
        }
    }

    #[test]
    fn a_file_without_a_backend_line_replays_on_the_des() {
        let text = "smp-check-repro v1\nmachine hopper\nsim_seed 1\nschedule fifo\nsteal none\ncosts 5\nqueue 0\n";
        assert_eq!(parse(text).map(|(_, b)| b), Ok(Backend::Des));
        assert!(parse(&text.replace("machine", "backend tcp\nmachine")).is_err());
        // a legacy two-field crash line takes `with_crash`'s defaults
        let (legacy, _) = parse(&format!("{text}crash 0 500\n")).unwrap();
        assert_eq!(legacy.fault, FaultPlan::new(0).with_crash(0, 500));
        assert!(parse(&format!("{text}crash 0 500 1 maybe\n")).is_err());
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("").is_err());
        assert!(parse("not-a-repro").is_err());
        assert!(parse("smp-check-repro v1\nmachine pdp11\n").is_err());
        assert!(
            parse("smp-check-repro v1\nmachine hopper\n").is_err(),
            "missing fields"
        );
        let text = "smp-check-repro v1\nmachine hopper\nsim_seed 1\nschedule fifo\nsteal none\ncosts 5\nqueue 0\nbogus 1\n";
        assert!(parse(text).is_err(), "unknown key must be rejected");
    }
}
