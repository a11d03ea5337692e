//! Protocol messages for the distributed backend.
//!
//! One [`Msg`] per frame. Variants `Init`..`Shutdown` travel
//! coordinator→worker; `Hello`..`Fatal` travel worker→coordinator. Each
//! variant corresponds to a TLA+ action in `specs/tla/StealProtocol.tla`;
//! the mapping table lives in PROTOCOL.md §4. Tags are stable wire
//! constants: coordinator→worker messages use `0x01..=0x7F`,
//! worker→coordinator messages use `0x81..=0xFF`.

use super::wire::{WireError, WireReader, WireWriter};
use crate::sim::StealAmount;

/// A protocol message. See PROTOCOL.md for field-by-field semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// C→W `0x01`: start (or restart, after a respawn) a phase on a worker.
    /// Carries the work descriptor and the worker's initial task queue.
    /// TLA+ action: `AssignInitial`.
    Init {
        /// Phase id, monotonically increasing per coordinator.
        phase: u32,
        /// Work kind understood by the worker's handler (e.g. `"prm-gen"`).
        kind: String,
        /// Opaque work blob the handler decodes (environment + config).
        blob: Vec<u8>,
        /// Initial task queue for this worker, in execution order.
        tasks: Vec<u32>,
        /// How much a victim sheds per granted steal.
        amount: StealAmount,
        /// Fault injection: self-terminate after executing this many tasks.
        kill_after: Option<u64>,
    },
    /// C→W `0x02`: transfer ownership of `tasks` to a worker. Retransmitted
    /// with capped exponential backoff until [`Msg::AssignAck`] arrives.
    /// TLA+ action: `TransferTasks`.
    Assign {
        /// Phase the transfer belongs to.
        phase: u32,
        /// Transfer id, unique per coordinator; the ack echoes it.
        xfer: u64,
        /// Tasks whose ownership moves to the destination worker.
        tasks: Vec<u32>,
    },
    /// C→W `0x03`: ask a victim to shed work; the coordinator keeps which
    /// thief the request is for. TLA+ action: `StealRequest`.
    StealAsk {
        /// Phase the request belongs to.
        phase: u32,
        /// Request id; `Grant`/`Deny` echo it.
        req: u64,
    },
    /// C→W `0x04`: acknowledge a [`Msg::Done`] batch; the worker stops
    /// retransmitting it. TLA+ action: `AckResult`.
    DoneAck {
        /// Phase of the acknowledged batch.
        phase: u32,
        /// Echo of the batch's sequence number.
        seq: u64,
    },
    /// C→W `0x06`: exit the worker process cleanly.
    Shutdown,

    /// W→C `0x81`: first message on every connection; binds the socket to
    /// a worker slot and respawn epoch. TLA+ action: `WorkerJoin`.
    Hello {
        /// Worker slot this process serves.
        worker: u32,
        /// Respawn epoch the process was launched with.
        epoch: u32,
    },
    /// W→C `0x82`: a batch of task results (one result is the degenerate
    /// batch). Retransmitted with capped backoff until the
    /// [`Msg::DoneAck`] echoing `seq` arrives; the coordinator deduplicates
    /// by task id, result by result. TLA+ action: `CompleteTask`.
    Done {
        /// Phase the tasks belong to.
        phase: u32,
        /// Batch sequence number, unique per worker process and phase.
        seq: u64,
        /// Cumulative tasks this process has executed (crash accounting).
        executed: u64,
        /// Cumulative busy nanoseconds in this process (report only).
        busy_ns: u64,
        /// Cumulative nanoseconds this process spent sending frames
        /// (report only).
        comm_ns: u64,
        /// `(task id, encoded result)` pairs; each result is decoded by
        /// the submitting planner.
        results: Vec<(u32, Vec<u8>)>,
    },
    /// W→C `0x83`: the worker's queue is empty; resent with capped backoff
    /// while idle. TLA+ action: `RequestWork`.
    NeedWork {
        /// Phase the worker is idle in.
        phase: u32,
        /// The idle worker slot.
        worker: u32,
    },
    /// W→C `0x84`: victim sheds `tasks` in answer to a [`Msg::StealAsk`];
    /// ownership moves to the coordinator (in-transfer) when the frame
    /// arrives — even if the requesting thief has crashed meanwhile
    /// (orphaned-grant recovery, PROTOCOL.md §3.1) — until it re-assigns
    /// them. TLA+ actions: `GrantSteal` (shed) / `RecvGrant` (take-over).
    Grant {
        /// Phase of the originating request.
        phase: u32,
        /// Echo of the request id.
        req: u64,
        /// Tasks removed from the victim's queue.
        tasks: Vec<u32>,
    },
    /// W→C `0x85`: victim has too little work to shed.
    /// TLA+ action: `DenySteal`.
    Deny {
        /// Phase of the originating request.
        phase: u32,
        /// Echo of the request id.
        req: u64,
    },
    /// W→C `0x86`: the worker accepted an ownership transfer; the
    /// coordinator stops retransmitting that `Assign`.
    /// TLA+ action: `AckTransfer`.
    AssignAck {
        /// Phase of the transfer.
        phase: u32,
        /// Echo of the transfer id.
        xfer: u64,
    },
    /// W→C `0x87`: the worker's handler failed irrecoverably (unknown work
    /// kind, undecodable blob). The coordinator aborts the phase.
    Fatal {
        /// The failing worker slot.
        worker: u32,
        /// Human-readable cause.
        message: String,
    },
}

fn put_amount(w: &mut WireWriter, a: StealAmount) {
    match a {
        StealAmount::Half => {
            w.u8(0);
            w.u32(0);
        }
        StealAmount::One => {
            w.u8(1);
            w.u32(0);
        }
        StealAmount::Fixed(k) => {
            w.u8(2);
            w.u32(k as u32);
        }
    }
}

fn get_amount(r: &mut WireReader<'_>) -> Result<StealAmount, WireError> {
    let tag = r.u8()?;
    let k = r.u32()?;
    match tag {
        0 => Ok(StealAmount::Half),
        1 => Ok(StealAmount::One),
        2 => Ok(StealAmount::Fixed(k as usize)),
        t => Err(WireError::BadTag {
            what: "StealAmount",
            tag: t,
        }),
    }
}

impl Msg {
    /// Stable wire tag of this variant.
    pub fn tag(&self) -> u8 {
        match self {
            Msg::Init { .. } => 0x01,
            Msg::Assign { .. } => 0x02,
            Msg::StealAsk { .. } => 0x03,
            Msg::DoneAck { .. } => 0x04,
            Msg::Shutdown => 0x06,
            Msg::Hello { .. } => 0x81,
            Msg::Done { .. } => 0x82,
            Msg::NeedWork { .. } => 0x83,
            Msg::Grant { .. } => 0x84,
            Msg::Deny { .. } => 0x85,
            Msg::AssignAck { .. } => 0x86,
            Msg::Fatal { .. } => 0x87,
        }
    }

    /// Encode into frame-payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u8(self.tag());
        match self {
            Msg::Init {
                phase,
                kind,
                blob,
                tasks,
                amount,
                kill_after,
            } => {
                w.u32(*phase);
                w.str(kind);
                w.bytes(blob);
                w.vec_u32(tasks);
                put_amount(&mut w, *amount);
                w.opt_u64(*kill_after);
            }
            Msg::Assign { phase, xfer, tasks } => {
                w.u32(*phase);
                w.u64(*xfer);
                w.vec_u32(tasks);
            }
            Msg::StealAsk { phase, req } => {
                w.u32(*phase);
                w.u64(*req);
            }
            Msg::DoneAck { phase, seq } => {
                w.u32(*phase);
                w.u64(*seq);
            }
            Msg::Shutdown => {}
            Msg::Hello { worker, epoch } => {
                w.u32(*worker);
                w.u32(*epoch);
            }
            Msg::Done {
                phase,
                seq,
                executed,
                busy_ns,
                comm_ns,
                results,
            } => {
                w.u32(*phase);
                w.u64(*seq);
                w.u64(*executed);
                w.u64(*busy_ns);
                w.u64(*comm_ns);
                w.u32(results.len() as u32);
                for (task, result) in results {
                    w.u32(*task);
                    w.bytes(result);
                }
            }
            Msg::NeedWork { phase, worker } => {
                w.u32(*phase);
                w.u32(*worker);
            }
            Msg::Grant { phase, req, tasks } => {
                w.u32(*phase);
                w.u64(*req);
                w.vec_u32(tasks);
            }
            Msg::Deny { phase, req } => {
                w.u32(*phase);
                w.u64(*req);
            }
            Msg::AssignAck { phase, xfer } => {
                w.u32(*phase);
                w.u64(*xfer);
            }
            Msg::Fatal { worker, message } => {
                w.u32(*worker);
                w.str(message);
            }
        }
        w.into_bytes()
    }

    /// Decode from frame-payload bytes, requiring full consumption.
    pub fn decode(buf: &[u8]) -> Result<Msg, WireError> {
        let mut r = WireReader::new(buf);
        let tag = r.u8()?;
        let msg = match tag {
            0x01 => Msg::Init {
                phase: r.u32()?,
                kind: r.string()?,
                blob: r.bytes()?.to_vec(),
                tasks: r.vec_u32()?,
                amount: get_amount(&mut r)?,
                kill_after: r.opt_u64()?,
            },
            0x02 => Msg::Assign {
                phase: r.u32()?,
                xfer: r.u64()?,
                tasks: r.vec_u32()?,
            },
            0x03 => Msg::StealAsk {
                phase: r.u32()?,
                req: r.u64()?,
            },
            0x04 => Msg::DoneAck {
                phase: r.u32()?,
                seq: r.u64()?,
            },
            0x06 => Msg::Shutdown,
            0x81 => Msg::Hello {
                worker: r.u32()?,
                epoch: r.u32()?,
            },
            0x82 => Msg::Done {
                phase: r.u32()?,
                seq: r.u64()?,
                executed: r.u64()?,
                busy_ns: r.u64()?,
                comm_ns: r.u64()?,
                results: {
                    let count = r.u32()? as usize;
                    // A result occupies at least its task id and length
                    // prefix: believe the count only as far as bytes remain.
                    let mut results = Vec::with_capacity(count.min(r.remaining() / 8));
                    for _ in 0..count {
                        results.push((r.u32()?, r.bytes()?.to_vec()));
                    }
                    results
                },
            },
            0x83 => Msg::NeedWork {
                phase: r.u32()?,
                worker: r.u32()?,
            },
            0x84 => Msg::Grant {
                phase: r.u32()?,
                req: r.u64()?,
                tasks: r.vec_u32()?,
            },
            0x85 => Msg::Deny {
                phase: r.u32()?,
                req: r.u64()?,
            },
            0x86 => Msg::AssignAck {
                phase: r.u32()?,
                xfer: r.u64()?,
            },
            0x87 => Msg::Fatal {
                worker: r.u32()?,
                message: r.string()?,
            },
            t => {
                return Err(WireError::BadTag {
                    what: "Msg",
                    tag: t,
                })
            }
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Msg> {
        vec![
            Msg::Init {
                phase: 3,
                kind: "prm-gen".into(),
                blob: vec![1, 2, 3, 4, 5],
                tasks: vec![0, 4, 8],
                amount: StealAmount::Half,
                kill_after: Some(7),
            },
            Msg::Assign {
                phase: 3,
                xfer: 99,
                tasks: vec![11, 12],
            },
            Msg::StealAsk { phase: 3, req: 5 },
            Msg::DoneAck { phase: 3, seq: 8 },
            Msg::Shutdown,
            Msg::Hello {
                worker: 2,
                epoch: 0,
            },
            Msg::Done {
                phase: 3,
                seq: 2,
                executed: 5,
                busy_ns: 123_456,
                comm_ns: 789,
                results: vec![(8, vec![0xAB; 17]), (9, Vec::new())],
            },
            Msg::NeedWork {
                phase: 3,
                worker: 2,
            },
            Msg::Grant {
                phase: 3,
                req: 5,
                tasks: vec![4],
            },
            Msg::Deny { phase: 3, req: 5 },
            Msg::AssignAck { phase: 3, xfer: 99 },
            Msg::Fatal {
                worker: 1,
                message: "unknown kind".into(),
            },
        ]
    }

    #[test]
    fn all_variants_roundtrip() {
        for m in samples() {
            let enc = m.encode();
            let dec = Msg::decode(&enc).unwrap();
            assert_eq!(m, dec);
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        // 0x05 was version 2's `Cancel`; version 3 has no such message.
        for payload in [&[0x42][..], &[0x05, 3, 0, 0, 0]] {
            assert!(matches!(
                Msg::decode(payload),
                Err(WireError::BadTag { what: "Msg", tag }) if tag == payload[0]
            ));
        }
    }

    #[test]
    fn truncated_variants_error_not_panic() {
        for m in samples() {
            let enc = m.encode();
            for cut in 0..enc.len() {
                assert!(Msg::decode(&enc[..cut]).is_err(), "{m:?}: cut={cut}");
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut enc = Msg::Shutdown.encode();
        enc.push(0);
        assert!(matches!(
            Msg::decode(&enc),
            Err(WireError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn steal_amounts_roundtrip() {
        for amount in [StealAmount::Half, StealAmount::One, StealAmount::Fixed(3)] {
            let m = Msg::Init {
                phase: 0,
                kind: "synth".into(),
                blob: vec![],
                tasks: vec![],
                amount,
                kill_after: None,
            };
            assert_eq!(Msg::decode(&m.encode()).unwrap(), m);
        }
    }
}
