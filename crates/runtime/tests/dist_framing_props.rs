//! Property tests for the distributed backend's framing and message
//! codec: every malformed input — truncated mid-frame, bit-flipped,
//! oversized, trailing garbage — must surface as a structured
//! [`FrameError`]/[`WireError`], never a panic, and well-formed frames
//! and messages must round-trip exactly (PROTOCOL.md §1–§4).

use proptest::prelude::*;
use smp_runtime::dist::frame::{fnv1a, read_frame, write_frame, HEADER_LEN, MAX_FRAME, VERSION};
use smp_runtime::dist::wire::{WireReader, WireWriter};
use smp_runtime::dist::{FrameError, Msg, WireError};
use smp_runtime::StealAmount;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;

/// Counts the bytes each thread requests from the heap (the pattern of
/// `crates/graph/tests/alloc_free.rs`, per thread because the other cases
/// here run concurrently).
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator outlives a thread's locals.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter that itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// A 17-byte header may *claim* the largest legal payload; until bytes
/// actually arrive the reader must not believe it. (The checksum cannot
/// help here: it is only checkable once the whole payload is in.)
#[test]
fn a_lying_length_prefix_cannot_force_a_large_allocation() {
    let mut buf = framed(&[]);
    buf[5..9].copy_from_slice(&(MAX_FRAME as u32).to_le_bytes());
    buf.extend_from_slice(&[1, 2, 3]);
    let before = ALLOCATED.with(Cell::get);
    let res = read_frame(&mut Cursor::new(&buf));
    let allocated = ALLOCATED.with(Cell::get) - before;
    assert!(matches!(res, Err(FrameError::Truncated)), "{res:?}");
    assert!(
        allocated < 1 << 20,
        "{allocated} bytes allocated for a frame that delivered 3"
    );
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, payload).expect("frame within bounds");
    buf
}

fn done_batch(results: Vec<(u32, Vec<u8>)>) -> Msg {
    Msg::Done {
        phase: 3,
        seq: 11,
        executed: 5,
        busy_ns: 12_345,
        comm_ns: 678,
        results,
    }
}

/// A `Done` batch round-trips with no, one and many results, empty result
/// bytes included, and cutting a valid batch anywhere is an error.
#[test]
fn done_batches_roundtrip_and_every_truncation_errors() {
    let many: Vec<(u32, Vec<u8>)> = (0..200u32)
        .map(|t| (t * 7, vec![t as u8; (t % 5) as usize]))
        .collect();
    for results in [vec![], vec![(9, vec![])], vec![(9, vec![1, 2, 3])], many] {
        let msg = done_batch(results);
        let bytes = msg.encode();
        assert_eq!(Msg::decode(&bytes).expect("valid batch"), msg);
        for cut in 0..bytes.len() {
            assert!(Msg::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}

/// A batch may *claim* `u32::MAX` results; the decoder sizes its vector by
/// the bytes that are there, not by the claim.
#[test]
fn a_lying_batch_count_is_a_wire_error_without_a_large_allocation() {
    let mut bytes = done_batch(vec![]).encode();
    let count_at = bytes.len() - 4;
    bytes[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0xAA; 10]);
    let before = ALLOCATED.with(Cell::get);
    let res = Msg::decode(&bytes);
    let allocated = ALLOCATED.with(Cell::get) - before;
    assert!(
        matches!(
            res,
            Err(WireError::Truncated { .. } | WireError::BadLength { .. })
        ),
        "{res:?}"
    );
    assert!(
        allocated < 1 << 10,
        "{allocated} bytes allocated for a ten-byte batch body"
    );
}

/// The batched `Done` changed the wire format: a version-1 peer is turned
/// away at the frame header, before its payload is looked at.
#[test]
fn a_version_1_frame_is_bad_version() {
    let mut buf = framed(&Msg::Shutdown.encode());
    buf[4] = 1;
    let res = read_frame(&mut Cursor::new(&buf));
    assert!(
        matches!(res, Err(FrameError::BadVersion { found: 1 })),
        "{res:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary payload bytes survive a frame round-trip unchanged —
    /// including payloads several times the reader's eager buffer, which
    /// arrive in more than one read.
    #[test]
    fn frame_roundtrips_arbitrary_payloads(
        payload in prop::collection::vec(0u8..255, 0..300_000),
    ) {
        let buf = framed(&payload);
        prop_assert_eq!(buf.len(), HEADER_LEN + payload.len());
        let got = read_frame(&mut Cursor::new(&buf)).expect("valid frame");
        prop_assert_eq!(got, payload);
    }

    /// Cutting a valid frame anywhere yields `Truncated`, never a panic
    /// (kill-recovery relies on this: a dying worker tears its last frame).
    #[test]
    fn truncated_frames_are_structured_errors(
        payload in prop::collection::vec(0u8..255, 1..300_000),
        cut_frac in 0u32..1000,
    ) {
        let buf = framed(&payload);
        let cut = (cut_frac as usize * (buf.len() - 1)) / 1000;
        let res = read_frame(&mut Cursor::new(&buf[..cut]));
        prop_assert!(
            matches!(res, Err(FrameError::Truncated)),
            "cut at {} of {}: {:?}", cut, buf.len(), res.map(|p| p.len())
        );
    }

    /// Flipping any single byte of a frame is always detected: magic,
    /// version, and checksum cover the header, FNV-1a covers the payload.
    /// A length-byte flip may legitimately shorten the payload view — the
    /// checksum still catches it.
    #[test]
    fn corrupted_frames_never_decode_silently(
        payload in prop::collection::vec(0u8..255, 1..512),
        pos_frac in 0u32..1000,
        flip in 1u8..255,
    ) {
        let mut buf = framed(&payload);
        let pos = (pos_frac as usize * (buf.len() - 1)) / 1000;
        buf[pos] ^= flip;
        // A flip that *grows* the length field reads past the buffer
        // (Truncated); one that shrinks it breaks the checksum; header
        // flips break magic/version/checksum directly.
        let res = read_frame(&mut Cursor::new(&buf));
        prop_assert!(res.is_err(), "flip {:#04x} at {} went unnoticed", flip, pos);
    }

    /// Length prefixes beyond MAX_FRAME are rejected from the header
    /// alone — before any payload allocation.
    #[test]
    fn oversized_claims_are_rejected_without_allocation(
        extra in 1u64..u64::from(u32::MAX) - MAX_FRAME as u64,
    ) {
        let claimed = MAX_FRAME as u64 + extra;
        let mut buf = Vec::new();
        buf.extend_from_slice(b"SMPD");
        buf.push(VERSION);
        buf.extend_from_slice(&(claimed as u32).to_le_bytes());
        buf.extend_from_slice(&fnv1a(&[]).to_le_bytes());
        let res = read_frame(&mut Cursor::new(&buf));
        prop_assert!(
            matches!(res, Err(FrameError::Oversized { claimed: c }) if c == claimed),
            "claimed {} bytes: {:?}", claimed, res.map(|p| p.len())
        );
    }

    /// Every message variant round-trips through encode/decode exactly.
    #[test]
    fn messages_roundtrip_exactly(
        phase in 0u32..1000,
        worker in 0u32..64,
        xfer in 0u64..1_000_000,
        blob in prop::collection::vec(0u8..255, 0..256),
        tasks in prop::collection::vec(0u32..100_000, 0..64),
        kill in 0u64..100,
        has_kill in proptest::prop::bool::ANY,
    ) {
        let msgs = [
            Msg::Init {
                phase,
                kind: "prm-connect".to_string(),
                blob: blob.clone(),
                tasks: tasks.clone(),
                amount: StealAmount::Half,
                kill_after: if has_kill { Some(kill) } else { None },
            },
            Msg::Assign { phase, xfer, tasks: tasks.clone() },
            Msg::StealAsk { phase, req: xfer },
            Msg::DoneAck { phase, seq: xfer },
            Msg::Shutdown,
            Msg::Hello { worker, epoch: phase % 7 },
            Msg::Done {
                phase,
                seq: xfer,
                executed: xfer,
                busy_ns: xfer * 3,
                comm_ns: xfer * 5,
                results: tasks.iter().map(|&t| (t, blob.clone())).collect(),
            },
            Msg::NeedWork { phase, worker },
            Msg::Grant { phase, req: xfer, tasks: tasks.clone() },
            Msg::Deny { phase, req: xfer },
            Msg::AssignAck { phase, xfer },
            Msg::Fatal { worker, message: "decode failed".to_string() },
        ];
        for msg in msgs {
            let bytes = msg.encode();
            let back = Msg::decode(&bytes).expect("decode");
            prop_assert_eq!(&back, &msg);
        }
    }

    /// Message decoding rejects truncation, trailing garbage, and unknown
    /// tags with structured errors — no input can panic the decoder.
    #[test]
    fn message_decoder_rejects_malformed_inputs(
        bytes in prop::collection::vec(0u8..255, 0..256),
        cut_frac in 0u32..1000,
    ) {
        // Whatever the fuzz bytes decode to (usually an error), it must
        // not panic; if it decodes, re-encoding must be canonical.
        if let Ok(msg) = Msg::decode(&bytes) {
            prop_assert_eq!(msg.encode(), bytes);
        }
        // A valid message truncated mid-field must error, not panic.
        let valid = done_batch(vec![(17, bytes.clone())]).encode();
        let cut = 1 + (cut_frac as usize * (valid.len() - 2)) / 1000;
        prop_assert!(Msg::decode(&valid[..cut]).is_err());
        // Trailing garbage is rejected (decode requires full consumption).
        let mut padded = valid.clone();
        padded.push(0xEE);
        prop_assert!(Msg::decode(&padded).is_err());
    }

    /// The primitive wire codec is exact: a written record reads back
    /// field-for-field, and `finish` rejects leftover bytes.
    #[test]
    fn wire_codec_roundtrips_primitives(
        a in 0u64..u64::MAX,
        b in -1.0e12f64..1.0e12,
        c in prop::collection::vec(0u64..u64::MAX, 0..64),
        flag in proptest::prop::bool::ANY,
    ) {
        let mut w = WireWriter::new();
        w.u64(a);
        w.f64(b);
        w.vec_u64(&c);
        w.bool(flag);
        w.str("region");
        let bytes = w.into_bytes();

        let mut r = WireReader::new(&bytes);
        prop_assert_eq!(r.u64().expect("u64"), a);
        prop_assert_eq!(r.f64().expect("f64").to_bits(), b.to_bits());
        prop_assert_eq!(r.vec_u64().expect("vec"), c);
        prop_assert_eq!(r.bool().expect("bool"), flag);
        prop_assert_eq!(r.string().expect("str"), "region");
        prop_assert!(r.finish().is_ok());

        // One byte short: structured error.
        let mut short = WireReader::new(&bytes[..bytes.len() - 1]);
        let mut all_ok = true;
        all_ok &= short.u64().is_ok();
        all_ok &= short.f64().is_ok();
        all_ok &= short.vec_u64().is_ok();
        all_ok &= short.bool().is_ok();
        all_ok &= short.string().is_ok();
        prop_assert!(!all_ok, "truncated record decoded fully");
    }
}
