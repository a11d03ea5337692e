//! Structured event tracer with per-track span stacks.
//!
//! A [`Tracer`] records [`TraceEvent`]s on integer *tracks* (the DES uses
//! one track per PE plus one for planner phases). Emission order is the
//! caller's event order; timestamps are clamped to be monotone per track
//! (Chrome's `trace_event` format requires non-decreasing timestamps per
//! thread, and a discrete-event handler may legitimately stamp a message
//! service a few virtual ns behind an already-emitted poll event).
//!
//! The tracer also tracks open spans per track, which gives the
//! well-formedness guarantees the property tests pin: every `end` closes
//! the most recent `begin` on its track, unmatched ends are counted as
//! defects, and [`Tracer::check_well_formed`] re-verifies balance and
//! monotonicity from the recorded stream itself.

use std::collections::BTreeMap;

/// What kind of trace record an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventPhase {
    /// Span opening (`ph: "B"`).
    Begin,
    /// Span closing (`ph: "E"`).
    End,
    /// Point event (`ph: "i"`).
    Instant,
    /// Counter sample (`ph: "C"`).
    Counter,
}

/// One recorded event. `args` hold small integer payloads (task ids,
/// counts, costs) — never floats, so rendering is byte-stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual nanoseconds (after base offset and per-track clamping).
    pub ts: u64,
    /// Track id (PE index, or a dedicated planner track).
    pub track: u32,
    pub phase: EventPhase,
    pub cat: &'static str,
    pub name: &'static str,
    pub args: Vec<(&'static str, u64)>,
}

/// Defects found by [`Tracer::check_well_formed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceCheckError {
    /// An `End` with no matching `Begin` was recorded on `track`.
    UnmatchedEnd { track: u32 },
    /// `open` spans were never ended on `track`.
    UnclosedSpans { track: u32, open: usize },
    /// Timestamps went backwards on `track` (should be impossible — the
    /// recorder clamps).
    NonMonotone { track: u32, at: u64, prev: u64 },
    /// An `End` closed a span under a different name than its `Begin`.
    NameMismatch {
        track: u32,
        begin: &'static str,
        end: &'static str,
    },
}

impl std::fmt::Display for TraceCheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceCheckError::UnmatchedEnd { track } => {
                write!(f, "track {track}: span end without begin")
            }
            TraceCheckError::UnclosedSpans { track, open } => {
                write!(f, "track {track}: {open} spans never ended")
            }
            TraceCheckError::NonMonotone { track, at, prev } => {
                write!(f, "track {track}: timestamp {at} after {prev}")
            }
            TraceCheckError::NameMismatch { track, begin, end } => {
                write!(f, "track {track}: span '{begin}' ended as '{end}'")
            }
        }
    }
}

impl std::error::Error for TraceCheckError {}

/// Event recorder. Construct with [`Tracer::new`] (recording) or
/// [`Tracer::disabled`] (every call is a cheap early return).
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    /// Added to every timestamp — lets a caller splice several simulated
    /// phases onto one timeline (phase 2 starts where phase 1 ended).
    base: u64,
    events: Vec<TraceEvent>,
    /// Open span names per track (for auto-naming `end` and balance checks).
    open: BTreeMap<u32, Vec<&'static str>>,
    /// Last emitted timestamp per track (monotonicity clamp).
    last_ts: BTreeMap<u32, u64>,
    /// Human-readable track labels for the Chrome export.
    track_names: BTreeMap<u32, String>,
    /// `end` calls that found no open span (a defect, surfaced by
    /// [`Tracer::check_well_formed`]).
    unmatched_ends: u64,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            ..Default::default()
        }
    }

    /// A tracer that records nothing; every mutator returns immediately.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// Set the offset added to all subsequently recorded timestamps.
    pub fn set_base(&mut self, base: u64) {
        self.base = base;
    }

    pub fn base(&self) -> u64 {
        self.base
    }

    /// Label a track for the Chrome export (e.g. `"PE 3"`, `"phases"`).
    pub fn name_track(&mut self, track: u32, name: &str) {
        if !self.enabled {
            return;
        }
        self.track_names.insert(track, name.to_string());
    }

    #[inline]
    fn clamp(&mut self, track: u32, ts: u64) -> u64 {
        let ts = self.base + ts;
        let last = self.last_ts.entry(track).or_insert(0);
        let ts = ts.max(*last);
        *last = ts;
        ts
    }

    /// Open a span on `track`.
    pub fn begin(&mut self, ts: u64, track: u32, cat: &'static str, name: &'static str) {
        self.begin_args(ts, track, cat, name, &[]);
    }

    /// Open a span with integer args.
    pub fn begin_args(
        &mut self,
        ts: u64,
        track: u32,
        cat: &'static str,
        name: &'static str,
        args: &[(&'static str, u64)],
    ) {
        if !self.enabled {
            return;
        }
        let ts = self.clamp(track, ts);
        self.open.entry(track).or_default().push(name);
        self.events.push(TraceEvent {
            ts,
            track,
            phase: EventPhase::Begin,
            cat,
            name,
            args: args.to_vec(),
        });
    }

    /// Close the most recent open span on `track`.
    pub fn end(&mut self, ts: u64, track: u32, cat: &'static str) {
        self.end_args(ts, track, cat, &[]);
    }

    /// Close the most recent open span on `track`, attaching args to the
    /// end event (e.g. `("aborted", 1)` for a crash rollback).
    pub fn end_args(
        &mut self,
        ts: u64,
        track: u32,
        cat: &'static str,
        args: &[(&'static str, u64)],
    ) {
        if !self.enabled {
            return;
        }
        let Some(name) = self.open.entry(track).or_default().pop() else {
            self.unmatched_ends += 1;
            return;
        };
        let ts = self.clamp(track, ts);
        self.events.push(TraceEvent {
            ts,
            track,
            phase: EventPhase::End,
            cat,
            name,
            args: args.to_vec(),
        });
    }

    /// Record a point event.
    pub fn instant(
        &mut self,
        ts: u64,
        track: u32,
        cat: &'static str,
        name: &'static str,
        args: &[(&'static str, u64)],
    ) {
        if !self.enabled {
            return;
        }
        let ts = self.clamp(track, ts);
        self.events.push(TraceEvent {
            ts,
            track,
            phase: EventPhase::Instant,
            cat,
            name,
            args: args.to_vec(),
        });
    }

    /// Record a counter sample (rendered as a stacked area in Perfetto).
    pub fn counter(&mut self, ts: u64, track: u32, name: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        let ts = self.clamp(track, ts);
        self.events.push(TraceEvent {
            ts,
            track,
            phase: EventPhase::Counter,
            cat: "counter",
            name,
            args: vec![("value", value)],
        });
    }

    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of spans currently open across all tracks.
    pub fn open_spans(&self) -> usize {
        self.open.values().map(Vec::len).sum()
    }

    /// Events in `cat` (test helper).
    pub fn count_category(&self, cat: &str) -> usize {
        self.events.iter().filter(|e| e.cat == cat).count()
    }

    /// Track labels registered via [`Tracer::name_track`].
    pub fn track_names(&self) -> &BTreeMap<u32, String> {
        &self.track_names
    }

    /// Re-verify the recorded stream: balanced nesting per track, monotone
    /// per-track timestamps, no unmatched ends, nothing left open.
    pub fn check_well_formed(&self) -> Result<(), TraceCheckError> {
        if self.unmatched_ends > 0 {
            // find the earliest offender is not possible post-hoc; report
            // the first track that appears in the stream
            let track = self.events.first().map_or(0, |e| e.track);
            return Err(TraceCheckError::UnmatchedEnd { track });
        }
        let mut stacks: BTreeMap<u32, Vec<&'static str>> = BTreeMap::new();
        let mut last: BTreeMap<u32, u64> = BTreeMap::new();
        for e in &self.events {
            let prev = last.entry(e.track).or_insert(0);
            if e.ts < *prev {
                return Err(TraceCheckError::NonMonotone {
                    track: e.track,
                    at: e.ts,
                    prev: *prev,
                });
            }
            *prev = e.ts;
            match e.phase {
                EventPhase::Begin => stacks.entry(e.track).or_default().push(e.name),
                EventPhase::End => match stacks.entry(e.track).or_default().pop() {
                    None => return Err(TraceCheckError::UnmatchedEnd { track: e.track }),
                    Some(begin) if begin != e.name => {
                        return Err(TraceCheckError::NameMismatch {
                            track: e.track,
                            begin,
                            end: e.name,
                        })
                    }
                    Some(_) => {}
                },
                EventPhase::Instant | EventPhase::Counter => {}
            }
        }
        for (&track, stack) in &stacks {
            if !stack.is_empty() {
                return Err(TraceCheckError::UnclosedSpans {
                    track,
                    open: stack.len(),
                });
            }
        }
        Ok(())
    }

    /// Render the stream as Chrome `trace_event` JSON (see [`crate::chrome`]).
    pub fn to_chrome_json(&self) -> String {
        crate::chrome::to_chrome_json(&self.events, &self.track_names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cat;

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::disabled();
        t.begin(0, 0, cat::TASK, "task");
        t.instant(5, 0, cat::STEAL, "req", &[("victim", 3)]);
        t.end(10, 0, cat::TASK);
        t.counter(11, 0, "queue", 4);
        assert!(t.is_empty());
        assert_eq!(t.open_spans(), 0);
        assert!(t.check_well_formed().is_ok());
    }

    #[test]
    fn spans_balance_and_auto_name() {
        let mut t = Tracer::new();
        t.begin(0, 2, cat::TASK, "task");
        t.begin(5, 2, cat::TASK, "inner");
        t.end(7, 2, cat::TASK);
        t.end(9, 2, cat::TASK);
        assert_eq!(t.len(), 4);
        assert_eq!(t.events()[2].name, "inner");
        assert_eq!(t.events()[3].name, "task");
        assert_eq!(t.open_spans(), 0);
        assert!(t.check_well_formed().is_ok());
    }

    #[test]
    fn unmatched_end_is_a_defect() {
        let mut t = Tracer::new();
        t.end(3, 0, cat::TASK);
        assert!(matches!(
            t.check_well_formed(),
            Err(TraceCheckError::UnmatchedEnd { .. })
        ));
    }

    #[test]
    fn unclosed_span_is_a_defect() {
        let mut t = Tracer::new();
        t.begin(0, 1, cat::TASK, "task");
        assert_eq!(t.open_spans(), 1);
        assert!(matches!(
            t.check_well_formed(),
            Err(TraceCheckError::UnclosedSpans { track: 1, open: 1 })
        ));
    }

    #[test]
    fn timestamps_clamped_monotone_per_track() {
        let mut t = Tracer::new();
        t.instant(100, 0, cat::MSG, "a", &[]);
        t.instant(90, 0, cat::MSG, "b", &[]); // would go backwards: clamped
        t.instant(50, 1, cat::MSG, "c", &[]); // other track unaffected
        assert_eq!(t.events()[1].ts, 100);
        assert_eq!(t.events()[2].ts, 50);
        assert!(t.check_well_formed().is_ok());
    }

    #[test]
    fn base_offsets_splice_phases() {
        let mut t = Tracer::new();
        t.begin(0, 0, cat::PHASE, "gen");
        t.end(100, 0, cat::PHASE);
        t.set_base(100);
        t.begin(0, 0, cat::PHASE, "connect");
        t.end(250, 0, cat::PHASE);
        let ts: Vec<u64> = t.events().iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![0, 100, 100, 350]);
    }

    #[test]
    fn identical_streams_render_identically() {
        let record = |seed: u64| {
            let mut t = Tracer::new();
            t.name_track(0, "PE 0");
            t.begin_args(seed, 0, cat::TASK, "task", &[("task", 1)]);
            t.instant(seed + 1, 0, cat::STEAL, "req", &[]);
            t.end(seed + 2, 0, cat::TASK);
            t.to_chrome_json()
        };
        assert_eq!(record(10), record(10));
        assert_ne!(record(10), record(11));
    }
}
