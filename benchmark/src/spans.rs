//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each crate's public functions: name, start, end, the span that caused it,
//! and the operation id (iteration or request wave) its children share.
//! They stay in memory and are written once, at exit, as a Chrome trace
//! through `smp_obs`. Self time of a span is its duration minus the part
//! its children cover.

use smp::obs::Tracer;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Switch recording on or off between operations (traced and untraced
    /// operations alternate to measure the recorder's own overhead).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty());
        self.on = on;
    }

    /// Operation id stamped on every span opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record `f` as a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// Record a child of the innermost open span whose duration was
    /// *reported by the product* (a planner phase makespan), laid out back
    /// to back from `*cursor_ns`, which is advanced past it.
    pub fn reported_child(&mut self, name: &'static str, cursor_ns: &mut u64, dur_ns: u64) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: *cursor_ns,
            end_ns: *cursor_ns + dur_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        *cursor_ns += dur_ns;
    }

    /// Start time of the innermost open span.
    pub fn open_start_ns(&self) -> u64 {
        self.stack.last().map_or(0, |&i| self.spans[i].start_ns)
    }

    /// Blocking-path decomposition: for every span named `root`, how its
    /// direct children and its own self time add up. Returns
    /// `(rows of (child name, mean ms per root), mean root ms, residual share)`
    /// where the residual is the root's self time — the part of the whole
    /// no child accounts for (negative when estimated children overshoot).
    pub fn decompose(&self, root: &'static str) -> (Vec<(&'static str, f64)>, f64, f64) {
        let roots: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == root)
            .collect();
        if roots.is_empty() {
            return (Vec::new(), 0.0, 0.0);
        }
        let n = roots.len() as f64;
        let mut by_child: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent.is_some_and(|p| self.spans[p].name == root) {
                *by_child.entry(s.name).or_default() += s.end_ns - s.start_ns;
            }
        }
        let whole: u64 = roots
            .iter()
            .map(|&i| self.spans[i].end_ns - self.spans[i].start_ns)
            .sum();
        let parts: u64 = by_child.values().sum();
        let rows = by_child
            .into_iter()
            .map(|(k, v)| (k, v as f64 / 1e6 / n))
            .collect();
        let residual = crate::util::ratio(whole as f64 - parts as f64, whole as f64);
        (rows, whole as f64 / 1e6 / n, residual)
    }

    /// One printable line of [`Spans::decompose`]: the parts, the whole and
    /// how far apart they are, the gap labelled `residual_label`.
    pub fn decomposition_line(&self, root: &'static str, residual_label: &str) -> String {
        let (rows, whole_ms, residual) = self.decompose(root);
        let parts: Vec<String> = rows.iter().map(|(n, v)| format!("{n} {v:.2}")).collect();
        format!(
            "{root} {whole_ms:.2} ms = {} ms + {residual_label} {:.1} %",
            parts.join(" + "),
            residual * 100.0
        )
    }

    /// Write the recording as a Chrome trace; one track per nesting depth.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut depth = vec![0u32; self.spans.len()];
        for i in 0..self.spans.len() {
            if let Some(p) = self.spans[i].parent {
                depth[i] = depth[p] + 1;
            }
        }
        // (time, end-before-begin, index, is-begin): ends sort first so
        // back-to-back spans on one track never overlap.
        let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(self.spans.len() * 2);
        for (i, s) in self.spans.iter().enumerate() {
            events.push((s.start_ns, true, i));
            events.push((s.end_ns.max(s.start_ns + 1), false, i));
        }
        events.sort_by_key(|&(ts, begin, i)| (ts, begin, i));
        let mut tracer = Tracer::new();
        for d in 0..=depth.iter().copied().max().unwrap_or(0) {
            tracer.name_track(d, &format!("depth {d}"));
        }
        for (ts, begin, i) in events {
            let s = &self.spans[i];
            if begin {
                let parent = s.parent.map_or(u64::MAX, |p| p as u64);
                let args = [("span", i as u64), ("parent", parent), ("op", s.op)];
                tracer.begin_args(ts, depth[i], "bench", s.name, &args);
            } else {
                tracer.end(ts, depth[i], "bench");
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, tracer.to_chrome_json())
    }
}
