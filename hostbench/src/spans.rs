//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around
//! calls into each layer's public functions; nothing inside the
//! simulator is instrumented. A span records its name, start, end,
//! parent span and op id. Spans stay in memory until the run ends,
//! when [`Tracer::write_csv`] writes them out and [`Tracer::summary`]
//! folds them into per-span and per-layer figures. With tracing off,
//! [`Tracer::open`] and [`Tracer::close`] do nothing.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Op id of spans recorded outside any op (set-up work).
const SETUP: u64 = u64::MAX;
/// Name of the span that wraps one whole op. Its self time is the part
/// of the op no layer span covers.
const OP: &str = "op";
const NONE: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Span name: `<layer>.<what>`, or [`OP`].
    name: &'static str,
    /// Start time.
    start_ns: u64,
    /// End time.
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<u32>,
    /// Op the span belongs to ([`SETUP`] outside ops).
    op: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span must be closed"]
pub struct Open(u32);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
    next_op: u64,
    insts: BTreeMap<&'static str, u64>,
}

/// Count, median and total duration of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    /// Spans recorded.
    pub count: u64,
    /// Median duration in microseconds.
    pub p50_us: f64,
    /// Summed duration in microseconds.
    pub total_us: f64,
}

/// What the recorded spans add up to.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Per span name (the op span excluded).
    pub by_name: BTreeMap<&'static str, SpanStats>,
    /// Self time per layer as a share of all op time (set-up spans
    /// excluded). The op span's own self time is reported as
    /// [`Summary::unattributed_share`], not here.
    pub self_share: BTreeMap<&'static str, f64>,
    /// Share of op time that no layer span covers.
    pub unattributed_share: f64,
}

/// The layer of a span name: the part before the first dot.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

impl Tracer {
    /// A recorder, recording only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: SETUP,
            next_op: 0,
            insts: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between passes.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new op and opens its [`OP`] span.
    pub fn begin_op(&mut self) -> Open {
        if !self.on {
            return Open(NONE);
        }
        self.op = self.next_op;
        self.next_op += 1;
        self.open(OP)
    }

    /// Closes an op opened by [`Tracer::begin_op`].
    pub fn end_op(&mut self, op: Open) {
        self.close(op);
        self.op = SETUP;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(NONE);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes the innermost open span.
    pub fn close(&mut self, span: Open) {
        if span.0 == NONE {
            return;
        }
        let end = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(span.0), "spans closed out of order");
        self.spans[span.0 as usize].end_ns = end;
    }

    /// Credits `n` simulated instructions to the work timed by spans
    /// named `name` (for per-span MIPS).
    pub fn add_insts(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.insts.entry(name).or_insert(0) += n;
        }
    }

    /// Simulated instructions credited to `name`.
    pub fn insts(&self, name: &str) -> u64 {
        self.insts.get(name).copied().unwrap_or(0)
    }

    /// Folds the recorded spans into per-name and per-layer figures.
    pub fn summary(&self) -> Summary {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.dur();
            }
        }
        let mut durs: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut op_ns = 0u64;
        let mut unattributed = 0u64;
        for (s, c) in self.spans.iter().zip(&child) {
            let own = s.dur().saturating_sub(*c);
            if s.name == OP {
                op_ns += s.dur();
                unattributed += own;
                continue;
            }
            durs.entry(s.name).or_default().push(s.dur());
            if s.op != SETUP {
                *self_ns.entry(layer_of(s.name)).or_insert(0) += own;
            }
        }
        let share = |ns: u64| {
            if op_ns == 0 {
                0.0
            } else {
                ns as f64 / op_ns as f64
            }
        };
        Summary {
            by_name: durs
                .into_iter()
                .map(|(name, mut d)| {
                    d.sort_unstable();
                    let stats = SpanStats {
                        count: d.len() as u64,
                        p50_us: d[d.len() / 2] as f64 / 1e3,
                        total_us: d.iter().sum::<u64>() as f64 / 1e3,
                    };
                    (name, stats)
                })
                .collect(),
            self_share: self_ns.into_iter().map(|(l, ns)| (l, share(ns))).collect(),
            unattributed_share: share(unattributed),
        }
    }

    /// Writes every span as one CSV line:
    /// `id,name,start_ns,end_ns,parent,op` (empty parent for a root,
    /// `setup` as the op of set-up spans).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(fs::File::create(path)?);
        writeln!(w, "id,name,start_ns,end_ns,parent,op")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            let op = if s.op == SETUP {
                "setup".to_owned()
            } else {
                s.op.to_string()
            };
            writeln!(
                w,
                "{i},{},{},{},{parent},{op}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut off = Tracer::new(false);
        let o = off.begin_op();
        let s = off.open("cpu.run");
        off.close(s);
        off.end_op(o);
        assert!(off.spans.is_empty());

        let mut t = Tracer::new(true);
        let o = t.begin_op();
        let s = t.open("cpu.run");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(s);
        t.end_op(o);
        let sum = t.summary();
        assert_eq!(sum.by_name["cpu.run"].count, 1);
        let cpu = sum.self_share["cpu"];
        assert!(cpu > 0.5 && cpu <= 1.0, "cpu share {cpu}");
        assert!((cpu + sum.unattributed_share - 1.0).abs() < 1e-9);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, 0);
    }
}
