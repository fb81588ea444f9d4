//! In-memory spans for the traced ladder, written out when the run ends.
//!
//! A span is one call into a layer's public entry point, timed from the
//! benchmark's side of the call. Spans of one rung replay share the rung
//! name; a request's spans share its op index; a child span names the span
//! that caused it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub rung: &'static str,
    pub model: &'static str,
    pub name: &'static str,
    pub op: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    rung: &'static str,
    model: &'static str,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            rung: "",
            model: "",
        }
    }

    /// Names the rung and latency model the following spans belong to.
    pub fn enter(&mut self, rung: &'static str, model: &'static str) {
        self.rung = rung;
        self.model = model;
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span that started at `start_ns` and ends now.
    pub fn record(&mut self, name: &'static str, op: u32, parent: u32, start_ns: u64) -> u32 {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            rung: self.rung,
            model: self.model,
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a top-level span that child spans can name as their parent;
    /// [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, op: u32) -> u32 {
        let start = self.now_ns();
        self.record(name, op, NO_PARENT, start)
    }

    pub fn close(&mut self, span: u32) {
        let end = self.now_ns();
        self.spans[span as usize].end_ns = end;
    }

    /// Runs `f` inside a top-level span.
    pub fn time<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let r = f();
        self.record(name, op, NO_PARENT, start);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name `(calls, total ns)` and the total of top-level spans, for
    /// one rung under one model.
    pub fn summary(&self, rung: &str, model: &str) -> Summary {
        let mut s = Summary::default();
        for span in self
            .spans
            .iter()
            .filter(|s| s.rung == rung && s.model == model)
        {
            let e = s.calls.entry(span.name).or_default();
            e.0 += 1;
            e.1 += span.ns();
            if span.parent == NO_PARENT {
                s.top_ns += span.ns();
            }
        }
        s
    }

    /// Writes every span as a tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "index\tmodel\trung\tname\top\tparent\tstart_ns\tend_ns"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.model, s.rung, s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[derive(Default)]
pub struct Summary {
    pub calls: BTreeMap<&'static str, (u64, u64)>,
    pub top_ns: u64,
}

impl Summary {
    /// Mean ns per call of `name`, or 0 when it was never called.
    pub fn mean_ns(&self, name: &str) -> f64 {
        match self.calls.get(name) {
            Some(&(n, ns)) if n > 0 => ns as f64 / n as f64,
            _ => 0.0,
        }
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.calls.get(name).map_or(0, |c| c.1)
    }
}
