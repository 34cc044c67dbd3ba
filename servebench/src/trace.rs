//! In-memory spans for the traced run, written out when it ends.
//!
//! A span has a name, a start, an end and the span that caused it. A
//! span's self time is its duration minus the part of it its children
//! cover.

use crate::client::Sent;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span measures.
    pub name: &'static str,
    /// Causing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// A span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished interval; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Runs `f` inside a span named `name`; `f` gets the span's id so it
    /// can open children. Returns `f`'s value and the span's duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Tracer, usize) -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let id = self.record(name, parent, start, start);
        let value = f(self, id);
        let end = Instant::now();
        self.spans[id].end_ns = self.ns(end);
        (value, end - start)
    }

    /// The spans of one served line: due to answer, with the generator's
    /// lateness and the socket write as children.
    pub fn line(&mut self, job: &Sent) {
        let Some(recv) = job.recv else { return };
        let id = self.record("line", None, job.due, recv);
        self.record("line.gen_lag", Some(id), job.due, job.start);
        self.record("line.write", Some(id), job.start, job.sent);
    }

    /// Every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id": {id}, "name": "{}", "parent": {parent}, "start_ns": {}, "end_ns": {}}}"#,
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Per span name: count, total and self time, as a text table.
    pub fn self_time_table(&self) -> String {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(id);
            }
        }
        let mut by_name: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let mut kids: Vec<(u64, u64)> = children[id]
                .iter()
                .map(|&k| {
                    let c = &self.spans[k];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, 0);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let entry = by_name.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total - covered.min(total);
        }
        let mut out = format!(
            "{:<28} {:>8} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, (count, total, own)) in by_name {
            let _ = writeln!(
                out,
                "{name:<28} {count:>8} {:>12.3} {:>12.3}",
                total as f64 * 1e-6,
                own as f64 * 1e-6
            );
        }
        out
    }
}
