//! Spans recorded by the benchmark around its calls into the engine.
//!
//! Each thread owns a [`Tracer`]. A disabled tracer records nothing and
//! never reads the clock, so untraced jobs pay one branch per call site.
//! Spans stay in memory and are written out once, at exit.

use std::io::Write;
use std::time::Instant;

/// One timed call: `[start, end)` in nanoseconds since the job origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    /// `u32::MAX` for a root span.
    pub parent: u32,
    pub thread: &'static str,
    pub name: &'static str,
    /// Canonical rounds admitted when the span started.
    pub round: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub const ROOT: u32 = u32::MAX;

pub struct Tracer {
    on: bool,
    origin: Instant,
    thread: &'static str,
    /// Ids are `id_base + index`, so two threads' spans never collide.
    id_base: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant, thread: &'static str, id_base: u32) -> Tracer {
        Tracer {
            on,
            origin,
            thread,
            id_base,
            spans: Vec::with_capacity(if on { 1 << 14 } else { 0 }),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Clock reading for a span start (0 when disabled).
    pub fn now(&self) -> u64 {
        if self.on {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Record `name` from `start` until now; returns the span id.
    pub fn close(&mut self, name: &'static str, parent: u32, round: usize, start: u64) -> u32 {
        if !self.on {
            return ROOT;
        }
        let end = self.now();
        self.push(name, parent, round, start, end)
    }

    pub fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        round: usize,
        start: u64,
        end: u64,
    ) -> u32 {
        let id = self.id_base + self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            thread: self.thread,
            name,
            round: round.min(u32::MAX as usize) as u32,
            start,
            end,
        });
        id
    }

    /// Total duration of the spans called `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::nanos)
            .sum()
    }
}

/// Self time of span `id`: its duration minus the part of its interval
/// that its child spans cover.
pub fn self_time(spans: &[Span], id: u32) -> u64 {
    let Some(span) = spans.iter().find(|s| s.id == id) else {
        return 0;
    };
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == id)
        .map(|s| (s.start.max(span.start), s.end.min(span.end)))
        .filter(|(a, b)| a < b)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    span.nanos().saturating_sub(covered)
}

/// Write spans as tab-separated lines with a header.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tthread\tname\tround\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = if s.parent == ROOT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, parent, s.thread, s.name, s.round, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            thread: "t",
            name: "x",
            round: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, ROOT, 0, 100),
            span(1, 0, 10, 30),
            span(2, 0, 20, 40),  // overlaps child 1
            span(3, 0, 90, 120), // runs past the parent
            span(4, 1, 12, 14),  // grandchild: not subtracted from 0
        ];
        assert_eq!(self_time(&spans, 0), 100 - 30 - 10);
        assert_eq!(self_time(&spans, 1), 20 - 2);
    }
}
