//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in a pre-allocated vector while the run measures and are
//! written as JSON lines when it ends. The tree is `workload` → `setup` /
//! `iteration` → `op.<name>`, then one `probe.<layer>` per direct probe;
//! `run` groups the spans of one repetition.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Repetition the span belongs to (0 for the root and the probes).
    pub run: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at the same boundary (agents, op runs, probe samples).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<u32>, run: u32) -> u32 {
        let now = self.now_ns();
        self.record(name, parent, run, now, now, Vec::new())
    }

    pub fn close(&mut self, id: u32, counts: Vec<(&'static str, u64)>) {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.counts = counts;
    }

    /// Records a finished span with explicit bounds.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<u32>,
        run: u32,
        start_ns: u64,
        end_ns: u64,
        counts: Vec<(&'static str, u64)>,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            run,
            name: name.into(),
            start_ns,
            end_ns,
            counts,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj([
                ("id", Json::Int(s.id as u64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                ),
                ("run", Json::Int(s.run as u64)),
                ("name", Json::str(s.name.as_str())),
                ("start_ns", Json::Int(s.start_ns)),
                ("end_ns", Json::Int(s.end_ns)),
                (
                    "counts",
                    Json::obj(s.counts.iter().map(|&(k, v)| (k, Json::Int(v)))),
                ),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once, parts
/// of a child outside the parent are ignored). Indexed by span id.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),   // covers 30
            span(2, Some(0), 30, 60),   // overlaps 1: adds 20
            span(3, Some(0), 90, 130),  // clipped to the parent: adds 10
            span(4, Some(1), 10, 15),   // grandchild only affects span 1
            span(5, Some(0), 200, 300), // entirely outside: ignored
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - 30 - 20 - 10);
        assert_eq!(own[1], 30 - 5);
        assert_eq!(own[2], 30);
        assert_eq!(own[4], 5);
    }

    #[test]
    fn open_close_and_jsonl_round_trip() {
        let mut t = Tracer::with_capacity(4);
        let root = t.open("workload", None, 0);
        let child = t.open("iteration", Some(root), 1);
        t.close(child, vec![("agents", 7)]);
        t.close(root, Vec::new());
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(r#"{"id": 0, "parent": null, "run": 0, "name": "workload""#));
        assert!(lines[1].contains(r#""parent": 0, "run": 1, "name": "iteration""#));
        assert!(lines[1].ends_with(r#""counts": {"agents": 7}}"#));
    }
}
