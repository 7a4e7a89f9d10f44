//! Spans recorded by the traced run: one per call into a layer, kept in
//! memory and written out when the run ends.

use crate::json::Json;
use std::collections::HashMap;
use std::time::Instant;

/// No parent: the span is the root of its statement.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Statement the span belongs to; spans of one statement share it.
    pub stmt: u32,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, stmt: u32, parent: u32) -> u32 {
        let now = self.now();
        self.spans.push(Span {
            name,
            stmt,
            parent,
            start: now,
            end: now,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) -> u64 {
        let now = self.now();
        let s = &mut self.spans[id as usize];
        s.end = now;
        s.dur()
    }

    /// Records `f` as a span and returns its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        stmt: u32,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, stmt, parent);
        let r = f();
        self.close(id);
        r
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (children are clipped to the parent and
/// overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != ROOT {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let Some(kids) = children.get_mut(&(i as u32)) else {
                return s.dur();
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Total duration and total self time per span name.
pub fn totals_by_name(spans: &[Span]) -> HashMap<&'static str, (u64, u64)> {
    let selfs = self_times(spans);
    let mut out: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += s.dur();
        e.1 += own;
    }
    out
}

/// The spans of the first `max_stmts` statements as a JSON array (the
/// whole trace of a long run would be hundreds of megabytes; totals in
/// the result file cover every statement).
pub fn to_json(spans: &[Span], max_stmts: u32) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.stmt < max_stmts)
            .map(|(i, s)| {
                Json::obj(vec![
                    ("id", Json::Num(i as f64)),
                    ("name", Json::str(s.name)),
                    ("stmt", Json::Num(f64::from(s.stmt))),
                    (
                        "parent",
                        if s.parent == ROOT {
                            Json::Null
                        } else {
                            Json::Num(f64::from(s.parent))
                        },
                    ),
                    ("start_ns", Json::Num(s.start as f64)),
                    ("end_ns", Json::Num(s.end as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            stmt: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span("stmt", ROOT, 0, 100),
            span("parse", 0, 10, 30),
            span("exec", 0, 30, 80),
            span("kernel", 2, 40, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
        // 30 of the statement's 100 ns are covered by no child.
        assert_eq!(totals_by_name(&spans)["stmt"], (100, 30));
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = [
            span("stmt", ROOT, 100, 200),
            // Two children overlapping each other on 140..160.
            span("a", 0, 120, 160),
            span("b", 0, 140, 180),
            // A child that runs past its parent's end.
            span("c", 0, 190, 250),
        ];
        // Covered: 120..180 and 190..200 = 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = [
            span("stmt", ROOT, 0, 10),
            span("exec", 0, 2, 8),
            span("stmt", ROOT, 10, 30),
            span("exec", 2, 12, 22),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["stmt"], (30, 14));
        assert_eq!(t["exec"], (16, 16));
    }

    #[test]
    fn tracer_nests_spans() {
        let mut t = Tracer::new();
        let root = t.open("stmt", 3, ROOT);
        let r = t.time("exec", 3, root, || 41 + 1);
        t.close(root);
        assert_eq!(r, 42);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, root);
        assert!(t.spans[0].end >= t.spans[1].end);
        let arr = to_json(&t.spans, 10);
        assert_eq!(arr.as_arr().unwrap().len(), 2);
        assert_eq!(to_json(&t.spans, 3).as_arr().unwrap().len(), 0);
    }
}
