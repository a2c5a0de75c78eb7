//! In-memory spans around the public calls the harness makes.
//!
//! Two kinds of span share one tree:
//!
//! * a **real** span is an interval on the wall clock during which the
//!   harness was inside a call (or a phase of calls) into the program;
//! * a **replica** span is the harness re-running one layer's public
//!   function on the round's own inputs, single-threaded, *after* the call
//!   that did that work for real. It is recorded as a child of the span
//!   that caused it, but its interval lies outside its parent's.
//!
//! Self time follows from that: a span loses the part of its interval its
//! real children cover (their union, clipped to the parent), and a replica
//! span additionally loses the summed duration of its replica children
//! (which may run back to back or exceed it — the result is clamped at
//! zero). Replica children never reduce a *real* parent: the parent may
//! have done that work on several threads at once, so the single-threaded
//! re-run is not a share of its wall time.
//!
//! Spans stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Span id; `0` means "no parent".
pub type SpanId = u32;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub round: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub replica: bool,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one time origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// Total and self time of every span of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self { origin, spans: Vec::new() }
    }

    /// Nanoseconds from the tracer's origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a real span and returns its id.
    pub fn real(
        &mut self,
        parent: SpanId,
        round: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.push(parent, round, name, self.ns(start), self.ns(end), false)
    }

    /// Records a replica span and returns its id.
    pub fn replica(
        &mut self,
        parent: SpanId,
        round: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.push(parent, round, name, self.ns(start), self.ns(end), true)
    }

    /// Opens a real span whose end is not known yet, so that children can
    /// name it as their parent; [`Tracer::close`] sets the end.
    pub fn open(
        &mut self,
        parent: SpanId,
        round: u32,
        name: &'static str,
        start: Instant,
    ) -> SpanId {
        let at = self.ns(start);
        self.push(parent, round, name, at, at, false)
    }

    pub fn close(&mut self, id: SpanId, end: Instant) {
        let at = self.ns(end);
        self.spans[id as usize - 1].end_ns = at;
    }

    fn push(
        &mut self,
        parent: SpanId,
        round: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        replica: bool,
    ) -> SpanId {
        let id = SpanId::try_from(self.spans.len() + 1).expect("more than u32::MAX spans");
        self.spans.push(Span { id, parent, round, name, start_ns, end_ns, replica });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: id, parent, round, name, start, end
    /// (nanoseconds from the run's origin) and the replica flag.
    pub fn write_jsonl(&self, mut out: impl Write) -> io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"round\": {}, \"name\": \"{}\", \
                 \"start\": {}, \"end\": {}, \"replica\": {}}}",
                s.id, s.parent, s.round, s.name, s.start_ns, s.end_ns, s.replica
            )?;
        }
        out.flush()
    }
}

/// Per-name totals with self time as defined in the module docs.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    // Children grouped under their parent's index. Ids are 1-based
    // positions in `spans`, so a parent is found without a map.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            children[s.parent as usize - 1].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    let mut intervals: Vec<(u64, u64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        intervals.clear();
        let mut replica_children = 0u64;
        for &c in &children[i] {
            let child = &spans[c];
            if child.replica {
                replica_children += child.duration();
            } else {
                let (lo, hi) = (child.start_ns.max(s.start_ns), child.end_ns.min(s.end_ns));
                if lo < hi {
                    intervals.push((lo, hi));
                }
            }
        }
        let mut covered = union_len(&mut intervals);
        if s.replica {
            covered += replica_children;
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration();
        t.self_ns += s.duration().saturating_sub(covered);
    }
    out
}

/// Total length of the union of half-open intervals.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut len, mut reach) = (0u64, 0u64);
    for &(lo, hi) in intervals.iter() {
        let lo = lo.max(reach);
        if hi > lo {
            len += hi - lo;
            reach = hi;
        }
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: SpanId,
        parent: SpanId,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        replica: bool,
    ) -> Span {
        Span { id, parent, round: 0, name, start_ns, end_ns, replica }
    }

    #[test]
    fn real_children_subtract_their_union_clipped_to_the_parent() {
        let spans = [
            span(1, 0, "round", 0, 100, false),
            span(2, 1, "issue", 10, 30, false),
            // Overlaps "issue" by 5 and sticks 20 out of the parent.
            span(3, 1, "drain", 25, 120, false),
        ];
        let t = totals_by_name(&spans);
        // Covered: [10,30) ∪ [25,100) = 90 of 100.
        assert_eq!(t["round"], NameTotals { count: 1, total_ns: 100, self_ns: 10 });
        assert_eq!(t["issue"].self_ns, 20);
        assert_eq!(t["drain"], NameTotals { count: 1, total_ns: 95, self_ns: 95 });
    }

    #[test]
    fn replica_children_leave_a_real_parent_whole_and_nest_by_duration() {
        let spans = [
            // The real drain: 50 ns of wall time on several threads.
            span(1, 0, "drain", 0, 50, false),
            // Its single-threaded re-run takes longer than the parent did
            // and happens later on the clock.
            span(2, 1, "verify", 200, 290, true),
            // Two replica children of the replica, re-run later still,
            // overlapping each other in meaning but not in time.
            span(3, 2, "pox", 300, 340, true),
            span(4, 2, "emulate", 340, 375, true),
            // A replica whose children sum past it clamps at zero.
            span(5, 0, "tiny", 400, 410, true),
            span(6, 5, "big", 410, 450, true),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["drain"].self_ns, 50, "replicas never reduce a real span");
        assert_eq!(t["verify"], NameTotals { count: 1, total_ns: 90, self_ns: 15 });
        assert_eq!(t["pox"].self_ns, 40);
        assert_eq!(t["tiny"].self_ns, 0);
    }

    #[test]
    fn totals_accumulate_per_name_and_jsonl_has_one_line_per_span() {
        let origin = Instant::now();
        let mut tr = Tracer::new(origin);
        let a = tr.real(0, 1, "round", origin, origin + std::time::Duration::from_nanos(40));
        let b = tr.real(0, 2, "round", origin, origin + std::time::Duration::from_nanos(60));
        assert_eq!((a, b), (1, 2));
        tr.replica(b, 2, "wire.decode", origin, origin + std::time::Duration::from_nanos(5));
        let t = totals_by_name(tr.spans());
        assert_eq!(t["round"], NameTotals { count: 2, total_ns: 100, self_ns: 100 });
        let mut buf = Vec::new();
        tr.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let v = crate::json::Json::parse(line).unwrap();
            for key in ["id", "parent", "round", "name", "start", "end", "replica"] {
                assert!(v.get(key).is_some(), "{key} missing in {line}");
            }
        }
    }
}
