//! Benchmark-side spans around the calls into each layer.
//!
//! Tracing inside the program is a later change (ROADMAP item 4); here a
//! span is recorded from outside, around a public function of a crate.
//! Spans are kept in memory and written out once, when the traced binary
//! ends. The timed binary uses [`NoSpans`], which compiles to nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// What a rep needs from a span recorder. Spans nest by call order: the
/// parent of a new span is the innermost span still open.
pub trait Probe {
    /// Open a span named `name`; returns its handle for [`Probe::exit`].
    fn enter(&mut self, name: &'static str) -> usize;
    /// Close span `id`.
    fn exit(&mut self, id: usize);
}

/// The recorder of the timed pass: records nothing.
pub struct NoSpans;

impl Probe for NoSpans {
    #[inline(always)]
    fn enter(&mut self, _name: &'static str) -> usize {
        0
    }
    #[inline(always)]
    fn exit(&mut self, _id: usize) {}
}

/// One recorded span. Times are nanoseconds since the log was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<what>`, the layer being a module name.
    pub name: &'static str,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin (0 while still open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The round of the traced pass the span belongs to.
    pub rep: u32,
}

impl Span {
    /// The span's duration.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span log of one traced pass over one workload.
pub struct SpanLog {
    origin: Instant,
    workload: &'static str,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// An empty log for `workload`; span times count from now.
    #[must_use]
    pub fn new(workload: &'static str) -> Self {
        SpanLog {
            origin: Instant::now(),
            workload,
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Tag the spans opened from now on with round `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Record a span from explicit times (tests build trees with this).
    pub fn push_raw(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: self.rep,
        });
        self.spans.len() - 1
    }

    /// Self time of span `id`: its duration minus the part of its
    /// interval that its direct children cover. Children are merged as
    /// intervals first, so overlapping siblings are not subtracted twice
    /// and a child that outlives its parent only counts up to the
    /// parent's end.
    #[must_use]
    pub fn self_ns(&self, id: usize) -> u64 {
        let me = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = me.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        me.dur_ns() - covered
    }

    /// Duration of the first direct child of `parent` named `name`
    /// (0 when there is none).
    #[must_use]
    pub fn child_ns(&self, parent: usize, name: &str) -> u64 {
        self.spans
            .iter()
            .find(|s| s.parent == Some(parent) && s.name == name)
            .map_or(0, Span::dur_ns)
    }

    /// The log as JSON lines, one span per line: `{id, name, start_ns,
    /// end_ns, self_ns, parent, workload, rep}`.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {}, \"parent\": {parent}, \"workload\": \"{}\", \"rep\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(id),
                self.workload,
                s.rep
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

impl Probe for SpanLog {
    fn enter(&mut self, name: &'static str) -> usize {
        let parent = self.open.last().copied();
        let id = self.push_raw(name, 0, 0, parent);
        self.open.push(id);
        // Read the clock last so the bookkeeping above is charged to the
        // parent, not to this span.
        self.spans[id].start_ns = self.origin.elapsed().as_nanos() as u64;
        id
    }

    fn exit(&mut self, id: usize) {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans[id].end_ns = now;
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let mut log = SpanLog::new("t");
        let root = log.push_raw("rep", 0, 1_000, None);
        let a = log.push_raw("sim.run", 100, 400, Some(root));
        let _b = log.push_raw("metrics.report_read", 400, 450, Some(root));
        let c = log.push_raw("core.t10_check", 500, 900, Some(root));
        // A grandchild is the child's business, not the root's.
        let _g = log.push_raw("inner", 150, 350, Some(a));
        assert_eq!(log.self_ns(root), 1_000 - 300 - 50 - 400);
        assert_eq!(log.self_ns(a), 300 - 200);
        assert_eq!(log.self_ns(c), 400);
        assert_eq!(log.child_ns(root, "core.t10_check"), 400);
        assert_eq!(log.child_ns(root, "absent"), 0);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut log = SpanLog::new("t");
        let root = log.push_raw("rep", 100, 200, None);
        log.push_raw("x", 110, 150, Some(root));
        log.push_raw("y", 140, 170, Some(root)); // overlaps x by 10
        log.push_raw("z", 190, 260, Some(root)); // outlives the parent
        assert_eq!(log.self_ns(root), 100 - (60 + 10));
    }

    #[test]
    fn live_spans_nest_by_call_order_and_serialize() {
        let mut log = SpanLog::new("single_read90");
        log.set_rep(3);
        let outer = log.enter("rep");
        let inner = log.enter("sim.run");
        log.exit(inner);
        log.exit(outer);
        let spans = log.spans();
        assert_eq!(spans[inner].parent, Some(outer));
        assert_eq!(spans[outer].parent, None);
        assert!(spans[outer].start_ns <= spans[inner].start_ns);
        assert!(spans[inner].end_ns <= spans[outer].end_ns);
        let text = log.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text
            .lines()
            .all(|l| l.contains("\"workload\": \"single_read90\"") && l.contains("\"rep\": 3")));
        assert!(text.contains("\"parent\": null") && text.contains("\"parent\": 0"));
    }
}
