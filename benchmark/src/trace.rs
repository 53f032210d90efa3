//! In-memory span recording for the traced re-enactment.
//!
//! The re-enactment loops are generic over a [`Probe`]: with [`NoProbe`]
//! every call compiles to nothing (the untraced loops, which give
//! `trace.overhead_share` its baseline), with [`Tracer`] each call reads the
//! clock and appends a [`Span`]. Spans stay in memory until the run ends and
//! are written out as one JSON array.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`wire.parse`, `flat.classify`, ...) or a `bench.*` batch
    /// span that parents them.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The 64-frame batch this span belongs to (spans of one batch share it).
    pub batch_id: u32,
}

/// The worker loop reads the clock per packet, and a clock read stalls the
/// pipeline it measures; so only one worker batch in this many is timed and
/// the rest run the clock-free loop. Ingress batches are timed per stage
/// (ten reads per 64 frames) and are all traced.
pub const WORKER_SAMPLE_EVERY: u32 = 4;

/// What the re-enactment loops record into.
pub trait Probe {
    /// Whether worker batch `batch_id` is one of the timed ones.
    fn samples(&self, batch_id: u32) -> bool;
    /// Adds `n` to the named count: work done inside traced spans, taken
    /// at the same boundaries as the spans, so that a layer's time and the
    /// packets it was spent on come from the same batches.
    fn count(&mut self, name: &'static str, n: u64);
    /// Nanoseconds since the probe's origin (0 when not tracing).
    fn now(&mut self) -> u64;
    /// Opens a span starting now; returns its index for [`Probe::close`]
    /// and for children's `parent`.
    fn open(&mut self, name: &'static str, parent: Option<u32>, batch_id: u32) -> u32;
    /// Ends an [`open`](Probe::open)ed span now.
    fn close(&mut self, id: u32);
    /// Records a finished child interval.
    fn leaf(&mut self, name: &'static str, parent: u32, batch_id: u32, start_ns: u64, end_ns: u64);
}

/// The untraced probe: no clock reads, no allocation.
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn samples(&self, _: u32) -> bool {
        false
    }
    #[inline(always)]
    fn count(&mut self, _: &'static str, _: u64) {}
    #[inline(always)]
    fn now(&mut self) -> u64 {
        0
    }
    #[inline(always)]
    fn open(&mut self, _: &'static str, _: Option<u32>, _: u32) -> u32 {
        0
    }
    #[inline(always)]
    fn close(&mut self, _: u32) {}
    #[inline(always)]
    fn leaf(&mut self, _: &'static str, _: u32, _: u32, _: u64, _: u64) {}
}

/// The recording probe.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), counts: BTreeMap::new() }
    }
}

impl Tracer {
    /// The spans recorded so far, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A named count (0 when never counted).
    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

impl Probe for Tracer {
    fn samples(&self, batch_id: u32) -> bool {
        batch_id.is_multiple_of(WORKER_SAMPLE_EVERY)
    }

    fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    fn now(&mut self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<u32>, batch_id: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, batch_id });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now();
    }

    fn leaf(&mut self, name: &'static str, parent: u32, batch_id: u32, start_ns: u64, end_ns: u64) {
        self.spans.push(Span { name, start_ns, end_ns, parent: Some(parent), batch_id });
    }
}

/// Self time per span name: each span's duration minus the part of it its
/// direct children cover, summed over spans of one name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

/// Renders spans as a JSON array of `{name,start_ns,end_ns,parent,batch_id}`.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"batch_id\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.batch_id
        );
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, batch_id: 0 }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = [
            span("batch", 0, 100, None),
            span("parse", 10, 40, Some(0)),
            span("route", 40, 45, Some(0)),
            span("batch", 100, 150, None),
            span("parse", 100, 140, Some(2 + 1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["parse"], 30 + 40);
        assert_eq!(st["route"], 5);
        assert_eq!(st["batch"], (100 - 35) + (50 - 40));
        // Self times partition the root spans' wall.
        assert_eq!(st.values().sum::<u64>(), 150);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans =
            [span("a", 0, 100, None), span("b", 0, 60, Some(0)), span("c", 10, 30, Some(1))];
        let st = self_times(&spans);
        assert_eq!((st["a"], st["b"], st["c"]), (40, 40, 20));
    }

    #[test]
    fn tracer_nests_and_serializes() {
        let mut t = Tracer::default();
        let root = t.open("bench.batch", None, 7);
        let (a, b) = (t.now(), t.now());
        t.leaf("wire.parse", root, 7, a, b);
        t.close(root);
        assert!(t.samples(0) && !t.samples(1) && t.samples(WORKER_SAMPLE_EVERY));
        t.count("worker.packets", 3);
        t.count("worker.packets", 4);
        assert_eq!((t.counted("worker.packets"), t.counted("never")), (7, 0));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let json = to_json(spans);
        assert!(json.contains("\"name\":\"wire.parse\""));
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"batch_id\":7"));
    }
}
