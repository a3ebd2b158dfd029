//! Outside-in spans for the traced pass.
//!
//! The harness wraps each call it makes into a layer's public function
//! in a span: name, start, end, the span that caused it and the op it
//! belongs to. Spans live in a buffer allocated before the clock
//! starts and are written to `--trace-out` when the repetition ends.
//! No file outside this directory is instrumented — what happens
//! *inside* a layer is the layer probes' (and, later, `tdp-metrics`')
//! job. Untraced, each call here is one branch.

use crate::hist::Hist;
use crate::json::Obj;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Name {
    Op,
    CorePut,
    CoreGetHit,
    CoreGetBlocked,
    CoreRemove,
    GatewayEcho,
    GatewayAttrPut,
    GatewayAttrGet,
    CondorSubmitToRunning,
    CondorRunningToCompleted,
    ParadynFirstSample,
}

const NAMES: [&str; 11] = [
    "op",
    "core.put",
    "core.get_hit",
    "core.get_blocked",
    "core.remove",
    "gateway.echo",
    "gateway.attr_put",
    "gateway.attr_get",
    "condor.submit_to_running",
    "condor.running_to_completed",
    "paradyn.first_sample",
];

/// Spans kept for `--trace-out`; later ones still feed the per-name
/// histograms but are not stored (and are counted as dropped).
const MAX_SPANS: usize = 1 << 20;

struct Span {
    name: Name,
    thread: u8,
    op: u64,
    /// Index of the causing span in this thread's list, plus one.
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// One thread's recorder.
pub struct Tracer {
    on: bool,
    thread: u8,
    epoch: Instant,
    op: u64,
    /// Innermost open span (index + 1), 0 when none.
    current: u32,
    spans: Vec<Span>,
    dropped: u64,
    hists: Vec<Hist>,
    /// Wall-to-reported-clock factor for the medians (see `clock`);
    /// stored spans stay in wall ns.
    scale: f64,
}

impl Tracer {
    /// `epoch` is shared by the threads of one repetition so their
    /// spans line up.
    pub fn new(on: bool, thread: u8, epoch: Instant) -> Tracer {
        Tracer {
            on,
            thread,
            epoch,
            op: 0,
            current: 0,
            spans: Vec::with_capacity(if on { MAX_SPANS } else { 0 }),
            dropped: 0,
            hists: if on {
                NAMES.iter().map(|_| Hist::new()).collect()
            } else {
                Vec::new()
            },
            scale: 1.0,
        }
    }

    pub fn set_scale(&mut self, scale: f64) {
        self.scale = scale;
    }

    /// Discard what warm-up recorded.
    pub fn reset(&mut self) {
        self.spans.clear();
        self.dropped = 0;
        for h in &mut self.hists {
            *h = Hist::new();
        }
    }

    /// Open the span of op `op`: spans recorded until [`Tracer::end_op`]
    /// are its children. The slot is reserved now so they can point at
    /// it; its times arrive with `end_op`, from the same two clock
    /// reads the op's latency uses — tracing adds none of its own.
    #[inline]
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
        if self.on {
            self.current = self.push(Name::Op, 0, self.epoch, self.epoch);
        }
    }

    #[inline]
    pub fn end_op(&mut self, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        if let Some(s) = (self.current as usize)
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i))
        {
            s.start_ns = (start - self.epoch).as_nanos() as u64;
            s.end_ns = (end - self.epoch).as_nanos() as u64;
        }
        self.current = 0;
        self.note(Name::Op, start, end);
    }

    /// One call into a layer, timed by the caller: child of the open
    /// op span, or a root on a thread that has none.
    #[inline]
    pub fn record(&mut self, name: Name, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        self.push(name, self.current, start, end);
        self.note(name, start, end);
    }

    fn note(&mut self, name: Name, start: Instant, end: Instant) {
        self.hists[name as usize].record(((end - start).as_nanos() as f64 * self.scale) as u64);
    }

    /// Store a span; returns its index + 1, or the parent's when the
    /// buffer is full.
    fn push(&mut self, name: Name, parent: u32, start: Instant, end: Instant) -> u32 {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return parent;
        }
        self.spans.push(Span {
            name,
            thread: self.thread,
            op: self.op,
            parent,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        });
        self.spans.len() as u32
    }

    /// Median duration of the spans called `name`, in µs, and how many
    /// there were.
    pub fn median_us(&self, name: Name) -> (f64, u64) {
        self.hists
            .get(name as usize)
            .map_or((0.0, 0), |h| (h.p50_us(), h.len()))
    }

    /// Append this thread's spans to `out`, one JSON object per line.
    /// `id` and `parent` are per thread; `parent` 0 means a root.
    pub fn write(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let line = Obj::new()
                .str("name", NAMES[s.name as usize])
                .int("thread", u64::from(s.thread))
                .int("id", i as u64 + 1)
                .int("parent", u64::from(s.parent))
                .int("op", s.op)
                .int("start_ns", s.start_ns)
                .int("end_ns", s.end_ns)
                .finish();
            writeln!(out, "{line}")?;
        }
        if self.dropped > 0 {
            let line = Obj::new()
                .str("name", "dropped")
                .int("thread", u64::from(self.thread))
                .int("count", self.dropped)
                .finish();
            writeln!(out, "{line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_point_at_their_op_and_durations_feed_the_medians() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut t = Tracer::new(true, 0, epoch);
        t.begin_op(7);
        t.record(Name::CorePut, at(10), at(2010));
        t.record(Name::CoreGetHit, at(2010), at(2500));
        t.end_op(at(10), at(2500));
        t.record(Name::CoreRemove, at(2500), at(2600));
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[0].parent, 0);
        assert_eq!(t.spans[1].parent, 1);
        assert_eq!(t.spans[2].parent, 1);
        assert_eq!(t.spans[3].parent, 0, "recorded after the op closed");
        assert!(t.spans.iter().all(|s| s.op == 7));
        assert_eq!(
            (t.spans[0].start_ns, t.spans[0].end_ns),
            (10_000, 2_500_000)
        );
        let (op_us, n) = t.median_us(Name::Op);
        let (put_us, _) = t.median_us(Name::CorePut);
        assert_eq!(n, 1);
        assert!((op_us - 2490.0).abs() < 40.0 && (put_us - 2000.0).abs() < 32.0);
        let mut out = Vec::new();
        t.write(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text
            .lines()
            .nth(1)
            .unwrap()
            .contains(r#""name":"core.put""#));
        assert!(text.lines().nth(1).unwrap().contains(r#""parent":1"#));
        t.reset();
        assert_eq!(t.median_us(Name::Op), (0.0, 0));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, 0, Instant::now());
        t.begin_op(1);
        t.record(Name::CorePut, Instant::now(), Instant::now());
        t.end_op(Instant::now(), Instant::now());
        assert_eq!(t.median_us(Name::Op), (0.0, 0));
        assert!(t.spans.is_empty());
    }
}
