//! The TDP call trace.
//!
//! Figures 3 and 6 of the paper are *sequence diagrams*: orderings of
//! TDP calls across the RM, RT and AP. To reproduce them as tests rather
//! than pictures, every [`crate::TdpHandle`] records its calls into the
//! world's shared trace; figure tests then assert the observed order
//! (exact where the paper requires it, partial where creation order is
//! explicitly free — "the creation of the application process and RT can
//! occur in either order", Figure 3 caption).
//!
//! The trace is always on, in production as in tests, so recording a
//! call costs one short critical section and no heap traffic: the call
//! is a borrowed [`Call`], rendered straight into a fixed-capacity byte
//! ring that evicts whole oldest records (DESIGN.md §5 has the layout
//! and the reasons). Readers decode the ring back into [`TraceEvent`]s.

use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::sync::Arc;
use tdp_proto::{Addr, ContextId, HostId, Pid};
use tdp_sync::Mutex;

/// One TDP call as its caller holds it — nothing owned, nothing
/// rendered. The `Display` impl is the only place the rendered forms
/// (`tdp_put(pid)`, `tdp_create_process(/bin/app, paused)`, …) are
/// written down.
#[derive(Debug, Clone, Copy)]
pub enum Call<'a> {
    Init(ContextId),
    Put(&'a str),
    Get(&'a str),
    AsyncGet(&'a str),
    AsyncPut(&'a str),
    PutCentral(&'a str),
    GetCentral(&'a str),
    GetGlobal(&'a str),
    ConnectCass(Addr),
    /// `tdp_service_event` that ran this many callbacks.
    ServiceEvent(usize),
    Exit,
    CreateProcess {
        exe: &'a str,
        paused: bool,
    },
    Attach(Pid),
    Detach(Pid),
    Continue(Pid),
    Pause(Pid),
    Kill(Pid, i32),
    /// A `proc_request` in its attribute-value form.
    Request(&'a str),
    OpenChannel(Addr),
    Stage {
        from: HostId,
        src: &'a str,
        to: HostId,
        dst: &'a str,
    },
}

impl fmt::Display for Call<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Call::Init(ctx) => write!(f, "tdp_init({ctx})"),
            Call::Put(key) => write!(f, "tdp_put({key})"),
            Call::Get(key) => write!(f, "tdp_get({key})"),
            Call::AsyncGet(key) => write!(f, "tdp_async_get({key})"),
            Call::AsyncPut(key) => write!(f, "tdp_async_put({key})"),
            Call::PutCentral(key) => write!(f, "tdp_put_central({key})"),
            Call::GetCentral(key) => write!(f, "tdp_get_central({key})"),
            Call::GetGlobal(key) => write!(f, "tdp_get_global({key})"),
            Call::ConnectCass(cass) => write!(f, "tdp_connect_cass({cass})"),
            Call::ServiceEvent(ran) => write!(f, "tdp_service_event[{ran}]"),
            Call::Exit => f.write_str("tdp_exit()"),
            Call::CreateProcess { exe, paused } => {
                let mode = if paused { "paused" } else { "run" };
                write!(f, "tdp_create_process({exe}, {mode})")
            }
            Call::Attach(pid) => write!(f, "tdp_attach({pid})"),
            Call::Detach(pid) => write!(f, "tdp_detach({pid})"),
            Call::Continue(pid) => write!(f, "tdp_continue_process({pid})"),
            Call::Pause(pid) => write!(f, "tdp_pause_process({pid})"),
            Call::Kill(pid, sig) => write!(f, "tdp_kill({pid}, {sig})"),
            Call::Request(op) => write!(f, "tdp_request({op})"),
            Call::OpenChannel(fe) => write!(f, "tdp_open_channel({fe})"),
            Call::Stage { from, src, to, dst } => {
                write!(f, "tdp_stage({from}:{src} -> {to}:{dst})")
            }
        }
    }
}

/// One recorded TDP call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number (0-based); keeps counting across
    /// eviction, so it is the call's position in the world's whole
    /// history, not in what the ring still holds.
    pub seq: usize,
    /// Which daemon made the call ("starter", "paradynd", …).
    pub actor: String,
    /// Rendered call, e.g. `tdp_create_process(/bin/app, paused)`.
    pub call: String,
}

/// Bytes the ring holds: ≈ 30 000 calls of the usual size (a 3-byte
/// header, an actor of ≈ 8 bytes, a call of ≈ 20) where a figure
/// scenario records tens to a few hundred, and small against an idle
/// process (4.4 MB). The pages are untouched until written, so a world
/// that records little keeps little resident.
const RING_BYTES: usize = 1 << 20;
/// Stored bytes of one actor (its length is the header's one byte) …
const ACTOR_CAP: usize = 255;
/// … and of one rendered call: keys run up to `MAX_FRAME` and are
/// recorded before the space validates them; a diagram needs the head.
const CALL_CAP: usize = 4096;
const HEADER: usize = 3;
const RECORD_CAP: usize = HEADER + ACTOR_CAP + CALL_CAP;
/// Ends a field that was cut to its cap.
const ELLIPSIS: &str = "…";
// The lengths fit their header bytes, and the largest record the ring.
const _: () = assert!(ACTOR_CAP <= u8::MAX as usize && CALL_CAP <= u16::MAX as usize);
const _: () = assert!(RECORD_CAP < RING_BYTES);

/// The log itself: records `header ‖ actor ‖ call` laid end to end in
/// a deque that is never let past `RING_BYTES`, so it never grows; the
/// oldest record is at the front. `seq` is not stored: the front record
/// is number `evicted`, the next one `evicted + 1`, ….
struct Ring {
    buf: VecDeque<u8>,
    /// Records dropped from the front since the last `clear`.
    evicted: usize,
}

impl Default for Ring {
    fn default() -> Ring {
        Ring {
            buf: VecDeque::with_capacity(RING_BYTES),
            evicted: 0,
        }
    }
}

impl Ring {
    fn push(&mut self, actor: &str, call: Call<'_>) {
        while RING_BYTES - self.buf.len() < RECORD_CAP {
            let (actor_len, call_len) = field_lens([self.buf[0], self.buf[1], self.buf[2]]);
            self.buf.drain(..HEADER + actor_len + call_len);
            self.evicted += 1;
        }
        let header = self.buf.len();
        self.buf.extend([0; HEADER]);
        let actor_len = self.put_field(ACTOR_CAP, format_args!("{actor}"));
        let call_len = self.put_field(CALL_CAP, format_args!("{call}"));
        let [lo, hi] = (call_len as u16).to_le_bytes();
        for (i, byte) in [actor_len as u8, lo, hi].into_iter().enumerate() {
            self.buf[header + i] = byte;
        }
    }

    /// Render `text` onto the end of the record under construction: at
    /// most `cap` bytes, a longer field cut on a `char` boundary and
    /// ended with `…`. Returns the bytes stored.
    fn put_field(&mut self, cap: usize, text: fmt::Arguments<'_>) -> usize {
        let start = self.buf.len();
        let mut field = Capped {
            buf: &mut self.buf,
            room: cap - ELLIPSIS.len(),
            cut: false,
        };
        // `Capped` never fails; an error could only be a `Display` impl
        // giving up, and what it wrote until then is the field.
        let _ = field.write_fmt(text);
        self.buf.len() - start
    }

    /// `(seq, actor, call)` of every retained record, oldest first.
    fn records(&mut self) -> impl Iterator<Item = (usize, &str, &str)> {
        const TEXT: &str = "a field is whole `&str` pieces cut on char boundaries";
        let mut rest: &[u8] = self.buf.make_contiguous();
        (self.evicted..).map_while(move |seq| {
            let (header, fields) = rest.split_first_chunk()?;
            let (actor_len, call_len) = field_lens(*header);
            let (actor, fields) = fields.split_at(actor_len);
            let (call, next) = fields.split_at(call_len);
            rest = next;
            let text = |field| std::str::from_utf8(field).expect(TEXT);
            Some((seq, text(actor), text(call)))
        })
    }

    /// First line of every rendering once history has been evicted.
    fn evicted_notice(&self, why_it_matters: &str) -> String {
        match self.evicted {
            0 => String::new(),
            n => format!("{ELLIPSIS} {n} earlier calls evicted{why_it_matters}\n"),
        }
    }
}

/// A record's header is `actor_len: u8 ‖ call_len: u16` little-endian.
fn field_lens([actor_len, lo, hi]: [u8; HEADER]) -> (usize, usize) {
    (actor_len.into(), u16::from_le_bytes([lo, hi]).into())
}

/// [`Ring::put_field`]'s writer: `room` more bytes, then the cut.
struct Capped<'r> {
    buf: &'r mut VecDeque<u8>,
    room: usize,
    cut: bool,
}

impl fmt::Write for Capped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if self.cut {
            return Ok(());
        }
        let keep = &s[..s.floor_char_boundary(self.room)];
        self.buf.extend(keep.as_bytes());
        self.room -= keep.len();
        if keep.len() < s.len() {
            self.buf.extend(ELLIPSIS.as_bytes());
            self.cut = true;
        }
        Ok(())
    }
}

/// The world's shared log of TDP calls: the most recent `RING_BYTES`
/// of them, numbered from the world's first.
#[derive(Clone, Default)]
pub struct Trace {
    inner: Arc<Mutex<Ring>>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Append a call. Never allocates and never fails: when the ring
    /// is full the oldest records go, and an over-long actor or call is
    /// stored cut (255 B and 4 KiB) with a trailing `…`.
    pub fn record(&self, actor: &str, call: Call<'_>) {
        self.inner.lock().push(actor, call);
    }

    /// Snapshot of all retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut ring = self.inner.lock();
        ring.records().map(event).collect()
    }

    /// Retained events made by one actor, in order.
    pub fn by_actor(&self, actor: &str) -> Vec<TraceEvent> {
        let mut ring = self.inner.lock();
        ring.records()
            .filter(|(_, a, _)| *a == actor)
            .map(event)
            .collect()
    }

    /// Sequence number of the first retained event whose rendered call
    /// contains `needle` (optionally restricted to an actor). After
    /// eviction `None` means "not among the retained calls", not "never
    /// happened" — [`Trace::render`]'s first line says when that is so.
    pub fn seq_of(&self, actor: Option<&str>, needle: &str) -> Option<usize> {
        let mut ring = self.inner.lock();
        let found = ring
            .records()
            .find(|(_, a, call)| actor.is_none_or(|want| *a == want) && call.contains(needle));
        found.map(|(seq, ..)| seq)
    }

    /// Assert that `earlier` happens before `later` (both matched by
    /// substring, optionally per-actor). Panics with the full trace on
    /// failure — the test-facing primitive for sequence-diagram checks.
    #[track_caller]
    pub fn assert_order(&self, earlier: (Option<&str>, &str), later: (Option<&str>, &str)) {
        let a = self.seq_of(earlier.0, earlier.1);
        let b = self.seq_of(later.0, later.1);
        match (a, b) {
            (Some(a), Some(b)) if a < b => {}
            _ => {
                let evicted = self
                    .inner
                    .lock()
                    .evicted_notice(": a `None` below may be a call made before them");
                panic!(
                    "{evicted}expected {:?} before {:?}; a={a:?} b={b:?}\ntrace:\n{}",
                    earlier,
                    later,
                    self.render()
                )
            }
        }
    }

    /// Human-readable rendering, one call per line.
    pub fn render(&self) -> String {
        let mut ring = self.inner.lock();
        let mut out = ring.evicted_notice("");
        for (i, (seq, actor, call)) in ring.records().enumerate() {
            let sep = if i == 0 { "" } else { "\n" };
            let _ = write!(out, "{sep}{seq:4}  {actor:<12} {call}");
        }
        out
    }

    /// Drop all events; the next one is number 0 again.
    pub fn clear(&self) {
        let mut ring = self.inner.lock();
        ring.buf.clear();
        ring.evicted = 0;
    }

    /// Render the trace as an ASCII sequence diagram over the given
    /// actor lifelines (events of other actors are omitted) — how the
    /// examples regenerate the paper's Figures 3 and 6 from a live run.
    ///
    /// Actors matching a name exactly come first; an entry ending in
    /// `*` matches by prefix (e.g. `paradynd*`).
    pub fn render_sequence(&self, actors: &[&str]) -> String {
        let mut ring = self.inner.lock();
        let column = |actor: &str| {
            actors.iter().position(|pat| {
                pat.strip_suffix('*')
                    .map_or(actor == *pat, |p| actor.starts_with(p))
            })
        };
        let widest_call = ring
            .records()
            .filter(|(_, actor, _)| column(actor).is_some())
            .map(|(.., call)| call.len())
            .max()
            .unwrap_or(0);
        let col_width = actors
            .iter()
            .map(|a| a.len())
            .max()
            .unwrap_or(8)
            .max(widest_call)
            .max(16)
            + 4;
        let mut out = String::new();
        // Header lifelines.
        for a in actors {
            let _ = write!(out, "{a:^col_width$}");
        }
        out.push('\n');
        for _ in actors {
            let _ = write!(out, "{:^col_width$}", "|");
        }
        out.push('\n');
        for (_, actor, call) in ring.records() {
            let Some(col) = column(actor) else {
                continue;
            };
            for i in 0..actors.len() {
                let cell = if i == col { call } else { "|" };
                let _ = write!(out, "{cell:^col_width$}");
            }
            out.push('\n');
        }
        out
    }
}

fn event((seq, actor, call): (usize, &str, &str)) -> TraceEvent {
    TraceEvent {
        seq,
        actor: actor.to_string(),
        call: call.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const PID: Call<'_> = Call::Get("pid");

    #[test]
    fn records_in_order_with_seq() {
        let t = Trace::new();
        t.record("rm", Call::Init(ContextId(3)));
        t.record("rt", PID);
        let ev = t.events();
        assert_eq!(ev.len(), 2);
        assert_eq!((ev[0].seq, ev[0].call.as_str()), (0, "tdp_init(ctx3)"));
        assert_eq!(ev[1].seq, 1);
        assert_eq!(ev[1].actor, "rt");
        assert_eq!(ev[1].call, "tdp_get(pid)");
    }

    #[test]
    fn every_call_renders_as_the_figures_spell_it() {
        let addr = Addr::new(HostId(2), 7778);
        let pid = Pid(5);
        let cases = [
            (Call::Init(ContextId(1)), "tdp_init(ctx1)"),
            (Call::Put("pid"), "tdp_put(pid)"),
            (Call::Get("pid"), "tdp_get(pid)"),
            (Call::AsyncGet("k"), "tdp_async_get(k)"),
            (Call::AsyncPut("k"), "tdp_async_put(k)"),
            (Call::PutCentral("k"), "tdp_put_central(k)"),
            (Call::GetCentral("k"), "tdp_get_central(k)"),
            (Call::GetGlobal("k"), "tdp_get_global(k)"),
            (Call::ConnectCass(addr), "tdp_connect_cass(host2:7778)"),
            (Call::ServiceEvent(2), "tdp_service_event[2]"),
            (Call::Exit, "tdp_exit()"),
            (
                Call::CreateProcess {
                    exe: "/bin/app",
                    paused: true,
                },
                "tdp_create_process(/bin/app, paused)",
            ),
            (
                Call::CreateProcess {
                    exe: "/bin/app",
                    paused: false,
                },
                "tdp_create_process(/bin/app, run)",
            ),
            (Call::Attach(pid), "tdp_attach(5)"),
            (Call::Detach(pid), "tdp_detach(5)"),
            (Call::Continue(pid), "tdp_continue_process(5)"),
            (Call::Pause(pid), "tdp_pause_process(5)"),
            (Call::Kill(pid, 9), "tdp_kill(5, 9)"),
            (Call::Request("kill:9"), "tdp_request(kill:9)"),
            (Call::OpenChannel(addr), "tdp_open_channel(host2:7778)"),
            (
                Call::Stage {
                    from: HostId(0),
                    src: "/a",
                    to: HostId(1),
                    dst: "/b",
                },
                "tdp_stage(host0:/a -> host1:/b)",
            ),
        ];
        let t = Trace::new();
        for (call, _) in cases {
            t.record("rm", call);
        }
        let rendered: Vec<String> = t.events().into_iter().map(|e| e.call).collect();
        let want: Vec<&str> = cases.iter().map(|(_, text)| *text).collect();
        assert_eq!(rendered, want);
    }

    #[test]
    fn by_actor_filters() {
        let t = Trace::new();
        t.record("rm", Call::Put("a"));
        t.record("rt", Call::Get("b"));
        t.record("rm", Call::Put("c"));
        let rm = t.by_actor("rm");
        assert_eq!(
            rm.iter()
                .map(|e| (e.seq, e.call.as_str()))
                .collect::<Vec<_>>(),
            vec![(0, "tdp_put(a)"), (2, "tdp_put(c)")]
        );
    }

    #[test]
    fn assert_order_passes_and_fails() {
        let t = Trace::new();
        t.record("rm", Call::Init(ContextId(0)));
        t.record("rt", Call::Attach(Pid(5)));
        t.assert_order((Some("rm"), "tdp_init"), (Some("rt"), "tdp_attach"));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.assert_order((Some("rt"), "tdp_attach"), (Some("rm"), "tdp_init"))
        }));
        assert!(r.is_err());
    }

    #[test]
    fn seq_of_missing_is_none() {
        let t = Trace::new();
        assert_eq!(t.seq_of(None, "nothing"), None);
    }

    #[test]
    fn clear_resets_the_log_and_seq() {
        let t = Trace::new();
        fill_past_one_wrap(&t);
        t.clear();
        assert!(t.events().is_empty());
        assert_eq!(t.render(), "");
        t.record("rm", Call::Exit);
        assert_eq!(t.render(), "   0  rm           tdp_exit()");
    }

    #[test]
    fn sequence_diagram_renders_lifelines() {
        let t = Trace::new();
        t.record("starter", Call::Init(ContextId(0)));
        t.record("paradynd7", PID);
        t.record("ignored", Call::Put("x"));
        t.record("starter", Call::Put("pid"));
        let d = t.render_sequence(&["starter", "paradynd*"]);
        let lines: Vec<&str> = d.lines().collect();
        // Header + lifeline row + 3 matched events (ignored actor is
        // filtered out).
        assert_eq!(lines.len(), 5, "{d}");
        assert!(lines[0].contains("starter") && lines[0].contains("paradynd*"));
        assert!(lines[2].contains("tdp_init(ctx0)"));
        assert!(lines[3].contains("tdp_get(pid)"));
        assert!(lines[4].contains("tdp_put(pid)"));
        assert!(!d.contains("tdp_put(x)"));
        // The event appears in its own column: the get line still has a
        // lifeline bar for the starter column.
        assert!(lines[3].trim_start().starts_with('|'));
    }

    /// `rm` puts `req.0`, `req.1`, … until the ring has evicted and its
    /// retained span runs over the buffer's physical end; returns how
    /// many calls that took.
    fn fill_past_one_wrap(t: &Trace) -> usize {
        let mut key = String::new();
        let mut n = 0;
        let wrapped = || {
            let ring = t.inner.lock();
            ring.evicted > 0 && !ring.buf.as_slices().1.is_empty()
        };
        while !wrapped() {
            key.clear();
            let _ = write!(key, "req.{n}");
            t.record("rm", Call::Put(&key));
            n += 1;
        }
        n
    }

    #[test]
    fn wrap_around_keeps_the_newest_records_and_a_global_contiguous_seq() {
        let t = Trace::new();
        let n = fill_past_one_wrap(&t);
        let ev = t.events();
        let first = ev[0].seq;
        assert!(first > 0 && ev.len() > 20_000, "{first} {}", ev.len());
        assert_eq!(first + ev.len(), n);
        for (i, e) in ev.iter().enumerate() {
            assert_eq!(e.seq, first + i);
            assert_eq!(e.actor, "rm");
            assert_eq!(e.call, format!("tdp_put(req.{})", e.seq));
        }
    }

    /// A trace holding one empty record (three zero bytes: no actor, no
    /// call) that ends at physical index `at` of the buffer, so the next
    /// record starts there.
    fn parked(at: usize) -> Trace {
        let t = Trace::new();
        let mut ring = t.inner.lock();
        assert_eq!(ring.buf.capacity(), RING_BYTES);
        ring.buf.extend(std::iter::repeat_n(0, at));
        ring.buf.drain(..at - HEADER);
        drop(ring);
        t
    }

    #[test]
    fn a_record_straddling_the_physical_end_decodes_at_every_split() {
        // Park the write position so that the buffer's end falls on each
        // byte of a record in turn: header, actor and call (the call
        // holds a two-byte and a four-byte char).
        let call = Call::Stage {
            from: HostId(1),
            src: "/é",
            to: HostId(2),
            dst: "/𝄞",
        };
        let record = HEADER + "stärter".len() + call.to_string().len();
        for before_end in 0..=record {
            let t = parked(RING_BYTES - before_end);
            t.record("stärter", call);
            // The deque runs over its physical end whenever the record
            // does not fit before it (at 0 the record is whole, after it).
            let wraps = !t.inner.lock().buf.as_slices().1.is_empty();
            assert_eq!(wraps, before_end < record);
            t.record("rt", PID);
            let ev = t.events();
            assert_eq!(ev.len(), 3, "split {before_end}");
            assert_eq!(ev[1].actor, "stärter");
            assert_eq!(ev[1].call, "tdp_stage(host1:/é -> host2:/𝄞)");
            assert_eq!((ev[2].seq, ev[2].call.as_str()), (2, "tdp_get(pid)"));
        }
    }

    #[test]
    fn readers_work_on_a_wrapped_ring_and_say_what_was_evicted() {
        let t = Trace::new();
        let n = fill_past_one_wrap(&t);
        t.record("rt", PID);
        let first = t.events()[0].seq;
        let notice = format!("… {first} earlier calls evicted\n");

        let rm = t.by_actor("rm");
        assert_eq!((rm[0].seq, rm.len()), (first, n - first));
        assert_eq!(t.by_actor("rt")[0].seq, n);
        assert_eq!(t.seq_of(Some("rt"), "tdp_get"), Some(n));
        // Evicted, not "never happened": `None`, and the renderings say why.
        assert_eq!(t.seq_of(None, "tdp_put(req.0)"), None);
        let rendered = t.render();
        assert!(rendered.starts_with(&notice), "{}", &rendered[..80]);
        assert_eq!(rendered.lines().count(), 1 + n + 1 - first);
        let last = format!("{n:4}  rt           tdp_get(pid)");
        assert_eq!(rendered.lines().last(), Some(last.as_str()));

        let d = t.render_sequence(&["rt", "rm"]);
        assert_eq!(d.lines().count(), 2 + n + 1 - first);
        assert!(d
            .lines()
            .last()
            .unwrap()
            .trim_start()
            .starts_with("tdp_get(pid)"));

        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.assert_order((None, "tdp_put(req.0)"), (Some("rt"), "tdp_get"))
        }));
        let msg = *r.unwrap_err().downcast::<String>().unwrap();
        let want = format!("… {first} earlier calls evicted: a `None` below may be");
        assert!(msg.starts_with(&want), "{}", &msg[..120]);
        assert!(msg.contains("a=None"));
    }

    #[test]
    fn concurrent_records_get_each_seq_once_and_never_tear() {
        const THREADS: usize = 4;
        let per_thread = if cfg!(miri) { 200 } else { 50_000 };
        let t = Trace::new();
        let start = tdp_sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for id in 0..THREADS {
                let (t, start) = (&t, &start);
                s.spawn(move || {
                    let actor = format!("t{id}");
                    let mut key = String::new();
                    start.wait();
                    for i in 0..per_thread {
                        key.clear();
                        let _ = write!(key, "{actor}.{i}");
                        t.record(&actor, Call::Put(&key));
                    }
                });
            }
        });
        let ev = t.events();
        let total = THREADS * per_thread;
        // Every call took a number: the retained ones are the last of
        // `total`, contiguous …
        assert_eq!(ev[0].seq + ev.len(), total);
        let mut next = [None::<usize>; THREADS];
        for (i, e) in ev.iter().enumerate() {
            assert_eq!(e.seq, ev[0].seq + i);
            // … whole (actor and key written by the same thread) and in
            // each thread's own order.
            let id: usize = e.actor[1..].parse().unwrap();
            let inner = &e.call["tdp_put(".len()..e.call.len() - 1];
            let (who, n) = inner.split_once('.').unwrap();
            assert_eq!(who, e.actor, "torn record {e:?}");
            let n: usize = n.parse().unwrap();
            assert!(next[id].is_none_or(|want| want == n), "{e:?}");
            next[id] = Some(n + 1);
        }
        // Eviction is oldest-first: a thread with anything retained has
        // its last call retained.
        assert!(next.iter().all(|n| n.is_none_or(|n| n == per_thread)));
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: if cfg!(miri) { 4 } else { 48 },
            ..ProptestConfig::default()
        })]

        /// Any actor, any key, any length: `record` does not panic, the
        /// stored fields are within their caps, valid text, a prefix of
        /// the input — whole when it fits, else ended by `…`.
        #[test]
        fn over_long_unicode_arguments_are_cut_on_a_char_boundary(
            actor in any_text(),
            key in any_text(),
            park in HEADER..RING_BYTES,
        ) {
            let t = parked(park);
            t.record(&actor, Call::Put(&key));
            t.record(&actor, Call::Stage { from: HostId(0), src: &key, to: HostId(1), dst: &key });
            let ev = t.events();
            prop_assert_eq!(ev.len(), 3);
            for (e, full) in ev[1..].iter().zip([
                format!("tdp_put({key})"),
                format!("tdp_stage(host0:{key} -> host1:{key})"),
            ]) {
                check_cut(&e.actor, &actor, ACTOR_CAP);
                check_cut(&e.call, &full, CALL_CAP);
            }
        }
    }

    /// Arbitrary Unicode of 0 … 70 000 bytes: a short random seed (1- to
    /// 4-byte chars) repeated — the cut falls at every phase of a char.
    fn any_text() -> impl Strategy<Value = String> {
        let seed = proptest::collection::vec(any::<char>(), 0..12);
        (seed, 0usize..70_000).prop_map(|(seed, len)| {
            let seed: String = seed.into_iter().collect();
            let mut s = String::new();
            while !seed.is_empty() && s.len() < len {
                s.push_str(&seed);
            }
            s.truncate(s.floor_char_boundary(len));
            s
        })
    }

    fn check_cut(stored: &str, full: &str, cap: usize) {
        assert!(stored.len() <= cap);
        if full.len() <= cap - ELLIPSIS.len() {
            assert_eq!(stored, full);
        } else {
            let kept = stored
                .strip_suffix(ELLIPSIS)
                .expect("a cut field ends with …");
            assert!(full.starts_with(kept));
            // Cut as late as a char boundary allows.
            assert!(kept.len() + 4 > cap - ELLIPSIS.len());
        }
    }
}
