//! Rule `sleep-in-loop`: nothing waits by sleeping and looking again.
//!
//! The paper's only mechanism for "something changed" is a blocking
//! `tdp_get` or an asynchronous one drained at `tdp_service_event`
//! (§2.6, §3.3) — never a timer. A `thread::sleep(…)` / `ctx.sleep(…)`
//! inside a `loop`/`while`/`for` is the shape that breaks it: the
//! waiter finds out up to one nap late, and every job pays the nap
//! (`parador_job` spent 20 of its 21 ms in two of them). Wait on the
//! party that knows instead — a condvar, a blocking receive, a parked
//! request — and keep timers for failure detection, as the *timeout* of
//! such a wait. `crates/proto/src/backoff.rs` is the sanctioned pacing
//! primitive for retrying a *failed* operation and is exempt; a loop
//! that really is periodic work (a sampler, a workload model) is
//! allowlisted with why a timer is the right wake-up there.
//!
//! Detection is lexical: the body of every `loop`, `while` and
//! `for … in …` is scanned for `thread::sleep(` and `.sleep(`.

use super::{Rule, SourceFile};
use crate::diag::Finding;
use crate::lexer::{matching_close, seq, Tok};

pub struct SleepInLoop;

impl Rule for SleepInLoop {
    fn id(&self) -> &'static str {
        "sleep-in-loop"
    }

    fn explain(&self) -> &'static str {
        "no thread::sleep/.sleep inside loop/while/for — wait on an event; pace retries with tdp_proto::Backoff"
    }

    fn check(&self, f: &SourceFile) -> Vec<Finding> {
        if f.path == "crates/proto/src/backoff.rs" {
            return Vec::new();
        }
        let toks = &f.toks;
        let bodies: Vec<(usize, usize)> =
            (0..toks.len()).filter_map(|i| loop_body(toks, i)).collect();
        let mut out = Vec::new();
        for j in 0..toks.len() {
            let sleeps =
                seq(toks, j, &["thread", "::", "sleep", "("]) || seq(toks, j, &[".", "sleep", "("]);
            if !sleeps {
                continue;
            }
            if let Some(&(open, _)) = bodies.iter().rfind(|&&(o, c)| o < j && j < c) {
                out.push(Finding {
                    rule: self.id(),
                    path: f.path.clone(),
                    line: toks[j].line,
                    msg: format!(
                        "sleep inside the loop opened on line {}; block on the event (condvar, \
                         blocking recv, parked request) with the timer as its timeout, or pace \
                         a failed retry with `tdp_proto::Backoff`",
                        toks[open].line
                    ),
                });
            }
        }
        out
    }
}

/// If the token at `i` opens a loop, the indices of its body's `{` and
/// matching `}`.
pub(super) fn loop_body(toks: &[Tok], i: usize) -> Option<(usize, usize)> {
    let open = if toks[i].is_ident("loop") {
        toks.get(i + 1).filter(|t| t.is("{")).map(|_| i + 1)?
    } else if toks[i].is_ident("while") {
        header_end(toks, i + 1)?.0
    } else if toks[i].is_ident("for") {
        // `impl Trait for Type {` and `for<'a>` have no `in`.
        let (open, has_in) = header_end(toks, i + 1)?;
        has_in.then_some(open)?
    } else {
        return None;
    };
    Some((open, matching_close(toks, open)))
}

/// From the start of a `while`/`for` header, the index of the `{` that
/// opens the body — the first one outside any bracket that is not a
/// struct pattern (`while let P { x } = …`) — and whether an `in` was
/// crossed on the way. `None` if a `;` comes first: this was not a loop
/// header.
fn header_end(toks: &[Tok], from: usize) -> Option<(usize, bool)> {
    let mut depth = 0usize;
    let mut has_in = false;
    let mut k = from;
    while k < toks.len() {
        let t = &toks[k];
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            "{" if depth == 0 => {
                let close = matching_close(toks, k);
                if toks.get(close + 1).is_some_and(|n| n.is("=")) {
                    k = close;
                } else {
                    return Some((k, has_in));
                }
            }
            ";" if depth == 0 => return None,
            "in" if depth == 0 && t.is_ident("in") => has_in = true,
            _ => {}
        }
        k += 1;
    }
    None
}
