//! Rule `blocking-under-guard`: no blocking call while a `tdp-sync`
//! guard is live in the same block.
//!
//! A channel send/recv, socket write, sleep, park or thread join under
//! a held lock turns local backpressure into a lock-holder stall: every
//! other thread touching that lock now waits on the slow peer too — the
//! exact shape of PR 1's attrspace send-under-clients-lock bug and two
//! of the three loom-found flow races. Condvar waits are exempt (they
//! atomically release the guard), and `try_*` variants never block.
//!
//! Detection is lexical: a statement of the form `let g = expr.lock();`
//! (or `.read()` / `.write()` with *empty* argument lists, which is
//! what disambiguates RwLock from `io::Read`/`io::Write`) starts a
//! guard scope that runs to the enclosing block's `}` or an explicit
//! `drop(g)`. A leading `*`/copy-out (`let v = *m.lock();`) is not a
//! guard — the temporary dies at the semicolon.

use super::{Rule, SourceFile};
use crate::diag::Finding;
use crate::lexer::{seq, Kind, Tok};

pub struct BlockingUnderGuard;

/// Token sequences that block the calling thread. `.join()`, `.flush()`
/// and `.accept()` require empty argument lists so `Path::join(x)` and
/// friends stay legal.
const BLOCKING: &[(&[&str], &str)] = &[
    (&[".", "send", "("], "channel send"),
    (&[".", "send_timeout", "("], "channel send"),
    (&[".", "recv", "("], "channel recv"),
    (&[".", "recv_timeout", "("], "channel recv"),
    (&[".", "join", "(", ")"], "thread join"),
    (&[".", "flush", "(", ")"], "I/O flush"),
    (&[".", "accept", "(", ")"], "socket accept"),
    (&[".", "write_all", "("], "blocking write"),
    (&[".", "read_exact", "("], "blocking read"),
    (&["thread", "::", "sleep"], "sleep"),
    (&["thread", "::", "park"], "park"),
    (&["park_timeout", "("], "park"),
    (&["write_all_stall", "("], "stall-bounded socket write"),
    (&[".", "write_frame", "("], "stall-bounded socket write"),
    (&["poll_readable", "("], "poll syscall"),
    (&["poll_writable", "("], "poll syscall"),
    // `recv_dontwait` and `send_dontwait` never park, by their flag.
    (&["recv_blocking", "("], "blocking recv syscall"),
    (&["TcpStream", "::", "connect"], "socket connect"),
];

impl Rule for BlockingUnderGuard {
    fn id(&self) -> &'static str {
        "blocking-under-guard"
    }

    fn explain(&self) -> &'static str {
        "no blocking call (send/recv/write/park/sleep/syscall shim) while a tdp-sync guard is live"
    }

    fn check(&self, f: &SourceFile) -> Vec<Finding> {
        let toks = &f.toks;
        let mut out = Vec::new();
        for i in 0..toks.len() {
            if !toks[i].is_ident("let") {
                continue;
            }
            let Some((name, stmt_end)) = guard_binding(toks, i) else {
                continue;
            };
            let block_end = enclosing_block_end(toks, stmt_end);
            let mut j = stmt_end;
            while j < block_end {
                // `drop(name)` ends the guard's liveness early.
                if seq(toks, j, &["drop", "(", &name, ")"]) {
                    break;
                }
                // A closure handed to `spawn(…)` runs on the *new*
                // thread, never under this guard — skip its body.
                if seq(toks, j, &["spawn", "("]) {
                    j = crate::lexer::matching_close(toks, j + 1) + 1;
                    continue;
                }
                if let Some(what) = blocking_at(toks, j) {
                    out.push(Finding {
                        rule: self.id(),
                        path: f.path.clone(),
                        line: toks[j].line,
                        msg: format!(
                            "{what} while tdp-sync guard `{name}` (taken on line {}) is live; \
                             copy the data out and drop the guard first",
                            toks[i].line
                        ),
                    });
                }
                j += 1;
            }
        }
        out
    }
}

/// Is the `let` at `i` a guard binding? Returns the bound name and the
/// index just past the statement's `;`.
fn guard_binding(toks: &[Tok], i: usize) -> Option<(String, usize)> {
    let mut k = i + 1;
    if toks.get(k).map(|t| t.is_ident("mut")).unwrap_or(false) {
        k += 1;
    }
    let name = toks.get(k).filter(|t| t.kind == Kind::Ident)?.text.clone();
    // Destructuring patterns and `let Some(g) = …` shapes are skipped —
    // the next token of a plain binding is `=` (or `:` for a typed
    // one, which we also accept by scanning to `=` without leaving the
    // statement).
    let mut eq = k + 1;
    while eq < toks.len() && !toks[eq].is("=") {
        if toks[eq].is(";") || toks[eq].is("(") || toks[eq].is("{") {
            return None;
        }
        eq += 1;
    }
    // A deref/copy-out init (`let v = *m.lock();`) takes no guard.
    if toks.get(eq + 1).map(|t| t.is("*")).unwrap_or(false) {
        return None;
    }
    // Find the `;` ending the statement (brackets counted jointly).
    let mut depth = 0usize;
    let mut j = eq + 1;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth = depth.saturating_sub(1),
            ";" if depth == 0 => break,
            _ => {}
        }
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    // The initializer must *end* with `.lock()` / `.read()` / `.write()`
    // — an empty-arg facade acquisition, not a method chained past the
    // guard (`m.lock().len()` drops the temporary at the `;`).
    let tail_ok = j >= 4
        && toks[j - 4].is(".")
        && toks[j - 2].is("(")
        && toks[j - 1].is(")")
        && matches!(toks[j - 3].text.as_str(), "lock" | "read" | "write");
    tail_ok.then_some((name, j + 1))
}

/// Index of the `}` closing the block that position `from` sits in.
fn enclosing_block_end(toks: &[Tok], from: usize) -> usize {
    let mut depth = 0usize;
    let mut j = from;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            "}" => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

fn blocking_at(toks: &[Tok], j: usize) -> Option<&'static str> {
    BLOCKING
        .iter()
        .find(|(pat, _)| seq(toks, j, pat))
        .map(|&(_, what)| what)
}
