//! Rule `unchecked-deadline`: a caller's `Duration` is never added to
//! an `Instant`.
//!
//! `Instant::now() + timeout` panics ("overflow when adding duration to
//! instant") for `Duration::MAX`, the natural spelling of "wait
//! forever" — PR 20 fixed five such waits by hand and ISSUE 25 eighteen
//! more. A timed wait for a state change is one
//! `Condvar::wait_while_for`, which only ever subtracts; a deadline
//! that must exist is `Instant::now().checked_add(t)`, `None` = never.
//!
//! Detection is lexical: `Instant::now() + <ident>` where `<ident>` is
//! a lower-case local or parameter — not followed by `.`, `(` or `::`,
//! and not SCREAMING_CASE. That is the shape of a caller's `Duration`;
//! a constant, a field or a call result is a number the code chose.

use super::{Rule, SourceFile};
use crate::diag::Finding;
use crate::lexer::{seq, Kind};

pub struct UncheckedDeadline;

impl Rule for UncheckedDeadline {
    fn id(&self) -> &'static str {
        "unchecked-deadline"
    }

    fn explain(&self) -> &'static str {
        "no Instant::now() + <caller's Duration> — Condvar::wait_while_for, or checked_add (None = never)"
    }

    fn check(&self, f: &SourceFile) -> Vec<Finding> {
        let toks = &f.toks;
        let mut out = Vec::new();
        for i in 0..toks.len() {
            if !seq(toks, i, &["Instant", "::", "now", "(", ")", "+"]) {
                continue;
            }
            let Some(d) = toks.get(i + 6) else { continue };
            let caller_owned = d.kind == Kind::Ident
                && d.text.chars().any(|c| c.is_ascii_lowercase())
                && !toks
                    .get(i + 7)
                    .is_some_and(|n| n.is(".") || n.is("(") || n.is("::"));
            if caller_owned {
                out.push(Finding {
                    rule: self.id(),
                    path: f.path.clone(),
                    line: toks[i].line,
                    msg: format!(
                        "`Instant::now() + {0}` panics for `Duration::MAX`; wait with \
                         `Condvar::wait_while_for(.., {0})` or take \
                         `Instant::now().checked_add({0})` (`None` = never)",
                        d.text
                    ),
                });
            }
        }
        out
    }
}
