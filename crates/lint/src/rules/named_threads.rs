//! Rule `named-threads`: every runtime thread is born named.
//!
//! `thread::Builder::new().name(…)` instead of bare `thread::spawn` —
//! a panic message, a TSan report, a debugger thread list or an
//! `/proc/<pid>/task` dump that says `wire-proxy-pump` instead of
//! `<unnamed>` is the difference between a bug report and an
//! archaeology project. The chaos soak and the 500-session wire soak
//! both assert on thread *names*, so unnamed threads also escape those
//! leak checks. `loom::thread::spawn` is exempt: the model checker
//! names its schedules itself.

use super::{Rule, SourceFile};
use crate::diag::Finding;
use crate::lexer::seq;

pub struct NamedThreads;

impl Rule for NamedThreads {
    fn id(&self) -> &'static str {
        "named-threads"
    }

    fn explain(&self) -> &'static str {
        "no bare thread::spawn — use thread::Builder::new().name(…).spawn(…)"
    }

    fn check(&self, f: &SourceFile) -> Vec<Finding> {
        let toks = &f.toks;
        let mut out = Vec::new();
        for i in 0..toks.len() {
            if seq(toks, i, &["thread", "::", "spawn"]) {
                let looms = i >= 2 && toks[i - 1].is("::") && toks[i - 2].is_ident("loom");
                if !looms {
                    out.push(Finding {
                        rule: self.id(),
                        path: f.path.clone(),
                        line: toks[i].line,
                        msg: "bare `thread::spawn`; use `thread::Builder::new().name(…)` so \
                              panics, sanitizer reports and thread-leak asserts can name it"
                            .into(),
                    });
                }
            }
        }
        out
    }
}
