//! Rule `hand-accept-loop`: every daemon accepts through
//! `tdp_sync::serve`.
//!
//! A hand-written `while let Ok(c) = listener.accept() { spawn(…) }`
//! re-decides what a failed session spawn does (nine of ten such loops
//! panicked their accept thread), how the loop stops and who joins it,
//! and what its threads are called; `serve` decides each once. Loops
//! that are not one session per connection are allowlisted.
//!
//! Detection is lexical: a `.accept()` call inside a `loop`, `while` or
//! `for … in …`, header or body, outside `crates/sync/src/serve.rs`.

use super::sleep_in_loop::loop_body;
use super::{Rule, SourceFile};
use crate::diag::Finding;
use crate::lexer::seq;

pub struct HandAcceptLoop;

impl Rule for HandAcceptLoop {
    fn id(&self) -> &'static str {
        "hand-accept-loop"
    }

    fn explain(&self) -> &'static str {
        "no .accept() in a loop/while/for — serve the listener with tdp_sync::serve::serve"
    }

    fn check(&self, f: &SourceFile) -> Vec<Finding> {
        if f.path == "crates/sync/src/serve.rs" {
            return Vec::new();
        }
        let toks = &f.toks;
        let loops: Vec<(usize, usize)> = (0..toks.len())
            .filter_map(|i| loop_body(toks, i).map(|(_, close)| (i, close)))
            .collect();
        let mut out = Vec::new();
        for j in 0..toks.len() {
            if !seq(toks, j, &[".", "accept", "(", ")"]) {
                continue;
            }
            if let Some(&(start, _)) = loops.iter().rfind(|&&(s, c)| s < j && j < c) {
                out.push(Finding {
                    rule: self.id(),
                    path: f.path.clone(),
                    line: toks[j].line,
                    msg: format!(
                        "`.accept()` in the loop opened on line {}; run the listener with \
                         `tdp_sync::serve::serve(name, listener, handler)` (implement \
                         `serve::Accept` for it if needed)",
                        toks[start].line
                    ),
                });
            }
        }
        out
    }
}
