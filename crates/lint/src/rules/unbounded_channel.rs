//! Rule `unbounded-channel`: every channel carries a capacity.
//!
//! An unbounded queue hides a missing backpressure decision: a slow
//! consumer grows it until the process dies somewhere unrelated.
//! Everything on the runtime path uses `tdp_sync::channel::bounded`
//! (DESIGN.md §8); `std::sync::mpsc::channel` is banned for the same
//! reason (and because it bypasses the facade, so lockdep and loom
//! cannot see its lock). A
//! queue that is *provably* bounded by construction can be allowlisted
//! with the reasoning recorded in `lint.allow`.

use super::{Rule, SourceFile};
use crate::diag::Finding;
use crate::lexer::seq;

pub struct UnboundedChannel;

impl Rule for UnboundedChannel {
    fn id(&self) -> &'static str {
        "unbounded-channel"
    }

    fn explain(&self) -> &'static str {
        "no unbounded()/mpsc::channel() — use tdp_sync::channel::bounded(cap)"
    }

    fn check(&self, f: &SourceFile) -> Vec<Finding> {
        let toks = &f.toks;
        let mut out = Vec::new();
        for i in 0..toks.len() {
            // `unbounded()` or turbofish `unbounded::<T>()`; a bare
            // `use …::unbounded;` import or an `fn unbounded` decl is
            // not a construction.
            let call_unbounded = toks[i].is_ident("unbounded")
                && toks
                    .get(i + 1)
                    .map(|t| t.is("(") || t.is("::"))
                    .unwrap_or(false)
                && !toks
                    .get(i.wrapping_sub(1))
                    .map(|t| t.is_ident("fn"))
                    .unwrap_or(false);
            if call_unbounded {
                out.push(Finding {
                    rule: self.id(),
                    path: f.path.clone(),
                    line: toks[i].line,
                    msg: "unbounded channel; pick a capacity (`bounded(cap)`) or allowlist \
                          with the boundedness argument"
                        .into(),
                });
            } else if seq(toks, i, &["mpsc", "::", "channel"]) {
                out.push(Finding {
                    rule: self.id(),
                    path: f.path.clone(),
                    line: toks[i].line,
                    msg: "std::sync::mpsc::channel is unbounded; use tdp_sync::channel::bounded"
                        .into(),
                });
            }
        }
        out
    }
}
