//! The rule registry: one invariant per file, mirroring the gateway's
//! one-tool-one-file layout. Adding a rule = one new module here plus a
//! fixture pair under `tests/fixtures/<rule-id>/` (the harness test
//! fails if either half is missing).

use crate::diag::Finding;
use crate::lexer::Tok;

mod blocking_under_guard;
mod ffi_errno_check;
mod lock_outside_sync;
mod named_threads;
mod sleep_in_loop;
mod unbounded_channel;
mod unchecked_deadline;

/// A source file ready for checking: workspace-relative path plus the
/// token stream with test-gated items stripped.
pub struct SourceFile {
    pub path: String,
    pub toks: Vec<Tok>,
}

pub trait Rule {
    /// Stable kebab-case id; doubles as the fixture directory name and
    /// the allowlist key.
    fn id(&self) -> &'static str;
    /// One-line statement of the invariant, shown by `--list-rules`.
    fn explain(&self) -> &'static str;
    fn check(&self, f: &SourceFile) -> Vec<Finding>;
}

pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(lock_outside_sync::LockOutsideSync),
        Box::new(blocking_under_guard::BlockingUnderGuard),
        Box::new(unbounded_channel::UnboundedChannel),
        Box::new(named_threads::NamedThreads),
        Box::new(ffi_errno_check::FfiErrnoCheck),
        Box::new(sleep_in_loop::SleepInLoop),
        Box::new(unchecked_deadline::UncheckedDeadline),
    ]
}
