//! Rule `ffi-errno-check`: every raw FFI call's return value is
//! checked.
//!
//! Applies to any file declaring an `extern "C"` block (in this tree:
//! `crates/wire/src/sys.rs`, the lone unsafe crate's syscall shim).
//! Each call to a declared foreign function must show evidence of a
//! result check *near the call* — wrapped in `cvt`/`cvt_size`, compared
//! against 0/-1, or feeding `last_os_error` — within the same statement
//! or the two following ones. A syscall whose failure is consciously
//! ignorable still has to write the check down: `sys.rs`'s `poll_one`
//! compares `poll`'s return against 0 and retries only `EINTR`, so
//! which failures it swallows is visible in the code, not assumed.

use super::{Rule, SourceFile};
use crate::diag::Finding;
use crate::lexer::{seq, Kind, Tok};

pub struct FfiErrnoCheck;

impl Rule for FfiErrnoCheck {
    fn id(&self) -> &'static str {
        "ffi-errno-check"
    }

    fn explain(&self) -> &'static str {
        "every extern \"C\" call's return feeds cvt/last_os_error or a 0/-1 comparison nearby"
    }

    fn check(&self, f: &SourceFile) -> Vec<Finding> {
        let toks = &f.toks;
        let foreign = declared_foreign_fns(toks);
        if foreign.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for i in 0..toks.len() {
            let t = &toks[i];
            if t.kind != Kind::Ident || !foreign.iter().any(|n| n == &t.text) {
                continue;
            }
            if !toks.get(i + 1).map(|t| t.is("(")).unwrap_or(false) {
                continue;
            }
            // Skip the declaration itself (`fn name(…)`) and paths like
            // `Self::name(` that would be wrappers, not raw calls.
            if i >= 1 && (toks[i - 1].is_ident("fn") || toks[i - 1].is_ident("pub")) {
                continue;
            }
            if !checked_nearby(toks, i) {
                out.push(Finding {
                    rule: self.id(),
                    path: f.path.clone(),
                    line: t.line,
                    msg: format!(
                        "unsafe FFI call `{}` without a nearby return/errno check \
                         (cvt/last_os_error or a 0/-1 comparison)",
                        t.text
                    ),
                });
            }
        }
        out
    }
}

/// Names declared inside `extern "C" { … }` blocks.
fn declared_foreign_fns(toks: &[Tok]) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].is_ident("extern")
            && toks.get(i + 1).map(|t| t.is("\"C\"")).unwrap_or(false)
            && toks.get(i + 2).map(|t| t.is("{")).unwrap_or(false))
        {
            continue;
        }
        let close = crate::lexer::matching_close(toks, i + 2);
        let mut j = i + 3;
        while j + 1 < close {
            if toks[j].is_ident("fn") && toks[j + 1].kind == Kind::Ident {
                out.push(toks[j + 1].text.clone());
            }
            j += 1;
        }
    }
    out
}

/// Look for check evidence inside the call's *evidence window*: from
/// the start of the enclosing statement (treating `unsafe {` braces as
/// transparent, since calls arrive as `cvt(unsafe { … })`) to the end
/// of the following statement or the enclosing block, whichever comes
/// first.
fn checked_nearby(toks: &[Tok], call: usize) -> bool {
    let (start, end) = evidence_window(toks, call);
    let w = &toks[start..end.min(toks.len())];
    for k in 0..w.len() {
        let t = &w[k];
        if t.is_ident("cvt") || t.is_ident("cvt_size") || t.is_ident("last_os_error") {
            return true;
        }
        if (t.is("<") || t.is(">=") || t.is("<=") || t.is(">"))
            && w.get(k + 1).map(|n| n.is("0")).unwrap_or(false)
        {
            return true;
        }
        if seq(w, k, &["==", "-", "1"]) || seq(w, k, &["!=", "-", "1"]) || seq(w, k, &["==", "0"]) {
            return true;
        }
    }
    false
}

/// (start, end) token indices bracketing the call's statement plus the
/// next one. Walking backwards, an `unsafe {` open is transparent (and
/// counted); walking forwards, the counted opens give the call's brace
/// depth so `;` terminators are only recognized at statement level and
/// the scan stops when the enclosing block closes.
fn evidence_window(toks: &[Tok], call: usize) -> (usize, usize) {
    let mut unsafe_depth = 0isize;
    let mut j = call;
    while j > 0 {
        let t = &toks[j - 1];
        if t.is(";") || t.is("}") {
            break;
        }
        if t.is("{") {
            if j >= 2 && toks[j - 2].is_ident("unsafe") {
                unsafe_depth += 1;
                j -= 2;
                continue;
            }
            break;
        }
        j -= 1;
    }
    let start = j;
    let mut depth = unsafe_depth;
    let mut semis = 0usize;
    let mut j = call;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            ";" if depth <= 0 => {
                semis += 1;
                if semis == 2 {
                    j += 1;
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    (start, j + 1)
}
