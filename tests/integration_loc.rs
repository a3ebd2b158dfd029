//! **E9 — the "< 500 lines" claim.**
//!
//! §4.3: "The process control of both Paradyn and Condor were modified
//! to use the TDP library. While these modifications involved some
//! re-arranging of the related code in each system, the total code
//! involved was less than 500 lines."
//!
//! Our analog: measure the *TDP integration surface* of both substrate
//! systems — the lines in Condor's starter and Paradyn's daemon that
//! exist solely to speak TDP — and hold it under two bounds: the
//! paper's 500, and a ratchet at the count this test was written
//! against plus a stated slack, so the surface cannot creep up
//! unnoticed.
//!
//! ```text
//! cargo test --test integration_loc -- --nocapture
//! ```

use std::fs;
use std::path::Path;

/// The paper's bound on the whole modification (§4.3).
const PAPER_BOUND: usize = 500;
/// The surface when the ratchet was last set: starter 30 + paradynd 63.
const RATCHET: usize = 93;
/// Room for a few lines of integration change before the ratchet must
/// be re-set on purpose, with the reason in the change that does it.
const SLACK: usize = 10;

/// Count non-blank, non-comment source lines.
fn sloc(text: &str) -> usize {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

/// Lines that mention the TDP API (calls through `TdpHandle`, the
/// `tdp_*` vocabulary, or the standard attribute names) — the
/// modification surface a port of an *existing* system would add.
fn tdp_surface(text: &str) -> usize {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .filter(|l| {
            let l = l.to_ascii_lowercase();
            l.contains("tdp") || l.contains("names::") || l.contains("attr")
        })
        .count()
}

#[test]
fn tdp_integration_surface_stays_under_the_papers_bound() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = [
        (
            "condor starter (RM-side integration)",
            "crates/condor/src/starter.rs",
        ),
        (
            "paradynd (RT-side integration)",
            "crates/paradyn/src/daemon.rs",
        ),
    ];
    println!("{:<42} {:>8} {:>14}", "component", "SLOC", "TDP surface");
    println!("{}", "-".repeat(68));
    let mut total_surface = 0;
    let mut total_sloc = 0;
    for (label, rel) in files {
        let text = fs::read_to_string(root.join(rel)).expect("read source");
        let s = sloc(&text);
        let t = tdp_surface(&text);
        total_sloc += s;
        total_surface += t;
        println!("{label:<42} {s:>8} {t:>14}");
    }
    println!("{}", "-".repeat(68));
    println!("{:<42} {total_sloc:>8} {total_surface:>14}", "total");
    println!("paper (§4.3): total modification to Condor + Paradyn < {PAPER_BOUND} lines");
    println!("ratchet:      {RATCHET} + {SLACK} slack");
    assert!(
        total_surface < PAPER_BOUND,
        "TDP integration surface {total_surface} exceeds the paper's {PAPER_BOUND}"
    );
    assert!(
        total_surface <= RATCHET + SLACK,
        "TDP integration surface {total_surface} grew past the ratchet {RATCHET} + {SLACK}"
    );
}
