//! The run protocol, parent side: pin to one CPU, run every repetition
//! as a fresh child process (interleaved round-robin across workloads,
//! so a noisy stretch of the host is spread over all of them), take
//! medians over the repetitions, then run the traced pass and print.

use crate::child::wall_ns;
use crate::json::{parse_flat, Flat, Obj};
use crate::procfs;
use crate::spec::{EndToEnd, END_TO_END, PER_LAYER};
use crate::sys;
use crate::workloads::Workload;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

pub struct Plan {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    /// Untraced repetitions per workload.
    pub reps: u64,
    pub warmup: Duration,
    /// Measured window of one repetition.
    pub measure: Duration,
    /// Run the traced pass (one more repetition per workload, with
    /// spans, counters and layer probes) after the untraced ones.
    pub traced: bool,
    pub trace_out: Option<PathBuf>,
    /// Driver contract: the last stdout line is one object with
    /// `correct`, `attempted`, `failed` and `metrics` for the single
    /// workload run. Otherwise: the report for people, then one JSON
    /// line per workload carrying everything.
    pub contract: bool,
}

/// One end-to-end value over the repetitions: noise is part of the
/// output.
pub struct Stat {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// The repetitions spread wider than the metric's bound.
    pub unstable: bool,
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

pub fn stat(mut values: Vec<f64>, bound: f64) -> Stat {
    let median = median(&mut values);
    let min = values.first().copied().unwrap_or(0.0);
    let max = values.last().copied().unwrap_or(0.0);
    Stat {
        median,
        min,
        max,
        unstable: median > 0.0 && (max - min) / median > bound,
    }
}

/// Everything known about one workload once its children have run.
struct Outcome {
    workload: Workload,
    reps: Vec<Flat>,
    traced: Option<Flat>,
}

impl Outcome {
    fn all(&self) -> impl Iterator<Item = &Flat> {
        self.reps.iter().chain(&self.traced)
    }

    fn sum(&self, key: &str) -> u64 {
        self.all().filter_map(|r| r.num(key)).sum::<f64>() as u64
    }

    fn stat(&self, m: &EndToEnd) -> Stat {
        stat(
            self.reps.iter().filter_map(|r| r.num(m.name)).collect(),
            m.bound,
        )
    }

    fn fail_ratio(&self) -> f64 {
        self.sum("failed") as f64 / self.sum("attempted").max(1) as f64
    }

    fn rep_median(&self, key: &str) -> f64 {
        median(
            &mut self
                .reps
                .iter()
                .filter_map(|r| r.num(key))
                .collect::<Vec<_>>(),
        )
    }

    fn first_error(&self) -> Option<&str> {
        self.all()
            .filter_map(|r| r.str("error"))
            .find(|e| !e.is_empty())
    }

    /// Per-layer metrics in `PER_LAYER` order; 0 for a layer this
    /// workload's path does not touch.
    fn layers(&self) -> Vec<(&'static str, &'static str, f64)> {
        let untraced_ops = self.stat(&END_TO_END[0]).median;
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let traced = self.traced.as_ref();
                let v = match name {
                    "fail_ratio" => self.fail_ratio(),
                    // The tails that do not repeat: medians over the
                    // untraced repetitions, like the end-to-end ones.
                    "lat.p99_us" => self.rep_median("lat_p99_us"),
                    "lat.p999_us" => self.rep_median("lat_p999_us"),
                    "trace.overhead_ratio" if untraced_ops > 0.0 => {
                        traced.and_then(|t| t.num("ops_per_s")).unwrap_or(0.0) / untraced_ops
                    }
                    _ => traced.and_then(|t| t.num(name)).unwrap_or(0.0),
                };
                (name, unit, v)
            })
            .collect()
    }
}

fn metric_obj(v: f64, unit: &str) -> String {
    Obj::new().num("value", v).str("unit", unit).finish()
}

/// Spawn one repetition and wait for it. `Err` if the child died or
/// printed no result; the child's own watchdog bounds how long this
/// blocks.
fn run_child(plan: &Plan, w: Workload, rep: u64, traced: bool) -> Result<Flat, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", w.name()])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--rep", &rep.to_string()])
        .args(["--warmup-ms", &plan.warmup.as_millis().to_string()])
        .args(["--measure-ms", &plan.measure.as_millis().to_string()])
        .args(["--traced", if traced { "1" } else { "0" }]);
    if let (true, Some(path)) = (traced, &plan.trace_out) {
        cmd.arg("--trace-out").arg(path);
    }
    cmd.args(["--spawned-at-ns", &wall_ns().to_string()]);
    let out = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    match parse_flat(line) {
        Some(flat) if out.status.success() => Ok(flat),
        _ => Err(format!(
            "{} rep {rep}: child {} and printed {line:?}",
            w.name(),
            out.status
        )),
    }
}

pub fn run(plan: &Plan, quick: bool) -> Result<bool, String> {
    // Host facts first: after pinning, the process sees one CPU.
    let (nproc, kernel) = procfs::host_facts();
    let cpu = sys::pin_to_one_cpu().map_err(|e| format!("cannot pin to one CPU: {e}"))?;
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let host = Obj::new()
        .int("nproc", nproc as u64)
        .str("kernel", &kernel)
        .int("pinned_cpu", cpu as u64)
        .str("profile", profile)
        .finish();
    println!(
        "# tdpbench: seed {}, {} × ({} ms warm-up + {} ms measured) per workload, one closed-loop client{}",
        plan.seed,
        plan.reps,
        plan.warmup.as_millis(),
        plan.measure.as_millis(),
        if quick { " — quick smoke run, numbers mean nothing" } else { "" }
    );
    println!("# host: {host}");

    if let Some(path) = &plan.trace_out {
        // Children append; start from an empty file.
        std::fs::write(path, "").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut outcomes: Vec<Outcome> = plan
        .workloads
        .iter()
        .map(|&workload| Outcome {
            workload,
            reps: Vec::new(),
            traced: None,
        })
        .collect();
    for rep in 0..plan.reps {
        for o in &mut outcomes {
            o.reps.push(run_child(plan, o.workload, rep, false)?);
        }
    }
    if plan.traced {
        for o in &mut outcomes {
            o.traced = Some(run_child(plan, o.workload, plan.reps, true)?);
        }
    }

    let mut all_correct = true;
    let mut lines = Vec::new();
    for o in &outcomes {
        let hashes: Vec<&str> = o.all().filter_map(|r| r.str("input_hash")).collect();
        let same_input = hashes.windows(2).all(|p| p[0] == p[1]);
        let (attempted, failed) = (o.sum("attempted"), o.sum("failed"));
        let correct = failed == 0 && same_input && attempted > 0;
        all_correct &= correct;
        report(o, plan, correct);
        if !same_input {
            println!("  INPUT DIFFERS between repetitions: {hashes:?}");
        }

        let mut e2e = Obj::new();
        for m in &END_TO_END {
            e2e = e2e.raw(m.name, &metric_obj(o.stat(m).median, m.unit));
        }
        let mut per_layer = Obj::new();
        for (name, unit, v) in o.layers() {
            per_layer = per_layer.raw(name, &metric_obj(v, unit));
        }
        let base = Obj::new()
            .bool("correct", correct)
            .int("attempted", attempted)
            .int("failed", failed);
        lines.push(if plan.contract {
            let metrics = if plan.traced { per_layer } else { e2e };
            base.raw("metrics", &metrics.finish()).finish()
        } else {
            let all = base
                .str("workload", o.workload.name())
                .str("input_hash", hashes.first().copied().unwrap_or(""))
                .raw("host", &host)
                .raw("end_to_end", &e2e.finish());
            if plan.traced {
                all.raw("per_layer", &per_layer.finish()).finish()
            } else {
                all.finish()
            }
        });
    }
    for line in lines {
        println!("{line}");
    }
    Ok(all_correct)
}

/// The report for people: every end-to-end metric by name and unit
/// with its noise, then (traced pass) the per-layer table and shares.
fn report(o: &Outcome, plan: &Plan, correct: bool) {
    let n_samples: Vec<String> = o
        .reps
        .iter()
        .filter_map(|r| r.num("n_samples"))
        .map(|n| n.to_string())
        .collect();
    let tail = o.workload.tail();
    println!(
        "\n## {} — input_hash {} — {}",
        o.workload.name(),
        o.reps
            .first()
            .and_then(|r| r.str("input_hash"))
            .unwrap_or("?"),
        if correct {
            "all outputs correct"
        } else {
            "INCORRECT"
        }
    );
    if let Some(e) = o.first_error() {
        println!("  first error: {e}");
    }
    println!("  samples per repetition: {}", n_samples.join(" "));
    println!(
        "  {:<14} {:>6} {:>6} {:>14} {:>14} {:>14}  {:>5}  note",
        "metric", "unit", "better", "median", "min", "max", "bound"
    );
    for m in &END_TO_END {
        let s = o.stat(m);
        let mut note = String::new();
        if s.unstable {
            note.push_str("unstable ");
        }
        if m.name == "lat_tail_us" {
            note.push_str(tail.name());
            if o.reps
                .iter()
                .any(|r| r.bool("tail_supported") == Some(false))
            {
                note.push_str(" (fewer than 10 samples beyond it)");
            }
        }
        if m.name == "rss_peak_mb" {
            note.push_str(&format!("VmHWM at op {}", o.workload.rss_checkpoint_ops()));
            if o.reps
                .iter()
                .any(|r| r.bool("rss_at_checkpoint") == Some(false))
            {
                note.push_str(" (not reached: end of repetition)");
            }
        }
        println!(
            "  {:<14} {:>6} {:>6} {:>14.4} {:>14.4} {:>14.4}  {:>4.0}%  {note}",
            m.name,
            m.unit,
            if m.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            s.median,
            s.min,
            s.max,
            m.bound * 100.0
        );
    }
    println!(
        "  {:<14} {:>6} {:>6} {:>14} (failed {} of {} attempted; may not rise at all)",
        "fail_ratio",
        "ratio",
        "lower",
        o.fail_ratio(),
        o.sum("failed"),
        o.sum("attempted")
    );
    if !plan.traced {
        return;
    }
    let layers = o.layers();
    println!("  per-layer (traced pass; 0 = not on this workload's path):");
    for (name, unit, v) in layers
        .iter()
        .filter(|(name, _, v)| *v != 0.0 || *name == "fail_ratio")
    {
        println!("    {name:<34} {v:>14.4} {unit}");
    }
    let m = |name: &str| {
        layers
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |l| l.2)
    };
    let p50 = o
        .traced
        .as_ref()
        .and_then(|t| t.num("lat_p50_us"))
        .unwrap_or(0.0);
    println!("  share of traced lat_p50_us ({p50:.3} us) by layer self time:");
    for (layer, us) in o.workload.shares(&m) {
        println!("    {layer:<12} {us:>12.3} us {:>6.1}%", us / p50 * 100.0);
    }
    println!(
        "    {:<12} {:>12.3} us {:>6.1}%",
        "unaccounted",
        m("trace.unaccounted_us"),
        m("trace.unaccounted_us") / p50 * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_and_the_unstable_flag() {
        let s = stat(vec![10.0, 9.0, 11.0, 10.5, 9.5], 0.10);
        assert_eq!((s.median, s.min, s.max), (10.0, 9.0, 11.0));
        assert!(s.unstable, "spread 20 % of the median, bound 10 %");
        assert!(!stat(vec![10.0, 9.8, 10.2], 0.10).unstable);
        assert_eq!(stat(vec![4.0, 2.0], 0.1).median, 3.0);
        assert_eq!(stat(vec![], 0.1).median, 0.0);
    }
}
