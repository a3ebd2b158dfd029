//! `tdpbench` — the repo's one benchmark: five pinned closed-loop
//! workloads, every end-to-end metric by name and unit with its noise,
//! every output checked, and a traced pass for the per-layer table.
//! README.md beside this file says what each number means.
//!
//! ```text
//! tdpbench                                   every workload, then the traced pass
//! tdpbench --quick                           smoke: 1 repetition x 0.5 s, no traced pass
//! tdpbench --workload W --seed N --seconds S --trace 0|1     (BENCHMARK.json contract)
//! ```

mod child;
mod clock;
mod gen;
mod hist;
mod json;
mod parent;
mod probes;
mod procfs;
mod spec;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::Workload;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Untraced repetitions per workload; every end-to-end value is their
/// median.
const REPS: u64 = 5;
const WARMUP: Duration = Duration::from_millis(500);

const USAGE: &str = "usage: tdpbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--quick] [--trace-out PATH]
  --workload  attr_epoll | attr_netsim | handoff_epoll | gateway_http | parador_job;
              with it the last line printed is the BENCHMARK.json result object
              (--trace 0: end-to-end metrics, --trace 1: per-layer metrics).
              Without it every workload runs, then the traced pass.
  --seed      workload generator seed (default 1)
  --seconds   measured seconds per workload, split over 5 repetitions (default 15)
  --quick     smoke run: 1 repetition x 0.5 s, traced pass skipped
  --trace-out write the traced pass's spans here, one JSON object per line";

struct Args(std::vec::IntoIter<String>);

impl Args {
    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.0.next().ok_or(format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
    }
}

fn child_main(mut args: Args, started: Instant) -> Result<String, String> {
    let name: String = args.value("--child")?;
    let mut a = child::ChildArgs {
        workload: Workload::parse(&name).ok_or(format!("no workload {name:?}"))?,
        seed: 1,
        rep: 0,
        warmup: WARMUP,
        measure: Duration::from_secs(3),
        traced: false,
        trace_out: None,
        spawned_at_ns: child::wall_ns(),
    };
    let ms = |args: &mut Args, flag: &str| args.value(flag).map(Duration::from_millis);
    while let Some(flag) = args.0.next() {
        match flag.as_str() {
            "--seed" => a.seed = args.value(&flag)?,
            "--rep" => a.rep = args.value(&flag)?,
            "--warmup-ms" => a.warmup = ms(&mut args, &flag)?,
            "--measure-ms" => a.measure = ms(&mut args, &flag)?,
            "--traced" => a.traced = args.value::<u8>(&flag)? == 1,
            "--trace-out" => a.trace_out = Some(PathBuf::from(args.value::<String>(&flag)?)),
            "--spawned-at-ns" => a.spawned_at_ns = args.value(&flag)?,
            other => return Err(format!("child: unknown argument {other:?}")),
        }
    }
    child::run(&a, started)
}

fn parent_main(mut args: Args) -> Result<bool, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut quick, mut trace_out) =
        (None, 1u64, 15u64, 0u8, false, None);
    while let Some(flag) = args.0.next() {
        match flag.as_str() {
            "--workload" => {
                let name: String = args.value(&flag)?;
                workload = Some(Workload::parse(&name).ok_or(format!("no workload {name:?}"))?);
            }
            "--seed" => seed = args.value(&flag)?,
            "--seconds" => seconds = args.value(&flag)?,
            "--trace" => trace = args.value(&flag)?,
            "--quick" => quick = true,
            "--trace-out" => trace_out = Some(PathBuf::from(args.value::<String>(&flag)?)),
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(true);
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !(1..=60).contains(&seconds) || trace > 1 {
        return Err(format!("--seconds is 1..=60 and --trace 0 or 1\n{USAGE}"));
    }
    // Numbers from an unoptimised build describe the compiler, not TDP.
    if cfg!(debug_assertions) && !quick {
        return Err("refusing to measure a debug build: build with --release \
                    (--quick runs anywhere, as a smoke test)"
            .into());
    }
    let measure = Duration::from_millis(seconds * 1000 / REPS);
    let plan = parent::Plan {
        contract: workload.is_some(),
        workloads: workload.map_or(Workload::ALL.to_vec(), |w| vec![w]),
        seed,
        // The traced pass of a single workload needs one untraced
        // repetition beside it, for `trace.overhead_ratio`.
        reps: if quick || (workload.is_some() && trace == 1) {
            1
        } else {
            REPS
        },
        warmup: if quick {
            Duration::from_millis(100)
        } else {
            WARMUP
        },
        measure: if quick {
            Duration::from_millis(500)
        } else {
            measure
        },
        traced: !quick && (workload.is_none() || trace == 1),
        trace_out,
    };
    parent::run(&plan, quick)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut args = Args(std::env::args().skip(1).collect::<Vec<_>>().into_iter());
    let is_child = std::env::args().nth(1).as_deref() == Some("--child");
    let result = if is_child {
        args.0.next();
        child_main(args, started).map(|line| {
            println!("{line}");
            true
        })
    } else {
        parent_main(args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // Every metric was printed, but some output was wrong.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("tdpbench: {e}");
            ExitCode::from(2)
        }
    }
}
