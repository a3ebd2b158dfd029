//! One repetition: a fresh process builds the world, warms up, runs
//! the measured window closed-loop with one client, and prints one
//! flat JSON line for the parent.

use crate::clock::{self, Clock};
use crate::hist::Hist;
use crate::json::Obj;
use crate::probes::{self, Layers};
use crate::procfs;
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{self, Driver, Workload, OP_TIMEOUT};
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, RecvTimeoutError};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

pub struct ChildArgs {
    pub workload: Workload,
    pub seed: u64,
    pub rep: u64,
    pub warmup: Duration,
    pub measure: Duration,
    pub traced: bool,
    pub trace_out: Option<PathBuf>,
    /// Wall clock when the parent spawned this process, ns since the
    /// epoch: `setup_s` runs from there, so exec and start-up count.
    pub spawned_at_ns: u128,
}

/// Length of each layer probe of the traced pass.
const PROBE: Duration = Duration::from_millis(500);

/// A window gives up after this many failed ops: each may have cost a
/// 5 s timeout, and the run is already incorrect.
const MAX_FAILED: u64 = 10;

pub fn wall_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

struct Window {
    /// Op latencies in ns on the workload's clock.
    hist: Hist,
    ok: u64,
    failed: u64,
    first_error: Option<String>,
    /// Length of the window on the workload's clock, calibration
    /// pauses excluded.
    elapsed_s: f64,
    /// Mean wall-to-clock factor over the window (1 on the wall clock).
    scale: f64,
}

/// `rss_peak_mb`: `VmHWM` when the op count reaches the workload's
/// checkpoint (see `Workload::rss_checkpoint_ops`).
struct Rss {
    at_ops: u64,
    mb: Option<f64>,
}

fn run_window(
    driver: &mut dyn Driver,
    t: &mut Tracer,
    next_op: &mut u64,
    dur: Duration,
    clock: &Clock,
    rss: &mut Rss,
) -> Window {
    let mut w = Window {
        hist: Hist::new(),
        ok: 0,
        failed: 0,
        first_error: None,
        elapsed_s: 0.0,
        scale: 1.0,
    };
    // The window is a run of segments, each timed on the scale
    // measured just before it (one segment on the wall clock).
    let mut scale = clock.scale();
    t.set_scale(scale);
    let mut wall = Duration::ZERO;
    let mut segment = Instant::now();
    loop {
        t.begin_op(*next_op);
        let r = driver.op(*next_op, t);
        *next_op += 1;
        let end = match r {
            Ok((t0, t1)) if t1 - t0 <= OP_TIMEOUT => {
                t.end_op(t0, t1);
                w.hist.record(((t1 - t0).as_nanos() as f64 * scale) as u64);
                w.ok += 1;
                t1
            }
            // A failed op misses the tail too: it sits in the
            // histogram at the timeout.
            other => {
                w.hist.record(OP_TIMEOUT.as_nanos() as u64);
                w.failed += 1;
                w.first_error
                    .get_or_insert(other.err().unwrap_or_else(|| "op took over 5 s".into()));
                Instant::now()
            }
        };
        if *next_op == rss.at_ops {
            rss.mb = Some(procfs::vm_hwm_mb());
        }
        let run = end - segment;
        let over = wall + run >= dur || w.failed >= MAX_FAILED;
        if over || (clock.is_nominal() && run >= clock::EVERY) {
            wall += run;
            w.elapsed_s += run.as_secs_f64() * scale;
            if over {
                w.scale = w.elapsed_s / wall.as_secs_f64();
                return w;
            }
            scale = clock.scale();
            t.set_scale(scale);
            segment = Instant::now();
        }
    }
}

/// A window, then the workload's end-of-window checks: ops they find
/// wrong move from `ok` to `failed`.
fn checked_window(
    driver: &mut dyn Driver,
    t: &mut Tracer,
    next_op: &mut u64,
    dur: Duration,
    clock: &Clock,
    rss: &mut Rss,
) -> Window {
    let mut w = run_window(driver, t, next_op, dur, clock, rss);
    if let Err((n, why)) = driver.verify() {
        let n = n.min(w.ok);
        w.ok -= n;
        w.failed += n;
        w.first_error.get_or_insert(why);
    }
    w
}

/// Per-op `/proc` and allocator deltas over the measured window.
fn window_counters(
    before: (procfs::ProcSample, sys::AllocCounts),
    after: (procfs::ProcSample, sys::AllocCounts),
    w: &Window,
    out: &mut Layers,
) {
    let (p0, a0) = before;
    let (p1, a1) = after;
    let ops = w.ok.max(1) as f64;
    // CPU time is wall time too: put it on the workload's clock.
    let cpu = w.scale / ops;
    out.push(("host.clock_scale", w.scale));
    out.push(("proc.cpu_user_us_per_op", (p1.user_us - p0.user_us) * cpu));
    out.push(("proc.cpu_sys_us_per_op", (p1.sys_us - p0.sys_us) * cpu));
    out.push(("proc.vol_ctxsw_per_op", (p1.vol_ctxsw - p0.vol_ctxsw) / ops));
    out.push((
        "proc.invol_ctxsw_per_op",
        (p1.invol_ctxsw - p0.invol_ctxsw) / ops,
    ));
    out.push(("proc.minflt_per_kop", (p1.minflt - p0.minflt) / ops * 1e3));
    out.push(("proc.threads", p1.threads));
    out.push(("alloc.count_per_op", (a1.calls - a0.calls) as f64 / ops));
    out.push(("alloc.bytes_per_op", (a1.bytes - a0.bytes) as f64 / ops));
    out.push((
        "alloc.live_growth_bytes_per_op",
        (a1.live - a0.live) as f64 / ops,
    ));
}

/// Run the repetition; the line to print, or why there is none.
pub fn run(a: &ChildArgs, started: Instant) -> Result<String, String> {
    // A wedged world must not wedge the benchmark: this thread ends
    // the process if the repetition overruns, and is joined if not.
    let budget = a.warmup + a.measure + PROBE * 24 + Duration::from_secs(60);
    let (done, overrun) = sync_channel::<()>(1);
    let watchdog = std::thread::Builder::new()
        .name("bench-watchdog".into())
        .spawn(move || {
            if overrun.recv_timeout(budget) == Err(RecvTimeoutError::Timeout) {
                eprintln!("tdpbench child: no result after {budget:?}, giving up");
                std::process::exit(3);
            }
        })
        .map_err(|e| format!("spawn watchdog: {e}"))?;

    let mut driver = workloads::build(a.workload, a.seed, a.traced, started)?;
    let mut t = Tracer::new(a.traced, 0, started);
    let clock = a
        .workload
        .clock()
        .map_err(|e| format!("start reference thread: {e}"))?;
    let setup = Duration::from_nanos(wall_ns().saturating_sub(a.spawned_at_ns) as u64);
    let setup_scale = clock.scale();

    let mut next_op = 0u64;
    let mut rss = Rss {
        at_ops: a.workload.rss_checkpoint_ops(),
        mb: None,
    };
    let warm = checked_window(
        driver.as_mut(),
        &mut t,
        &mut next_op,
        a.warmup,
        &clock,
        &mut rss,
    );
    t.reset();

    let before = (procfs::sample(), sys::alloc_counts());
    sys::counting(a.traced);
    let mut w = checked_window(
        driver.as_mut(),
        &mut t,
        &mut next_op,
        a.measure,
        &clock,
        &mut rss,
    );
    sys::counting(false);
    let after = (procfs::sample(), sys::alloc_counts());
    // Warm-up ops are not measured, but a wrong answer there is still
    // a wrong answer.
    w.failed += warm.failed;
    w.first_error = w.first_error.or(warm.first_error);

    let tail = a.workload.tail();
    let mut layers = Layers::new();
    if a.traced {
        window_counters(before, after, &w, &mut layers);
        probes::wire_census(&mut layers);
        driver.layers(&t, &clock, PROBE, &mut layers)?;
        let accounted: f64 = a
            .workload
            .shares(&|name| probes::layer(&layers, name))
            .iter()
            .map(|(_, us)| us)
            .sum();
        layers.push(("trace.unaccounted_us", w.hist.p50_us() - accounted));
    }
    let tool_tracer = driver.shutdown();
    if let Some(path) = &a.trace_out {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        let mut file = std::io::BufWriter::new(file);
        t.write(&mut file)
            .and_then(|()| tool_tracer.map_or(Ok(()), |tt| tt.write(&mut file)))
            .and_then(|()| std::io::Write::flush(&mut file))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    let mut line = Obj::new()
        .str("workload", a.workload.name())
        .int("seed", a.seed)
        .int("rep", a.rep)
        .bool("traced", a.traced)
        .str("input_hash", driver.input_hash())
        .int("attempted", w.ok + w.failed)
        .int("failed", w.failed)
        .num("window_s", w.elapsed_s)
        .num("clock_scale", w.scale)
        .num("ops_per_s", w.ok as f64 / w.elapsed_s)
        .int("n_samples", w.hist.len())
        .num("lat_p50_us", w.hist.p50_us())
        .num("lat_tail_us", w.hist.percentile(tail.share()) / 1e3)
        .num("lat_p99_us", w.hist.percentile(0.99) / 1e3)
        .num("lat_p999_us", w.hist.percentile(0.999) / 1e3)
        .bool("tail_supported", tail.supported(w.hist.len()))
        .num("rss_peak_mb", rss.mb.unwrap_or_else(procfs::vm_hwm_mb))
        .bool("rss_at_checkpoint", rss.mb.is_some())
        .num("setup_s", setup.as_secs_f64() * setup_scale)
        .str("error", w.first_error.as_deref().unwrap_or(""));
    for (name, v) in &layers {
        line = line.num(name, *v);
    }
    drop(done);
    watchdog
        .join()
        .map_err(|_| "watchdog panicked".to_string())?;
    Ok(line.finish())
}
