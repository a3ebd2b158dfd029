//! `/proc` samplers: what the kernel charged the process for a window
//! of ops, and the host facts printed beside every result.

use std::fs;

/// Linux reports utime/stime in USER_HZ ticks, which is 100 on every
/// architecture this runs on.
const TICKS_PER_S: f64 = 100.0;

fn status_kb(status: &str, field: &str) -> Option<f64> {
    let rest = status.lines().find_map(|l| l.strip_prefix(field))?;
    rest.trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn vm_hwm_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_kb(&s, "VmHWM"))
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative per-process counters at one instant.
#[derive(Clone, Copy, Default, Debug)]
pub struct ProcSample {
    pub user_us: f64,
    pub sys_us: f64,
    pub minflt: f64,
    pub vol_ctxsw: f64,
    pub invol_ctxsw: f64,
    pub threads: f64,
}

fn parse_stat(stat: &str) -> Option<(f64, f64, f64)> {
    // Fields after the parenthesised command name, which may itself
    // contain spaces: state is field 3, minflt 10, utime 14, stime 15.
    let after = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = after.split_whitespace().collect();
    let num = |i: usize| f.get(i)?.parse::<f64>().ok();
    Some((num(7)?, num(11)?, num(12)?))
}

/// Sample the process. Context switches are summed over the threads
/// alive now, so take both ends of a window while the world is up.
pub fn sample() -> ProcSample {
    let mut s = ProcSample::default();
    if let Some((minflt, utime, stime)) = fs::read_to_string("/proc/self/stat")
        .ok()
        .as_deref()
        .and_then(parse_stat)
    {
        s.minflt = minflt;
        s.user_us = utime / TICKS_PER_S * 1e6;
        s.sys_us = stime / TICKS_PER_S * 1e6;
    }
    for task in fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
    {
        let Ok(status) = fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        s.threads += 1.0;
        s.vol_ctxsw += status_kb(&status, "voluntary_ctxt_switches").unwrap_or(0.0);
        s.invol_ctxsw += status_kb(&status, "nonvoluntary_ctxt_switches").unwrap_or(0.0);
    }
    s
}

/// CPUs the host has (not the one we pin to) and its kernel release.
pub fn host_facts() -> (usize, String) {
    let nproc = fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    (nproc, kernel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_the_command_name() {
        let stat = "1234 (bench (x) y) S 1 2 3 4 5 6 777 8 9 10 1500 250 0 0 20 0 3 0";
        assert_eq!(parse_stat(stat), Some((777.0, 1500.0, 250.0)));
    }

    #[test]
    fn parses_status_fields() {
        let status = "Name:\tx\nVmHWM:\t  20480 kB\nvoluntary_ctxt_switches:\t42\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_kb(status, "VmHWM"), Some(20480.0));
        assert_eq!(status_kb(status, "voluntary_ctxt_switches"), Some(42.0));
        assert_eq!(status_kb(status, "nonvoluntary_ctxt_switches"), Some(7.0));
    }

    #[test]
    fn samples_this_process() {
        let s = sample();
        assert!(s.threads >= 1.0);
        assert!(vm_hwm_mb() > 0.1);
        assert!(host_facts().0 >= 1);
    }
}
