//! Smoke test of the real binary: `--quick` (1 repetition × 0.5 s per
//! workload, traced pass skipped) runs every workload end to end, on a
//! debug build too, and exits 0 with every output checked.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_tdpbench");

#[test]
fn quick_mode_runs_every_workload_and_checks_every_output() {
    let out = Command::new(BIN)
        .args(["--quick", "--seed", "3"])
        .output()
        .expect("run tdpbench --quick");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "exit {}:\n{stdout}", out.status);
    for w in [
        "attr_epoll",
        "attr_netsim",
        "handoff_epoll",
        "gateway_http",
        "parador_job",
    ] {
        let line = stdout
            .lines()
            .find(|l| l.starts_with('{') && l.contains(&format!("\"workload\":\"{w}\"")))
            .unwrap_or_else(|| panic!("no result line for {w}:\n{stdout}"));
        assert!(line.contains("\"correct\":true"), "{line}");
        assert!(line.contains("\"failed\":0"), "{line}");
        for metric in [
            "ops_per_s",
            "lat_p50_us",
            "lat_tail_us",
            "rss_peak_mb",
            "setup_s",
        ] {
            assert!(
                line.contains(&format!("\"{metric}\":{{\"value\":")),
                "{w} lacks {metric}"
            );
        }
    }
    let hash_of = |w: &str| {
        let line = stdout
            .lines()
            .find(|l| l.starts_with('{') && l.contains(&format!("\"workload\":\"{w}\"")))
            .unwrap();
        line.split("\"input_hash\":\"").nth(1).unwrap()[..16].to_string()
    };
    assert_eq!(
        hash_of("attr_epoll"),
        hash_of("attr_netsim"),
        "the two attr workloads replay one op stream"
    );
}

#[test]
fn a_measured_run_refuses_a_debug_build_and_bad_arguments_are_errors() {
    let run = |args: &[&str]| Command::new(BIN).args(args).output().expect("run tdpbench");
    if cfg!(debug_assertions) {
        let out = run(&[
            "--workload",
            "attr_netsim",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ]);
        assert_eq!(out.status.code(), Some(2));
        assert!(String::from_utf8_lossy(&out.stderr).contains("debug build"));
        assert!(out.stdout.is_empty(), "no result line from a refused run");
    }
    assert_eq!(run(&["--workload", "attr_tcp"]).status.code(), Some(2));
    assert_eq!(run(&["--seconds", "0", "--quick"]).status.code(), Some(2));
    assert_eq!(run(&["--frobnicate"]).status.code(), Some(2));
}
