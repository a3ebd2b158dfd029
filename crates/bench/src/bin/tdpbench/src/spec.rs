//! Metric names, units and bounds — the Rust side of `BENCHMARK.json`
//! (a test holds the two together).

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the median by which the metric may worsen before a
    /// change is a regression; also the spread beyond which a set of
    /// repetitions is flagged `unstable`.
    pub bound: f64,
}

/// Every workload reports all of these, each the median over the
/// repetitions. `fail_ratio`, the sixth thing every workload reports,
/// is in [`PER_LAYER`]: the contract wants end-to-end metrics that are
/// never 0, and a passing run's `fail_ratio` always is. It may not
/// rise at all — any failed op makes the run incorrect.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        higher_is_better: true,
        bound: 0.15,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "lat_tail_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// (name, unit). A metric a workload's path does not touch reads 0 on
/// that workload.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("fail_ratio", "ratio"),
    ("lat.p99_us", "us"),
    ("lat.p999_us", "us"),
    ("host.clock_scale", "ratio"),
    ("core.put_us", "us"),
    ("core.get_hit_us", "us"),
    ("core.get_blocked_us", "us"),
    ("core.remove_us", "us"),
    ("core.self_us", "us"),
    ("core.create_attach_continue_us", "us"),
    ("attrspace.client_rtt_us", "us"),
    ("attrspace.space_put_ns", "ns"),
    ("attrspace.space_get_ns", "ns"),
    ("attrspace.space_wake_ns", "ns"),
    ("proto.encode_ns", "ns"),
    ("proto.decode_ns", "ns"),
    ("proto.frame_bytes", "B"),
    ("wire.epoll_rtt_us", "us"),
    ("wire.sim_rtt_us", "us"),
    ("wire.self_us", "us"),
    ("wire.threads", "count"),
    ("wire.stall_kills", "count"),
    ("netsim.conn_rtt_us", "us"),
    ("gateway.echo_us", "us"),
    ("gateway.attr_put_us", "us"),
    ("gateway.attr_get_us", "us"),
    ("gateway.rpc_echo_us", "us"),
    ("gateway.rpc_attr_put_us", "us"),
    ("gateway.http_self_us", "us"),
    ("gateway.json_parse_ns", "ns"),
    ("gateway.json_render_ns", "ns"),
    ("condor.submit_to_running_us", "us"),
    ("condor.running_to_completed_us", "us"),
    ("condor.job_plain_us", "us"),
    ("paradyn.first_sample_us", "us"),
    ("simos.create_exit_us", "us"),
    ("proc.cpu_user_us_per_op", "us"),
    ("proc.cpu_sys_us_per_op", "us"),
    ("proc.vol_ctxsw_per_op", "count"),
    ("proc.invol_ctxsw_per_op", "count"),
    ("proc.minflt_per_kop", "count"),
    ("proc.threads", "count"),
    ("alloc.count_per_op", "count"),
    ("alloc.bytes_per_op", "B"),
    ("alloc.live_growth_bytes_per_op", "B"),
    ("trace.unaccounted_us", "us"),
    ("trace.overhead_ratio", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    /// `BENCHMARK.json` is written by hand too; hold it to the tables
    /// above without a JSON dependency.
    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let names: Vec<&str> = text
            .split("\"name\":")
            .skip(1)
            .filter_map(|rest| rest.split('"').nth(1))
            .collect();
        let mut want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        want.extend(END_TO_END.iter().map(|m| m.name));
        want.extend(PER_LAYER.iter().map(|m| m.0));
        assert_eq!(names, want);
        for m in &END_TO_END {
            let entry = format!(
                r#"{{"name": "{}", "unit": "{}", "better": "{}", "bound": {}}}"#,
                m.name,
                m.unit,
                if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
                m.bound
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit) in &PER_LAYER {
            assert!(
                text.contains(&format!(r#"{{"name": "{name}", "unit": "{unit}","#)),
                "BENCHMARK.json lacks {name} [{unit}]"
            );
        }
    }

    #[test]
    fn names_and_units_fit_the_contract_grammar() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().copied());
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in all {
            assert!(ok(name, "_.-", 64), "{name}");
            assert!(ok(unit, "_/%.-", 16), "{unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
