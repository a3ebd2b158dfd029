//! `vamp` — a Vampir-style event tracer.
//!
//! §2.2's scheme-1 tool: "Create the application process and start it
//! running … tools such as Vampir and PCL use this technique", and
//! crucially "the Vampir trace tool requires the tracing to be started
//! before the application starts execution" — it cannot attach to a
//! running process.
//!
//! Our vamp therefore *requires* the application to still be in the
//! `Created` (paused-at-exec) state when it attaches; handed a running
//! pid, it refuses, exactly like the real tool's limitation (§2.2's
//! note that "not all tools have the ability to use this attach
//! technique"). It samples all probes on a fixed cadence and writes a
//! time-ordered event log `<daemon>.vamp` of per-interval call deltas.

use std::time::Duration;
use tdp_core::{Role, TdpHandle, World};
use tdp_proto::{names, ContextId, Pid, ProcStatus, TdpError, TdpResult};
use tdp_simos::{fn_program, ExecImage, ProcCtx};

/// Build the vamp executable image.
///
/// argv: `-c<ctx>` TDP context; `-i<ms>` sampling interval
/// (default 5 ms).
pub fn vamp_image(world: World) -> ExecImage {
    ExecImage::from_fn(move |argv| {
        let world = world.clone();
        let ctx = argv
            .iter()
            .find_map(|a| a.strip_prefix("-c").and_then(|v| v.parse().ok()))
            .map(ContextId)
            .unwrap_or(ContextId::DEFAULT);
        let interval = argv
            .iter()
            .find_map(|a| a.strip_prefix("-i").and_then(|v| v.parse().ok()))
            .map(Duration::from_millis)
            .unwrap_or(Duration::from_millis(5));
        fn_program(move |pctx| match vamp_main(&world, pctx, ctx, interval) {
            Ok(()) => 0,
            Err(e) => {
                pctx.write_stderr(format!("vamp: {e}\n").as_bytes());
                1
            }
        })
    })
}

fn vamp_main(
    world: &World,
    pctx: &mut ProcCtx,
    ctx: ContextId,
    interval: Duration,
) -> TdpResult<()> {
    let name = format!("vamp{}", pctx.pid());
    let mut tdp = TdpHandle::init(world, pctx.host(), ctx, &name, Role::Tool)?;
    let pid = Pid::parse(&tdp.get(names::PID)?)
        .ok_or_else(|| TdpError::Protocol("bad pid attribute".into()))?;

    // The Vampir limitation: tracing must begin before execution.
    let status = world.os().status(pid)?;
    if status != ProcStatus::Created {
        return Err(TdpError::WrongProcessState {
            pid,
            state: format!("{status:?}"),
            wanted: "Created (vamp cannot attach to a started process)".to_string(),
        });
    }

    tdp.attach(pid)?;
    for sym in tdp.symbols(pid)? {
        tdp.arm_probe(pid, &sym)?;
    }
    tdp.put(names::TOOL_READY, "1")?;
    tdp.continue_process(pid)?;

    // The trace: one line per interval per symbol with activity.
    let mut log = String::new();
    let mut tick: u64 = 0;
    let mut last: std::collections::HashMap<String, u64> = Default::default();
    loop {
        // Sampling is periodic, the application's exit is an event: the
        // wait returns at once when it terminates, so the last tick is
        // a short one. The checkpoint is vamp's own pause/kill gate.
        pctx.checkpoint();
        let exited = match tdp.wait_terminal(pid, interval) {
            Err(TdpError::Timeout) => None,
            status => Some(status?),
        };
        tick += 1;
        let snap = tdp.read_probes(pid)?;
        let mut syms: Vec<&String> = snap.counts.keys().collect();
        syms.sort();
        for sym in syms {
            let count = snap.counts[sym];
            let prev = last.get(sym.as_str()).copied().unwrap_or(0);
            if count > prev {
                log.push_str(&format!("t={tick} {sym} +{}\n", count - prev));
                last.insert(sym.clone(), count);
            }
        }
        if let Some(st) = exited {
            log.push_str(&format!("t={tick} END {}\n", st.to_attr_value()));
            break;
        }
    }
    world
        .os()
        .fs()
        .write_file(pctx.host(), &format!("{name}.vamp"), log.as_bytes());
    tdp.exit()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tdp_core::TdpCreate;

    fn slow_app() -> ExecImage {
        ExecImage::new(
            ["main", "tick"],
            Arc::new(|_| {
                fn_program(|ctx| {
                    ctx.call("main", |ctx| {
                        for _ in 0..10 {
                            ctx.call("tick", |ctx| {
                                ctx.compute(1);
                                ctx.sleep(Duration::from_millis(8));
                            });
                        }
                    });
                    0
                })
            }),
        )
    }

    #[test]
    fn traces_created_process_over_time() {
        let world = World::new();
        let host = world.add_host();
        world.os().fs().install_exec(host, "/bin/app", slow_app());
        world
            .os()
            .fs()
            .install_exec(host, "vamp", vamp_image(world.clone()));
        let mut rm =
            TdpHandle::init(&world, host, ContextId(1), "rm", Role::ResourceManager).unwrap();
        let app = rm
            .create_process(TdpCreate::new("/bin/app").paused())
            .unwrap();
        let tool = rm
            .create_process(TdpCreate::new("vamp").args(["-c1", "-i4"]))
            .unwrap();
        rm.put(names::PID, &app.to_string()).unwrap();
        assert_eq!(
            world
                .os()
                .wait_terminal(tool, Duration::from_secs(10))
                .unwrap(),
            ProcStatus::Exited(0)
        );
        let trace = String::from_utf8(
            world
                .os()
                .fs()
                .read_file(host, &format!("vamp{tool}.vamp"))
                .unwrap(),
        )
        .unwrap();
        // Time-ordered tick deltas, ending with the exit marker.
        assert!(trace.contains("tick +"), "{trace}");
        assert!(trace.trim_end().ends_with("END exited:0"), "{trace}");
        // Activity spread over more than one interval (a real
        // time-series, not one final dump).
        let ticks: std::collections::HashSet<&str> = trace
            .lines()
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert!(
            ticks.len() > 2,
            "expected multiple sample intervals: {trace}"
        );
    }

    #[test]
    fn refuses_running_process() {
        // The scheme-1 limitation: vamp must see the app before it runs.
        let world = World::new();
        let host = world.add_host();
        world.os().fs().install_exec(host, "/bin/app", slow_app());
        world
            .os()
            .fs()
            .install_exec(host, "vamp", vamp_image(world.clone()));
        let mut rm =
            TdpHandle::init(&world, host, ContextId(1), "rm", Role::ResourceManager).unwrap();
        let app = rm.create_process(TdpCreate::new("/bin/app")).unwrap(); // running!
        let tool = rm
            .create_process(TdpCreate::new("vamp").args(["-c1"]))
            .unwrap();
        rm.put(names::PID, &app.to_string()).unwrap();
        assert_eq!(
            world
                .os()
                .wait_terminal(tool, Duration::from_secs(10))
                .unwrap(),
            ProcStatus::Exited(1),
            "vamp must refuse an already-running application"
        );
        let err = String::from_utf8(world.os().read_stderr(tool).unwrap()).unwrap();
        assert!(err.contains("vamp cannot attach"), "{err}");
        rm.kill_process(app, 9).unwrap();
    }
}
