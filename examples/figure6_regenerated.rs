//! Regenerate **Figure 6** of the paper ("TDP Function Calls from the
//! Condor and Paradyn Sides") as a live sequence diagram: run the real
//! Parador pipeline and render the recorded TDP calls on the starter's
//! lifeline, then on paradynd's.
//!
//! ```text
//! cargo run --example figure6_regenerated
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};
use tdp::condor::{CondorPool, JobState};
use tdp::core::World;
use tdp::paradyn::{paradynd_image, ParadynFrontend};
use tdp::simos::{fn_program, ExecImage};

const T: Duration = Duration::from_secs(30);

fn main() {
    let world = World::new();
    let pool = CondorPool::build(&world, 1).unwrap();
    pool.install_everywhere(
        "/bin/app",
        ExecImage::new(
            ["main", "work"],
            Arc::new(|_| {
                fn_program(|ctx| {
                    ctx.call("main", |ctx| ctx.call("work", |ctx| ctx.compute(10)));
                    0
                })
            }),
        ),
    );
    for h in pool.exec_hosts() {
        world
            .os()
            .fs()
            .install_exec(*h, "paradynd", paradynd_image(world.clone()));
    }
    let fe = ParadynFrontend::start(world.net(), pool.submit_host(), 2090, 2091).unwrap();
    let submit = format!(
        "executable = /bin/app\n+SuspendJobAtExec = True\n+ToolDaemonCmd = \"paradynd\"\n+ToolDaemonArgs = \"-m{} -p{} -P{} -a%pid\"\nqueue\n",
        fe.host().0,
        fe.control_addr().port.0,
        fe.data_addr().port.0,
    );
    let job = pool.submit_str(&submit).unwrap();
    fe.wait_for_daemons(1, T).unwrap();
    fe.run_all().unwrap();
    assert!(matches!(
        pool.wait_job(job, T).unwrap(),
        JobState::Completed(_)
    ));

    // The starter and paradynd record their `tdp_exit()` after the job
    // is reported done; wait for both so every run prints the same
    // lifelines.
    let exits = || {
        let events = world.trace().events();
        events.iter().filter(|e| e.call == "tdp_exit()").count()
    };
    let deadline = Instant::now() + T;
    while exits() < 2 {
        assert!(Instant::now() < deadline, "a tdp_exit() never came");
        std::thread::park_timeout(Duration::from_millis(1));
    }

    // One lifeline at a time: each side's calls come in a fixed order,
    // while how the two sides interleave is up to the scheduler.
    println!("Figure 6, regenerated from the live run:\n");
    for actor in ["starter", "paradynd*"] {
        println!("{}", world.trace().render_sequence(&[actor]));
    }
    println!("(compare with the paper: starter tdp_init → create(AP, paused) →");
    println!(" create(paradynd) → put(pid); paradynd tdp_init → get(pid) →");
    println!(" tdp_attach → tdp_continue_process.)");
}
