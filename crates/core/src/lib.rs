//! # tdp-core — the Tool Dæmon Protocol library
//!
//! This crate is the paper's contribution: the library a **resource
//! manager** (RM) and a **run-time tool** (RT) both link so that any
//! TDP-speaking tool runs under any TDP-speaking scheduler — turning the
//! m × n porting problem into m + n (§1).
//!
//! The API mirrors the paper's C interface:
//!
//! | paper                         | here                                   |
//! |-------------------------------|----------------------------------------|
//! | `tdp_init`                    | [`TdpHandle::init`]                    |
//! | `tdp_exit`                    | [`TdpHandle::exit`] (also on drop)     |
//! | `tdp_put` / `tdp_get`         | [`TdpHandle::put`] / [`TdpHandle::get`]|
//! | `tdp_async_put` / `tdp_async_get` | [`TdpHandle::async_put`] / [`TdpHandle::async_get`] |
//! | `tdp_service_event`           | [`TdpHandle::service_events`]          |
//! | `tdp_create_process` (run/paused) | [`TdpHandle::create_process`]      |
//! | `tdp_attach`                  | [`TdpHandle::attach`]                  |
//! | `tdp_continue_process`        | [`TdpHandle::continue_process`]        |
//!
//! plus the services the paper specifies around the core calls:
//!
//! * **single-point process control** (§2.3) — the RT files process
//!   management requests through the attribute space
//!   ([`TdpHandle::request_proc_op`]) and the RM services them
//!   ([`TdpHandle::service_proc_requests`]) and publishes status
//!   ([`TdpHandle::publish_status`]);
//! * **tool communication** (§2.4) — front-end address dissemination and
//!   firewall-aware connection establishment with automatic proxy
//!   fallback ([`TdpHandle::open_tool_channel`]);
//! * **file staging** (§2) — configuration files out, trace files back
//!   ([`TdpHandle::stage_file`]);
//! * an **event trace** ([`trace::Trace`]) recording every TDP call, so
//!   the paper's sequence diagrams (Figures 3 and 6) are reproduced as
//!   machine-checked assertions.
//!
//! Everything runs against the simulated substrates: `tdp-simos`
//! processes and `tdp-netsim` networking, bundled in a [`World`].
//!
//! ```
//! use std::sync::Arc;
//! use tdp_core::{Role, TdpCreate, TdpHandle, World};
//! use tdp_proto::{names, ContextId, Pid};
//! use tdp_simos::{fn_program, ExecImage};
//!
//! // A world with one host and one "binary".
//! let world = World::new();
//! let host = world.add_host();
//! world.os().fs().install_exec(
//!     host,
//!     "/bin/app",
//!     ExecImage::new(["main"], Arc::new(|_| fn_program(|ctx| {
//!         ctx.call("main", |ctx| ctx.compute(10));
//!         0
//!     }))),
//! );
//!
//! // RM side: create paused, publish the pid.
//! let ctx = ContextId::DEFAULT;
//! let mut rm = TdpHandle::init(&world, host, ctx, "rm", Role::ResourceManager).unwrap();
//! let app = rm.create_process(TdpCreate::new("/bin/app").paused()).unwrap();
//! rm.put(names::PID, &app.to_string()).unwrap();
//!
//! // Tool side: blocking get, attach before main, instrument, run.
//! let mut tool = TdpHandle::init(&world, host, ctx, "tool", Role::Tool).unwrap();
//! let pid = Pid::parse(&tool.get(names::PID).unwrap()).unwrap();
//! tool.attach(pid).unwrap();
//! tool.arm_probe(pid, "main").unwrap();
//! tool.continue_process(pid).unwrap();
//! let status = tool.wait_terminal(pid, std::time::Duration::from_secs(5)).unwrap();
//! assert!(status.is_terminal());
//! assert_eq!(tool.read_probes(pid).unwrap().counts["main"], 1);
//! ```

pub mod handle;
pub mod ops;
pub mod trace;
pub mod world;

pub use handle::{Role, TdpCreate, TdpHandle, Token};
pub use ops::{CassComponent, LassComponent, Supervisable};
pub use trace::{Call, Trace, TraceEvent};
pub use world::{TransportMode, World};

/// The well-known port each host's LASS listens on.
pub const LASS_PORT: u16 = 7777;
/// The well-known port the front-end's CASS listens on.
pub const CASS_PORT: u16 = 7778;
