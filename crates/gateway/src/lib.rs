//! # tdp-gateway — a tool-registry gateway daemon fronting live TDP worlds
//!
//! The dæmon protocol of the paper keeps tools *inside* the world:
//! every party speaks TDP sessions against LASS/CASS attribute spaces.
//! This crate puts a front door on that world for everything that does
//! not speak TDP — dashboards, scripts, `curl` — as a JSON-RPC 2.0
//! service over HTTP/1.1:
//!
//! * **tool registry** ([`registry`], [`tools`]): named capabilities
//!   (`echo`, `attr.keys`, `world.health`, plus runtime-registered
//!   aliases) invoked via `tool.invoke`;
//! * **attribute bridge** ([`bridge`]): all HTTP clients multiplex onto
//!   a fixed pool of reliable TDP sessions — the paper's m+n economy
//!   applied at the gateway boundary, with reconnect-and-replay
//!   underneath so daemon restarts stay invisible;
//! * **process control** ([`procs`]): spawn / list / kill named RT
//!   daemons, with supervised daemons handed to the `tdp-ops`
//!   [`Supervisor`](tdp_ops::Supervisor) for auto-restart;
//! * **auth** ([`auth`]): per-client API keys carrying tool allowlists
//!   (exact names or single-`*` globs);
//! * **transport** ([`http`]): a hand-rolled HTTP/1.1 server on
//!   `tdp_sync::serve`, like every other daemon: each connection is read
//!   by a session thread of its own — no new dependencies.
//!
//! The assembled daemon is [`Gateway`]; the transport-free dispatch
//! core is [`GatewayCore`] (what unit tests drive). [`HttpRpcClient`]
//! is the matching minimal client.
//!
//! ```
//! use tdp_core::World;
//! use tdp_gateway::{Gateway, GatewayConfig, HttpRpcClient, Json};
//!
//! let world = World::new();
//! let host = world.add_host();
//! let mut gw = Gateway::start(&world, host, GatewayConfig {
//!     supervise: false,
//!     ..GatewayConfig::default()
//! }).unwrap();
//! let mut client = HttpRpcClient::connect(gw.addr()).unwrap();
//! let r = client.invoke("echo", Json::obj([("hello", Json::from("world"))])).unwrap();
//! assert_eq!(r.get("params").unwrap().str_field("hello"), Some("world"));
//! gw.shutdown();
//! ```

pub mod auth;
pub mod bridge;
pub mod client;
pub mod http;
pub mod procs;
pub mod registry;
pub mod rpc;
pub mod server;
pub mod tools;

pub use auth::ApiKeys;
pub use bridge::AttrBridge;
pub use client::HttpRpcClient;
pub use http::{HttpRequest, HttpResponse, HttpServer};
pub use procs::{install_daemon_image, DaemonInfo, ProcManager};
pub use registry::{AliasTool, FnTool, Tool, ToolRegistry};
pub use rpc::{RpcError, RpcRequest};
pub use server::{Gateway, GatewayConfig, GatewayCore};
/// The document value and its text codec live in `tdp-proto` (one JSON
/// parser and writer for the workspace).
pub use tdp_proto::json::{self, Json, JsonError};
