//! The gateway itself: dispatch core + assembled daemon.
//!
//! [`GatewayCore`] is the transport-free heart — a method router over
//! the tool registry, the attribute bridge, the process manager, and
//! the keyring. [`Gateway`] wraps a core in the HTTP server and
//! owns the supervision hand-off. Tests drive the core directly;
//! everything external comes in over HTTP.
//!
//! ## Method surface
//!
//! | method           | params                                   | capability      |
//! |------------------|------------------------------------------|-----------------|
//! | `gw.info`        | —                                        | `gw.info`       |
//! | `tool.list`      | —                                        | `tool.list`     |
//! | `tool.invoke`    | `name`, `params?`                        | *the tool name* |
//! | `tool.register`  | `name`, `method`, `description?`, `params?` | `tool.register` |
//! | `tool.unregister`| `name`                                   | `tool.unregister` |
//! | `attr.get`       | `ctx`, `key`, `blocking?`, `timeout_ms?` | `attr.get`      |
//! | `attr.put`       | `ctx`, `key`, `value`                    | `attr.put`      |
//! | `attr.subscribe` | `ctx`, `key`, `only_future?`, `timeout_ms?` | `attr.subscribe` |
//! | `proc.spawn`     | `name`, `host`, `executable`, `args?`, `supervise?` | `proc.spawn` |
//! | `proc.list`      | —                                        | `proc.list`     |
//! | `proc.kill`      | `name`, `sig?`                           | `proc.kill`     |
//! | `proc.crash`     | `name`, `sig?` (fault injection)         | `proc.crash`    |
//!
//! `tool.invoke` is authorised by the *tool's* name so an API key can
//! be scoped to exactly the tools it may run; every other method is
//! authorised by its own name.

use std::sync::Arc;
use std::time::Duration;

use tdp_core::World;
use tdp_ops::{Supervisor, SupervisorConfig};
use tdp_proto::{ContextId, HostId, TdpResult};

use crate::auth::ApiKeys;
use crate::bridge::AttrBridge;
use crate::http::{Handler, HttpRequest, HttpResponse, HttpServer};
use crate::json::Json;
use crate::procs::ProcManager;
use crate::registry::{AliasTool, Tool, ToolRegistry};
use crate::rpc::{self, RpcError, RpcRequest};
use crate::tools::{AttrKeysTool, EchoTool, WorldHealthTool};
use tdp_attrspace::ReconnectPolicy;

/// Ceiling for client-supplied long-poll / blocking-get timeouts, so a
/// client cannot park its session thread for minutes.
const MAX_CLIENT_TIMEOUT: Duration = Duration::from_secs(30);
const DEFAULT_CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// Gateway tuning.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// HTTP bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// TDP sessions in the attribute bridge pool — the `n` every HTTP
    /// client multiplexes onto.
    pub pool_size: usize,
    /// Start an ops supervisor and register supervised daemons with it.
    pub supervise: bool,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            pool_size: 8,
            supervise: true,
        }
    }
}

/// Transport-free gateway state: everything `dispatch` needs.
pub struct GatewayCore {
    world: World,
    gw_host: HostId,
    bridge: AttrBridge,
    registry: ToolRegistry,
    keys: ApiKeys,
    procs: ProcManager,
    supervisor: Option<Arc<Supervisor>>,
}

impl GatewayCore {
    /// Build a core over `world`, bridging from `gw_host` to that
    /// host's LASS (started if absent). Registers the built-in tools.
    pub fn new(world: &World, gw_host: HostId, cfg: &GatewayConfig) -> TdpResult<GatewayCore> {
        let lass = world.ensure_lass(gw_host)?;
        // Bridge sessions must survive daemon restarts: generous cap,
        // bounded total patience (a gateway with a dead world should
        // fail requests, not hang them forever).
        let policy = ReconnectPolicy {
            base: Duration::from_millis(5),
            cap: Duration::from_millis(200),
            max_elapsed: Duration::from_secs(10),
            ..ReconnectPolicy::default()
        };
        let bridge = AttrBridge::connect(world, gw_host, lass, cfg.pool_size, policy)?;
        let supervisor = if cfg.supervise {
            Some(Arc::new(Supervisor::start(
                world,
                gw_host,
                SupervisorConfig::default(),
            )?))
        } else {
            None
        };
        let core = GatewayCore {
            world: world.clone(),
            gw_host,
            bridge,
            registry: ToolRegistry::new(),
            keys: ApiKeys::new(),
            procs: ProcManager::new(world),
            supervisor,
        };
        for tool in [
            Arc::new(EchoTool) as Arc<dyn Tool>,
            Arc::new(AttrKeysTool),
            Arc::new(WorldHealthTool),
        ] {
            core.registry
                .register(tool)
                .map_err(|e| tdp_proto::TdpError::Substrate(e.to_string()))?;
        }
        Ok(core)
    }

    pub fn world(&self) -> &World {
        &self.world
    }

    pub fn gw_host(&self) -> HostId {
        self.gw_host
    }

    pub fn bridge(&self) -> &AttrBridge {
        &self.bridge
    }

    pub fn registry(&self) -> &ToolRegistry {
        &self.registry
    }

    pub fn keys(&self) -> &ApiKeys {
        &self.keys
    }

    pub fn procs(&self) -> &ProcManager {
        &self.procs
    }

    pub fn supervisor(&self) -> Option<&Supervisor> {
        self.supervisor.as_deref()
    }

    // ------------------------------------------------------- dispatch

    /// Full request path: parse, authorise, route, envelope.
    pub fn handle_rpc(&self, body: &str, header_key: Option<&str>) -> Json {
        let req = match rpc::parse_request(body) {
            Ok(r) => r,
            Err(e) => return rpc::response_err(&Json::Null, &e),
        };
        let key = header_key.or(req.api_key.as_deref());
        match self.call(&req, key) {
            Ok(result) => rpc::response_ok(&req.id, result),
            Err(e) => rpc::response_err(&req.id, &e),
        }
    }

    /// Authorise and route one parsed request.
    pub fn call(&self, req: &RpcRequest, key: Option<&str>) -> Result<Json, RpcError> {
        let capability = match req.method.as_str() {
            "tool.invoke" => req
                .params
                .str_field("name")
                .ok_or_else(|| RpcError::invalid_params("tool.invoke needs a name"))?,
            m => m,
        };
        self.keys.check(key, capability)?;
        self.call_unchecked(&req.method, &req.params, 0)
    }

    /// Route with authorisation already decided — the re-entry point
    /// alias tools use (an alias runs with the authority of whoever was
    /// allowed to invoke the alias).
    pub fn call_unchecked(
        &self,
        method: &str,
        params: &Json,
        depth: u32,
    ) -> Result<Json, RpcError> {
        match method {
            "gw.info" => Ok(self.info()),
            "tool.list" => Ok(Json::arr(self.registry.list().into_iter().map(
                |(name, description)| {
                    Json::obj([
                        ("name", Json::from(name)),
                        ("description", Json::from(description)),
                    ])
                },
            ))),
            "tool.invoke" => {
                let name = params
                    .str_field("name")
                    .ok_or_else(|| RpcError::invalid_params("tool.invoke needs a name"))?;
                let tool = self
                    .registry
                    .get(name)
                    .ok_or_else(|| RpcError::invalid_params(format!("no tool named {name}")))?;
                let inner = params
                    .get("params")
                    .cloned()
                    .unwrap_or(Json::Obj(Vec::new()));
                tool.invoke(self, &inner, depth)
            }
            "tool.register" => {
                let name = req_str(params, "name")?;
                let target = req_str(params, "method")?;
                let alias = AliasTool {
                    name: name.to_string(),
                    description: params
                        .str_field("description")
                        .unwrap_or("registered alias")
                        .to_string(),
                    method: target.to_string(),
                    defaults: params
                        .get("params")
                        .cloned()
                        .unwrap_or(Json::Obj(Vec::new())),
                };
                self.registry.register(Arc::new(alias))?;
                Ok(Json::obj([
                    ("registered", Json::from(name)),
                    ("method", Json::from(target)),
                ]))
            }
            "tool.unregister" => {
                let name = req_str(params, "name")?;
                Ok(Json::obj([(
                    "removed",
                    Json::from(self.registry.unregister(name)),
                )]))
            }
            "attr.get" => {
                let (ctx, key) = ctx_key(params)?;
                let timeout = client_timeout(params);
                let blocking = params
                    .get("blocking")
                    .and_then(Json::as_bool)
                    .unwrap_or(false);
                let value = self.bridge.with_client(ctx, |c| {
                    if blocking {
                        c.get_timeout(ctx, &key, timeout)
                    } else {
                        c.try_get(ctx, &key)
                    }
                })?;
                Ok(Json::obj([
                    ("ctx", Json::from(ctx.0)),
                    ("key", Json::from(key)),
                    ("value", Json::from(value)),
                ]))
            }
            "attr.put" => {
                let (ctx, key) = ctx_key(params)?;
                let value = req_str(params, "value")?.to_string();
                self.bridge.with_client(ctx, |c| c.put(ctx, &key, &value))?;
                Ok(Json::obj([("ok", Json::from(true))]))
            }
            "attr.subscribe" => {
                let (ctx, key) = ctx_key(params)?;
                let only_future = params
                    .get("only_future")
                    .and_then(Json::as_bool)
                    .unwrap_or(true);
                let timeout = client_timeout(params);
                let (token, key, value) =
                    self.bridge
                        .subscribe_once(ctx, &key, only_future, timeout)?;
                Ok(Json::obj([
                    ("token", Json::from(token)),
                    ("key", Json::from(key)),
                    ("value", Json::from(value)),
                ]))
            }
            "proc.spawn" => {
                let name = req_str(params, "name")?;
                let host = params
                    .u64_field("host")
                    .and_then(|h| u32::try_from(h).ok())
                    .map(HostId)
                    .ok_or_else(|| RpcError::invalid_params("proc.spawn needs a host"))?;
                let executable = req_str(params, "executable")?;
                let args: Vec<String> = params
                    .get("args")
                    .and_then(Json::as_arr)
                    .map(|a| {
                        a.iter()
                            .filter_map(Json::as_str)
                            .map(str::to_string)
                            .collect()
                    })
                    .unwrap_or_default();
                let supervise = params
                    .get("supervise")
                    .and_then(Json::as_bool)
                    .unwrap_or(true);
                let sup = if supervise { self.supervisor() } else { None };
                let pid = self.procs.spawn(name, host, executable, &args, sup)?;
                Ok(Json::obj([
                    ("name", Json::from(name)),
                    ("pid", Json::from(pid.0)),
                    ("supervised", Json::from(sup.is_some())),
                ]))
            }
            "proc.list" => Ok(Json::arr(self.procs.list().into_iter().map(|d| {
                Json::obj([
                    ("name", Json::from(d.name)),
                    ("pid", Json::from(d.pid.0)),
                    ("host", Json::from(d.host.0)),
                    ("executable", Json::from(d.executable)),
                    ("status", Json::from(d.status.to_attr_value())),
                    ("supervised", Json::from(d.supervised)),
                ])
            }))),
            "proc.kill" => {
                let name = req_str(params, "name")?;
                let sig = params.get("sig").and_then(Json::as_i64).unwrap_or(9) as i32;
                let pid = self.procs.kill(name, sig, self.supervisor())?;
                Ok(Json::obj([
                    ("killed", Json::from(name)),
                    ("pid", Json::from(pid.0)),
                ]))
            }
            "proc.crash" => {
                let name = req_str(params, "name")?;
                let sig = params.get("sig").and_then(Json::as_i64).unwrap_or(9) as i32;
                let pid = self.procs.crash(name, sig)?;
                Ok(Json::obj([
                    ("crashed", Json::from(name)),
                    ("pid", Json::from(pid.0)),
                ]))
            }
            other => Err(RpcError::method_not_found(other)),
        }
    }

    fn info(&self) -> Json {
        Json::obj([
            (
                "transport",
                Json::from(format!("{:?}", self.world.transport_mode())),
            ),
            ("gw_host", Json::from(self.gw_host.0)),
            (
                "hosts",
                Json::arr(self.world.hosts().into_iter().map(|h| Json::from(h.0))),
            ),
            ("bridge_sessions", Json::from(self.bridge.pool_size())),
            ("tools", Json::from(self.registry.len())),
            ("daemons", Json::from(self.procs.len())),
            ("open", Json::from(self.keys.is_empty())),
            ("supervised", Json::from(self.supervisor.is_some())),
        ])
    }
}

fn req_str<'p>(params: &'p Json, field: &str) -> Result<&'p str, RpcError> {
    params
        .str_field(field)
        .ok_or_else(|| RpcError::invalid_params(format!("missing string param {field}")))
}

fn ctx_key(params: &Json) -> Result<(ContextId, String), RpcError> {
    let ctx = ContextId(params.u64_field("ctx").unwrap_or(0));
    let key = req_str(params, "key")?.to_string();
    Ok((ctx, key))
}

fn client_timeout(params: &Json) -> Duration {
    params
        .u64_field("timeout_ms")
        .map(Duration::from_millis)
        .unwrap_or(DEFAULT_CLIENT_TIMEOUT)
        .min(MAX_CLIENT_TIMEOUT)
}

// ---------------------------------------------------------------- HTTP

/// A running gateway daemon: core + HTTP front end.
pub struct Gateway {
    core: Arc<GatewayCore>,
    http: HttpServer,
}

impl Gateway {
    /// Build a core and serve it per `cfg`.
    pub fn start(world: &World, gw_host: HostId, cfg: GatewayConfig) -> TdpResult<Gateway> {
        let core = Arc::new(GatewayCore::new(world, gw_host, &cfg)?);
        let http = HttpServer::bind(&cfg.addr, http_handler(Arc::clone(&core)))
            .map_err(|e| tdp_proto::TdpError::Substrate(format!("gateway bind: {e}")))?;
        Ok(Gateway { core, http })
    }

    /// The bound HTTP address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.http.addr()
    }

    pub fn core(&self) -> &Arc<GatewayCore> {
        &self.core
    }

    /// Open HTTP connections right now (the `m` in m+n).
    pub fn open_connections(&self) -> usize {
        self.http.open_connections()
    }

    /// Stop the HTTP server: close every connection and return once
    /// their sessions have ended.
    pub fn shutdown(&mut self) {
        self.http.shutdown();
    }
}

/// Routing: `POST /rpc` is JSON-RPC, `GET /health` a liveness probe.
fn http_handler(core: Arc<GatewayCore>) -> Handler {
    Arc::new(move |req: &HttpRequest<'_>| match (req.method, req.path) {
        ("POST", "/rpc") | ("POST", "/") => {
            let key = req.header("x-api-key");
            let resp = core.handle_rpc(&req.body_str(), key);
            HttpResponse::json(200, resp.render())
        }
        ("GET", "/health") => HttpResponse::text(200, "ok\n"),
        ("GET", _) => HttpResponse::text(404, "not found\n"),
        _ => HttpResponse::text(405, "method not allowed\n"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> (World, GatewayCore) {
        let world = World::new();
        let host = world.add_host();
        let cfg = GatewayConfig {
            supervise: false,
            pool_size: 2,
            ..GatewayConfig::default()
        };
        let core = GatewayCore::new(&world, host, &cfg).unwrap();
        (world, core)
    }

    fn rpc(core: &GatewayCore, body: &str) -> Json {
        core.handle_rpc(body, None)
    }

    #[test]
    fn info_and_tool_list() {
        let (_world, core) = core();
        let r = rpc(&core, r#"{"id":1,"method":"gw.info"}"#);
        let info = r.get("result").unwrap();
        assert_eq!(info.get("bridge_sessions").unwrap().as_i64(), Some(2));
        assert_eq!(info.get("open").unwrap().as_bool(), Some(true));
        let r = rpc(&core, r#"{"id":2,"method":"tool.list"}"#);
        let names: Vec<&str> = r
            .get("result")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(|t| t.str_field("name"))
            .collect();
        assert_eq!(names, ["attr.keys", "echo", "world.health"]);
    }

    #[test]
    fn attr_roundtrip_over_rpc() {
        let (_world, core) = core();
        let r = rpc(
            &core,
            r#"{"id":1,"method":"attr.put","params":{"ctx":3,"key":"rank","value":"0"}}"#,
        );
        assert!(r.get("error").is_none(), "{}", r.render());
        let r = rpc(
            &core,
            r#"{"id":2,"method":"attr.get","params":{"ctx":3,"key":"rank"}}"#,
        );
        assert_eq!(
            r.get("result").unwrap().str_field("value"),
            Some("0"),
            "{}",
            r.render()
        );
        // Missing key, non-blocking: TDP failure code.
        let r = rpc(
            &core,
            r#"{"id":3,"method":"attr.get","params":{"ctx":3,"key":"absent"}}"#,
        );
        assert_eq!(
            r.get("error").unwrap().get("code").unwrap().as_i64(),
            Some(crate::rpc::codes::TDP_FAILURE)
        );
    }

    #[test]
    fn alias_tools_dispatch_with_merged_params() {
        let (_world, core) = core();
        let r = rpc(
            &core,
            r#"{"id":1,"method":"tool.register","params":{"name":"put-rank","method":"attr.put","params":{"ctx":9,"key":"rank"}}}"#,
        );
        assert!(r.get("error").is_none(), "{}", r.render());
        let r = rpc(
            &core,
            r#"{"id":2,"method":"tool.invoke","params":{"name":"put-rank","params":{"value":"7"}}}"#,
        );
        assert!(r.get("error").is_none(), "{}", r.render());
        let r = rpc(
            &core,
            r#"{"id":3,"method":"attr.get","params":{"ctx":9,"key":"rank"}}"#,
        );
        assert_eq!(r.get("result").unwrap().str_field("value"), Some("7"));
    }

    #[test]
    fn alias_cycles_hit_the_depth_guard() {
        let (_world, core) = core();
        // a invokes b, b invokes a.
        for (name, target) in [("a", "b"), ("b", "a")] {
            let body = format!(
                r#"{{"id":1,"method":"tool.register","params":{{"name":"{name}","method":"tool.invoke","params":{{"name":"{target}"}}}}}}"#
            );
            assert!(rpc(&core, &body).get("error").is_none());
        }
        let r = rpc(
            &core,
            r#"{"id":2,"method":"tool.invoke","params":{"name":"a"}}"#,
        );
        assert_eq!(
            r.get("error").unwrap().get("code").unwrap().as_i64(),
            Some(crate::rpc::codes::TOO_DEEP)
        );
    }

    #[test]
    fn unknown_method_is_32601() {
        let (_world, core) = core();
        let r = rpc(&core, r#"{"id":1,"method":"no.such"}"#);
        assert_eq!(
            r.get("error").unwrap().get("code").unwrap().as_i64(),
            Some(crate::rpc::codes::METHOD_NOT_FOUND)
        );
    }
}
