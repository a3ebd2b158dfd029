//! The `tdp-gateway` binary.
//!
//! * `tdp-gateway serve [--addr A] [--hosts N] [--duration-secs S]
//!   [--key KEY=pat,pat...]` — boot a world (N hosts, LASS on the
//!   gateway host, stock daemon image installed everywhere), start the
//!   gateway, print the bound address, and serve. Without
//!   `--duration-secs` it serves until killed.
//! * `tdp-gateway smoke` — self-contained smoke run: serve on an
//!   ephemeral port, spawn + invoke + kill over real HTTP from inside
//!   the process, print a trace, exit 0 on success. This is the CI
//!   `gateway_smoke` step.

use std::time::{Duration, Instant};

use tdp_core::World;
use tdp_gateway::{install_daemon_image, Gateway, GatewayConfig, HttpRpcClient, Json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("smoke") => smoke(),
        _ => {
            eprintln!(
                "usage: tdp-gateway serve [--addr A] [--hosts N] [--duration-secs S] [--key K=pat,pat...]\n       tdp-gateway smoke"
            );
            2
        }
    };
    std::process::exit(code);
}

struct ServeOpts {
    addr: String,
    hosts: u64,
    duration: Option<Duration>,
    keys: Vec<(String, Vec<String>)>,
}

fn parse_opts(args: &[String]) -> Result<ServeOpts, String> {
    let mut opts = ServeOpts {
        addr: "127.0.0.1:7780".to_string(),
        hosts: 3,
        duration: None,
        keys: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--addr" => opts.addr = value()?,
            "--hosts" => {
                opts.hosts = value()?.parse().map_err(|e| format!("--hosts: {e}"))?;
            }
            "--duration-secs" => {
                let s: u64 = value()?
                    .parse()
                    .map_err(|e| format!("--duration-secs: {e}"))?;
                opts.duration = Some(Duration::from_secs(s));
            }
            "--key" => {
                let spec = value()?;
                let (key, pats) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--key wants KEY=pat,pat — got {spec}"))?;
                opts.keys.push((
                    key.to_string(),
                    pats.split(',').map(str::to_string).collect(),
                ));
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.hosts == 0 {
        return Err("--hosts must be at least 1".to_string());
    }
    Ok(opts)
}

/// Boot a world and serve it.
fn serve(args: &[String]) -> i32 {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tdp-gateway: {e}");
            return 2;
        }
    };
    let world = World::new();
    let gw_host = world.add_host();
    install_daemon_image(&world, gw_host, "/bin/rtd");
    for _ in 1..opts.hosts {
        let h = world.add_host();
        install_daemon_image(&world, h, "/bin/rtd");
    }
    let cfg = GatewayConfig {
        addr: opts.addr.clone(),
        ..GatewayConfig::default()
    };
    let gw = match Gateway::start(&world, gw_host, cfg) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("tdp-gateway: {e}");
            return 1;
        }
    };
    for (key, pats) in &opts.keys {
        let pats: Vec<&str> = pats.iter().map(String::as_str).collect();
        gw.core().keys().grant(key.clone(), &pats);
    }
    println!(
        "tdp-gateway serving on http://{} ({} hosts, {} bridge sessions, {})",
        gw.addr(),
        opts.hosts,
        gw.core().bridge().pool_size(),
        if gw.core().keys().is_empty() {
            "open".to_string()
        } else {
            format!("{} api keys", gw.core().keys().len())
        }
    );
    println!("try: curl -s http://{}/health", gw.addr());
    match opts.duration {
        Some(d) => std::thread::sleep(d),
        // Serve until killed: the gateway's own threads do the work.
        None => loop {
            std::thread::park();
        },
    }
    0
}

/// Serve + invoke + kill over real HTTP, tracing each hop. CI runs
/// this under a deadline; keep it comfortably inside five seconds.
fn smoke() -> i32 {
    let t0 = Instant::now();
    let stamp = |what: &str| println!("[{:>6.1?}] {what}", t0.elapsed());

    let world = World::new();
    let gw_host = world.add_host();
    install_daemon_image(&world, gw_host, "/bin/rtd");
    let mut gw = match Gateway::start(&world, gw_host, GatewayConfig::default()) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("tdp-gateway smoke: start: {e}");
            return 1;
        }
    };
    stamp(&format!("serve    http://{}", gw.addr()));

    let run = || -> Result<(), tdp_gateway::RpcError> {
        let mut client = HttpRpcClient::connect(gw.addr())
            .map_err(|e| tdp_gateway::RpcError::new(-1, format!("connect: {e}")))?;
        let r = client.invoke("echo", Json::obj([("ping", Json::from(true))]))?;
        stamp(&format!("invoke   echo -> {}", r.render()));
        let r = client.call(
            "proc.spawn",
            Json::obj([
                ("name", Json::from("rt-smoke")),
                ("host", Json::from(gw_host.0)),
                ("executable", Json::from("/bin/rtd")),
            ]),
        )?;
        stamp(&format!("spawn    rt-smoke -> {}", r.render()));
        let r = client.call("proc.list", Json::Obj(Vec::new()))?;
        stamp(&format!("list     -> {}", r.render()));
        let r = client.call("proc.kill", Json::obj([("name", Json::from("rt-smoke"))]))?;
        stamp(&format!("kill     -> {}", r.render()));
        Ok(())
    };
    let result = run();
    gw.shutdown();
    match result {
        Ok(()) => {
            stamp("smoke OK");
            0
        }
        Err(e) => {
            eprintln!("tdp-gateway smoke: {e}");
            1
        }
    }
}
