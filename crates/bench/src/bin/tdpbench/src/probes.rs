//! Layer probes: short loops that replay a workload's own generated
//! messages directly against one lower layer's public API, so the
//! traced pass can say how much of an op each layer accounts for
//! without instrumenting any file outside this directory.

use crate::clock::Clock;
use crate::hist::Hist;
use bytes::BytesMut;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tdp_attrspace::Space;
use tdp_netsim::Network;
use tdp_proto::{
    encode_frame_into, Addr, ContextId, DecodeScratch, FrameDecoder, HostId, Message, Reply,
};
use tdp_wire::{Endpoint, EpollTransport, SimTransport, Transport};

/// Per-layer results: metric name → value, in the metric's unit.
pub type Layers = Vec<(&'static str, f64)>;

pub const CTX: ContextId = ContextId(1);

/// The value recorded under `name`, 0 if the layer was not probed.
pub fn layer(layers: &Layers, name: &str) -> f64 {
    layers
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// One op as it crosses the wire: the request frame and its reply.
pub struct Exchange {
    pub request: Message,
    pub reply: Message,
}

pub fn put_exchange(key: &str, value: &str) -> Exchange {
    Exchange {
        request: Message::Put {
            ctx: CTX,
            key: key.into(),
            value: value.into(),
        },
        reply: Message::Reply(Reply::Ok),
    }
}

pub fn get_exchange(key: &str, value: &str) -> Exchange {
    Exchange {
        request: Message::Get {
            ctx: CTX,
            key: key.into(),
            blocking: true,
        },
        reply: Message::Reply(Reply::Value {
            key: key.into(),
            value: value.into(),
        }),
    }
}

/// Run `f(i)` in timed batches of `batch` calls until `dur` has passed;
/// the median batch, per call, in ns on `clock`. Batching keeps the two
/// clock reads (~25 ns each) out of calls that are themselves ~100 ns.
pub fn per_call_ns(clock: &Clock, dur: Duration, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut hist = Hist::new();
    let before = clock.scale();
    let deadline = Instant::now() + dur;
    let mut i = 0usize;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f(i);
            i += 1;
        }
        let t1 = Instant::now();
        hist.record((t1 - t0).as_nanos() as u64);
        if t1 >= deadline {
            let scale = (before + clock.scale()) / 2.0;
            return hist.percentile(0.5) / batch as f64 * scale;
        }
    }
}

/// `attrspace.space_{put,get,wake}_ns`: the pure state machine under
/// the workload's keys and values — no thread, socket or frame.
pub fn space(clock: &Clock, exchanges: &[Exchange], dur: Duration, out: &mut Layers) {
    let mut puts: Vec<(&str, &str)> = Vec::new();
    let mut gets: Vec<&str> = Vec::new();
    for x in exchanges {
        match &x.request {
            Message::Put { key, value, .. } => puts.push((key, value)),
            Message::Get { key, .. } => gets.push(key),
            _ => {}
        }
    }
    let mut space = Space::new();
    let (writer, waiter) = (1, 2);
    space.join(writer, CTX);
    space.join(waiter, CTX);
    for key in &gets {
        space.put(writer, CTX, key, "preload");
    }
    if !puts.is_empty() {
        let ns = per_call_ns(clock, dur, 64, |i| {
            let (k, v) = puts[i % puts.len()];
            black_box(space.put(writer, CTX, k, v));
        });
        out.push(("attrspace.space_put_ns", ns));
        // A blocked get, the put that wakes it (two `Out`s: the
        // writer's Ok and the waiter's Value) and the remove that
        // frees the key, so the next get of it parks again.
        let wake_keys: Vec<String> = (0..16).map(|i| format!("wake.{i}")).collect();
        let ns = per_call_ns(clock, dur, 16, |i| {
            let k = &wake_keys[i % wake_keys.len()];
            let parked = space.get(waiter, CTX, k, true);
            let woken = space.put(writer, CTX, k, puts[i % puts.len()].1);
            black_box((parked.len(), woken.len()));
            space.remove(writer, CTX, k);
        });
        out.push(("attrspace.space_wake_ns", ns));
    }
    if !gets.is_empty() {
        let ns = per_call_ns(clock, dur, 64, |i| {
            black_box(space.get(waiter, CTX, gets[i % gets.len()], true));
        });
        out.push(("attrspace.space_get_ns", ns));
    }
}

/// `proto.{encode_ns,decode_ns,frame_bytes}`: the codec on the
/// workload's own request and reply messages, per message.
pub fn proto(clock: &Clock, exchanges: &[Exchange], dur: Duration, out: &mut Layers) {
    let msgs: Vec<&Message> = exchanges
        .iter()
        .flat_map(|x| [&x.request, &x.reply])
        .collect();
    let mut buf = BytesMut::with_capacity(16 * 1024);
    let frames: Vec<Vec<u8>> = msgs
        .iter()
        .map(|m| {
            encode_frame_into(m, &mut buf);
            buf.to_vec()
        })
        .collect();
    let bytes: usize = frames.iter().map(Vec::len).sum();
    out.push(("proto.frame_bytes", bytes as f64 / frames.len() as f64));
    let encode = per_call_ns(clock, dur, 64, |i| {
        encode_frame_into(msgs[i % msgs.len()], &mut buf);
        black_box(buf.len());
    });
    out.push(("proto.encode_ns", encode));
    let mut decoder = FrameDecoder::new();
    let mut scratch = DecodeScratch::new();
    let decode = per_call_ns(clock, dur, 64, |i| {
        decoder.feed(&frames[i % frames.len()]);
        match decoder.next_with(&mut scratch) {
            Ok(Some(msg)) => scratch.recycle_message(black_box(msg)),
            other => panic!("frame the encoder wrote did not decode: {other:?}"),
        }
    });
    out.push(("proto.decode_ns", decode));
}

/// Ping-pong the workload's exchanges over one `Transport` connection
/// against an echo thread that answers request `i` with reply `i`;
/// median round trip in µs.
fn wire_rtt(
    clock: &Clock,
    transport: &dyn Transport,
    server: HostId,
    client: HostId,
    exchanges: &[Exchange],
    dur: Duration,
) -> Result<f64, String> {
    let listener = transport
        .listen(server, 7400)
        .map_err(|e| format!("wire probe listen: {e}"))?;
    let endpoint: Endpoint = listener.local_endpoint();
    let replies: Vec<Message> = exchanges.iter().map(|x| x.reply.clone()).collect();
    let echo = std::thread::Builder::new()
        .name("bench-wire-echo".into())
        .spawn(move || {
            let Ok(mut conn) = listener.accept() else {
                return;
            };
            let mut i = 0usize;
            while let Ok(_request) = conn.recv_msg() {
                if conn.send_msg(&replies[i % replies.len()]).is_err() {
                    break;
                }
                i += 1;
            }
            listener.close();
        })
        .map_err(|e| format!("spawn echo thread: {e}"))?;
    let mut conn = transport
        .connect(client, &endpoint)
        .map_err(|e| format!("wire probe connect: {e}"))?;
    let mut failed = None;
    let ns = per_call_ns(clock, dur, 1, |i| {
        let x = &exchanges[i % exchanges.len()];
        let got = conn.send_msg(&x.request).and_then(|()| conn.recv_msg());
        if failed.is_none() && got.as_ref() != Ok(&x.reply) {
            failed = Some(format!("wire probe echo mismatch at {i}: {got:?}"));
        }
    });
    conn.close();
    echo.join()
        .map_err(|_| "echo thread panicked".to_string())?;
    match failed {
        Some(e) => Err(e),
        None => Ok(ns / 1e3),
    }
}

/// `wire.epoll_rtt_us` and `wire.self_us` (round trip minus the codec
/// work both ends do: two messages, each encoded once and decoded
/// once). Needs `proto` to have run.
pub fn wire_epoll(
    clock: &Clock,
    exchanges: &[Exchange],
    dur: Duration,
    out: &mut Layers,
) -> Result<(), String> {
    let transport = EpollTransport::new().map_err(|e| format!("epoll probe transport: {e}"))?;
    let rtt = wire_rtt(clock, &transport, HostId(1), HostId(0), exchanges, dur)?;
    out.push(("wire.epoll_rtt_us", rtt));
    out.push(("wire.self_us", rtt - codec_us(out)));
    Ok(())
}

/// `wire.sim_rtt_us`, `netsim.conn_rtt_us` and `wire.self_us` for the
/// simulated backend (round trip minus codec minus the raw netsim
/// connection underneath).
pub fn wire_sim(
    clock: &Clock,
    exchanges: &[Exchange],
    dur: Duration,
    out: &mut Layers,
) -> Result<(), String> {
    let net = Network::new();
    let (server, client) = (net.add_host(), net.add_host());
    let transport = SimTransport::new(net);
    let rtt = wire_rtt(clock, &transport, server, client, exchanges, dur)?;
    out.push(("wire.sim_rtt_us", rtt));
    let raw = netsim_rtt(clock, dur, out)?;
    out.push(("wire.self_us", rtt - codec_us(out) - raw));
    Ok(())
}

fn codec_us(out: &Layers) -> f64 {
    2.0 * (layer(out, "proto.encode_ns") + layer(out, "proto.decode_ns")) / 1e3
}

/// `netsim.conn_rtt_us`: 64 B ping-pong over a raw `Network` connection.
pub fn netsim_rtt(clock: &Clock, dur: Duration, out: &mut Layers) -> Result<f64, String> {
    let net = Network::new();
    let (server, client) = (net.add_host(), net.add_host());
    let listener = net
        .listen(server, 7401)
        .map_err(|e| format!("netsim probe listen: {e}"))?;
    let echo = std::thread::Builder::new()
        .name("bench-netsim-echo".into())
        .spawn(move || {
            let Ok(mut conn) = listener.accept() else {
                return;
            };
            while let Ok(chunk) = conn.recv() {
                if conn.send_bytes(chunk).is_err() {
                    break;
                }
            }
        })
        .map_err(|e| format!("spawn echo thread: {e}"))?;
    let mut conn = net
        .connect(client, Addr::new(server, 7401))
        .map_err(|e| format!("netsim probe connect: {e}"))?;
    let payload = [0x5Au8; 64];
    let mut failed = None;
    let ns = per_call_ns(clock, dur, 1, |_| {
        let got = conn.send(&payload).and_then(|()| conn.recv());
        if failed.is_none() && got.as_ref().map(|b| b.len()) != Ok(payload.len()) {
            failed = Some(format!("netsim probe echo failed: {got:?}"));
        }
    });
    conn.close();
    echo.join()
        .map_err(|_| "echo thread panicked".to_string())?;
    match failed {
        Some(e) => Err(e),
        None => {
            out.push(("netsim.conn_rtt_us", ns / 1e3));
            Ok(ns / 1e3)
        }
    }
}

/// `wire.threads`, `wire.stall_kills`: read at the end of the window,
/// while the workload's world is still up.
pub fn wire_census(out: &mut Layers) {
    out.push(("wire.threads", tdp_wire::wire_thread_count() as f64));
    out.push(("wire.stall_kills", tdp_wire::stall_kill_count() as f64));
}
