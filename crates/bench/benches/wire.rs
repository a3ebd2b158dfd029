//! **B7 — Transport microbenchmarks**: the same attribute-space
//! operations over `tdp-wire`'s two transports, head to head.
//!
//! The netsim numbers bound what the protocol logic itself costs; the
//! epoll numbers add real syscalls and the streaming frame decoder.
//! Both run the identical client and server code — only the
//! `Transport` differs.
//!
//! **B8 — Connection scaling**: aggregate put rate across N concurrent
//! sessions per transport. As sessions grow the socket transport keeps
//! its wire thread count flat — the listener's accept thread, nothing
//! per connection or per transport (printed to stderr after each case).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;
use tdp_core::{Role, TdpHandle, World};
use tdp_proto::ContextId;
use tdp_wire::wire_thread_count;

const CTX: ContextId = ContextId(1);

fn backends() -> Vec<(&'static str, World)> {
    vec![("netsim", World::new()), ("epoll", World::new_epoll())]
}

fn pair(world: &World) -> (TdpHandle, TdpHandle) {
    let host = world.add_host();
    let rm = TdpHandle::init(world, host, CTX, "rm", Role::ResourceManager).unwrap();
    let rt = TdpHandle::init(world, host, CTX, "rt", Role::Tool).unwrap();
    (rm, rt)
}

fn bench_latency(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire_latency");
    g.measurement_time(Duration::from_secs(2)).sample_size(30);

    for (name, world) in backends() {
        let (mut rm, mut rt) = pair(&world);
        rm.put("warm", "1").unwrap();

        g.bench_function(format!("{name}/put"), |b| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                rm.put("bench_key", &i.to_string()).unwrap();
            });
        });

        g.bench_function(format!("{name}/get_hit"), |b| {
            b.iter(|| black_box(rt.get("bench_key").unwrap()));
        });
    }
    g.finish();
}

fn bench_throughput(c: &mut Criterion) {
    // Streamed puts over one session; each put still waits for its
    // Ok, so this is a request/reply rate, not raw socket bandwidth.
    const BATCH: u64 = 256;
    let mut g = c.benchmark_group("wire_throughput");
    g.measurement_time(Duration::from_secs(2))
        .sample_size(20)
        .throughput(Throughput::Elements(BATCH));

    for (name, world) in backends() {
        let (mut rm, _rt) = pair(&world);
        g.bench_function(format!("{name}/put_stream_{BATCH}"), |b| {
            b.iter(|| {
                for i in 0..BATCH {
                    rm.put("stream_key", &i.to_string()).unwrap();
                }
            });
        });
    }
    g.finish();
}

fn bench_connection_scaling(c: &mut Criterion) {
    // B8: aggregate request/reply rate over N concurrent sessions to
    // one host's LASS. Total ops per iteration is held constant so the
    // numbers compare across N directly.
    const TOTAL_OPS: u64 = 400;
    let mut g = c.benchmark_group("wire_scaling");
    g.measurement_time(Duration::from_secs(2))
        .sample_size(10)
        .throughput(Throughput::Elements(TOTAL_OPS));

    for conns in [1usize, 8, 100] {
        let per_conn = TOTAL_OPS / conns as u64;
        for (name, world) in backends() {
            let host = world.add_host();
            // The RM's init starts the LASS; sessions are Tool handles.
            let _rm = TdpHandle::init(&world, host, CTX, "rm", Role::ResourceManager).unwrap();
            let mut sessions: Vec<TdpHandle> = (0..conns)
                .map(|i| TdpHandle::init(&world, host, CTX, &format!("s{i}"), Role::Tool).unwrap())
                .collect();
            g.bench_function(format!("{name}/{conns}_sessions"), |b| {
                b.iter(|| {
                    std::thread::scope(|s| {
                        for h in sessions.iter_mut() {
                            s.spawn(move || {
                                for i in 0..per_conn {
                                    h.put("k", &i.to_string()).unwrap();
                                }
                            });
                        }
                    });
                });
            });
            eprintln!(
                "wire_scaling/{name}/{conns}_sessions: {} wire threads",
                wire_thread_count()
            );
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_latency,
    bench_throughput,
    bench_connection_scaling
);
criterion_main!(benches);
