//! Tree construction and node runtime.

use crate::packet::{Packet, ReduceOp};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use tdp_netsim::{Conn, ConnRx, ConnTx, Network};
use tdp_proto::{Addr, HostId, TdpError, TdpResult};
use tdp_sync::{Condvar, Mutex};

/// Shape of the reduction tree.
#[derive(Debug, Clone, Copy)]
pub struct TreeSpec {
    /// Maximum children per node (≥ 1).
    pub fanout: usize,
    /// Combine operator for upstream reductions.
    pub op: ReduceOp,
}

impl Default for TreeSpec {
    fn default() -> Self {
        TreeSpec {
            fanout: 4,
            op: ReduceOp::Sum,
        }
    }
}

/// Accumulates per-wave contributions until a threshold of leaves is
/// reached.
struct Accumulator {
    op: ReduceOp,
    threshold: u32,
    waves: Mutex<HashMap<u64, (u64, u32)>>,
    done: Mutex<HashMap<u64, u64>>,
    cv: Condvar,
}

impl Accumulator {
    fn new(op: ReduceOp, threshold: u32) -> Arc<Accumulator> {
        Arc::new(Accumulator {
            op,
            threshold,
            waves: Mutex::new(HashMap::new()),
            done: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
        })
    }

    /// Fold in a contribution; returns the completed `(value, count)`
    /// when this contribution finishes the wave.
    fn add(&self, wave: u64, value: u64, count: u32) -> Option<(u64, u32)> {
        let mut waves = self.waves.lock();
        let entry = waves.entry(wave).or_insert((self.op.identity(), 0));
        entry.0 = self.op.combine(entry.0, value);
        entry.1 += count;
        if entry.1 >= self.threshold {
            let (v, c) = waves.remove(&wave).expect("present");
            Some((v, c))
        } else {
            None
        }
    }

    /// Record a completed wave for a blocking reader (front-end only).
    fn complete(&self, wave: u64, value: u64) {
        self.done.lock().insert(wave, value);
        self.cv.notify_all();
    }

    fn wait(&self, wave: u64, timeout: Duration) -> TdpResult<u64> {
        let mut done = self.done.lock();
        self.cv
            .wait_while_for(&mut done, |d| !d.contains_key(&wave), timeout);
        done.remove(&wave).ok_or(TdpError::Timeout)
    }
}

/// Fan a leaf count into at most `fanout` near-equal groups.
fn split_groups(n: usize, fanout: usize) -> Vec<usize> {
    let k = fanout.min(n).max(1);
    let base = n / k;
    let extra = n % k;
    (0..k).map(|i| base + usize::from(i < extra)).collect()
}

/// The tool front-end's root of the tree.
pub struct FrontEnd {
    addr: Addr,
    children: Arc<(Mutex<Vec<Arc<ConnTx>>>, Condvar)>,
    expected_children: usize,
    acc: Arc<Accumulator>,
    n_leaves: u32,
}

impl FrontEnd {
    /// Build a tree rooted at `root_host` with `n_leaves` attachment
    /// points. Interior nodes are placed round-robin on
    /// `interior_hosts` (pass the execution hosts; falls back to the
    /// root host when empty). Returns the front-end and one attach
    /// address per leaf, in leaf order.
    pub fn build(
        net: &Network,
        root_host: HostId,
        interior_hosts: &[HostId],
        n_leaves: usize,
        spec: TreeSpec,
    ) -> TdpResult<(FrontEnd, Vec<Addr>)> {
        if n_leaves == 0 {
            return Err(TdpError::Substrate(
                "mrnet tree needs at least one leaf".into(),
            ));
        }
        if spec.fanout == 0 {
            return Err(TdpError::Substrate("mrnet fanout must be >= 1".into()));
        }
        let hosts: Vec<HostId> = if interior_hosts.is_empty() {
            vec![root_host]
        } else {
            interior_hosts.to_vec()
        };
        let listener = net.listen(root_host, 0)?;
        let addr = listener.local_addr();
        let acc = Accumulator::new(spec.op, n_leaves as u32);
        let children = Arc::new((Mutex::new(Vec::new()), Condvar::new()));

        // Plan the first layer below the root.
        let (expected_children, attach) = if n_leaves <= spec.fanout {
            (n_leaves, vec![addr; n_leaves])
        } else {
            let groups = split_groups(n_leaves, spec.fanout);
            let mut next_host = 0usize;
            let mut attach = Vec::with_capacity(n_leaves);
            for g in &groups {
                attach.extend(build_subtree(net, &hosts, &mut next_host, addr, *g, spec)?);
            }
            (groups.len(), attach)
        };

        // Root accept/collect loop.
        let acc2 = acc.clone();
        let children2 = children.clone();
        thread::Builder::new()
            .name("mrnet-root".to_string())
            .spawn(move || {
                for _ in 0..expected_children {
                    let Ok(conn) = listener.accept() else { return };
                    let (tx, rx) = conn.split();
                    {
                        let (lock, cv) = &*children2;
                        lock.lock().push(Arc::new(tx));
                        cv.notify_all();
                    }
                    let acc = acc2.clone();
                    thread::Builder::new()
                        .name("mrnet-root-reader".to_string())
                        .spawn(move || {
                            read_reduces(rx, move |wave, value, count| {
                                if let Some((v, _)) = acc.add(wave, value, count) {
                                    acc.complete(wave, v);
                                }
                            })
                        })
                        .expect("spawn reader");
                }
            })
            .map_err(|e| TdpError::Substrate(format!("spawn mrnet root: {e}")))?;

        Ok((
            FrontEnd {
                addr,
                children,
                expected_children,
                acc,
                n_leaves: n_leaves as u32,
            },
            attach,
        ))
    }

    /// Root address (diagnostics).
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Number of leaf attachment points.
    pub fn leaf_count(&self) -> u32 {
        self.n_leaves
    }

    /// Broadcast a packet to every back-end. Blocks until the first
    /// layer of the tree has attached.
    pub fn multicast(&self, data: &[u8]) -> TdpResult<()> {
        let (lock, cv) = &*self.children;
        let mut kids = lock.lock();
        let want = self.expected_children;
        let waited = cv.wait_while_for(&mut kids, |k| k.len() < want, Duration::from_secs(10));
        if waited.timed_out() {
            return Err(TdpError::Timeout);
        }
        // Snapshot the senders and release the lock before touching the
        // network: a child applying netsim latency/backpressure must not
        // stall concurrent `attach` notifications or other multicasters.
        let txs: Vec<Arc<ConnTx>> = kids.clone();
        drop(kids);
        let pkt = Packet::Multicast(data.to_vec()).encode();
        for tx in &txs {
            tx.send(&pkt)?;
        }
        Ok(())
    }

    /// Wait for wave `wave` to complete (every leaf contributed) and
    /// return the reduced value.
    pub fn recv_reduce(&self, wave: u64, timeout: Duration) -> TdpResult<u64> {
        self.acc.wait(wave, timeout)
    }
}

/// Recursively spawn an interior node and its subtree, returning the
/// leaf attach addresses it provides.
fn build_subtree(
    net: &Network,
    hosts: &[HostId],
    next_host: &mut usize,
    parent: Addr,
    n_leaves: usize,
    spec: TreeSpec,
) -> TdpResult<Vec<Addr>> {
    let host = hosts[*next_host % hosts.len()];
    *next_host += 1;
    let listener = net.listen(host, 0)?;
    let addr = listener.local_addr();
    let upstream = net.connect(host, parent)?;

    let (expected_children, attach, child_plans) = if n_leaves <= spec.fanout {
        (n_leaves, vec![addr; n_leaves], Vec::new())
    } else {
        (
            split_groups(n_leaves, spec.fanout).len(),
            Vec::new(),
            split_groups(n_leaves, spec.fanout),
        )
    };

    spawn_node_runtime(
        listener,
        upstream,
        expected_children,
        n_leaves as u32,
        spec.op,
    );

    if child_plans.is_empty() {
        Ok(attach)
    } else {
        let mut out = Vec::with_capacity(n_leaves);
        for g in child_plans {
            out.extend(build_subtree(net, hosts, next_host, addr, g, spec)?);
        }
        Ok(out)
    }
}

/// The relay loops of one interior node.
fn spawn_node_runtime(
    listener: tdp_netsim::Listener,
    upstream: Conn,
    expected_children: usize,
    leaf_count: u32,
    op: ReduceOp,
) {
    let (utx, urx) = upstream.split();
    let acc = Accumulator::new(op, leaf_count);
    thread::Builder::new()
        .name("mrnet-node".to_string())
        .spawn(move || {
            // Phase 1: collect children. The sender list is only ever
            // touched from this thread (accept here, forward in phase
            // 3), so it needs no lock at all.
            let mut child_txs: Vec<ConnTx> = Vec::new();
            let mut rxs = Vec::new();
            for _ in 0..expected_children {
                let Ok(conn) = listener.accept() else { return };
                let (tx, rx) = conn.split();
                child_txs.push(tx);
                rxs.push(rx);
            }
            // Phase 2: per-child upstream reduction readers.
            let utx = Arc::new(utx);
            for rx in rxs {
                let acc = acc.clone();
                let utx = utx.clone();
                thread::Builder::new()
                    .name("mrnet-node-reader".to_string())
                    .spawn(move || {
                        read_reduces(rx, move |wave, value, count| {
                            if let Some((v, c)) = acc.add(wave, value, count) {
                                let _ = utx.send(
                                    &Packet::Reduce {
                                        wave,
                                        value: v,
                                        count: c,
                                    }
                                    .encode(),
                                );
                            }
                        })
                    })
                    .expect("spawn node reader");
            }
            // Phase 3: forward multicasts downstream (bytes queued while
            // we were accepting are drained now, in order).
            let mut urx = urx;
            let mut buf = Vec::new();
            loop {
                match urx.recv() {
                    Ok(chunk) => {
                        buf.extend_from_slice(&chunk);
                        loop {
                            match Packet::decode(&mut buf) {
                                Ok(Some(p @ Packet::Multicast(_))) => {
                                    let enc = p.encode();
                                    for tx in &child_txs {
                                        let _ = tx.send(&enc);
                                    }
                                }
                                Ok(Some(_)) | Ok(None) => break,
                                Err(_) => return,
                            }
                        }
                    }
                    Err(_) => {
                        // Parent gone: propagate EOF downstream.
                        for tx in &child_txs {
                            tx.close();
                        }
                        return;
                    }
                }
            }
        })
        .expect("spawn mrnet node");
}

/// Read loop decoding upstream `Reduce` packets from one child.
fn read_reduces(mut rx: ConnRx, mut on_reduce: impl FnMut(u64, u64, u32)) {
    let mut buf = Vec::new();
    loop {
        match rx.recv() {
            Ok(chunk) => {
                buf.extend_from_slice(&chunk);
                loop {
                    match Packet::decode(&mut buf) {
                        Ok(Some(Packet::Reduce { wave, value, count })) => {
                            on_reduce(wave, value, count)
                        }
                        Ok(Some(_)) => {}
                        Ok(None) => break,
                        Err(_) => return,
                    }
                }
            }
            Err(_) => return,
        }
    }
}

/// A tool daemon's endpoint in the tree.
pub struct BackEnd {
    conn: Conn,
    buf: Vec<u8>,
}

impl BackEnd {
    /// Attach to the tree at the given attach address (as handed out by
    /// [`FrontEnd::build`]).
    pub fn connect(net: &Network, from: HostId, attach: Addr) -> TdpResult<BackEnd> {
        Ok(BackEnd {
            conn: net.connect(from, attach)?,
            buf: Vec::new(),
        })
    }

    /// Receive the next multicast payload.
    pub fn recv_multicast(&mut self, timeout: Duration) -> TdpResult<Vec<u8>> {
        let start = Instant::now();
        loop {
            if let Some(Packet::Multicast(data)) = Packet::decode(&mut self.buf)? {
                return Ok(data);
            }
            let left = timeout.checked_sub(start.elapsed());
            let chunk = self.conn.recv_timeout(left.ok_or(TdpError::Timeout)?)?;
            self.buf.extend_from_slice(&chunk);
        }
    }

    /// Contribute this daemon's value to a reduction wave.
    pub fn contribute(&self, wave: u64, value: u64) -> TdpResult<()> {
        self.conn.send(
            &Packet::Reduce {
                wave,
                value,
                count: 1,
            }
            .encode(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_groups_balances() {
        assert_eq!(split_groups(8, 4), vec![2, 2, 2, 2]);
        assert_eq!(split_groups(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(split_groups(3, 4), vec![1, 1, 1]);
        assert_eq!(split_groups(1, 4), vec![1]);
        assert_eq!(split_groups(5, 1), vec![5]);
    }

    #[test]
    fn accumulator_thresholds() {
        let acc = Accumulator::new(ReduceOp::Sum, 3);
        assert_eq!(acc.add(0, 5, 1), None);
        assert_eq!(acc.add(0, 6, 1), None);
        assert_eq!(acc.add(0, 7, 1), Some((18, 3)));
        // Waves are independent.
        assert_eq!(acc.add(1, 1, 2), None);
        assert_eq!(acc.add(1, 2, 1), Some((3, 3)));
    }
}
