//! Seeded workload generation.
//!
//! `--seed` fixes every choice a workload makes — key, op mix, value
//! bytes and sizes — through the xorshift below. Each workload draws a
//! fixed-size table of ops once, before the clock starts, and the
//! measured loop cycles through it: the program under test sees only
//! these ops, the harness allocates nothing per op, and `input_hash`
//! (FNV-1a over the table) names the exact input a number came from.

/// xorshift64* seeded through one splitmix64 step, so seed 0 and
/// neighbouring seeds still give unrelated streams.
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> XorShift {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// `len` characters of `[0-9a-z]`: legal in attribute values, JSON
    /// strings and HTTP bodies without escaping.
    pub fn alnum(&mut self, len: usize) -> String {
        const ALPHABET: &[u8; 36] = b"0123456789abcdefghijklmnopqrstuvwxyz";
        (0..len)
            .map(|_| ALPHABET[self.range(0, 35)] as char)
            .collect()
    }
}

/// FNV-1a, 64 bit — the `input_hash`.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 = (self.0 ^ 0xFF).wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Ops per generated table. The loop wraps round it; 4096 ops of up to
/// 32 B keep the table in cache, so the harness adds no misses of its
/// own.
pub const TABLE_OPS: usize = 4096;

// ------------------------------------------------------------ attr_*

pub const ATTR_KEYS: usize = 64;

pub enum AttrOp {
    Put { key: usize, value: String },
    Get { key: usize },
}

/// The op stream shared by `attr_epoll` and `attr_netsim` (the two must
/// report the same `input_hash`): 64 preloaded keys, 50/50 put/get-hit,
/// values 8–32 B.
pub struct AttrStream {
    pub keys: Vec<String>,
    pub preload: Vec<String>,
    pub ops: Vec<AttrOp>,
    pub input_hash: String,
}

pub fn attr_stream(seed: u64) -> AttrStream {
    let mut rng = XorShift::new(seed);
    let mut h = Fnv::new();
    let keys: Vec<String> = (0..ATTR_KEYS).map(|i| format!("bench.k{i:02}")).collect();
    let preload: Vec<String> = keys
        .iter()
        .map(|k| {
            let len = rng.range(8, 32);
            let v = rng.alnum(len);
            h.write(k.as_bytes());
            h.write(v.as_bytes());
            v
        })
        .collect();
    let ops = (0..TABLE_OPS)
        .map(|_| {
            let key = rng.range(0, ATTR_KEYS - 1);
            if rng.next_u64() & 1 == 0 {
                let len = rng.range(8, 32);
                let value = rng.alnum(len);
                h.write(b"put");
                h.write(keys[key].as_bytes());
                h.write(value.as_bytes());
                AttrOp::Put { key, value }
            } else {
                h.write(b"get");
                h.write(keys[key].as_bytes());
                AttrOp::Get { key }
            }
        })
        .collect();
    AttrStream {
        keys,
        preload,
        ops,
        input_hash: h.hex(),
    }
}

// ----------------------------------------------------- handoff_epoll

pub const HANDOFF_ROUNDS: usize = 256;

/// One Figure 6 round: the RM puts a 16 B `token` under `req.<i>`, the
/// blocked tool answers with the 2–8 KiB `payload` under `ack.<i>`.
pub struct HandoffRound {
    pub token: String,
    pub payload: String,
}

pub struct HandoffStream {
    pub rounds: Vec<HandoffRound>,
    pub input_hash: String,
}

pub fn handoff_stream(seed: u64) -> HandoffStream {
    let mut rng = XorShift::new(seed);
    let mut h = Fnv::new();
    let rounds = (0..HANDOFF_ROUNDS)
        .map(|_| {
            let token = rng.alnum(16);
            let len = rng.range(2048, 8192);
            let payload = rng.alnum(len);
            h.write(token.as_bytes());
            h.write(payload.as_bytes());
            HandoffRound { token, payload }
        })
        .collect();
    HandoffStream {
        rounds,
        input_hash: h.hex(),
    }
}

// ------------------------------------------------------ gateway_http

pub const GW_KEYS: usize = 16;
pub const GW_CTX: u64 = 9;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GwKind {
    Echo,
    AttrPut,
    AttrGet,
}

/// One JSON-RPC request, rendered once: `body` is what the in-process
/// probes replay, `http` the bytes the client writes to the socket.
pub struct GwOp {
    pub kind: GwKind,
    pub key: usize,
    /// Echo argument or put value; empty for a get.
    pub value: String,
    pub body: String,
    pub http: Vec<u8>,
}

pub struct GwStream {
    pub keys: Vec<String>,
    /// One `attr.put` per key, sent during set-up.
    pub preload: Vec<GwOp>,
    pub ops: Vec<GwOp>,
    pub input_hash: String,
}

fn gw_op(kind: GwKind, key: usize, keys: &[String], value: String, id: usize) -> GwOp {
    let k = &keys[key];
    let (method, params) = match kind {
        GwKind::Echo => (
            "tool.invoke",
            format!(r#"{{"name":"echo","params":{{"v":"{value}"}}}}"#),
        ),
        GwKind::AttrPut => (
            "attr.put",
            format!(r#"{{"ctx":{GW_CTX},"key":"{k}","value":"{value}"}}"#),
        ),
        GwKind::AttrGet => ("attr.get", format!(r#"{{"ctx":{GW_CTX},"key":"{k}"}}"#)),
    };
    let body = format!(r#"{{"jsonrpc":"2.0","id":{id},"method":"{method}","params":{params}}}"#);
    let http = format!(
        "POST /rpc HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes();
    GwOp {
        kind,
        key,
        value,
        body,
        http,
    }
}

/// 45 % `tool.invoke echo`, 45 % `attr.put`, 10 % `attr.get` of a key
/// (the model knows what was last put there), values 8–32 B.
pub fn gw_stream(seed: u64) -> GwStream {
    let mut rng = XorShift::new(seed);
    let mut h = Fnv::new();
    let keys: Vec<String> = (0..GW_KEYS).map(|i| format!("gw.k{i:02}")).collect();
    let mut draw = |kind: GwKind, key: usize, id: usize, rng: &mut XorShift| {
        let value = match kind {
            GwKind::AttrGet => String::new(),
            _ => {
                let len = rng.range(8, 32);
                rng.alnum(len)
            }
        };
        let op = gw_op(kind, key, &keys, value, id);
        h.write(op.body.as_bytes());
        op
    };
    let preload = (0..GW_KEYS)
        .map(|key| draw(GwKind::AttrPut, key, key, &mut rng))
        .collect();
    let ops = (0..TABLE_OPS)
        .map(|i| {
            let kind = match rng.range(0, 99) {
                0..=44 => GwKind::Echo,
                45..=89 => GwKind::AttrPut,
                _ => GwKind::AttrGet,
            };
            let key = rng.range(0, GW_KEYS - 1);
            draw(kind, key, GW_KEYS + i, &mut rng)
        })
        .collect();
    GwStream {
        keys,
        preload,
        ops,
        input_hash: h.hex(),
    }
}

// ------------------------------------------------------- parador_job

pub const PARADOR_JOBS: usize = 64;

/// Job `i` runs `work_calls[i % 64]` instrumented calls of `work`; the
/// front-end's final sample for that job must count exactly as many.
pub struct ParadorStream {
    pub work_calls: Vec<u64>,
    pub input_hash: String,
}

pub fn parador_stream(seed: u64) -> ParadorStream {
    let mut rng = XorShift::new(seed);
    let mut h = Fnv::new();
    let work_calls = (0..PARADOR_JOBS)
        .map(|_| {
            let n = rng.range(4, 16) as u64;
            h.write(&n.to_le_bytes());
            n
        })
        .collect();
    ParadorStream {
        work_calls,
        input_hash: h.hex(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_hash_and_other_seed_differs() {
        assert_eq!(attr_stream(7).input_hash, attr_stream(7).input_hash);
        assert_ne!(attr_stream(7).input_hash, attr_stream(8).input_hash);
        assert_eq!(handoff_stream(7).input_hash, handoff_stream(7).input_hash);
        assert_eq!(gw_stream(7).input_hash, gw_stream(7).input_hash);
        assert_ne!(gw_stream(7).input_hash, gw_stream(8).input_hash);
        assert_eq!(parador_stream(7).input_hash, parador_stream(7).input_hash);
    }

    #[test]
    fn input_hash_is_pinned() {
        // A change to the generator changes every number's input; this
        // makes that a visible edit, not a side effect.
        assert_eq!(attr_stream(1).input_hash, "aa4771ba63034595");
        assert_eq!(parador_stream(1).input_hash, "07a3c8b627c7fbd3");
    }

    #[test]
    fn streams_have_the_advertised_shape() {
        let a = attr_stream(3);
        assert_eq!(a.ops.len(), TABLE_OPS);
        let puts = a
            .ops
            .iter()
            .filter(|o| matches!(o, AttrOp::Put { .. }))
            .count();
        assert!((1800..2300).contains(&puts), "50/50 mix, got {puts} puts");
        assert!(a.ops.iter().all(|o| match o {
            AttrOp::Put { value, .. } => (8..=32).contains(&value.len()),
            AttrOp::Get { .. } => true,
        }));
        let h = handoff_stream(3);
        assert!(h
            .rounds
            .iter()
            .all(|r| r.token.len() == 16 && (2048..=8192).contains(&r.payload.len())));
        let g = gw_stream(3);
        let gets = g.ops.iter().filter(|o| o.kind == GwKind::AttrGet).count();
        assert!((300..520).contains(&gets), "10 % gets, got {gets}");
        assert!(parador_stream(3)
            .work_calls
            .iter()
            .all(|n| (4..=16).contains(n)));
    }

    #[test]
    fn xorshift_survives_seed_zero() {
        let mut r = XorShift::new(0);
        let a = r.next_u64();
        let b = r.next_u64();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
