//! Property tests for the wire codec and attribute parsing.

use bytes::BytesMut;
use proptest::prelude::*;
use tdp_proto::ids::{ContextId, HostId};
use tdp_proto::message::{Message, Reply};
use tdp_proto::{attr, decode_frame, encode_frame, FrameDecoder, FrameError, MAX_FRAME};

fn arb_string() -> impl Strategy<Value = String> {
    // Any unicode, bounded length; includes empty.
    proptest::string::string_regex(".{0,64}").unwrap()
}

fn arb_message() -> impl Strategy<Value = Message> {
    let ctx = any::<u64>().prop_map(ContextId);
    prop_oneof![
        (ctx.clone(), arb_string(), arb_string()).prop_map(|(ctx, key, value)| Message::Put {
            ctx,
            key,
            value
        }),
        (ctx.clone(), arb_string(), any::<bool>()).prop_map(|(ctx, key, blocking)| Message::Get {
            ctx,
            key,
            blocking
        }),
        (ctx.clone(), arb_string()).prop_map(|(ctx, key)| Message::Remove { ctx, key }),
        (ctx.clone(), arb_string(), any::<u64>(), any::<bool>()).prop_map(
            |(ctx, key, token, only_future)| Message::Subscribe {
                ctx,
                key,
                token,
                only_future
            }
        ),
        (ctx.clone(), any::<u64>()).prop_map(|(ctx, token)| Message::Unsubscribe { ctx, token }),
        (ctx.clone(), arb_string()).prop_map(|(ctx, prefix)| Message::ListKeys { ctx, prefix }),
        ctx.clone().prop_map(|ctx| Message::Join { ctx }),
        ctx.prop_map(|ctx| Message::Leave { ctx }),
        Just(Message::Reply(Reply::Ok)),
        (arb_string(), arb_string())
            .prop_map(|(key, value)| Message::Reply(Reply::Value { key, value })),
        proptest::collection::vec(arb_string(), 0..8)
            .prop_map(|keys| Message::Reply(Reply::Keys(keys))),
        (any::<u64>(), arb_string(), arb_string())
            .prop_map(|(token, key, value)| Message::Reply(Reply::Notify { token, key, value })),
        any::<u32>().prop_map(|h| Message::Hello { host: HostId(h) }),
    ]
}

proptest! {
    // Miri runs these same properties (the codec is pure, no FFI), but
    // interprets ~100x slower than native; fewer cases keeps the
    // sanitizer CI job inside its budget while still exercising the
    // torn-read decoder paths byte-by-byte under the aliasing model.
    #![proptest_config(ProptestConfig {
        cases: if cfg!(miri) { 8 } else { 64 },
        ..ProptestConfig::default()
    })]

    #[test]
    fn encode_decode_roundtrip(msg in arb_message()) {
        let frame = encode_frame(&msg);
        let mut buf = BytesMut::from(&frame[..]);
        let back = decode_frame(&mut buf).expect("decode");
        prop_assert_eq!(back, msg);
        prop_assert!(buf.is_empty());
    }

    #[test]
    fn truncation_never_panics_and_never_decodes(msg in arb_message(), cut in 0usize..64) {
        let frame = encode_frame(&msg);
        if cut < frame.len() {
            let mut buf = BytesMut::from(&frame[..cut]);
            prop_assert_eq!(decode_frame(&mut buf), Err(FrameError::Incomplete));
        }
    }

    #[test]
    fn pipelined_frames_decode_in_order(msgs in proptest::collection::vec(arb_message(), 1..10)) {
        let mut buf = BytesMut::new();
        for m in &msgs {
            buf.extend_from_slice(&encode_frame(m));
        }
        for m in &msgs {
            let got = decode_frame(&mut buf).expect("decode");
            prop_assert_eq!(&got, m);
        }
        prop_assert!(buf.is_empty());
    }

    #[test]
    fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut buf = BytesMut::from(&data[..]);
        let _ = decode_frame(&mut buf); // any result is fine; must not panic
    }

    #[test]
    fn decoder_byte_at_a_time(msgs in proptest::collection::vec(arb_message(), 1..8)) {
        // The worst torn-read case: every TCP segment is one byte.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for m in &msgs {
            for b in encode_frame(m).iter() {
                dec.feed(&[*b]);
                while let Some(msg) = dec.next().expect("stream is well-formed") {
                    got.push(msg);
                }
            }
        }
        prop_assert_eq!(&got, &msgs);
        prop_assert!(dec.is_empty());
    }

    #[test]
    fn decoder_random_chunks(
        msgs in proptest::collection::vec(arb_message(), 1..8),
        cuts in proptest::collection::vec(1usize..17, 0..64),
    ) {
        // Split the concatenated stream at arbitrary points: chunk
        // boundaries never align with frame boundaries except by luck.
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_frame(m));
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let mut off = 0;
        let mut cuts = cuts.into_iter();
        while off < stream.len() {
            let n = cuts.next().unwrap_or(stream.len()).min(stream.len() - off);
            dec.feed(&stream[off..off + n]);
            off += n;
            while let Some(msg) = dec.next().expect("stream is well-formed") {
                got.push(msg);
            }
        }
        prop_assert_eq!(&got, &msgs);
        prop_assert!(dec.is_empty());
    }

    #[test]
    fn decoder_read_with_matches_feed(
        msgs in proptest::collection::vec(arb_message(), 1..8),
        pad in 0usize..20_000,
        reads in proptest::collection::vec(
            (prop_oneof![1usize..17, 1000usize..9000], any::<bool>()),
            0..64,
        ),
    ) {
        // A transport that reads into the decoder, in pieces from one
        // byte to more than the room it is offered, now and then handing
        // over a chunk of its own instead: the same messages in the same
        // order as the whole stream fed at once.
        let mut stream = encode_frame(&Message::Put {
            ctx: ContextId(0),
            key: "pad".into(),
            value: "x".repeat(pad),
        })
        .to_vec();
        for m in &msgs {
            stream.extend_from_slice(&encode_frame(m));
        }
        let mut whole = FrameDecoder::new();
        whole.feed(&stream);
        let mut want = Vec::new();
        while let Some(msg) = whole.next().expect("stream is well-formed") {
            want.push(msg);
        }
        prop_assert_eq!(&want[1..], &msgs[..]);

        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let mut off = 0;
        let mut reads = reads.into_iter();
        while off < stream.len() {
            let (n, fed) = reads.next().unwrap_or((stream.len(), false));
            let n = n.min(stream.len() - off);
            if fed {
                dec.feed(&stream[off..off + n]);
                off += n;
            } else {
                off += read_into(&mut dec, &stream[off..], n);
            }
            while let Some(msg) = dec.next().expect("stream is well-formed") {
                got.push(msg);
            }
        }
        prop_assert_eq!(&got, &want);
        prop_assert!(dec.is_empty());
    }

    #[test]
    fn decoder_survives_random_bytes(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Arbitrary garbage must never panic, and after an error the
        // decoder keeps returning without looping forever.
        let mut dec = FrameDecoder::new();
        dec.feed(&data);
        for _ in 0..(data.len() + 1) {
            match dec.next() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }

    #[test]
    fn multi_value_join_split_roundtrip(
        parts in proptest::collection::vec("[a-zA-Z0-9 _./-]{0,16}", 0..8)
    ) {
        let joined = attr::join_multi_value(&parts);
        prop_assert_eq!(attr::split_multi_value(&joined), parts);
    }
}

/// One read off a socket holding `bytes`, by a reader that takes at most
/// `limit` of them: through `read_with`, so into the decoder's own room
/// and no more than fits it. Returns how many bytes went in.
fn read_into(dec: &mut FrameDecoder, bytes: &[u8], limit: usize) -> usize {
    dec.read_with(|room| {
        let n = bytes.len().min(limit).min(room.len());
        room[..n].copy_from_slice(&bytes[..n]);
        Ok(n)
    })
    .expect("the reader does not fail")
}

/// Everything in `bytes`, as much per read as the room takes. Returns
/// the number of reads it took.
fn read_all_into(dec: &mut FrameDecoder, mut bytes: &[u8]) -> usize {
    let mut reads = 0;
    while !bytes.is_empty() {
        bytes = &bytes[read_into(dec, bytes, usize::MAX)..];
        reads += 1;
    }
    reads
}

#[test]
fn a_corrupt_frame_read_into_the_decoder_is_consumed_and_surfaced_once() {
    let good = Message::Join { ctx: ContextId(1) };
    let mut stream = vec![0, 0, 0, 1, 0xEE]; // complete frame, unknown tag
    stream.extend_from_slice(&encode_frame(&good));
    let mut dec = FrameDecoder::new();
    read_all_into(&mut dec, &stream);
    assert_eq!(dec.next(), Err(FrameError::BadTag(0xEE)));
    assert_eq!(dec.next(), Ok(Some(good)));
    assert_eq!(dec.next(), Ok(None));
    assert!(dec.is_empty());
}

#[test]
fn a_declared_length_allocates_nothing_until_the_bytes_arrive() {
    // A header that promises the largest frame there is, then silence:
    // storage follows what arrived (4 bytes), not what was declared.
    let mut dec = FrameDecoder::new();
    read_all_into(&mut dec, &(MAX_FRAME as u32).to_be_bytes());
    for _ in 0..8 {
        assert_eq!(dec.next(), Ok(None));
        let idle = dec.read_with(|_| Err(std::io::ErrorKind::WouldBlock.into()));
        assert_eq!(idle.unwrap_err().kind(), std::io::ErrorKind::WouldBlock);
    }
    assert_eq!(dec.buffered(), 4);
    assert!(dec.capacity() <= 8 * 1024, "{} B held", dec.capacity());
}

#[test]
fn a_large_frame_takes_few_reads_and_its_storage_is_given_back() {
    const KEEP: usize = 64 * 1024;
    let big = Message::Put {
        ctx: ContextId(1),
        key: "k".into(),
        value: "v".repeat(100 * 1024),
    };
    let small = Message::Join { ctx: ContextId(2) };
    let mut stream = encode_frame(&big).to_vec();
    stream.extend_from_slice(&encode_frame(&small));
    let mut dec = FrameDecoder::new();
    // The room doubles with the partial frame held, so the reads are
    // logarithmic in its size, not one per fixed-size chunk.
    let reads = read_all_into(&mut dec, &stream);
    assert!(reads <= 8, "{reads} reads for a 100 KiB frame");
    assert!(dec.capacity() > KEEP);
    // Consuming the big frame leaves a window: nothing is given back
    // from under it.
    assert_eq!(dec.next(), Ok(Some(big)));
    assert!(dec.capacity() > KEEP);
    assert_eq!(dec.next(), Ok(Some(small.clone())));
    // Dry: one pathological frame does not pin its footprint.
    assert!(dec.is_empty());
    assert!(dec.capacity() <= KEEP, "{} B retained", dec.capacity());
    // And the decoder works on.
    read_all_into(&mut dec, &encode_frame(&small));
    assert_eq!(dec.next(), Ok(Some(small)));
}
