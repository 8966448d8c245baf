//! Property tests for the wire codec (ISSUE 6, satellite 2): every frame
//! kind round-trips bit-exactly through encode/decode and through the
//! length-prefixed stream path — and corruption (truncated frames, flipped
//! bytes, oversized length prefixes) always yields a **typed error**, never
//! a panic and never a partial read that decodes to a different frame.

use hdmm_core::codec::{self, CodecError};
use hdmm_linalg::{Matrix, StructuredMatrix};
use hdmm_net::{
    decode_frame, decode_frame_ext, encode_frame, encode_frame_ext, read_frame, write_frame,
    ErrorCode, Frame, TraceExt, WireSpan, MAX_FRAME_BYTES,
};
use proptest::prelude::*;

fn values_from(seed: u64, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let v = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add((i as u64).wrapping_mul(1442695040888963407))
                >> 11;
            // Mix in non-finite-free but sign/precision-diverse payloads,
            // including negative zero, so bit-exactness is actually tested.
            match i % 4 {
                0 => v as f64 / 1e3,
                1 => -(v as f64) * 1e-9,
                2 => -0.0,
                _ => (v % 97) as f64,
            }
        })
        .collect()
}

fn factor_from(kind: usize, n: usize, seed: u64) -> StructuredMatrix {
    match kind {
        0 => StructuredMatrix::identity(n),
        1 => StructuredMatrix::total(n),
        2 => StructuredMatrix::prefix(n),
        3 => StructuredMatrix::all_range(n),
        4 => StructuredMatrix::kron(vec![
            StructuredMatrix::prefix(n),
            StructuredMatrix::total(2),
        ]),
        _ => Matrix::from_fn(n, n, |r, c| {
            ((seed as usize + r * n + c) % 7) as f64 / 3.0 - 1.0
        })
        .into(),
    }
}

/// One frame of every kind, parameterized so proptest explores payload sizes
/// and factor shapes. `which` selects the kind; the rest feed its fields.
fn frame_from(which: usize, n: usize, len: usize, seed: u64, kinds: &[usize]) -> Frame {
    let factors: Vec<StructuredMatrix> = kinds
        .iter()
        .enumerate()
        .map(|(i, &k)| factor_from(k, n, seed + i as u64))
        .collect();
    match which {
        0 => Frame::Ping,
        1 => Frame::Pong { slabs: seed },
        2 => Frame::Loaded,
        3 => Frame::Part {
            values: values_from(seed, len),
        },
        4 => Frame::Error {
            code: match seed % 3 {
                0 => ErrorCode::Internal,
                1 => ErrorCode::UnknownSlab,
                _ => ErrorCode::BadTask,
            },
            message: format!("err-{seed}: ünïcode ok"),
        },
        5 => Frame::LoadSlab {
            dataset: format!("ds-{}", seed % 5),
            shard: seed % 16,
            rows: (seed % 7, seed % 7 + 1 + len as u64),
            values: values_from(seed, len.max(1)),
        },
        _ => Frame::SlabForward {
            dataset: format!("ds-{}", seed % 5),
            shard: seed % 16,
            factors,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every frame kind round-trips bit-exactly, both through the in-memory
    /// codec and through the length-prefixed stream.
    #[test]
    fn every_frame_kind_round_trips_bit_exactly(
        which in 0usize..7,
        n in 1usize..6,
        len in 0usize..40,
        seed in 0u64..10_000,
        kinds in proptest::collection::vec(0usize..6, 3),
    ) {
        let frame = frame_from(which, n, len, seed, &kinds);
        let encoded = encode_frame(&frame);
        let decoded = decode_frame(&encoded).expect("self-encoded frame must decode");
        prop_assert_eq!(&decoded, &frame);

        let mut stream = Vec::new();
        write_frame(&mut stream, &frame).expect("vec write cannot fail");
        let mut cursor = std::io::Cursor::new(stream);
        let via_stream = read_frame(&mut cursor).expect("stream round trip must decode");
        prop_assert_eq!(&via_stream, &frame);
    }

    /// Truncating an encoded frame at any point yields a typed error — never
    /// a panic, and never a shorter frame that happens to decode.
    #[test]
    fn truncated_frames_are_typed_errors(
        which in 0usize..7,
        n in 1usize..5,
        len in 0usize..20,
        seed in 0u64..10_000,
        kinds in proptest::collection::vec(0usize..6, 2),
        cut_num in 0usize..997,
    ) {
        let frame = frame_from(which, n, len, seed, &kinds);
        let encoded = encode_frame(&frame);
        let cut = cut_num % encoded.len();
        prop_assert!(
            decode_frame(&encoded[..cut]).is_err(),
            "truncation at {cut}/{} must be a typed error",
            encoded.len()
        );

        // Same through the stream path: a connection dropped mid-frame.
        let mut stream = Vec::new();
        write_frame(&mut stream, &frame).expect("vec write cannot fail");
        let cut = cut_num % stream.len();
        let mut cursor = std::io::Cursor::new(&stream[..cut]);
        prop_assert!(
            read_frame(&mut cursor).is_err(),
            "stream truncation at {cut}/{} must be a typed error",
            stream.len()
        );
    }

    /// Flipping any single byte — payload or checksum trailer — is always
    /// detected: FNV-1a's per-byte step is a bijection of the running state,
    /// so a one-byte change can never collide with the original checksum.
    #[test]
    fn flipped_bytes_never_decode(
        which in 0usize..7,
        n in 1usize..5,
        len in 0usize..20,
        seed in 0u64..10_000,
        kinds in proptest::collection::vec(0usize..6, 2),
        pos_num in 0usize..997,
        flip_num in 1usize..256,
    ) {
        let flip = flip_num as u8;
        let frame = frame_from(which, n, len, seed, &kinds);
        let mut encoded = encode_frame(&frame);
        let pos = pos_num % encoded.len();
        encoded[pos] ^= flip;
        prop_assert!(
            decode_frame(&encoded).is_err(),
            "flip of byte {pos} (xor {flip:#04x}) must be detected"
        );
    }

    /// A v2 frame with an arbitrary trace extension round-trips bit-exactly:
    /// the frame, the trace identity, and every worker-side span.
    #[test]
    fn v2_trace_extension_round_trips_bit_exactly(
        which in 0usize..7,
        n in 1usize..5,
        len in 0usize..20,
        seed in 0u64..10_000,
        kinds in proptest::collection::vec(0usize..6, 2),
        trace_id in 0u64..u64::MAX,
        span_id in 0u64..u64::MAX,
        spans in proptest::collection::vec((0usize..4, 0u64..u64::MAX), 4),
        span_count in 0usize..5,
    ) {
        const NAMES: [&str; 4] = ["worker:forward", "worker:apply", "worker:load", ""];
        let frame = frame_from(which, n, len, seed, &kinds);
        let ext = TraceExt {
            trace_id,
            span_id,
            spans: spans
                .into_iter()
                .take(span_count)
                .map(|(name, dur_ns)| WireSpan {
                    name: NAMES[name].to_string(),
                    dur_ns,
                })
                .collect(),
        };
        let encoded = encode_frame_ext(&frame, Some(&ext));
        let (back, back_ext) = decode_frame_ext(&encoded).expect("v2 must decode");
        prop_assert_eq!(&back, &frame);
        prop_assert_eq!(back_ext.as_ref(), Some(&ext));
    }

    /// Forward compat: a legacy (v1) frame decodes through the v2-aware
    /// reader as the same frame with no extension — a new coordinator can
    /// always talk to an old worker's bytes.
    #[test]
    fn v1_bytes_decode_through_the_v2_reader(
        which in 0usize..7,
        n in 1usize..5,
        len in 0usize..20,
        seed in 0u64..10_000,
        kinds in proptest::collection::vec(0usize..6, 2),
    ) {
        let frame = frame_from(which, n, len, seed, &kinds);
        let v1 = encode_frame(&frame);
        let (back, ext) = decode_frame_ext(&v1).expect("v1 must decode via v2 reader");
        prop_assert_eq!(&back, &frame);
        prop_assert!(ext.is_none(), "legacy frames carry no extension");
    }

    /// Backward compat: a v2-aware encoder asked for no extension emits
    /// byte-identical v1 — an old worker never sees bytes it cannot parse
    /// from a new coordinator that negotiated down. And the extension is
    /// pure metadata: stripping it (via the ext-discarding decoder) always
    /// yields the same frame.
    #[test]
    fn untraced_v2_is_byte_identical_v1_and_the_extension_is_pure_metadata(
        which in 0usize..7,
        n in 1usize..5,
        len in 0usize..20,
        seed in 0u64..10_000,
        kinds in proptest::collection::vec(0usize..6, 2),
        trace_id in 1u64..u64::MAX,
    ) {
        let frame = frame_from(which, n, len, seed, &kinds);
        prop_assert_eq!(encode_frame_ext(&frame, None), encode_frame(&frame));

        let traced = encode_frame_ext(&frame, Some(&TraceExt::request(trace_id, 1)));
        prop_assert!(traced != encode_frame(&frame), "v2 bytes differ from v1");
        prop_assert_eq!(
            decode_frame(&traced).expect("ext-discarding decode"),
            frame
        );
    }

    /// Oversized length prefixes are rejected before any allocation.
    #[test]
    fn oversized_length_prefixes_are_rejected(excess in 1u64..1_000_000) {
        let bad_len = u32::try_from((MAX_FRAME_BYTES + excess).min(u64::from(u32::MAX)))
            .expect("clamped");
        let mut stream = bad_len.to_le_bytes().to_vec();
        stream.extend_from_slice(&[0u8; 64]);
        let mut cursor = std::io::Cursor::new(stream);
        prop_assert!(
            read_frame(&mut cursor).is_err(),
            "length {bad_len} must be rejected before allocation"
        );
    }
}

/// Response-vs-request confusion and garbage magic are typed, not panics.
#[test]
fn garbage_and_wrong_magic_are_typed_errors() {
    assert!(decode_frame(b"").is_err());
    assert!(decode_frame(b"garbage that is not a frame at all").is_err());
    // A valid codec envelope around the wrong magic still fails typed.
    let mut encoded = encode_frame(&Frame::Ping);
    encoded[0] ^= 0xff; // corrupt the magic inside the sealed envelope
    assert!(decode_frame(&encoded).is_err());
}

/// Kind tag 3 (the retired stateless `Apply` task) never decodes again: a
/// well-sealed frame carrying it is a typed `BadTag`, so a worker drops the
/// connection of a coordinator that still sends it.
#[test]
fn retired_apply_tag_is_a_bad_tag() {
    for version in [b'1', b'2'] {
        let mut payload = b"HNW".to_vec();
        payload.push(version);
        if version == b'2' {
            // An untraced extension: trace id, parent span id, no spans.
            codec::put_u64(&mut payload, 0);
            codec::put_u64(&mut payload, 0);
            codec::put_usize(&mut payload, 0);
        }
        payload.push(3);
        payload.push(0); // the old `transpose` flag
        codec::seal(&mut payload);
        assert_eq!(
            decode_frame(&payload).unwrap_err(),
            CodecError::BadTag { tag: 3 },
            "protocol version {}",
            version as char
        );
    }
}
