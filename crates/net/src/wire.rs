//! Wire frames for shard-task RPC: length-prefixed, checksummed, typed,
//! versioned.
//!
//! A frame on the wire is `[len: u32 LE][payload][checksum: u64 LE]`, where
//! `len` covers the payload plus its checksum trailer and the payload is
//! `[magic "HNW"][version: u8][ext?][kind: u8][body]` encoded through the
//! shared [`hdmm_core::codec`] — the same encode/decode path and FNV-1a
//! checksum that seals [`PlanStore`] files, so there is exactly one binary
//! codec in the system. The length prefix is sanity-bounded by
//! [`MAX_FRAME_BYTES`] before any allocation: a corrupt or hostile length
//! yields a typed [`NetError::Oversized`], never a multi-gigabyte buffer.
//!
//! **Versioning.** The original protocol shipped with the fixed magic
//! `"HNW1"`; this module reinterprets its last byte as a version:
//!
//! * version `'1'` — the legacy payload, byte-for-byte unchanged: no
//!   extension, `kind` immediately follows the magic;
//! * version `'2'` — a [`TraceExt`] (trace id, parent span id, and — on
//!   responses — worker-side [`WireSpan`]s) sits between the version byte
//!   and `kind`. A v2 frame with `trace_id == 0` is explicitly "untraced".
//!
//! Both versions decode through [`decode_frame_ext`]; a v1-only peer
//! rejects v2 frames as `BadMagic` and drops the connection, which is the
//! signal [`WorkerPool`](crate::WorkerPool) uses to downgrade a link (see
//! its per-link negotiation). Workers always answer in the version the
//! request arrived in, so an old coordinator never sees v2 bytes.
//!
//! Every task frame is **pure and idempotent** — a `SlabForward` computes a
//! deterministic function of its inputs and mutates nothing — so the client
//! may retry at-least-once on timeout without coordination.
//!
//! **Retired tags.** Kind tag 3 carried the stateless `Apply` task (trailing
//! factors against a shipped payload) until RECONSTRUCT moved onto the
//! coordinator. It is retired and must never be reused: a worker decodes it
//! as [`CodecError::BadTag`] and drops the connection, which an older
//! coordinator counts as a failed attempt before falling back to local
//! serving.
//!
//! [`PlanStore`]: https://docs.rs/hdmm-engine

use hdmm_core::codec::{self, CodecError, Reader};
use hdmm_linalg::StructuredMatrix;
use std::io::{Read, Write};

/// Magic prefix of every frame payload: format tag + the v1 version byte.
/// Kept as the public name because v1 is the compatibility baseline.
pub const WIRE_MAGIC: &[u8; 4] = b"HNW1";

/// The version-independent format tag (the first three payload bytes).
pub const WIRE_PREFIX: &[u8; 3] = b"HNW";

/// Version byte of the legacy, extension-free protocol.
pub const PROTO_V1: u8 = b'1';

/// Version byte of the traced protocol (frames carry a [`TraceExt`]).
pub const PROTO_V2: u8 = b'2';

/// Upper bound on a frame's encoded size; length prefixes beyond this are
/// rejected before allocation. Generous: a 2^27-cell slab of `f64`s is 1 GiB.
pub const MAX_FRAME_BYTES: u64 = 1 << 30;

/// Upper bound on spans per [`TraceExt`]; a corrupt count is rejected before
/// allocation.
const MAX_EXT_SPANS: usize = 1 << 16;

/// One worker-side timed section, shipped back inside a response's
/// [`TraceExt`]. Only a name and a duration travel: worker clocks are not
/// comparable with the coordinator's, so the coordinator re-bases each span
/// onto its own timeline from the RPC attempt that carried it (span ids are
/// also assigned coordinator-side, keeping them unique within the trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSpan {
    /// Span name (`worker:forward`, `worker:load`).
    pub name: String,
    /// Duration in nanoseconds on the worker's clock.
    pub dur_ns: u64,
}

/// The v2 frame extension: trace identity on requests, plus worker-side
/// spans on responses.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceExt {
    /// Trace the request belongs to; 0 means "untraced" (the frame is v2
    /// for protocol reasons only).
    pub trace_id: u64,
    /// On requests: the coordinator span the worker's spans will be parented
    /// under. Echoed on responses.
    pub span_id: u64,
    /// Worker-side spans (responses only; empty on requests).
    pub spans: Vec<WireSpan>,
}

impl TraceExt {
    /// A request-side extension carrying just the trace identity.
    pub fn request(trace_id: u64, span_id: u64) -> TraceExt {
        TraceExt {
            trace_id,
            span_id,
            spans: Vec::new(),
        }
    }
}

fn put_ext(out: &mut Vec<u8>, ext: &TraceExt) {
    codec::put_u64(out, ext.trace_id);
    codec::put_u64(out, ext.span_id);
    codec::put_usize(out, ext.spans.len());
    for s in &ext.spans {
        codec::put_str(out, &s.name);
        codec::put_u64(out, s.dur_ns);
    }
}

fn read_ext(r: &mut Reader<'_>) -> Result<TraceExt, CodecError> {
    let trace_id = r.u64()?;
    let span_id = r.u64()?;
    let n = r.count()?;
    if n > MAX_EXT_SPANS {
        return Err(CodecError::Invalid("trace extension span count"));
    }
    let spans = (0..n)
        .map(|_| {
            Ok(WireSpan {
                name: r.str()?,
                dur_ns: r.u64()?,
            })
        })
        .collect::<Result<_, CodecError>>()?;
    Ok(TraceExt {
        trace_id,
        span_id,
        spans,
    })
}

/// Typed error taxonomy a worker can report back to the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The task itself failed (kernel panic, shape mismatch).
    Internal,
    /// The worker does not hold the requested slab (e.g. it restarted); the
    /// client re-pushes the slab and retries.
    UnknownSlab,
    /// The request was structurally invalid for this worker.
    BadTask,
}

impl ErrorCode {
    fn tag(self) -> u8 {
        match self {
            ErrorCode::Internal => 0,
            ErrorCode::UnknownSlab => 1,
            ErrorCode::BadTask => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, CodecError> {
        match tag {
            0 => Ok(ErrorCode::Internal),
            1 => Ok(ErrorCode::UnknownSlab),
            2 => Ok(ErrorCode::BadTask),
            tag => Err(CodecError::BadTag { tag }),
        }
    }
}

/// Every message exchanged between coordinator and shard worker, both
/// directions (requests first, responses after).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Health probe; doubles as the registration handshake.
    Ping,
    /// Pushes one leading-axis slab (`rows` in leading-row coordinates) of a
    /// dataset to the worker. Idempotent: re-loading overwrites.
    LoadSlab {
        /// Dataset the slab belongs to.
        dataset: String,
        /// Shard index within the dataset's partition.
        shard: u64,
        /// Leading-axis row range `[start, end)` the slab covers.
        rows: (u64, u64),
        /// The slab's cells, row-major.
        values: Vec<f64>,
    },
    /// MEASURE phase 1: apply the trailing strategy factors to a slab the
    /// worker owns (raw data never travels for measurement tasks).
    SlabForward {
        /// Dataset whose slab to use.
        dataset: String,
        /// Shard index within the dataset's partition.
        shard: u64,
        /// Trailing factors, outermost first.
        factors: Vec<StructuredMatrix>,
    },
    /// Response to [`Frame::Ping`]: how many slabs the worker holds.
    Pong {
        /// Number of loaded slabs.
        slabs: u64,
    },
    /// Response to [`Frame::LoadSlab`].
    Loaded,
    /// Successful task result: the per-slab partial product.
    Part {
        /// The computed values.
        values: Vec<f64>,
    },
    /// Typed task failure.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Frame {
    /// Short name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Frame::Ping => "ping",
            Frame::LoadSlab { .. } => "load-slab",
            Frame::SlabForward { .. } => "slab-forward",
            Frame::Pong { .. } => "pong",
            Frame::Loaded => "loaded",
            Frame::Part { .. } => "part",
            Frame::Error { .. } => "error",
        }
    }
}

/// Everything that can go wrong talking to a shard worker.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (connect, read, write, timeout).
    Io(std::io::Error),
    /// The bytes arrived but do not decode (corruption, version skew).
    Codec(CodecError),
    /// A length prefix exceeded [`MAX_FRAME_BYTES`]; rejected pre-allocation.
    Oversized {
        /// The claimed frame length.
        len: u64,
        /// The enforced maximum.
        max: u64,
    },
    /// The worker answered with a typed [`Frame::Error`].
    Remote {
        /// Failure class reported by the worker.
        code: ErrorCode,
        /// Worker-side detail.
        message: String,
    },
    /// The worker answered with the wrong frame kind.
    Unexpected {
        /// Kind of the frame actually received.
        got: &'static str,
    },
    /// No worker in the pool could run the task (all dead / pool empty).
    NoWorkers,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport: {e}"),
            NetError::Codec(e) => write!(f, "frame decode: {e}"),
            NetError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds maximum {max}")
            }
            NetError::Remote { code, message } => {
                write!(f, "worker error ({code:?}): {message}")
            }
            NetError::Unexpected { got } => write!(f, "unexpected response frame: {got}"),
            NetError::NoWorkers => write!(f, "no live workers available"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

/// Factor lists on the wire may be empty (a single-factor Kronecker strategy
/// has no trailing factors), unlike strategy factor lists in the shared
/// codec — hence dedicated helpers.
fn put_factors(out: &mut Vec<u8>, fs: &[StructuredMatrix]) {
    codec::put_usize(out, fs.len());
    for f in fs {
        codec::put_structured(out, f);
    }
}

fn read_factors(r: &mut Reader<'_>) -> Result<Vec<StructuredMatrix>, CodecError> {
    let n = r.count()?;
    (0..n).map(|_| r.structured()).collect()
}

/// Encodes a v1 frame payload (magic + kind + body + checksum trailer)
/// without the stream length prefix — what [`decode_frame`] accepts.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    encode_frame_ext(frame, None)
}

/// Encodes a frame payload in the version implied by `ext`: `None` ⇒ the
/// legacy v1 bytes (identical to what pre-versioning builds emitted),
/// `Some` ⇒ v2 with the extension between version byte and kind.
pub fn encode_frame_ext(frame: &Frame, ext: Option<&TraceExt>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(WIRE_PREFIX);
    match ext {
        None => out.push(PROTO_V1),
        Some(ext) => {
            out.push(PROTO_V2);
            put_ext(&mut out, ext);
        }
    }
    put_body(&mut out, frame);
    codec::seal(&mut out);
    out
}

fn put_body(out: &mut Vec<u8>, frame: &Frame) {
    match frame {
        Frame::Ping => out.push(0),
        Frame::LoadSlab {
            dataset,
            shard,
            rows,
            values,
        } => {
            out.push(1);
            codec::put_str(out, dataset);
            codec::put_u64(out, *shard);
            codec::put_u64(out, rows.0);
            codec::put_u64(out, rows.1);
            codec::put_f64s(out, values);
        }
        Frame::SlabForward {
            dataset,
            shard,
            factors,
        } => {
            out.push(2);
            codec::put_str(out, dataset);
            codec::put_u64(out, *shard);
            put_factors(out, factors);
        }
        Frame::Pong { slabs } => {
            out.push(4);
            codec::put_u64(out, *slabs);
        }
        Frame::Loaded => out.push(5),
        Frame::Part { values } => {
            out.push(6);
            codec::put_f64s(out, values);
        }
        Frame::Error { code, message } => {
            out.push(7);
            out.push(code.tag());
            codec::put_str(out, message);
        }
    }
}

/// Decodes a frame payload of either protocol version, discarding any trace
/// extension — see [`decode_frame_ext`] to keep it.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, CodecError> {
    decode_frame_ext(bytes).map(|(frame, _)| frame)
}

/// Decodes a frame payload produced by [`encode_frame_ext`]: verifies the
/// checksum trailer, the prefix, the version, the kind tag, and full
/// consumption. Returns the frame plus its trace extension (`None` for v1
/// frames). Any corruption — truncation, bit flips, oversized element
/// counts, trailing garbage — yields a typed [`CodecError`], never a panic
/// or a partial read. An unknown version byte is [`CodecError::BadMagic`],
/// exactly what a pre-versioning peer reports for a v2 frame.
pub fn decode_frame_ext(bytes: &[u8]) -> Result<(Frame, Option<TraceExt>), CodecError> {
    let payload = codec::open(bytes)?;
    let mut r = Reader::new(payload);
    if r.take(WIRE_PREFIX.len())? != WIRE_PREFIX {
        return Err(CodecError::BadMagic);
    }
    let ext = match r.u8()? {
        PROTO_V1 => None,
        PROTO_V2 => Some(read_ext(&mut r)?),
        _ => return Err(CodecError::BadMagic),
    };
    let frame = match r.u8()? {
        0 => Frame::Ping,
        1 => Frame::LoadSlab {
            dataset: r.str()?,
            shard: r.u64()?,
            rows: (r.u64()?, r.u64()?),
            values: r.f64s()?,
        },
        2 => Frame::SlabForward {
            dataset: r.str()?,
            shard: r.u64()?,
            factors: read_factors(&mut r)?,
        },
        // 3 is the retired `Apply` task; it falls through to `BadTag`.
        4 => Frame::Pong { slabs: r.u64()? },
        5 => Frame::Loaded,
        6 => Frame::Part { values: r.f64s()? },
        7 => Frame::Error {
            code: ErrorCode::from_tag(r.u8()?)?,
            message: r.str()?,
        },
        tag => return Err(CodecError::BadTag { tag }),
    };
    r.expect_end()?;
    Ok((frame, ext))
}

/// Writes one length-prefixed v1 frame to a stream and flushes it.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    write_frame_ext(w, frame, None)
}

/// Writes one length-prefixed frame to a stream and flushes it, in the
/// version implied by `ext` (see [`encode_frame_ext`]).
pub fn write_frame_ext(
    w: &mut impl Write,
    frame: &Frame,
    ext: Option<&TraceExt>,
) -> std::io::Result<()> {
    let payload = encode_frame_ext(frame, ext);
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "frame exceeds u32 length")
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&payload)?;
    w.flush()
}

/// Reads one length-prefixed frame of either version, discarding any trace
/// extension.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, NetError> {
    read_frame_ext(r).map(|(frame, _)| frame)
}

/// Reads one length-prefixed frame from a stream, returning its trace
/// extension (`None` for v1 frames). The length prefix is bounds-checked
/// against [`MAX_FRAME_BYTES`] *before* the payload buffer is allocated, so
/// a corrupt prefix costs nothing.
pub fn read_frame_ext(r: &mut impl Read) -> Result<(Frame, Option<TraceExt>), NetError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u64::from(u32::from_le_bytes(len_bytes));
    if len > MAX_FRAME_BYTES {
        return Err(NetError::Oversized {
            len,
            max: MAX_FRAME_BYTES,
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(decode_frame_ext(&payload)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_round_trip() {
        let frame = Frame::Part {
            values: vec![1.5, -2.5, 0.0],
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let back = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        match read_frame(&mut buf.as_slice()) {
            Err(NetError::Oversized { len, .. }) => assert_eq!(len, u64::from(u32::MAX)),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn v1_bytes_are_the_legacy_format() {
        // The compatibility contract: an ext-free encode starts with the
        // exact legacy magic, so pre-versioning peers accept it.
        let payload = encode_frame(&Frame::Ping);
        assert_eq!(&payload[..4], WIRE_MAGIC);
        let (frame, ext) = decode_frame_ext(&payload).unwrap();
        assert_eq!(frame, Frame::Ping);
        assert_eq!(ext, None);
    }

    #[test]
    fn v2_round_trips_the_trace_extension() {
        let ext = TraceExt {
            trace_id: 0xdead_beef,
            span_id: 42,
            spans: vec![
                WireSpan {
                    name: "worker:forward".into(),
                    dur_ns: 1_234,
                },
                WireSpan {
                    name: "worker:load".into(),
                    dur_ns: 9,
                },
            ],
        };
        let frame = Frame::Part {
            values: vec![1.0, 2.0],
        };
        let mut buf = Vec::new();
        write_frame_ext(&mut buf, &frame, Some(&ext)).unwrap();
        let (back, back_ext) = read_frame_ext(&mut buf.as_slice()).unwrap();
        assert_eq!(back, frame);
        assert_eq!(back_ext, Some(ext));
    }

    #[test]
    fn v2_frames_read_as_bad_magic_by_a_v1_only_decoder() {
        // What an old worker does with a v2 frame: its strict "HNW1" check
        // fails. The shared decoder reports the same class of error for an
        // unknown version, so both directions of skew degrade identically.
        let payload = encode_frame_ext(&Frame::Ping, Some(&TraceExt::request(1, 1)));
        assert_ne!(&payload[..4], WIRE_MAGIC);
        // A well-formed frame of an unknown future version: same error class.
        let mut future = Vec::new();
        future.extend_from_slice(WIRE_PREFIX);
        future.push(b'9');
        future.push(0); // Ping
        codec::seal(&mut future);
        assert!(matches!(
            decode_frame_ext(&future),
            Err(CodecError::BadMagic)
        ));
    }

    #[test]
    fn untraced_v2_is_legal() {
        let payload = encode_frame_ext(&Frame::Loaded, Some(&TraceExt::request(0, 0)));
        let (frame, ext) = decode_frame_ext(&payload).unwrap();
        assert_eq!(frame, Frame::Loaded);
        assert_eq!(ext.unwrap().trace_id, 0);
    }

    #[test]
    fn truncated_stream_is_a_typed_io_error() {
        let frame = Frame::Pong { slabs: 3 };
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(NetError::Io(_))
        ));
    }
}
