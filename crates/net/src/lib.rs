//! Distributed shard fan-out for the HDMM serving engine.
//!
//! This crate extends the in-process sharded pipeline of
//! [`hdmm_mechanism::sharded`] across machine boundaries:
//!
//! * [`wire`] — a length-prefixed, checksummed frame codec for shard-task
//!   RPCs, built on the same [`hdmm_core::codec`] primitives as the plan
//!   store on disk;
//! * [`worker`] — the shard worker: a TCP server owning pushed data slabs
//!   and evaluating pure trailing-factor kernels against them (also shipped
//!   as the `hdmm-shard-worker` binary);
//! * [`client`] — the coordinator's [`WorkerPool`]: task routing with
//!   per-task timeouts, bounded retry with backoff, shard reassignment to
//!   surviving workers, and per-worker health counters;
//! * [`remote`] — [`RemoteOptions`] and [`SlabRpc`], the source that runs
//!   MEASURE's per-slab products on the workers inside the checked
//!   [`Pipeline`](hdmm_mechanism::Pipeline); everything else runs on the
//!   coordinator, bitwise identical to the dense single-node pipeline for
//!   every worker count.
//!
//! The design keeps workers stateless in the failure sense: the coordinator
//! holds the authoritative data, slabs are pushed (and re-pushed) on demand,
//! and tasks are pure and idempotent — which is what makes at-least-once
//! retry and reassignment safe without any distributed coordination.

pub mod client;
pub mod remote;
pub mod wire;
pub mod worker;

pub use client::{PoolHealth, RetryPolicy, WorkerHealth, WorkerPool};
pub use remote::{RemoteError, RemoteOptions, SlabRpc};
pub use wire::{
    decode_frame, decode_frame_ext, encode_frame, encode_frame_ext, read_frame, read_frame_ext,
    write_frame, write_frame_ext, ErrorCode, Frame, NetError, TraceExt, WireSpan, MAX_FRAME_BYTES,
    PROTO_V1, PROTO_V2, WIRE_MAGIC, WIRE_PREFIX,
};
pub use worker::{spawn_worker, WorkerHandle, WorkerOptions};
