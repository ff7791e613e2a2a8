//! Remote execution over TCP: framed protocol, worker server, manager
//! client and fault injection.
//!
//! The module is layered exactly like the wire:
//!
//! * [`codec`] — bounds-checked little-endian primitives shared by every
//!   payload (strings, counters, job statistics).
//! * [`frame`] — the length-delimited, FNV-checksummed frame around each
//!   message, plus the opcode space.
//! * [`fault`] — the [`FaultPlan`] a test installs on a worker to trigger
//!   drops, delays, corruption and kills deterministically.
//! * [`client`] — the manager side: exponential-backoff connect, per-task
//!   deadlines, self-healing reconnects.
//! * [`worker`] — the worker side: a [`WorkerServer`] dispatching frames
//!   to a [`FrameHandler`] chain, with the fault seam on its response
//!   path.
//!
//! The domain protocol on top — shard provisioning and per-shard queries
//! — lives in `spq-core`'s remote engine, which installs its shard host
//! as a [`FrameHandler`].

pub mod client;
pub mod codec;
pub mod fault;
pub mod frame;
pub mod worker;

pub use client::{Backoff, ClientConfig, RemoteError, WorkerClient};
pub use codec::{ByteReader, CodecError};
pub use fault::FaultPlan;
pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};
pub use frame::{
    OP_ERROR, OP_FAULT_OK, OP_PING, OP_PONG, OP_PROVISION, OP_PROVISION_OK, OP_SET_FAULT,
    OP_SHARD_QUERY, OP_SHARD_RESULT, OP_SHARD_STATUS, OP_SHARD_STATUS_OK, OP_SHUTDOWN,
};
pub use worker::{
    decode_error_payload, encode_error_payload, expect_reply, FrameHandler, WorkerServer,
    FAULT_EXIT_CODE,
};
