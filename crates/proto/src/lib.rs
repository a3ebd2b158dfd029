//! Shared identifiers, wire frames, standard attribute names and error
//! types for the Tool Dæmon Protocol (TDP).
//!
//! This crate is the dependency root of the TDP workspace: every other
//! crate — the simulated network (`tdp-netsim`), the simulated operating
//! system (`tdp-simos`), the attribute-space servers (`tdp-attrspace`),
//! the TDP client library (`tdp-core`) and the two substrate systems
//! (Condor-like resource manager, Paradyn-like run-time tool) — agrees on
//! the vocabulary defined here.
//!
//! The TDP paper (Miller, Cortés, Senar, Livny; SC'03) constrains the
//! attribute space to `(attribute, value)` pairs of NUL-terminated C
//! strings. We keep the same restriction (`String` values, no interior
//! NULs) and layer typed helpers on top in `tdp-core`.

pub mod attr;
pub mod backoff;
pub mod error;
pub mod frame;
pub mod ids;
pub mod json;
pub mod message;

pub use attr::{names, AttrKey, AttrValue, OPS_CONTEXT};
pub use backoff::Backoff;
pub use error::{TdpError, TdpResult};
pub use frame::{
    check_sendable, decode_frame, decode_frame_with, encode_frame, encode_frame_into,
    DecodeScratch, FrameDecoder, FrameError, MAX_FRAME,
};
pub use ids::{Addr, ContextId, HostId, JobId, Pid, Port, Rank};
pub use json::{Json, JsonError};
pub use message::{AsMessage, Message, ProcRequest, ProcStatus, Reply};
