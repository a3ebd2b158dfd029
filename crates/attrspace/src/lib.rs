//! # tdp-attrspace — the Attribute Space servers (LASS / CASS)
//!
//! §2.1 of the paper: "Each host on which an application process (and
//! tool daemon) runs has a local instance of the attribute space server
//! (LASS). There is also a central attribute space server (CASS) process
//! on the host running the tool front-end. A process using the TDP
//! library can access the attribute space of its LASS or the CASS, but
//! cannot access the LASS's of other nodes."
//!
//! The space stores `(attribute, value)` string pairs per **context**
//! (§3.2): each RM↔RT pairing gets its own context, created by the first
//! `Join` (`tdp_init`) and destroyed when the last member `Leave`s
//! (`tdp_exit`). Operations:
//!
//! * `put` — store; wakes blocked getters and notifies subscriptions;
//! * `get` (blocking) — parks the caller until the attribute exists
//!   (this is what lets `paradynd` block on `"pid"` in Figure 6 until
//!   the starter puts it);
//! * `get` (non-blocking) — error if absent;
//! * `subscribe`/`unsubscribe` — asynchronous notification of every put
//!   until cancelled, backing `tdp_async_get` and watches (the
//!   semantics are stated once, at [`space::Space::subscribe`]);
//! * `remove`, `list_keys` — housekeeping.
//!
//! The crate is split into a **pure state machine** ([`space::Space`]:
//! every operation returns the replies to emit, no I/O) and a thin
//! networked **server** ([`server::AttrSpaceServer`]) plus **client**
//! ([`client::AttrClient`]) that move those replies over `tdp-netsim`
//! connections. The pure core is where the protocol invariants live and
//! is property-tested directly.

pub mod client;
pub mod server;
pub mod space;

pub use client::{AttrClient, Dialer, ReconnectPolicy};
pub use server::{AttrSpaceServer, ServerKind};
pub use space::{ClientId, Out, Space};
