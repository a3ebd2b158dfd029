//! # tdp-netsim — the simulated network substrate
//!
//! The TDP paper runs its daemons across a real cluster: front-end
//! machines on the public network, execution machines behind a firewall
//! or NAT (Figure 1). This crate reproduces exactly the properties that
//! TDP's communication layer depends on, in memory:
//!
//! * **hosts** with **ports**, **listeners** and bidirectional,
//!   stream-ordered **connections**;
//! * **network zones** — a public zone plus any number of private
//!   networks whose boundary *blocks* direct cross-zone connections
//!   according to a configurable [`FirewallPolicy`];
//! * **authorized routes** — the pre-existing permissions the resource
//!   manager already holds ("TDP does not require new proxy facilities
//!   with new permissions; it merely leverages existing ones", §2.4);
//! * a generic byte-relay [`proxy`] that an RM runs on such an
//!   authorized route so tools and application stdio can cross the
//!   boundary;
//! * **failure injection** (host kill, zone partition).
//!
//! Everything is synchronous and thread-based: a connection is a pair of
//! in-memory pipes guarded by `tdp-sync` mutex/condvar, so blocking
//! `recv` parks the calling thread exactly like a blocking `read(2)`.

pub mod chaos;
mod conn;
mod network;
pub mod proxy;

pub use chaos::{FaultEvent, FaultInjector, FaultLogEntry, FaultSchedule};
pub use conn::{Conn, ConnRx, ConnTx, Listener};
pub use network::{FirewallPolicy, NetStats, Network, ZoneId};
