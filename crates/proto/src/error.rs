//! The error type shared by every layer of the TDP stack.

use crate::ids::{Addr, ContextId, HostId, Pid};
use std::fmt;

/// Result alias used across the workspace.
pub type TdpResult<T> = Result<T, TdpError>;

/// Errors produced by TDP operations.
///
/// The paper specifies C-style integer returns; we map each failure the
/// prose mentions (e.g. "an error is returned if the attribute is not
/// contained in the shared space" for the non-blocking get) onto a
/// dedicated variant so callers can match on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TdpError {
    /// Non-blocking get on an attribute absent from the space (§3.2).
    AttributeNotFound(String),
    /// An attribute key failed validation (empty, or contains NUL).
    InvalidAttribute(String),
    /// An attribute value failed validation (contains NUL).
    InvalidValue(String),
    /// The referenced context is unknown or already destroyed.
    NoSuchContext(ContextId),
    /// Operation on a pid the kernel does not know about.
    NoSuchProcess(Pid),
    /// Operation required a process state the target is not in
    /// (e.g. `tdp_continue_process` on an already-running process).
    WrongProcessState {
        pid: Pid,
        state: String,
        wanted: String,
    },
    /// `tdp_attach` when another tracer is already attached.
    AlreadyTraced(Pid),
    /// Detach / control operation by a process that is not the tracer.
    NotTracer(Pid),
    /// The referenced host does not exist in the simulation.
    NoSuchHost(HostId),
    /// Nothing is listening on the destination address.
    ConnectionRefused(Addr),
    /// A firewall / private-network boundary blocked a direct connection;
    /// the caller must use the resource manager's proxy (§2.4).
    BlockedByFirewall { from: HostId, to: Addr },
    /// The peer closed the connection.
    Disconnected,
    /// A blocking call exceeded its deadline.
    Timeout,
    /// Executable not found on the execution host (staging failure).
    NoSuchFile(String),
    /// The handle was already closed by `tdp_exit`.
    HandleClosed,
    /// Malformed wire data.
    Protocol(String),
    /// Failure inside a substrate (scheduler, tool) with a human message.
    Substrate(String),
}

impl TdpError {
    /// Transport-shaped failures worth retrying: the server may still
    /// be restarting (refused/timeout), the network healing
    /// (firewall/partition), or the real socket gone (substrate).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            TdpError::Disconnected
                | TdpError::ConnectionRefused(_)
                | TdpError::Timeout
                | TdpError::BlockedByFirewall { .. }
                | TdpError::Substrate(_)
        )
    }
}

impl fmt::Display for TdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TdpError::AttributeNotFound(a) => write!(f, "attribute not found: {a:?}"),
            TdpError::InvalidAttribute(a) => write!(f, "invalid attribute name: {a:?}"),
            TdpError::InvalidValue(v) => write!(f, "invalid attribute value: {v:?}"),
            TdpError::NoSuchContext(c) => write!(f, "no such context: {c}"),
            TdpError::NoSuchProcess(p) => write!(f, "no such process: pid {p}"),
            TdpError::WrongProcessState { pid, state, wanted } => {
                write!(f, "pid {pid} is {state}, operation requires {wanted}")
            }
            TdpError::AlreadyTraced(p) => write!(f, "pid {p} already has a tracer attached"),
            TdpError::NotTracer(p) => write!(f, "caller is not the tracer of pid {p}"),
            TdpError::NoSuchHost(h) => write!(f, "no such host: {h}"),
            TdpError::ConnectionRefused(a) => write!(f, "connection refused: {a}"),
            TdpError::BlockedByFirewall { from, to } => {
                write!(
                    f,
                    "firewall blocked connection {from} -> {to} (use the RM proxy)"
                )
            }
            TdpError::Disconnected => write!(f, "peer disconnected"),
            TdpError::Timeout => write!(f, "operation timed out"),
            TdpError::NoSuchFile(p) => write!(f, "no such file: {p}"),
            TdpError::HandleClosed => write!(f, "TDP handle already closed by tdp_exit"),
            TdpError::Protocol(m) => write!(f, "protocol error: {m}"),
            TdpError::Substrate(m) => write!(f, "substrate error: {m}"),
        }
    }
}

impl std::error::Error for TdpError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::HostId;

    #[test]
    fn display_is_informative() {
        let e = TdpError::BlockedByFirewall {
            from: HostId(2),
            to: Addr::new(HostId(0), 2090),
        };
        let s = e.to_string();
        assert!(s.contains("host2"));
        assert!(s.contains("2090"));
        assert!(s.contains("proxy"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TdpError>();
    }

    #[test]
    fn wrong_state_names_both_states() {
        let e = TdpError::WrongProcessState {
            pid: Pid(9),
            state: "Running".into(),
            wanted: "Stopped".into(),
        };
        let s = e.to_string();
        assert!(s.contains("Running") && s.contains("Stopped"));
    }
}
