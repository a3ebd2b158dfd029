//! Wire messages exchanged between TDP clients and the attribute-space
//! servers (LASS / CASS), plus the process-status vocabulary carried in
//! attribute values.

use crate::error::TdpError;
use crate::ids::ContextId;

/// A request sent by a TDP client (RM or RT daemon) to an attribute-space
/// server, or the server's reply.
///
/// The put/get pair is the §3.2 interface; `Subscribe` backs
/// `tdp_async_get` (the server pushes a [`Reply::Notify`] when the
/// attribute is stored), `Join`/`Leave` back context reference counting
/// (`tdp_init` / `tdp_exit`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// `tdp_put(handle, attribute, value)`.
    Put {
        ctx: ContextId,
        key: String,
        value: String,
    },
    /// `tdp_get(handle, attribute, &value)`. When `blocking`, the server
    /// parks the request until a matching put arrives; otherwise an
    /// absent attribute yields `AttributeNotFound` (§3.2).
    Get {
        ctx: ContextId,
        key: String,
        blocking: bool,
    },
    /// Remove an attribute ("attributes and values can be inserted and
    /// removed", §2.1). Succeeds even when absent.
    Remove { ctx: ContextId, key: String },
    /// Register interest: the server sends `Reply::Notify` carrying
    /// `token` when `key` is put. With `only_future` false, an already
    /// existing value notifies immediately (the `tdp_async_get` case);
    /// with it true, only a subsequent put fires (persistent watches
    /// re-arming without re-seeing the current value).
    Subscribe {
        ctx: ContextId,
        key: String,
        token: u64,
        only_future: bool,
    },
    /// Cancel a subscription.
    Unsubscribe { ctx: ContextId, token: u64 },
    /// Enumerate keys in the context with the given prefix (diagnostic /
    /// tooling extension).
    ListKeys { ctx: ContextId, prefix: String },
    /// Join a context (refcount +1). Sent by `tdp_init`.
    Join { ctx: ContextId },
    /// Leave a context (refcount −1; space destroyed at zero). Sent by
    /// `tdp_exit`.
    Leave { ctx: ContextId },
    /// A server → client reply or notification.
    Reply(Reply),
    /// Transport-level client introduction: the first frame a client
    /// sends over a real socket, declaring which logical host it runs
    /// on. The simulated network carries host identity in its addresses,
    /// so netsim connections never send this; real TCP connections need
    /// it for the LASS locality rule ("a process … cannot access the
    /// LASS's of other nodes", §2.1).
    Hello { host: crate::ids::HostId },
}

/// Server → client payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Operation completed.
    Ok,
    /// Result of a `Get`.
    Value { key: String, value: String },
    /// Result of `ListKeys`.
    Keys(Vec<String>),
    /// Asynchronous notification for a `Subscribe`.
    Notify {
        token: u64,
        key: String,
        value: String,
    },
    /// Operation failed.
    Err(TdpError),
}

/// Convenience for extracting a typed reply out of a [`Message`].
pub trait AsMessage {
    fn into_reply(self) -> Result<Reply, TdpError>;
}

impl AsMessage for Message {
    fn into_reply(self) -> Result<Reply, TdpError> {
        match self {
            Message::Reply(r) => Ok(r),
            other => Err(TdpError::Protocol(format!("expected reply, got {other:?}"))),
        }
    }
}

/// Application-process status as published by the RM in the `ap_status`
/// attribute (§2.3: "When the RM needs to notify the RT about a change in
/// process status, it places a value in the Attribute Space").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcStatus {
    /// Created but not yet started (stopped at exec).
    Created,
    Running,
    Stopped,
    Exited(i32),
    Killed(i32),
}

impl ProcStatus {
    /// Attribute-value string form.
    pub fn to_attr_value(self) -> String {
        match self {
            ProcStatus::Created => "created".to_string(),
            ProcStatus::Running => "running".to_string(),
            ProcStatus::Stopped => "stopped".to_string(),
            ProcStatus::Exited(c) => format!("exited:{c}"),
            ProcStatus::Killed(s) => format!("killed:{s}"),
        }
    }

    /// Parse the attribute-value string form.
    pub fn parse(s: &str) -> Option<ProcStatus> {
        match s {
            "created" => Some(ProcStatus::Created),
            "running" => Some(ProcStatus::Running),
            "stopped" => Some(ProcStatus::Stopped),
            _ => {
                if let Some(c) = s.strip_prefix("exited:") {
                    c.parse().ok().map(ProcStatus::Exited)
                } else if let Some(c) = s.strip_prefix("killed:") {
                    c.parse().ok().map(ProcStatus::Killed)
                } else {
                    None
                }
            }
        }
    }

    /// True for `Exited` and `Killed`.
    pub fn is_terminal(self) -> bool {
        matches!(self, ProcStatus::Exited(_) | ProcStatus::Killed(_))
    }
}

/// Process-management request an RT writes to the `proc_request`
/// attribute for the RM to service (§2.3 single-point process control).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcRequest {
    Continue,
    Pause,
    Kill(i32),
}

impl ProcRequest {
    pub fn to_attr_value(self) -> String {
        match self {
            ProcRequest::Continue => "continue".to_string(),
            ProcRequest::Pause => "pause".to_string(),
            ProcRequest::Kill(s) => format!("kill:{s}"),
        }
    }

    pub fn parse(s: &str) -> Option<ProcRequest> {
        match s {
            "continue" => Some(ProcRequest::Continue),
            "pause" => Some(ProcRequest::Pause),
            _ => s
                .strip_prefix("kill:")
                .and_then(|c| c.parse().ok())
                .map(ProcRequest::Kill),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_status_roundtrip() {
        for st in [
            ProcStatus::Created,
            ProcStatus::Running,
            ProcStatus::Stopped,
            ProcStatus::Exited(0),
            ProcStatus::Exited(-3),
            ProcStatus::Killed(9),
        ] {
            assert_eq!(ProcStatus::parse(&st.to_attr_value()), Some(st));
        }
    }

    #[test]
    fn proc_status_parse_rejects_garbage() {
        assert_eq!(ProcStatus::parse("flying"), None);
        assert_eq!(ProcStatus::parse("exited:"), None);
        assert_eq!(ProcStatus::parse("exited:x"), None);
    }

    #[test]
    fn terminal_statuses() {
        assert!(ProcStatus::Exited(0).is_terminal());
        assert!(ProcStatus::Killed(9).is_terminal());
        assert!(!ProcStatus::Running.is_terminal());
        assert!(!ProcStatus::Created.is_terminal());
        assert!(!ProcStatus::Stopped.is_terminal());
    }

    #[test]
    fn proc_request_roundtrip() {
        for r in [
            ProcRequest::Continue,
            ProcRequest::Pause,
            ProcRequest::Kill(15),
        ] {
            assert_eq!(ProcRequest::parse(&r.to_attr_value()), Some(r));
        }
        assert_eq!(ProcRequest::parse("dance"), None);
    }

    #[test]
    fn into_reply() {
        let m = Message::Reply(Reply::Ok);
        assert_eq!(m.into_reply().unwrap(), Reply::Ok);
        let m = Message::Join { ctx: ContextId(1) };
        assert!(m.into_reply().is_err());
    }
}
