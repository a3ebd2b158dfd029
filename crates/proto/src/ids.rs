//! Small copy identifiers shared across the TDP workspace.
//!
//! All identifiers are newtypes over small integers so that they are
//! `Copy`, hash cheaply, and cannot be confused with one another at type
//! level (a `Pid` is not a `Port`).

use std::fmt;

/// A logical host in the simulated cluster.
///
/// Host 0 is conventionally the *submit* / front-end machine (the user's
/// desktop outside the private network in Figure 1 of the paper); higher
/// ids are execution machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

crate::json_struct!(HostId(u32));

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// A process identifier, unique across the whole simulated cluster.
///
/// Real Unix pids are per-host; making them cluster-unique simplifies the
/// attribute space payloads ("PID" attributes) without changing any TDP
/// semantics — the paper's `-a%pid` substitution carries exactly one pid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u64);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Pid {
    /// Parse a pid from its attribute-space string form.
    pub fn parse(s: &str) -> Option<Pid> {
        s.trim().parse::<u64>().ok().map(Pid)
    }
}

/// A port number on a simulated host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Port(pub u16);

crate::json_struct!(Port(u16));

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A network address: `(host, port)` — what the paper calls the
/// "host/port number pair" disseminated through the attribute space so a
/// tool daemon can contact its front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Addr {
    pub host: HostId,
    pub port: Port,
}

crate::json_struct!(Addr { host, port });

impl Addr {
    pub fn new(host: HostId, port: u16) -> Addr {
        Addr {
            host,
            port: Port(port),
        }
    }

    /// Render in the `host:port` form used as an attribute value.
    pub fn to_attr_value(self) -> String {
        format!("{}:{}", self.host.0, self.port.0)
    }

    /// Parse the `host:port` attribute-value form.
    pub fn parse(s: &str) -> Option<Addr> {
        let (h, p) = s.split_once(':')?;
        Some(Addr {
            host: HostId(h.trim().parse().ok()?),
            port: Port(p.trim().parse().ok()?),
        })
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.host, self.port)
    }
}

/// An attribute-space *context*.
///
/// Section 3.2: "Each RT interacts with the RM through its own local
/// Attribute Space, called a context. A different context parameter is
/// used by the RM in each `tdp_init` call to create a different space."
/// Contexts are reference counted by the server; the space is destroyed
/// when the last member calls `tdp_exit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContextId(pub u64);

impl ContextId {
    /// The default context used when an RM manages a single RT.
    pub const DEFAULT: ContextId = ContextId(0);
}

impl fmt::Display for ContextId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctx{}", self.0)
    }
}

/// A batch job identifier (Condor "cluster.proc" collapsed to one number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

crate::json_struct!(JobId(u64));

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// An MPI rank within a parallel job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rank(pub u32);

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_roundtrip() {
        let a = Addr::new(HostId(3), 2090);
        assert_eq!(Addr::parse(&a.to_attr_value()), Some(a));
    }

    #[test]
    fn addr_parse_rejects_garbage() {
        assert_eq!(Addr::parse("nonsense"), None);
        assert_eq!(Addr::parse("1:"), None);
        assert_eq!(Addr::parse(":2090"), None);
        assert_eq!(Addr::parse("1:2:3"), None);
        assert_eq!(Addr::parse(""), None);
    }

    #[test]
    fn addr_parse_tolerates_whitespace() {
        assert_eq!(Addr::parse(" 1 : 2090 "), Some(Addr::new(HostId(1), 2090)));
    }

    #[test]
    fn pid_parse() {
        assert_eq!(Pid::parse("42"), Some(Pid(42)));
        assert_eq!(Pid::parse(" 42\n"), Some(Pid(42)));
        assert_eq!(Pid::parse("-1"), None);
        assert_eq!(Pid::parse("pid"), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(HostId(7).to_string(), "host7");
        assert_eq!(JobId(1).to_string(), "job1");
        assert_eq!(Rank(3).to_string(), "rank3");
        assert_eq!(ContextId(5).to_string(), "ctx5");
        assert_eq!(Addr::new(HostId(1), 9).to_string(), "host1:9");
    }

    #[test]
    fn ids_order_by_value() {
        assert!(Pid(1) < Pid(2));
        assert!(HostId(0) < HostId(1));
        assert!(JobId(9) < JobId(10));
    }
}
