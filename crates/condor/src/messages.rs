//! Wire messages between Condor daemons (JSON-encoded, one message per
//! network chunk) and the tiny send/recv helpers.

use crate::classad::ClassAd;
use crate::submit::SubmitDescription;
use std::time::Duration;
use tdp_netsim::Conn;
use tdp_proto::json::{Blob, FromJson, ToJson};
use tdp_proto::{json, json_enum, json_struct, Addr, HostId, JobId, TdpResult};

/// Messages to/from the matchmaker (collector + negotiator).
#[derive(Debug, Clone)]
pub enum MmMsg {
    /// startd → matchmaker: advertise a machine.
    RegisterMachine {
        name: String,
        host: HostId,
        startd: Addr,
        ad: ClassAd,
    },
    /// startd → matchmaker: update availability.
    UpdateMachine { name: String, available: bool },
    /// startd → matchmaker: leaving the pool.
    UnregisterMachine { name: String },
    /// schedd → matchmaker: find a machine for this job ad, excluding
    /// the named machines (already claimed for the same MPI job). When
    /// nothing matches, the matchmaker holds the request for up to
    /// `budget_us` microseconds and answers as soon as a machine
    /// registers or frees up (0: answer at once).
    Negotiate {
        job_ad: ClassAd,
        exclude: Vec<String>,
        budget_us: u64,
    },
    /// matchmaker → schedd.
    MatchFound {
        name: String,
        host: HostId,
        startd: Addr,
        ad: ClassAd,
    },
    /// matchmaker → schedd: nothing matched within the budget.
    NoMatch,
    /// Acknowledgement for register/update/unregister.
    Ack,
    /// schedd/tests → matchmaker: dump the machine table.
    QueryMachines,
    /// matchmaker reply: (name, available) pairs.
    Machines(Vec<(String, bool)>),
}

json_enum!(MmMsg {
    RegisterMachine { name, host, startd, ad },
    UpdateMachine { name, available },
    UnregisterMachine { name },
    Negotiate { job_ad, exclude, budget_us },
    MatchFound { name, host, startd, ad },
    NoMatch,
    Ack,
    QueryMachines,
    Machines(Vec<(String, bool)>),
});

/// Everything the starter needs to run one (rank of a) job.
#[derive(Debug, Clone)]
pub struct JobDetails {
    pub job: JobId,
    pub submit: SubmitDescription,
    /// Where the shadow for this job listens (remote syscalls + status).
    pub shadow: Addr,
    /// Submit host (source of staged files).
    pub submit_host: HostId,
    /// MPI rank this activation runs (0 for Vanilla/Standard).
    pub rank: u32,
    /// Tool daemons for non-zero ranks auto-run (§4.3: they
    /// "immediately issue a run command").
    pub tool_auto_run: bool,
}

json_struct!(JobDetails {
    job,
    submit,
    shadow,
    submit_host,
    rank,
    tool_auto_run,
});

/// Claiming-protocol and activation messages (schedd ↔ startd).
#[derive(Debug, Clone)]
pub enum ClaimMsg {
    /// schedd → startd: may I claim this machine for `job`?
    RequestClaim { job: JobId },
    /// startd → schedd: claim granted.
    ClaimAccepted { claim_id: u64 },
    /// startd → schedd: machine busy or gone.
    ClaimRejected { reason: String },
    /// schedd → startd: run this job under the claim. (Boxed: the
    /// details dwarf the other variants.)
    ActivateClaim {
        claim_id: u64,
        details: Box<JobDetails>,
    },
    /// startd → schedd: starter launched.
    Activated,
    /// schedd → startd: give the machine back.
    ReleaseClaim { claim_id: u64 },
    /// startd → schedd: released.
    Released,
}

json_enum!(ClaimMsg {
    RequestClaim { job },
    ClaimAccepted { claim_id },
    ClaimRejected { reason },
    ActivateClaim { claim_id, details },
    Activated,
    ReleaseClaim { claim_id },
    Released,
});

/// Remote-syscall and status messages (starter → shadow), plus replies.
#[derive(Debug, Clone)]
pub enum ShadowMsg {
    /// Read a file on the submit machine.
    FetchFile {
        path: String,
    },
    FileData {
        path: String,
        data: Blob,
    },
    FileError {
        path: String,
        error: String,
    },
    /// Write a file on the submit machine (output staging).
    StoreFile {
        path: String,
        data: Blob,
    },
    StoreOk,
    /// Job status change, as an attribute-style string.
    StatusUpdate {
        job: JobId,
        rank: u32,
        status: String,
    },
    /// Terminal report.
    JobDone {
        job: JobId,
        rank: u32,
        status: String,
    },
    /// The starter could not run this rank at all (staging failure,
    /// missing executable, dead tool…). The schedd may requeue.
    RankFailed {
        job: JobId,
        rank: u32,
        error: String,
    },
    Ack,
}

json_enum!(ShadowMsg {
    FetchFile { path },
    FileData { path, data },
    FileError { path, error },
    StoreFile { path, data },
    StoreOk,
    StatusUpdate { job, rank, status },
    JobDone { job, rank, status },
    RankFailed { job, rank, error },
    Ack,
});

/// Send one JSON message as one chunk: the encoded text itself.
pub fn send_json<T: ToJson>(conn: &Conn, msg: &T) -> TdpResult<()> {
    conn.send_bytes(json::to_vec(msg)?)
}

/// Receive one JSON message (one chunk).
pub fn recv_json<T: FromJson>(conn: &mut Conn) -> TdpResult<T> {
    json::from_slice(&conn.recv()?)
}

/// Receive with a deadline.
pub fn recv_json_timeout<T: FromJson>(conn: &mut Conn, t: Duration) -> TdpResult<T> {
    json::from_slice(&conn.recv_timeout(t)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_proto::TdpError;

    #[test]
    fn json_roundtrip_over_conn() {
        let (a, mut b) = Conn::pair();
        let msg = MmMsg::RegisterMachine {
            name: "slot1@host2".into(),
            host: HostId(2),
            startd: Addr::new(HostId(2), 9620),
            ad: ClassAd::new().with_int("Memory", 512),
        };
        send_json(&a, &msg).unwrap();
        let got: MmMsg = recv_json(&mut b).unwrap();
        match got {
            MmMsg::RegisterMachine { name, host, .. } => {
                assert_eq!(name, "slot1@host2");
                assert_eq!(host, HostId(2));
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn claim_and_shadow_msgs_roundtrip() {
        let (a, mut b) = Conn::pair();
        send_json(&a, &ClaimMsg::RequestClaim { job: JobId(1) }).unwrap();
        assert!(matches!(
            recv_json::<ClaimMsg>(&mut b).unwrap(),
            ClaimMsg::RequestClaim { .. }
        ));
        send_json(
            &a,
            &ShadowMsg::FetchFile {
                path: "infile".into(),
            },
        )
        .unwrap();
        assert!(matches!(
            recv_json::<ShadowMsg>(&mut b).unwrap(),
            ShadowMsg::FetchFile { .. }
        ));
    }

    #[test]
    fn garbage_decodes_to_error() {
        let (a, mut b) = Conn::pair();
        a.send(b"{not json").unwrap();
        assert!(recv_json::<MmMsg>(&mut b).is_err());
        // A peer's chunk of 200 000 `[` is refused at the parser's
        // nesting cap (it used to overflow the stack: SIGABRT).
        a.send("[".repeat(200_000).as_bytes()).unwrap();
        let err = recv_json::<ClaimMsg>(&mut b).unwrap_err();
        assert!(matches!(err, TdpError::Protocol(_)), "{err}");
    }

    /// Text → value → text is stable, and the value prints the same.
    fn roundtrip<T: ToJson + FromJson + std::fmt::Debug>(msg: &T) {
        let text = json::to_string(msg).unwrap();
        let back: T = json::from_str(&text).unwrap();
        assert_eq!(format!("{back:?}"), format!("{msg:?}"), "{text}");
    }

    #[test]
    fn every_wire_enum_roundtrips_typed() {
        let ad = ClassAd::new()
            .with_int("Memory", 512)
            .with_str("Arch", "X86_64")
            .require("Memory >= 256")
            .rank_by("Memory");
        let startd = Addr::new(HostId(2), 9620);
        roundtrip(&MmMsg::RegisterMachine {
            name: "slot1@host2".into(),
            host: HostId(2),
            startd,
            ad,
        });
        roundtrip(&MmMsg::Machines(vec![
            ("a".into(), true),
            ("b".into(), false),
        ]));
        roundtrip(&MmMsg::NoMatch);
        roundtrip(&ClaimMsg::ActivateClaim {
            claim_id: i64::MAX as u64,
            details: Box::new(JobDetails {
                job: JobId(7),
                submit: SubmitDescription {
                    executable: "/bin/app".into(),
                    arguments: vec!["-n".into(), "3".into()],
                    input: Some("in\tfile \"q\"".into()),
                    ..SubmitDescription::default()
                },
                shadow: startd,
                submit_host: HostId(0),
                rank: 1,
                tool_auto_run: true,
            }),
        });
        roundtrip(&ClaimMsg::Released);
        roundtrip(&ShadowMsg::FileData {
            path: "out/é.txt".into(),
            data: vec![0, 10, 255].into(),
        });
        roundtrip(&ShadowMsg::Ack);
    }
}
