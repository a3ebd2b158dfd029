//! The scheduler daemons' wire text, pinned byte for byte.
//!
//! Condor, LSF and grid daemons exchange one JSON message per chunk
//! (`tdp_proto::json`). A daemon of one build must keep talking to a
//! daemon of another, so this file fixes the exact text of every
//! message variant, of a `JobDetails` carrying a full
//! `SubmitDescription` and `ClassAd`, and of the smaller values that
//! ride inside them, and it fixes which inputs a decoder refuses. Every
//! pinned text must also decode back to the value it came from. Grid's
//! private `GramMsg` is pinned beside it in `grid/src/gatekeeper.rs`.

use std::collections::HashMap;
use tdp::condor::classad::{AdValue, ClassAd};
use tdp::condor::messages::{ClaimMsg, JobDetails, MmMsg, ShadowMsg};
use tdp::condor::submit::{SubmitDescription, ToolDaemonSpec, Universe};
use tdp::lsf::messages::{Dispatch, MbdMsg, SbdMsg, ToolSpecWire};
use tdp::proto::json::Blob;
use tdp::proto::{json, Addr, HostId, JobId, TdpError};

/// Encodes `value`, checks the text, decodes the text as `ty` and
/// checks that it is the same value again.
macro_rules! pin {
    ($ty:ty, $value:expr, $text:expr) => {{
        let value = $value;
        let text: &str = $text;
        assert_eq!(json::to_string(&value).unwrap(), text);
        assert_eq!(json::to_vec(&value).unwrap(), text.as_bytes());
        let back: $ty = json::from_str(text).unwrap();
        assert_eq!(format!("{back:?}"), format!("{value:?}"), "{text}");
        let back: $ty = json::from_slice(text.as_bytes()).unwrap();
        assert_eq!(json::to_string(&back).unwrap(), text);
    }};
}

fn machine_ad() -> ClassAd {
    ClassAd::new()
        .with_int("Memory", 512)
        .with_str("Arch", "X86_64")
        .with("Idle", AdValue::Bool(true))
}

fn job_ad() -> ClassAd {
    ClassAd::new()
        .with_int("ImageSize", -3)
        .require("Memory >= 256")
        .require("Arch == \"X86_64\"")
        .require("Idle != false")
        .require("Load <= 2")
        .require("Slots > 0")
        .require("Age < 9")
        .rank_by("Memory")
}

fn full_submit() -> SubmitDescription {
    SubmitDescription {
        universe: Universe::Mpi,
        executable: "/bin/app".into(),
        arguments: vec!["-n".into(), "3".into()],
        input: Some("in\tfile \"q\"".into()),
        output: Some("out/é.txt".into()),
        error: Some("err\\log\n\u{01}".into()),
        transfer_files: true,
        transfer_input_files: vec!["paradynd".into()],
        suspend_job_at_exec: true,
        tool_daemon: Some(ToolDaemonSpec {
            cmd: "paradynd".into(),
            args: vec!["-zunix".into(), "-a%pid".into()],
            output: Some("daemon.out".into()),
            error: None,
        }),
        checkpointing: true,
        checkpoint_file: Some("ckpt".into()),
        machine_count: 4,
        requirements: vec!["Memory >= 512".into()],
        rank: Some("Memory".into()),
        count: 2,
    }
}

#[test]
fn values_inside_messages_keep_their_text() {
    let startd = Addr::new(HostId(2), 9620);
    pin!(Addr, startd, r#"{"host":2,"port":9620}"#);
    // Grid's per-process detail: an int-keyed map travels with string keys.
    pin!(
        HashMap<u32, String>,
        HashMap::from([(0u32, "exited:0".to_string())]),
        r#"{"0":"exited:0"}"#
    );
    pin!(
        ClassAd,
        job_ad(),
        concat!(
            r#"{"attrs":{"ImageSize":{"Int":-3}},"requirements":["#,
            r#"{"attr":"Memory","op":"Ge","value":{"Int":256}},"#,
            r#"{"attr":"Arch","op":"Eq","value":{"Str":"X86_64"}},"#,
            r#"{"attr":"Idle","op":"Ne","value":{"Bool":false}},"#,
            r#"{"attr":"Load","op":"Le","value":{"Int":2}},"#,
            r#"{"attr":"Slots","op":"Gt","value":{"Int":0}},"#,
            r#"{"attr":"Age","op":"Lt","value":{"Int":9}}],"rank_attr":"Memory"}"#
        )
    );
    pin!(
        JobDetails,
        JobDetails {
            job: JobId(7),
            submit: full_submit(),
            shadow: startd,
            submit_host: HostId(0),
            rank: 1,
            tool_auto_run: true,
        },
        concat!(
            r#"{"job":7,"submit":{"universe":"Mpi","executable":"/bin/app","#,
            r#""arguments":["-n","3"],"input":"in\tfile \"q\"","output":"out/é.txt","#,
            r#""error":"err\\log\n\u0001","transfer_files":true,"#,
            r#""transfer_input_files":["paradynd"],"suspend_job_at_exec":true,"#,
            r#""tool_daemon":{"cmd":"paradynd","args":["-zunix","-a%pid"],"#,
            r#""output":"daemon.out","error":null},"checkpointing":true,"#,
            r#""checkpoint_file":"ckpt","machine_count":4,"#,
            r#""requirements":["Memory >= 512"],"rank":"Memory","count":2},"#,
            r#""shadow":{"host":2,"port":9620},"submit_host":0,"rank":1,"tool_auto_run":true}"#
        )
    );
}

#[test]
fn every_condor_message_keeps_its_text() {
    let startd = Addr::new(HostId(2), 9620);
    let (job, rank) = (JobId(7), 1);
    let job_ad_text = concat!(
        r#"{"attrs":{"ImageSize":{"Int":-3}},"requirements":["#,
        r#"{"attr":"Memory","op":"Ge","value":{"Int":256}},"#,
        r#"{"attr":"Arch","op":"Eq","value":{"Str":"X86_64"}},"#,
        r#"{"attr":"Idle","op":"Ne","value":{"Bool":false}},"#,
        r#"{"attr":"Load","op":"Le","value":{"Int":2}},"#,
        r#"{"attr":"Slots","op":"Gt","value":{"Int":0}},"#,
        r#"{"attr":"Age","op":"Lt","value":{"Int":9}}],"rank_attr":"Memory"}"#
    );
    let negotiate = format!(
        r#"{{"Negotiate":{{"job_ad":{job_ad_text},"exclude":["slot2@host3"],"budget_us":250000}}}}"#
    );
    let mm = [
        (
            MmMsg::RegisterMachine {
                name: "slot1@host2".into(),
                host: HostId(2),
                startd,
                ad: machine_ad(),
            },
            concat!(
                r#"{"RegisterMachine":{"name":"slot1@host2","host":2,"#,
                r#""startd":{"host":2,"port":9620},"ad":{"attrs":{"Arch":{"Str":"X86_64"},"#,
                r#""Idle":{"Bool":true},"Memory":{"Int":512}},"requirements":[],"rank_attr":null}}}"#
            ),
        ),
        (
            MmMsg::UpdateMachine {
                name: "slot1@host2".into(),
                available: false,
            },
            r#"{"UpdateMachine":{"name":"slot1@host2","available":false}}"#,
        ),
        (
            MmMsg::UnregisterMachine {
                name: "slot1@host2".into(),
            },
            r#"{"UnregisterMachine":{"name":"slot1@host2"}}"#,
        ),
        (
            MmMsg::Negotiate {
                job_ad: job_ad(),
                exclude: vec!["slot2@host3".into()],
                budget_us: 250_000,
            },
            negotiate.as_str(),
        ),
        (
            MmMsg::MatchFound {
                name: "slot1@host2".into(),
                host: HostId(2),
                startd,
                ad: ClassAd::new(),
            },
            concat!(
                r#"{"MatchFound":{"name":"slot1@host2","host":2,"startd":{"host":2,"port":9620},"#,
                r#""ad":{"attrs":{},"requirements":[],"rank_attr":null}}}"#
            ),
        ),
        (MmMsg::NoMatch, r#""NoMatch""#),
        (MmMsg::Ack, r#""Ack""#),
        (MmMsg::QueryMachines, r#""QueryMachines""#),
        (
            MmMsg::Machines(vec![("a".into(), true), ("b".into(), false)]),
            r#"{"Machines":[["a",true],["b",false]]}"#,
        ),
    ];
    for (msg, text) in mm {
        pin!(MmMsg, msg, text);
    }

    let claim = [
        (
            ClaimMsg::RequestClaim { job },
            r#"{"RequestClaim":{"job":7}}"#,
        ),
        (
            ClaimMsg::ClaimAccepted {
                claim_id: i64::MAX as u64,
            },
            r#"{"ClaimAccepted":{"claim_id":9223372036854775807}}"#,
        ),
        (
            ClaimMsg::ClaimRejected {
                reason: "busy".into(),
            },
            r#"{"ClaimRejected":{"reason":"busy"}}"#,
        ),
        (
            ClaimMsg::ActivateClaim {
                claim_id: 3,
                details: Box::new(JobDetails {
                    job,
                    submit: SubmitDescription::default(),
                    shadow: startd,
                    submit_host: HostId(0),
                    rank: 0,
                    tool_auto_run: false,
                }),
            },
            concat!(
                r#"{"ActivateClaim":{"claim_id":3,"details":{"job":7,"submit":{"#,
                r#""universe":"Vanilla","executable":"","arguments":[],"input":null,"#,
                r#""output":null,"error":null,"transfer_files":false,"transfer_input_files":[],"#,
                r#""suspend_job_at_exec":false,"tool_daemon":null,"checkpointing":false,"#,
                r#""checkpoint_file":null,"machine_count":1,"requirements":[],"rank":null,"#,
                r#""count":1},"shadow":{"host":2,"port":9620},"submit_host":0,"rank":0,"#,
                r#""tool_auto_run":false}}}"#
            ),
        ),
        (ClaimMsg::Activated, r#""Activated""#),
        (
            ClaimMsg::ReleaseClaim { claim_id: 3 },
            r#"{"ReleaseClaim":{"claim_id":3}}"#,
        ),
        (ClaimMsg::Released, r#""Released""#),
    ];
    for (msg, text) in claim {
        pin!(ClaimMsg, msg, text);
    }

    let shadow = [
        (
            ShadowMsg::FetchFile {
                path: "infile".into(),
            },
            r#"{"FetchFile":{"path":"infile"}}"#,
        ),
        (
            ShadowMsg::FileData {
                path: "infile".into(),
                data: vec![0, 10, 255].into(),
            },
            r#"{"FileData":{"path":"infile","data":"AAr/"}}"#,
        ),
        (
            ShadowMsg::FileError {
                path: "nope".into(),
                error: "no such file".into(),
            },
            r#"{"FileError":{"path":"nope","error":"no such file"}}"#,
        ),
        (
            ShadowMsg::StoreFile {
                path: "outfile".into(),
                data: Blob::default(),
            },
            r#"{"StoreFile":{"path":"outfile","data":""}}"#,
        ),
        (ShadowMsg::StoreOk, r#""StoreOk""#),
        (
            ShadowMsg::StatusUpdate {
                job,
                rank,
                status: "running".into(),
            },
            r#"{"StatusUpdate":{"job":7,"rank":1,"status":"running"}}"#,
        ),
        (
            ShadowMsg::JobDone {
                job,
                rank,
                status: "exited:0".into(),
            },
            r#"{"JobDone":{"job":7,"rank":1,"status":"exited:0"}}"#,
        ),
        (
            ShadowMsg::RankFailed {
                job,
                rank,
                error: "missing executable".into(),
            },
            r#"{"RankFailed":{"job":7,"rank":1,"error":"missing executable"}}"#,
        ),
        (ShadowMsg::Ack, r#""Ack""#),
    ];
    for (msg, text) in shadow {
        pin!(ShadowMsg, msg, text);
    }
}

#[test]
fn every_lsf_message_keeps_its_text() {
    let job = JobId(7);
    let sbd = [
        (
            SbdMsg::Register {
                name: "hostA".into(),
                slots: 2,
            },
            r#"{"Register":{"name":"hostA","slots":2}}"#,
        ),
        (
            SbdMsg::TaskStarted {
                job,
                task: 1,
                pid: 4242,
            },
            r#"{"TaskStarted":{"job":7,"task":1,"pid":4242}}"#,
        ),
        (
            SbdMsg::TaskDone {
                job,
                task: 1,
                status: "exited:0".into(),
                stdout: b"ok\n".to_vec().into(),
                stderr: Blob::default(),
                tool_files: vec![("trace.out".into(), vec![1, 2].into())],
            },
            concat!(
                r#"{"TaskDone":{"job":7,"task":1,"status":"exited:0","stdout":"b2sK","#,
                r#""stderr":"","tool_files":[["trace.out","AQI="]]}}"#
            ),
        ),
        (
            SbdMsg::TaskFailed {
                job,
                task: 1,
                error: "no slot".into(),
            },
            r#"{"TaskFailed":{"job":7,"task":1,"error":"no slot"}}"#,
        ),
    ];
    for (msg, text) in sbd {
        pin!(SbdMsg, msg, text);
    }

    let mbd = [
        (
            MbdMsg::Dispatch(Dispatch {
                job,
                task: 0,
                executable: "/bin/app".into(),
                args: vec!["5".into()],
                stdin: b"in".to_vec().into(),
                suspend_at_exec: true,
                tool: Some(ToolSpecWire {
                    cmd: "paradynd".into(),
                    args: vec!["-a%pid".into()],
                }),
            }),
            concat!(
                r#"{"Dispatch":{"job":7,"task":0,"executable":"/bin/app","args":["5"],"#,
                r#""stdin":"aW4=","suspend_at_exec":true,"#,
                r#""tool":{"cmd":"paradynd","args":["-a%pid"]}}}"#
            ),
        ),
        (
            MbdMsg::Dispatch(Dispatch {
                job,
                task: 1,
                executable: "/bin/app".into(),
                args: Vec::new(),
                stdin: Blob::default(),
                suspend_at_exec: false,
                tool: None,
            }),
            concat!(
                r#"{"Dispatch":{"job":7,"task":1,"executable":"/bin/app","args":[],"#,
                r#""stdin":"","suspend_at_exec":false,"tool":null}}"#
            ),
        ),
        (MbdMsg::Kill { job }, r#"{"Kill":{"job":7}}"#),
        (MbdMsg::Ack, r#""Ack""#),
    ];
    for (msg, text) in mbd {
        pin!(MbdMsg, msg, text);
    }
}

/// The message of a decode or encode refusal; anything but
/// `TdpError::Protocol` fails the test.
fn protocol(e: TdpError) -> String {
    match e {
        TdpError::Protocol(m) => m,
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

#[test]
fn refusals_are_protocol_errors() {
    // A missing field names the field.
    let e = json::from_str::<ClaimMsg>(r#"{"RequestClaim":{}}"#).unwrap_err();
    assert!(protocol(e).contains("job"));
    let e = json::from_str::<Addr>(r#"{"host":2}"#).unwrap_err();
    assert!(protocol(e).contains("port"));

    // An unknown variant names the variant, as a string or as a tag.
    for text in [r#""Bogus""#, r#"{"Bogus":{}}"#] {
        let e = json::from_str::<MmMsg>(text).unwrap_err();
        assert!(protocol(e).contains("Bogus"), "{text}");
    }

    // A value of the wrong JSON type.
    for text in [
        r#"{"RequestClaim":{"job":"7"}}"#,
        r#"{"RequestClaim":{"job":-7}}"#,
        r#"{"RequestClaim":{"job":7.5}}"#,
        r#"{"RequestClaim":[7]}"#,
        r#"{"ClaimRejected":{"reason":null}}"#,
        r#"7"#,
        r#"[]"#,
    ] {
        protocol(json::from_str::<ClaimMsg>(text).unwrap_err());
    }
    for text in [
        r#"{"FileData":{"path":"x","data":[0,1]}}"#,
        r#"{"FileData":{"path":"x","data":[256]}}"#,
        r#"{"StatusUpdate":{"job":1,"rank":4294967296,"status":""}}"#,
    ] {
        protocol(json::from_str::<ShadowMsg>(text).unwrap_err());
    }
    // A byte payload that is not padded standard base64: a character
    // outside the alphabet, a length that is not a multiple of four,
    // padding that is missing, stray or too long, or padding bits set.
    for data in [
        "AA-_", "AA\\n=", "AAE", "AA=", "A===", "AA=A", "AA==AAAA", "AB==", "AAF=",
    ] {
        let text = format!(r#"{{"StoreFile":{{"path":"x","data":"{data}"}}}}"#);
        let e = json::from_str::<ShadowMsg>(&text).unwrap_err();
        assert!(protocol(e).contains("base64"), "{text}");
    }
    protocol(json::from_str::<MbdMsg>(r#"{"Kill":{"job":true}}"#).unwrap_err());
    protocol(json::from_str::<HashMap<u32, String>>(r#"{"x":"exited:0"}"#).unwrap_err());

    // An integer above i64::MAX is an encode error, never a rounded float.
    let e = json::to_string(&ClaimMsg::ClaimAccepted {
        claim_id: i64::MAX as u64 + 1,
    })
    .unwrap_err();
    protocol(e);
    let e = json::to_vec(&SbdMsg::TaskStarted {
        job: JobId(u64::MAX),
        task: 0,
        pid: 1,
    })
    .unwrap_err();
    protocol(e);

    // The parser's nesting cap is 64 levels below the document: 65
    // nested arrays parse (and then fail as a message), 66 do not.
    let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
    let e = json::from_str::<MmMsg>(&nested(65)).unwrap_err();
    assert!(!protocol(e).contains("nesting too deep"));
    let e = json::from_str::<MmMsg>(&nested(66)).unwrap_err();
    assert!(protocol(e).contains("nesting too deep"));
    let e = json::from_slice::<ClaimMsg>("[".repeat(200_000).as_bytes()).unwrap_err();
    assert!(protocol(e).contains("nesting too deep"));

    // A chunk that is not UTF-8 or not JSON at all.
    protocol(json::from_slice::<ShadowMsg>(&[0xff, 0xfe]).unwrap_err());
    protocol(json::from_str::<ShadowMsg>(r#"{"StoreOk""#).unwrap_err());
}

#[test]
fn a_mebibyte_of_file_data_is_base64_text() {
    let data: Vec<u8> = (0..1u32 << 20).map(|i| (i * 7 + i / 251) as u8).collect();
    let msg = ShadowMsg::FileData {
        path: "infile".into(),
        data: data.clone().into(),
    };
    let text = json::to_vec(&msg).unwrap();
    assert!(text.len() <= 1_400_000, "{} bytes of text", text.len());
    match json::from_slice::<ShadowMsg>(&text).unwrap() {
        ShadowMsg::FileData { data: back, .. } => assert!(back.0 == data),
        other => panic!("{other:?}"),
    }
}
