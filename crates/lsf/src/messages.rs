//! mbatchd ↔ sbatchd wire messages.

use serde::{Deserialize, Serialize};
use tdp_proto::JobId;

/// A tool daemon request attached to a job (`bsub -tool`), the LSF-side
/// equivalent of Condor's `+ToolDaemon*` directives.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ToolSpecWire {
    pub cmd: String,
    pub args: Vec<String>,
}

/// One task dispatch (mbatchd → sbatchd).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dispatch {
    pub job: JobId,
    pub task: u32,
    pub executable: String,
    pub args: Vec<String>,
    /// Staged stdin contents (inline staging — LSF copies files with
    /// the job, unlike Condor's remote syscalls).
    pub stdin: Vec<u8>,
    /// Create the task stopped at exec.
    pub suspend_at_exec: bool,
    pub tool: Option<ToolSpecWire>,
}

/// sbatchd → mbatchd messages.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SbdMsg {
    /// Registration: host with `slots` execution slots.
    Register { name: String, slots: u32 },
    /// A task's application process started (pid known) — lets mbatchd
    /// route `bkill`s.
    TaskStarted { job: JobId, task: u32, pid: u64 },
    /// A task finished; stdout/stderr travel inline.
    TaskDone {
        job: JobId,
        task: u32,
        status: String,
        stdout: Vec<u8>,
        stderr: Vec<u8>,
        /// Files the tool produced on the execution host, staged back
        /// inline: (name, contents).
        tool_files: Vec<(String, Vec<u8>)>,
    },
    /// A task could not be started.
    TaskFailed {
        job: JobId,
        task: u32,
        error: String,
    },
}

/// mbatchd → sbatchd messages.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum MbdMsg {
    Dispatch(Dispatch),
    /// `bkill`: terminate every task of `job` running on this host.
    Kill {
        job: JobId,
    },
    Ack,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_proto::json;

    /// Text → value → text is stable, and the value prints the same.
    fn roundtrip<T: Serialize + serde::de::DeserializeOwned + std::fmt::Debug>(msg: &T) {
        let text = json::to_string(msg).unwrap();
        let back: T = json::from_str(&text).unwrap();
        assert_eq!(format!("{back:?}"), format!("{msg:?}"), "{text}");
    }

    #[test]
    fn every_wire_enum_roundtrips_typed() {
        let (job, task) = (JobId(4), 1);
        roundtrip(&SbdMsg::TaskDone {
            job,
            task,
            status: "exited:0".into(),
            stdout: b"crunched \x00\xff".to_vec(),
            stderr: Vec::new(),
            tool_files: vec![("trace\n.out".into(), vec![1, 2, 3])],
        });
        roundtrip(&MbdMsg::Dispatch(Dispatch {
            job,
            task,
            executable: "/bin/app".into(),
            args: vec!["5".into()],
            stdin: b"input".to_vec(),
            suspend_at_exec: true,
            tool: Some(ToolSpecWire {
                cmd: "paradynd".into(),
                args: vec!["-a%pid".into()],
            }),
        }));
        roundtrip(&MbdMsg::Ack);
    }
}
