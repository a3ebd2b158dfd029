//! Submit-file parsing — the Figure 5B format, including the
//! `ToolDaemon*` extension directives Parador added.
//!
//! ```text
//! universe             = Vanilla
//! executable           = foo
//! input                = infile
//! output               = outfile
//! arguments            = 1 2 3
//! transfer_files       = always
//! +SuspendJobAtExec    = True
//! +ToolDaemonCmd       = "paradynd"
//! +ToolDaemonArgs      = "-zunix -l3 -mpinguino.cs.wisc.edu -p2090 -P2091 -a%pid"
//! +ToolDaemonOutput    = "daemon.out"
//! +ToolDaemonError     = "daemon.err"
//! transfer_input_files = paradynd
//! queue
//! ```

use crate::classad::ClassAd;
use tdp_proto::attr::split_multi_value;
use tdp_proto::{json_enum, json_struct, TdpError, TdpResult};

/// Condor execution environment (§4.3: "Condor defines six different
/// execution environments, called universes"; the prototype covered
/// Vanilla and MPI, and we add Standard's remote-syscall file access).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Universe {
    #[default]
    Vanilla,
    Mpi,
    Standard,
}

json_enum!(Universe {
    Vanilla,
    Mpi,
    Standard,
});

impl Universe {
    pub fn parse(s: &str) -> Option<Universe> {
        match s.to_ascii_lowercase().as_str() {
            "vanilla" => Some(Universe::Vanilla),
            "mpi" => Some(Universe::Mpi),
            "standard" => Some(Universe::Standard),
            _ => None,
        }
    }
}

/// The tool-daemon block of a submit file (`+ToolDaemon*`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ToolDaemonSpec {
    /// `+ToolDaemonCmd`: executable of the RT daemon.
    pub cmd: String,
    /// `+ToolDaemonArgs`, split like a command line (`%pid` is left
    /// untouched — the Parador marker for "fetch the pid over TDP").
    pub args: Vec<String>,
    /// `+ToolDaemonOutput` / `+ToolDaemonError`: where the daemon's
    /// stdio lands (on the submit host, staged back after the run).
    pub output: Option<String>,
    pub error: Option<String>,
}

json_struct!(ToolDaemonSpec {
    cmd,
    args,
    output,
    error,
});

/// A parsed submit description.
///
/// ```
/// use tdp_condor::{SubmitDescription, Universe};
/// let d = SubmitDescription::parse(
///     "universe = MPI\nexecutable = ring\nmachine_count = 4\n+SuspendJobAtExec = True\nqueue\n",
/// ).unwrap();
/// assert_eq!(d.universe, Universe::Mpi);
/// assert_eq!(d.machine_count, 4);
/// assert!(d.suspend_job_at_exec);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitDescription {
    pub universe: Universe,
    pub executable: String,
    pub arguments: Vec<String>,
    pub input: Option<String>,
    pub output: Option<String>,
    pub error: Option<String>,
    /// `transfer_files = always|never`.
    pub transfer_files: bool,
    /// `transfer_input_files`: extra files to ship (e.g. `paradynd`).
    pub transfer_input_files: Vec<String>,
    /// `+SuspendJobAtExec`: create the job stopped-at-exec.
    pub suspend_job_at_exec: bool,
    /// `+ToolDaemon*` block, if any.
    pub tool_daemon: Option<ToolDaemonSpec>,
    /// `+Checkpointing`: vacated jobs (killed with signal 15) are
    /// requeued and resume from the checkpoint file.
    pub checkpointing: bool,
    /// `checkpoint_file`: staged in before each (re)run and staged back
    /// after every termination.
    pub checkpoint_file: Option<String>,
    /// `machine_count` (MPI universe).
    pub machine_count: u32,
    /// `requirements = Memory >= 512 && Arch == X86_64`.
    pub requirements: Vec<String>,
    /// `rank = <machine attr>`.
    pub rank: Option<String>,
    /// How many instances `queue` asked for.
    pub count: u32,
}

json_struct!(SubmitDescription {
    universe,
    executable,
    arguments,
    input,
    output,
    error,
    transfer_files,
    transfer_input_files,
    suspend_job_at_exec,
    tool_daemon,
    checkpointing,
    checkpoint_file,
    machine_count,
    requirements,
    rank,
    count,
});

impl Default for SubmitDescription {
    fn default() -> Self {
        SubmitDescription {
            universe: Universe::Vanilla,
            executable: String::new(),
            arguments: Vec::new(),
            input: None,
            output: None,
            error: None,
            transfer_files: false,
            transfer_input_files: Vec::new(),
            suspend_job_at_exec: false,
            tool_daemon: None,
            checkpointing: false,
            checkpoint_file: None,
            machine_count: 1,
            requirements: Vec::new(),
            rank: None,
            count: 1,
        }
    }
}

fn unquote(s: &str) -> String {
    let t = s.trim();
    if t.len() >= 2 && t.starts_with('"') && t.ends_with('"') {
        t[1..t.len() - 1].to_string()
    } else {
        t.to_string()
    }
}

impl SubmitDescription {
    /// Parse the submit-file text. Errors carry line context.
    pub fn parse(text: &str) -> TdpResult<SubmitDescription> {
        let mut d = SubmitDescription::default();
        let mut tool_cmd: Option<String> = None;
        let mut tool_args: Vec<String> = Vec::new();
        let mut tool_out: Option<String> = None;
        let mut tool_err: Option<String> = None;
        let mut queued = false;

        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line.eq_ignore_ascii_case("queue") {
                queued = true;
                d.count = 1;
                continue;
            }
            if let Some(n) = line.to_ascii_lowercase().strip_prefix("queue ") {
                queued = true;
                d.count = n.trim().parse().map_err(|_| {
                    TdpError::Substrate(format!("line {}: bad queue count {n:?}", ln + 1))
                })?;
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(TdpError::Substrate(format!(
                    "line {}: expected key = value, got {line:?}",
                    ln + 1
                )));
            };
            let key = key.trim();
            let value = value.trim();
            match key.to_ascii_lowercase().as_str() {
                "universe" => {
                    d.universe = Universe::parse(value).ok_or_else(|| {
                        TdpError::Substrate(format!("line {}: unknown universe {value:?}", ln + 1))
                    })?;
                }
                "executable" => d.executable = unquote(value),
                "arguments" => d.arguments = split_multi_value(&unquote(value)),
                "input" => d.input = Some(unquote(value)),
                "output" => d.output = Some(unquote(value)),
                "error" => d.error = Some(unquote(value)),
                "transfer_files" => d.transfer_files = value.eq_ignore_ascii_case("always"),
                "transfer_input_files" | "tranfer_input_files" => {
                    // The paper's Figure 5B itself contains the typo
                    // "tranfer_input_files"; accept both spellings.
                    d.transfer_input_files = value.split(',').map(|s| unquote(s.trim())).collect();
                }
                "machine_count" => {
                    d.machine_count = value.parse().map_err(|_| {
                        TdpError::Substrate(format!("line {}: bad machine_count", ln + 1))
                    })?;
                }
                "requirements" => {
                    d.requirements = value.split("&&").map(|s| s.trim().to_string()).collect();
                }
                "rank" => d.rank = Some(unquote(value)),
                "+suspendjobatexec" => {
                    d.suspend_job_at_exec = value.eq_ignore_ascii_case("true");
                }
                "+checkpointing" => {
                    d.checkpointing = value.eq_ignore_ascii_case("true");
                }
                "checkpoint_file" => d.checkpoint_file = Some(unquote(value)),
                "+tooldaemoncmd" => tool_cmd = Some(unquote(value)),
                "+tooldaemonargs" | "+tooldaemonarguments" => {
                    tool_args = split_multi_value(&unquote(value));
                }
                "+tooldaemonoutput" => tool_out = Some(unquote(value)),
                "+tooldaemonerror" => tool_err = Some(unquote(value)),
                other => {
                    // Unknown +attributes are legal ClassAd extensions;
                    // unknown plain keys are errors.
                    if !other.starts_with('+') {
                        return Err(TdpError::Substrate(format!(
                            "line {}: unknown submit command {key:?}",
                            ln + 1
                        )));
                    }
                }
            }
        }
        if d.executable.is_empty() {
            return Err(TdpError::Substrate("submit file has no executable".into()));
        }
        if !queued {
            return Err(TdpError::Substrate(
                "submit file has no queue statement".into(),
            ));
        }
        if let Some(cmd) = tool_cmd {
            d.tool_daemon = Some(ToolDaemonSpec {
                cmd,
                args: tool_args,
                output: tool_out,
                error: tool_err,
            });
        }
        Ok(d)
    }

    /// The job's ClassAd, for matchmaking.
    pub fn job_ad(&self) -> ClassAd {
        let mut ad = ClassAd::new()
            .with_str("Cmd", self.executable.clone())
            .with_int("MachineCount", i64::from(self.machine_count));
        for r in &self.requirements {
            ad = ad.require(r);
        }
        if let Some(rank) = &self.rank {
            ad = ad.rank_by(rank.clone());
        }
        ad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact submit file of Figure 5B (hostname adapted to the
    /// simulated form).
    pub const FIG5B: &str = r#"
universe = Vanilla
executable = foo
input = infile
output = outfile
arguments = 1 2 3
transfer_files = always
+SuspendJobAtExec = True
+ToolDaemonCmd = "paradynd"
+ToolDaemonArgs = "-zunix -l3 -m0 -p2090 -P2091 -a%pid"
+ToolDaemonOutput = "daemon.out"
+ToolDaemonError = "daemon.err"
tranfer_input_files = paradynd
queue
"#;

    #[test]
    fn parses_figure_5b() {
        let d = SubmitDescription::parse(FIG5B).unwrap();
        assert_eq!(d.universe, Universe::Vanilla);
        assert_eq!(d.executable, "foo");
        assert_eq!(d.input.as_deref(), Some("infile"));
        assert_eq!(d.output.as_deref(), Some("outfile"));
        assert_eq!(d.arguments, vec!["1", "2", "3"]);
        assert!(d.transfer_files);
        assert!(d.suspend_job_at_exec);
        let tool = d.tool_daemon.unwrap();
        assert_eq!(tool.cmd, "paradynd");
        assert_eq!(
            tool.args,
            vec!["-zunix", "-l3", "-m0", "-p2090", "-P2091", "-a%pid"]
        );
        assert_eq!(tool.output.as_deref(), Some("daemon.out"));
        assert_eq!(tool.error.as_deref(), Some("daemon.err"));
        assert_eq!(d.transfer_input_files, vec!["paradynd"]);
        assert_eq!(d.count, 1);
    }

    #[test]
    fn minimal_vanilla_job() {
        let d = SubmitDescription::parse("executable = /bin/x\nqueue\n").unwrap();
        assert_eq!(d.universe, Universe::Vanilla);
        assert!(d.tool_daemon.is_none());
        assert!(!d.suspend_job_at_exec);
    }

    #[test]
    fn mpi_universe_with_machine_count() {
        let d = SubmitDescription::parse(
            "universe = MPI\nexecutable = ring\nmachine_count = 4\nqueue\n",
        )
        .unwrap();
        assert_eq!(d.universe, Universe::Mpi);
        assert_eq!(d.machine_count, 4);
    }

    #[test]
    fn requirements_and_rank() {
        let d = SubmitDescription::parse(
            "executable = x\nrequirements = Memory >= 512 && HasTdp == true\nrank = Memory\nqueue\n",
        )
        .unwrap();
        assert_eq!(d.requirements.len(), 2);
        let ad = d.job_ad();
        assert_eq!(ad.requirements.len(), 2);
        assert_eq!(ad.rank_attr.as_deref(), Some("Memory"));
    }

    #[test]
    fn checkpointing_directives() {
        let d = SubmitDescription::parse(
            "executable = x\n+Checkpointing = True\ncheckpoint_file = ckpt\nqueue\n",
        )
        .unwrap();
        assert!(d.checkpointing);
        assert_eq!(d.checkpoint_file.as_deref(), Some("ckpt"));
    }

    #[test]
    fn queue_count() {
        let d = SubmitDescription::parse("executable = x\nqueue 5\n").unwrap();
        assert_eq!(d.count, 5);
    }

    #[test]
    fn errors_are_informative() {
        assert!(SubmitDescription::parse("queue\n").is_err()); // no executable
        assert!(SubmitDescription::parse("executable = x\n").is_err()); // no queue
        let e = SubmitDescription::parse("executable = x\nbogus_key = 1\nqueue\n").unwrap_err();
        assert!(e.to_string().contains("bogus_key"), "{e}");
        let e = SubmitDescription::parse("executable = x\nuniverse = Globus\nqueue\n").unwrap_err();
        assert!(e.to_string().contains("Globus"));
        assert!(SubmitDescription::parse("executable = x\nqueue abc\n").is_err());
    }

    #[test]
    fn unknown_plus_attrs_tolerated() {
        let d = SubmitDescription::parse("executable = x\n+MyCustomThing = 7\nqueue\n").unwrap();
        assert_eq!(d.executable, "x");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let d = SubmitDescription::parse("# job\n\nexecutable = x\n  # indented comment\nqueue\n")
            .unwrap();
        assert_eq!(d.executable, "x");
    }
}
