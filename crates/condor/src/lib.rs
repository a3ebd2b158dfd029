//! # tdp-condor — the resource-manager substrate
//!
//! A Condor-shaped batch scheduling system (§4.1 of the paper, Figure
//! 4) with the TDP integration of §4.3 built into its starter:
//!
//! * **ClassAds** ([`classad`]) — attribute/requirement descriptions of
//!   machines and jobs, with two-sided matching and rank;
//! * **matchmaker** ([`matchmaker`]) — collects machine ads, answers
//!   negotiation requests from the schedd;
//! * **condor_schedd** ([`schedd`]) — the submit-side queue: holds jobs
//!   until a suitable resource is found, runs the claiming protocol,
//!   spawns a shadow per running job, and orchestrates the staged MPI-
//!   universe startup;
//! * **condor_shadow** ([`shadow`]) — the submit-side per-job agent:
//!   performs "remote system calls" (file fetch/store against the
//!   submit machine) on behalf of the remote job and records status;
//! * **condor_startd** ([`startd`]) — represents one execution machine:
//!   advertises it, accepts claims, spawns a starter per activation;
//! * **condor_starter** ([`starter`]) — sets up the execution
//!   environment and spawns the job. When the submit file carries
//!   `+ToolDaemonCmd` and `+SuspendJobAtExec` (Figure 5B), the starter
//!   speaks TDP: it creates the application **paused**, launches the
//!   tool daemon, and puts the pid into the Local Attribute Space —
//!   the four steps of Figure 6;
//! * **condor_master** — keeps the other daemons alive, restarting them
//!   on failure. That role is `tdp_ops::Supervisor`, registered over
//!   the daemons' `Supervisable` impls (probe + restart closure, with
//!   backoff and a restart budget); this crate has no supervisor of its
//!   own;
//! * **submit files** ([`submit`]) — the Figure 5B syntax, including
//!   the `ToolDaemon*` extension directives;
//! * **`condor_syscall_lib`** ([`syscall_lib`]) — the Standard
//!   universe's remote file I/O, executed by the shadow on the submit
//!   machine while the job runs;
//! * **pool** ([`pool`]) — convenience assembly of a whole pool.

pub mod classad;
pub mod matchmaker;
pub mod messages;
pub mod pool;
pub mod schedd;
pub mod shadow;
pub mod startd;
pub mod starter;
pub mod submit;
pub mod syscall_lib;

pub use classad::{AdValue, ClassAd, Requirement};
pub use matchmaker::Matchmaker;
pub use pool::CondorPool;
pub use schedd::{JobState, Schedd};
pub use submit::{SubmitDescription, ToolDaemonSpec, Universe};
