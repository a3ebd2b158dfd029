//! The Standard universe's remote-syscall library — our
//! `condor_syscall_lib`.
//!
//! §4.1: "Jobs that are linked for Condor's standard universe, which
//! perform remote system calls, do so via the condor_shadow. Any system
//! call performed on the remote execute machine is sent over the
//! network to the condor_shadow which actually performs the system call
//! (such as file I/O) on the submit machine, and the result is sent
//! back over the network to the remote job."
//!
//! An application "links" this library by calling
//! [`RemoteFs::from_env`] inside its program body: the starter exports
//! the shadow's address in the `CONDOR_SHADOW` environment variable for
//! Standard-universe jobs, and every [`RemoteFs::read`] /
//! [`RemoteFs::write`] is executed by the shadow against the submit
//! machine's filesystem — while the job runs, not as before/after
//! staging.

use crate::messages::{recv_json_timeout, send_json, ShadowMsg};
use std::time::Duration;
use tdp_netsim::{Conn, Network};
use tdp_proto::{Addr, JobId, TdpError, TdpResult};
use tdp_simos::ProcCtx;

/// Environment variable the starter sets for Standard-universe jobs.
pub const SHADOW_ENV: &str = "CONDOR_SHADOW";

/// A remote filesystem handle: every operation is a remote syscall
/// through the job's shadow.
pub struct RemoteFs {
    conn: Conn,
}

impl RemoteFs {
    /// "Link" the syscall library: read the shadow address from the
    /// process environment and connect. Errors when the job was not
    /// started in the Standard universe (no `CONDOR_SHADOW`).
    pub fn from_env(net: &Network, ctx: &ProcCtx) -> TdpResult<RemoteFs> {
        let addr = ctx.env(SHADOW_ENV).and_then(Addr::parse).ok_or_else(|| {
            TdpError::Substrate(format!(
                "no {SHADOW_ENV} in the environment: not a standard-universe job"
            ))
        })?;
        Ok(RemoteFs {
            conn: net.connect(ctx.host(), addr)?,
        })
    }

    /// Remote `read(2)`-ish: fetch a whole file from the submit machine.
    pub fn read(&mut self, path: &str) -> TdpResult<Vec<u8>> {
        send_json(
            &self.conn,
            &ShadowMsg::FetchFile {
                path: path.to_string(),
            },
        )?;
        match recv_json_timeout::<ShadowMsg>(&mut self.conn, Duration::from_secs(10))? {
            ShadowMsg::FileData { data, .. } => Ok(data.0),
            ShadowMsg::FileError { path, error } => {
                Err(TdpError::Substrate(format!("remote read {path}: {error}")))
            }
            other => Err(TdpError::Protocol(format!(
                "unexpected shadow reply {other:?}"
            ))),
        }
    }

    /// Remote `write(2)`-ish: write a whole file on the submit machine.
    pub fn write(&mut self, path: &str, data: &[u8]) -> TdpResult<()> {
        send_json(
            &self.conn,
            &ShadowMsg::StoreFile {
                path: path.to_string(),
                data: data.to_vec().into(),
            },
        )?;
        match recv_json_timeout::<ShadowMsg>(&mut self.conn, Duration::from_secs(10))? {
            ShadowMsg::StoreOk => Ok(()),
            other => Err(TdpError::Protocol(format!(
                "unexpected shadow reply {other:?}"
            ))),
        }
    }

    /// Report an application-level progress note through the shadow
    /// (shows up as the job's rank status detail).
    pub fn report(&mut self, job: JobId, status: &str) -> TdpResult<()> {
        send_json(
            &self.conn,
            &ShadowMsg::StatusUpdate {
                job,
                rank: 0,
                status: status.to_string(),
            },
        )?;
        match recv_json_timeout::<ShadowMsg>(&mut self.conn, Duration::from_secs(10))? {
            ShadowMsg::Ack => Ok(()),
            other => Err(TdpError::Protocol(format!(
                "unexpected shadow reply {other:?}"
            ))),
        }
    }
}
