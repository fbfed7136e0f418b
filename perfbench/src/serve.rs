//! A client of the real `sawl-serve` binary: start it, submit tenants one
//! at a time over its line-JSON socket, and stop it.
//!
//! Every wait is bounded, and a wait that runs out is an error the caller
//! counts as a failed operation. The client closes each of its own
//! connections before it sends `Shutdown`: one idle connection is enough
//! to keep the daemon from exiting.
//!
//! The client talks over the daemon's Unix socket. Over TCP each answer
//! costs about 40 ms: the daemon writes a line in two writes on a socket
//! without `TCP_NODELAY`, so the second waits for the client's delayed
//! ACK, and that floor would swamp the progress polls.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sawl_serve::{Request, Response};
use sawl_simctl::{LifetimeExperiment, LifetimeResult};

/// Longest wait for the daemon to start listening, answer one RPC, or
/// exit after `Shutdown`.
const WAIT: Duration = Duration::from_secs(30);

/// Longest a tenant may take from Submit to finished.
const TENANT_WAIT: Duration = Duration::from_secs(90);

/// Pause between two progress polls of a running tenant.
const POLL: Duration = Duration::from_millis(1);

/// A running `sawl-serve` child process.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    /// Drains the daemon's stdout; ends when the daemon exits.
    stdout: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Start the daemon with one worker, listening on a Unix socket in
    /// `state_dir`, and wait until it answers a `Ping`. Returns the daemon
    /// and the seconds from spawn to the first answer.
    pub fn start(
        bin: &Path,
        state_dir: &Path,
        checkpoint_interval: u64,
    ) -> Result<(Daemon, f64), String> {
        std::fs::create_dir_all(state_dir)
            .map_err(|e| format!("cannot create {}: {e}", state_dir.display()))?;
        let socket = state_dir.join("control.sock");
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg("--state-dir")
            .arg(state_dir)
            .arg("--unix")
            .arg(&socket)
            .args(["--workers", "1"])
            .args(["--checkpoint-interval", &checkpoint_interval.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        // Read stdout on a thread so the wait for the banner is bounded;
        // the thread drains to EOF, which comes when the daemon exits.
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let stdout = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let daemon = Daemon { child, socket, stdout: Some(stdout) };
        let line =
            rx.recv_timeout(WAIT).map_err(|_| "daemon did not start listening".to_string())?;
        if !line.contains("listening on unix://") {
            return Err(format!("unexpected daemon banner {line:?}"));
        }
        match daemon.connect()?.call(&Request::Ping)?.0 {
            Response::Pong => Ok((daemon, t0.elapsed().as_secs_f64())),
            other => Err(format!("Ping answered with {other:?}")),
        }
    }

    /// Open a control connection.
    pub fn connect(&self) -> Result<Conn, String> {
        let stream = UnixStream::connect(&self.socket)
            .map_err(|e| format!("cannot connect to {}: {e}", self.socket.display()))?;
        stream.set_read_timeout(Some(WAIT)).map_err(|e| e.to_string())?;
        stream.set_write_timeout(Some(WAIT)).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer: stream })
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        crate::peak_rss_mib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Send `Shutdown` on a fresh connection and wait for the process to
    /// exit. The caller must have dropped every other connection.
    pub fn shutdown(mut self) -> Result<(), String> {
        let answer = self.connect().and_then(|mut c| c.call(&Request::Shutdown));
        let deadline = Instant::now() + WAIT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not exit after Shutdown".into()),
                Err(e) => return Err(e.to_string()),
            }
        }
        match answer?.0 {
            Response::ShuttingDown => Ok(()),
            other => Err(format!("Shutdown answered with {other:?}")),
        }
    }
}

impl Drop for Daemon {
    /// A daemon that was not shut down cleanly is killed. Either way the
    /// process is reaped and its stdout reader joined.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

/// One control connection.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    /// Send one request line and read its answer. Returns the answer and
    /// the length of its line in bytes.
    pub fn call(&mut self, req: &Request) -> Result<(Response, usize), String> {
        let mut line = serde_json::to_string(req).map_err(|e| e.to_string())?;
        line.push('\n');
        self.writer.write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))?;
        line.clear();
        let n = self.reader.read_line(&mut line).map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        let resp = serde_json::from_str(line.trim()).map_err(|e| format!("bad answer: {e}"))?;
        Ok((resp, n))
    }
}

/// One tenant served from Submit to Result.
pub struct TenantRun {
    pub result: LifetimeResult,
    /// Seconds from sending Submit to receiving the Result.
    pub seconds: f64,
    pub submit_ms: f64,
    pub result_ms: f64,
    pub result_bytes: usize,
    /// Round-trip times of the progress polls, ms.
    pub status_ms: Vec<f64>,
}

/// Submit `exp` as tenant `name`, poll its progress until it finishes, and
/// fetch its result.
pub fn serve_tenant(
    conn: &mut Conn,
    name: &str,
    exp: &LifetimeExperiment,
) -> Result<TenantRun, String> {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let submit = Request::Submit { tenant: name.into(), spec: exp.clone() };
    match conn.call(&submit)?.0 {
        Response::Ok => {}
        other => return Err(format!("Submit answered with {other:?}")),
    }
    let submit_ms = ms(t0);
    let mut status_ms = Vec::new();
    loop {
        if t0.elapsed() > TENANT_WAIT {
            return Err(format!("tenant {name} did not finish within {TENANT_WAIT:?}"));
        }
        std::thread::sleep(POLL);
        let t = Instant::now();
        let (resp, _) = conn.call(&Request::Tenant { tenant: name.into() })?;
        status_ms.push(ms(t));
        let Response::Status { tenants } = resp else {
            return Err(format!("Tenant answered with {resp:?}"));
        };
        match tenants.first().map(|s| (s.state.as_str(), &s.error)) {
            Some(("finished", _)) => break,
            Some(("running", _)) => {}
            Some((_, error)) => return Err(format!("tenant {name} failed: {error:?}")),
            None => return Err(format!("tenant {name} is unknown to the daemon")),
        }
    }
    let t = Instant::now();
    let (resp, result_bytes) = conn.call(&Request::Result { tenant: name.into() })?;
    let result_ms = ms(t);
    let seconds = t0.elapsed().as_secs_f64();
    match resp {
        Response::Result { result, .. } => Ok(TenantRun {
            result: *result,
            seconds,
            submit_ms,
            result_ms,
            result_bytes,
            status_ms,
        }),
        other => Err(format!("Result answered with {other:?}")),
    }
}
