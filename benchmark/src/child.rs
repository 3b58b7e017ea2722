//! The shipped server as a child process: `ssg serve --addr 127.0.0.1:0
//! --workers 2`, started, probed and stopped over loopback.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// How long a graceful `SHUTDOWN` may take before the child is killed.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(20);

/// A running `ssg serve` child. Dropping it kills and reaps the process.
pub struct ServeChild {
    child: Child,
    // Held open so the server's final status line never hits a closed pipe.
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServeChild {
    /// Spawns the server with its working directory set to `dir` (where it
    /// would write an incident dump) and waits for its first `PONG`.
    /// Returns the child and the time from spawn to that `PONG`.
    pub fn spawn(ssg: &Path, dir: &Path) -> Result<(ServeChild, Duration), String> {
        let start = Instant::now();
        let mut child = Command::new(ssg)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", ssg.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut me = ServeChild {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        me.stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading server stdout: {e}"))?;
        me.addr = line
            .trim()
            .strip_prefix("ssg-serve: listening on ")
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?
            .to_string();
        let reply = me.exchange("PING")?;
        if reply != "PONG" {
            return Err(format!("PING answered with {reply:?}"));
        }
        Ok((me, start.elapsed()))
    }

    /// The `host:port` the server listens on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Sends one line on a fresh connection and returns the reply line.
    fn exchange(&self, line: &str) -> Result<String, String> {
        let mut s = TcpStream::connect(&self.addr).map_err(|e| format!("{}: {e}", self.addr))?;
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        s.write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("{}: {e}", self.addr))?;
        let mut reply = String::new();
        BufReader::new(s)
            .read_line(&mut reply)
            .map_err(|e| format!("{}: {e}", self.addr))?;
        Ok(reply.trim_end().to_string())
    }

    /// The server's peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        peak_rss_kib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Graceful stop via the loopback `SHUTDOWN` verb; waits for the exit.
    pub fn shutdown(mut self) -> Result<ExitStatus, String> {
        let bye = self.exchange("SHUTDOWN")?;
        if bye != "BYE" {
            return Err(format!("SHUTDOWN answered with {bye:?}"));
        }
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                let mut rest = String::new();
                let _ = self.stdout.read_to_string(&mut rest);
                return Ok(status);
            }
            if Instant::now() > deadline {
                return Err("server did not exit after SHUTDOWN".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `VmHWM` in KiB from a `/proc/<pid>/status` file.
pub fn peak_rss_kib(status_path: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{status_path}: no VmHWM line"))
}
