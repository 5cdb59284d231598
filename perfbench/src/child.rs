//! The shipped service binaries as child processes: spawn, read the
//! listening address off the banner, sample peak RSS, kill and reap.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Command, Stdio};
use std::thread::JoinHandle;

/// A running `copred_server` or `copred_fleet up`.
pub struct Service {
    proc: std::process::Child,
    drain: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
}

impl Service {
    /// Spawns `bin args...` with `TMPDIR=tmp` (the fleet keeps its
    /// backends' stores under the temp dir) and waits for the first
    /// stdout line carrying a socket address.
    pub fn spawn(bin: &Path, args: &[&str], tmp: &Path) -> io::Result<Service> {
        std::fs::create_dir_all(tmp)?;
        let mut proc = Command::new(bin)
            .args(args)
            .env("TMPDIR", tmp)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| io::Error::new(e.kind(), format!("spawning {}: {e}", bin.display())))?;
        let mut lines = BufReader::new(proc.stdout.take().expect("piped stdout")).lines();
        let addr = loop {
            let Some(line) = lines.next().transpose()? else {
                let _ = proc.kill();
                let _ = proc.wait();
                return Err(io::Error::other(format!(
                    "{} exited before listening",
                    bin.display()
                )));
            };
            let addr = line
                .split(|c: char| c.is_whitespace() || c == ',' || c == '(')
                .find_map(|tok| tok.parse::<SocketAddr>().ok());
            if let Some(addr) = addr {
                break addr;
            }
        };
        // Keep draining stdout so a later banner line never hits a closed pipe.
        let drain = std::thread::spawn(move || for _ in lines.by_ref() {});
        Ok(Service {
            proc,
            drain: Some(drain),
            addr,
        })
    }

    /// Peak resident set (`VmHWM`) of the process, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.proc.id()))
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.proc.kill();
        let _ = self.proc.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB (0 when unreadable).
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
