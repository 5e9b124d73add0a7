//! The `serve` child process and the blocking JSONL client that talks to
//! it. Every child and every scratch directory is owned by a guard whose
//! `Drop` kills or removes it, so a failed run leaves nothing behind.

use crate::spec::{Workload, CHECKPOINT_AFTER, WORKERS};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A directory under `benchmark/out/` that disappears with its guard.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create(dir: PathBuf) -> Result<Scratch, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A running `serve --listen 127.0.0.1:0` child.
#[derive(Debug)]
pub struct ServeChild {
    child: Child,
    addr: SocketAddr,
    /// Spawn → `listening on` line.
    startup: Duration,
    /// Drains the child's stderr so its log lines never fill the pipe.
    stderr: Option<JoinHandle<()>>,
}

impl ServeChild {
    /// Start `serve` over `lake_dir` with the workload's flags; a
    /// `snapshot_dir` makes the session durable (recovering from the
    /// directory when it holds a snapshot).
    pub fn spawn(
        serve_bin: &Path,
        workload: &Workload,
        lake_dir: &Path,
        snapshot_dir: Option<&Path>,
    ) -> Result<ServeChild, String> {
        let mut command = Command::new(serve_bin);
        command
            .arg("--lake-dir")
            .arg(lake_dir)
            .args(["--listen", "127.0.0.1:0"])
            .args(["--workers", &WORKERS.to_string()]);
        if workload.finetune {
            command.arg("--finetune");
        }
        if let Some(dir) = snapshot_dir {
            command
                .arg("--snapshot-dir")
                .arg(dir)
                .args(["--checkpoint-after", &CHECKPOINT_AFTER.to_string()]);
        }
        command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let started = Instant::now();
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", serve_bin.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let mut log = String::new();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.split("listening on ").nth(1) {
                        let addr = rest.split_whitespace().next().unwrap_or_default();
                        break addr
                            .parse::<SocketAddr>()
                            .map_err(|e| format!("{line:?}: {e}"));
                    }
                    log.push_str(&line);
                    log.push('\n');
                }
                _ => break Err(format!("serve exited before listening:\n{log}")),
            }
        };
        let startup = started.elapsed();
        let addr = match addr {
            Ok(addr) => addr,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let stderr = std::thread::spawn(move || lines.for_each(drop));
        Ok(ServeChild {
            child,
            addr,
            startup,
            stderr: Some(stderr),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn startup(&self) -> Duration {
        self.startup
    }

    /// `VmHWM` of the child in MB (its peak resident set so far).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read the child's status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in the child's status".to_string())
    }

    /// SIGKILL the child and wait until it is gone.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(stderr) = self.stderr.take() {
            let _ = stderr.join();
        }
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One blocking connection: a request line out, a response line back.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        // A wedged server must fail the run, not hang it.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    pub fn round_trip(&mut self, line: &str) -> Result<String, String> {
        let stream = self.reader.get_mut();
        stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(response.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Byte-identical copy of a (flat) snapshot directory.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}
