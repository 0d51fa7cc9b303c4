//! The `fq serve` child process and the line/JSON client connection.

use std::ffi::OsString;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a server may take to print `listening on` before the run
/// fails (the largest store recovers in a few seconds).
const STARTUP_LIMIT: Duration = Duration::from_secs(90);

/// A running `fq serve`. Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Spawn → the `listening on` line.
    pub setup: Duration,
    /// The lines printed before `listening on`.
    pub banner: Vec<String>,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawn `fq serve <args>` with `FQ_THREADS=<threads>` and wait for
    /// its `listening on` line.
    pub fn start(fq: &Path, args: &[OsString], threads: usize) -> Result<Server, String> {
        let started = Instant::now();
        let mut child = Command::new(fq)
            .arg("serve")
            .args(args)
            .env("FQ_THREADS", threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", fq.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // The reader thread reports the address, then drains stdout to EOF
        // so the server can never block on a full pipe.
        let (tx, rx) = mpsc::channel::<Result<(String, Instant), String>>();
        let drain = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            let mut found = false;
            for line in lines.by_ref() {
                let Ok(line) = line else { break };
                let at = Instant::now();
                if !found {
                    found = line.contains("listening on");
                    let _ = tx.send(Ok((line, at)));
                }
            }
            if !found {
                let _ = tx.send(Err("fq serve exited before listening".into()));
            }
        });
        let mut banner = Vec::new();
        let fail = |mut child: Child, drain: JoinHandle<()>, e: String| {
            let _ = child.kill();
            let _ = child.wait();
            let _ = drain.join();
            Err(e)
        };
        loop {
            let left = STARTUP_LIMIT.saturating_sub(started.elapsed());
            match rx.recv_timeout(left) {
                Ok(Ok((line, at))) => {
                    if let Some(addr) = line.split("listening on ").nth(1) {
                        let addr = match addr.trim().parse::<SocketAddr>() {
                            Ok(a) => a,
                            Err(e) => return fail(child, drain, format!("bad address: {e}")),
                        };
                        return Ok(Server {
                            child,
                            addr,
                            setup: at - started,
                            banner,
                            drain: Some(drain),
                        });
                    }
                    banner.push(line);
                }
                Ok(Err(e)) => return fail(child, drain, e),
                Err(_) => return fail(child, drain, "fq serve did not start in time".into()),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib / 1024.0)
    }

    /// SIGKILL the server and reap it.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One client connection. `request` times from the first byte written
/// to the last byte of the response line read.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    pub response: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(1 << 20, stream),
            out: Vec::new(),
            response: String::new(),
        })
    }

    /// Send one request line; the response lands in `self.response`.
    /// Returns the instants the write started and the response ended.
    pub fn request(&mut self, line: &str) -> io::Result<(Instant, Instant)> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        let start = Instant::now();
        self.writer.write_all(&self.out)?;
        self.response.clear();
        if self.reader.read_line(&mut self.response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let end = Instant::now();
        let trimmed = self.response.trim_end().len();
        self.response.truncate(trimmed);
        Ok((start, end))
    }
}
