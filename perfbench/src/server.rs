//! The server under test: the release `ecochip serve` binary, run as a
//! child process on an ephemeral loopback port.

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::http;

/// How long the child may take to bind, answer health checks or exit.
const STARTUP_LIMIT: Duration = Duration::from_secs(30);

/// A running `ecochip serve` child.
pub struct Server {
    child: std::process::Child,
    addr: SocketAddr,
}

/// The server's memo bound (entries per cache): peak memory stops tracking
/// run length, and evictions happen.
pub const MEMO_MAX_ENTRIES: usize = 8192;

/// The serve flags the benchmark runs with: `--threads` and `--jobs` sized
/// to the machine, a per-connection request bound no run reaches (the
/// default of 1000 would recycle the load generator's connections
/// mid-run), and the memo bound.
pub fn flags(nproc: usize) -> Vec<String> {
    [
        "--threads",
        &nproc.to_string(),
        "--jobs",
        &nproc.to_string(),
        "--max-requests-per-conn",
        "1000000000",
        "--memo-max-entries",
        &MEMO_MAX_ENTRIES.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

impl Server {
    /// Spawn the server and wait for its first `200` from `/v1/healthz`.
    pub fn start(binary: &Path, flags: &[String], log: PathBuf) -> Result<Self, String> {
        let started = Instant::now();
        let log_file = std::fs::File::create(&log).map_err(|e| format!("creating {log:?}: {e}"))?;
        let child = Command::new(binary)
            .args(["serve", "--addr", "127.0.0.1:0", "--log-level", "error"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawning {binary:?}: {e}"))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        // The banner names the bound port.
        loop {
            let text = std::fs::read_to_string(&log).unwrap_or_default();
            let banner = text.split("listening on http://").nth(1);
            if let Some(rest) = banner.filter(|rest| rest.contains('\n')) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                server.addr = addr
                    .parse()
                    .map_err(|_| format!("unparseable listen address {addr:?}"))?;
                break;
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited during start-up ({status}): {text}"));
            }
            if started.elapsed() > STARTUP_LIMIT {
                return Err("server did not announce its address".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        while server.get("/v1/healthz").map(|(status, _)| status) != Ok(200) {
            if started.elapsed() > STARTUP_LIMIT {
                return Err("server never answered /v1/healthz".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(server)
    }

    pub fn connect(&self) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(STARTUP_LIMIT))?;
        Ok(stream)
    }

    /// One request on a fresh connection; returns status and body.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let mut out = Vec::new();
        let wire = http::request_bytes(method, path, body);
        let status =
            KeepAlive::default().exchange(self, &wire, |piece| out.extend_from_slice(piece))?;
        Ok((status, out))
    }

    pub fn get(&self, path: &str) -> Result<(u16, Vec<u8>), String> {
        self.request("GET", path, b"").map_err(|e| e.to_string())
    }

    /// Every sample of `/metrics`, keyed by series name with labels.
    pub fn metrics(&self) -> Result<Metrics, String> {
        let (status, body) = self.get("/metrics")?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        let text = String::from_utf8_lossy(&body);
        let mut samples = BTreeMap::new();
        for line in text.lines().filter(|line| !line.starts_with('#')) {
            if let Some((series, value)) = line.rsplit_once(' ') {
                if let Ok(value) = value.parse::<f64>() {
                    samples.insert(series.to_string(), value);
                }
            }
        }
        Ok(Metrics(samples))
    }

    /// Peak resident set size of the child, in MB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading the server's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line".into())
    }

    /// CPU time and context switches from `/proc/<pid>`: user + system
    /// seconds over every thread of the server (live or exited), and the
    /// voluntary + involuntary switches of its main thread, which runs the
    /// event loop.
    pub fn proc_counters(&self) -> Result<ProcCounters, String> {
        let pid = self.child.id();
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .map_err(|e| format!("reading the server's /proc stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let ticks: Vec<f64> = rest
            .split_whitespace()
            .skip(11)
            .take(2)
            .filter_map(|field| field.parse().ok())
            .collect();
        if ticks.len() != 2 {
            return Err(format!("unparseable /proc stat {stat:?}"));
        }
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("reading the server's /proc status: {e}"))?;
        let switches = status
            .lines()
            .filter(|line| line.contains("ctxt_switches:"))
            .filter_map(|line| line.split_whitespace().nth(1)?.parse::<f64>().ok())
            .sum();
        Ok(ProcCounters {
            cpu_s: (ticks[0] + ticks[1]) / USER_HZ,
            switches,
        })
    }

    /// Graceful shutdown, then wait for the process to end (killing it if
    /// it outlives the start-up limit).
    pub fn stop(mut self) -> Result<(), String> {
        let _ = self.request("POST", "/v1/shutdown", b"");
        let deadline = Instant::now() + STARTUP_LIMIT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not shut down; killed".into());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached on an error path: never leave a child behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One keep-alive connection for a closed loop, reopened on the next
/// exchange after an I/O error.
#[derive(Default)]
pub struct KeepAlive(Option<(TcpStream, BufReader<TcpStream>)>);

impl KeepAlive {
    /// Send `wire` and read the response, handing body pieces to
    /// `on_body`; returns the status.
    pub fn exchange(
        &mut self,
        server: &Server,
        wire: &[u8],
        on_body: impl FnMut(&[u8]),
    ) -> std::io::Result<u16> {
        let result = (|| {
            if self.0.is_none() {
                let stream = server.connect()?;
                let reader = BufReader::with_capacity(256 * 1024, stream.try_clone()?);
                self.0 = Some((stream, reader));
            }
            let (stream, reader) = self.0.as_mut().expect("connected above");
            stream.write_all(wire)?;
            http::read_response(reader, on_body)
        })();
        if result.is_err() {
            self.0 = None;
        }
        result
    }
}

/// The server's counters at one instant: `/metrics` and `/proc`.
pub struct Snapshot {
    pub metrics: Metrics,
    pub proc: ProcCounters,
}

impl Server {
    pub fn snapshot(&self) -> Result<Snapshot, String> {
        Ok(Snapshot {
            metrics: self.metrics()?,
            proc: self.proc_counters()?,
        })
    }
}

/// Linux reports `/proc/<pid>/stat` times in `USER_HZ` ticks, 100 a second.
const USER_HZ: f64 = 100.0;

/// The server's `/proc` counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcCounters {
    pub cpu_s: f64,
    pub switches: f64,
}

/// A `/metrics` snapshot.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Sum of every series whose name (before labels) is `name`.
    pub fn sum(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(series, _)| series.split('{').next() == Some(name))
            .map(|(_, value)| value)
            .sum()
    }

    /// `after - before` for one series.
    pub fn delta(before: &Metrics, after: &Metrics, series: &str) -> f64 {
        after.get(series) - before.get(series)
    }

    pub fn delta_sum(before: &Metrics, after: &Metrics, name: &str) -> f64 {
        after.sum(name) - before.sum(name)
    }
}
