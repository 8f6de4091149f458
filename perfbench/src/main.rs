//! The repository benchmark.
//!
//! ```text
//! perfbench --server <ecochip binary> --workload <name> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the release `ecochip serve` binary as a child process with one
//! of two closed-loop workloads (see `perfbench/README.md`), checks every
//! response against an in-process reference, and prints one JSON result
//! object as the last line of stdout. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` runs the same workload, scrapes the server's
//! counters, then replays the same generated inputs through each layer's
//! public functions inside spans and reports the per-layer metrics.

mod client;
mod estimate;
mod http;
mod oracle;
mod replay;
mod rng;
mod server;
mod space;
mod stats;
mod sweep;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Server spawns per run; `setup_s` is the median of their set-up times.
pub const SETUPS: usize = 5;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    pub server_bin: PathBuf,
    pub out_dir: PathBuf,
}

impl Ctx {
    pub fn server_flags(&self) -> Vec<String> {
        server::flags(self.nproc)
    }

    pub fn server_log(&self) -> PathBuf {
        self.out_dir
            .join(format!("server-{}.log", std::process::id()))
    }
}

/// A workload's verdict and figures.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Figures behind the metrics, printed on a detail line (not part of
    /// the result).
    pub detail: Vec<(String, f64)>,
}

impl Outcome {
    pub fn detail(&mut self, name: &str, value: f64) {
        self.detail.push((name.to_string(), value));
    }
}

fn json_string(text: &str) -> String {
    serde_json::to_string(&text.to_string()).expect("strings always serialize")
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".into()
    }
}

fn json_object(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("{}:{value}", json_string(key)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Ticks stolen by the hypervisor and all ticks, summed over every CPU
/// (`/proc/stat`).
fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|field| field.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Milliseconds one core takes for a fixed integer loop, timed before and
/// after the run: it shows how fast the host ran. Recorded only; it never
/// rescales a metric.
fn calibration_ms() -> f64 {
    let started = Instant::now();
    let mut state = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..20_000_000u64 {
        state = (state ^ i).wrapping_mul(0x0000_0100_0000_01b3);
    }
    std::hint::black_box(state);
    started.elapsed().as_secs_f64() * 1e3
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where the numbers came from: printed on its own line before the result.
fn provenance(ctx: &Ctx, workload: &str) -> String {
    // Only inside a git checkout: git would otherwise search the
    // directories above this one.
    let commit = if std::path::Path::new(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    };
    let fields = [
        ("workload", json_string(workload)),
        ("seed", ctx.seed.to_string()),
        ("seconds", json_number(ctx.seconds)),
        ("trace", ctx.trace.to_string()),
        ("nproc", ctx.nproc.to_string()),
        ("cpu_model", json_string(&cpu_model())),
        (
            "rustc",
            json_string(&command_output("rustc", &["--version"])),
        ),
        ("git_commit", json_string(&commit)),
        ("server_flags", json_string(&ctx.server_flags().join(" "))),
    ];
    let fields: Vec<(String, String)> = fields
        .into_iter()
        .map(|(key, value)| (key.to_string(), value))
        .collect();
    format!("{{\"provenance\":{}}}", json_object(&fields))
}

fn parse_args() -> Result<(Ctx, String), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server_bin = None;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".into()),
                })
            }
            "--server" => server_bin = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let out_dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("creating {out_dir:?}: {e}"))?;
    let ctx = Ctx {
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        server_bin: server_bin.ok_or("--server is required")?,
        out_dir,
    };
    Ok((ctx, workload.ok_or("--workload is required")?))
}

fn main() {
    let (ctx, workload) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    println!("{}", provenance(&ctx, &workload));
    let ticks = cpu_ticks();
    let calibration_before = calibration_ms();
    let outcome = match workload.as_str() {
        "sweep_stream" => sweep::run(&ctx),
        "estimate_rpc" => estimate::run(&ctx),
        other => Err(format!(
            "unknown workload {other:?} (sweep_stream|estimate_rpc)"
        )),
    };
    let outcome = match outcome {
        Ok(outcome) if outcome.attempted > 0 => outcome,
        Ok(_) => {
            eprintln!("perfbench: {workload}: no request was attempted");
            std::process::exit(1);
        }
        Err(message) => {
            eprintln!("perfbench: {workload}: {message}");
            std::process::exit(1);
        }
    };
    let calibration_after = calibration_ms();
    let now = cpu_ticks();
    let total = now.1.saturating_sub(ticks.1).max(1);
    let steal = now.0.saturating_sub(ticks.0) as f64 / total as f64;
    let host = [
        ("steal_frac".to_string(), json_number(steal)),
        (
            "calibration_before_ms".to_string(),
            json_number(calibration_before),
        ),
        (
            "calibration_after_ms".to_string(),
            json_number(calibration_after),
        ),
    ];
    println!("{{\"host\":{}}}", json_object(&host));
    let detail: Vec<(String, String)> = outcome
        .detail
        .iter()
        .map(|(name, value)| (name.clone(), json_number(*value)))
        .collect();
    println!("{{\"detail\":{}}}", json_object(&detail));
    let mut metrics = String::new();
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}{}:{{\"value\":{},\"unit\":{}}}",
            json_string(name),
            json_number(*value),
            json_string(unit)
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.failed == 0 && outcome.metrics.iter().all(|(_, v, _)| v.is_finite()),
        outcome.attempted,
        outcome.failed
    );
}
