//! The closed loop every workload runs: one keep-alive connection, one
//! request in flight, requests in a fixed cycle of classes.
//!
//! With a single request in flight, a request's latency is its own service
//! time plus one loopback round trip; on a shared 2-core host, deeper
//! pipelines let the client, the event loop and the handler pool contend
//! for the cores, and the figures stop repeating.

use std::sync::Arc;
use std::time::Instant;

use crate::oracle::StreamCheck;
use crate::server::{KeepAlive, Server};
use crate::{http, stats, Ctx};

/// The class of a request: which latency figure it feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `sweep_stream`: the base sweep, answered from a warm memo.
    Base,
    /// `sweep_stream`: a sweep over fresh block budgets (memo writes).
    Fresh,
    /// `estimate_rpc`: a built-in test case by name.
    Named,
    /// `estimate_rpc`: an inline `system` body.
    Inline,
    /// `estimate_rpc`: a 16-item batch (the handler pool).
    Batch,
}

/// One request of a workload.
#[derive(Debug, Clone)]
pub struct Request {
    pub class: Class,
    /// The JSON body.
    pub body: Arc<String>,
    /// The whole HTTP request.
    pub wire: Arc<Vec<u8>>,
    /// The exact reference response; `None` when it is computed after the
    /// timed window.
    pub expected: Option<Arc<Vec<u8>>>,
    /// Verified units (points, designs, evaluations) a correct response
    /// counts for.
    pub units: u64,
}

impl Request {
    pub fn post(
        class: Class,
        path: &str,
        body: String,
        expected: Option<Arc<Vec<u8>>>,
        units: u64,
    ) -> Self {
        Request {
            class,
            wire: Arc::new(http::request_bytes("POST", path, body.as_bytes())),
            body: Arc::new(body),
            expected,
            units,
        }
    }
}

/// A workload's request sequence. The class of each position is fixed by
/// [`Plan::CYCLE`]; the seed only picks the values inside the bodies.
pub trait Plan {
    /// The classes of one cycle, in order. A run ends on a cycle boundary.
    const CYCLE: &'static [Class];

    /// The next request. Its class is `CYCLE[i % CYCLE.len()]` for the
    /// `i`-th call.
    fn next(&mut self) -> Request;
}

/// One attempted request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: Class,
    /// Seconds from send to the last response byte.
    pub seconds: f64,
    /// Units a verified response counts for.
    pub units: u64,
    pub ok: bool,
}

impl Sample {
    /// The latency figure: infinite when failed.
    pub fn latency(&self) -> f64 {
        if self.ok {
            self.seconds
        } else {
            f64::INFINITY
        }
    }

    pub fn verified_units(&self) -> u64 {
        if self.ok {
            self.units
        } else {
            0
        }
    }
}

/// A response answered `200` whose reference is only known after the
/// window: the body sent and the digest folded from what came back.
pub struct Deferred {
    pub sample: usize,
    pub body: Arc<String>,
    pub check: StreamCheck,
}

/// What the client saw in the timed window.
#[derive(Default)]
pub struct ClientRun {
    /// Requests per cycle of the plan; a run holds whole cycles.
    pub cycle: usize,
    pub samples: Vec<Sample>,
    pub failed: u64,
    /// Wall seconds spent inside requests, failed ones included.
    pub busy_s: f64,
    /// Seconds spent reading and checking response bodies.
    pub verify_s: f64,
    pub deferred: Vec<Deferred>,
}

impl ClientRun {
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Count a sample as failed after the fact.
    pub fn fail(&mut self, sample: usize) {
        let sample = &mut self.samples[sample];
        if sample.ok {
            sample.ok = false;
            self.failed += 1;
        }
    }

    pub fn count(&self, classes: &[Class]) -> usize {
        self.samples
            .iter()
            .filter(|s| classes.contains(&s.class))
            .count()
    }

    /// Sorted latencies of `classes`, failures as infinity.
    pub fn latencies(&self, classes: &[Class]) -> Vec<f64> {
        stats::sorted(
            self.samples
                .iter()
                .filter(|s| classes.contains(&s.class))
                .map(Sample::latency)
                .collect(),
        )
    }

    pub fn units(&self) -> u64 {
        self.samples.iter().map(Sample::verified_units).sum()
    }

    /// Verified units per second inside requests: the median, over the
    /// run's cycles, of each cycle's verified units ÷ its time in requests.
    /// Every cycle holds each class in the same proportion, so a stall of
    /// the shared host moves the cycles it falls in, not the figure.
    pub fn throughput(&self) -> f64 {
        let rates: Vec<f64> = self
            .samples
            .chunks_exact(self.cycle)
            .map(|cycle| {
                let units: u64 = cycle.iter().map(Sample::verified_units).sum();
                let seconds: f64 = cycle.iter().map(|s| s.seconds).sum();
                units as f64 / seconds
            })
            .collect();
        stats::median(&rates)
    }
}

/// Send `request` on `conn` and check the response as it streams in.
/// Returns the status (or the I/O error), the check, and the seconds from
/// send to the last byte.
fn exchange(
    conn: &mut KeepAlive,
    server: &Server,
    request: &Request,
    verify_s: &mut f64,
) -> (std::io::Result<u16>, StreamCheck, f64) {
    let mut check = StreamCheck::new(request.expected.clone());
    let sent = Instant::now();
    let status = conn.exchange(server, &request.wire, |piece| {
        let t = Instant::now();
        check.feed(piece);
        *verify_s += t.elapsed().as_secs_f64();
    });
    (status, check, sent.elapsed().as_secs_f64())
}

/// Send each request once, in order, and require each verified answer.
pub fn verified_pass(server: &Server, requests: &[Request]) -> Result<(), String> {
    let mut conn = KeepAlive::default();
    let mut verify_s = 0.0;
    for request in requests {
        let (status, check, _) = exchange(&mut conn, server, request, &mut verify_s);
        match status {
            Ok(200) if check.finish() => {}
            Ok(200) => return Err(format!("a {:?} response differed", request.class)),
            Ok(status) => return Err(format!("a {:?} request answered {status}", request.class)),
            Err(e) => return Err(format!("a {:?} request failed: {e}", request.class)),
        }
    }
    Ok(())
}

/// Run `plan` in a closed loop for `ctx.seconds`, then to the end of the
/// cycle. Past that, and up to four times as long, it keeps going while
/// `enough` says a reported percentile still lacks samples, so a slower
/// program yields a longer run rather than no figure.
pub fn drive<P: Plan>(
    ctx: &Ctx,
    server: &Server,
    plan: &mut P,
    enough: impl Fn(&ClientRun) -> bool,
) -> ClientRun {
    let mut run = ClientRun {
        cycle: P::CYCLE.len(),
        ..ClientRun::default()
    };
    let mut conn = KeepAlive::default();
    let started = Instant::now();
    loop {
        if run.samples.len().is_multiple_of(P::CYCLE.len()) {
            let elapsed = started.elapsed().as_secs_f64();
            if elapsed >= ctx.seconds && (enough(&run) || elapsed >= 4.0 * ctx.seconds) {
                break;
            }
        }
        let request = plan.next();
        let (status, check, seconds) = exchange(&mut conn, server, &request, &mut run.verify_s);
        run.busy_s += seconds;
        let ok = match status {
            Ok(200) if request.expected.is_none() => {
                run.deferred.push(Deferred {
                    sample: run.samples.len(),
                    body: Arc::clone(&request.body),
                    check,
                });
                true
            }
            Ok(200) => check.finish(),
            Ok(_) | Err(_) => false,
        };
        run.failed += u64::from(!ok);
        run.samples.push(Sample {
            class: request.class,
            seconds,
            units: request.units,
            ok,
        });
    }
    run
}

/// Start the server [`crate::SETUPS`] times, each followed by one verified pass
/// over `cold` against its empty memo; all but the last are stopped again.
/// Returns the live server and the median set-up time: spawn, first `200`
/// from `/v1/healthz`, then the cold pass.
pub fn set_up(ctx: &Ctx, cold: &[Request]) -> Result<(Server, f64), String> {
    let mut times = Vec::with_capacity(crate::SETUPS);
    for round in 0..crate::SETUPS {
        let started = Instant::now();
        let server = Server::start(&ctx.server_bin, &ctx.server_flags(), ctx.server_log())?;
        verified_pass(&server, cold).map_err(|e| format!("set-up: {e}"))?;
        times.push(started.elapsed().as_secs_f64());
        if round + 1 == crate::SETUPS {
            return Ok((server, stats::median(&times)));
        }
        server.stop()?;
    }
    unreachable!("SETUPS is positive")
}

/// The six end-to-end figures every workload reports.
pub struct EndToEnd {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub throughput_per_s: f64,
    pub latency_p50_s: f64,
    pub latency_p90_s: f64,
    pub heavy_latency_s: f64,
}

impl EndToEnd {
    /// Latency figures of `light` (p50, p90) and `heavy` (p50) requests.
    pub fn new(
        run: &ClientRun,
        setup_s: f64,
        peak_rss_mb: f64,
        light: &[Class],
        heavy: Class,
    ) -> Result<Self, String> {
        let light_latencies = run.latencies(light);
        let heavy_latencies = run.latencies(&[heavy]);
        let figure = |samples: &[f64], p: f64, what: &str| {
            stats::percentile(samples, p).ok_or(format!(
                "too few {what} requests ({}) for a p{p}",
                samples.len()
            ))
        };
        Ok(EndToEnd {
            setup_s,
            peak_rss_mb,
            throughput_per_s: run.throughput(),
            latency_p50_s: figure(&light_latencies, 50.0, "light")?,
            latency_p90_s: figure(&light_latencies, 90.0, "light")?,
            heavy_latency_s: figure(&heavy_latencies, 50.0, "heavy")?,
        })
    }

    pub fn rows(&self) -> Vec<(String, f64, &'static str)> {
        [
            ("setup_s", self.setup_s, "s"),
            ("peak_rss_mb", self.peak_rss_mb, "MB"),
            ("throughput_per_s", self.throughput_per_s, "1/s"),
            ("latency_p50_s", self.latency_p50_s, "s"),
            ("latency_p90_s", self.latency_p90_s, "s"),
            ("heavy_latency_s", self.heavy_latency_s, "s"),
        ]
        .into_iter()
        .map(|(name, value, unit)| (name.to_string(), value, unit))
        .collect()
    }
}

/// Classes and units of the first `n` requests of a plan.
#[cfg(test)]
pub fn shape<P: Plan>(plan: &mut P, n: usize) -> Vec<(Class, u64)> {
    (0..n)
        .map(|_| {
            let request = plan.next();
            (request.class, request.units)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_late_failure_leaves_the_latency_figures_and_the_units() {
        let mut run = ClientRun {
            cycle: 2,
            ..ClientRun::default()
        };
        for seconds in [1.0, 1.0, 2.0, 2.0, 4.0, 4.0] {
            run.samples.push(Sample {
                class: Class::Named,
                seconds,
                units: 4,
                ok: true,
            });
        }
        // Cycle rates: 4, 2 and 1 units a second.
        assert_eq!(run.throughput(), 2.0);
        run.fail(1);
        run.fail(1);
        assert_eq!(run.failed, 1);
        assert_eq!(run.units(), 20);
        // Cycle rates: 2, 2 and 1.
        assert_eq!(run.throughput(), 2.0);
        run.fail(2);
        // Cycle rates: 2, 1 and 1.
        assert_eq!(run.throughput(), 1.0);
        let inf = f64::INFINITY;
        assert_eq!(
            run.latencies(&[Class::Named]),
            [1.0, 2.0, 4.0, 4.0, inf, inf]
        );
        assert_eq!(run.count(&[Class::Batch]), 0);
    }
}
