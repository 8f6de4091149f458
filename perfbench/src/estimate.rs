//! `estimate_rpc`: closed loop of `POST /v1/estimate` requests in a fixed
//! cycle of 20: all 14 named built-in test cases (answered inline on the
//! event loop), 5 inline `system` bodies perturbed from the built-ins by
//! the seed (request decode; a memo miss on first use), and one 16-item
//! batch (the handler-pool queue).

use std::sync::Arc;

use ecochip_core::{ChipletSize, EcoChip, EcoChipService, System};
use ecochip_serve::api::{BatchEstimateItem, EstimateRequest, EstimateResponse};
use ecochip_techdb::{Area, TechDb};
use ecochip_testcases::catalog;

use crate::client::{self, Class, EndToEnd, Request};
use crate::rng::Rng;
use crate::{replay, Ctx, Outcome};

/// Items in one batch body.
pub const BATCH_ITEMS: usize = 16;
/// Distinct inline bodies, cycled in order.
const INLINE_POOL: usize = 1024;
/// Distinct batch bodies, cycled in order.
const BATCH_POOL: usize = 64;

/// Every distinct body a run sends, with its reference response.
pub struct Pools {
    pub named: Vec<Request>,
    pub inline: Vec<Request>,
    pub batch: Vec<Request>,
}

fn response_bytes(value: &impl serde::Serialize) -> Vec<u8> {
    let mut json = serde_json::to_string(value).expect("responses serialize");
    json.push('\n');
    json.into_bytes()
}

/// The response to one estimate body, computed as the server does: decode
/// the exact bytes sent (so float round trips cannot make the reference
/// differ), resolve, estimate.
fn response(service: &EcoChipService, db: &TechDb, json: &str) -> EstimateResponse {
    let request: EstimateRequest = serde_json::from_str(json).expect("generated bodies parse");
    let system = request.resolve(db).expect("generated bodies resolve");
    let report = service
        .estimate(&system)
        .expect("generated designs estimate");
    EstimateResponse {
        system: system.name.clone(),
        embodied_fraction: report.embodied_fraction(),
        report,
    }
}

/// A built-in with every chiplet's size scaled by 0.8–1.25: a new design
/// (and so new memo keys) of realistic shape.
fn perturbed(db: &TechDb, names: &[String], rng: &mut Rng) -> System {
    let mut system = catalog::build(db, &names[rng.index(names.len())]).expect("built-ins build");
    for chiplet in &mut system.chiplets {
        let scale = rng.range(0.8, 1.25);
        chiplet.size = match chiplet.size {
            ChipletSize::Transistors(count) => ChipletSize::Transistors(count * scale),
            ChipletSize::AreaAtNode { area, node } => ChipletSize::AreaAtNode {
                area: Area::from_mm2(area.mm2() * scale),
                node,
            },
        };
    }
    system
}

impl Pools {
    pub fn build(seed: u64) -> Self {
        Self::build_sized(seed, INLINE_POOL, BATCH_POOL)
    }

    /// [`Pools::build`] with explicit pool sizes.
    pub fn build_sized(seed: u64, inline_pool: usize, batch_pool: usize) -> Self {
        let db = TechDb::default();
        let service = EcoChipService::new(EcoChip::default());
        let names = catalog::names();
        let single = |class, json: String| {
            let expected = response_bytes(&response(&service, &db, &json));
            Request::post(class, "/v1/estimate", json, Some(Arc::new(expected)), 1)
        };
        let named: Vec<Request> = names
            .iter()
            .map(|name| {
                let request = EstimateRequest {
                    testcase: Some(name.clone()),
                    system: None,
                };
                single(
                    Class::Named,
                    serde_json::to_string(&request).expect("serializes"),
                )
            })
            .collect();
        let mut rng = Rng::derive(seed, 2);
        let inline: Vec<Request> = (0..inline_pool)
            .map(|_| {
                let request = EstimateRequest {
                    testcase: None,
                    system: Some(perturbed(&db, &names, &mut rng)),
                };
                single(
                    Class::Inline,
                    serde_json::to_string(&request).expect("serializes"),
                )
            })
            .collect();
        let batch = (0..batch_pool)
            .map(|_| {
                let items: Vec<&Request> = (0..BATCH_ITEMS)
                    .map(|_| {
                        if rng.unit() < 0.75 {
                            &named[rng.index(named.len())]
                        } else {
                            &inline[rng.index(inline.len())]
                        }
                    })
                    .collect();
                let json = format!(
                    "[{}]",
                    items
                        .iter()
                        .map(|item| item.body.as_str())
                        .collect::<Vec<_>>()
                        .join(",")
                );
                let requests: Vec<EstimateRequest> =
                    serde_json::from_str(&json).expect("batch bodies parse");
                let responses: Vec<BatchEstimateItem> = requests
                    .iter()
                    .map(|request| {
                        let one = serde_json::to_string(request).expect("serializes");
                        BatchEstimateItem::Ok(response(&service, &db, &one))
                    })
                    .collect();
                Request::post(
                    Class::Batch,
                    "/v1/estimate",
                    json,
                    Some(Arc::new(response_bytes(&responses))),
                    BATCH_ITEMS as u64,
                )
            })
            .collect();
        Pools {
            named,
            inline,
            batch,
        }
    }

    /// Every distinct body once, the set-up's cold pass.
    pub fn all(&self) -> Vec<Request> {
        self.named
            .iter()
            .chain(&self.inline)
            .chain(&self.batch)
            .cloned()
            .collect()
    }
}

/// The request sequence: each pool cycled in order at the fixed positions
/// of [`Plan::CYCLE`].
pub struct Plan<'a> {
    pools: &'a Pools,
    sent: usize,
    named: usize,
    inline: usize,
    batch: usize,
}

impl<'a> Plan<'a> {
    pub fn new(pools: &'a Pools) -> Self {
        Plan {
            pools,
            sent: 0,
            named: 0,
            inline: 0,
            batch: 0,
        }
    }
}

fn take(pool: &[Request], next: &mut usize) -> Request {
    let request = pool[*next % pool.len()].clone();
    *next += 1;
    request
}

impl client::Plan for Plan<'_> {
    const CYCLE: &'static [Class] = {
        use Class::{Batch as B, Inline as I, Named as N};
        &[N, N, N, I, N, N, N, I, N, N, N, I, N, N, N, I, N, N, I, B]
    };

    fn next(&mut self) -> Request {
        let class = Self::CYCLE[self.sent % Self::CYCLE.len()];
        self.sent += 1;
        match class {
            Class::Named => take(&self.pools.named, &mut self.named),
            Class::Inline => take(&self.pools.inline, &mut self.inline),
            _ => take(&self.pools.batch, &mut self.batch),
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let pools = Pools::build(ctx.seed);
    let (server, setup_s) = client::set_up(ctx, &pools.all())?;
    let before = server.snapshot()?;
    let run = client::drive(ctx, &server, &mut Plan::new(&pools), |run| {
        run.count(&[Class::Named, Class::Inline]) >= 110 && run.count(&[Class::Batch]) >= 25
    });
    let after = server.snapshot()?;
    let peak_rss_mb = server.peak_rss_mb()?;
    server.stop()?;

    let singles = [Class::Named, Class::Inline];
    let figures = EndToEnd::new(&run, setup_s, peak_rss_mb, &singles, Class::Batch)?;
    let mut out = Outcome {
        attempted: run.attempted(),
        failed: run.failed,
        ..Outcome::default()
    };
    out.detail("single_requests", run.count(&singles) as f64);
    out.detail("batch_requests", run.count(&[Class::Batch]) as f64);
    out.detail("requests_per_s", run.attempted() as f64 / run.busy_s);
    out.metrics = if ctx.trace {
        replay::estimate(ctx, &replay::Scrape::new(before, after, &run), &pools, &run)?
    } else {
        figures.rows()
    };
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{shape, Plan as _};

    #[test]
    fn the_seed_picks_values_only() {
        let draw = |seed: u64| {
            let pools = Pools::build_sized(seed, 24, 4);
            let mut plan = Plan::new(&pools);
            (0..200)
                .map(|_| {
                    let request = plan.next();
                    (request.wire, request.expected.map(|e| format!("{e:?}")))
                })
                .collect::<Vec<_>>()
        };
        assert!(draw(3) == draw(3));
        assert!(draw(3) != draw(4));
        let (three, four) = (Pools::build_sized(3, 24, 4), Pools::build_sized(4, 24, 4));
        let fixed = shape(&mut Plan::new(&three), 200);
        assert_eq!(fixed, shape(&mut Plan::new(&four), 200));
        let batches = fixed.iter().filter(|(class, _)| *class == Class::Batch);
        assert_eq!(batches.clone().count(), 10);
        assert!(batches
            .clone()
            .all(|&(_, units)| units == BATCH_ITEMS as u64));
    }

    #[test]
    fn a_held_out_seed_runs_clean() {
        // A seed never used while the benchmark was written: every
        // generated design resolves and estimates (building panics
        // otherwise), and every reference is a report, not an error.
        let pools = Pools::build_sized(0x00c0_ffee, 256, 16);
        let text = |request: &Request| {
            String::from_utf8(request.expected.as_deref().cloned().expect("bytes")).unwrap()
        };
        for request in pools.named.iter().chain(&pools.inline) {
            let response: EstimateResponse =
                serde_json::from_str(text(request).trim_end()).unwrap();
            assert!(response.report.total().kg() > 0.0);
        }
        for request in &pools.batch {
            let items: Vec<BatchEstimateItem> =
                serde_json::from_str(text(request).trim_end()).unwrap();
            assert!(items
                .iter()
                .all(|item| matches!(item, BatchEstimateItem::Ok(_))));
        }
    }
}
