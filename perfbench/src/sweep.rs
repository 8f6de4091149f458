//! `sweep_stream`: closed loop of `POST /v1/sweep` requests, 3,430 points
//! each (7³ node tuples × 5 lifetimes × 2 fab energy sources over the GA102
//! 3-chiplet base), streamed back as chunked NDJSON. Every fourth request
//! carries fresh transistor budgets drawn from the seed, so the memo takes
//! writes all run long.

use std::sync::Arc;

use ecochip_core::disaggregation::SocBlocks;
use ecochip_techdb::TechDb;

use crate::client::{self, Class, EndToEnd, Request};
use crate::oracle::Digest;
use crate::rng::Rng;
use crate::{replay, space, Ctx, Outcome};

/// Points in every sweep request.
pub const POINTS: u64 = 3430;

/// The request sequence: the base sweep three times, then a sweep over
/// freshly drawn block budgets.
pub struct Plan {
    rng: Rng,
    base_blocks: SocBlocks,
    pub base: Request,
    sent: usize,
}

impl Plan {
    /// The plan of `seed`; the base request carries no reference yet.
    pub fn new(seed: u64, db: &TechDb) -> Self {
        let base_blocks = space::base_blocks(db);
        let base = Request::post(
            Class::Base,
            "/v1/sweep",
            space::sweep_body(&base_blocks),
            None,
            POINTS,
        );
        Plan {
            rng: Rng::derive(seed, 1),
            base_blocks,
            base,
            sent: 0,
        }
    }
}

impl client::Plan for Plan {
    const CYCLE: &'static [Class] = &[Class::Base, Class::Base, Class::Base, Class::Fresh];

    fn next(&mut self) -> Request {
        let class = Self::CYCLE[self.sent % Self::CYCLE.len()];
        self.sent += 1;
        match class {
            Class::Fresh => {
                let blocks = space::fresh_blocks(&self.base_blocks, &mut self.rng);
                Request::post(
                    Class::Fresh,
                    "/v1/sweep",
                    space::sweep_body(&blocks),
                    None,
                    POINTS,
                )
            }
            _ => self.base.clone(),
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let db = TechDb::default();
    let service = space::service(ctx.nproc);
    let mut plan = Plan::new(ctx.seed, &db);
    let base_spec = space::sweep_spec(&db, &plan.base.body);
    plan.base.expected = Some(Arc::new(space::reference_stream(&service, &base_spec)));

    // The base sweep is the only body that repeats; a fresh one is new
    // every time.
    let (server, setup_s) = client::set_up(ctx, std::slice::from_ref(&plan.base))?;
    let before = server.snapshot()?;
    // The base p90 and the fresh p50 need 100 and 20 samples.
    let mut run = client::drive(ctx, &server, &mut plan, |run| {
        run.count(&[Class::Base]) >= 110 && run.count(&[Class::Fresh]) >= 25
    });
    let after = server.snapshot()?;
    let peak_rss_mb = server.peak_rss_mb()?;
    server.stop()?;

    // Fresh-budget references, evaluated in-process after the timed window
    // (each differs, so none can be prepared ahead).
    for deferred in std::mem::take(&mut run.deferred) {
        let reference = space::reference_stream(&service, &space::sweep_spec(&db, &deferred.body));
        if !deferred.check.matches_digest(&Digest::of(&reference)) {
            run.fail(deferred.sample);
        }
    }

    let figures = EndToEnd::new(&run, setup_s, peak_rss_mb, &[Class::Base], Class::Fresh)?;
    let mut out = Outcome {
        attempted: run.attempted(),
        failed: run.failed,
        ..Outcome::default()
    };
    out.detail("base_requests", run.count(&[Class::Base]) as f64);
    out.detail("fresh_requests", run.count(&[Class::Fresh]) as f64);
    out.detail("points_per_request", POINTS as f64);
    out.metrics = if ctx.trace {
        replay::sweep(ctx, &replay::Scrape::new(before, after, &run), &run)?
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
        let db = TechDb::default();
        let bodies = |seed: u64| {
            let mut plan = Plan::new(seed, &db);
            (0..16).map(|_| plan.next().wire).collect::<Vec<_>>()
        };
        assert_eq!(bodies(3), bodies(3));
        assert_ne!(bodies(3), bodies(4));
        let fixed = shape(&mut Plan::new(3, &db), 16);
        assert_eq!(fixed, shape(&mut Plan::new(4, &db), 16));
        assert!(
            fixed
                .iter()
                .enumerate()
                .all(|(i, &(class, units))| units == POINTS
                    && (class == Class::Fresh) == (i % 4 == 3))
        );
    }

    #[test]
    fn a_held_out_seed_runs_clean() {
        // A seed never used while the benchmark was written: its first
        // fresh-budget sweep resolves and evaluates every point.
        let db = TechDb::default();
        let mut plan = Plan::new(0x00c0_ffee, &db);
        let fresh = (0..4).map(|_| plan.next()).last().expect("four requests");
        assert_eq!(fresh.class, Class::Fresh);
        let spec = space::sweep_spec(&db, &fresh.body);
        let stream = space::reference_stream(&space::service(2), &spec);
        assert_eq!(spec.len() as u64, POINTS);
        assert_eq!(stream.iter().filter(|&&b| b == b'\n').count(), spec.len());
    }
}
