//! The traced run's per-layer numbers.
//!
//! Two sources, reported side by side:
//! * the server's own `/metrics` counters and `_sum`/`_count` series and
//!   its `/proc` counters, read before and after the workload (never the
//!   bucket quantiles, whose lowest bucket is 1 ms);
//! * a replay, in this process, of the same generated inputs through each
//!   layer's public functions, every call inside a span. Replays run in
//!   alternating untraced and traced passes, so the tracing overhead is
//!   measured, not assumed.
//!
//! The engine and `opt` ceilings are measured on fixed inputs of the seed in
//! every traced run; a server-side row of a route or stage the workload
//! does not use reads 0.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use ecochip_core::opt::{self, OptOutcome};
use ecochip_core::sweep::{Shard, SweepContext, SweepEngine, SweepPoint, SweepSpec, DEFAULT_CHUNK};
use ecochip_core::{
    CarbonReport, EcoChip, EcoChipError, EcoChipService, EstimatorConfig, ManufacturingModel,
    System,
};
use ecochip_design::{gates_from_transistors, DesignEstimator};
use ecochip_floorplan::{ChipletOutline, SlicingFloorplanner};
use ecochip_packaging::{CommOverheads, CommunicationEstimator, PackageEstimator};
use ecochip_power::OperationalEstimator;
use ecochip_serve::api::{
    BatchEstimateItem, EstimateRequest, EstimateResponse, OptimizeRequest, SweepRequest,
};
use ecochip_serve::http::{start_chunked, write_response, RequestParser};
use ecochip_techdb::{EnergySource, TechDb};

use crate::client::{Class, ClientRun, Plan as _, Request};
use crate::server::{self, Metrics, Snapshot};
use crate::trace::{self_times, Tracer};
use crate::{estimate, space, sweep, Ctx};

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.estimator.estimate_warm_us", "us"),
    ("core.estimator.estimate_cold_us", "us"),
    ("floorplan.floorplan_us", "us"),
    ("core.manufacturing.chiplet_cfp_us", "us"),
    ("packaging.comm_overheads_us", "us"),
    ("packaging.package_cfp_us", "us"),
    ("design.amortized_cfp_us", "us"),
    ("power.annual_cfp_us", "us"),
    ("core.sweep.context.floorplan_hit_ratio", "ratio"),
    ("core.sweep.context.manufacturing_hit_ratio", "ratio"),
    ("core.sweep.context.entries", "count"),
    ("core.sweep.context.evictions", "count"),
    ("core.sweep.engine.points_per_s", "1/s"),
    ("core.sweep.engine.encoded_points_per_s", "1/s"),
    ("core.opt.evals_per_s", "1/s"),
    ("core.opt.frontier_size", "count"),
    ("serde_json.point_encode_us", "us"),
    ("serde_json.point_bytes", "bytes"),
    ("serde_json.report_encode_us", "us"),
    ("serde_json.request_decode_us", "us"),
    ("serve.http.parse_us", "us"),
    ("serve.http.write_us", "us"),
    ("serve.http.chunk_us", "us"),
    ("serve.server.stage_decode_us", "us"),
    ("serve.server.stage_estimate_us", "us"),
    ("serve.server.stage_serialize_us", "us"),
    ("serve.server.stage_emit_us", "us"),
    ("serve.server.estimate_mean_us", "us"),
    ("serve.server.sweep_mean_us", "us"),
    ("serve.server.cpu_us_per_unit", "us"),
    ("serve.server.ctx_switches_per_request", "count"),
    ("serve.server.wakeups_per_request", "count"),
    ("serve.server.rejected", "count"),
    ("loadgen.verify_us_per_unit", "us"),
    ("trace.layer_coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Sweep requests replayed per pass: one cycle, three base and one fresh.
const SWEEP_REPLAY: usize = 4;
/// Estimate requests replayed per pass: 100 cycles.
const ESTIMATE_REPLAY: usize = 2000;

type Rows = Vec<(String, f64, &'static str)>;
type Layers = BTreeMap<&'static str, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The server's counters before and after the traced workload, with what
/// the client counted in between.
pub struct Scrape {
    before: Snapshot,
    after: Snapshot,
    /// Verified units and attempted requests.
    units: f64,
    requests: f64,
    verify_s: f64,
}

impl Scrape {
    pub fn new(before: Snapshot, after: Snapshot, run: &ClientRun) -> Self {
        Scrape {
            before,
            after,
            units: run.units() as f64,
            requests: run.attempted() as f64,
            verify_s: run.verify_s,
        }
    }

    fn delta(&self, series: &str) -> f64 {
        Metrics::delta(&self.before.metrics, &self.after.metrics, series)
    }

    fn delta_sum(&self, name: &str) -> f64 {
        Metrics::delta_sum(&self.before.metrics, &self.after.metrics, name)
    }

    /// The server-side rows.
    fn fill(&self, layers: &mut Layers) {
        let memo = |kind: &str, cache: &str| {
            self.delta(&format!("ecochip_memo_{kind}_total{{cache=\"{cache}\"}}"))
        };
        for (cache, name) in [
            ("floorplan", "core.sweep.context.floorplan_hit_ratio"),
            (
                "manufacturing",
                "core.sweep.context.manufacturing_hit_ratio",
            ),
        ] {
            let hits = memo("hits", cache);
            layers.insert(name, ratio(hits, hits + memo("misses", cache)));
        }
        layers.insert(
            "core.sweep.context.entries",
            self.after.metrics.sum("ecochip_memo_entries"),
        );
        layers.insert(
            "core.sweep.context.evictions",
            self.delta_sum("ecochip_memo_evictions_total"),
        );
        for (stage, name) in [
            ("decode", "serve.server.stage_decode_us"),
            ("estimate", "serve.server.stage_estimate_us"),
            ("serialize", "serve.server.stage_serialize_us"),
            ("emit", "serve.server.stage_emit_us"),
        ] {
            let sum = self.delta(&format!(
                "ecochip_sweep_stage_duration_seconds_sum{{stage=\"{stage}\"}}"
            ));
            layers.insert(name, ratio(sum * 1e6, self.units));
        }
        for (route, name) in [
            ("estimate", "serve.server.estimate_mean_us"),
            ("sweep", "serve.server.sweep_mean_us"),
        ] {
            let series = |suffix: &str| {
                self.delta(&format!(
                    "ecochip_http_request_duration_seconds_{suffix}{{route=\"{route}\"}}"
                ))
            };
            layers.insert(name, ratio(series("sum") * 1e6, series("count")));
        }
        layers.insert(
            "serve.server.cpu_us_per_unit",
            ratio(
                (self.after.proc.cpu_s - self.before.proc.cpu_s) * 1e6,
                self.units,
            ),
        );
        layers.insert(
            "serve.server.ctx_switches_per_request",
            ratio(
                self.after.proc.switches - self.before.proc.switches,
                self.requests,
            ),
        );
        layers.insert(
            "serve.server.wakeups_per_request",
            ratio(
                self.delta("ecochip_event_loop_wakeups_total"),
                self.requests,
            ),
        );
        layers.insert(
            "serve.server.rejected",
            self.delta_sum("ecochip_http_rejected_total"),
        );
        layers.insert(
            "loadgen.verify_us_per_unit",
            ratio(self.verify_s * 1e6, self.units),
        );
    }
}

/// One estimator per fab energy source, as the engine keeps them.
#[derive(Default)]
struct Estimators(Vec<(EnergySource, EcoChip)>);

impl Estimators {
    fn get(&mut self, source: Option<EnergySource>) -> &EcoChip {
        let source = source.unwrap_or(EstimatorConfig::default().fab_source);
        let index = match self.0.iter().position(|(s, _)| *s == source) {
            Some(index) => index,
            None => {
                let config = EstimatorConfig {
                    fab_source: source,
                    ..EstimatorConfig::default()
                };
                self.0.push((source, EcoChip::new(config)));
                self.0.len() - 1
            }
        };
        &self.0[index].1
    }
}

/// The estimator's stages called one by one, unmemoized, each in its own
/// span: what every stage costs when it does run.
fn decomposed(t: &mut Tracer, config: &EstimatorConfig, system: &System) {
    let db = &config.techdb;
    let outlines: Vec<ChipletOutline> = system
        .chiplets
        .iter()
        .map(|c| ChipletOutline::new(c.name.clone(), c.area(db).expect("replayed areas derive")))
        .collect();
    let floorplan = t
        .span("floorplan.floorplan", |_| {
            SlicingFloorplanner::new(config.floorplan).floorplan(black_box(&outlines))
        })
        .expect("replayed designs floorplan");
    let comm = if system.is_monolithic() {
        CommOverheads::none(1)
    } else {
        t.span("packaging.comm_overheads", |_| {
            CommunicationEstimator::new(db, config.comm).overheads(
                &system.packaging,
                &system.chiplet_nodes(),
                black_box(&floorplan),
            )
        })
        .expect("replayed designs have valid packaging")
    };
    let mfg = ManufacturingModel::new(db, config.wafer, config.fab_source);
    let design = DesignEstimator::new(db, config.design);
    for (i, chiplet) in system.chiplets.iter().enumerate() {
        let area = outlines[i].area + comm.chiplet_extra_area.get(i).copied().unwrap_or_default();
        let made = t.span("core.manufacturing.chiplet_cfp", |_| {
            mfg.chiplet_cfp(black_box(area), chiplet.node)
        });
        black_box(made.expect("replayed dies fit the wafer"));
        let gates = gates_from_transistors(chiplet.transistors(db).expect("transistors derive"))
            * config.design_effort_factor(chiplet.design_type);
        let cfp = t.span("design.amortized_cfp", |_| {
            design.amortized_chiplet_cfp(black_box(gates), chiplet.node, &system.volumes)
        });
        black_box(cfp.expect("design CFP derives"));
    }
    if !system.is_monolithic() {
        let package = t.span("packaging.package_cfp", |_| {
            PackageEstimator::new(db, config.packaging_source)
                .package_cfp(&system.packaging, black_box(&floorplan))
        });
        black_box(package.expect("package CFP derives"));
    }
    let power = t.span("power.annual_cfp", |_| {
        OperationalEstimator::new(config.operational_source)
            .annual_cfp(black_box(&system.usage), comm.total_power)
    });
    black_box(power);
}

/// Estimate `system` as the server does, against `context` in the state
/// the workload leaves it, then its stages one by one.
fn replay_system(
    t: &mut Tracer,
    estimator: &EcoChip,
    context: &SweepContext,
    system: &System,
) -> CarbonReport {
    let report = t
        .span("core.estimator.estimate", |_| {
            estimator.estimate_with(black_box(system), context)
        })
        .expect("replayed designs estimate");
    t.span("replay.stages", |t| {
        decomposed(t, estimator.config(), system)
    });
    report
}

/// `EcoChip::estimate_with` on every system twice more: against a context
/// that already holds all of them (warm), and against an empty one each
/// (cold).
fn warm_and_cold(
    t: &mut Tracer,
    estimators: &mut Estimators,
    systems: &[(Option<EnergySource>, System)],
) {
    let warm = SweepContext::new();
    for (source, system) in systems {
        black_box(estimators.get(*source).estimate_with(system, &warm)).expect("estimates");
    }
    t.measured(|t| {
        for (source, system) in systems {
            let estimator = estimators.get(*source);
            t.span("core.estimator.estimate_warm", |_| {
                estimator.estimate_with(black_box(system), &warm)
            })
            .expect("estimates");
        }
        for (source, system) in systems {
            let estimator = estimators.get(*source);
            let empty = memo();
            t.span("core.estimator.estimate_cold", |_| {
                estimator.estimate_with(black_box(system), &empty)
            })
            .expect("estimates");
        }
    });
}

/// Parse the exact request bytes with the server's parser.
fn replay_parse(t: &mut Tracer, wire: &[u8]) {
    let parsed = t.span("serve.http.parse", |_| {
        RequestParser::new().next_request(black_box(wire))
    });
    assert!(
        matches!(parsed, Ok(Some((_, used))) if used == wire.len()),
        "the server's parser reads the sent request whole"
    );
}

/// Run `pass` once to warm up, then untraced, traced, untraced, traced;
/// return the last traced recorder and the tracing overhead: traced over
/// untraced time inside [`Tracer::measured`], minus one, so the warm-up a
/// pass does around its replay does not dilute it.
fn passes(mut pass: impl FnMut(&mut Tracer)) -> (Tracer, f64) {
    pass(&mut Tracer::new(false));
    let mut off = 0.0;
    let mut on = 0.0;
    let mut last = Tracer::new(true);
    for round in 0..4 {
        let mut tracer = Tracer::new(round % 2 == 1);
        pass(&mut tracer);
        if round % 2 == 1 {
            on += tracer.measured_s();
            last = tracer;
        } else {
            off += tracer.measured_s();
        }
    }
    (last, on / off - 1.0)
}

/// Mean self time of `span` in µs, and total self time in µs.
fn span_us(totals: &BTreeMap<&'static str, (u64, u64)>, span: &str) -> (f64, f64) {
    totals
        .get(span)
        .filter(|(_, count)| *count > 0)
        .map_or((0.0, 0.0), |(ns, count)| {
            (*ns as f64 / *count as f64 / 1e3, *ns as f64 / 1e3)
        })
}

/// The span-derived rows every workload reports, and the totals behind
/// them.
fn fill_spans(layers: &mut Layers, tracer: &Tracer) -> BTreeMap<&'static str, (u64, u64)> {
    let totals = self_times(tracer.spans());
    for (span, name) in [
        (
            "core.estimator.estimate_warm",
            "core.estimator.estimate_warm_us",
        ),
        (
            "core.estimator.estimate_cold",
            "core.estimator.estimate_cold_us",
        ),
        ("floorplan.floorplan", "floorplan.floorplan_us"),
        (
            "core.manufacturing.chiplet_cfp",
            "core.manufacturing.chiplet_cfp_us",
        ),
        ("packaging.comm_overheads", "packaging.comm_overheads_us"),
        ("packaging.package_cfp", "packaging.package_cfp_us"),
        ("design.amortized_cfp", "design.amortized_cfp_us"),
        ("power.annual_cfp", "power.annual_cfp_us"),
        ("serde_json.point_encode", "serde_json.point_encode_us"),
        ("serde_json.report_encode", "serde_json.report_encode_us"),
        ("serde_json.request_decode", "serde_json.request_decode_us"),
        ("serve.http.parse", "serve.http.parse_us"),
        ("serve.http.write", "serve.http.write_us"),
        ("serve.http.chunk", "serve.http.chunk_us"),
    ] {
        layers.insert(name, span_us(&totals, span).0);
    }
    totals
}

/// Emit every per-layer metric in order, write the spans, and flag a
/// workload whose blocking-step layers explain under half its time.
fn finish(ctx: &Ctx, workload: &str, tracer: &Tracer, layers: Layers) -> Result<Rows, String> {
    let path = ctx
        .out_dir
        .join(format!("trace-{workload}-{}.ndjson", ctx.seed));
    tracer
        .write_ndjson(&path)
        .map_err(|e| format!("writing {path:?}: {e}"))?;
    let coverage = layers["trace.layer_coverage"];
    if coverage < 0.5 {
        eprintln!(
            "perfbench: {workload}: unexplained: the blocking-step layers cover {:.1}% of end-to-end time",
            coverage * 100.0
        );
    }
    Ok(PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let value = layers.get(name).copied().unwrap_or(0.0);
            (name.to_string(), value, *unit)
        })
        .collect())
}

/// A memo bounded like the server's.
fn memo() -> SweepContext {
    SweepContext::with_capacity(server::MEMO_MAX_ENTRIES)
}

/// A memo warmed by one pass over `spec`.
fn warmed(estimator: &EcoChip, spec: &SweepSpec) -> SweepContext {
    let context = memo();
    let mut sink = |point: SweepPoint| -> Result<(), EcoChipError> {
        black_box(point);
        Ok(())
    };
    SweepEngine::serial()
        .run_streaming_with(estimator, spec, Shard::FULL, &context, &mut sink)
        .expect("the warm-up sweep evaluates");
    context
}

/// `SweepEngine::run_streaming_with` over `spec` at the server's job
/// count against a warm memo: points per second with a counting sink, and
/// with a sink that encodes every point as the server does.
fn engine_rows(ctx: &Ctx, spec: &SweepSpec, layers: &mut Layers) -> Result<(), String> {
    let estimator = EcoChip::default();
    let context = warmed(&estimator, spec);
    let engine = SweepEngine::with_jobs(ctx.nproc);
    for (encode, name) in [
        (false, "core.sweep.engine.points_per_s"),
        (true, "core.sweep.engine.encoded_points_per_s"),
    ] {
        let mut counted = 0usize;
        let mut line = String::new();
        let started = Instant::now();
        for _ in 0..3 {
            let mut sink = |point: SweepPoint| -> Result<(), EcoChipError> {
                counted += 1;
                if encode {
                    line.clear();
                    serde_json::to_string_into(&point, &mut line)
                        .map_err(|e| EcoChipError::Io(e.to_string()))?;
                }
                black_box(point);
                Ok(())
            };
            engine
                .run_streaming_with(&estimator, spec, Shard::FULL, &context, &mut sink)
                .map_err(|e| e.to_string())?;
        }
        layers.insert(name, counted as f64 / started.elapsed().as_secs_f64());
    }
    Ok(())
}

/// Run one optimize body against `service`'s memo, as `POST /v1/optimize`
/// does.
fn run_optimize(service: &EcoChipService, db: &TechDb, json: &str) -> OptOutcome {
    let request: OptimizeRequest = serde_json::from_str(json).expect("generated bodies parse");
    let (spec, shard, config) = request.resolve(db).expect("generated bodies resolve");
    opt::optimize(
        service.estimator(),
        service.engine(),
        &spec,
        shard,
        service.context(),
        None,
        &config,
        |event| {
            black_box(event);
            Ok(())
        },
    )
    .expect("generated optimizations run")
}

/// The engine and `opt` ceilings, measured in-process in every traced run
/// whichever workload it drove: the engine over the sweep_stream base
/// space, and `opt::optimize` over the optimize bodies of the seed against
/// a memo that already holds their cases, in evaluations per second, with
/// the mean final frontier size.
fn ceilings(ctx: &Ctx, base_spec: &SweepSpec, layers: &mut Layers) -> Result<(), String> {
    engine_rows(ctx, base_spec, layers)?;
    let db = TechDb::default();
    let service = space::service(ctx.nproc);
    let bodies = space::optimize_bodies(ctx.seed, &db);
    for body in &bodies {
        run_optimize(&service, &db, body);
    }
    let mut evaluated = 0usize;
    let mut frontier = 0usize;
    let started = Instant::now();
    for body in &bodies {
        let outcome = run_optimize(&service, &db, body);
        evaluated += outcome.evaluated;
        frontier += outcome.frontier.len();
    }
    let seconds = started.elapsed().as_secs_f64();
    layers.insert("core.opt.evals_per_s", evaluated as f64 / seconds);
    layers.insert(
        "core.opt.frontier_size",
        frontier as f64 / bodies.len() as f64,
    );
    Ok(())
}

pub fn sweep(ctx: &Ctx, scrape: &Scrape, run: &ClientRun) -> Result<Rows, String> {
    let db = TechDb::default();
    let mut plan = sweep::Plan::new(ctx.seed, &db);
    let requests: Vec<Request> = (0..SWEEP_REPLAY).map(|_| plan.next()).collect();
    let base_spec = space::sweep_spec(&db, &plan.base.body);
    let mut point_bytes = 0usize;
    let mut points = 0usize;
    let (tracer, overhead) = passes(|t| {
        // After set-up, the server's memo holds the base sweep.
        let context = warmed(&EcoChip::default(), &base_spec);
        let mut estimators = Estimators::default();
        let mut systems = Vec::new();
        let mut line = String::new();
        let mut batch = Vec::new();
        let mut out = Vec::new();
        point_bytes = 0;
        points = 0;
        t.measured(|t| {
            for (k, request) in requests.iter().enumerate() {
                t.set_trace(k as u64);
                replay_parse(t, &request.wire);
                let decoded: SweepRequest = t
                    .span("serde_json.request_decode", |_| {
                        serde_json::from_str(black_box(&request.body))
                    })
                    .expect("sent bodies parse");
                let (spec, _) = t
                    .span("serve.api.resolve", |_| decoded.resolve(&db))
                    .expect("sent bodies resolve");
                out.clear();
                let mut writer = start_chunked(&mut out, 200, "application/x-ndjson", true)
                    .expect("writing to memory succeeds");
                for index in 0..spec.len() {
                    let case = t
                        .span("core.sweep.case", |_| spec.case_at(index))
                        .expect("cases decode");
                    let estimator = estimators.get(case.fab_source);
                    let report = replay_system(t, estimator, &context, &case.system);
                    let point = SweepPoint {
                        label: case.label(),
                        system: case.system,
                        report,
                    };
                    t.span("serde_json.point_encode", |_| {
                        line.clear();
                        serde_json::to_string_into(black_box(&point), &mut line)
                    })
                    .expect("points serialize");
                    systems.push((case.fab_source, point.system));
                    point_bytes += line.len() + 1;
                    points += 1;
                    batch.extend_from_slice(line.as_bytes());
                    batch.push(b'\n');
                    if (index + 1) % DEFAULT_CHUNK == 0 || index + 1 == spec.len() {
                        t.span("serve.http.chunk", |_| writer.chunk(black_box(&batch)))
                            .expect("writing to memory succeeds");
                        batch.clear();
                    }
                }
                writer.finish().expect("writing to memory succeeds");
            }
        });
        t.set_trace(requests.len() as u64);
        warm_and_cold(t, &mut estimators, &systems);
    });
    let mut layers = Layers::new();
    let totals = fill_spans(&mut layers, &tracer);
    scrape.fill(&mut layers);
    layers.insert(
        "serde_json.point_bytes",
        ratio(point_bytes as f64, points as f64),
    );
    ceilings(ctx, &base_spec, &mut layers)?;
    // The emitter serializes and writes every point while the engine's
    // workers estimate in parallel: per point, the blocking steps are
    // encode + a chunk's share + estimate ÷ jobs.
    let per_point_us = layers["serde_json.point_encode_us"]
        + layers["serve.http.chunk_us"] / DEFAULT_CHUNK as f64
        + span_us(&totals, "core.estimator.estimate").0 / ctx.nproc as f64;
    layers.insert(
        "trace.layer_coverage",
        per_point_us * run.throughput() / 1e6,
    );
    layers.insert("trace.overhead_frac", overhead);
    finish(ctx, "sweep_stream", &tracer, layers)
}

pub fn estimate(
    ctx: &Ctx,
    scrape: &Scrape,
    pools: &estimate::Pools,
    run: &ClientRun,
) -> Result<Rows, String> {
    let db = TechDb::default();
    let estimator = EcoChip::default();
    let mut plan = estimate::Plan::new(pools);
    let requests: Vec<Request> = (0..ESTIMATE_REPLAY).map(|_| plan.next()).collect();
    let (tracer, overhead) = passes(|t| {
        // After set-up, the server's memo holds every distinct design.
        let context = memo();
        for request in pools.named.iter().chain(&pools.inline) {
            let decoded: EstimateRequest = serde_json::from_str(&request.body).expect("parses");
            let system = decoded.resolve(&db).expect("resolves");
            black_box(estimator.estimate_with(&system, &context)).expect("estimates");
        }
        let mut systems = Vec::new();
        let mut out = Vec::new();
        t.measured(|t| {
            for (k, request) in requests.iter().enumerate() {
                t.set_trace(k as u64);
                let batch = request.class == Class::Batch;
                replay_parse(t, &request.wire);
                let decoded: Vec<EstimateRequest> = t
                    .span("serde_json.request_decode", |_| {
                        if batch {
                            serde_json::from_str(black_box(&request.body))
                        } else {
                            serde_json::from_str(black_box(&request.body)).map(|one| vec![one])
                        }
                    })
                    .expect("sent bodies parse");
                let mut responses = Vec::with_capacity(decoded.len());
                for one in &decoded {
                    let system = t
                        .span("serve.api.resolve", |_| one.resolve(&db))
                        .expect("sent bodies resolve");
                    let report = replay_system(t, &estimator, &context, &system);
                    responses.push(EstimateResponse {
                        system: system.name.clone(),
                        embodied_fraction: report.embodied_fraction(),
                        report,
                    });
                    systems.push((None, system));
                }
                let json = t
                    .span("serde_json.report_encode", |_| {
                        if batch {
                            let items: Vec<BatchEstimateItem> =
                                responses.drain(..).map(BatchEstimateItem::Ok).collect();
                            serde_json::to_string(black_box(&items))
                        } else {
                            serde_json::to_string(black_box(&responses[0]))
                        }
                    })
                    .expect("responses serialize");
                out.clear();
                t.span("serve.http.write", |_| {
                    write_response(&mut out, 200, "application/json", json.as_bytes(), true)
                })
                .expect("writing to memory succeeds");
            }
        });
        t.set_trace(requests.len() as u64);
        warm_and_cold(t, &mut Estimators::default(), &systems);
    });
    let mut layers = Layers::new();
    let totals = fill_spans(&mut layers, &tracer);
    scrape.fill(&mut layers);
    let base_spec = space::sweep_spec(&db, &space::sweep_body(&space::base_blocks(&db)));
    ceilings(ctx, &base_spec, &mut layers)?;
    // The event loop serves one request at a time: parse, decode,
    // estimate, encode and write in turn, against the client's mean time
    // per request.
    let blocking_us: f64 = [
        "serve.http.parse",
        "serde_json.request_decode",
        "core.estimator.estimate",
        "serde_json.report_encode",
        "serve.http.write",
    ]
    .iter()
    .map(|span| span_us(&totals, span).1)
    .sum();
    let per_request_s = blocking_us / 1e6 / requests.len() as f64;
    layers.insert(
        "trace.layer_coverage",
        per_request_s * run.attempted() as f64 / run.busy_s,
    );
    layers.insert("trace.overhead_frac", overhead);
    finish(ctx, "estimate_rpc", &tracer, layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_is_named_once() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
