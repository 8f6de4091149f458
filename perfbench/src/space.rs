//! The design spaces the workloads send, built from the paper's GA102
//! 3-chiplet case: every (digital, memory, analog) node tuple over seven
//! nodes from N3 to N28, crossed with deployment lifetimes and fab energy
//! sources.

use ecochip_core::disaggregation::{NodeTuple, SocBlocks};
use ecochip_core::sweep::{Shard, SweepAxis, SweepPoint, SweepSink, SweepSpec};
use ecochip_core::{EcoChip, EcoChipError, EcoChipService};
use ecochip_serve::api::{OptimizeRequest, SweepRequest};
use ecochip_techdb::{EnergySource, TechDb, TechNode};

use crate::rng::Rng;

pub const BASE_TESTCASE: &str = "ga102-3chiplet";

pub const NODES: [TechNode; 7] = [
    TechNode::N3,
    TechNode::N5,
    TechNode::N7,
    TechNode::N10,
    TechNode::N14,
    TechNode::N22,
    TechNode::N28,
];

pub const LIFETIME_YEARS: [f64; 5] = [1.0, 2.0, 3.0, 5.0, 8.0];

/// Fab energy sources of a sweep request (7³ × 5 × 2 = 3,430 points).
pub const SWEEP_SOURCES: [EnergySource; 2] = [EnergySource::Coal, EnergySource::Solar];

/// Fab energy sources of the space the `core.opt.*` rows optimize over
/// (7³ × 5 × 3 = 5,145 cases).
pub const OPTIMIZE_SOURCES: [EnergySource; 3] = [
    EnergySource::Coal,
    EnergySource::WorldGrid,
    EnergySource::Solar,
];

pub fn tuples() -> Vec<NodeTuple> {
    let mut tuples = Vec::with_capacity(NODES.len().pow(3));
    for logic in NODES {
        for memory in NODES {
            for analog in NODES {
                tuples.push(NodeTuple::new(logic, memory, analog));
            }
        }
    }
    tuples
}

/// The GA102 block budgets the node-tuple axis splits.
pub fn base_blocks(db: &TechDb) -> SocBlocks {
    ecochip_testcases::ga102::soc_blocks(db).expect("the built-in GA102 blocks build")
}

/// GA102-sized budgets drawn from `rng`: each block scaled by 0.8–1.25, so
/// every chiplet area (and so every memo key) is new.
pub fn fresh_blocks(base: &SocBlocks, rng: &mut Rng) -> SocBlocks {
    SocBlocks::new(
        base.name.clone(),
        base.logic_transistors * rng.range(0.8, 1.25),
        base.memory_transistors * rng.range(0.8, 1.25),
        base.analog_transistors * rng.range(0.8, 1.25),
    )
}

pub fn axes(blocks: &SocBlocks, sources: &[EnergySource]) -> Vec<SweepAxis> {
    vec![
        SweepAxis::NodeTuples {
            blocks: blocks.clone(),
            tuples: tuples(),
        },
        SweepAxis::lifetimes_years(&LIFETIME_YEARS),
        SweepAxis::FabEnergySources(sources.to_vec()),
    ]
}

/// The JSON body of a sweep over `blocks`.
pub fn sweep_body(blocks: &SocBlocks) -> String {
    let request = SweepRequest {
        testcase: Some(BASE_TESTCASE.into()),
        system: None,
        axis: None,
        axes: Some(axes(blocks, &SWEEP_SOURCES)),
        shard: None,
        range: None,
        format: None,
    };
    serde_json::to_string(&request).expect("sweep requests serialize")
}

/// Evaluation budget of one anneal body.
pub const ANNEAL_BUDGET: usize = 20_000;
/// Anneal bodies, each with its own seed drawn from the workload seed.
const ANNEAL_SEEDS: usize = 8;

/// The JSON body of an optimization over the `blocks` space.
fn optimize_body(blocks: &SocBlocks, method: &str, budget: usize, seed: u64) -> String {
    let request = OptimizeRequest {
        testcase: Some(BASE_TESTCASE.into()),
        system: None,
        axis: None,
        axes: Some(axes(blocks, &OPTIMIZE_SOURCES)),
        shard: None,
        method: Some(method.into()),
        budget: Some(budget),
        seed: Some(seed),
        objectives: Some("embodied,operational,cost".into()),
        island: None,
        frontier: None,
    };
    serde_json::to_string(&request).expect("optimize requests serialize")
}

/// The `POST /v1/optimize` bodies the `core.opt.*` rows run: one `pareto`
/// over the whole space, then [`ANNEAL_SEEDS`] seeded `anneal`s with budget
/// [`ANNEAL_BUDGET`]. The seed picks only the anneal seeds.
pub fn optimize_bodies(seed: u64, db: &TechDb) -> Vec<String> {
    let blocks = base_blocks(db);
    let mut rng = Rng::derive(seed, 4);
    let mut bodies = vec![optimize_body(&blocks, "pareto", 0, 0)];
    for _ in 0..ANNEAL_SEEDS {
        let anneal_seed = rng.next_u64() >> 1;
        bodies.push(optimize_body(&blocks, "anneal", ANNEAL_BUDGET, anneal_seed));
    }
    bodies
}

/// Resolve a sweep body exactly as the server does.
pub fn sweep_spec(db: &TechDb, body: &str) -> SweepSpec {
    let request: SweepRequest = serde_json::from_str(body).expect("generated bodies parse");
    request.resolve(db).expect("generated bodies resolve").0
}

/// The canonical NDJSON stream of `spec`, as `POST /v1/sweep` must send
/// it, evaluated in-process.
pub fn reference_stream(service: &EcoChipService, spec: &SweepSpec) -> Vec<u8> {
    struct Lines {
        out: Vec<u8>,
        line: String,
    }
    impl SweepSink for Lines {
        fn emit(&mut self, point: SweepPoint) -> Result<(), EcoChipError> {
            self.line.clear();
            serde_json::to_string_into(&point, &mut self.line)
                .map_err(|e| EcoChipError::Io(e.to_string()))?;
            self.out.extend_from_slice(self.line.as_bytes());
            self.out.push(b'\n');
            Ok(())
        }
    }
    let mut sink = Lines {
        out: Vec::new(),
        line: String::new(),
    };
    service
        .run_streaming(spec, Shard::FULL, &mut sink)
        .expect("the reference sweep evaluates");
    sink.out
}

/// A warm in-process service with the server's defaults and `jobs`
/// workers.
pub fn service(jobs: usize) -> EcoChipService {
    EcoChipService::with_engine(
        EcoChip::default(),
        ecochip_core::sweep::SweepEngine::with_jobs(jobs),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_picks_only_the_anneal_seeds() {
        let db = TechDb::default();
        assert_eq!(optimize_bodies(3, &db), optimize_bodies(3, &db));
        let (three, four) = (optimize_bodies(3, &db), optimize_bodies(4, &db));
        assert_eq!(three[0], four[0]);
        for (a, b) in three[1..].iter().zip(&four[1..]) {
            let (a, b): (OptimizeRequest, OptimizeRequest) = (
                serde_json::from_str(a).unwrap(),
                serde_json::from_str(b).unwrap(),
            );
            assert_ne!(a.seed, b.seed);
            assert_eq!(
                (a.method.as_deref(), a.budget),
                (Some("anneal"), Some(ANNEAL_BUDGET))
            );
            assert_eq!((b.method, b.budget), (a.method, a.budget));
        }
    }
}
