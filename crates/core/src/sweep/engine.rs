//! The parallel, memoizing, streaming sweep evaluator.
//!
//! The engine is built around a bounded work queue: workers claim case
//! *indices* (never a materialized case list), decode each case lazily from
//! its [`CaseSource`], evaluate it against the shared [`SweepContext`], and
//! hand the resulting [`SweepPoint`]s to a caller-supplied [`SweepSink`] in
//! deterministic row-major order. When the sink writes bytes, the workers
//! also encode their points with the sink's [`PointEncoder`], so the
//! emitting thread only passes finished bytes on. A reorder window of
//! `O(workers)` chunks provides backpressure, so streaming a million-point
//! space holds only a handful of points in memory at any time.
//! [`SweepEngine::run`] is the collect-to-`Vec` special case of the same
//! machinery.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use ecochip_techdb::EnergySource;
use ecochip_trace::{Stage, StageTimings};

use crate::error::EcoChipError;
use crate::estimator::EcoChip;
use crate::sweep::{Shard, SweepCase, SweepContext, SweepPoint, SweepSpec};

/// Environment variable overriding the default worker count.
pub const JOBS_ENV_VAR: &str = "ECOCHIP_JOBS";

/// Environment variable overriding the default claim-chunk size.
pub const CHUNK_ENV_VAR: &str = "ECOCHIP_CHUNK";

/// Default number of contiguous case indices a worker claims per queue
/// round-trip. Large enough to amortize the Mutex+Condvar traffic to
/// O(points/K), small enough that the reorder window (O(jobs × chunk)
/// points) stays tiny and load stays balanced across workers.
pub const DEFAULT_CHUNK: usize = 32;

/// Encodes one sweep point by appending its wire bytes to a chunk buffer.
///
/// A [`SweepSink`] that only writes bytes supplies one through
/// [`SweepSink::encoder`]; the engine's workers then run it on the points
/// of their own claim chunk, so encoding scales with the worker count
/// instead of running on the one emitting thread. On an error the encoder
/// may leave a partial encoding behind: the engine truncates the buffer
/// back to the end of the previous point.
pub type PointEncoder =
    Box<dyn Fn(&SweepPoint, &mut Vec<u8>) -> Result<(), EcoChipError> + Send + Sync>;

/// Run `encode` on this thread's reusable text buffer, cleared first.
///
/// The JSON shim writes into a `String`, so a [`PointEncoder`] builds each
/// text line here and then copies it into its byte chunk (plain, or behind
/// a binary length prefix) without a per-point allocation.
pub fn with_line_buffer<R>(encode: impl FnOnce(&mut String) -> R) -> R {
    thread_local! {
        static LINE: RefCell<String> = const { RefCell::new(String::new()) };
    }
    LINE.with(|line| match line.try_borrow_mut() {
        Ok(mut line) => {
            line.clear();
            encode(&mut line)
        }
        // A nested call (an encoder encoding inside an encoder) gets a
        // fresh buffer instead of a borrow panic.
        Err(_) => encode(&mut String::new()),
    })
}

/// Receives evaluated sweep points, in the spec's deterministic case order.
///
/// Any `FnMut(SweepPoint) -> Result<(), EcoChipError>` closure is a sink, so
/// collecting, folding or incremental writing all work without a named type:
///
/// ```
/// use ecochip_core::sweep::{SweepAxis, SweepEngine, SweepSpec};
/// use ecochip_core::{Chiplet, ChipletSize, EcoChip, System};
/// use ecochip_techdb::{DesignType, TechNode};
///
/// let base = System::builder("demo")
///     .chiplet(Chiplet::new(
///         "soc",
///         DesignType::Logic,
///         TechNode::N7,
///         ChipletSize::Transistors(5.0e9),
///     ))
///     .build()?;
/// let spec = SweepSpec::new(base).axis(SweepAxis::lifetimes_years(&[1.0, 2.0, 4.0]));
/// // Stream: keep a running maximum instead of materializing all points.
/// use ecochip_core::sweep::SweepPoint;
/// let mut worst = f64::MIN;
/// let mut sink = |point: SweepPoint| {
///     worst = worst.max(point.report.total().kg());
///     Ok(())
/// };
/// let emitted = SweepEngine::new().run_streaming(&EcoChip::default(), &spec, &mut sink)?;
/// assert_eq!(emitted, 3);
/// assert!(worst > 0.0);
/// # Ok::<(), ecochip_core::EcoChipError>(())
/// ```
///
/// A sink that turns every point into bytes (an NDJSON or CSV stream)
/// should also supply an [`encoder`](SweepSink::encoder): the workers
/// then encode their own chunks, the reorder window holds encoded chunks,
/// and the emitting thread only hands each chunk's bytes to
/// [`accept_encoded`](SweepSink::accept_encoded) in case order:
///
/// ```
/// use ecochip_core::sweep::{PointEncoder, SweepAxis, SweepEngine, SweepPoint, SweepSink, SweepSpec};
/// use ecochip_core::{Chiplet, ChipletSize, EcoChip, EcoChipError, System};
/// use ecochip_techdb::{DesignType, TechNode};
///
/// /// One `label\n` line per point.
/// fn encode(point: &SweepPoint, out: &mut Vec<u8>) -> Result<(), EcoChipError> {
///     out.extend_from_slice(point.label.as_bytes());
///     out.push(b'\n');
///     Ok(())
/// }
///
/// struct Labels(Vec<u8>);
/// impl SweepSink for Labels {
///     fn emit(&mut self, point: SweepPoint) -> Result<(), EcoChipError> {
///         encode(&point, &mut self.0)
///     }
///     fn encoder(&self) -> Option<PointEncoder> {
///         Some(Box::new(encode))
///     }
///     fn accept_encoded(&mut self, bytes: &[u8], _points: usize) -> Result<(), EcoChipError> {
///         self.0.extend_from_slice(bytes);
///         Ok(())
///     }
/// }
///
/// let base = System::builder("demo")
///     .chiplet(Chiplet::new(
///         "soc",
///         DesignType::Logic,
///         TechNode::N7,
///         ChipletSize::Transistors(5.0e9),
///     ))
///     .build()?;
/// let spec = SweepSpec::new(base).axis(SweepAxis::lifetimes_years(&[1.0, 2.0, 4.0]));
/// let mut sink = Labels(Vec::new());
/// SweepEngine::with_jobs(2).run_streaming(&EcoChip::default(), &spec, &mut sink)?;
/// assert_eq!(String::from_utf8(sink.0).unwrap().lines().count(), 3);
/// # Ok::<(), ecochip_core::EcoChipError>(())
/// ```
pub trait SweepSink {
    /// Accept the next point. Returning an error aborts the sweep; the error
    /// is propagated to the caller of the streaming entry point.
    fn emit(&mut self, point: SweepPoint) -> Result<(), EcoChipError>;

    /// Accept a contiguous batch of points (one claim chunk), in case
    /// order. The default forwards point-by-point to
    /// [`SweepSink::emit`], so closure sinks work unchanged; sinks with a
    /// cheaper bulk path (one write per batch, one lock per batch)
    /// override it. The batch boundary is an engine implementation detail
    /// — concatenating all batches always reproduces the per-point stream
    /// exactly.
    fn accept_batch(&mut self, points: Vec<SweepPoint>) -> Result<(), EcoChipError> {
        for point in points {
            self.emit(point)?;
        }
        Ok(())
    }

    /// The per-point byte encoder of a sink that only writes bytes, asked
    /// for once per sweep. `None` (the default) keeps the struct path:
    /// points reach [`SweepSink::accept_batch`]. With `Some`, the engine
    /// never calls `emit` or `accept_batch`; its workers encode each
    /// point and the emitting thread calls
    /// [`SweepSink::accept_encoded`] instead, which such a sink must
    /// override.
    fn encoder(&self) -> Option<PointEncoder> {
        None
    }

    /// Accept the encoded bytes of `points` contiguous points (one claim
    /// chunk, or its prefix before an error), in case order. Called only
    /// when [`SweepSink::encoder`] returned an encoder; concatenating every
    /// call's `bytes` is exactly the stream of per-point encodings. The
    /// default rejects the chunk.
    fn accept_encoded(&mut self, bytes: &[u8], points: usize) -> Result<(), EcoChipError> {
        let _ = (bytes, points);
        Err(EcoChipError::Io(
            "sweep sink supplied an encoder but does not accept encoded chunks".into(),
        ))
    }
}

impl<F: FnMut(SweepPoint) -> Result<(), EcoChipError>> SweepSink for F {
    fn emit(&mut self, point: SweepPoint) -> Result<(), EcoChipError> {
        self(point)
    }
}

/// An index-addressable source of sweep cases: the engine's workers pull
/// case indices and decode each case on demand, so the full cartesian
/// product is never materialized.
pub(crate) trait CaseSource: Sync {
    /// Checked number of cases.
    fn total(&self) -> Result<usize, EcoChipError>;
    /// Produce case `index` (must be below [`CaseSource::total`]).
    fn case(&self, index: usize) -> Result<SweepCase, EcoChipError>;
}

impl CaseSource for SweepSpec {
    fn total(&self) -> Result<usize, EcoChipError> {
        self.try_len()
    }

    fn case(&self, index: usize) -> Result<SweepCase, EcoChipError> {
        self.case_at(index)
    }
}

impl CaseSource for [SweepCase] {
    fn total(&self) -> Result<usize, EcoChipError> {
        Ok(self.len())
    }

    fn case(&self, index: usize) -> Result<SweepCase, EcoChipError> {
        Ok(self[index].clone())
    }
}

/// A spec whose decoded cases are rewritten on the fly (used by the node
/// assignment optimizer to relabel points without materializing them).
pub(crate) struct MappedSpec<'a, F> {
    pub(crate) spec: &'a SweepSpec,
    pub(crate) map: F,
}

impl<F: Fn(SweepCase) -> SweepCase + Sync> CaseSource for MappedSpec<'_, F> {
    fn total(&self) -> Result<usize, EcoChipError> {
        self.spec.try_len()
    }

    fn case(&self, index: usize) -> Result<SweepCase, EcoChipError> {
        self.spec.case_at(index).map(&self.map)
    }
}

/// Evaluates the points of a [`SweepSpec`] across worker threads, sharing one
/// [`SweepContext`] memo so stage results common to several points are
/// computed once.
///
/// Results are produced in the spec's deterministic case order regardless of
/// the worker count, and every report is bit-for-bit identical to what the
/// serial path ([`SweepEngine::serial`]) produces. The streaming entry
/// points ([`SweepEngine::run_streaming`] and friends) hold only an
/// `O(workers)` reorder window in memory; [`SweepEngine::run`] is the same
/// pipeline with a collect-to-`Vec` sink.
///
/// ```
/// use ecochip_core::sweep::{SweepAxis, SweepEngine, SweepSpec};
/// use ecochip_core::{Chiplet, ChipletSize, EcoChip, System};
/// use ecochip_techdb::{DesignType, TechNode};
///
/// let base = System::builder("demo")
///     .chiplet(Chiplet::new(
///         "soc",
///         DesignType::Logic,
///         TechNode::N7,
///         ChipletSize::Transistors(5.0e9),
///     ))
///     .build()?;
/// let spec = SweepSpec::new(base).axis(SweepAxis::lifetimes_years(&[1.0, 2.0, 4.0]));
/// let points = SweepEngine::new().run(&EcoChip::default(), &spec)?;
/// assert_eq!(points.len(), 3);
/// assert!(points[2].report.total().kg() > points[0].report.total().kg());
/// # Ok::<(), ecochip_core::EcoChipError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SweepEngine {
    jobs: usize,
    chunk: usize,
}

impl Default for SweepEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepEngine {
    /// An engine using the default worker count: the `ECOCHIP_JOBS`
    /// environment variable when set, otherwise the machine's available
    /// parallelism.
    pub fn new() -> Self {
        Self::with_jobs(default_jobs())
    }

    /// A single-worker engine — the reference serial path.
    pub fn serial() -> Self {
        Self::with_jobs(1)
    }

    /// An engine with an explicit worker count (clamped to at least 1) and
    /// the default claim-chunk size (`ECOCHIP_CHUNK` when set, otherwise
    /// [`DEFAULT_CHUNK`]).
    pub fn with_jobs(jobs: usize) -> Self {
        Self {
            jobs: jobs.max(1),
            chunk: default_chunk(),
        }
    }

    /// An engine from an optional worker count: pinned when `Some` (a
    /// `--jobs` flag, a config field), the [`SweepEngine::new`] default
    /// otherwise. The one place the "flag set or not" decision lives, so
    /// every front end resolves it identically.
    pub fn with_optional_jobs(jobs: Option<usize>) -> Self {
        match jobs {
            Some(jobs) => Self::with_jobs(jobs),
            None => Self::new(),
        }
    }

    /// Pin the number of contiguous case indices a worker claims per queue
    /// round-trip (clamped to at least 1). Chunking only changes lock and
    /// wakeup traffic — emission order and every emitted byte stay
    /// identical for any chunk size.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Chunk size from an optional override: pinned when `Some` (a
    /// `--chunk` flag, a config field), the `ECOCHIP_CHUNK` /
    /// [`DEFAULT_CHUNK`] default otherwise — the same "flag set or not"
    /// contract as [`SweepEngine::with_optional_jobs`].
    pub fn with_optional_chunk(self, chunk: Option<usize>) -> Self {
        match chunk {
            Some(chunk) => self.with_chunk(chunk),
            None => self,
        }
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The configured claim-chunk size.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Evaluate every point of `spec`, in its deterministic case order.
    ///
    /// # Errors
    ///
    /// Returns the spec's case-generation error, or the estimator error of
    /// the lowest-index failing point.
    pub fn run(
        &self,
        estimator: &EcoChip,
        spec: &SweepSpec,
    ) -> Result<Vec<SweepPoint>, EcoChipError> {
        self.run_sharded(estimator, spec, Shard::FULL)
    }

    /// Evaluate the slice of `spec` a [`Shard`] owns, in case order.
    /// Concatenating the results of shards `0/N..N-1/N` reproduces
    /// [`SweepEngine::run`] exactly.
    ///
    /// # Errors
    ///
    /// Returns the spec's case-generation error, or the estimator error of
    /// the lowest-index failing point of the shard.
    pub fn run_sharded(
        &self,
        estimator: &EcoChip,
        spec: &SweepSpec,
        shard: Shard,
    ) -> Result<Vec<SweepPoint>, EcoChipError> {
        let context = SweepContext::new();
        let mut points = Vec::new();
        self.stream(estimator, spec, shard, &context, None, &mut |point| {
            points.push(point);
            Ok(())
        })?;
        Ok(points)
    }

    /// Evaluate every point of `spec`, emitting each [`SweepPoint`] to
    /// `sink` in deterministic case order as soon as it (and all its
    /// predecessors) are ready. Returns the number of points emitted.
    ///
    /// At most `O(workers)` points are in flight at any time — the reorder
    /// window applies backpressure to the workers — so the full product is
    /// never held in memory.
    ///
    /// # Errors
    ///
    /// Returns the spec's case-generation error, the estimator error of the
    /// lowest-index failing point, or the first error returned by `sink`.
    pub fn run_streaming<S: SweepSink + ?Sized>(
        &self,
        estimator: &EcoChip,
        spec: &SweepSpec,
        sink: &mut S,
    ) -> Result<usize, EcoChipError> {
        self.run_streaming_with(estimator, spec, Shard::FULL, &SweepContext::new(), sink)
    }

    /// Full-control streaming: evaluate the slice of `spec` that `shard`
    /// owns against a caller-provided [`SweepContext`] (e.g. one restored
    /// from a memo file), emitting points to `sink` in case order. Returns
    /// the number of points emitted.
    ///
    /// # Errors
    ///
    /// Returns the spec's case-generation error, the estimator error of the
    /// lowest-index failing point, or the first error returned by `sink`.
    pub fn run_streaming_with<S: SweepSink + ?Sized>(
        &self,
        estimator: &EcoChip,
        spec: &SweepSpec,
        shard: Shard,
        context: &SweepContext,
        sink: &mut S,
    ) -> Result<usize, EcoChipError> {
        self.stream(estimator, spec, shard, context, None, sink)
    }

    /// [`SweepEngine::run_streaming_with`] with an optional per-stage
    /// duration collector: when `timings` is `Some`, each point's
    /// estimator call is measured into [`StageTimings`] (serving's
    /// per-request stage histograms and trace spans). The `None` path
    /// costs one branch per point.
    ///
    /// # Errors
    ///
    /// As [`SweepEngine::run_streaming_with`].
    pub fn run_streaming_timed<S: SweepSink + ?Sized>(
        &self,
        estimator: &EcoChip,
        spec: &SweepSpec,
        shard: Shard,
        context: &SweepContext,
        timings: Option<&StageTimings>,
        sink: &mut S,
    ) -> Result<usize, EcoChipError> {
        self.stream(estimator, spec, shard, context, timings, sink)
    }

    /// Stream an explicit, contiguous index range `[range.start,
    /// range.end)` of `spec`'s case space into `sink`, in case order.
    /// Returns the number of points emitted.
    ///
    /// This is the resume primitive behind orchestrator failover: a shard
    /// is a contiguous slice of the index space, so when a worker dies
    /// after emitting `k` points of shard range `[s, e)`, re-dispatching
    /// `[s + k, e)` to another worker reproduces exactly the missing
    /// suffix — the merged stream stays bit-for-bit identical to the
    /// unsharded run.
    ///
    /// # Errors
    ///
    /// Returns [`EcoChipError::InvalidSystem`] when the range is inverted
    /// or extends past the spec's case count, plus the usual streaming
    /// errors ([`SweepEngine::run_streaming_with`]).
    pub fn run_range_with<S: SweepSink + ?Sized>(
        &self,
        estimator: &EcoChip,
        spec: &SweepSpec,
        range: std::ops::Range<usize>,
        context: &SweepContext,
        sink: &mut S,
    ) -> Result<usize, EcoChipError> {
        let total = spec.try_len()?;
        validate_case_range(total, &range)?;
        self.stream_range(estimator, spec, range, context, None, sink)
    }

    /// [`SweepEngine::run_range_with`] with an optional per-stage
    /// duration collector (see [`SweepEngine::run_streaming_timed`]).
    ///
    /// # Errors
    ///
    /// As [`SweepEngine::run_range_with`].
    pub fn run_range_timed<S: SweepSink + ?Sized>(
        &self,
        estimator: &EcoChip,
        spec: &SweepSpec,
        range: std::ops::Range<usize>,
        context: &SweepContext,
        timings: Option<&StageTimings>,
        sink: &mut S,
    ) -> Result<usize, EcoChipError> {
        let total = spec.try_len()?;
        validate_case_range(total, &range)?;
        self.stream_range(estimator, spec, range, context, timings, sink)
    }

    /// Evaluate explicit cases (e.g. pre-processed for custom labels) with a
    /// fresh memo context.
    ///
    /// # Errors
    ///
    /// Returns the estimator error of the lowest-index failing case.
    pub fn run_cases(
        &self,
        estimator: &EcoChip,
        cases: Vec<SweepCase>,
    ) -> Result<Vec<SweepPoint>, EcoChipError> {
        self.run_cases_with(estimator, cases, &SweepContext::new())
    }

    /// Evaluate explicit cases against a caller-provided [`SweepContext`],
    /// so several sweeps can share one memo (or inspect its
    /// [`stats`](SweepContext::stats) afterwards).
    ///
    /// # Errors
    ///
    /// Returns the estimator error of the lowest-index failing case.
    pub fn run_cases_with(
        &self,
        estimator: &EcoChip,
        cases: Vec<SweepCase>,
        context: &SweepContext,
    ) -> Result<Vec<SweepPoint>, EcoChipError> {
        let mut points = Vec::with_capacity(cases.len());
        self.stream(
            estimator,
            cases.as_slice(),
            Shard::FULL,
            context,
            None,
            &mut |point| {
                points.push(point);
                Ok(())
            },
        )?;
        Ok(points)
    }

    /// The shared work-queue pipeline behind every entry point: workers pull
    /// case indices, decode + evaluate, and park results in a bounded
    /// reorder window the calling thread drains in order into `sink`.
    pub(crate) fn stream<C: CaseSource + ?Sized, S: SweepSink + ?Sized>(
        &self,
        estimator: &EcoChip,
        source: &C,
        shard: Shard,
        context: &SweepContext,
        timings: Option<&StageTimings>,
        sink: &mut S,
    ) -> Result<usize, EcoChipError> {
        let total = source.total()?;
        self.stream_range(
            estimator,
            source,
            shard.range(total),
            context,
            timings,
            sink,
        )
    }

    /// The work-queue pipeline over an explicit (already validated) index
    /// range of the case space.
    fn stream_range<C: CaseSource + ?Sized, S: SweepSink + ?Sized>(
        &self,
        estimator: &EcoChip,
        source: &C,
        range: std::ops::Range<usize>,
        context: &SweepContext,
        timings: Option<&StageTimings>,
        sink: &mut S,
    ) -> Result<usize, EcoChipError> {
        let count = range.len();
        if count == 0 {
            return Ok(0);
        }

        let variants = VariantCache::new(estimator);
        let evaluate = |index: usize| -> Result<SweepPoint, EcoChipError> {
            let case = source.case(index)?;
            let estimator = variants.estimator_for(case.fab_source);
            // Near-zero-cost disabled path: untimed requests pay one
            // branch per point, never a clock read.
            let report = match timings {
                None => estimator.estimate_with(&case.system, context)?,
                Some(timings) => {
                    let started = Instant::now();
                    let report = estimator.estimate_with(&case.system, context);
                    timings.record(Stage::Estimate, started.elapsed());
                    report?
                }
            };
            Ok(SweepPoint {
                label: case.label(),
                system: case.system,
                report,
            })
        };

        // A byte-writing sink's encoder runs right after evaluation, on the
        // thread that evaluated the chunk; the points are dropped once
        // encoded. Encode time is recorded once per chunk, summed across
        // workers like the estimate stage.
        let encoder = sink.encoder();
        let run_chunk = |start: usize, stop: usize, mut bytes: Vec<u8>| -> Chunk {
            let mut points = Vec::with_capacity(stop - start);
            let mut error = None;
            for index in start..stop {
                match evaluate(index) {
                    Ok(point) => points.push(point),
                    // Stop at the failing index: the emitter drains chunks
                    // in order, so the lowest-index error surfaces first.
                    Err(failure) => {
                        error = Some(failure);
                        break;
                    }
                }
            }
            let Some(encode) = &encoder else {
                return Chunk {
                    body: ChunkBody::Points(points),
                    error,
                };
            };
            let started = timings.map(|_| Instant::now());
            let mut encoded = 0usize;
            for point in &points {
                let mark = bytes.len();
                if let Err(failure) = encode(point, &mut bytes) {
                    // An encode failure precedes any evaluation failure,
                    // which can only sit at a higher index.
                    bytes.truncate(mark);
                    error = Some(failure);
                    break;
                }
                if encoded == 0 {
                    // Size a fresh buffer from the first point, with an
                    // eighth to spare for longer points (a recycled buffer
                    // already fits a chunk).
                    bytes.reserve(bytes.len() * (points.len() - 1) * 9 / 8);
                }
                encoded += 1;
            }
            if let (Some(timings), Some(started)) = (timings, started) {
                timings.record(Stage::Serialize, started.elapsed());
            }
            Chunk {
                body: ChunkBody::Encoded { bytes, encoded },
                error,
            }
        };

        let jobs = self.jobs.min(count);
        let chunk = self.chunk.max(1);
        let mut spare = if encoder.is_some() {
            SpareBuffers::take()
        } else {
            Vec::new()
        };
        if jobs == 1 {
            // Reference serial path: evaluate (and encode) chunk by chunk
            // and deliver each one exactly as the parallel emitter does,
            // reusing one chunk buffer throughout.
            let mut emitted = 0usize;
            let mut cursor = range.start;
            let mut buffer = spare.pop().unwrap_or_default();
            while cursor < range.end {
                let stop = cursor.saturating_add(chunk).min(range.end);
                let results = run_chunk(cursor, stop, std::mem::take(&mut buffer));
                emitted += results.deliver(sink, &mut buffer)?;
                cursor = stop;
            }
            spare.push(buffer);
            SpareBuffers::keep(spare);
            return Ok(emitted);
        }

        // Workers may run at most `window` points ahead of the emit cursor
        // (two chunks in flight per worker), which bounds the reorder
        // buffer to O(jobs × chunk) points, as structs or encoded bytes.
        // Emptied chunk buffers go back to `spare` for the next claim, so a
        // sweep allocates at most as many as are ever in flight at once.
        let window = jobs * chunk * 2;
        let queue = ReorderQueue {
            state: Mutex::new(ReorderState {
                next_claim: range.start,
                next_emit: range.start,
                buffer: HashMap::with_capacity(jobs * 2),
                spare,
                aborted: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
        };
        let end = range.end;

        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let (start, stop, bytes) = {
                        let mut state = queue.state.lock().expect("sweep queue");
                        loop {
                            if state.aborted || state.next_claim >= end {
                                return;
                            }
                            if state.next_claim < state.next_emit + window {
                                break;
                            }
                            state = queue.space.wait(state).expect("sweep queue");
                        }
                        let start = state.next_claim;
                        // Chunks auto-clamp at the range end, so shard
                        // boundaries and short tails never over-claim.
                        let stop = start.saturating_add(chunk).min(end);
                        state.next_claim = stop;
                        (start, stop, state.spare.pop().unwrap_or_default())
                    };
                    // Evaluate the whole chunk without touching the queue:
                    // one claim + one insert per K points instead of per
                    // point.
                    let results = run_chunk(start, stop, bytes);
                    let failed = results.error.is_some();
                    let mut state = queue.state.lock().expect("sweep queue");
                    if failed {
                        // Stop claiming new chunks; everything below `start`
                        // is already claimed, so the emitter still surfaces
                        // the lowest-index error.
                        state.aborted = true;
                        queue.space.notify_all();
                    }
                    let notify = start == state.next_emit;
                    state.buffer.insert(start, results);
                    drop(state);
                    if notify {
                        queue.ready.notify_one();
                    }
                });
            }

            // The calling thread is the emitter: drain chunks in start-index
            // order so the sink observes the deterministic case order.
            let outcome = (|| {
                let mut emitted = 0usize;
                let mut cursor = range.start;
                while cursor < end {
                    let results = {
                        let mut state = queue.state.lock().expect("sweep queue");
                        loop {
                            if let Some(results) = state.buffer.remove(&cursor) {
                                break results;
                            }
                            state = queue.ready.wait(state).expect("sweep queue");
                        }
                    };
                    let mut emptied = Vec::new();
                    emitted += results.deliver(sink, &mut emptied)?;
                    cursor = cursor.saturating_add(chunk).min(end);
                    let mut state = queue.state.lock().expect("sweep queue");
                    state.next_emit = cursor;
                    if emptied.capacity() > 0 {
                        state.spare.push(emptied);
                    }
                    drop(state);
                    // Advancing the window admits exactly one new chunk
                    // claim, so wake one parked worker; stragglers parked
                    // after the last emit are released by the notify_all
                    // below.
                    queue.space.notify_one();
                }
                Ok(emitted)
            })();

            // On early exit (evaluation or sink error) wake every parked
            // worker so the scope can join them.
            let mut state = queue.state.lock().expect("sweep queue");
            state.aborted = true;
            let spare = std::mem::take(&mut state.spare);
            drop(state);
            queue.space.notify_all();
            SpareBuffers::keep(spare);
            outcome
        })
    }
}

/// Encoded-chunk buffers kept from one sweep to the next.
///
/// A server streams sweep after sweep, each on fresh worker threads.
/// Allocating every sweep's chunk buffers (tens of KB each) anew on those
/// threads fragments the allocator's per-thread arenas, and resident
/// memory then creeps up over a long run; reusing them keeps it flat.
struct SpareBuffers;

/// Most buffers [`SpareBuffers`] keeps: enough for a few concurrent sweeps'
/// windows.
const SPARE_BUFFERS_KEPT: usize = 16;

/// Largest buffer [`SpareBuffers`] keeps, so a sweep with a huge claim chunk
/// does not pin its buffers for the life of the process.
const SPARE_BUFFER_MAX_BYTES: usize = 1 << 20;

static SPARE_BUFFERS: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

impl SpareBuffers {
    /// Every kept buffer, for one sweep.
    fn take() -> Vec<Vec<u8>> {
        std::mem::take(&mut *SPARE_BUFFERS.lock().expect("spare chunk buffers"))
    }

    /// Keep a finished sweep's emptied buffers, up to the bound.
    fn keep(mut buffers: Vec<Vec<u8>>) {
        buffers.retain(|buffer| (1..=SPARE_BUFFER_MAX_BYTES).contains(&buffer.capacity()));
        let mut kept = SPARE_BUFFERS.lock().expect("spare chunk buffers");
        let room = SPARE_BUFFERS_KEPT.saturating_sub(kept.len());
        buffers.truncate(room);
        kept.append(&mut buffers);
    }
}

/// One evaluated claim chunk: its leading successful points and the error
/// that cut it short, if any.
struct Chunk {
    body: ChunkBody,
    error: Option<EcoChipError>,
}

/// The successful points of a [`Chunk`], in the form the sink takes them.
enum ChunkBody {
    /// The points themselves (sinks without an encoder).
    Points(Vec<SweepPoint>),
    /// The points' encodings, back to back in one buffer.
    Encoded { bytes: Vec<u8>, encoded: usize },
}

impl Chunk {
    /// Hand the chunk's points to `sink`, then surface its error. Returns
    /// the number of points delivered; an encoded chunk's emptied buffer is
    /// left in `emptied` for reuse.
    fn deliver<S: SweepSink + ?Sized>(
        self,
        sink: &mut S,
        emptied: &mut Vec<u8>,
    ) -> Result<usize, EcoChipError> {
        let delivered = match self.body {
            ChunkBody::Points(points) => {
                let delivered = points.len();
                if delivered > 0 {
                    sink.accept_batch(points)?;
                }
                delivered
            }
            ChunkBody::Encoded { mut bytes, encoded } => {
                if encoded > 0 {
                    sink.accept_encoded(&bytes, encoded)?;
                }
                bytes.clear();
                *emptied = bytes;
                encoded
            }
        };
        match self.error {
            Some(error) => Err(error),
            None => Ok(delivered),
        }
    }
}

/// Bookkeeping shared between the workers and the emitting thread.
struct ReorderState {
    /// Next index to hand to a worker (chunk claims advance it by up to
    /// the chunk size at a time).
    next_claim: usize,
    /// Next index the emitter will pass to the sink.
    next_emit: usize,
    /// Out-of-order chunks keyed by chunk start index, parked until their
    /// turn (bounded by the window).
    buffer: HashMap<usize, Chunk>,
    /// Emptied chunk buffers, handed to the next chunk claims.
    spare: Vec<Vec<u8>>,
    /// Set on evaluation/sink errors so workers stop claiming chunks.
    aborted: bool,
}

struct ReorderQueue {
    state: Mutex<ReorderState>,
    /// Signals the emitter that the next in-order chunk arrived.
    ready: Condvar,
    /// Signals workers that the reorder window advanced.
    space: Condvar,
}

/// Lazily-built estimator clones for the distinct fab-source overrides seen
/// while streaming, so workers never clone the (techdb-carrying)
/// configuration for cases without an override.
struct VariantCache<'a> {
    base: &'a EcoChip,
    /// `(intensity bits, estimator)` per distinct override.
    variants: Mutex<Vec<(u64, Arc<EcoChip>)>>,
}

enum CaseEstimator<'a> {
    Base(&'a EcoChip),
    Variant(Arc<EcoChip>),
}

impl std::ops::Deref for CaseEstimator<'_> {
    type Target = EcoChip;

    fn deref(&self) -> &EcoChip {
        match self {
            CaseEstimator::Base(estimator) => estimator,
            CaseEstimator::Variant(estimator) => estimator,
        }
    }
}

impl<'a> VariantCache<'a> {
    fn new(base: &'a EcoChip) -> Self {
        Self {
            base,
            variants: Mutex::new(Vec::new()),
        }
    }

    fn estimator_for(&self, source: Option<EnergySource>) -> CaseEstimator<'a> {
        let Some(source) = source else {
            return CaseEstimator::Base(self.base);
        };
        let bits = source_bits(source);
        let mut variants = self.variants.lock().expect("variant cache");
        if let Some((_, estimator)) = variants.iter().find(|(b, _)| *b == bits) {
            return CaseEstimator::Variant(Arc::clone(estimator));
        }
        let mut config = self.base.config().clone();
        config.fab_source = source;
        let estimator = Arc::new(EcoChip::new(config));
        variants.push((bits, Arc::clone(&estimator)));
        CaseEstimator::Variant(estimator)
    }
}

fn source_bits(source: EnergySource) -> u64 {
    source.carbon_intensity().kg_per_kwh().to_bits()
}

/// Validate that `range` is a slice of a `total`-case sweep — the single
/// definition of the bounds rule, shared by [`SweepEngine::run_range_with`]
/// and front ends that want to reject a bad resume range before they
/// commit to a response (e.g. the HTTP server's pre-stream 400).
///
/// # Errors
///
/// Returns [`EcoChipError::InvalidSystem`] when the range is inverted or
/// extends past `total`.
pub fn validate_case_range(
    total: usize,
    range: &std::ops::Range<usize>,
) -> Result<(), EcoChipError> {
    if range.start > range.end || range.end > total {
        return Err(EcoChipError::InvalidSystem(format!(
            "case range {}..{} is not a slice of the sweep's {total} cases",
            range.start, range.end
        )));
    }
    Ok(())
}

fn default_jobs() -> usize {
    if let Ok(value) = std::env::var(JOBS_ENV_VAR) {
        if let Ok(jobs) = value.trim().parse::<usize>() {
            return jobs.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn default_chunk() -> usize {
    if let Ok(value) = std::env::var(CHUNK_ENV_VAR) {
        if let Ok(chunk) = value.trim().parse::<usize>() {
            return chunk.max(1);
        }
    }
    DEFAULT_CHUNK
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepAxis;
    use crate::system::{Chiplet, ChipletSize, System};
    use ecochip_packaging::{
        InterposerConfig, PackagingArchitecture, RdlFanoutConfig, SiliconBridgeConfig,
    };
    use ecochip_techdb::{DesignType, TechNode};

    fn base() -> System {
        System::builder("engine-test")
            .chiplets([
                Chiplet::new(
                    "logic",
                    DesignType::Logic,
                    TechNode::N7,
                    ChipletSize::Transistors(8.0e9),
                ),
                Chiplet::new(
                    "mem",
                    DesignType::Memory,
                    TechNode::N14,
                    ChipletSize::Transistors(2.0e9),
                ),
            ])
            .build()
            .unwrap()
    }

    fn spec() -> SweepSpec {
        SweepSpec::new(base())
            .axis(SweepAxis::Packaging(vec![
                PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
                PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default()),
                PackagingArchitecture::PassiveInterposer(InterposerConfig::default()),
            ]))
            .axis(SweepAxis::lifetimes_years(&[1.0, 2.0, 3.0, 4.0]))
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let estimator = EcoChip::default();
        let serial = SweepEngine::serial().run(&estimator, &spec()).unwrap();
        let parallel = SweepEngine::with_jobs(4).run(&estimator, &spec()).unwrap();
        assert_eq!(serial.len(), 12);
        assert_eq!(serial, parallel);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(
                s.report.total().kg().to_bits(),
                p.report.total().kg().to_bits()
            );
        }
    }

    #[test]
    fn streaming_emits_in_deterministic_order() {
        let estimator = EcoChip::default();
        let spec = spec();
        let collected = SweepEngine::new().run(&estimator, &spec).unwrap();
        for jobs in [1, 2, 5, 16] {
            let mut streamed = Vec::new();
            let emitted = SweepEngine::with_jobs(jobs)
                .run_streaming(&estimator, &spec, &mut |point| {
                    streamed.push(point);
                    Ok(())
                })
                .unwrap();
            assert_eq!(emitted, collected.len(), "jobs={jobs}");
            assert_eq!(streamed, collected, "jobs={jobs}");
        }
    }

    #[test]
    fn sharded_runs_concatenate_to_the_full_run() {
        let estimator = EcoChip::default();
        let spec = spec();
        let full = SweepEngine::with_jobs(3).run(&estimator, &spec).unwrap();
        for of in [1usize, 2, 3, 5, 12, 17] {
            let mut merged = Vec::new();
            for index in 0..of {
                let shard = Shard::new(index, of).unwrap();
                merged.extend(
                    SweepEngine::with_jobs(2)
                        .run_sharded(&estimator, &spec, shard)
                        .unwrap(),
                );
            }
            assert_eq!(merged, full, "of={of}");
        }
    }

    #[test]
    fn explicit_ranges_reproduce_slices_of_the_full_run() {
        let estimator = EcoChip::default();
        let spec = spec();
        let full = SweepEngine::with_jobs(3).run(&estimator, &spec).unwrap();
        let total = full.len();
        // Any contiguous range reproduces exactly that slice, so a shard
        // interrupted after k points resumes bit-for-bit from index k.
        for (start, end) in [(0, total), (3, 9), (5, 5), (total - 1, total)] {
            let mut points = Vec::new();
            let emitted = SweepEngine::with_jobs(2)
                .run_range_with(
                    &estimator,
                    &spec,
                    start..end,
                    &SweepContext::new(),
                    &mut |point| {
                        points.push(point);
                        Ok(())
                    },
                )
                .unwrap();
            assert_eq!(emitted, end - start);
            assert_eq!(points, full[start..end], "range {start}..{end}");
        }
        // Out-of-bounds and inverted ranges are rejected up front.
        #[allow(clippy::reversed_empty_ranges)]
        for bad in [0..total + 1, 7..3] {
            let result = SweepEngine::new().run_range_with(
                &estimator,
                &spec,
                bad.clone(),
                &SweepContext::new(),
                &mut |_point| Ok(()),
            );
            assert!(
                matches!(result, Err(EcoChipError::InvalidSystem(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn sink_errors_abort_the_sweep() {
        let estimator = EcoChip::default();
        let spec = spec();
        let mut emitted = 0usize;
        let result = SweepEngine::with_jobs(4).run_streaming(&estimator, &spec, &mut |_point| {
            emitted += 1;
            if emitted == 3 {
                Err(EcoChipError::InvalidSystem("sink full".into()))
            } else {
                Ok(())
            }
        });
        assert!(matches!(result, Err(EcoChipError::InvalidSystem(_))));
        assert_eq!(emitted, 3);
    }

    #[test]
    fn memoization_skips_repeated_floorplans_and_manufacturing() {
        let estimator = EcoChip::default();
        let context = SweepContext::new();
        let cases = spec().cases().unwrap();
        let total = cases.len();
        SweepEngine::serial()
            .run_cases_with(&estimator, cases, &context)
            .unwrap();
        let stats = context.stats();
        // Lifetime points share the packaging point's outlines; only the
        // packaging variants differ in comm area.
        assert!(stats.floorplan_misses <= 3, "{stats:?}");
        assert!(stats.floorplan_hits >= total - 3, "{stats:?}");
        assert!(stats.manufacturing_hits > 0, "{stats:?}");
    }

    #[test]
    fn fab_energy_axis_builds_one_estimator_per_source() {
        let estimator = EcoChip::default();
        let spec = SweepSpec::new(base())
            .axis(SweepAxis::FabEnergySources(vec![
                ecochip_techdb::EnergySource::Coal,
                ecochip_techdb::EnergySource::Wind,
            ]))
            .axis(SweepAxis::lifetimes_years(&[1.0, 2.0]));
        let points = SweepEngine::with_jobs(2).run(&estimator, &spec).unwrap();
        assert_eq!(points.len(), 4);
        // Wind-powered fabs lower manufacturing CFP; lifetime does not.
        assert!(
            points[2].report.manufacturing().kg() < points[0].report.manufacturing().kg(),
            "wind should beat coal"
        );
        assert_eq!(
            points[0].report.manufacturing().kg().to_bits(),
            points[1].report.manufacturing().kg().to_bits()
        );
    }

    #[test]
    fn errors_surface_from_the_lowest_index_point() {
        let estimator = EcoChip::default();
        // Retargeting chiplet 5 of a 2-chiplet system fails at case
        // generation already.
        let spec = SweepSpec::new(base()).axis(SweepAxis::ChipletNode {
            index: 5,
            nodes: vec![TechNode::N10],
        });
        assert!(SweepEngine::new().run(&estimator, &spec).is_err());
        assert!(SweepEngine::with_jobs(4).run(&estimator, &spec).is_err());
    }

    #[test]
    fn chunked_runs_match_unchunked_for_every_chunk_size() {
        let estimator = EcoChip::default();
        let spec = spec();
        let reference = SweepEngine::serial()
            .with_chunk(1)
            .run(&estimator, &spec)
            .unwrap();
        let total = reference.len();
        for jobs in [1usize, 2, 4] {
            for chunk in [1usize, 3, 7, total, total + 5] {
                let mut streamed = Vec::new();
                let emitted = SweepEngine::with_jobs(jobs)
                    .with_chunk(chunk)
                    .run_streaming(&estimator, &spec, &mut |point| {
                        streamed.push(point);
                        Ok(())
                    })
                    .unwrap();
                assert_eq!(emitted, total, "jobs={jobs} chunk={chunk}");
                assert_eq!(streamed, reference, "jobs={jobs} chunk={chunk}");
            }
        }
    }

    #[test]
    fn batch_sinks_see_the_same_points_in_order() {
        struct Batches {
            points: Vec<SweepPoint>,
            batches: usize,
        }
        impl SweepSink for Batches {
            fn emit(&mut self, point: SweepPoint) -> Result<(), EcoChipError> {
                self.points.push(point);
                Ok(())
            }
            fn accept_batch(&mut self, points: Vec<SweepPoint>) -> Result<(), EcoChipError> {
                self.batches += 1;
                self.points.extend(points);
                Ok(())
            }
        }
        let estimator = EcoChip::default();
        let spec = spec();
        let reference = SweepEngine::serial().run(&estimator, &spec).unwrap();
        let mut sink = Batches {
            points: Vec::new(),
            batches: 0,
        };
        let emitted = SweepEngine::with_jobs(4)
            .with_chunk(5)
            .run_streaming(&estimator, &spec, &mut sink)
            .unwrap();
        assert_eq!(emitted, reference.len());
        assert_eq!(sink.points, reference);
        // 12 points in chunks of 5 → batches of 5, 5, 2.
        assert_eq!(sink.batches, 3);
    }

    #[test]
    fn encoder_sinks_receive_encoded_chunks_and_time_serialization() {
        fn encode(point: &SweepPoint, out: &mut Vec<u8>) -> Result<(), EcoChipError> {
            out.extend_from_slice(point.label.as_bytes());
            out.push(b'\n');
            Ok(())
        }
        struct Labels {
            bytes: Vec<u8>,
            chunks: Vec<usize>,
        }
        impl SweepSink for Labels {
            fn emit(&mut self, _point: SweepPoint) -> Result<(), EcoChipError> {
                unreachable!("points arrive encoded")
            }
            fn encoder(&self) -> Option<PointEncoder> {
                Some(Box::new(encode))
            }
            fn accept_encoded(&mut self, bytes: &[u8], points: usize) -> Result<(), EcoChipError> {
                self.bytes.extend_from_slice(bytes);
                self.chunks.push(points);
                Ok(())
            }
        }
        let estimator = EcoChip::default();
        let spec = spec();
        let mut expected = Vec::new();
        for point in SweepEngine::serial().run(&estimator, &spec).unwrap() {
            encode(&point, &mut expected).unwrap();
        }
        for jobs in [1, 4] {
            let timings = StageTimings::new();
            let mut sink = Labels {
                bytes: Vec::new(),
                chunks: Vec::new(),
            };
            let emitted = SweepEngine::with_jobs(jobs)
                .with_chunk(5)
                .run_streaming_timed(
                    &estimator,
                    &spec,
                    Shard::FULL,
                    &SweepContext::new(),
                    Some(&timings),
                    &mut sink,
                )
                .unwrap();
            assert_eq!(emitted, 12);
            assert_eq!(sink.bytes, expected, "jobs={jobs}");
            // 12 points in chunks of 5, each encoded once on a worker.
            assert_eq!(sink.chunks, [5, 5, 2], "jobs={jobs}");
            assert_eq!(timings.count(Stage::Serialize), 3, "jobs={jobs}");
            assert_eq!(timings.count(Stage::Estimate), 12, "jobs={jobs}");
        }
    }

    #[test]
    fn chunk_configuration_resolves_like_jobs() {
        assert_eq!(SweepEngine::new().with_chunk(0).chunk(), 1);
        assert_eq!(SweepEngine::new().with_chunk(9).chunk(), 9);
        assert_eq!(SweepEngine::new().with_optional_chunk(Some(17)).chunk(), 17);
        assert_eq!(
            SweepEngine::new().with_optional_chunk(None).chunk(),
            SweepEngine::new().chunk()
        );
    }

    #[test]
    fn empty_case_list_yields_no_points() {
        let estimator = EcoChip::default();
        let points = SweepEngine::new()
            .run_cases(&estimator, Vec::new())
            .unwrap();
        assert!(points.is_empty());
        assert!(SweepEngine::with_jobs(0).jobs() == 1);
        assert!(SweepEngine::default().jobs() >= 1);
    }
}
