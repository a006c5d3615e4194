//! The DataStream builder and its engine lowerings.
//!
//! [`StreamEnv`] is the single streaming entry point: parameterized by
//! engine (baseline CPU slots or the GPU fabric), it builds typed
//! pipelines —
//!
//! ```text
//! StreamEnv::gpu(&fabric)
//!     .source(StreamSource::at_rate(2e7), gen)
//!     .timestamps(|r| r.ts, WatermarkStrategy::bounded(lag))
//!     .key_by(|r| r.seller)
//!     .window(Tumbling::of(SimTime::from_secs(1)))
//!     .aggregate(AggSpec::avg(), |r| r.price)
//!     .run()
//! ```
//!
//! — that lower onto the existing [`JobHandle`]/[`GpuMapSpec`] machinery:
//! every micro-batch (map pipelines) or fired window (window pipelines)
//! becomes one `GWork` submitted at its arrival/fire instant, flowing
//! through admission, backpressure pens, WFQ arbitration and whatever
//! scheduling policy the fabric is configured with. Windowed keyed state
//! checkpoints through the [`CheckpointManager`](crate::CheckpointManager)
//! (see DESIGN.md §17); ingestion is a pure function of the seed, so a
//! restore replays it and validates the replayed state against the
//! snapshot instead of trusting opaque bytes.

use super::source::StreamSource;
use super::time::{watermark_digest, WatermarkStamp, WatermarkStrategy};
use super::window::{
    output_digest, AggResult, AggSpec, FiredWindow, KeyedWindows, WindowAssigner, WindowOutput,
};
use super::{LostBatch, StreamError, StreamReport};
use crate::checkpoint::{SnapshotBlock, StreamState};
use crate::driver::Drained;
use crate::gdst::{Block, GRecord, GpuFabric, GpuMapSpec, OutMode};
use crate::gwork::{GWork, WorkBuf};
use gflink_flink::{ClusterConfig, OpCost, SharedCluster};
use gflink_gpu::{KernelArgs, KernelProfile};
use gflink_memory::{
    AlignClass, DataLayout, FieldDef, GStructDef, HBuffer, PrimType, RecordReader, RecordView,
};
use gflink_sim::SimTime;
use std::marker::PhantomData;
use std::sync::{Arc, LazyLock};

/// The built-in GPU windowed-aggregation kernel, registered by
/// [`StreamEnv::gpu`]. Input: key/value pairs grouped by key; output: one
/// `(key, count, sum, min, max)` row per distinct key.
pub(crate) const WINDOW_KERNEL: &str = "gfWindowedAgg";

/// The window kernel's input record: one `(key, value)` pair.
static PAIR_DEF: LazyLock<GStructDef> = LazyLock::new(|| {
    GStructDef::new(
        "GfPair",
        AlignClass::Align8,
        vec![
            FieldDef::scalar("key", PrimType::F64),
            FieldDef::scalar("value", PrimType::F64),
        ],
    )
});

/// The window kernel's output record: one key's aggregate.
static KEYAGG_DEF: LazyLock<GStructDef> = LazyLock::new(|| {
    GStructDef::new(
        "GfKeyAgg",
        AlignClass::Align8,
        vec![
            FieldDef::scalar("key", PrimType::F64),
            FieldDef::scalar("count", PrimType::F64),
            FieldDef::scalar("sum", PrimType::F64),
            FieldDef::scalar("min", PrimType::F64),
            FieldDef::scalar("max", PrimType::F64),
        ],
    )
});

/// The windowed-aggregation kernel body: folds consecutive same-key runs
/// with [`AggResult::push`] — the exact fold the CPU engine uses, so the
/// two engines are bit-identical. `params[0]`/`params[1]` carry the
/// aggregation's flops/bytes per logical record.
fn window_agg_kernel(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
    let (pair, out_def) = (&*PAIR_DEF, &*KEYAGG_DEF);
    let n = args.n_actual;
    let input = RecordReader::new(args.inputs[0], pair, DataLayout::Aos, n);
    let capacity = args.outputs[0].len() / out_def.size().max(1);
    let out_buf = &mut args.outputs[0];
    let mut out = RecordView::new(out_buf, out_def, DataLayout::Aos, capacity);
    let mut emitted = 0usize;
    let mut i = 0usize;
    while i < n {
        let key = input.scalar::<f64>(i, 0);
        let mut r = AggResult::EMPTY;
        while i < n && input.scalar::<f64>(i, 0) == key {
            r.push(input.scalar(i, 1));
            i += 1;
        }
        out.set_scalar(emitted, 0, key);
        out.set_scalar(emitted, 1, r.count as f64);
        out.set_scalar(emitted, 2, r.sum);
        out.set_scalar(emitted, 3, r.min);
        out.set_scalar(emitted, 4, r.max);
        emitted += 1;
    }
    let flops = args.params.first().copied().unwrap_or(200.0);
    let bytes = args.params.get(1).copied().unwrap_or(16.0);
    KernelProfile::new(args.n_logical as f64 * flops, args.n_logical as f64 * bytes)
        .with_emitted(emitted)
}

#[derive(Clone)]
enum Engine {
    Cpu(ClusterConfig),
    Gpu {
        fabric: GpuFabric,
        cluster: Option<SharedCluster>,
    },
}

/// The engine-parameterized streaming environment — the one entry point
/// into the streaming layer.
#[derive(Clone)]
pub struct StreamEnv {
    engine: Engine,
    name: String,
    weight: u32,
}

impl StreamEnv {
    /// A streaming environment over the baseline CPU engine: each unit of
    /// work occupies one round-robin task slot from its release instant.
    pub fn cpu(cfg: &ClusterConfig) -> StreamEnv {
        StreamEnv {
            engine: Engine::Cpu(cfg.clone()),
            name: "stream".to_string(),
            weight: 1,
        }
    }

    /// A streaming environment over the GPU fabric: each unit of work
    /// becomes one `GWork` flowing through admission, pens, arbitration
    /// and the configured scheduling policy. Registers the built-in
    /// windowed-aggregation kernel.
    pub fn gpu(fabric: &GpuFabric) -> StreamEnv {
        fabric.register_kernel(WINDOW_KERNEL, window_agg_kernel);
        StreamEnv {
            engine: Engine::Gpu {
                fabric: fabric.clone(),
                cluster: None,
            },
            name: "stream".to_string(),
            weight: 1,
        }
    }

    /// Attach the shared cluster, enabling durable window-state
    /// checkpoints through the fabric's `CheckpointManager` (snapshots are
    /// written to — and restored from — the cluster's HDFS). A no-op on
    /// the CPU engine, which has no checkpoint coordinator.
    pub fn with_cluster(mut self, cluster: &SharedCluster) -> StreamEnv {
        if let Engine::Gpu { cluster: c, .. } = &mut self.engine {
            *c = Some(cluster.clone());
        }
        self
    }

    /// Name the job — the checkpoint snapshot key, so a relaunched driver
    /// using the same name finds its predecessor's snapshots.
    pub fn named(mut self, name: &str) -> StreamEnv {
        self.name = name.to_string();
        self
    }

    /// The job's fair-share weight under WFQ arbitration.
    pub fn weighted(mut self, weight: u32) -> StreamEnv {
        self.weight = weight;
        self
    }

    /// Whether this environment lowers onto the GPU fabric (as opposed to
    /// the baseline CPU engine) — lets engine-generic workloads pick the
    /// matching map flavor.
    pub fn is_gpu(&self) -> bool {
        matches!(self.engine, Engine::Gpu { .. })
    }

    /// Open a rate-controlled source: `gen(i)` materializes the source's
    /// `i`-th record, deterministically.
    pub fn source<'a, T>(
        &self,
        source: StreamSource,
        gen: impl Fn(u64) -> T + 'a,
    ) -> DataStream<'a, T> {
        DataStream {
            env: self.clone(),
            sources: vec![(source, Box::new(gen))],
            ts: None,
        }
    }

    fn gpu_parts(&self) -> Result<(&GpuFabric, Option<&SharedCluster>), StreamError> {
        match &self.engine {
            Engine::Gpu { fabric, cluster } => Ok((fabric, cluster.as_ref())),
            Engine::Cpu(_) => Err(StreamError::WrongEngine { needed: "gpu" }),
        }
    }

    fn cpu_parts(&self) -> Result<&ClusterConfig, StreamError> {
        match &self.engine {
            Engine::Cpu(cfg) => Ok(cfg),
            Engine::Gpu { .. } => Err(StreamError::WrongEngine { needed: "cpu" }),
        }
    }
}

/// A rate-controlled source paired with its boxed record generator:
/// `gen(i)` materializes the source's `i`-th record.
type SourceGen<'a, T> = (StreamSource, Box<dyn Fn(u64) -> T + 'a>);

/// A boxed event-timestamp extractor plus its watermark strategy.
type TsAssigner<'a, T> = (Box<dyn Fn(&T) -> SimTime + 'a>, WatermarkStrategy);

/// One merged-batch reference: which source, which batch, when it lands.
#[derive(Clone, Copy, Debug)]
struct BatchRef {
    arrival: SimTime,
    source: usize,
    index: usize,
}

fn merged_batches<T>(sources: &[SourceGen<'_, T>]) -> Vec<BatchRef> {
    let mut out = Vec::new();
    for (s, (src, _)) in sources.iter().enumerate() {
        for i in 0..src.num_batches() {
            out.push(BatchRef {
                arrival: src.arrival(i),
                source: s,
                index: i,
            });
        }
    }
    out.sort_by_key(|b| (b.arrival, b.source, b.index));
    out
}

/// An unbounded stream of `T` records: one or more rate-controlled
/// sources, merged in arrival order.
pub struct DataStream<'a, T> {
    env: StreamEnv,
    sources: Vec<SourceGen<'a, T>>,
    ts: Option<TsAssigner<'a, T>>,
}

impl<'a, T> DataStream<'a, T> {
    /// Merge another source into the stream (batches interleave in
    /// arrival order; ties break by source registration order).
    pub fn and_source(
        mut self,
        source: StreamSource,
        gen: impl Fn(u64) -> T + 'a,
    ) -> DataStream<'a, T> {
        self.sources.push((source, Box::new(gen)));
        self
    }

    /// Assign event timestamps and a watermark strategy — required before
    /// any event-time operation (`key_by`/`window`).
    pub fn timestamps(
        mut self,
        ts: impl Fn(&T) -> SimTime + 'a,
        strategy: WatermarkStrategy,
    ) -> DataStream<'a, T> {
        self.ts = Some((Box::new(ts), strategy));
        self
    }

    /// Partition the stream by key for windowed aggregation.
    pub fn key_by(self, key: impl Fn(&T) -> u64 + 'a) -> KeyedStream<'a, T> {
        KeyedStream {
            stream: self,
            key: Box::new(key),
        }
    }

    /// Map every micro-batch through a registered GPU kernel (GPU engine
    /// only — the CPU engine reports a typed `WrongEngine` error at run).
    pub fn map_kernel<U: GRecord>(self, spec: GpuMapSpec) -> MapPipeline<'a, T, U>
    where
        T: GRecord,
    {
        MapPipeline {
            stream: self,
            spec,
            _out: PhantomData,
        }
    }

    /// Map every record on the CPU engine at the given per-element cost
    /// (CPU engine only — the GPU engine reports `WrongEngine` at run).
    pub fn map_fn<U>(self, cost: OpCost, op: impl Fn(&T) -> U + 'a) -> CpuMapPipeline<'a, T, U> {
        CpuMapPipeline {
            stream: self,
            cost,
            op: Box::new(op),
        }
    }

    /// `EmptySource` for any source that would emit zero batches — a
    /// config error surfaced at build time, not a silent empty run.
    fn validate(&self) -> Result<(), StreamError> {
        for (i, (src, _)) in self.sources.iter().enumerate() {
            if src.num_batches() == 0 {
                return Err(StreamError::EmptySource { source: i });
            }
        }
        Ok(())
    }
}

/// A keyed stream, ready for window assignment.
pub struct KeyedStream<'a, T> {
    stream: DataStream<'a, T>,
    key: Box<dyn Fn(&T) -> u64 + 'a>,
}

impl<'a, T> KeyedStream<'a, T> {
    /// Assign records to event-time windows.
    pub fn window(self, assigner: WindowAssigner) -> WindowedStream<'a, T> {
        WindowedStream {
            keyed: self,
            assigner,
            lateness: SimTime::ZERO,
        }
    }
}

/// A keyed, windowed stream awaiting its aggregation.
pub struct WindowedStream<'a, T> {
    keyed: KeyedStream<'a, T>,
    assigner: WindowAssigner,
    lateness: SimTime,
}

impl<'a, T> WindowedStream<'a, T> {
    /// Keep windows open `lateness` past the watermark before firing.
    pub fn allow_lateness(mut self, lateness: SimTime) -> WindowedStream<'a, T> {
        self.lateness = lateness;
        self
    }

    /// Aggregate each pane's `value(record)` under `spec`, producing the
    /// runnable window pipeline.
    pub fn aggregate(self, spec: AggSpec, value: impl Fn(&T) -> f64 + 'a) -> WindowPipeline<'a, T> {
        WindowPipeline {
            env: self.keyed.stream.env.clone(),
            stream: self.keyed.stream,
            key: self.keyed.key,
            assigner: self.assigner,
            lateness: self.lateness,
            agg: spec,
            value: Box::new(value),
            crash_at: None,
        }
    }
}

/// A fully specified windowed aggregation, ready to run on either engine.
pub struct WindowPipeline<'a, T> {
    env: StreamEnv,
    stream: DataStream<'a, T>,
    key: Box<dyn Fn(&T) -> u64 + 'a>,
    assigner: WindowAssigner,
    lateness: SimTime,
    agg: AggSpec,
    value: Box<dyn Fn(&T) -> f64 + 'a>,
    crash_at: Option<SimTime>,
}

/// Everything a windowed run produced: the report, every window output
/// (canonically sorted), the watermark timeline, and checkpoint counters.
#[derive(Clone, Debug)]
pub struct WindowedRun {
    /// Latency/loss report (one unit = one fired window).
    pub report: StreamReport,
    /// Window outputs, sorted by `(span, key)`.
    pub windows: Vec<WindowOutput>,
    /// The watermark timeline, one stamp per absorbed micro-batch.
    pub watermarks: Vec<WatermarkStamp>,
    /// Windows satisfied from a durable snapshot instead of executing.
    pub windows_restored: u64,
    /// Durable snapshots written during the run.
    pub checkpoints: u64,
}

impl WindowedRun {
    /// Value-only digest of the window outputs — invariant across engine,
    /// placement policy, fault plan and checkpoint/restore boundaries.
    pub fn digest(&self) -> u64 {
        output_digest(&self.windows)
    }

    /// Digest of the watermark timeline.
    pub fn watermark_digest(&self) -> u64 {
        watermark_digest(&self.watermarks)
    }
}

/// The pure driver-side ingestion result: what fired, when, and the keyed
/// state left open. A pure function of the pipeline definition and the
/// cutoff, which is what makes checkpoint validation-by-replay possible.
/// `fired[i].seq == i`: every ingestion replays from the first batch.
struct Ingested {
    fired: Vec<FiredWindow>,
    stamps: Vec<WatermarkStamp>,
    late: u64,
    state: StreamState,
}

impl<'a, T> WindowPipeline<'a, T> {
    /// Simulate a driver crash at `at`: ingestion stops, open windows
    /// never flush, and (with checkpointing on) the snapshot cadence is
    /// bounded by the crash instant. Re-running the same named pipeline
    /// afterwards restores from the last pre-crash snapshot.
    pub fn crash_at(mut self, at: SimTime) -> WindowPipeline<'a, T> {
        self.crash_at = Some(at);
        self
    }

    /// Execute on the environment's engine.
    pub fn run(&self) -> Result<WindowedRun, StreamError> {
        self.stream.validate()?;
        if self.stream.ts.is_none() {
            return Err(StreamError::NoTimestamps);
        }
        self.assigner.validate()?;
        match &self.env.engine {
            Engine::Cpu(cfg) => self.run_cpu(&cfg.clone()),
            Engine::Gpu { .. } => self.run_gpu(),
        }
    }

    /// Drive the keyed window state machine over every merged batch with
    /// arrival ≤ `cutoff`, flushing remaining windows iff `flush`.
    fn ingest(&self, cutoff: Option<SimTime>, flush: bool) -> Ingested {
        self.replay(cutoff, flush, &[]).0
    }

    /// The keyed state as of each instant in `ticks` (ascending) — what
    /// `ingest(Some(tick), false).state` returns — from one replay pass.
    fn tick_states(&self, ticks: &[SimTime]) -> Vec<StreamState> {
        if ticks.is_empty() {
            return Vec::new();
        }
        self.replay(ticks.last().copied(), false, ticks).1
    }

    /// [`ingest`](Self::ingest), also capturing the state as of each
    /// instant in `ticks` (ascending) on the way.
    fn replay(
        &self,
        cutoff: Option<SimTime>,
        flush: bool,
        ticks: &[SimTime],
    ) -> (Ingested, Vec<StreamState>) {
        debug_assert!(ticks.is_sorted(), "capture ticks ascend");
        let (ts_fn, strategy) = self.stream.ts.as_ref().expect("validated: timestamps set");
        let mut kw = KeyedWindows::new(self.assigner, self.lateness, strategy.bound());
        let mut fired = Vec::new();
        let mut states = Vec::with_capacity(ticks.len());
        let mut batches = 0u64;
        let mut last_arrival = SimTime::ZERO;
        for b in merged_batches(&self.stream.sources) {
            if cutoff.is_some_and(|c| b.arrival > c) {
                break;
            }
            while ticks.get(states.len()).is_some_and(|&t| t < b.arrival) {
                states.push(kw.state(batches));
            }
            let (src, gen) = &self.stream.sources[b.source];
            let scale = src.record_scale();
            let actual = src.batch_actual();
            for j in 0..actual {
                let rec = gen((b.index * actual + j) as u64);
                kw.insert(ts_fn(&rec), (self.key)(&rec), (self.value)(&rec), scale);
            }
            fired.extend(kw.advance(b.arrival));
            batches += 1;
            last_arrival = b.arrival;
        }
        while states.len() < ticks.len() {
            states.push(kw.state(batches));
        }
        if flush {
            fired.extend(kw.flush(last_arrival));
        }
        let ingested = Ingested {
            fired,
            state: kw.state(batches),
            stamps: kw.stamps,
            late: kw.late_records,
        };
        (ingested, states)
    }

    fn run_cpu(&self, cfg: &ClusterConfig) -> Result<WindowedRun, StreamError> {
        let ing = self.ingest(self.crash_at, self.crash_at.is_none());
        let cpu = cfg.cpu;
        let slots = (cfg.num_workers * cfg.slots_per_worker).max(1);
        let mut slot_free = vec![SimTime::ZERO; slots];
        let cost = OpCost::new(self.agg.flops_per_record, self.agg.bytes_per_record);
        let mut outputs = Vec::new();
        let mut report = StreamReport {
            late_records: ing.late,
            ..StreamReport::empty()
        };
        for fw in &ing.fired {
            let dur = cpu.time_for(&cost, fw.logical() as f64);
            let slot = &mut slot_free[fw.seq as usize % slots];
            let end = fw.fire_at.max(*slot) + dur;
            *slot = end;
            let lat = report.complete(fw.fire_at, end);
            for pane in &fw.panes {
                outputs.push(WindowOutput {
                    span: fw.span,
                    key: pane.key,
                    agg: fw.fold(pane),
                    fired_at: end,
                    latency: lat,
                    restored: false,
                });
            }
        }
        outputs.sort_by_key(|o| (o.span, o.key));
        Ok(WindowedRun {
            report,
            windows: outputs,
            watermarks: ing.stamps,
            windows_restored: 0,
            checkpoints: 0,
        })
    }

    /// Build the `GWork` for one fired window: its key-sorted rows packed
    /// as they lie — panes key-ascending, values in insertion order, the
    /// order the kernel folds in — and one output row per pane.
    fn window_work(fw: &FiredWindow, spec: &GpuMapSpec, workers: usize) -> GWork {
        let pair = &*PAIR_DEF;
        let rows = fw.rows();
        let mut buf = HBuffer::zeroed(RecordView::required_bytes(pair, DataLayout::Aos, rows));
        {
            let mut view = RecordView::new(&mut buf, pair, DataLayout::Aos, rows);
            for (i, r) in fw.rows.iter().enumerate() {
                view.set_scalar(i, 0, r.key as f64);
                view.set_scalar(i, 1, r.value);
            }
        }
        let logical = fw.logical().max(1);
        let block = Block {
            name: format!("stream-window-{}", fw.seq).into(),
            input: WorkBuf::transient(Arc::new(buf), logical * pair.size() as u64),
            rows,
            n_logical: logical,
            coalescing: 1.0,
            tag: ((fw.seq as usize % workers) as u32, fw.seq),
        };
        spec.work(block, &KEYAGG_DEF, OutMode::PerBlock(fw.panes.len()))
    }

    fn run_gpu(&self) -> Result<WindowedRun, StreamError> {
        let (fabric, cluster) = self.env.gpu_parts()?;
        let ing = self.ingest(self.crash_at, self.crash_at.is_none());
        let spec = GpuMapSpec::new(WINDOW_KERNEL)
            .uncached()
            .with_params(vec![self.agg.flops_per_record, self.agg.bytes_per_record])
            .with_out_mode(OutMode::Bounded { per_record: 1 })
            .build(fabric)?;
        let workers = fabric.with_managers(|ms| ms.len()).max(1);
        let job = fabric.open_job_weighted(self.env.weight)?;

        // The snapshot's keyed state must equal the state replay
        // reconstructs at its frontier; divergence refuses the snapshot
        // (replay-from-zero) rather than resuming wrong.
        let restore = job.restore(cluster, &self.env.name, SimTime::ZERO, |snap| {
            StreamState::decode(&snap.state)
                .is_some_and(|st| self.ingest(Some(snap.frontier), false).state == st)
        });

        // --- submit every fired window at its fire instant ---------------
        let mut last_submit = SimTime::ZERO;
        let mut first_fire = SimTime::MAX;
        for fw in &ing.fired {
            let work = Self::window_work(fw, &spec, workers);
            job.submit_to(fw.seq as usize % workers, work, fw.fire_at);
            last_submit = last_submit.max(fw.fire_at);
            first_fire = first_fire.min(fw.fire_at);
        }

        // --- drain: decode each window's rows straight into outputs -----
        // One snapshot block per executed window; the raw output is kept
        // only when checkpointing is on.
        let mut executed: Vec<SnapshotBlock> = Vec::new();
        let mut outputs = Vec::new();
        let drained = job.drain(last_submit, |_, done| {
            let (seq, completed) = (done.tag.1, done.timing.completed);
            let fw = &ing.fired[seq as usize];
            let lat = completed.saturating_sub(fw.fire_at);
            let rows = keyagg_rows(&done.output, done.emitted);
            let emitted = rows.len();
            outputs.extend(rows.map(|(key, agg)| WindowOutput {
                span: fw.span,
                key,
                agg,
                fired_at: completed,
                latency: lat,
                restored: false,
            }));
            executed.push(SnapshotBlock {
                tag: done.tag,
                emitted: Some(emitted),
                completed_at: completed,
                payload: if restore.enabled() {
                    done.output.as_slice().to_vec()
                } else {
                    Vec::new()
                },
            });
        });
        executed.sort_by_key(|e| e.tag.1);
        // A driver crash bounds the snapshot cadence like a permanent
        // failure does.
        let crashed_at = self.crash_at.into_iter().chain(drained.crashed_at).min();

        // --- latency in fire order, then snapshot-restored windows --------
        let mut report = StreamReport {
            late_records: ing.late,
            ..drained_report(drained)
        };
        for e in &executed {
            report.complete(ing.fired[e.tag.1 as usize].fire_at, e.completed_at);
        }
        let mut windows_restored = 0u64;
        if let Some(rs) = &restore.snapshot {
            for blk in &rs.snapshot.blocks {
                let Some(fw) = ing.fired.get(blk.tag.1 as usize) else {
                    continue;
                };
                windows_restored += 1;
                report.finished_at = report.finished_at.max(rs.ready_at);
                let buf = HBuffer::from_bytes(&blk.payload);
                outputs.extend(
                    keyagg_rows(&buf, blk.emitted).map(|(key, agg)| WindowOutput {
                        span: fw.span,
                        key,
                        agg,
                        fired_at: rs.ready_at,
                        latency: SimTime::ZERO,
                        restored: true,
                    }),
                );
            }
        }

        // --- periodic snapshots, keyed stream state attached ---------------
        if !ing.fired.is_empty() {
            job.write_snapshots(
                &restore,
                executed,
                first_fire,
                report.finished_at,
                crashed_at,
                |ticks| {
                    let states = self.tick_states(ticks);
                    states.iter().map(StreamState::encode).collect()
                },
            );
        }
        let gpu = job.close(report.finished_at);
        let checkpoints = gpu.checkpoints;
        report.with_rollup(gpu);

        outputs.sort_by_key(|o| (o.span, o.key));
        Ok(WindowedRun {
            report,
            windows: outputs,
            watermarks: ing.stamps,
            windows_restored,
            checkpoints,
        })
    }
}

/// A report seeded with a GPU stream job's drain: its finish and its
/// terminal failures as lost units (a failed work's tag carries the batch
/// index or window fire sequence).
fn drained_report(drained: Drained) -> StreamReport {
    StreamReport {
        finished_at: drained.wall_end,
        lost: drained
            .failed
            .into_iter()
            .map(|f| LostBatch {
                index: f.tag.1 as usize,
                worker: f.tag.0 as usize,
                reason: f.reason,
            })
            .collect(),
        ..StreamReport::empty()
    }
}

/// The `(key, aggregate)` rows of one window's `GfKeyAgg` output: the
/// first `emitted` records (all that fit when the kernel reported none).
fn keyagg_rows(
    buf: &HBuffer,
    emitted: Option<usize>,
) -> impl ExactSizeIterator<Item = (u64, AggResult)> + '_ {
    let out_def = &*KEYAGG_DEF;
    let capacity = buf.len() / out_def.size().max(1);
    let reader = RecordReader::new(buf, out_def, DataLayout::Aos, capacity);
    (0..emitted.unwrap_or(capacity).min(capacity)).map(move |i| {
        (
            reader.scalar::<f64>(i, 0) as u64,
            AggResult {
                count: reader.scalar::<f64>(i, 1) as u64,
                sum: reader.scalar(i, 2),
                min: reader.scalar(i, 3),
                max: reader.scalar(i, 4),
            },
        )
    })
}

/// A per-batch GPU kernel map over the stream (GPU engine).
pub struct MapPipeline<'a, T: GRecord, U: GRecord> {
    stream: DataStream<'a, T>,
    spec: GpuMapSpec,
    _out: PhantomData<U>,
}

impl<T: GRecord, U: GRecord> MapPipeline<'_, T, U> {
    /// Run, discarding per-batch outputs.
    pub fn run(self) -> Result<StreamReport, StreamError> {
        self.run_each(|_, _| {})
    }

    /// Run, invoking `check(batch, records)` for every completed batch in
    /// merged arrival order. Lost batches appear in the report, not here.
    pub fn run_each(self, mut check: impl FnMut(usize, &[U])) -> Result<StreamReport, StreamError> {
        let (fabric, _) = self.stream.env.gpu_parts()?;
        self.stream.validate()?;
        let spec = self.spec.clone().build(fabric)?;
        let def = T::def();
        let out_def = U::def();
        let workers = fabric.with_managers(|ms| ms.len()).max(1);
        let job = fabric.open_job_weighted(self.stream.env.weight)?;
        let batches = merged_batches(&self.stream.sources);
        let mut last_submit = SimTime::ZERO;
        for (g, b) in batches.iter().enumerate() {
            let (src, gen) = &self.stream.sources[b.source];
            let rows = src.batch_actual();
            let mut buf = HBuffer::zeroed(RecordView::required_bytes(&def, DataLayout::Aos, rows));
            {
                let mut view = RecordView::new(&mut buf, &def, DataLayout::Aos, rows);
                for j in 0..rows {
                    gen((b.index * rows + j) as u64).store(&mut view, j);
                }
            }
            let n_logical = src.batch_logical();
            let block = Block {
                name: format!("stream-batch-{g}").into(),
                input: WorkBuf::transient(Arc::new(buf), n_logical * def.size() as u64),
                rows,
                n_logical,
                coalescing: 1.0,
                tag: ((g % workers) as u32, g as u32),
            };
            job.submit_to(
                g % workers,
                spec.work(block, &out_def, spec.out_mode),
                b.arrival,
            );
            last_submit = last_submit.max(b.arrival);
        }

        let mut completions: Vec<Option<(SimTime, Vec<U>)>> =
            (0..batches.len()).map(|_| None).collect();
        let drained = job.drain(last_submit, |_, done| {
            let records = spec.decode(&out_def, &done.output, done.emitted).collect();
            completions[done.tag.1 as usize] = Some((done.timing.completed, records));
        });
        let gpu = job.close(drained.wall_end);
        let mut report = drained_report(drained);
        report.with_rollup(gpu);
        for (g, c) in completions.iter().enumerate() {
            if let Some((completed, records)) = c {
                check(g, records);
                report.complete(batches[g].arrival, *completed);
            }
        }
        Ok(report)
    }
}

/// A per-record CPU map over the stream (CPU engine).
pub struct CpuMapPipeline<'a, T, U> {
    stream: DataStream<'a, T>,
    cost: OpCost,
    op: Box<dyn Fn(&T) -> U + 'a>,
}

impl<T, U> CpuMapPipeline<'_, T, U> {
    /// Run: each batch occupies one round-robin task slot from its
    /// arrival, charged the per-element cost over its logical records.
    pub fn run(self) -> Result<StreamReport, StreamError> {
        let cfg = self.stream.env.cpu_parts()?;
        self.stream.validate()?;
        let cpu = cfg.cpu;
        let slots = (cfg.num_workers * cfg.slots_per_worker).max(1);
        let mut slot_free = vec![SimTime::ZERO; slots];
        let mut report = StreamReport::empty();
        let batches = merged_batches(&self.stream.sources);
        for (g, b) in batches.iter().enumerate() {
            let (src, gen) = &self.stream.sources[b.source];
            // Execute the operator for real on the batch's actual records.
            for j in 0..src.batch_actual() {
                let _ = (self.op)(&gen((b.index * src.batch_actual() + j) as u64));
            }
            let dur = cpu.time_for(&self.cost, src.batch_logical() as f64);
            let slot = &mut slot_free[g % slots];
            *slot = b.arrival.max(*slot) + dur;
            report.complete(b.arrival, *slot);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CheckpointConfig;
    use crate::gdst::FabricConfig;
    use crate::recovery::CpuFallback;
    use crate::stream::window::{Sliding, Tumbling};
    use crate::stream::StreamError;
    use gflink_sim::{FaultKind, FaultPlan};

    #[derive(Clone, Debug, PartialEq)]
    struct Sample {
        v: f32,
    }
    impl GRecord for Sample {
        fn def() -> GStructDef {
            GStructDef::new(
                "Sample",
                AlignClass::Align4,
                vec![FieldDef::scalar("v", PrimType::F32)],
            )
        }
        fn store(&self, view: &mut RecordView<'_>, idx: usize) {
            view.set_f64(idx, 0, 0, self.v as f64);
        }
        fn load(reader: &RecordReader<'_>, idx: usize) -> Self {
            Sample {
                v: reader.get_f64(idx, 0, 0) as f32,
            }
        }
    }

    fn fabric_with(workers: usize, cfg: FabricConfig) -> GpuFabric {
        let f = GpuFabric::new(workers, cfg);
        f.register_kernel("streamDouble", |args: &mut KernelArgs<'_, '_>| {
            let def = Sample::def();
            let n = args.n_actual;
            let input = RecordReader::new(args.inputs[0], &def, DataLayout::Aos, n);
            let out_buf = &mut args.outputs[0];
            let mut out = RecordView::new(out_buf, &def, DataLayout::Aos, n);
            for i in 0..n {
                out.set_f64(i, 0, 0, input.get_f64(i, 0, 0) * 2.0);
            }
            KernelProfile::new(args.n_logical as f64 * 200.0, args.n_logical as f64 * 8.0)
        });
        f
    }

    fn source(rate: f64) -> StreamSource {
        StreamSource::at_rate(rate).for_duration(SimTime::from_secs(5))
    }

    /// An event whose timestamp roughly tracks its arrival (record `i` of
    /// a 20M rec/s source lands in batch `i/64`), with a deterministic
    /// jitter so some records are out of order.
    #[derive(Clone)]
    struct Event {
        ts: SimTime,
        key: u64,
        value: f64,
    }

    fn event(i: u64) -> Event {
        let base = i * 50_000_000 / 64; // batch spread: 50 ms per 64 records
        let jitter = (i.wrapping_mul(2_654_435_761)) % 30_000_000; // < 30 ms
        Event {
            ts: SimTime::from_nanos(base.saturating_sub(jitter)),
            key: i % 8,
            value: (i % 97) as f64 * 0.5,
        }
    }

    fn windowed(env: &StreamEnv, src: &StreamSource) -> WindowPipeline<'static, Event> {
        env.source(src.clone(), event)
            .timestamps(
                |e: &Event| e.ts,
                WatermarkStrategy::bounded(SimTime::from_millis(40)),
            )
            .key_by(|e: &Event| e.key)
            .window(Tumbling::of(SimTime::from_millis(100)))
            .aggregate(AggSpec::avg(), |e: &Event| e.value)
    }

    #[test]
    fn builder_map_processes_every_batch_correctly() {
        let f = fabric_with(2, FabricConfig::default());
        let s = source(20_000_000.0);
        let mut seen = 0usize;
        let report = StreamEnv::gpu(&f)
            .source(s.clone(), |i| Sample { v: i as f32 })
            .map_kernel::<Sample>(GpuMapSpec::new("streamDouble").uncached())
            .run_each(|_, records| {
                for (j, r) in records.iter().enumerate() {
                    assert_eq!(r.v % 2.0, 0.0, "record {j} not doubled: {}", r.v);
                }
                seen += 1;
            })
            .expect("gpu stream runs");
        assert_eq!(report.batches, s.num_batches());
        assert_eq!(seen, s.num_batches());
        assert!(report.lost.is_empty());
        assert!(report.latency.mean() > 0.0);
        assert!(report.sustained(10.0));
    }

    #[test]
    fn map_surfaces_lost_batches_instead_of_panicking() {
        // Kill every GPU on worker 0 mid-stream with CPU fallback disabled:
        // the run must complete and report the losses, all on worker 0.
        let mut cfg = FabricConfig::default();
        cfg.worker.cpu_fallback = CpuFallback {
            enabled: false,
            ..CpuFallback::default()
        };
        let f = fabric_with(2, cfg);
        f.with_managers(|ms| {
            ms[0].set_fault_plan(
                FaultPlan::new()
                    .with(SimTime::from_millis(400), FaultKind::GpuLost { gpu: 0 })
                    .with(SimTime::from_millis(400), FaultKind::GpuLost { gpu: 1 }),
            );
        });
        let s = source(20_000_000.0);
        let report = StreamEnv::gpu(&f)
            .source(s.clone(), |i| Sample { v: i as f32 })
            .map_kernel::<Sample>(GpuMapSpec::new("streamDouble").uncached())
            .run_each(|_, _| {})
            .expect("run completes, degraded");
        assert!(
            !report.lost.is_empty(),
            "batches on the dead worker must surface as lost"
        );
        assert_eq!(report.batches + report.lost.len(), s.num_batches());
        for l in &report.lost {
            assert_eq!(l.worker, 0, "only the killed worker loses batches");
        }
    }

    #[test]
    fn gpu_sustains_higher_rates_than_cpu() {
        // Find the divergence point: at a rate the CPU cannot sustain, its
        // last-batch latency balloons while the GPU stays flat.
        let rate = 200_000_000.0;
        let cluster = ClusterConfig::standard(2);
        let cpu = StreamEnv::cpu(&cluster)
            .source(source(rate), |i| Sample { v: i as f32 })
            .map_fn(OpCost::new(200.0, 8.0), |s| Sample { v: s.v * 2.0 })
            .run()
            .expect("cpu stream runs");
        let f = fabric_with(2, FabricConfig::default());
        let gpu = StreamEnv::gpu(&f)
            .source(source(rate), |i| Sample { v: i as f32 })
            .map_kernel::<Sample>(GpuMapSpec::new("streamDouble").uncached())
            .run()
            .expect("gpu stream runs");
        assert!(
            !cpu.sustained(1.5),
            "CPU should be backpressured at {rate}: last {} vs mean {}",
            cpu.last_latency,
            cpu.latency.mean()
        );
        assert!(
            gpu.sustained(1.5),
            "GPU should sustain {rate}: last {} vs mean {}",
            gpu.last_latency,
            gpu.latency.mean()
        );
        assert!(gpu.latency.mean() < cpu.latency.mean());
    }

    #[test]
    fn under_capacity_both_engines_are_stable() {
        let rate = 2_000_000.0;
        let cluster = ClusterConfig::standard(2);
        let cpu = StreamEnv::cpu(&cluster)
            .source(source(rate), |i| Sample { v: i as f32 })
            .map_fn(OpCost::new(200.0, 8.0), |s| Sample { v: s.v * 2.0 })
            .run()
            .expect("cpu stream runs");
        let f = fabric_with(2, FabricConfig::default());
        let gpu = StreamEnv::gpu(&f)
            .source(source(rate), |i| Sample { v: i as f32 })
            .map_kernel::<Sample>(GpuMapSpec::new("streamDouble").uncached())
            .run()
            .expect("gpu stream runs");
        assert!(cpu.sustained(2.0));
        assert!(gpu.sustained(2.0));
        assert!((cpu.throughput(&source(rate)) - rate).abs() / rate < 0.25);
        assert!((gpu.throughput(&source(rate)) - rate).abs() / rate < 0.25);
    }

    #[test]
    fn config_errors_are_typed() {
        let cluster = ClusterConfig::standard(1);
        // Zero batches is a build-time error, not a silent empty run.
        let err = StreamEnv::cpu(&cluster)
            .source(StreamSource::at_rate(1_000.0), |i| Sample { v: i as f32 })
            .map_fn(OpCost::new(1.0, 1.0), |s| s.clone())
            .run()
            .unwrap_err();
        assert_eq!(err, StreamError::EmptySource { source: 0 });
        // Windowing without timestamps.
        let err = StreamEnv::cpu(&cluster)
            .source(source(2_000_000.0), event)
            .key_by(|e: &Event| e.key)
            .window(Tumbling::of(SimTime::from_millis(100)))
            .aggregate(AggSpec::avg(), |e: &Event| e.value)
            .run()
            .unwrap_err();
        assert_eq!(err, StreamError::NoTimestamps);
        // A GPU kernel map cannot run on the CPU engine.
        let err = StreamEnv::cpu(&cluster)
            .source(source(2_000_000.0), |i| Sample { v: i as f32 })
            .map_kernel::<Sample>(GpuMapSpec::new("streamDouble"))
            .run()
            .unwrap_err();
        assert_eq!(err, StreamError::WrongEngine { needed: "gpu" });
        // Degenerate window assigners, refused on both engines: a zero
        // tumbling size, a zero slide, and a slide wider than the window.
        let f = fabric_with(1, FabricConfig::default());
        let ms = SimTime::from_millis;
        for env in [StreamEnv::cpu(&cluster), StreamEnv::gpu(&f)] {
            for w in [
                Tumbling::of(SimTime::ZERO),
                Sliding::of(ms(100), SimTime::ZERO),
                Sliding::of(ms(100), ms(150)),
            ] {
                let err = env
                    .source(source(2_000_000.0), event)
                    .timestamps(|e: &Event| e.ts, WatermarkStrategy::bounded(ms(40)))
                    .key_by(|e: &Event| e.key)
                    .window(w)
                    .aggregate(AggSpec::avg(), |e: &Event| e.value)
                    .run()
                    .unwrap_err();
                assert_eq!(err, StreamError::InvalidWindow(w));
            }
        }
    }

    #[test]
    fn windowed_aggregation_is_bit_identical_across_engines() {
        let src = StreamSource::at_rate(20_000_000.0).for_duration(SimTime::from_secs(2));
        let cluster = ClusterConfig::standard(2);
        let cpu_env = StreamEnv::cpu(&cluster);
        let cpu = windowed(&cpu_env, &src).run().expect("cpu windows run");
        let f = fabric_with(2, FabricConfig::default());
        let gpu_env = StreamEnv::gpu(&f);
        let gpu = windowed(&gpu_env, &src).run().expect("gpu windows run");
        assert!(!cpu.windows.is_empty());
        assert_eq!(cpu.windows.len(), gpu.windows.len());
        assert_eq!(
            cpu.digest(),
            gpu.digest(),
            "same fold order ⇒ bit-identical aggregates"
        );
        assert_eq!(cpu.watermark_digest(), gpu.watermark_digest());
        assert_eq!(cpu.report.late_records, gpu.report.late_records);
        // Window latency percentiles are populated and ordered.
        assert!(gpu.report.latency_hist.p50() > SimTime::ZERO);
        assert!(gpu.report.latency_hist.p99() >= gpu.report.latency_hist.p50());
        // Determinism: running the exact same pipeline again is identical.
        let f2 = fabric_with(2, FabricConfig::default());
        let gpu2_env = StreamEnv::gpu(&f2);
        let gpu2 = windowed(&gpu2_env, &src).run().expect("gpu windows rerun");
        assert_eq!(gpu.digest(), gpu2.digest());
        assert_eq!(gpu.watermark_digest(), gpu2.watermark_digest());
    }

    #[test]
    fn multi_source_merge_is_deterministic() {
        let a = StreamSource::at_rate(10_000_000.0).for_duration(SimTime::from_secs(1));
        let b = StreamSource::at_rate(5_000_000.0)
            .for_duration(SimTime::from_secs(1))
            .with_batch(500_000, 32);
        let cluster = ClusterConfig::standard(2);
        let run = |_: u32| {
            StreamEnv::cpu(&cluster)
                .source(a.clone(), event)
                .and_source(b.clone(), |i| event(i * 3 + 1))
                .timestamps(
                    |e: &Event| e.ts,
                    WatermarkStrategy::bounded(SimTime::from_millis(40)),
                )
                .key_by(|e: &Event| e.key)
                .window(Tumbling::of(SimTime::from_millis(100)))
                .aggregate(AggSpec::avg(), |e: &Event| e.value)
                .run()
                .expect("merged stream runs")
        };
        let (r1, r2) = (run(0), run(1));
        assert!(!r1.windows.is_empty());
        assert_eq!(r1.digest(), r2.digest());
        assert_eq!(r1.watermark_digest(), r2.watermark_digest());
    }

    #[test]
    fn device_loss_mid_stream_leaves_window_digest_unchanged() {
        let src = StreamSource::at_rate(20_000_000.0).for_duration(SimTime::from_secs(2));
        let clean_f = fabric_with(2, FabricConfig::default());
        let clean_env = StreamEnv::gpu(&clean_f);
        let clean = windowed(&clean_env, &src).run().expect("clean run");
        // Kill one of worker 0's two GPUs mid-stream: the survivor absorbs
        // its work; values (and thus the digest) must not change.
        let hurt_f = fabric_with(2, FabricConfig::default());
        hurt_f.with_managers(|ms| {
            ms[0].set_fault_plan(
                FaultPlan::new().with(SimTime::from_millis(700), FaultKind::GpuLost { gpu: 0 }),
            );
        });
        let hurt_env = StreamEnv::gpu(&hurt_f);
        let hurt = windowed(&hurt_env, &src).run().expect("degraded run");
        assert!(hurt.report.lost.is_empty(), "survivor GPU absorbs the work");
        assert_eq!(clean.digest(), hurt.digest());
        assert_eq!(clean.watermark_digest(), hurt.watermark_digest());
    }

    #[test]
    fn total_device_loss_surfaces_lost_windows() {
        let src = StreamSource::at_rate(20_000_000.0).for_duration(SimTime::from_secs(2));
        let mut cfg = FabricConfig::default();
        cfg.worker.cpu_fallback = CpuFallback {
            enabled: false,
            ..CpuFallback::default()
        };
        let f = fabric_with(1, cfg);
        f.with_managers(|ms| {
            ms[0].set_fault_plan(
                FaultPlan::new()
                    .with(SimTime::from_millis(600), FaultKind::GpuLost { gpu: 0 })
                    .with(SimTime::from_millis(600), FaultKind::GpuLost { gpu: 1 }),
            );
        });
        let env = StreamEnv::gpu(&f);
        let run = windowed(&env, &src).run().expect("run completes, degraded");
        assert!(
            !run.report.lost.is_empty(),
            "windows after the loss are lost"
        );
        assert!(
            run.report.batches > 0,
            "windows before the loss still completed"
        );
    }

    #[test]
    fn crash_then_resume_restores_windows_from_checkpoint() {
        let src = StreamSource::at_rate(20_000_000.0).for_duration(SimTime::from_secs(2));
        let cluster = SharedCluster::new(ClusterConfig::standard(2));
        let cfg = FabricConfig {
            checkpoint: CheckpointConfig::every(SimTime::from_millis(200)),
            ..FabricConfig::default()
        };
        let fabric = fabric_with(2, cfg);
        let env = StreamEnv::gpu(&fabric)
            .with_cluster(&cluster)
            .named("ckpt-windows");
        // Run 1 crashes at 900 ms: snapshots up to the crash are durable.
        let crashed = windowed(&env, &src)
            .crash_at(SimTime::from_millis(900))
            .run()
            .expect("crashed run completes its prefix");
        assert!(crashed.checkpoints > 0, "periodic snapshots were written");
        // Run 2 (same name, same fabric+cluster) restores and finishes.
        let resumed = windowed(&env, &src).run().expect("resumed run completes");
        assert!(
            resumed.windows_restored > 0,
            "windows covered by the snapshot are satisfied without executing"
        );
        // The resumed run's outputs are bit-identical to a never-crashed run.
        let clean_f = fabric_with(2, FabricConfig::default());
        let clean_env = StreamEnv::gpu(&clean_f);
        let clean = windowed(&clean_env, &src).run().expect("clean run");
        assert_eq!(clean.digest(), resumed.digest());
        assert_eq!(clean.watermark_digest(), resumed.watermark_digest());
        assert_eq!(
            clean.windows.len(),
            resumed.windows.len(),
            "restored + executed covers exactly the clean window set"
        );
    }

    /// The three assigner shapes the GFSS and fire-sequence pins cover:
    /// 50 ms tumbling-source batches of 64 rows (`windowed`), a sliding
    /// window whose slide does not divide its size over 48-row batches
    /// (a non-integral logical weight per record, so summation order shows
    /// in the bits), and sessions over keys that go quiet between bursts.
    fn pinned_pipeline(env: &StreamEnv, shape: usize) -> WindowPipeline<'static, Event> {
        let src = StreamSource::at_rate(20_000_000.0).for_duration(SimTime::from_secs(2));
        let bounded = WatermarkStrategy::bounded(SimTime::from_millis(40));
        match shape {
            0 => windowed(env, &src),
            1 => env
                .source(src.with_batch(1_000_000, 48), event)
                .timestamps(|e: &Event| e.ts, bounded)
                .key_by(|e: &Event| e.key)
                .window(crate::stream::Sliding::of(
                    SimTime::from_millis(100),
                    SimTime::from_millis(30),
                ))
                .allow_lateness(SimTime::from_millis(10))
                .aggregate(AggSpec::avg(), |e: &Event| e.value),
            _ => env
                .source(src, event)
                .timestamps(|e: &Event| e.ts, bounded)
                .key_by(|e: &Event| e.ts.as_nanos() / 150_000_000 % 4)
                .window(crate::stream::Session::with_gap(SimTime::from_millis(40)))
                .aggregate(AggSpec::avg(), |e: &Event| e.value),
        }
    }

    /// FNV-1a over each fired window's seq, span, fire instant, row count
    /// and logical weight, in fire order.
    fn fire_digest(fired: &[FiredWindow]) -> u64 {
        use crate::stream::time::{fnv1a, FNV_OFFSET};
        let mut h = FNV_OFFSET;
        for fw in fired {
            fnv1a(&mut h, &fw.seq.to_le_bytes());
            fnv1a(&mut h, &fw.span.start.as_nanos().to_le_bytes());
            fnv1a(&mut h, &fw.span.end.as_nanos().to_le_bytes());
            fnv1a(&mut h, &fw.fire_at.as_nanos().to_le_bytes());
            fnv1a(&mut h, &(fw.rows() as u64).to_le_bytes());
            fnv1a(&mut h, &fw.logical().to_le_bytes());
        }
        h
    }

    #[test]
    fn gfss_bytes_and_fire_sequences_are_pinned() {
        use crate::stream::time::{fnv1a, FNV_OFFSET};
        let env = StreamEnv::cpu(&ClusterConfig::standard(1));
        // (shape, cutoff ms, GFSS hash, open panes, fired, fire digest);
        // cutoff 0 means the whole stream, flushed.
        let pins: [(usize, u64, u64, usize, usize, u64); 9] = [
            (0, 500, 0x744db6bd8fbefdb5, 8, 4, 0x1431e0314019abba),
            (0, 1275, 0x7314cf1f0076b4bb, 8, 12, 0x19a57b65f17c40b5),
            (0, 0, 0xa268eceaf11dc10a, 0, 20, 0x19339b81b326e3a2),
            (1, 500, 0x7999462ec84445d2, 36, 8, 0x754bf5061146c06d),
            (1, 1275, 0xf1014942c22ab7b9, 34, 27, 0xff9ecee535d8ebae),
            (1, 0, 0xe400d6c76ffd9710, 0, 50, 0xea3f316ad14c43ab),
            (2, 500, 0x52bdd6e60d499223, 2, 2, 0x1d73e7c03c6c4c64),
            (2, 1275, 0x9a394a607a951ef9, 2, 7, 0x54aabc5b5c341aff),
            (2, 0, 0x7c5d6f9b639c5290, 0, 14, 0xa0ce1b7d05d904b3),
        ];
        let mut got = Vec::new();
        for &(shape, cutoff_ms, ..) in &pins {
            let p = pinned_pipeline(&env, shape);
            let ing = if cutoff_ms == 0 {
                p.ingest(None, true)
            } else {
                p.ingest(Some(SimTime::from_millis(cutoff_ms)), false)
            };
            let mut h = FNV_OFFSET;
            fnv1a(&mut h, &ing.state.encode());
            got.push((
                shape,
                cutoff_ms,
                h,
                ing.state.open.len(),
                ing.fired.len(),
                fire_digest(&ing.fired),
            ));
        }
        for (pin, g) in pins.iter().zip(&got) {
            if pin.1 != 0 {
                assert!(g.3 > 0, "a mid-stream cutoff leaves panes open");
            }
        }
        assert_eq!(got.as_slice(), pins.as_slice());
    }

    #[test]
    fn one_replay_captures_every_tick_state() {
        let env = StreamEnv::cpu(&ClusterConfig::standard(1));
        // Before the first batch, on and between arrivals, repeated, and
        // past the end of the stream.
        let ticks: Vec<SimTime> = [0, 30, 50, 500, 500, 777, 1275, 2000, 9000]
            .into_iter()
            .map(SimTime::from_millis)
            .collect();
        for shape in 0..3 {
            let p = pinned_pipeline(&env, shape);
            let per_tick: Vec<StreamState> = ticks
                .iter()
                .map(|&t| p.ingest(Some(t), false).state)
                .collect();
            assert_eq!(p.tick_states(&ticks), per_tick, "shape {shape}");
        }
    }
}
