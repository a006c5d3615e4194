//! The job rollup agrees with the other views of the same runs.
//!
//! `occurrences.rs` checks that ledgers, series, recorders and traces agree
//! occurrence by occurrence on bare workers. These tests check the
//! projection one level up: the `GpuRollup` the driver closes for a whole
//! job — batch or stream — against the completions the job drained, the
//! fabric's `gflink_*_total` series and the stream report.

use gflink_core::{
    AggSpec, CheckpointConfig, FabricConfig, GRecord, GflinkEnv, GpuFabric, GpuMapSpec,
    HybridConfig, SchedulingPolicy, StreamEnv, StreamSource, Tumbling, WatermarkStrategy,
};
use gflink_flink::{ClusterConfig, GpuRollup, JobReport, SharedCluster};
use gflink_gpu::{KernelArgs, KernelProfile};
use gflink_memory::{
    AlignClass, DataLayout, FieldDef, GStructDef, PrimType, RecordReader, RecordView,
};
use gflink_sim::{Metrics, SimTime};

#[derive(Clone, Debug, PartialEq)]
struct Point {
    x: f32,
    y: f32,
}

impl GRecord for Point {
    fn def() -> GStructDef {
        GStructDef::new(
            "Point",
            AlignClass::Align8,
            vec![
                FieldDef::scalar("x", PrimType::F32),
                FieldDef::scalar("y", PrimType::F32),
            ],
        )
    }
    fn store(&self, view: &mut RecordView<'_>, idx: usize) {
        view.set_f64(idx, 0, 0, self.x as f64);
        view.set_f64(idx, 1, 0, self.y as f64);
    }
    fn load(reader: &RecordReader<'_>, idx: usize) -> Self {
        Point {
            x: reader.get_f64(idx, 0, 0) as f32,
            y: reader.get_f64(idx, 1, 0) as f32,
        }
    }
}

/// Kernel work per point: near CPU/GPU parity, so the hybrid cost model
/// mixes whole-GPU, whole-host and split placements.
const FLOPS_PER_POINT: f64 = 800.0;

fn register_add_point(fabric: &GpuFabric) {
    fabric.register_elementwise_kernel("cudaAddPoint", |args: &mut KernelArgs<'_, '_>| {
        let def = Point::def();
        let n = args.n_actual;
        let input = RecordReader::new(args.inputs[0], &def, DataLayout::Aos, n);
        let mut out = RecordView::new(args.outputs[0], &def, DataLayout::Aos, n);
        for i in 0..n {
            out.set_f64(i, 0, 0, input.get_f64(i, 0, 0) + 1.0);
            out.set_f64(i, 1, 0, input.get_f64(i, 1, 0) + 2.0);
        }
        KernelProfile::new(
            args.n_logical as f64 * FLOPS_PER_POINT,
            args.n_logical as f64 * 2.0 * def.size() as f64,
        )
    });
}

fn counter(m: &Metrics, name: &str) -> u64 {
    m.id_of(name)
        .map(|_| m.counter(name, "").get())
        .unwrap_or(0)
}

/// A per-worker series summed over the fabric's workers.
fn series(m: &Metrics, workers: usize, name: &str) -> u64 {
    (0..workers)
        .map(|w| counter(m, &format!("gflink_{name}_total{{worker=\"{w}\"}}")))
        .sum()
}

const WORKERS: usize = 2;
/// Points per partition, logical scale and partitions of the batch job.
const POINTS: usize = 1_000;
const SCALE: f64 = 1_000.0;
const PARTITIONS: usize = 4;
const BLOCK_BYTES: u64 = 256 << 10;

/// Completions a fresh run of the batch operator drains: each partition
/// lowers to `ceil(logical bytes / block bytes)` blocks, and each block is
/// one GWork.
fn blocks() -> u64 {
    let logical = POINTS as f64 * SCALE * Point::def().size() as f64;
    PARTITIONS as u64 * (logical / BLOCK_BYTES as f64).ceil() as u64
}

/// One point-shift job named `name`.
fn point_job(cluster: &SharedCluster, fabric: &GpuFabric, name: &str) -> JobReport {
    let env = GflinkEnv::submit(cluster, fabric, name, SimTime::ZERO);
    let pts: Vec<Point> = (0..POINTS * PARTITIONS)
        .map(|i| Point {
            x: i as f32,
            y: -(i as f32),
        })
        .collect();
    let ds = env.flink.parallelize("pts", pts, PARTITIONS, SCALE);
    let spec = GpuMapSpec::new("cudaAddPoint")
        .build(fabric)
        .expect("valid spec");
    let out = env
        .to_gdst(ds, DataLayout::Aos)
        .gpu_map_partition::<Point>("addPoint", &spec);
    assert_eq!(out.inner().collect("get", 8.0).len(), POINTS * PARTITIONS);
    env.finish()
}

/// Hybrid placement that splits near parity, a single stream per GPU, a
/// queued-bytes cap that pens, and checkpoints every millisecond: every
/// session-written rollup field moves.
fn batch_fabric() -> GpuFabric {
    let mut cfg = FabricConfig {
        block_bytes: BLOCK_BYTES,
        checkpoint: CheckpointConfig::every(SimTime::from_millis(1)),
        ..FabricConfig::default()
    };
    cfg.worker.streams_per_gpu = 1;
    cfg.worker.scheduling = SchedulingPolicy::HybridCostModel;
    cfg.worker.hybrid = HybridConfig {
        min_split_elems: 4,
        split_balance: 1.5,
    };
    cfg.worker.scheduler.max_queued_bytes = 1 << 20;
    let fabric = GpuFabric::new(WORKERS, cfg);
    register_add_point(&fabric);
    fabric
}

#[test]
fn batch_rollups_agree_with_drains_and_series() {
    let cluster = SharedCluster::new(ClusterConfig::standard(WORKERS));
    let fabric = batch_fabric();
    let metrics = fabric.enable_metrics();
    // The same job twice under one name: the rerun restores the first
    // run's final snapshot and executes nothing.
    let first = point_job(&cluster, &fabric, "views");
    let rerun = point_job(&cluster, &fabric, "views");
    let (a, b) = (
        first.gpu.as_ref().expect("gpu rollup"),
        rerun.gpu.as_ref().expect("gpu rollup"),
    );

    // Every drained completion is folded once, on the engine that ran it.
    assert_eq!(a.works + a.cpu_works, blocks());
    assert_eq!(b.works + b.cpu_works, 0);
    assert_eq!(b.works_restored, blocks());
    assert_eq!(a.slo.total.count(), blocks());

    // The runs exercised what they are meant to.
    assert!(a.steals > 0, "no steals");
    assert!(a.parked_works > 0, "nothing penned");
    assert!(a.hybrid_gpu > 0 && a.hybrid_cpu > 0, "one-sided placement");
    assert!(a.hybrid_splits > 0, "no splits");
    assert!(a.checkpoints > 0);

    // Session-written fields equal the per-worker series, summed over the
    // fabric's workers and both jobs.
    let both = |f: fn(&GpuRollup) -> u64| f(a) + f(b);
    let per_worker = |name| series(&metrics, WORKERS, name);
    assert_eq!(both(|r| r.steals), per_worker("steals"));
    assert_eq!(both(|r| r.parked_works), per_worker("works_penned"));
    assert_eq!(both(|r| r.hybrid_gpu), per_worker("hybrid_gpu"));
    assert_eq!(both(|r| r.hybrid_cpu), per_worker("hybrid_cpu"));
    assert_eq!(both(|r| r.hybrid_splits), per_worker("hybrid_splits"));
    // Driver-written fields equal the fabric-wide job series.
    let fabric_wide = |name| counter(&metrics, name);
    assert_eq!(
        both(|r| r.checkpoints),
        fabric_wide("gflink_checkpoints_total")
    );
    assert_eq!(both(|r| r.restores), fabric_wide("gflink_restores_total"));
    assert_eq!(b.restores, 1);

    // `gflink_works_completed_total` tallies D2H landings, so it counts
    // the works that completed on a GPU and none of the host-pool ones. A
    // split block completes once, on its GPU half; its host half is a
    // hybrid CPU placement but not a completion. So the host-pool
    // completions are the fallbacks plus the unsplit CPU placements.
    assert_eq!(both(|r| r.works), per_worker("works_completed"));
    assert_eq!(
        both(|r| r.cpu_works),
        per_worker("cpu_fallbacks") + per_worker("hybrid_cpu") - both(|r| r.hybrid_splits),
    );
}

/// A windowed event stream whose timestamps roughly track arrival.
#[derive(Clone)]
struct Event {
    ts: SimTime,
    key: u64,
    value: f64,
}

fn event(i: u64) -> Event {
    let base = i * 50_000_000 / 64;
    let jitter = (i.wrapping_mul(2_654_435_761)) % 30_000_000;
    Event {
        ts: SimTime::from_nanos(base.saturating_sub(jitter)),
        key: i % 8,
        value: (i % 97) as f64 * 0.5,
    }
}

/// One stream per GPU and a queued-bytes cap below one unit's bytes: at
/// the test's rate, units queue and every later submission pens.
fn stream_fabric() -> GpuFabric {
    let mut cfg = FabricConfig::default();
    cfg.worker.streams_per_gpu = 1;
    cfg.worker.scheduler.max_queued_bytes = 4 << 10;
    let fabric = GpuFabric::new(WORKERS, cfg);
    register_add_point(&fabric);
    fabric
}

#[test]
fn stream_rollups_agree_with_reports_and_series() {
    let src = StreamSource::at_rate(1e9).for_duration(SimTime::from_secs(2));

    // Fired windows.
    let fabric = stream_fabric();
    let metrics = fabric.enable_metrics();
    let run = StreamEnv::gpu(&fabric)
        .source(src.clone(), event)
        .timestamps(
            |e: &Event| e.ts,
            WatermarkStrategy::bounded(SimTime::from_millis(40)),
        )
        .key_by(|e: &Event| e.key)
        .window(Tumbling::of(SimTime::from_millis(100)))
        .aggregate(AggSpec::avg(), |e: &Event| e.value)
        .run()
        .expect("window run");
    let report = &run.report;
    let g = report.gpu.as_ref().expect("GPU stream jobs carry a rollup");
    assert!(report.batches > 0 && report.lost.is_empty());
    assert_eq!(g.works + g.cpu_works, report.batches as u64);
    assert_eq!(g.slo.total.count(), report.batches as u64);
    assert_eq!(g.slo.total.count(), report.latency_hist.count());
    assert!(g.parked_works > 0, "nothing penned");
    assert_eq!(g.parked_works, report.parked_works);
    assert_eq!(g.park_delay, report.park_delay);
    assert_eq!(g.parked_works, series(&metrics, WORKERS, "works_penned"));
    assert_eq!(g.works, series(&metrics, WORKERS, "works_completed"));
    assert_eq!(g.lanes.len(), WORKERS * 2);

    // Per-batch kernel maps: one completion per batch passed to `check`.
    let fabric = stream_fabric();
    let metrics = fabric.enable_metrics();
    let mut drained = 0u64;
    let report = StreamEnv::gpu(&fabric)
        .source(src.clone(), |i| Point {
            x: i as f32,
            y: 0.0,
        })
        .map_kernel::<Point>(GpuMapSpec::new("cudaAddPoint").uncached())
        .run_each(|_, _| drained += 1)
        .expect("map run");
    let g = report.gpu.as_ref().expect("GPU stream jobs carry a rollup");
    assert_eq!(g.works + g.cpu_works, drained);
    assert_eq!(g.slo.total.count(), report.batches as u64);
    assert!(g.parked_works > 0, "nothing penned");
    assert_eq!(g.parked_works, report.parked_works);
    assert_eq!(g.parked_works, series(&metrics, WORKERS, "works_penned"));
    assert_eq!(g.works, series(&metrics, WORKERS, "works_completed"));

    // The CPU engine runs no GPU job, so it has no rollup.
    let cpu = StreamEnv::cpu(&ClusterConfig::standard(WORKERS))
        .source(src, event)
        .timestamps(
            |e: &Event| e.ts,
            WatermarkStrategy::bounded(SimTime::from_millis(40)),
        )
        .key_by(|e: &Event| e.key)
        .window(Tumbling::of(SimTime::from_millis(100)))
        .aggregate(AggSpec::avg(), |e: &Event| e.value)
        .run()
        .expect("cpu run");
    assert!(cpu.report.gpu.is_none());
}
