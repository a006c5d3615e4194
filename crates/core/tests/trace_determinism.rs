//! Trace and metrics determinism: the exported Chrome trace, the metrics
//! plane's Prometheus/JSON exports, and the flight recorder's postmortem
//! bundles are each a pure function of the (seed, FaultPlan) pair. Two
//! runs from the same seed and plan produce byte-identical bytes — so an
//! export attached to a bug report *is* the run, not a run like it —
//! while a different seed produces different bytes. Fixed runs' exports
//! are also pinned by hash, so a change that moves every run alike is
//! caught too.

use gflink_core::{
    AggSpec, BatchConfig, CacheKey, FabricConfig, GRecord, GWork, GflinkEnv, GpuFabric, GpuManager,
    GpuMapSpec, GpuWorkerConfig, JobId, StreamEnv, StreamSource, Tumbling, WatermarkStrategy,
    WorkBuf,
};
use gflink_flink::{ClusterConfig, SharedCluster};
use gflink_gpu::{GpuModel, KernelArgs, KernelId, KernelProfile, KernelRegistry};
use gflink_memory::{
    AlignClass, DataLayout, FieldDef, GStructDef, HBuffer, PrimType, RecordReader, RecordView,
};
use gflink_sim::{
    FaultKind, FaultPlan, Metrics, RecKind, RetryPolicy, SimRng, SimTime, SloPolicy, Tracer,
};
use parking_lot::Mutex;
use std::sync::Arc;

fn registry() -> Arc<Mutex<KernelRegistry>> {
    let mut reg = KernelRegistry::new();
    reg.register("scale2", |args: &mut KernelArgs<'_, '_>| {
        let n = args.n_actual;
        for i in 0..n {
            let v = args.inputs[0].read_f32(i * 4);
            args.outputs[0].write_f32(i * 4, v * 2.0);
        }
        KernelProfile::new(args.n_logical as f64, args.n_logical as f64 * 8.0)
    });
    Arc::new(Mutex::new(reg))
}

/// A seeded workload: block sizes and submit instants drawn from the seed,
/// so different seeds yield genuinely different timelines.
fn mk_work(i: u32, rng: &mut SimRng) -> GWork {
    let base = i as f32;
    let data = Arc::new(HBuffer::from_f32s(&[base, base + 0.5, -base, base * 3.0]));
    let logical = (1u64 << 21) + rng.gen_range(1 << 22);
    GWork {
        name: format!("w{i}").into(),
        execute_name: "scale2".into(),
        kernel: KernelId::UNRESOLVED,
        ptx_path: "/scale2.ptx".into(),
        block_size: 256,
        grid_size: 1,
        inputs: vec![if i.is_multiple_of(2) {
            WorkBuf::cached(
                data,
                logical,
                CacheKey {
                    dataset: 9,
                    partition: i % 4,
                    block: i,
                },
            )
        } else {
            WorkBuf::transient(data, logical)
        }],
        out_actual_bytes: 16,
        out_logical_bytes: logical,
        out_records: 4,
        params: Arc::from([]),
        n_actual: 4,
        n_logical: logical / 4,
        coalescing: 1.0,
        tag: (0, i),
    }
}

/// The shared fault plan: a transient kernel fault early, one GPU lost
/// mid-run — exercising the Recovery and Health event paths too.
fn plan() -> FaultPlan {
    FaultPlan::new()
        .with(
            SimTime::from_micros(200),
            FaultKind::KernelTransient { gpu: 0 },
        )
        .with(SimTime::from_millis(2), FaultKind::GpuLost { gpu: 1 })
}

fn run_once(seed: u64) -> String {
    run_once_with(seed, plan())
}

fn run_once_with(seed: u64, plan: FaultPlan) -> String {
    let mut m = GpuManager::new(
        0,
        GpuWorkerConfig {
            models: vec![GpuModel::TeslaC2050; 2],
            hang_timeout: SimTime::from_millis(50),
            retry: RetryPolicy {
                max_retries: 100,
                ..RetryPolicy::default()
            },
            ..GpuWorkerConfig::default()
        },
        registry(),
    );
    let tracer = Tracer::new(Tracer::DEFAULT_CAPACITY);
    m.set_tracer(tracer.clone());
    m.set_fault_plan(plan);
    let job = JobId(1);
    m.begin_job(job);
    let mut rng = SimRng::new(seed);
    let mut at = SimTime::ZERO;
    for i in 0..32 {
        at += SimTime::from_micros(10 + rng.gen_range(80));
        m.submit_for(job, mk_work(i, &mut rng), at);
    }
    let done = m.drain_job(job);
    assert_eq!(done.len(), 32, "all works must complete");
    tracer.export_chrome_json()
}

#[test]
fn same_seed_same_plan_is_byte_identical() {
    let a = run_once(42);
    let b = run_once(42);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same (seed, FaultPlan) must export identical traces");
}

#[test]
fn different_seed_differs() {
    let a = run_once(42);
    let c = run_once(43);
    assert_ne!(a, c, "a different seed must change the trace");
}

#[test]
fn trace_records_fault_and_recovery_events() {
    let json = run_once(42);
    // The plan's injected faults surface as Recovery instants and the lost
    // device as a Health transition.
    assert!(json.contains("\"cat\":\"recovery\""));
    assert!(json.contains("\"fault-injected\""));
    assert!(json.contains("\"cat\":\"health\""));
    assert!(json.contains("\"lost\""));
}

/// `run_once` with the metrics plane attached instead of the tracer:
/// returns the lifetime-registry exports.
fn run_metrics_once(seed: u64) -> (String, String) {
    run_metrics_once_with(seed, plan())
}

fn run_metrics_once_with(seed: u64, plan: FaultPlan) -> (String, String) {
    let mut m = GpuManager::new(
        0,
        GpuWorkerConfig {
            models: vec![GpuModel::TeslaC2050; 2],
            hang_timeout: SimTime::from_millis(50),
            retry: RetryPolicy {
                max_retries: 100,
                ..RetryPolicy::default()
            },
            ..GpuWorkerConfig::default()
        },
        registry(),
    );
    let metrics = Metrics::new(SimTime::from_micros(100));
    m.set_metrics(&metrics);
    m.set_fault_plan(plan);
    let job = JobId(1);
    m.begin_job(job);
    let mut rng = SimRng::new(seed);
    let mut at = SimTime::ZERO;
    for i in 0..32 {
        at += SimTime::from_micros(10 + rng.gen_range(80));
        m.submit_for(job, mk_work(i, &mut rng), at);
    }
    let done = m.drain_job(job);
    assert_eq!(done.len(), 32, "all works must complete");
    (metrics.export_prometheus(), metrics.export_json())
}

#[test]
fn metrics_exports_replay_byte_identically() {
    let (prom_a, json_a) = run_metrics_once(42);
    let (prom_b, json_b) = run_metrics_once(42);
    assert!(prom_a.contains("gflink_works_completed_total{worker=\"0\"} 32"));
    assert!(prom_a.contains("gflink_kernel_launches_total{worker=\"0\",gpu=\"0\"}"));
    assert!(json_a.contains("\"ticks\""));
    assert_eq!(
        prom_a, prom_b,
        "same (seed, FaultPlan) must export identically"
    );
    assert_eq!(json_a, json_b);
}

#[test]
fn metrics_exports_differ_across_seeds() {
    let (prom_a, json_a) = run_metrics_once(42);
    let (prom_c, json_c) = run_metrics_once(43);
    // Seed-drawn logical sizes move the histograms and the time series.
    assert_ne!(prom_a, prom_c, "a different seed must change the export");
    assert_ne!(json_a, json_c);
}

// --- Pinned exports ------------------------------------------------------
//
// Run-twice equality cannot catch a change that moves both runs the same
// way. These pins hold the exact export bytes (as FNV-1a hashes) of fixed
// (seed, FaultPlan) runs, so any drift in event order, timing, span labels
// or metric values fails here.

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// [`plan`] plus a hung kernel on GPU 0, so the watchdog path is pinned
/// as well.
fn hang_plan() -> FaultPlan {
    plan().with(SimTime::from_micros(500), FaultKind::KernelHang { gpu: 0 })
}

#[test]
fn solo_trace_exports_are_pinned() {
    let pins = [
        (fnv1a(run_once(42).as_bytes()), PIN_TRACE_42),
        (fnv1a(run_once(43).as_bytes()), PIN_TRACE_43),
        (
            fnv1a(run_once_with(42, hang_plan()).as_bytes()),
            PIN_TRACE_HANG,
        ),
    ];
    for (i, (got, want)) in pins.into_iter().enumerate() {
        assert_eq!(got, want, "trace pin {i}: got {got:#018x}");
    }
}

#[test]
fn solo_metrics_exports_are_pinned() {
    let (prom, json) = run_metrics_once(42);
    let (hprom, hjson) = run_metrics_once_with(42, hang_plan());
    let pins = [
        (fnv1a(prom.as_bytes()), PIN_PROM_42),
        (fnv1a(json.as_bytes()), PIN_JSON_42),
        (fnv1a(hprom.as_bytes()), PIN_PROM_HANG),
        (fnv1a(hjson.as_bytes()), PIN_JSON_HANG),
    ];
    for (i, (got, want)) in pins.into_iter().enumerate() {
        assert_eq!(got, want, "metrics pin {i}: got {got:#018x}");
    }
}

const PIN_TRACE_42: u64 = 0x753e_99b9_1ce7_a463;
const PIN_TRACE_43: u64 = 0x069b_b061_85b1_dfc1;
const PIN_TRACE_HANG: u64 = 0xd520_f17a_3e3e_f61e;
const PIN_PROM_42: u64 = 0x4782_4ae4_bd27_7651;
const PIN_JSON_42: u64 = 0x3f42_a4cd_209c_265b;
const PIN_PROM_HANG: u64 = 0x1bcf_884b_b1e4_6df5;
const PIN_JSON_HANG: u64 = 0x3b64_6ae0_4fb4_956d;
const PIN_FUSED_TIMELINE: u64 = 0x0402_ea99_27b5_5dc5;
const PIN_FUSED_TRACE: u64 = 0x53e2_3440_8890_0dd0;

/// A fault-free batching run: 24 small works (half cached) on one
/// single-stream C2050, submitted faster than the stream drains them, so
/// the batcher fuses. Returns the per-work `(tag, started, h2d, kernel,
/// d2h, completed)` list in tag order, the trace export and the number of
/// fused batches.
fn fused_run() -> (String, String, u64) {
    let mut cfg = GpuWorkerConfig {
        models: vec![GpuModel::TeslaC2050],
        streams_per_gpu: 1,
        ..GpuWorkerConfig::default()
    };
    cfg.transfer.batch = BatchConfig::enabled();
    let mut m = GpuManager::new(0, cfg, registry());
    let tracer = Tracer::new(Tracer::DEFAULT_CAPACITY);
    m.set_tracer(tracer.clone());
    let job = JobId(1);
    m.begin_job(job);
    let mut rng = SimRng::new(7);
    for i in 0..24 {
        let mut w = mk_work(i, &mut rng);
        let logical = (16 << 10) + rng.gen_range(48 << 10);
        w.inputs[0].logical_bytes = logical;
        w.out_logical_bytes = logical;
        w.n_logical = logical / 4;
        m.submit_for(job, w, SimTime::from_micros(u64::from(i) * 2));
    }
    let mut done = m.drain_job(job);
    assert_eq!(done.len(), 24, "all works must complete");
    done.sort_by_key(|d| d.tag);
    let mut timeline = String::new();
    for d in &done {
        let t = &d.timing;
        timeline.push_str(&format!(
            "{:?} {} {} {} {} {}\n",
            d.tag,
            t.started.as_nanos(),
            t.h2d.as_nanos(),
            t.kernel.as_nanos(),
            t.d2h.as_nanos(),
            t.completed.as_nanos()
        ));
    }
    (timeline, tracer.export_chrome_json(), m.fused_batches())
}

#[test]
fn fused_timeline_is_pinned() {
    let (timeline, trace, batches) = fused_run();
    assert!(batches > 0, "the batching run fused nothing");
    let got = fnv1a(timeline.as_bytes());
    assert_eq!(got, PIN_FUSED_TIMELINE, "got {got:#018x}:\n{timeline}");
    let got = fnv1a(trace.as_bytes());
    assert_eq!(got, PIN_FUSED_TRACE, "fused trace: got {got:#018x}");
}

// --- Flight-recorder postmortems through the full GDST stack -----------

#[derive(Clone)]
struct P(f32);

impl GRecord for P {
    fn def() -> GStructDef {
        GStructDef::new(
            "P",
            AlignClass::Align8,
            vec![FieldDef::scalar("v", PrimType::F32)],
        )
    }
    fn store(&self, view: &mut RecordView<'_>, idx: usize) {
        view.set_f64(idx, 0, 0, self.0 as f64);
    }
    fn load(reader: &RecordReader<'_>, idx: usize) -> Self {
        P(reader.get_f64(idx, 0, 0) as f32)
    }
}

/// A scripted device-loss run through `gpu_map_partition` with the metrics
/// plane and a tight SLO armed; returns the postmortem bundles' JSON.
fn run_postmortem_once(dir: &str) -> Vec<String> {
    let cluster = SharedCluster::new(ClusterConfig::standard(1));
    let fabric = GpuFabric::new(1, FabricConfig::default());
    fabric.register_kernel("double", |args: &mut KernelArgs<'_, '_>| {
        let def = P::def();
        let n = args.n_actual;
        let input = RecordReader::new(args.inputs[0], &def, DataLayout::Aos, n);
        let mut out = RecordView::new(args.outputs[0], &def, DataLayout::Aos, n);
        for i in 0..n {
            out.set_f64(i, 0, 0, input.get_f64(i, 0, 0) * 2.0);
        }
        KernelProfile::new(args.n_logical as f64, args.n_logical as f64 * 8.0)
    });
    fabric.enable_metrics();
    fabric.set_slo(SloPolicy::max_latency(SimTime::from_micros(100)));
    fabric.set_postmortem_dir(dir);
    fabric.with_managers(|ms| {
        ms[0].set_fault_plan(
            FaultPlan::new().with(SimTime::from_millis(1), FaultKind::GpuLost { gpu: 0 }),
        );
    });
    let env = GflinkEnv::submit(&cluster, &fabric, "pm", SimTime::ZERO);
    let pts: Vec<P> = (0..200).map(|i| P(i as f32)).collect();
    let ds = env.flink.parallelize("pts", pts, 4, 1000.0);
    let gdst = env.to_gdst(ds, DataLayout::Aos);
    let out = gdst.gpu_map_partition::<P>("double", &GpuMapSpec::new("double"));
    assert_eq!(out.inner().collect("get", 8.0).len(), 200);
    let report = env.finish();
    assert_eq!(report.faults.gpus_lost, 1);
    fabric.postmortems().iter().map(|b| b.to_json()).collect()
}

#[test]
fn scripted_device_loss_dumps_a_deterministic_postmortem() {
    let a = run_postmortem_once("target/postmortem-test/a");
    let b = run_postmortem_once("target/postmortem-test/b");
    assert!(!a.is_empty(), "the device loss must dump a postmortem");
    assert_eq!(a, b, "postmortem bundles must replay byte-identically");
    // Golden shape: the fault-ledger bundle carries the device-loss event
    // stream, the offending drain's ledger delta, and a health snapshot
    // showing the lost lane.
    let fault = a
        .iter()
        .find(|j| j.contains("\"reason\":\"fault-ledger\""))
        .expect("a fault-ledger bundle");
    assert!(fault.contains(&format!("\"kind\":\"{}\"", RecKind::DeviceLost.as_str())));
    assert!(fault.contains(&format!("\"kind\":\"{}\"", RecKind::FaultInjected.as_str())));
    assert!(fault.contains("\"gpus_lost\":1"));
    assert!(fault.contains("\"state\":\"lost\""));
    // The bundle also landed on disk under its deterministic name.
    let on_disk = std::fs::read_to_string("target/postmortem-test/a/job1-pm000.json")
        .expect("postmortem file written");
    assert_eq!(&on_disk, &a[0]);
}

#[test]
fn disabled_metrics_plane_dumps_nothing() {
    let cluster = SharedCluster::new(ClusterConfig::standard(1));
    let fabric = GpuFabric::new(1, FabricConfig::default());
    fabric.register_kernel("noop", |args: &mut KernelArgs<'_, '_>| {
        KernelProfile::new(args.n_logical as f64, args.n_logical as f64)
    });
    fabric.with_managers(|ms| {
        ms[0].set_fault_plan(
            FaultPlan::new().with(SimTime::from_millis(1), FaultKind::GpuLost { gpu: 0 }),
        );
    });
    let env = GflinkEnv::submit(&cluster, &fabric, "quiet", SimTime::ZERO);
    let pts: Vec<P> = (0..50).map(|i| P(i as f32)).collect();
    let ds = env.flink.parallelize("pts", pts, 2, 1000.0);
    let gdst = env.to_gdst(ds, DataLayout::Aos);
    let out = gdst.gpu_map_partition::<P>("noop", &GpuMapSpec::new("noop"));
    assert_eq!(out.inner().collect("get", 8.0).len(), 50);
    let report = env.finish();
    assert_eq!(report.faults.gpus_lost, 1);
    assert!(
        fabric.postmortems().is_empty(),
        "without enable_metrics the flight recorder must stay dark"
    );
    assert!(!fabric.metrics().enabled());
}

/// A windowed event whose timestamp tracks its arrival.
#[derive(Clone)]
struct Bid {
    ts: SimTime,
    seller: u64,
    price: f64,
}

/// A scripted device loss under a checkpoint-free window pipeline with the
/// metrics plane on; returns the postmortem bundles' JSON.
fn run_stream_postmortem_once(dir: &str) -> Vec<String> {
    let fabric = GpuFabric::new(2, FabricConfig::default());
    fabric.enable_metrics();
    fabric.set_postmortem_dir(dir);
    fabric.with_managers(|ms| {
        ms[0].set_fault_plan(
            FaultPlan::new().with(SimTime::from_millis(700), FaultKind::GpuLost { gpu: 0 }),
        );
    });
    let src = StreamSource::at_rate(20_000_000.0).for_duration(SimTime::from_secs(2));
    let run = StreamEnv::gpu(&fabric)
        .source(src, |i| Bid {
            ts: SimTime::from_nanos(i * 50_000_000 / 64),
            seller: i % 8,
            price: (i % 97) as f64 * 0.5,
        })
        .timestamps(
            |b: &Bid| b.ts,
            WatermarkStrategy::bounded(SimTime::from_millis(40)),
        )
        .key_by(|b: &Bid| b.seller)
        .window(Tumbling::of(SimTime::from_millis(100)))
        .aggregate(AggSpec::avg(), |b: &Bid| b.price)
        .run()
        .expect("the survivor GPU absorbs the stream");
    assert!(run.report.lost.is_empty());
    fabric.postmortems().iter().map(|b| b.to_json()).collect()
}

#[test]
fn stream_device_loss_dumps_a_deterministic_postmortem() {
    let a = run_stream_postmortem_once("target/postmortem-test/stream-a");
    let b = run_stream_postmortem_once("target/postmortem-test/stream-b");
    assert_eq!(a, b, "postmortem bundles must replay byte-identically");
    // The stream is the first job on its fabric: job 1.
    let fault = a
        .iter()
        .find(|j| j.contains("\"reason\":\"fault-ledger\""))
        .expect("the stream job dumps a fault-ledger bundle");
    assert!(fault.contains("\"job\":1,"));
    assert!(fault.contains(&format!("\"kind\":\"{}\"", RecKind::DeviceLost.as_str())));
    assert!(fault.contains("\"gpus_lost\":1"));
    assert!(fault.contains("\"state\":\"lost\""));
}
