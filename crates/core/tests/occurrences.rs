//! Every discrete occurrence the GPU manager observes — faults, retries,
//! steals, membership changes, placements, pen parks, checkpoints, SLO
//! breaches, abandonment — lands in up to five views: the worker and
//! session fault ledgers, the metrics registry, the per-job flight
//! recorder and the Chrome trace. These fixed-seed runs fire every
//! `RecKind` and every `FaultLedger` field with the tracer *and* the
//! metrics plane attached. The first test pins every view's bytes by
//! hash; the second checks that the views agree with each other wherever
//! they describe the same occurrence.

use gflink_core::{
    CacheKey, CheckpointConfig, CpuFallback, FabricConfig, GRecord, GWork, GflinkEnv, GpuFabric,
    GpuManager, GpuMapSpec, GpuWorkerConfig, HybridConfig, JobId, SchedulerConfig,
    SchedulingPolicy, WorkBuf, CPU_FALLBACK_GPU,
};
use gflink_flink::{ClusterConfig, JobReport, SharedCluster};
use gflink_gpu::{GpuModel, KernelArgs, KernelId, KernelProfile, KernelRegistry};
use gflink_memory::{
    AlignClass, DataLayout, FieldDef, GStructDef, HBuffer, PrimType, RecordReader, RecordView,
};
use gflink_sim::trace::{Cat, EventKind, TraceEvent};
use gflink_sim::{
    FaultKind, FaultLedger, FaultPlan, MembershipKind, MembershipPlan, Metrics, RecEvent, RecKind,
    RetryPolicy, SimRng, SimTime, SloPolicy, Tracer,
};
use parking_lot::Mutex;
use std::sync::Arc;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `scale2` is declared element-wise (the hybrid policy may split it);
/// `scale2x` computes the same thing but is opaque to splitting, and
/// `heavy` claims a thousand flops per element, so the GPU always wins it.
fn registry() -> Arc<Mutex<KernelRegistry>> {
    fn scale(args: &mut KernelArgs<'_, '_>) -> KernelProfile {
        let n = args.n_actual;
        for i in 0..n {
            let v = args.inputs[0].read_f32(i * 4);
            args.outputs[0].write_f32(i * 4, v * 2.0);
        }
        KernelProfile::new(args.n_logical as f64, args.n_logical as f64 * 8.0)
    }
    let mut reg = KernelRegistry::new();
    reg.register_elementwise("scale2", scale);
    reg.register("scale2x", scale);
    reg.register("heavy", |args: &mut KernelArgs<'_, '_>| {
        let p = scale(args);
        KernelProfile::new(p.flops * 1000.0, p.bytes)
    });
    Arc::new(Mutex::new(reg))
}

/// A four-float work of `logical` modelled bytes, optionally cached under
/// block `i`.
fn mk_work(i: u32, kernel: &str, logical: u64, cached: bool) -> GWork {
    let base = i as f32;
    let data = Arc::new(HBuffer::from_f32s(&[base, base + 0.5, -base, base * 3.0]));
    GWork {
        name: format!("w{i}").into(),
        execute_name: kernel.into(),
        kernel: KernelId::UNRESOLVED,
        ptx_path: "/scale2.ptx".into(),
        block_size: 256,
        grid_size: 1,
        inputs: vec![if cached {
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

/// Everything one worker-level run exposes about its occurrences.
struct Views {
    trace: String,
    prom: String,
    json: String,
    /// The worker-global ledger.
    worker: FaultLedger,
    /// Each job's session ledger, captured before teardown, by job id.
    sessions: Vec<(u64, FaultLedger)>,
    /// Each job's flight-recorder events, by job id.
    recorded: Vec<(u64, Vec<RecEvent>)>,
    events: Vec<TraceEvent>,
    metrics: Metrics,
    /// Completions the drains returned.
    drained: u64,
    /// Completions that executed on the host CPU pool.
    on_host: u64,
    steals: u64,
    parked: u64,
    hybrid_cpu: u64,
    hybrid_splits: u64,
}

/// A worker with both the tracer and the metrics plane attached.
fn worker(cfg: GpuWorkerConfig) -> (GpuManager, Tracer, Metrics) {
    let mut m = GpuManager::new(0, cfg, registry());
    let tracer = Tracer::new(Tracer::DEFAULT_CAPACITY);
    m.set_tracer(tracer.clone());
    let metrics = Metrics::new(SimTime::from_micros(100));
    m.set_metrics(&metrics);
    (m, tracer, metrics)
}

/// Drain every job in order and capture the views. Jobs in `abandon`
/// receive their `extra` submissions after the drains and are closed
/// without draining them.
fn finish(
    mut m: GpuManager,
    tracer: Tracer,
    metrics: Metrics,
    jobs: &[u64],
    abandon: Option<(u64, Vec<GWork>)>,
) -> Views {
    let (mut drained, mut on_host) = (0, 0);
    for &j in jobs {
        for d in m.drain_job(JobId(j)) {
            drained += 1;
            on_host += u64::from(d.gpu == CPU_FALLBACK_GPU);
        }
    }
    let mut sessions = Vec::new();
    let mut recorded = Vec::new();
    let (mut parked, mut hybrid_cpu, mut hybrid_splits) = (0, 0, 0);
    for &j in jobs {
        let s = m.session(JobId(j)).expect("session open");
        sessions.push((j, s.faults()));
        recorded.push((j, s.flight_events()));
        parked += s.parked_works();
        hybrid_cpu += s.hybrid_cpu();
        hybrid_splits += s.hybrid_splits();
    }
    if let Some((j, works)) = abandon {
        let at = tracer
            .with_events(|evs| evs.iter().map(|e| e.kind.at()).max())
            .unwrap_or(SimTime::ZERO);
        for w in works {
            m.submit_for(JobId(j), w, at);
        }
        m.end_job(JobId(j));
    }
    Views {
        trace: tracer.export_chrome_json(),
        prom: metrics.export_prometheus(),
        json: metrics.export_json(),
        worker: m.fault_ledger(),
        sessions,
        recorded,
        events: tracer.take_events(),
        metrics,
        drained,
        on_host,
        steals: m.steals(),
        parked,
        hybrid_cpu,
        hybrid_splits,
    }
}

/// Two tenants on two single-stream C2050s: gpu0 degrades, takes a
/// transient fault and a hang; gpu1 is lost with works queued on it and
/// blocks cached.
fn faults_run() -> Views {
    let (mut m, tracer, metrics) = worker(GpuWorkerConfig {
        models: vec![GpuModel::TeslaC2050; 2],
        streams_per_gpu: 1,
        hang_timeout: SimTime::from_millis(5),
        retry: RetryPolicy {
            max_retries: 100,
            ..RetryPolicy::default()
        },
        ..GpuWorkerConfig::default()
    });
    m.set_fault_plan(
        FaultPlan::new()
            .with(
                SimTime::from_micros(100),
                FaultKind::GpuDegraded {
                    gpu: 0,
                    throughput: 0.5,
                },
            )
            .with(
                SimTime::from_micros(200),
                FaultKind::KernelTransient { gpu: 0 },
            )
            .with(SimTime::from_micros(300), FaultKind::KernelHang { gpu: 0 })
            .with(SimTime::from_micros(1500), FaultKind::GpuLost { gpu: 1 }),
    );
    let mut rng = SimRng::new(42);
    for i in 0..24u32 {
        let job = JobId(1 + u64::from(i % 2));
        let logical = (1 << 21) + rng.gen_range(1 << 22);
        let at = SimTime::from_micros(u64::from(i) * 20);
        m.submit_for(job, mk_work(i, "scale2", logical, i % 3 != 0), at);
    }
    finish(m, tracer, metrics, &[1, 2], None)
}

/// One single-stream GPU with no retry budget: a transient fault fails
/// its work outright, then the device is lost and the rest of the job
/// falls back to the host CPU pool.
fn exhaust_run() -> Views {
    let (mut m, tracer, metrics) = worker(GpuWorkerConfig {
        models: vec![GpuModel::TeslaC2050],
        streams_per_gpu: 1,
        retry: RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        },
        ..GpuWorkerConfig::default()
    });
    m.set_fault_plan(
        FaultPlan::new()
            .with(SimTime::ZERO, FaultKind::KernelTransient { gpu: 0 })
            .with(SimTime::from_millis(4), FaultKind::GpuLost { gpu: 0 }),
    );
    for i in 0..10u32 {
        let at = SimTime::from_micros(u64::from(i) * 20);
        m.submit_for(JobId(1), mk_work(i, "scale2", 4 << 20, i % 2 == 0), at);
    }
    finish(m, tracer, metrics, &[1], None)
}

/// One single-stream GPU under a queued-bytes cap: the job pens, a
/// device joins (its streams steal the backlog), the original device
/// leaves with blocks cached and works queued, and a second job is torn
/// down with its submissions never drained.
fn elastic_run() -> Views {
    let (mut m, tracer, metrics) = worker(GpuWorkerConfig {
        models: vec![GpuModel::TeslaC2050],
        streams_per_gpu: 1,
        scheduler: SchedulerConfig {
            max_queued_bytes: 16 << 20,
            ..SchedulerConfig::default()
        },
        ..GpuWorkerConfig::default()
    });
    m.set_membership_plan(
        MembershipPlan::new()
            .with(SimTime::from_micros(400), MembershipKind::Join)
            .with(SimTime::from_micros(2500), MembershipKind::Leave { gpu: 0 }),
    );
    for i in 0..20u32 {
        m.submit_for(
            JobId(1),
            mk_work(i, "scale2", 4 << 20, i % 2 == 0),
            SimTime::ZERO,
        );
    }
    let leftovers = (100..103).map(|i| mk_work(i, "scale2", 1 << 20, false));
    finish(m, tracer, metrics, &[1], Some((2, leftovers.collect())))
}

/// The hybrid cost model on one GPU: small element-wise blocks split,
/// PCIe-bound opaque blocks go to the host, and compute-bound blocks stay
/// on the GPU.
fn hybrid_run() -> Views {
    let (mut m, tracer, metrics) = worker(GpuWorkerConfig {
        models: vec![GpuModel::TeslaC2050],
        scheduling: SchedulingPolicy::HybridCostModel,
        hybrid: HybridConfig {
            min_split_elems: 1,
            split_balance: 1e12,
        },
        ..GpuWorkerConfig::default()
    });
    for i in 0..4u32 {
        m.submit_for(
            JobId(1),
            mk_work(i, "scale2", 1 << 20, false),
            SimTime::ZERO,
        );
    }
    for i in 4..10u32 {
        m.submit_for(
            JobId(1),
            mk_work(i, "scale2x", 1 << 24, false),
            SimTime::ZERO,
        );
    }
    for i in 10..14u32 {
        m.submit_for(JobId(1), mk_work(i, "heavy", 1 << 22, true), SimTime::ZERO);
    }
    finish(m, tracer, metrics, &[1], None)
}

fn worker_runs() -> [(&'static str, Views); 4] {
    [
        ("faults", faults_run()),
        ("exhaust", exhaust_run()),
        ("elastic", elastic_run()),
        ("hybrid", hybrid_run()),
    ]
}

// --- Fabric-level: checkpoint, restore, SLO breach, postmortems --------

#[derive(Clone)]
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

/// Everything one fabric attempt exposes.
struct FabricViews {
    trace: String,
    prom: String,
    json: String,
    postmortems: Vec<String>,
    /// The job's flight recorder just before teardown.
    recorded: Vec<RecEvent>,
    worker: FaultLedger,
    report: FaultLedger,
    metrics: Metrics,
}

/// One checkpointed `gpu_map_partition` attempt on a traced, metered
/// fabric with a tight SLO, under `faults`.
fn attempt(cluster: &SharedCluster, dir: &str, faults: FaultPlan) -> (FabricViews, JobReport) {
    let mut cfg = FabricConfig {
        block_bytes: 256 * 1024,
        checkpoint: CheckpointConfig::every(SimTime::from_millis(1)),
        ..FabricConfig::default()
    };
    cfg.worker.cpu_fallback = CpuFallback {
        enabled: false,
        ..CpuFallback::default()
    };
    let fabric = GpuFabric::new(1, cfg);
    fabric.register_kernel("addPoint", |args: &mut KernelArgs<'_, '_>| {
        let def = Point::def();
        let n = args.n_actual;
        let input = RecordReader::new(args.inputs[0], &def, DataLayout::Aos, n);
        let mut out = RecordView::new(args.outputs[0], &def, DataLayout::Aos, n);
        for i in 0..n {
            out.set_f64(i, 0, 0, input.get_f64(i, 0, 0) + 1.0);
            out.set_f64(i, 1, 0, input.get_f64(i, 1, 0) + 2.0);
        }
        KernelProfile::new(args.n_logical as f64 * 2.0, args.n_logical as f64 * 16.0)
    });
    let tracer = fabric.enable_tracing();
    let metrics = fabric.enable_metrics();
    fabric.set_slo(SloPolicy::max_latency(SimTime::from_micros(400)));
    fabric.set_postmortem_dir(dir);
    fabric.with_managers(|ms| ms[0].set_fault_plan(faults));
    let env = GflinkEnv::submit(cluster, &fabric, "occ", SimTime::ZERO);
    let pts: Vec<Point> = (0..4_000)
        .map(|i| Point {
            x: i as f32,
            y: -(i as f32),
        })
        .collect();
    let ds = env.flink.parallelize("pts", pts, 4, 1000.0);
    let gdst = env.to_gdst(ds, DataLayout::Aos);
    let out = gdst.gpu_map_partition::<Point>("addPoint", &GpuMapSpec::new("addPoint"));
    let _ = out.inner().collect("get", 8.0);
    let recorded = fabric.with_managers(|ms| {
        ms[0]
            .session(JobId(1))
            .map(|s| s.flight_events())
            .expect("the job is the fabric's first")
    });
    let report = env.finish();
    let views = FabricViews {
        trace: tracer.export_chrome_json(),
        prom: metrics.export_prometheus(),
        json: metrics.export_json(),
        postmortems: fabric.postmortems().iter().map(|b| b.to_json()).collect(),
        recorded,
        worker: fabric.with_managers(|ms| ms[0].fault_ledger()),
        report: report.faults,
        metrics,
    };
    (views, report)
}

/// Attempt 1 loses both GPUs mid-operator (no CPU fallback, so works
/// fail); attempt 2 on a fresh fabric resumes from the last snapshot.
fn ckpt_runs() -> [(&'static str, FabricViews); 2] {
    let cluster = SharedCluster::new(ClusterConfig::standard(1));
    let crash = SimTime::from_micros(1_264_000);
    let kill = FaultPlan::new()
        .with(crash, FaultKind::GpuLost { gpu: 0 })
        .with(crash, FaultKind::GpuLost { gpu: 1 });
    let (crashed, _) = attempt(&cluster, "target/postmortem-test/occ-crash", kill);
    let (resumed, report) = attempt(
        &cluster,
        "target/postmortem-test/occ-resume",
        FaultPlan::new(),
    );
    assert_eq!(
        report.gpu.as_ref().map(|g| g.restores),
        Some(1),
        "attempt 2 restores"
    );
    [("crash", crashed), ("resume", resumed)]
}

// --- Pins ---------------------------------------------------------------

fn ledgers_text(worker: &FaultLedger, sessions: &[(u64, FaultLedger)]) -> String {
    let mut s = format!("worker {worker:?}\n");
    for (j, l) in sessions {
        s.push_str(&format!("job{j} {l:?}\n"));
    }
    s
}

/// `(label, hash)` for every pinned output of every run, in a fixed order.
fn all_digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (name, v) in worker_runs() {
        out.push((format!("{name}.trace"), fnv1a(v.trace.as_bytes())));
        out.push((format!("{name}.prom"), fnv1a(v.prom.as_bytes())));
        out.push((format!("{name}.json"), fnv1a(v.json.as_bytes())));
        let ledgers = ledgers_text(&v.worker, &v.sessions);
        out.push((format!("{name}.ledgers"), fnv1a(ledgers.as_bytes())));
        let recorded = format!("{:?}", v.recorded);
        out.push((format!("{name}.recorder"), fnv1a(recorded.as_bytes())));
    }
    for (name, v) in ckpt_runs() {
        out.push((format!("{name}.trace"), fnv1a(v.trace.as_bytes())));
        out.push((format!("{name}.prom"), fnv1a(v.prom.as_bytes())));
        out.push((format!("{name}.json"), fnv1a(v.json.as_bytes())));
        for (i, pm) in v.postmortems.iter().enumerate() {
            out.push((format!("{name}.postmortem{i}"), fnv1a(pm.as_bytes())));
        }
        let ledgers = ledgers_text(&v.worker, &[(1, v.report)]);
        out.push((format!("{name}.ledgers"), fnv1a(ledgers.as_bytes())));
        let recorded = format!("{:?}", v.recorded);
        out.push((format!("{name}.recorder"), fnv1a(recorded.as_bytes())));
    }
    out
}

const PINS: &[(&str, u64)] = &[
    ("faults.trace", 0x826e3f9ca00f0ae2),
    ("faults.prom", 0x180ba8bc9c8befcb),
    ("faults.json", 0xb08b73ff03f07e1f),
    ("faults.ledgers", 0xf5344d184705b61d),
    ("faults.recorder", 0xbf91b5d31b5dca80),
    ("exhaust.trace", 0xa85a6b56434751c5),
    ("exhaust.prom", 0x084db22a22f34a89),
    ("exhaust.json", 0x3e8e2560110f3b3f),
    ("exhaust.ledgers", 0x17608fe115872db3),
    ("exhaust.recorder", 0x84ae52dba7b21749),
    ("elastic.trace", 0x6fbcfcb0a763e00d),
    ("elastic.prom", 0x2b5b361d0db309d0),
    ("elastic.json", 0xd34d5dc0b8e13dd6),
    ("elastic.ledgers", 0x54b0ca74316b6592),
    ("elastic.recorder", 0x7875586df1e04a4d),
    ("hybrid.trace", 0x461efebbd2cc8c38),
    ("hybrid.prom", 0xf52e6b3727c1679b),
    ("hybrid.json", 0x7039d87a4b44f7ec),
    ("hybrid.ledgers", 0xd034803de5a8a9d7),
    ("hybrid.recorder", 0x963828f17a85d5d8),
    ("crash.trace", 0x971603a2b1e7cb1d),
    ("crash.prom", 0x9218910a415d1140),
    ("crash.json", 0xdf76c89acc08b0d6),
    ("crash.postmortem0", 0x948be6e4b32fdc64),
    ("crash.postmortem1", 0xb6df77122edfde0b),
    ("crash.ledgers", 0x67abab190bd06365),
    ("crash.recorder", 0x4fafc1fc6c2c93ea),
    ("resume.trace", 0xf6025b5d5e5c9bcc),
    ("resume.prom", 0x3d1687b04f3eb06f),
    ("resume.json", 0xeb074ffe07193f5e),
    ("resume.postmortem0", 0xd00a0701e7cd53a4),
    ("resume.postmortem1", 0x8c3f7fdf3d29a43f),
    ("resume.ledgers", 0x158a734ba8058a61),
    ("resume.recorder", 0x828a48b05e6a5dd1),
];

#[test]
fn every_occurrence_kind_is_pinned() {
    let got = all_digests();
    let listing: String = got
        .iter()
        .map(|(l, h)| format!("    (\"{l}\", {h:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = PINS.iter().map(|&(l, h)| (l.to_string(), h)).collect();
    assert_eq!(got, want, "pins moved; current values:\n{listing}");
}

// --- Coverage and cross-view agreement -----------------------------------

fn counter(m: &Metrics, name: &str) -> u64 {
    m.id_of(name)
        .map(|_| m.counter(name, "").get())
        .unwrap_or(0)
}

fn worker_counter(m: &Metrics, series: &str) -> u64 {
    counter(m, &format!("gflink_{series}{{worker=\"0\"}}"))
}

fn instants(events: &[TraceEvent], cat: Cat, name: &str) -> u64 {
    events
        .iter()
        .filter(|e| e.cat == cat && e.name == name && matches!(e.kind, EventKind::Instant { .. }))
        .count() as u64
}

fn spans_with(events: &[TraceEvent], cat: Cat, arg: (&str, &str)) -> u64 {
    events
        .iter()
        .filter(|e| {
            e.cat == cat
                && matches!(e.kind, EventKind::Span { .. })
                && e.args.iter().any(|(k, v)| *k == arg.0 && v == arg.1)
        })
        .count() as u64
}

fn recorded(v: &Views, job: u64, kind: RecKind) -> u64 {
    v.recorded
        .iter()
        .filter(|(j, _)| *j == job)
        .flat_map(|(_, evs)| evs)
        .filter(|e| e.kind == kind)
        .count() as u64
}

fn recorded_all(v: &Views, kind: RecKind) -> u64 {
    v.sessions.iter().map(|&(j, _)| recorded(v, j, kind)).sum()
}

/// Every ledger field, with the counter series that mirrors it.
const LEDGER_SERIES: [(&str, &str); 14] = [
    ("faults_injected", "faults_injected_total"),
    ("gpus_lost", "gpus_lost_total"),
    ("gpus_degraded", "gpus_degraded_total"),
    ("transient_faults", "transient_faults_total"),
    ("hangs_detected", "hangs_detected_total"),
    ("retries", "retries_total"),
    ("steals_on_drain", "steals_on_drain_total"),
    ("cache_invalidations", "cache_invalidations_total"),
    ("cpu_fallbacks", "cpu_fallbacks_total"),
    ("works_failed", "works_failed_total"),
    ("works_restored", "works_restored_total"),
    ("members_joined", "members_joined_total"),
    ("members_left", "members_left_total"),
    ("parked_abandoned", "parked_abandoned_total"),
];

fn field(l: &FaultLedger, name: &str) -> u64 {
    l.entries()
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, v)| v)
        .expect("ledger field")
}

#[test]
fn runs_fire_every_occurrence_kind() {
    let runs = worker_runs();
    let ckpt = ckpt_runs();
    for (f, _) in LEDGER_SERIES {
        let fired = runs.iter().any(|(_, v)| field(&v.worker, f) > 0)
            || ckpt.iter().any(|(_, v)| field(&v.worker, f) > 0);
        assert!(fired, "no run bumps ledger field {f}");
    }
    let kinds = [
        RecKind::FaultInjected,
        RecKind::TransientFault,
        RecKind::HangDetected,
        RecKind::Retry,
        RecKind::DeviceLost,
        RecKind::DeviceDegraded,
        RecKind::StealOnDrain,
        RecKind::MemberJoined,
        RecKind::MemberLeft,
        RecKind::WorkFailed,
        RecKind::CpuFallback,
        RecKind::HybridCpu,
        RecKind::WorkPenned,
    ];
    for kind in kinds {
        let fired = runs.iter().any(|(_, v)| recorded_all(v, kind) > 0);
        assert!(fired, "no worker run records {kind:?}");
    }
    // Checkpoint, restore and SLO events land on the fabric job's ring;
    // the SLO breach also dumps a postmortem.
    for kind in [
        RecKind::CheckpointWritten,
        RecKind::SnapshotRestored,
        RecKind::SloBreach,
    ] {
        let fired = ckpt
            .iter()
            .any(|(_, v)| v.recorded.iter().any(|e| e.kind == kind));
        assert!(fired, "no fabric run records {kind:?}");
    }
    let pm: String = ckpt
        .iter()
        .flat_map(|(_, v)| v.postmortems.clone())
        .collect();
    assert!(pm.contains("\"reason\":\"slo-breach\""));
    assert!(pm.contains("\"reason\":\"fault-ledger\""));
    let any = |f: fn(&Views) -> u64| runs.iter().any(|(_, v)| f(v) > 0);
    assert!(any(|v| v.steals), "no Alg. 5.2 steal");
    assert!(any(|v| v.parked), "no penned work");
    assert!(any(|v| v.hybrid_cpu), "no hybrid host placement");
    assert!(any(|v| v.hybrid_splits), "no hybrid split");
    assert!(
        any(|v| worker_counter(&v.metrics, "hybrid_gpu_total")),
        "no hybrid GPU placement"
    );
}

#[test]
fn views_agree_on_every_occurrence() {
    for (name, v) in worker_runs() {
        let m = &v.metrics;
        // Ledger ↔ registry: each field equals its counter series, and
        // the session ledgers sum to the worker ledger for work-scoped
        // fields (device-scoped ones are charged to every open session).
        for (f, series) in LEDGER_SERIES {
            assert_eq!(
                field(&v.worker, f),
                worker_counter(m, series),
                "{name}: ledger {f} vs gflink_{series}"
            );
        }
        // Ledger ↔ recorder, session by session (every ring unsaturated).
        for (j, l) in &v.sessions {
            let rec = |k| recorded(&v, *j, k);
            assert!(
                v.recorded.iter().all(|(_, e)| e.len() < 64),
                "{name}: a flight recorder saturated"
            );
            for (f, kind) in [
                ("faults_injected", RecKind::FaultInjected),
                ("gpus_lost", RecKind::DeviceLost),
                ("gpus_degraded", RecKind::DeviceDegraded),
                ("transient_faults", RecKind::TransientFault),
                ("hangs_detected", RecKind::HangDetected),
                ("steals_on_drain", RecKind::StealOnDrain),
                ("cpu_fallbacks", RecKind::CpuFallback),
                ("works_failed", RecKind::WorkFailed),
                ("members_joined", RecKind::MemberJoined),
                ("members_left", RecKind::MemberLeft),
            ] {
                assert_eq!(field(l, f), rec(kind), "{name}: job{j} {f} vs {kind:?}");
            }
            // A device-loss evacuation retry touches only the ledger.
            assert!(rec(RecKind::Retry) <= l.retries, "{name}: job{j} retries");
        }
        // Ledger ↔ trace.
        let ev = &v.events;
        let w = &v.worker;
        assert_eq!(
            instants(ev, Cat::Recovery, "fault-injected"),
            w.faults_injected
        );
        assert_eq!(instants(ev, Cat::Health, "lost"), w.gpus_lost, "{name}");
        assert_eq!(instants(ev, Cat::Health, "degraded"), w.gpus_degraded);
        assert_eq!(instants(ev, Cat::Recovery, "transient"), w.transient_faults);
        assert_eq!(instants(ev, Cat::Recovery, "hang"), w.hangs_detected);
        assert_eq!(instants(ev, Cat::Recovery, "work-failed"), w.works_failed);
        assert_eq!(instants(ev, Cat::Recovery, "join"), w.members_joined);
        assert_eq!(
            spans_with(ev, Cat::Cpu, ("fallback", "all GPUs lost")),
            w.cpu_fallbacks,
            "{name}: fallback spans"
        );
        assert_eq!(
            instants(ev, Cat::Recovery, "retry"),
            recorded_all(&v, RecKind::Retry),
            "{name}: traced retries vs recorded retries"
        );
        // Scheduling and placement occurrences.
        assert_eq!(
            v.steals,
            worker_counter(m, "steals_total"),
            "{name}: steals"
        );
        assert_eq!(instants(ev, Cat::Queue, "steal"), v.steals, "{name}");
        assert_eq!(v.parked, worker_counter(m, "works_penned_total"));
        assert_eq!(v.parked, recorded_all(&v, RecKind::WorkPenned));
        assert_eq!(v.hybrid_cpu, worker_counter(m, "hybrid_cpu_total"));
        assert_eq!(v.hybrid_cpu, recorded_all(&v, RecKind::HybridCpu));
        assert_eq!(
            v.hybrid_cpu,
            spans_with(ev, Cat::Cpu, ("placement", "hybrid"))
        );
        assert_eq!(v.hybrid_splits, worker_counter(m, "hybrid_splits_total"));
        // Cache occurrences: counters, instants and the trace's running
        // counter tracks agree per device.
        let gpus = v
            .events
            .iter()
            .filter(|e| e.cat == Cat::Cache)
            .map(|e| e.pid)
            .max()
            .map_or(0, |p| p + 1);
        for pid in 0..gpus {
            let gpu = pid as usize; // worker 0: pid == gpu index
            let on = |n: &str| {
                ev.iter()
                    .filter(|e| e.pid == pid && e.cat == Cat::Cache && e.name == n)
                    .filter(|e| matches!(e.kind, EventKind::Instant { .. }))
                    .count() as u64
            };
            let last = |n: &str| {
                ev.iter()
                    .filter(|e| e.pid == pid && e.name == n)
                    .filter_map(|e| match e.kind {
                        EventKind::Counter { value, .. } => Some(value as u64),
                        _ => None,
                    })
                    .next_back()
                    .unwrap_or(0)
            };
            let c = |s: &str| counter(m, &format!("gflink_{s}{{worker=\"0\",gpu=\"{gpu}\"}}"));
            assert_eq!(on("hit"), c("cache_hits_total"), "{name}: gpu{gpu} hits");
            assert_eq!(on("miss"), c("cache_misses_total"), "{name}: gpu{gpu}");
            assert_eq!(on("evict"), c("cache_evictions_total"), "{name}: gpu{gpu}");
            assert_eq!(last("cache_hits"), on("hit"), "{name}: gpu{gpu} track");
            assert_eq!(last("cache_misses"), on("miss"), "{name}: gpu{gpu} track");
        }
        // Completions: the counter tallies D2H landings, so works that ran
        // on the host CPU pool (fallback, hybrid placement) are not in it.
        let completed = worker_counter(m, "works_completed_total");
        assert_eq!(completed, v.drained - v.on_host, "{name}: completions");
    }
    for (name, v) in ckpt_runs() {
        for (f, series) in LEDGER_SERIES {
            assert_eq!(
                field(&v.worker, f),
                worker_counter(&v.metrics, series),
                "{name}: ledger {f} vs gflink_{series}"
            );
        }
        assert_eq!(v.report.works_restored, v.worker.works_restored, "{name}");
        assert_eq!(v.report.works_failed, v.worker.works_failed, "{name}");
    }
}
