//! Pinned per-job GPU rollups.
//!
//! `pinned_digests.rs` pins what a job computes; these tests pin what its
//! rollup reports about how it ran. Each run's `JobReport::gpu` is dumped
//! canonically — every counter, each SLO histogram's count, sum, extrema
//! and p50/p95/p99, the exact bits of the float summaries, the hybrid
//! model-error histogram and the per-device lanes with their utilization
//! bits — and the dump is pinned by FNV-1a hash. Any change to who feeds
//! the rollup, or in which order, that moves a single field fails here.

use gflink::apps::{concomp, kmeans, linreg, pagerank, pointadd, spmv, wordcount, Setup};
use gflink::core::{BatchConfig, CpuFallback};
use gflink::flink::GpuRollup;
use gflink::prelude::*;
use gflink::sim::{LogHistogram, Summary};
use std::fmt::Write as _;

/// FNV-1a (64-bit) of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn hist(out: &mut String, name: &str, h: &LogHistogram) {
    let _ = writeln!(
        out,
        "{name} n={} sum={} min={} max={} p50={} p95={} p99={}",
        h.count(),
        h.sum_nanos(),
        h.min().as_nanos(),
        h.max().as_nanos(),
        h.p50().as_nanos(),
        h.p95().as_nanos(),
        h.p99().as_nanos(),
    );
}

fn summary(out: &mut String, name: &str, s: &Summary) {
    let _ = writeln!(
        out,
        "{name} n={} sum={:#x} mean={:#x} sd={:#x} min={:#x} max={:#x}",
        s.count(),
        s.sum().to_bits(),
        s.mean().to_bits(),
        s.stddev().to_bits(),
        s.min().to_bits(),
        s.max().to_bits(),
    );
}

/// Canonical text dump of a job's rollup.
fn dump(gpu: Option<&GpuRollup>) -> String {
    let Some(r) = gpu else {
        return "none\n".to_string();
    };
    let mut out = String::new();
    let counters = [
        ("works", r.works),
        ("cpu_works", r.cpu_works),
        ("cache_hits", r.cache_hits),
        ("cache_misses", r.cache_misses),
        ("bytes_h2d", r.bytes_h2d),
        ("bytes_d2h", r.bytes_d2h),
        ("steals", r.steals),
        ("weight", u64::from(r.weight)),
        ("parked_works", r.parked_works),
        ("park_delay", r.park_delay.as_nanos()),
        ("pinned_hits", r.pinned_hits),
        ("pinned_misses", r.pinned_misses),
        ("pinned_bytes", r.pinned_bytes),
        ("batches", r.batches),
        ("batched_works", r.batched_works),
        ("alpha_saved", r.alpha_saved.as_nanos()),
        ("checkpoints", r.checkpoints),
        ("checkpoint_bytes", r.checkpoint_bytes),
        ("restores", r.restores),
        ("works_restored", r.works_restored),
        ("hybrid_gpu", r.hybrid_gpu),
        ("hybrid_cpu", r.hybrid_cpu),
        ("hybrid_splits", r.hybrid_splits),
        ("trace_dropped", r.trace_dropped),
    ];
    for (name, v) in counters {
        let _ = writeln!(out, "{name}={v}");
    }
    for (name, h) in r.slo.stages() {
        hist(&mut out, &format!("slo.{name}"), h);
    }
    summary(&mut out, "batch_size", &r.batch_size);
    summary(&mut out, "recovery_delta", &r.recovery_delta);
    hist(&mut out, "hybrid_err", &r.hybrid_err);
    for l in &r.lanes {
        let _ = writeln!(
            out,
            "lane w{} g{} works={} kernel={} copy={} util={:#x}",
            l.worker,
            l.gpu,
            l.works,
            l.kernel_busy.as_nanos(),
            l.copy_busy.as_nanos(),
            l.utilization.to_bits(),
        );
    }
    out
}

/// Assert the hashes of `runs`' dumps, printing every dump on a mismatch.
fn assert_pinned(runs: &[(&str, String)], pinned: &[u64]) {
    let got: Vec<u64> = runs.iter().map(|(_, d)| fnv1a(d.as_bytes())).collect();
    if got != pinned {
        for ((name, d), h) in runs.iter().zip(&got) {
            eprintln!("--- {name} ({h:#018x})\n{d}");
        }
    }
    assert_eq!(got, pinned, "rollup dumps moved");
}

const WORKERS: usize = 3;

/// The seven apps at `pinned_digests.rs`'s points.
#[test]
fn app_rollups_are_pinned() {
    let s = || Setup::standard(WORKERS);
    let runs: Vec<(&str, String)> = vec![
        ("kmeans", {
            let s = s();
            let p = kmeans::Params {
                n_logical: 60_000_000,
                n_actual: 4_000,
                iterations: 4,
                parallelism: s.default_parallelism(),
                seed: 1,
            };
            dump(kmeans::run_gpu(&s, &p).report.gpu.as_ref())
        }),
        ("linreg", {
            let s = s();
            let p = linreg::Params {
                n_logical: 60_000_000,
                n_actual: 4_000,
                iterations: 4,
                parallelism: s.default_parallelism(),
                seed: 2,
            };
            dump(linreg::run_gpu(&s, &p).report.gpu.as_ref())
        }),
        ("spmv", {
            let s = s();
            let p = spmv::Params {
                rows_logical: 40_000_000,
                rows_actual: 4_000,
                iterations: 4,
                parallelism: s.default_parallelism(),
                seed: 3,
            };
            dump(spmv::run_gpu(&s, &p).report.gpu.as_ref())
        }),
        ("pagerank", {
            let s = s();
            let p = pagerank::Params {
                n_logical: 4_000_000,
                n_actual: 2_000,
                iterations: 4,
                parallelism: s.default_parallelism(),
                seed: 4,
            };
            dump(pagerank::run_gpu(&s, &p).report.gpu.as_ref())
        }),
        ("concomp", {
            let s = s();
            let p = concomp::Params {
                n_logical: 4_000_000,
                n_actual: 2_000,
                iterations: 4,
                parallelism: s.default_parallelism(),
                seed: 5,
            };
            dump(concomp::run_gpu(&s, &p).report.gpu.as_ref())
        }),
        ("wordcount", {
            let s = s();
            let p = wordcount::Params {
                bytes_logical: 4_000_000_000,
                words_actual: 4_000,
                parallelism: s.default_parallelism(),
                seed: 6,
            };
            dump(wordcount::run_gpu(&s, &p).report.gpu.as_ref())
        }),
        ("pointadd", {
            let s = Setup::standard(1);
            let p = pointadd::Params {
                n_logical: 5_000_000,
                n_actual: 2_000,
                iterations: 2,
                parallelism: 4,
                delta: (3.0, -1.0),
            };
            dump(pointadd::run_gpu(&s, &p).report.gpu.as_ref())
        }),
    ];
    assert_pinned(
        &runs,
        &[
            0x06dc_e7cd_9a72_ff8b,
            0xdda8_86d2_add6_6de3,
            0x7a2f_22dc_6d50_60e3,
            0xc635_c60c_51ed_6d63,
            0x11ba_69a8_4809_9616,
            0xcd03_e508_39ab_5bb1,
            0x14aa_de96_e020_f249,
        ],
    );
}

fn pointadd_small(s: &Setup) -> JobReport {
    let p = pointadd::Params {
        n_logical: 4_000_000,
        n_actual: 10_000,
        iterations: 2,
        parallelism: s.default_parallelism(),
        delta: (1.0, -0.5),
    };
    pointadd::run_gpu(s, &p).report
}

/// A batching fabric in the backlog regime (one single-stream C2050 per
/// worker, 64 KiB blocks): fused batches, α savings and batch sizes.
#[test]
fn batched_pointadd_rollup_is_pinned() {
    let mut fabric = FabricConfig {
        block_bytes: 64 << 10,
        producer_overhead: SimTime::from_micros(5),
        ..FabricConfig::default()
    };
    fabric.worker.models = vec![GpuModel::TeslaC2050];
    fabric.worker.streams_per_gpu = 1;
    fabric.worker.transfer.batch = BatchConfig::enabled();
    let s = Setup::with_configs(ClusterConfig::standard(4), fabric);
    let report = pointadd_small(&s);
    let g = report.gpu.as_ref().expect("gpu rollup");
    assert!(g.batches > 0, "the fabric batched nothing");
    assert_pinned(&[("batched", dump(Some(g)))], &[0xb2d1_64b3_7038_071a]);
}

/// The hybrid cost model forced to split blocks: hybrid counters, the
/// model-error histogram and host-pool completions.
#[test]
fn hybrid_split_rollup_is_pinned() {
    let mut fabric = FabricConfig::default();
    fabric.worker.scheduling = SchedulingPolicy::HybridCostModel;
    fabric.worker.hybrid.min_split_elems = 128;
    fabric.worker.hybrid.split_balance = 1_000.0;
    let s = Setup::with_configs(ClusterConfig::standard(4), fabric);
    let report = pointadd_small(&s);
    let g = report.gpu.as_ref().expect("gpu rollup");
    assert!(g.hybrid_splits > 0, "the fabric split nothing");
    assert_pinned(&[("hybrid", dump(Some(g)))], &[0x8e67_1beb_02c0_f21f]);
}

/// A queued-bytes cap small enough to pen submissions: parked works,
/// pen delay and its SLO histogram.
#[test]
fn penned_pointadd_rollup_is_pinned() {
    let mut fabric = FabricConfig {
        block_bytes: 64 << 10,
        producer_overhead: SimTime::from_micros(5),
        ..FabricConfig::default()
    };
    fabric.worker.models = vec![GpuModel::TeslaC2050];
    fabric.worker.streams_per_gpu = 1;
    fabric.worker.scheduler.max_queued_bytes = 256 << 10;
    let s = Setup::with_configs(ClusterConfig::standard(4), fabric);
    let report = pointadd_small(&s);
    let g = report.gpu.as_ref().expect("gpu rollup");
    assert!(g.parked_works > 0, "the cap penned nothing");
    assert_pinned(&[("penned", dump(Some(g)))], &[0x0249_0be3_76e3_0654]);
}

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

fn point_fabric(checkpoint: CheckpointConfig, fallback: bool) -> GpuFabric {
    let mut cfg = FabricConfig {
        block_bytes: 256 * 1024,
        checkpoint,
        ..FabricConfig::default()
    };
    cfg.worker.cpu_fallback = CpuFallback {
        enabled: fallback,
        ..CpuFallback::default()
    };
    let fabric = GpuFabric::new(1, cfg);
    fabric.register_kernel("cudaAddPoint", |args: &mut KernelArgs<'_, '_>| {
        let def = Point::def();
        let n = args.n_actual;
        let (dx, dy) = (args.params[0], args.params[1]);
        let input = RecordReader::new(args.inputs[0], &def, DataLayout::Aos, n);
        let mut out = RecordView::new(args.outputs[0], &def, DataLayout::Aos, n);
        for i in 0..n {
            out.set_f64(i, 0, 0, input.get_f64(i, 0, 0) + dx);
            out.set_f64(i, 1, 0, input.get_f64(i, 1, 0) + dy);
        }
        KernelProfile::new(
            args.n_logical as f64 * 2.0,
            args.n_logical as f64 * 2.0 * def.size() as f64,
        )
    });
    fabric
}

/// One point-shift job on a one-worker fabric under `faults`.
fn point_job(
    cluster: &SharedCluster,
    fabric: &GpuFabric,
    name: &str,
    faults: FaultPlan,
) -> JobReport {
    fabric.with_managers(|ms| ms[0].set_fault_plan(faults));
    let env = GflinkEnv::submit(cluster, fabric, name, SimTime::ZERO);
    let pts: Vec<Point> = (0..4_000)
        .map(|i| Point {
            x: i as f32,
            y: -(i as f32),
        })
        .collect();
    let ds = env.flink.parallelize("pts", pts, 4, 1000.0);
    let spec = GpuMapSpec::new("cudaAddPoint")
        .with_params(vec![1.0, 2.0])
        .build(fabric)
        .expect("valid spec");
    let out = env
        .to_gdst(ds, DataLayout::Aos)
        .gpu_map_partition::<Point>("addPoint", &spec);
    out.inner().collect("get", 8.0);
    env.finish()
}

fn kill_all_at(t: SimTime) -> FaultPlan {
    FaultPlan::new()
        .with(t, FaultKind::GpuLost { gpu: 0 })
        .with(t, FaultKind::GpuLost { gpu: 1 })
}

/// Both GPUs lost mid-operator with the CPU fallback on: GPU and host-pool
/// completions, steals and lanes of a dying fabric.
#[test]
fn device_loss_rollup_is_pinned() {
    let cluster = SharedCluster::new(ClusterConfig::standard(1));
    let fabric = point_fabric(CheckpointConfig::default(), true);
    let faults = kill_all_at(SimTime::from_micros(1_264_000));
    let report = point_job(&cluster, &fabric, "loss", faults);
    assert_eq!(report.faults.gpus_lost, 2);
    let g = report.gpu.as_ref().expect("gpu rollup");
    assert!(
        g.works > 0 && g.cpu_works > 0,
        "both engines completed work"
    );
    assert_pinned(&[("loss", dump(Some(g)))], &[0x515b_ca31_a10b_1aa2]);
}

/// A checkpointed operator crashed mid-run (no fallback), then resumed
/// under the same name: checkpoint counts, restores and the replay delta.
#[test]
fn checkpoint_resume_rollups_are_pinned() {
    let cluster = SharedCluster::new(ClusterConfig::standard(1));
    let every = CheckpointConfig::every(SimTime::from_millis(1));
    let crash = kill_all_at(SimTime::from_micros(1_264_000));
    let f1 = point_fabric(every.clone(), false);
    let crashed = point_job(&cluster, &f1, "resume", crash);
    let f2 = point_fabric(every, false);
    let resumed = point_job(&cluster, &f2, "resume", FaultPlan::new());
    let g = resumed.gpu.as_ref().expect("gpu rollup");
    assert_eq!(g.restores, 1);
    assert!(g.recovery_delta.count() > 0);
    assert_pinned(
        &[
            ("crashed", dump(crashed.gpu.as_ref())),
            ("resumed", dump(Some(g))),
        ],
        &[0xca2e_319a_55f7_50b0, 0x344c_0a56_ca54_8083],
    );
}
