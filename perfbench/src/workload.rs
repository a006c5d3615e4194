//! The three workloads: how each is provisioned, run once, and read out.
//!
//! Everything here drives the system through its public API only: the
//! `apps` run functions, `Setup`/`GpuFabric`/`StreamEnv`, and the reports
//! they return. Every value in [`Measured`] is on the simulated clock or
//! is a count, so two runs of one seed must agree on all of it exactly.

use gflink_apps::nexmark::{self, NexmarkConfig, QueryRun};
use gflink_apps::{kmeans, spmv, AppRun, Setup};
use gflink_core::{FabricConfig, GpuFabric, SchedulerConfig, StreamEnv, WindowedRun};
use gflink_flink::{ClusterConfig, JobGate};
use gflink_sim::{Phase, SimTime};

/// Workers of the streaming fabric (and of its CPU-engine baseline).
const STREAM_WORKERS: usize = 2;
/// Offered Nexmark load of the two-tenant mix, events per second.
const MIX_EVENTS_PER_SEC: f64 = 50e6;
/// Event time the two-tenant mix runs for.
const MIX_DURATION: SimTime = SimTime::from_secs(120);
/// Event time of each rung of the sustained-rate ladder.
const LADDER_DURATION: SimTime = SimTime::from_secs(10);
/// Offered rates of the ladder, ascending, events per second.
const LADDER_RATES: [f64; 6] = [50e6, 100e6, 200e6, 400e6, 800e6, 1.6e9];
/// A rung is healthy when the last pane's latency is within this factor of
/// the mean pane latency (no growing backlog)...
const SUSTAIN_FACTOR: f64 = 1.5;
/// ...and the emission p99 stays within this limit.
const EMIT_P99_LIMIT: SimTime = SimTime::from_millis(250);

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// KMeans at the Table-1 150 M point on 10 workers: points stay cached
    /// on the GPUs after iteration 1.
    KmeansCached,
    /// 32 GB SpMV on 3 workers: each worker's share overflows its FIFO
    /// cache, so the cache inserts and evicts on every pass.
    SpmvThrash,
    /// Nexmark q6 (weight 1) and q13 (weight 2, cached side table) as two
    /// concurrent tenants on a 2-worker fabric under WFQ arbitration.
    NexmarkMix,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::KmeansCached,
        Workload::SpmvThrash,
        Workload::NexmarkMix,
    ];

    /// Parse a workload by its benchmark name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KmeansCached => "kmeans-cached",
            Workload::SpmvThrash => "spmv-thrash",
            Workload::NexmarkMix => "nexmark-mix",
        }
    }
}

/// Named values on the simulated clock, or counts.
pub type Fields = Vec<(&'static str, f64)>;

/// Named result digests (bit patterns; batch digests are `f64::to_bits`).
pub type Digests = Vec<(&'static str, u64)>;

/// What one run measured.
pub struct Measured {
    /// Operations completed: GWorks for batch jobs, panes and micro-batches
    /// for the streaming mix.
    pub completed: u64,
    /// Operations that terminally failed or were lost.
    pub failed: u64,
    /// End-to-end and per-layer values on the simulated clock, and counts.
    pub sim: Fields,
    /// Result digests.
    pub digests: Digests,
}

/// A workload provisioned and ready to run once.
#[allow(clippy::large_enum_variant)] // one value per process
pub enum Prepared {
    Kmeans {
        setup: Setup,
        params: kmeans::Params,
    },
    Spmv {
        setup: Setup,
        params: spmv::Params,
    },
    Mix {
        fabric: GpuFabric,
        cfg: NexmarkConfig,
        side_table: u64,
        /// The q6 and q13 tenants' environments, built with the kernels.
        tenants: Option<(StreamEnv, StreamEnv)>,
    },
}

/// The raw result of one run.
#[allow(clippy::large_enum_variant)] // one value per process
pub enum Ran {
    Batch(AppRun),
    Mix { q6: WindowedRun, q13: QueryRun },
}

fn stream_fabric() -> GpuFabric {
    let mut cfg = FabricConfig::default();
    cfg.worker.scheduler = SchedulerConfig::weighted_fair();
    GpuFabric::new(STREAM_WORKERS, cfg)
}

impl Prepared {
    /// Build the cluster, the fabric and the workload's parameters; the
    /// program receives `seed` only as its input-generator seed.
    pub fn build(workload: Workload, seed: u64) -> Prepared {
        match workload {
            Workload::KmeansCached => {
                let setup = Setup::standard(10);
                let mut params = kmeans::Params::paper(150, &setup);
                params.seed = seed;
                Prepared::Kmeans { setup, params }
            }
            Workload::SpmvThrash => {
                let setup = Setup::standard(3);
                let mut params = spmv::Params::paper(32, &setup);
                params.seed = seed;
                Prepared::Spmv { setup, params }
            }
            Workload::NexmarkMix => {
                let fabric = stream_fabric();
                let side_table = fabric.new_cache_token();
                let mut cfg = NexmarkConfig::standard(seed);
                cfg.events_per_sec = MIX_EVENTS_PER_SEC;
                cfg.duration = MIX_DURATION;
                Prepared::Mix {
                    fabric,
                    cfg,
                    side_table,
                    tenants: None,
                }
            }
        }
    }

    /// Register the workload's kernels with the fabric.
    pub fn register_kernels(&mut self) {
        match self {
            Prepared::Kmeans { setup, .. } => kmeans::register_kernels(&setup.fabric),
            Prepared::Spmv { setup, .. } => spmv::register_kernels(&setup.fabric),
            Prepared::Mix {
                fabric, tenants, ..
            } => {
                nexmark::register_kernels(fabric);
                *tenants = Some((
                    StreamEnv::gpu(fabric).named("q6"),
                    StreamEnv::gpu(fabric).named("q13").weighted(2),
                ));
            }
        }
    }

    /// The GPU fabric the workload runs on.
    pub fn fabric(&self) -> &GpuFabric {
        match self {
            Prepared::Kmeans { setup, .. } | Prepared::Spmv { setup, .. } => &setup.fabric,
            Prepared::Mix { fabric, .. } => fabric,
        }
    }

    /// Run the workload once on GFlink.
    pub fn run(&self) -> Ran {
        match self {
            Prepared::Kmeans { setup, params } => Ran::Batch(kmeans::run_gpu(setup, params)),
            Prepared::Spmv { setup, params } => Ran::Batch(spmv::run_gpu(setup, params)),
            Prepared::Mix {
                cfg,
                side_table,
                tenants,
                ..
            } => {
                let (env6, env13) = tenants.as_ref().expect("kernels registered before the run");
                // The JobGate baton serialises the two driver threads in
                // simulated-time order, so the interleaving is deterministic.
                let gate = JobGate::new();
                let (t6, t13) = (gate.register(), gate.register());
                let (q6, q13) = std::thread::scope(|s| {
                    let h6 = s.spawn(|| gate.run(t6, || nexmark::q6(env6, cfg)));
                    let h13 =
                        s.spawn(|| gate.run(t13, || nexmark::q13(env13, cfg, Some(*side_table))));
                    (
                        h6.join().expect("q6 driver thread panicked"),
                        h13.join().expect("q13 driver thread panicked"),
                    )
                });
                Ran::Mix {
                    q6: q6.expect("q6 tenant failed"),
                    q13: q13.expect("q13 tenant failed"),
                }
            }
        }
    }

    /// Run the same inputs on the Flink CPU engine: its simulated makespan
    /// and digests, keyed like the GFlink run's. Call it on a fresh
    /// workload: the baseline job shares the cluster with the GFlink run.
    pub fn run_baseline(&self) -> (f64, Digests) {
        match self {
            Prepared::Kmeans { setup, params } => batch_baseline(kmeans::run_cpu(setup, params)),
            Prepared::Spmv { setup, params } => batch_baseline(spmv::run_cpu(setup, params)),
            Prepared::Mix { cfg, .. } => {
                let env = StreamEnv::cpu(&ClusterConfig::standard(STREAM_WORKERS));
                let q6 = nexmark::q6(&env, cfg).expect("CPU-engine q6 runs");
                let q13 = nexmark::q13(&env, cfg, None).expect("CPU-engine q13 runs");
                let end = q6.report.finished_at.max(q13.report.finished_at);
                (
                    end.as_secs_f64(),
                    vec![
                        ("q6", q6.digest()),
                        ("q6_watermarks", q6.watermark_digest()),
                        ("q13", q13.digest),
                        ("q13_rows", q13.rows),
                    ],
                )
            }
        }
    }

    /// Read out one run.
    pub fn measure(&self, ran: &Ran) -> Measured {
        match (self, ran) {
            (Prepared::Kmeans { params, .. }, Ran::Batch(run)) => {
                self.measure_batch(run, params.n_logical as f64 * params.iterations as f64)
            }
            (Prepared::Spmv { params, .. }, Ran::Batch(run)) => {
                self.measure_batch(run, params.rows_logical as f64 * params.iterations as f64)
            }
            (Prepared::Mix { .. }, Ran::Mix { q6, q13 }) => self.measure_mix(q6, q13),
            _ => unreachable!("a run's result always matches its workload"),
        }
    }

    fn measure_batch(&self, run: &AppRun, logical_records: f64) -> Measured {
        let report = &run.report;
        let rollup = report
            .gpu
            .as_ref()
            .expect("a GFlink job always carries a GPU rollup");
        let job_s = report.total.as_secs_f64();
        let mut sim: Fields = vec![
            ("sim_job_s", job_s),
            ("sim_emit_p50_ms", rollup.slo.total.p50().as_millis_f64()),
            ("sim_emit_p99_ms", rollup.slo.total.p99().as_millis_f64()),
            ("sim_sustained_eps", logical_records / job_s),
            ("flink.sim_io_s", report.acct.get(Phase::Io).as_secs_f64()),
            (
                "flink.sim_submit_s",
                report.acct.get(Phase::Submit).as_secs_f64(),
            ),
            (
                "flink.sim_schedule_s",
                report.acct.get(Phase::Schedule).as_secs_f64(),
            ),
            (
                "flink.sim_shuffle_s",
                report.acct.get(Phase::Shuffle).as_secs_f64(),
            ),
            (
                "jobsched.queue_p50_ms",
                rollup.slo.queued.p50().as_millis_f64(),
            ),
            (
                "jobsched.queue_p99_ms",
                rollup.slo.queued.p99().as_millis_f64(),
            ),
            ("jobsched.parked_works", rollup.parked_works as f64),
            ("jobsched.park_delay_s", rollup.park_delay.as_secs_f64()),
            (
                "gstream.work_p50_ms",
                rollup.slo.total.p50().as_millis_f64(),
            ),
            (
                "gstream.work_p99_ms",
                rollup.slo.total.p99().as_millis_f64(),
            ),
        ];
        sim.extend(stream_fields(None));
        let fabric = fabric_fields(self.fabric(), report.finished_at);
        let failed = field(&fabric, "recovery.works_failed") as u64;
        sim.extend(fabric);
        Measured {
            completed: rollup.works + rollup.cpu_works,
            failed,
            sim,
            digests: vec![("result", run.digest.to_bits())],
        }
    }

    fn measure_mix(&self, q6: &WindowedRun, q13: &QueryRun) -> Measured {
        let end = q6.report.finished_at.max(q13.report.finished_at);
        let emit = emit_latencies(q6);
        let mut works = q6.report.latency_hist.clone();
        works.merge(&q13.report.latency_hist);
        let lost = (q6.report.lost.len() + q13.report.lost.len()) as u64;
        let mut sim: Fields = vec![
            ("sim_job_s", end.as_secs_f64()),
            ("sim_emit_p50_ms", quantile(&emit, 0.50).as_millis_f64()),
            ("sim_emit_p99_ms", quantile(&emit, 0.99).as_millis_f64()),
            ("flink.sim_io_s", 0.0),
            ("flink.sim_submit_s", 0.0),
            ("flink.sim_schedule_s", 0.0),
            ("flink.sim_shuffle_s", 0.0),
            // The streaming path reports no per-work queue wait.
            ("jobsched.queue_p50_ms", 0.0),
            ("jobsched.queue_p99_ms", 0.0),
            (
                "jobsched.parked_works",
                (q6.report.parked_works + q13.report.parked_works) as f64,
            ),
            (
                "jobsched.park_delay_s",
                (q6.report.park_delay + q13.report.park_delay).as_secs_f64(),
            ),
            ("gstream.work_p50_ms", works.p50().as_millis_f64()),
            ("gstream.work_p99_ms", works.p99().as_millis_f64()),
            (
                "mix.q6_pane_p99_ms",
                q6.report.latency_hist.p99().as_millis_f64(),
            ),
            (
                "mix.q13_batch_p99_ms",
                q13.report.latency_hist.p99().as_millis_f64(),
            ),
            ("mix.q13_batches", q13.report.batches as f64),
        ];
        sim.extend(stream_fields(Some((q6, lost))));
        sim.extend(fabric_fields(self.fabric(), end));
        Measured {
            completed: (q6.report.batches + q13.report.batches) as u64,
            failed: lost,
            sim,
            digests: vec![
                ("q6", q6.digest()),
                ("q6_watermarks", q6.watermark_digest()),
                ("q13", q13.digest),
                ("q13_rows", q13.rows),
            ],
        }
    }
}

/// The value of `name` in `fields`.
pub fn field(fields: &Fields, name: &str) -> f64 {
    fields
        .iter()
        .find(|(k, _)| *k == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

/// Window-layer values: the q6 tenant and its lost-unit count, or zeros
/// for a batch job.
fn stream_fields(q6: Option<(&WindowedRun, u64)>) -> Fields {
    let Some((q6, lost)) = q6 else {
        return [
            "stream.panes",
            "stream.outputs",
            "stream.watermarks",
            "stream.late_records",
            "stream.pane_p99_ms",
            "stream.lost_panes",
        ]
        .into_iter()
        .map(|k| (k, 0.0))
        .collect();
    };
    vec![
        ("stream.panes", q6.report.batches as f64),
        ("stream.outputs", q6.windows.len() as f64),
        ("stream.watermarks", q6.watermarks.len() as f64),
        ("stream.late_records", q6.report.late_records as f64),
        (
            "stream.pane_p99_ms",
            q6.report.latency_hist.p99().as_millis_f64(),
        ),
        ("stream.lost_panes", lost as f64),
    ]
}

/// Fabric-wide counters summed over every worker and device: gstream
/// stealing, the cache regions, the pinned pool, the devices, recovery.
fn fabric_fields(fabric: &GpuFabric, horizon: SimTime) -> Fields {
    fabric.with_managers(|managers| {
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        let (mut launches, mut h2d, mut d2h) = (0u64, 0u64, 0u64);
        let (mut kernel_busy, mut util, mut devices) = (SimTime::ZERO, 0.0, 0usize);
        let (mut steals, mut pinned_hits, mut pinned_misses) = (0u64, 0u64, 0u64);
        let (mut retries, mut works_failed) = (0u64, 0u64);
        for m in managers.iter() {
            for g in 0..m.gpu_count() {
                let (h, mi, e) = m.cache_stats(g);
                hits += h;
                misses += mi;
                evictions += e;
                let dev = m.gpu(g);
                let (l, up, down) = dev.stats();
                launches += l;
                h2d += up;
                d2h += down;
                kernel_busy += dev.kernel_busy();
                util += dev.kernel_utilization(horizon);
                devices += 1;
            }
            steals += m.steals();
            let pinned = m.pinned_stats();
            pinned_hits += pinned.hits;
            pinned_misses += pinned.misses;
            let ledger = m.fault_ledger();
            retries += ledger.retries;
            works_failed += ledger.works_failed;
        }
        vec![
            ("gstream.steals", steals as f64),
            ("cache.hits", hits as f64),
            ("cache.misses", misses as f64),
            ("cache.evictions", evictions as f64),
            ("cache.hit_ratio", ratio(hits, misses)),
            ("memory.pinned_hit_ratio", ratio(pinned_hits, pinned_misses)),
            ("gpu.h2d_bytes", h2d as f64),
            ("gpu.d2h_bytes", d2h as f64),
            ("gpu.kernel_launches", launches as f64),
            ("gpu.kernel_busy_s", kernel_busy.as_secs_f64()),
            ("gpu.util_mean", util / devices.max(1) as f64),
            ("recovery.retries", retries as f64),
            ("recovery.works_failed", works_failed as f64),
        ]
    })
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Simulated latency from each window's event-time end to its emission,
/// sorted. Unlike the pane latency this includes the watermark wait.
fn emit_latencies(run: &WindowedRun) -> Vec<SimTime> {
    let mut out: Vec<SimTime> = run
        .windows
        .iter()
        .map(|w| w.fired_at.saturating_sub(w.span.end))
        .collect();
    out.sort_unstable();
    out
}

/// Nearest-rank quantile of a sorted sample (zero when empty).
fn quantile(sorted: &[SimTime], q: f64) -> SimTime {
    if sorted.is_empty() {
        return SimTime::ZERO;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn batch_baseline(run: AppRun) -> (f64, Digests) {
    (
        run.report.total.as_secs_f64(),
        vec![("result", run.digest.to_bits())],
    )
}

/// One rung of the sustained-rate ladder.
pub struct Rung {
    pub events_per_sec: f64,
    pub healthy: bool,
    pub lost: usize,
    pub emit_p99_ms: f64,
    pub last_over_mean: f64,
}

/// Offer q6 alone at ascending rates, each on a fresh fabric, and stop at
/// the first unhealthy rung. A rung is healthy when no pane is lost, the
/// last pane's latency is within [`SUSTAIN_FACTOR`] of the mean and the
/// emission p99 is within [`EMIT_P99_LIMIT`]. Health is judged here, not
/// by `StreamReport::sustained`, which reports a run that lost every pane
/// as sustained.
pub fn ladder(seed: u64) -> Vec<Rung> {
    let mut rungs = Vec::new();
    for rate in LADDER_RATES {
        let mut cfg = NexmarkConfig::standard(seed);
        cfg.events_per_sec = rate;
        cfg.duration = LADDER_DURATION;
        let fabric = stream_fabric();
        nexmark::register_kernels(&fabric);
        let rung = match nexmark::q6(&StreamEnv::gpu(&fabric), &cfg) {
            Ok(run) => {
                let mean = run.report.latency.mean();
                let last = run.report.last_latency.as_secs_f64();
                let last_over_mean = if mean > 0.0 {
                    last / mean
                } else {
                    f64::INFINITY
                };
                let p99 = quantile(&emit_latencies(&run), 0.99);
                Rung {
                    events_per_sec: rate,
                    healthy: run.report.lost.is_empty()
                        && !run.windows.is_empty()
                        && last_over_mean <= SUSTAIN_FACTOR
                        && p99 <= EMIT_P99_LIMIT,
                    lost: run.report.lost.len(),
                    emit_p99_ms: p99.as_millis_f64(),
                    last_over_mean,
                }
            }
            Err(_) => Rung {
                events_per_sec: rate,
                healthy: false,
                lost: 0,
                emit_p99_ms: f64::NAN,
                last_over_mean: f64::NAN,
            },
        };
        let healthy = rung.healthy;
        rungs.push(rung);
        if !healthy {
            break;
        }
    }
    rungs
}
