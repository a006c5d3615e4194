//! Observe once: every discrete occurrence in a worker's GPU manager — a
//! fault, a retry, a steal, a placement, a cache event, a checkpoint — is
//! one [`Occurrence`] handed to [`Emitter::emit`]. The fault ledgers, the
//! session mirrors, the metrics series, the flight recorder and the trace
//! are its projections, decided here kind by kind (DESIGN.md §10 lists
//! the table).
//!
//! Ledger bumps are **double-entry**: they land on the worker ledger and
//! on the sessions the occurrence charges — the owning job, or every open
//! session for device-scoped kinds (a dead device is every tenant's
//! problem). A site pays one call and no branch: counter handles are
//! no-ops until the metrics plane is attached, recorder events are built
//! only while it is, and trace events (with their `format!`ed arguments)
//! only while tracing is on.

use crate::gwork::CacheKey;
use crate::recovery::FailReason;
use crate::session::{JobId, JobSession};
use gflink_sim::trace::{cpu_pid, gpu_pid, stream_tid, Cat, TraceEvent, TID_DEVICE};
use gflink_sim::{
    Counter, FaultKind, FaultLedger, Gauge, Histogram, Metrics, RecEvent, RecKind, SimTime, Tracer,
};
use std::collections::BTreeMap;

/// What happened. Names are borrowed from the site.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Kind<'a> {
    /// A scripted fault fired on the device (device-scoped).
    FaultInjected(FaultKind),
    /// The device fell off the bus (device-scoped).
    DeviceLost,
    /// The device entered the degraded regime (device-scoped).
    DeviceDegraded,
    /// A device joined the complement (device-scoped).
    MemberJoined,
    /// A device left the complement gracefully (device-scoped).
    MemberLeft,
    /// The job lost this many cached blocks with a departing device.
    Invalidated(u64),
    /// A transient kernel fault hit a member on this stream.
    Transient(usize),
    /// A scripted hang wedged the flight on this stream.
    Hung(usize),
    /// The watchdog declared a wedged flight hung.
    HangDetected,
    /// A work goes back through placement after a recoverable failure;
    /// `attempt` is the attempt the retry will be.
    Retry { op: &'a str, attempt: u32 },
    /// An in-flight work re-enters placement off a departing device.
    Evacuated,
    /// A queued work moves off a departing device.
    StealOnDrain,
    /// A work is abandoned.
    Failed {
        op: &'a str,
        retries: u32,
        reason: &'a FailReason,
    },
    /// A work ran on the host CPU pool because no GPU was left.
    Fallback(HostRun<'a>),
    /// A submission was satisfied from a restored checkpoint.
    WorkRestored,
    /// This many works were still parked when their job was torn down.
    ParkedAbandoned(u64),
    /// A work entered Alg. 5.1 placement.
    Dispatched,
    /// A work's D2H landed.
    Completed,
    /// A submission was penned; the worker's pen depth afterwards.
    Penned(u64),
    /// A penned work was released after `delay`.
    PenReleased { delay: SimTime, depth: u64 },
    /// Alg. 5.2: `stream` stole a foreign queue's head.
    Steal { stream: usize, op: &'a str },
    /// A fused batch of `works` members was dispatched, saving `saved` of
    /// per-copy setup on its upload.
    Batched { works: u64, saved: SimTime },
    /// A fused batch's readback saved this much per-copy setup.
    AlphaSaved(SimTime),
    /// The hybrid cost model kept a work on the GPU.
    HybridGpu,
    /// The hybrid cost model ran a work on the host CPU pool.
    HybridCpu(HostRun<'a>),
    /// The hybrid cost model split a block across CPU and GPU.
    HybridSplit,
    /// A hybrid-placed execution scored the model with this relative error.
    ModelScored(f64),
    /// A cached input was resident.
    CacheHit(CacheKey),
    /// A cacheable input had to be copied.
    CacheMiss(CacheKey),
    /// A cache entry was evicted under pressure.
    Evicted,
    /// A completion's end-to-end latency breached the SLO.
    SloBreach(SimTime),
    /// An operator invocation wrote `n` snapshots of `bytes` in total.
    Checkpointed { n: u64, bytes: u64 },
    /// The job restored a snapshot covering this many blocks.
    SnapshotRestored(u64),
}

/// One kernel execution on the host slot pool.
#[derive(Clone, Copy, Debug)]
pub(crate) struct HostRun<'a> {
    pub(crate) op: &'a str,
    pub(crate) slot: usize,
    pub(crate) start: SimTime,
    pub(crate) end: SimTime,
}

/// One occurrence: when, on which device, whose, and what.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Occurrence<'a> {
    pub(crate) at: SimTime,
    pub(crate) gpu: Option<usize>,
    pub(crate) job: Option<JobId>,
    pub(crate) kind: Kind<'a>,
}

impl<'a> Kind<'a> {
    /// This kind, happening at `at`.
    pub(crate) fn at(self, at: SimTime) -> Occurrence<'a> {
        Occurrence {
            at,
            gpu: None,
            job: None,
            kind: self,
        }
    }
}

impl Occurrence<'_> {
    /// Locate the occurrence on device `gpu`.
    pub(crate) fn on(mut self, gpu: usize) -> Self {
        self.gpu = Some(gpu);
        self
    }

    /// Attribute the occurrence to `job`.
    pub(crate) fn of(mut self, job: JobId) -> Self {
        self.job = Some(job);
        self
    }
}

/// The sessions an occurrence may charge, as the site holds them.
pub(crate) enum Tenants<'s> {
    /// Every open session: device-scoped kinds charge them all, the rest
    /// look up the occurrence's job.
    All(&'s mut BTreeMap<JobId, JobSession>),
    /// The owning job's session, already borrowed at the site.
    One(&'s mut JobSession),
    /// No session is involved.
    None,
}

impl Tenants<'_> {
    fn each(&mut self, job: Option<JobId>, every: bool, mut f: impl FnMut(&mut JobSession)) {
        match self {
            Tenants::All(map) if every => map.values_mut().for_each(f),
            Tenants::All(map) => {
                if let Some(s) = job.and_then(|j| map.get_mut(&j)) {
                    f(s);
                }
            }
            Tenants::One(s) => f(s),
            Tenants::None => {}
        }
    }
}

/// A fault-ledger field, in its series' registration order.
#[derive(Clone, Copy)]
enum Field {
    Retries,
    TransientFaults,
    HangsDetected,
    StealsOnDrain,
    CacheInvalidations,
    FaultsInjected,
    GpusLost,
    GpusDegraded,
    MembersJoined,
    MembersLeft,
    WorksRestored,
    WorksFailed,
    CpuFallbacks,
    ParkedAbandoned,
}

/// `(field, help)` per [`Field`]; the series is `gflink_{field}_total`.
const LEDGER: [(&str, &str); 14] = [
    ("retries", "Work retries scheduled"),
    ("transient_faults", "Transient kernel faults recovered"),
    ("hangs_detected", "Hung kernels detected"),
    ("steals_on_drain", "Works stolen off a dying device"),
    (
        "cache_invalidations",
        "Cache entries invalidated by device loss",
    ),
    ("faults_injected", "Faults injected"),
    ("gpus_lost", "Devices lost"),
    ("gpus_degraded", "Devices degraded"),
    ("members_joined", "Elastic joins applied"),
    ("members_left", "Elastic leaves applied"),
    (
        "works_restored",
        "Works satisfied from a restored checkpoint",
    ),
    ("works_failed", "Works abandoned"),
    ("cpu_fallbacks", "Works executed on the host CPU"),
    ("parked_abandoned", "Parked works abandoned at job teardown"),
];

impl Field {
    fn of(self, l: &mut FaultLedger) -> &mut u64 {
        match self {
            Field::Retries => &mut l.retries,
            Field::TransientFaults => &mut l.transient_faults,
            Field::HangsDetected => &mut l.hangs_detected,
            Field::StealsOnDrain => &mut l.steals_on_drain,
            Field::CacheInvalidations => &mut l.cache_invalidations,
            Field::FaultsInjected => &mut l.faults_injected,
            Field::GpusLost => &mut l.gpus_lost,
            Field::GpusDegraded => &mut l.gpus_degraded,
            Field::MembersJoined => &mut l.members_joined,
            Field::MembersLeft => &mut l.members_left,
            Field::WorksRestored => &mut l.works_restored,
            Field::WorksFailed => &mut l.works_failed,
            Field::CpuFallbacks => &mut l.cpu_fallbacks,
            Field::ParkedAbandoned => &mut l.parked_abandoned,
        }
    }
}

impl Kind<'_> {
    /// Ledger column: the field bumped, and by how much.
    fn ledger(&self) -> Option<(Field, u64)> {
        Some(match *self {
            Kind::Retry { .. } | Kind::Evacuated => (Field::Retries, 1),
            Kind::Transient(_) => (Field::TransientFaults, 1),
            Kind::HangDetected => (Field::HangsDetected, 1),
            Kind::StealOnDrain => (Field::StealsOnDrain, 1),
            Kind::Invalidated(n) => (Field::CacheInvalidations, n),
            Kind::FaultInjected(_) => (Field::FaultsInjected, 1),
            Kind::DeviceLost => (Field::GpusLost, 1),
            Kind::DeviceDegraded => (Field::GpusDegraded, 1),
            Kind::MemberJoined => (Field::MembersJoined, 1),
            Kind::MemberLeft => (Field::MembersLeft, 1),
            Kind::WorkRestored => (Field::WorksRestored, 1),
            Kind::Failed { .. } => (Field::WorksFailed, 1),
            Kind::Fallback(_) => (Field::CpuFallbacks, 1),
            Kind::ParkedAbandoned(n) => (Field::ParkedAbandoned, n),
            _ => return None,
        })
    }

    /// Scope column: device-scoped kinds charge every open session.
    fn every_session(&self) -> bool {
        matches!(
            self,
            Kind::FaultInjected(_)
                | Kind::DeviceLost
                | Kind::DeviceDegraded
                | Kind::MemberJoined
                | Kind::MemberLeft
        )
    }

    /// Session-mirror column: the session's rollup fields.
    fn mirror(&self, s: &mut JobSession) {
        let r = &mut s.rollup;
        match *self {
            Kind::Penned(_) => r.parked_works += 1,
            Kind::PenReleased { delay, .. } => {
                r.park_delay += delay;
                r.slo.pen.record(delay);
            }
            Kind::Steal { .. } => r.steals += 1,
            Kind::Batched { works, saved } => {
                r.batches += 1;
                r.batched_works += works;
                r.alpha_saved += saved;
                r.batch_size.add(works as f64);
            }
            Kind::AlphaSaved(saved) => r.alpha_saved += saved,
            Kind::HybridGpu => r.hybrid_gpu += 1,
            Kind::HybridCpu(_) => r.hybrid_cpu += 1,
            Kind::HybridSplit => r.hybrid_splits += 1,
            Kind::ModelScored(rel) => r.hybrid_err.record_nanos((rel * 10_000.0) as u64),
            _ => {}
        }
    }

    /// Recorder column: the event kind and its detail value.
    fn record(&self) -> Option<(RecKind, u64)> {
        Some(match *self {
            Kind::FaultInjected(_) => (RecKind::FaultInjected, 0),
            Kind::DeviceLost => (RecKind::DeviceLost, 0),
            Kind::DeviceDegraded => (RecKind::DeviceDegraded, 0),
            Kind::MemberJoined => (RecKind::MemberJoined, 0),
            Kind::MemberLeft => (RecKind::MemberLeft, 0),
            Kind::Transient(_) => (RecKind::TransientFault, 0),
            Kind::HangDetected => (RecKind::HangDetected, 0),
            Kind::Retry { attempt, .. } => (RecKind::Retry, u64::from(attempt)),
            Kind::StealOnDrain => (RecKind::StealOnDrain, 0),
            Kind::Failed { retries, .. } => (RecKind::WorkFailed, u64::from(retries)),
            Kind::Fallback(_) => (RecKind::CpuFallback, 0),
            Kind::HybridCpu(_) => (RecKind::HybridCpu, 0),
            Kind::Penned(_) => (RecKind::WorkPenned, 0),
            Kind::SloBreach(total) => (RecKind::SloBreach, total.as_nanos()),
            Kind::Checkpointed { n, .. } if n > 0 => (RecKind::CheckpointWritten, n),
            Kind::SnapshotRestored(blocks) => (RecKind::SnapshotRestored, blocks),
            _ => return None,
        })
    }
}

/// The pre-registered series the registry column feeds.
#[derive(Default)]
struct Series {
    /// One counter per [`Field`].
    ledger: [Counter; 14],
    dispatched: Counter,
    completed: Counter,
    steals: Counter,
    penned: Counter,
    pen_depth: Gauge,
    pen_delay: Histogram,
    hybrid_gpu: Counter,
    hybrid_cpu: Counter,
    hybrid_splits: Counter,
    model_err: Gauge,
    /// Per-GPU (hits, misses, evictions).
    cache: Vec<(Counter, Counter, Counter)>,
}

/// One worker's emission point: the worker-side state the projections
/// keep, and the one [`Emitter::emit`] that applies them.
pub(crate) struct Emitter {
    worker: usize,
    tracer: Tracer,
    metrics: Metrics,
    /// Worker-global ledger: the sum over every session's ledger for
    /// work-scoped fields, single-entry for device-scoped ones.
    ledger: FaultLedger,
    /// Alg. 5.2 steals from foreign queues.
    steals: u64,
    /// Per-GPU cumulative (hits, misses) drawn as the trace's counter
    /// tracks; advanced only while tracing.
    cache_track: Vec<(u64, u64)>,
    m: Series,
}

impl Emitter {
    pub(crate) fn new(worker: usize, gpus: usize) -> Self {
        Emitter {
            worker,
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
            ledger: FaultLedger::default(),
            steals: 0,
            cache_track: vec![(0, 0); gpus],
            m: Series {
                cache: vec![Default::default(); gpus],
                ..Series::default()
            },
        }
    }

    pub(crate) fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attach the metrics plane. Series are registered by
    /// [`register_device`](Self::register_device) per GPU, then
    /// [`register_worker`](Self::register_worker), so the coordinator can
    /// interleave them with the device engines' own series.
    pub(crate) fn set_metrics(&mut self, metrics: &Metrics) {
        self.metrics = metrics.clone();
    }

    /// Register device `gpu`'s cache series.
    pub(crate) fn register_device(&mut self, gpu: usize) {
        let labels = format!("{{worker=\"{}\",gpu=\"{gpu}\"}}", self.worker);
        let c = |name: &str, help: &str| self.metrics.counter(&format!("{name}{labels}"), help);
        self.m.cache[gpu] = (
            c("gflink_cache_hits_total", "GPU cache region hits"),
            c("gflink_cache_misses_total", "GPU cache region misses"),
            c("gflink_cache_evictions_total", "GPU cache region evictions"),
        );
    }

    /// Register the worker's scheduling, placement and ledger series.
    pub(crate) fn register_worker(&mut self) {
        let l = format!("{{worker=\"{}\"}}", self.worker);
        let metrics = &self.metrics;
        let name = |series: &str| format!("{series}{l}");
        let c = |series: &str, help: &str| metrics.counter(&name(series), help);
        let m = &mut self.m;
        m.dispatched = c(
            "gflink_works_dispatched_total",
            "Works entering Alg. 5.1 placement (including retries)",
        );
        m.completed = c("gflink_works_completed_total", "Works whose D2H landed");
        m.steals = c("gflink_steals_total", "Alg. 5.2 steals from foreign queues");
        m.penned = c(
            "gflink_works_penned_total",
            "Submissions parked in the backpressure pen",
        );
        m.pen_depth = metrics.gauge(
            &name("gflink_pen_depth"),
            "Works currently parked in backpressure pens",
        );
        m.pen_delay = metrics.histogram(&name("gflink_pen_delay"), "Pen residency before release");
        m.hybrid_gpu = c(
            "gflink_hybrid_gpu_total",
            "Works the hybrid cost model placed on a GPU",
        );
        m.hybrid_cpu = c(
            "gflink_hybrid_cpu_total",
            "Works the hybrid cost model placed on the host CPU",
        );
        m.hybrid_splits = c(
            "gflink_hybrid_splits_total",
            "Blocks the hybrid cost model split across CPU and GPU",
        );
        m.model_err = metrics.gauge(
            &name("gflink_hybrid_model_error_permille"),
            "Relative prediction error of the last hybrid completion (permille)",
        );
        for (cell, (field, help)) in m.ledger.iter_mut().zip(LEDGER) {
            *cell = c(&format!("gflink_{field}_total"), help);
        }
    }

    /// A device joined: grow the per-GPU state and, with the plane on,
    /// register its cache series.
    pub(crate) fn grow_device(&mut self) {
        self.cache_track.push((0, 0));
        self.m.cache.push(Default::default());
        if self.metrics.enabled() {
            self.register_device(self.m.cache.len() - 1);
        }
    }

    /// Worker-global cumulative fault/recovery counters.
    pub(crate) fn ledger(&self) -> FaultLedger {
        self.ledger
    }

    /// Alg. 5.2 steals from foreign queues.
    pub(crate) fn steals(&self) -> u64 {
        self.steals
    }

    /// Apply every projection of `o`: the ledgers and mirrors of the
    /// sessions it charges, the registry series, the flight recorder
    /// (metrics on) and the trace (tracing on).
    pub(crate) fn emit(&mut self, mut tenants: Tenants<'_>, o: Occurrence<'_>) {
        let ledger = o.kind.ledger();
        if let Some((f, n)) = ledger {
            *f.of(&mut self.ledger) += n;
            self.m.ledger[f as usize].add(n);
        }
        if let Kind::Steal { .. } = o.kind {
            self.steals += 1;
        }
        self.feed(&o);
        let rec = if self.metrics.enabled() {
            o.kind.record().map(|(kind, a)| {
                let ev = RecEvent::new(o.at, kind, self.worker as u32).with_detail(a);
                o.gpu.map_or(ev, |g| ev.on_gpu(g))
            })
        } else {
            None
        };
        tenants.each(o.job, o.kind.every_session(), |s| {
            if let Some((f, n)) = ledger {
                *f.of(s.ledger_mut()) += n;
            }
            o.kind.mirror(s);
            if let Some(ev) = rec {
                s.recorder.push(ev);
            }
        });
        if self.tracer.enabled() {
            self.trace(&o);
        }
    }

    /// Registry column, beyond the ledger counters.
    fn feed(&self, o: &Occurrence<'_>) {
        let m = &self.m;
        match o.kind {
            Kind::Dispatched | Kind::Completed => {
                match o.kind {
                    Kind::Dispatched => m.dispatched.inc(),
                    _ => m.completed.inc(),
                }
                self.metrics.maybe_sample(o.at);
            }
            Kind::Penned(depth) => {
                m.penned.inc();
                m.pen_depth.set(depth);
            }
            Kind::PenReleased { delay, depth } => {
                m.pen_delay.record(delay);
                m.pen_depth.set(depth);
            }
            Kind::Steal { .. } => m.steals.inc(),
            Kind::HybridGpu => m.hybrid_gpu.inc(),
            Kind::HybridCpu(_) => m.hybrid_cpu.inc(),
            Kind::HybridSplit => m.hybrid_splits.inc(),
            Kind::ModelScored(rel) => m.model_err.set((rel * 1_000.0) as u64),
            Kind::CacheHit(_) | Kind::CacheMiss(_) | Kind::Evicted => {
                let (hits, misses, evictions) = &m.cache[o.gpu.expect("cache events are located")];
                match o.kind {
                    Kind::CacheHit(_) => hits.inc(),
                    Kind::CacheMiss(_) => misses.inc(),
                    _ => evictions.inc(),
                }
            }
            // Fabric-wide job series, registered on first use. Every worker
            // emits a job's checkpoint occurrences (each keeps its own
            // ring); worker 0's emission feeds the series, so the fabric
            // counts each once.
            Kind::Checkpointed { n, bytes } if self.worker == 0 && self.metrics.enabled() => {
                let c = |name, help| self.metrics.counter(name, help);
                c("gflink_checkpoints_total", "Durable job snapshots written").add(n);
                c(
                    "gflink_checkpoint_bytes_total",
                    "Bytes written to durable snapshots",
                )
                .add(bytes);
            }
            Kind::SnapshotRestored(_) if self.worker == 0 && self.metrics.enabled() => {
                let help = "Jobs restored from a durable snapshot";
                self.metrics.counter("gflink_restores_total", help).inc();
            }
            _ => {}
        }
    }

    /// Trace column; runs only while tracing is on.
    fn trace(&mut self, o: &Occurrence<'_>) {
        let w = self.worker;
        let job = o.job.map_or(0, |j| j.0);
        let on_gpu = |tid: u32, cat: Cat, name: &'static str| {
            let gpu = o.gpu.expect("device-located occurrence");
            TraceEvent::instant(gpu_pid(w, gpu), tid, cat, name, o.at)
        };
        let on_cpu = |name: &'static str| {
            TraceEvent::instant(cpu_pid(w), TID_DEVICE, Cat::Recovery, name, o.at)
        };
        let ev = match o.kind {
            Kind::FaultInjected(kind) => on_gpu(TID_DEVICE, Cat::Recovery, "fault-injected")
                .with_arg("kind", format!("{kind:?}")),
            Kind::MemberJoined => on_gpu(TID_DEVICE, Cat::Recovery, "join"),
            Kind::Transient(s) => on_gpu(stream_tid(s), Cat::Recovery, "transient").with_job(job),
            Kind::Hung(s) => on_gpu(stream_tid(s), Cat::Recovery, "hang").with_job(job),
            Kind::Steal { stream, op } => on_gpu(stream_tid(stream), Cat::Queue, "steal")
                .with_job(job)
                .with_arg("op", op),
            Kind::Retry { op, attempt } => on_cpu("retry")
                .with_job(job)
                .with_arg("op", op)
                .with_arg("attempt", attempt),
            Kind::Failed { op, reason, .. } => on_cpu("work-failed")
                .with_arg("op", op)
                .with_arg("reason", format!("{reason:?}")),
            Kind::Fallback(run) | Kind::HybridCpu(run) => {
                let (key, value) = match o.kind {
                    Kind::Fallback(_) => ("fallback", "all GPUs lost"),
                    _ => ("placement", "hybrid"),
                };
                let tid = 1 + run.slot as u32;
                TraceEvent::span(cpu_pid(w), tid, Cat::Cpu, run.op, run.start, run.end)
                    .with_job(job)
                    .with_arg(key, value)
            }
            Kind::CacheHit(key) | Kind::CacheMiss(key) => {
                let hit = matches!(o.kind, Kind::CacheHit(_));
                let track = &mut self.cache_track[o.gpu.expect("cache events are located")];
                if hit {
                    track.0 += 1;
                } else {
                    track.1 += 1;
                }
                let (hits, misses) = *track;
                let counter = |name, v: u64| {
                    let pid = gpu_pid(w, o.gpu.unwrap_or_default());
                    TraceEvent::counter(pid, TID_DEVICE, Cat::Cache, name, o.at, v as i64)
                };
                self.tracer.record(
                    on_gpu(TID_DEVICE, Cat::Cache, if hit { "hit" } else { "miss" })
                        .with_arg("partition", key.partition)
                        .with_arg("block", key.block),
                );
                self.tracer.record(counter("cache_hits", hits));
                counter("cache_misses", misses)
            }
            Kind::Evicted => on_gpu(TID_DEVICE, Cat::Cache, "evict"),
            _ => return,
        };
        self.tracer.record(ev);
    }
}
