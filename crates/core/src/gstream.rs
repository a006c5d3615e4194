#![warn(clippy::too_many_lines)]

//! GStreamManager (§5): the stream-scheduling half of the GPUManager.
//!
//! Owns the stream bulks (`stream_busy_until`), the per-GPU FIFO GWork
//! queues (the GWork Pool), and the in-flight table, and drives the
//! three-stage H2D → Kernel → D2H pipeline through the event loop:
//!
//! * [`GWork` scheduling](crate::scheduling::SchedulingPolicy) follows
//!   Algorithm 5.1: prefer the GPU whose cache region already holds the
//!   most of this job's input bytes; fall back to the bulk with the most
//!   idle streams; if no stream is idle, park the work in a per-GPU queue.
//! * When a stream frees, it **steals** per Algorithm 5.2: its own GPU's
//!   queue first, then the longest queue.
//! * A dispatch puts one `Flight` on a stream: a lone work, or a fused
//!   transfer batch formed by [`crate::fused`]. One set of stage handlers
//!   drives both; the member count picks per-work or fused copies.
//! * Memory work (staging, allocation, reclaim) is delegated to the
//!   [`GMemoryManager`]; retry routing to the [`RecoveryManager`]; every
//!   occurrence worth observing to the [`Emitter`].
//!
//! Handlers act on an [`Engine`] — the borrow-split view of the
//! coordinator's other halves — so each event can touch the memory
//! manager, the recovery manager, and the owning job's session at once.

use crate::config::{BatchConfig, GpuWorkerConfig, HybridConfig};
use crate::costmodel::{decide, CostModel, HybridRoute};
use crate::fused::{Parked, PendingBatch};
use crate::gmemory::{pro_rata, GMemoryManager};
use crate::gwork::{CacheKey, CompletedWork, GWork, WorkBuf, WorkTiming};
use crate::jobsched::{JobScheduler, PennedWork};
use crate::occurrence::{Emitter, Kind, Occurrence, Tenants};
use crate::recovery::{FailReason, ManagerError, RecoveryManager, CPU_FALLBACK_GPU};
use crate::scheduling::SchedulingPolicy;
use crate::session::{JobId, JobSession};
use gflink_gpu::{DevBufId, GpuModel, KernelRegistry};
use gflink_memory::{ArenaBuf, HBuffer, PinnedLease};
use gflink_sim::trace::{gpu_pid, stream_tid, Cat, TraceEvent};
use gflink_sim::{EventQueue, FaultKind, MembershipKind, SimRng, SimTime, Tracer};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The event vocabulary of one drain.
pub(crate) enum Ev {
    /// A work enters Alg. 5.1 placement. Stored inline: the slab-backed
    /// [`EventQueue`] keeps payloads out of its heap, so boxing here would
    /// only add a pointer chase per submission.
    Submit {
        /// Owning job.
        job: JobId,
        /// Original submit instant (queueing-delay reporting).
        submitted: SimTime,
        /// Retry count so far.
        retries: u32,
        /// The work itself.
        work: GWork,
    },
    /// A stream came free; run Alg. 5.2.
    StreamFree {
        /// Device index.
        gpu: usize,
        /// Stream index within the device's bulk.
        stream: usize,
    },
    /// A flight's H2D stage finished; launch its members' kernels.
    KernelStage(u64),
    /// A flight's kernels finished; start its D2H transfer.
    D2hStage(u64),
    /// A scripted fault fires.
    Fault(FaultKind),
    /// Watchdog: check whether flight `id` is still wedged in a kernel.
    HangCheck(u64),
    /// A pending transfer batch's accumulation window expired; flush it to
    /// the queue unless epoch `epoch` was already flushed or superseded.
    FlushBatch {
        /// Device whose batcher the window belongs to.
        gpu: usize,
        /// Identity of the pending batch the window was armed for.
        epoch: u64,
    },
    /// A scripted membership event fires: a device joins the live fabric
    /// or gracefully leaves it.
    Membership(MembershipKind),
}

impl Ev {
    /// Build a [`Ev::Submit`] — every (re-)submission path funnels through
    /// here so call sites stay one line.
    pub(crate) fn submit(job: JobId, submitted: SimTime, retries: u32, work: GWork) -> Ev {
        Ev::Submit {
            job,
            submitted,
            retries,
            work,
        }
    }
}

/// A parked work in a GPU's FIFO queue, with its owning job, original
/// submit instant (for queueing-delay reporting) and retry count.
pub(crate) struct QueuedWork {
    pub(crate) job: JobId,
    pub(crate) submitted: SimTime,
    pub(crate) retries: u32,
    pub(crate) work: GWork,
}

/// Generation-tagged slab of flights keyed by the packed ids that ride in
/// pipeline-stage events: `(gen << 32) | slot`. A stage event that fires
/// after its flight was recovered (device loss) carries a stale generation
/// and misses cleanly — exactly the semantics the old `HashMap<u64, _>`
/// gave via never-reused keys, but lookups are now an array index with no
/// hashing on the per-work hot path (ISSUE 7).
pub(crate) struct FlightTable<T> {
    slots: Vec<(u32, Option<T>)>,
    free: Vec<u32>,
    live: usize,
}

impl<T> FlightTable<T> {
    pub(crate) fn new() -> Self {
        FlightTable {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Park a flight, minting its event id. Re-inserting after a `remove`
    /// mints a *new* id (the slot's generation advanced), so events armed
    /// against the old id stay dead.
    pub(crate) fn insert(&mut self, v: T) -> u64 {
        self.live += 1;
        match self.free.pop() {
            Some(slot) => {
                let e = &mut self.slots[slot as usize];
                e.1 = Some(v);
                ((e.0 as u64) << 32) | slot as u64
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("flight table overflow");
                self.slots.push((0, Some(v)));
                slot as u64
            }
        }
    }

    /// Take a flight out; `None` when the id's generation is stale (the
    /// flight was already recovered) — callers treat that as "event no
    /// longer applies".
    pub(crate) fn remove(&mut self, id: u64) -> Option<T> {
        let (slot, gen) = ((id & u32::MAX as u64) as usize, (id >> 32) as u32);
        let e = self.slots.get_mut(slot)?;
        if e.0 != gen {
            return None;
        }
        let v = e.1.take()?;
        e.0 = e.0.wrapping_add(1);
        self.free.push(slot as u32);
        self.live -= 1;
        Some(v)
    }

    /// Peek at a live flight (stale ids miss).
    pub(crate) fn get(&self, id: u64) -> Option<&T> {
        let (slot, gen) = ((id & u32::MAX as u64) as usize, (id >> 32) as u32);
        let e = self.slots.get(slot)?;
        if e.0 != gen {
            return None;
        }
        e.1.as_ref()
    }

    /// Mutable peek at a live flight (stale ids miss).
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let (slot, gen) = ((id & u32::MAX as u64) as usize, (id >> 32) as u32);
        let e = self.slots.get_mut(slot)?;
        if e.0 != gen {
            return None;
        }
        e.1.as_mut()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Live flights with their current ids, in slot order. Callers that
    /// need a deterministic *creation* order (device-loss recovery) sort by
    /// the flights' own monotonic `seq`, not by id — slots are reused.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, (g, v))| v.as_ref().map(|v| (((*g as u64) << 32) | i as u64, v)))
    }
}

/// One work riding a [`Flight`]: the per-work state carried between
/// pipeline-stage events.
pub(crate) struct Member {
    pub(crate) work: GWork,
    retries: u32,
    pub(crate) timing: WorkTiming,
    /// Device buffers, one per work input, in input order.
    pub(crate) dev_inputs: Vec<DevBufId>,
    /// Buffers to free once the work leaves the device.
    pub(crate) transient: Vec<DevBufId>,
    /// Cache keys pinned for the duration of this work.
    pub(crate) pinned: Vec<CacheKey>,
    /// The output buffer; `None` until allocated.
    pub(crate) out_dev: Option<DevBufId>,
    emitted: Option<usize>,
    /// When this member's kernel completes (a flight's kernels run
    /// back-to-back on its stream).
    kernel_end: SimTime,
}

impl Member {
    fn new(qw: QueuedWork, t: SimTime) -> Member {
        Member {
            work: qw.work,
            retries: qw.retries,
            timing: WorkTiming {
                submitted: qw.submitted,
                started: t,
                ..WorkTiming::default()
            },
            dev_inputs: Vec::new(),
            transient: Vec::new(),
            pinned: Vec::new(),
            out_dev: None,
            emitted: None,
            kernel_end: SimTime::ZERO,
        }
    }

    /// Logical bytes the D2H moves: variable-output kernels transfer only
    /// the emitted fraction of the declared capacity.
    fn d2h_bytes(&self) -> u64 {
        match self.emitted {
            Some(e) => {
                (self.work.out_logical_bytes as u128 * e as u128
                    / self.work.out_records.max(1) as u128) as u64
            }
            None => self.work.out_logical_bytes,
        }
    }
}

/// Works sharing one stream through the H2D → kernel → D2H pipeline. A
/// lone work copies its inputs one call each and reads back alone; a fused
/// batch (two or more members, see [`crate::fused`]) pays one per-call α
/// per direction for the whole group.
struct Flight {
    /// Monotonic creation stamp: device-loss recovery re-submits flights in
    /// `seq` order so the recovered event sequence is bit-identical to the
    /// pre-slab (never-reused-id) behaviour.
    seq: u64,
    job: JobId,
    gpu: usize,
    stream: usize,
    /// Pinned-pool staging leases backing the H2D; released once the copy
    /// has landed (kernel-stage entry) or the flight is recovered.
    staging: Vec<PinnedLease>,
    /// An injected hang wedged this flight's kernels; only the watchdog
    /// recovers it.
    hung: bool,
    members: Vec<Member>,
}

/// Synthetic block-index floor for split children: adaptive block sizing
/// mints child tags descending from `u32::MAX`, so any tag at or above this
/// is a child. A real fabric would need ~4 billion blocks in one partition
/// to collide with the reserved range.
pub(crate) const SPLIT_TAG_MIN: u32 = u32::MAX - (1 << 20);

/// Whether a tag names a synthetic split child rather than a caller block.
pub(crate) fn is_split_child(tag: (u32, u32)) -> bool {
    tag.1 >= SPLIT_TAG_MIN
}

/// Reassembly state for one split block: children write their output
/// slices here; when the last lands, a single parent [`CompletedWork`] is
/// emitted so consumers never see the split.
struct MergeEntry {
    name: std::sync::Arc<str>,
    tag: (u32, u32),
    out: Vec<u8>,
    remaining: usize,
    /// Accumulated parent timing: stage times/bytes sum, `started` is the
    /// earliest child start, `completed` the latest child landing (or
    /// failure instant).
    timing: WorkTiming,
    /// Device attribution: the GPU child's placement when one ran there,
    /// else [`CPU_FALLBACK_GPU`].
    gpu: usize,
    stream: usize,
    emitted: Option<usize>,
    /// First terminal child failure: the parent block fails as a unit
    /// (under its own tag) once the sibling also lands; any completed
    /// sibling output is discarded.
    failed: Option<FailReason>,
    /// Highest retry count either child reached (parent failure
    /// attribution).
    retries: u32,
    /// The two reserved child block indices, returned to the free list
    /// when the merge closes.
    child_tags: [u32; 2],
}

/// Where a split child's completion folds back in.
struct ChildRoute {
    merge: u64,
    /// Byte offset of the child's output slice in the parent output.
    offset: usize,
}

/// Borrow-split view of the coordinator handed to every event handler:
/// the two sibling managers, the emitter, the open sessions, the kernel
/// registry and the worker's RNG — everything an event may need besides
/// the stream state the [`GStreamManager`] itself owns.
pub(crate) struct Engine<'a> {
    pub gmem: &'a mut GMemoryManager,
    pub recovery: &'a mut RecoveryManager,
    pub obs: &'a mut Emitter,
    pub sessions: &'a mut BTreeMap<JobId, JobSession>,
    pub registry: &'a Arc<Mutex<KernelRegistry>>,
    pub rng: &'a mut SimRng,
}

impl Engine<'_> {
    /// Report `o` against the open sessions ([`Emitter::emit`]).
    fn emit(&mut self, o: Occurrence<'_>) {
        self.obs.emit(Tenants::All(self.sessions), o);
    }
}

/// The stream-scheduling half of the per-worker GPU manager.
pub struct GStreamManager {
    pub(crate) streams_per_gpu: usize,
    pub(crate) policy: SchedulingPolicy,
    /// `stream_busy_until[g][s]`
    pub(crate) stream_busy_until: Vec<Vec<SimTime>>,
    /// The multi-job scheduler: per-GPU GWork queues (the GWork Pool) under
    /// the configured cross-job arbitration, plus backpressure pens.
    pub(crate) sched: JobScheduler,
    rr_counter: usize,
    pub(crate) executed_per_gpu: Vec<u64>,
    flights: FlightTable<Flight>,
    pub(crate) next_flight: u64,
    /// Member lists of finished flights, recycled so a one-work flight
    /// allocates none.
    member_vecs: Vec<Vec<Member>>,
    /// Scratch for a D2H's result leases, recycled across flights.
    d2h_outs: Vec<ArenaBuf>,
    /// Small-GWork transfer batching policy.
    pub(crate) batch_cfg: BatchConfig,
    /// One accumulating batch per GPU; works that would otherwise queue
    /// land here until a flush condition fires.
    pub(crate) batchers: Vec<Option<PendingBatch>>,
    /// Monotonic identity for pending batches (guards stale FlushBatch
    /// window events).
    pub(crate) batch_epoch: u64,
    /// Fused batches dispatched.
    pub(crate) fused_batches: u64,
    /// Works that travelled inside fused batches.
    pub(crate) fused_works: u64,
    /// Per-call transfer overhead (α) saved by fusing copies.
    pub(crate) alpha_saved: SimTime,
    pub(crate) tracer: Tracer,
    pub(crate) worker_id: usize,
    /// The online cost model; `Some` only under
    /// [`SchedulingPolicy::HybridCostModel`], so every other policy pays
    /// nothing on the hot path.
    cost_model: Option<CostModel>,
    hybrid_cfg: HybridConfig,
    /// Split blocks awaiting child completions.
    merges: FlightTable<MergeEntry>,
    /// `(job, child tag)` → merge routing.
    split_children: BTreeMap<(JobId, (u32, u32)), ChildRoute>,
    /// Next synthetic child block index, descending from `u32::MAX`.
    next_child_tag: u32,
    /// Child block indices reclaimed from closed merges, reused before
    /// `next_child_tag` descends further — a long-lived worker cycles a
    /// handful of indices instead of exhausting the reserved range.
    free_child_tags: Vec<u32>,
}

impl GStreamManager {
    pub(crate) fn new(cfg: &GpuWorkerConfig) -> Self {
        let n_gpus = cfg.models.len();
        let streams_per_gpu = cfg.streams_per_gpu;
        let policy = cfg.scheduling;
        GStreamManager {
            streams_per_gpu,
            policy,
            stream_busy_until: vec![vec![SimTime::ZERO; streams_per_gpu]; n_gpus],
            sched: JobScheduler::new(n_gpus, cfg.scheduler.clone()),
            rr_counter: 0,
            executed_per_gpu: vec![0; n_gpus],
            flights: FlightTable::new(),
            next_flight: 1,
            member_vecs: Vec::new(),
            d2h_outs: Vec::new(),
            batch_cfg: cfg.transfer.batch.clone(),
            batchers: (0..n_gpus).map(|_| None).collect(),
            batch_epoch: 0,
            fused_batches: 0,
            fused_works: 0,
            alpha_saved: SimTime::ZERO,
            tracer: Tracer::disabled(),
            worker_id: 0,
            cost_model: (policy == SchedulingPolicy::HybridCostModel).then(|| CostModel::new(cfg)),
            hybrid_cfg: cfg.hybrid.clone(),
            merges: FlightTable::new(),
            split_children: BTreeMap::new(),
            next_child_tag: u32::MAX,
            free_child_tags: Vec::new(),
        }
    }

    /// Attach a tracer and name one trace thread per CUDA stream. Stage
    /// spans land on these threads; overlapping spans across streams of one
    /// GPU are the §5 pipelining made visible.
    pub(crate) fn set_tracer(&mut self, tracer: Tracer, worker_id: usize) {
        self.tracer = tracer;
        self.worker_id = worker_id;
        for g in 0..self.stream_busy_until.len() {
            self.name_streams(g);
        }
    }

    /// Name device `g`'s stream threads in the trace.
    fn name_streams(&self, g: usize) {
        if self.tracer.enabled() {
            for s in 0..self.streams_per_gpu {
                let (pid, tid) = (gpu_pid(self.worker_id, g), stream_tid(s));
                self.tracer.name_thread(pid, tid, &format!("stream {s}"));
            }
        }
    }

    /// Emit one pipeline-stage span for a flight on its stream's thread,
    /// tagged with the owning job and the operator name — or, for a fused
    /// batch, `fused-batch` and the number of `works` the span covers.
    fn trace_stage(
        &self,
        fl: &Flight,
        stage: &'static str,
        start: SimTime,
        end: SimTime,
        works: usize,
    ) {
        if self.tracer.enabled() {
            let span = TraceEvent::span(
                gpu_pid(self.worker_id, fl.gpu),
                stream_tid(fl.stream),
                Cat::Stage,
                stage,
                start,
                end,
            )
            .with_job(fl.job.0);
            self.tracer.record(match &fl.members[..] {
                [mb] => span.with_arg("op", &mb.work.name),
                _ => span
                    .with_arg("op", "fused-batch")
                    .with_arg("works", works as u64),
            });
        }
    }

    /// Free `stream` at `at` and wake it then (Alg. 5.2).
    fn free_stream(&mut self, gpu: usize, stream: usize, at: SimTime, q: &mut EventQueue<Ev>) {
        self.stream_busy_until[gpu][stream] = at;
        q.schedule(at, Ev::StreamFree { gpu, stream });
    }

    /// Streams per GPU (the stream bulk size).
    pub fn streams_per_gpu(&self) -> usize {
        self.streams_per_gpu
    }

    /// Fused transfer batches dispatched.
    pub fn fused_batches(&self) -> u64 {
        self.fused_batches
    }

    /// Works that travelled inside fused batches.
    pub fn fused_works(&self) -> u64 {
        self.fused_works
    }

    /// Per-call transfer overhead (α) saved by fusing copies.
    pub fn alpha_saved(&self) -> SimTime {
        self.alpha_saved
    }

    /// Works executed per GPU (load-balance reporting). CPU-fallback works
    /// are not attributed to any GPU.
    pub fn executed_per_gpu(&self) -> &[u64] {
        &self.executed_per_gpu
    }

    pub(crate) fn busy_until(&self, gpu: usize, stream: usize) -> SimTime {
        self.stream_busy_until[gpu][stream]
    }

    /// True when no work is queued, penned, accumulating in a batcher, or
    /// in flight (end-of-drain invariant).
    pub(crate) fn is_idle(&self) -> bool {
        self.sched.is_idle()
            && self.flights.is_empty()
            && self.merges.is_empty()
            && self.batchers.iter().all(Option::is_none)
    }

    /// Alg. 5.1, step 1: the GPU whose cache region holds the most of this
    /// work's cached input bytes (`GID`), or `None` when nothing is
    /// resident. Only the owning job's regions are consulted — another
    /// tenant caching the same key must not attract this job's work. Lost
    /// devices never win: their regions were invalidated at loss.
    fn locality_gpu(gmem: &GMemoryManager, session: &JobSession, work: &GWork) -> Option<usize> {
        let keys: Vec<_> = work.inputs.iter().filter_map(|b| b.cache_key).collect();
        if keys.is_empty() {
            return None;
        }
        let mut best: Option<(usize, u64)> = None;
        for (g, region) in session.regions.iter().enumerate() {
            if !gmem.usable(g) {
                continue;
            }
            let bytes = region.resident_bytes(&keys);
            if bytes > 0 && best.map(|(_, b)| bytes > b).unwrap_or(true) {
                best = Some((g, bytes));
            }
        }
        best.map(|(g, _)| g)
    }

    fn idle_streams(&self, gpu: usize, t: SimTime) -> usize {
        self.stream_busy_until[gpu]
            .iter()
            .filter(|&&b| b <= t)
            .count()
    }

    pub(crate) fn first_idle_stream(&self, gpu: usize, t: SimTime) -> Option<usize> {
        self.stream_busy_until[gpu].iter().position(|&b| b <= t)
    }

    /// The bulk with the most idle streams (ties → lowest GPU index). A
    /// lost device's streams are pinned busy forever, so it never appears.
    pub(crate) fn most_idle_bulk(&self, t: SimTime) -> Option<(usize, usize)> {
        let (mut best_g, mut best_idle) = (0usize, 0usize);
        for g in 0..self.stream_busy_until.len() {
            let idle = self.idle_streams(g, t);
            if idle > best_idle {
                best_g = g;
                best_idle = idle;
            }
        }
        if best_idle == 0 {
            None
        } else {
            Some((best_g, self.first_idle_stream(best_g, t).unwrap()))
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn dispatch(
        &mut self,
        eng: &mut Engine<'_>,
        job: JobId,
        mut work: GWork,
        submitted: SimTime,
        retries: u32,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        eng.emit(Kind::Dispatched.at(t));
        // Intern the kernel name once at submission: spec-built works
        // arrive pre-resolved; hand-built ones resolve here. Every later
        // stage dispatches by id (an array index, no string hashing).
        if !work.kernel.is_resolved() {
            if let Some(id) = eng.registry.lock().resolve(&work.execute_name) {
                work.kernel = id;
            }
        }
        // Last resort: every GPU is lost. The host pool runs the work, or
        // fails it for good when the CPU fallback is disabled (a split
        // child fails its parent block, not its synthetic tag).
        if eng.gmem.usable_gpus() == 0 {
            let run = if eng.recovery.host_enabled() {
                let he = eng.recovery.exec_on_host(eng.registry, &work, t);
                he.map_err(FailReason::Fatal)
            } else {
                Err(FailReason::NoUsableDevice)
            };
            match run {
                Ok(he) => {
                    eng.emit(Kind::Fallback(he.run(&work.name)).at(t).of(job));
                    self.deliver(eng, job, he.into_completed(work, submitted));
                }
                Err(reason) => self.fail_terminal(eng, job, work, submitted, retries, t, reason),
            }
            return;
        }
        // Backpressure: a job already holding its queued-bytes cap parks
        // its further first-attempt submissions in the pen; they re-enter
        // as the job's backlog drains (see `on_stream_free`) or at drain
        // quiescence (`flush_parked`). Retries bypass the pen: they were
        // admitted once and recovery must not deadlock behind admission.
        // Split children bypass it too: their parent block was already
        // admitted, and penning half a split would leave its merge entry
        // hostage to admission.
        if retries == 0 && !is_split_child(work.tag) && self.sched.should_pen(job) {
            self.sched.pen_work(
                job,
                PennedWork {
                    arrived: t,
                    submitted,
                    retries,
                    work,
                },
            );
            let depth = self.sched.pen_depth_total() as u64;
            eng.emit(Kind::Penned(depth).at(t).of(job));
            return;
        }
        // Hybrid placement (ISSUE 9): the cost model compares the best GPU
        // route against the host CPU pool. GPU wins fall straight through
        // into Alg. 5.1 below — code-identical placement, so when the GPUs
        // win every prediction the timeline matches `LocalityAware` bit for
        // bit. Retries and split children always stay on the GPU path.
        if self.cost_model.is_some()
            && retries == 0
            && !is_split_child(work.tag)
            && eng.recovery.host_enabled()
        {
            match self.hybrid_route(eng, job, &work, t) {
                HybridRoute::Gpu => {
                    eng.emit(Kind::HybridGpu.at(t).of(job));
                }
                HybridRoute::Cpu => {
                    self.run_hybrid_cpu(eng, job, work, submitted, retries, t, q);
                    return;
                }
                HybridRoute::Split { cpu_n } => {
                    self.split_and_dispatch(eng, job, work, submitted, cpu_n, t, q);
                    return;
                }
            }
        }
        // Alg. 5.1 placement: an idle (gpu, stream) to run on now, or the
        // queue to park in.
        let placed: Result<(usize, usize), usize> = match self.policy {
            SchedulingPolicy::LocalityAware
            | SchedulingPolicy::LocalityNoSteal
            | SchedulingPolicy::HybridCostModel => {
                let gid = {
                    let session = eng.sessions.get(&job).expect("session open");
                    Self::locality_gpu(eng.gmem, session, &work)
                };
                let idle = match gid {
                    Some(g) => self
                        .first_idle_stream(g, t)
                        .map(|s| (g, s))
                        .or_else(|| self.most_idle_bulk(t)),
                    None => self.most_idle_bulk(t),
                };
                // Lines 11–18: park in GID's queue, or the least loaded
                // usable queue when GID is null.
                idle.ok_or_else(|| match gid.filter(|&g| eng.gmem.usable(g)) {
                    Some(g) => g,
                    None => (0..self.sched.num_queues())
                        .filter(|&i| eng.gmem.usable(i))
                        .min_by_key(|&i| self.sched.queue_len(i))
                        .unwrap(),
                })
            }
            SchedulingPolicy::RoundRobin => {
                let n = self.sched.num_queues();
                let mut g = self.rr_counter % n;
                self.rr_counter += 1;
                while !eng.gmem.usable(g) {
                    g = (g + 1) % n;
                }
                self.first_idle_stream(g, t).map(|s| (g, s)).ok_or(g)
            }
            SchedulingPolicy::Random { .. } => {
                let usable: Vec<usize> = (0..self.sched.num_queues())
                    .filter(|&g| eng.gmem.usable(g))
                    .collect();
                let g = usable[eng.rng.gen_index(usable.len())];
                self.first_idle_stream(g, t).map(|s| (g, s)).ok_or(g)
            }
        };
        let qw = QueuedWork {
            job,
            submitted,
            retries,
            work,
        };
        match placed {
            Ok((g, s)) => self.execute(eng, Parked::Single(qw), g, s, t, q),
            // Small works that would queue anyway accumulate into a fused
            // transfer batch instead — batching only ever engages under
            // backlog, so an idle fabric sees zero added latency.
            Err(g) if self.policy.locality_aware() && self.batchable(&qw) => {
                self.enqueue_batched(qw, g, t, q)
            }
            Err(g) => self.sched.park(g, Parked::Single(qw)),
        }
    }

    /// Algorithm 5.2: a freed stream pulls from its own GPU's queue first,
    /// then from the fullest queue.
    pub(crate) fn on_stream_free(
        &mut self,
        eng: &mut Engine<'_>,
        gpu: usize,
        stream: usize,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        if !eng.gmem.usable(gpu) || self.stream_busy_until[gpu][stream] > t {
            // Lost device, or a superseded wake-up: the stream picked up new
            // work since this event was scheduled.
            return;
        }
        // An idle stream never waits out a batching window: if its queue is
        // dry but its batcher holds works, flush them now.
        if self.sched.queue_is_empty(gpu) && self.batchers[gpu].is_some() {
            self.flush_batcher(gpu);
        }
        let mut stolen = false;
        let work = {
            let weight_of = |j: JobId| {
                eng.sessions
                    .get(&j)
                    .map(|s| u64::from(s.weight))
                    .unwrap_or(1)
            };
            if let Some(w) = self.sched.pop(gpu, &weight_of) {
                Some(w)
            } else if self.policy.steals() {
                let victim = (0..self.sched.num_queues())
                    .max_by_key(|&i| self.sched.queue_len(i))
                    .filter(|&i| !self.sched.queue_is_empty(i));
                victim.map(|i| {
                    stolen = true;
                    self.sched.pop(i, &weight_of).expect("victim non-empty")
                })
            } else {
                None
            }
        };
        if let Some(parked) = work {
            // One dequeue of a job's work may free room under its
            // queued-bytes cap: release one penned work back into the loop.
            if let Some(penned) = self.sched.try_release(parked.job()) {
                let delay = t.saturating_sub(penned.arrived);
                let depth = self.sched.pen_depth_total() as u64;
                eng.emit(Kind::PenReleased { delay, depth }.at(t).of(parked.job()));
                q.schedule(
                    t,
                    Ev::submit(parked.job(), penned.submitted, penned.retries, penned.work),
                );
            }
            if stolen {
                let op = parked.op_label();
                eng.emit(Kind::Steal { stream, op }.at(t).on(gpu).of(parked.job()));
            }
            self.execute(eng, parked, gpu, stream, t, q);
        }
    }

    /// Dispatch a parked entry onto (gpu, stream) as one flight: the stream
    /// is occupied until the flight's D2H completes. Pipeline stages are
    /// driven by events so a stage's engine reservation is made only when
    /// its stream dependency resolves — exactly how CUDA feeds its
    /// copy/compute engines. Eagerly reserving all three stages here would
    /// block later H2Ds behind not-yet-runnable D2H slots on
    /// single-copy-engine devices.
    ///
    /// A lone work stages its inputs one copy each; a fused batch stages
    /// every member through one fused copy. On a staging or allocation
    /// failure every member unwinds and retries on its own.
    fn execute(
        &mut self,
        eng: &mut Engine<'_>,
        parked: Parked,
        gpu: usize,
        stream: usize,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        let job = parked.job();
        let mut members = self.member_vecs.pop().unwrap_or_default();
        match parked {
            Parked::Single(qw) => members.push(Member::new(qw, t)),
            Parked::Fused(b) => members.extend(b.members.into_iter().map(|qw| Member::new(qw, t))),
        }
        let session = eng.sessions.get_mut(&job).expect("session open");
        let region = &mut session.regions[gpu];
        // Stage 1: H2D (GMemoryManager; skipped per-buffer on cache hits).
        let mut staged = match &mut members[..] {
            [mb] => eng.gmem.stage_inputs(eng.obs, region, gpu, job.0, mb, t),
            all => eng.gmem.stage_fused(eng.obs, region, gpu, job.0, all, t),
        };
        // Output allocation (GMemoryManager, automatic).
        if staged.failure.is_none() {
            for mb in &mut members {
                match eng.gmem.alloc_output(eng.obs, region, gpu, &mb.work, t) {
                    Ok(dev) => mb.out_dev = Some(dev),
                    Err(e) => {
                        staged.failure = Some(e);
                        break;
                    }
                }
            }
        }
        if let Some(err) = staged.failure {
            // Unwind the partial placement; the stream was never occupied.
            eng.gmem.release_staging(staged.staging);
            for mb in members.drain(..) {
                self.fail_member(eng, job, gpu, mb, t, FailReason::Fatal(err.clone()), q);
            }
            self.member_vecs.push(members);
            return;
        }
        // Occupy the stream until the final stage completes.
        self.stream_busy_until[gpu][stream] = SimTime::MAX;
        let n = members.len();
        if n > 1 {
            let saved = eng
                .gmem
                .gpu(gpu)
                .transfer_path()
                .alpha_saved(staged.upload_calls);
            self.fused_batches += 1;
            self.fused_works += n as u64;
            self.alpha_saved += saved;
            let works = n as u64;
            let batched = Kind::Batched { works, saved }.at(t).of(job);
            eng.obs.emit(Tenants::One(session), batched);
        }
        let fl = Flight {
            seq: self.next_flight,
            job,
            gpu,
            stream,
            staging: staged.staging,
            hung: false,
            members,
        };
        self.next_flight += 1;
        // Stage-1 span: from the first copy's engine start to the last
        // copy's landing. A full cache hit issues no copies — no span.
        if let Some(start) = staged.h2d_start {
            self.trace_stage(&fl, "h2d", start, staged.kernel_earliest, n);
        }
        let id = self.flights.insert(fl);
        q.schedule(staged.kernel_earliest, Ev::KernelStage(id));
    }

    /// Stage 2: once the inputs are device-resident, the members' kernels
    /// launch back-to-back on the flight's stream. A member whose kernel is
    /// not registered fails alone; a device error recovers the whole
    /// flight. A scripted hang then wedges the flight, or each member rolls
    /// for a transient fault of its own.
    pub(crate) fn on_kernel_stage(
        &mut self,
        eng: &mut Engine<'_>,
        id: u64,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        let Some(mut fl) = self.flights.remove(id) else {
            // The flight was recovered (device loss) before this fired.
            return;
        };
        // The H2D has landed: the staging buffers go back to the pool.
        eng.gmem.release_staging(std::mem::take(&mut fl.staging));
        let mut cursor = t;
        let mut i = 0;
        while i < fl.members.len() {
            let mb = &mut fl.members[i];
            let kernel = eng.registry.lock().get_by_id(mb.work.kernel).cloned();
            let Some(kernel) = kernel else {
                let err = ManagerError::KernelMissing {
                    name: mb.work.execute_name.to_string(),
                };
                let mb = fl.members.remove(i);
                self.fail_member(eng, fl.job, fl.gpu, mb, t, FailReason::Fatal(err), q);
                continue;
            };
            let launched = eng.gmem.gpu_mut(fl.gpu).launch(
                cursor,
                &kernel,
                &mb.dev_inputs,
                &[mb.out_dev.expect("allocated at dispatch")],
                &mb.work.params,
                mb.work.n_actual,
                mb.work.n_logical,
                mb.work.coalescing,
            );
            let (kres, profile) = match launched {
                Ok(v) => v,
                Err(e) => {
                    // The device failed underneath the flight (defensive:
                    // loss recovery normally removes flights first).
                    self.recover_flight(
                        eng,
                        fl,
                        t,
                        t,
                        FailReason::Fatal(ManagerError::Device(e)),
                        q,
                    );
                    return;
                }
            };
            mb.timing.kernel = kres.duration();
            mb.emitted = profile.emitted;
            mb.kernel_end = kres.end;
            cursor = kres.end;
            self.trace_stage(&fl, "kernel", kres.start, kres.end, 1);
            i += 1;
        }
        if fl.members.is_empty() {
            // No member launched: the stream frees at once.
            self.free_stream(fl.gpu, fl.stream, t, q);
            self.member_vecs.push(fl.members);
            return;
        }
        // Scripted hang: the kernels never complete; the stream stays
        // occupied until the watchdog recovers the flight.
        if eng.recovery.take_hang(fl.gpu) {
            fl.hung = true;
            eng.emit(Kind::Hung(fl.stream).at(t).on(fl.gpu).of(fl.job));
            let deadline = SimTime::from_nanos(
                t.as_nanos()
                    .saturating_add(eng.recovery.hang_timeout().as_nanos()),
            );
            let id = self.flights.insert(fl);
            q.schedule(deadline, Ev::HangCheck(id));
            return;
        }
        let faulted = self.roll_transients(eng, &mut fl, t);
        let d2h_at = fl.members.iter().map(|mb| mb.kernel_end).max();
        if d2h_at.is_none() {
            // Every member faulted: the stream frees at the (wasted)
            // kernel end.
            self.free_stream(fl.gpu, fl.stream, cursor, q);
        }
        // Faulted members go back through Alg. 5.1 for a fresh placement
        // after backoff.
        for mb in faulted {
            let at = mb.kernel_end.max(t);
            self.fail_member(eng, fl.job, fl.gpu, mb, at, FailReason::RetriesExhausted, q);
        }
        match d2h_at {
            Some(at) => {
                let id = self.flights.insert(fl);
                q.schedule(at, Ev::D2hStage(id));
            }
            None => self.member_vecs.push(fl.members),
        }
    }

    /// Transient fault injection, rolled member by member: scripted, or
    /// random at `failure_rate` (ECC error, lost context, a preempted
    /// device). Failure is detected at kernel completion. Returns the
    /// afflicted members, taken out of the flight.
    fn roll_transients(&self, eng: &mut Engine<'_>, fl: &mut Flight, t: SimTime) -> Vec<Member> {
        let mut faulted = Vec::new();
        let mut i = 0;
        while i < fl.members.len() {
            let scripted = eng.recovery.take_transient(fl.gpu);
            if !(scripted || eng.recovery.random_transient(&mut *eng.rng)) {
                i += 1;
                continue;
            }
            eng.emit(Kind::Transient(fl.stream).at(t).on(fl.gpu).of(fl.job));
            faulted.push(fl.members.remove(i));
        }
        faulted
    }

    /// Stage 3: results travel back — in one copy for a lone work, in one
    /// fused copy (one α) for a batch, split back per member by bytes — and
    /// the stream frees at the copy's end. Each member then completes on
    /// its own.
    pub(crate) fn on_d2h_stage(
        &mut self,
        eng: &mut Engine<'_>,
        id: u64,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        let Some(mut fl) = self.flights.remove(id) else {
            // The flight was recovered (device loss) before this fired.
            return;
        };
        let (job, gpu, stream, n) = (fl.job, fl.gpu, fl.stream, fl.members.len());
        // Result buffers are arena leases, recycled from earlier flights of
        // the same output size (zero-on-hit keeps a fused split
        // bit-identical to per-work fresh allocations).
        let mut outs = std::mem::take(&mut self.d2h_outs);
        outs.extend(
            fl.members
                .iter()
                .map(|mb| eng.gmem.lease_output(job.0, mb.work.out_actual_bytes)),
        );
        let dev = eng.gmem.gpu_mut(gpu);
        let out_dev = |mb: &Member| mb.out_dev.expect("allocated at dispatch");
        let copied = match (&fl.members[..], &mut outs[..]) {
            ([mb], [out]) => dev.copy_d2h(t, mb.d2h_bytes(), out_dev(mb), out),
            _ => {
                let mut items: Vec<(u64, DevBufId, &mut HBuffer)> = fl
                    .members
                    .iter()
                    .zip(outs.iter_mut())
                    .map(|(mb, h)| (mb.d2h_bytes(), out_dev(mb), &mut **h))
                    .collect();
                dev.copy_d2h_batch(t, &mut items)
            }
        };
        let r = match copied {
            Ok(r) => r,
            Err(e) => {
                // Defensive: loss recovery removes flights before this can
                // fire, but a failed readback still routes through retry.
                outs.clear();
                self.d2h_outs = outs;
                self.recover_flight(eng, fl, t, t, FailReason::Fatal(ManagerError::Device(e)), q);
                return;
            }
        };
        if n > 1 {
            let saved = eng.gmem.gpu(gpu).transfer_path().alpha_saved(n);
            self.alpha_saved += saved;
            eng.emit(Kind::AlphaSaved(saved).at(t).of(job));
        }
        self.trace_stage(&fl, "d2h", r.start, r.end, n);
        self.free_stream(gpu, stream, r.end, q);
        let total: u64 = fl.members.iter().map(Member::d2h_bytes).sum();
        for (mut mb, output) in fl.members.drain(..).zip(outs.drain(..)) {
            let bytes = mb.d2h_bytes();
            mb.timing.d2h = match n {
                1 => r.duration(),
                _ => pro_rata(r.duration(), bytes, total),
            };
            mb.timing.bytes_d2h = bytes;
            mb.timing.completed = r.end;
            self.complete(eng, job, gpu, stream, mb, output);
        }
        self.d2h_outs = outs;
        self.member_vecs.push(fl.members);
    }

    /// A member's results landed: release its device state, count it, feed
    /// the cost model and hand the completion to its consumer.
    fn complete(
        &mut self,
        eng: &mut Engine<'_>,
        job: JobId,
        gpu: usize,
        stream: usize,
        mut mb: Member,
        output: ArenaBuf,
    ) {
        // Automatic deallocation of transient buffers (§4.2.1) and
        // unpinning of the cached inputs.
        let session = eng.sessions.get_mut(&job).expect("session open");
        eng.gmem.reclaim(&mut session.regions[gpu], gpu, &mut mb);
        self.executed_per_gpu[gpu] += 1;
        eng.obs
            .emit(Tenants::None, Kind::Completed.at(mb.timing.completed));
        if let Some(cm) = self.cost_model.as_mut() {
            // Score the prediction against this completion first (the error
            // gauges the model as it stood), then fold the observation in.
            let (w, tm) = (&mb.work, &mb.timing);
            let kbytes = w.input_logical_bytes() + w.out_logical_bytes;
            let pred = cm.h2d_time(gpu, tm.bytes_h2d)
                + cm.gpu_kernel_time(gpu, w.kernel, kbytes)
                + cm.d2h_time(gpu, tm.bytes_d2h);
            let obs = tm.h2d + tm.kernel + tm.d2h;
            if !obs.is_zero() {
                let rel = crate::model::prediction_error(pred, obs);
                cm.observe_error(w.kernel, rel);
                let scored = Kind::ModelScored(rel).at(tm.completed);
                eng.obs.emit(Tenants::One(session), scored);
            }
            cm.observe_gpu_kernel(gpu, w.kernel, kbytes, tm.kernel);
            cm.observe_h2d(gpu, tm.bytes_h2d, tm.h2d);
            cm.observe_d2h(gpu, tm.bytes_d2h, tm.d2h);
        }
        let done = CompletedWork {
            name: mb.work.name,
            tag: mb.work.tag,
            gpu,
            stream,
            output,
            emitted: mb.emitted,
            timing: mb.timing,
        };
        self.deliver(eng, job, done);
    }

    /// A scripted fault fires.
    pub(crate) fn on_fault(
        &mut self,
        eng: &mut Engine<'_>,
        kind: FaultKind,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        let gpu = kind.gpu();
        assert!(
            gpu < eng.gmem.gpu_count(),
            "fault targets unknown device {gpu}"
        );
        eng.emit(Kind::FaultInjected(kind).at(t).on(gpu));
        match kind {
            FaultKind::GpuLost { .. } => {
                if eng.gmem.gpu(gpu).health().is_lost() {
                    return; // already gone; nothing more to lose
                }
                eng.emit(Kind::DeviceLost.at(t).on(gpu));
                eng.gmem.gpu_mut(gpu).mark_lost(t);
                Self::invalidate(eng, gpu, t);
                self.drain_device(eng, gpu, t, q);
            }
            FaultKind::GpuDegraded { throughput, .. } => {
                if eng.gmem.gpu(gpu).health().is_lost() {
                    return;
                }
                eng.emit(Kind::DeviceDegraded.at(t).on(gpu));
                eng.gmem.gpu_mut(gpu).degrade(t, throughput);
            }
            FaultKind::KernelTransient { .. } => {
                eng.recovery.arm_transient(gpu);
            }
            FaultKind::KernelHang { .. } => {
                eng.recovery.arm_hang(gpu);
            }
        }
    }

    /// Every open session loses its cache region on a departing device,
    /// graceful or not; each tenant's ledger records its own
    /// invalidations.
    fn invalidate(eng: &mut Engine<'_>, gpu: usize, t: SimTime) {
        for session in eng.sessions.values_mut() {
            let n = session.regions[gpu].invalidate_all() as u64;
            eng.obs
                .emit(Tenants::One(session), Kind::Invalidated(n).at(t).on(gpu));
        }
    }

    /// Evacuate a device that just left the live fabric (lost to a fault
    /// or gracefully retired): blacklist its streams, recover every member
    /// of its flights onto the event loop, and drain its queue — and any
    /// accumulating batch — onto the survivors.
    fn drain_device(
        &mut self,
        eng: &mut Engine<'_>,
        gpu: usize,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        // Blacklist: the device's streams never come free again.
        for s in 0..self.streams_per_gpu {
            self.stream_busy_until[gpu][s] = SimTime::MAX;
        }
        // Recover in-flight works in creation (`seq`) order so the
        // re-submit event sequence — and thus the timeline — matches the
        // pre-slab behaviour exactly (slot ids are reused; seqs are not).
        let mut ids: Vec<(u64, u64)> = self
            .flights
            .iter()
            .filter(|(_, fl)| fl.gpu == gpu)
            .map(|(id, fl)| (fl.seq, id))
            .collect();
        ids.sort_unstable();
        for (_, id) in ids {
            let mut fl = self.flights.remove(id).expect("id collected above");
            // Device buffers died with the device; nothing to reclaim.
            // Host-side staging leases survive and go back to the pool.
            // Loss is not the works' fault: each member re-enters
            // scheduling immediately and keeps its retry budget.
            eng.gmem.release_staging(std::mem::take(&mut fl.staging));
            for mb in fl.members {
                eng.emit(Kind::Evacuated.at(t).of(fl.job));
                q.schedule(
                    t,
                    Ev::submit(fl.job, mb.timing.submitted, mb.retries, mb.work),
                );
            }
        }
        // Drain the dead device's queue — and its accumulating
        // batch — onto the survivors.
        if self.batchers[gpu].is_some() {
            self.flush_batcher(gpu);
        }
        let queued: Vec<Parked> = self.sched.drain_queue(gpu);
        for parked in queued {
            for qw in parked.into_members() {
                eng.emit(Kind::StealOnDrain.at(t).on(gpu).of(qw.job));
                q.schedule(t, Ev::submit(qw.job, qw.submitted, qw.retries, qw.work));
            }
        }
    }

    /// A scripted membership event fires. A **join** appends a fresh device
    /// to the worker's complement — new stream bulk, new GWork queue, one
    /// new cache region per open session — and wakes its streams so Alg.
    /// 5.2 immediately rebalances queued backlog onto it. A **leave**
    /// gracefully retires the device: its cached blocks are invalidated,
    /// its in-flight and queued works are evacuated onto the survivors, and
    /// no fault is charged — the ledger records a membership change, not a
    /// failure.
    pub(crate) fn on_membership(
        &mut self,
        eng: &mut Engine<'_>,
        kind: MembershipKind,
        cfg: &GpuWorkerConfig,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        match kind {
            MembershipKind::Join => {
                // Joining devices cycle through the worker's model list,
                // exactly like initial construction.
                let model: GpuModel = cfg.models[eng.gmem.gpu_count() % cfg.models.len()];
                eng.obs.grow_device();
                let g = eng.gmem.join_device(model);
                eng.recovery.grow_device();
                if let Some(cm) = self.cost_model.as_mut() {
                    cm.grow(model);
                }
                eng.emit(Kind::MemberJoined.at(t).on(g));
                self.stream_busy_until
                    .push(vec![SimTime::ZERO; self.streams_per_gpu]);
                self.executed_per_gpu.push(0);
                self.batchers.push(None);
                self.sched.push_queue();
                for session in eng.sessions.values_mut() {
                    session.regions.push(eng.gmem.new_region_for(g));
                }
                self.name_streams(g);
                // Wake the new bulk: each fresh stream runs Alg. 5.2 and
                // pulls queued backlog onto the joined device.
                for s in 0..self.streams_per_gpu {
                    q.schedule(t, Ev::StreamFree { gpu: g, stream: s });
                }
                eng.gmem
                    .rebalance_regions(eng.sessions, cfg.scheduler.partition_cache);
            }
            MembershipKind::Leave { gpu } => {
                if gpu >= eng.gmem.gpu_count() || !eng.gmem.usable(gpu) {
                    return; // never joined, already lost, or already retired
                }
                eng.emit(Kind::MemberLeft.at(t).on(gpu));
                eng.gmem.retire_device(gpu, t);
                Self::invalidate(eng, gpu, t);
                self.drain_device(eng, gpu, t, q);
                eng.gmem
                    .rebalance_regions(eng.sessions, cfg.scheduler.partition_cache);
            }
        }
    }

    /// Drain-quiescence safety net for the backpressure pens: the event
    /// queue ran dry while works sat penned (their job's whole backlog
    /// executed straight off idle streams, so no dequeue ever released
    /// them). Re-inject every penned work at `t` and report whether the
    /// event loop must keep running. Penned works are therefore delayed —
    /// never dropped — even in degenerate schedules.
    pub(crate) fn flush_parked(
        &mut self,
        eng: &mut Engine<'_>,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) -> bool {
        let flushed = self.sched.flush_pens();
        if flushed.is_empty() {
            return false;
        }
        let depth = self.sched.pen_depth_total() as u64;
        for (job, p) in flushed {
            let delay = t.saturating_sub(p.arrived);
            eng.emit(Kind::PenReleased { delay, depth }.at(t).of(job));
            q.schedule(t, Ev::submit(job, p.submitted, p.retries, p.work));
        }
        true
    }

    /// The watchdog fires `hang_timeout` after a launch; a flight still
    /// wedged in its kernels is recovered and every member retried.
    pub(crate) fn on_hang_check(
        &mut self,
        eng: &mut Engine<'_>,
        id: u64,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        if !self.flights.get(id).is_some_and(|fl| fl.hung) {
            // Completed normally, or already recovered by device loss.
            return;
        }
        let fl = self.flights.remove(id).expect("checked above");
        eng.emit(Kind::HangDetected.at(t).on(fl.gpu).of(fl.job));
        self.recover_flight(eng, fl, t, t, FailReason::RetriesExhausted, q);
    }

    /// Common tail of every in-place flight recovery: free the flight's
    /// stream at `stream_free_at`, then unwind each member through
    /// retry-or-fail at `retry_at`.
    fn recover_flight(
        &mut self,
        eng: &mut Engine<'_>,
        mut fl: Flight,
        stream_free_at: SimTime,
        retry_at: SimTime,
        reason: FailReason,
        q: &mut EventQueue<Ev>,
    ) {
        eng.gmem.release_staging(std::mem::take(&mut fl.staging));
        self.free_stream(fl.gpu, fl.stream, stream_free_at, q);
        for mb in fl.members.drain(..) {
            self.fail_member(eng, fl.job, fl.gpu, mb, retry_at, reason.clone(), q);
        }
        self.member_vecs.push(fl.members);
    }

    /// Reclaim one member's buffers and pins, then route it through
    /// retry-or-fail at `at`.
    #[allow(clippy::too_many_arguments)]
    fn fail_member(
        &mut self,
        eng: &mut Engine<'_>,
        job: JobId,
        gpu: usize,
        mut mb: Member,
        at: SimTime,
        reason: FailReason,
        q: &mut EventQueue<Ev>,
    ) {
        let session = eng.sessions.get_mut(&job).expect("session open");
        eng.gmem.reclaim(&mut session.regions[gpu], gpu, &mut mb);
        let submitted = mb.timing.submitted;
        self.route_retry_or_fail(eng, job, mb.work, submitted, mb.retries, at, reason, q);
    }
}

/// Hybrid CPU+GPU placement (ISSUE 9): the cost-model routing, the host
/// execution path, and split-block reassembly.
impl GStreamManager {
    /// Decide where the cost model sends `work`: the best GPU route (Alg.
    /// 5.1 then picks the concrete device), the host CPU pool, or a split
    /// across both.
    fn hybrid_route(&self, eng: &Engine<'_>, job: JobId, work: &GWork, t: SimTime) -> HybridRoute {
        let cm = self.cost_model.as_ref().expect("hybrid policy active");
        let session = eng.sessions.get(&job).expect("session open");
        let kbytes = work.input_logical_bytes() + work.out_logical_bytes;
        let keys: Vec<CacheKey> = work.inputs.iter().filter_map(|b| b.cache_key).collect();
        let mut best: Option<SimTime> = None;
        for g in 0..self.stream_busy_until.len() {
            if !eng.gmem.usable(g) {
                continue;
            }
            // Cache-hit discount: resident input bytes skip the H2D.
            let resident = if keys.is_empty() {
                0
            } else {
                session.regions[g].resident_bytes(&keys)
            };
            let miss = work.input_logical_bytes().saturating_sub(resident);
            let kest = cm.gpu_kernel_time(g, work.kernel, kbytes);
            // Queue term of Eq. (1): an idle stream starts now; otherwise
            // the queued backlog shares the bulk's streams.
            let queue_wait = if self.first_idle_stream(g, t).is_some() {
                SimTime::ZERO
            } else {
                let depth = self.sched.queue_len(g) as u64 + 1;
                SimTime::from_nanos(
                    kest.as_nanos().saturating_mul(depth) / self.streams_per_gpu.max(1) as u64,
                )
            };
            let pred =
                queue_wait + cm.h2d_time(g, miss) + kest + cm.d2h_time(g, work.out_logical_bytes);
            if best.map(|b| pred < b).unwrap_or(true) {
                best = Some(pred);
            }
        }
        let Some(gpu_pred) = best else {
            return HybridRoute::Gpu; // no usable GPU: handled upstream
        };
        let cpu_pred = eng.recovery.host().backlog(t) + cm.host_kernel_time(work.kernel, kbytes);
        let splittable = self.split_eligible(eng, work).then_some(work.n_actual);
        decide(
            &self.hybrid_cfg,
            gpu_pred,
            cpu_pred,
            cm.error(work.kernel),
            splittable,
        )
    }

    /// Whether a block can be split element-wise: a kernel *declared*
    /// element-wise at registration, one output record per element, every
    /// input and the output dividing evenly by the element count, and both
    /// halves clearing the minimum split size. The registry declaration is
    /// load-bearing: shape divisibility alone cannot tell a true map from
    /// an operator whose shared side input (k-means centroids, SpMV row
    /// pointers) is coincidentally divisible — slicing those per-element
    /// would silently compute wrong results.
    fn split_eligible(&self, eng: &Engine<'_>, work: &GWork) -> bool {
        let n = work.n_actual;
        work.kernel.is_resolved()
            && n >= 2 * self.hybrid_cfg.min_split_elems.max(1)
            && work.out_records == n
            && work.out_actual_bytes.is_multiple_of(n)
            && work.out_logical_bytes.is_multiple_of(n as u64)
            && work.n_logical.is_multiple_of(n as u64)
            && work
                .inputs
                .iter()
                .all(|b| b.data.len().is_multiple_of(n) && b.logical_bytes.is_multiple_of(n as u64))
            && eng.registry.lock().is_elementwise(work.kernel)
    }

    /// Mint a synthetic child tag under `parent`'s partition: indices
    /// reclaimed from closed merges are reused first, then fresh ones
    /// descend from `u32::MAX` (see [`SPLIT_TAG_MIN`]).
    fn alloc_child_tag(&mut self, parent: (u32, u32)) -> (u32, u32) {
        let idx = match self.free_child_tags.pop() {
            Some(idx) => idx,
            None => {
                assert!(
                    self.next_child_tag >= SPLIT_TAG_MIN,
                    "split child tag space exhausted"
                );
                let idx = self.next_child_tag;
                self.next_child_tag -= 1;
                idx
            }
        };
        (parent.0, idx)
    }

    /// Build the child `GWork` covering elements `[start, start + count)`
    /// of `parent`. Child inputs are transient copies of the parent's
    /// slices — a child must not alias the parent's cache identity, or the
    /// partial block would poison later full-block cache hits.
    fn slice_work(parent: &GWork, start: usize, count: usize, tag: (u32, u32)) -> GWork {
        let n = parent.n_actual;
        let inputs = parent
            .inputs
            .iter()
            .map(|b| {
                let bpe = b.data.len() / n;
                let slice = &b.data.as_slice()[start * bpe..(start + count) * bpe];
                WorkBuf::transient(
                    Arc::new(HBuffer::from_bytes(slice)),
                    b.logical_bytes / n as u64 * count as u64,
                )
            })
            .collect();
        GWork {
            name: parent.name.clone(),
            execute_name: parent.execute_name.clone(),
            kernel: parent.kernel,
            ptx_path: parent.ptx_path.clone(),
            block_size: parent.block_size,
            grid_size: parent.grid_size,
            inputs,
            out_actual_bytes: parent.out_actual_bytes / n * count,
            out_logical_bytes: parent.out_logical_bytes / n as u64 * count as u64,
            out_records: count,
            params: parent.params.clone(),
            n_actual: count,
            n_logical: parent.n_logical / n as u64 * count as u64,
            coalescing: parent.coalescing,
            tag,
        }
    }

    /// Split `work` into a host child and a GPU child, register the merge
    /// entry, and dispatch both. Consumers only ever see the reassembled
    /// parent completion.
    #[allow(clippy::too_many_arguments)]
    fn split_and_dispatch(
        &mut self,
        eng: &mut Engine<'_>,
        job: JobId,
        work: GWork,
        submitted: SimTime,
        cpu_n: usize,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        eng.emit(Kind::HybridSplit.at(t).of(job));
        let n = work.n_actual;
        let out_per_elem = work.out_actual_bytes / n;
        let cpu_tag = self.alloc_child_tag(work.tag);
        let gpu_tag = self.alloc_child_tag(work.tag);
        let cpu_work = Self::slice_work(&work, 0, cpu_n, cpu_tag);
        let gpu_work = Self::slice_work(&work, cpu_n, n - cpu_n, gpu_tag);
        let merge = self.merges.insert(MergeEntry {
            name: work.name.clone(),
            tag: work.tag,
            out: vec![0u8; work.out_actual_bytes],
            remaining: 2,
            timing: WorkTiming {
                submitted,
                started: SimTime::MAX,
                ..WorkTiming::default()
            },
            gpu: CPU_FALLBACK_GPU,
            stream: 0,
            emitted: None,
            failed: None,
            retries: 0,
            child_tags: [cpu_tag.1, gpu_tag.1],
        });
        self.split_children
            .insert((job, cpu_tag), ChildRoute { merge, offset: 0 });
        self.split_children.insert(
            (job, gpu_tag),
            ChildRoute {
                merge,
                offset: cpu_n * out_per_elem,
            },
        );
        self.run_hybrid_cpu(eng, job, cpu_work, submitted, 0, t, q);
        self.dispatch(eng, job, gpu_work, submitted, 0, t, q);
    }

    /// Execute one work on the host CPU pool by cost-model choice: the same
    /// engine (and slot timelines) as the recovery fallback, but ledgered
    /// as a hybrid placement, not a fault.
    #[allow(clippy::too_many_arguments)]
    fn run_hybrid_cpu(
        &mut self,
        eng: &mut Engine<'_>,
        job: JobId,
        work: GWork,
        submitted: SimTime,
        retries: u32,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        // Predict before reserving the slot (the reservation moves the
        // backlog): execution-only, matching the GPU completion path where
        // queueing is excluded from both sides of the error.
        let kbytes = work.input_logical_bytes() + work.out_logical_bytes;
        let pred = self
            .cost_model
            .as_ref()
            .map(|cm| cm.host_kernel_time(work.kernel, kbytes));
        match eng.recovery.exec_on_host(eng.registry, &work, t) {
            Ok(he) => {
                let session = eng.sessions.get_mut(&job).expect("session open");
                let placed = Kind::HybridCpu(he.run(&work.name)).at(t).of(job);
                eng.obs.emit(Tenants::One(session), placed);
                if let Some(cm) = self.cost_model.as_mut() {
                    // Score the prediction against this execution first
                    // (the error gauges the model as it stood), then fold
                    // the observation in — the same discipline as the GPU
                    // completion path, so CPU-dominated workloads feed the
                    // error EWMA that shrinks risky split shares too.
                    let obs = he.end.saturating_sub(he.start);
                    if let Some(pred) = pred {
                        if !obs.is_zero() {
                            let rel = crate::model::prediction_error(pred, obs);
                            cm.observe_error(work.kernel, rel);
                            let scored = Kind::ModelScored(rel).at(he.end);
                            eng.obs.emit(Tenants::One(session), scored);
                        }
                    }
                    cm.observe_host_kernel(work.kernel, kbytes, obs);
                }
                let done = he.into_completed(work, submitted);
                self.deliver(eng, job, done);
            }
            Err(err) => {
                self.route_retry_or_fail(
                    eng,
                    job,
                    work,
                    submitted,
                    retries,
                    t,
                    FailReason::Fatal(err),
                    q,
                );
            }
        }
    }

    /// Route a completion to its consumer: ordinary works land in the
    /// session; split children fold into their merge entry, which emits the
    /// reassembled parent completion (or a single parent failure, if a
    /// sibling failed terminally) when the last child lands.
    fn deliver(&mut self, eng: &mut Engine<'_>, job: JobId, done: CompletedWork) {
        let Some(route) = self.split_children.remove(&(job, done.tag)) else {
            let session = eng.sessions.get_mut(&job).expect("session open");
            session.completed.push(done);
            return;
        };
        let entry = self.merges.get_mut(route.merge).expect("merge entry live");
        let bytes = done.output.as_slice();
        entry.out[route.offset..route.offset + bytes.len()].copy_from_slice(bytes);
        let mt = &mut entry.timing;
        mt.started = mt.started.min(done.timing.started);
        mt.completed = mt.completed.max(done.timing.completed);
        mt.h2d += done.timing.h2d;
        mt.kernel += done.timing.kernel;
        mt.d2h += done.timing.d2h;
        mt.cache_hits += done.timing.cache_hits;
        mt.cache_misses += done.timing.cache_misses;
        mt.bytes_h2d += done.timing.bytes_h2d;
        mt.bytes_d2h += done.timing.bytes_d2h;
        if let Some(e) = done.emitted {
            entry.emitted = Some(entry.emitted.unwrap_or(0) + e);
        }
        if done.gpu != CPU_FALLBACK_GPU {
            entry.gpu = done.gpu;
            entry.stream = done.stream;
        }
        entry.remaining -= 1;
        if entry.remaining == 0 {
            self.finish_merge(eng, job, route.merge);
        }
    }

    /// Close a merge entry once both children have landed: emit the
    /// reassembled parent completion, or — when any child failed terminally
    /// — one parent failure under the parent's original tag (the block is
    /// lost as a unit, exactly like an unsplit failure; any completed
    /// sibling output is discarded). Either way the children's reserved
    /// tag indices return to the free list.
    fn finish_merge(&mut self, eng: &mut Engine<'_>, job: JobId, merge: u64) {
        let entry = self.merges.remove(merge).expect("merge entry live");
        self.free_child_tags.extend(entry.child_tags);
        let session = eng.sessions.get_mut(&job).expect("session open");
        match entry.failed {
            Some(reason) => RecoveryManager::fail_named(
                eng.obs,
                session,
                &entry.name,
                entry.tag,
                entry.retries,
                entry.timing.submitted,
                entry.timing.completed,
                reason,
            ),
            None => session.completed.push(CompletedWork {
                name: entry.name,
                tag: entry.tag,
                gpu: entry.gpu,
                stream: entry.stream,
                output: ArenaBuf::detached(HBuffer::from_bytes(&entry.out)),
                emitted: entry.emitted,
                timing: entry.timing,
            }),
        }
    }

    /// A split child failed terminally: fold the failure into its merge
    /// entry instead of surfacing the synthetic tag. The parent fails once
    /// the sibling also lands (see [`GStreamManager::finish_merge`]).
    fn fail_split_child(
        &mut self,
        eng: &mut Engine<'_>,
        job: JobId,
        tag: (u32, u32),
        retries: u32,
        now: SimTime,
        reason: FailReason,
    ) {
        let route = self
            .split_children
            .remove(&(job, tag))
            .expect("split child routed");
        let entry = self.merges.get_mut(route.merge).expect("merge entry live");
        entry.retries = entry.retries.max(retries);
        entry.timing.completed = entry.timing.completed.max(now);
        if entry.failed.is_none() {
            entry.failed = Some(reason);
        }
        entry.remaining -= 1;
        if entry.remaining == 0 {
            self.finish_merge(eng, job, route.merge);
        }
    }

    /// Record a terminal failure: split children fold into their parent's
    /// merge entry; everything else fails directly.
    #[allow(clippy::too_many_arguments)]
    fn fail_terminal(
        &mut self,
        eng: &mut Engine<'_>,
        job: JobId,
        work: GWork,
        submitted: SimTime,
        retries: u32,
        now: SimTime,
        reason: FailReason,
    ) {
        if is_split_child(work.tag) {
            self.fail_split_child(eng, job, work.tag, retries, now, reason);
        } else {
            let session = eng.sessions.get_mut(&job).expect("session open");
            RecoveryManager::fail_named(
                eng.obs, session, &work.name, work.tag, retries, submitted, now, reason,
            );
        }
    }

    /// Route a recovered work back through Alg. 5.1 after its policy
    /// backoff, or — once [`RecoveryManager::terminal_reason`] says the
    /// policy is spent — fail it through [`GStreamManager::fail_terminal`],
    /// so a split child fails its *parent* block rather than stranding the
    /// merge under a synthetic tag the consumer never submitted.
    #[allow(clippy::too_many_arguments)]
    fn route_retry_or_fail(
        &mut self,
        eng: &mut Engine<'_>,
        job: JobId,
        work: GWork,
        submitted: SimTime,
        retries: u32,
        now: SimTime,
        reason: FailReason,
        q: &mut EventQueue<Ev>,
    ) {
        let spent = now.saturating_sub(submitted);
        if let Some(terminal) = eng.recovery.terminal_reason(&reason, retries, spent) {
            self.fail_terminal(eng, job, work, submitted, retries, now, terminal);
            return;
        }
        let (op, attempt) = (&*work.name, retries + 1);
        eng.emit(Kind::Retry { op, attempt }.at(now).of(job));
        let at = eng.recovery.retry_at(retries, now);
        q.schedule(at, Ev::submit(job, submitted, attempt, work));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuWorkerConfig;

    #[test]
    fn child_tags_recycle_through_free_list() {
        let mut g = GStreamManager::new(&GpuWorkerConfig::default());
        let a = g.alloc_child_tag((7, 0));
        let b = g.alloc_child_tag((7, 0));
        assert_eq!(a, (7, u32::MAX));
        assert_eq!(b, (7, u32::MAX - 1));
        assert!(is_split_child(a) && is_split_child(b));
        // finish_merge returns both indices through the free list…
        g.free_child_tags.extend([a.1, b.1]);
        // …and later splits drain it LIFO before minting fresh indices,
        // so cumulative split count never exhausts the reserved range.
        assert_eq!(g.alloc_child_tag((3, 9)), (3, b.1));
        assert_eq!(g.alloc_child_tag((3, 9)), (3, a.1));
        assert_eq!(g.next_child_tag, u32::MAX - 2);
        assert_eq!(g.alloc_child_tag((3, 9)), (3, u32::MAX - 2));
    }
}
