#![warn(clippy::too_many_lines)]

//! The recovery half of the GPUManager: typed failure taxonomy, the fault
//! plan/arming machinery, retry-with-backoff routing and the CPU fallback
//! path. What recovery does is observed through
//! [`Emitter::emit`](crate::occurrence::Emitter::emit), which keeps the
//! double-entry fault ledgers.

use crate::config::GpuWorkerConfig;
use crate::gwork::{CompletedWork, GWork, WorkTiming};
use crate::occurrence::{Emitter, HostRun, Kind, Tenants};
use crate::session::JobSession;
use gflink_gpu::{DeviceError, KernelArgs, KernelRegistry};
use gflink_memory::{ArenaBuf, HBuffer};
use gflink_sim::trace::{cpu_pid, TID_DEVICE};
use gflink_sim::{
    ComputeCost, FaultEvent, FaultPlan, HostEngine, MembershipEvent, MembershipPlan, RetryPolicy,
    SimTime, Tracer,
};
use parking_lot::Mutex;
use std::sync::Arc;

/// `CompletedWork::gpu` marker for works executed on the host CPU because
/// no usable GPU remained.
pub const CPU_FALLBACK_GPU: usize = usize::MAX;

/// An error inside the GPU manager's execution paths.
#[derive(Clone, Debug, PartialEq)]
pub enum ManagerError {
    /// A work's buffers cannot fit on the device even after evicting the
    /// entire (unpinned) cache region.
    OutOfMemory {
        /// Device that ran out.
        gpu: usize,
        /// Logical bytes the allocation wanted.
        requested: u64,
        /// Logical bytes that were free.
        free: u64,
    },
    /// The work names a kernel the registry does not know.
    KernelMissing {
        /// The unresolved `executeName`.
        name: String,
    },
    /// A device operation failed underneath the manager.
    Device(DeviceError),
}

impl std::fmt::Display for ManagerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManagerError::OutOfMemory {
                gpu,
                requested,
                free,
            } => write!(
                f,
                "device {gpu} out of memory: requested {requested} logical bytes with {free} free \
                 and an empty cache"
            ),
            ManagerError::KernelMissing { name } => write!(f, "kernel {name:?} not registered"),
            ManagerError::Device(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ManagerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ManagerError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeviceError> for ManagerError {
    fn from(e: DeviceError) -> Self {
        ManagerError::Device(e)
    }
}

/// Why a [`FailedWork`] was abandoned.
#[derive(Clone, Debug, PartialEq)]
pub enum FailReason {
    /// The retry budget ([`RetryPolicy::max_retries`]) ran out.
    RetriesExhausted,
    /// The retry deadline ([`RetryPolicy::deadline`]) passed.
    DeadlineExceeded,
    /// Every GPU is lost and CPU fallback is disabled.
    NoUsableDevice,
    /// A non-retryable error (e.g. an unregistered kernel).
    Fatal(ManagerError),
}

/// A `GWork` the manager gave up on: the structured counterpart of
/// [`CompletedWork`]. Completions and failures partition the submitted
/// works exactly — nothing is silently dropped.
#[derive(Clone, Debug)]
pub struct FailedWork {
    /// The originating work's name.
    pub name: String,
    /// The originating work's tag (partition, block).
    pub tag: (u32, u32),
    /// How many times the work was retried before being abandoned.
    pub retries: u32,
    /// Why it was abandoned.
    pub reason: FailReason,
    /// When the work was first submitted.
    pub submitted: SimTime,
    /// When the manager gave up. Failure instants participate in makespan
    /// accounting the same way completion instants do.
    pub failed_at: SimTime,
}

/// CPU execution path used when no usable GPU remains.
#[derive(Clone, Debug)]
pub struct CpuFallback {
    /// Whether the fallback is allowed. When `false`, losing every GPU
    /// fails the remaining works with [`FailReason::NoUsableDevice`].
    pub enabled: bool,
    /// Concurrent host execution slots (task-slot pool).
    pub slots: usize,
    /// Roofline cost model for host kernel execution.
    pub cost: ComputeCost,
}

impl Default for CpuFallback {
    fn default() -> Self {
        CpuFallback {
            enabled: true,
            slots: 8,
            // A conservative host: ~50 GFLOP/s, ~20 GB/s sustained — roughly
            // 20× slower than the C2050 the paper's workers carry.
            cost: ComputeCost::new(SimTime::from_micros(5), 50e9, 20e9),
        }
    }
}

/// The recovery half of the per-worker GPU manager.
pub struct RecoveryManager {
    retry: RetryPolicy,
    hang_timeout: SimTime,
    failure_rate: f64,
    cpu_fallback: CpuFallback,
    fault_plan: FaultPlan,
    /// Index of the first `fault_plan` event not yet scheduled into a drain.
    fault_cursor: usize,
    /// Scripted elastic-membership changes (joins/leaves), delivered into
    /// drains exactly once via `membership_cursor` — the fault plan's
    /// administrative twin.
    membership_plan: MembershipPlan,
    membership_cursor: usize,
    /// Scripted transient faults armed per GPU (consumed by next launches).
    pending_transient: Vec<u32>,
    /// Scripted hangs armed per GPU (consumed by next launches).
    pending_hang: Vec<u32>,
    /// The host CPU execution engine — shared by the last-resort fallback
    /// and the hybrid cost-model placement, so both account against the
    /// same slot timelines.
    host: HostEngine,
}

impl RecoveryManager {
    pub(crate) fn new(cfg: &GpuWorkerConfig) -> Self {
        let cpu_fallback = cfg.cpu_fallback.clone();
        let host = HostEngine::new(cpu_fallback.cost, cpu_fallback.slots);
        RecoveryManager {
            retry: cfg.retry,
            hang_timeout: cfg.hang_timeout,
            failure_rate: cfg.failure_rate,
            cpu_fallback,
            fault_plan: FaultPlan::new(),
            fault_cursor: 0,
            membership_plan: MembershipPlan::new(),
            membership_cursor: 0,
            pending_transient: vec![0; cfg.models.len()],
            pending_hang: vec![0; cfg.models.len()],
            host,
        }
    }

    /// Name the worker's CPU-fallback pool in `tracer`: its own trace
    /// process (thread 0 carries retry/failure instants, threads 1..=slots
    /// the host execution spans).
    pub(crate) fn name_tracks(&self, tracer: &Tracer, worker_id: usize) {
        if tracer.enabled() {
            let pid = cpu_pid(worker_id);
            tracer.name_process(pid, &format!("worker{worker_id}/cpu"));
            tracer.name_thread(pid, TID_DEVICE, "recovery");
            for s in 0..self.host.slots() {
                tracer.name_thread(pid, 1 + s as u32, &format!("cpu slot {s}"));
            }
        }
    }

    pub(crate) fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
        self.fault_cursor = 0;
    }

    /// Scripted faults not yet delivered into any drain; advances the
    /// cursor so each fault enters an event queue exactly once.
    pub(crate) fn take_unscheduled_faults(&mut self) -> Vec<FaultEvent> {
        let evs = self.fault_plan.events()[self.fault_cursor..].to_vec();
        self.fault_cursor = self.fault_plan.events().len();
        evs
    }

    pub(crate) fn set_membership_plan(&mut self, plan: MembershipPlan) {
        self.membership_plan = plan;
        self.membership_cursor = 0;
    }

    /// Scripted membership changes not yet delivered into any drain;
    /// advances the cursor so each change applies exactly once.
    pub(crate) fn take_unscheduled_membership(&mut self) -> Vec<MembershipEvent> {
        let evs = self.membership_plan.events()[self.membership_cursor..].to_vec();
        self.membership_cursor = self.membership_plan.events().len();
        evs
    }

    /// Grow the armed-fault state for a device that joined the complement.
    pub(crate) fn grow_device(&mut self) {
        self.pending_transient.push(0);
        self.pending_hang.push(0);
    }

    /// Watchdog timeout for hung kernels.
    pub fn hang_timeout(&self) -> SimTime {
        self.hang_timeout
    }

    /// Arm one scripted transient kernel fault on `gpu`.
    pub(crate) fn arm_transient(&mut self, gpu: usize) {
        self.pending_transient[gpu] += 1;
    }

    /// Arm one scripted kernel hang on `gpu`.
    pub(crate) fn arm_hang(&mut self, gpu: usize) {
        self.pending_hang[gpu] += 1;
    }

    /// Consume one armed transient fault on `gpu`, if any.
    pub(crate) fn take_transient(&mut self, gpu: usize) -> bool {
        if self.pending_transient[gpu] > 0 {
            self.pending_transient[gpu] -= 1;
            true
        } else {
            false
        }
    }

    /// Consume one armed hang on `gpu`, if any.
    pub(crate) fn take_hang(&mut self, gpu: usize) -> bool {
        if self.pending_hang[gpu] > 0 {
            self.pending_hang[gpu] -= 1;
            true
        } else {
            false
        }
    }

    /// Random transient injection at `failure_rate`. Callers must evaluate
    /// this *after* (and short-circuited by) the scripted check so the RNG
    /// draw order — and with it every seeded timeline — is preserved.
    pub(crate) fn random_transient(&mut self, rng: &mut gflink_sim::SimRng) -> bool {
        self.failure_rate > 0.0 && rng.next_f64() < self.failure_rate
    }

    // --- retry / fail / CPU fallback -----------------------------------

    /// The terminal [`FailReason`] for a work that failed with `reason`
    /// after `retries` retries and `spent` time retrying, or `None` while
    /// the policy still allows a retry. A [`FailReason::Fatal`] wrapping
    /// [`ManagerError::KernelMissing`] is always terminal (no later attempt
    /// can succeed).
    pub(crate) fn terminal_reason(
        &self,
        reason: &FailReason,
        retries: u32,
        spent: SimTime,
    ) -> Option<FailReason> {
        if let FailReason::Fatal(ManagerError::KernelMissing { .. }) = reason {
            return Some(reason.clone());
        }
        if self.retry.allows(retries, spent) {
            None
        } else if retries >= self.retry.max_retries {
            Some(FailReason::RetriesExhausted)
        } else {
            Some(FailReason::DeadlineExceeded)
        }
    }

    /// When a work's retry number `retries` (zero-based) re-enters
    /// placement after failing at `now`: after the policy backoff.
    pub(crate) fn retry_at(&self, retries: u32, now: SimTime) -> SimTime {
        let delay = self.retry.backoff(retries);
        SimTime::from_nanos(now.as_nanos().saturating_add(delay.as_nanos()))
    }

    /// Abandon a work for good with a structured [`FailedWork`], by
    /// identity rather than by `GWork`: lets split-block reassembly fail a
    /// *parent* whose `GWork` no longer exists (only its sliced children
    /// do).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fail_named(
        obs: &mut Emitter,
        session: &mut JobSession,
        name: &str,
        tag: (u32, u32),
        retries: u32,
        submitted: SimTime,
        now: SimTime,
        reason: FailReason,
    ) {
        let kind = Kind::Failed {
            op: name,
            retries,
            reason: &reason,
        };
        obs.emit(Tenants::One(session), kind.at(now));
        session.failed.push(FailedWork {
            name: name.to_string(),
            tag,
            retries,
            reason,
            submitted,
            failed_at: now,
        });
    }

    /// The host CPU engine (slot pool + roofline), shared by the fallback
    /// path and the hybrid cost-model placement.
    pub(crate) fn host(&self) -> &HostEngine {
        &self.host
    }

    /// Whether the host CPU execution path may be used at all.
    pub(crate) fn host_enabled(&self) -> bool {
        self.cpu_fallback.enabled
    }

    /// Really execute `work`'s kernel over its host buffers and reserve a
    /// host slot for the modelled duration. No H2D/D2H is charged — the
    /// data never leaves host memory. Pure execution + accounting: the
    /// caller owns ledgers, traces, and completion routing.
    pub(crate) fn exec_on_host(
        &mut self,
        registry: &Arc<Mutex<KernelRegistry>>,
        work: &GWork,
        t: SimTime,
    ) -> Result<HostExec, ManagerError> {
        let kernel = {
            let reg = registry.lock();
            // Works normally arrive interned; hand-built ones that never
            // passed through a submission fall back to the name lookup.
            reg.get_by_id(work.kernel)
                .cloned()
                .or_else(|| reg.get(&work.execute_name))
        };
        let Some(kernel) = kernel else {
            return Err(ManagerError::KernelMissing {
                name: work.execute_name.to_string(),
            });
        };
        let mut out_host = HBuffer::zeroed(work.out_actual_bytes);
        let profile = {
            let inputs: Vec<&HBuffer> = work.inputs.iter().map(|b| b.data.as_ref()).collect();
            let mut args = KernelArgs {
                inputs: &inputs,
                outputs: &mut [&mut out_host],
                params: &work.params,
                n_actual: work.n_actual,
                n_logical: work.n_logical,
            };
            kernel(&mut args)
        };
        let (slot, r) = self.host.run(t, profile.flops, profile.bytes);
        Ok(HostExec {
            slot,
            start: r.start,
            end: r.end,
            out: out_host,
            emitted: profile.emitted,
        })
    }
}

/// One kernel execution on the host slot pool, before it is accounted:
/// where it ran, when, and what it produced.
pub(crate) struct HostExec {
    /// Host slot index the reservation landed on.
    pub(crate) slot: usize,
    /// Reservation start (queueing behind busy slots included).
    pub(crate) start: SimTime,
    /// Reservation end.
    pub(crate) end: SimTime,
    /// The real output buffer the kernel wrote.
    pub(crate) out: HBuffer,
    /// Records emitted, when the kernel reported them.
    pub(crate) emitted: Option<usize>,
}

impl HostExec {
    /// The execution as the host run an occurrence reports.
    pub(crate) fn run<'a>(&self, op: &'a str) -> HostRun<'a> {
        HostRun {
            op,
            slot: self.slot,
            start: self.start,
            end: self.end,
        }
    }

    /// Package the execution as a [`CompletedWork`] (host executions charge
    /// no transfer time: the data never left host memory).
    pub(crate) fn into_completed(self, work: GWork, submitted: SimTime) -> CompletedWork {
        CompletedWork {
            name: work.name,
            tag: work.tag,
            gpu: CPU_FALLBACK_GPU,
            stream: self.slot,
            output: ArenaBuf::detached(self.out),
            emitted: self.emitted,
            timing: WorkTiming {
                submitted,
                started: self.start,
                h2d: SimTime::ZERO,
                kernel: self.end.saturating_sub(self.start),
                d2h: SimTime::ZERO,
                completed: self.end,
                cache_hits: 0,
                cache_misses: 0,
                bytes_h2d: 0,
                bytes_d2h: 0,
            },
        }
    }
}
