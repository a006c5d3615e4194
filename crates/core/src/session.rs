//! Per-job sessions: the unit of tenant isolation on a shared fabric.
//!
//! The paper gives every job its own GPU cache region (§4.2.2: "a cache
//! region is created when a job starts and released when it finishes").
//! [`JobSession`] generalizes that rule to *all* mutable per-job state the
//! GPUManager holds: the cache regions, the not-yet-drained submissions,
//! the completions and structured failures, and the job's fault/recovery
//! ledger. A session is created by `GpuManager::begin_job` and destroyed by
//! `GpuManager::end_job`, so when a job finishes nothing of it can leak
//! into the next tenant on the same devices.

use crate::cache::GpuCache;
use crate::gwork::{CompletedWork, GWork};
use crate::recovery::FailedWork;
use gflink_flink::GpuRollup;
use gflink_sim::{FaultLedger, FlightRecorder, LedgerWindow, LogHistogram, RecEvent, SimTime};
use std::collections::BTreeSet;

/// Identity of one submitted job on a worker's GPU manager.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// All mutable per-job state on one worker's GPU manager.
pub struct JobSession {
    /// One GPU cache region per device (§4.2.2) — eviction pressure from
    /// this job can only evict this job's blocks.
    pub(crate) regions: Vec<GpuCache>,
    /// Works submitted but not yet picked up by a drain.
    pub(crate) pending: Vec<(SimTime, GWork)>,
    /// Completions waiting to be taken by this job's drain.
    pub(crate) completed: Vec<CompletedWork>,
    /// Works the manager gave up on, in failure order.
    pub(crate) failed: Vec<FailedWork>,
    /// The job's fault/recovery counters, with a delta mark for reporting.
    pub(crate) ledger: LedgerWindow,
    /// The job's rollup fields this worker observes: steals, fused
    /// batches, pen statistics and hybrid placements. Written only by the
    /// occurrence table's mirror column; the job driver merges every
    /// worker's copy when the job closes.
    pub(crate) rollup: GpuRollup,
    /// Fair-share weight under weighted-fair arbitration and cache
    /// partitioning (1 = baseline tenant).
    pub(crate) weight: u32,
    /// Tags covered by a restored checkpoint: a submission carrying one
    /// of these is satisfied from the snapshot (counted as
    /// `works_restored`) instead of executing — the exactly-once dedup
    /// across the restore boundary.
    pub(crate) covered: BTreeSet<(u32, u32)>,
    /// The job's flight recorder: a bounded ring of recent structured
    /// fault/recovery events. Only fed while the metrics plane is
    /// enabled, so the default path allocates and pays nothing.
    pub(crate) recorder: FlightRecorder,
}

impl JobSession {
    pub(crate) fn new(regions: Vec<GpuCache>, weight: u32) -> Self {
        JobSession {
            regions,
            pending: Vec::new(),
            completed: Vec::new(),
            failed: Vec::new(),
            ledger: LedgerWindow::default(),
            rollup: GpuRollup::default(),
            weight: weight.max(1),
            covered: BTreeSet::new(),
            recorder: FlightRecorder::default(),
        }
    }

    /// The job's recent flight-recorder events, oldest first (empty when
    /// the metrics plane is off).
    pub fn flight_events(&self) -> Vec<RecEvent> {
        self.recorder.events()
    }

    /// Works the hybrid cost model placed on the host CPU pool by choice.
    pub fn hybrid_cpu(&self) -> u64 {
        self.rollup.hybrid_cpu
    }

    /// Blocks the hybrid cost model split across CPU and GPU.
    pub fn hybrid_splits(&self) -> u64 {
        self.rollup.hybrid_splits
    }

    /// Relative prediction-error histogram (basis points) over this job's
    /// hybrid-placed completions.
    pub fn hybrid_err(&self) -> &LogHistogram {
        &self.rollup.hybrid_err
    }

    /// Tags this session will satisfy from a restored checkpoint.
    pub fn covered_tags(&self) -> &BTreeSet<(u32, u32)> {
        &self.covered
    }

    /// Fair-share weight under weighted-fair arbitration (1 = baseline).
    pub fn weight(&self) -> u32 {
        self.weight
    }

    /// Submissions parked in the backpressure pen (queued-bytes cap).
    pub fn parked_works(&self) -> u64 {
        self.rollup.parked_works
    }

    /// Total simulated time this job's works sat penned before release.
    pub fn park_delay(&self) -> SimTime {
        self.rollup.park_delay
    }

    /// The job's cache region on device `gpu`.
    pub fn region(&self, gpu: usize) -> &GpuCache {
        &self.regions[gpu]
    }

    /// Works this job gave up on, in failure order.
    pub fn failed(&self) -> &[FailedWork] {
        &self.failed
    }

    /// The job's cumulative fault/recovery ledger.
    pub fn faults(&self) -> FaultLedger {
        self.ledger.total()
    }

    pub(crate) fn ledger_mut(&mut self) -> &mut FaultLedger {
        self.ledger.total_mut()
    }
}
