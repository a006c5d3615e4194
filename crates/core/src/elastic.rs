//! Elastic membership and checkpoint/restore surface of the
//! [`GpuManager`] — the methods that grow or shrink a live worker's device
//! complement and that carry a job across a restore boundary. Kept out of
//! `manager.rs` so the coordinator stays the slim event-loop wiring the
//! paper's decomposition calls for.
//!
//! Membership changes are scripted: a [`MembershipPlan`] installed via
//! [`GpuManager::set_membership_plan`] delivers joins and leaves *inside*
//! the drain event loop, through
//! [`GStreamManager::on_membership`](crate::gstream::GStreamManager),
//! deterministically interleaved with scripted faults and pipeline events.
//!
//! Restore installs the snapshot's covered tags on the session;
//! `GpuManager::submit_for` consumes one tag per matching submission so a
//! restored work is satisfied from the snapshot exactly once (ledger:
//! `works_restored`), and everything after the snapshot frontier replays
//! normally.

use crate::checkpoint::CacheManifestEntry;
use crate::manager::GpuManager;
use crate::occurrence::{Kind, Tenants};
use crate::session::JobId;
use gflink_sim::{MembershipPlan, SimTime};

impl GpuManager {
    /// Script membership changes (joins/leaves) against this worker.
    /// Events at instants the simulation has already passed fire
    /// immediately at the next drain, interleaved with scripted faults.
    pub fn set_membership_plan(&mut self, plan: MembershipPlan) {
        self.recovery.set_membership_plan(plan);
    }

    /// Open `job` (weighted) as restored from a checkpoint: install the
    /// snapshot's covered tags on the session. Each subsequent
    /// [`submit_for`](GpuManager::submit_for) carrying a covered tag is
    /// satisfied from the snapshot instead of executing, consuming the tag
    /// — the exactly-once dedup across the restore boundary.
    pub fn restore_job(&mut self, job: JobId, weight: u32, tags: &[(u32, u32)]) {
        self.begin_job_weighted(job, weight);
        let session = self.sessions.get_mut(&job).expect("session just ensured");
        session.covered.extend(tags.iter().copied());
    }

    /// Deterministic manifest of `job`'s cached blocks across this
    /// worker's devices — what a checkpoint snapshots so a restored job
    /// knows which blocks were GPU-resident at the frontier.
    pub fn cache_manifest(&self, job: JobId) -> Vec<CacheManifestEntry> {
        let mut out = Vec::new();
        if let Some(s) = self.sessions.get(&job) {
            for (g, region) in s.regions.iter().enumerate() {
                for (key, bytes) in region.manifest() {
                    out.push(CacheManifestEntry {
                        worker: self.worker_id as u32,
                        gpu: g as u32,
                        key,
                        bytes,
                    });
                }
            }
        }
        out
    }

    /// Account works the closing `job` still had parked — in its
    /// backpressure pen or its pending queue — as abandoned in the fault
    /// ledger (`parked_abandoned`), so a `JobHandle` dropped mid-stream
    /// tears down without leaking unexecuted work unaccounted.
    pub(crate) fn abandon_leftovers(
        &mut self,
        job: JobId,
        session: &mut crate::session::JobSession,
    ) {
        let penned = self.gstream.sched.take_pen(job);
        let n = penned.len() as u64 + session.pending.len() as u64;
        session.pending.clear();
        if n > 0 {
            // Teardown has no simulated instant; nothing projects `at`.
            let abandoned = Kind::ParkedAbandoned(n).at(SimTime::ZERO).of(job);
            self.obs.emit(Tenants::One(session), abandoned);
        }
    }
}
