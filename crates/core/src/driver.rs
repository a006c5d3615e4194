//! The job driver: the lifecycle of every GPU job, written once on
//! [`JobHandle`] for the batch operator (`GDataSet::gpu_map_partition`)
//! and both stream pipelines (fired windows, per-batch kernel maps).
//!
//! The paper splits a GFlink job into a producer side, where task slots
//! assemble GWorks, and a consumer side, where GPU streams drain them
//! (§5). Callers own the producer side: how records become blocks and when
//! each is submitted. The driver owns the rest, in order:
//! [`JobHandle::restore`], [`JobHandle::drain`],
//! [`JobHandle::write_snapshots`] and [`JobHandle::close`]. It also owns
//! the job's [`GpuRollup`]: drains fold each completion into it, snapshot
//! writes their counts, and closing merges in what every worker's session
//! observed.

use crate::checkpoint::{JobSnapshot, RestoredSnapshot, SnapshotBlock};
use crate::gwork::CompletedWork;
use crate::jobsched::JobHandle;
use crate::manager::CPU_FALLBACK_GPU;
use crate::observe::build_cluster_snapshot;
use crate::occurrence::Kind;
use crate::recovery::FailedWork;
use gflink_flink::{GpuLane, GpuRollup, SharedCluster};
use gflink_sim::{FaultLedger, RecEvent, SimTime};
use std::sync::atomic::Ordering;

/// What [`JobHandle::restore`] found for one operator invocation.
pub(crate) struct Restore {
    /// The durable store and the job name snapshots are filed under;
    /// `None` when checkpointing is off.
    store: Option<(SharedCluster, String)>,
    /// This invocation's snapshot sequence number within the job.
    seq: u64,
    /// The accepted snapshot; its covered tags are installed on every
    /// worker.
    pub(crate) snapshot: Option<RestoredSnapshot>,
}

impl Restore {
    /// Whether this invocation checkpoints at all.
    pub(crate) fn enabled(&self) -> bool {
        self.store.is_some()
    }
}

/// Fold one drained completion into the job's rollup: the engine that
/// ran it, its stage latencies, cache outcome and bytes moved.
fn fold(r: &mut GpuRollup, done: &CompletedWork) {
    let t = &done.timing;
    if done.gpu == CPU_FALLBACK_GPU {
        r.cpu_works += 1;
    } else {
        r.works += 1;
    }
    r.slo.total.record(t.total());
    r.slo.queued.record(t.queued());
    r.slo.h2d.record(t.h2d);
    r.slo.kernel.record(t.kernel);
    r.slo.d2h.record(t.d2h);
    r.cache_hits += u64::from(t.cache_hits);
    r.cache_misses += u64::from(t.cache_misses);
    r.bytes_h2d += t.bytes_h2d;
    r.bytes_d2h += t.bytes_d2h;
}

/// What one [`JobHandle::drain`] left besides the completions.
pub(crate) struct Drained {
    /// Latest completion or permanent-failure instant (zero when nothing
    /// ran).
    pub(crate) wall_end: SimTime,
    /// Earliest permanent failure: the simulated crash instant bounding
    /// how late the checkpointer could still run.
    pub(crate) crashed_at: Option<SimTime>,
    /// Works abandoned after retry exhaustion, worker by worker.
    pub(crate) failed: Vec<FailedWork>,
    /// This drain's fault/recovery delta for the job, summed over workers.
    pub(crate) faults: FaultLedger,
}

impl JobHandle {
    /// Find and install this operator invocation's snapshot. Each call
    /// takes the job's next snapshot sequence number, so a relaunched
    /// driver re-running the same operator sequence under the same `name`
    /// finds its predecessor's snapshots. The read is charged from `at`. A
    /// corrupt snapshot (CRC or length mismatch) is refused, and so is one
    /// `accept` rejects: the run then executes from zero. Checkpointing
    /// needs a `cluster` for its durable store and the fabric's
    /// `CheckpointConfig` enabled; otherwise this does nothing.
    pub(crate) fn restore(
        &self,
        cluster: Option<&SharedCluster>,
        name: &str,
        at: SimTime,
        accept: impl FnOnce(&JobSnapshot) -> bool,
    ) -> Restore {
        let ckpt = &self.fabric.ckpt;
        let Some(cluster) = cluster.filter(|_| ckpt.lock().enabled()) else {
            return Restore {
                store: None,
                seq: 0,
                snapshot: None,
            };
        };
        let seq = ckpt.lock().next_seq(self.id().0);
        let read = {
            let mut cl = cluster.lock();
            ckpt.lock()
                .read(&mut cl.hdfs, 0, name, seq, at)
                .unwrap_or(None)
        };
        let snapshot = read.filter(|rs| accept(&rs.snapshot));
        if let Some(rs) = &snapshot {
            let tags = rs.snapshot.covered_tags();
            self.fabric.with_managers(|ms| {
                for m in ms.iter_mut() {
                    m.restore_job(self.id(), self.weight(), &tags);
                }
            });
        }
        Restore {
            store: Some((cluster.clone(), name.to_string())),
            seq,
            snapshot,
        }
    }

    /// Drain every worker, fold each of this job's completions into its
    /// rollup and pass it to `on_done(worker, work)`.
    ///
    /// First waits at the job gate until every co-tenant at or behind
    /// `last_submit` has also submitted, so the shared drain sees all
    /// jobs' works and cross-job arbitration has a real choice (a solo run
    /// passes straight through). With the metrics plane on, a completion
    /// over the fabric's SLO records a breach on the job's flight
    /// recorder, and a non-quiet fault delta or any breach dumps a
    /// postmortem.
    pub(crate) fn drain(
        &self,
        last_submit: SimTime,
        mut on_done: impl FnMut(usize, CompletedWork),
    ) -> Drained {
        gflink_flink::gate::checkpoint(last_submit);
        let fabric = &self.fabric;
        let job = self.id();
        // Lock order: the fabric's bookkeeping locks (metrics, observer
        // policy, live jobs, checkpoint cursors) are copied out before the
        // managers are held, matching the admission path's
        // live-jobs-then-managers order. With the plane off the SLO is the
        // default, which never breaches.
        let metrics = fabric.metrics.lock().clone();
        let (slo, health) = if metrics.enabled() {
            (fabric.observer.lock().slo, fabric.health_inputs())
        } else {
            Default::default()
        };
        fabric.with_managers(|managers| {
            let mut rollup = self.rollup.lock();
            let mut wall_end = SimTime::ZERO;
            let mut crashed_at: Option<SimTime> = None;
            let mut failed = Vec::new();
            let mut faults = FaultLedger::default();
            let mut slo_breaches = 0u64;
            for m in managers.iter_mut() {
                let worker = m.worker_id();
                for done in m.drain_job(job) {
                    let (completed, total) = (done.timing.completed, done.timing.total());
                    wall_end = wall_end.max(completed);
                    if slo.breached(total) {
                        slo_breaches += 1;
                        let mut breach = Kind::SloBreach(total).at(completed).of(job);
                        breach.gpu = (done.gpu != CPU_FALLBACK_GPU).then_some(done.gpu);
                        m.emit(breach);
                    }
                    fold(&mut rollup, &done);
                    on_done(worker, done);
                }
                // This drain's delta of the job's session ledger, not the
                // worker-wide ledger. Permanent failures count toward the
                // wall clock so a faulted job's makespan stays honest.
                faults = faults.merge(&m.take_job_fault_delta(job));
                for f in m.take_job_failed(job) {
                    wall_end = wall_end.max(f.failed_at);
                    crashed_at = Some(crashed_at.map_or(f.failed_at, |c| c.min(f.failed_at)));
                    failed.push(f);
                }
            }
            if metrics.enabled() && (!faults.is_quiet() || slo_breaches > 0) {
                let mut events: Vec<RecEvent> = managers
                    .iter()
                    .filter_map(|m| m.session(job))
                    .flat_map(|s| s.flight_events())
                    .collect();
                events.sort_by_key(|e| (e.at, e.worker));
                let snap = build_cluster_snapshot(wall_end, &health, managers).to_json();
                // The observer mutex is a leaf lock: it never takes another.
                let mut obs = fabric.observer.lock();
                if !faults.is_quiet() {
                    let (ev, sn) = (events.clone(), snap.clone());
                    obs.dump(job.0, "fault-ledger", wall_end, faults, ev, sn);
                }
                if slo_breaches > 0 {
                    obs.dump(job.0, "slo-breach", wall_end, faults, events, snap);
                }
            }
            Drained {
                wall_end,
                crashed_at,
                failed,
                faults,
            }
        })
    }

    /// Write this invocation's snapshots and fold the checkpoint count and
    /// bytes, and any restore with its replay delta up to `end`, into the
    /// job's rollup.
    ///
    /// `blocks` are the works this invocation executed; the restored
    /// snapshot's blocks join them, ready when the restore read landed.
    /// Ticks run on the job-global cadence, seeded at `start`. A run that
    /// crashed at `crashed_at` writes only the ticks up to the crash (the
    /// checkpointer dies with the node), so the next attempt resumes from
    /// the last pre-crash tick. A run that did not crash also writes one
    /// final full snapshot at `end`. Each tick's snapshot holds the blocks
    /// completed by then, the job's cache manifest, and the operator state
    /// `states` returns for that tick.
    pub(crate) fn write_snapshots(
        &self,
        restore: &Restore,
        mut blocks: Vec<SnapshotBlock>,
        start: SimTime,
        end: SimTime,
        crashed_at: Option<SimTime>,
        states: impl FnOnce(&[SimTime]) -> Vec<Vec<u8>>,
    ) {
        let Some((cluster, name)) = &restore.store else {
            return;
        };
        let fabric = &self.fabric;
        let job = self.id();
        if let Some(rs) = &restore.snapshot {
            blocks.extend(rs.snapshot.blocks.iter().map(|b| SnapshotBlock {
                completed_at: rs.ready_at,
                ..b.clone()
            }));
        }
        blocks.sort_by_key(|b| (b.completed_at, b.tag));
        let cache: Vec<_> = fabric.with_managers(|ms| {
            ms.iter()
                .flat_map(|m| m.cache_manifest(job))
                .collect::<Vec<_>>()
        });
        let (mut checkpoints, mut bytes) = (0u64, 0u64);
        {
            let mut cl = cluster.lock();
            let mut ck = fabric.ckpt.lock();
            ck.seed(job.0, start.min(end));
            let mut ticks = ck.due_ticks(job.0, crashed_at.unwrap_or(end));
            if crashed_at.is_none() {
                ticks.push(end);
            }
            for (&tick, state) in ticks.iter().zip(states(&ticks)) {
                let upto = blocks.partition_point(|b| b.completed_at <= tick);
                let snap = JobSnapshot {
                    job: job.0,
                    seq: restore.seq,
                    frontier: tick,
                    state,
                    blocks: blocks[..upto].to_vec(),
                    cache: cache.clone(),
                };
                if let Ok(tok) = ck.write(&mut cl.hdfs, 0, name, &snap, tick) {
                    checkpoints += 1;
                    bytes += tok.bytes;
                }
            }
        }
        // A snapshot write or a restore is job-scoped, not device-scoped:
        // every worker reports it against its own session of the job.
        let written = Kind::Checkpointed {
            n: checkpoints,
            bytes,
        };
        fabric.with_managers(|ms| {
            for m in ms.iter_mut() {
                m.emit(written.at(end).of(job));
                if let Some(rs) = &restore.snapshot {
                    let blocks = rs.snapshot.blocks.len() as u64;
                    m.emit(Kind::SnapshotRestored(blocks).at(rs.ready_at).of(job));
                }
            }
        });
        let mut r = self.rollup.lock();
        r.checkpoints += checkpoints;
        r.checkpoint_bytes += bytes;
        if let Some(rs) = &restore.snapshot {
            r.restores += 1;
            r.works_restored += rs.snapshot.blocks.len() as u64;
            r.recovery_delta.add_time(end.saturating_sub(rs.ready_at));
        }
    }

    /// Close the job ([`JobHandle::finish`]) and return its rollup: the
    /// driver's fields, every worker's session fields merged in worker
    /// order, the job's pinned-pool statistics, its weight, the trace
    /// events dropped so far and, when the job ran anything, one activity
    /// lane per device over `window`. Closing again returns the same
    /// rollup.
    pub(crate) fn close(&self, window: SimTime) -> GpuRollup {
        let trace_dropped = self.fabric.tracer().dropped();
        let job = self.id();
        let rollup = self.fabric.with_managers(|managers| {
            let mut r = self.rollup.lock();
            if self.closed.load(Ordering::SeqCst) {
                return r.clone();
            }
            for m in managers.iter() {
                if let Some(s) = m.session(job) {
                    r.merge(&s.rollup);
                }
                let p = m.job_pinned_stats(job);
                r.pinned_hits += p.hits;
                r.pinned_misses += p.misses;
                r.pinned_bytes += p.bytes;
            }
            r.weight = self.weight();
            r.trace_dropped = trace_dropped;
            if !r.is_empty() {
                // On a shared fabric a device's activity over the window
                // includes co-tenant works, which is what device
                // utilization means there.
                r.lanes = managers
                    .iter()
                    .flat_map(|m| (0..m.gpu_count()).map(move |g| (m, g)))
                    .map(|(m, g)| GpuLane {
                        worker: m.worker_id(),
                        gpu: g,
                        works: m.executed_per_gpu()[g],
                        kernel_busy: m.gpu(g).kernel_busy(),
                        copy_busy: m.gpu(g).copy_busy(),
                        utilization: m.gpu(g).kernel_utilization(window),
                    })
                    .collect();
            }
            r.clone()
        });
        self.finish();
        rollup
    }
}
