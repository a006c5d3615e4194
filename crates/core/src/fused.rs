#![warn(clippy::too_many_lines)]

//! Small-GWork transfer batching: the batch-under-backlog accumulator.
//!
//! Dispatching a tiny GWork pays the transfer channel's per-call overhead α
//! twice (H2D and D2H) for very little payload — at the Table 2 fit, a
//! 2 KiB copy is ~74% α. When the fabric is saturated, small works that
//! would *queue anyway* are instead coalesced into a [`PendingBatch`] and
//! later dispatched as one flight with several members (see
//! [`crate::gstream`]): a single fused H2D reservation (one α for every
//! member copy), the member kernels back-to-back on one stream, and a
//! single fused D2H. Results are split back per member, so a batched work's
//! output bytes — and therefore every digest downstream — are identical to
//! the unbatched run.
//!
//! Batches only form under backlog (the dispatch path consults the batcher
//! only after Algorithm 5.1 found no idle stream), and a freed stream
//! flushes its GPU's batcher before going idle, so enabling batching never
//! delays work an idle stream could have taken. A [window
//! event](crate::gstream::Ev::FlushBatch) bounds how long a partial batch
//! may wait; epochs guard against stale windows.

use crate::gstream::{Ev, GStreamManager, QueuedWork};
use crate::gwork::GWork;
use crate::session::JobId;
use gflink_sim::{EventQueue, SimTime};

/// Flush a pending batch once its summed input bytes reach this.
const MAX_BATCH_BYTES: u64 = 4 << 20;

/// One entry of a GPU's parked-work queue: a lone work or a fused batch.
pub(crate) enum Parked {
    /// An ordinary queued work (Algorithm 5.1 lines 11–18).
    Single(QueuedWork),
    /// A flushed batch awaiting a stream, dispatched as one fused flight.
    Fused(FusedBatch),
}

impl Parked {
    pub(crate) fn job(&self) -> JobId {
        match self {
            Parked::Single(qw) => qw.job,
            Parked::Fused(b) => b.job,
        }
    }

    pub(crate) fn op_label(&self) -> &str {
        match self {
            Parked::Single(qw) => &qw.work.name,
            Parked::Fused(_) => "fused-batch",
        }
    }

    /// Flatten into plain queued works (device-loss queue drain).
    pub(crate) fn into_members(self) -> Vec<QueuedWork> {
        match self {
            Parked::Single(qw) => vec![qw],
            Parked::Fused(b) => b.members,
        }
    }
}

/// A flushed, ready-to-dispatch transfer batch. All members belong to one
/// job (so one cache region and one ledger are in play).
pub(crate) struct FusedBatch {
    pub(crate) job: JobId,
    pub(crate) members: Vec<QueuedWork>,
}

/// A per-GPU accumulating batch: works land here from the dispatch park
/// path until a flush condition (fill, job change, window, or an idle
/// stream) moves it to the queue as a [`Parked::Fused`].
pub(crate) struct PendingBatch {
    pub(crate) job: JobId,
    pub(crate) members: Vec<QueuedWork>,
    pub(crate) bytes: u64,
    /// Identity guarding the window event against stale firings.
    pub(crate) epoch: u64,
}

fn work_bytes(work: &GWork) -> u64 {
    work.inputs.iter().map(|b| b.logical_bytes).sum()
}

impl GStreamManager {
    /// Whether a work that is about to be parked should accumulate into a
    /// transfer batch instead: batching on, first attempt (retried works
    /// always run solo so recovery stays simple), and small enough that α
    /// dominates its copies.
    pub(crate) fn batchable(&self, qw: &QueuedWork) -> bool {
        self.batch_cfg.enabled
            && qw.retries == 0
            // Split children always run solo, so the GPU half of a hybrid
            // split runs the way the cost model predicted it.
            && !crate::gstream::is_split_child(qw.work.tag)
            && work_bytes(&qw.work) <= self.batch_cfg.small_work_bytes
    }

    /// Park a small work into GPU `gpu`'s accumulating batch, flushing on
    /// job change or when the batch reaches its fill thresholds. A fresh
    /// batch arms a window event so a lull cannot strand it.
    pub(crate) fn enqueue_batched(
        &mut self,
        qw: QueuedWork,
        gpu: usize,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        // One job per batch: a different tenant's pending batch flushes.
        let job = qw.job;
        if self.batchers[gpu].as_ref().is_some_and(|b| b.job != job) {
            self.flush_batcher(gpu);
        }
        if self.batchers[gpu].is_none() {
            let epoch = self.batch_epoch;
            self.batch_epoch += 1;
            self.batchers[gpu] = Some(PendingBatch {
                job,
                members: Vec::new(),
                bytes: 0,
                epoch,
            });
            q.schedule(t + self.batch_cfg.window, Ev::FlushBatch { gpu, epoch });
        }
        let full = {
            let b = self.batchers[gpu].as_mut().expect("just ensured");
            b.bytes += work_bytes(&qw.work);
            b.members.push(qw);
            b.members.len() >= self.batch_cfg.max_works || b.bytes >= MAX_BATCH_BYTES
        };
        if full {
            self.flush_batcher(gpu);
        }
    }

    /// Move GPU `gpu`'s accumulating batch to its queue. A lone member goes
    /// back as an ordinary [`Parked::Single`] — fusing one work would pay
    /// batching's bookkeeping for no α savings.
    pub(crate) fn flush_batcher(&mut self, gpu: usize) {
        let Some(mut b) = self.batchers[gpu].take() else {
            return;
        };
        let parked = if b.members.len() == 1 {
            Parked::Single(b.members.pop().expect("len checked"))
        } else {
            Parked::Fused(FusedBatch {
                job: b.job,
                members: b.members,
            })
        };
        self.sched.park(gpu, parked);
    }

    /// The batching window expired: flush the pending batch (unless it was
    /// already flushed or superseded — the epoch tells) and wake an idle
    /// stream so a fully idle fabric cannot strand the flushed work.
    pub(crate) fn on_flush_batch(
        &mut self,
        gpu: usize,
        epoch: u64,
        t: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        if self.batchers[gpu].as_ref().is_none_or(|b| b.epoch != epoch) {
            return;
        }
        self.flush_batcher(gpu);
        if let Some(s) = self.first_idle_stream(gpu, t) {
            q.schedule(t, Ev::StreamFree { gpu, stream: s });
        } else if self.policy.steals() {
            if let Some((g, s)) = self.most_idle_bulk(t) {
                q.schedule(t, Ev::StreamFree { gpu: g, stream: s });
            }
        }
    }
}
