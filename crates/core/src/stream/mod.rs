//! The DataStream layer: streaming execution over the GPU fabric — the
//! paper's declared future direction.
//!
//! §1 justifies building on Flink (rather than Spark) by "the needs of
//! future expansion for a better streaming processing implementation":
//! Flink treats batch as a special case of streaming. This module supplies
//! that expansion as a real DataStream API:
//!
//! * [`StreamSource`] — rate-controlled deterministic sources, chopped
//!   into micro-batches (the natural GPU block granularity of §5.1).
//! * [`StreamEnv`] — the single engine-parameterized entry point: a typed
//!   builder (`source → timestamps → key_by → window → aggregate → run`)
//!   lowering onto the existing `JobHandle`/`GpuMapSpec` machinery, so
//!   admission, backpressure pens, WFQ arbitration and the hybrid cost
//!   model all apply to streams unchanged.
//! * Event time ([`WatermarkStrategy`], [`WatermarkStamp`]): per-record
//!   timestamps, bounded-out-of-orderness watermarks advanced per
//!   micro-batch, and late-record routing.
//! * Keyed windows ([`Tumbling`], [`Sliding`], [`Session`]) whose operator
//!   state checkpoints through the fabric's
//!   [`CheckpointManager`](crate::CheckpointManager) (DESIGN.md §17).
//!
//! Per-batch (or per-window) latency — completion minus arrival (or fire
//! instant) — is the quantity of interest: a stable latency profile means
//! the operator sustains the offered rate; a diverging one means
//! backpressure. Everything is deterministic: a run is a pure function of
//! `(seed, FaultPlan)`, and [`WindowedRun::digest`] is bit-identical
//! across engines, placement policies, fault plans, concurrency and
//! crash→restore boundaries.

mod env;
mod source;
mod time;
mod window;

pub use env::{
    CpuMapPipeline, DataStream, KeyedStream, MapPipeline, StreamEnv, WindowPipeline, WindowedRun,
    WindowedStream,
};
pub use source::StreamSource;
pub use time::{watermark_digest, WatermarkStamp, WatermarkStrategy};
pub use window::{
    output_digest, AggOp, AggResult, AggSpec, Session, Sliding, Tumbling, WindowAssigner,
    WindowOutput, WindowSpan,
};

use crate::gdst::SpecError;
use crate::jobsched::AdmissionError;
use crate::recovery::FailReason;
use gflink_flink::GpuRollup;
use gflink_sim::{LogHistogram, SimTime, Summary};

/// Why a stream pipeline refused to run — configuration errors surfaced
/// as typed values at build time instead of panics mid-stream.
#[derive(Clone, Debug, PartialEq)]
pub enum StreamError {
    /// A source would emit zero micro-batches (rate × duration rounds
    /// down to nothing at the configured batch size).
    EmptySource {
        /// Index of the offending source, in registration order.
        source: usize,
    },
    /// An event-time operation (windowing) was requested but the stream
    /// has no timestamp assigner.
    NoTimestamps,
    /// The window assigner is degenerate: a zero size, slide or session
    /// gap, or a sliding window whose slide exceeds its size.
    InvalidWindow(WindowAssigner),
    /// The pipeline stage requires the other engine.
    WrongEngine {
        /// The engine the stage needs (`"cpu"` or `"gpu"`).
        needed: &'static str,
    },
    /// The GPU kernel spec failed validation.
    Spec(SpecError),
    /// The fabric refused the job at admission.
    Admission(AdmissionError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::EmptySource { source } => {
                write!(f, "source {source} emits zero micro-batches")
            }
            StreamError::NoTimestamps => {
                write!(f, "windowing requires timestamps(..) on the stream")
            }
            StreamError::InvalidWindow(w) => {
                write!(f, "degenerate window assigner {w:?}")
            }
            StreamError::WrongEngine { needed } => {
                write!(f, "pipeline stage requires the {needed} engine")
            }
            StreamError::Spec(e) => write!(f, "kernel spec rejected: {e:?}"),
            StreamError::Admission(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<SpecError> for StreamError {
    fn from(e: SpecError) -> Self {
        StreamError::Spec(e)
    }
}

impl From<AdmissionError> for StreamError {
    fn from(e: AdmissionError) -> Self {
        StreamError::Admission(e)
    }
}

/// A micro-batch (or fired window) that terminally failed — retries and
/// CPU fallback both exhausted. Surfaced in the report instead of
/// panicking the driver.
#[derive(Clone, Debug)]
pub struct LostBatch {
    /// The batch index (map pipelines) or window fire sequence (window
    /// pipelines).
    pub index: usize,
    /// Worker whose manager abandoned it.
    pub worker: usize,
    /// Why it was abandoned.
    pub reason: FailReason,
}

/// Latency/throughput report for one streaming run.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// Micro-batches (map) or windows (windowed) processed to completion.
    pub batches: usize,
    /// Per-unit latency summary (seconds).
    pub latency: Summary,
    /// Per-unit latency histogram — `p50()`/`p95()`/`p99()` for SLO-style
    /// reporting.
    pub latency_hist: LogHistogram,
    /// Latency of the final unit — diverges under backpressure.
    pub last_latency: SimTime,
    /// When the last unit completed (or terminally failed).
    pub finished_at: SimTime,
    /// Units lost to terminal failures (device loss past every retry and
    /// fallback). Empty on a healthy run.
    pub lost: Vec<LostBatch>,
    /// Event-time records routed late (windowed pipelines only).
    pub late_records: u64,
    /// Submissions parked in the backpressure pen (GPU engine only).
    pub parked_works: u64,
    /// Total simulated time submissions sat penned before release.
    pub park_delay: SimTime,
    /// The job's GPU rollup, as a batch job's `JobReport` carries it.
    /// `None` on the CPU engine.
    pub gpu: Option<GpuRollup>,
}

impl StreamReport {
    fn empty() -> StreamReport {
        StreamReport {
            batches: 0,
            latency: Summary::new(),
            latency_hist: LogHistogram::new(),
            last_latency: SimTime::ZERO,
            finished_at: SimTime::ZERO,
            lost: Vec::new(),
            late_records: 0,
            parked_works: 0,
            park_delay: SimTime::ZERO,
            gpu: None,
        }
    }

    /// Attach a GPU stream job's closed rollup, with its pen statistics.
    fn with_rollup(&mut self, gpu: GpuRollup) {
        self.parked_works = gpu.parked_works;
        self.park_delay = gpu.park_delay;
        self.gpu = Some(gpu);
    }

    /// Fold one unit released at `release` and completed at `done` into
    /// the count, the latency summary and histogram, the last latency and
    /// the finish instant. Returns the unit's latency.
    fn complete(&mut self, release: SimTime, done: SimTime) -> SimTime {
        let lat = done.saturating_sub(release);
        self.batches += 1;
        self.latency.add_time(lat);
        self.latency_hist.record(lat);
        self.last_latency = lat;
        self.finished_at = self.finished_at.max(done);
        lat
    }

    /// Whether the operator kept up: no unit was lost, and the last unit's
    /// latency is within `factor` of the mean (no queue growth). A loss-free
    /// run whose mean latency is zero (nothing completed, or all-zero
    /// latencies) is sustained iff the last latency is also zero — no
    /// division by zero.
    pub fn sustained(&self, factor: f64) -> bool {
        if !self.lost.is_empty() {
            return false;
        }
        let mean = self.latency.mean();
        if mean <= 0.0 {
            return self.last_latency.is_zero();
        }
        self.last_latency.as_secs_f64() <= mean * factor
    }

    /// Effective throughput, logical records per second.
    pub fn throughput(&self, source: &StreamSource) -> f64 {
        let secs = self.finished_at.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        source.batch_logical() as f64 * self.batches as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sustained_guard_handles_zero_mean() {
        let mut r = StreamReport::empty();
        assert!(r.sustained(1.5));
        r.last_latency = SimTime::from_millis(5);
        assert!(!r.sustained(1.5), "nonzero last over zero mean diverges");
    }

    #[test]
    fn a_run_that_loses_units_is_not_sustained() {
        // Every unit lost: mean and last latency are both zero, which alone
        // would read as sustained.
        let mut r = StreamReport::empty();
        r.lost = (0..40)
            .map(|index| LostBatch {
                index,
                worker: 0,
                reason: FailReason::RetriesExhausted,
            })
            .collect();
        assert!(!r.sustained(1.5), "40 of 40 units lost");
        // One lost unit among steady, on-time ones is still a failure.
        let mut r = StreamReport::empty();
        for _ in 0..10 {
            r.latency.add(0.010);
        }
        r.last_latency = SimTime::from_millis(10);
        assert!(r.sustained(1.5));
        r.lost.push(LostBatch {
            index: 3,
            worker: 1,
            reason: FailReason::NoUsableDevice,
        });
        assert!(!r.sustained(1.5), "a lost unit among on-time ones");
    }
}
