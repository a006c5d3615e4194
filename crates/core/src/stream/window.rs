//! Keyed windows over event time: assigners, merge logic, aggregation.
//!
//! A window assigner maps a record's event timestamp to one or more
//! [`WindowSpan`]s; per `(span, key)` the engine keeps a **pane** of
//! buffered values. Panes fire when the watermark passes the span's end
//! plus any allowed lateness; records whose every window already fired are
//! **late** and are routed to the late counter instead of silently
//! reopening state. Session windows have no static spans — panes merge as
//! records bridge the inactivity gap, exactly once, keyed deterministically.
//!
//! Tumbling and sliding panes live flat: one arrival-ordered row buffer
//! per open span, stably sorted by key when the span fires. Every pane
//! therefore folds its values in insertion order, so the CPU aggregation
//! path and the GPU windowed-aggregation kernel produce bit-identical
//! floating-point results: the GPU work packs the fired rows as they lie
//! and the kernel folds them with the same [`AggResult::push`].

use super::time::{fnv1a, WatermarkStamp, FNV_OFFSET};
use super::StreamError;
use crate::checkpoint::{OpenPane, StreamState};
use gflink_sim::SimTime;
use std::collections::BTreeMap;

/// One window's event-time extent: `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct WindowSpan {
    /// Inclusive event-time start.
    pub start: SimTime,
    /// Exclusive event-time end (for sessions: last event + gap).
    pub end: SimTime,
}

/// How records map to windows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowAssigner {
    /// Fixed, non-overlapping windows of `size`.
    Tumbling {
        /// Window length.
        size: SimTime,
    },
    /// Overlapping windows of `size` starting every `slide`.
    Sliding {
        /// Window length.
        size: SimTime,
        /// Start-to-start distance between consecutive windows.
        slide: SimTime,
    },
    /// Per-key activity sessions separated by at least `gap` of silence.
    Session {
        /// Inactivity gap that closes a session.
        gap: SimTime,
    },
}

/// Fluent constructor for tumbling windows: `Tumbling::of(size)`.
pub struct Tumbling;

impl Tumbling {
    /// Fixed windows of `size`, aligned to the epoch.
    pub fn of(size: SimTime) -> WindowAssigner {
        WindowAssigner::Tumbling { size }
    }
}

/// Fluent constructor for sliding windows: `Sliding::of(size, slide)`.
pub struct Sliding;

impl Sliding {
    /// Windows of `size` starting every `slide`.
    pub fn of(size: SimTime, slide: SimTime) -> WindowAssigner {
        WindowAssigner::Sliding { size, slide }
    }
}

/// Fluent constructor for session windows: `Session::with_gap(gap)`.
pub struct Session;

impl Session {
    /// Per-key sessions closed by `gap` of inactivity.
    pub fn with_gap(gap: SimTime) -> WindowAssigner {
        WindowAssigner::Session { gap }
    }
}

impl WindowAssigner {
    /// Static spans containing event time `ts`, ascending by start
    /// (tumbling/sliding only; session spans are dynamic and grow by
    /// merging). Pure arithmetic over the epoch-aligned span grid: nothing
    /// is allocated per record.
    pub fn assign(&self, ts: SimTime) -> impl Iterator<Item = WindowSpan> {
        let (size, slide) = match *self {
            WindowAssigner::Tumbling { size } => (size.as_nanos(), size.as_nanos()),
            WindowAssigner::Sliding { size, slide } => (size.as_nanos(), slide.as_nanos()),
            WindowAssigner::Session { .. } => (1, 1),
        };
        let (size, slide) = (size.max(1), slide.max(1));
        let ts = ts.as_nanos();
        // Every multiple of `slide` in `(ts − size, ts]`.
        let first = ts.saturating_add(1).saturating_sub(size).div_ceil(slide) * slide;
        let last = ts / slide * slide;
        let count = match *self {
            WindowAssigner::Session { .. } => 0,
            _ if first > last => 0,
            _ => (last - first) / slide + 1,
        };
        (0..count).map(move |i| {
            let start = first + i * slide;
            WindowSpan {
                start: SimTime::from_nanos(start),
                end: SimTime::from_nanos(start + size),
            }
        })
    }

    /// Refuse degenerate assigners: a zero size, slide or gap, or a slide
    /// wider than the window (records in the gaps would belong to no
    /// window and be miscounted as late). A zero slide would give every
    /// record one span per nanosecond of window size.
    pub(crate) fn validate(&self) -> Result<(), StreamError> {
        let ok = match *self {
            WindowAssigner::Tumbling { size } => !size.is_zero(),
            WindowAssigner::Sliding { size, slide } => !slide.is_zero() && slide <= size,
            WindowAssigner::Session { gap } => !gap.is_zero(),
        };
        if ok {
            Ok(())
        } else {
            Err(StreamError::InvalidWindow(*self))
        }
    }
}

/// The aggregation applied to each fired pane's values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggOp {
    /// Number of records.
    Count,
    /// Sum of the extracted values.
    Sum,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Arithmetic mean (`sum / count`).
    Avg,
}

/// A windowed aggregation: the operation plus its per-logical-record cost
/// profile (what the CPU slots and the GPU kernel charge per element).
#[derive(Clone, Copy, Debug)]
pub struct AggSpec {
    /// The aggregation operator.
    pub op: AggOp,
    /// Floating-point operations per logical record.
    pub flops_per_record: f64,
    /// Bytes touched per logical record.
    pub bytes_per_record: f64,
}

impl AggSpec {
    /// An aggregation with the default streaming-analytics cost profile
    /// (a few hundred ops per record, one 16-byte key/value pair).
    pub fn of(op: AggOp) -> AggSpec {
        AggSpec {
            op,
            flops_per_record: 200.0,
            bytes_per_record: 16.0,
        }
    }

    /// Windowed average — the Nexmark q6 shape.
    pub fn avg() -> AggSpec {
        AggSpec::of(AggOp::Avg)
    }
}

/// The full fold of one pane: every downstream value (`count`, `sum`,
/// `min`, `max`, `avg`) derives from it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AggResult {
    /// Records folded.
    pub count: u64,
    /// Sequential sum in insertion order.
    pub sum: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

impl AggResult {
    /// The fold of no values.
    pub const EMPTY: AggResult = AggResult {
        count: 0,
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    /// Fold one more value in. Both the CPU engine and the GPU kernel fold
    /// each pane through exactly this, value by value in insertion order,
    /// so results are bit-identical.
    #[inline]
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold `values` sequentially, in slice order.
    pub fn fold(values: &[f64]) -> AggResult {
        let mut r = AggResult::EMPTY;
        for &v in values {
            r.push(v);
        }
        r
    }

    /// The scalar the configured [`AggOp`] extracts.
    pub fn value(&self, op: AggOp) -> f64 {
        match op {
            AggOp::Count => self.count as f64,
            AggOp::Sum => self.sum,
            AggOp::Min => self.min,
            AggOp::Max => self.max,
            AggOp::Avg => {
                if self.count == 0 {
                    0.0
                } else {
                    self.sum / self.count as f64
                }
            }
        }
    }
}

/// One emitted window result: a `(span, key)` pane's aggregate plus when
/// and how fast the engine produced it.
#[derive(Clone, Debug)]
pub struct WindowOutput {
    /// The window's event-time extent.
    pub span: WindowSpan,
    /// The pane's key.
    pub key: u64,
    /// The fold over the pane's values.
    pub agg: AggResult,
    /// Engine completion instant (processing time).
    pub fired_at: SimTime,
    /// Completion minus fire eligibility (the watermark passing the span).
    pub latency: SimTime,
    /// Satisfied from a durable checkpoint instead of executing.
    pub restored: bool,
}

/// Digest of window outputs: folds `(span, key, count, sum, min, max)` in
/// slice order — value-only, so it is invariant across engines, placement
/// policies and fault plans. Sort by `(span, key)` before calling for a
/// canonical digest.
pub fn output_digest(outputs: &[WindowOutput]) -> u64 {
    let mut h = FNV_OFFSET;
    for o in outputs {
        fnv1a(&mut h, &o.span.start.as_nanos().to_le_bytes());
        fnv1a(&mut h, &o.span.end.as_nanos().to_le_bytes());
        fnv1a(&mut h, &o.key.to_le_bytes());
        fnv1a(&mut h, &o.agg.count.to_le_bytes());
        fnv1a(&mut h, &o.agg.sum.to_bits().to_le_bytes());
        fnv1a(&mut h, &o.agg.min.to_bits().to_le_bytes());
        fnv1a(&mut h, &o.agg.max.to_bits().to_le_bytes());
    }
    h
}

/// One buffered record: its key, the aggregated value, and its logical
/// weight (paper-scale record count).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Row {
    pub(crate) key: u64,
    pub(crate) value: f64,
    pub(crate) logical: f64,
}

/// One open session pane: its rows in insertion order plus the
/// accumulated logical weight (summed in merge order, which is why it is
/// kept rather than re-derived from the rows).
#[derive(Clone, Debug, PartialEq)]
struct Pane {
    span: WindowSpan,
    rows: Vec<Row>,
    logical: f64,
}

/// One pane of a fired window: the key's rows are
/// `rows[first..first + len]` of the window's row array.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct PaneRange {
    pub(crate) key: u64,
    pub(crate) first: usize,
    pub(crate) len: usize,
    /// The pane's logical weight, summed in the pane's insertion order.
    pub(crate) logical: f64,
}

/// A window the watermark released: every pane of one span, ready to
/// execute as one unit of work. Flat: one row array, sorted by key with
/// each key's values in insertion order, plus one [`PaneRange`] per key,
/// ascending.
#[derive(Clone, Debug)]
pub(crate) struct FiredWindow {
    /// Fire order — the GPU work tag and checkpoint block identity.
    pub(crate) seq: u32,
    pub(crate) span: WindowSpan,
    /// The arrival instant whose watermark advance released the window.
    pub(crate) fire_at: SimTime,
    pub(crate) rows: Vec<Row>,
    pub(crate) panes: Vec<PaneRange>,
}

impl FiredWindow {
    pub(crate) fn rows(&self) -> usize {
        self.rows.len()
    }

    pub(crate) fn logical(&self) -> u64 {
        (self.panes.iter().map(|p| p.logical).sum::<f64>()).round() as u64
    }

    /// The rows of one pane, in insertion order.
    pub(crate) fn pane_rows(&self, pane: &PaneRange) -> &[Row] {
        &self.rows[pane.first..pane.first + pane.len]
    }

    /// Fold one pane's values in insertion order — the fold the GPU kernel
    /// performs over the same rows.
    pub(crate) fn fold(&self, pane: &PaneRange) -> AggResult {
        let mut r = AggResult::EMPTY;
        for row in self.pane_rows(pane) {
            r.push(row.value);
        }
        r
    }
}

/// Group an arrival-ordered row buffer into key-ascending panes. The sort
/// is stable, so each key's rows keep their insertion order, and each
/// pane's weight sums in that order — exactly how a per-pane buffer would
/// have accumulated them.
fn group_by_key(mut rows: Vec<Row>) -> (Vec<Row>, Vec<PaneRange>) {
    rows.sort_by_key(|r| r.key);
    let mut panes: Vec<PaneRange> = Vec::new();
    for (i, r) in rows.iter().enumerate() {
        if panes.last().is_none_or(|p| p.key != r.key) {
            panes.push(PaneRange {
                key: r.key,
                first: i,
                len: 0,
                logical: 0.0,
            });
        }
        let pane = panes
            .last_mut()
            .expect("a pane for this key was just opened");
        pane.len += 1;
        pane.logical += r.logical;
    }
    (rows, panes)
}

/// The keyed event-time state machine: open windows, the watermark, the
/// late-record counter, and the fire sequence. Driven batch-by-batch by
/// the engines; identical inputs produce identical fire sequences on
/// every engine.
///
/// Tumbling and sliding windows keep one arrival-ordered row buffer per
/// open span, ordered by `(end, start)`. Whether a span is closed depends
/// on its end alone, so the spans a watermark releases are a prefix of
/// that order, and firing pops them from the front. Sessions keep one
/// pane per `(start, end, key)`, since a record may merge panes.
pub(crate) struct KeyedWindows {
    assigner: WindowAssigner,
    lateness: SimTime,
    bound: SimTime,
    pub(crate) max_ts: Option<SimTime>,
    pub(crate) watermark: Option<SimTime>,
    /// Tumbling/sliding: open spans keyed `(end ns, start ns)`.
    spans: BTreeMap<(u64, u64), Vec<Row>>,
    /// Sessions: open panes keyed `(start ns, end ns, key)`.
    sessions: BTreeMap<(u64, u64, u64), Pane>,
    pub(crate) late_records: u64,
    pub(crate) fire_seq: u32,
    pub(crate) stamps: Vec<WatermarkStamp>,
}

impl KeyedWindows {
    pub(crate) fn new(assigner: WindowAssigner, lateness: SimTime, bound: SimTime) -> KeyedWindows {
        KeyedWindows {
            assigner,
            lateness,
            bound,
            max_ts: None,
            watermark: None,
            spans: BTreeMap::new(),
            sessions: BTreeMap::new(),
            late_records: 0,
            fire_seq: 0,
            stamps: Vec::new(),
        }
    }

    /// Whether a span has already been released by the watermark (its end
    /// plus allowed lateness is at or behind it).
    fn closed(&self, end: SimTime) -> bool {
        match self.watermark {
            Some(wm) => end + self.lateness <= wm,
            None => false,
        }
    }

    /// Route one record into its window(s); counts it late when every
    /// assigned window already fired.
    pub(crate) fn insert(&mut self, ts: SimTime, key: u64, value: f64, logical: f64) {
        self.max_ts = Some(self.max_ts.map_or(ts, |m| m.max(ts)));
        let row = Row {
            key,
            value,
            logical,
        };
        let assigner = self.assigner;
        if let WindowAssigner::Session { gap } = assigner {
            return self.insert_session(ts, row, gap);
        }
        let mut landed = false;
        for span in assigner.assign(ts) {
            if self.closed(span.end) {
                continue;
            }
            landed = true;
            self.spans
                .entry((span.end.as_nanos(), span.start.as_nanos()))
                .or_default()
                .push(row);
        }
        if !landed {
            self.late_records += 1;
        }
    }

    /// Session insertion: merge every same-key pane whose gap-extended
    /// interval touches the record's, earliest-first, then absorb the
    /// record. A record whose own session would fire instantly is late.
    fn insert_session(&mut self, ts: SimTime, row: Row, gap: SimTime) {
        if self.closed(ts + gap) {
            self.late_records += 1;
            return;
        }
        let touching: Vec<(u64, u64, u64)> = self
            .sessions
            .iter()
            .filter(|((_, _, k), pane)| {
                *k == row.key && ts <= pane.span.end && pane.span.start <= ts + gap
            })
            .map(|(k, _)| *k)
            .collect();
        let mut span = WindowSpan {
            start: ts,
            end: ts + gap,
        };
        let mut rows = Vec::new();
        let mut weight = 0.0;
        for k in touching {
            let pane = self.sessions.remove(&k).expect("touching pane exists");
            span.start = span.start.min(pane.span.start);
            span.end = span.end.max(pane.span.end);
            rows.extend(pane.rows);
            weight += pane.logical;
        }
        rows.push(row);
        weight += row.logical;
        self.sessions.insert(
            (span.start.as_nanos(), span.end.as_nanos(), row.key),
            Pane {
                span,
                rows,
                logical: weight,
            },
        );
    }

    /// Advance the watermark after a batch arriving at `arrival` was
    /// absorbed, record the timeline stamp, and fire released windows.
    pub(crate) fn advance(&mut self, arrival: SimTime) -> Vec<FiredWindow> {
        let head = match self.max_ts {
            Some(m) => m,
            None => return Vec::new(),
        };
        let wm = head.saturating_sub(self.bound);
        let wm = self.watermark.map_or(wm, |old| old.max(wm));
        self.watermark = Some(wm);
        self.stamps.push(WatermarkStamp {
            at: arrival,
            watermark: wm,
        });
        self.fire(arrival, false)
    }

    /// End of stream: fire everything still open at `at` and stamp the
    /// terminal watermark (the bound collapses — no more data can come).
    pub(crate) fn flush(&mut self, at: SimTime) -> Vec<FiredWindow> {
        if let Some(head) = self.max_ts {
            self.watermark = Some(self.watermark.map_or(head, |old| old.max(head)));
            self.stamps.push(WatermarkStamp {
                at,
                watermark: head.max(self.watermark.unwrap_or(head)),
            });
        }
        self.fire(at, true)
    }

    fn next_seq(&mut self) -> u32 {
        let seq = self.fire_seq;
        self.fire_seq += 1;
        seq
    }

    /// Release eligible windows in `(end, start)` order, each window's
    /// panes key-ascending — the deterministic fire sequence.
    fn fire(&mut self, at: SimTime, all: bool) -> Vec<FiredWindow> {
        let mut fired = Vec::new();
        while let Some(&(end, start)) = self.spans.keys().next() {
            if !all && !self.closed(SimTime::from_nanos(end)) {
                break;
            }
            let rows = self.spans.remove(&(end, start)).expect("first span exists");
            let (rows, panes) = group_by_key(rows);
            fired.push(FiredWindow {
                seq: self.next_seq(),
                span: WindowSpan {
                    start: SimTime::from_nanos(start),
                    end: SimTime::from_nanos(end),
                },
                fire_at: at,
                rows,
                panes,
            });
        }
        self.fire_sessions(at, all, &mut fired);
        fired
    }

    /// Session firing: released panes sorted by `(end, start, key)`, each
    /// run of equal spans one window.
    fn fire_sessions(&mut self, at: SimTime, all: bool, fired: &mut Vec<FiredWindow>) {
        let mut eligible: Vec<(u64, u64, u64)> = self
            .sessions
            .iter()
            .filter(|(_, pane)| all || self.closed(pane.span.end))
            .map(|(k, _)| *k)
            .collect();
        eligible.sort_by_key(|&(start, end, key)| (end, start, key));
        for k in eligible {
            let pane = self.sessions.remove(&k).expect("eligible pane exists");
            let range = |first| PaneRange {
                key: k.2,
                first,
                len: pane.rows.len(),
                logical: pane.logical,
            };
            match fired.last_mut() {
                Some(fw) if fw.span == pane.span => {
                    fw.panes.push(range(fw.rows.len()));
                    fw.rows.extend(pane.rows);
                }
                _ => {
                    let panes = vec![range(0)];
                    fired.push(FiredWindow {
                        seq: self.next_seq(),
                        span: pane.span,
                        fire_at: at,
                        rows: pane.rows,
                        panes,
                    });
                }
            }
        }
    }

    /// Open panes in `(start, end, key)` order, each with its values in
    /// insertion order — the GFSS snapshot view of the state. Built from
    /// the span buffers on demand; ingestion never maintains it.
    fn open_panes(&self) -> Vec<OpenPane> {
        let pane = |start: u64, end: u64, key: u64, rows: &[Row], logical: f64| OpenPane {
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
            key,
            logical,
            values: rows.iter().map(|r| r.value).collect(),
        };
        let mut open = Vec::new();
        // Static spans all share one size, so `(end, start)` order is
        // `(start, end)` order.
        for (&(end, start), rows) in &self.spans {
            let (rows, panes) = group_by_key(rows.clone());
            for p in &panes {
                let pane_rows = &rows[p.first..p.first + p.len];
                open.push(pane(start, end, p.key, pane_rows, p.logical));
            }
        }
        for (&(start, end, key), p) in &self.sessions {
            open.push(pane(start, end, key, &p.rows, p.logical));
        }
        open
    }

    /// The checkpointable state after `batches` merged micro-batches.
    pub(crate) fn state(&self, batches: u64) -> StreamState {
        StreamState {
            batches,
            watermark: self.watermark,
            max_event_ts: self.max_ts.unwrap_or(SimTime::ZERO),
            late_records: self.late_records,
            fired: self.fire_seq as u64,
            open: self.open_panes(),
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn spans(w: WindowAssigner, ts: SimTime) -> Vec<WindowSpan> {
        w.assign(ts).collect()
    }

    #[test]
    fn tumbling_assignment_aligns_to_epoch() {
        let w = Tumbling::of(ms(100));
        assert_eq!(
            spans(w, ms(250)),
            vec![WindowSpan {
                start: ms(200),
                end: ms(300)
            }]
        );
        assert_eq!(spans(w, ms(200))[0].start, ms(200));
        assert_eq!(spans(w, SimTime::ZERO)[0].start, SimTime::ZERO);
    }

    #[test]
    fn sliding_assignment_covers_every_overlapping_window() {
        let w = Sliding::of(ms(100), ms(25));
        let spans = spans(w, ms(130));
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].start, ms(50));
        assert_eq!(spans[3].start, ms(125));
        for s in &spans {
            assert!(s.start <= ms(130) && ms(130) < s.end);
        }
        // Near the epoch only the in-range windows exist.
        assert_eq!(w.assign(ms(10)).count(), 1);
    }

    #[test]
    fn degenerate_assigners_are_refused() {
        for w in [
            Tumbling::of(SimTime::ZERO),
            Sliding::of(ms(100), SimTime::ZERO),
            Sliding::of(ms(100), ms(101)),
            Session::with_gap(SimTime::ZERO),
        ] {
            assert_eq!(w.validate(), Err(StreamError::InvalidWindow(w)));
        }
        for w in [
            Tumbling::of(SimTime::from_nanos(1)),
            Sliding::of(ms(100), ms(100)),
            Sliding::of(ms(100), ms(30)),
            Session::with_gap(ms(1)),
        ] {
            assert_eq!(w.validate(), Ok(()));
        }
    }

    #[test]
    fn watermark_fires_tumbling_windows_and_routes_late_records() {
        let mut kw = KeyedWindows::new(Tumbling::of(ms(100)), SimTime::ZERO, ms(20));
        kw.insert(ms(50), 1, 1.0, 10.0);
        kw.insert(ms(90), 1, 2.0, 10.0);
        assert!(kw.advance(ms(100)).is_empty(), "watermark 70 < end 100");
        kw.insert(ms(130), 2, 5.0, 10.0);
        let fired = kw.advance(ms(200));
        assert_eq!(fired.len(), 1, "watermark 110 releases [0,100)");
        assert_eq!(fired[0].span.start, SimTime::ZERO);
        assert_eq!(fired[0].panes.len(), 1);
        assert_eq!(fired[0].fold(&fired[0].panes[0]).sum, 3.0);
        assert_eq!(fired[0].logical(), 20);
        // A record for the fired window is late, not silently reopened.
        kw.insert(ms(60), 1, 9.0, 10.0);
        assert_eq!(kw.late_records, 1);
        // Flush releases the rest and the fire sequence advances.
        let rest = kw.flush(ms(300));
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].seq, 1);
        assert_eq!(rest[0].panes[0].key, 2);
    }

    #[test]
    fn allowed_lateness_keeps_windows_open_longer() {
        let mut kw = KeyedWindows::new(Tumbling::of(ms(100)), ms(50), SimTime::ZERO);
        kw.insert(ms(10), 1, 1.0, 1.0);
        kw.insert(ms(120), 1, 2.0, 1.0);
        assert!(
            kw.advance(ms(120)).is_empty(),
            "end 100 + lateness 50 > watermark 120"
        );
        kw.insert(ms(20), 1, 3.0, 1.0); // within lateness: not late
        assert_eq!(kw.late_records, 0);
        kw.insert(ms(160), 1, 4.0, 1.0);
        let fired = kw.advance(ms(160));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].fold(&fired[0].panes[0]).count, 2);
    }

    #[test]
    fn sessions_merge_on_bridging_records() {
        let mut kw = KeyedWindows::new(Session::with_gap(ms(50)), SimTime::ZERO, SimTime::ZERO);
        kw.insert(ms(0), 7, 1.0, 1.0);
        kw.insert(ms(100), 7, 2.0, 1.0);
        assert_eq!(kw.sessions.len(), 2, "two separate sessions");
        kw.insert(ms(25), 7, 3.0, 1.0); // touches the first session only
        assert_eq!(kw.sessions.len(), 2);
        kw.insert(ms(60), 7, 4.0, 1.0); // bridges [0,75) and [100,150)
        assert_eq!(kw.sessions.len(), 1, "bridging record merges the sessions");
        let pane = kw.sessions.values().next().unwrap();
        assert_eq!(pane.span.start, SimTime::ZERO);
        assert_eq!(pane.span.end, ms(150));
        let values: Vec<f64> = pane.rows.iter().map(|r| r.value).collect();
        assert_eq!(values, vec![1.0, 3.0, 2.0, 4.0]);
        // A different key never merges.
        kw.insert(ms(60), 8, 9.0, 1.0);
        assert_eq!(kw.sessions.len(), 2);
    }

    #[test]
    fn agg_results_cover_every_op() {
        let r = AggResult::fold(&[3.0, 1.0, 2.0]);
        assert_eq!(r.value(AggOp::Count), 3.0);
        assert_eq!(r.value(AggOp::Sum), 6.0);
        assert_eq!(r.value(AggOp::Min), 1.0);
        assert_eq!(r.value(AggOp::Max), 3.0);
        assert_eq!(r.value(AggOp::Avg), 2.0);
        assert_eq!(AggResult::fold(&[]).value(AggOp::Avg), 0.0);
    }
}
