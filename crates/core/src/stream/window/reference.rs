//! The pane-map window state the span buffers replaced, kept as a
//! reference model: one `(start, end, key)`-keyed pane per open window and
//! key, a per-record span `Vec`, and a scan-and-sort of every open pane on
//! each watermark advance. The property test below drives it and
//! [`KeyedWindows`](super::KeyedWindows) with the same random batches and
//! requires identical fire sequences, watermark stamps, late counts and
//! checkpointable state.

use super::{FiredWindow as Fired, KeyedWindows as Flat, WindowAssigner, WindowSpan};
use crate::checkpoint::{OpenPane, StreamState};
use crate::stream::time::WatermarkStamp;
use gflink_sim::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Static spans containing `ts`, ascending by start, one `Vec` per record.
fn assign(assigner: WindowAssigner, ts: SimTime) -> Vec<WindowSpan> {
    match assigner {
        WindowAssigner::Tumbling { size } => {
            let size_n = size.as_nanos().max(1);
            let start = ts.as_nanos() / size_n * size_n;
            vec![WindowSpan {
                start: SimTime::from_nanos(start),
                end: SimTime::from_nanos(start + size_n),
            }]
        }
        WindowAssigner::Sliding { size, slide } => {
            let size_n = size.as_nanos().max(1);
            let slide_n = slide.as_nanos().max(1);
            let ts_n = ts.as_nanos();
            let mut starts = Vec::new();
            let mut s = ts_n / slide_n * slide_n;
            loop {
                if s + size_n > ts_n {
                    starts.push(s);
                } else {
                    break;
                }
                if s < slide_n {
                    break;
                }
                s -= slide_n;
            }
            starts.reverse(); // ascending start order
            starts
                .into_iter()
                .map(|start| WindowSpan {
                    start: SimTime::from_nanos(start),
                    end: SimTime::from_nanos(start + size_n),
                })
                .collect()
        }
        WindowAssigner::Session { .. } => Vec::new(),
    }
}

/// One open `(span, key)` pane: buffered values in insertion order plus
/// the accumulated logical weight.
#[derive(Clone, Debug, PartialEq)]
struct Pane {
    span: WindowSpan,
    key: u64,
    values: Vec<f64>,
    logical: f64,
}

/// A released window: every pane of one span, keys ascending.
#[derive(Clone, Debug)]
struct FiredWindow {
    seq: u32,
    span: WindowSpan,
    fire_at: SimTime,
    panes: Vec<Pane>,
}

/// The reference keyed event-time state machine.
struct KeyedWindows {
    assigner: WindowAssigner,
    lateness: SimTime,
    bound: SimTime,
    max_ts: Option<SimTime>,
    watermark: Option<SimTime>,
    open: BTreeMap<(u64, u64, u64), Pane>,
    late_records: u64,
    fire_seq: u32,
    stamps: Vec<WatermarkStamp>,
}

impl KeyedWindows {
    fn new(assigner: WindowAssigner, lateness: SimTime, bound: SimTime) -> KeyedWindows {
        KeyedWindows {
            assigner,
            lateness,
            bound,
            max_ts: None,
            watermark: None,
            open: BTreeMap::new(),
            late_records: 0,
            fire_seq: 0,
            stamps: Vec::new(),
        }
    }

    fn closed(&self, end: SimTime) -> bool {
        match self.watermark {
            Some(wm) => end + self.lateness <= wm,
            None => false,
        }
    }

    fn insert(&mut self, ts: SimTime, key: u64, value: f64, logical: f64) {
        self.max_ts = Some(self.max_ts.map_or(ts, |m| m.max(ts)));
        match self.assigner {
            WindowAssigner::Session { gap } => self.insert_session(ts, key, value, logical, gap),
            _ => {
                let mut landed = false;
                for span in assign(self.assigner, ts) {
                    if self.closed(span.end) {
                        continue;
                    }
                    landed = true;
                    let k = (span.start.as_nanos(), span.end.as_nanos(), key);
                    let pane = self.open.entry(k).or_insert_with(|| Pane {
                        span,
                        key,
                        values: Vec::new(),
                        logical: 0.0,
                    });
                    pane.values.push(value);
                    pane.logical += logical;
                }
                if !landed {
                    self.late_records += 1;
                }
            }
        }
    }

    fn insert_session(&mut self, ts: SimTime, key: u64, value: f64, logical: f64, gap: SimTime) {
        if self.closed(ts + gap) {
            self.late_records += 1;
            return;
        }
        let touching: Vec<(u64, u64, u64)> = self
            .open
            .iter()
            .filter(|((_, _, k), pane)| {
                *k == key && ts <= pane.span.end && pane.span.start <= ts + gap
            })
            .map(|(k, _)| *k)
            .collect();
        let mut span = WindowSpan {
            start: ts,
            end: ts + gap,
        };
        let mut values = Vec::new();
        let mut weight = 0.0;
        for k in touching {
            let pane = self.open.remove(&k).expect("touching pane exists");
            span.start = span.start.min(pane.span.start);
            span.end = span.end.max(pane.span.end);
            values.extend(pane.values);
            weight += pane.logical;
        }
        values.push(value);
        weight += logical;
        self.open.insert(
            (span.start.as_nanos(), span.end.as_nanos(), key),
            Pane {
                span,
                key,
                values,
                logical: weight,
            },
        );
    }

    fn advance(&mut self, arrival: SimTime) -> Vec<FiredWindow> {
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

    fn flush(&mut self, at: SimTime) -> Vec<FiredWindow> {
        if let Some(head) = self.max_ts {
            self.watermark = Some(self.watermark.map_or(head, |old| old.max(head)));
            self.stamps.push(WatermarkStamp {
                at,
                watermark: head.max(self.watermark.unwrap_or(head)),
            });
        }
        self.fire(at, true)
    }

    fn fire(&mut self, at: SimTime, all: bool) -> Vec<FiredWindow> {
        let mut eligible: Vec<(u64, u64, u64)> = self
            .open
            .iter()
            .filter(|(_, pane)| all || self.closed(pane.span.end))
            .map(|(k, _)| *k)
            .collect();
        eligible.sort_by_key(|&(start, end, key)| (end, start, key));
        let mut fired: Vec<FiredWindow> = Vec::new();
        for k in eligible {
            let pane = self.open.remove(&k).expect("eligible pane exists");
            match fired.last_mut() {
                Some(fw) if fw.span == pane.span => fw.panes.push(pane),
                _ => {
                    let seq = self.fire_seq;
                    self.fire_seq += 1;
                    fired.push(FiredWindow {
                        seq,
                        span: pane.span,
                        fire_at: at,
                        panes: vec![pane],
                    });
                }
            }
        }
        fired
    }

    fn state(&self, batches: u64) -> StreamState {
        StreamState {
            batches,
            watermark: self.watermark,
            max_event_ts: self.max_ts.unwrap_or(SimTime::ZERO),
            late_records: self.late_records,
            fired: self.fire_seq as u64,
            open: self
                .open
                .values()
                .map(|p| OpenPane {
                    start: p.span.start,
                    end: p.span.end,
                    key: p.key,
                    logical: p.logical,
                    values: p.values.clone(),
                })
                .collect(),
        }
    }
}

/// One fired window as comparable bits: seq, span, fire instant, and per
/// pane its key, value bits and logical-weight bits.
type FireBits = (u32, WindowSpan, SimTime, Vec<(u64, Vec<u64>, u64)>);

fn reference_bits(fired: &[FiredWindow]) -> Vec<FireBits> {
    fired
        .iter()
        .map(|fw| {
            let panes = fw
                .panes
                .iter()
                .map(|p| {
                    let values = p.values.iter().map(|v| v.to_bits()).collect();
                    (p.key, values, p.logical.to_bits())
                })
                .collect();
            (fw.seq, fw.span, fw.fire_at, panes)
        })
        .collect()
}

fn flat_bits(fired: &[Fired]) -> Vec<FireBits> {
    fired
        .iter()
        .map(|fw| {
            let panes = fw
                .panes
                .iter()
                .map(|p| {
                    let values = fw.pane_rows(p).iter().map(|r| r.value.to_bits()).collect();
                    (p.key, values, p.logical.to_bits())
                })
                .collect();
            (fw.seq, fw.span, fw.fire_at, panes)
        })
        .collect()
}

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

/// Tumbling, sliding (up to eight spans per record, slide not necessarily
/// dividing size) and session assigners, at nanosecond-odd sizes.
fn arb_assigner() -> impl Strategy<Value = WindowAssigner> {
    prop_oneof![
        (1_000_000u64..200_000_000).prop_map(|n| WindowAssigner::Tumbling {
            size: SimTime::from_nanos(n),
        }),
        (1_000_000u64..200_000_000)
            .prop_flat_map(|size| (Just(size), (size / 8).max(1)..=size))
            .prop_map(|(size, slide)| WindowAssigner::Sliding {
                size: SimTime::from_nanos(size),
                slide: SimTime::from_nanos(slide),
            }),
        (1_000_000u64..100_000_000).prop_map(|n| WindowAssigner::Session {
            gap: SimTime::from_nanos(n),
        }),
    ]
}

/// Zero half the time, otherwise up to 100 ms.
fn arb_delay() -> impl Strategy<Value = SimTime> {
    prop_oneof![Just(0u64), 1u64..100_000_000].prop_map(SimTime::from_nanos)
}

/// One record: (lag behind its batch's arrival in ns, key, value, weight).
type Record = (u64, u64, f64, f64);

fn arb_batches() -> impl Strategy<Value = Vec<Vec<Record>>> {
    let record = (0u64..300_000_000, 0u64..5, -50.0f64..50.0, 0.1f64..1000.0);
    prop::collection::vec(prop::collection::vec(record, 0..12), 1..30)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The span buffers and flat fired windows behave exactly like the
    /// pane map: same fire sequence (down to value and weight bits), same
    /// watermark timeline, same late count, same GFSS state after every
    /// batch.
    #[test]
    fn span_buffers_match_the_pane_map(
        assigner in arb_assigner(),
        lateness in arb_delay(),
        bound in arb_delay(),
        batches in arb_batches(),
        step_ms in 1u64..80,
        flush in any::<bool>(),
    ) {
        let mut flat = Flat::new(assigner, lateness, bound);
        let mut reference = KeyedWindows::new(assigner, lateness, bound);
        let mut arrival = SimTime::ZERO;
        for (b, batch) in batches.iter().enumerate() {
            arrival += ms(step_ms);
            for &(lag, key, value, weight) in batch {
                let ts = arrival.saturating_sub(SimTime::from_nanos(lag));
                flat.insert(ts, key, value, weight);
                reference.insert(ts, key, value, weight);
            }
            prop_assert_eq!(
                flat_bits(&flat.advance(arrival)),
                reference_bits(&reference.advance(arrival))
            );
            prop_assert_eq!(flat.late_records, reference.late_records);
            let n = b as u64 + 1;
            prop_assert_eq!(flat.state(n).encode(), reference.state(n).encode());
        }
        if flush {
            prop_assert_eq!(
                flat_bits(&flat.flush(arrival)),
                reference_bits(&reference.flush(arrival))
            );
        }
        prop_assert_eq!(&flat.stamps, &reference.stamps);
        prop_assert_eq!(flat.fire_seq, reference.fire_seq);
        let n = batches.len() as u64;
        prop_assert_eq!(flat.state(n).encode(), reference.state(n).encode());
    }
}
