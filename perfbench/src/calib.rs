//! A fixed reference workload that measures how fast the host runs right
//! now.
//!
//! It uses no code of the system under test, so a change to the program
//! never moves it; only the host does (frequency, a busy core sibling,
//! contended caches and memory). Its mix follows the program's host path:
//! an ordered event queue, hash-map lookups, small allocations and a float
//! loop over a few megabytes.

use crate::probe::cpu_s;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;

/// Entries in the event queue and the hash map.
const ENTRIES: u64 = 1 << 14;
/// Floats in the streamed array (4 MiB).
const FLOATS: usize = 1 << 20;

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One unit of reference work; returns a checksum so that none of it is
/// optimised away.
fn unit(floats: &mut [f32]) -> u64 {
    let mut sum = 0u64;
    // Event queue: pop the earliest, push a later one.
    let mut queue: BTreeMap<u64, u64> = (0..ENTRIES).map(|i| (mix(i), i)).collect();
    for i in 0..ENTRIES * 4 {
        let (t, v) = queue.pop_first().expect("queue is never empty");
        sum = sum.wrapping_add(v);
        queue.insert(t.wrapping_add(mix(i) >> 20), v ^ i);
    }
    // Hash-map lookups with small allocations.
    let mut map: HashMap<u64, Vec<u8>> = HashMap::new();
    for i in 0..ENTRIES * 2 {
        map.insert(mix(i) % ENTRIES, vec![i as u8; (i % 48) as usize + 16]);
    }
    for i in 0..ENTRIES * 8 {
        if let Some(v) = map.get(&(mix(i ^ 7) % ENTRIES)) {
            sum = sum.wrapping_add(v.len() as u64);
        }
    }
    // A float pass over the array.
    let mut acc = 0.0f32;
    for (i, f) in floats.iter_mut().enumerate() {
        *f = *f * 0.5 + (i & 1023) as f32;
        acc += *f;
    }
    sum.wrapping_add(acc.to_bits() as u64)
}

/// CPU seconds of `reps` units of reference work, one sample per unit,
/// after one unit of warm-up. Call it while no other thread of the process
/// runs.
pub fn samples(reps: usize) -> Vec<f64> {
    let mut floats = vec![1.0f32; FLOATS];
    black_box(unit(black_box(&mut floats)));
    (0..reps)
        .map(|_| {
            let t = cpu_s();
            black_box(unit(black_box(&mut floats)));
            cpu_s() - t
        })
        .collect()
}
