//! The reference computation: a fixed piece of work, independent of the
//! library, timed between every two measured stretches of a run so that
//! each measurement can be expressed in the host's speed at that moment.
//!
//! It mixes what the simulators spend their time on: integer hashing into
//! a memo table, an event heap ordered by time, floating-point arithmetic,
//! allocation and a sort. It never changes, so a library change cannot
//! move it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;

/// Events pushed through the heap in one call.
const EVENTS: u64 = 120_000;
/// Distinct memo keys.
const KEYS: u64 = 8192;
/// Heap size the event loop holds.
const IN_FLIGHT: usize = 512;
/// Length of the vector sorted at the end.
const SORTED: usize = 150_000;

/// Runs the reference computation once and returns a checksum.
pub fn run() -> u64 {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut memo: HashMap<u64, f64> = HashMap::with_capacity(KEYS as usize);
    let mut heap = BinaryHeap::with_capacity(IN_FLIGHT + 1);
    let mut clock = 0_u64;
    let mut acc = 0.0_f64;
    for i in 0..EVENTS {
        let key = next() % KEYS;
        let cost = *memo
            .entry(key)
            .or_insert_with(|| (key as f64 + 1.0).sqrt().ln_1p() * 1e3);
        heap.push(Reverse((clock + cost as u64, i)));
        if heap.len() > IN_FLIGHT {
            if let Some(Reverse((t, id))) = heap.pop() {
                clock = t;
                acc += (id as f64).mul_add(1e-9, cost) / (1.0 + t as f64);
            }
        }
    }
    let mut values: Vec<u64> = (0..SORTED).map(|_| next()).collect();
    values.sort_unstable();
    black_box(values[SORTED / 2] ^ acc.to_bits() ^ clock)
}
