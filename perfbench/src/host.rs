//! Host speed.
//!
//! The machine the benchmark was defined on is shared: for minutes at
//! a time every workload runs up to 1.6x slower, set-up and simulation
//! alike (see `SPREAD.md`). All the repeats of one run fall inside such
//! a period, so no estimator over them removes it. [`probe`] times a
//! fixed piece of work shaped like trace generation (random records
//! through a first-touch page map into a growing vector) once per
//! round; its fastest time over a run, against [`REFERENCE_S`], gives
//! the host's speed during that run, and the gated host times are
//! scaled by it. The probe is the benchmark's own code, so a change to
//! the repository's crates cannot move it.

use std::collections::HashMap;
use std::time::Instant;

/// Records the probe generates, in batches of [`BATCH`]: about 7 ms
/// of work on the reference host.
const RECORDS: u64 = 400_000;
const BATCH: u64 = 40_000;

/// The reference host's [`probe`] time, seconds: close to the fastest
/// probe on the host the benchmark was defined on (2 vCPUs, Intel Xeon
/// 2.0 GHz). Scaled host times read in that host's seconds; the value
/// sets only their unit, not their spread.
pub const REFERENCE_S: f64 = 0.006_5;

/// Host seconds of one fixed unit of work.
pub fn probe() -> f64 {
    let start = Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut pages: HashMap<u64, u64> = HashMap::new();
    let mut records = Vec::with_capacity(BATCH as usize);
    for i in 0..RECORDS {
        if i % BATCH == 0 {
            records.clear();
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let next = pages.len() as u64;
        let page = *pages.entry((x >> 20) % 4096).or_insert(next);
        records.push(((x & 0xff) as u32, page << 12 | (x & 0xfc0)));
    }
    std::hint::black_box(&records);
    start.elapsed().as_secs_f64()
}
