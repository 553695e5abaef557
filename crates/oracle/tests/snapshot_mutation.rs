//! Seeded mutation test over the snapshot decoders.
//!
//! Every golden snapshot payload (engine per scheme, static and churn
//! systems, cluster, migration blob, serve registry) is truncated and
//! byte-flipped, then restored into a freshly built target through its
//! real decoder. A snapshot is untrusted bytes: each decode must end in
//! `Ok` or a typed [`SnapError`], never a panic. Small payloads are
//! truncated at every offset; large ones at a seeded sample. Seeds are
//! replayable via `ITESP_TEST_SEED`.

mod snapshot_payloads;

use std::panic::{catch_unwind, AssertUnwindSafe};

use itesp_oracle::with_seeds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snapshot_payloads::Payload;

/// Payloads up to this size are truncated at every offset.
const FULL_SWEEP: usize = 1_024;
/// Seeded truncation points for larger payloads.
const CUTS: usize = 24;
/// Seeded byte-flip mutants per payload.
const FLIPS: usize = 24;

fn check(p: &Payload, bytes: &[u8], mutation: &str, seed: u64) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        snapshot_payloads::decode(p.kind, bytes)
    }));
    if outcome.is_err() {
        panic!(
            "decoder for {} panicked on {mutation} (seed {seed})",
            p.name
        );
    }
}

#[test]
fn snapshot_decoders_never_panic_on_mutated_payloads() {
    let payloads = snapshot_payloads::all();
    // The pristine payloads decode cleanly: the mutants below start
    // from a valid snapshot, not from one the decoder already rejects.
    for p in &payloads {
        snapshot_payloads::decode(p.kind, &p.bytes)
            .unwrap_or_else(|e| panic!("pristine {} failed to decode: {e}", p.name));
    }
    with_seeds(
        "snapshot_decoders_never_panic_on_mutated_payloads",
        6,
        |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            for p in &payloads {
                let len = p.bytes.len();
                let cuts: Vec<usize> = if len <= FULL_SWEEP {
                    (0..len).collect()
                } else {
                    (0..CUTS).map(|_| rng.gen_range(0..len)).collect()
                };
                for cut in cuts {
                    check(p, &p.bytes[..cut], &format!("truncation at {cut}"), seed);
                }
                for _ in 0..FLIPS {
                    let mut bytes = p.bytes.clone();
                    let mut at = Vec::new();
                    for _ in 0..rng.gen_range(1..=3u32) {
                        let i = rng.gen_range(0..len);
                        bytes[i] ^= 1 + rng.gen_range(0..255u8);
                        at.push(i);
                    }
                    check(p, &bytes, &format!("byte flips at {at:?}"), seed);
                }
            }
        },
    );
}
