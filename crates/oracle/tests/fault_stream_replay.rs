//! Proof that `ITESP_TEST_SEED` pins *every* fault-campaign RNG — the
//! oracle's `with_seeds` schedule and the runtime `FaultStream` — to
//! one identical, replayable fault sequence.
//!
//! Lives in its own test binary with a single `#[test]`: it mutates
//! `ITESP_TEST_SEED`, which the other oracle tests read.

use itesp_oracle::seeds_for;
use itesp_orchestrate::knobs::{test_seed, TEST_SEED};
use itesp_reliability::{Fault, FaultStream};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn unified_seed_replays_identical_fault_sequences() {
    std::env::remove_var(TEST_SEED.env);

    // Without the override, the default flows through.
    assert_eq!(test_seed(999), 999);
    let defaulted: Vec<Fault> = FaultStream::seeded(test_seed(999)).take(32).collect();
    assert_eq!(
        defaulted,
        FaultStream::seeded(999).take(32).collect::<Vec<_>>()
    );

    // With the override, both the oracle's seed schedule and the
    // stream collapse onto the same pinned seed.
    std::env::set_var(TEST_SEED.env, "12345");
    assert_eq!(test_seed(999), 12345);
    assert_eq!(
        seeds_for("any_campaign_at_all", 7),
        vec![12345],
        "oracle campaigns replay exactly the pinned seed"
    );
    let stream: Vec<Fault> = FaultStream::seeded(test_seed(999)).take(64).collect();
    assert_eq!(
        stream,
        FaultStream::seeded(12345).take(64).collect::<Vec<_>>(),
        "the runtime fault stream honors the same variable"
    );
    // ... and the stream is exactly `Fault::random` over a seeded
    // StdRng, so pre-stream campaigns replay identically too.
    let mut rng = StdRng::seed_from_u64(12345);
    let direct: Vec<Fault> = (0..64).map(|_| Fault::random(&mut rng)).collect();
    assert_eq!(stream, direct);

    std::env::remove_var(TEST_SEED.env);
}
