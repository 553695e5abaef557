//! Seed management for the randomized oracle tests.
//!
//! Every randomized test in this crate draws its seeds through
//! [`with_seeds`], which gives three properties:
//!
//! 1. **Reproducibility** — when a seeded case fails, the panic is
//!    annotated with a ready-to-paste `ITESP_TEST_SEED=<seed>` replay
//!    command line before being re-raised.
//! 2. **Replay** — setting `ITESP_TEST_SEED` makes every randomized test
//!    run exactly that one seed.
//! 3. **Regression corpus** — seeds of past failures live in
//!    `crates/oracle/corpus/seeds.txt` (one `test-name seed` pair per
//!    line) and run *before* the fresh seeds, so a fixed bug is retried
//!    first on exactly the input that exposed it.
//!
//! `ITESP_TEST_CASES` scales the fresh-seed count of every randomized
//! oracle test.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use itesp_orchestrate::knobs;

/// The checked-in corpus of past-failure seeds.
const CORPUS: &str = include_str!("../corpus/seeds.txt");

/// Parse the corpus entries recorded for `test_name`.
pub fn corpus_seeds(test_name: &str) -> Vec<u64> {
    CORPUS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (name, seed) = l.split_once(char::is_whitespace)?;
            (name == test_name).then(|| {
                seed.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("corpus seed not a u64: {l:?}"))
            })
        })
        .collect()
}

/// FNV-1a, used to give each test its own deterministic seed sequence.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 step, for decorrelating the per-case seeds.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seeds `test_name` should run: the `ITESP_TEST_SEED` override if
/// set, otherwise the corpus entries followed by `count` fresh seeds
/// (`count` itself overridable via `ITESP_TEST_CASES`).
pub fn seeds_for(test_name: &str, count: u64) -> Vec<u64> {
    if let Some(seed) = knobs::TEST_SEED.or_panic() {
        return vec![seed];
    }
    let count = knobs::TEST_CASES.or_panic::<Option<u64>>().unwrap_or(count);
    let base = fnv1a(test_name.as_bytes());
    let mut seeds = corpus_seeds(test_name);
    seeds.extend((0..count).map(|i| splitmix(base ^ splitmix(i))));
    seeds
}

/// Run `f` once per seed from [`seeds_for`]. A panicking case prints the
/// seed and a replay command line, then re-raises the panic so the test
/// still fails.
pub fn with_seeds(test_name: &str, count: u64, mut f: impl FnMut(u64)) {
    for seed in seeds_for(test_name, count) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(seed))) {
            eprintln!(
                "\n[itesp-oracle] randomized test `{test_name}` failed at seed {seed}\n\
                 [itesp-oracle] replay with:\n\
                 [itesp-oracle]   ITESP_TEST_SEED={seed} cargo test -p itesp-oracle --release \
                 {test_name} -- --nocapture\n\
                 [itesp-oracle] if this was a real bug, add `{test_name} {seed}` to \
                 crates/oracle/corpus/seeds.txt\n"
            );
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True when the environment overrides are active (a user replaying a
    /// seed); the structural assertions below only describe the default
    /// configuration.
    fn replaying() -> bool {
        [&knobs::TEST_SEED, &knobs::TEST_CASES]
            .iter()
            .any(|k| k.or_panic::<Option<u64>>().is_some())
    }

    #[test]
    fn fresh_seeds_are_deterministic_and_distinct() {
        if replaying() {
            return;
        }
        let a = seeds_for("some-test", 16);
        let b = seeds_for("some-test", 16);
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "seed collision");
        // Different tests draw different sequences.
        assert_ne!(seeds_for("some-test", 4), seeds_for("other-test", 4));
    }

    #[test]
    fn corpus_parses_and_runs_first() {
        for line in CORPUS.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name, seed) = line
                .split_once(char::is_whitespace)
                .expect("corpus line is `test-name seed`");
            assert!(!name.is_empty());
            seed.trim().parse::<u64>().expect("corpus seed is a u64");
        }
        if replaying() {
            return;
        }
        // A test with corpus entries sees them before any fresh seed.
        let corpus = corpus_seeds("differential_random_streams_all_schemes");
        assert!(!corpus.is_empty(), "expected a checked-in corpus entry");
        let all = seeds_for("differential_random_streams_all_schemes", 4);
        assert_eq!(&all[..corpus.len()], &corpus[..]);
    }
}
