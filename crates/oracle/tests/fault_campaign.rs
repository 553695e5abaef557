//! Randomized chipkill fault-injection campaign.
//!
//! Every trial injects faults from the `reliability::inject` model into
//! a MAC-consistent codeword and checks the decode outcome against the
//! Table II outcome classes: single-chip-confined faults (bit, pin,
//! whole chip) must be corrected back to the original word; multi-chip
//! faults must be *detected* (the Case 4 DUE class), and nothing may
//! ever be silent — Table II's SDC rates are 2⁻⁶⁴-scaled, so a single
//! silent outcome at campaign scale is a decoder bug, not bad luck.
//!
//! Knobs: `ITESP_FAULT_TRIALS` scales the randomized trial count,
//! `ITESP_TEST_SEED` replays one failing seed (printed on failure).

use itesp_core::mac::mac_block;
use itesp_core::{EngineConfig, Scheme, SecurityEngine};
use itesp_oracle::{
    classify, exhaustive_single_faults, fault_label, random_word, scheme_enabled, with_seeds,
    TrialOutcome, TrialWord,
};
use itesp_orchestrate::knobs;
use itesp_reliability::{
    column_parity, correct_shared, inject, shared_parity, table_ii, CodeWord, Correction, Design,
    Fault, FaultStream, ReliabilityParams, TOTAL_CHIPS,
};
use rand::Rng;

/// Randomized trials per seed (override with `ITESP_FAULT_TRIALS`).
fn trials() -> usize {
    knobs::FAULT_TRIALS.or_panic()
}

/// Single faults of every class on every chip — first the exhaustive
/// 27-pattern sweep, then randomized bit positions and chip garbage —
/// are always corrected, naming the faulted chip after all 9 MAC trials.
#[test]
fn fault_campaign_random_single_faults() {
    with_seeds("fault_campaign_random_single_faults", 4, |seed| {
        let mut stream = FaultStream::seeded(seed);
        let sweep: Vec<Fault> =
            exhaustive_single_faults(stream.rng().gen_range(0..8), stream.rng().gen_range(0..8))
                .into_iter()
                .chain((0..trials()).map(|_| stream.next_fault()))
                .collect();
        for fault in sweep {
            let original = random_word(stream.rng());
            let parity = column_parity(&original.word);
            let mut trial = original;
            inject(&mut trial.word, fault, stream.rng());
            match classify(&original.word, &trial, parity) {
                TrialOutcome::Corrected { chip, mac_trials } => {
                    assert_eq!(
                        usize::from(chip),
                        fault.chip(),
                        "{}: corrected the wrong chip",
                        fault_label(&fault)
                    );
                    assert_eq!(
                        mac_trials,
                        TOTAL_CHIPS as u8,
                        "{}: correction skipped candidate chips",
                        fault_label(&fault)
                    );
                }
                outcome => panic!(
                    "{}: single-chip fault must be corrected, got {outcome:?}",
                    fault_label(&fault)
                ),
            }
        }
    });
}

/// Multiple faults confined to one chip are still a single-device error:
/// corrected (or, if the injections XOR-cancel, a benign clean pass).
#[test]
fn fault_campaign_same_chip_multi_faults() {
    with_seeds("fault_campaign_same_chip_multi_faults", 4, |seed| {
        let mut stream = FaultStream::seeded(seed);
        for _ in 0..trials() {
            let original = random_word(stream.rng());
            let parity = column_parity(&original.word);
            let chip = stream.rng().gen_range(0..TOTAL_CHIPS as u8);
            let mut trial = original;
            let n_faults = stream.rng().gen_range(2usize..5);
            let mut faults = Vec::new();
            for _ in 0..n_faults {
                let mut f = stream.next_fault();
                while f.chip() != usize::from(chip) {
                    f = stream.next_fault();
                }
                faults.push(f);
                inject(&mut trial.word, f, stream.rng());
            }
            match classify(&original.word, &trial, parity) {
                TrialOutcome::Corrected { chip: c, .. } => assert!(
                    c == chip || c == u8::MAX,
                    "same-chip faults {faults:?}: corrected chip {c}, expected {chip}"
                ),
                outcome => {
                    panic!("same-chip faults {faults:?} must stay correctable, got {outcome:?}")
                }
            }
        }
    });
}

/// Faults on two (or more) distinct chips exceed the code's correction
/// power: the decoder must detect (Table II Case 4), never silently pass
/// or miscorrect.
#[test]
fn fault_campaign_multi_chip_faults_detected() {
    with_seeds("fault_campaign_multi_chip_faults_detected", 4, |seed| {
        let mut stream = FaultStream::seeded(seed);
        for _ in 0..trials() {
            let original = random_word(stream.rng());
            let parity = column_parity(&original.word);
            let mut trial = original;
            let first = stream.next_fault();
            inject(&mut trial.word, first, stream.rng());
            let mut second = stream.next_fault();
            while second.chip() == first.chip() {
                second = stream.next_fault();
            }
            inject(&mut trial.word, second, stream.rng());
            let outcome = classify(&original.word, &trial, parity);
            assert_eq!(
                outcome,
                TrialOutcome::Detected,
                "{} + {}: multi-chip fault must be a DUE",
                fault_label(&first),
                fault_label(&second)
            );
        }
    });
}

/// ITESP's cross-rank shared parity: with error-free companion blocks
/// the recovered per-block parity corrects any single-chip fault; with a
/// companion corrupted too (the cross-rank double-error pattern whose
/// rate Case 4 charges to ITESP's larger sharing domain), the decode
/// must detect, never silently corrupt.
#[test]
fn fault_campaign_shared_parity_cross_rank() {
    with_seeds("fault_campaign_shared_parity_cross_rank", 4, |seed| {
        let mut stream = FaultStream::seeded(seed);
        for _ in 0..trials() / 4 {
            let target = random_word(stream.rng());
            let companions: Vec<_> = (0..stream.rng().gen_range(1usize..8))
                .map(|_| random_word(stream.rng()).word)
                .collect();
            let shared = shared_parity(companions.iter().chain(std::iter::once(&target.word)));
            let fault = stream.next_fault();
            let mut corrupted = target.word;
            inject(&mut corrupted, fault, stream.rng());

            // Clean companions: correction succeeds through the shared word.
            let (correction, fixed) = correct_shared(
                &corrupted,
                shared,
                &companions,
                &target.key,
                target.counter,
                target.addr,
            );
            match correction {
                Correction::Corrected { chip, .. } => {
                    assert_eq!(usize::from(chip), fault.chip(), "{}", fault_label(&fault));
                    assert_eq!(fixed, target.word, "shared-parity correction wrong");
                }
                Correction::Clean => {
                    assert_eq!(corrupted, target.word, "silently passed a corrupted word")
                }
                other => panic!("{}: shared-parity decode {other:?}", fault_label(&fault)),
            }

            // A simultaneously-corrupted companion poisons the recovered
            // parity: decode must refuse, not fabricate data.
            let mut bad_companions = companions.clone();
            let victim = stream.rng().gen_range(0..bad_companions.len());
            inject(
                &mut bad_companions[victim],
                Fault::Chip {
                    chip: stream.rng().gen_range(0..TOTAL_CHIPS as u8),
                },
                stream.rng(),
            );
            let (correction, fixed) = correct_shared(
                &corrupted,
                shared,
                &bad_companions,
                &target.key,
                target.counter,
                target.addr,
            );
            match correction {
                Correction::Ambiguous | Correction::Uncorrectable => {}
                Correction::Corrected { .. } => assert_eq!(
                    fixed, target.word,
                    "cross-rank double error miscorrected (SDC)"
                ),
                Correction::Clean => {
                    assert_eq!(
                        corrupted, target.word,
                        "cross-rank double error passed clean"
                    )
                }
            }
        }
    });
}

/// SecDDR's decode is the link MAC alone: no column parity was stored
/// (the MAC displaced it in the ECC field), so there is nothing to
/// reconstruct from. A corrupted transfer fails the MAC check — the
/// fault is *detected* — but no candidate-chip loop can run:
/// detect-but-cannot-locate, the DUE class, for every single one of the
/// 27 exhaustive (fault class × chip) patterns and every randomized
/// trial. Never Corrected, and (MAC-collision scaled) never Silent.
fn secddr_decode(original: &CodeWord, trial: &TrialWord) -> TrialOutcome {
    let mac_ok =
        mac_block(&trial.key, &trial.word.data, trial.counter, trial.addr) == trial.word.mac();
    match (mac_ok, trial.word == *original) {
        // Clean pass (injection XOR-cancelled): benign.
        (true, true) => TrialOutcome::Corrected {
            chip: u8::MAX,
            mac_trials: 0,
        },
        // MAC collision on corrupted data: the SDC class.
        (true, false) => TrialOutcome::Silent,
        // MAC mismatch: detected, and that is where it ends.
        (false, _) => TrialOutcome::Detected,
    }
}

#[test]
fn fault_campaign_secddr_detects_but_cannot_locate() {
    if !scheme_enabled(Scheme::SecDdr) {
        return;
    }
    // The engine agrees with the analytic class: detection without any
    // correction resource (the sim's RAS loop reads exactly these).
    let engine = SecurityEngine::new(EngineConfig::paper_default(Scheme::SecDdr));
    assert!(engine.detects_errors());
    assert_eq!(engine.parity_group_share(), 0);
    assert_eq!(engine.recovery_parity_addr(0, 0), None);

    with_seeds(
        "fault_campaign_secddr_detects_but_cannot_locate",
        4,
        |seed| {
            let mut stream = FaultStream::seeded(seed);
            let sweep: Vec<Fault> = exhaustive_single_faults(
                stream.rng().gen_range(0..8),
                stream.rng().gen_range(0..8),
            )
            .into_iter()
            .chain((0..trials() / 2).map(|_| stream.next_fault()))
            .collect();
            for fault in sweep {
                let original = random_word(stream.rng());
                let mut trial = original;
                inject(&mut trial.word, fault, stream.rng());
                // Skip the measure-zero XOR-cancelled injections: the class
                // under test is "corrupted word reaches the decoder".
                if trial.word == original.word {
                    continue;
                }
                assert_eq!(
                    secddr_decode(&original.word, &trial),
                    TrialOutcome::Detected,
                    "{}: SecDDR must detect-but-not-locate (DUE)",
                    fault_label(&fault)
                );
            }
        },
    );
}

/// IRO's reliability story: one XOR parity word per 8-bucket group.
/// With clean companion buckets, a single-chip fault in one bucket is
/// corrected through the recovered group parity (the same decode loop
/// ITESP's shared parity uses); with a second corrupted bucket in the
/// group, the decode must refuse or restore exactly — never fabricate.
#[test]
fn fault_campaign_iroram_bucket_parity_corrects() {
    if !scheme_enabled(Scheme::IrOram) {
        return;
    }
    // Engine-side agreement: an 8-wide parity group, with a recovery
    // address inside the model's parity region.
    let engine = SecurityEngine::new(EngineConfig::paper_default(Scheme::IrOram));
    assert!(engine.detects_errors());
    assert_eq!(engine.parity_group_share(), 8);
    let addr = engine
        .recovery_parity_addr(0, 0)
        .expect("IRO block has a recovery parity line");
    assert!(addr >= engine.parity_base(0));

    with_seeds("fault_campaign_iroram_bucket_parity_corrects", 4, |seed| {
        let mut stream = FaultStream::seeded(seed);
        for _ in 0..trials() / 4 {
            // One 8-bucket parity group: the target bucket word plus 7
            // companions.
            let target = random_word(stream.rng());
            let companions: Vec<CodeWord> =
                (0..7).map(|_| random_word(stream.rng()).word).collect();
            let group = shared_parity(companions.iter().chain(std::iter::once(&target.word)));
            let fault = stream.next_fault();
            let mut corrupted = target.word;
            inject(&mut corrupted, fault, stream.rng());

            let (correction, fixed) = correct_shared(
                &corrupted,
                group,
                &companions,
                &target.key,
                target.counter,
                target.addr,
            );
            match correction {
                Correction::Corrected { chip, mac_trials } => {
                    assert_eq!(usize::from(chip), fault.chip(), "{}", fault_label(&fault));
                    assert_eq!(mac_trials, TOTAL_CHIPS as u8);
                    assert_eq!(fixed, target.word, "bucket-parity correction wrong");
                }
                Correction::Clean => {
                    assert_eq!(corrupted, target.word, "silently passed a corrupted bucket")
                }
                other => panic!(
                    "{}: bucket-parity decode must correct, got {other:?}",
                    fault_label(&fault)
                ),
            }

            // Second fault in the same group: parity is poisoned.
            let mut bad = companions.clone();
            let victim = stream.rng().gen_range(0..bad.len());
            let second = stream.next_fault();
            inject(&mut bad[victim], second, stream.rng());
            let (correction, fixed) = correct_shared(
                &corrupted,
                group,
                &bad,
                &target.key,
                target.counter,
                target.addr,
            );
            match correction {
                Correction::Ambiguous | Correction::Uncorrectable => {}
                Correction::Corrected { .. } => {
                    assert_eq!(fixed, target.word, "double-bucket error miscorrected (SDC)")
                }
                Correction::Clean => {
                    assert_eq!(corrupted, target.word, "double-bucket error passed clean")
                }
            }
        }
    });
}

/// The campaign's observed outcome frequencies are consistent with the
/// Table II analytical model: the SDC classes are MAC-collision scaled
/// (expected silent events over the whole campaign ≈ trials × 2⁻⁶⁴ ≈ 0,
/// and the campaign asserts exactly zero), and the correction loop's 9
/// MAC trials match the model's `rank_devices`.
#[test]
fn fault_campaign_rates_match_table_ii() {
    let p = ReliabilityParams::default();
    for design in [Design::Synergy, Design::Itesp] {
        let rates = table_ii(&p, design);
        // SDC rates are vanishingly small: a campaign of any feasible
        // size expects zero silent corruptions, which is exactly what
        // the injection tests assert.
        let per_event_sdc =
            (rates.case1_sdc + rates.case2_sdc) / (f64::from(p.devices) * p.device_fit);
        assert!(
            per_event_sdc < 1e-15,
            "{design:?}: SDC per device error {per_event_sdc:e} not collision-scaled"
        );
        // DUE rates are not: multi-chip patterns must be detectable, as
        // the multi-chip campaign asserts on every trial.
        assert!(rates.case4_due > 0.0);
    }
    assert_eq!(p.rank_devices as usize, TOTAL_CHIPS);
}
