//! Monte-Carlo cross-check of the Table II closed forms.
//!
//! Simulates the analytical model's own experiment directly: in each
//! scrub window every DRAM device fails independently with probability
//! `FIT x window_hours / 1e9`; a failed device whose sharing domain
//! (its rank for Synergy, the whole system for ITESP) contains another
//! failed device is a Case 4 detected-but-uncorrectable event. The
//! measured DUE frequency must converge on `table_ii`'s closed form,
//! and the campaign-scale SDC expectation must be so MAC-collision
//! suppressed that the zero silent outcomes asserted by the decoder
//! fault campaigns are exactly what the model predicts.
//!
//! Fault rates are scaled up (~1e10 x field FIT) so the quadratic
//! double-error term produces thousands of events in seconds; the
//! closed form is linear in FIT per error, quadratic per window, so the
//! comparison is exact apart from the O(p^2) binomial truncation the
//! tolerance allows for.
//!
//! Knobs: `ITESP_RAS_WINDOWS` scales the window counts,
//! `ITESP_TEST_SEED` replays one failing seed (printed on failure).

use itesp_oracle::with_seeds;
use itesp_orchestrate::knobs;
use itesp_reliability::{table_ii, Design, FaultStream, ReliabilityParams};
use rand::rngs::StdRng;
use rand::Rng;

/// Window-count scale factor (override with `ITESP_RAS_WINDOWS`).
fn window_scale() -> f64 {
    knobs::RAS_WINDOWS.or_panic()
}

/// Devices that fail this window: geometric skip-sampling, O(failures)
/// instead of O(devices) per window.
fn failed_devices(rng: &mut StdRng, n: u32, p: f64) -> Vec<u32> {
    let mut v = Vec::new();
    let log1mp = (1.0 - p).ln();
    let mut idx: i64 = -1;
    loop {
        let u: f64 = rng.gen();
        let skip = ((1.0 - u).ln() / log1mp).floor() as i64;
        idx += 1 + skip;
        if idx < 0 || idx >= i64::from(n) {
            return v;
        }
        v.push(idx as u32);
    }
}

/// Count the Case 4 events among this window's failures: failed devices
/// with at least one failed peer in their sharing domain.
fn due_events(failed: &[u32], p: &ReliabilityParams, design: Design) -> u64 {
    if failed.len() < 2 {
        return 0;
    }
    match design {
        // Whole-system sharing: any concurrent pair defeats correction.
        Design::Itesp => failed.len() as u64,
        // Rank-confined sharing: only same-rank pairs interact.
        Design::Synergy => {
            let rank = |d: u32| d / p.rank_devices;
            failed
                .iter()
                .filter(|&&d| failed.iter().any(|&o| o != d && rank(o) == rank(d)))
                .count() as u64
        }
    }
}

struct Campaign {
    design: Design,
    /// Per-device per-window failure probability.
    p_fail: f64,
    windows: u64,
}

fn run_campaign(c: &Campaign, params: &ReliabilityParams, rng: &mut StdRng) {
    let rates = table_ii(params, c.design);
    let hours = c.windows as f64 * params.scrub_hours;

    let mut failures = 0u64;
    let mut due = 0u64;
    for _ in 0..c.windows {
        let failed = failed_devices(rng, params.devices, c.p_fail);
        failures += failed.len() as u64;
        due += due_events(&failed, params, c.design);
    }

    // Raw device-failure frequency converges on n x FIT (sanity: the
    // sampler reproduces the model's linear term).
    let expect_fail = f64::from(params.devices) * c.p_fail * c.windows as f64;
    let fail_tol = 5.0 * expect_fail.sqrt();
    assert!(
        (failures as f64 - expect_fail).abs() < fail_tol,
        "{:?}: {failures} device failures, expected {expect_fail:.0} +/- {fail_tol:.0}",
        c.design
    );

    // Measured Case 4 frequency converges on the closed form. The
    // tolerance is 5 sigma plus the O(p^2) binomial truncation (the
    // closed form charges every peer linearly; the exact process
    // saturates at "at least one peer").
    let expect_due = rates.case4_due * hours / 1e9;
    let due_tol = 5.0 * expect_due.sqrt() + 0.02 * expect_due;
    assert!(
        expect_due > 500.0,
        "{:?}: campaign too small to converge ({expect_due:.1} expected events)",
        c.design
    );
    assert!(
        (due as f64 - expect_due).abs() < due_tol,
        "{:?}: {due} DUE events, Table II closed form expects {expect_due:.0} +/- {due_tol:.0}",
        c.design
    );

    // The SDC classes are MAC-collision suppressed: even at this
    // campaign's inflated fault rate the closed forms predict far less
    // than one silent event, which is why the decoder campaigns assert
    // exactly zero.
    let expect_sdc = (rates.case1_sdc + rates.case2_sdc) * hours / 1e9;
    assert!(
        expect_sdc < 1e-6,
        "{:?}: SDC expectation {expect_sdc:e} not collision-suppressed",
        c.design
    );
}

#[test]
fn measured_due_frequency_matches_table_ii_closed_forms() {
    let scale = window_scale();
    with_seeds(
        "measured_due_frequency_matches_table_ii_closed_forms",
        2,
        |seed| {
            let mut stream = FaultStream::seeded(seed);
            // Synergy's domain is 8 peers: a larger p makes same-rank
            // coincidences common enough to count.
            let p_syn = 2e-3;
            let syn = Campaign {
                design: Design::Synergy,
                p_fail: p_syn,
                windows: (200_000.0 * scale) as u64,
            };
            let params_syn = ReliabilityParams {
                device_fit: p_syn * 1e9,
                ..ReliabilityParams::default()
            };
            run_campaign(&syn, &params_syn, stream.rng());

            // ITESP's domain is the whole system (287 peers), so a much
            // smaller p still yields events — the paper's Case 4 asymmetry.
            let p_it = 1e-4;
            let itesp = Campaign {
                design: Design::Itesp,
                p_fail: p_it,
                windows: (2_000_000.0 * scale) as u64,
            };
            let params_it = ReliabilityParams {
                device_fit: p_it * 1e9,
                ..ReliabilityParams::default()
            };
            run_campaign(&itesp, &params_it, stream.rng());
        },
    );
}
