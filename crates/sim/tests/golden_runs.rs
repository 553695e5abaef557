//! Golden full-run results: the complete `RunResult` JSON of four small
//! runs — static perlbench under ITESP, static mcf with the online RAS
//! pipeline, an mcf churn schedule, and the same schedule under RAS —
//! pinned byte for byte in `tests/golden/`.
//!
//! The run loop skips work it can prove has no effect (core parking,
//! event skips, bulk advance). These pins cover every combination of
//! the lifecycle and RAS hooks those skips must stay exact under, so a
//! skip that elides a state change shows up as a diff here. Regenerate
//! a pin only for a change that is meant to alter simulated behaviour.

use itesp_core::Scheme;
use itesp_sim::{
    build_churn_ras_system, run_named, run_workload_churn, run_workload_ras, ExperimentParams,
    RasConfig, RunResult,
};
use itesp_trace::{benchmark, ChurnConfig, ChurnWorkload, MultiProgram};

const SEED: u64 = 0x5EED;

fn churn_workload() -> ChurnWorkload {
    ChurnWorkload::generate(
        benchmark("mcf").unwrap(),
        &ChurnConfig {
            slots: 4,
            sessions_per_slot: 3,
            ops_per_session: 400,
            mean_arrival_gap: 5_000.0,
            footprint_pages: 16,
            free_fraction: 0.3,
            seed: SEED,
        },
    )
}

fn params(ops: usize) -> ExperimentParams {
    ExperimentParams {
        seed: SEED,
        ..ExperimentParams::paper_4core(Scheme::Itesp, ops)
    }
}

fn ras() -> RasConfig {
    RasConfig::new(SEED ^ 0xFA17).with_fault_rate(2000.0)
}

fn check(name: &str, golden: &str, r: &RunResult) {
    let got = serde_json::to_string_pretty(r).unwrap();
    assert!(
        got == golden.trim_end(),
        "{name}: RunResult diverged from tests/golden/{name}.json; got:\n{got}"
    );
}

#[test]
fn static_perlbench_itesp_matches_golden() {
    let r = run_named("perlbench", params(3000));
    check(
        "static_perlbench_itesp",
        include_str!("golden/static_perlbench_itesp.json"),
        &r,
    );
}

#[test]
fn static_mcf_ras_matches_golden() {
    let mp = MultiProgram::homogeneous(benchmark("mcf").unwrap(), 4, 1500, SEED);
    let r = run_workload_ras(&mp, params(1500), ras()).unwrap();
    check(
        "static_mcf_ras",
        include_str!("golden/static_mcf_ras.json"),
        &r,
    );
}

#[test]
fn churn_matches_golden() {
    let r = run_workload_churn(&churn_workload(), params(400));
    check("churn", include_str!("golden/churn.json"), &r);
}

#[test]
fn churn_ras_matches_golden() {
    let r = build_churn_ras_system(&churn_workload(), params(400), ras())
        .try_run()
        .unwrap();
    check("churn_ras", include_str!("golden/churn_ras.json"), &r);
}
