//! RAS sweep: runtime fault injection across fault rate x scheme.
//!
//! For each scheme, runs the online RAS pipeline under three fault
//! scenarios — a low and a high Poisson transient-fault rate, and a
//! scripted mid-run chip-kill drill — and reports the reliability
//! outcome classes (corrected / SDC / DUE), the recovery and scrub
//! traffic, page retirements, and the slowdown against the same
//! scheme's fault-free run.
//!
//! Acceptance invariants (checked here, seed printed on failure): the
//! chip-kill drill completes without panics on every scheme; schemes
//! with recovery parity correct *every* affected block (zero
//! uncorrected) with nonzero reconstruction and scrub traffic;
//! detection-only schemes report DUEs (typed, not fatal); the unsecure
//! baseline silently corrupts.
//!
//! Run: `cargo run --release -p itesp-bench --bin figras [ops]`
//! (supports `--resume`, `--timeout`, `--retries`; see EXPERIMENTS.md)

use itesp_bench::{print_table, run_campaign, save_json, seed_or, trace_ops, TRACE_SEED};
use itesp_core::Scheme;
use itesp_sim::{run_workload, run_workload_ras, Drill, ExperimentParams, RasConfig, RunResult};
use itesp_trace::{benchmark, MultiProgram};
use serde::Serialize;
use serde_json::FromValue;

const SCHEMES: [Scheme; 5] = [
    Scheme::Unsecure,
    Scheme::Vault,
    Scheme::Synergy,
    Scheme::ItSynergySharedParity,
    Scheme::Itesp,
];

const SCENARIOS: [&str; 3] = ["low", "high", "chipkill"];

#[derive(Serialize, FromValue)]
struct Row {
    scheme: String,
    scenario: String,
    slowdown: f64,
    faults_injected: u64,
    drills: u64,
    detections: u64,
    corrections: u64,
    sdc: u64,
    due: u64,
    parity_reads: u64,
    companion_reads: u64,
    scrub_writebacks: u64,
    patrol_reads: u64,
    pages_retired: u64,
    migration_traffic: u64,
}

fn ras_config(scenario: &str, seed: u64) -> RasConfig {
    let mut cfg = RasConfig::new(seed);
    cfg.patrol_interval = 512;
    cfg.retire_threshold = 2;
    cfg.leak_interval = 1 << 22;
    cfg.halt_on_due = false;
    match scenario {
        "low" => cfg.fault_rate_per_mcycle = 20.0,
        "high" => cfg.fault_rate_per_mcycle = 200.0,
        "chipkill" => {
            cfg = cfg.with_drill(Drill {
                at_dram_cycle: 2_000,
                channel: 0,
                rank: 1,
                chip: 3,
            });
        }
        other => panic!("unknown scenario {other}"),
    }
    cfg
}

fn check_invariants(scheme: Scheme, scenario: &str, r: &RunResult, seed: u64) {
    let s = &r.ras;
    let replay =
        format!("replay: ITESP_TEST_SEED={seed} cargo run --release -p itesp-bench --bin figras");
    if scenario == "chipkill" {
        assert_eq!(s.drills_executed, 1, "drill must fire ({replay})");
        match scheme {
            Scheme::Unsecure => {
                assert!(s.sdc_events > 0, "no MAC must mean SDC ({replay})");
            }
            Scheme::Vault => {
                assert!(s.due_events > 0, "detect-only must DUE ({replay})");
                assert_eq!(s.sdc_events, 0, "vault detects everything ({replay})");
            }
            _ => {
                // Schemes with recovery parity: a single dead chip is
                // always correctable — zero uncorrected blocks, real
                // reconstruction and scrub traffic.
                assert!(s.corrections > 0, "{scheme:?} must correct ({replay})");
                assert_eq!(s.uncorrected(), 0, "{scheme:?} left {s:?} ({replay})");
                assert!(s.parity_reads > 0, "{scheme:?} recovery reads ({replay})");
                assert!(s.scrub_writebacks > 0, "{scheme:?} demand scrub ({replay})");
            }
        }
    }
}

fn main() {
    let ops = trace_ops();
    let seed = seed_or(0x5EED);
    let jobs = SCHEMES.len() * SCENARIOS.len();

    let rows: Vec<Row> = run_campaign("figras", jobs, move |i| {
        let scheme = SCHEMES[i / SCENARIOS.len()];
        let scenario = SCENARIOS[i % SCENARIOS.len()];
        let mp = MultiProgram::homogeneous(benchmark("mcf").unwrap(), 4, ops, TRACE_SEED);
        let p = ExperimentParams::paper_4core(scheme, ops);
        let base = run_workload(&mp, p);
        let r = run_workload_ras(&mp, p, ras_config(scenario, seed))
            .expect("halt_on_due is off: a DUE is counted, never fatal");
        check_invariants(scheme, scenario, &r, seed);
        let s = &r.ras;
        eprintln!("[{scheme:?}/{scenario}: done]");
        Row {
            scheme: format!("{scheme:?}"),
            scenario: scenario.to_owned(),
            slowdown: r.normalized_time(&base),
            faults_injected: s.faults_injected,
            drills: s.drills_executed,
            detections: s.detections,
            corrections: s.corrections,
            sdc: s.sdc_events,
            due: s.due_events,
            parity_reads: s.parity_reads,
            companion_reads: s.companion_reads,
            scrub_writebacks: s.scrub_writebacks,
            patrol_reads: s.patrol_reads,
            pages_retired: s.pages_retired,
            migration_traffic: s.migration_reads + s.migration_writes,
        }
    })
    .into_rows_or_exit();

    println!("RAS sweep: fault rate x scheme (4 cores, mcf, {ops} ops/program, seed {seed})\n");
    let headers = [
        "scheme",
        "scenario",
        "slowdown",
        "faults",
        "detect",
        "correct",
        "sdc",
        "due",
        "parity rd",
        "comp rd",
        "scrub wr",
        "patrol rd",
        "retired",
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                r.scenario.clone(),
                format!("{:.2}x", r.slowdown),
                r.faults_injected.to_string(),
                r.detections.to_string(),
                r.corrections.to_string(),
                r.sdc.to_string(),
                r.due.to_string(),
                r.parity_reads.to_string(),
                r.companion_reads.to_string(),
                r.scrub_writebacks.to_string(),
                r.patrol_reads.to_string(),
                r.pages_retired.to_string(),
            ]
        })
        .collect();
    print_table(&headers, &table);
    println!("\nAll chip-kill invariants held: parity schemes corrected every block,");
    println!("detect-only schemes reported DUEs, the unsecure baseline corrupted silently.");
    save_json("figras", &rows);
}
