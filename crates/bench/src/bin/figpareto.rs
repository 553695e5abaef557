//! Pareto sweep: leakage class × slowdown × storage overhead, all 15
//! schemes.
//!
//! The scheme pipeline spans four leakage classes — interface-only
//! (UNSECURE, SECDDR), shared metadata (VAULT/SYNERGY lineage),
//! isolated metadata (the IT* variants), and pattern-hidden (IRORAM) —
//! and this figure places every design point on the three axes a
//! deployment trades between: what the memory bus leaks, what the
//! scheme costs in time, and what it costs in bytes. One simulated run
//! per scheme (4-core mcf), slowdown normalized to the UNSECURE
//! baseline simulated in the same job, storage from the analytic
//! [`Scheme::storage_overhead`] model.
//!
//! Run: `cargo run --release -p itesp-bench --bin figpareto [ops]`
//! (supports `--jobs`, `--resume`, `--timeout`, `--retries`; output is
//! byte-identical at any `--jobs` value — see EXPERIMENTS.md)

use itesp_bench::{print_table, run_campaign, save_json, trace_ops, TRACE_SEED};
use itesp_core::Scheme;
use itesp_sim::{run_workload, ExperimentParams};
use itesp_trace::{benchmark, MultiProgram};
use serde::Serialize;
use serde_json::FromValue;

#[derive(Serialize, FromValue)]
struct Row {
    scheme: String,
    family: String,
    leakage: String,
    /// Execution time normalized to UNSECURE on the same workload.
    slowdown: f64,
    /// Metadata bytes per data byte (Table I model, paper capacity).
    storage_overhead: f64,
    /// Metadata transactions per data access in the simulated run.
    meta_per_access: f64,
}

fn main() {
    let ops = trace_ops();
    let schemes = Scheme::ALL;

    let rows: Vec<Row> = run_campaign("figpareto", schemes.len(), move |i| {
        let scheme = schemes[i];
        let mp = MultiProgram::homogeneous(benchmark("mcf").unwrap(), 4, ops, TRACE_SEED);
        let base = run_workload(&mp, ExperimentParams::paper_4core(Scheme::Unsecure, ops));
        let r = run_workload(&mp, ExperimentParams::paper_4core(scheme, ops));
        let e = &r.engine;
        let data = (e.data_reads + e.data_writes).max(1);
        let meta: u64 = e.meta_reads.iter().chain(e.meta_writes.iter()).sum();
        eprintln!("[{}: done]", scheme.label());
        Row {
            scheme: scheme.label().to_owned(),
            family: format!("{:?}", scheme.family()),
            leakage: scheme.leakage_class().label().to_owned(),
            slowdown: r.normalized_time(&base),
            storage_overhead: scheme.storage_overhead(),
            meta_per_access: meta as f64 / data as f64,
        }
    })
    .into_rows_or_exit();

    println!("Pareto sweep: leakage x slowdown x storage (4 cores, mcf, {ops} ops/program)\n");
    let headers = [
        "scheme",
        "family",
        "leakage",
        "slowdown",
        "storage ovh",
        "meta/access",
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                r.family.clone(),
                r.leakage.clone(),
                format!("{:.3}x", r.slowdown),
                format!("{:.4}", r.storage_overhead),
                format!("{:.3}", r.meta_per_access),
            ]
        })
        .collect();
    print_table(&headers, &table);
    println!("\nInterface-only schemes pay nothing on either cost axis (SECDDR");
    println!("rides the ECC pins); pattern hiding costs a doubled footprint and");
    println!("a bucket path per access; the IT* points buy isolation in between.");
    save_json("figpareto", &rows);
}
