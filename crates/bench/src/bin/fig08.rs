//! Figure 8: normalized execution time for the eight secure-memory
//! designs across all 31 benchmarks (4 cores, 1 channel), normalized to
//! the non-secure baseline.
//!
//! Paper's shape: VAULT ~2.5x and Synergy ~2.3x on the memory-intensive
//! benchmarks; isolation buys Synergy ~39-46%; a parity cache ~3%;
//! shared parity alone loses (RMW); ITESP is the best of all bars.
//!
//! Run: `cargo run --release -p itesp-bench --bin fig08 [ops]`
//! (supports `--resume`, `--timeout`, `--retries`; see EXPERIMENTS.md)

use itesp_bench::{print_table, run_campaign, save_json, trace_ops, TRACE_SEED};
use itesp_core::Scheme;
use itesp_sim::{run_workload, ExperimentParams, RunResult};
use itesp_trace::{MultiProgram, BENCHMARKS};
use serde::Serialize;
use serde_json::FromValue;

#[derive(Serialize, FromValue)]
struct Row {
    benchmark: String,
    memory_intensive: bool,
    /// Normalized execution time per scheme, Figure 8 bar order.
    times: Vec<f64>,
}

fn main() {
    let ops = trace_ops();
    let schemes = Scheme::FIGURE_8;

    // One checkpointed job per benchmark (its baseline plus every
    // scheme); results come back in benchmark order regardless of
    // worker count, and a killed run resumes with `--resume`.
    let rows: Vec<Row> = run_campaign("fig08", BENCHMARKS.len(), move |i| {
        let b = &BENCHMARKS[i];
        let mp = MultiProgram::homogeneous(b, 4, ops, TRACE_SEED);
        let base = run_workload(&mp, ExperimentParams::paper_4core(Scheme::Unsecure, ops));
        let times: Vec<f64> = schemes
            .iter()
            .map(|&s| {
                run_workload(&mp, ExperimentParams::paper_4core(s, ops)).normalized_time(&base)
            })
            .collect();
        eprintln!("[{}: done]", b.name);
        Row {
            benchmark: b.name.to_owned(),
            memory_intensive: b.memory_intensive,
            times,
        }
    })
    .into_rows_or_exit();

    println!("Figure 8: normalized execution time (4 cores, 1 channel, {ops} ops/program)\n");
    let headers: Vec<&str> = std::iter::once("benchmark")
        .chain(schemes.iter().map(|s| s.label()))
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let name = if r.memory_intensive {
                format!("{}*", r.benchmark)
            } else {
                r.benchmark.to_owned()
            };
            std::iter::once(name)
                .chain(r.times.iter().map(|t| format!("{t:.2}")))
                .collect()
        })
        .collect();
    print_table(&headers, &table);
    println!("(* = one of the 15 memory-intensive benchmarks)\n");

    // Top-15 geomeans and the headline improvements.
    let geo = |idx: usize| {
        let v: Vec<f64> = rows
            .iter()
            .filter(|r| r.memory_intensive)
            .map(|r| r.times[idx])
            .collect();
        RunResult::geomean(&v)
    };
    let labels: Vec<String> = schemes.iter().map(|s| s.label().to_owned()).collect();
    println!("Top-15 geomean slowdowns:");
    for (i, l) in labels.iter().enumerate() {
        println!("  {l:>12}: {:.2}x", geo(i));
    }
    let synergy = geo(2);
    let itsyn = geo(3);
    let itesp = geo(7);
    println!(
        "\nITSYNERGY improvement over SYNERGY: {:.0}% (paper: 39-45%)",
        (synergy / itsyn - 1.0) * 100.0
    );
    println!(
        "ITESP improvement over SYNERGY:     {:.0}% (paper: 64%)",
        (synergy / itesp - 1.0) * 100.0
    );
    save_json("fig08", &rows);
}
