//! Figure 11: Morphable-counter designs with local-counter-overflow
//! overheads, on 8 cores with 2 channels: SYNERGY (VAULT-tree),
//! SYN128, SYN128 with isolation, ITESP 64, and ITESP 128.
//!
//! Paper's shape: higher-arity trees shift misses to the leaf level, so
//! isolation matters less and embedded parity more; ITESP 64's 5-bit
//! local counters trade cacheability for a much lower overflow rate
//! than ITESP 128's 2-bit counters (the margin between the two is small
//! and workload-dependent — ~1.4% in the paper at 5 M ops/program).
//!
//! Run: `cargo run --release -p itesp-bench --bin fig11 [ops]`

use itesp_bench::{print_table, run_campaign, save_json, trace_ops, TRACE_SEED};
use itesp_core::Scheme;
use itesp_sim::{run_workload, ExperimentParams, RunResult};
use itesp_trace::{memory_intensive, MultiProgram};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    scheme: String,
    norm_time: f64,
    overflows_per_kilo_write: f64,
    overflow_stall_fraction: f64,
}

fn main() {
    let ops = trace_ops();
    let schemes = Scheme::FIGURE_11;
    let benches: Vec<_> = memory_intensive().collect();
    // One checkpointed job per benchmark; per-scheme series and
    // overflow sums fold in benchmark order so the output matches a
    // sequential run exactly, and a killed run resumes with `--resume`.
    let per_bench: Vec<Vec<(f64, u64, u64, u64)>> =
        run_campaign("fig11", benches.len(), move |j| {
            let b = &benches[j];
            let mp = MultiProgram::homogeneous(b, 8, ops, TRACE_SEED);
            let base = run_workload(&mp, ExperimentParams::paper_8core(Scheme::Unsecure, ops));
            let contrib: Vec<(f64, u64, u64, u64)> = schemes
                .iter()
                .map(|&s| {
                    let mut p = ExperimentParams::paper_8core(s, ops);
                    p.model_overflow = true;
                    let r = run_workload(&mp, p);
                    (
                        r.normalized_time(&base),
                        r.engine.overflows,
                        r.engine.data_writes,
                        r.engine.overflow_stall_cycles,
                    )
                })
                .collect();
            eprintln!("[{}: done]", b.name);
            contrib
        })
        .into_rows_or_exit();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    let mut ofl = vec![(0u64, 0u64, 0u64); schemes.len()]; // overflows, writes, stall
    for contrib in &per_bench {
        for (i, &(t, o, w, st)) in contrib.iter().enumerate() {
            times[i].push(t);
            ofl[i].0 += o;
            ofl[i].1 += w;
            ofl[i].2 += st;
        }
    }

    let rows: Vec<Row> = schemes
        .iter()
        .enumerate()
        .map(|(i, s)| Row {
            scheme: s.label().to_owned(),
            norm_time: RunResult::geomean(&times[i]),
            overflows_per_kilo_write: ofl[i].0 as f64 * 1000.0 / ofl[i].1.max(1) as f64,
            overflow_stall_fraction: ofl[i].2 as f64 / (ofl[i].1.max(1) as f64 * 100.0),
        })
        .collect();

    println!(
        "Figure 11: Morphable-counter designs incl. overflow, 8 cores / 2 channels, top-15 geomean ({ops} ops/program)\n"
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                format!("{:.2}", r.norm_time),
                format!("{:.2}", r.overflows_per_kilo_write),
            ]
        })
        .collect();
    print_table(&["scheme", "norm. exec time", "overflows/kWrite"], &table);

    println!(
        "\nLocal counter widths: SYN128 3-bit, ITESP64 5-bit, ITESP128 2-bit;\n\
         overflow rate ordering must be ITESP64 < SYN128 < ITESP128."
    );
    save_json("fig11", &rows);
}
