//! Figure 10: normalized memory energy (left) and normalized system
//! energy-delay product (right) for the Figure 8 models, top-15
//! geomean, normalized to the non-secure baseline.
//!
//! Paper's shape: energy follows the metadata-traffic reductions; ITESP
//! cuts memory energy and system EDP by ~45% vs the Synergy baseline.
//!
//! Run: `cargo run --release -p itesp-bench --bin fig10 [ops]`

use itesp_bench::{print_table, run_campaign, save_json, trace_ops, TRACE_SEED};
use itesp_core::Scheme;
use itesp_sim::{run_workload, ExperimentParams, RunResult};
use itesp_trace::{memory_intensive, MultiProgram};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    scheme: String,
    norm_memory_energy: f64,
    norm_system_edp: f64,
}

fn main() {
    let ops = trace_ops();
    let schemes = Scheme::FIGURE_8;
    let benches: Vec<_> = memory_intensive().collect();
    // One checkpointed job per benchmark; the per-scheme series refill
    // in benchmark order so the geomeans match a sequential run
    // exactly, and a killed run resumes with `--resume`.
    let per_bench: Vec<Vec<(f64, f64)>> = run_campaign("fig10", benches.len(), move |j| {
        let b = &benches[j];
        let mp = MultiProgram::homogeneous(b, 4, ops, TRACE_SEED);
        let base = run_workload(&mp, ExperimentParams::paper_4core(Scheme::Unsecure, ops));
        let contrib: Vec<(f64, f64)> = schemes
            .iter()
            .map(|&s| {
                let r = run_workload(&mp, ExperimentParams::paper_4core(s, ops));
                (
                    r.normalized_memory_energy(&base),
                    r.normalized_system_edp(&base, 4),
                )
            })
            .collect();
        eprintln!("[{}: done]", b.name);
        contrib
    })
    .into_rows_or_exit();
    let mut energy: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    let mut edp: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for contrib in &per_bench {
        for (i, &(e, d)) in contrib.iter().enumerate() {
            energy[i].push(e);
            edp[i].push(d);
        }
    }

    let rows: Vec<Row> = schemes
        .iter()
        .enumerate()
        .map(|(i, s)| Row {
            scheme: s.label().to_owned(),
            norm_memory_energy: RunResult::geomean(&energy[i]),
            norm_system_edp: RunResult::geomean(&edp[i]),
        })
        .collect();

    println!(
        "Figure 10: normalized memory energy and system EDP, top-15 geomean ({ops} ops/program)\n"
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                format!("{:.2}", r.norm_memory_energy),
                format!("{:.2}", r.norm_system_edp),
            ]
        })
        .collect();
    print_table(&["scheme", "memory energy", "system EDP"], &table);

    let syn = &rows[2];
    let itesp = &rows[7];
    println!(
        "\nITESP vs SYNERGY: memory energy -{:.0}%, system EDP -{:.0}% (paper: ~45% and ~45%)",
        (1.0 - itesp.norm_memory_energy / syn.norm_memory_energy) * 100.0,
        (1.0 - itesp.norm_system_edp / syn.norm_system_edp) * 100.0
    );
    save_json("fig10", &rows);
}
