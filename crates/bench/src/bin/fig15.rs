//! Figures 14+15: address-mapping policy exploration for ITESP.
//!
//! For each of the four policies (Column, Rank, 2-RBH, 4-RBH) this
//! reports ITESP's performance improvement over SYNERGY-with-its-best-
//! mapping (Column), plus ITESP's metadata-cache miss rate and DRAM
//! row-buffer hit rate — the two competing forces the policies balance.
//!
//! Paper's shape: Column maximizes row hits but wrecks ITESP's
//! metadata locality (parity groups land in foreign leaves); Rank does
//! the opposite; 4-RBH gets both, because a leaf holds 4 shared
//! parities and 4 consecutive lines can share one leaf.
//!
//! Run: `cargo run --release -p itesp-bench --bin fig15 [ops]`

use itesp_bench::{print_table, run_campaign, save_json, trace_ops, TRACE_SEED};
use itesp_core::Scheme;
use itesp_dram::AddressMapping;
use itesp_sim::{run_workload, ExperimentParams, RunResult};
use itesp_trace::{memory_intensive, MultiProgram};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    mapping: String,
    improvement_over_synergy_pct: f64,
    metadata_miss_rate: f64,
    row_buffer_hit_rate: f64,
}

fn main() {
    let ops = trace_ops();
    let benches: Vec<_> = memory_intensive().collect();

    // One checkpointed job per benchmark; the per-mapping series fold
    // in benchmark order so the geomeans match a sequential run
    // exactly, and a killed run resumes with `--resume`.
    let per_bench: Vec<Vec<(f64, f64, f64)>> = run_campaign("fig15", benches.len(), move |j| {
        let b = &benches[j];
        let mp = MultiProgram::homogeneous(b, 4, ops, TRACE_SEED);
        // Synergy's best mapping is Column (consecutive lines share a row).
        let mut syn_p = ExperimentParams::paper_4core(Scheme::Synergy, ops);
        syn_p.mapping = AddressMapping::Column;
        let synergy = run_workload(&mp, syn_p);

        let contrib: Vec<(f64, f64, f64)> = AddressMapping::ALL
            .iter()
            .map(|&m| {
                let mut p = ExperimentParams::paper_4core(Scheme::Itesp, ops);
                p.mapping = m;
                let r = run_workload(&mp, p);
                (
                    synergy.cycles as f64 / r.cycles as f64,
                    1.0 - r.metadata_cache.hit_rate(),
                    r.dram.row_hit_rate(),
                )
            })
            .collect();
        eprintln!("[{}: done]", b.name);
        contrib
    })
    .into_rows_or_exit();

    #[allow(clippy::type_complexity)] // (mapping, improvements, miss rates, row hits)
    let mut per_mapping: Vec<(AddressMapping, Vec<f64>, Vec<f64>, Vec<f64>)> = AddressMapping::ALL
        .iter()
        .map(|&m| (m, Vec::new(), Vec::new(), Vec::new()))
        .collect();
    for contrib in &per_bench {
        for ((_, impr, miss, rbh), &(i, mi, rb)) in per_mapping.iter_mut().zip(contrib) {
            impr.push(i);
            miss.push(mi);
            rbh.push(rb);
        }
    }

    let rows: Vec<Row> = per_mapping
        .iter()
        .map(|(m, impr, miss, rbh)| Row {
            mapping: m.label().to_owned(),
            improvement_over_synergy_pct: (RunResult::geomean(impr) - 1.0) * 100.0,
            metadata_miss_rate: miss.iter().sum::<f64>() / miss.len() as f64,
            row_buffer_hit_rate: rbh.iter().sum::<f64>() / rbh.len() as f64,
        })
        .collect();

    println!("Figure 15: ITESP under the four address mappings, top-15 ({ops} ops/program)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mapping.clone(),
                format!("{:+.0}%", r.improvement_over_synergy_pct),
                format!("{:.0}%", r.metadata_miss_rate * 100.0),
                format!("{:.0}%", r.row_buffer_hit_rate * 100.0),
            ]
        })
        .collect();
    print_table(
        &[
            "mapping",
            "perf vs SYNERGY(best)",
            "metadata miss rate",
            "row-buffer hit rate",
        ],
        &table,
    );
    println!(
        "\n(paper: Column has the best row hits but the worst metadata miss rate for ITESP;\n\
         4-RBH balances both and is the chosen policy)"
    );
    save_json("fig15", &rows);
}
