//! Figure 12: core-count sensitivity. Execution time, memory energy,
//! and system EDP for SYNERGY and ITESP on the 4-core/1-channel and
//! 8-core/2-channel systems, normalized to the matching non-secure
//! baseline, top-15 geomean.
//!
//! Paper's shape: Synergy's slowdown *grows* with core count (more
//! inter-program metadata interference) even with a second channel, so
//! ITESP's advantage widens from ~64% to ~82%.
//!
//! Run: `cargo run --release -p itesp-bench --bin fig12 [ops]`

use itesp_bench::{print_table, run_campaign, save_json, trace_ops, TRACE_SEED};
use itesp_core::Scheme;
use itesp_sim::{run_workload, ExperimentParams, RunResult};
use itesp_trace::{memory_intensive, MultiProgram};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    config: String,
    scheme: String,
    norm_time: f64,
    norm_memory_energy: f64,
    norm_system_edp: f64,
}

fn main() {
    let ops = trace_ops();
    let benches: Vec<_> = memory_intensive().collect();
    let mut rows = Vec::new();

    for (cores, label) in [(4usize, "4 cores / 1 ch"), (8, "8 cores / 2 ch")] {
        for scheme in [Scheme::Synergy, Scheme::Itesp] {
            // One checkpointed sub-campaign per (core count, scheme),
            // one job per benchmark, folded back in benchmark order; a
            // killed run resumes with `--resume`.
            let target = format!("fig12.{cores}c.{}", scheme.label());
            let job_benches = benches.clone();
            let per_bench: Vec<(f64, f64, f64)> = run_campaign(&target, benches.len(), move |j| {
                let params = |s| {
                    if cores == 4 {
                        ExperimentParams::paper_4core(s, ops)
                    } else {
                        ExperimentParams::paper_8core(s, ops)
                    }
                };
                let b = &job_benches[j];
                let mp = MultiProgram::homogeneous(b, cores, ops, TRACE_SEED);
                let base = run_workload(&mp, params(Scheme::Unsecure));
                let r = run_workload(&mp, params(scheme));
                (
                    r.normalized_time(&base),
                    r.normalized_memory_energy(&base),
                    r.normalized_system_edp(&base, cores),
                )
            })
            .into_rows_or_exit();
            let mut t = Vec::new();
            let mut e = Vec::new();
            let mut d = Vec::new();
            for &(ti, ei, di) in &per_bench {
                t.push(ti);
                e.push(ei);
                d.push(di);
            }
            rows.push(Row {
                config: label.to_owned(),
                scheme: scheme.label().to_owned(),
                norm_time: RunResult::geomean(&t),
                norm_memory_energy: RunResult::geomean(&e),
                norm_system_edp: RunResult::geomean(&d),
            });
            eprintln!("[{label} {}: done]", scheme.label());
        }
    }

    println!("Figure 12: core-count sensitivity, top-15 geomean ({ops} ops/program)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                r.scheme.clone(),
                format!("{:.2}", r.norm_time),
                format!("{:.2}", r.norm_memory_energy),
                format!("{:.2}", r.norm_system_edp),
            ]
        })
        .collect();
    print_table(
        &["config", "scheme", "exec time", "mem energy", "system EDP"],
        &table,
    );

    let imp = |cfg: &str| {
        let syn = rows
            .iter()
            .find(|r| r.config == cfg && r.scheme == "SYNERGY")
            .expect("synergy row");
        let itesp = rows
            .iter()
            .find(|r| r.config == cfg && r.scheme == "ITESP")
            .expect("itesp row");
        (syn.norm_time / itesp.norm_time - 1.0) * 100.0
    };
    println!(
        "\nITESP improvement over SYNERGY: {:.0}% at 4 cores -> {:.0}% at 8 cores (paper: 64% -> 82%)",
        imp("4 cores / 1 ch"),
        imp("8 cores / 2 ch")
    );
    save_json("fig12", &rows);
}
