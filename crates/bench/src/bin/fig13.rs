//! Figure 13: metadata-cache size sensitivity. Execution time, memory
//! energy, and system EDP for SYNERGY and ITESP with 8/16/32/64 KB of
//! metadata cache per core, top-15 geomean, normalized to non-secure.
//!
//! Paper's shape: bigger caches help every design by similar amounts
//! and slightly shrink ITESP's edge (59% at 32 KB/core, 52% at 64 KB).
//!
//! Run: `cargo run --release -p itesp-bench --bin fig13 [ops]`

use itesp_bench::{print_table, run_campaign, save_json, trace_ops, TRACE_SEED};
use itesp_core::Scheme;
use itesp_sim::{run_workload, ExperimentParams, RunResult};
use itesp_trace::{memory_intensive, MultiProgram};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    kb_per_core: usize,
    scheme: String,
    norm_time: f64,
    norm_memory_energy: f64,
    norm_system_edp: f64,
}

fn main() {
    let ops = trace_ops();
    let benches: Vec<_> = memory_intensive().collect();
    let mut rows = Vec::new();

    for kb in [8usize, 16, 32, 64] {
        for scheme in [Scheme::Synergy, Scheme::Itesp] {
            // One checkpointed sub-campaign per (cache size, scheme),
            // one job per benchmark, folded back in benchmark order; a
            // killed run resumes with `--resume`.
            let target = format!("fig13.{kb}kb.{}", scheme.label());
            let job_benches = benches.clone();
            let per_bench: Vec<(f64, f64, f64)> = run_campaign(&target, benches.len(), move |j| {
                let b = &job_benches[j];
                let mp = MultiProgram::homogeneous(b, 4, ops, TRACE_SEED);
                let base = run_workload(&mp, ExperimentParams::paper_4core(Scheme::Unsecure, ops));
                let mut p = ExperimentParams::paper_4core(scheme, ops);
                p.metadata_cache_bytes = kb * 1024 * 4; // per core -> total
                let r = run_workload(&mp, p);
                (
                    r.normalized_time(&base),
                    r.normalized_memory_energy(&base),
                    r.normalized_system_edp(&base, 4),
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
                kb_per_core: kb,
                scheme: scheme.label().to_owned(),
                norm_time: RunResult::geomean(&t),
                norm_memory_energy: RunResult::geomean(&e),
                norm_system_edp: RunResult::geomean(&d),
            });
            eprintln!("[{kb} KB {}: done]", scheme.label());
        }
    }

    println!("Figure 13: metadata-cache size sensitivity, top-15 geomean ({ops} ops/program)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{} KB/core", r.kb_per_core),
                r.scheme.clone(),
                format!("{:.2}", r.norm_time),
                format!("{:.2}", r.norm_memory_energy),
                format!("{:.2}", r.norm_system_edp),
            ]
        })
        .collect();
    print_table(
        &["cache", "scheme", "exec time", "mem energy", "system EDP"],
        &table,
    );

    println!("\nITESP improvement over SYNERGY by cache size:");
    for kb in [8usize, 16, 32, 64] {
        let get = |scheme: &str| {
            rows.iter()
                .find(|r| r.kb_per_core == kb && r.scheme == scheme)
                .expect("row")
                .norm_time
        };
        println!(
            "  {kb:>2} KB/core: {:.0}%",
            (get("SYNERGY") / get("ITESP") - 1.0) * 100.0
        );
    }
    println!("(paper: 59% at 32 KB, 52% at 64 KB — improvement shrinks as caches grow)");
    save_json("fig13", &rows);
}
