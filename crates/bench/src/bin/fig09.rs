//! Figure 9: breakdown of data+metadata memory accesses per read/write
//! operation, averaged over the top-15 memory-intensive benchmarks.
//!
//! Paper's shape: Synergy ~2.8 metadata accesses per operation, halved
//! to ~1.4 by isolation, and reduced to ~1.0 (tree only) by ITESP,
//! which eliminates the separate MAC/parity structure.
//!
//! Run: `cargo run --release -p itesp-bench --bin fig09 [ops]`

use itesp_bench::{print_table, run_campaign, save_json, trace_ops, TRACE_SEED};
use itesp_core::{MetaKind, Scheme};
use itesp_sim::{run_workload, ExperimentParams};
use itesp_trace::{memory_intensive, MultiProgram};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    scheme: String,
    data: f64,
    mac: f64,
    tree: f64,
    parity: f64,
    total_meta: f64,
}

fn main() {
    let ops = trace_ops();
    let schemes = Scheme::FIGURE_8;
    let benches: Vec<_> = memory_intensive().collect();
    // One checkpointed job per benchmark; contributions fold in
    // benchmark order so sums match a sequential run exactly, and a
    // killed run resumes with `--resume`.
    let job_benches = benches.clone();
    let per_bench: Vec<Vec<[f64; 4]>> = run_campaign("fig09", benches.len(), move |j| {
        let b = &job_benches[j];
        let mp = MultiProgram::homogeneous(b, 4, ops, TRACE_SEED);
        let contrib: Vec<[f64; 4]> = schemes
            .iter()
            .map(|&s| {
                let r = run_workload(&mp, ExperimentParams::paper_4core(s, ops));
                [
                    r.engine.kind_per_access(MetaKind::Mac),
                    r.engine.kind_per_access(MetaKind::Tree),
                    r.engine.kind_per_access(MetaKind::Parity),
                    r.engine.meta_per_access(),
                ]
            })
            .collect();
        eprintln!("[{}: done]", b.name);
        contrib
    })
    .into_rows_or_exit();
    let mut acc = vec![[0.0f64; 4]; schemes.len()];
    for contrib in &per_bench {
        for (a, c) in acc.iter_mut().zip(contrib) {
            for k in 0..4 {
                a[k] += c[k];
            }
        }
    }

    let n = benches.len() as f64;
    let rows: Vec<Row> = schemes
        .iter()
        .zip(&acc)
        .map(|(s, a)| Row {
            scheme: s.label().to_owned(),
            data: 1.0,
            mac: a[0] / n,
            tree: a[1] / n,
            parity: a[2] / n,
            total_meta: a[3] / n,
        })
        .collect();

    println!("Figure 9: accesses per read/write op, top-15 average ({ops} ops/program)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                format!("{:.2}", r.data),
                format!("{:.2}", r.mac),
                format!("{:.2}", r.tree),
                format!("{:.2}", r.parity),
                format!("{:.2}", r.total_meta),
            ]
        })
        .collect();
    print_table(
        &["scheme", "data", "MAC", "tree", "parity", "meta-total"],
        &table,
    );
    println!("\n(paper: SYNERGY ~2.8 meta/op shared -> ~1.4 isolated -> ~1.0 ITESP, tree-only)");
    save_json("fig09", &rows);
}
