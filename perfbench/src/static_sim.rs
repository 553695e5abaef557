//! `static_mem` and `static_compute`: the paper's 4-core, 1-channel
//! configuration running two benchmarks under UNSECURE, SYNERGY and
//! ITESP on identical traces, repeated round after round.

use std::time::{Duration, Instant};

use itesp_core::{EngineConfig, Scheme};
use itesp_dram::{AddressMapping, DramConfig};
use itesp_sim::{run_workload, ExperimentParams, RunResult, System, SystemConfig};
use itesp_trace::{benchmark, MultiProgram};

use crate::report::{fingerprint, metric, Outcome};
use crate::spans::Tracer;
use crate::stats::{fastest, fastest_total};
use crate::{instructions, median, replay, timed};

/// Memory operations per core trace.
const OPS: usize = 10_000;
const COPIES: usize = 4;
const SCHEMES: [Scheme; 3] = [Scheme::Unsecure, Scheme::Synergy, Scheme::Itesp];

/// The Figure 8 configuration, built from the public config types so
/// that `System::new` can be timed on its own. The output checks hold
/// it to `ExperimentParams::paper_4core`.
pub fn config(scheme: Scheme) -> SystemConfig {
    let dram = DramConfig::table_iii().with_mapping(AddressMapping::RowBufferHit4);
    let capacity = dram.geometry.capacity_bytes();
    let engine = EngineConfig {
        scheme,
        enclaves: COPIES,
        data_capacity: capacity,
        enclave_capacity: capacity / COPIES as u64,
        metadata_cache_bytes: 64 << 10,
        cache_ways: 8,
        model_overflow: false,
        rank_stride_blocks: 4,
    };
    SystemConfig::table_iii(dram, engine)
}

fn fingerprints(results: &[RunResult]) -> String {
    results
        .iter()
        .map(fingerprint)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Build one system per (benchmark, scheme), in run order.
fn build(traces: &[MultiProgram], tr: &mut Tracer, round: u64) -> (Vec<System>, f64) {
    let mut new_s = 0.0;
    let mut systems = Vec::new();
    for mp in traces {
        for scheme in SCHEMES {
            let (sys, s) = timed(|| tr.span("sim.new", round, |_| System::new(config(scheme), mp)));
            new_s += s;
            systems.push(sys);
        }
    }
    (systems, new_s)
}

fn generate(benches: [&str; 2], seed: u64) -> [MultiProgram; 2] {
    benches
        .map(|b| MultiProgram::homogeneous(benchmark(b).expect("Table IV name"), COPIES, OPS, seed))
}

pub fn run(benches: [&str; 2], seed: u64, budget: Duration, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut reference: Option<Vec<RunResult>> = None;
    let mut traces = None;
    let mut sim_s: Vec<Vec<f64>> = vec![Vec::new(); benches.len() * SCHEMES.len()];
    let (mut setup_s, mut gen_s, mut new_s) = (vec![], vec![], vec![]);
    let (mut run_s, mut per_dram_req) = (vec![], vec![]);
    let start = Instant::now();
    let mut round = 0u64;
    while round == 0 || start.elapsed() < budget {
        // Set-up, repeated every round: trace generation and the
        // round's systems. The previous round's inputs are freed
        // first, so that set-up reuses their memory.
        drop(traces.take());
        out.host_probe_s.push(crate::host::probe());
        let t0 = Instant::now();
        let (t, g) = timed(|| tr.span("trace.generate", round, |_| generate(benches, seed)));
        let (systems, n) = build(&t, tr, round);
        setup_s.push(t0.elapsed().as_secs_f64());
        gen_s.push(g);
        new_s.push(n);
        traces = Some(t);

        let timings: Vec<(RunResult, f64)> = tr.span("bench.round", round, |tr| {
            systems
                .into_iter()
                .map(|sys| timed(|| tr.span("sim.run", round, |_| sys.run())))
                .collect()
        });
        let secs: f64 = timings.iter().map(|(_, s)| s).sum();
        let mut results = Vec::new();
        for (i, (r, s)) in timings.into_iter().enumerate() {
            sim_s[i].push(s);
            results.push(r);
        }
        run_s.push(secs);
        let dram_reqs: u64 = results.iter().map(|r| r.dram.reads + r.dram.writes).sum();
        per_dram_req.push(secs * 1e9 / dram_reqs as f64);
        for _ in &results {
            out.op(true);
        }
        match &reference {
            None => reference = Some(results),
            Some(r) => {
                let same = fingerprints(r) == fingerprints(&results);
                out.check(same, || {
                    format!("round {round} simulated statistics differ from round 0")
                });
            }
        }
        round += 1;
    }
    let traces = traces.expect("at least one round");
    out.setup_s = fastest(&setup_s);
    out.layers.trace_gen_s = fastest(&gen_s);
    out.layers.trace_records = traces.iter().map(|mp| mp.total_ops() as u64).sum();
    let instr_per_round: u64 = traces
        .iter()
        .map(|mp| instructions(mp.traces.iter().flatten().map(|r| r.gap)))
        .sum::<u64>()
        * SCHEMES.len() as u64;
    let results = reference.expect("at least one round");
    out.sim_minstr_per_s = instr_per_round as f64 / fastest_total(&sim_s) / 1e6;

    // Checks: the benchmark's systems are the library's paper config.
    for (i, mp) in traces.iter().enumerate() {
        for (j, scheme) in SCHEMES.into_iter().enumerate() {
            let lib = run_workload(mp, ExperimentParams::paper_4core(scheme, OPS));
            let got = &results[i * SCHEMES.len() + j];
            out.check(fingerprint(got) == fingerprint(&lib), || {
                format!(
                    "{} {} differs from ExperimentParams::paper_4core",
                    mp.name,
                    scheme.label()
                )
            });
        }
    }

    let norm: Vec<f64> = (0..traces.len())
        .map(|i| {
            let row = &results[i * SCHEMES.len()..(i + 1) * SCHEMES.len()];
            row[2].cycles as f64 / row[0].cycles as f64
        })
        .collect();
    out.itesp_norm_time = crate::stats::geomean(&norm);

    let itesp: Vec<&RunResult> = results.iter().skip(2).step_by(SCHEMES.len()).collect();
    out.layers.add_itesp_results(&itesp);
    out.layers.sim_run_s = median(&run_s);
    out.layers.sim_cycles = results.iter().map(|r| r.cycles).sum();
    out.layer_detail
        .push(metric("sim.new_s", fastest(&new_s), "s"));
    out.layer_detail.push(metric(
        "sim.host_ns_per_dram_req",
        median(&per_dram_req),
        "ns",
    ));

    // Isolated engine and DRAM replays of the ITESP access stream.
    let mut core_ns = Vec::new();
    let mut dram_ns = Vec::new();
    for (i, mp) in traces.iter().enumerate() {
        let reqs = replay::accesses(&mp.traces);
        let cfg = config(Scheme::Itesp);
        let core = replay::core(cfg.engine, &reqs, tr, i as u64);
        core_ns.push(core.seconds * 1e9 / reqs.len() as f64);
        match replay::dram(cfg.dram, &core.stream, tr, i as u64) {
            Ok(d) => {
                out.op(true);
                dram_ns.push(d.seconds * 1e9 / core.stream.len() as f64);
            }
            Err(e) => out.check(false, || e),
        }
    }
    out.layers.core_replay_ns_per_access = median(&core_ns);
    if !dram_ns.is_empty() {
        out.layers.dram_replay_ns_per_req = median(&dram_ns);
    }

    out.named.push(metric("rounds", round as f64, "count"));
    out.exact = fingerprints(&results);
    out
}
