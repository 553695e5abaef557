//! What a workload run hands back, and how it is printed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::Serialize;

use itesp_dram::ChannelStats;
use itesp_sim::RunResult;

/// One named figure with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Per-layer figures every workload reports. A layer the workload
/// does not exercise reports a count of 0; every host time here is
/// measured on every workload.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub trace_gen_s: f64,
    pub trace_records: u64,
    pub sim_run_s: f64,
    pub sim_cycles: u64,
    pub core_replay_ns_per_access: f64,
    pub core_meta_per_access: f64,
    pub core_meta_cache_hit_rate: f64,
    pub core_parity_cache_hit_rate: f64,
    pub dram_replay_ns_per_req: f64,
    pub dram_row_hit_rate: f64,
    pub dram_avg_read_latency_cycles: f64,
    pub dram_bus_util: f64,
    pub dram_reqs: u64,
    pub enclave_lifecycle_reqs: u64,
    pub enclave_leaves_recycled: u64,
    pub reliability_detections: u64,
    pub reliability_corrections: u64,
    pub reliability_recovery_reqs: u64,
    pub snap_bytes: u64,
    pub snap_snapshots: u64,
    pub migrate_blob_bytes: u64,
    pub migrate_frames: u64,
    pub serve_busy_frac: f64,
}

impl Layers {
    /// Fold in the exact counters of the workload's ITESP simulations.
    pub fn add_itesp_results(&mut self, results: &[&RunResult]) {
        let sum = |f: &dyn Fn(&RunResult) -> u64| results.iter().map(|r| f(r)).sum::<u64>();
        let data = sum(&|r| r.engine.data_accesses());
        let meta = sum(&|r| r.engine.meta_accesses());
        self.core_meta_per_access = ratio(meta, data);
        self.core_meta_cache_hit_rate = ratio(
            sum(&|r| r.metadata_cache.hits),
            sum(&|r| r.metadata_cache.accesses),
        );
        self.core_parity_cache_hit_rate = ratio(
            sum(&|r| r.parity_cache.hits),
            sum(&|r| r.parity_cache.accesses),
        );
        let mut dram = ChannelStats::default();
        for r in results {
            dram.merge(&r.dram);
        }
        let dram_cycles = sum(&|r| r.cycles / itesp_sim::CPU_PER_DRAM_CYCLE);
        self.add_dram(&dram, dram_cycles);
    }

    pub fn add_dram(&mut self, dram: &ChannelStats, dram_cycles: u64) {
        self.dram_row_hit_rate = dram.row_hit_rate();
        self.dram_avg_read_latency_cycles = dram.avg_read_latency();
        self.dram_bus_util = ratio(dram.bus_busy_cycles, dram_cycles);
        self.dram_reqs = dram.reads + dram.writes;
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("trace.gen_s", self.trace_gen_s, "s"),
            metric("trace.records", self.trace_records as f64, "count"),
            metric("sim.run_s", self.sim_run_s, "s"),
            metric("sim.cycles", self.sim_cycles as f64, "cycles"),
            metric(
                "sim.host_ns_per_kcycle",
                self.sim_run_s * 1e12 / self.sim_cycles.max(1) as f64,
                "ns",
            ),
            metric(
                "core.replay_ns_per_access",
                self.core_replay_ns_per_access,
                "ns",
            ),
            metric("core.meta_per_access", self.core_meta_per_access, "ratio"),
            metric(
                "core.meta_cache_hit_rate",
                self.core_meta_cache_hit_rate,
                "ratio",
            ),
            metric(
                "core.parity_cache_hit_rate",
                self.core_parity_cache_hit_rate,
                "ratio",
            ),
            metric("dram.replay_ns_per_req", self.dram_replay_ns_per_req, "ns"),
            metric("dram.row_hit_rate", self.dram_row_hit_rate, "ratio"),
            metric(
                "dram.avg_read_latency_cycles",
                self.dram_avg_read_latency_cycles,
                "cycles",
            ),
            metric("dram.bus_util", self.dram_bus_util, "ratio"),
            metric("dram.reqs", self.dram_reqs as f64, "count"),
            metric(
                "enclave.lifecycle_reqs",
                self.enclave_lifecycle_reqs as f64,
                "count",
            ),
            metric(
                "enclave.leaves_recycled",
                self.enclave_leaves_recycled as f64,
                "count",
            ),
            metric(
                "reliability.detections",
                self.reliability_detections as f64,
                "count",
            ),
            metric(
                "reliability.corrections",
                self.reliability_corrections as f64,
                "count",
            ),
            metric(
                "reliability.recovery_reqs",
                self.reliability_recovery_reqs as f64,
                "count",
            ),
            metric("snap.bytes", self.snap_bytes as f64, "B"),
            metric("snap.snapshots", self.snap_snapshots as f64, "count"),
            metric("migrate.blob_bytes", self.migrate_blob_bytes as f64, "B"),
            metric("migrate.frames", self.migrate_frames as f64, "count"),
            metric("serve.busy_frac", self.serve_busy_frac, "ratio"),
        ]
    }
}

/// Every simulated statistic of a run, serialized: equal strings mean
/// identical results.
pub fn fingerprint(r: &RunResult) -> String {
    serde_json::to_string_pretty(r).expect("RunResult serializes")
}

/// `num / den`, 0 for an empty base.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold, described.
    pub failures: Vec<String>,
    pub setup_s: f64,
    pub sim_minstr_per_s: f64,
    pub itesp_norm_time: f64,
    /// [`crate::host::probe`] times, one per round.
    pub host_probe_s: Vec<f64>,
    /// End-to-end figures that only this workload has.
    pub named: Vec<Metric>,
    pub layers: Layers,
    /// Host times of layers only this workload exercises.
    pub layer_detail: Vec<Metric>,
    /// Every simulated statistic of the run, serialized; traced and
    /// untraced runs of one seed must agree on it byte for byte.
    pub exact: String,
}

impl Outcome {
    /// Record one operation and whether it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Record an output check; a failed one fails the command.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(ok);
        if !ok {
            self.failures.push(what());
        }
    }

    /// How many times slower the host ran than the reference host:
    /// the fastest probe of the run against the reference time.
    pub fn host_slowdown(&self) -> f64 {
        crate::stats::fastest(&self.host_probe_s) / crate::host::REFERENCE_S
    }

    /// The end-to-end metrics every workload reports, in
    /// `BENCHMARK.json` order. Host times are scaled to the reference
    /// host's speed.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Vec<Metric> {
        let slowdown = self.host_slowdown();
        vec![
            metric("setup_s", self.setup_s / slowdown, "s"),
            metric(
                "sim_minstr_per_s",
                self.sim_minstr_per_s * slowdown,
                "Minstr/s",
            ),
            metric("itesp_norm_time", self.itesp_norm_time, "ratio"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    }

    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed, self.attempted)
    }
}

#[derive(Serialize)]
struct Value {
    value: f64,
    unit: &'static str,
}

#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Value>,
}

/// The final stdout line, read by the regression gate.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let line = ResultLine {
        correct,
        attempted,
        failed,
        metrics: metrics
            .iter()
            .map(|m| {
                let v = Value {
                    value: m.value,
                    unit: m.unit,
                };
                (m.name.clone(), v)
            })
            .collect(),
    };
    serde_json::to_string(&line).expect("result line serializes")
}

/// One human-readable line per metric.
pub fn lines(metrics: &[Metric]) -> String {
    let mut s = String::new();
    for m in metrics {
        let _ = writeln!(
            s,
            "  {:<30} {:>18} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    s
}
