//! # itesp-bench — figure/table regenerators and microbenchmarks
//!
//! One binary per table and figure of the paper (see DESIGN.md's
//! experiment index): `fig02`, `fig03`, `fig05`, `fig08`, `fig09`,
//! `fig10`, `fig11`, `fig12`, `fig13`, `fig15`, `tab01`, `tab02`, plus
//! Criterion microbenchmarks of the core data structures in `benches/`.
//!
//! Each regenerator prints the paper-style rows and writes a JSON dump
//! under `results/`. Trace length defaults keep a full figure under a
//! few minutes; set `ITESP_OPS` to raise it (the paper uses 5 M
//! operations per program — relative results are stable far below that).
//! Every flag and `ITESP_*` variable is a row of
//! `itesp_orchestrate::knobs::TABLE`, read through [`setting`].

pub mod campaign;
pub mod checkpoint;

pub use campaign::{run_campaign, run_campaign_with, Campaign, CampaignOptions, FailureRecord};
pub use checkpoint::Checkpoint;
pub use itesp_orchestrate::{run_isolated, JobOutcome, JobPolicy};

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

use serde::Serialize;

use itesp_core::{CacheStats, EngineConfig, EngineStats, SecurityEngine};
use itesp_orchestrate::knobs::{self, Knob, KnobValue};
use itesp_trace::{MultiProgram, PAGE_BYTES};

/// Read a bench setting from the [`knobs`] table; a malformed value or
/// argument exits 2. Under `cfg(test)` the command line (libtest's) is
/// not parsed.
pub fn setting<T: KnobValue>(knob: &'static Knob) -> T {
    #[cfg(not(test))]
    knobs::exit_on(knobs::load_args());
    knobs::exit_on(knob.get())
}

/// Trace length per program ([`knobs::OPS`]).
pub fn trace_ops() -> usize {
    setting(&knobs::OPS)
}

/// Worker threads ([`knobs::JOBS`], or the machine's available
/// parallelism).
pub fn jobs() -> usize {
    setting::<Option<usize>>(&knobs::JOBS)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A drill's seed: [`knobs::TEST_SEED`], or `default`.
pub fn seed_or(default: u64) -> u64 {
    setting::<Option<u64>>(&knobs::TEST_SEED).unwrap_or(default)
}

/// Crash-recovery checkpointing: the directory and the cycles between
/// captures ([`knobs::SNAPSHOT_DIR`], [`knobs::SNAPSHOT_EVERY`]);
/// `None` when no directory is set.
pub fn snapshot_settings() -> Option<(PathBuf, u64)> {
    let dir = setting::<Option<PathBuf>>(&knobs::SNAPSHOT_DIR)?;
    Some((dir, setting(&knobs::SNAPSHOT_EVERY)))
}

/// Shared RNG seed so every figure sees the same traces.
pub const TRACE_SEED: u64 = 0xC0FFEE;

/// Replay a workload through just the security engine (no DRAM timing):
/// fast path for the metadata-only figures (2 and 3).
pub fn engine_replay(mp: &MultiProgram, cfg: EngineConfig) -> EngineReplay {
    let copies = mp.copies();
    let mut engine = SecurityEngine::new(cfg);
    let mut leaf_maps: Vec<HashMap<u64, u64>> = vec![HashMap::new(); copies];
    let longest = mp.traces.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for (prog, leaf_map) in leaf_maps.iter_mut().enumerate() {
            let Some(r) = mp.traces[prog].get(i) else {
                continue;
            };
            let page = r.paddr / PAGE_BYTES;
            let next = leaf_map.len() as u64;
            let leaf = *leaf_map.entry(page).or_insert(next);
            let eb = leaf * (PAGE_BYTES / 64) + (r.paddr % PAGE_BYTES) / 64;
            engine.on_access(prog, r.paddr, eb, r.is_write());
        }
    }
    EngineReplay {
        stats: engine.stats().clone(),
        metadata_cache: engine.metadata_cache_stats(),
        parity_cache: engine.parity_cache_stats(),
    }
}

/// Results of an engine-only replay.
#[derive(Debug, Clone, Serialize)]
pub struct EngineReplay {
    pub stats: EngineStats,
    pub metadata_cache: CacheStats,
    pub parity_cache: CacheStats,
}

/// Print a fixed-width table: a header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i == 0 {
                s.push_str(&format!("{:<w$}", c, w = widths[i]));
            } else {
                s.push_str(&format!("  {:>w$}", c, w = widths[i]));
            }
        }
        println!("{s}");
    };
    line(headers.iter().map(|s| (*s).to_owned()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Write a JSON result dump under `<results-dir>/<name>.json`
/// (crash-safe: temp file + atomic rename, so a kill mid-save leaves
/// the previous dump intact, never a truncated one).
///
/// After a durable save the target's checkpoints (and any
/// `<name>.<sub>` sub-sweep checkpoints) are cleared — they have served
/// their purpose.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let dir: PathBuf = setting(&knobs::RESULTS_DIR);
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("[warning: could not create {}: {e}]", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => match itesp_snap::write_atomic(&path, s.as_bytes()) {
            Ok(()) => {
                eprintln!("[saved {}]", path.display());
                clear_checkpoints(&dir, name);
            }
            Err(e) => eprintln!("[json dump failed for {}: {e}]", path.display()),
        },
        Err(e) => eprintln!("[json dump failed: {e}]"),
    }
}

/// Remove checkpoint files belonging to `name` (exactly, or any
/// `name.<sub>` sub-sweep) once the final results are durably saved.
fn clear_checkpoints(results_dir: &Path, name: &str) {
    let Ok(entries) = fs::read_dir(checkpoint::ckpt_dir(results_dir)) else {
        return;
    };
    for entry in entries.flatten() {
        let file_name = entry.file_name();
        let Some(file_name) = file_name.to_str() else {
            continue;
        };
        let owned_by_target = file_name
            .strip_prefix(name)
            .is_some_and(|rest| rest.starts_with('.'));
        if owned_by_target {
            let _ = fs::remove_file(entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itesp_core::Scheme;
    use itesp_trace::benchmark;

    #[test]
    fn engine_replay_counts_every_access() {
        let mp = MultiProgram::homogeneous(benchmark("mcf").unwrap(), 2, 500, 1);
        let r = engine_replay(&mp, EngineConfig::paper_default(Scheme::Vault));
        assert_eq!(r.stats.data_accesses(), 1000);
        assert!(r.stats.meta_accesses() > 0);
    }
}
