//! Isolated layer replays: the workload's data accesses through a
//! bare `SecurityEngine`, then the resulting data + metadata stream
//! through a bare `MemorySystem`. Each times one layer with no core
//! model around it.

use std::collections::HashMap;
use std::time::Instant;

use itesp_core::{AccessRequest, EngineConfig, SecurityEngine};
use itesp_dram::{ChannelStats, DramConfig, MemorySystem};
use itesp_trace::{MemOp, PhysRecord, PAGE_BYTES};

use crate::spans::Tracer;

/// Requests per `on_access_batch` call.
const BATCH: usize = 64;

/// Interleave per-core traces round-robin and assign each core's
/// pages dense leaf ids in first-touch order, as `System` does.
pub fn accesses(traces: &[Vec<PhysRecord>]) -> Vec<AccessRequest> {
    let mut leaves: Vec<HashMap<u64, u64>> = vec![HashMap::new(); traces.len()];
    let longest = traces.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::with_capacity(traces.iter().map(Vec::len).sum());
    for i in 0..longest {
        for (core, trace) in traces.iter().enumerate() {
            let Some(rec) = trace.get(i) else { continue };
            let map = &mut leaves[core];
            let next = map.len() as u64;
            let leaf = *map.entry(rec.paddr / PAGE_BYTES).or_insert(next);
            out.push(AccessRequest {
                enclave: core,
                paddr: rec.paddr,
                enclave_block: leaf * (PAGE_BYTES / 64) + (rec.paddr % PAGE_BYTES) / 64,
                is_write: rec.op == MemOp::Write,
            });
        }
    }
    out
}

/// One engine replay: the host time and the DRAM stream it produced
/// (each data access followed by its metadata transactions).
pub struct CoreReplay {
    pub seconds: f64,
    pub stream: Vec<(u64, bool)>,
}

/// Filter `reqs` through a fresh engine in batches.
pub fn core(cfg: EngineConfig, reqs: &[AccessRequest], tr: &mut Tracer, id: u64) -> CoreReplay {
    tr.span("core.replay", id, |_| {
        let mut engine = SecurityEngine::new(cfg);
        let mut stream = Vec::with_capacity(reqs.len() * 2);
        let start = Instant::now();
        for chunk in reqs.chunks(BATCH) {
            let out = engine.on_access_batch(chunk);
            for (r, o) in chunk.iter().zip(&out.requests) {
                stream.push((r.paddr, r.is_write));
                let meta = &out.mem[o.mem_start..o.mem_start + o.mem_len];
                stream.extend(meta.iter().map(|m| (m.addr, m.is_write)));
            }
        }
        CoreReplay {
            seconds: start.elapsed().as_secs_f64(),
            stream,
        }
    })
}

/// One DRAM replay: host time and the channel statistics.
pub struct DramReplay {
    pub seconds: f64,
    /// DRAM cycles ticked until the last completion.
    pub cycles: u64,
    pub stats: ChannelStats,
}

/// Push `stream` through a fresh memory system in order, ticking
/// whenever the target queue is full, then drain it.
///
/// # Errors
/// When the memory system completes a different number of requests
/// than it accepted.
pub fn dram(
    cfg: DramConfig,
    stream: &[(u64, bool)],
    tr: &mut Tracer,
    id: u64,
) -> Result<DramReplay, String> {
    tr.span("dram.replay", id, |_| {
        let mut mem = MemorySystem::new(cfg);
        let mut done = Vec::new();
        let mut completed = 0usize;
        let mut now = 0u64;
        let start = Instant::now();
        for &(addr, is_write) in stream {
            loop {
                let accepted = if is_write {
                    mem.enqueue_write(addr, now).is_ok()
                } else {
                    mem.enqueue_read(addr, now).is_ok()
                };
                if accepted {
                    break;
                }
                mem.tick(now);
                now += 1;
                done.clear();
                mem.drain_completions_into(&mut done);
                completed += done.len();
            }
        }
        while !mem.is_idle() {
            mem.tick(now);
            now += 1;
            done.clear();
            mem.drain_completions_into(&mut done);
            completed += done.len();
        }
        let seconds = start.elapsed().as_secs_f64();
        if completed != stream.len() {
            return Err(format!(
                "DRAM replay completed {completed} of {} enqueued requests",
                stream.len()
            ));
        }
        Ok(DramReplay {
            seconds,
            cycles: now,
            stats: mem.stats(),
        })
    })
}
