//! Lockstep on real traffic: the optimized [`Channel`] and the
//! [`ReferenceChannel`] specification, fed the security engine's DRAM
//! stream (every data access followed by its metadata transactions) for
//! four copies of mcf and of bfs under SYNERGY and ITESP, on the Fig 8
//! configuration (Table III, one channel, `RowBufferHit4`).
//!
//! The `scheduler_equivalence` property test uses synthetic arrivals on
//! the default mapping; this stream keeps 20-30 banks busy across the 16
//! ranks with write drain and refresh interleaved. Requests enter the
//! way the DRAM replay of the repository benchmark feeds them: in stream
//! order, ticking whenever the target queue is full. Both channels must
//! accept the same requests on the same cycles and produce the same
//! command log, completions and statistics. `ITESP_TEST_SEED` replays a
//! trace seed.

use std::collections::HashMap;

use itesp_core::{AccessRequest, EngineConfig, Scheme, SecurityEngine};
use itesp_dram::{
    AddressDecoder, AddressMapping, Channel, Command, DramConfig, ReferenceChannel, Request,
};
use itesp_oracle::Scheduler;
use itesp_orchestrate::knobs::test_seed;
use itesp_trace::{benchmark, MemOp, MultiProgram, PhysRecord, PAGE_BYTES};

const COPIES: usize = 4;
const OPS: usize = 2_500;

fn dram() -> DramConfig {
    DramConfig::table_iii().with_mapping(AddressMapping::RowBufferHit4)
}

fn engine(scheme: Scheme, dram: &DramConfig) -> EngineConfig {
    let capacity = dram.geometry.capacity_bytes();
    EngineConfig {
        scheme,
        enclaves: COPIES,
        data_capacity: capacity,
        enclave_capacity: capacity / COPIES as u64,
        metadata_cache_bytes: 64 << 10,
        cache_ways: 8,
        model_overflow: false,
        rank_stride_blocks: 4,
    }
}

/// The per-core traces interleaved round-robin, each core's pages given
/// dense leaf ids in first-touch order, as `System` does.
fn accesses(traces: &[Vec<PhysRecord>]) -> Vec<AccessRequest> {
    let mut leaves: Vec<HashMap<u64, u64>> = vec![HashMap::new(); traces.len()];
    let longest = traces.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::new();
    for i in 0..longest {
        for (core, trace) in traces.iter().enumerate() {
            let Some(rec) = trace.get(i) else { continue };
            let next = leaves[core].len() as u64;
            let leaf = *leaves[core].entry(rec.paddr / PAGE_BYTES).or_insert(next);
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

/// The engine's DRAM stream: `(addr, is_write)` per transaction.
fn dram_stream(cfg: EngineConfig, reqs: &[AccessRequest]) -> Vec<(u64, bool)> {
    let mut engine = SecurityEngine::new(cfg);
    let mut stream = Vec::new();
    for chunk in reqs.chunks(64) {
        let out = engine.on_access_batch(chunk);
        for (r, o) in chunk.iter().zip(&out.requests) {
            stream.push((r.paddr, r.is_write));
            let meta = &out.mem[o.mem_start..o.mem_start + o.mem_len];
            stream.extend(meta.iter().map(|m| (m.addr, m.is_write)));
        }
    }
    stream
}

/// Tick both schedulers at `now` and compare what they complete.
fn tick_both(opt: &mut impl Scheduler, refc: &mut impl Scheduler, now: u64, what: &str) -> usize {
    opt.tick(now);
    refc.tick(now);
    let done = opt.take_completions();
    assert_eq!(
        done,
        refc.take_completions(),
        "{what}: completions diverged at cycle {now}"
    );
    done.len()
}

/// Feed `stream` to both schedulers in order, ticking whenever the
/// target queue is full, drain them, and compare everything observable.
fn lockstep(stream: &[(u64, bool)], what: &str) {
    let cfg = dram();
    let dec = AddressDecoder::new(cfg.geometry, cfg.mapping);
    let mut opt = Channel::new(cfg);
    let mut refc = ReferenceChannel::new(cfg);
    Scheduler::enable_cmd_log(&mut opt);
    Scheduler::enable_cmd_log(&mut refc);
    let (mut now, mut completed) = (0u64, 0usize);
    for (id, &(addr, is_write)) in stream.iter().enumerate() {
        loop {
            let req = Request::new(id as u64, addr, dec.decode(addr), is_write, now);
            let accepted = Scheduler::enqueue(&mut opt, req);
            assert_eq!(
                accepted,
                Scheduler::enqueue(&mut refc, req),
                "{what}: enqueue acceptance diverged at cycle {now}"
            );
            if accepted {
                break;
            }
            completed += tick_both(&mut opt, &mut refc, now, what);
            now += 1;
        }
    }
    while !Scheduler::is_idle(&opt) || !Scheduler::is_idle(&refc) {
        completed += tick_both(&mut opt, &mut refc, now, what);
        now += 1;
    }
    assert_eq!(completed, stream.len(), "{what}: lost requests");
    let log = Scheduler::take_cmd_log(&mut opt);
    assert!(
        log.iter().any(|c| c.cmd == Command::Refresh),
        "{what}: the stream should span refreshes"
    );
    assert_eq!(
        log,
        Scheduler::take_cmd_log(&mut refc),
        "{what}: command logs diverged"
    );
    assert_eq!(opt.stats(), refc.stats(), "{what}: stats diverged");
    assert!(opt.stats().writes > 0, "{what}: the stream should write");
}

#[test]
fn optimized_scheduler_matches_reference_on_engine_traffic() {
    let seed = test_seed(20200613);
    for bench in ["mcf", "bfs"] {
        let mp =
            MultiProgram::homogeneous(benchmark(bench).expect("Table IV name"), COPIES, OPS, seed);
        let reqs = accesses(&mp.traces);
        for scheme in [Scheme::Synergy, Scheme::Itesp] {
            let what = format!("{bench}/{scheme:?} (ITESP_TEST_SEED={seed})");
            lockstep(&dram_stream(engine(scheme, &dram()), &reqs), &what);
        }
    }
}
