//! `serve`: an in-process `itesp-serve` daemon with 2 shards under a
//! closed loop of 2 client connections, each sending its next request
//! as soon as the previous reply arrives. Requests are short
//! single-tenant traces, pre-generated and pre-encoded in set-up.

use std::collections::HashMap;
use std::fs;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

use itesp_core::{EngineConfig, Scheme};
use itesp_dram::{AddressMapping, ChannelStats, DramConfig};
use itesp_serve::protocol::{
    decode_error, encode_end, encode_records_frame, read_frame, write_frame, Hello,
    PROTOCOL_VERSION,
};
use itesp_serve::server::metrics_command;
use itesp_serve::{run_tenant, FrameKind, Server, ServerConfig, TenantRequest};
use itesp_trace::{benchmark, MultiProgram, WorkloadGen};

use crate::report::{metric, Outcome};
use crate::spans::Tracer;
use crate::stats::{fastest, geomean, tail};
use crate::{instructions, median, replay, scratch_dir, timed};

/// Distinct requests; client `c` sends the entries of parity `c`, so
/// with tenant id = entry index each client feeds its own shard.
const POOL: usize = 32;
const RECORDS: usize = 1_500;
const CLIENTS: usize = 2;
const SHARDS: usize = 2;
/// Records per `Records` frame, as the reference client sends them.
const CHUNK: usize = itesp_serve::client::CHUNK_RECORDS;
/// Closed-loop time per round; each round starts a fresh daemon.
const ROUND: Duration = Duration::from_secs(2);

/// One pre-generated request.
struct Request {
    req: TenantRequest,
    hello_frame: Vec<u8>,
    record_frames: Vec<Vec<u8>>,
    end_frame: Vec<u8>,
    instructions: u64,
}

/// Entry `i`: mcf/perlbench alternate every 2 entries, ITESP/SYNERGY
/// every 4, so each client sees both benchmarks and both schemes.
fn pool(seed: u64) -> Vec<Request> {
    (0..POOL)
        .map(|i| {
            let bench = ["mcf", "perlbench"][(i >> 1) & 1];
            let scheme = ["ITESP", "SYNERGY"][(i >> 2) & 1];
            let b = benchmark(bench).expect("Table IV name");
            let records: Vec<_> =
                WorkloadGen::for_benchmark(b, seed ^ (i as u64).wrapping_mul(0x9E37_79B9))
                    .take(RECORDS)
                    .collect();
            let hello = Hello {
                version: PROTOCOL_VERSION,
                tenant: i as u64,
                request_seq: 1,
                seed,
                scheme: scheme.into(),
                benchmark: bench.into(),
                working_set_mb: b.working_set_mb,
                fault_rate: 0.0,
            };
            Request {
                hello_frame: hello.encode(),
                record_frames: records.chunks(CHUNK).map(encode_records_frame).collect(),
                end_frame: encode_end(records.len() as u64),
                instructions: instructions(records.iter().map(|r| r.gap)),
                req: TenantRequest { hello, records },
            }
        })
        .collect()
}

struct Daemon {
    traffic: SocketAddr,
    metrics: SocketAddr,
    handle: thread::JoinHandle<Result<(), itesp_serve::ServeError>>,
}

fn launch(dir: &Path) -> Result<Daemon, String> {
    let cfg = ServerConfig {
        shards: SHARDS,
        ..ServerConfig::new(dir)
    };
    let server = Server::start(cfg).map_err(|e| format!("server start: {e}"))?;
    let (traffic, metrics) = (server.traffic_addr(), server.metrics_addr());
    let handle = thread::spawn(move || server.run());
    Ok(Daemon {
        traffic,
        metrics,
        handle,
    })
}

/// Drain the daemon and wait for it; returns its full metrics view.
fn stop(d: Daemon) -> Result<String, String> {
    let full = metrics_command(d.metrics, b'A').map_err(|e| format!("metrics scrape: {e}"))?;
    metrics_command(d.metrics, b'D').map_err(|e| format!("drain: {e}"))?;
    d.handle
        .join()
        .map_err(|_| "server thread panicked".to_owned())?
        .map_err(|e| format!("server: {e}"))?;
    Ok(full)
}

/// The `completed` and `snapshots` counters of the daemon's full
/// metrics view.
fn counters(full: &str) -> Result<(u64, u64), String> {
    let v = serde_json::from_str(full).map_err(|e| format!("metrics view: {e}"))?;
    let c = v.field("counters")?;
    Ok((
        c.field("completed")?.as_u64()?,
        c.field("snapshots")?.as_u64()?,
    ))
}

/// How one request ended.
enum Reply {
    Result(String),
    Busy,
    Error(String),
}

/// Phase times of one request, ms.
#[derive(Default, Clone, Copy)]
struct Phases {
    admit: f64,
    upload: f64,
    wait: f64,
}

fn io<T>(r: Result<T, itesp_serve::ServeError>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

/// One request over its own connection, phase by phase.
fn request(
    addr: SocketAddr,
    r: &Request,
    tr: &mut Tracer,
    id: u64,
) -> Result<(Reply, Phases), String> {
    let mut p = Phases::default();
    let t0 = Instant::now();
    let (mut stream, admit) = tr.span("serve.admit", id, |_| -> Result<_, String> {
        let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        io(write_frame(&mut s, FrameKind::Hello, &r.hello_frame))?;
        let f = io(read_frame(&mut s))?.ok_or("closed before Admitted")?;
        Ok((s, f))
    })?;
    p.admit = t0.elapsed().as_secs_f64() * 1e3;
    match admit.kind {
        FrameKind::Admitted => {}
        FrameKind::Busy => return Ok((Reply::Busy, p)),
        FrameKind::ErrorFrame => {
            return Ok((
                Reply::Error(format!("{:?}", decode_error(&admit.payload))),
                p,
            ))
        }
        k => return Ok((Reply::Error(format!("expected Admitted, got {k:?}")), p)),
    }
    let t1 = Instant::now();
    tr.span("serve.upload", id, |_| -> Result<(), String> {
        for f in &r.record_frames {
            io(write_frame(&mut stream, FrameKind::Records, f))?;
        }
        io(write_frame(&mut stream, FrameKind::End, &r.end_frame))
    })?;
    p.upload = t1.elapsed().as_secs_f64() * 1e3;
    let t2 = Instant::now();
    let f = tr.span("serve.result_wait", id, |_| io(read_frame(&mut stream)))?;
    p.wait = t2.elapsed().as_secs_f64() * 1e3;
    let reply = match f {
        Some(f) if f.kind == FrameKind::Result => {
            Reply::Result(String::from_utf8_lossy(&f.payload).into_owned())
        }
        Some(f) if f.kind == FrameKind::ErrorFrame => {
            Reply::Error(format!("{:?}", decode_error(&f.payload)))
        }
        other => Reply::Error(format!("expected Result, got {:?}", other.map(|f| f.kind))),
    };
    Ok((reply, p))
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    latency_ms: Vec<f64>,
    phases: Vec<Phases>,
    completed_instr: u64,
    busy: u64,
    errors: Vec<String>,
    /// Each pool entry's replies, deduplicated.
    replies: HashMap<usize, Vec<String>>,
}

/// Closed loop: send, wait for the reply, send the next, until
/// `deadline`.
fn client(
    c: usize,
    addr: SocketAddr,
    pool: &[Request],
    deadline: Instant,
    mut tr: Tracer,
) -> (ClientLog, Tracer) {
    let mut log = ClientLog::default();
    let mut k = 0;
    while Instant::now() < deadline {
        let idx = (CLIENTS * k + c) % POOL;
        let id = (k * CLIENTS + c) as u64;
        k += 1;
        let t0 = Instant::now();
        let res = tr.span("serve.request", id, |tr| request(addr, &pool[idx], tr, id));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match res {
            Ok((Reply::Result(json), p)) => {
                log.latency_ms.push(ms);
                log.phases.push(p);
                log.completed_instr += 2 * pool[idx].instructions;
                let seen = log.replies.entry(idx).or_default();
                if !seen.contains(&json) {
                    seen.push(json);
                }
            }
            Ok((Reply::Busy, _)) => log.busy += 1,
            Ok((Reply::Error(e), _)) => log.errors.push(format!("request {id} (entry {idx}): {e}")),
            Err(e) => {
                // A transport failure would repeat on every request.
                log.errors.push(format!("request {id} (entry {idx}): {e}"));
                break;
            }
        }
    }
    (log, tr)
}

/// The clients' closed loop against a running daemon until `deadline`.
fn closed_loop(
    addr: SocketAddr,
    reqs: &[Request],
    deadline: Instant,
    tr: &mut Tracer,
    round: u64,
) -> Vec<ClientLog> {
    tr.span("serve.loop", round, |tr| {
        let forks: Vec<Tracer> = (0..CLIENTS).map(|_| tr.fork()).collect();
        let done: Vec<(ClientLog, Tracer)> = thread::scope(|s| {
            let handles: Vec<_> = forks
                .into_iter()
                .enumerate()
                .map(|(c, t)| s.spawn(move || client(c, addr, reqs, deadline, t)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        done.into_iter()
            .map(|(log, t)| {
                tr.absorb(t);
                log
            })
            .collect()
    })
}

pub fn run(seed: u64, budget: Duration, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (mut setup_s, mut gen_s) = (vec![], vec![]);
    let mut logs = Vec::new();
    // Closed-loop wall seconds and completed instructions, per round.
    let mut rounds: Vec<(f64, u64)> = Vec::new();
    let mut snapshots = 0;
    let mut pool_reqs = None;
    // Every round runs its closed loop for the same time, so that the
    // rounds' throughputs compare.
    let len = budget.min(ROUND);
    let start = Instant::now();
    let mut round = 0u64;
    while round == 0 || start.elapsed() + len <= budget {
        // Set-up, repeated every round: the request pool and a fresh
        // daemon, after the previous round's are freed and stopped.
        drop(pool_reqs.take());
        out.host_probe_s.push(crate::host::probe());
        let dir = scratch_dir(&format!("serve-{round}"));
        let t0 = Instant::now();
        let (reqs, g) = timed(|| tr.span("trace.generate", round, |_| pool(seed)));
        let daemon = tr.span("serve.start", round, |_| launch(&dir));
        setup_s.push(t0.elapsed().as_secs_f64());
        gen_s.push(g);
        let daemon = match daemon {
            Ok(d) => d,
            Err(e) => {
                out.check(false, || e);
                break;
            }
        };

        let t1 = Instant::now();
        let round_logs = closed_loop(daemon.traffic, &reqs, t1 + len, tr, round);
        let wall = t1.elapsed().as_secs_f64();
        let full = stop(daemon);
        let _ = fs::remove_dir_all(&dir);
        let completed: u64 = round_logs.iter().map(|l| l.latency_ms.len() as u64).sum();
        let instr = round_logs.iter().map(|l| l.completed_instr).sum();
        rounds.push((wall, instr));
        let counters = full.and_then(|f| counters(&f));
        match counters {
            Ok((done, snaps)) => {
                snapshots += snaps;
                out.check(done == completed, || {
                    format!(
                        "round {round}: daemon counted {done} completions, clients saw {completed}"
                    )
                });
            }
            Err(e) => out.check(false, || e),
        }
        logs.extend(round_logs);
        pool_reqs = Some(reqs);
        round += 1;
    }
    let Some(reqs) = pool_reqs else {
        return out;
    };
    out.setup_s = fastest(&setup_s);
    out.layers.trace_gen_s = fastest(&gen_s);
    out.layers.trace_records = (POOL * RECORDS) as u64;

    let mut latency = Vec::new();
    let mut phases = Vec::new();
    let mut replies: HashMap<usize, Vec<String>> = HashMap::new();
    let mut busy = 0;
    for log in logs {
        for _ in &log.latency_ms {
            out.op(true);
        }
        latency.extend(log.latency_ms);
        phases.extend(log.phases);
        busy += log.busy;
        for _ in 0..log.busy {
            out.op(false);
        }
        for e in log.errors {
            out.check(false, || e);
        }
        for (idx, r) in log.replies {
            let seen = replies.entry(idx).or_default();
            for json in r {
                if !seen.contains(&json) {
                    seen.push(json);
                }
            }
        }
    }
    let completed = latency.len() as u64;

    // Checks: every entry's replies agree with each other and with
    // `run_tenant` in process.
    let mut run_ms = Vec::new();
    let mut stats = Vec::new();
    for (idx, r) in reqs.iter().enumerate() {
        let (local, s) = timed(|| tr.span("serve.run_tenant", idx as u64, |_| run_tenant(&r.req)));
        run_ms.push(s * 1e3);
        let Ok(local) = local else {
            out.check(false, || format!("run_tenant on entry {idx} failed"));
            continue;
        };
        let want = serde_json::to_string_pretty(&local).expect("stats serialize");
        if let Some(seen) = replies.get(&idx) {
            out.check(seen.len() == 1 && seen[0] == want, || {
                format!(
                    "entry {idx}: {} distinct replies, expected run_tenant's",
                    seen.len()
                )
            });
        }
        stats.push(local);
    }
    out.check(stats.len() == POOL, || {
        "run_tenant failed on some entries".to_owned()
    });

    // Each round repeats the same closed loop; the fastest round is the
    // one least disturbed by other load on the host.
    out.sim_minstr_per_s = rounds
        .iter()
        .filter(|r| r.0 > 0.0)
        .map(|&(wall, instr)| instr as f64 / wall / 1e6)
        .fold(0.0, f64::max);
    let wall: f64 = rounds.iter().map(|r| r.0).sum();
    let itesp: Vec<f64> = stats
        .iter()
        .filter(|s| s.scheme == Scheme::Itesp.label())
        .map(|s| s.cycles as f64 / s.baseline_cycles as f64)
        .collect();
    if !itesp.is_empty() {
        out.itesp_norm_time = geomean(&itesp);
    }
    out.named
        .push(metric("serve_req_per_s", completed as f64 / wall, "1/s"));
    if !latency.is_empty() {
        out.named
            .push(metric("serve_p50_ms", median(&latency), "ms"));
    }
    if let Some(t) = tail(&latency) {
        out.named
            .push(metric(format!("serve_p{}_ms", t.percentile), t.value, "ms"));
    }
    out.named
        .push(metric("serve_requests", completed as f64, "count"));

    let l = &mut out.layers;
    l.serve_busy_frac = crate::report::ratio(busy, completed + busy);
    l.sim_run_s = run_ms.iter().sum::<f64>() / 1e3;
    l.sim_cycles = stats.iter().map(|s| s.cycles + s.baseline_cycles).sum();
    let itesp_stats: Vec<_> = stats
        .iter()
        .filter(|s| s.scheme == Scheme::Itesp.label())
        .collect();
    let sum = |f: &dyn Fn(&itesp_serve::TenantStats) -> u64| {
        itesp_stats.iter().map(|s| f(s)).sum::<u64>()
    };
    let records = sum(&|s| s.records);
    l.core_meta_per_access = itesp_stats
        .iter()
        .map(|s| s.meta_per_access * s.records as f64)
        .sum::<f64>()
        / records.max(1) as f64;
    l.core_meta_cache_hit_rate = crate::report::ratio(
        sum(&|s| s.metadata_cache_hits),
        sum(&|s| s.metadata_cache_accesses),
    );
    l.core_parity_cache_hit_rate = crate::report::ratio(
        sum(&|s| s.parity_cache_hits),
        sum(&|s| s.parity_cache_accesses),
    );
    l.snap_snapshots = snapshots;
    if !phases.is_empty() {
        let pick = |f: fn(&Phases) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
        let d = &mut out.layer_detail;
        d.push(metric("serve.admit_ms", pick(|p| p.admit), "ms"));
        d.push(metric("serve.upload_ms", pick(|p| p.upload), "ms"));
        d.push(metric("serve.result_wait_ms", pick(|p| p.wait), "ms"));
    }
    out.layer_detail
        .push(metric("serve.run_tenant_ms", median(&run_ms), "ms"));

    // Isolated engine and DRAM replays of every pool entry under its
    // own scheme, mapped as the daemon maps them.
    let dram_cfg = DramConfig::table_iii().with_mapping(AddressMapping::RowBufferHit4);
    let (mut core_s, mut accesses, mut dram_s, mut dram_reqs, mut dram_cycles) =
        (0.0, 0, 0.0, 0, 0);
    let mut dram = ChannelStats::default();
    for (idx, r) in reqs.iter().enumerate() {
        let h = &r.req.hello;
        let mp = match MultiProgram::from_virtual(
            vec![r.req.records.clone()],
            &h.benchmark,
            h.working_set_mb,
        ) {
            Ok(mp) => mp,
            Err(e) => {
                out.check(false, || format!("entry {idx}: {e}"));
                continue;
            }
        };
        let scheme = Scheme::from_label(&h.scheme).expect("pool schemes are valid");
        let engine = EngineConfig::single_tenant(scheme, dram_cfg.geometry.capacity_bytes());
        let reqs = replay::accesses(&mp.traces);
        let core = replay::core(engine, &reqs, tr, idx as u64);
        core_s += core.seconds;
        accesses += reqs.len();
        match replay::dram(dram_cfg, &core.stream, tr, idx as u64) {
            Ok(d) => {
                out.op(true);
                dram_s += d.seconds;
                dram_reqs += core.stream.len();
                dram_cycles += d.cycles;
                dram.merge(&d.stats);
            }
            Err(e) => out.check(false, || e),
        }
    }
    out.layers.core_replay_ns_per_access = core_s * 1e9 / accesses.max(1) as f64;
    out.layers.dram_replay_ns_per_req = dram_s * 1e9 / dram_reqs.max(1) as f64;
    out.layers.add_dram(&dram, dram_cycles);

    let mut exact: Vec<String> = stats
        .iter()
        .map(|s| serde_json::to_string_pretty(s).expect("stats serialize"))
        .collect();
    exact.push(format!("dram replay {dram:?}"));
    out.exact = exact.join("\n");
    out
}
