//! `lifecycle`: a seeded mcf churn schedule under the online RAS
//! pipeline with periodic durable snapshots, recovered from the newest
//! snapshot, then replayed through a 2-node cluster with scripted live
//! migrations.

use std::fs;
use std::time::{Duration, Instant};

use itesp_core::Scheme;
use itesp_migrate::{Cluster, ClusterConfig, ClusterWorkload, Residence};
use itesp_sim::{
    build_churn_ras_system, recover_system, ExperimentParams, RasConfig, RunResult, SnapshotSink,
    System,
};
use itesp_snap::{SnapReader, SnapWriter, SnapshotStore};
use itesp_trace::{benchmark, ChurnConfig, ChurnWorkload};

use crate::report::{fingerprint, metric, Outcome};
use crate::spans::Tracer;
use crate::stats::{fastest, fastest_total};
use crate::{instructions, median, replay, scratch_dir, timed};

const SLOTS: usize = 4;
const SESSIONS_PER_SLOT: usize = 8;
const OPS_PER_SESSION: usize = 2_000;
/// CPU cycles between durable snapshots.
const SNAP_EVERY: u64 = 1_000_000;
/// Chip faults per million DRAM cycles.
const FAULT_RATE: f64 = 20.0;
/// Right shift from churn cycles to cluster ticks.
const TICK_SHIFT: u32 = 6;
const NODES: usize = 2;
const SLOTS_PER_NODE: usize = 3;
/// Scripted migrations per cluster run, at most one per `MIGRATE_GAP`
/// ticks: each moves the lowest-id live tenant to the other node.
const MIGRATIONS: usize = 6;
const MIGRATE_GAP: u64 = 200;

fn churn(seed: u64) -> ChurnWorkload {
    ChurnWorkload::generate(
        benchmark("mcf").expect("Table IV has mcf"),
        &ChurnConfig {
            slots: SLOTS,
            sessions_per_slot: SESSIONS_PER_SLOT,
            ops_per_session: OPS_PER_SESSION,
            mean_arrival_gap: 5_000.0,
            footprint_pages: 16,
            free_fraction: 0.3,
            seed,
        },
    )
}

fn system(w: &ChurnWorkload, seed: u64, scheme: Scheme) -> System {
    let p = ExperimentParams {
        seed,
        ..ExperimentParams::paper_4core(scheme, OPS_PER_SESSION)
    };
    build_churn_ras_system(w, p, RasConfig::new(0xFA17).with_fault_rate(FAULT_RATE))
}

fn cluster_config(seed: u64, nodes: usize, slots_per_node: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::small(nodes, slots_per_node, Scheme::Itesp);
    cfg.master = seed ^ 0x9e37_79b9_7f4a_7c15;
    cfg.seed = seed.rotate_left(17) ^ 0x17e5;
    cfg
}

/// Inputs built in set-up.
struct Inputs {
    churn: ChurnWorkload,
    cluster: ClusterWorkload,
    itesp: System,
    unsecure: System,
}

fn setup(seed: u64, tr: &mut Tracer, round: u64) -> (Inputs, f64) {
    let (churn, gen_s) = timed(|| tr.span("trace.generate", round, |_| churn(seed)));
    let cluster = ClusterWorkload::from_churn(&churn, TICK_SHIFT);
    let itesp = tr.span("sim.new", round, |_| system(&churn, seed, Scheme::Itesp));
    let unsecure = tr.span("sim.new", round, |_| system(&churn, seed, Scheme::Unsecure));
    (
        Inputs {
            churn,
            cluster,
            itesp,
            unsecure,
        },
        gen_s,
    )
}

/// One cluster run's migration figures.
#[derive(Default)]
struct Migrations {
    downtime_ticks: Vec<u64>,
    downtime_ms: Vec<f64>,
    start_us: Vec<f64>,
    step_us_inflight: Vec<f64>,
    blob_bytes: u64,
    frames: u64,
}

/// The lowest-id live tenant and the other node, if that node can
/// take it now.
fn movable(c: &Cluster) -> Option<(u64, usize)> {
    (0..c.directory().len() as u64).find_map(|t| {
        let Residence::Live { node } = c.directory().entry(t)?.residence else {
            return None;
        };
        let to = (node + 1) % NODES;
        let dest = &c.nodes()[to];
        (dest.accepting() && dest.free_slot().is_some()).then_some((t, to))
    })
}

/// Drive a 2-node cluster to completion with the scripted migrations.
fn run_cluster(
    cfg: ClusterConfig,
    wl: ClusterWorkload,
    tr: &mut Tracer,
    round: u64,
) -> Result<(Cluster, Migrations), String> {
    let limit = wl.max_arrival() + 4 * wl.total_ops() as u64 + 100_000;
    let mut c = tr.span("migrate.build", round, |_| Cluster::new(cfg, wl));
    let mut m = Migrations::default();
    let mut frozen: Vec<(u64, u64, Instant)> = Vec::new();
    let mut next_at = MIGRATE_GAP;
    while !c.done() {
        if m.start_us.len() < MIGRATIONS && c.tick() >= next_at {
            if let Some((tenant, to)) = movable(&c) {
                let (r, s) =
                    timed(|| tr.span("migrate.start", tenant, |_| c.start_migration(tenant, to)));
                r.map_err(|e| format!("start_migration({tenant}, {to}): {e}"))?;
                m.start_us.push(s * 1e6);
                let blob = c.inflight_blob(tenant).expect("migration just started");
                m.blob_bytes += blob.len() as u64;
                m.frames += itesp_migrate::frames(&blob, cfg.frame_payload).len() as u64;
                frozen.push((tenant, c.tick(), Instant::now()));
                next_at = c.tick() + MIGRATE_GAP;
            }
        }
        let inflight = !c.inflight().is_empty();
        let (r, s) = timed(|| {
            if inflight {
                tr.span("migrate.step", round, |_| c.step())
            } else {
                c.step()
            }
        });
        r.map_err(|e| format!("cluster step at tick {}: {e}", c.tick()))?;
        if inflight {
            m.step_us_inflight.push(s * 1e6);
        }
        frozen.retain(|&(tenant, tick, at)| {
            let moving = c.inflight().iter().any(|t| t.tenant == tenant);
            if !moving {
                m.downtime_ticks.push(c.tick() - tick);
                m.downtime_ms.push(at.elapsed().as_secs_f64() * 1e3);
            }
            moving
        });
        if c.tick() > limit {
            return Err(format!("cluster wedged at tick {}", c.tick()));
        }
    }
    Ok((c, m))
}

pub fn run(seed: u64, budget: Duration, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let cfg2 = cluster_config(seed, NODES, SLOTS_PER_NODE);
    let mut first: Option<(RunResult, RunResult, String, Vec<u64>)> = None;
    let mut workloads = None;
    let (mut setup_s, mut gen_s) = (vec![], vec![]);
    let mut sim_s: [Vec<f64>; 2] = [vec![], vec![]];
    let (mut run_s, mut recover_s) = (vec![], vec![]);
    let (mut encode_ms, mut decode_ms, mut commit_ms) = (vec![], vec![], vec![]);
    let mut mig = Migrations::default();
    let (mut snap_bytes, mut snapshots) = (0, 0);
    let start = Instant::now();
    let mut round = 0u64;
    while round == 0 || start.elapsed() < budget {
        // Set-up, repeated every round, after the previous round's
        // inputs are freed.
        drop(workloads.take());
        out.host_probe_s.push(crate::host::probe());
        let ((inputs, g), s) = timed(|| setup(seed, tr, round));
        setup_s.push(s);
        gen_s.push(g);
        let Inputs {
            churn,
            cluster,
            mut itesp,
            unsecure,
        } = inputs;
        let dir = scratch_dir(&format!("snaps-{round}"));
        match SnapshotSink::new(&dir, SNAP_EVERY) {
            Ok(sink) => itesp.attach_snapshots(sink),
            Err(e) => {
                out.check(false, || format!("open snapshot store: {e}"));
                break;
            }
        }
        let (r_itesp, s_itesp) = timed(|| tr.span("sim.run", round, |_| itesp.try_run()));
        let (r_unsec, s_unsec) = timed(|| tr.span("sim.run", round, |_| unsecure.try_run()));
        let (r_itesp, r_unsec) = match (r_itesp, r_unsec) {
            (Ok(a), Ok(b)) => (a, b),
            (a, b) => {
                out.check(false, || {
                    format!("simulation failed: {:?} / {:?}", a.err(), b.err())
                });
                break;
            }
        };
        out.op(true);
        out.op(true);
        sim_s[0].push(s_itesp);
        sim_s[1].push(s_unsec);
        run_s.push(s_itesp + s_unsec);
        snapshots = SnapshotStore::open(&dir)
            .and_then(|s| s.latest_seq())
            .ok()
            .flatten()
            .unwrap_or(0);

        // Recover from the newest snapshot and replay the suffix.
        let mut rec = system(&churn, seed, Scheme::Itesp);
        let (meta, load_s) =
            timed(|| tr.span("snap.recover", round, |_| recover_system(&mut rec, &dir)));
        if let Err(e) = meta {
            out.check(false, || format!("recover_system: {e}"));
            break;
        }
        // The snapshot codec and a durable commit, on the recovered
        // mid-run state.
        let (bytes, enc) = timed(|| {
            tr.span("snap.encode", round, |_| {
                let mut w = SnapWriter::new();
                rec.save_state(&mut w);
                w.into_bytes()
            })
        });
        let mut copy = system(&churn, seed, Scheme::Itesp);
        let (decoded, dec) = timed(|| {
            tr.span("snap.decode", round, |_| {
                let mut r = SnapReader::new(&bytes);
                copy.load_state(&mut r).and_then(|()| r.finish())
            })
        });
        out.check(decoded.is_ok(), || {
            format!("load_state: {:?}", decoded.err())
        });
        let commit_dir = scratch_dir(&format!("commit-{round}"));
        let (committed, com) = timed(|| {
            tr.span("snap.commit", round, |_| {
                SnapshotSink::new(&commit_dir, SNAP_EVERY).and_then(|mut s| s.capture(&rec))
            })
        });
        out.check(committed.is_ok(), || {
            format!("snapshot commit: {:?}", committed.err())
        });
        let (replayed, replay_s) = timed(|| tr.span("sim.run", round, |_| rec.try_run()));
        recover_s.push(load_s + replay_s);
        encode_ms.push(enc * 1e3);
        decode_ms.push(dec * 1e3);
        commit_ms.push(com * 1e3);
        snap_bytes = bytes.len() as u64;
        let same = replayed
            .as_ref()
            .is_ok_and(|r| fingerprint(r) == fingerprint(&r_itesp));
        out.check(same, || {
            format!("round {round}: recovered run differs from the uninterrupted run")
        });
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&commit_dir);

        // The same schedule through the 2-node cluster.
        let (tenants, ticks) = match tr.span("bench.cluster", round, |tr| {
            run_cluster(cfg2, cluster.clone(), tr, round)
        }) {
            Ok((c, m)) => {
                for _ in &m.start_us {
                    out.op(true);
                }
                mig.downtime_ms.extend(&m.downtime_ms);
                mig.start_us.extend(&m.start_us);
                // One figure per round: a round has thousands of
                // in-flight steps, a run tens of rounds.
                if !m.step_us_inflight.is_empty() {
                    mig.step_us_inflight.push(median(&m.step_us_inflight));
                }
                mig.blob_bytes = m.blob_bytes;
                mig.frames = m.frames;
                (c.tenants_json(), m.downtime_ticks)
            }
            Err(e) => {
                out.check(false, || e);
                break;
            }
        };

        match &first {
            None => first = Some((r_itesp, r_unsec, tenants, ticks)),
            Some((a, b, t, d)) => {
                let same = fingerprint(a) == fingerprint(&r_itesp)
                    && fingerprint(b) == fingerprint(&r_unsec)
                    && *t == tenants
                    && *d == ticks;
                out.check(same, || {
                    format!("round {round} simulated statistics differ from round 0")
                });
            }
        }
        workloads = Some((churn, cluster));
        round += 1;
    }
    let (Some((r_itesp, r_unsec, tenants, ticks)), Some((churn, cluster))) = (first, workloads)
    else {
        return out;
    };
    out.setup_s = fastest(&setup_s);
    out.layers.trace_gen_s = fastest(&gen_s);
    out.layers.trace_records = churn.total_ops() as u64;
    let instr = instructions(
        churn
            .slots
            .iter()
            .flatten()
            .flat_map(|s| s.records.iter().map(|r| r.gap)),
    );

    // Check: migration left no trace in per-tenant results.
    let single = cluster_config(seed, 1, cluster.tenant_count());
    let mut reference = Cluster::new(single, cluster);
    match reference.run_to_completion() {
        Ok(()) => out.check(reference.tenants_json() == tenants, || {
            "2-node cluster tenants_json differs from the 1-node reference".to_owned()
        }),
        Err(e) => out.check(false, || format!("1-node reference cluster: {e}")),
    }
    out.check(!ticks.is_empty(), || "no migration completed".to_owned());

    out.sim_minstr_per_s = 2.0 * instr as f64 / fastest_total(&sim_s) / 1e6;
    out.itesp_norm_time = r_itesp.cycles as f64 / r_unsec.cycles as f64;
    out.named.push(metric("recover_s", median(&recover_s), "s"));
    let ticks_f: Vec<f64> = ticks.iter().map(|&t| t as f64).collect();
    if !ticks.is_empty() {
        out.named.push(metric(
            "migration_downtime_ticks",
            median(&ticks_f),
            "ticks",
        ));
        out.named.push(metric(
            "migration_downtime_ms",
            median(&mig.downtime_ms),
            "ms",
        ));
        out.named
            .push(metric("migrations", mig.downtime_ms.len() as f64, "count"));
    }
    out.named.push(metric("rounds", round as f64, "count"));

    let l = &mut out.layers;
    l.add_itesp_results(&[&r_itesp]);
    l.sim_run_s = median(&run_s);
    l.sim_cycles = r_itesp.cycles + r_unsec.cycles;
    l.enclave_lifecycle_reqs = r_itesp.churn.lifecycle_accesses();
    l.enclave_leaves_recycled = r_itesp.churn.leaves_recycled;
    l.reliability_detections = r_itesp.ras.detections;
    l.reliability_corrections = r_itesp.ras.corrections;
    l.reliability_recovery_reqs =
        r_itesp.ras.parity_reads + r_itesp.ras.companion_reads + r_itesp.ras.scrub_writebacks;
    l.snap_bytes = snap_bytes;
    l.snap_snapshots = snapshots;
    l.migrate_blob_bytes = mig.blob_bytes;
    l.migrate_frames = mig.frames;
    let d = &mut out.layer_detail;
    d.push(metric("snap.encode_ms", median(&encode_ms), "ms"));
    d.push(metric("snap.decode_ms", median(&decode_ms), "ms"));
    d.push(metric("snap.commit_ms", median(&commit_ms), "ms"));
    if !mig.start_us.is_empty() {
        d.push(metric("migrate.start_us", median(&mig.start_us), "us"));
    }
    if !mig.step_us_inflight.is_empty() {
        // Median over rounds of each round's median step.
        d.push(metric(
            "migrate.step_us_inflight",
            median(&mig.step_us_inflight),
            "us",
        ));
    }

    // Isolated engine and DRAM replays of the churn accesses, one core
    // per slot with its sessions back to back.
    let traces: Vec<Vec<itesp_trace::PhysRecord>> = churn
        .slots
        .iter()
        .enumerate()
        .map(|(slot, sessions)| {
            sessions
                .iter()
                .flat_map(|s| &s.records)
                .map(|r| itesp_trace::PhysRecord {
                    gap: r.gap,
                    op: r.op,
                    // Slot-private physical windows of 256 MB.
                    paddr: ((slot as u64) << 28) | (r.vaddr & ((1 << 28) - 1)),
                })
                .collect()
        })
        .collect();
    let reqs = replay::accesses(&traces);
    let cfg = crate::static_sim::config(Scheme::Itesp);
    let core = replay::core(cfg.engine, &reqs, tr, seed);
    out.layers.core_replay_ns_per_access = core.seconds * 1e9 / reqs.len() as f64;
    match replay::dram(cfg.dram, &core.stream, tr, seed) {
        Ok(d) => {
            out.op(true);
            out.layers.dram_replay_ns_per_req = d.seconds * 1e9 / core.stream.len() as f64;
        }
        Err(e) => out.check(false, || e),
    }

    let l = &out.layers;
    out.exact = format!(
        "{}\n{}\n{tenants}\ndowntime_ticks {ticks:?}\nsnap {} B, {} snapshots\nmigrate {} B, {} frames\n",
        fingerprint(&r_itesp),
        fingerprint(&r_unsec),
        l.snap_bytes,
        l.snap_snapshots,
        l.migrate_blob_bytes,
        l.migrate_frames
    );
    out
}
