//! Live-migration drill: scripted migrations, a node drain, and the
//! rebalancer over a churn+RAS workload — with a SIGKILL mid-transfer
//! and a cluster anti-rollback oracle.
//!
//! The headline claims under test (see `itesp-migrate`):
//!
//! * **Placement independence** — per-tenant final stats are
//!   byte-identical between a single-node reference run and a 4-node
//!   cluster run with three scripted migrations, a drain, and the
//!   load rebalancer all active.
//! * **Cross-node anti-rollback** — a migration blob captured on the
//!   wire and replayed after its commit is rejected (`EpochStale`) on
//!   *every* node, with no state change: the per-enclave migration
//!   epoch makes stale blobs permanently dead cluster-wide.
//! * **Crash safety** — SIGKILL the cluster while a transfer is in
//!   flight; recovery lands in a mid-migration snapshot (the freeze
//!   forces one), the enclave is live on exactly one node, and the
//!   completed run is byte-identical to the reference.
//! * **Durable-state freshness** — every stale snapshot restored
//!   as-if-latest is rejected (`RollbackDetected`); withholding the
//!   newest snapshot file is detected while replay recovery from the
//!   older state still reproduces the run.
//!
//! Run: `cargo run --release -p itesp-bench --bin figmigrate [ops]`
//! Failures print an `ITESP_TEST_SEED` replay line.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use itesp_bench::{print_table, save_json, seed_or, setting, snapshot_settings, trace_ops};
use itesp_core::Scheme;
use itesp_migrate::{
    peek_header, Cluster, ClusterConfig, ClusterStats, ClusterWorkload, MigrateError,
};
use itesp_orchestrate::knobs;
use itesp_snap::{SnapshotStore, StoreError};
use itesp_trace::{benchmark, ChurnConfig, ChurnWorkload};

const NODES: usize = 4;
const SLOTS_PER_NODE: usize = 3;
/// Churn slots × sessions per slot.
const TENANTS: usize = 12;
/// Ticks between crash snapshots in the drill stages.
const DRILL_EVERY: u64 = 24;

/// File the child drops once a transfer is in flight and it is
/// standing still, waiting for the parent's SIGKILL.
const MARKER: &str = "freeze.marker";

fn replay(seed: u64) -> String {
    format!("replay: ITESP_TEST_SEED={seed} cargo run --release -p itesp-bench --bin figmigrate")
}

/// The drill workload: a pure function of `(seed, ops)` so the
/// reference, the cluster, the killed child, and every recovery all
/// rebuild the identical tenant scripts.
fn workload(seed: u64, ops: usize) -> ClusterWorkload {
    let w = ChurnWorkload::generate(
        benchmark("mcf").expect("table IV has mcf"),
        &ChurnConfig {
            slots: 4,
            sessions_per_slot: 3,
            ops_per_session: (ops / TENANTS).max(200),
            mean_arrival_gap: 20_000.0,
            footprint_pages: 24,
            free_fraction: 0.3,
            seed,
        },
    );
    ClusterWorkload::from_churn(&w, 6)
}

/// The 4-node cluster under test: rebalancer on, faults on.
fn cluster_cfg(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::small(NODES, SLOTS_PER_NODE, Scheme::Itesp);
    cfg.master = seed ^ 0x9e37_79b9_7f4a_7c15;
    cfg.seed = seed.rotate_left(17) ^ 0x17e5;
    cfg.rebalance_every = 96;
    cfg.rebalance_threshold = 16;
    cfg
}

/// The single-node reference: same tenants, keys, and fault streams —
/// nothing ever moves.
fn reference_cfg(seed: u64, tenants: usize) -> ClusterConfig {
    let mut cfg = cluster_cfg(seed);
    cfg.nodes = 1;
    cfg.slots_per_node = tenants;
    cfg.rebalance_every = 0;
    cfg.rebalance_threshold = 0;
    cfg
}

/// The scripted schedule, anchored to workload arrivals (absolute
/// ticks would race the admission queue): two tenants hop across
/// nodes, tenant 0 twice, then node 0 drains and retires.
struct Schedule {
    migrations: [(u64, u64, usize); 3],
    drain: (u64, usize),
}

fn schedule(wl: &ClusterWorkload) -> Schedule {
    let a0 = wl.tenants[0].arrival;
    let a1 = wl.tenants[1].arrival;
    let m0 = a0 + 60;
    let m1 = a1.max(m0) + 50;
    let m2 = m1 + 60;
    Schedule {
        migrations: [(m0, 0, 2), (m1, 1, 3), (m2, 0, 1)],
        drain: (m2 + 80, 0),
    }
}

/// Schedules are inputs, not state: every cluster instance (including
/// recovered ones) gets the same calls.
fn register(cluster: &mut Cluster, s: &Schedule) {
    for &(tick, tenant, to) in &s.migrations {
        cluster.schedule_migration(tick, tenant, to);
    }
    cluster.schedule_drain(s.drain.0, s.drain.1);
}

fn wedge_limit(wl: &ClusterWorkload) -> u64 {
    wl.max_arrival() + 4 * wl.total_ops() as u64 + 100_000
}

fn scratch(tag: &str, seed: u64) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "itesp-figmigrate-{tag}-{}-{seed}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Child mode: run the scheduled cluster with snapshots attached. The
/// moment the first migration freezes (which forces a snapshot), drop
/// the marker file and stand still so the parent's SIGKILL lands while
/// the transfer is in flight. If the kill never comes, finish anyway.
fn child_main(seed: u64, ops: usize) -> ! {
    let (dir, _) = snapshot_settings().expect("child needs ITESP_SNAPSHOT_DIR");
    let wl = workload(seed, ops);
    let s = schedule(&wl);
    let limit = wedge_limit(&wl);
    let mut cluster = Cluster::new(cluster_cfg(seed), wl);
    cluster
        .attach_snapshots(&dir, DRILL_EVERY)
        .expect("child snapshot dir must open");
    register(&mut cluster, &s);
    let mut paused = false;
    while !cluster.done() {
        cluster.step().expect("child cluster step");
        assert!(cluster.tick() < limit, "child cluster wedged");
        if !paused && cluster.stats().migrations_started > 0 {
            paused = true;
            fs::write(dir.join(MARKER), b"frozen").expect("write freeze marker");
            std::thread::sleep(Duration::from_secs(60));
        }
    }
    fs::write(dir.join("final.json"), cluster.tenants_json()).expect("write child artifact");
    std::process::exit(0);
}

/// Stage 2: the 4-node run. Captures the first transfer's wire blob,
/// finishes the schedule, proves byte-identity with the reference, and
/// replays the stale blob at every surviving node.
fn live_cluster_drill(seed: u64, ops: usize, expect: &str) -> (ClusterStats, u64, usize) {
    let wl = workload(seed, ops);
    let s = schedule(&wl);
    let limit = wedge_limit(&wl);
    let mut cluster = Cluster::new(cluster_cfg(seed), wl);
    register(&mut cluster, &s);

    while cluster.inflight().is_empty() {
        cluster.step().expect("cluster step");
        assert!(
            cluster.tick() < limit,
            "no migration ever started ({})",
            replay(seed)
        );
    }
    let frozen = cluster.inflight()[0].tenant;
    let stale = cluster.inflight_blob(frozen).expect("transfer in flight");
    let stale_epoch = peek_header(&stale).expect("blob header decodes").epoch;

    cluster
        .run_to_completion()
        .unwrap_or_else(|e| panic!("cluster run failed: {e} ({})", replay(seed)));
    assert_eq!(
        cluster.tenants_json(),
        expect,
        "placement leaked into per-tenant stats ({})",
        replay(seed)
    );
    assert!(
        cluster.nodes()[0].retired(),
        "drained node 0 never retired ({})",
        replay(seed)
    );
    assert!(cluster.stats().migrations_committed >= 2);

    // The captured blob is permanently stale on every surviving node.
    let mut rejected = 0;
    for node in 0..NODES {
        if cluster.nodes()[node].retired() {
            continue;
        }
        let before = cluster.node_live_pages();
        match cluster.deliver_blob(node, &stale) {
            Err(MigrateError::EpochStale {
                tenant,
                blob_epoch,
                current_epoch,
            }) => {
                assert_eq!((tenant, blob_epoch), (frozen, stale_epoch));
                assert!(current_epoch > blob_epoch);
                rejected += 1;
            }
            other => panic!(
                "node {node}: stale blob replay must be EpochStale, got {other:?} ({})",
                replay(seed)
            ),
        }
        assert_eq!(
            cluster.node_live_pages(),
            before,
            "rejection mutated node state ({})",
            replay(seed)
        );
    }
    cluster
        .check_exactly_one_home()
        .unwrap_or_else(|e| panic!("residency invariant broken: {e} ({})", replay(seed)));
    (cluster.stats(), stale_epoch, rejected)
}

/// Stage 3: spawn the child, SIGKILL it mid-transfer (the marker file
/// says when), recover from the snapshots, and finish the run.
/// Returns (kill landed, recovered snapshot seq, WAL head at kill).
fn kill_and_recover(seed: u64, ops: usize, expect: &str, dir: &Path) -> (bool, u64, u64) {
    let exe = std::env::current_exe().expect("own path");
    let mut child = Command::new(exe)
        .env(knobs::DRILL_CHILD.env, "1")
        .env(knobs::TEST_SEED.env, seed.to_string())
        .env(knobs::OPS.env, ops.to_string())
        .env(knobs::SNAPSHOT_DIR.env, dir)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn drill child");

    let deadline = Instant::now() + Duration::from_secs(600);
    let killed = loop {
        if dir.join(MARKER).exists() {
            child.kill().expect("SIGKILL child");
            child.wait().expect("reap child");
            break true;
        }
        assert!(
            child.try_wait().expect("poll child").is_none(),
            "drill child exited before freezing a transfer ({})",
            replay(seed)
        );
        assert!(
            Instant::now() < deadline,
            "drill child hung before its first migration ({})",
            replay(seed)
        );
        std::thread::sleep(Duration::from_millis(2));
    };

    let store = SnapshotStore::open(dir).expect("open drill store");
    let head = store
        .latest_seq()
        .expect("read drill WAL")
        .expect("child committed at least the freeze snapshot");

    let wl = workload(seed, ops);
    let s = schedule(&wl);
    let (mut recovered, meta) = Cluster::recover(cluster_cfg(seed), wl, dir, DRILL_EVERY)
        .unwrap_or_else(|e| panic!("recovery after SIGKILL failed: {e} ({})", replay(seed)));
    assert!(
        !recovered.inflight().is_empty(),
        "latest snapshot should hold the frozen transfer ({})",
        replay(seed)
    );
    recovered
        .check_exactly_one_home()
        .unwrap_or_else(|e| panic!("post-crash residency broken: {e} ({})", replay(seed)));
    register(&mut recovered, &s);
    recovered
        .run_to_completion()
        .unwrap_or_else(|e| panic!("recovered run failed: {e} ({})", replay(seed)));
    assert_eq!(
        recovered.tenants_json(),
        expect,
        "recovered run diverged from the reference ({})",
        replay(seed)
    );
    (killed, meta.seq, head)
}

/// Stage 4: the cluster anti-rollback oracle. Every stale snapshot
/// restored as-if-latest must be rejected; withholding the head file
/// must be detected while replay recovery still reproduces the run.
/// Returns (snapshots committed, stale restores rejected).
fn rollback_oracle(seed: u64, ops: usize, expect: &str, dir: &Path) -> (usize, usize) {
    let wl = workload(seed, ops);
    let s = schedule(&wl);
    let mut cluster = Cluster::new(cluster_cfg(seed), wl.clone());
    cluster
        .attach_snapshots(dir, DRILL_EVERY)
        .expect("open oracle store");
    register(&mut cluster, &s);
    cluster
        .run_to_completion()
        .unwrap_or_else(|e| panic!("oracle run failed: {e} ({})", replay(seed)));
    assert_eq!(cluster.tenants_json(), expect, "{}", replay(seed));
    drop(cluster);

    let store = SnapshotStore::open(dir).expect("reopen oracle store");
    let records = store.wal_records().expect("read oracle WAL");
    assert!(
        records.len() >= 2,
        "oracle needs at least two checkpoints, got {} ({})",
        records.len(),
        replay(seed)
    );
    let head = records.last().expect("non-empty").seq;
    assert_eq!(store.latest_seq().expect("head seq"), Some(head));
    let mut rejected = 0;
    for rec in &records[..records.len() - 1] {
        match store.verify_fresh(rec.seq) {
            Err(StoreError::RollbackDetected { .. }) => rejected += 1,
            other => panic!(
                "stale snapshot {} restored as-if-latest must be detected, got {other:?} ({})",
                rec.seq,
                replay(seed)
            ),
        }
    }
    store.verify_fresh(head).expect("the head is fresh");

    // The attacker's move: withhold the newest snapshot file. Strict
    // freshness names the missing head; replay recovery falls back to
    // the older state and still reproduces the run byte-for-byte.
    fs::remove_file(dir.join(format!("snap-{head:016}.bin"))).expect("drop head snapshot");
    let (mut recovered, meta) = Cluster::recover(cluster_cfg(seed), wl, dir, DRILL_EVERY)
        .unwrap_or_else(|e| panic!("fallback recovery failed: {e} ({})", replay(seed)));
    assert!(meta.seq < head, "recovery must fall back past the head");
    match store.verify_fresh(meta.seq) {
        Err(StoreError::RollbackDetected { wal_seq, .. }) => {
            assert_eq!(wal_seq, head, "the WAL names the withheld head");
        }
        other => panic!(
            "strict restore of a withheld head must be detected, got {other:?} ({})",
            replay(seed)
        ),
    }
    register(&mut recovered, &s);
    recovered
        .run_to_completion()
        .unwrap_or_else(|e| panic!("fallback replay failed: {e} ({})", replay(seed)));
    assert_eq!(
        recovered.tenants_json(),
        expect,
        "replay from the stale snapshot diverged ({})",
        replay(seed)
    );
    (records.len(), rejected + 1)
}

fn main() {
    let seed = seed_or(0xC0FFEE);
    let ops = trace_ops();
    if setting::<bool>(&knobs::DRILL_CHILD) {
        child_main(seed, ops);
    }

    eprintln!("[figmigrate: single-node reference, {ops} ops, seed {seed}]");
    let wl = workload(seed, ops);
    let tenants = wl.tenant_count();
    let mut reference = Cluster::new(reference_cfg(seed, tenants), wl);
    reference
        .run_to_completion()
        .unwrap_or_else(|e| panic!("reference run failed: {e} ({})", replay(seed)));
    let expect = reference.tenants_json();

    eprintln!("[figmigrate: 4-node cluster, scripted hops + drain + rebalancer]");
    let (stats, stale_epoch, stale_rejected) = live_cluster_drill(seed, ops, &expect);

    eprintln!("[figmigrate: SIGKILL mid-transfer drill]");
    let drill_dir = scratch("drill", seed);
    let (killed, recovered_seq, snapshots_at_kill) =
        kill_and_recover(seed, ops, &expect, &drill_dir);
    let _ = fs::remove_dir_all(&drill_dir);

    eprintln!("[figmigrate: cluster anti-rollback oracle]");
    let oracle_dir = scratch("oracle", seed);
    let (oracle_snapshots, stale_restores) = rollback_oracle(seed, ops, &expect, &oracle_dir);
    let _ = fs::remove_dir_all(&oracle_dir);

    #[derive(serde::Serialize)]
    struct Row {
        seed: u64,
        ops: usize,
        tenants: usize,
        nodes: usize,
        migrations_started: u64,
        migrations_committed: u64,
        migrations_skipped: u64,
        drains_completed: u64,
        stale_blob_epoch: u64,
        stale_replays_rejected: usize,
        child_killed: bool,
        snapshots_at_kill: u64,
        recovered_seq: u64,
        recovered_identical: bool,
        oracle_snapshots: usize,
        stale_restores_rejected: usize,
    }
    let rows = vec![Row {
        seed,
        ops,
        tenants,
        nodes: NODES,
        migrations_started: stats.migrations_started,
        migrations_committed: stats.migrations_committed,
        migrations_skipped: stats.migrations_skipped,
        drains_completed: stats.drains_completed,
        stale_blob_epoch: stale_epoch,
        stale_replays_rejected: stale_rejected,
        child_killed: killed,
        snapshots_at_kill,
        recovered_seq,
        recovered_identical: true,
        oracle_snapshots,
        stale_restores_rejected: stale_restores,
    }];
    print_table(
        &[
            "migrations",
            "committed",
            "drains",
            "stale replays",
            "killed",
            "recovered seq",
            "identical",
            "stale restores",
        ],
        &[vec![
            stats.migrations_started.to_string(),
            stats.migrations_committed.to_string(),
            stats.drains_completed.to_string(),
            format!("{stale_rejected}/{stale_rejected}"),
            killed.to_string(),
            recovered_seq.to_string(),
            "yes".to_owned(),
            format!("{stale_restores}/{stale_restores}"),
        ]],
    );
    save_json("figmigrate", &rows);
    println!(
        "figmigrate: migrated-cluster run byte-identical to single-node reference; \
         {stale_rejected} stale blob replay(s) and {stale_restores} stale restore(s) rejected."
    );
}
