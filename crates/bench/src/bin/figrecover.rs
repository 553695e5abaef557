//! Crash-recovery drill: SIGKILL a live churn+RAS run, recover it,
//! prove the result.
//!
//! The headline robustness claim is that the durable security state —
//! snapshot files plus write-ahead log (see `itesp-sim::recovery`) —
//! loses nothing a crash can take: because the simulator is
//! deterministic, "load the newest good snapshot, replay the suffix"
//! reproduces the uninterrupted run **byte for byte**. This drill
//! proves it the hard way, in three stages:
//!
//! 1. **Reference** — run the churn+RAS schedule uninterrupted,
//!    in-process, and keep its final `RunResult`.
//! 2. **Kill** — spawn this same binary as a child with snapshots
//!    enabled (`ITESP_SNAPSHOT_DIR`/`ITESP_SNAPSHOT_EVERY`), wait for
//!    a seed-chosen number of checkpoints to commit, and SIGKILL it
//!    mid-flight. Rebuild the system, `recover_system`, run to
//!    completion, and require the recovered result identical to the
//!    reference (engine, DRAM, churn, and RAS statistics all compared).
//! 3. **Rollback oracle** — re-run with snapshots to completion, then
//!    attempt to restore every *stale* snapshot as-if-latest: each must
//!    be rejected with `RollbackDetected` (the WAL is the freshness
//!    witness). Deleting the newest snapshot — an attacker serving an
//!    old-but-intact file — must likewise be detected by the strict
//!    path while the replay path still recovers and matches.
//!
//! Run: `cargo run --release -p itesp-bench --bin figrecover [ops]`
//! With `--recover` (or `ITESP_RECOVER=1`) and `ITESP_SNAPSHOT_DIR`
//! set, skips the drill and resumes the schedule from the snapshots on
//! disk — the operator-facing recovery path.
//! Failures print an `ITESP_TEST_SEED` replay line.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use itesp_bench::{print_table, save_json, seed_or, setting, snapshot_settings, trace_ops};
use itesp_core::Scheme;
use itesp_orchestrate::knobs;
use itesp_sim::{
    build_churn_ras_system, recover_system, recover_system_strict, ExperimentParams, RasConfig,
    RecoverError, RunResult, SnapshotSink, System,
};
use itesp_snap::{SnapshotStore, StoreError};
use itesp_trace::{benchmark, ChurnConfig, ChurnWorkload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SLOTS: usize = 4;
const SESSIONS_PER_SLOT: usize = 3;

/// Default CPU cycles between the drill's snapshots — small enough
/// that even a quick run commits several checkpoints to kill between.
const DRILL_EVERY: u64 = 50_000;

fn replay(seed: u64) -> String {
    format!("replay: ITESP_TEST_SEED={seed} cargo run --release -p itesp-bench --bin figrecover")
}

/// The drill's churn+RAS schedule: one `System`, a pure function of
/// `(seed, ops)` so parent, child, and the recovery path all rebuild
/// the identical run.
fn build_system(seed: u64, ops: usize) -> System {
    let w = ChurnWorkload::generate(
        benchmark("mcf").expect("table IV has mcf"),
        &ChurnConfig {
            slots: SLOTS,
            sessions_per_slot: SESSIONS_PER_SLOT,
            ops_per_session: (ops / (SLOTS * SESSIONS_PER_SLOT)).max(200),
            mean_arrival_gap: 5_000.0,
            footprint_pages: 16,
            free_fraction: 0.3,
            seed,
        },
    );
    let p = ExperimentParams {
        seed,
        ..ExperimentParams::paper_4core(Scheme::Itesp, ops)
    };
    build_churn_ras_system(&w, p, RasConfig::new(seed ^ 0xFA17).with_fault_rate(20.0))
}

/// Byte-exact fingerprint of a finished run: the full serialized
/// `RunResult` (engine, DRAM, churn, and RAS statistics).
fn fingerprint(r: &RunResult) -> String {
    serde_json::to_string_pretty(r).expect("RunResult serializes")
}

fn scratch(tag: &str, seed: u64) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "itesp-figrecover-{tag}-{}-{seed}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Child mode: run the schedule with snapshots attached and leave the
/// final fingerprint next to them. The parent kills us somewhere in
/// the middle — if we survive to the end, the drill still verifies
/// recovery from the snapshots we wrote.
fn child_main(seed: u64, ops: usize) -> ! {
    let (dir, every) = snapshot_settings().expect("child needs ITESP_SNAPSHOT_DIR");
    let mut sys = build_system(seed, ops);
    sys.attach_snapshots(SnapshotSink::new(&dir, every).expect("child snapshot dir must open"));
    let r = sys.try_run().expect("drill RAS config never halts");
    fs::write(dir.join("final.json"), fingerprint(&r)).expect("write child fingerprint");
    std::process::exit(0);
}

/// Operator mode (`--recover`): resume the schedule from the snapshots
/// in `ITESP_SNAPSHOT_DIR` and run it to completion.
fn recover_main(seed: u64, ops: usize) -> ! {
    let (dir, _) = snapshot_settings().unwrap_or_else(|| {
        eprintln!("error: --recover requires ITESP_SNAPSHOT_DIR");
        std::process::exit(2);
    });
    let mut sys = build_system(seed, ops);
    let meta = match recover_system(&mut sys, &dir) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: could not recover from {}: {e}", dir.display());
            std::process::exit(1);
        }
    };
    println!(
        "[recovered snapshot seq {} at cycle {}; replaying suffix]",
        meta.seq, meta.cycle
    );
    let r = sys.try_run().expect("drill RAS config never halts");
    println!("{}", fingerprint(&r));
    std::process::exit(0);
}

/// Stage 2: spawn the child, SIGKILL it after `kill_after` committed
/// checkpoints, recover, and return (snapshots seen, whether the kill
/// landed, the recovered seq, the recovered fingerprint).
fn kill_and_recover(
    seed: u64,
    ops: usize,
    kill_after: usize,
    dir: &Path,
) -> (usize, bool, u64, String) {
    let exe = std::env::current_exe().expect("own path");
    let mut child = Command::new(exe)
        .env(knobs::DRILL_CHILD.env, "1")
        .env(knobs::TEST_SEED.env, seed.to_string())
        .env(knobs::OPS.env, ops.to_string())
        .env(knobs::SNAPSHOT_DIR.env, dir)
        .env(knobs::SNAPSHOT_EVERY.env, DRILL_EVERY.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn drill child");

    let store = SnapshotStore::open(dir).expect("open drill store");
    let deadline = Instant::now() + Duration::from_secs(600);
    let mut killed = false;
    loop {
        if child.try_wait().expect("poll child").is_some() {
            break; // finished before the kill landed — still verifiable
        }
        // The head seq counts every commit ever acknowledged; the
        // record *count* no longer does, since pruning compacts the WAL.
        let committed = store
            .wal_head()
            .ok()
            .flatten()
            .map_or(0, |r| r.seq as usize);
        if committed >= kill_after {
            child.kill().expect("SIGKILL child");
            child.wait().expect("reap child");
            killed = true;
            break;
        }
        assert!(
            Instant::now() < deadline,
            "drill child hung before committing {kill_after} snapshots ({})",
            replay(seed)
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    let records = store.wal_records().expect("read drill WAL");
    assert!(
        !records.is_empty(),
        "child died before its first checkpoint — raise ops or lower \
         ITESP_SNAPSHOT_EVERY ({})",
        replay(seed)
    );
    let mut sys = build_system(seed, ops);
    let meta = recover_system(&mut sys, dir)
        .unwrap_or_else(|e| panic!("recovery after SIGKILL failed: {e} ({})", replay(seed)));
    let fp = fingerprint(&sys.try_run().expect("drill RAS config never halts"));
    (records.len(), killed, meta.seq, fp)
}

/// Stage 3: every stale snapshot must be rejected as-if-latest, and an
/// intact-but-old snapshot served in place of the head must trip the
/// strict path while suffix replay still recovers. Returns (snapshots
/// committed, stale restores rejected).
fn rollback_oracle(seed: u64, ops: usize, reference: &str, dir: &Path) -> (usize, usize) {
    let mut sys = build_system(seed, ops);
    sys.attach_snapshots(
        itesp_sim::SnapshotSink::new(dir, DRILL_EVERY).expect("open oracle store"),
    );
    sys.try_run().expect("drill RAS config never halts");

    let store = SnapshotStore::open(dir).expect("reopen oracle store");
    let records = store.wal_records().expect("read oracle WAL");
    assert!(
        records.len() >= 2,
        "oracle needs at least two checkpoints, got {} ({})",
        records.len(),
        replay(seed)
    );
    let head = records.last().expect("non-empty").seq;
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

    // The attacker's move: serve an old-but-intact snapshot by deleting
    // the newest file. Strict restore detects it; replay recovery
    // shrugs and reproduces the run from the older state.
    fs::remove_file(dir.join(format!("snap-{head:016}.bin"))).expect("drop head snapshot");
    let mut sys = build_system(seed, ops);
    match recover_system_strict(&mut sys, dir) {
        Err(RecoverError::Store(StoreError::RollbackDetected { wal_seq, .. })) => {
            assert_eq!(wal_seq, head, "the WAL names the withheld head");
        }
        other => panic!(
            "strict restore of a withheld head must be detected, got {other:?} ({})",
            replay(seed)
        ),
    }
    let mut sys = build_system(seed, ops);
    recover_system(&mut sys, dir)
        .unwrap_or_else(|e| panic!("replay recovery failed: {e} ({})", replay(seed)));
    let fp = fingerprint(&sys.try_run().expect("drill RAS config never halts"));
    assert_eq!(
        fp,
        reference,
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
    if setting::<bool>(&knobs::RECOVER) {
        recover_main(seed, ops);
    }

    eprintln!("[figrecover: reference run, {ops} ops, seed {seed}]");
    let reference = fingerprint(&build_system(seed, ops).try_run().expect("reference run"));

    let kill_after = StdRng::seed_from_u64(seed ^ 0x5163_4411).gen_range(1..=3);
    eprintln!("[figrecover: SIGKILL drill after {kill_after} checkpoint(s)]");
    let drill_dir = scratch("drill", seed);
    let (snapshots, killed, recovered_seq, recovered) =
        kill_and_recover(seed, ops, kill_after, &drill_dir);
    assert_eq!(
        recovered,
        reference,
        "recovered run diverged from the uninterrupted run ({})",
        replay(seed)
    );
    let _ = fs::remove_dir_all(&drill_dir);

    eprintln!("[figrecover: anti-rollback oracle]");
    let oracle_dir = scratch("oracle", seed);
    let (committed, rejected) = rollback_oracle(seed, ops, &reference, &oracle_dir);
    let _ = fs::remove_dir_all(&oracle_dir);

    #[derive(serde::Serialize)]
    struct Row {
        seed: u64,
        ops: usize,
        snapshot_every: u64,
        kill_after: usize,
        child_killed: bool,
        snapshots_at_kill: usize,
        recovered_seq: u64,
        recovered_identical: bool,
        oracle_snapshots: usize,
        stale_restores_rejected: usize,
    }
    let rows = vec![Row {
        seed,
        ops,
        snapshot_every: DRILL_EVERY,
        kill_after,
        child_killed: killed,
        snapshots_at_kill: snapshots,
        recovered_seq,
        recovered_identical: true,
        oracle_snapshots: committed,
        stale_restores_rejected: rejected,
    }];
    print_table(
        &[
            "kill after",
            "killed",
            "snapshots",
            "recovered seq",
            "identical",
            "stale rejected",
        ],
        &[vec![
            kill_after.to_string(),
            killed.to_string(),
            snapshots.to_string(),
            recovered_seq.to_string(),
            "yes".to_owned(),
            format!("{rejected}/{rejected}"),
        ]],
    );
    save_json("figrecover", &rows);
    println!(
        "figrecover: recovered run byte-identical to uninterrupted run; \
         {rejected} stale restore(s) rejected."
    );
}
