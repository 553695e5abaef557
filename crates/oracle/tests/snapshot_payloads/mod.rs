//! Seeded snapshot payloads shared by the golden-bytes and decoder
//! mutation tests: one builder per snapshot-producing layer, plus the
//! decoder that restores each payload into a freshly built target.
//!
//! Every payload is a pure function of its fixed seed, so its bytes
//! are a stable fingerprint of the snapshot wire format.

#![allow(dead_code)]

use std::path::PathBuf;

use itesp_core::{EngineConfig, Scheme, SecurityEngine};
use itesp_dram::DramConfig;
use itesp_migrate::{Cluster, ClusterConfig, ClusterWorkload, Node, Residence};
use itesp_serve::{Registry, TenantStats};
use itesp_sim::recovery::SnapshotSink;
use itesp_sim::{build_churn_ras_system, ExperimentParams, RasConfig, System, SystemConfig};
use itesp_snap::{SnapError, SnapReader, SnapWriter, SnapshotStore};
use itesp_trace::{benchmark, ChurnConfig, ChurnWorkload, MultiProgram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The seed every golden payload is generated from.
pub const SEED: u64 = 20_200_613;

const ENGINE_ACCESSES: usize = 1_000;
const CLUSTER_NODES: usize = 3;

/// Which decoder restores a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Engine(Scheme),
    StaticSystem,
    ChurnSystem,
    Cluster,
    MigrationBlob { dest: usize },
    Registry,
}

/// One named snapshot payload.
pub struct Payload {
    pub name: String,
    pub kind: Kind,
    pub bytes: Vec<u8>,
}

/// Every golden payload, in a fixed order.
pub fn all() -> Vec<Payload> {
    let mut out: Vec<Payload> = Scheme::ALL
        .iter()
        .map(|&s| Payload {
            name: format!("engine/{}", s.label()),
            kind: Kind::Engine(s),
            bytes: engine_payload(s),
        })
        .collect();
    out.push(Payload {
        name: "system/static_mcf_ras".into(),
        kind: Kind::StaticSystem,
        bytes: mid_run_snapshot("static", static_system(), 20_000),
    });
    out.push(Payload {
        name: "system/churn_ras".into(),
        kind: Kind::ChurnSystem,
        bytes: mid_run_snapshot("churn", churn_system(), 100_000),
    });
    let (cluster, blob, dest) = cluster_and_blob();
    out.push(Payload {
        name: "cluster".into(),
        kind: Kind::Cluster,
        bytes: cluster,
    });
    out.push(Payload {
        name: "migrate/blob".into(),
        kind: Kind::MigrationBlob { dest },
        bytes: blob,
    });
    out.push(Payload {
        name: "serve/registry".into(),
        kind: Kind::Registry,
        bytes: registry_payload(),
    });
    out
}

/// Restore `bytes` into a freshly built target of `kind`, requiring
/// the whole buffer to be consumed.
///
/// # Errors
/// The decoder's [`SnapError`].
pub fn decode(kind: Kind, bytes: &[u8]) -> Result<(), SnapError> {
    let mut r = SnapReader::new(bytes);
    match kind {
        Kind::Engine(s) => {
            SecurityEngine::new(EngineConfig::paper_default(s)).load_state(&mut r)?
        }
        Kind::StaticSystem => static_system().load_state(&mut r)?,
        Kind::ChurnSystem => churn_system().load_state(&mut r)?,
        Kind::Cluster => cluster().load_state(&mut r)?,
        Kind::MigrationBlob { dest } => {
            // The destination's decode path: header first, then the
            // enclave and ledger behind it.
            r.section("MIGB", 1)?;
            for what in ["blob tenant", "blob epoch", "blob fingerprint"] {
                r.u64(what)?;
            }
            let mut node = Node::new(dest, &cluster_config());
            node.import(0, &mut r)?;
        }
        Kind::Registry => return Registry::new().restore(bytes),
    }
    r.finish()
}

/// Locality-shaped seeded access stream (the snapshot round-trip
/// oracle's shape), so the engine's caches are warm when saved.
fn engine_payload(scheme: Scheme) -> Vec<u8> {
    let cfg = EngineConfig::paper_default(scheme);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut engine = SecurityEngine::new(cfg);
    let mut done = 0;
    while done < ENGINE_ACCESSES {
        let enclave = rng.gen_range(0..cfg.enclaves);
        let leaf = if rng.gen_bool(0.9) {
            rng.gen_range(0..48u64)
        } else {
            rng.gen_range(0..48 * 64u64)
        };
        for _ in 0..rng.gen_range(1..=6u32) {
            let block = leaf * 64 + rng.gen_range(0..64u64);
            engine.on_access(enclave, block * 64, block, rng.gen_bool(0.4));
            done += 1;
        }
    }
    let mut w = SnapWriter::new();
    engine.save_state(&mut w);
    w.into_bytes()
}

/// A 4-core mcf run with online RAS (Fig 8 config).
pub fn static_system() -> System {
    let mp = MultiProgram::homogeneous(benchmark("mcf").unwrap(), 4, 1500, SEED);
    let engine = EngineConfig {
        enclaves: 4,
        ..EngineConfig::paper_default(Scheme::Itesp)
    };
    let cfg = SystemConfig::table_iii(DramConfig::table_iii(), engine)
        .with_ras(RasConfig::new(SEED ^ 0xFA17).with_fault_rate(200.0));
    System::new(cfg, &mp)
}

/// An mcf enclave-churn run with online RAS.
pub fn churn_system() -> System {
    let w = ChurnWorkload::generate(
        benchmark("mcf").unwrap(),
        &ChurnConfig {
            slots: 4,
            sessions_per_slot: 3,
            ops_per_session: 400,
            mean_arrival_gap: 5_000.0,
            footprint_pages: 16,
            free_fraction: 0.3,
            seed: SEED,
        },
    );
    let params = ExperimentParams {
        seed: SEED,
        ..ExperimentParams::paper_4core(Scheme::Itesp, 400)
    };
    build_churn_ras_system(
        &w,
        params,
        RasConfig::new(SEED ^ 0xFA17).with_fault_rate(20.0),
    )
}

/// Run `sys` to completion checkpointing every `every` cycles and
/// return the newest retained (mid-run) snapshot payload.
fn mid_run_snapshot(tag: &str, mut sys: System, every: u64) -> Vec<u8> {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "itesp-snapshot-payload-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    sys.attach_snapshots(SnapshotSink::new(&dir, every).unwrap());
    sys.try_run().unwrap();
    let (_, payload, _) = SnapshotStore::open(&dir)
        .unwrap()
        .load_latest_good()
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    payload
}

fn cluster_config() -> ClusterConfig {
    let mut cfg = ClusterConfig::small(CLUSTER_NODES, 2, Scheme::Itesp);
    cfg.master = SEED ^ 0x6d16_9a7e_0000_0001;
    cfg.seed = SEED.rotate_left(11) ^ 0x6d16;
    cfg
}

fn cluster() -> Cluster {
    let w = ChurnWorkload::generate(
        benchmark("mcf").unwrap(),
        &ChurnConfig {
            slots: 2,
            sessions_per_slot: 2,
            ops_per_session: 250,
            mean_arrival_gap: 10_000.0,
            footprint_pages: 16,
            free_fraction: 0.3,
            seed: SEED,
        },
    );
    Cluster::new(cluster_config(), ClusterWorkload::from_churn(&w, 6))
}

/// A cluster snapshot taken with tenant 0's migration in flight, and
/// that migration's blob (plus its destination node).
fn cluster_and_blob() -> (Vec<u8>, Vec<u8>, usize) {
    let mut c = cluster();
    while c.directory().entry(0).is_none() {
        c.step().unwrap();
    }
    let Residence::Live { node: home } = c.directory().entry(0).unwrap().residence else {
        panic!("tenant 0 not live after admission");
    };
    let dest = (home + 1) % CLUSTER_NODES;
    c.start_migration(0, dest).unwrap();
    c.step().unwrap();
    let blob = c.inflight_blob(0).expect("transfer in flight");
    let mut w = SnapWriter::new();
    c.save_state(&mut w);
    (w.into_bytes(), blob, dest)
}

/// A serve registry holding three completed tenants.
fn registry_payload() -> Vec<u8> {
    let reg = Registry::new();
    for tenant in [7u64, 2, 11] {
        reg.complete(TenantStats {
            tenant,
            request_seq: tenant * 3,
            scheme: "ITESP".into(),
            benchmark: ["mcf", "bfs", "ep"][tenant as usize % 3].into(),
            records: 1_000 + tenant,
            cycles: 50_000 * tenant,
            baseline_cycles: 40_000 * tenant,
            slowdown: 1.25,
            meta_per_access: 0.375 + tenant as f64,
            metadata_cache_accesses: 900,
            metadata_cache_hits: 850 - tenant,
            parity_cache_accesses: 300,
            parity_cache_hits: 290,
            ras_faults_injected: tenant % 2,
            ras_detections: tenant % 3,
            ras_corrections: 1,
            ras_sdc_events: 0,
            ras_due_events: 0,
        });
    }
    reg.encode()
}
