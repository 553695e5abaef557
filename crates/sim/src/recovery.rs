//! Crash recovery glue: durable checkpointing for a live [`System`]
//! and the restore path that resumes a killed run.
//!
//! The mechanism is the classic snapshot + write-ahead log pair from
//! [`itesp_snap`]: on its cadence the run loop serializes the *entire*
//! simulation state (clock, DRAM timing, engine, caches, cores, RAS
//! fault process, churn driver) into an atomically-committed snapshot
//! file, and the WAL records the acknowledged `(seq, cycle)` head.
//! Because the simulator is deterministic, recovery is "load the
//! newest good snapshot, replay the suffix": rebuild the system from
//! the same configuration and workload, restore the snapshot, and run
//! to completion — the final [`RunResult`](crate::RunResult) is
//! byte-identical to the uninterrupted run's.
//!
//! Anti-rollback: [`recover_system`] checks the restored snapshot
//! against the WAL head. Restoring any *stale* snapshot as if it were
//! the latest state is a [`StoreError::RollbackDetected`] — no engine
//! counter ever rewinds and no freed leaf-id comes back live, because
//! the state that freed it is provably newer than the state being
//! restored. (Recovery *with* deterministic suffix replay from an old
//! snapshot is always legitimate; it reproduces the exact same run.)
//!
//! The bench binaries open a [`SnapshotSink`] from the settings table
//! (`itesp_orchestrate::knobs`: `ITESP_SNAPSHOT_DIR`,
//! `ITESP_SNAPSHOT_EVERY`).

use std::fmt;
use std::path::{Path, PathBuf};

use itesp_snap::{SnapError, SnapReader, SnapWriter, SnapshotMeta, SnapshotStore, StoreError};

use crate::system::{System, CPU_PER_DRAM_CYCLE};

/// Snapshot files kept on disk; older ones are pruned, and the WAL is
/// compacted to the retained suffix (the head — the rollback evidence
/// — always survives).
const KEEP_SNAPSHOTS: usize = 4;

/// The run loop's checkpoint writer: owns the durable store and the
/// capture cadence.
#[derive(Debug)]
pub struct SnapshotSink {
    store: SnapshotStore,
    every: u64,
    next_due: u64,
}

impl SnapshotSink {
    /// Open (creating if needed) a sink writing to `dir` every
    /// `every` CPU cycles (clamped to at least one DRAM cycle).
    ///
    /// # Errors
    /// Propagates store-open failures.
    pub fn new(dir: impl Into<PathBuf>, every: u64) -> Result<Self, StoreError> {
        Ok(SnapshotSink {
            store: SnapshotStore::open(dir)?,
            every: every.max(CPU_PER_DRAM_CYCLE),
            next_due: 0,
        })
    }

    /// Is a capture due at `cycle`? (The run loop additionally aligns
    /// captures to DRAM-tick boundaries.)
    pub fn due(&self, cycle: u64) -> bool {
        cycle >= self.next_due
    }

    /// Serialize `sys` and commit it as the next snapshot, advancing
    /// the cadence and pruning old snapshot files.
    ///
    /// # Errors
    /// Propagates store I/O failures.
    pub fn capture(&mut self, sys: &System) -> Result<SnapshotMeta, StoreError> {
        self.capture_with(sys.cycle(), |w| sys.save_state(w))
    }

    /// Commit a snapshot whose payload `write` serializes — the same
    /// cadence, prune, and WAL discipline as [`Self::capture`], for
    /// state machines other than a [`System`] (the migrate cluster
    /// checkpoints through this).
    ///
    /// # Errors
    /// Propagates store I/O failures.
    pub fn capture_with(
        &mut self,
        cycle: u64,
        write: impl FnOnce(&mut SnapWriter),
    ) -> Result<SnapshotMeta, StoreError> {
        let mut w = SnapWriter::new();
        write(&mut w);
        let meta = self.store.append(cycle, &w.into_bytes())?;
        self.store.prune(KEEP_SNAPSHOTS)?;
        self.next_due = cycle.saturating_add(self.every);
        Ok(meta)
    }

    /// The underlying store (for drills and tests).
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }
}

/// Why a recovery attempt failed.
#[derive(Debug)]
pub enum RecoverError {
    /// The durable store rejected the read (I/O, torn file, empty
    /// store, rollback).
    Store(StoreError),
    /// The snapshot payload did not decode against this system (codec
    /// corruption or a configuration mismatch).
    Decode(SnapError),
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Store(e) => write!(f, "snapshot store: {e}"),
            RecoverError::Decode(e) => write!(f, "snapshot payload: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Store(e) => Some(e),
            RecoverError::Decode(e) => Some(e),
        }
    }
}

impl From<StoreError> for RecoverError {
    fn from(e: StoreError) -> Self {
        RecoverError::Store(e)
    }
}

impl From<SnapError> for RecoverError {
    fn from(e: SnapError) -> Self {
        RecoverError::Decode(e)
    }
}

/// Restore `sys` (freshly built with the run's configuration and
/// workload) from the newest good snapshot in `dir`, skipping torn
/// files, and verify freshness against the WAL head (anti-rollback).
/// Returns the restored snapshot's metadata; the caller then runs the
/// system to completion, deterministically replaying the suffix.
///
/// # Errors
/// [`RecoverError::Store`] on I/O failure, an empty store, or a
/// rollback (the newest *good* snapshot is older than the WAL head
/// and the caller asked for strict freshness); [`RecoverError::Decode`]
/// when the payload does not match the rebuilt system.
pub fn recover_system(sys: &mut System, dir: &Path) -> Result<SnapshotMeta, RecoverError> {
    let store = SnapshotStore::open(dir)?;
    let (meta, payload, _skipped) = store.load_latest_good()?;
    let mut r = SnapReader::new(&payload);
    sys.load_state(&mut r)?;
    r.finish()?;
    Ok(meta)
}

/// Like [`recover_system`], but *refuse* any snapshot that is not the
/// WAL head — the strict restore an anti-rollback oracle demands when
/// suffix replay is not possible (e.g. resuming as-if-latest). A stale
/// snapshot — even a perfectly intact one — yields
/// [`StoreError::RollbackDetected`].
///
/// # Errors
/// Everything [`recover_system`] returns, plus
/// [`StoreError::RollbackDetected`] for stale snapshots.
pub fn recover_system_strict(sys: &mut System, dir: &Path) -> Result<SnapshotMeta, RecoverError> {
    let store = SnapshotStore::open(dir)?;
    let (meta, payload, _skipped) = store.load_latest_good()?;
    store.verify_fresh(meta.seq)?;
    let mut r = SnapReader::new(&payload);
    sys.load_state(&mut r)?;
    r.finish()?;
    Ok(meta)
}
