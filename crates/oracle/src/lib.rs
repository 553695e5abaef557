//! # itesp-oracle — differential-oracle and fault-injection harness
//!
//! Correctness tooling for the ITESP reproduction, four pillars:
//!
//! 1. [`protocol`] — an independent DDR3 protocol checker that re-derives
//!    every Table III timing constraint from the raw [`itesp_dram::DramConfig`]
//!    and validates recorded command logs from both the optimized
//!    [`itesp_dram::Channel`] and the [`itesp_dram::ReferenceChannel`].
//! 2. [`differential`] — an analytic-vs-functional oracle driving the
//!    `itesp-core` traffic engine and `VerifiedMemory` in lockstep over
//!    randomized access streams.
//! 3. [`faults`] — a randomized chipkill fault-injection campaign whose
//!    outcomes are checked against the Table II analytical classes.
//! 4. [`seed`] — seed printing / replay (`ITESP_TEST_SEED`) and the
//!    checked-in regression corpus (`corpus/seeds.txt`); [`filter`]
//!    narrows any scheme-parameterized test to a label subset via
//!    `ITESP_SCHEME_ONLY` (CI's scheme-matrix job). These settings are
//!    rows of `itesp_orchestrate::knobs::TABLE`, which parses them; a
//!    malformed value panics the test naming the variable.
//!
//! The crate is test support: production crates must not depend on it
//! (it depends on all of them). See EXPERIMENTS.md § "Oracle test
//! harness" for the workflow.

pub mod differential;
pub mod faults;
pub mod filter;
pub mod protocol;
pub mod seed;
pub mod workload;

pub use differential::DifferentialHarness;
pub use faults::{
    classify, exhaustive_single_faults, fault_label, random_word, TrialOutcome, TrialWord,
};
pub use filter::{scheme_enabled, schemes_under_test};
pub use protocol::{ProtocolChecker, ProtocolViolation};
pub use seed::{seeds_for, with_seeds};
pub use workload::{addr_for, run_arrivals, run_stream, Arrival, Scheduler, WorkloadRun};
