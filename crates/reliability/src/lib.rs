//! # itesp-reliability — chipkill correction and reliability analysis
//!
//! Implements the reliability half of the Synergy/ITESP co-design:
//!
//! * [`inject`] — the DRAM fault model (bit / pin / chip faults striped
//!   across a 9-chip x8 ECC rank);
//! * [`chipkill`] — MAC-guided trial correction: reconstruct each chip
//!   from parity in turn and accept the candidate whose MAC matches,
//!   including the shared-parity variant that subtracts companion
//!   blocks from other ranks;
//! * [`analytical`] — the closed-form SDC/DUE model behind Table II;
//! * [`scrub`] — background scrubbing and the scrub-on-detect
//!   mitigation for ITESP's Case-4 regression.
//!
//! ```
//! use itesp_core::mac::{mac_block, MacKey};
//! use itesp_reliability::{column_parity, inject, verify_and_correct, CodeWord, Correction, Fault};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let key = MacKey::derive(1, 0);
//! let data = [7u8; 64];
//! let word = CodeWord::new(data, mac_block(&key, &data, 5, 0x40));
//! let parity = column_parity(&word);
//!
//! let mut bad = word;
//! inject(&mut bad, Fault::Chip { chip: 2 }, &mut StdRng::seed_from_u64(9));
//! let (result, fixed) = verify_and_correct(&bad, parity, &key, 5, 0x40);
//! assert!(matches!(result, Correction::Corrected { chip: 2, .. }));
//! assert_eq!(fixed, word);
//! ```

pub mod analytical;
pub mod chipkill;
pub mod inject;
pub mod scrub;

pub use analytical::{
    scrub_on_detect_improvement, table_ii, Design, ReliabilityParams, TableIiRates,
};
pub use chipkill::{
    column_parity, correct_shared, reconstruct, shared_parity, verify_and_correct, Correction,
};
pub use inject::{inject, CodeWord, Fault, FaultStream, BEATS, DATA_CHIPS, TOTAL_CHIPS};
pub use scrub::Scrubber;
