//! Golden snapshot bytes: the length and CRC-32 of every snapshot
//! payload family, pinned.
//!
//! The round-trip oracles only prove restore -> re-save is a fixed
//! point; they would not notice a codec change that alters the bytes
//! consistently on both sides. This test does: any change to a
//! section's layout, a field's wire width, or the order a map or set
//! is written in changes a pinned value. A deliberate format change
//! must bump the affected section's version and re-pin here (the
//! failure message prints the full replacement table).

mod snapshot_payloads;

use itesp_snap::crc32;

/// `(payload, length in bytes, CRC-32)`.
const GOLDEN: &[(&str, usize, u32)] = &[
    ("engine/UNSECURE", 244, 0xfb7b7bb2),
    ("engine/VAULT", 27069, 0x418b5d40),
    ("engine/ITVAULT", 27641, 0x21307edb),
    ("engine/SYNERGY", 26977, 0xb2d9fca5),
    ("engine/ITSYNERGY", 27291, 0xa2e19742),
    ("engine/ITSYN+P$", 27642, 0xb7cd3679),
    ("engine/ITSYN+SP", 27290, 0x2507077e),
    ("engine/ITSYN+SP+P$", 27645, 0x038fc719),
    ("engine/ITESP", 27271, 0x79c3f9be),
    ("engine/SYN128", 26976, 0x949bf6b1),
    ("engine/ITSYN128", 27290, 0x8b3a7c41),
    ("engine/ITESP64", 27289, 0xde1cd6d9),
    ("engine/ITESP128", 27290, 0xe5ef71dc),
    ("engine/SECDDR", 227, 0xdb3ead79),
    ("engine/IRORAM", 28251, 0x6dada177),
    ("system/static_mcf_ras", 307135, 0xacd91415),
    ("system/churn_ras", 132291, 0x1b719c31),
    ("cluster", 19661, 0xbf3abe38),
    ("migrate/blob", 288, 0xe20f1671),
    ("serve/registry", 468, 0x968a638c),
];

#[test]
fn snapshot_bytes_match_the_pinned_golden_values() {
    let actual: Vec<(String, usize, u32)> = snapshot_payloads::all()
        .into_iter()
        .map(|p| (p.name, p.bytes.len(), crc32(&p.bytes)))
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, len, crc)| format!("    ({name:?}, {len}, 0x{crc:08x}),\n"))
        .collect();
    let expected: Vec<(String, usize, u32)> = GOLDEN
        .iter()
        .map(|&(name, len, crc)| (name.to_owned(), len, crc))
        .collect();
    assert!(
        actual == expected,
        "snapshot bytes changed; actual values:\n{table}"
    );
}
