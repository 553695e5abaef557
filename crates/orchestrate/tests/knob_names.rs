//! Guard: the settings table is the only listing of `ITESP_*` names.
//!
//! Every `ITESP_*` name in the sources, tests, CI workflow and docs
//! must be a row of `knobs::TABLE` (a name ending in `_` must prefix
//! one), and every row must be read somewhere outside the table, as
//! `knobs::<ROW>`. A new setting therefore cannot appear without a
//! row, and a row cannot outlive its last reader.

use std::fs;
use std::path::{Path, PathBuf};

use itesp_orchestrate::knobs::TABLE;

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The crates' `src` and `tests` trees.
fn crate_sources() -> Vec<PathBuf> {
    let mut out = Vec::new();
    for krate in fs::read_dir(repo().join("crates"))
        .expect("crates/")
        .flatten()
    {
        rust_files(&krate.path().join("src"), &mut out);
        rust_files(&krate.path().join("tests"), &mut out);
    }
    assert!(out.len() > 50, "found only {} sources", out.len());
    out
}

/// Every maximal `ITESP_[A-Z_]+` token in `text`.
fn itesp_names(text: &str) -> Vec<&str> {
    let mut names = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("ITESP_") {
        let tail = &rest[at..];
        let len = tail
            .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
            .unwrap_or(tail.len());
        if len > "ITESP_".len() {
            names.push(&tail[..len]);
        }
        rest = &tail[len..];
    }
    names
}

fn is_known(name: &str) -> bool {
    if name.ends_with('_') {
        TABLE.iter().any(|k| k.env.starts_with(name))
    } else {
        TABLE.iter().any(|k| k.env == name)
    }
}

#[test]
fn every_itesp_name_is_a_table_row() {
    let mut files = crate_sources();
    for doc in [
        ".github/workflows/ci.yml",
        "README.md",
        "EXPERIMENTS.md",
        "DESIGN.md",
    ] {
        files.push(repo().join(doc));
    }
    let mut unknown = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        for name in itesp_names(&text) {
            if !is_known(name) {
                unknown.push(format!("{}: {name}", file.display()));
            }
        }
    }
    assert!(
        unknown.is_empty(),
        "names missing from itesp_orchestrate::knobs::TABLE:\n{}",
        unknown.join("\n")
    );
}

#[test]
fn every_table_row_has_a_reader() {
    let sources: Vec<String> = crate_sources()
        .iter()
        .filter(|p| !p.ends_with("orchestrate/src/knobs.rs"))
        .map(|p| fs::read_to_string(p).expect("read source"))
        .collect();
    let read = |row: &str| {
        let path = format!("knobs::{row}");
        sources.iter().any(|text| {
            text.match_indices(&path).any(|(at, _)| {
                !text[at + path.len()..]
                    .starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
            })
        })
    };
    let unread: Vec<&str> = TABLE
        .iter()
        .map(|k| k.env)
        .filter(|env| !read(env.strip_prefix("ITESP_").expect("prefixed")))
        .collect();
    assert!(unread.is_empty(), "rows nothing reads: {unread:?}");
}

#[test]
fn the_scanner_finds_names_and_prefixes() {
    assert_eq!(
        itesp_names("`ITESP_OPS=1` and ITESP_SERVE_* but not ITESP_ or ITESP_\""),
        ["ITESP_OPS", "ITESP_SERVE_"]
    );
    assert!(is_known("ITESP_SERVE_"));
    assert!(!is_known(&format!("ITESP_{}", "NO_SUCH_ROW")));
}
