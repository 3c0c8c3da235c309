//! The `doc-path` check: the top-level documents name no file or symbol
//! the tree has lost.
//!
//! Every backticked token in the top-level documents ([`DOC_FILES`]) that
//! contains a `/` and ends in a source or data extension
//! ([`DOC_PATH_EXTENSIONS`]) must exist, relative to the root or to
//! `crates/`, and every backticked `UPPER_SNAKE` token (a constant,
//! environment variable or diagnostic code, e.g. `SDM_SHARDS` or `V015`)
//! must occur as a word in some scanned source. So must every segment of
//! a backticked Rust symbol — a `CamelCase` identifier or a `::` path such
//! as `Controller::run_sharded` — where a trailing `*` matches a prefix
//! (`Snapshot::add_*`) and a path that starts with a file
//! (`tests/cli.rs::help_prints_usage`) must name a word of that file. Docs
//! name files and symbols so a reader can find them; a deletion that
//! leaves the name behind fails the real-tree test below, in `cargo test`.
//!
//! The source conventions the data plane rests on (deterministic
//! collections, no host clock, no panicking combinators on the packet
//! path, no `unsafe`) are compiler and clippy checks, not this module's:
//! see the root `clippy.toml` and each crate root's lint attributes.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Top-level documents the `doc-path` check reads.
pub const DOC_FILES: &[&str] = &["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// Extensions that make a backticked, `/`-containing token a file path.
pub const DOC_PATH_EXTENSIONS: &[&str] = &[".rs", ".sh", ".json", ".txt", ".toml", ".md"];

/// Every stale name in the [`DOC_FILES`] under `root`, one
/// `doc:line: detail` string each, in document and line order. The
/// symbols are the words of every `crates/*/src` tree and of the umbrella
/// crate's `src/`.
pub fn stale_doc_names(root: &Path) -> io::Result<Vec<String>> {
    let mut src_dirs = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            src_dirs.push(entry?.path().join("src"));
        }
    }
    let mut files = Vec::new();
    for dir in &src_dirs {
        collect_rs_files(dir, &mut files)?;
    }
    let mut symbols = BTreeSet::new();
    for file in files {
        symbols.extend(words(&fs::read_to_string(file)?).map(str::to_string));
    }

    let mut stale = Vec::new();
    for doc in DOC_FILES {
        if let Ok(text) = fs::read_to_string(root.join(doc)) {
            stale.extend(stale_in_doc(root, doc, &text, &symbols));
        }
    }
    Ok(stale)
}

/// The stale names of one document: backticked spans are the odd pieces
/// of each line split on `` ` ``; [`stale_doc_token`] judges each.
fn stale_in_doc(root: &Path, doc: &str, text: &str, symbols: &BTreeSet<String>) -> Vec<String> {
    let mut stale = Vec::new();
    for (i, line) in text.lines().enumerate() {
        for token in line.split('`').skip(1).step_by(2) {
            if let Some(detail) = stale_doc_token(root, token, symbols) {
                stale.push(format!("{doc}:{}: {detail}", i + 1));
            }
        }
    }
    stale
}

/// The identifier words of `text`.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// True for a token the `doc-path` check reads as a source symbol: two
/// or more of `A-Z`, `0-9` and `_`, starting with a letter.
fn is_upper_snake(token: &str) -> bool {
    token.len() >= 2
        && token.starts_with(|c: char| c.is_ascii_uppercase())
        && token
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// True when `word`, or with a trailing `*` some word it prefixes, is in
/// `words`.
fn has_word(words: &BTreeSet<String>, word: &str) -> bool {
    match word.strip_suffix('*') {
        Some(prefix) => words.iter().any(|w| w.starts_with(prefix)),
        None => words.contains(word),
    }
}

/// Why a backticked token is stale, or `None` when it is fine or names
/// neither a file nor a source symbol. A file must exist. A symbol — an
/// `UPPER_SNAKE` or `CamelCase` identifier, or a `::` path — must have
/// every segment among `symbols`, the scanned sources' words, or, for a
/// path that starts with a file, among that file's words.
fn stale_doc_token(root: &Path, token: &str, symbols: &BTreeSet<String>) -> Option<String> {
    let is_file = |t: &str| t.contains('/') && DOC_PATH_EXTENSIONS.iter().any(|e| t.ends_with(e));
    let (file, path) = match token.split_once("::") {
        Some((file, path)) if is_file(file) => (Some(file), path),
        _ if is_file(token) => (Some(token), ""),
        _ => (None, token),
    };
    if token.contains(char::is_whitespace) {
        return None;
    }
    let mut in_file = BTreeSet::new();
    if let Some(file) = file {
        let candidates = [root.join(file), root.join("crates").join(file)];
        let Some(found) = candidates.into_iter().find(|p| p.exists()) else {
            return Some(format!("`{token}` names a file that does not exist"));
        };
        if !path.is_empty() {
            in_file.extend(words(&fs::read_to_string(found).ok()?).map(str::to_string));
        }
    }
    let segments: Vec<&str> = path.trim_end_matches("()").split("::").collect();
    let identifier = |seg: &&str| {
        let seg = seg.strip_suffix('*').unwrap_or(seg);
        !seg.is_empty() && seg.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    };
    let camel_case = path.starts_with(|c: char| c.is_ascii_uppercase())
        && path.contains(|c: char| c.is_ascii_lowercase())
        && !path.contains('_');
    let is_symbol = file.is_some() || segments.len() > 1 || is_upper_snake(path) || camel_case;
    if path.is_empty() || !is_symbol || !segments.iter().all(identifier) {
        return None;
    }
    let known = if file.is_some() { &in_file } else { symbols };
    let missing = segments.into_iter().find(|seg| !has_word(known, seg))?;
    Some(match file {
        Some(file) => format!("`{token}`: `{missing}` is not a word of {file}"),
        None => format!("`{token}` names a symbol no scanned source contains"),
    })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    #[test]
    fn doc_paths_must_exist() {
        let text = "see `crates/verify/src/lint.rs`, `verify/src/plan.rs` and `ci.sh`;\n\
                    `results/no_such_golden.txt` is gone, `a/b` and `cargo run x/y.rs` are not paths\n\
                    `SDM_SHARDS` and `V015` are symbols, `OLD_BUDGET` is gone, `A`, `Ab_C` are not\n\
                    `Controller`, `Controller::run_sharded()` and `Shard::record_*` are symbols\n\
                    `RetiredMode` is gone, `Controller::retired_setter` is gone, `a::b c` is not a symbol\n\
                    `tests/cli.rs::help_prints_usage` names a test, `tests/cli.rs::no_such_test` is gone\n";
        let names = "SDM_SHARDS V015 Controller run_sharded Shard record_hit";
        let symbols: BTreeSet<String> = words(names).map(str::to_string).collect();
        assert_eq!(
            stale_in_doc(&workspace_root(), "README.md", text, &symbols),
            [
                "README.md:2: `results/no_such_golden.txt` names a file that does not exist",
                "README.md:3: `OLD_BUDGET` names a symbol no scanned source contains",
                "README.md:5: `RetiredMode` names a symbol no scanned source contains",
                "README.md:5: `Controller::retired_setter` names a symbol no scanned source contains",
                "README.md:6: `tests/cli.rs::no_such_test`: `no_such_test` is not a word of tests/cli.rs",
            ]
        );
    }

    #[test]
    fn docs_name_no_stale_files_or_symbols() {
        let stale = stale_doc_names(&workspace_root()).expect("scan");
        assert!(
            stale.is_empty(),
            "the docs name files or symbols the tree has lost:\n{}",
            stale.join("\n")
        );
    }
}
