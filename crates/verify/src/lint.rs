//! Pass 2 — the hermetic source lint behind the `sdm-lint` binary.
//!
//! A zero-dependency token-level scanner over the workspace's Rust
//! sources that machine-enforces the conventions the PR-4 deterministic
//! data plane rests on:
//!
//! * **`default-hasher`** — `std::collections::HashMap` / `HashSet`
//!   (randomly seeded SipHash) are banned in the data-plane crates
//!   ([`DATA_PLANE_CRATES`]); iteration order there must be
//!   deterministic, so only `FxHashMap`/`FxHashSet` or the `BTree`
//!   collections are allowed.
//! * **`wall-clock`** — `Instant::now` / `SystemTime::now` are banned
//!   everywhere; simulated time must come from the event queue, never the
//!   host clock. A deliberate stderr timing carries an explicit
//!   `// lint:allow(wall-clock)`.
//! * **`hot-path-panic`** — `.unwrap()` / `.expect(` are flagged in the
//!   packet hot path ([`HOT_PATH_SUFFIXES`]); a malformed packet must
//!   surface as a counted drop, not a worker-thread abort.
//! * **`per-flow-map`** — `FxHashMap<FiveTuple, _>` is banned in the
//!   data-plane crates: per-flow soft state belongs in the
//!   open-addressed `FlowTable`/`OaTable` (entries stay put in a slab and
//!   a grow re-places only 16-byte probe cells, keys are hashed once per
//!   device visit, iteration is in deterministic slab order, the negative
//!   cache is bounded), not an ad hoc hash map that moves every entry on
//!   resize and leaves exhaustion-attack memory unbounded.
//! * **`set-iteration-order`** — `HashSet` *and* `FxHashSet` are banned
//!   in the diagnostic crates ([`DIAGNOSTIC_CRATES`]): verifier reports
//!   (`V0xx`/`R0xx`) are sorted, deduplicated and byte-diffed in CI, and
//!   even a deterministic hasher iterates in insertion-history order,
//!   not the documented sort order. Use `BTreeSet` or a sorted `Vec`.
//! * **`unsafe-code`** — every crate root must carry
//!   `#![forbid(unsafe_code)]` or `#![deny(unsafe_code)]`, and the
//!   `unsafe` keyword must not appear in any scanned source. The
//!   exception list ([`UNSAFE_EXCEPTIONS`]) is currently empty; a crate
//!   listed there that *does* carry the attribute is reported as a stale
//!   exception so the list tracks reality.
//!
//! * **`doc-path`** — every backticked token in the top-level documents
//!   ([`DOC_FILES`]) that contains a `/` and ends in a source or data
//!   extension ([`DOC_PATH_EXTENSIONS`]) must exist, relative to the root
//!   or to `crates/`, and every backticked `UPPER_SNAKE` token (a
//!   constant, environment variable or diagnostic code, e.g. `SDM_SHARDS`
//!   or `V015`) must occur as a word in some scanned source. So must
//!   every segment of a backticked Rust symbol — a `CamelCase` identifier
//!   or a `::` path such as `Controller::run_sharded` — where a trailing
//!   `*` matches a prefix (`ShardTelemetry::record_*`) and a path that
//!   starts with a file (`tests/cli.rs::help_prints_usage`) must name a
//!   word of that file. Docs name files and symbols so a reader can find
//!   them; a deletion that leaves the name behind fails here.
//!
//! The scanner tokenizes rather than greps: identifiers are matched
//! whole (`FxHashMap` does not match `HashMap`), and comments, strings
//! and `#[cfg(test)]` blocks are skipped. A genuine exception is
//! suppressed in place with a `// lint:allow(<rule>)` comment on the
//! flagged line or the line above it.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Rule name for the banned default-hasher collections.
pub const RULE_DEFAULT_HASHER: &str = "default-hasher";
/// Rule name for banned host-clock reads.
pub const RULE_WALL_CLOCK: &str = "wall-clock";
/// Rule name for panicking combinators in the packet hot path.
pub const RULE_HOT_PATH_PANIC: &str = "hot-path-panic";
/// Rule name for the unsafe-code policy.
pub const RULE_UNSAFE_CODE: &str = "unsafe-code";
/// Rule name for raw per-flow hash maps in the data plane.
pub const RULE_PER_FLOW_MAP: &str = "per-flow-map";
/// Rule name for iteration-order-dependent sets in diagnostic paths.
pub const RULE_SET_ORDER: &str = "set-iteration-order";

/// Rule name for documentation that names a file which does not exist.
pub const RULE_DOC_PATH: &str = "doc-path";

/// Top-level documents the `doc-path` rule reads.
pub const DOC_FILES: &[&str] = &["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// Extensions that make a backticked, `/`-containing token a file path.
pub const DOC_PATH_EXTENSIONS: &[&str] = &[".rs", ".sh", ".json", ".txt", ".toml", ".md"];

/// Crates whose sources form the deterministic data plane: default-hasher
/// collections are banned here.
pub const DATA_PLANE_CRATES: &[&str] = &["core", "netsim", "policy", "telemetry", "workload"];

/// Crates whose output is a diagnostic report that must be byte-stable
/// (sorted + deduplicated like the `V0xx`/`R0xx` codes): *any* hash-set
/// type — `HashSet` **and** `FxHashSet` — is banned here, because even a
/// deterministic hasher yields an iteration order that is an accident of
/// insertion history, not the report's documented sort order. Use
/// `BTreeSet` or an explicitly sorted `Vec`.
pub const DIAGNOSTIC_CRATES: &[&str] = &["verify"];

/// Path suffixes of the packet hot path, where `.unwrap()`/`.expect(` are
/// flagged.
pub const HOT_PATH_SUFFIXES: &[&str] = &[
    "netsim/src/engine.rs",
    "netsim/src/packet.rs",
    "netsim/src/queue.rs",
    "netsim/src/schedule.rs",
    "core/src/shard.rs",
    "core/src/epoch.rs",
    "core/src/proxy.rs",
    "core/src/middlebox.rs",
    "policy/src/flow_table.rs",
    "policy/src/oa_table.rs",
    "policy/src/label_table.rs",
    "policy/src/local.rs",
    "policy/src/classifier.rs",
    "topology/src/routing.rs",
];

/// Crates allowed to skip the `#![forbid/deny(unsafe_code)]` attribute.
/// Empty: every crate in the workspace forbids unsafe code. A crate named
/// here that carries the attribute anyway is reported as a stale
/// exception.
pub const UNSAFE_EXCEPTIONS: &[&str] = &[];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintViolation {
    /// Which rule fired (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// What was found.
    pub detail: String,
}

impl fmt::Display for LintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.detail
        )
    }
}

/// Scanner configuration: where the workspace lives.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Workspace root (the directory holding `crates/`).
    pub root: PathBuf,
}

impl LintConfig {
    /// Config rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        LintConfig { root: root.into() }
    }
}

/// Scans every `crates/*/src` tree (plus the umbrella crate's `src/`)
/// under the configured root and returns all findings, sorted by
/// (file, line, rule).
pub fn lint_workspace(config: &LintConfig) -> io::Result<Vec<LintViolation>> {
    let mut violations = Vec::new();
    let crates_dir = config.root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let path = entry?.path();
            if path.is_dir() && path.join("Cargo.toml").is_file() {
                crate_dirs.push(path);
            }
        }
    }
    crate_dirs.sort();
    // The umbrella crate at the root, if any.
    if config.root.join("Cargo.toml").is_file() && config.root.join("src").is_dir() {
        crate_dirs.push(config.root.clone());
    }

    // Every word of the scanned sources, for `doc-path`.
    let mut symbols = BTreeSet::new();
    for dir in &crate_dirs {
        let crate_name = crate_name_of(dir);
        check_unsafe_attribute(config, dir, &crate_name, &mut violations);
        let src = dir.join("src");
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        files.sort();
        for file in files {
            let text = fs::read_to_string(&file)?;
            let rel = relative_to(&file, &config.root);
            lint_source(&rel, &crate_name, &text, &mut violations);
            symbols.extend(words(&text).map(str::to_string));
        }
    }

    for doc in DOC_FILES {
        if let Ok(text) = fs::read_to_string(config.root.join(doc)) {
            lint_doc_paths(&config.root, doc, &text, &symbols, &mut violations);
        }
    }

    violations.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    Ok(violations)
}

/// The identifier words of `text`.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// True for a token the `doc-path` rule reads as a source symbol: two or
/// more of `A-Z`, `0-9` and `_`, starting with a letter.
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

/// The `doc-path` rule over one document: backticked spans are the odd
/// pieces of each line split on `` ` ``; [`stale_doc_token`] judges each.
fn lint_doc_paths(
    root: &Path,
    doc: &str,
    text: &str,
    symbols: &BTreeSet<String>,
    out: &mut Vec<LintViolation>,
) {
    for (i, line) in text.lines().enumerate() {
        for token in line.split('`').skip(1).step_by(2) {
            if let Some(detail) = stale_doc_token(root, token, symbols) {
                out.push(LintViolation {
                    rule: RULE_DOC_PATH,
                    file: doc.to_string(),
                    line: i + 1,
                    detail,
                });
            }
        }
    }
}

fn crate_name_of(dir: &Path) -> String {
    dir.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

fn relative_to(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
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

/// The `unsafe-code` crate-root check: attribute present unless excepted,
/// and no stale exceptions.
fn check_unsafe_attribute(
    config: &LintConfig,
    dir: &Path,
    crate_name: &str,
    out: &mut Vec<LintViolation>,
) {
    let lib = dir.join("src").join("lib.rs");
    let Ok(text) = fs::read_to_string(&lib) else {
        return; // bin-only crate roots are covered by the token scan
    };
    let has_attr = text.contains("#![forbid(unsafe_code)]")
        || text.contains("#![deny(unsafe_code)]");
    let excepted = UNSAFE_EXCEPTIONS.contains(&crate_name);
    let rel = relative_to(&lib, &config.root);
    if !has_attr && !excepted {
        out.push(LintViolation {
            rule: RULE_UNSAFE_CODE,
            file: rel,
            line: 0,
            detail: format!(
                "crate `{crate_name}` does not declare #![forbid(unsafe_code)] \
or #![deny(unsafe_code)]"
            ),
        });
    } else if has_attr && excepted {
        out.push(LintViolation {
            rule: RULE_UNSAFE_CODE,
            file: rel,
            line: 0,
            detail: format!(
                "stale exception: crate `{crate_name}` is in UNSAFE_EXCEPTIONS \
but declares the unsafe_code attribute — remove it from the list"
            ),
        });
    }
}

/// A significant token: an identifier/keyword or a single punctuation
/// character, with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Punct(char),
}

struct Scan {
    tokens: Vec<(usize, Tok)>,
    /// Lines carrying a `lint:allow(<rule>)` comment, as (line, rule).
    allows: Vec<(usize, String)>,
}

/// True when `rule` is allowed on `line` (directive on the same line or
/// the one above).
fn allowed(scan: &Scan, line: usize, rule: &str) -> bool {
    scan.allows
        .iter()
        .any(|(l, r)| r == rule && (*l == line || *l + 1 == line))
}

/// Tokenizes Rust source: skips comments (capturing `lint:allow`
/// directives), string/char literals including raw and byte forms, and
/// records identifier and punctuation tokens with line numbers.
fn tokenize(text: &str) -> Scan {
    let b = text.as_bytes();
    let mut i = 0;
    let mut line = 1;
    let mut tokens = Vec::new();
    let mut allows = Vec::new();

    let is_ident_start = |c: u8| c.is_ascii_alphabetic() || c == b'_';
    let is_ident_cont = |c: u8| c.is_ascii_alphanumeric() || c == b'_';

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'/' if b.get(i + 1) == Some(&b'/') => {
                // Line comment (covers /// and //! doc comments).
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                let comment = &text[start..i];
                let mut rest = comment;
                while let Some(pos) = rest.find("lint:allow(") {
                    let tail = &rest[pos + "lint:allow(".len()..];
                    if let Some(end) = tail.find(')') {
                        allows.push((line, tail[..end].trim().to_string()));
                        rest = &tail[end..];
                    } else {
                        break;
                    }
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                // Block comment, nesting per Rust.
                i += 2;
                let mut depth = 1;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                i = skip_string(b, i, &mut line);
            }
            b'\'' => {
                // Lifetime (`'a`) or char literal (`'a'`, `'\n'`).
                if b.get(i + 1) == Some(&b'\\') {
                    // Escaped char literal.
                    i += 2;
                    while i < b.len() && b[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                } else if b
                    .get(i + 1)
                    .is_some_and(|&c| is_ident_start(c) || c.is_ascii_digit())
                    && b.get(i + 2) != Some(&b'\'')
                {
                    // Lifetime: skip the quote, the name scans as an ident
                    // (harmless — lifetimes never collide with rules).
                    i += 1;
                } else {
                    // Plain char literal like 'x' or '''.
                    i += 2;
                    while i < b.len() && b[i] != b'\'' {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    i += 1;
                }
            }
            _ if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_cont(b[i]) {
                    i += 1;
                }
                let word = &text[start..i];
                // Raw / byte string prefixes: r"", r#""#, b"", br#""#.
                let next = b.get(i).copied();
                match (word, next) {
                    ("r" | "br", Some(b'"')) | ("r" | "br", Some(b'#')) => {
                        i = skip_raw_string(b, i, &mut line);
                    }
                    ("b", Some(b'"')) => {
                        i = skip_string(b, i, &mut line);
                    }
                    ("b", Some(b'\'')) => {
                        // Byte char literal b'x' / b'\n'.
                        i += 2; // quote + first content byte (or backslash)
                        while i < b.len() && b[i] != b'\'' {
                            i += 1;
                        }
                        i += 1;
                    }
                    _ => tokens.push((line, Tok::Ident(word.to_string()))),
                }
            }
            _ => {
                if !c.is_ascii_whitespace() && c.is_ascii_punctuation() {
                    tokens.push((line, Tok::Punct(c as char)));
                }
                i += 1;
            }
        }
    }
    Scan { tokens, allows }
}

/// Skips a normal string literal starting at the opening quote index (or
/// the index *of* the quote when called after a `b` prefix, where `at`
/// points at the quote). Returns the index past the closing quote.
fn skip_string(b: &[u8], at: usize, line: &mut usize) -> usize {
    let mut i = at + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips a raw string literal; `at` points at the first `#` or `"` after
/// the `r`/`br` prefix. Returns the index past the closing delimiter.
fn skip_raw_string(b: &[u8], at: usize, line: &mut usize) -> usize {
    let mut i = at;
    let mut hashes = 0;
    while b.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if b.get(i) != Some(&b'"') {
        return i; // not actually a raw string; resume scanning here
    }
    i += 1;
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if b[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0;
            while seen < hashes && b.get(j) == Some(&b'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
        }
        i += 1;
    }
    i
}

/// Index ranges (into the token vec) covered by `#[cfg(test)]`-guarded
/// brace blocks, which every rule skips.
fn cfg_test_ranges(tokens: &[(usize, Tok)]) -> Vec<(usize, usize)> {
    let ident = |t: &Tok, s: &str| matches!(t, Tok::Ident(w) if w == s);
    let punct = |t: &Tok, c: char| matches!(t, Tok::Punct(p) if *p == c);
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 6 < tokens.len() {
        if punct(&tokens[i].1, '#')
            && punct(&tokens[i + 1].1, '[')
            && ident(&tokens[i + 2].1, "cfg")
            && punct(&tokens[i + 3].1, '(')
            && ident(&tokens[i + 4].1, "test")
            && punct(&tokens[i + 5].1, ')')
            && punct(&tokens[i + 6].1, ']')
        {
            // Skip to the guarded item's opening brace, then past its
            // matching close.
            let mut j = i + 7;
            while j < tokens.len() && !punct(&tokens[j].1, '{') {
                j += 1;
            }
            let mut depth = 0;
            while j < tokens.len() {
                if punct(&tokens[j].1, '{') {
                    depth += 1;
                } else if punct(&tokens[j].1, '}') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
            ranges.push((i, j));
            i = j;
        } else {
            i += 1;
        }
    }
    ranges
}

/// Runs every token-level rule over one source file.
fn lint_source(rel: &str, crate_name: &str, text: &str, out: &mut Vec<LintViolation>) {
    let scan = tokenize(text);
    let test_ranges = cfg_test_ranges(&scan.tokens);
    let in_test = |idx: usize| test_ranges.iter().any(|&(a, b)| idx >= a && idx < b);

    let data_plane = DATA_PLANE_CRATES.contains(&crate_name);
    let diagnostic = DIAGNOSTIC_CRATES.contains(&crate_name);
    let hot_path = HOT_PATH_SUFFIXES.iter().any(|s| rel.ends_with(s));

    for (idx, (line, tok)) in scan.tokens.iter().enumerate() {
        if in_test(idx) {
            continue;
        }
        let Tok::Ident(word) = tok else { continue };
        let next_is = |c: char| {
            matches!(scan.tokens.get(idx + 1), Some((_, Tok::Punct(p))) if *p == c)
        };
        let followed_by_path_seg = |seg: &str| {
            next_is(':')
                && matches!(scan.tokens.get(idx + 2), Some((_, Tok::Punct(':'))))
                && matches!(scan.tokens.get(idx + 3), Some((_, Tok::Ident(w))) if w == seg)
        };

        match word.as_str() {
            "HashMap" | "HashSet"
                if data_plane && !allowed(&scan, *line, RULE_DEFAULT_HASHER) =>
            {
                out.push(LintViolation {
                    rule: RULE_DEFAULT_HASHER,
                    file: rel.to_string(),
                    line: *line,
                    detail: format!(
                        "`{word}` uses the randomly seeded default hasher; \
data-plane iteration order must be deterministic — use Fx{word} or BTree{}",
                        &word[4..]
                    ),
                });
            }
            "Instant" | "SystemTime"
                if followed_by_path_seg("now")
                    && !allowed(&scan, *line, RULE_WALL_CLOCK) =>
            {
                out.push(LintViolation {
                    rule: RULE_WALL_CLOCK,
                    file: rel.to_string(),
                    line: *line,
                    detail: format!(
                        "`{word}::now` reads the host clock; simulated time \
must come from the event queue (benchmark code: annotate lint:allow(wall-clock))"
                    ),
                });
            }
            "unwrap" | "expect"
                if hot_path
                    && next_is('(')
                    && !allowed(&scan, *line, RULE_HOT_PATH_PANIC) =>
            {
                out.push(LintViolation {
                    rule: RULE_HOT_PATH_PANIC,
                    file: rel.to_string(),
                    line: *line,
                    detail: format!(
                        "`.{word}(` can abort a worker thread in the packet \
hot path; handle the None/Err arm or annotate lint:allow(hot-path-panic)"
                    ),
                });
            }
            "FxHashMap"
                if data_plane
                    && next_is('<')
                    // first type parameter is `FiveTuple`, bare or at the
                    // end of a path like `sdm_netsim::FiveTuple`
                    && (matches!(scan.tokens.get(idx + 2),
                            Some((_, Tok::Ident(w))) if w == "FiveTuple")
                        || (matches!(scan.tokens.get(idx + 3), Some((_, Tok::Punct(':'))))
                            && matches!(scan.tokens.get(idx + 4), Some((_, Tok::Punct(':'))))
                            && matches!(scan.tokens.get(idx + 5),
                                Some((_, Tok::Ident(w))) if w == "FiveTuple")))
                    && !allowed(&scan, *line, RULE_PER_FLOW_MAP) =>
            {
                out.push(LintViolation {
                    rule: RULE_PER_FLOW_MAP,
                    file: rel.to_string(),
                    line: *line,
                    detail: "`FxHashMap<FiveTuple, _>` moves every entry on \
resize and leaves per-flow memory unbounded; keep per-flow state in the \
open-addressed FlowTable/OaTable (or annotate lint:allow(per-flow-map))"
                        .to_string(),
                });
            }
            "HashSet" | "FxHashSet"
                if diagnostic && !allowed(&scan, *line, RULE_SET_ORDER) =>
            {
                out.push(LintViolation {
                    rule: RULE_SET_ORDER,
                    file: rel.to_string(),
                    line: *line,
                    detail: format!(
                        "`{word}` iteration order is an accident of insertion \
history; diagnostic output must be byte-stable — use BTreeSet or a sorted Vec \
(or annotate lint:allow(set-iteration-order))"
                    ),
                });
            }
            "unsafe" if !allowed(&scan, *line, RULE_UNSAFE_CODE) => {
                out.push(LintViolation {
                    rule: RULE_UNSAFE_CODE,
                    file: rel.to_string(),
                    line: *line,
                    detail: "`unsafe` block or fn; the workspace forbids \
unsafe code"
                        .to_string(),
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(rel: &str, crate_name: &str, src: &str) -> Vec<LintViolation> {
        let mut out = Vec::new();
        lint_source(rel, crate_name, src, &mut out);
        out
    }

    #[test]
    fn bans_default_hasher_in_data_plane_only() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32>; }\n";
        let hits = lint_str("crates/core/src/x.rs", "core", src);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().all(|v| v.rule == RULE_DEFAULT_HASHER));
        assert!(lint_str("crates/lp/src/x.rs", "lp", src).is_empty());
    }

    #[test]
    fn fx_collections_do_not_match() {
        let src = "use sdm_util::FxHashMap;\nfn f(m: FxHashMap<u32, u32>, s: FxHashSet<u8>) {}\n";
        assert!(lint_str("crates/core/src/x.rs", "core", src).is_empty());
    }

    #[test]
    fn comments_strings_and_tests_are_skipped() {
        let src = r##"
// HashMap in a comment is fine
/* HashMap in a block comment too */
fn f() { let s = "HashMap"; let r = r#"HashSet"#; }
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() { let _m: HashMap<u8, u8> = HashMap::new(); x.unwrap(); }
}
"##;
        assert!(lint_str("crates/core/src/shard.rs", "core", src).is_empty());
    }

    #[test]
    fn wall_clock_banned_unless_allowed() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let hits = lint_str("crates/bench/src/bin/x.rs", "bench", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RULE_WALL_CLOCK);
        // No path is exempt; an explicit allow on the line is the only escape.
        let allowed = "fn f() { let t = std::time::Instant::now(); } // lint:allow(wall-clock)\n";
        assert!(lint_str("crates/bench/src/bin/x.rs", "bench", allowed).is_empty());
        // `Instant` without `::now` (e.g. a type annotation) is fine.
        let decl = "fn g(t: Instant) {}\n";
        assert!(lint_str("crates/core/src/x.rs", "core", decl).is_empty());
    }

    #[test]
    fn hot_path_panic_flagged_and_allowable() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }\n";
        let hits = lint_str("crates/netsim/src/engine.rs", "netsim", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RULE_HOT_PATH_PANIC);
        assert_eq!(lint_str("crates/netsim/src/queue.rs", "netsim", src).len(), 1);
        assert_eq!(lint_str("crates/netsim/src/schedule.rs", "netsim", src).len(), 1);
        // The per-hop routing lookup is on the packet path too, and so are
        // the header operations every hop and device applies.
        assert_eq!(lint_str("crates/topology/src/routing.rs", "topology", src).len(), 1);
        assert_eq!(lint_str("crates/netsim/src/packet.rs", "netsim", src).len(), 1);
        // Same code outside the hot path: no finding.
        assert!(lint_str("crates/netsim/src/addr.rs", "netsim", src).is_empty());
        // Suppressed on the preceding line.
        let allowed = "// lint:allow(hot-path-panic)\nfn f(x: Option<u8>) { x.unwrap(); }\n";
        assert!(lint_str("crates/netsim/src/engine.rs", "netsim", allowed).is_empty());
        // Suppressed on the same line.
        let inline = "fn f(x: Option<u8>) { x.expect(\"y\"); } // lint:allow(hot-path-panic)\n";
        assert!(lint_str("crates/netsim/src/engine.rs", "netsim", inline).is_empty());
    }

    #[test]
    fn set_iteration_order_banned_in_diagnostic_crates_only() {
        let src = "use std::collections::HashSet;\n\
fn f() { let s: HashSet<u32> = HashSet::new(); let t = FxHashSet::default(); }\n";
        let hits = lint_str("crates/verify/src/reach.rs", "verify", src);
        assert_eq!(hits.len(), 4, "{hits:?}");
        assert!(hits.iter().all(|v| v.rule == RULE_SET_ORDER));
        // Outside the diagnostic crates FxHashSet stays legal (and bare
        // HashSet is the default-hasher rule's business, not this one's).
        let hits = lint_str("crates/core/src/x.rs", "core", "fn f(s: FxHashSet<u8>) {}\n");
        assert!(hits.is_empty(), "{hits:?}");
        let hits = lint_str("crates/core/src/x.rs", "core", "fn f(s: HashSet<u8>) {}\n");
        assert!(hits.iter().all(|v| v.rule == RULE_DEFAULT_HASHER), "{hits:?}");
        // BTreeSet is the sanctioned container.
        let hits = lint_str("crates/verify/src/reach.rs", "verify", "fn f(s: BTreeSet<u8>) {}\n");
        assert!(hits.is_empty(), "{hits:?}");
        // lint:allow suppresses.
        let src = "fn f() { let s: FxHashSet<u8> = x; } // lint:allow(set-iteration-order)\n";
        assert!(lint_str("crates/verify/src/x.rs", "verify", src).is_empty());
    }

    #[test]
    fn per_flow_map_flagged_in_data_plane() {
        let src = "fn f() { let m: FxHashMap<FiveTuple, u64> = FxHashMap::default(); }\n";
        let hits = lint_str("crates/core/src/x.rs", "core", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, RULE_PER_FLOW_MAP);
        // path-qualified key also caught
        let qualified = "struct S { m: FxHashMap<sdm_netsim::FiveTuple, u64> }\n";
        let hits = lint_str("crates/policy/src/x.rs", "policy", qualified);
        assert_eq!(hits.len(), 1, "{hits:?}");
        // other keys are fine, and so is the bench crate
        let other = "fn f(m: FxHashMap<u32, FiveTuple>) {}\n";
        assert!(lint_str("crates/core/src/x.rs", "core", other).is_empty());
        assert!(lint_str("crates/bench/src/x.rs", "bench", src).is_empty());
        // suppressible in place
        let allowed =
            "// lint:allow(per-flow-map)\nfn f(m: FxHashMap<FiveTuple, u64>) {}\n";
        assert!(lint_str("crates/core/src/x.rs", "core", allowed).is_empty());
    }

    #[test]
    fn unsafe_keyword_flagged_everywhere() {
        let src = "fn f() { let p = 0u8; let _ = p; }\nfn g() { unsafe { } }\n";
        let hits = lint_str("crates/lp/src/x.rs", "lp", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RULE_UNSAFE_CODE);
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn lifetimes_and_char_literals_do_not_derail() {
        let src = "fn f<'a>(x: &'a str) -> char { let c = 'u'; let d = '\\n'; c }\n\
fn g() { let _m: HashMap<u8, u8>; }\n";
        let hits = lint_str("crates/core/src/x.rs", "core", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn doc_paths_must_exist() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let text = "see `crates/verify/src/lint.rs`, `verify/src/plan.rs` and `ci.sh`;\n\
                    `results/no_such_golden.txt` is gone, `a/b` and `cargo run x/y.rs` are not paths\n\
                    `SDM_SHARDS` and `V015` are symbols, `OLD_BUDGET` is gone, `A`, `Ab_C` are not\n\
                    `Controller`, `Controller::run_sharded()` and `Shard::record_*` are symbols\n\
                    `RetiredMode` is gone, `Controller::retired_setter` is gone, `a::b c` is not a symbol\n\
                    `tests/cli.rs::help_prints_usage` names a test, `tests/cli.rs::no_such_test` is gone\n";
        let names = "SDM_SHARDS V015 Controller run_sharded Shard record_hit";
        let symbols: BTreeSet<String> = words(names).map(str::to_string).collect();
        let mut v = Vec::new();
        lint_doc_paths(&root, "README.md", text, &symbols, &mut v);
        assert!(v.iter().all(|v| v.rule == RULE_DOC_PATH), "{v:?}");
        let found = v.iter().map(|v| format!("{}: {}", v.line, v.detail));
        assert_eq!(
            found.collect::<Vec<_>>(),
            [
                "2: `results/no_such_golden.txt` names a file that does not exist",
                "3: `OLD_BUDGET` names a symbol no scanned source contains",
                "5: `RetiredMode` names a symbol no scanned source contains",
                "5: `Controller::retired_setter` names a symbol no scanned source contains",
                "6: `tests/cli.rs::no_such_test`: `no_such_test` is not a word of tests/cli.rs",
            ]
        );
    }

    #[test]
    fn workspace_scan_runs_on_real_tree() {
        // The real workspace must lint clean — this is the same invariant
        // ci.sh enforces via the sdm-lint bin.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let violations = lint_workspace(&LintConfig::new(&root)).expect("scan");
        assert!(
            violations.is_empty(),
            "workspace must lint clean:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
