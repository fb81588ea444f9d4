//! Repo lint: the static companion to the `persist-san` runtime sanitizer.
//!
//! `cargo run -p xtask -- lint` walks every `.rs` file in the repo (vendored
//! shims excluded) through a comment- and string-aware token scanner and
//! enforces three rules:
//!
//! * **safety-comment** — every `unsafe` keyword (block, fn, impl) must have
//!   a `// SAFETY:` comment (or a `# Safety` doc section) within the five
//!   preceding lines.
//! * **raw-write** — raw memory writes that can touch pool memory
//!   (`ptr::write*`, `copy_nonoverlapping`, `write_volatile`) bypass the
//!   sanitizer's tracked write path and are allowed only inside the module
//!   allowlist below.
//! * **flush-no-fence** — a function that issues `clwb`/`clwb_range` but
//!   never reaches an `sfence` (or `persist_range`, which fences) leaves
//!   lines parked in the flushed-unfenced state; legitimate deferrals (the
//!   buffered-persistence drains whose fence is the epoch boundary) must say
//!   so.
//! * **ord-justify** — inside the model-checked protocol core
//!   (`crates/montage`, `crates/montage-ds`), every non-SeqCst
//!   `Ordering::{Relaxed, Acquire, Release, AcqRel}` must carry an
//!   `// ord(<rule>): reason` comment within the six preceding lines, naming
//!   the edge it implements. SeqCst needs no tag (it is the
//!   strongest-by-default choice); test modules are skipped.
//! * **atomic-import** — `std::sync::atomic` may not be named outside the
//!   pool/allocator internals, the checker, and the `montage::sync` facade:
//!   protocol atomics must come from `montage::sync` (so the `interleave`
//!   checker can instrument them) and bookkeeping counters from
//!   `montage::sync::uninstrumented` (so the exemption is explicit at the
//!   import site).
//!
//! Any finding can be waived in place with
//! `// lint: allow(<rule>): <reason>` on the flagged line or up to two lines
//! above — but the reason is mandatory; a bare allow is itself a violation,
//! so the audit trail stays complete.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Directories never scanned: vendored dependency shims (external API
/// subsets, not our persistence code) and build/VCS output.
const SKIP_DIRS: &[&str] = &["shims", "target", ".git"];

/// Modules allowed to issue raw writes, with the reason on record.
/// Everything else must go through the tracked `PmemPool` write path (or
/// carry a reasoned `lint: allow`).
const RAW_WRITE_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/pmem/src/",
        "the pool implementation IS the tracked write path; its raw copies \
         (crash images, snapshot load) deliberately bypass shadow tracking",
    ),
    (
        "crates/ralloc/src/",
        "allocator metadata initialization precedes any tracked content and \
         is re-validated by the recovery sweep",
    ),
];

/// Modules exempt from the flush-no-fence rule: the flush primitives
/// themselves live here, so `clwb` without a local fence is their job.
const FLUSH_RULE_EXEMPT: &[&str] = &["crates/pmem/src/"];

/// Files the ord-justify rule covers: the lock-free protocol core the
/// `interleave` harnesses model-check. Everything above it (servers, kv
/// engines) keeps its atomics behind `montage::sync::uninstrumented`, and
/// everything below it (pool, allocator) has no cross-thread protocol to
/// justify.
const ORD_JUSTIFY_SCOPE: &[&str] = &["crates/montage/src/", "crates/montage-ds/src/"];

/// The facade itself is exempt from ord-justify: its `Ordering` mentions
/// map orderings between the real and checked worlds — plumbing, not
/// protocol decisions.
const ORD_JUSTIFY_EXEMPT: &[&str] = &["crates/montage/src/sync.rs"];

/// Modules allowed to name `std::sync::atomic` directly, with the reason on
/// record. Everything else routes protocol atomics through `montage::sync`
/// (instrumentable by the `interleave` checker) and bookkeeping counters
/// through `montage::sync::uninstrumented`.
const ATOMIC_IMPORT_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/pmem/src/",
        "the pool sits below the facade; its atomics guard mapping metadata, \
         not the model-checked protocol",
    ),
    (
        "crates/ralloc/src/",
        "the allocator sits below montage in the dependency graph and cannot \
         import the facade without a cycle",
    ),
    (
        "crates/interleave/",
        "the checker implements the instrumented atomics — it wraps std, it \
         cannot route through itself",
    ),
    (
        "crates/montage/src/sync.rs",
        "the facade is the sanctioned wrapper; this is where std atomics are \
         adapted",
    ),
    (
        "crates/baselines/",
        "reference implementations we benchmark against, deliberately not \
         threaded through the facade",
    ),
    (
        "crates/bench/",
        "measurement harness; its counters must never become schedule points",
    ),
    (
        "perfbench/",
        "measurement harness; its counters must never become schedule points",
    ),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rule {
    SafetyComment,
    RawWrite,
    FlushNoFence,
    OrdJustify,
    AtomicImport,
}

impl Rule {
    fn name(self) -> &'static str {
        match self {
            Rule::SafetyComment => "safety-comment",
            Rule::RawWrite => "raw-write",
            Rule::FlushNoFence => "flush-no-fence",
            Rule::OrdJustify => "ord-justify",
            Rule::AtomicImport => "atomic-import",
        }
    }
}

#[derive(Debug)]
struct Violation {
    file: String,
    /// 1-based.
    line: usize,
    rule: Rule,
    msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            self.msg
        )
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(),
        Some("bench-diff") => bench_diff::run(&args[1..]),
        _ => {
            eprintln!("usage: cargo run -p xtask -- <lint | bench-diff>");
            ExitCode::from(2)
        }
    }
}

fn run_lint() -> ExitCode {
    let root = repo_root();
    let mut files = Vec::new();
    collect_rs_files(&root, &root, &mut files);
    files.sort();

    let mut violations = Vec::new();
    for rel in &files {
        let src = match std::fs::read_to_string(root.join(rel)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xtask: cannot read {}: {e}", rel.display());
                return ExitCode::FAILURE;
            }
        };
        let rel = rel.to_string_lossy().replace('\\', "/");
        violations.extend(lint_source(&rel, &src));
    }

    for v in &violations {
        println!("{v}");
    }
    let count = |r: Rule| violations.iter().filter(|v| v.rule == r).count();
    println!(
        "xtask lint: {} file(s), {} violation(s) \
         (safety-comment {}, raw-write {}, flush-no-fence {}, \
         ord-justify {}, atomic-import {})",
        files.len(),
        violations.len(),
        count(Rule::SafetyComment),
        count(Rule::RawWrite),
        count(Rule::FlushNoFence),
        count(Rule::OrdJustify),
        count(Rule::AtomicImport),
    );
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workspace root: `xtask` runs from anywhere inside the repo via
/// `CARGO_MANIFEST_DIR` (two levels under the root).
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scanner: blank out comments and string/char literals, preserving the line
// structure, so the rule checks below never match inside either.
// ---------------------------------------------------------------------------

fn strip_code(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;

    // Pushes `c` as-is if it is a newline (line structure!), else a space.
    fn blank(out: &mut String, c: char) {
        out.push(if c == '\n' { '\n' } else { ' ' });
    }

    while i < n {
        let c = b[i];
        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            while i < n && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nesting per Rust).
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 1usize;
            out.push_str("  ");
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                } else {
                    blank(&mut out, b[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Raw (byte) string: r"..." / r#"..."# / br#"..."#.
        if c == 'r' || (c == 'b' && i + 1 < n && b[i + 1] == 'r') {
            let mut j = i + if c == 'b' { 2 } else { 1 };
            let mut hashes = 0usize;
            while j < n && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < n && b[j] == '"' {
                for _ in i..=j {
                    out.push(' ');
                }
                i = j + 1;
                // Scan to `"` followed by `hashes` hashes.
                'raw: while i < n {
                    if b[i] == '"' {
                        let mut k = 0;
                        while k < hashes && i + 1 + k < n && b[i + 1 + k] == '#' {
                            k += 1;
                        }
                        if k == hashes {
                            for _ in 0..=hashes {
                                out.push(' ');
                            }
                            i += 1 + hashes;
                            break 'raw;
                        }
                    }
                    blank(&mut out, b[i]);
                    i += 1;
                }
                continue;
            }
        }
        // Plain (byte) string.
        if c == '"' || (c == 'b' && i + 1 < n && b[i + 1] == '"') {
            if c == 'b' {
                out.push(' ');
                i += 1;
            }
            out.push(' ');
            i += 1;
            while i < n {
                if b[i] == '\\' && i + 1 < n {
                    blank(&mut out, b[i]);
                    blank(&mut out, b[i + 1]);
                    i += 2;
                    continue;
                }
                if b[i] == '"' {
                    out.push(' ');
                    i += 1;
                    break;
                }
                blank(&mut out, b[i]);
                i += 1;
            }
            continue;
        }
        // Char literal vs lifetime: a quote starts a char literal only when
        // it closes as one (`'x'`, `'\n'`, `'\u{1F600}'`).
        if c == '\'' {
            if i + 1 < n && b[i + 1] == '\\' {
                out.push(' ');
                i += 1;
                while i < n && b[i] != '\'' {
                    blank(&mut out, b[i]);
                    i += 1;
                }
                if i < n {
                    out.push(' ');
                    i += 1;
                }
                continue;
            }
            if i + 2 < n && b[i + 2] == '\'' && b[i + 1] != '\'' {
                out.push_str("   ");
                i += 3;
                continue;
            }
            // Lifetime: fall through verbatim.
        }
        out.push(c);
        i += 1;
    }
    out
}

/// Whole-word occurrence of `word` in `line` (identifier-boundary on both
/// sides).
fn has_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let ok_before = start == 0 || !is_ident(bytes[start - 1]);
        let ok_after = end >= bytes.len() || !is_ident(bytes[end]);
        if ok_before && ok_after {
            return true;
        }
        from = end;
    }
    false
}

/// `pattern(` preceded by a non-identifier char (so `on_clwb(` does not
/// match `clwb(`).
fn has_call(text: &str, callee: &str) -> bool {
    let needle = format!("{callee}(");
    let bytes = text.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0;
    while let Some(pos) = text[from..].find(&needle) {
        let start = from + pos;
        if start == 0 || !is_ident(bytes[start - 1]) {
            return true;
        }
        from = start + needle.len();
    }
    false
}

/// Outcome of looking for a `// lint: allow(rule): reason` waiver near
/// `line_idx` (that raw line and up to two above).
enum Waiver {
    None,
    Explained,
    /// An allow without a reason — flagged itself.
    Unexplained(usize),
}

fn waiver(raw_lines: &[&str], line_idx: usize, rule: Rule) -> Waiver {
    let marker = format!("lint: allow({})", rule.name());
    let lo = line_idx.saturating_sub(2);
    for (i, raw) in raw_lines.iter().enumerate().take(line_idx + 1).skip(lo) {
        let Some(pos) = raw.find(&marker) else {
            continue;
        };
        let rest = raw[pos + marker.len()..].trim_start();
        let reason = rest.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            return Waiver::Unexplained(i);
        }
        return Waiver::Explained;
    }
    Waiver::None
}

// ---------------------------------------------------------------------------
// The rules.
// ---------------------------------------------------------------------------

fn lint_source(rel_path: &str, src: &str) -> Vec<Violation> {
    let code = strip_code(src);
    let code_lines: Vec<&str> = code.lines().collect();
    let raw_lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();

    check_safety_comments(rel_path, &code_lines, &raw_lines, &mut out);
    check_raw_writes(rel_path, &code_lines, &raw_lines, &mut out);
    check_flush_fences(rel_path, &code_lines, &raw_lines, &mut out);
    check_ord_justify(rel_path, &code_lines, &raw_lines, &mut out);
    check_atomic_imports(rel_path, &code_lines, &raw_lines, &mut out);
    out
}

fn push_checked(
    out: &mut Vec<Violation>,
    raw_lines: &[&str],
    file: &str,
    line_idx: usize,
    rule: Rule,
    msg: String,
) {
    match waiver(raw_lines, line_idx, rule) {
        Waiver::Explained => {}
        Waiver::None => out.push(Violation {
            file: file.to_string(),
            line: line_idx + 1,
            rule,
            msg,
        }),
        Waiver::Unexplained(i) => out.push(Violation {
            file: file.to_string(),
            line: i + 1,
            rule,
            msg: format!(
                "`lint: allow({})` without a reason — write one after the colon",
                rule.name()
            ),
        }),
    }
}

/// Rule 1: `unsafe` needs a `SAFETY:` comment (or `# Safety` doc section)
/// within the five preceding lines.
fn check_safety_comments(
    file: &str,
    code_lines: &[&str],
    raw_lines: &[&str],
    out: &mut Vec<Violation>,
) {
    for (i, line) in code_lines.iter().enumerate() {
        if !has_word(line, "unsafe") {
            continue;
        }
        let lo = i.saturating_sub(5);
        let covered = raw_lines[lo..=i.min(raw_lines.len() - 1)]
            .iter()
            .any(|r| r.contains("SAFETY:") || r.contains("# Safety"));
        if covered {
            continue;
        }
        push_checked(
            out,
            raw_lines,
            file,
            i,
            Rule::SafetyComment,
            "`unsafe` without a `// SAFETY:` comment within the 5 preceding lines".to_string(),
        );
    }
}

/// Rule 2: raw writes that bypass the tracked pool write path.
fn check_raw_writes(file: &str, code_lines: &[&str], raw_lines: &[&str], out: &mut Vec<Violation>) {
    if RAW_WRITE_ALLOWLIST
        .iter()
        .any(|(prefix, _reason)| file.starts_with(prefix))
    {
        return;
    }
    const PATTERNS: &[&str] = &["ptr::write", "copy_nonoverlapping", "write_volatile"];
    for (i, line) in code_lines.iter().enumerate() {
        let Some(pat) = PATTERNS.iter().find(|p| line.contains(*p)) else {
            continue;
        };
        push_checked(
            out,
            raw_lines,
            file,
            i,
            Rule::RawWrite,
            format!(
                "raw write (`{pat}`) outside the allowlisted pool/allocator \
                 internals bypasses tracked persistence"
            ),
        );
    }
}

/// Rule 3: a function body that flushes (`clwb`) but never fences.
fn check_flush_fences(
    file: &str,
    code_lines: &[&str],
    raw_lines: &[&str],
    out: &mut Vec<Violation>,
) {
    if FLUSH_RULE_EXEMPT.iter().any(|p| file.starts_with(p)) {
        return;
    }
    for func in function_bodies(code_lines) {
        let body = func.body_text(code_lines);
        let flushes = has_call(&body, "clwb") || has_call(&body, "clwb_range");
        if !flushes {
            continue;
        }
        let fences = has_call(&body, "sfence")
            || has_call(&body, "persist_range")
            || has_call(&body, "flush_era");
        if fences {
            continue;
        }
        // Anchor the finding on the first flushing line; accept a waiver
        // there or at the function head.
        let flush_line = (func.body_start..=func.body_end)
            .find(|&i| has_call(code_lines[i], "clwb") || has_call(code_lines[i], "clwb_range"))
            .unwrap_or(func.fn_line);
        if matches!(
            waiver(raw_lines, func.fn_line, Rule::FlushNoFence),
            Waiver::Explained
        ) {
            continue;
        }
        push_checked(
            out,
            raw_lines,
            file,
            flush_line,
            Rule::FlushNoFence,
            "function issues clwb but never reaches an sfence; if the fence \
             is deferred by design (epoch boundary), say so with \
             `lint: allow(flush-no-fence): <reason>`"
                .to_string(),
        );
    }
}

/// Line index of the file's first `#[cfg(test)]` attribute (in stripped
/// code, so a mention inside a comment or string does not count), or the
/// line count if there is none. By repo convention the test module is the
/// file's tail; the ordering rules stop there — a test's atomics are
/// scaffolding, not protocol edges.
fn cfg_test_tail(code_lines: &[&str]) -> usize {
    code_lines
        .iter()
        .position(|l| l.contains("#[cfg(test)]"))
        .unwrap_or(code_lines.len())
}

/// True when the path has a `tests/`, `benches/`, or `examples/` component —
/// integration scaffolding the in-source ordering rules do not police.
fn is_test_path(file: &str) -> bool {
    file.split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

/// Rule 4: a non-SeqCst ordering in the protocol core must say which edge it
/// implements — `// ord(<rule>): reason` on the line or within the six
/// above. SeqCst is exempt: it is the strongest-by-default choice, so only
/// deliberate weakenings carry a justification burden.
fn check_ord_justify(
    file: &str,
    code_lines: &[&str],
    raw_lines: &[&str],
    out: &mut Vec<Violation>,
) {
    if !ORD_JUSTIFY_SCOPE.iter().any(|p| file.starts_with(p))
        || ORD_JUSTIFY_EXEMPT.iter().any(|p| file.starts_with(p))
        || is_test_path(file)
    {
        return;
    }
    const WEAK: &[&str] = &[
        "Ordering::Relaxed",
        "Ordering::Acquire",
        "Ordering::Release",
        "Ordering::AcqRel",
    ];
    let tail = cfg_test_tail(code_lines);
    for (i, line) in code_lines.iter().enumerate().take(tail) {
        let Some(ord) = WEAK.iter().find(|o| has_word(line, o)) else {
            continue;
        };
        let lo = i.saturating_sub(6);
        let justified = raw_lines[lo..=i.min(raw_lines.len() - 1)]
            .iter()
            .any(|r| has_call(r, "ord"));
        if justified {
            continue;
        }
        push_checked(
            out,
            raw_lines,
            file,
            i,
            Rule::OrdJustify,
            format!(
                "`{ord}` on a protocol atomic without an `// ord(<rule>): \
                 reason` comment within the 6 preceding lines"
            ),
        );
    }
}

/// Rule 5: `std::sync::atomic` named outside the allowlist. Any mention
/// counts, not just `use` lines, so an inline
/// `std::sync::atomic::AtomicU64::new(0)` cannot dodge the rule.
fn check_atomic_imports(
    file: &str,
    code_lines: &[&str],
    raw_lines: &[&str],
    out: &mut Vec<Violation>,
) {
    if ATOMIC_IMPORT_ALLOWLIST
        .iter()
        .any(|(prefix, _reason)| file.starts_with(prefix))
        || is_test_path(file)
    {
        return;
    }
    let tail = cfg_test_tail(code_lines);
    for (i, line) in code_lines.iter().enumerate().take(tail) {
        if !line.contains("std::sync::atomic") {
            continue;
        }
        push_checked(
            out,
            raw_lines,
            file,
            i,
            Rule::AtomicImport,
            "`std::sync::atomic` outside the facade: protocol atomics come \
             from `montage::sync` (checker-instrumentable), bookkeeping \
             counters from `montage::sync::uninstrumented`"
                .to_string(),
        );
    }
}

struct FnSpan {
    /// Line of the `fn` keyword (0-based).
    fn_line: usize,
    /// First and last line of the `{}` body (0-based, inclusive).
    body_start: usize,
    body_end: usize,
}

impl FnSpan {
    fn body_text(&self, code_lines: &[&str]) -> String {
        code_lines[self.body_start..=self.body_end].join("\n")
    }
}

/// Brace-matched `fn` bodies in the stripped source. Trait-method
/// declarations (ending in `;` before any `{`) are skipped. Nested items
/// are reported both on their own and as part of their enclosing function —
/// good enough for a per-function flush/fence check.
fn function_bodies(code_lines: &[&str]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    let joined: Vec<(usize, char)> = code_lines
        .iter()
        .enumerate()
        .flat_map(|(i, l)| l.chars().map(move |c| (i, c)).chain([(i, '\n')]))
        .collect();
    let text: String = joined.iter().map(|&(_, c)| c).collect();
    let bytes = text.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';

    let mut from = 0;
    while let Some(pos) = text[from..].find("fn ") {
        let start = from + pos;
        from = start + 3;
        if start > 0 && is_ident(bytes[start - 1]) {
            continue;
        }
        let fn_line = joined[start].0;
        // Find the body opener, giving up at a `;` (declaration).
        let mut j = start + 3;
        let mut open = None;
        while j < bytes.len() {
            match bytes[j] {
                b'{' => {
                    open = Some(j);
                    break;
                }
                b';' => break,
                _ => j += 1,
            }
        }
        let Some(open) = open else { continue };
        let mut depth = 0usize;
        let mut close = None;
        for (k, &b) in bytes.iter().enumerate().skip(open) {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(k);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(close) = close else { continue };
        spans.push(FnSpan {
            fn_line,
            body_start: joined[open].0,
            body_end: joined[close].0,
        });
    }
    spans
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Violation> {
        lint_source(path, src)
    }

    #[test]
    fn scanner_blanks_comments_and_strings() {
        let src = "let a = \"unsafe {\"; // unsafe here too\nlet b = 'x';\n/* unsafe */ let c = r#\"clwb(\"#;\n";
        let code = strip_code(src);
        assert!(!code.contains("unsafe"));
        assert!(!code.contains("clwb"));
        assert_eq!(code.lines().count(), src.lines().count());
    }

    #[test]
    fn scanner_keeps_lifetimes_and_code() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { unsafe { g(x) } }\n";
        let code = strip_code(src);
        assert!(code.contains("unsafe"));
        assert!(code.contains("'a"));
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let v = lint(
            "crates/demo/src/lib.rs",
            "fn f() {\n    unsafe { g() }\n}\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::SafetyComment);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn safety_comment_within_five_lines_covers() {
        let src = "fn f() {\n    // SAFETY: g is fine here\n    unsafe { g() }\n}\n";
        assert!(lint("crates/demo/src/lib.rs", src).is_empty());
        let doc = "/// # Safety\n/// Caller checks x.\nunsafe fn f(x: u8) {}\n";
        assert!(lint("crates/demo/src/lib.rs", doc).is_empty());
    }

    #[test]
    fn commented_out_unsafe_is_ignored() {
        let src = "fn f() {\n    // unsafe { g() }\n    let s = \"unsafe\";\n}\n";
        assert!(lint("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn raw_write_outside_allowlist_is_flagged() {
        let src = "// SAFETY: raw copy\nunsafe { std::ptr::copy_nonoverlapping(a, b, 8); }\n";
        let v = lint("crates/demo/src/lib.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::RawWrite);
    }

    #[test]
    fn raw_write_in_pool_internals_is_allowed() {
        let src = "// SAFETY: image copy\nunsafe { std::ptr::copy_nonoverlapping(a, b, 8); }\n";
        assert!(lint("crates/pmem/src/pool.rs", src).is_empty());
        assert!(lint("crates/ralloc/src/alloc.rs", src).is_empty());
    }

    #[test]
    fn reasoned_allow_waives_and_bare_allow_is_flagged() {
        let ok = "// lint: allow(raw-write): shadow-tracked via san_mark_dirty\n// SAFETY: x\nunsafe { std::ptr::copy_nonoverlapping(a, b, 8); }\n";
        assert!(lint("crates/demo/src/lib.rs", ok).is_empty());
        let bare = "// lint: allow(raw-write)\n// SAFETY: x\nunsafe { std::ptr::copy_nonoverlapping(a, b, 8); }\n";
        let v = lint("crates/demo/src/lib.rs", bare);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("without a reason"));
    }

    #[test]
    fn clwb_without_fence_is_flagged() {
        let src = "fn f(p: &Pool) {\n    p.clwb(off);\n}\n";
        let v = lint("crates/demo/src/lib.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::FlushNoFence);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn clwb_reaching_a_fence_is_clean() {
        for fence in ["p.sfence();", "p.persist_range(o, 8);"] {
            let src = format!("fn f(p: &Pool) {{\n    p.clwb_range(o, 64);\n    {fence}\n}}\n");
            assert!(lint("crates/demo/src/lib.rs", &src).is_empty(), "{fence}");
        }
    }

    #[test]
    fn deferred_fence_allow_waives_flush_rule() {
        let src = "// lint: allow(flush-no-fence): fence happens at the epoch boundary\nfn f(p: &Pool) {\n    p.clwb(off);\n}\n";
        assert!(lint("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn on_clwb_is_not_a_clwb_call() {
        let src = "fn f(s: &San) {\n    s.on_clwb(1, 2, 3, loc);\n}\n";
        assert!(lint("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn weak_ordering_without_ord_comment_is_flagged() {
        let src = "fn f(a: &AtomicU64) -> u64 {\n    a.load(Ordering::Acquire)\n}\n";
        let v = lint("crates/montage/src/demo.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::OrdJustify);
        assert_eq!(v[0].line, 2);
        // Outside the protocol core the same code is fine.
        assert!(lint("crates/kvstore/src/demo.rs", src).is_empty());
    }

    #[test]
    fn ord_comment_within_six_lines_justifies() {
        let src = "fn f(a: &AtomicU64) -> u64 {\n    // ord(acquire): pairs with the publish in g\n    a.load(Ordering::Acquire)\n}\n";
        assert!(lint("crates/montage/src/demo.rs", src).is_empty());
        // `word(` is not an `ord(` tag.
        let sly = "fn f(a: &AtomicU64) -> u64 {\n    // keyword(acquire) chatter\n    a.load(Ordering::Acquire)\n}\n";
        assert_eq!(lint("crates/montage/src/demo.rs", sly).len(), 1);
    }

    #[test]
    fn seqcst_and_test_modules_need_no_ord_comment() {
        let src = "fn f(a: &AtomicU64) {\n    a.store(1, Ordering::SeqCst);\n}\n#[cfg(test)]\nmod tests {\n    fn g(a: &AtomicU64) -> u64 {\n        a.load(Ordering::Relaxed)\n    }\n}\n";
        assert!(lint("crates/montage/src/demo.rs", src).is_empty());
    }

    #[test]
    fn facade_is_exempt_from_ord_justify() {
        let src = "fn f(a: &AtomicU64) -> u64 {\n    a.load(Ordering::Acquire)\n}\n";
        assert!(lint("crates/montage/src/sync.rs", src)
            .iter()
            .all(|v| v.rule != Rule::OrdJustify));
    }

    #[test]
    fn std_atomic_outside_facade_is_flagged() {
        let import = "use std::sync::atomic::{AtomicU64, Ordering};\n";
        let v = lint("crates/kvstore/src/demo.rs", import);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::AtomicImport);
        // Inline qualified paths cannot dodge the rule.
        let inline = "fn f() { let _ = std::sync::atomic::AtomicU64::new(0); }\n";
        assert_eq!(lint("crates/kvserver/src/demo.rs", inline).len(), 1);
    }

    #[test]
    fn std_atomic_allowlist_and_test_tails_pass() {
        let import = "use std::sync::atomic::{AtomicU64, Ordering};\n";
        for ok in [
            "crates/pmem/src/pool.rs",
            "crates/ralloc/src/alloc.rs",
            "crates/interleave/src/sync.rs",
            "crates/montage/src/sync.rs",
            "crates/baselines/src/lib.rs",
            "crates/kvserver/tests/wire.rs",
            "tests/liveness.rs",
        ] {
            assert!(lint(ok, import).is_empty(), "{ok}");
        }
        let tail =
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::sync::atomic::AtomicU64;\n}\n";
        assert!(lint("crates/kvstore/src/demo.rs", tail).is_empty());
        // A comment mentioning the path is not an import.
        let comment = "// std::sync::atomic is banned here\nfn f() {}\n";
        assert!(lint("crates/kvstore/src/demo.rs", comment).is_empty());
    }

    #[test]
    fn atomic_import_waiver_needs_a_reason() {
        let ok = "// lint: allow(atomic-import): FFI type layout requires the std atomic\nuse std::sync::atomic::AtomicU64;\n";
        assert!(lint("crates/kvstore/src/demo.rs", ok).is_empty());
        let bare = "// lint: allow(atomic-import)\nuse std::sync::atomic::AtomicU64;\n";
        let v = lint("crates/kvstore/src/demo.rs", bare);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("without a reason"));
    }
}

/// `bench-diff`: the benchmark regression gate.
///
/// Compares a fresh `BENCH_<figure>.json` (written by the bench binaries;
/// see `montage_bench::report::JsonReport`) against the checked-in baseline
/// under `benches/baselines/`, and fails when a **gated** metric regressed
/// by more than its threshold. Gated metrics are the run's headline plus
/// any listed for the figure in `benches/baselines/manifest.txt` — lines of
/// `<figure> <slug> [threshold_pct]`, `#` comments. Other metrics are
/// reported but never gate — on a noisy shared box only the metrics a
/// change is *about* are stable enough to block on, and the manifest is
/// where a figure declares which those are (ops/s *and* tail latency).
///
/// The parser below handles exactly the subset of JSON that
/// `JsonReport::render` emits (string fields, a flat `"metrics"` object of
/// slug → number) — hand-rolled because the workspace builds offline with
/// no JSON dependency.
mod bench_diff {
    use std::path::PathBuf;
    use std::process::ExitCode;

    pub fn run(args: &[String]) -> ExitCode {
        let mut new_path: Option<PathBuf> = None;
        let mut baseline_path: Option<PathBuf> = None;
        let mut manifest_path: Option<PathBuf> = None;
        let mut threshold_pct: f64 = 15.0;
        let mut report_only = false;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--baseline" => match it.next() {
                    Some(p) => baseline_path = Some(p.into()),
                    None => return usage("--baseline needs a path"),
                },
                "--manifest" => match it.next() {
                    Some(p) => manifest_path = Some(p.into()),
                    None => return usage("--manifest needs a path"),
                },
                "--threshold" => match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) => threshold_pct = v,
                    None => return usage("--threshold needs a percentage"),
                },
                "--report-only" => report_only = true,
                p if new_path.is_none() && !p.starts_with('-') => new_path = Some(p.into()),
                other => return usage(&format!("unknown argument {other:?}")),
            }
        }
        let Some(new_path) = new_path else {
            return usage("missing the new results file");
        };

        let new = match Report::load(&new_path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("bench-diff: cannot read {}: {e}", new_path.display());
                return ExitCode::FAILURE;
            }
        };
        let baseline_path = baseline_path.unwrap_or_else(|| {
            super::repo_root()
                .join("benches/baselines")
                .join(format!("BENCH_{}.json", new.figure))
        });
        let base = match Report::load(&baseline_path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!(
                    "bench-diff: no baseline at {} ({e}); nothing to gate against",
                    baseline_path.display()
                );
                return ExitCode::SUCCESS;
            }
        };

        let manifest_path = manifest_path
            .unwrap_or_else(|| super::repo_root().join("benches/baselines/manifest.txt"));
        let gates = match std::fs::read_to_string(&manifest_path) {
            Ok(src) => match parse_manifest(&src) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("bench-diff: {}: {e}", manifest_path.display());
                    return ExitCode::FAILURE;
                }
            },
            // No manifest is fine: the headline still gates.
            Err(_) => Vec::new(),
        };
        let figure_gates: Vec<&Gate> = gates.iter().filter(|g| g.figure == new.figure).collect();

        println!(
            "bench-diff: {} vs baseline {}",
            new_path.display(),
            baseline_path.display()
        );
        let mut regressions: Vec<String> = Vec::new();
        let mut compared = 0usize;
        for (slug, new_v) in &new.metrics {
            let manifest_gate = figure_gates.iter().find(|g| &g.slug == slug);
            let is_headline = *slug == new.headline;
            let Some(base_v) = base.metrics.get(slug) else {
                if is_headline || manifest_gate.is_some() {
                    // A gate with no baseline can't block, but say so out
                    // loud — a silently un-gated metric looks gated.
                    println!("  {slug}: gated but absent from baseline, skipping");
                }
                continue;
            };
            compared += 1;
            // All gated slugs are throughput-or-latency; higher is better
            // for *_ops_per_sec, lower for *_us. Express both as "regression
            // percent" so one threshold covers them.
            let higher_better = slug.ends_with("_ops_per_sec");
            let delta_pct = if higher_better {
                (base_v - new_v) / base_v * 100.0
            } else {
                (new_v - base_v) / base_v * 100.0
            };
            let gate_pct = manifest_gate
                .and_then(|g| g.threshold_pct)
                .unwrap_or(threshold_pct);
            let gated = is_headline || manifest_gate.is_some();
            let flag = if gated && delta_pct > gate_pct {
                regressions.push(format!("{slug} ({delta_pct:+.1}% past {gate_pct}%)"));
                " REGRESSED"
            } else {
                ""
            };
            if gated || flag == " REGRESSED" {
                println!(
                    "  {}{}: {:.1} -> {:.1} ({:+.1}%, gate {gate_pct}%){flag}",
                    if is_headline { "[headline] " } else { "" },
                    slug,
                    base_v,
                    new_v,
                    -delta_pct * if higher_better { 1.0 } else { -1.0 },
                );
            }
        }
        // A manifest entry naming a slug the run no longer emits is a gate
        // that quietly stopped existing — fail it like a regression.
        for g in &figure_gates {
            if new.metrics.get(&g.slug).is_none() {
                regressions.push(format!("{} (missing from the run)", g.slug));
            }
        }
        let headline_in_manifest = figure_gates.iter().any(|g| g.slug == new.headline);
        println!(
            "  {compared} metrics compared, {} gated, default threshold {threshold_pct}%",
            figure_gates.len() + usize::from(!headline_in_manifest)
        );
        if !regressions.is_empty() {
            eprintln!("bench-diff: gated metrics regressed:");
            for r in &regressions {
                eprintln!("  {r}");
            }
            if report_only {
                eprintln!("bench-diff: --report-only, not failing the build");
                return ExitCode::SUCCESS;
            }
            return ExitCode::FAILURE;
        }
        ExitCode::SUCCESS
    }

    /// One `<figure> <slug> [threshold_pct]` line of the manifest.
    struct Gate {
        figure: String,
        slug: String,
        threshold_pct: Option<f64>,
    }

    fn parse_manifest(src: &str) -> Result<Vec<Gate>, String> {
        let mut out = Vec::new();
        for (lineno, line) in src.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (figure, slug) = match (parts.next(), parts.next()) {
                (Some(f), Some(s)) => (f.to_string(), s.to_string()),
                _ => return Err(format!("line {}: want <figure> <slug>", lineno + 1)),
            };
            let threshold_pct = match parts.next() {
                Some(t) => Some(
                    t.parse::<f64>()
                        .map_err(|_| format!("line {}: bad threshold {t:?}", lineno + 1))?,
                ),
                None => None,
            };
            if parts.next().is_some() {
                return Err(format!("line {}: trailing tokens", lineno + 1));
            }
            out.push(Gate {
                figure,
                slug,
                threshold_pct,
            });
        }
        Ok(out)
    }

    fn usage(msg: &str) -> ExitCode {
        eprintln!("bench-diff: {msg}");
        eprintln!(
            "usage: cargo run -p xtask -- bench-diff <new.json> \
             [--baseline <path>] [--threshold <pct>] [--report-only]"
        );
        ExitCode::from(2)
    }

    pub struct Report {
        pub figure: String,
        pub headline: String,
        pub metrics: Vec<(String, f64)>,
    }

    impl Report {
        pub fn load(path: &std::path::Path) -> Result<Report, String> {
            let src = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            Ok(Report {
                figure: string_field(&src, "figure").ok_or("missing \"figure\"")?,
                headline: string_field(&src, "headline").ok_or("missing \"headline\"")?,
                metrics: metrics_object(&src)?,
            })
        }
    }

    trait Lookup {
        fn get(&self, key: &str) -> Option<&f64>;
    }
    impl Lookup for Vec<(String, f64)> {
        fn get(&self, key: &str) -> Option<&f64> {
            self.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        }
    }

    /// Finds the top-level `"name": "value"` string field.
    fn string_field(src: &str, name: &str) -> Option<String> {
        let at = src.find(&format!("\"{name}\":"))?;
        let rest = &src[at..];
        let open = rest.find(": \"")? + 3;
        let close = rest[open..].find('"')? + open;
        Some(rest[open..close].to_string())
    }

    /// Parses the flat `"metrics": { "slug": number, ... }` object.
    fn metrics_object(src: &str) -> Result<Vec<(String, f64)>, String> {
        let at = src.find("\"metrics\":").ok_or("missing \"metrics\"")?;
        let body = &src[at..];
        let open = body.find('{').ok_or("metrics: no object")?;
        let close = body[open..]
            .find('}')
            .ok_or("metrics: unterminated object")?
            + open;
        let mut out = Vec::new();
        for pair in body[open + 1..close].split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair
                .split_once(':')
                .ok_or_else(|| format!("metrics: malformed pair {pair:?}"))?;
            let key = key.trim().trim_matches('"').to_string();
            let value: f64 = value
                .trim()
                .parse()
                .map_err(|_| format!("metrics: non-numeric value in {pair:?}"))?;
            out.push((key, value));
        }
        Ok(out)
    }

    #[cfg(test)]
    mod tests {
        use super::parse_manifest;

        #[test]
        fn manifest_parses_gates_comments_and_thresholds() {
            let src = "\
# figure        slug                          threshold_pct (default if absent)
fig10_wire_ycsb ycsb_a_montage_sync1_p99_us   20
fig_shard_scaling shards_4_ops_per_sec  # inline comment, default threshold
";
            let gates = parse_manifest(src).unwrap();
            assert_eq!(gates.len(), 2);
            assert_eq!(gates[0].figure, "fig10_wire_ycsb");
            assert_eq!(gates[0].slug, "ycsb_a_montage_sync1_p99_us");
            assert_eq!(gates[0].threshold_pct, Some(20.0));
            assert_eq!(gates[1].figure, "fig_shard_scaling");
            assert_eq!(gates[1].threshold_pct, None);
        }

        #[test]
        fn manifest_rejects_malformed_lines() {
            assert!(parse_manifest("just_a_figure\n").is_err());
            assert!(parse_manifest("fig slug not_a_number\n").is_err());
            assert!(parse_manifest("fig slug 10 extra\n").is_err());
        }
    }
}
