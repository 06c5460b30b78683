//! Determinism lint: result reproducibility by construction.
//!
//! The campaign contract — bit-identical results at any thread count,
//! byte-identical warm/cold store replays — only holds while no
//! result-shaping code path consults a nondeterministic source. This
//! dependency-free, token-level pass sweeps the
//! [`DETERMINISM_ROOTS`] for the constructs that historically break
//! that contract:
//!
//! * `HashMap`/`HashSet` — randomized iteration order; anything that is
//!   iterated for output must be a `BTreeMap`/`BTreeSet` or sort first
//!   (`hash-order`),
//! * `Instant::now`/`SystemTime` — wall-clock reads outside the
//!   accounting allowlist (`wall-clock`),
//! * `thread_rng`/`from_entropy`/`OsRng` — entropy-seeded RNGs that can
//!   never reproduce a campaign (`entropy-rng`),
//! * `seed_from_u64(<literal>)` — an RNG seeded with a hard-coded
//!   constant rather than routed through the hierarchical `Seeder`
//!   (`rng-seed-literal`); identifier arguments are assumed routed.
//!
//! A flagged construct that is genuinely harmless (keyed lookup only,
//! never iterated for output) carries an exemption on or just above its
//! line:
//!
//! ```text
//! // determinism: allow -- <reason the construct cannot shape results>
//! ```
//!
//! The reason is mandatory, a malformed comment is an error, and an
//! allow that covers no flagged site within its reach is a *dangling*
//! error — stale exemptions may not accumulate. `#[cfg(test)]` items
//! and `use` declarations are skipped: imports are not uses, and tests
//! may time and hash freely.

use crate::lex::{skip_balanced, tokenize, Tok, Token};
use std::fmt;
use std::path::{Path, PathBuf};

/// The crate source roots the lint sweeps, relative to the repository
/// root: the campaign, bench, store, snapshot, maskmap, perf and core
/// crates. `restore-audit --determinism` and the tree-clean test both
/// scan exactly these.
pub const DETERMINISM_ROOTS: [&str; 7] = [
    "crates/inject/src",
    "crates/bench/src",
    "crates/store/src",
    "crates/snapshot/src",
    "crates/maskmap/src",
    "crates/perf/src",
    "crates/core/src",
];

/// An `allow` directive reaches this many lines below itself.
const ALLOW_REACH: u32 = 3;

/// Files whose wall-clock reads are accounting, not results: the engine
/// and campaign drivers time themselves for `CampaignStats` throughput
/// reporting, which is explicitly outside the byte-identical surface.
const WALL_CLOCK_ALLOWLIST: [&str; 2] = ["inject/src/engine.rs", "inject/src/campaign.rs"];

/// One lint finding; every finding fails the lint.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Machine-readable kind (`hash-order`, `wall-clock`, …).
    pub kind: &'static str,
    /// What is flagged: the banned identifier, or the text of the
    /// directive comment at fault.
    pub subject: String,
    /// Source file.
    pub file: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error[{}]: {} — {}\n  --> {}:{}",
            self.kind,
            self.subject,
            self.detail,
            self.file.display(),
            self.line
        )
    }
}

/// One flagged construct before exemption matching.
struct Site {
    kind: &'static str,
    ident: String,
    line: u32,
}

/// The determinism pass result.
#[derive(Debug, Default)]
pub struct DeterminismAnalysis {
    /// Every finding, by file and line.
    pub findings: Vec<Finding>,
    /// Number of `// determinism: allow` exemptions honored.
    pub allows_honored: usize,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl DeterminismAnalysis {
    /// True when nothing was flagged.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Scans every `.rs` file under the given roots.
///
/// # Errors
///
/// Returns an I/O error if a root cannot be read.
pub fn analyze_determinism_dirs(roots: &[PathBuf]) -> std::io::Result<DeterminismAnalysis> {
    let mut files = Vec::new();
    for root in roots {
        rust_files(root, &mut files)?;
    }
    let mut out = DeterminismAnalysis::default();
    for f in &files {
        let text = std::fs::read_to_string(f)?;
        scan_file(f, &text, &mut out);
    }
    out.files_scanned = files.len();
    sort_findings(&mut out);
    Ok(out)
}

/// Recursively collects `.rs` files under `root`, sorted for determinism.
fn rust_files(root: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(root)?.collect::<Result<Vec<_>, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for e in entries {
        let p = e.path();
        if p.is_dir() {
            rust_files(&p, out)?;
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Scans in-memory sources (used by tests); paths are labels only.
pub fn analyze_determinism_sources(sources: &[(&str, &str)]) -> DeterminismAnalysis {
    let mut out = DeterminismAnalysis::default();
    for (path, text) in sources {
        scan_file(Path::new(path), text, &mut out);
    }
    out.files_scanned = sources.len();
    sort_findings(&mut out);
    out
}

fn sort_findings(out: &mut DeterminismAnalysis) {
    out.findings.sort_by_key(|f| (f.file.clone(), f.line));
}

fn path_is_allowlisted(path: &Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    WALL_CLOCK_ALLOWLIST.iter().any(|sfx| p.ends_with(sfx))
}

fn scan_file(path: &Path, text: &str, out: &mut DeterminismAnalysis) {
    let (toks, directives) = tokenize(text);
    let mut allows: Vec<(u32, String, bool)> = Vec::new(); // (line, reason, used)
    for d in &directives {
        match d.reason_for("allow") {
            Ok(reason) => allows.push((d.line, reason, false)),
            Err(raw) => out.findings.push(Finding {
                kind: "malformed-determinism-exemption",
                subject: format!("// {raw}"),
                file: path.to_path_buf(),
                line: d.line,
                detail: "unparseable determinism comment; expected \
                         `// determinism: allow -- <reason>`"
                    .to_string(),
            }),
        }
    }

    let sites = extract_sites(&toks, path);

    // Each allow exempts the first flagged site at-or-below it within
    // reach; an allow that exempts nothing is itself an error so stale
    // exemptions cannot accumulate.
    let mut exempt = vec![false; sites.len()];
    for (aline, _, used) in &mut allows {
        for (i, s) in sites.iter().enumerate() {
            if !exempt[i] && s.line >= *aline && s.line <= *aline + ALLOW_REACH {
                exempt[i] = true;
                *used = true;
                break;
            }
        }
    }
    for (aline, reason, used) in &allows {
        if !used {
            out.findings.push(Finding {
                kind: "dangling-determinism-allow",
                subject: format!("// determinism: allow -- {reason}"),
                file: path.to_path_buf(),
                line: *aline,
                detail: format!(
                    "covers no flagged construct within {ALLOW_REACH} lines; delete the \
                     stale exemption"
                ),
            });
        }
    }
    out.allows_honored += allows.iter().filter(|(_, _, used)| *used).count();

    for (i, s) in sites.iter().enumerate() {
        if exempt[i] {
            continue;
        }
        let detail = match s.kind {
            "hash-order" => format!(
                "`{}` has randomized iteration order; use `BTreeMap`/`BTreeSet` or sort \
                 before result-shaping output, or exempt a keyed-lookup-only use with \
                 `// determinism: allow -- <reason>`",
                s.ident
            ),
            "wall-clock" => format!(
                "`{}` reads the wall clock outside the accounting allowlist; results \
                 must not depend on time",
                s.ident
            ),
            "entropy-rng" => format!(
                "`{}` seeds an RNG from process entropy; campaigns must draw every seed \
                 through the hierarchical `Seeder` to stay replayable",
                s.ident
            ),
            _ => format!(
                "`{}` seeds an RNG with a hard-coded literal instead of a `Seeder`-derived \
                 value; literal seeds silently correlate campaigns",
                s.ident
            ),
        };
        out.findings.push(Finding {
            kind: s.kind,
            subject: s.ident.clone(),
            file: path.to_path_buf(),
            line: s.line,
            detail,
        });
    }
}

/// Walks the token stream collecting flagged constructs, skipping `use`
/// declarations and `#[cfg(test)]` items.
fn extract_sites(toks: &[Token], path: &Path) -> Vec<Site> {
    let wall_clock_ok = path_is_allowlisted(path);
    let mut sites = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].tok {
            // `use std::collections::HashMap;` — an import is not a use.
            Tok::Ident(k) if k == "use" => {
                while i < toks.len() && !toks[i].tok.is_punct(';') {
                    i += 1;
                }
            }
            // `#[cfg(test)]` gates the following item out of production
            // builds; skip to the end of that item's body.
            Tok::Punct('#') if is_cfg_test(toks, i) => {
                let mut j = skip_balanced(toks, i + 1, '[', ']');
                // Further attributes may sit between the cfg and the item.
                while j < toks.len() && !toks[j].tok.is_punct('{') && !toks[j].tok.is_punct(';') {
                    if toks[j].tok.is_punct('#') {
                        j = skip_balanced(toks, j + 1, '[', ']');
                    } else {
                        j += 1;
                    }
                }
                i = if j < toks.len() && toks[j].tok.is_punct('{') {
                    skip_balanced(toks, j, '{', '}')
                } else {
                    j + 1
                };
            }
            Tok::Ident(k) if k == "HashMap" || k == "HashSet" => {
                sites.push(Site { kind: "hash-order", ident: k.clone(), line: toks[i].line });
                i += 1;
            }
            Tok::Ident(k) if (k == "Instant" || k == "SystemTime") && !wall_clock_ok => {
                sites.push(Site { kind: "wall-clock", ident: k.clone(), line: toks[i].line });
                i += 1;
            }
            Tok::Ident(k) if k == "thread_rng" || k == "from_entropy" || k == "OsRng" => {
                sites.push(Site { kind: "entropy-rng", ident: k.clone(), line: toks[i].line });
                i += 1;
            }
            Tok::Ident(k)
                if k == "seed_from_u64"
                    && toks.get(i + 1).is_some_and(|t| t.tok.is_punct('('))
                    && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Int(_))) =>
            {
                sites.push(Site { kind: "rng-seed-literal", ident: k.clone(), line: toks[i].line });
                i += 1;
            }
            _ => i += 1,
        }
    }
    sites
}

/// True when the `#` at `i` opens exactly `#[cfg(test)]`.
fn is_cfg_test(toks: &[Token], i: usize) -> bool {
    toks.get(i + 1).is_some_and(|t| t.tok.is_punct('['))
        && toks.get(i + 2).is_some_and(|t| t.tok.is_ident("cfg"))
        && toks.get(i + 3).is_some_and(|t| t.tok.is_punct('('))
        && toks.get(i + 4).is_some_and(|t| t.tok.is_ident("test"))
        && toks.get(i + 5).is_some_and(|t| t.tok.is_punct(')'))
        && toks.get(i + 6).is_some_and(|t| t.tok.is_punct(']'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banned_constructs_are_flagged_with_their_kind() {
        let src = r#"
            fn shape() {
                let m: HashMap<u64, u64> = HashMap::new();
                let t = Instant::now();
                let r = StdRng::from_entropy();
                let s = StdRng::seed_from_u64(42);
            }
        "#;
        let a = analyze_determinism_sources(&[("x.rs", src)]);
        let kinds: Vec<_> = a.findings.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            ["hash-order", "hash-order", "wall-clock", "entropy-rng", "rng-seed-literal"]
        );
    }

    #[test]
    fn seeder_routed_rng_is_clean() {
        let src = "fn f(seed: u64) { let r = StdRng::seed_from_u64(seed); }";
        let a = analyze_determinism_sources(&[("x.rs", src)]);
        assert!(a.is_clean(), "{:?}", a.findings);
    }

    #[test]
    fn imports_and_test_modules_are_skipped() {
        let src = r#"
            use std::collections::HashMap;
            #[cfg(test)]
            mod tests {
                use std::collections::HashSet;
                #[test]
                fn t() {
                    let s: HashSet<u64> = HashSet::new();
                    let d = Instant::now();
                    let r = StdRng::seed_from_u64(7);
                }
            }
        "#;
        let a = analyze_determinism_sources(&[("x.rs", src)]);
        assert!(a.is_clean(), "{:?}", a.findings);
    }

    #[test]
    fn allow_exempts_one_site_and_must_not_dangle() {
        let src = r#"
            // determinism: allow -- keyed lookup only, never iterated for output
            type Cache = HashMap<u64, u64>;
            // determinism: allow -- exempts nothing below
            fn pure() {}
        "#;
        let a = analyze_determinism_sources(&[("x.rs", src)]);
        let errs = &a.findings;
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert_eq!(errs[0].kind, "dangling-determinism-allow");
        assert_eq!(a.allows_honored, 1);
    }

    #[test]
    fn reasonless_allow_is_malformed() {
        let src = "// determinism: allow\nfn f() { let t = Instant::now(); }";
        let a = analyze_determinism_sources(&[("x.rs", src)]);
        let kinds: Vec<_> = a.findings.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"malformed-determinism-exemption"), "{kinds:?}");
        assert!(kinds.contains(&"wall-clock"), "{kinds:?}");
    }

    /// Every finding kind renders with a non-empty subject: the flagged
    /// identifier, or the directive comment at fault.
    #[test]
    fn drift_fixture_findings_render_their_subject() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/drift/src");
        let a =
            analyze_determinism_dirs(std::slice::from_ref(&root)).expect("fixture dir readable");
        let rendered: Vec<String> = a.findings.iter().map(ToString::to_string).collect();
        let at = |line: u32| format!("\n  --> {}:{line}", root.join("determinism.rs").display());
        let want = [
            format!(
                "error[hash-order]: HashMap — `HashMap` has randomized iteration order; use \
                 `BTreeMap`/`BTreeSet` or sort before result-shaping output, or exempt a \
                 keyed-lookup-only use with `// determinism: allow -- <reason>`{}",
                at(9)
            ),
            format!(
                "error[wall-clock]: Instant — `Instant` reads the wall clock outside the \
                 accounting allowlist; results must not depend on time{}",
                at(10)
            ),
            format!(
                "error[entropy-rng]: thread_rng — `thread_rng` seeds an RNG from process \
                 entropy; campaigns must draw every seed through the hierarchical `Seeder` \
                 to stay replayable{}",
                at(11)
            ),
            format!(
                "error[rng-seed-literal]: seed_from_u64 — `seed_from_u64` seeds an RNG with \
                 a hard-coded literal instead of a `Seeder`-derived value; literal seeds \
                 silently correlate campaigns{}",
                at(12)
            ),
            format!(
                "error[dangling-determinism-allow]: // determinism: allow -- exempts nothing \
                 and must be flagged as dangling — covers no flagged construct within 3 \
                 lines; delete the stale exemption{}",
                at(23)
            ),
            format!(
                "error[malformed-determinism-exemption]: // determinism: allow — unparseable \
                 determinism comment; expected `// determinism: allow -- <reason>`{}",
                at(30)
            ),
            format!(
                "error[wall-clock]: SystemTime — `SystemTime` reads the wall clock outside \
                 the accounting allowlist; results must not depend on time{}",
                at(32)
            ),
        ];
        assert_eq!(rendered, want);
    }

    #[test]
    fn accounting_allowlist_admits_engine_timers() {
        let src = "fn f() { let t = Instant::now(); }";
        let a = analyze_determinism_sources(&[("crates/inject/src/engine.rs", src)]);
        assert!(a.is_clean(), "{:?}", a.findings);
    }
}
