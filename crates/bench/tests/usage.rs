//! Every binary's usage line and its `//! Usage:` header list exactly
//! the flags it accepts. The retired knobs are among the flags probed,
//! so they must exit 2 everywhere, and `--prune` on the arch campaigns.
//!
//! Acceptance is probed without running anything: every binary checks
//! its flags with `cli::reject_unknown` before it does any work, and
//! that check reports the *first* unknown flag. So `BIN --flag --zz`
//! fails on `--flag` when the binary does not take it, and on the
//! sentinel `--zz` when it does. A flag the prefix already gives
//! (`--domain`) fails as given twice, which the check reports only for
//! a known flag.

use restore_bench::cli::BARE_FLAGS;
use std::collections::BTreeSet;
use std::process::Command;

/// A binary under test: its executable, its source file under
/// `src/bin/`, and the arguments every invocation starts with.
struct Bin {
    exe: &'static str,
    src: &'static str,
    prefix: &'static [&'static str],
}

const BINS: [Bin; 11] = [
    Bin { exe: env!("CARGO_BIN_EXE_fig2"), src: "fig2.rs", prefix: &[] },
    Bin { exe: env!("CARGO_BIN_EXE_fig4"), src: "fig4.rs", prefix: &[] },
    Bin { exe: env!("CARGO_BIN_EXE_fig5"), src: "fig5.rs", prefix: &[] },
    Bin { exe: env!("CARGO_BIN_EXE_fig6"), src: "fig6.rs", prefix: &[] },
    Bin { exe: env!("CARGO_BIN_EXE_fig7"), src: "fig7.rs", prefix: &[] },
    Bin { exe: env!("CARGO_BIN_EXE_fig8"), src: "fig8.rs", prefix: &[] },
    Bin { exe: env!("CARGO_BIN_EXE_figs_all"), src: "figs_all.rs", prefix: &[] },
    Bin { exe: env!("CARGO_BIN_EXE_symptom_metrics"), src: "symptom_metrics.rs", prefix: &[] },
    Bin { exe: env!("CARGO_BIN_EXE_restore-sweep"), src: "restore_sweep.rs", prefix: &[] },
    Bin {
        exe: env!("CARGO_BIN_EXE_restore-campaign"),
        src: "restore_campaign.rs",
        prefix: &["--domain", "arch"],
    },
    Bin {
        exe: env!("CARGO_BIN_EXE_restore-campaign"),
        src: "restore_campaign.rs",
        prefix: &["--domain", "uarch"],
    },
];

/// An argument no binary takes: reaching it means every flag before it
/// was accepted.
const SENTINEL: &str = "--zz";

/// The knobs this repository retired; they must stay unknown.
const RETIRED: [&str; 2] = ["--cutoff", "--ckpt-stride"];

/// The `--flags` in `text`.
fn flags(text: &str) -> BTreeSet<String> {
    text.split(|c: char| c.is_whitespace() || "[]`,".contains(c))
        .filter(|t| t.starts_with("--") && t.len() > 2)
        .map(str::to_owned)
        .collect()
}

/// Runs `bin` with `args` after its prefix; returns the exit code and
/// stderr.
fn run(bin: &Bin, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin.exe).args(bin.prefix).args(args).output().expect("binary runs");
    (out.status.code(), String::from_utf8(out.stderr).expect("utf-8 stderr"))
}

/// Whether `bin` accepts `flag`.
fn accepts(bin: &Bin, flag: &str) -> bool {
    let (code, err) = run(bin, &[flag, SENTINEL]);
    assert_eq!(code, Some(2), "{} {flag}: stderr {err}", bin.src);
    if err.contains(&format!("unknown flag {flag}\n")) {
        return false;
    }
    if bin.prefix.contains(&flag) {
        assert!(
            err.contains(&format!("{flag} given more than once\n")),
            "{} {flag}: {err}",
            bin.src
        );
        return true;
    }
    assert!(err.contains(&format!("unknown flag {SENTINEL}\n")), "{} {flag}: {err}", bin.src);
    true
}

/// The usage text `bin` prints after an error, restricted to its own
/// domain's lines for a `--domain` runner.
fn usage(bin: &Bin) -> String {
    let (_, err) = run(bin, &[SENTINEL]);
    let text = err.split_once("usage: ").expect("usage after the error").1.to_owned();
    match bin.prefix {
        ["--domain", domain] => text
            .lines()
            .filter(|l| {
                !l.contains("knobs:") || l.trim_start().starts_with(&format!("{domain} knobs:"))
            })
            .collect::<Vec<_>>()
            .join("\n"),
        _ => text,
    }
}

/// The `//! Usage:` paragraph of `bin`'s source.
fn header(bin: &Bin) -> String {
    let path = format!("{}/src/bin/{}", env!("CARGO_MANIFEST_DIR"), bin.src);
    let src = std::fs::read_to_string(&path).expect("binary source");
    let doc: Vec<&str> = src.lines().map_while(|l| l.strip_prefix("//!")).collect();
    let start = doc.iter().position(|l| l.contains("Usage:")).expect("a //! Usage: header");
    doc[start..].iter().take_while(|l| !l.trim().is_empty()).copied().collect::<Vec<_>>().join(" ")
}

#[test]
fn usage_lines_list_exactly_the_accepted_flags() {
    let candidates: BTreeSet<String> =
        BINS.iter().flat_map(|b| flags(&usage(b))).chain(RETIRED.map(String::from)).collect();
    for bin in &BINS {
        let listed = flags(&usage(bin));
        let accepted: BTreeSet<String> =
            candidates.iter().filter(|f| accepts(bin, f)).cloned().collect();
        assert_eq!(accepted, listed, "{} {:?}: usage line vs accepted flags", bin.src, bin.prefix);
    }
    // The header of a `--domain` runner covers every domain at once.
    for src in BINS.iter().map(|b| b.src).collect::<BTreeSet<_>>() {
        let bins: Vec<&Bin> = BINS.iter().filter(|b| b.src == src).collect();
        let printed: BTreeSet<String> = bins.iter().flat_map(|b| flags(&usage(b))).collect();
        assert_eq!(flags(&header(bins[0])), printed, "{src}: //! Usage: header vs usage line");
    }
}

/// A flag given twice exits 2 with the usage line on every binary,
/// before any work: its second value would otherwise be ignored.
#[test]
fn a_repeated_flag_exits_2_everywhere() {
    for bin in &BINS {
        let flag = flags(&usage(bin))
            .into_iter()
            .find(|f| !bin.prefix.contains(&f.as_str()))
            .expect("a flag beyond the prefix");
        let flag = flag.as_str();
        let args: &[&str] =
            if BARE_FLAGS.contains(&flag) { &[flag, flag] } else { &[flag, "1", flag, "1"] };
        let (code, err) = run(bin, args);
        assert_eq!(code, Some(2), "{} {args:?}: {err}", bin.src);
        assert!(
            err.contains(&format!("error: {flag} given more than once\n")),
            "{}: {err}",
            bin.src
        );
        assert!(err.contains("\nusage: "), "{} {args:?}: {err}", bin.src);
    }
}
