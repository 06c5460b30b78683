//! Strict, shared CLI parsing for the figure binaries.
//!
//! Every binary used to carry its own copy of `--flag value` extraction
//! built on a lenient helper that silently ignored anything it could
//! not parse — `fig4 --trials x` would run the *default* campaign and
//! happily print a table for the wrong experiment. Here the shared
//! knobs are parsed once, strictly:
//!
//! * a flag given without a value, or with an unparseable one, is an
//!   error;
//! * `--points` / `--trials` / `--size` / `--cycles` reject zero (an
//!   empty campaign is never what was asked for);
//! * `--threads 0` stays legal: it means the machine's available
//!   parallelism, and `--threads` is the only way to set the workers;
//! * every token must be a known flag, or the value directly after a
//!   known flag that takes one ([`reject_unknown`]), so a typo or a
//!   stray word fails instead of running the default or being ignored.
//!   Each binary checks against [`UARCH_FLAGS`] or [`ARCH_FLAGS`] plus
//!   its own extras, and its usage line lists exactly those flags;
//! * a flag given twice is an error, since [`value`] and [`flag`] read
//!   only its first occurrence and the second would be ignored.
//!
//! Errors print the binary's usage line and exit with status 2 via
//! [`or_exit`].

use restore_inject::{
    arch_campaign_digest, uarch_campaign_digest, ArchCampaignConfig, ArchTrial, PruneMode,
    TrialCache, UarchCampaignConfig, UarchTrial,
};
use restore_workloads::Scale;
use std::fmt;
use std::path::PathBuf;

/// A CLI parse failure (the message names the offending flag).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// Unwraps a parse result or prints the error plus `usage` to stderr
/// and exits with status 2.
pub fn or_exit<T>(r: Result<T, CliError>, usage: &str) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("usage: {usage}");
        std::process::exit(2);
    })
}

/// `true` if the bare flag is present.
pub fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The raw value following `name`'s first occurrence, if the flag is
/// present ([`reject_unknown`] rejects a second). A flag at the end of
/// the line or followed by another `--flag` is an error.
pub fn value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, CliError> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v)),
            _ => Err(CliError(format!("{name} requires a value"))),
        },
    }
}

/// Parses `name`'s value as a u64; unparseable input is an error, not a
/// silent default.
pub fn parsed_u64(args: &[String], name: &str) -> Result<Option<u64>, CliError> {
    value(args, name)?
        .map(|v| {
            v.parse().map_err(|_| CliError(format!("{name}: `{v}` is not an unsigned integer")))
        })
        .transpose()
}

/// Like [`parsed_u64`] but additionally rejects zero — for knobs where
/// zero would silently produce an empty experiment.
pub fn nonzero_u64(args: &[String], name: &str) -> Result<Option<u64>, CliError> {
    match parsed_u64(args, name)? {
        Some(0) => Err(CliError(format!("{name} must be at least 1"))),
        other => Ok(other),
    }
}

/// Parses `--prune off|interval|audit`.
pub fn prune_mode(args: &[String]) -> Result<Option<PruneMode>, CliError> {
    value(args, "--prune")?
        .map(|v| match v {
            "off" => Ok(PruneMode::Off),
            "interval" => Ok(PruneMode::Interval),
            "audit" => Ok(PruneMode::Audit),
            _ => Err(CliError(format!("--prune: `{v}` is not one of off|interval|audit"))),
        })
        .transpose()
}

/// The switches that take no value; every other flag takes exactly one.
pub const BARE_FLAGS: [&str; 4] = ["--low32", "--latches-only", "--resume", "--paper"];

/// Errors on any token after `args[0]` that is neither a flag in
/// `known` nor the value directly after a known flag that takes one
/// (every flag but [`BARE_FLAGS`]), and on a known flag given twice. A
/// typo would otherwise run the default experiment, and a stray word or
/// a repeated flag's second value would run and be ignored. The first
/// offending token is the one reported.
pub fn reject_unknown(args: &[String], known: &[&str]) -> Result<(), CliError> {
    let mut seen: Vec<&str> = Vec::new();
    let mut tokens = args.iter().skip(1).peekable();
    while let Some(a) = tokens.next() {
        if !a.starts_with("--") {
            return Err(CliError(format!("unexpected argument `{a}`")));
        }
        if !known.contains(&a.as_str()) {
            return Err(CliError(format!("unknown flag {a}")));
        }
        if seen.contains(&a.as_str()) {
            return Err(CliError(format!("{a} given more than once")));
        }
        seen.push(a);
        if !BARE_FLAGS.contains(&a.as_str()) {
            // A missing value is left to `value` to report.
            tokens.next_if(|v| !v.starts_with("--"));
        }
    }
    Ok(())
}

/// Parses `--store PATH` — the content-addressed trial store directory.
pub fn store_path(args: &[String]) -> Result<Option<PathBuf>, CliError> {
    Ok(value(args, "--store")?.map(PathBuf::from))
}

/// Opens the `--store` trial store (if requested) under the µarch
/// campaign digest of `cfg`. Must run *after* every campaign flag has
/// been applied — the digest is a function of the final configuration.
pub fn open_uarch_store(
    cfg: &UarchCampaignConfig,
    args: &[String],
) -> Result<Option<TrialCache<UarchTrial>>, CliError> {
    store_path(args)?
        .map(|dir| {
            TrialCache::open(&dir, "all", uarch_campaign_digest(cfg))
                .map_err(|e| CliError(format!("--store {}: {e}", dir.display())))
        })
        .transpose()
}

/// Opens the `--store` trial store (if requested) under the arch
/// campaign digest of `cfg`. Must run *after* every campaign flag has
/// been applied — the digest is a function of the final configuration.
pub fn open_arch_store(
    cfg: &ArchCampaignConfig,
    args: &[String],
) -> Result<Option<TrialCache<ArchTrial>>, CliError> {
    store_path(args)?
        .map(|dir| {
            TrialCache::open(&dir, "all", arch_campaign_digest(cfg))
                .map_err(|e| CliError(format!("--store {}: {e}", dir.display())))
        })
        .transpose()
}

/// Parses `--dup-mask`'s value as the protected-register bitmask —
/// decimal or `0x`-prefixed hex (masks read naturally in hex).
pub fn dup_mask(args: &[String]) -> Result<Option<u32>, CliError> {
    value(args, "--dup-mask")?
        .map(|v| {
            let parsed = match v.strip_prefix("0x") {
                Some(hex) => u32::from_str_radix(hex, 16),
                None => v.parse(),
            };
            parsed.map_err(|_| CliError(format!("--dup-mask: `{v}` is not a 32-bit mask")))
        })
        .transpose()
}

/// The knobs every µarch campaign binary shares.
pub const UARCH_FLAGS: [&str; 8] = [
    "--points",
    "--trials",
    "--seed",
    "--threads",
    "--prune",
    "--store",
    "--sig-chunk",
    "--dup-mask",
];

/// The knobs of the architectural (Figure 2) campaign, as `fig2` and
/// `restore-campaign --domain arch` take them.
pub const ARCH_FLAGS: [&str; 8] = [
    "--trials",
    "--seed",
    "--low32",
    "--size",
    "--threads",
    "--store",
    "--sig-chunk",
    "--dup-mask",
];

/// [`UARCH_FLAGS`] plus a binary's own extras, for [`reject_unknown`].
pub fn uarch_flags_plus(extra: &[&'static str]) -> Vec<&'static str> {
    [&UARCH_FLAGS[..], extra].concat()
}

/// [`ARCH_FLAGS`] plus a binary's own extras, for [`reject_unknown`].
pub fn arch_flags_plus(extra: &[&'static str]) -> Vec<&'static str> {
    [&ARCH_FLAGS[..], extra].concat()
}

/// Applies the shared µarch campaign knobs to `cfg`:
/// `--points N` / `--trials N` (nonzero), `--seed S`, `--threads N`
/// (0 = auto), `--prune off|interval|audit`, `--sig-chunk N` (0 =
/// signature checking off) and `--dup-mask M` (0 = duplication off) for
/// the software-only detector sources. `--store DIR` doubles as the
/// masking-map directory, so sharded runs against a shared store build
/// each workload's map once per shard set.
pub fn apply_uarch_flags(cfg: &mut UarchCampaignConfig, args: &[String]) -> Result<(), CliError> {
    if let Some(p) = nonzero_u64(args, "--points")? {
        cfg.points_per_workload = p as usize;
    }
    if let Some(t) = nonzero_u64(args, "--trials")? {
        cfg.trials_per_point = t as usize;
    }
    if let Some(s) = parsed_u64(args, "--seed")? {
        cfg.seed = s;
    }
    if let Some(n) = parsed_u64(args, "--threads")? {
        cfg.threads = n as usize;
    }
    if let Some(m) = prune_mode(args)? {
        cfg.prune = m;
    }
    if let Some(c) = parsed_u64(args, "--sig-chunk")? {
        cfg.detectors.sig_chunk = c;
    }
    if let Some(m) = dup_mask(args)? {
        cfg.detectors.dup_mask = m;
    }
    cfg.map_dir = store_path(args)?;
    Ok(())
}

/// Applies the architectural (Figure 2) campaign knobs to `cfg`:
/// `--trials N` / `--size N` (nonzero), `--seed S`, `--threads N`
/// (0 = auto), `--sig-chunk N` / `--dup-mask M` (software detector
/// sources, 0 = off), `--low32`. Pass `trials_flag` so `figs_all` can
/// route its `--arch-trials` here without colliding with the µarch
/// knob.
pub fn apply_arch_flags(
    cfg: &mut ArchCampaignConfig,
    args: &[String],
    trials_flag: &str,
) -> Result<(), CliError> {
    if let Some(t) = nonzero_u64(args, trials_flag)? {
        cfg.trials_per_workload = t as usize;
    }
    if let Some(s) = parsed_u64(args, "--seed")? {
        cfg.seed = s;
    }
    if let Some(n) = nonzero_u64(args, "--size")? {
        cfg.scale = Scale { size: n as usize, ..cfg.scale };
    }
    if let Some(n) = parsed_u64(args, "--threads")? {
        cfg.threads = n as usize;
    }
    if let Some(c) = parsed_u64(args, "--sig-chunk")? {
        cfg.detectors.sig_chunk = c;
    }
    if let Some(m) = dup_mask(args)? {
        cfg.detectors.dup_mask = m;
    }
    cfg.low32 = flag(args, "--low32");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        std::iter::once("bin").chain(s.iter().copied()).map(String::from).collect()
    }

    #[test]
    fn strict_values() {
        let a = args(&["--points", "12", "--latches-only"]);
        assert_eq!(parsed_u64(&a, "--points"), Ok(Some(12)));
        assert_eq!(parsed_u64(&a, "--trials"), Ok(None));
        assert!(flag(&a, "--latches-only"));
        assert!(!flag(&a, "--low32"));

        let bad = args(&["--points", "x"]);
        assert!(parsed_u64(&bad, "--points").is_err(), "unparseable must not be ignored");
        let missing = args(&["--points"]);
        assert!(parsed_u64(&missing, "--points").is_err());
        let eaten = args(&["--points", "--trials", "4"]);
        assert!(parsed_u64(&eaten, "--points").is_err(), "a flag is not a value");
    }

    #[test]
    fn zero_rejection_is_selective() {
        let mut cfg = UarchCampaignConfig::default();
        assert!(apply_uarch_flags(&mut cfg, &args(&["--points", "0"])).is_err());
        assert!(apply_uarch_flags(&mut cfg, &args(&["--trials", "0"])).is_err());
        // Zero means something for these two.
        apply_uarch_flags(&mut cfg, &args(&["--threads", "0", "--sig-chunk", "0"])).unwrap();
        assert_eq!(cfg.threads, 0, "--threads 0 is the available parallelism");
        assert_eq!(cfg.detectors.sig_chunk, 0);
        // But a malformed count is still an error, not a silent default.
        assert!(apply_uarch_flags(&mut cfg, &args(&["--threads", "x"])).is_err());
        assert!(apply_uarch_flags(&mut cfg, &args(&["--threads"])).is_err());
    }

    #[test]
    fn uarch_flags_apply() {
        let mut cfg = UarchCampaignConfig::default();
        let a = args(&[
            "--points",
            "3",
            "--trials",
            "7",
            "--seed",
            "9",
            "--threads",
            "2",
            "--prune",
            "audit",
        ]);
        apply_uarch_flags(&mut cfg, &a).unwrap();
        assert_eq!(cfg.points_per_workload, 3);
        assert_eq!(cfg.trials_per_point, 7);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.prune, PruneMode::Audit);
        assert_eq!(cfg.map_dir, None, "no --store means no map directory");
        assert!(apply_uarch_flags(&mut cfg, &args(&["--prune", "maybe"])).is_err());
        assert!(
            apply_uarch_flags(&mut cfg, &args(&["--prune", "on"])).is_err(),
            "the retired liveness-oracle mode is rejected"
        );

        let a = args(&["--prune", "interval", "--store", "/tmp/trials"]);
        apply_uarch_flags(&mut cfg, &a).unwrap();
        assert_eq!(cfg.prune, PruneMode::Interval);
        assert_eq!(
            cfg.map_dir,
            Some(PathBuf::from("/tmp/trials")),
            "--store doubles as the masking-map directory"
        );
    }

    #[test]
    fn arch_flags_apply() {
        let mut cfg = ArchCampaignConfig::default();
        let a =
            args(&["--trials", "5", "--size", "64", "--low32", "--seed", "1", "--threads", "3"]);
        apply_arch_flags(&mut cfg, &a, "--trials").unwrap();
        assert_eq!(cfg.trials_per_workload, 5);
        assert_eq!(cfg.scale.size, 64);
        assert_eq!(cfg.seed, 1);
        assert_eq!(cfg.threads, 3);
        assert!(cfg.low32);
        assert!(apply_arch_flags(&mut cfg, &args(&["--size", "0"]), "--trials").is_err());
        assert!(apply_arch_flags(&mut cfg, &args(&["--seed", "-3"]), "--trials").is_err());
        assert!(reject_unknown(&args(&["--trials", "5", "--low32"]), &ARCH_FLAGS).is_ok());
    }

    #[test]
    fn detector_flags_apply_to_both_campaigns() {
        let mut cfg = UarchCampaignConfig::default();
        let a = args(&["--sig-chunk", "32", "--dup-mask", "0x1ff"]);
        apply_uarch_flags(&mut cfg, &a).unwrap();
        assert_eq!(cfg.detectors.sig_chunk, 32);
        assert_eq!(cfg.detectors.dup_mask, 0x1FF, "--dup-mask accepts hex");

        let mut cfg = ArchCampaignConfig::default();
        apply_arch_flags(&mut cfg, &args(&["--sig-chunk", "0", "--dup-mask", "511"]), "--trials")
            .unwrap();
        assert_eq!(cfg.detectors.sig_chunk, 0, "--sig-chunk 0 disables the source");
        assert_eq!(cfg.detectors.dup_mask, 511, "--dup-mask accepts decimal");

        assert!(dup_mask(&args(&["--dup-mask", "0xzz"])).is_err());
        assert!(dup_mask(&args(&["--dup-mask", "4294967296"])).is_err(), "mask is 32-bit");
        assert!(UARCH_FLAGS.contains(&"--sig-chunk") && UARCH_FLAGS.contains(&"--dup-mask"));
    }

    #[test]
    fn store_flag_parses_and_is_strict() {
        let a = args(&["--store", "/tmp/trials"]);
        assert_eq!(store_path(&a).unwrap(), Some(PathBuf::from("/tmp/trials")));
        assert_eq!(store_path(&args(&["--points", "3"])).unwrap(), None);
        assert!(store_path(&args(&["--store"])).is_err(), "--store needs a path");
        assert!(store_path(&args(&["--store", "--resume"])).is_err(), "a flag is not a path");
        assert!(UARCH_FLAGS.contains(&"--store"), "every campaign binary takes --store");
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let known = uarch_flags_plus(&["--latches-only"]);
        assert!(reject_unknown(&args(&["--points", "3", "--latches-only"]), &known).is_ok());
        assert!(reject_unknown(&args(&["--latchesonly"]), &known).is_err());
        assert!(reject_unknown(&args(&["--prnue", "on"]), &known).is_err());
    }

    fn stray(a: &str) -> Result<(), CliError> {
        Err(CliError(format!("unexpected argument `{a}`")))
    }

    /// `fig4 --points 1 --trials 1 bogus`: a word no flag takes.
    #[test]
    fn a_stray_word_is_rejected() {
        let known = uarch_flags_plus(&["--latches-only"]);
        let a = args(&["--points", "1", "--trials", "1", "bogus"]);
        assert_eq!(reject_unknown(&a, &known), stray("bogus"));
        assert_eq!(reject_unknown(&args(&["bogus", "--points", "1"]), &known), stray("bogus"));
    }

    /// `figs_all --points 1 --trials 1 --arch-trials 1 16`: a flag
    /// takes one value, not two, and never a `--` token.
    #[test]
    fn a_second_value_is_rejected() {
        let known = uarch_flags_plus(&["--arch-trials"]);
        let a = args(&["--points", "1", "--trials", "1", "--arch-trials", "1", "16"]);
        assert_eq!(reject_unknown(&a, &known), stray("16"));
        let a = args(&["--points", "1", "--trials", "1", "--arch-trials", "1"]);
        assert_eq!(reject_unknown(&a, &known), Ok(()));
        assert_eq!(reject_unknown(&args(&["--seed", "-3"]), &known), Ok(()));
        let unknown = Err(CliError("unknown flag --zz".into()));
        assert_eq!(reject_unknown(&args(&["--seed", "--zz"]), &known), unknown);
    }

    /// `restore-campaign --domain arch --trials 1 --store DIR extra`.
    #[test]
    fn a_trailing_word_after_a_path_is_rejected() {
        let known = arch_flags_plus(&["--domain", "--shard", "--resume"]);
        let a = args(&["--domain", "arch", "--trials", "1", "--store", "/tmp/s", "extra"]);
        assert_eq!(reject_unknown(&a, &known), stray("extra"));
        let a = args(&["--domain", "arch", "--store", "/tmp/s", "--resume", "--shard", "0/2"]);
        assert_eq!(reject_unknown(&a, &known), Ok(()));
    }

    /// `fig4 --points 1 --points 40`: the second value would be ignored,
    /// so a repeated flag, bare or not, is an error naming it.
    #[test]
    fn a_repeated_flag_is_rejected() {
        let known = uarch_flags_plus(&["--latches-only"]);
        let twice = |flag: &str| Err(CliError(format!("{flag} given more than once")));
        let a = args(&["--points", "1", "--points", "40"]);
        assert_eq!(reject_unknown(&a, &known), twice("--points"));
        let a = args(&["--latches-only", "--trials", "2", "--latches-only"]);
        assert_eq!(reject_unknown(&a, &known), twice("--latches-only"));
        let a = args(&["--low32", "--low32"]);
        assert_eq!(reject_unknown(&a, &ARCH_FLAGS), twice("--low32"));
    }

    /// `fig2 --trials 1 --low32 7`: a bare flag takes no value, so the
    /// `7` is not swallowed and ignored.
    #[test]
    fn bare_flags_take_no_value() {
        assert_eq!(
            reject_unknown(&args(&["--trials", "1", "--low32", "7"]), &ARCH_FLAGS),
            stray("7")
        );
        let known = uarch_flags_plus(&BARE_FLAGS);
        for bare in BARE_FLAGS {
            assert_eq!(reject_unknown(&args(&[bare, "x"]), &known), stray("x"), "{bare}");
            assert_eq!(reject_unknown(&args(&[bare, "--seed", "3"]), &known), Ok(()), "{bare}");
        }
    }

    /// The retired knobs exit 2 everywhere: no flag list takes the
    /// cutoff or checkpoint stride, and the arch campaign does not prune.
    #[test]
    fn retired_knobs_are_rejected() {
        let lists = [
            UARCH_FLAGS.to_vec(),
            ARCH_FLAGS.to_vec(),
            uarch_flags_plus(&["--arch-trials"]),
            arch_flags_plus(&["--domain", "--shard", "--resume"]),
        ];
        for known in &lists {
            for knob in ["--cutoff", "--ckpt-stride"] {
                let err = reject_unknown(&args(&[knob, "0"]), known).unwrap_err();
                assert_eq!(err, CliError(format!("unknown flag {knob}")), "{known:?}");
            }
        }
        assert!(reject_unknown(&args(&["--prune", "interval"]), &ARCH_FLAGS).is_err());
        assert!(reject_unknown(&args(&["--prune", "interval"]), &lists[3]).is_err());
        assert!(reject_unknown(&args(&["--prune", "interval"]), &UARCH_FLAGS).is_ok());
    }
}
