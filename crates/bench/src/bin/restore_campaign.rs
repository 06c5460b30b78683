//! `restore-campaign` — the sharded, resumable campaign runner over the
//! content-addressed trial store.
//!
//! One invocation runs one shard (`--shard i/N`, default the whole
//! plan) of one campaign (`--domain arch|uarch` plus that domain's
//! knobs), recording every finished trial into `--store DIR` and
//! serving any trial the store already holds without simulating it.
//! Trial records print to stdout as canonical JSON lines in plan order
//! — bit-identical however the campaign is split, resumed or threaded —
//! and stats print to stderr.
//!
//! Workflows this enables:
//!
//! * **Sharding**: run `--shard 0/3`, `1/3`, `2/3` on three machines
//!   against separate store directories, then merge by copying the
//!   segment files into one directory (shard labels keep the names
//!   distinct). A run against the merged store replays the full
//!   campaign bit-identically without simulating anything.
//! * **Resuming**: appends are single unbuffered writes of
//!   self-validating lines, so an interrupt (SIGINT, OOM kill, power
//!   loss) costs at most the in-flight trial; the next open truncates
//!   any torn tail and `--resume` re-runs only what is missing.
//!   Without `--resume`, finding records for this exact campaign in the
//!   store is an error — a guard against accidentally reusing a store
//!   and mistaking replayed results for a fresh measurement.
//!
//! Usage: `restore-campaign --domain arch|uarch --store DIR [--shard i/N] [--resume] ...`

use restore_bench::cli;
use restore_inject::{
    arch_campaign_digest, run_arch_campaign_io, run_uarch_campaign_io, uarch_campaign_digest,
    ArchCampaignConfig, CampaignStats, InjectionTarget, Payload, Shard, TrialCache,
    UarchCampaignConfig,
};

const USAGE: &str = "restore-campaign --domain arch|uarch --store DIR [--shard i/N] [--resume]\n\
    arch knobs:  [--trials N] [--size N] [--low32] [--seed S] [--threads N] [--cutoff K] \
    [--prune off|interval|audit] [--ckpt-stride K] [--sig-chunk N] [--dup-mask M]\n\
    uarch knobs: [--points N] [--trials N] [--latches-only] [--seed S] [--threads N] \
    [--cutoff K] [--prune off|interval|audit] [--ckpt-stride K] [--sig-chunk N] \
    [--dup-mask M]";

/// Parses the flags every domain shares; returns `(store dir, shard,
/// resume)`.
fn shared_flags(args: &[String]) -> Result<(std::path::PathBuf, Shard, bool), cli::CliError> {
    let store = cli::store_path(args)?
        .ok_or_else(|| cli::CliError("--store DIR is required".to_owned()))?;
    let shard = match cli::value(args, "--shard")? {
        None => Shard::ALL,
        Some(v) => Shard::parse(v).map_err(|e| cli::CliError(format!("--shard: {e}")))?,
    };
    Ok((store, shard, cli::flag(args, "--resume")))
}

/// Refuses to silently replay an existing campaign: records for this
/// exact configuration already in the store require `--resume`.
fn resume_gate<T: Payload>(cache: &TrialCache<T>, resume: bool) {
    let held = cache.cached_for_config();
    if held > 0 && !resume {
        eprintln!(
            "error: the store already holds {held} records for this campaign configuration; \
             pass --resume to serve them (or point --store at a fresh directory)"
        );
        std::process::exit(2);
    }
}

/// The greppable outcome line (`cycles-simulated 0` is the fully-warm
/// signature the CI cache-equivalence job checks for).
fn report(domain: &str, shard: Shard, stats: &CampaignStats) {
    eprintln!("restore-campaign[{domain} {shard}]: {stats}");
    eprintln!(
        "restore-campaign[{domain} {shard}]: trials {} cached {} cycles-simulated {} \
         cycles-cached {}",
        stats.trials, stats.trials_cached, stats.cycles_simulated, stats.cycles_cached
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let domain = cli::or_exit(
        cli::value(&args, "--domain").and_then(|v| {
            v.map(str::to_owned)
                .ok_or_else(|| cli::CliError("--domain arch|uarch is required".to_owned()))
        }),
        USAGE,
    );
    match domain.as_str() {
        "arch" => {
            cli::or_exit(
                cli::reject_unknown(
                    &args,
                    &[
                        "--domain",
                        "--store",
                        "--shard",
                        "--resume",
                        "--trials",
                        "--size",
                        "--low32",
                        "--seed",
                        "--threads",
                        "--cutoff",
                        "--prune",
                        "--ckpt-stride",
                        "--sig-chunk",
                        "--dup-mask",
                    ],
                ),
                USAGE,
            );
            let (dir, shard, resume) = cli::or_exit(shared_flags(&args), USAGE);
            let mut cfg = ArchCampaignConfig::default();
            cli::or_exit(cli::apply_arch_flags(&mut cfg, &args, "--trials"), USAGE);
            let cache = cli::or_exit(
                TrialCache::open(&dir, &shard.label(), arch_campaign_digest(&cfg))
                    .map_err(|e| cli::CliError(format!("--store {}: {e}", dir.display()))),
                USAGE,
            );
            resume_gate(&cache, resume);
            let (trials, stats) = run_arch_campaign_io(&cfg, Some(&cache), shard);
            for t in &trials {
                println!("{}", t.encode().render());
            }
            cache.sync().expect("trial store sync failed");
            report("arch", shard, &stats);
        }
        "uarch" => {
            cli::or_exit(
                cli::reject_unknown(
                    &args,
                    &cli::uarch_flags_plus(&["--domain", "--shard", "--resume", "--latches-only"]),
                ),
                USAGE,
            );
            let (dir, shard, resume) = cli::or_exit(shared_flags(&args), USAGE);
            let mut cfg = UarchCampaignConfig::default();
            cli::or_exit(cli::apply_uarch_flags(&mut cfg, &args), USAGE);
            if cli::flag(&args, "--latches-only") {
                cfg.target = InjectionTarget::LatchesOnly;
            }
            let cache = cli::or_exit(
                TrialCache::open(&dir, &shard.label(), uarch_campaign_digest(&cfg))
                    .map_err(|e| cli::CliError(format!("--store {}: {e}", dir.display()))),
                USAGE,
            );
            resume_gate(&cache, resume);
            let (trials, stats) = run_uarch_campaign_io(&cfg, Some(&cache), shard);
            for t in &trials {
                println!("{}", t.encode().render());
            }
            cache.sync().expect("trial store sync failed");
            report("uarch", shard, &stats);
        }
        other => {
            cli::or_exit(
                Err::<(), _>(cli::CliError(format!("--domain: `{other}` is not arch|uarch"))),
                USAGE,
            );
        }
    }
}
