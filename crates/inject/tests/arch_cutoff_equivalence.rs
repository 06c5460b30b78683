//! Regression tests for the **architectural** reconvergence cutoff: a
//! Figure 2 campaign's trial vector is **bit-identical** to the
//! exhaustive run's, at every thread count — the cutoff may only change
//! how many lockstep instructions get simulated, never what a trial
//! reports.
//!
//! Campaigns always cut, at a fixed stride, and the exhaustive trial is
//! reachable only from the crate's own tests, which hold random trials
//! and a whole campaign to it (`arch_campaign::tests`). From here the
//! exhaustive run is a pinned fixture: `tests/golden/arch.txt` and
//! `arch_low32.txt` were recorded before the arch campaign had a
//! cutoff, in `golden_vectors.rs`'s rendering.
//!
//! Soundness: an empty difference overlay at a stride boundary means
//! the injected machine is bit-identical to golden, so its future is
//! golden's and the exhaustive verdict is `masked` without running the
//! rest of the window.

use restore_inject::{run_arch_campaign_io, ArchCampaignConfig, ArchTrial, Shard};
use restore_workloads::Scale;

/// The fixtures' campaign.
fn fixture_cfg(threads: usize, low32: bool) -> ArchCampaignConfig {
    ArchCampaignConfig {
        scale: Scale::smoke(),
        trials_per_workload: 12,
        window: 100_000,
        seed: 0x60D,
        low32,
        threads,
        ..ArchCampaignConfig::default()
    }
}

/// `golden_vectors.rs`'s rendering of arch records.
fn render(trials: &[ArchTrial]) -> String {
    let opt = |v: Option<u64>| v.map_or_else(|| "-".to_owned(), |x| x.to_string());
    trials
        .iter()
        .map(|t| {
            format!(
                "wl={} exception={} cfv={} mem_addr={} mem_data={} masked={}\n",
                t.workload,
                opt(t.firings.exception),
                opt(t.firings.cfv),
                opt(t.firings.mem_addr),
                opt(t.firings.mem_data),
                t.masked as u8,
            )
        })
        .collect()
}

/// Runs the fixture campaign at 1, 2 and 4 threads: each run must cut
/// trials, plan the same lockstep instructions, and render the
/// exhaustive engine's records.
fn cut_runs_match_the_exhaustive_fixture(name: &str, low32: bool) {
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(path).expect("fixture exists");
    let mut planned = None;
    for threads in [1, 2, 4] {
        let (got, stats) = run_arch_campaign_io(&fixture_cfg(threads, low32), None, Shard::ALL);
        assert_eq!(render(&got), want, "{name}: the cut campaign diverged at {threads} threads");
        assert!(
            stats.trials_cut > 0 && stats.cycles_saved > 0,
            "{name}: expected some reconvergent trials to be cut at {threads} threads"
        );
        let p = stats.cycles_simulated + stats.cycles_saved;
        assert_eq!(*planned.get_or_insert(p), p, "{name}: planned instructions moved");
    }
}

#[test]
fn arch_cutoff_on_equals_cutoff_off_at_every_thread_count() {
    cut_runs_match_the_exhaustive_fixture("arch", false);
}

/// The low-32-bit variant (§3.1) masks more often, so it leans on the
/// cutoff harder — pin its equivalence separately.
#[test]
fn arch_cutoff_on_equals_cutoff_off_for_low32_variant() {
    cut_runs_match_the_exhaustive_fixture("arch_low32", true);
}

/// The default configuration ships with the cutoff on, and it saves
/// work on a stock run.
#[test]
fn default_arch_config_has_cutoff_on_and_saving() {
    let cfg = ArchCampaignConfig {
        scale: Scale::smoke(),
        trials_per_workload: 10,
        seed: 0xA7C4,
        ..ArchCampaignConfig::default()
    };
    let (_, stats) = run_arch_campaign_io(&cfg, None, Shard::ALL);
    assert!(
        stats.trials_cut > 0 && stats.cycles_saved > 0,
        "the default config saved nothing: {}",
        stats
    );
}
