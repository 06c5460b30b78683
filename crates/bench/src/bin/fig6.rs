//! Figure 6 — ReStore coverage in the *hardened* pipeline: parity on
//! control-word latches + ECC on the register file, alias tables and
//! other key data stores (§5.2.2's "low hanging fruit"), layered with
//! symptom-based detection.
//!
//! Usage: `fig6 [--points N] [--trials N] [--seed S] [--threads N]
//! [--prune off|interval|audit] [--store DIR] [--sig-chunk N] [--dup-mask M]`

use restore_bench::{cli, coverage_summary, uarch_table, FIG46_INTERVALS};
use restore_inject::{run_uarch_campaign_io, CfvMode, Shard, UarchCampaignConfig};
use restore_uarch::{Pipeline, UarchConfig};
use restore_workloads::WorkloadId;

const USAGE: &str = "fig6 [--points N] [--trials N] [--seed S] [--threads N] \
                     [--prune off|interval|audit] [--store DIR] [--sig-chunk N] [--dup-mask M]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = UarchCampaignConfig::default();
    cli::or_exit(cli::reject_unknown(&args, &cli::UARCH_FLAGS), USAGE);
    cli::or_exit(cli::apply_uarch_flags(&mut cfg, &args), USAGE);

    // Report the protection domain size (paper: ~7% state overhead for
    // parity/ECC; the covered fraction of bits is what matters here).
    let program = WorkloadId::Mcfx.build(cfg.scale);
    let mut probe = Pipeline::new(UarchConfig::default(), &program);
    let catalog = probe.catalog();
    eprintln!(
        "fig6: lhf protection covers {:.1}% of {} state bits at {:.1}% storage overhead (paper: ~7%)",
        100.0 * catalog.lhf_coverage(),
        catalog.total_bits,
        100.0 * catalog.lhf_overhead()
    );

    let store = cli::or_exit(cli::open_uarch_store(&cfg, &args), USAGE);
    let (trials, stats) = run_uarch_campaign_io(&cfg, store.as_ref(), Shard::ALL);
    eprintln!("fig6: {stats}");

    println!("# Figure 6 — hardened (parity/ECC) pipeline + ReStore");
    println!("# columns: checkpoint interval (instructions); cells: % of all trials");
    println!("{}", uarch_table(&trials, &FIG46_INTERVALS, CfvMode::HighConfidence, true));

    // The paper's §5.2.2 progression of failure rates.
    let base = coverage_summary(&trials, 100, CfvMode::HighConfidence, false);
    let hard = coverage_summary(&trials, 100, CfvMode::HighConfidence, true);
    println!(
        "failure fraction, baseline:        {:.2}%  (paper: ~7%)",
        100.0 * base.failure_fraction
    );
    println!(
        "  + ReStore @100:                  {:.2}%  (paper: ~3.5%)",
        100.0 * base.residual_failure_fraction
    );
    println!(
        "failure fraction, lhf:             {:.2}%  (paper: ~3%)",
        100.0 * hard.failure_fraction
    );
    println!(
        "  + ReStore @100 (lhf+ReStore):    {:.2}%  (paper: ~1%)",
        100.0 * hard.residual_failure_fraction
    );
    let improvement = base.failure_fraction / hard.residual_failure_fraction.max(1e-9);
    println!("MTBF improvement lhf+ReStore:      {improvement:.1}x  (paper: ~7x)");
}
