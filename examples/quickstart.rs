//! Quickstart: run a workload under the ReStore architecture, inject a
//! soft error mid-flight, and watch symptom-based detection recover it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use restore_core::{RestoreConfig, RestoreController, RestoreOutcome};
use restore_uarch::{FaultState, Pipeline, UarchConfig};
use restore_workloads::{Scale, WorkloadId};

fn main() {
    let scale = Scale { size: 32, seed: 2026 };
    let workload = WorkloadId::Vortexx;
    let expected = workload.expected(scale);
    println!("workload: {workload} (hash-table object store), expected checksum {expected:#x}");

    // 1. Fault-free run under ReStore: transparent.
    let program = workload.build(scale);
    let pipe = Pipeline::new(UarchConfig::default(), &program);
    let mut restore = RestoreController::new(pipe, RestoreConfig::default());
    let outcome = restore.run(50_000_000);
    println!("\n[fault-free] outcome: {outcome:?}");
    println!(
        "[fault-free] output:  {:#x} (correct: {})",
        restore.output()[0],
        restore.output() == [expected]
    );
    let s = restore.stats();
    println!(
        "[fault-free] {} checkpoints, {} rollbacks ({} false positives), overhead {:.1}%",
        s.checkpoints,
        s.rollbacks,
        s.false_positives,
        100.0 * (s.total_retired - s.useful_retired) as f64 / s.useful_retired.max(1) as f64
    );

    // 2. Inject single-bit flips mid-run and tally outcomes.
    println!("\ninjecting one random state-bit flip per run (20 runs):");
    #[expect(
        clippy::disallowed_methods,
        reason = "a fixed demo seed; the example is not a campaign"
    )]
    let mut rng = StdRng::seed_from_u64(7);
    let (mut clean, mut recovered, mut reported, mut sdc) = (0, 0, 0, 0);
    for run in 0..20 {
        let pipe = Pipeline::new(UarchConfig::default(), &program);
        let mut c = RestoreController::new(pipe, RestoreConfig::default());
        c.run(rng.gen_range(2_000..30_000)); // random injection time
        let bits = {
            let mut rec = restore_uarch::state::RangeRecorder::new();
            c.pipeline_mut().visit_state(&mut rec);
            rec.into_catalog().total_bits
        };
        let bit = rng.gen_range(0..bits);
        c.pipeline_mut().flip_bit(bit);
        match c.run(80_000_000) {
            RestoreOutcome::Halted if c.output() == [expected] => {
                if c.stats().detected_errors > 0 {
                    recovered += 1;
                    println!(
                        "  run {run:2}: bit {bit:6} -> DETECTED + RECOVERED \
                         ({} rollbacks, correct output)",
                        c.stats().rollbacks
                    );
                } else {
                    clean += 1;
                }
            }
            RestoreOutcome::Halted => {
                sdc += 1;
                println!("  run {run:2}: bit {bit:6} -> silent data corruption (coverage gap)");
            }
            other => {
                reported += 1;
                println!("  run {run:2}: bit {bit:6} -> reported failure: {other:?}");
            }
        }
    }
    println!(
        "\nsummary: {clean} masked, {recovered} detected+recovered, \
         {reported} reported failures, {sdc} silent corruptions"
    );
    println!(
        "(the paper's claim: symptom-based detection halves silent corruption at minimal cost)"
    );
}
