//! Restored-state rollback replay for the Figure 7 study (§5.2.3).
//!
//! The paper prices false-positive rollbacks analytically: an `imm`
//! rollback restores the **older** of the two live checkpoints (average
//! distance 1.5× the interval, once per symptom), a `delayed` rollback
//! waits for the interval to complete (one rollback per symptomatic
//! interval, 2-interval distance). This module replaces the assumed
//! distances with measurement: each rollback *actually restores* the
//! older checkpoint's machine state from the process-wide golden
//! checkpoint library ([`restore_snapshot`]) and re-executes to the
//! resume point, counting the instructions really replayed — which can
//! undershoot the analytic distance when the run halts mid-replay, and
//! exposes the saturating first-interval case (`p < interval`) the
//! closed form rounds away.
//!
//! Every restore is proof-carrying: a machine cloned from a snapshot at
//! the restore coordinate must reproduce the fingerprint recorded at
//! capture ([`ReplayMeasurement::restores_verified`]), and the architectural
//! registers the paper's hardware would snapshot are round-tripped
//! through [`crate::Checkpoint::of_cpu`].

use crate::{config_digest, Checkpoint};
use restore_arch::Cpu;
use restore_snapshot::{library, GoldenCheckpointLibrary, LibraryKey, Served, SnapshotMachine};
use restore_workloads::{Scale, WorkloadId};

/// Library-key seeding domain for replay measurements (decorrelated
/// from the injection campaigns' domains).
pub const DOMAIN_REPLAY: u64 = 0x5e7a_11ed_f1c7_0007;

/// Rollback policy, mirroring `restore_perf::Policy` (kept local so the
/// core crate stays independent of the perf crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RollbackPolicy {
    /// Roll back as soon as a symptom fires.
    Immediate,
    /// Defer the rollback until the interval completes.
    Delayed,
}

/// What one workload's rollback replay measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayMeasurement {
    /// Rollbacks performed (one per symptom for `Immediate`, one per
    /// symptomatic interval for `Delayed`).
    pub rollbacks: u64,
    /// Instructions actually re-executed from restored checkpoints.
    pub reexec_instructions: u64,
    /// Instructions the analytic model charges for the same symptoms
    /// (`1.5·interval` per symptom, `2·interval` per symptomatic
    /// interval).
    pub analytic_instructions: f64,
    /// Restores whose materialized machine reproduced its capture
    /// fingerprint bit-for-bit (must equal `rollbacks`).
    pub restores_verified: u64,
}

impl ReplayMeasurement {
    /// Measured-over-analytic re-execution ratio (1.0 = the closed form
    /// was exact; < 1.0 when halts or first-interval saturation shave
    /// replay distance).
    pub fn measured_over_analytic(&self) -> f64 {
        if self.analytic_instructions > 0.0 {
            self.reexec_instructions as f64 / self.analytic_instructions
        } else {
            1.0
        }
    }
}

/// The rollback events a policy schedules for one symptom trace:
/// `(restore_coordinate, resume_coordinate)` pairs, in trace order.
fn rollback_events(interval: u64, policy: RollbackPolicy, symptoms: &[u64]) -> Vec<(u64, u64)> {
    let restore_for = |j: u64| j.saturating_sub(1) * interval;
    match policy {
        RollbackPolicy::Immediate => {
            // Each symptom at position p restores the older checkpoint
            // of its interval and re-executes back to p.
            symptoms.iter().map(|&p| (restore_for(p / interval), p)).collect()
        }
        RollbackPolicy::Delayed => {
            // One rollback per symptomatic interval j, deferred to the
            // interval boundary: restore the older checkpoint and
            // re-execute the full two-interval span.
            let mut intervals: Vec<u64> = symptoms.iter().map(|&p| p / interval).collect();
            intervals.sort_unstable();
            intervals.dedup();
            intervals.into_iter().map(|j| (restore_for(j), (j + 1) * interval)).collect()
        }
    }
}

/// Replays one workload's false-positive rollbacks with real restored
/// state and returns what re-execution actually cost.
///
/// `symptoms` are retired-instruction positions of false-positive
/// symptoms (e.g. `restore_perf::WorkloadProfile::symptom_positions`);
/// `ckpt_stride` is the golden library's capture stride (clamped to at
/// least 1 — replay cannot run without checkpoints).
///
/// # Panics
///
/// Panics if a materialized checkpoint fails its fingerprint
/// verification or disagrees with the restore coordinate — either would
/// mean the restore path is unsound.
pub fn measure_rollbacks(
    id: WorkloadId,
    scale: Scale,
    interval: u64,
    policy: RollbackPolicy,
    symptoms: &[u64],
    ckpt_stride: u64,
) -> ReplayMeasurement {
    let interval = interval.max(1);
    let stride = ckpt_stride.max(1);
    let wl = WorkloadId::ALL.iter().position(|&w| w == id).expect("id is in ALL") as u64;
    let key = LibraryKey {
        domain: DOMAIN_REPLAY,
        workload: wl,
        config: config_digest(&format!("{scale:?}")),
        stride,
    };
    let (lib, _) =
        library(key, || GoldenCheckpointLibrary::new(Cpu::new(&id.build(scale)), stride));
    let mut lib = lib.lock().expect("a panic poisoned this golden checkpoint library");
    let mut out = ReplayMeasurement {
        rollbacks: 0,
        reexec_instructions: 0,
        analytic_instructions: 0.0,
        restores_verified: 0,
    };
    for (restore_at, resume_at) in rollback_events(interval, policy, symptoms) {
        let Some(m) = lib.materialize(restore_at) else {
            // The golden run never reaches this restore point (symptom
            // positions past the measured halt); the analytic model
            // charges nothing real here either.
            continue;
        };
        let mut cpu = m.machine;
        // Finish the residual walk to the checkpoint coordinate and
        // prove the restore: the state must reproduce its capture
        // fingerprint (when a snapshot itself sits on the restore
        // coordinate) and must be exactly where the paper's two-deep
        // store would roll back to. A frontier serve is already there.
        match m.served {
            Served::Snapshot { fingerprint, .. } if cpu.coord() == restore_at => {
                assert_eq!(
                    cpu.fingerprint(),
                    fingerprint,
                    "restored state diverged from its capture fingerprint"
                );
            }
            _ => {
                assert!(cpu.step_to(restore_at), "golden run is live at the restore point");
            }
        }
        let ck = Checkpoint::of_cpu(&cpu);
        assert_eq!(ck.retired, restore_at, "checkpoint is at the rollback coordinate");
        out.restores_verified += 1;

        // Re-execute to the resume point on the restored state, counting
        // what replay really costs (halting early is a genuine saving
        // the analytic form cannot see).
        cpu.step_to(resume_at);
        out.rollbacks += 1;
        out.reexec_instructions += cpu.retired() - restore_at;
        out.analytic_instructions += match policy {
            RollbackPolicy::Immediate => 1.5 * interval as f64,
            RollbackPolicy::Delayed => 2.0 * interval as f64,
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_events_restore_the_older_checkpoint() {
        // Symptom at 250 with interval 100 lives in interval 2; the two
        // live checkpoints are at 200 and 100, and rollback restores the
        // older: 100. Distance 150 = 1.5 intervals.
        assert_eq!(rollback_events(100, RollbackPolicy::Immediate, &[250]), vec![(100, 250)]);
        // First interval saturates: nothing older than the origin.
        assert_eq!(rollback_events(100, RollbackPolicy::Immediate, &[40]), vec![(0, 40)]);
    }

    #[test]
    fn delayed_events_deduplicate_symptomatic_intervals() {
        // Three symptoms, two in interval 2, one in interval 5: two
        // rollbacks, each spanning exactly two intervals.
        let ev = rollback_events(100, RollbackPolicy::Delayed, &[250, 290, 510]);
        assert_eq!(ev, vec![(100, 300), (400, 600)]);
        for (r, t) in ev {
            assert_eq!(t - r, 200);
        }
    }

    #[test]
    fn measured_replay_tracks_the_analytic_model() {
        let id = WorkloadId::Gzipx;
        let scale = Scale::smoke();
        let len = restore_workloads::run_length(id, scale);
        assert!(len > 1_000, "smoke run long enough for mid-run symptoms");
        // Symptoms placed mid-run, away from halt and origin: replay
        // distance is exactly the analytic distance.
        let symptoms = [len / 2, len / 2 + 7, len / 2 + 350];
        let m = measure_rollbacks(id, scale, 100, RollbackPolicy::Immediate, &symptoms, 500);
        assert_eq!(m.rollbacks, 3);
        assert_eq!(m.restores_verified, 3);
        assert!(
            (0.5..=1.5).contains(&m.measured_over_analytic()),
            "measured/analytic {:.3} out of band",
            m.measured_over_analytic()
        );

        let d = measure_rollbacks(id, scale, 100, RollbackPolicy::Delayed, &symptoms, 500);
        assert!(d.rollbacks <= m.rollbacks, "delayed coalesces same-interval symptoms");
        assert_eq!(d.restores_verified, d.rollbacks);
        // Mid-run two-interval replays measure exactly 2·interval each.
        assert_eq!(d.reexec_instructions, d.rollbacks * 200);
    }

    #[test]
    fn symptoms_past_the_halt_are_skipped() {
        let id = WorkloadId::Gzipx;
        let scale = Scale::smoke();
        let len = restore_workloads::run_length(id, scale);
        let m = measure_rollbacks(id, scale, 100, RollbackPolicy::Immediate, &[len + 10_000], 500);
        assert_eq!(m.rollbacks, 0);
        assert_eq!(m.reexec_instructions, 0);
    }
}
