//! Symptom-based error detection (§3).
//!
//! A *symptom* is an event that is rare in steady-state execution but
//! common in the wake of a soft error. The paper's two headline detectors
//! are ISA exceptions and high-confidence branch mispredictions, backed
//! by a watchdog for deadlock; §3.3 generalises the idea and names
//! cache/TLB misses as candidate symptoms with poor false-positive
//! behaviour (supported here for the ablation experiments).

use restore_arch::Exception;
use restore_uarch::CycleReport;

/// A detected symptom occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Symptom {
    /// An ISA-defined exception reached the retirement point.
    Exception(Exception),
    /// A high-confidence branch prediction was contradicted at execute.
    HighConfidenceMispredict {
        /// PC of the mispredicted branch.
        pc: u64,
    },
    /// The retirement watchdog saturated (deadlock/livelock).
    Watchdog,
    /// Data-cache miss (generalised symptom, §3.3 — high false-positive
    /// rate, off by default).
    CacheMiss,
}

impl Symptom {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Symptom::Exception(_) => "exception",
            Symptom::HighConfidenceMispredict { .. } => "cfv",
            Symptom::Watchdog => "deadlock",
            Symptom::CacheMiss => "cache-miss",
        }
    }
}

/// Which detectors are armed.
///
/// # Examples
///
/// ```
/// use restore_core::SymptomConfig;
/// let cfg = SymptomConfig::paper(); // exceptions + high-conf cfv + watchdog
/// assert!(cfg.exceptions && cfg.high_conf_mispredicts && cfg.watchdog);
/// assert!(!cfg.cache_misses);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymptomConfig {
    /// Treat ISA exceptions as symptoms (§3.2.1).
    pub exceptions: bool,
    /// Treat high-confidence mispredictions as symptoms (§3.2.2).
    pub high_conf_mispredicts: bool,
    /// Treat *all* mispredictions as symptoms (the "perfect confidence"
    /// ablation in §5.2.1 — unacceptably costly in rollbacks).
    pub all_mispredicts: bool,
    /// Treat watchdog saturation as a symptom (§5.1.1).
    pub watchdog: bool,
    /// Treat data-cache misses as symptoms (§3.3's cautionary example).
    pub cache_misses: bool,
}

impl SymptomConfig {
    /// The paper's evaluated configuration: exceptions + high-confidence
    /// mispredictions + watchdog.
    pub fn paper() -> SymptomConfig {
        SymptomConfig {
            exceptions: true,
            high_conf_mispredicts: true,
            all_mispredicts: false,
            watchdog: true,
            cache_misses: false,
        }
    }

    /// Detection disabled entirely (the baseline pipeline).
    pub fn none() -> SymptomConfig {
        SymptomConfig {
            exceptions: false,
            high_conf_mispredicts: false,
            all_mispredicts: false,
            watchdog: false,
            cache_misses: false,
        }
    }

    /// Perfect control-flow-violation detection (§5.1.1's idealised
    /// study): every misprediction counts.
    pub fn perfect_cfv() -> SymptomConfig {
        SymptomConfig { all_mispredicts: true, ..SymptomConfig::paper() }
    }

    /// Extracts the symptoms present in one cycle's report, scanning the
    /// armed detectors in a fixed order: watchdog, exception,
    /// conditional mispredicts, cache misses. `all_mispredicts` subsumes
    /// `high_conf_mispredicts`, so each mispredict fires at most once.
    pub fn detect(&self, report: &CycleReport) -> Vec<Symptom> {
        let mut out = Vec::new();
        if self.watchdog && report.deadlock {
            out.push(Symptom::Watchdog);
        }
        if self.exceptions {
            if let Some(e) = report.exception {
                out.push(Symptom::Exception(e));
            }
        }
        for m in &report.mispredicts {
            let fire = self.all_mispredicts || (self.high_conf_mispredicts && m.high_confidence);
            if fire && m.conditional {
                out.push(Symptom::HighConfidenceMispredict { pc: m.pc });
            }
        }
        if self.cache_misses && report.dcache_misses > 0 {
            out.push(Symptom::CacheMiss);
        }
        out
    }
}

impl Default for SymptomConfig {
    fn default() -> Self {
        SymptomConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_uarch::MispredictEvent;

    fn report() -> CycleReport {
        CycleReport::default()
    }

    #[test]
    fn quiet_cycle_has_no_symptoms() {
        assert!(SymptomConfig::paper().detect(&report()).is_empty());
    }

    #[test]
    fn exception_fires_when_armed() {
        let mut r = report();
        r.exception = Some(Exception::ArithmeticTrap { pc: 4 });
        assert_eq!(SymptomConfig::paper().detect(&r).len(), 1);
        assert!(SymptomConfig::none().detect(&r).is_empty());
    }

    #[test]
    fn only_high_confidence_mispredicts_fire_by_default() {
        let mut r = report();
        r.mispredicts.push(MispredictEvent {
            pc: 0x1000,
            high_confidence: false,
            conditional: true,
            retired_before: 0,
        });
        assert!(SymptomConfig::paper().detect(&r).is_empty());
        assert_eq!(SymptomConfig::perfect_cfv().detect(&r).len(), 1);
        r.mispredicts[0].high_confidence = true;
        assert_eq!(SymptomConfig::paper().detect(&r).len(), 1);
    }

    #[test]
    fn indirect_jump_mispredicts_do_not_fire() {
        // BTB-miss jumps mispredict constantly in normal operation; they
        // are not the paper's cfv symptom.
        let mut r = report();
        r.mispredicts.push(MispredictEvent {
            pc: 0x1000,
            high_confidence: true,
            conditional: false,
            retired_before: 0,
        });
        assert!(SymptomConfig::paper().detect(&r).is_empty());
    }

    #[test]
    fn cache_miss_symptom_only_when_armed() {
        let mut r = report();
        r.dcache_misses = 2;
        assert!(SymptomConfig::paper().detect(&r).is_empty());
        let armed = SymptomConfig { cache_misses: true, ..SymptomConfig::paper() };
        assert_eq!(armed.detect(&r), vec![Symptom::CacheMiss]);
    }

    #[test]
    fn watchdog_fires() {
        let mut r = report();
        r.deadlock = true;
        let s = SymptomConfig::paper().detect(&r);
        assert_eq!(s, vec![Symptom::Watchdog]);
        assert_eq!(s[0].name(), "deadlock");
    }
}
