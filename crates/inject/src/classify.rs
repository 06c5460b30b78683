//! Trial outcome categories — the paper's Tables 1 and 2 — and the
//! symptom precedence both campaign levels classify a trial's
//! [`Firings`] by ([`Symptom::first_within`]).

use core::fmt;
use restore_core::Firings;

/// A detectable symptom class, in the paper's detection-precedence
/// order (deadlock > exception > cfv > mem-addr > mem-data). Both
/// abstraction levels share this order; each simply never reports the
/// classes its fault model cannot observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Symptom {
    /// Watchdog saturation (microarchitectural campaigns only).
    Deadlock,
    /// An ISA-defined exception was raised.
    Exception,
    /// Control-flow violation — an incorrect instruction executed.
    Cfv,
    /// A memory access used a corrupted address (architectural level).
    MemAddr,
    /// A store wrote corrupted data to a correct address (architectural
    /// level).
    MemData,
}

impl Symptom {
    /// The highest-precedence symptom in `f` that fired within `bound`
    /// retired instructions of the flip (deadlock > exception > cfv >
    /// mem-addr > mem-data), or `None` if nothing fired in time.
    ///
    /// This is the one place the paper's detection precedence lives:
    /// both campaign classifiers resolve through it, so they cannot
    /// drift apart.
    pub fn first_within(f: &Firings, bound: u64) -> Option<Symptom> {
        [
            (f.deadlock, Symptom::Deadlock),
            (f.exception, Symptom::Exception),
            (f.cfv, Symptom::Cfv),
            (f.mem_addr, Symptom::MemAddr),
            (f.mem_data, Symptom::MemData),
        ]
        .into_iter()
        .find_map(|(at, s)| at.is_some_and(|l| l <= bound).then_some(s))
    }
}

/// Categories of the architectural-level (virtual machine) study —
/// **Table 1** of the paper.
///
/// Precedence when multiple apply (lower wins): exception > cfv >
/// mem-addr > mem-data > register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArchCategory {
    /// The injected fault was masked (did not cause failure).
    Masked,
    /// An ISA-defined exception was raised.
    Exception,
    /// Control flow violation — an incorrect instruction executed.
    Cfv,
    /// The address of a memory operation was affected.
    MemAddr,
    /// A store instruction wrote incorrect data to memory.
    MemData,
    /// Only registers were corrupted (so far).
    Register,
}

impl ArchCategory {
    /// All categories, masked first (the stacking order of Figure 2).
    pub const ALL: [ArchCategory; 6] = [
        ArchCategory::Masked,
        ArchCategory::Exception,
        ArchCategory::Cfv,
        ArchCategory::MemAddr,
        ArchCategory::MemData,
        ArchCategory::Register,
    ];

    /// Label used in Figure 2.
    pub fn label(self) -> &'static str {
        match self {
            ArchCategory::Masked => "masked",
            ArchCategory::Exception => "exception",
            ArchCategory::Cfv => "cfv",
            ArchCategory::MemAddr => "mem-addr",
            ArchCategory::MemData => "mem-data",
            ArchCategory::Register => "register",
        }
    }
}

impl fmt::Display for ArchCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Categories of the microarchitectural studies — **Table 2** of the
/// paper.
///
/// Precedence for failing trials (lower wins): deadlock > exception >
/// cfv > sdc. `Masked` and `Other` are non-failures; `Latent` is a fault
/// still resident in software-visible state at trial end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UarchCategory {
    /// The fault was masked or overwritten.
    Masked,
    /// Failure occurred in the form of a deadlock (watchdog saturation).
    Deadlock,
    /// The fault propagated into an ISA-defined exception.
    Exception,
    /// The fault caused a control flow violation.
    Cfv,
    /// Register file or memory state corruption (silent data corruption).
    Sdc,
    /// No failure detected yet, but the fault is still latent in
    /// software-visible state.
    Latent,
    /// Residue confined to dead microarchitectural state (or state
    /// covered by ECC in the hardened pipeline) — failure unlikely.
    Other,
}

impl UarchCategory {
    /// All categories in Figure 4/5/6 stacking order.
    pub const ALL: [UarchCategory; 7] = [
        UarchCategory::Masked,
        UarchCategory::Deadlock,
        UarchCategory::Exception,
        UarchCategory::Cfv,
        UarchCategory::Sdc,
        UarchCategory::Latent,
        UarchCategory::Other,
    ];

    /// Label used in Figures 4–6.
    pub fn label(self) -> &'static str {
        match self {
            UarchCategory::Masked => "masked",
            UarchCategory::Deadlock => "deadlock",
            UarchCategory::Exception => "exception",
            UarchCategory::Cfv => "cfv",
            UarchCategory::Sdc => "sdc",
            UarchCategory::Latent => "latent",
            UarchCategory::Other => "other",
        }
    }

    /// `true` for the categories the paper counts as failures ("only 8%
    /// of all trials — those that fall into the deadlock, exception, cfv,
    /// sdc, and latent categories — are failures").
    pub fn is_failure(self) -> bool {
        !matches!(self, UarchCategory::Masked | UarchCategory::Other)
    }

    /// `true` for the categories ReStore detects and recovers (symptom
    /// fired within the checkpoint interval).
    pub fn is_covered(self) -> bool {
        matches!(self, UarchCategory::Deadlock | UarchCategory::Exception | UarchCategory::Cfv)
    }
}

impl fmt::Display for UarchCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_resolves_in_paper_order() {
        let f = Firings {
            deadlock: Some(500),
            exception: Some(50),
            cfv: Some(20),
            mem_addr: Some(5),
            mem_data: Some(2),
            ..Firings::default()
        };
        let first = |bound| Symptom::first_within(&f, bound);
        assert_eq!(first(1), None);
        assert_eq!(first(2), Some(Symptom::MemData));
        assert_eq!(first(5), Some(Symptom::MemAddr));
        assert_eq!(first(20), Some(Symptom::Cfv));
        assert_eq!(first(50), Some(Symptom::Exception));
        assert_eq!(first(500), Some(Symptom::Deadlock));
        assert_eq!(first(u64::MAX), Some(Symptom::Deadlock));
        // The other observables never classify as a symptom.
        let others = Firings {
            hc_mispredict: Some(1),
            any_mispredict: Some(1),
            value: Some(1),
            signature: Some(1),
            dup: Some(1),
            ..Firings::default()
        };
        assert_eq!(Symptom::first_within(&others, u64::MAX), None);
    }

    #[test]
    fn labels_unique_and_nonempty() {
        let mut seen = std::collections::HashSet::new();
        for c in ArchCategory::ALL {
            assert!(seen.insert(c.label()));
        }
        let mut seen = std::collections::HashSet::new();
        for c in UarchCategory::ALL {
            assert!(seen.insert(c.label()));
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn failure_partition_matches_paper() {
        use UarchCategory::*;
        assert!(!Masked.is_failure());
        assert!(!Other.is_failure());
        for c in [Deadlock, Exception, Cfv, Sdc, Latent] {
            assert!(c.is_failure());
        }
    }

    #[test]
    fn coverage_partition_matches_paper() {
        use UarchCategory::*;
        for c in [Deadlock, Exception, Cfv] {
            assert!(c.is_covered());
        }
        for c in [Masked, Sdc, Latent, Other] {
            assert!(!c.is_covered());
        }
    }
}
