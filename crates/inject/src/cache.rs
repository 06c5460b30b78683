//! Trial-store integration: the thread-shared [`TrialCache`] handle the
//! campaign loop consults before simulating, plus the on-disk codecs
//! ([`Payload`]) for both trial record types.
//!
//! The codecs are hand-rolled over `restore_store::Json` (the
//! workspace has no serialization dependency). Workloads travel by their
//! stable [`WorkloadId::name`]; region names — `&'static str` borrowed
//! from the machine catalogs when simulating — decode through a
//! leak-bounded interner, so a decoded record leaks each *distinct*
//! region name at most once per process.

use crate::arch_campaign::ArchTrial;
use crate::uarch_trial::{EndState, UarchTrial};
use restore_core::Firings;
use restore_store::{Json, Payload, StoreError, Stored, TrialKey, TrialStore};
use restore_workloads::WorkloadId;
use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A thread-shared handle on one campaign's trial store, pinned to the
/// campaign digest every key it reads or writes must carry.
///
/// The campaign workers share one handle behind a mutex; lookups clone
/// the record out so the lock is only held for the index probe, and
/// appends are single unbuffered line writes (crash-safe by the store's
/// torn-tail contract).
#[derive(Debug)]
pub struct TrialCache<T> {
    config: u64,
    store: Mutex<TrialStore<T>>,
}

impl<T: Payload> TrialCache<T> {
    /// Opens (creating if needed) the store at `dir`. `label` names
    /// this writer's segments — campaign shards must use their shard
    /// label so merged stores never collide; `config` is the campaign
    /// digest (`arch_campaign_digest` / `uarch_campaign_digest`).
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] from the underlying open (I/O, or a
    /// checked record that no longer decodes).
    pub fn open(dir: &Path, label: &str, config: u64) -> Result<TrialCache<T>, StoreError> {
        Ok(TrialCache { config, store: Mutex::new(TrialStore::open(dir, label)?) })
    }

    /// The campaign digest this cache serves.
    pub fn config(&self) -> u64 {
        self.config
    }

    /// Locks the store. A worker that panicked holding the lock fails
    /// its campaign anyway, so poisoning is ignored.
    fn store(&self) -> MutexGuard<'_, TrialStore<T>> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks one trial up by its content address.
    pub fn lookup(&self, key: &TrialKey) -> Option<Stored<T>> {
        self.store().get(key).cloned()
    }

    /// Whether the store holds a trial under `key`, without decoding
    /// or cloning it.
    pub(crate) fn contains(&self, key: &TrialKey) -> bool {
        self.store().contains(key)
    }

    /// Records one finished trial (idempotent on duplicate keys).
    ///
    /// # Panics
    ///
    /// Panics on append I/O failure: silently dropping records would
    /// let a later `--resume` re-simulate work this run claims to have
    /// saved, so a dying disk fails the campaign loudly.
    pub fn record(&self, rec: Stored<T>) {
        self.store().append(rec).expect("trial store append failed");
    }

    /// Total records in the store, any campaign digest.
    pub fn len(&self) -> usize {
        self.store().len()
    }

    /// `true` when the store holds no records at all.
    pub fn is_empty(&self) -> bool {
        self.store().is_empty()
    }

    /// Records carrying *this* campaign's digest — what a resumed run
    /// can actually skip.
    pub fn cached_for_config(&self) -> usize {
        self.store().cached_for_config(self.config)
    }

    /// Order-independent digest of the store's full content
    /// ([`TrialStore::content_digest`]).
    pub fn content_digest(&self) -> u64 {
        self.store().content_digest()
    }

    /// Flushes written records to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `fsync` failure.
    pub fn sync(&self) -> Result<(), StoreError> {
        self.store().sync()
    }
}

/// Interns a region name so decoded records can carry the `&'static
/// str` the trial type demands. Bounded by the number of distinct
/// region names across all machine catalogs.
fn intern(name: &str) -> &'static str {
    static INTERNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut table = INTERNED.lock().expect("interner poisoned");
    if let Some(hit) = table.iter().find(|s| **s == name) {
        return hit;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    table.push(leaked);
    leaked
}

fn workload_json(id: WorkloadId) -> Json {
    Json::from(id.name())
}

fn workload_of(v: &Json, key: &str) -> Result<WorkloadId, String> {
    let name = v.get(key).and_then(Json::as_str).ok_or_else(|| format!("missing {key}"))?;
    WorkloadId::ALL
        .iter()
        .copied()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))
}

fn opt_u64_of(v: &Json, key: &str) -> Result<Option<u64>, String> {
    let field = v.get(key).ok_or_else(|| format!("missing {key}"))?;
    if field.is_null() {
        return Ok(None);
    }
    field.as_u64().map(Some).ok_or_else(|| format!("{key} is not a u64"))
}

fn u64_of(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing {key}"))
}

fn i64_of(v: &Json, key: &str) -> Result<i64, String> {
    v.get(key).and_then(Json::as_i64).ok_or_else(|| format!("missing {key}"))
}

fn bool_of(v: &Json, key: &str) -> Result<bool, String> {
    v.get(key).and_then(Json::as_bool).ok_or_else(|| format!("missing {key}"))
}

fn str_of<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key).and_then(Json::as_str).ok_or_else(|| format!("missing {key}"))
}

/// The five precedence-ordered symptom latencies of `f`, which both
/// record kinds store nested under `symptoms`; each kind stores the
/// other observables it records as top-level keys of its own.
fn symptoms_json(f: &Firings) -> Json {
    Json::Obj(vec![
        ("deadlock".to_owned(), Json::from(f.deadlock)),
        ("exception".to_owned(), Json::from(f.exception)),
        ("cfv".to_owned(), Json::from(f.cfv)),
        ("mem_addr".to_owned(), Json::from(f.mem_addr)),
        ("mem_data".to_owned(), Json::from(f.mem_data)),
    ])
}

/// Firings holding the symptom latencies nested under `key`, every
/// other observable `None`.
fn symptoms_of(v: &Json, key: &str) -> Result<Firings, String> {
    let s = v.get(key).ok_or_else(|| format!("missing {key}"))?;
    Ok(Firings {
        deadlock: opt_u64_of(s, "deadlock")?,
        exception: opt_u64_of(s, "exception")?,
        cfv: opt_u64_of(s, "cfv")?,
        mem_addr: opt_u64_of(s, "mem_addr")?,
        mem_data: opt_u64_of(s, "mem_data")?,
        ..Firings::default()
    })
}

/// Stable end-state tags (part of the on-disk format — renaming a
/// variant must keep its tag).
fn end_tag(end: EndState) -> &'static str {
    match end {
        EndState::MaskedClean => "masked-clean",
        EndState::DeadResidue => "dead-residue",
        EndState::Latent => "latent",
        EndState::Terminated => "terminated",
        EndState::Completed => "completed",
    }
}

fn end_of(tag: &str) -> Result<EndState, String> {
    Ok(match tag {
        "masked-clean" => EndState::MaskedClean,
        "dead-residue" => EndState::DeadResidue,
        "latent" => EndState::Latent,
        "terminated" => EndState::Terminated,
        "completed" => EndState::Completed,
        other => return Err(format!("unknown end state `{other}`")),
    })
}

impl Payload for ArchTrial {
    fn kind() -> &'static str {
        "arch-trial"
    }

    fn encode(&self) -> Json {
        let f = &self.firings;
        Json::Obj(vec![
            ("workload".to_owned(), workload_json(self.workload)),
            ("symptoms".to_owned(), symptoms_json(f)),
            ("sig_mismatch".to_owned(), Json::from(f.signature)),
            ("dup_mismatch".to_owned(), Json::from(f.dup)),
            ("masked".to_owned(), Json::Bool(self.masked)),
        ])
    }

    fn decode(v: &Json) -> Result<ArchTrial, String> {
        Ok(ArchTrial {
            workload: workload_of(v, "workload")?,
            firings: Firings {
                signature: opt_u64_of(v, "sig_mismatch")?,
                dup: opt_u64_of(v, "dup_mismatch")?,
                ..symptoms_of(v, "symptoms")?
            },
            masked: bool_of(v, "masked")?,
        })
    }
}

impl Payload for UarchTrial {
    fn kind() -> &'static str {
        "uarch-trial"
    }

    fn encode(&self) -> Json {
        let f = &self.firings;
        Json::Obj(vec![
            ("workload".to_owned(), workload_json(self.workload)),
            ("bit".to_owned(), Json::UInt(self.bit)),
            ("region".to_owned(), Json::from(self.region)),
            ("lhf_protected".to_owned(), Json::Bool(self.lhf_protected)),
            ("symptoms".to_owned(), symptoms_json(f)),
            ("value_divergence".to_owned(), Json::from(f.value)),
            ("hc_mispredict".to_owned(), Json::from(f.hc_mispredict)),
            ("any_mispredict".to_owned(), Json::from(f.any_mispredict)),
            ("sig_mismatch".to_owned(), Json::from(f.signature)),
            ("dup_mismatch".to_owned(), Json::from(f.dup)),
            ("extra_dcache_misses".to_owned(), Json::from(self.extra_dcache_misses)),
            ("extra_dtlb_misses".to_owned(), Json::from(self.extra_dtlb_misses)),
            ("end".to_owned(), Json::from(end_tag(self.end))),
        ])
    }

    fn decode(v: &Json) -> Result<UarchTrial, String> {
        Ok(UarchTrial {
            workload: workload_of(v, "workload")?,
            bit: u64_of(v, "bit")?,
            region: intern(str_of(v, "region")?),
            lhf_protected: bool_of(v, "lhf_protected")?,
            firings: Firings {
                value: opt_u64_of(v, "value_divergence")?,
                hc_mispredict: opt_u64_of(v, "hc_mispredict")?,
                any_mispredict: opt_u64_of(v, "any_mispredict")?,
                signature: opt_u64_of(v, "sig_mismatch")?,
                dup: opt_u64_of(v, "dup_mismatch")?,
                ..symptoms_of(v, "symptoms")?
            },
            extra_dcache_misses: i64_of(v, "extra_dcache_misses")?,
            extra_dtlb_misses: i64_of(v, "extra_dtlb_misses")?,
            end: end_of(str_of(v, "end")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_trial_roundtrips() {
        let t = ArchTrial {
            workload: WorkloadId::Parserx,
            firings: Firings {
                exception: Some(42),
                mem_data: Some(0),
                signature: Some(100),
                ..Firings::default()
            },
            masked: false,
        };
        let wire = t.encode().render();
        let back = ArchTrial::decode(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.encode().render(), wire, "canonical form is stable");
    }

    #[test]
    fn uarch_trial_roundtrips_including_region_identity() {
        let t = UarchTrial {
            workload: WorkloadId::Vortexx,
            bit: 31_337,
            region: "rob",
            lhf_protected: true,
            firings: Firings {
                deadlock: Some(9_999),
                hc_mispredict: Some(17),
                any_mispredict: Some(3),
                signature: Some(64),
                dup: Some(12),
                ..Firings::default()
            },
            extra_dcache_misses: -4,
            extra_dtlb_misses: 0,
            end: EndState::Terminated,
        };
        let wire = t.encode().render();
        let back = UarchTrial::decode(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(back, t);
        // Two decodes of the same region name share one interned str.
        let twice = UarchTrial::decode(&Json::parse(&wire).unwrap()).unwrap();
        assert!(std::ptr::eq(back.region.as_ptr(), twice.region.as_ptr()));
        for end in
            [EndState::MaskedClean, EndState::DeadResidue, EndState::Latent, EndState::Completed]
        {
            let mut u = t.clone();
            u.end = end;
            assert_eq!(UarchTrial::decode(&u.encode()).unwrap(), u);
        }
    }

    #[test]
    fn decode_rejects_shape_drift() {
        assert!(ArchTrial::decode(&Json::parse("{}").unwrap()).is_err());
        let bad_wl = "{\"workload\":\"specweb\",\"symptoms\":{},\"masked\":true}";
        assert!(ArchTrial::decode(&Json::parse(bad_wl).unwrap())
            .unwrap_err()
            .contains("unknown workload"));
        let probe = UarchTrial {
            workload: WorkloadId::Gccx,
            bit: 1,
            region: "iq",
            lhf_protected: false,
            firings: Firings::default(),
            extra_dcache_misses: 0,
            extra_dtlb_misses: 0,
            end: EndState::Completed,
        };
        let Json::Obj(mut fields) = probe.encode() else { unreachable!() };
        fields.retain(|(k, _)| k != "end");
        assert!(UarchTrial::decode(&Json::Obj(fields)).unwrap_err().contains("missing end"));
    }
}
