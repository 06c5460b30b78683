//! # restore-store — content-addressed trial record store
//!
//! Fault-injection campaigns are deterministic: a trial's outcome is a
//! pure function of (campaign configuration, workload, injection point,
//! per-trial seed). That makes every trial *content-addressable* — run
//! it once, key the record by [`TrialKey`], and any later campaign that
//! derives the same key can skip the simulation entirely. This crate is
//! the on-disk half of that bargain: an append-only, segmented store of
//! trial records with an in-memory index, built for three properties:
//!
//! * **Crash safety.** Records are JSON lines, each wrapped in an
//!   envelope carrying an FNV-1a check hash of the record text. Appends
//!   are single unbuffered writes; on open, each segment is validated
//!   line-by-line and a torn tail (partial line, bad hash, malformed
//!   JSON) is truncated away rather than poisoning the store. Nothing
//!   before the tear is ever lost.
//! * **Mergeability.** A store is a directory of segments named by
//!   writer label (`seg-<label>-<n>.jsonl`); shards of one campaign use
//!   distinct labels, so merging shard stores is plain file copying.
//!   Duplicate keys are resolved first-wins at open and append, and
//!   [`TrialStore::content_digest`] folds records in key order so a
//!   merged store and a single cold run digest identically.
//! * **Config hygiene.** [`TrialKey::config`] is the campaign's
//!   configuration digest (`restore_core::ConfigDigest`). A store
//!   opened against a different configuration simply *misses* on every
//!   lookup — stale records are inert, never corrupting.
//!
//! The record payload is pluggable via [`Payload`]; `restore-inject`
//! provides codecs for its arch and µarch trial types. The workspace's
//! `serde` is an offline shim, so the wire format is the hand-rolled
//! [`Json`] model in this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod json;

pub use json::{Json, JsonError};

use restore_arch::{FieldClass, StateKind, StateVisitor};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Store magic string, first field of every segment's header line.
const MAGIC: &str = "restore-trials";
/// On-disk format version.
const VERSION: u64 = 1;

/// FNV-1a over raw bytes — the line-level check hash. (Config-level
/// digesting lives in `restore_core::ConfigDigest`; this is the same
/// function applied at a different layer: record text, not configs.)
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The content address of one trial.
///
/// Two trials with equal keys are the same computation: the config
/// digest pins everything result-shaping about the campaign, the
/// workload and point pin *where* the fault lands, and the seed pins
/// the per-trial random draws. The seed already folds the campaign
/// seed, workload index, point index and trial index (it is the
/// `Seeder::trial` output), so trial multiplicity is captured even when
/// two plan entries share a coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrialKey {
    /// Campaign configuration digest (everything result-shaping).
    pub config: u64,
    /// Workload index in `WorkloadId::ALL` order.
    pub workload: u64,
    /// Injection-point coordinate (retired instruction for arch
    /// campaigns, cycle for µarch campaigns).
    pub point: u64,
    /// Fully-folded per-trial seed.
    pub seed: u64,
}

impl TrialKey {
    /// Walks the key's fields through a [`StateVisitor`] — the same
    /// contract the machine models use, so the audit scanner can prove
    /// no field is silently dropped from digests.
    pub fn visit<V: StateVisitor>(&mut self, v: &mut V) {
        v.region("trial-key", StateKind::Ram);
        v.word(&mut self.config, 64, FieldClass::Data);
        v.word(&mut self.workload, 64, FieldClass::Data);
        v.word(&mut self.point, 64, FieldClass::Data);
        v.word(&mut self.seed, 64, FieldClass::Data);
    }
}

/// What one trial cost the simulator, persisted alongside the outcome
/// so cached hits keep campaign cycle accounting exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrialCost {
    /// Cycles (or instructions) actually simulated.
    pub simulated: u64,
    /// Cycles saved by the masking cutoff (planned but not simulated).
    pub saved: u64,
    /// Whether the cutoff ended this trial early.
    pub cut: bool,
    /// Whether the masking map predicted this trial. The prediction
    /// replaces the simulation, except under `--prune audit`, where the
    /// trial is simulated as well and `pruned_cycles` stays 0.
    pub pruned: bool,
    /// Cycles the prune skipped (planned but not simulated).
    pub pruned_cycles: u64,
}

impl TrialCost {
    /// The trial's full planned extent: simulated plus saved plus
    /// pruned cycles. A warm cache replays this as `cycles_cached`, so
    /// the cold-run invariant `simulated + saved + pruned = planned`
    /// becomes `simulated + saved + pruned + cached = planned` and
    /// holds across any cold/warm mix.
    pub fn planned(&self) -> u64 {
        self.simulated + self.saved + self.pruned_cycles
    }

    /// Walks the cost's fields through a [`StateVisitor`].
    pub fn visit<V: StateVisitor>(&mut self, v: &mut V) {
        v.region("trial-cost", StateKind::Ram);
        v.word(&mut self.simulated, 64, FieldClass::Data);
        v.word(&mut self.saved, 64, FieldClass::Data);
        v.flag(&mut self.cut);
        v.flag(&mut self.pruned);
        v.word(&mut self.pruned_cycles, 64, FieldClass::Data);
    }
}

/// One stored trial: its address, its cost, and its outcome (`None`
/// for result-less trials — e.g. an arch injection landing on an
/// instruction with no destination — which are cached too, so warm
/// runs skip them like any other).
#[derive(Debug, Clone, PartialEq)]
pub struct Stored<T> {
    /// Content address.
    pub key: TrialKey,
    /// Cycle accounting at record time.
    pub cost: TrialCost,
    /// The trial outcome, if the trial produced one.
    pub trial: Option<T>,
}

/// A record payload that knows its wire format.
///
/// `kind` names the payload in every segment header; a store only
/// loads segments whose header kind matches, so an arch store and a
/// µarch store can share a directory without cross-decoding.
pub trait Payload: Clone + Sized {
    /// Stable payload-kind tag (e.g. `"arch-trial"`).
    fn kind() -> &'static str;
    /// Encodes the payload to its canonical JSON form.
    fn encode(&self) -> Json;
    /// Decodes the canonical JSON form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first shape mismatch.
    fn decode(v: &Json) -> Result<Self, String>;
}

/// Deterministic shard selector over trial keys: shard `i/N` owns the
/// keys whose plan position is congruent to `i` mod `N`. Sharding is
/// positional (over the campaign plan, not the key hash) so every
/// shard walks the plan identically and the union is exactly the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's index, `0 <= index < count`.
    pub index: u64,
    /// Total number of shards.
    pub count: u64,
}

impl Shard {
    /// The whole campaign (shard 0 of 1).
    pub const ALL: Shard = Shard { index: 0, count: 1 };

    /// Whether this shard owns plan position `pos`.
    pub fn owns(&self, pos: u64) -> bool {
        pos % self.count == self.index
    }

    /// Parses `"i/N"` (e.g. `"0/3"`).
    ///
    /// # Errors
    ///
    /// Returns a description when the text is not `i/N` with
    /// `0 <= i < N` and `N >= 1`.
    pub fn parse(text: &str) -> Result<Shard, String> {
        let (i, n) = text.split_once('/').ok_or_else(|| format!("`{text}`: expected i/N"))?;
        let index: u64 = i.parse().map_err(|_| format!("`{text}`: bad shard index"))?;
        let count: u64 = n.parse().map_err(|_| format!("`{text}`: bad shard count"))?;
        if count == 0 || index >= count {
            return Err(format!("`{text}`: need 0 <= i < N"));
        }
        Ok(Shard { index, count })
    }

    /// A filesystem-safe writer label, e.g. `s0of3` (`all` for the
    /// unsharded store).
    pub fn label(&self) -> String {
        if *self == Shard::ALL {
            "all".to_owned()
        } else {
            format!("s{}of{}", self.index, self.count)
        }
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Store failures.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// A record passed its check hash but did not decode — format
    /// drift, which must fail loudly rather than silently skew a
    /// campaign by dropping records.
    Undecodable {
        /// Segment file.
        file: PathBuf,
        /// 1-based line number.
        line: u64,
        /// What the codec rejected.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Undecodable { file, line, detail } => {
                write!(f, "{}:{line}: checked record failed to decode: {detail}", file.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// What opening a store found and repaired — surfaced so callers (and
/// durability tests) can report tears instead of hiding them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Segments read successfully (header kind/version matched).
    pub segments: usize,
    /// Segments skipped whole because their header names a different
    /// payload kind or format version (miss, not corruption).
    pub skipped_segments: usize,
    /// Segments whose torn tail was truncated away.
    pub repaired_segments: usize,
    /// Bytes removed by tail truncation.
    pub truncated_bytes: u64,
    /// Records dropped as duplicates of an earlier key (first wins).
    pub duplicate_records: usize,
}

/// The append-only trial record store: a directory of validated
/// JSON-lines segments plus an in-memory key index.
#[derive(Debug)]
pub struct TrialStore<T> {
    dir: PathBuf,
    label: String,
    records: Vec<Stored<T>>,
    index: BTreeMap<TrialKey, usize>,
    writer: Option<File>,
    report: OpenReport,
}

impl<T: Payload> TrialStore<T> {
    /// Opens (creating if needed) the store at `dir`, validating every
    /// segment and truncating torn tails. `label` names this writer's
    /// segments; concurrent writers (campaign shards) must use
    /// distinct labels, readers may use any.
    ///
    /// # Errors
    ///
    /// I/O failures and checked-but-undecodable records
    /// ([`StoreError::Undecodable`]).
    pub fn open(dir: &Path, label: &str) -> Result<TrialStore<T>, StoreError> {
        std::fs::create_dir_all(dir)?;
        let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                name.starts_with("seg-") && name.ends_with(".jsonl")
            })
            .collect();
        segments.sort();
        let mut store = TrialStore {
            dir: dir.to_path_buf(),
            label: label.to_owned(),
            records: Vec::new(),
            index: BTreeMap::new(),
            writer: None,
            report: OpenReport::default(),
        };
        for path in segments {
            store.load_segment(&path)?;
        }
        Ok(store)
    }

    /// Reads one segment, truncating a torn tail in place. The whole
    /// segment is skipped (counted, not errored) when its header names
    /// a different payload kind or version.
    fn load_segment(&mut self, path: &Path) -> Result<(), StoreError> {
        let bytes = std::fs::read(path)?;
        let mut offset = 0usize; // byte offset of the first unvalidated line
        let mut line_no = 0u64;
        let mut header_ok = false;
        while offset < bytes.len() {
            let rest = &bytes[offset..];
            // A complete line ends in '\n'; a missing terminator is a
            // torn final write.
            let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                break;
            };
            line_no += 1;
            let Ok(line) = std::str::from_utf8(&rest[..nl]) else {
                break; // torn mid-UTF-8 (record text is ASCII)
            };
            let Some(record_text) = validated_record(line) else {
                break; // bad envelope or check hash: tear starts here
            };
            if header_ok {
                let Ok(value) = Json::parse(record_text) else {
                    break; // hash collision on garbage: treat as torn
                };
                match decode_record::<T>(&value) {
                    Ok(rec) => {
                        if self.index.contains_key(&rec.key) {
                            self.report.duplicate_records += 1;
                        } else {
                            self.index.insert(rec.key, self.records.len());
                            self.records.push(rec);
                        }
                    }
                    Err(detail) => {
                        return Err(StoreError::Undecodable {
                            file: path.to_path_buf(),
                            line: line_no,
                            detail,
                        });
                    }
                }
            } else {
                match header_matches::<T>(record_text) {
                    Some(true) => header_ok = true,
                    Some(false) => {
                        // Foreign kind/version: the whole segment is
                        // someone else's data. Leave it untouched.
                        self.report.skipped_segments += 1;
                        return Ok(());
                    }
                    None => break, // torn header line
                }
            }
            offset += nl + 1;
        }
        if offset < bytes.len() {
            // Torn tail: drop everything from the first bad byte on.
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(offset as u64)?;
            file.sync_all()?;
            self.report.repaired_segments += 1;
            self.report.truncated_bytes += (bytes.len() - offset) as u64;
        }
        if header_ok || offset > 0 {
            self.report.segments += 1;
        }
        Ok(())
    }

    /// Looks up a trial by key.
    pub fn get(&self, key: &TrialKey) -> Option<&Stored<T>> {
        self.index.get(key).map(|&i| &self.records[i])
    }

    /// Whether the store holds a record for `key`.
    pub fn contains(&self, key: &TrialKey) -> bool {
        self.index.contains_key(key)
    }

    /// Number of distinct records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records, in load/append order.
    pub fn records(&self) -> &[Stored<T>] {
        &self.records
    }

    /// Records whose key carries `config` — how much of *this*
    /// campaign the store already holds (foreign-config records are
    /// inert but still counted by [`TrialStore::len`]).
    pub fn cached_for_config(&self, config: u64) -> usize {
        self.records.iter().filter(|r| r.key.config == config).count()
    }

    /// What opening found and repaired.
    pub fn open_report(&self) -> OpenReport {
        self.report
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends a record. Returns `Ok(false)` without writing when the
    /// key is already stored (first record wins — by determinism any
    /// duplicate is identical).
    ///
    /// Each append is one unbuffered `write` of a complete checked
    /// line, so a crash between appends loses nothing and a crash
    /// mid-append leaves only a torn tail the next open truncates.
    ///
    /// # Errors
    ///
    /// I/O failures only.
    pub fn append(&mut self, rec: Stored<T>) -> Result<bool, StoreError> {
        if self.index.contains_key(&rec.key) {
            return Ok(false);
        }
        if self.writer.is_none() {
            self.writer = Some(self.create_segment()?);
        }
        let line = envelope(&encode_record(&rec).render());
        self.writer.as_mut().expect("writer just ensured").write_all(line.as_bytes())?;
        self.index.insert(rec.key, self.records.len());
        self.records.push(rec);
        Ok(true)
    }

    /// Creates this writer's segment file (`create_new`, retrying the
    /// next index on collision, so concurrent same-label writers never
    /// interleave) and writes its header line.
    fn create_segment(&self) -> Result<File, StoreError> {
        let mut n = 0u32;
        let mut file = loop {
            let path = self.dir.join(format!("seg-{}-{n:05}.jsonl", self.label));
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(f) => break f,
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists && n < 99_999 => n += 1,
                Err(e) => return Err(StoreError::Io(e)),
            }
        };
        let header = Json::Obj(vec![
            ("store".to_owned(), Json::from(MAGIC)),
            ("version".to_owned(), Json::UInt(VERSION)),
            ("kind".to_owned(), Json::from(T::kind())),
        ]);
        file.write_all(envelope(&header.render()).as_bytes())?;
        Ok(file)
    }

    /// Forces written records to stable storage (call once at campaign
    /// end; per-append durability against *process* death needs no
    /// fsync, this guards against power loss).
    ///
    /// # Errors
    ///
    /// I/O failures only.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if let Some(f) = self.writer.as_mut() {
            f.sync_data()?;
        }
        Ok(())
    }

    /// Order-independent digest of the store's content: every record's
    /// key, cost and encoded outcome, folded in key order. A store
    /// merged from shard segments digests identically to the store one
    /// cold run wrote, whatever the segment layout.
    pub fn content_digest(&mut self) -> u64 {
        let mut order: Vec<usize> = (0..self.records.len()).collect();
        order.sort_by_key(|&i| self.records[i].key);
        let mut v = DigestVisitor { h: 0xcbf2_9ce4_8422_2325 };
        for i in order {
            let rec = &mut self.records[i];
            rec.key.visit(&mut v);
            rec.cost.visit(&mut v);
            let outcome = rec.trial.as_ref().map_or(Json::Null, Payload::encode);
            v.h ^= fnv1a(outcome.render().as_bytes());
            v.h = v.h.wrapping_mul(0x100_0000_01b3);
        }
        v.h
    }
}

/// Order-sensitive fold of visited words — reuses the [`StateVisitor`]
/// walk as the canonical field enumeration.
struct DigestVisitor {
    h: u64,
}

impl StateVisitor for DigestVisitor {
    fn region(&mut self, name: &'static str, _kind: StateKind) {
        self.h ^= fnv1a(name.as_bytes());
        self.h = self.h.wrapping_mul(0x100_0000_01b3);
    }
    fn word(&mut self, value: &mut u64, _width: u32, _class: FieldClass) {
        self.h ^= *value;
        self.h = self.h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Wraps record text in its checked envelope line (trailing newline
/// included). The check hash covers the record's raw bytes.
fn envelope(record: &str) -> String {
    format!("{{\"check\":\"{:016x}\",\"record\":{record}}}\n", fnv1a(record.as_bytes()))
}

/// Validates one envelope line, returning the raw record text when the
/// check hash matches. Parsing is positional over the canonical
/// envelope shape, so the hash is computed over exactly the bytes that
/// were hashed at write time — no re-serialization.
fn validated_record(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"check\":\"")?;
    let hex = rest.get(..16)?;
    let check = u64::from_str_radix(hex, 16).ok()?;
    let record = rest.get(16..)?.strip_prefix("\",\"record\":")?.strip_suffix('}')?;
    (fnv1a(record.as_bytes()) == check).then_some(record)
}

/// Whether a segment's header record matches this store's payload.
/// `None` = not a parseable header (torn); `Some(false)` = a valid
/// header for a different kind or version (skip the segment).
fn header_matches<T: Payload>(record_text: &str) -> Option<bool> {
    let v = Json::parse(record_text).ok()?;
    if v.get("store").and_then(Json::as_str) != Some(MAGIC) {
        return None;
    }
    Some(
        v.get("version").and_then(Json::as_u64) == Some(VERSION)
            && v.get("kind").and_then(Json::as_str) == Some(T::kind()),
    )
}

/// The canonical JSON form of one stored record.
fn encode_record<T: Payload>(rec: &Stored<T>) -> Json {
    let key = Json::Arr(vec![
        Json::UInt(rec.key.config),
        Json::UInt(rec.key.workload),
        Json::UInt(rec.key.point),
        Json::UInt(rec.key.seed),
    ]);
    let cost = Json::Obj(vec![
        ("sim".to_owned(), Json::UInt(rec.cost.simulated)),
        ("saved".to_owned(), Json::UInt(rec.cost.saved)),
        ("cut".to_owned(), Json::Bool(rec.cost.cut)),
        ("pruned".to_owned(), Json::Bool(rec.cost.pruned)),
        ("pruned_cycles".to_owned(), Json::UInt(rec.cost.pruned_cycles)),
    ]);
    let trial = rec.trial.as_ref().map_or(Json::Null, Payload::encode);
    Json::Obj(vec![("key".to_owned(), key), ("cost".to_owned(), cost), ("trial".to_owned(), trial)])
}

fn decode_record<T: Payload>(v: &Json) -> Result<Stored<T>, String> {
    let key = v.get("key").and_then(Json::as_array).ok_or("missing key array")?;
    let [config, workload, point, seed] = key else {
        return Err(format!("key has {} elements, expected 4", key.len()));
    };
    let word = |j: &Json, what: &str| j.as_u64().ok_or_else(|| format!("{what} is not a u64"));
    let key = TrialKey {
        config: word(config, "key.config")?,
        workload: word(workload, "key.workload")?,
        point: word(point, "key.point")?,
        seed: word(seed, "key.seed")?,
    };
    let c = v.get("cost").ok_or("missing cost")?;
    let costword =
        |f: &str| c.get(f).and_then(Json::as_u64).ok_or_else(|| format!("cost.{f} missing"));
    let costflag =
        |f: &str| c.get(f).and_then(Json::as_bool).ok_or_else(|| format!("cost.{f} missing"));
    let cost = TrialCost {
        simulated: costword("sim")?,
        saved: costword("saved")?,
        cut: costflag("cut")?,
        pruned: costflag("pruned")?,
        pruned_cycles: costword("pruned_cycles")?,
    };
    let outcome = v.get("trial").ok_or("missing trial")?;
    let trial = if outcome.is_null() { None } else { Some(T::decode(outcome)?) };
    Ok(Stored { key, cost, trial })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test payload: a single word plus a marker string.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Blob {
        value: u64,
        tag: String,
    }

    impl Payload for Blob {
        fn kind() -> &'static str {
            "test-blob"
        }
        fn encode(&self) -> Json {
            Json::Obj(vec![
                ("value".to_owned(), Json::UInt(self.value)),
                ("tag".to_owned(), Json::from(self.tag.as_str())),
            ])
        }
        fn decode(v: &Json) -> Result<Blob, String> {
            Ok(Blob {
                value: v.get("value").and_then(Json::as_u64).ok_or("value")?,
                tag: v.get("tag").and_then(Json::as_str).ok_or("tag")?.to_owned(),
            })
        }
    }

    fn rec(config: u64, point: u64, simulated: u64) -> Stored<Blob> {
        Stored {
            key: TrialKey { config, workload: point % 3, point, seed: point.wrapping_mul(31) },
            cost: TrialCost { simulated, saved: 2, cut: false, pruned: false, pruned_cycles: 0 },
            trial: Some(Blob { value: simulated, tag: format!("t{point}") }),
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("restore-store-unit-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_and_reopen() {
        let dir = tmpdir("roundtrip");
        let mut s = TrialStore::<Blob>::open(&dir, "all").unwrap();
        assert!(s.is_empty());
        for p in 0..5 {
            assert!(s.append(rec(7, p, 100 + p)).unwrap());
        }
        assert!(!s.append(rec(7, 3, 999)).unwrap(), "duplicate key must not re-append");
        assert_eq!(s.len(), 5);
        let d = s.content_digest();
        drop(s);

        let mut r = TrialStore::<Blob>::open(&dir, "all").unwrap();
        assert_eq!(r.len(), 5);
        assert_eq!(r.open_report(), OpenReport { segments: 1, ..OpenReport::default() });
        assert_eq!(r.get(&rec(7, 3, 0).key), Some(&rec(7, 3, 103)));
        assert_eq!(r.content_digest(), d, "reopen preserves content");
        assert_eq!(r.cached_for_config(7), 5);
        assert_eq!(r.cached_for_config(8), 0, "foreign config misses");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn envelope_validates_and_rejects() {
        let line = envelope("{\"a\":1}");
        assert_eq!(validated_record(line.trim_end()), Some("{\"a\":1}"));
        let flipped = line.trim_end().replace("{\"a\":1}", "{\"a\":2}");
        assert_eq!(validated_record(&flipped), None, "payload edit breaks the check");
        assert_eq!(validated_record("{\"check\":\"00\",\"record\":{}}"), None, "short hash");
        assert_eq!(validated_record(""), None);
    }

    #[test]
    fn shard_parsing_and_ownership() {
        assert_eq!(Shard::parse("0/3").unwrap(), Shard { index: 0, count: 3 });
        assert_eq!(Shard::parse("2/3").unwrap().label(), "s2of3");
        assert_eq!(Shard::ALL.label(), "all");
        assert_eq!(Shard::parse("2/3").unwrap().to_string(), "2/3");
        for bad in ["3/3", "1/0", "x/2", "2", "1/2/3", "-1/2"] {
            assert!(Shard::parse(bad).is_err(), "{bad} must not parse");
        }
        let shards: Vec<Shard> = (0..3).map(|i| Shard { index: i, count: 3 }).collect();
        for pos in 0..20u64 {
            let owners = shards.iter().filter(|s| s.owns(pos)).count();
            assert_eq!(owners, 1, "every plan position has exactly one owner");
            assert!(Shard::ALL.owns(pos));
        }
    }

    #[test]
    fn foreign_kind_segments_are_skipped_not_corrupted() {
        #[derive(Debug, Clone, PartialEq, Eq)]
        struct Other(u64);
        impl Payload for Other {
            fn kind() -> &'static str {
                "other-kind"
            }
            fn encode(&self) -> Json {
                Json::UInt(self.0)
            }
            fn decode(v: &Json) -> Result<Other, String> {
                v.as_u64().map(Other).ok_or_else(|| "not a u64".to_owned())
            }
        }
        let dir = tmpdir("foreign");
        let mut blob = TrialStore::<Blob>::open(&dir, "all").unwrap();
        blob.append(rec(1, 1, 10)).unwrap();
        drop(blob);
        let mut other = TrialStore::<Other>::open(&dir, "other").unwrap();
        assert_eq!(other.open_report().skipped_segments, 1);
        assert!(other.is_empty());
        other
            .append(Stored {
                key: TrialKey { config: 9, workload: 0, point: 0, seed: 0 },
                cost: TrialCost::default(),
                trial: Some(Other(4)),
            })
            .unwrap();
        drop(other);
        // Both stores still read their own records intact.
        let blob = TrialStore::<Blob>::open(&dir, "all").unwrap();
        assert_eq!(blob.len(), 1);
        assert_eq!(blob.open_report().skipped_segments, 1);
        let other = TrialStore::<Other>::open(&dir, "other2").unwrap();
        assert_eq!(other.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merged_store_digests_identically() {
        let recs: Vec<Stored<Blob>> = (0..9).map(|p| rec(3, p, p * 7)).collect();
        // One writer, all records.
        let cold_dir = tmpdir("merge-cold");
        let mut cold = TrialStore::<Blob>::open(&cold_dir, "all").unwrap();
        for r in &recs {
            cold.append(r.clone()).unwrap();
        }
        let want = cold.content_digest();
        // Three shard writers in their own dirs, then merge = copy.
        let merged_dir = tmpdir("merge-out");
        std::fs::create_dir_all(&merged_dir).unwrap();
        for i in 0..3u64 {
            let shard_dir = tmpdir(&format!("merge-s{i}"));
            let label = Shard { index: i, count: 3 }.label();
            let mut s = TrialStore::<Blob>::open(&shard_dir, &label).unwrap();
            for (pos, r) in recs.iter().enumerate() {
                if (pos as u64) % 3 == i {
                    s.append(r.clone()).unwrap();
                }
            }
            drop(s);
            for entry in std::fs::read_dir(&shard_dir).unwrap() {
                let p = entry.unwrap().path();
                std::fs::copy(&p, merged_dir.join(p.file_name().unwrap())).unwrap();
            }
            std::fs::remove_dir_all(&shard_dir).unwrap();
        }
        let mut merged = TrialStore::<Blob>::open(&merged_dir, "all").unwrap();
        assert_eq!(merged.len(), recs.len());
        assert_eq!(merged.content_digest(), want, "merge is digest-identical to cold");
        std::fs::remove_dir_all(&cold_dir).unwrap();
        std::fs::remove_dir_all(&merged_dir).unwrap();
    }

    #[test]
    fn planned_cost_identity() {
        let c = TrialCost { simulated: 5, saved: 7, cut: true, pruned: false, pruned_cycles: 11 };
        assert_eq!(c.planned(), 23);
        assert_eq!(TrialCost::default().planned(), 0);
    }
}
