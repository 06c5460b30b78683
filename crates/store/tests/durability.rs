//! Durability tests: whatever a crash does to the tail of a segment,
//! every record whose append completed must survive reopen, and
//! duplicate appends must never touch the disk.
//!
//! The crash model matches the writer: appends are single unbuffered
//! writes of complete lines, so a crash can only (a) lose the in-flight
//! line entirely, or (b) leave a torn prefix of it. Tests simulate both
//! by appending garbage/partial bytes directly to the live segment and
//! asserting the next open truncates back to — exactly — the last
//! complete record. A crash never leaves a bad line *before* a valid
//! one, so such damage fails the open and the file keeps every byte.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the reference model is checked entry by entry, and each proptest case seeds its RNG"
)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use restore_store::{Json, Payload, Stored, TrialCost, TrialKey, TrialStore};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Minimal integration-test payload; the note strings exercise JSON
/// escaping on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Probe {
    word: u64,
    note: String,
}

impl Payload for Probe {
    fn kind() -> &'static str {
        "probe-trial"
    }
    fn encode(&self) -> Json {
        Json::Obj(vec![
            ("word".to_owned(), Json::UInt(self.word)),
            ("note".to_owned(), Json::from(self.note.as_str())),
        ])
    }
    fn decode(v: &Json) -> Result<Probe, String> {
        Ok(Probe {
            word: v.get("word").and_then(Json::as_u64).ok_or("word")?,
            note: v.get("note").and_then(Json::as_str).ok_or("note")?.to_owned(),
        })
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("restore-store-durability-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn probe_rec(config: u64, point: u64) -> Stored<Probe> {
    Stored {
        key: TrialKey { config, workload: point % 7, point, seed: point.wrapping_mul(97) },
        cost: TrialCost {
            simulated: point * 11,
            saved: point,
            cut: point.is_multiple_of(2),
            pruned: false,
            pruned_cycles: 0,
        },
        trial: Some(Probe { word: point ^ config, note: format!("p{point} \"q\" \\ \n π") }),
    }
}

fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            let n = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            n.starts_with("seg-") && n.ends_with(".jsonl")
        })
        .collect();
    out.sort();
    out
}

/// A crash that tears the in-flight line: the next open must truncate
/// the exact garbage bytes away, leaving the file byte-identical to its
/// pre-crash state, with every completed record intact.
#[test]
fn torn_tails_truncate_back_to_the_last_complete_record() {
    let dir = tmp("torn");
    let mut s = TrialStore::<Probe>::open(&dir, "all").unwrap();
    for p in 0..4 {
        assert!(s.append(probe_rec(1, p)).unwrap());
    }
    drop(s);
    let seg = segments(&dir).pop().unwrap();
    let clean = std::fs::read(&seg).unwrap();
    let garbage = b"{\"check\":\"0123456789abcdef\",\"record\":{\"key\":[9";
    let mut f = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
    f.write_all(garbage).unwrap();
    drop(f);

    let mut r = TrialStore::<Probe>::open(&dir, "all").unwrap();
    assert_eq!(r.len(), 4, "every completed record survives");
    let rep = r.open_report();
    assert_eq!(rep.repaired_segments, 1);
    assert_eq!(rep.truncated_bytes, garbage.len() as u64, "truncation is byte-exact");
    assert_eq!(std::fs::read(&seg).unwrap(), clean, "file restored to its pre-crash bytes");
    for p in 0..4 {
        assert_eq!(r.get(&probe_rec(1, p).key), Some(&probe_rec(1, p)));
    }
    // The repaired store keeps working: append lands in a fresh segment
    // (the crashed one is not this writer's), reopen sees everything.
    assert!(r.append(probe_rec(1, 9)).unwrap());
    drop(r);
    let r2 = TrialStore::<Probe>::open(&dir, "all").unwrap();
    assert_eq!(r2.len(), 5);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A complete-but-corrupted final line (bit rot, not a tear) fails its
/// check hash and is dropped with the same truncation path.
#[test]
fn corrupted_final_line_is_dropped_not_trusted() {
    let dir = tmp("bitrot");
    let mut s = TrialStore::<Probe>::open(&dir, "all").unwrap();
    for p in 0..3 {
        s.append(probe_rec(2, p)).unwrap();
    }
    drop(s);
    let seg = segments(&dir).pop().unwrap();
    let mut bytes = std::fs::read(&seg).unwrap();
    let n = bytes.len();
    let last_line_start = bytes[..n - 1].iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    bytes[n - 3] ^= 1; // flip one record byte inside the final line
    std::fs::write(&seg, &bytes).unwrap();

    let r = TrialStore::<Probe>::open(&dir, "all").unwrap();
    assert_eq!(r.len(), 2, "the corrupted record must not be served");
    assert_eq!(r.open_report().truncated_bytes, (n - last_line_start) as u64);
    assert!(r.get(&probe_rec(2, 2).key).is_none());
    assert_eq!(r.get(&probe_rec(2, 1).key), Some(&probe_rec(2, 1)));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Damage inside a segment (one flipped byte in record 3 of 6) is not
/// a torn tail: validated records follow it, so truncating there would
/// drop them. Opening fails instead, naming the segment and its first
/// bad line, and leaves the file byte-identical.
#[test]
fn mid_segment_damage_fails_the_open_and_keeps_every_byte() {
    let dir = tmp("midrot");
    let mut s = TrialStore::<Probe>::open(&dir, "all").unwrap();
    for p in 0..6 {
        s.append(probe_rec(5, p)).unwrap();
    }
    drop(s);
    let seg = segments(&dir).pop().unwrap();
    let mut bytes = std::fs::read(&seg).unwrap();
    // Line 1 is the header, so record 3 is line 4; flip the first digit
    // of its key's config word.
    let line4 = bytes.split_inclusive(|&b| b == b'\n').take(3).map(<[u8]>::len).sum::<usize>();
    let key_at = std::str::from_utf8(&bytes[line4..]).unwrap().find("\"key\":[").unwrap();
    bytes[line4 + key_at + "\"key\":[".len()] ^= 1;
    std::fs::write(&seg, &bytes).unwrap();

    let err = TrialStore::<Probe>::open(&dir, "reader").unwrap_err();
    let msg = err.to_string();
    assert!(msg.starts_with(&format!("{}:4:", seg.display())), "{msg}");
    assert_eq!(std::fs::read(&seg).unwrap(), bytes, "the damaged segment keeps every byte");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Duplicate appends are idempotent at the disk level: the second
/// append writes nothing (first record wins), in-process and across
/// merged segments alike.
#[test]
fn duplicate_appends_never_touch_the_disk() {
    let dir = tmp("dup");
    let mut s = TrialStore::<Probe>::open(&dir, "all").unwrap();
    assert!(s.append(probe_rec(3, 5)).unwrap());
    let len_after_first = std::fs::metadata(segments(&dir).pop().unwrap()).unwrap().len();
    let mut twin = probe_rec(3, 5);
    twin.trial = Some(Probe { word: 999, note: "imposter".to_owned() });
    assert!(!s.append(twin).unwrap(), "same key: no second append");
    assert_eq!(
        std::fs::metadata(segments(&dir).pop().unwrap()).unwrap().len(),
        len_after_first,
        "duplicate append must not grow the segment"
    );
    drop(s);
    let r = TrialStore::<Probe>::open(&dir, "all").unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r.get(&probe_rec(3, 5).key), Some(&probe_rec(3, 5)), "first record won");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Merging shard stores that overlap on a key resolves first-wins in
/// segment sort order, counting (not erroring on) the duplicate.
#[test]
fn merged_duplicate_records_resolve_first_wins() {
    let merged = tmp("dupmerge");
    std::fs::create_dir_all(&merged).unwrap();
    for (label, word) in [("s0of2", 10u64), ("s1of2", 20u64)] {
        let shard_dir = tmp(&format!("dupmerge-{label}"));
        let mut s = TrialStore::<Probe>::open(&shard_dir, label).unwrap();
        let mut rec = probe_rec(4, 8);
        rec.trial = Some(Probe { word, note: label.to_owned() });
        s.append(rec).unwrap();
        drop(s);
        for seg in segments(&shard_dir) {
            std::fs::copy(&seg, merged.join(seg.file_name().unwrap())).unwrap();
        }
        std::fs::remove_dir_all(&shard_dir).unwrap();
    }
    let r = TrialStore::<Probe>::open(&merged, "all").unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r.open_report().duplicate_records, 1);
    let kept = r.get(&probe_rec(4, 8).key).unwrap().trial.clone().unwrap();
    assert_eq!(kept.word, 10, "seg-s0of2-* sorts first, so its record wins");
    std::fs::remove_dir_all(&merged).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random (write, crash, reopen, rewrite) sequences never lose a
    /// validated record: whatever garbage a crash leaves on the tail of
    /// the live segment, every record whose append returned `Ok(true)`
    /// is served — bit-for-bit — by every subsequent open.
    #[test]
    fn crash_sequences_never_lose_a_validated_record(
        seed in 0u64..1_000_000,
        rounds in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dir = tmp(&format!("prop-{seed}-{rounds}"));
        let mut model: HashMap<TrialKey, Stored<Probe>> = HashMap::new();
        for round in 0..rounds {
            // Each round is one writer lifetime; labels vary so some
            // rounds extend an old segment family and some start new.
            let label = ["all", "s0of2", "s1of2"][round % 3];
            let mut store = TrialStore::<Probe>::open(&dir, label).unwrap();
            prop_assert_eq!(store.len(), model.len(), "reopen lost or invented records");
            let appends = rng.gen_range(1..12usize);
            for _ in 0..appends {
                let mut rec = probe_rec(rng.gen_range(0..3), rng.gen_range(0..40));
                if let Some(t) = rec.trial.as_mut() {
                    t.word = rng.gen();
                }
                let fresh = store.append(rec.clone()).unwrap();
                prop_assert_eq!(fresh, !model.contains_key(&rec.key));
                model.entry(rec.key).or_insert(rec);
            }
            drop(store);
            // Crash: the in-flight line tears — random bytes land on
            // the tail of the most recent segment.
            let garbage_len = rng.gen_range(0..120usize);
            if garbage_len > 0 {
                let seg = segments(&dir).pop().unwrap();
                let garbage: Vec<u8> = (0..garbage_len).map(|_| rng.gen()).collect();
                let mut f = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
                f.write_all(&garbage).unwrap();
            }
            let reopened = TrialStore::<Probe>::open(&dir, "reader").unwrap();
            prop_assert_eq!(reopened.len(), model.len());
            for rec in model.values() {
                prop_assert_eq!(reopened.get(&rec.key), Some(rec));
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
