//! Property tests for the segment format and the store: encode/decode
//! round-trips bit-exactly, recovery after truncation at *every* byte
//! offset keeps exactly the fully-written prefix, and compaction
//! preserves the record multiset.
//!
//! Seeded case loops (`simrng::cases`), so they run in plain
//! `cargo test`.

use simrng::{cases, string_of, vec_of, Rng};
use stored::{
    encode_record, header, scan_bytes, Fingerprint, Record, SegmentKind, Store, StoreOptions,
};

/// Any `f64` bit pattern, NaNs and infinities included.
fn arb_f64(rng: &mut Rng) -> f64 {
    f64::from_bits(rng.next_u64())
}

fn arb_fingerprint(rng: &mut Rng) -> Fingerprint {
    Fingerprint {
        cell_digest: rng.next_u64(),
        arch: string_of(rng, b"abcdefghijklmnopqrstuvwxyz0123456789-", 1, 12),
        features: vec_of(rng, 0, 8, arb_f64),
        // Exercise both the untagged ("inline") and tagged encodings.
        problem: if rng.chance(0.5) {
            "inline".to_string()
        } else {
            string_of(rng, b"abcdefghijklmnopqrstuvwxyz", 1, 10)
        },
    }
}

fn arb_record(rng: &mut Rng) -> Record {
    Record {
        fingerprint: arb_fingerprint(rng),
        genome: vec_of(rng, 1, 8, |r| r.next_u64() as i64),
        fitness: arb_f64(rng),
    }
}

/// Bit-level equality (plain `==` would make NaN records unequal to
/// themselves).
fn same(a: &Record, b: &Record) -> bool {
    let bits = |fs: &[f64]| fs.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    a.genome == b.genome
        && a.fitness.to_bits() == b.fitness.to_bits()
        && a.fingerprint.cell_digest == b.fingerprint.cell_digest
        && a.fingerprint.arch == b.fingerprint.arch
        && a.fingerprint.problem == b.fingerprint.problem
        && bits(&a.fingerprint.features) == bits(&b.fingerprint.features)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "stored-prop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Append/read round-trip: whatever goes in comes back bit-exact.
#[test]
fn encode_decode_round_trips() {
    cases("encode_decode_round_trips", |rng| {
        let rec = arb_record(rng);
        let mut seg = header(SegmentKind::Wal).to_vec();
        seg.extend_from_slice(&encode_record(&rec));
        let scan = scan_bytes(&seg, SegmentKind::Wal).unwrap();
        assert!(scan.torn.is_none());
        assert_eq!(scan.records.len(), 1);
        assert!(same(&scan.records[0], &rec), "{rec:?}");
    });
}

/// Recovery after truncation at every byte offset: the scan returns
/// exactly the records whose bytes fully precede the cut, and the
/// reported valid length is a record boundary.
#[test]
fn truncation_recovers_exactly_the_prefix() {
    cases("truncation_recovers_exactly_the_prefix", |rng| {
        let records = vec_of(rng, 1, 5, arb_record);
        let mut seg = header(SegmentKind::Wal).to_vec();
        let mut ends = Vec::new();
        for r in &records {
            seg.extend_from_slice(&encode_record(r));
            ends.push(seg.len());
        }
        for cut in 0..seg.len() {
            let scan = scan_bytes(&seg[..cut], SegmentKind::Wal).unwrap();
            let want = ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(scan.records.len(), want, "cut={cut}");
            for (got, expect) in scan.records.iter().zip(&records) {
                assert!(same(got, expect), "cut={cut}");
            }
            assert!(
                scan.valid_len == 0
                    || scan.valid_len == stored::HEADER_LEN
                    || ends.contains(&scan.valid_len),
                "cut={cut}: valid_len {} is no record boundary",
                scan.valid_len
            );
        }
    });
}

/// Compaction preserves the record multiset: the indexed
/// (key, fitness-bits) collection is identical before and after,
/// in memory and across a reopen.
#[test]
fn compaction_preserves_the_record_multiset() {
    let dir = temp_dir("compact");
    let opts = || StoreOptions {
        compact_threshold: 0,
        ..StoreOptions::default()
    };
    let indexed = |store: &Store| -> Vec<_> {
        let records = store.snapshot_records();
        records.iter().map(|(k, f)| (*k, f.to_bits())).collect()
    };
    cases("compaction_preserves_the_record_multiset", |rng| {
        let records = vec_of(rng, 1, 39, arb_record);
        let rounds = rng.range_usize(1, 2);
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::open_with(&dir, opts()).unwrap();
        for r in &records {
            store.append(r).unwrap();
        }
        let before = indexed(&store);
        for _ in 0..rounds {
            store.compact().unwrap();
        }
        assert_eq!(before, indexed(&store));
        drop(store);
        let reopened = Store::open_with(&dir, opts()).unwrap();
        assert_eq!(before, indexed(&reopened));
    });
    std::fs::remove_dir_all(&dir).ok();
}
