//! Property-based tests for the persistence layer (ISSUE 5 satellites):
//! snapshot round-trips are bit-exact across every counter width and both
//! strategy families, and WAL replay tolerates a tail torn at *every* byte
//! offset of the final record without panicking, yielding the consistent
//! prefix table.

use copred_core::{ChtParams, Strategy};
use copred_store::snapshot::{decode, encode};
use copred_store::wal::{replay, segments, Wal, WAL_RECORD_LEN};
use copred_store::{TableImage, WalRecord};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn params(bits: u32, counter_bits: u32, aggressive: bool) -> ChtParams {
    ChtParams {
        bits,
        counter_bits,
        strategy: if aggressive {
            Strategy::most_aggressive()
        } else {
            Strategy::new(1.0)
        },
        update_fraction: if counter_bits == 1 { 0.0 } else { 0.125 },
    }
}

fn random_image(p: ChtParams, fill_seed: u64) -> TableImage {
    let mut image = TableImage::empty(p);
    image.u_state = fill_seed.max(1);
    let max = ((1u32 << p.counter_bits) - 1) as u8;
    let mut x = fill_seed | 1;
    for cell in &mut image.cells {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let span = u32::from(max) + 1;
        cell.coll = (x as u32 % span) as u8;
        cell.noncoll = if p.counter_bits == 1 {
            0
        } else {
            ((x >> 8) as u32 % span) as u8
        };
    }
    image
}

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "copred-store-prop-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn snapshot_roundtrip_bit_exact_all_widths(
        counter_bits in 1u32..=8,
        aggressive in any::<bool>(),
        bits in 4u32..=10,
        fill_seed in any::<u64>(),
    ) {
        let image = random_image(params(bits, counter_bits, aggressive), fill_seed);
        let bytes = encode(&image);
        let back = decode(&bytes).expect("own encoding must decode");
        prop_assert_eq!(back, image);
    }

    #[test]
    fn snapshot_decode_never_panics_on_mutation(
        counter_bits in 1u32..=8,
        fill_seed in any::<u64>(),
        flip_at in 0usize..4096,
        flip_mask in 1u8..=255,
    ) {
        let image = random_image(params(8, counter_bits, false), fill_seed);
        let mut bytes = encode(&image);
        let at = flip_at % bytes.len();
        bytes[at] ^= flip_mask;
        // Either the flip is caught (Err) or it landed somewhere harmless
        // it genuinely decodes from — but it must never panic.
        if let Ok(img) = decode(&bytes) {
            prop_assert_eq!(img.cells.len(), img.params.entries());
        }
    }

    #[test]
    fn wal_torn_tail_never_panics_and_is_prefix_consistent(
        n_records in 1usize..60,
        code_seed in any::<u64>(),
    ) {
        let p = params(8, 4, false);
        let dir = fresh_dir();
        let mut wal = Wal::open(&dir, 1 << 20).unwrap();
        let mut x = code_seed | 1;
        let records: Vec<WalRecord> = (0..n_records)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                WalRecord { code: x, colliding: x & 2 != 0 }
            })
            .collect();
        for r in &records {
            wal.append(*r).unwrap();
        }
        drop(wal);
        let seg = segments(&dir).pop().unwrap().1;
        let full = std::fs::read(&seg).unwrap();
        // Truncate the tail at every byte offset of the last record.
        let last_start = full.len() - WAL_RECORD_LEN;
        for cut in last_start..full.len() {
            std::fs::write(&seg, &full[..cut]).unwrap();
            let mut image = TableImage::empty(p);
            let summary = replay(&dir, &mut image);
            let whole = (cut - 8) / WAL_RECORD_LEN;
            prop_assert_eq!(summary.applied as usize, whole, "cut at {}", cut);
            let mut expect = TableImage::empty(p);
            for r in &records[..whole] {
                expect.apply_record(r.code, r.colliding);
            }
            prop_assert_eq!(&image.cells, &expect.cells, "cut at {}", cut);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
