//! Versioned binary snapshots of CHT state.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     8  magic "CPRDSNAP"
//!      8     4  format version (currently 1)
//!     12     4  address bits
//!     16     4  counter bits
//!     20     8  strategy S (f64 bit pattern)
//!     28     8  update fraction U (f64 bit pattern)
//!     36     8  u-draw RNG state (xorshift64 word; 0 when unknown)
//!     44     4  payload length in bytes
//!     48     4  CRC-32/IEEE over the payload
//!     52     …  payload: bit-packed counters, LSB-first
//! ```
//!
//! The payload stores `entry_bits()` per cell in entry order: a single
//! `COLL != 0` bit in 1-bit mode, otherwise `counter_bits` of `COLL`
//! followed by `counter_bits` of `NONCOLL`. This mirrors the SRAM sizing of
//! the paper's hardware table, so a snapshot is within a header of the
//! modeled on-chip footprint. The format is a stability contract
//! (ROADMAP.md): changing it requires bumping [`SNAPSHOT_VERSION`].

use crate::crc::crc32;
use crate::StoreError;
use copred_core::{Cell, ChtParams, Strategy};
use std::path::Path;

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Snapshot file magic.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"CPRDSNAP";

const HEADER_LEN: usize = 52;

/// Widest table the store will materialize (matches `ConcurrentCht`'s dense
/// limit); also bounds what a decoded header may ask us to allocate.
const MAX_BITS: u32 = 24;

/// An owned, plain-memory image of a CHT: parameters, the `U`-policy RNG
/// word, and every entry's [`Cell`] in entry order.
///
/// This is the interchange type between a live session table
/// (`copred_swexec::ConcurrentCht`, whose `export_cells` and `load_cells`
/// produce and take `cells`), the snapshot codec, and WAL replay.
#[derive(Debug, Clone, PartialEq)]
pub struct TableImage {
    /// Table sizing/policy parameters.
    pub params: ChtParams,
    /// The session's xorshift64 u-draw state at snapshot time (0 = unknown;
    /// warm-start callers remap 0 to a fresh seed).
    pub u_state: u64,
    /// Every entry's counters; length is `params.entries()`.
    pub cells: Vec<Cell>,
}

impl TableImage {
    /// An all-zero image for `params`.
    ///
    /// # Panics
    ///
    /// Panics when `params.bits` exceeds 24 (store images are dense).
    pub fn empty(params: ChtParams) -> Self {
        assert!(
            params.bits >= 1 && params.bits <= MAX_BITS,
            "store images must be dense (1..=24 address bits)"
        );
        TableImage {
            u_state: 0,
            cells: vec![Cell::default(); params.entries()],
            params,
        }
    }

    /// Entries with any recorded history.
    pub fn occupancy(&self) -> usize {
        self.cells.iter().filter(|c| !c.is_empty()).count()
    }

    /// Applies one logged observe write with [`Cell::apply`], the rule
    /// the live table used (the `U` gate already ran before the record was
    /// logged). A free record in 1-bit mode changes nothing — a live 1-bit
    /// table never applies one, so any found in a log is stray corruption
    /// tolerated rather than replayed.
    pub fn apply_record(&mut self, code: u64, colliding: bool) {
        let i = (code & ((1u64 << self.params.bits) - 1)) as usize;
        let cell = &mut self.cells[i];
        *cell = cell.apply(colliding, self.params.counter_bits);
    }

    /// Folds another image of the same geometry into this one by per-cell
    /// [`Cell::max`] — the replication merge rule. Counters only
    /// grow under `apply_record`, so max is a join: merging is commutative,
    /// associative, and idempotent, which is what makes duplicate and
    /// out-of-order snapshot pushes between peers converge instead of
    /// double-counting. A zero `u_state` on this image (unknown) adopts the
    /// other's; a nonzero one is kept — the pushing side is the live
    /// lineage, so its RNG word wins.
    ///
    /// # Errors
    ///
    /// [`StoreError::Mismatch`] when the two images' parameters differ
    /// (their cells address different tables; merging would be
    /// meaningless).
    pub fn merge_max(&mut self, other: &TableImage) -> Result<(), StoreError> {
        if self.params != other.params {
            return Err(StoreError::Mismatch(format!(
                "merge of {}-bit/{}-wide image with {}-bit/{}-wide image",
                self.params.bits,
                self.params.counter_bits,
                other.params.bits,
                other.params.counter_bits
            )));
        }
        for (mine, theirs) in self.cells.iter_mut().zip(&other.cells) {
            *mine = mine.max(*theirs);
        }
        if self.u_state == 0 {
            self.u_state = other.u_state;
        }
        Ok(())
    }
}

/// The low `width` bits (`1..=8`) of a byte.
fn low_bits(width: u32) -> u8 {
    (u16::MAX >> (16 - width)) as u8
}

/// LSB-first bit packer: fields collect in a 64-bit accumulator and leave
/// for `out` as whole bytes, so packing costs O(1) per field and per byte
/// at every counter width.
struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    acc: u64,
    pending: u32,
}

impl BitWriter<'_> {
    /// Appends the low `width` bits (`1..=8`) of `v`.
    fn push(&mut self, v: u8, width: u32) {
        // `pending` < 56 on entry, so a field of up to 8 bits always fits.
        self.acc |= u64::from(v & low_bits(width)) << self.pending;
        self.pending += width;
        if self.pending >= 56 {
            let whole = self.pending / 8;
            self.out
                .extend_from_slice(&self.acc.to_le_bytes()[..whole as usize]);
            self.acc >>= 8 * whole;
            self.pending -= 8 * whole;
        }
    }

    /// Flushes the pending bits, zero-padding the last byte.
    fn finish(self) {
        let tail = self.pending.div_ceil(8) as usize;
        self.out.extend_from_slice(&self.acc.to_le_bytes()[..tail]);
    }
}

/// LSB-first bit unpacker, the inverse of [`BitWriter`]: whole bytes enter
/// an accumulator as fields need them, and fields leave it.
struct BitReader<'a> {
    bytes: std::slice::Iter<'a, u8>,
    acc: u32,
    avail: u32,
}

impl BitReader<'_> {
    /// Takes the next `width` bits (`1..=8`); `None` past the end.
    fn pull(&mut self, width: u32) -> Option<u8> {
        // Fields are at most 8 bits wide, so one byte always tops up.
        if self.avail < width {
            self.acc |= u32::from(*self.bytes.next()?) << self.avail;
            self.avail += 8;
        }
        let v = self.acc as u8 & low_bits(width);
        self.acc >>= width;
        self.avail -= width;
        Some(v)
    }
}

/// Payload bytes of a table with these parameters.
fn payload_bytes(p: &ChtParams) -> usize {
    (p.entries() as u64 * u64::from(p.entry_bits())).div_ceil(8) as usize
}

/// Serializes an image to the versioned snapshot format.
pub fn encode(image: &TableImage) -> Vec<u8> {
    let p = &image.params;
    debug_assert_eq!(image.cells.len(), p.entries());
    let len = payload_bytes(p);
    let mut out = Vec::with_capacity(HEADER_LEN + len);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&p.bits.to_le_bytes());
    out.extend_from_slice(&p.counter_bits.to_le_bytes());
    out.extend_from_slice(&p.strategy.s().to_bits().to_le_bytes());
    out.extend_from_slice(&p.update_fraction.to_bits().to_le_bytes());
    out.extend_from_slice(&image.u_state.to_le_bytes());
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&[0; 4]); // payload CRC, filled in below
    let mut w = BitWriter {
        out: &mut out,
        acc: 0,
        pending: 0,
    };
    for c in &image.cells {
        if p.counter_bits == 1 {
            w.push(u8::from(c.coll != 0), 1);
        } else {
            w.push(c.coll, p.counter_bits);
            w.push(c.noncoll, p.counter_bits);
        }
    }
    w.finish();
    debug_assert_eq!(out.len(), HEADER_LEN + len);
    let crc = crc32(&out[HEADER_LEN..]);
    out[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    out
}

fn le_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn le_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// Deserializes a snapshot, validating magic, version, parameter ranges,
/// payload length, and CRC. Corruption is an error, never a panic.
pub fn decode(bytes: &[u8]) -> Result<TableImage, StoreError> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Corrupt(format!(
            "short header: {} bytes",
            bytes.len()
        )));
    }
    if &bytes[0..8] != SNAPSHOT_MAGIC {
        return Err(StoreError::Corrupt("bad magic".into()));
    }
    let version = le_u32(bytes, 8);
    if version != SNAPSHOT_VERSION {
        return Err(StoreError::Corrupt(format!(
            "unsupported version {version}"
        )));
    }
    let bits = le_u32(bytes, 12);
    let counter_bits = le_u32(bytes, 16);
    if !(1..=MAX_BITS).contains(&bits) {
        return Err(StoreError::Corrupt(format!("bad address bits {bits}")));
    }
    if !(1..=8).contains(&counter_bits) {
        return Err(StoreError::Corrupt(format!(
            "bad counter bits {counter_bits}"
        )));
    }
    let s = f64::from_bits(le_u64(bytes, 20));
    if !(s.is_finite() && s >= 0.0) {
        return Err(StoreError::Corrupt(format!("bad strategy S {s}")));
    }
    let u = f64::from_bits(le_u64(bytes, 28));
    if !(0.0..=1.0).contains(&u) {
        return Err(StoreError::Corrupt(format!("bad update fraction {u}")));
    }
    let u_state = le_u64(bytes, 36);
    let payload_len = le_u32(bytes, 44) as usize;
    let crc = le_u32(bytes, 48);
    let payload = &bytes[HEADER_LEN..];
    if payload.len() != payload_len {
        return Err(StoreError::Corrupt(format!(
            "payload length {} != declared {payload_len}",
            payload.len()
        )));
    }
    if crc32(payload) != crc {
        return Err(StoreError::Corrupt("payload CRC mismatch".into()));
    }
    let params = ChtParams {
        bits,
        counter_bits,
        strategy: Strategy::new(s),
        update_fraction: u,
    };
    let entries = params.entries();
    let expect_bytes = payload_bytes(&params);
    if payload_len != expect_bytes {
        return Err(StoreError::Corrupt(format!(
            "payload is {payload_len} bytes, table needs {expect_bytes}"
        )));
    }
    // The length check above guarantees every pull below finds its bits.
    let mut r = BitReader {
        bytes: payload.iter(),
        acc: 0,
        avail: 0,
    };
    let cells = (0..entries)
        .map(|_| {
            if counter_bits == 1 {
                Cell::new(r.pull(1).unwrap(), 0)
            } else {
                Cell::new(r.pull(counter_bits).unwrap(), r.pull(counter_bits).unwrap())
            }
        })
        .collect();
    Ok(TableImage {
        params,
        u_state,
        cells,
    })
}

/// Atomically writes a snapshot: encode, write to `<path>.tmp`, fsync,
/// rename over `path`. Returns the byte count written.
pub fn write_snapshot(path: &Path, image: &TableImage) -> Result<u64, StoreError> {
    let _span = copred_obs::span("store", "snapshot_write");
    let bytes = encode(image);
    let tmp = path.with_extension("tmp");
    {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(bytes.len() as u64)
}

/// Reads and decodes a snapshot file.
pub fn read_snapshot(path: &Path) -> Result<TableImage, StoreError> {
    let _span = copred_obs::span("store", "snapshot_read");
    let bytes = std::fs::read(path)?;
    decode(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use copred_core::Strategy;
    use proptest::prelude::*;

    /// The original bit-at-a-time encoder, kept as the byte-identity
    /// reference for the word-wise [`encode`].
    fn reference_encode(image: &TableImage) -> Vec<u8> {
        let p = &image.params;
        let mut payload: Vec<u8> = Vec::new();
        let mut bit = 0;
        for cell in &image.cells {
            let (c, n) = (cell.coll, cell.noncoll);
            let fields = if p.counter_bits == 1 {
                vec![(u8::from(c != 0), 1)]
            } else {
                vec![(c, p.counter_bits), (n, p.counter_bits)]
            };
            for (v, width) in fields {
                for k in 0..width {
                    if bit == 0 {
                        payload.push(0);
                    }
                    if (v >> k) & 1 != 0 {
                        *payload.last_mut().unwrap() |= 1 << bit;
                    }
                    bit = (bit + 1) % 8;
                }
            }
        }
        let mut out = Vec::new();
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&p.bits.to_le_bytes());
        out.extend_from_slice(&p.counter_bits.to_le_bytes());
        out.extend_from_slice(&p.strategy.s().to_bits().to_le_bytes());
        out.extend_from_slice(&p.update_fraction.to_bits().to_le_bytes());
        out.extend_from_slice(&image.u_state.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every counter width, table sizes from 2 to 4096 entries (several
        /// of whose payloads end mid-byte, e.g. 2 entries × 6 bits), and
        /// random cells — including bits above the counter width, which
        /// both packers must drop. `decode` inverts `encode` up to that
        /// masking.
        #[test]
        fn encode_matches_the_bit_at_a_time_reference(seed in any::<u64>()) {
            let mut x = seed | 1;
            for counter_bits in 1..=8 {
                for bits in [1, 2, 3, 5, 8, 12] {
                    let mut image = TableImage::empty(ChtParams {
                        bits,
                        ..params(counter_bits, 1.0, 0.125)
                    });
                    image.u_state = x;
                    for cell in &mut image.cells {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        *cell = Cell::new(x as u8, (x >> 8) as u8);
                    }
                    let bytes = encode(&image);
                    prop_assert_eq!(&bytes, &reference_encode(&image), "{}x{}", bits, counter_bits);
                    let max = low_bits(counter_bits);
                    for cell in &mut image.cells {
                        *cell = if counter_bits == 1 {
                            Cell::new(u8::from(cell.coll != 0), 0)
                        } else {
                            Cell::new(cell.coll & max, cell.noncoll & max)
                        };
                    }
                    prop_assert_eq!(decode(&bytes).unwrap(), image);
                }
            }
        }
    }

    fn params(counter_bits: u32, s: f64, u: f64) -> ChtParams {
        ChtParams {
            bits: 8,
            counter_bits,
            strategy: Strategy::new(s),
            update_fraction: u,
        }
    }

    fn filled(p: ChtParams, seed: u64) -> TableImage {
        let mut image = TableImage::empty(p);
        image.u_state = seed | 1;
        let max = ((1u32 << p.counter_bits) - 1) as u8;
        let mut x = seed | 1;
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

    #[test]
    fn roundtrip_all_counter_widths() {
        for cb in 1..=8 {
            for s in [0.0, 1.0] {
                let image = filled(params(cb, s, 0.125), 0xABCD + u64::from(cb));
                let back = decode(&encode(&image)).unwrap();
                assert_eq!(back, image, "width {cb}, S {s}");
            }
        }
    }

    #[test]
    fn one_bit_mode_stores_single_bit_per_entry() {
        let image = filled(params(1, 0.0, 0.0), 99);
        let bytes = encode(&image);
        assert_eq!(bytes.len(), HEADER_LEN + 256 / 8);
    }

    #[test]
    fn corruption_is_detected_not_panicked() {
        let image = filled(params(4, 1.0, 0.125), 7);
        let good = encode(&image);
        // Flip one payload bit: CRC catches it.
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert!(matches!(decode(&bad), Err(StoreError::Corrupt(_))));
        // Truncations anywhere never panic.
        for cut in 0..good.len() {
            let _ = decode(&good[..cut]);
        }
        // Bad magic / version / ranges.
        let mut m = good.clone();
        m[0] = b'X';
        assert!(decode(&m).is_err());
        let mut v = good.clone();
        v[8] = 9;
        assert!(decode(&v).is_err());
        let mut b = good.clone();
        b[12] = 60; // 2^60 entries: rejected before any allocation
        assert!(decode(&b).is_err());
    }

    #[test]
    fn merge_max_is_a_join() {
        let p = params(4, 1.0, 0.125);
        let a = filled(p, 11);
        let b = filled(p, 23);
        let mut ab = a.clone();
        ab.merge_max(&b).unwrap();
        let mut ba = b.clone();
        ba.merge_max(&a).unwrap();
        // Commutative on cells (u_state is last-writer-wins, so compare
        // cells only across orders) and idempotent.
        assert_eq!(ab.cells, ba.cells);
        let snap = ab.clone();
        ab.merge_max(&b).unwrap();
        assert_eq!(ab, snap, "duplicate merge must be a no-op");
        for (i, c) in ab.cells.iter().enumerate() {
            assert_eq!(c.coll, a.cells[i].coll.max(b.cells[i].coll));
            assert_eq!(c.noncoll, a.cells[i].noncoll.max(b.cells[i].noncoll));
        }
    }

    #[test]
    fn merge_max_u_state_prefers_live_lineage() {
        let p = params(2, 1.0, 1.0);
        let mut unknown = TableImage::empty(p);
        let mut known = TableImage::empty(p);
        known.u_state = 77;
        unknown.merge_max(&known).unwrap();
        assert_eq!(unknown.u_state, 77, "unknown RNG word adopts the peer's");
        let mut live = TableImage::empty(p);
        live.u_state = 5;
        live.merge_max(&known).unwrap();
        assert_eq!(live.u_state, 5, "live RNG word is kept");
    }

    #[test]
    fn merge_max_rejects_mismatched_params() {
        let mut a = TableImage::empty(params(2, 1.0, 1.0));
        let b = TableImage::empty(params(4, 1.0, 1.0));
        assert!(matches!(a.merge_max(&b), Err(StoreError::Mismatch(_))));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "copred-store-snap-{}-{:x}",
            std::process::id(),
            0x51AB_u32
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.bin");
        let image = filled(params(4, 1.0, 0.125), 31);
        let n = write_snapshot(&path, &image).unwrap();
        assert_eq!(n, std::fs::metadata(&path).unwrap().len());
        assert_eq!(read_snapshot(&path).unwrap(), image);
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp file must be renamed away"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
