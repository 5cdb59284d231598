//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
//! guarding snapshot payloads, WAL records and op-logs. Hand-rolled and
//! std-only like the rest of the workspace: slicing-by-8, with the eight
//! lookup tables built at compile time.

/// `TABLES[0]` is the classic byte-at-a-time table for the reflected
/// IEEE polynomial; `TABLES[k][b]` advances the register of byte `b`
/// through `k` further zero bytes, so eight bytes fold in one step.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// The CRC register before any byte is folded in.
pub const CRC32_INIT: u32 = 0xFFFF_FFFF;

/// Folds `bytes` into a running CRC register, for checksumming a stream
/// chunk by chunk: start from [`CRC32_INIT`], fold the chunks in order,
/// and the final `!state` equals [`crc32`] of their concatenation.
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = state;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32/IEEE of `bytes` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(CRC32_INIT, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// The CRC the slow way: one byte at a time, one bit at a time, no
    /// table.
    fn reference(bytes: &[u8]) -> u32 {
        let mut c = CRC32_INIT;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    /// Deterministic pseudo-random bytes (xorshift64).
    fn noise(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_reference() {
        let data = noise(64, 0x9E37_79B9_7F4A_7C15);
        for len in 0..=64 {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
        // The size of a `paper_arm` snapshot image.
        let image = noise(4148, 7);
        assert_eq!(crc32(&image), reference(&image));
        let buf = noise(100, 11);
        for split in 0..=buf.len() {
            let (a, b) = buf.split_at(split);
            let state = crc32_update(crc32_update(CRC32_INIT, a), b);
            assert_eq!(!state, reference(&buf), "split at {split}");
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut data = vec![0u8; 64];
        let base = crc32(&data);
        data[17] ^= 0x04;
        assert_ne!(crc32(&data), base);
    }
}
