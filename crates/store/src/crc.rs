//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
//! guarding snapshot payloads. Hand-rolled and std-only like the rest of the
//! workspace; the lookup table is built at compile time.

/// The 256-entry lookup table for the reflected IEEE polynomial.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = c;
        i += 1;
    }
    table
}

/// The CRC register before any byte is folded in.
pub const CRC32_INIT: u32 = 0xFFFF_FFFF;

/// Folds `bytes` into a running CRC register, for checksumming a stream
/// chunk by chunk: start from [`CRC32_INIT`], fold the chunks in order,
/// and the final `!state` equals [`crc32`] of their concatenation.
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let mut c = state;
    for &b in bytes {
        c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
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

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut data = vec![0u8; 64];
        let base = crc32(&data);
        data[17] ^= 0x04;
        assert_ne!(crc32(&data), base);
    }
}
