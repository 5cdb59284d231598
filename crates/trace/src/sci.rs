//! The trace format's one float encoding, `{:.17e}` (18 significant
//! digits, e.g. `-1.25000000000000000e-3`), written without the
//! `core::fmt` float machinery for the values traces actually carry.
//!
//! [`push_e17`] writes exactly the bytes `format!("{v:.17e}")` writes, so
//! the wire format and every recorded log are unchanged. Normal finite
//! |v| in [1e-4, 2^52) take the fast path: there v = m·2^e2 with e2 < 0
//! is exact, so the 18 digits D = round(m·10^k / 2^−e2), k = 17 − E, come
//! from one `u128` product, rounded half-to-even on the exact remainder
//! (std's rule). Every other value (zero, subnormals, NaN, ±inf, and
//! anything out of range) is written by std itself.

use std::fmt::Write as _;

/// 10^k for the k = 17 − E the fast path uses (E in −4..=15).
const POW10: [u128; 22] = {
    let mut t = [1u128; 22];
    let mut i = 1;
    while i < t.len() {
        t[i] = t[i - 1] * 10;
        i += 1;
    }
    t
};

/// f64 10^n for n in −4..=16, indexed by n + 4. Each is exact (n ≥ 0) or
/// rounds above the real power (n < 0), so `a >= DECADE[n + 4]` holds
/// exactly when a ≥ 10^n.
const DECADE: [f64; 21] = [
    1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12,
    1e13, 1e14, 1e15, 1e16,
];

/// `00`, `01`, …, `99`.
const PAIRS: [[u8; 2]; 100] = {
    let mut t = [[0u8; 2]; 100];
    let mut i = 0;
    while i < 100 {
        t[i] = [b'0' + (i / 10) as u8, b'0' + (i % 10) as u8];
        i += 1;
    }
    t
};

/// Writes the 8 decimal digits of `x < 10^8` into `buf[..8]`.
fn put8(buf: &mut [u8], mut x: u32) {
    for i in (0..4).rev() {
        buf[2 * i..2 * i + 2].copy_from_slice(&PAIRS[(x % 100) as usize]);
        x /= 100;
    }
}

/// Appends `v` to `out` exactly as `write!(out, "{v:.17e}")` would.
pub(crate) fn push_e17(out: &mut String, v: f64) {
    let a = v.abs();
    if !(1e-4..4_503_599_627_370_496.0).contains(&a) {
        write!(out, "{v:.17e}").expect("string write");
        return;
    }
    let bits = a.to_bits();
    let m = (bits & ((1 << 52) - 1)) | (1 << 52);
    // −66..=−1 on the fast path, so v = m / 2^−e2 exactly.
    let e2 = (bits >> 52) as i32 - 1075;
    // floor(log10 2^(e2+52)) is E or E − 1; one compare settles it.
    let mut e = ((e2 + 52) * 78_913) >> 18;
    if a >= DECADE[(e + 5) as usize] {
        e += 1;
    }
    let p = u128::from(m) * POW10[(17 - e) as usize];
    let shift = e2.unsigned_abs();
    let mut d = (p >> shift) as u64;
    let rem = p & ((1u128 << shift) - 1);
    let half = 1u128 << (shift - 1);
    if rem > half || (rem == half && d & 1 == 1) {
        d += 1;
    }
    // Rounding never carries into the next decade here: that needs a
    // double within 5e-19 (relative) below a power of ten, and the only
    // candidates, the doubles nearest 10^-3..10^16, are not below theirs.
    debug_assert!(d < 1_000_000_000_000_000_000, "{v:e}");
    let (hi, lo) = ((d / 1_000_000_000) as u32, (d % 1_000_000_000) as u32);
    let mut buf = [0u8; 24];
    let mut n = 0;
    if v < 0.0 {
        buf[0] = b'-';
        n = 1;
    }
    buf[n] = b'0' + (hi / 100_000_000) as u8;
    buf[n + 1] = b'.';
    put8(&mut buf[n + 2..], hi % 100_000_000);
    buf[n + 10] = b'0' + (lo / 100_000_000) as u8;
    put8(&mut buf[n + 11..], lo % 100_000_000);
    buf[n + 19] = b'e';
    n += 20;
    if e < 0 {
        buf[n] = b'-';
        n += 1;
    }
    let ue = e.unsigned_abs() as usize;
    if ue >= 10 {
        buf[n..n + 2].copy_from_slice(&PAIRS[ue]);
        n += 2;
    } else {
        buf[n] = b'0' + ue as u8;
        n += 1;
    }
    out.push_str(std::str::from_utf8(&buf[..n]).expect("ascii digits"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check(v: f64) {
        let mut got = String::new();
        push_e17(&mut got, v);
        assert_eq!(got, format!("{v:.17e}"), "bits {:#018x}", v.to_bits());
    }

    fn check_both_signs(v: f64) {
        check(v);
        check(-v);
    }

    /// The ulp neighbours of `v` within ±`k` (same sign, finite).
    fn around(v: f64, k: i64) -> impl Iterator<Item = f64> {
        (-k..=k).map(move |d| f64::from_bits(v.to_bits().wrapping_add_signed(d)))
    }

    #[test]
    fn random_bit_patterns_across_every_exponent() {
        let mut rng = StdRng::seed_from_u64(0x5c1_e17);
        for biased in 0u64..2048 {
            for _ in 0..48 {
                let mantissa = rng.gen::<u64>() & ((1 << 52) - 1);
                check_both_signs(f64::from_bits(biased << 52 | mantissa));
            }
        }
        // Uniform over the fast-path range, where most wire values live.
        for _ in 0..100_000 {
            check_both_signs(rng.gen_range(-8.0..8.0));
        }
    }

    #[test]
    fn exact_ties_round_half_to_even() {
        // n / 2^j with odd n has exactly j fraction digits ending in 5;
        // choosing n so the value has 19 significant digits makes the
        // 18-digit rounding an exact tie.
        let mut rng = StdRng::seed_from_u64(17);
        for j in 4u32..=25 {
            let scale = |digits: i32| -> u128 {
                let lhs = 1u128 << j;
                let exp = digits - j as i32;
                if exp >= 0 {
                    lhs * 10u128.pow(exp as u32)
                } else {
                    lhs.div_ceil(10u128.pow((-exp) as u32))
                }
            };
            let (lo, hi) = (scale(18).max(1) as u64, scale(19).min(1 << 53) as u64);
            for _ in 0..500 {
                let n = rng.gen_range(lo..hi) | 1;
                if n >= hi {
                    continue;
                }
                check_both_signs(n as f64 / (1u64 << j) as f64);
            }
        }
        // The wider odd/2^j family, every mantissa width.
        for j in 17..=40 {
            for _ in 0..2_000 {
                let n = (rng.gen::<u64>() >> rng.gen_range(11..63)) | 1;
                check_both_signs(n as f64 / (1u64 << j) as f64);
            }
        }
    }

    #[test]
    fn ulps_around_powers_of_ten() {
        for p in -6..=16 {
            let ten: f64 = format!("1e{p}").parse().unwrap();
            for v in around(ten, 3) {
                check_both_signs(v);
            }
        }
    }

    #[test]
    fn rounding_into_the_next_decade() {
        // The one double below a power of ten by less than half a unit in
        // the 18th digit (1e153 rounds down to 9.99999999999999999973e152),
        // so the digits carry into 1.00000000000000000e153.
        let ten = 1e153_f64;
        assert!(format!("{:.20e}", ten).starts_with("9.99"));
        assert_eq!(format!("{ten:.17e}"), "1.00000000000000000e153");
        for v in around(ten, 2) {
            check_both_signs(v);
        }
        // The largest doubles below each decade of the fast path.
        for p in -3..=16 {
            let ten: f64 = format!("1e{p}").parse().unwrap();
            for v in around(f64::from_bits(ten.to_bits() - 1), 2) {
                check_both_signs(v);
            }
        }
    }

    #[test]
    fn values_std_writes_itself() {
        for v in [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
        ] {
            check(v);
        }
        for bits in [1u64, 2, 3, 0x000f_ffff_ffff_ffff, 0x0008_0000_0000_0000] {
            check_both_signs(f64::from_bits(bits));
        }
    }

    #[test]
    fn fast_path_edges() {
        for edge in [1e-4, 4_503_599_627_370_496.0] {
            for v in around(edge, 1) {
                check_both_signs(v);
            }
        }
    }
}
