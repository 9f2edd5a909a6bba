//! Allocation-free integer writers for the hand-rolled JSON exporters.
//!
//! Every deterministic export (chrome trace, journeys, incident bundles)
//! is integers and static strings only. Formatting those integers with
//! `to_string()` or `format!` allocates a temporary `String` per number;
//! on a half-million-event trace that is a large share of the export's
//! cost. These writers append the same decimal text straight into the
//! output buffer.

use crate::Nanos;

/// Two-digit lookup table: entry `n` is the ASCII text of `n`, zero-padded
/// to two digits (`"00"` ..= `"99"`).
const PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Appends `v` in decimal: byte-for-byte what `v.to_string()` produces.
#[inline]
pub fn push_u64(out: &mut String, mut v: u64) {
    // u64::MAX has 20 digits.
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    // SAFETY: every byte of `buf[i..]` was copied from `PAIRS` or is
    // `b'0' + v` with `v < 10`, so it is an ASCII digit and the slice is
    // valid UTF-8. (Skipping the check is a measured gain: the chrome
    // export writes about 10 M integers.)
    out.push_str(unsafe { std::str::from_utf8_unchecked(&buf[i..]) });
}

/// Appends `ns` as microseconds with exactly three decimals (`1234567`
/// becomes `"1234.567"`, `7` becomes `"0.007"`): integer math only, so
/// same-seed exports stay byte-identical.
#[inline]
pub fn push_us(out: &mut String, ns: Nanos) {
    push_u64(out, ns / 1000);
    let frac = ns % 1000;
    let pair = (frac % 100) as usize * 2;
    let digits = [
        b'.',
        b'0' + (frac / 100) as u8,
        PAIRS[pair],
        PAIRS[pair + 1],
    ];
    // SAFETY: `digits` is `b'.'`, `b'0' + frac / 100` with `frac < 1000`,
    // and two bytes of `PAIRS`: all ASCII, so valid UTF-8.
    out.push_str(unsafe { std::str::from_utf8_unchecked(&digits) });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_u64_matches_to_string() {
        let mut probes = vec![
            0,
            1,
            9,
            10,
            11,
            99,
            100,
            101,
            999,
            1000,
            u64::MAX,
            u64::MAX - 1,
        ];
        for p in 0..20u32 {
            let pow = 10u64.pow(p);
            probes.extend([pow, pow - 1, pow + 1, pow.wrapping_mul(7).wrapping_add(3)]);
        }
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            probes.push(x);
            probes.push(x >> (x % 64));
        }
        for v in probes {
            let mut out = String::from("x");
            push_u64(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
    }

    #[test]
    fn push_us_keeps_three_fixed_decimals() {
        for (ns, want) in [
            (0, "0.000"),
            (7, "0.007"),
            (70, "0.070"),
            (999, "0.999"),
            (1_000, "1.000"),
            (1_234_567, "1234.567"),
            (u64::MAX, "18446744073709551.615"),
        ] {
            let mut out = String::new();
            push_us(&mut out, ns);
            assert_eq!(out, want);
        }
        for ns in 0..5_000u64 {
            let mut out = String::new();
            push_us(&mut out, ns * 37);
            let v = ns * 37;
            assert_eq!(out, format!("{}.{:03}", v / 1000, v % 1000));
        }
    }
}
