//! The repository's one JSON writer.
//!
//! Every deterministic export (chrome trace, journeys, metrics, audit,
//! critical path, incident bundles) is written through this module. It
//! alone places the commas, quotes the keys and escapes the strings, so
//! the format is decided in one place. [`Obj`] and [`Arr`] append one
//! object or array to a caller's buffer; a nested document is written
//! into that same buffer, not built apart and copied in.
//!
//! Integers are appended without allocating. Formatting them with
//! `to_string()` or `format!` allocates a temporary `String` per number,
//! and on a half-million-event trace that is a large share of the
//! export's cost. Exports hold integers only, no floats, so same-seed
//! runs export byte-identical documents.

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

/// Appends `v` in decimal: byte-for-byte what `v.to_string()` produces.
#[inline]
pub fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Appends a comma (when `comma`) and then `parts`, with one capacity
/// check. Members are written as several small pieces, and a check per
/// piece was a measured cost (about a fifth of the chrome export).
#[inline(always)]
fn push_parts<const N: usize>(out: &mut String, comma: bool, parts: [&str; N]) {
    let total = parts.iter().fold(usize::from(comma), |t, p| {
        t.checked_add(p.len())
            .expect("JSON member longer than usize::MAX")
    });
    out.reserve(total);
    // SAFETY: `reserve` left room for `total` bytes past the end. The
    // parts are `&str`s that do not borrow `out`, so the copies cannot
    // overlap it, and `set_len` exposes exactly the bytes written: an
    // ASCII comma and whole `&str`s, so the string stays valid UTF-8.
    unsafe {
        let v = out.as_mut_vec();
        let len = v.len();
        let mut at = v.as_mut_ptr().add(len);
        if comma {
            *at = b',';
            at = at.add(1);
        }
        for p in parts {
            std::ptr::copy_nonoverlapping(p.as_ptr(), at, p.len());
            at = at.add(p.len());
        }
        v.set_len(len + total);
    }
}

#[inline(always)]
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Appends `s` escaped for a JSON string: quotes, backslashes and
/// control characters (as `\u00XX`); everything else, non-ASCII
/// included, as is.
#[cold]
fn push_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => {
                out.push_str("\\u00");
                out.push(char::from(HEX[c as usize >> 4]));
                out.push(char::from(HEX[c as usize & 0xf]));
            }
            c => out.push(c),
        }
    }
}

/// One JSON object being appended to a buffer: `{` on [`Obj::open`], a
/// comma before every member but the first, and `}` when dropped.
///
/// Keys are written without escaping, so they must be plain names
/// (checked in debug builds); string values are always escaped.
pub struct Obj<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> Obj<'a> {
    /// Opens an object at the end of `out`.
    #[inline(always)]
    pub fn open(out: &'a mut String) -> Self {
        out.push('{');
        Obj { out, first: true }
    }

    /// Whether member `k` needs a leading comma; counts it as written.
    #[inline(always)]
    fn comma(&mut self, k: &str) -> bool {
        debug_assert!(!k.bytes().any(needs_escape), "key {k:?} needs escaping");
        !std::mem::take(&mut self.first)
    }

    /// Writes the separator and `"k":`, and returns the buffer for the
    /// caller to append the member's value: a nested document, or one
    /// serialized earlier.
    #[inline(always)]
    pub fn key(&mut self, k: &str) -> &mut String {
        let comma = self.comma(k);
        push_parts(self.out, comma, ["\"", k, "\":"]);
        self.out
    }

    /// An unsigned integer member.
    #[inline(always)]
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        push_u64(self.key(k), v);
        self
    }

    /// A signed integer member.
    #[inline(always)]
    pub fn i64(&mut self, k: &str, v: i64) -> &mut Self {
        push_i64(self.key(k), v);
        self
    }

    /// A nanosecond time as microseconds with three decimals
    /// ([`push_us`]).
    #[inline(always)]
    pub fn us(&mut self, k: &str, ns: Nanos) -> &mut Self {
        push_us(self.key(k), ns);
        self
    }

    /// A string member, escaped.
    #[inline(always)]
    pub fn str(&mut self, k: &str, s: &str) -> &mut Self {
        if s.bytes().any(needs_escape) {
            let out = self.key(k);
            out.push('"');
            push_escaped(out, s);
            out.push('"');
        } else {
            let comma = self.comma(k);
            push_parts(self.out, comma, ["\"", k, "\":\"", s, "\""]);
        }
        self
    }

    /// A string member whose text `f` appends straight into the buffer,
    /// with no temporary `String`. Like a key, the text is not escaped,
    /// so it must need no escaping (checked in debug builds).
    pub fn str_with(&mut self, k: &str, f: impl FnOnce(&mut String)) -> &mut Self {
        let out = self.key(k);
        out.push('"');
        let start = out.len();
        f(out);
        debug_assert!(
            !out.as_bytes()[start..].iter().any(|&b| needs_escape(b)),
            "text {:?} needs escaping",
            &out[start..]
        );
        out.push('"');
        self
    }

    /// A boolean member in the exports' integer convention: `1` or `0`.
    #[inline(always)]
    pub fn flag(&mut self, k: &str, b: bool) -> &mut Self {
        self.key(k).push(if b { '1' } else { '0' });
        self
    }

    /// Opens a nested object member, closed when the returned writer is
    /// dropped.
    #[inline(always)]
    pub fn obj(&mut self, k: &str) -> Obj<'_> {
        Obj::open(self.key(k))
    }

    /// Opens a nested array member, closed when the returned writer is
    /// dropped.
    #[inline(always)]
    pub fn arr(&mut self, k: &str) -> Arr<'_> {
        Arr::open(self.key(k))
    }
}

impl Drop for Obj<'_> {
    #[inline(always)]
    fn drop(&mut self) {
        self.out.push('}');
    }
}

/// One JSON array being appended to a buffer: `[` on [`Arr::open`], a
/// comma before every element but the first, and `]` when dropped.
pub struct Arr<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> Arr<'a> {
    /// Opens an array at the end of `out`.
    #[inline(always)]
    pub fn open(out: &'a mut String) -> Self {
        out.push('[');
        Arr { out, first: true }
    }

    /// Writes the separator and returns the buffer for the caller to
    /// append one element: a nested document, or one serialized
    /// earlier.
    #[inline(always)]
    pub fn item(&mut self) -> &mut String {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        self.out
    }

    /// Opens an object element, closed when the returned writer is
    /// dropped.
    #[inline(always)]
    pub fn obj(&mut self) -> Obj<'_> {
        Obj::open(self.item())
    }
}

impl Drop for Arr<'_> {
    #[inline(always)]
    fn drop(&mut self) {
        self.out.push(']');
    }
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

    #[test]
    fn push_i64_matches_to_string() {
        for v in [
            0,
            1,
            -1,
            9,
            -10,
            4_242,
            -4_242,
            i64::MAX,
            i64::MIN,
            i64::MIN + 1,
        ] {
            let mut out = String::new();
            push_i64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }

    #[test]
    fn writers_place_commas_and_close_on_drop() {
        let mut out = String::new();
        let mut o = Obj::open(&mut out);
        o.u64("a", 1)
            .i64("b", -2)
            .us("c", 1_234_567)
            .flag("d", true);
        o.flag("e", false);
        o.obj("empty");
        o.arr("none");
        let mut list = o.arr("list");
        list.obj().u64("x", 3);
        list.item().push_str("null");
        let mut inner = list.obj();
        inner.str("s", "t");
        inner.arr("n").item().push('7');
        drop(inner);
        drop(list);
        o.str_with("w", |s| s.push_str("a->b"));
        drop(o);
        assert_eq!(
            out,
            "{\"a\":1,\"b\":-2,\"c\":1234.567,\"d\":1,\"e\":0,\"empty\":{},\"none\":[],\
             \"list\":[{\"x\":3},null,{\"s\":\"t\",\"n\":[7]}],\"w\":\"a->b\"}"
        );
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls_only() {
        let mut out = String::new();
        Obj::open(&mut out)
            .str("plain", "héllo / ok")
            .str("q", "say \"hi\"")
            .str("b", "a\\b")
            .str("c", "l1\nl2\t\u{1}\u{1f}\u{7f}");
        assert_eq!(
            out,
            "{\"plain\":\"héllo / ok\",\"q\":\"say \\\"hi\\\"\",\"b\":\"a\\\\b\",\
             \"c\":\"l1\\u000al2\\u0009\\u0001\\u001f\u{7f}\"}"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "needs escaping")]
    fn keys_that_need_escaping_are_caught_in_debug_builds() {
        let mut out = String::new();
        Obj::open(&mut out).u64("bad\"key", 1);
    }
}
