//! Block compression: varints plus an LZSS-style codec.
//!
//! The paper's OCEAN tier leans on "column-oriented compressed file
//! format, ensuring significant data compression and minimal I/O
//! footprint" (§V-B). This module supplies the byte-level compression
//! half of that: a greedy hash-chained LZ with a 64 KiB window, encoding
//! a token stream of literals and (length, distance) copies.
//!
//! Format (after a 1-byte method tag):
//! * `0x00` raw: the block was incompressible, payload follows verbatim.
//! * `0x01` LZ: `varint(uncompressed_len)` then tokens. Each token starts
//!   with a control byte: `0x00..=0x7f` is a literal run of
//!   `control + 1` bytes, which follow it; `0x80` is a match, followed by
//!   `varint(length)` and then `varint(distance)`.

use crate::error::StorageError;
use std::cell::RefCell;

/// Minimum match length worth encoding.
const MIN_MATCH: usize = 4;
/// Window the matcher may reference backwards.
const WINDOW: usize = 64 * 1024;
/// Hash table size (power of two).
const HASH_SIZE: usize = 1 << 15;
/// Output bytes [`decompress`] reserves per input byte up front. The
/// declared length comes from the input and is only a claim: a stream
/// that really expands further grows its buffer as it goes.
const MAX_RESERVE_PER_BYTE: usize = 64;

/// Append `v` as a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            break;
        }
        buf.push(byte | 0x80);
    }
}

/// Read a LEB128 varint; returns (value, bytes consumed).
pub fn get_varint(buf: &[u8]) -> Result<(u64, usize), StorageError> {
    let mut v: u64 = 0;
    let mut shift = 0;
    for (i, &b) in buf.iter().enumerate() {
        if shift >= 64 {
            return Err(StorageError::Corrupt("varint overflow".into()));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok((v, i + 1));
        }
        shift += 7;
    }
    Err(StorageError::Corrupt("truncated varint".into()))
}

/// ZigZag-encode a signed value for varint storage.
pub fn zigzag(v: i64) -> u64 {
    (v.wrapping_shl(1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn hash(v: u32) -> usize {
    (v.wrapping_mul(2654435761) >> 17) as usize & (HASH_SIZE - 1)
}

/// The four bytes of `input` at `at`, as one little-endian load.
fn load4(input: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(input[at..at + 4].try_into().expect("4 bytes"))
}

/// How many leading bytes `a` and `b` share, up to `b.len()`
/// (`a` is at least as long), compared eight bytes at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let word = |s: &[u8], at: usize| u64::from_le_bytes(s[at..at + 8].try_into().expect("8 bytes"));
    let mut n = 0;
    while n + 8 <= b.len() {
        let diff = word(a, n) ^ word(b, n);
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    while n < b.len() && a[n] == b[n] {
        n += 1;
    }
    n
}

/// One thread's match table, kept between calls so a call does not
/// zero `HASH_SIZE` entries first.
struct MatchTable {
    /// `head[h]` = (`base` + 1 + the most recent position with hash `h`,
    /// the four bytes at that position). Keeping the bytes beside the
    /// slot lets a miss be told from a hit without loading the
    /// candidate's bytes through an address the table has to supply.
    head: Vec<(u32, u32)>,
    /// Every entry at or below it was written by an earlier call and
    /// reads as empty.
    base: u32,
}

thread_local! {
    static TABLE: RefCell<MatchTable> = const {
        RefCell::new(MatchTable { head: Vec::new(), base: 0 })
    };
}

/// Compress `input`; always decodable by [`decompress`].
///
/// A greedy matcher over a hash of each position's next four bytes. The
/// bytes it writes are a pure function of `input`: the per-thread table
/// it reuses only saves zeroing, since what earlier calls left in it
/// reads as empty.
pub fn compress(input: &[u8]) -> Vec<u8> {
    if input.len() < MIN_MATCH * 2 {
        return stored_raw(input);
    }
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    out.push(0x01);
    put_varint(&mut out, input.len() as u64);
    TABLE.with_borrow_mut(|table| {
        if table.head.is_empty() {
            table.head = vec![(0, 0); HASH_SIZE];
        }
        // Positions are stored as `base + 1 + i`: start afresh when this
        // input's would not fit in a `u32`. (An input of 4 GiB or more
        // wraps, as it always did, and leaves the next call a fresh table.)
        let len = u32::try_from(input.len()).unwrap_or(u32::MAX);
        let base = match table.base.checked_add(len) {
            Some(end) => std::mem::replace(&mut table.base, end),
            None => {
                table.head.fill((0, 0));
                table.base = len;
                0
            }
        };
        let head = &mut table.head;
        let slot = |i: usize| base.wrapping_add(i as u32).wrapping_add(1);
        let mut literal_start = 0usize;
        let mut i = 0usize;
        while i + MIN_MATCH <= input.len() {
            let word = load4(input, i);
            let (entry, seen) = std::mem::replace(&mut head[hash(word)], (slot(i), word));
            // An entry of this call is a position below `i`. One at or
            // below `base` (an earlier call's, or empty) wraps to at least
            // `u32::MAX - base`, past every position of an input that fits
            // above `base`, so `i - cand - 1` wraps far past the window:
            // one comparison rejects it and enforces the window.
            let cand = entry.wrapping_sub(base).wrapping_sub(1) as usize;
            if seen == word && i.wrapping_sub(cand).wrapping_sub(1) < WINDOW {
                let matched =
                    MIN_MATCH + common_prefix(&input[cand + MIN_MATCH..], &input[i + MIN_MATCH..]);
                flush_literals(&mut out, &input[literal_start..i]);
                out.push(0x80);
                put_varint(&mut out, matched as u64);
                put_varint(&mut out, (i - cand) as u64);
                // Index a few positions inside the match so later matches
                // can reference them (cheap approximation of full indexing).
                let step = (matched / 8).max(1);
                let mut j = i + 1;
                while j + MIN_MATCH <= input.len() && j < i + matched {
                    let word = load4(input, j);
                    head[hash(word)] = (slot(j), word);
                    j += step;
                }
                i += matched;
                literal_start = i;
            } else {
                i += 1;
            }
        }
        flush_literals(&mut out, &input[literal_start..]);
    });
    if out.len() > input.len() {
        // Incompressible; store raw.
        return stored_raw(input);
    }
    out
}

/// `input` behind the raw tag.
fn stored_raw(input: &[u8]) -> Vec<u8> {
    let mut raw = Vec::with_capacity(input.len() + 1);
    raw.push(0x00);
    raw.extend_from_slice(input);
    raw
}

/// `literals` as runs of at most 128 bytes, each behind its control byte.
fn flush_literals(out: &mut Vec<u8>, literals: &[u8]) {
    for run in literals.chunks(128) {
        out.push((run.len() - 1) as u8); // 0x00..=0x7f
        out.extend_from_slice(run);
    }
}

/// Decompress a buffer produced by [`compress`].
///
/// Never writes past the declared length: a match that would overrun it
/// is rejected before any byte of it is copied.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, StorageError> {
    let (&tag, rest) = input
        .split_first()
        .ok_or_else(|| StorageError::Corrupt("empty compressed buffer".into()))?;
    match tag {
        0x00 => Ok(rest.to_vec()),
        0x01 => {
            let (expected_len, n) = get_varint(rest)?;
            let expected_len = usize::try_from(expected_len).map_err(|_| {
                StorageError::Corrupt(format!("declared length {expected_len} too large"))
            })?;
            let mut pos = n;
            let mut out: Vec<u8> = Vec::with_capacity(
                expected_len.min(rest.len().saturating_mul(MAX_RESERVE_PER_BYTE)),
            );
            while pos < rest.len() {
                let control = rest[pos];
                pos += 1;
                if control & 0x80 == 0 {
                    let run = usize::from(control) + 1;
                    if pos + run > rest.len() {
                        return Err(StorageError::Corrupt("literal overruns buffer".into()));
                    }
                    out.extend_from_slice(&rest[pos..pos + run]);
                    pos += run;
                } else {
                    let (len, n1) = get_varint(&rest[pos..])?;
                    pos += n1;
                    let (dist, n2) = get_varint(&rest[pos..])?;
                    pos += n2;
                    let dist = dist as usize;
                    if dist == 0 || dist > out.len() {
                        return Err(StorageError::Corrupt(format!(
                            "match distance {dist} exceeds output {}",
                            out.len()
                        )));
                    }
                    if len > expected_len.saturating_sub(out.len()) as u64 {
                        return Err(StorageError::Corrupt(format!(
                            "match of {len} bytes overruns the declared length {expected_len}"
                        )));
                    }
                    // An overlapping match repeats the last `dist` bytes:
                    // copy whole periods from `start`, each copy at most
                    // doubling what there is to copy from.
                    let start = out.len() - dist;
                    let end = out.len() + len as usize;
                    while out.len() < end {
                        let n = (end - out.len()).min(out.len() - start);
                        out.extend_from_within(start..start + n);
                    }
                }
            }
            if out.len() != expected_len {
                return Err(StorageError::Corrupt(format!(
                    "decompressed {} bytes, expected {}",
                    out.len(),
                    expected_len
                )));
            }
            Ok(out)
        }
        other => Err(StorageError::Corrupt(format!(
            "unknown compression tag {other:#x}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hash4(data: &[u8]) -> usize {
        hash(u32::from_le_bytes([data[0], data[1], data[2], data[3]]))
    }

    /// The matcher `compress` replaced, kept as its oracle: a fresh,
    /// zeroed table per call and a byte-at-a-time match loop.
    fn reference_compress(input: &[u8]) -> Vec<u8> {
        if input.len() < MIN_MATCH * 2 {
            return stored_raw(input);
        }
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        out.push(0x01);
        put_varint(&mut out, input.len() as u64);
        // head[h] = most recent position with hash h (+1; 0 = empty).
        let mut head = vec![0u32; HASH_SIZE];
        let mut literal_start = 0usize;
        let mut i = 0usize;
        while i + MIN_MATCH <= input.len() {
            let h = hash4(&input[i..]);
            let candidate = head[h] as usize;
            head[h] = (i + 1) as u32;
            let mut matched = 0usize;
            if candidate > 0 {
                let cand = candidate - 1;
                if i - cand <= WINDOW {
                    let max = input.len() - i;
                    while matched < max && input[cand + matched] == input[i + matched] {
                        matched += 1;
                    }
                }
            }
            if matched >= MIN_MATCH {
                let cand = candidate - 1;
                flush_literals(&mut out, &input[literal_start..i]);
                out.push(0x80);
                put_varint(&mut out, matched as u64);
                put_varint(&mut out, (i - cand) as u64);
                let step = (matched / 8).max(1);
                let mut j = i + 1;
                while j + MIN_MATCH <= input.len() && j < i + matched {
                    head[hash4(&input[j..])] = (j + 1) as u32;
                    j += step;
                }
                i += matched;
                literal_start = i;
            } else {
                i += 1;
            }
        }
        flush_literals(&mut out, &input[literal_start..]);
        if out.len() > input.len() {
            return stored_raw(input);
        }
        out
    }

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let (got, used) = get_varint(&buf).unwrap();
            assert_eq!(got, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        for input in [&b""[..], b"a", b"abc", b"abcdefg"] {
            let c = compress(input);
            assert_eq!(decompress(&c).unwrap(), input);
        }
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let input: Vec<u8> = b"sensor=node_power_w value=1234.5 quality=good "
            .iter()
            .cycle()
            .take(100_000)
            .copied()
            .collect();
        let c = compress(&input);
        assert!(
            c.len() < input.len() / 10,
            "ratio only {}/{}",
            c.len(),
            input.len()
        );
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn random_data_stored_raw_without_blowup() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let input: Vec<u8> = (0..10_000).map(|_| rng.random()).collect();
        let c = compress(&input);
        assert!(c.len() <= input.len() + 16);
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn overlapping_copy_supported() {
        // "abcabcabc..." forces distance < length copies.
        let input: Vec<u8> = b"abc".iter().cycle().take(1_000).copied().collect();
        let c = compress(&input);
        assert_eq!(decompress(&c).unwrap(), input);
        assert!(c.len() < 100);
    }

    #[test]
    fn matches_copy_exactly_what_a_byte_loop_copies() {
        for dist in 1..=10usize {
            for len in 0..=40usize {
                let literal = b"abcdefghij";
                let mut stream = vec![0x01];
                put_varint(&mut stream, (literal.len() + len) as u64);
                stream.push(literal.len() as u8 - 1);
                stream.extend_from_slice(literal);
                stream.push(0x80);
                put_varint(&mut stream, len as u64);
                put_varint(&mut stream, dist as u64);
                let mut want = literal.to_vec();
                for _ in 0..len {
                    want.push(want[want.len() - dist]);
                }
                assert_eq!(decompress(&stream).unwrap(), want, "dist {dist}, len {len}");
            }
        }
    }

    #[test]
    fn corrupt_input_errors_not_panics() {
        assert!(decompress(&[]).is_err());
        assert!(decompress(&[0x99, 1, 2]).is_err());
        assert!(decompress(&[0x01, 0x80]).is_err()); // truncated varint
                                                     // Match referencing before start of output.
        let mut bad = vec![0x01];
        put_varint(&mut bad, 10);
        bad.push(0x80);
        put_varint(&mut bad, 4);
        put_varint(&mut bad, 9); // distance 9 with empty output
        assert!(decompress(&bad).is_err());
    }

    /// LZ header declaring `declared` bytes, then one four-byte literal.
    fn lz_header(declared: u64) -> Vec<u8> {
        let mut buf = vec![0x01];
        put_varint(&mut buf, declared);
        buf.extend_from_slice(&[3, b'a', b'b', b'c', b'd']);
        buf
    }

    #[test]
    fn declared_length_does_not_size_the_output_buffer() {
        // Eleven bytes asking for 2^64 - 1 bytes, and 2^40 behind a
        // literal: reserving either up front overflows or aborts, so
        // returning at all is the assertion.
        let mut bare = vec![0x01];
        put_varint(&mut bare, u64::MAX);
        assert!(decompress(&bare).is_err());
        assert!(decompress(&lz_header(1 << 40)).is_err());
    }

    #[test]
    fn match_past_the_declared_length_is_rejected_before_copying() {
        // A 4-byte literal then a run-length match declaring 2^40 bytes
        // in a stream that declares 8: copying first would write a
        // terabyte before the final length check could object.
        let mut bomb = lz_header(8);
        bomb.push(0x80);
        put_varint(&mut bomb, 1 << 40);
        put_varint(&mut bomb, 1);
        let err = decompress(&bomb).unwrap_err();
        assert!(err.to_string().contains("overruns"), "{err}");
        // The same match, cut to exactly fill the declared length, is fine.
        let mut fits = lz_header(8);
        fits.push(0x80);
        put_varint(&mut fits, 4);
        put_varint(&mut fits, 1);
        assert_eq!(decompress(&fits).unwrap(), b"abcddddd");
    }

    #[test]
    fn a_table_near_the_end_of_its_positions_starts_afresh() {
        let input: Vec<u8> = b"abcdabcdXabcdabcd".repeat(50);
        let want = reference_compress(&input);
        for base in [u32::MAX - 10, u32::MAX - input.len() as u32, u32::MAX] {
            compress(b"warm the table up: warm the table up");
            TABLE.with_borrow_mut(|t| t.base = base);
            assert_eq!(compress(&input), want, "base {base}");
            assert_eq!(compress(&input), want, "base {base}, next call");
        }
    }

    /// The distance of every match token in a `0x01` stream.
    fn match_distances(stream: &[u8]) -> Vec<u64> {
        let (_, mut pos) = get_varint(&stream[1..]).unwrap();
        pos += 1;
        let mut distances = Vec::new();
        while pos < stream.len() {
            let control = stream[pos];
            pos += 1;
            if control & 0x80 == 0 {
                pos += usize::from(control) + 1;
            } else {
                let (_, n1) = get_varint(&stream[pos..]).unwrap();
                let (dist, n2) = get_varint(&stream[pos + n1..]).unwrap();
                pos += n1 + n2;
                distances.push(dist);
            }
        }
        distances
    }

    /// Differential on inputs of 100–300 KB, past the window and enough
    /// positions to fill the table, each compressed twice in a row so
    /// the second call runs on a reused table.
    #[test]
    fn matcher_writes_the_reference_bytes_on_long_inputs() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(49);
        let mut noise = |n: usize| (0..n).map(|_| rng.random::<u8>()).collect::<Vec<u8>>();
        let random = noise(150_000);
        // A slowly moving float series that often holds its value, as
        // `Plain` stores it: 240 KB.
        let mut v = 1234.5f64;
        let page: Vec<u8> = (0..30_000u32)
            .flat_map(|k| {
                if k % 3 != 0 {
                    v += f64::from(k % 7) * 0.25 - 0.75;
                }
                v.to_le_bytes()
            })
            .collect();
        // After 40 KB of noise, a marker that reappears `gap` bytes later
        // across a run of zeros, whose few distinct words leave the
        // marker's table entries in place.
        let repeat_at = |gap: usize, noise: Vec<u8>, marker: &[u8]| {
            let mut input = noise;
            input.extend_from_slice(marker);
            input.resize(input.len() + gap - marker.len(), 0);
            input.extend_from_slice(marker);
            input
        };
        let marker = noise(32);
        let at_window = repeat_at(WINDOW, noise(40_000), &marker);
        let past_window = repeat_at(WINDOW + 1, noise(40_000), &marker);
        for input in [&random, &page, &at_window, &past_window] {
            assert!((100_000..=300_000).contains(&input.len()));
            let want = reference_compress(input);
            for call in 0..2 {
                assert_eq!(compress(input), want, "{} bytes, call {call}", input.len());
            }
            assert_eq!(decompress(&want).unwrap(), *input);
        }
        // The edge cases reach the edge: a match at exactly `WINDOW`, and
        // none past it.
        assert!(match_distances(&reference_compress(&at_window)).contains(&(WINDOW as u64)));
        let distances = match_distances(&reference_compress(&past_window));
        assert!(distances.iter().all(|&d| d <= WINDOW as u64));
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..5_000)) {
            let c = compress(&data);
            prop_assert_eq!(decompress(&c).unwrap(), data);
        }

        #[test]
        fn roundtrip_structured(n in 1usize..200, word in proptest::collection::vec(any::<u8>(), 1..40)) {
            let data: Vec<u8> = word.iter().cycle().take(n * word.len()).copied().collect();
            let c = compress(&data);
            prop_assert_eq!(decompress(&c).unwrap(), data);
        }

        /// Differential: the same bytes as the matcher it replaced, on
        /// arbitrary, repetitive and f64-page inputs, each compressed
        /// twice in a row so the second call runs on a reused table.
        #[test]
        fn matcher_writes_the_reference_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..3_000),
            n in 1usize..300,
            word in proptest::collection::vec(any::<u8>(), 1..40),
            start in -1.0e6f64..1.0e6,
            steps in proptest::collection::vec((0u8..3, -2.0f64..2.0), 1..600),
        ) {
            let repeated: Vec<u8> = word.iter().cycle().take(n * word.len()).copied().collect();
            // A page of a slowly moving float series that often repeats
            // a value, as `Plain` stores it.
            let page: Vec<u8> = steps
                .iter()
                .scan(start, |v, &(hold, d)| {
                    if hold != 0 {
                        *v += d;
                    }
                    Some(*v)
                })
                .flat_map(f64::to_le_bytes)
                .collect();
            for input in [&data, &repeated, &page] {
                for _ in 0..2 {
                    prop_assert_eq!(compress(input), reference_compress(input));
                }
            }
        }

        #[test]
        fn varint_roundtrip_any(v in any::<u64>()) {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let (got, _) = get_varint(&buf).unwrap();
            prop_assert_eq!(got, v);
        }

        #[test]
        fn zigzag_roundtrip_any(v in any::<i64>()) {
            prop_assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
