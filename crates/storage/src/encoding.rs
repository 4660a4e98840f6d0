//! Columnar value encodings.
//!
//! Each column chunk picks the cheapest of: plain, run-length (RLE),
//! delta-varint (for timestamps and monotonic counters), or dictionary
//! (for low-cardinality strings). The chooser is size-based: every
//! candidate is sized in one pass over the column, the smallest wins
//! (ties go to the earlier of Plain, RLE, Delta; strings prefer Plain),
//! and only the winner is written, into a buffer of its exact size —
//! simple, deterministic, and self-tuning per chunk.
//!
//! Decoding is total. Any chunk, however malformed, decodes to its values
//! or to [`StorageError::Corrupt`], never to a panic, and a count read
//! from the footer or the stream is checked against the bytes that must
//! carry it before anything is allocated for it. The decoders walk each
//! chunk once, with its one-byte varint case inline.

#![deny(clippy::indexing_slicing, clippy::unwrap_used)]

use crate::compress::{put_varint, unzigzag, zigzag};
use crate::error::StorageError;
use std::collections::HashMap;

/// Encoding tags stored in the chunk header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Fixed-width little-endian values.
    Plain,
    /// (value, run-length) pairs.
    Rle,
    /// First value plus zigzag varint deltas.
    Delta,
    /// Distinct-value dictionary plus varint indices.
    Dict,
}

impl Encoding {
    fn tag(self) -> u8 {
        match self {
            Encoding::Plain => 0,
            Encoding::Rle => 1,
            Encoding::Delta => 2,
            Encoding::Dict => 3,
        }
    }

    fn from_tag(t: u8) -> Result<Encoding, StorageError> {
        match t {
            0 => Ok(Encoding::Plain),
            1 => Ok(Encoding::Rle),
            2 => Ok(Encoding::Delta),
            3 => Ok(Encoding::Dict),
            _ => Err(StorageError::Corrupt(format!("unknown encoding tag {t}"))),
        }
    }
}

fn corrupt(msg: &str) -> StorageError {
    StorageError::Corrupt(msg.into())
}

/// A forward read position over one chunk's bytes.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// One LEB128 varint, read exactly as `compress::get_varint` reads
    /// it; a single byte (every dictionary index, most run lengths and
    /// lengths) never leaves this function.
    #[inline(always)]
    fn varint(&mut self) -> Result<u64, StorageError> {
        match self.buf.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(u64::from(b))
            }
            _ => self.varint_multi(),
        }
    }

    /// The multi-byte case. With eight bytes left they are loaded as one
    /// little-endian word: the first clear high bit ends the varint, and
    /// its 7-bit groups are packed by [`pack7`]. A varint that runs past
    /// the word takes one or two more bytes; anything else (a varint in
    /// a chunk's last seven bytes, one too long to be valid) goes byte by
    /// byte.
    #[inline]
    fn varint_multi(&mut self) -> Result<u64, StorageError> {
        let Some(word) = self
            .buf
            .get(self.pos..)
            .and_then(<[u8]>::first_chunk::<8>)
            .map(|w| u64::from_le_bytes(*w))
        else {
            return self.varint_bytes();
        };
        let stops = !word & 0x8080_8080_8080_8080;
        if stops != 0 {
            let len = stops.trailing_zeros() / 8 + 1;
            self.pos += len as usize;
            return Ok(pack7(word & (u64::MAX >> (64 - 8 * len))));
        }
        let low = pack7(word);
        match self.buf.get(self.pos + 8..).unwrap_or_default() {
            [b8, ..] if *b8 < 0x80 => {
                self.pos += 9;
                Ok(low | u64::from(*b8) << 56)
            }
            // The tenth byte keeps only its lowest bit, as in `get_varint`.
            [b8, b9, ..] if *b9 < 0x80 => {
                self.pos += 10;
                Ok(low | u64::from(b8 & 0x7f) << 56 | u64::from(*b9) << 63)
            }
            _ => self.varint_bytes(),
        }
    }

    /// Byte by byte in place: a varint that starts within a chunk's last
    /// seven bytes, or one the word could not finish (truncated, or longer
    /// than ten bytes).
    fn varint_bytes(&mut self) -> Result<u64, StorageError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        let mut pos = self.pos;
        while let Some(&b) = self.buf.get(pos) {
            if shift >= 64 {
                return Err(corrupt("varint overflow"));
            }
            v |= u64::from(b & 0x7f) << shift;
            pos += 1;
            if b & 0x80 == 0 {
                self.pos = pos;
                return Ok(v);
            }
            shift += 7;
        }
        Err(corrupt("truncated varint"))
    }

    /// A varint length, then that many bytes as UTF-8.
    fn str(&mut self) -> Result<&'a str, StorageError> {
        let len = self.varint()?;
        let bytes = usize::try_from(len)
            .ok()
            .and_then(|len| self.pos.checked_add(len))
            .and_then(|end| self.buf.get(self.pos..end))
            .ok_or_else(|| corrupt("string overruns chunk"))?;
        self.pos += bytes.len();
        std::str::from_utf8(bytes).map_err(|_| corrupt("invalid utf8"))
    }

    /// The next `n` bytes, consumed, when each is a whole one-byte varint.
    fn single_byte_varints(&mut self, n: usize) -> Option<&'a [u8]> {
        let bytes = self
            .buf
            .get(self.pos..self.pos.checked_add(n)?)
            .filter(|b| b.iter().all(|&b| b < 0x80))?;
        self.pos += n;
        Some(bytes)
    }

    /// Refuse a declared number of items when fewer bytes remain: every
    /// item takes at least one.
    fn expect_at_least(&self, items: u64, what: &str) -> Result<(), StorageError> {
        if items > self.remaining() as u64 {
            return Err(StorageError::Corrupt(format!(
                "{what}: {items} items declared, {} bytes left",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// The 7-bit groups of up to eight varint bytes (`x`'s bytes, low
/// first) packed into one 56-bit value: pairs of groups, then pairs of
/// pairs, then the two halves.
#[inline(always)]
fn pack7(x: u64) -> u64 {
    let x = x & 0x7f7f_7f7f_7f7f_7f7f;
    let x = (x & 0x007f_007f_007f_007f) | ((x & 0x7f00_7f00_7f00_7f00) >> 1);
    let x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x3fff_0000_3fff_0000) >> 2);
    (x & 0x0fff_ffff) | ((x & 0x0fff_ffff_0000_0000) >> 4)
}

/// Bytes `x` takes as a varint: one per started group of 7 significant
/// bits, and one for zero.
fn varint_len(x: u64) -> usize {
    (64 - (x | 1).leading_zeros() as usize).div_ceil(7)
}

/// Encode an i64 column, choosing the smallest representation.
pub fn encode_i64(values: &[i64]) -> Vec<u8> {
    encode_words(values, |v| v)
}

/// The smallest of the Plain, RLE and Delta pages of `values` as the
/// words `word` maps them to, the earliest on a tie. One pass sizes
/// every candidate; then only the winner is written.
fn encode_words<T: Copy>(values: &[T], word: impl Fn(T) -> i64) -> Vec<u8> {
    let plain = 1 + 8 * values.len();
    let (mut rle, mut delta) = (1, 1);
    let mut prev = 0i64;
    let mut run = 0u64;
    for (i, &v) in values.iter().enumerate() {
        let w = word(v);
        let d = zigzag(w.wrapping_sub(prev));
        delta += varint_len(d);
        if i > 0 && d == 0 {
            run += 1;
        } else {
            if run > 0 {
                rle += varint_len(run);
            }
            rle += varint_len(zigzag(w));
            run = 1;
        }
        prev = w;
    }
    if run > 0 {
        rle += varint_len(run);
    }
    let mut best = (Encoding::Plain, plain);
    for candidate in [(Encoding::Rle, rle), (Encoding::Delta, delta)] {
        if candidate.1 < best.1 {
            best = candidate;
        }
    }
    let mut out = Vec::with_capacity(best.1);
    out.push(best.0.tag());
    let words = values.iter().map(|&v| word(v));
    match best.0 {
        Encoding::Plain => {
            for w in words {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        Encoding::Rle => {
            let mut words = words.peekable();
            while let Some(w) = words.next() {
                let mut run = 1u64;
                while words.next_if_eq(&w).is_some() {
                    run += 1;
                }
                put_varint(&mut out, zigzag(w));
                put_varint(&mut out, run);
            }
        }
        Encoding::Delta => {
            let mut prev = 0i64;
            for w in words {
                put_varint(&mut out, zigzag(w.wrapping_sub(prev)));
                prev = w;
            }
        }
        Encoding::Dict => unreachable!("not a word encoding"),
    }
    debug_assert_eq!(out.len(), best.1, "{:?} page sized wrong", best.0);
    out
}

/// Decode an i64 column of `count` values.
pub fn decode_i64(buf: &[u8], count: usize) -> Result<Vec<i64>, StorageError> {
    decode_words(buf, count, |w| w)
}

/// Decode an i64-encoded chunk of `count` words straight into `T`.
fn decode_words<T: Copy>(
    buf: &[u8],
    count: usize,
    from: impl Fn(i64) -> T,
) -> Result<Vec<T>, StorageError> {
    let (&tag, rest) = buf
        .split_first()
        .ok_or_else(|| corrupt("empty i64 chunk"))?;
    match Encoding::from_tag(tag)? {
        Encoding::Plain => {
            let (words, tail) = rest.as_chunks::<8>();
            if words.len() != count || !tail.is_empty() {
                return Err(corrupt("plain i64 length mismatch"));
            }
            Ok(words.iter().map(|w| from(i64::from_le_bytes(*w))).collect())
        }
        Encoding::Rle => {
            // Read every run (a pair takes at least two bytes) and check
            // that they add up to `count` before `count` is reserved.
            let mut r = Cursor::new(rest);
            let mut runs = Vec::with_capacity(rest.len() / 2);
            let mut total = 0usize;
            while r.remaining() > 0 {
                let v = from(unzigzag(r.varint()?));
                let run = r.varint()?;
                if run > (count - total) as u64 {
                    return Err(corrupt("RLE run exceeds row count"));
                }
                total += run as usize;
                runs.push((v, run as usize));
            }
            if total != count {
                return Err(StorageError::Corrupt(format!(
                    "decoded {total} values, expected {count}"
                )));
            }
            let mut out = Vec::with_capacity(count);
            for (v, run) in runs {
                out.resize(out.len() + run, v);
            }
            Ok(out)
        }
        Encoding::Delta => {
            let mut deltas = Cursor::new(rest);
            deltas.expect_at_least(count as u64, "delta chunk")?;
            let mut out = Vec::with_capacity(count);
            let mut prev = 0i64;
            for _ in 0..count {
                prev = prev.wrapping_add(unzigzag(deltas.varint()?));
                out.push(from(prev));
            }
            if deltas.remaining() > 0 {
                return Err(corrupt("trailing bytes in delta chunk"));
            }
            Ok(out)
        }
        Encoding::Dict => Err(corrupt("dict encoding invalid for i64")),
    }
}

/// Encode an f64 column: the integer chooser over the values' bit
/// patterns, so RLE wins when runs dominate (common for quantized
/// sensors and fill values).
pub fn encode_f64(values: &[f64]) -> Vec<u8> {
    encode_words(values, |v| v.to_bits() as i64)
}

/// Decode an f64 column of `count` values.
pub fn decode_f64(buf: &[u8], count: usize) -> Result<Vec<f64>, StorageError> {
    decode_words(buf, count, |w| f64::from_bits(w as u64))
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// The string page for rows `indices` into `entries` (every entry used,
/// in first-occurrence order): a dictionary page — varint(n_entries),
/// the entries, then one varint index per row — when it is strictly
/// smaller, else the plain page of length-prefixed values. Both are
/// sized first; only the winner is written.
fn str_page(entries: &[&str], indices: &[u32]) -> Vec<u8> {
    let sizes: Vec<usize> = entries
        .iter()
        .map(|e| varint_len(e.len() as u64) + e.len())
        .collect();
    let size = |i: u32| *sizes.get(i as usize).expect("index into entries");
    let entry = |i: u32| *entries.get(i as usize).expect("index into entries");
    let (mut plain, mut dict) = (1, 1 + varint_len(entries.len() as u64));
    dict += sizes.iter().sum::<usize>();
    for &i in indices {
        plain += size(i);
        dict += varint_len(u64::from(i));
    }
    let mut out;
    if dict < plain {
        out = Vec::with_capacity(dict);
        out.push(Encoding::Dict.tag());
        put_varint(&mut out, entries.len() as u64);
        for e in entries {
            put_str(&mut out, e);
        }
        for &i in indices {
            put_varint(&mut out, u64::from(i));
        }
    } else {
        out = Vec::with_capacity(plain);
        out.push(Encoding::Plain.tag());
        for &i in indices {
            put_str(&mut out, entry(i));
        }
    }
    debug_assert_eq!(out.len(), dict.min(plain), "string page sized wrong");
    out
}

/// Encode a string column: dictionary when it wins, otherwise plain
/// length-prefixed bytes.
pub fn encode_str(values: &[String]) -> Vec<u8> {
    let mut entries: Vec<&str> = Vec::new();
    let mut index_of = HashMap::new();
    let indices: Vec<u32> = values
        .iter()
        .map(|v| {
            *index_of.entry(v.as_str()).or_insert_with(|| {
                entries.push(v.as_str());
                (entries.len() - 1) as u32
            })
        })
        .collect();
    str_page(&entries, &indices)
}

/// Encode a dictionary column (`dict[codes[i]]` is row i's value)
/// without materializing per-row strings.
///
/// Byte-compatible with [`encode_str`] over the materialized rows —
/// same plain-vs-dict size chooser, same first-occurrence entry order —
/// so file bytes do not depend on the in-memory representation.
///
/// # Panics
/// If a code is not below `dict.len()`.
pub fn encode_dict(dict: &[String], codes: &[u32]) -> Vec<u8> {
    // Remap codes into first-occurrence-in-row order and drop unused
    // dictionary entries, matching encode_str's page layout.
    let mut remap: Vec<u32> = vec![u32::MAX; dict.len()];
    let mut used: Vec<&str> = Vec::new();
    let indices: Vec<u32> = codes
        .iter()
        .map(|&c| {
            let (Some(entry), Some(slot)) = (dict.get(c as usize), remap.get_mut(c as usize))
            else {
                panic!("dictionary code {c} out of range ({} entries)", dict.len());
            };
            if *slot == u32::MAX {
                *slot = used.len() as u32;
                used.push(entry);
            }
            *slot
        })
        .collect();
    str_page(&used, &indices)
}

/// Decode a string chunk of `count` values into dictionary form.
///
/// Dict pages map directly onto (entries, indices); plain pages are
/// interned on the fly. Accepts every chunk [`encode_str`] or
/// [`encode_dict`] can produce, so old `Str`-typed files read cleanly.
pub fn decode_dict(buf: &[u8], count: usize) -> Result<(Vec<String>, Vec<u32>), StorageError> {
    let (&tag, rest) = buf
        .split_first()
        .ok_or_else(|| corrupt("empty str chunk"))?;
    let mut r = Cursor::new(rest);
    match Encoding::from_tag(tag)? {
        Encoding::Plain => {
            r.expect_at_least(count as u64, "str chunk")?;
            let mut dict: Vec<String> = Vec::new();
            let mut index: HashMap<&str, u32> = HashMap::new();
            let mut codes = Vec::with_capacity(count);
            for _ in 0..count {
                let s = r.str()?;
                let code = *index.entry(s).or_insert_with(|| {
                    dict.push(s.to_string());
                    (dict.len() - 1) as u32
                });
                codes.push(code);
            }
            if r.remaining() > 0 {
                return Err(corrupt("trailing bytes in str chunk"));
            }
            Ok((dict, codes))
        }
        Encoding::Dict => {
            let dict: Vec<String> = dict_entries(&mut r)?
                .into_iter()
                .map(str::to_string)
                .collect();
            r.expect_at_least(count as u64, "dict indices")?;
            let entries = dict.len() as u64;
            let codes = match r.single_byte_varints(count) {
                // Every index one byte (below 128 entries): one pass.
                Some(bytes) => {
                    if bytes.iter().any(|&b| u64::from(b) >= entries) {
                        return Err(corrupt("dict index out of range"));
                    }
                    bytes.iter().map(|&b| u32::from(b)).collect()
                }
                None => {
                    let mut codes = Vec::with_capacity(count);
                    for _ in 0..count {
                        let idx = r.varint()?;
                        if idx >= entries {
                            return Err(corrupt("dict index out of range"));
                        }
                        codes.push(idx as u32);
                    }
                    codes
                }
            };
            Ok((dict, codes))
        }
        other => Err(StorageError::Corrupt(format!(
            "{other:?} invalid for strings"
        ))),
    }
}

/// A dictionary page's entries, borrowed from the page.
fn dict_entries<'a>(r: &mut Cursor<'a>) -> Result<Vec<&'a str>, StorageError> {
    let n_entries = r.varint()?;
    r.expect_at_least(n_entries, "dictionary")?;
    (0..n_entries).map(|_| r.str()).collect()
}

/// Decode a string column of `count` values.
pub fn decode_str(buf: &[u8], count: usize) -> Result<Vec<String>, StorageError> {
    let (&tag, rest) = buf
        .split_first()
        .ok_or_else(|| corrupt("empty str chunk"))?;
    let mut r = Cursor::new(rest);
    match Encoding::from_tag(tag)? {
        Encoding::Plain => {
            r.expect_at_least(count as u64, "str chunk")?;
            let mut out = Vec::with_capacity(count);
            for _ in 0..count {
                out.push(r.str()?.to_string());
            }
            if r.remaining() > 0 {
                return Err(corrupt("trailing bytes in str chunk"));
            }
            Ok(out)
        }
        Encoding::Dict => {
            let entries = dict_entries(&mut r)?;
            r.expect_at_least(count as u64, "dict indices")?;
            let mut out = Vec::with_capacity(count);
            for _ in 0..count {
                let idx = r.varint()?;
                let s = usize::try_from(idx)
                    .ok()
                    .and_then(|i| entries.get(i))
                    .ok_or_else(|| corrupt("dict index out of range"))?;
                out.push(s.to_string());
            }
            Ok(out)
        }
        other => Err(StorageError::Corrupt(format!(
            "{other:?} invalid for strings"
        ))),
    }
}

/// The scalar decoders the chunk decoders replaced and the encoders
/// that wrote every candidate page to keep one, kept as the oracles the
/// fast ones are property-tested against: verbatim but for one checked
/// add in the RLE arm.
#[cfg(test)]
#[allow(clippy::indexing_slicing, clippy::unwrap_used)]
mod reference {
    use super::Encoding;
    use crate::compress::{get_varint, put_varint, unzigzag, zigzag};
    use crate::error::StorageError;
    use std::collections::HashMap;

    /// Encode an i64 column, choosing the smallest representation.
    pub fn encode_i64(values: &[i64]) -> Vec<u8> {
        let plain = encode_i64_plain(values);
        let rle = encode_i64_rle(values);
        let delta = encode_i64_delta(values);
        let mut best = plain;
        for cand in [rle, delta] {
            if cand.len() < best.len() {
                best = cand;
            }
        }
        best
    }

    pub fn encode_i64_plain(values: &[i64]) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + values.len() * 8);
        out.push(Encoding::Plain.tag());
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    pub fn encode_i64_rle(values: &[i64]) -> Vec<u8> {
        let mut out = vec![Encoding::Rle.tag()];
        for run in values.chunk_by(|a, b| a == b) {
            if let Some(&v) = run.first() {
                put_varint(&mut out, zigzag(v));
                put_varint(&mut out, run.len() as u64);
            }
        }
        out
    }

    pub fn encode_i64_delta(values: &[i64]) -> Vec<u8> {
        let mut out = vec![Encoding::Delta.tag()];
        let mut prev = 0i64;
        for &v in values {
            put_varint(&mut out, zigzag(v.wrapping_sub(prev)));
            prev = v;
        }
        out
    }

    /// Encode an f64 column. Uses plain bits, or RLE-of-bits when runs
    /// dominate (common for quantized sensors and fill values).
    pub fn encode_f64(values: &[f64]) -> Vec<u8> {
        let as_bits: Vec<i64> = values.iter().map(|v| v.to_bits() as i64).collect();
        // Reuse the integer chooser on the bit patterns.
        encode_i64(&as_bits)
    }

    pub fn put_str(out: &mut Vec<u8>, s: &str) {
        put_varint(out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    }

    /// A dictionary page: varint(n_entries), the entries, then one varint
    /// index per row.
    pub fn str_dict_page(entries: &[&str], indices: &[u64]) -> Vec<u8> {
        let mut out = vec![Encoding::Dict.tag()];
        put_varint(&mut out, entries.len() as u64);
        for e in entries {
            put_str(&mut out, e);
        }
        for &idx in indices {
            put_varint(&mut out, idx);
        }
        out
    }

    /// The dictionary page when it is strictly smaller, else the plain one.
    fn smaller(dict: Vec<u8>, plain: Vec<u8>) -> Vec<u8> {
        if dict.len() < plain.len() {
            dict
        } else {
            plain
        }
    }

    /// Encode a string column: dictionary when it wins, otherwise plain
    /// length-prefixed bytes.
    pub fn encode_str(values: &[String]) -> Vec<u8> {
        // Plain: varint(len) + bytes per value.
        let mut plain = vec![Encoding::Plain.tag()];
        for v in values {
            put_str(&mut plain, v);
        }
        let mut entries: Vec<&str> = Vec::new();
        let mut index_of = HashMap::new();
        let mut indices = Vec::with_capacity(values.len());
        for v in values {
            let idx = *index_of.entry(v.as_str()).or_insert_with(|| {
                entries.push(v.as_str());
                entries.len() - 1
            });
            indices.push(idx as u64);
        }
        smaller(str_dict_page(&entries, &indices), plain)
    }

    /// Encode a dictionary column (`dict[codes[i]]` is row i's value)
    /// without materializing per-row strings.
    pub fn encode_dict(dict: &[String], codes: &[u32]) -> Vec<u8> {
        let mut plain = vec![Encoding::Plain.tag()];
        // Dict candidate: remap codes into first-occurrence-in-row order and
        // drop unused dictionary entries, matching encode_str's page layout.
        let mut remap: Vec<u32> = vec![u32::MAX; dict.len()];
        let mut used: Vec<&str> = Vec::new();
        let mut indices: Vec<u64> = Vec::with_capacity(codes.len());
        for &c in codes {
            let (Some(entry), Some(slot)) = (dict.get(c as usize), remap.get_mut(c as usize))
            else {
                panic!("dictionary code {c} out of range ({} entries)", dict.len());
            };
            put_str(&mut plain, entry);
            if *slot == u32::MAX {
                *slot = used.len() as u32;
                used.push(entry);
            }
            indices.push(u64::from(*slot));
        }
        smaller(str_dict_page(&used, &indices), plain)
    }

    /// Decode an i64 column of `count` values.
    pub fn decode_i64(buf: &[u8], count: usize) -> Result<Vec<i64>, StorageError> {
        let (&tag, rest) = buf
            .split_first()
            .ok_or_else(|| StorageError::Corrupt("empty i64 chunk".into()))?;
        let mut out = Vec::with_capacity(count);
        match Encoding::from_tag(tag)? {
            Encoding::Plain => {
                if rest.len() != count * 8 {
                    return Err(StorageError::Corrupt("plain i64 length mismatch".into()));
                }
                for c in rest.chunks_exact(8) {
                    out.push(i64::from_le_bytes(c.try_into().expect("chunk of 8")));
                }
            }
            Encoding::Rle => {
                let mut pos = 0;
                while pos < rest.len() {
                    let (zv, n1) = get_varint(&rest[pos..])?;
                    pos += n1;
                    let (run, n2) = get_varint(&rest[pos..])?;
                    pos += n2;
                    let v = unzigzag(zv);
                    // The one edit: `+` is checked, so a release build,
                    // where it would wrap and push a wrapped run forever,
                    // refuses the run as a debug build's overflow panic
                    // does.
                    if out
                        .len()
                        .checked_add(run as usize)
                        .is_none_or(|n| n > count)
                    {
                        return Err(StorageError::Corrupt("RLE run exceeds row count".into()));
                    }
                    for _ in 0..run {
                        out.push(v);
                    }
                }
            }
            Encoding::Delta => {
                let mut pos = 0;
                let mut prev = 0i64;
                for _ in 0..count {
                    let (zd, n) = get_varint(&rest[pos..])?;
                    pos += n;
                    prev = prev.wrapping_add(unzigzag(zd));
                    out.push(prev);
                }
                if pos != rest.len() {
                    return Err(StorageError::Corrupt(
                        "trailing bytes in delta chunk".into(),
                    ));
                }
            }
            Encoding::Dict => {
                return Err(StorageError::Corrupt(
                    "dict encoding invalid for i64".into(),
                ));
            }
        }
        if out.len() != count {
            return Err(StorageError::Corrupt(format!(
                "decoded {} values, expected {count}",
                out.len()
            )));
        }
        Ok(out)
    }

    /// Decode an f64 column of `count` values.
    pub fn decode_f64(buf: &[u8], count: usize) -> Result<Vec<f64>, StorageError> {
        Ok(decode_i64(buf, count)?
            .into_iter()
            .map(|b| f64::from_bits(b as u64))
            .collect())
    }

    /// Decode a string chunk of `count` values into dictionary form.
    ///
    /// Dict pages map directly onto (entries, indices); plain pages are
    /// interned on the fly. Accepts every chunk [`encode_str`] or
    /// [`encode_dict`] can produce, so old `Str`-typed files read cleanly.
    pub fn decode_dict(buf: &[u8], count: usize) -> Result<(Vec<String>, Vec<u32>), StorageError> {
        let (&tag, rest) = buf
            .split_first()
            .ok_or_else(|| StorageError::Corrupt("empty str chunk".into()))?;
        let read_str = |buf: &[u8], pos: &mut usize| -> Result<String, StorageError> {
            let (len, n) = get_varint(&buf[*pos..])?;
            *pos += n;
            let len = len as usize;
            if *pos + len > buf.len() {
                return Err(StorageError::Corrupt("string overruns chunk".into()));
            }
            let s = std::str::from_utf8(&buf[*pos..*pos + len])
                .map_err(|_| StorageError::Corrupt("invalid utf8".into()))?
                .to_string();
            *pos += len;
            Ok(s)
        };
        let mut dict: Vec<String> = Vec::new();
        let mut codes: Vec<u32> = Vec::with_capacity(count);
        match Encoding::from_tag(tag)? {
            Encoding::Plain => {
                let mut index: std::collections::HashMap<String, u32> =
                    std::collections::HashMap::new();
                let mut pos = 0;
                for _ in 0..count {
                    let s = read_str(rest, &mut pos)?;
                    let code = *index.entry(s).or_insert_with_key(|k| {
                        dict.push(k.clone());
                        (dict.len() - 1) as u32
                    });
                    codes.push(code);
                }
                if pos != rest.len() {
                    return Err(StorageError::Corrupt("trailing bytes in str chunk".into()));
                }
            }
            Encoding::Dict => {
                let mut pos = 0;
                let (n_entries, n) = get_varint(rest)?;
                pos += n;
                for _ in 0..n_entries {
                    dict.push(read_str(rest, &mut pos)?);
                }
                for _ in 0..count {
                    let (idx, n) = get_varint(&rest[pos..])?;
                    pos += n;
                    if idx as usize >= dict.len() {
                        return Err(StorageError::Corrupt("dict index out of range".into()));
                    }
                    codes.push(idx as u32);
                }
            }
            other => {
                return Err(StorageError::Corrupt(format!(
                    "{other:?} invalid for strings"
                )));
            }
        }
        Ok((dict, codes))
    }

    /// Decode a string column of `count` values.
    pub fn decode_str(buf: &[u8], count: usize) -> Result<Vec<String>, StorageError> {
        let (&tag, rest) = buf
            .split_first()
            .ok_or_else(|| StorageError::Corrupt("empty str chunk".into()))?;
        let read_str = |buf: &[u8], pos: &mut usize| -> Result<String, StorageError> {
            let (len, n) = get_varint(&buf[*pos..])?;
            *pos += n;
            let len = len as usize;
            if *pos + len > buf.len() {
                return Err(StorageError::Corrupt("string overruns chunk".into()));
            }
            let s = std::str::from_utf8(&buf[*pos..*pos + len])
                .map_err(|_| StorageError::Corrupt("invalid utf8".into()))?
                .to_string();
            *pos += len;
            Ok(s)
        };
        let mut out = Vec::with_capacity(count);
        match Encoding::from_tag(tag)? {
            Encoding::Plain => {
                let mut pos = 0;
                for _ in 0..count {
                    out.push(read_str(rest, &mut pos)?);
                }
                if pos != rest.len() {
                    return Err(StorageError::Corrupt("trailing bytes in str chunk".into()));
                }
            }
            Encoding::Dict => {
                let mut pos = 0;
                let (n_entries, n) = get_varint(rest)?;
                pos += n;
                let mut entries = Vec::with_capacity(n_entries as usize);
                for _ in 0..n_entries {
                    entries.push(read_str(rest, &mut pos)?);
                }
                for _ in 0..count {
                    let (idx, n) = get_varint(&rest[pos..])?;
                    pos += n;
                    let s = entries
                        .get(idx as usize)
                        .ok_or_else(|| StorageError::Corrupt("dict index out of range".into()))?;
                    out.push(s.clone());
                }
            }
            other => {
                return Err(StorageError::Corrupt(format!(
                    "{other:?} invalid for strings"
                )));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing, clippy::unwrap_used)]
mod tests {
    use super::reference::{
        encode_i64_delta, encode_i64_plain, encode_i64_rle, put_str, str_dict_page,
    };
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn i64_roundtrip_all_encodings() {
        let cases: Vec<Vec<i64>> = vec![
            vec![],
            vec![42],
            vec![7; 10_000],                               // RLE should win
            (0..10_000).collect(),                         // Delta should win
            (0..1_000).map(|i| i * 982_451_653).collect(), // Plain-ish
            vec![i64::MIN, i64::MAX, 0, -1, 1],
        ];
        for vals in cases {
            let enc = encode_i64(&vals);
            assert_eq!(decode_i64(&enc, vals.len()).unwrap(), vals);
        }
    }

    #[test]
    fn rle_wins_on_constant_data() {
        let vals = vec![5i64; 100_000];
        let enc = encode_i64(&vals);
        assert!(
            enc.len() < 32,
            "constant column should be tiny, got {}",
            enc.len()
        );
    }

    #[test]
    fn delta_wins_on_timestamps() {
        let vals: Vec<i64> = (0..100_000)
            .map(|i| 1_700_000_000_000 + i * 1_000)
            .collect();
        let enc = encode_i64(&vals);
        // ~2 bytes per value beats 8 for plain.
        assert!(
            enc.len() < vals.len() * 3,
            "delta not chosen: {} bytes",
            enc.len()
        );
    }

    #[test]
    fn f64_roundtrip_with_nan() {
        let vals = vec![1.5, -0.0, f64::NAN, f64::INFINITY, 42.0, 42.0, 42.0];
        let enc = encode_f64(&vals);
        let dec = decode_f64(&enc, vals.len()).unwrap();
        assert_eq!(dec.len(), vals.len());
        for (a, b) in vals.iter().zip(&dec) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn str_dictionary_wins_on_low_cardinality() {
        let vals: Vec<String> = (0..10_000).map(|i| format!("sensor-{}", i % 4)).collect();
        let enc = encode_str(&vals);
        assert_eq!(enc[0], 3, "dict tag expected");
        assert!(enc.len() < 10_000 * 4);
        assert_eq!(decode_str(&enc, vals.len()).unwrap(), vals);
    }

    #[test]
    fn str_plain_on_high_cardinality() {
        let vals: Vec<String> = (0..100).map(|i| format!("unique-value-{i}")).collect();
        let enc = encode_str(&vals);
        assert_eq!(decode_str(&enc, vals.len()).unwrap(), vals);
    }

    #[test]
    fn corrupt_chunks_error() {
        assert!(decode_i64(&[], 0).is_err());
        assert!(decode_i64(&[9, 0, 0], 1).is_err());
        assert!(decode_str(&[0, 0xff], 1).is_err());
        // Count mismatch.
        let enc = encode_i64(&[1, 2, 3]);
        assert!(decode_i64(&enc, 5).is_err());
    }

    #[test]
    fn dict_encoding_matches_str_encoding_bytes() {
        // Shuffled dict order and an unused entry must not leak into the
        // bytes: encode_dict(remap) == encode_str(materialized).
        let dict = vec![
            "unused".to_string(),
            "cpu1".to_string(),
            "node".to_string(),
            "gpu0".to_string(),
        ];
        let codes: Vec<u32> = vec![2, 1, 1, 3, 2, 2, 1, 3, 3, 2];
        let materialized: Vec<String> = codes.iter().map(|&c| dict[c as usize].clone()).collect();
        assert_eq!(encode_dict(&dict, &codes), encode_str(&materialized));
        // High-cardinality: the plain page wins on both paths too.
        let dict: Vec<String> = (0..50).map(|i| format!("unique-value-{i}")).collect();
        let codes: Vec<u32> = (0..50).collect();
        let materialized: Vec<String> = codes.iter().map(|&c| dict[c as usize].clone()).collect();
        assert_eq!(encode_dict(&dict, &codes), encode_str(&materialized));
    }

    #[test]
    fn decode_dict_reads_both_page_kinds() {
        // Dict page.
        let vals: Vec<String> = (0..1_000).map(|i| format!("s{}", i % 5)).collect();
        let enc = encode_str(&vals);
        assert_eq!(enc[0], 3, "dict page expected");
        let (dict, codes) = decode_dict(&enc, vals.len()).unwrap();
        assert_eq!(dict.len(), 5);
        let back: Vec<&str> = codes.iter().map(|&c| dict[c as usize].as_str()).collect();
        assert_eq!(back, vals.iter().map(String::as_str).collect::<Vec<_>>());
        // Plain page: interned on the fly.
        let vals: Vec<String> = (0..40).map(|i| format!("unique-{i}")).collect();
        let enc = encode_str(&vals);
        assert_eq!(enc[0], 0, "plain page expected");
        let (dict, codes) = decode_dict(&enc, vals.len()).unwrap();
        assert_eq!(dict, vals);
        assert_eq!(codes, (0..40).collect::<Vec<u32>>());
    }

    /// One decode's outcome; the decoders only ever report `Corrupt`.
    #[derive(Debug, PartialEq)]
    enum Outcome<T> {
        Values(T),
        Corrupt,
    }

    fn outcome<T>(r: Result<T, StorageError>) -> Outcome<T> {
        match r {
            Ok(v) => Outcome::Values(v),
            Err(StorageError::Corrupt(_)) => Outcome::Corrupt,
            Err(e) => panic!("decoders report only Corrupt, got {e:?}"),
        }
    }

    /// `fast` and `reference` agree on `chunk`. Where the reference
    /// panics (an unchecked length or count the fast decoder now
    /// rejects), the fast decoder must report `Corrupt`.
    fn agree<T: PartialEq + std::fmt::Debug>(
        chunk: &[u8],
        fast: impl Fn(&[u8]) -> Result<T, StorageError>,
        reference: impl Fn(&[u8]) -> Result<T, StorageError>,
    ) {
        let got = outcome(fast(chunk));
        let want = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reference(chunk)))
            .map_or(Outcome::Corrupt, outcome);
        assert!(
            got == want,
            "fast and reference decoders disagree on a {}-byte chunk starting {:?}",
            chunk.len(),
            &chunk[..chunk.len().min(24)]
        );
    }

    /// `check` on `chunk`, on its truncations and on its single-byte
    /// flips (four masks): at every position of a short chunk, at 40
    /// spread positions of a long one.
    fn for_each_variant(chunk: &[u8], mut check: impl FnMut(&[u8])) {
        check(chunk);
        let n = chunk.len();
        let positions: Vec<usize> = if n <= 300 {
            (0..n).collect()
        } else {
            (0..8)
                .chain((0..24).map(|k| k * n / 24))
                .chain(n - 8..n)
                .collect()
        };
        let mut flipped = chunk.to_vec();
        for &p in &positions {
            check(&chunk[..p]);
            for mask in [0x01u8, 0x7f, 0x80, 0xff] {
                flipped[p] ^= mask;
                check(&flipped);
                flipped[p] ^= mask;
            }
        }
    }

    /// Every i64 decode of `page`'s variants, at `count` and its
    /// neighbours, as i64 and as f64 bits.
    fn i64_page_agrees(page: &[u8], count: usize) {
        for count in [count, count + 1, count.saturating_sub(1)] {
            for_each_variant(page, |c| {
                agree(
                    c,
                    |b| decode_i64(b, count),
                    |b| reference::decode_i64(b, count),
                );
                let bits = |v: Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                agree(
                    c,
                    |b| decode_f64(b, count).map(bits),
                    |b| reference::decode_f64(b, count).map(bits),
                );
            });
        }
    }

    fn str_page_agrees(page: &[u8], count: usize) {
        for count in [count, count + 1, count.saturating_sub(1)] {
            for_each_variant(page, |c| {
                agree(
                    c,
                    |b| decode_str(b, count),
                    |b| reference::decode_str(b, count),
                );
                agree(
                    c,
                    |b| decode_dict(b, count),
                    |b| reference::decode_dict(b, count),
                );
            });
        }
    }

    /// Both string page kinds for `vals`, whichever the chooser prefers.
    fn str_pages(vals: &[String]) -> [Vec<u8>; 2] {
        let mut plain = vec![Encoding::Plain.tag()];
        let mut entries: Vec<&str> = Vec::new();
        let mut indices = Vec::new();
        for v in vals {
            put_str(&mut plain, v);
            let idx = entries.iter().position(|e| e == v).unwrap_or_else(|| {
                entries.push(v);
                entries.len() - 1
            });
            indices.push(idx as u64);
        }
        [plain, str_dict_page(&entries, &indices)]
    }

    /// A value whose zigzag form has `bits` significant bits, so its
    /// varint takes `ceil(bits / 7)` bytes (1 to 10).
    fn sized(bits: u32, raw: u64) -> i64 {
        unzigzag(raw.checked_shr(64 - bits).unwrap_or(0))
    }

    #[test]
    fn every_byte_flip_of_small_chunks_agrees() {
        let ints: Vec<i64> = vec![0, 1, -300, 1 << 40, i64::MIN, i64::MAX, 7, 7, 7];
        let pages = [
            encode_i64_plain(&ints),
            encode_i64_rle(&ints),
            encode_i64_delta(&ints),
        ];
        let strs: Vec<String> = ["a", "", "é€", "a", "long-ish entry", ""]
            .iter()
            .map(|s| s.to_string())
            .collect();
        for page in &pages {
            for p in 0..page.len() {
                let mut flipped = page.clone();
                for v in 0..=255u8 {
                    flipped[p] = v;
                    agree(
                        &flipped,
                        |b| decode_i64(b, ints.len()),
                        |b| reference::decode_i64(b, ints.len()),
                    );
                }
            }
        }
        for page in &str_pages(&strs) {
            for p in 0..page.len() {
                let mut flipped = page.clone();
                for v in 0..=255u8 {
                    flipped[p] = v;
                    agree(
                        &flipped,
                        |b| decode_str(b, strs.len()),
                        |b| reference::decode_str(b, strs.len()),
                    );
                    agree(
                        &flipped,
                        |b| decode_dict(b, strs.len()),
                        |b| reference::decode_dict(b, strs.len()),
                    );
                }
            }
        }
    }

    fn is_corrupt<T>(r: Result<T, StorageError>) -> bool {
        matches!(r, Err(StorageError::Corrupt(_)))
    }

    /// Counts and lengths read from the footer or the stream are claims:
    /// each forged one below is refused with `Corrupt` before anything
    /// is allocated for it (an abort or a panic fails the test).
    #[test]
    fn forged_counts_and_lengths_are_corrupt() {
        let huge = [usize::MAX, usize::MAX / 8 + 1, 1 << 40];
        for count in huge {
            // Plain: `count * 8` would overflow or exceed the bytes.
            assert!(is_corrupt(decode_i64(&[0, 1, 2, 3, 4, 5, 6, 7, 8], count)));
            assert!(is_corrupt(decode_f64(&[0], count)));
            // Delta: every value takes at least one byte.
            assert!(is_corrupt(decode_i64(&[2, 0, 2], count)));
            // RLE: the runs must add up to the count first.
            assert!(is_corrupt(decode_i64(&encode_i64_rle(&[5; 3]), count)));
            // Strings: one byte per row at least, on both page kinds.
            let page = str_pages(&["x".to_string()]);
            for p in &page {
                assert!(is_corrupt(decode_str(p, count)));
                assert!(is_corrupt(decode_dict(p, count)));
            }
        }
        // An honest RLE run longer than the declared count.
        assert!(is_corrupt(decode_i64(&encode_i64_rle(&[5; 10]), 9)));
        let mut run = vec![Encoding::Rle.tag(), 10];
        put_varint(&mut run, u64::MAX);
        assert!(is_corrupt(decode_i64(&run, 3)));
        // A string length near u64::MAX: `pos + len` must not wrap.
        for len in [u64::MAX, u64::MAX - 1, 1 << 63, usize::MAX as u64] {
            let mut plain = vec![Encoding::Plain.tag()];
            put_varint(&mut plain, len);
            plain.extend_from_slice(b"abc");
            assert!(is_corrupt(decode_str(&plain, 1)));
            assert!(is_corrupt(decode_dict(&plain, 1)));
            let mut dict = vec![Encoding::Dict.tag(), 1];
            put_varint(&mut dict, len);
            dict.extend_from_slice(b"abc\x00");
            assert!(is_corrupt(decode_str(&dict, 1)));
            assert!(is_corrupt(decode_dict(&dict, 1)));
        }
        // A dictionary entry count far beyond the page.
        for n_entries in [u64::MAX, 1 << 60, 1 << 32, 3] {
            let mut dict = vec![Encoding::Dict.tag()];
            put_varint(&mut dict, n_entries);
            dict.extend_from_slice(&[1, b'a', 0]);
            assert!(is_corrupt(decode_str(&dict, 1)));
            assert!(is_corrupt(decode_dict(&dict, 1)));
        }
        // Eleven continuation bytes overflow a varint.
        let mut long = vec![Encoding::Delta.tag()];
        long.extend_from_slice(&[0xff; 10]);
        long.push(0x01);
        assert!(is_corrupt(decode_i64(&long, 1)));
    }

    /// Inputs on which two candidates tie for the smallest page, and
    /// the tag that must win: the earlier of Plain, RLE, Delta, and
    /// plain strings over a dictionary page of the same size.
    #[test]
    fn chooser_ties_go_to_the_earlier_encoding() {
        let cases: [(&[i64], u8); 5] = [
            // Plain 17 = RLE 17 < Delta 20.
            (&[1 << 62, 1 << 20], 0),
            // Plain 9 = Delta 9 < RLE 10: an 8-byte varint.
            (&[1 << 48], 0),
            // RLE = Delta < Plain: one value twice.
            (&[5, 5], 1),
            (&[i64::MIN, i64::MIN], 1),
            // Only an empty page: every candidate is the tag alone.
            (&[], 0),
        ];
        for (vals, tag) in cases {
            let enc = encode_i64(vals);
            assert_eq!(enc, reference::encode_i64(vals), "{vals:?}");
            assert_eq!(enc[0], tag, "{vals:?}");
            let floats: Vec<f64> = vals.iter().map(|&v| f64::from_bits(v as u64)).collect();
            assert_eq!(encode_f64(&floats), enc, "{vals:?} as f64 bits");
        }
        // Strings: plain 7 = dictionary 7, and plain wins; one more row
        // tips it to the dictionary.
        for (rows, tag) in [(2, 0), (3, 3)] {
            let vals = vec!["ab".to_string(); rows];
            let enc = encode_str(&vals);
            assert_eq!(enc, reference::encode_str(&vals), "{rows} rows");
            assert_eq!(enc[0], tag, "{rows} rows");
            let dict = ["unused".to_string(), "ab".to_string()];
            assert_eq!(encode_dict(&dict, &vec![1; rows]), enc, "{rows} rows");
        }
    }

    /// Values whose varints (as values and as deltas) take 1 to 10
    /// bytes, the extremes (`any` draws them often), and runs of
    /// repeats, so the three page sizes cross and tie.
    fn words() -> impl Strategy<Value = Vec<i64>> {
        let word = (any::<bool>(), 0u32..=64, any::<u64>(), any::<i64>())
            .prop_map(|(size_it, bits, raw, v)| if size_it { sized(bits, raw) } else { v });
        proptest::collection::vec((word, 1usize..5), 0..40).prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(w, n)| std::iter::repeat_n(w, n))
                .collect()
        })
    }

    /// f64 columns of arbitrary values (`any` draws NaN, ±0.0 and the
    /// infinities often) and quiet NaNs with arbitrary payloads and
    /// signs, in runs.
    fn floats() -> impl Strategy<Value = Vec<f64>> {
        let float = (any::<bool>(), any::<u64>(), any::<f64>()).prop_map(|(nan, bits, v)| {
            if nan {
                f64::from_bits(0x7ff8_0000_0000_0000 | (bits & 0x8007_ffff_ffff_ffff))
            } else {
                v
            }
        });
        proptest::collection::vec((float, 1usize..4), 0..40).prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(f, n)| std::iter::repeat_n(f, n))
                .collect()
        })
    }

    proptest! {
        /// The sizing choosers write the bytes the write-every-page
        /// choosers kept.
        #[test]
        fn word_choosers_match_reference(ints in words(), floats in floats()) {
            prop_assert_eq!(encode_i64(&ints), reference::encode_i64(&ints));
            prop_assert_eq!(encode_f64(&floats), reference::encode_f64(&floats));
            let bits: Vec<f64> = ints.iter().map(|&v| f64::from_bits(v as u64)).collect();
            prop_assert_eq!(encode_f64(&bits), reference::encode_f64(&bits));
        }

        /// Dictionary columns: unused, shuffled and multi-byte entries,
        /// indices past one varint byte, both page kinds winning.
        #[test]
        fn dict_chooser_matches_reference(
            dict in proptest::collection::vec(".{0,12}", 1..200),
            picks in proptest::collection::vec((any::<u32>(), 0u32..5), 0..300),
        ) {
            let codes: Vec<u32> = picks
                .iter()
                .map(|&(c, spread)| c % (dict.len() as u32).min(1 << (spread * 2 + 1)))
                .collect();
            prop_assert_eq!(encode_dict(&dict, &codes), reference::encode_dict(&dict, &codes));
            let rows: Vec<String> = codes.iter().map(|&c| dict[c as usize].clone()).collect();
            prop_assert_eq!(encode_str(&rows), reference::encode_str(&rows));
        }
    }

    proptest! {
        // Each case decodes up to 8 × 10⁵ rows per variant.
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// RLE pages with runs of 1 to 10⁵ rows.
        #[test]
        fn fast_decoders_match_reference_on_long_runs(
            runs in proptest::collection::vec((0u32..=64, any::<u64>(), 0u32..=5, any::<u64>()), 1..8),
        ) {
            let mut vals = Vec::new();
            for &(bits, raw, exp, len) in &runs {
                let run = 1 + (len % 10u64.pow(exp)) as usize;
                vals.resize(vals.len() + run, sized(bits, raw));
            }
            i64_page_agrees(&encode_i64_rle(&vals), vals.len());
        }
    }

    proptest! {
        /// Plain and dictionary string pages, multi-byte UTF-8 and
        /// lengths past one varint byte included.
        #[test]
        fn fast_decoders_match_reference_on_strings(
            vocab in proptest::collection::vec(".{0,60}", 1..8),
            picks in proptest::collection::vec(any::<u8>(), 0..60),
        ) {
            let vals: Vec<String> = picks
                .iter()
                .map(|&p| vocab[usize::from(p) % vocab.len()].clone())
                .collect();
            for page in str_pages(&vals) {
                str_page_agrees(&page, vals.len());
            }
        }

        /// Plain and delta pages of values whose varints take 1 to 10
        /// bytes (as deltas), against the reference decoders.
        #[test]
        fn fast_decoders_match_reference_on_varint_widths(
            deltas in proptest::collection::vec((0u32..=64, any::<u64>()), 0..200),
        ) {
            let mut prev = 0i64;
            let vals: Vec<i64> = deltas
                .iter()
                .map(|&(bits, raw)| {
                    prev = prev.wrapping_add(sized(bits, raw));
                    prev
                })
                .collect();
            for page in [encode_i64_plain(&vals), encode_i64_delta(&vals), encode_i64_rle(&vals)] {
                i64_page_agrees(&page, vals.len());
            }
        }

        #[test]
        fn i64_roundtrip_any(vals in proptest::collection::vec(any::<i64>(), 0..500)) {
            let enc = encode_i64(&vals);
            prop_assert_eq!(decode_i64(&enc, vals.len()).unwrap(), vals);
        }

        #[test]
        fn i64_roundtrip_runs(v in any::<i64>(), n in 1usize..1000) {
            let vals = vec![v; n];
            let enc = encode_i64(&vals);
            prop_assert_eq!(decode_i64(&enc, n).unwrap(), vals);
        }

        #[test]
        fn f64_roundtrip_any(vals in proptest::collection::vec(any::<f64>(), 0..500)) {
            let enc = encode_f64(&vals);
            let dec = decode_f64(&enc, vals.len()).unwrap();
            prop_assert_eq!(vals.len(), dec.len());
            for (a, b) in vals.iter().zip(&dec) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn str_roundtrip_any(vals in proptest::collection::vec(".{0,20}", 0..100)) {
            let enc = encode_str(&vals);
            prop_assert_eq!(decode_str(&enc, vals.len()).unwrap(), vals);
        }
    }
}
