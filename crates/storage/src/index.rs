//! Secondary (inverted) indexes over categorical colfile columns.
//!
//! A [`ColumnIndex`] maps each distinct string value of a categorical
//! (`Str`/`Dict`) column to its postings: for every row group that
//! contains the value, a [`RowBitmap`] of the matching rows. Indexes are
//! built at colfile write time (opt-in via
//! [`crate::colfile::TableWriter::index_column`]), stored LZ-compressed
//! beside the footer, and let a query planner answer `col == "value"`
//! lookups by touching only the row groups — and rows — that can match,
//! without decoding the column itself.
//!
//! # Section format
//!
//! [`ColumnIndex::to_bytes`] writes, every integer little-endian:
//!
//! ```text
//! tag            u8  = 0x01
//! entry count    u32
//! per entry, ascending by value, values distinct:
//!   value        u32 length, then that many bytes of UTF-8
//!   postings     u32 count (≥ 1)
//!   per posting, ascending by row group, groups distinct:
//!     group      u32
//!     rows       u32 (the group's row count)
//!     bitmap     ceil(rows / 64) × u64; bit r of word r / 64 marks row r
//! ```
//!
//! There is exactly one encoding of a given index, so the bytes are
//! canonical. [`ColumnIndex::from_bytes`] is total: it checks every
//! field against the remaining input before allocating for it and every
//! posting against the footer's row groups, and returns
//! [`StorageError::Corrupt`] for anything `to_bytes` could not have
//! written — including the JSON sections of older files. Whatever it
//! accepts re-encodes to the same bytes, and it allocates at most a
//! constant times the input length.

use crate::error::StorageError;

/// First byte of a binary index section.
const TAG: u8 = 0x01;
/// Smallest encoding of one posting: group, rows and one bitmap word
/// (a posting with no set row is never written).
const MIN_POSTING_BYTES: usize = 4 + 4 + 8;
/// Smallest encoding of one entry: an empty value and one posting.
const MIN_ENTRY_BYTES: usize = 4 + 4 + MIN_POSTING_BYTES;

/// A fixed-length bitmap over the rows of one row group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowBitmap {
    /// Number of rows the bitmap covers (bits beyond `len` are zero).
    len: usize,
    /// Bit i of `words[i / 64]` (LSB first) marks row i.
    words: Vec<u64>,
}

impl RowBitmap {
    /// An all-zero bitmap over `len` rows.
    pub fn new(len: usize) -> RowBitmap {
        RowBitmap {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mark `row` as set. Rows at or beyond `len` are ignored.
    pub fn set(&mut self, row: usize) {
        if row < self.len {
            self.words[row / 64] |= 1u64 << (row % 64);
        }
    }

    /// Whether `row` is set.
    pub fn contains(&self, row: usize) -> bool {
        row < self.len
            && self
                .words
                .get(row / 64)
                .is_some_and(|w| w >> (row % 64) & 1 == 1)
    }

    /// Number of set rows.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate set row indexes in ascending order.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(|&i| self.contains(i))
    }

    /// AND the bitmap into a row mask, a word at a time: `mask[i]` stays
    /// set only when row `i` is set here. Rows of `mask` the bitmap does
    /// not cover are cleared, so a mask longer than the bitmap can never
    /// keep rows the bitmap did not vouch for.
    pub fn and_into(&self, mask: &mut [bool]) {
        let mut rows = mask.chunks_mut(64);
        // Words first: `zip` pulls from its left side first, so when the
        // words run out no chunk of the mask has been skipped.
        for (&word, chunk) in self.words.iter().zip(&mut rows) {
            for (bit, m) in chunk.iter_mut().enumerate() {
                *m &= word >> bit & 1 == 1;
            }
        }
        for chunk in rows {
            chunk.fill(false);
        }
    }
}

/// Postings for one value within one row group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Posting {
    /// Row group index within the file.
    pub group: u32,
    /// Rows of that group holding the value.
    pub rows: RowBitmap,
}

/// One distinct value and every place it occurs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// The categorical value.
    pub value: String,
    /// Postings sorted by row group.
    pub postings: Vec<Posting>,
}

/// An inverted index over one categorical column of a colfile:
/// `value → (row group, row bitmap)` postings.
///
/// Entries are kept sorted by value so lookups binary-search and the
/// serialized form is canonical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnIndex {
    /// Distinct values with postings, sorted by value.
    entries: Vec<IndexEntry>,
}

impl ColumnIndex {
    /// An empty index.
    pub fn new() -> ColumnIndex {
        ColumnIndex::default()
    }

    /// True when no values are indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up one value's entry.
    pub fn get(&self, value: &str) -> Option<&IndexEntry> {
        self.entries
            .binary_search_by(|e| e.value.as_str().cmp(value))
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Row groups containing `value`, ascending; empty when the value
    /// does not occur anywhere in the file (so every group can be
    /// pruned).
    pub fn groups_with(&self, value: &str) -> impl Iterator<Item = usize> + '_ {
        self.get(value)
            .into_iter()
            .flat_map(|e| e.postings.iter().map(|p| p.group as usize))
    }

    /// The row bitmap for `value` within `group`, if any.
    pub fn rows_in_group(&self, value: &str, group: usize) -> Option<&RowBitmap> {
        let entry = self.get(value)?;
        entry
            .postings
            .binary_search_by_key(&group, |p| p.group as usize)
            .ok()
            .map(|i| &entry.postings[i].rows)
    }

    /// Record a full row group's worth of values. `values` yields the
    /// column's string value for each row of group `group`, in row
    /// order. Groups must be added in ascending order.
    pub fn add_group<'a, I>(&mut self, group: usize, rows: usize, values: I)
    where
        I: IntoIterator<Item = &'a str>,
    {
        for (row, value) in values.into_iter().enumerate() {
            let idx = match self
                .entries
                .binary_search_by(|e| e.value.as_str().cmp(value))
            {
                Ok(i) => i,
                Err(i) => {
                    self.entries.insert(
                        i,
                        IndexEntry {
                            value: value.to_string(),
                            postings: Vec::new(),
                        },
                    );
                    i
                }
            };
            let entry = &mut self.entries[idx];
            match entry.postings.last_mut() {
                Some(p) if p.group as usize == group => p.rows.set(row),
                _ => {
                    let mut rows_bm = RowBitmap::new(rows);
                    rows_bm.set(row);
                    entry.postings.push(Posting {
                        group: group as u32,
                        rows: rows_bm,
                    });
                }
            }
        }
    }

    /// The binary section described in the [module docs](self).
    ///
    /// # Panics
    /// If a count, a value's length or a group's row count does not fit
    /// in a `u32`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let put_u32 = |out: &mut Vec<u8>, n: usize| {
            let n = u32::try_from(n).expect("index section field under 2^32");
            out.extend_from_slice(&n.to_le_bytes());
        };
        let mut out = vec![TAG];
        put_u32(&mut out, self.entries.len());
        for entry in &self.entries {
            put_u32(&mut out, entry.value.len());
            out.extend_from_slice(entry.value.as_bytes());
            put_u32(&mut out, entry.postings.len());
            for posting in &entry.postings {
                out.extend_from_slice(&posting.group.to_le_bytes());
                put_u32(&mut out, posting.rows.len);
                for word in &posting.rows.words {
                    out.extend_from_slice(&word.to_le_bytes());
                }
            }
        }
        out
    }

    /// Decode a section written by [`ColumnIndex::to_bytes`] for a file
    /// whose row group `g` holds `group_rows[g]` rows. Total: see the
    /// [module docs](self) for what is rejected.
    pub fn from_bytes(bytes: &[u8], group_rows: &[usize]) -> Result<ColumnIndex, StorageError> {
        let (&tag, rest) = bytes
            .split_first()
            .ok_or_else(|| corrupt("empty index section"))?;
        match tag {
            TAG => {}
            b'{' => return Err(corrupt("JSON index section; rewrite the file")),
            other => return Err(corrupt(format!("unknown index tag {other:#x}"))),
        }
        let mut r = Reader(rest);
        let entry_count = r.count(MIN_ENTRY_BYTES)?;
        let mut entries: Vec<IndexEntry> = Vec::with_capacity(entry_count);
        for _ in 0..entry_count {
            let value = r.str()?;
            if entries.last().is_some_and(|e| e.value.as_str() >= value) {
                return Err(corrupt(format!("index value {value:?} out of order")));
            }
            let posting_count = r.count(MIN_POSTING_BYTES)?;
            if posting_count == 0 {
                return Err(corrupt(format!("index value {value:?} has no postings")));
            }
            let mut postings: Vec<Posting> = Vec::with_capacity(posting_count);
            for _ in 0..posting_count {
                let group = r.u32()?;
                if postings.last().is_some_and(|p| p.group >= group) {
                    return Err(corrupt(format!("posting for group {group} out of order")));
                }
                let expected = group_rows.get(group as usize).ok_or_else(|| {
                    corrupt(format!(
                        "posting for group {group} of a {}-group file",
                        group_rows.len()
                    ))
                })?;
                let rows = r.u32()? as usize;
                if rows != *expected {
                    return Err(corrupt(format!(
                        "bitmap of {rows} rows for group {group} of {expected} rows"
                    )));
                }
                let words = r.words(rows.div_ceil(64))?;
                let tail = rows % 64;
                if tail != 0 && words.last().is_some_and(|w| w >> tail != 0) {
                    return Err(corrupt(format!("bits past row {rows} in group {group}")));
                }
                if words.iter().all(|&w| w == 0) {
                    return Err(corrupt(format!("empty posting for group {group}")));
                }
                postings.push(Posting {
                    group,
                    rows: RowBitmap { len: rows, words },
                });
            }
            entries.push(IndexEntry {
                value: value.to_string(),
                postings,
            });
        }
        if !r.0.is_empty() {
            return Err(corrupt(format!("{} trailing bytes after index", r.0.len())));
        }
        Ok(ColumnIndex { entries })
    }
}

fn corrupt(msg: impl Into<String>) -> StorageError {
    StorageError::Corrupt(msg.into())
}

/// Bounds-checked cursor over an untrusted index section.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        let (head, rest) = self
            .0
            .split_at_checked(n)
            .ok_or_else(|| corrupt("index section truncated"))?;
        self.0 = rest;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// A count of items taking at least `min_bytes` each, rejected unless
    /// that many still fit in what remains — so a forged count can never
    /// size an allocation beyond the input.
    fn count(&mut self, min_bytes: usize) -> Result<usize, StorageError> {
        let n = self.u32()? as usize;
        if n > self.0.len() / min_bytes {
            return Err(corrupt(format!(
                "index count {n} overruns the {} remaining bytes",
                self.0.len()
            )));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<&'a str, StorageError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| corrupt("index value is not UTF-8"))
    }

    fn words(&mut self, n: usize) -> Result<Vec<u64>, StorageError> {
        let raw = self.take(n.checked_mul(8).ok_or_else(|| corrupt("bitmap too long"))?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("chunk of 8")))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_set_contains_count() {
        let mut bm = RowBitmap::new(130);
        for i in [0usize, 63, 64, 65, 129] {
            bm.set(i);
        }
        bm.set(500); // out of range: ignored
        assert_eq!(bm.len(), 130);
        assert_eq!(bm.count_ones(), 5);
        assert!(bm.contains(0) && bm.contains(63) && bm.contains(64));
        assert!(!bm.contains(1) && !bm.contains(128) && !bm.contains(500));
        assert_eq!(bm.ones().collect::<Vec<_>>(), vec![0, 63, 64, 65, 129]);
        // AND: a row stays only when both the mask and the bitmap hold it.
        let mut mask: Vec<bool> = (0..130).map(|i| i != 64).collect();
        bm.and_into(&mut mask);
        let kept: Vec<usize> = (0..130).filter(|&i| mask[i]).collect();
        assert_eq!(kept, vec![0, 63, 65, 129]);
    }

    /// A mask longer than the bitmap — the shape a short bitmap had
    /// before the decoder checked lengths — keeps none of the rows the
    /// bitmap does not cover. Zipping the mask with a materialized
    /// bitmap left them all set.
    #[test]
    fn and_into_clears_rows_past_a_short_bitmap() {
        let mut bm = RowBitmap::new(3);
        bm.set(0);
        bm.set(2);
        for rows in [4, 64, 65, 200] {
            let mut mask = vec![true; rows];
            bm.and_into(&mut mask);
            let kept: Vec<usize> = (0..rows).filter(|&i| mask[i]).collect();
            assert_eq!(kept, vec![0, 2], "mask of {rows} rows");
        }
    }

    #[test]
    fn index_lookup_and_group_pruning() {
        let mut ix = ColumnIndex::new();
        ix.add_group(0, 4, ["a", "b", "a", "c"]);
        ix.add_group(1, 3, ["b", "b", "b"]);
        ix.add_group(2, 2, ["c", "a"]);

        let groups = |v| ix.groups_with(v).collect::<Vec<_>>();
        assert_eq!(groups("a"), vec![0, 2]);
        assert_eq!(groups("b"), vec![0, 1]);
        assert_eq!(groups("c"), vec![0, 2]);
        assert!(groups("nope").is_empty());

        let rows = ix.rows_in_group("a", 0).unwrap();
        assert_eq!(rows.ones().collect::<Vec<_>>(), vec![0, 2]);
        assert!(ix.rows_in_group("a", 1).is_none());
        let rows = ix.rows_in_group("b", 1).unwrap();
        assert_eq!(rows.count_ones(), 3);
    }

    /// Groups of 100, 64, 1 and 130 rows: bitmaps with a partial last
    /// word, an exact word, a single bit and three words; values with
    /// multi-byte UTF-8 and an empty string.
    fn awkward_index() -> (ColumnIndex, Vec<usize>) {
        let group_rows = vec![100, 64, 1, 130];
        let values = ["x", "y", "", "é"];
        let mut ix = ColumnIndex::new();
        for (g, &rows) in group_rows.iter().enumerate() {
            ix.add_group(g, rows, (0..rows).map(|i| values[(i + g) % 4]));
        }
        (ix, group_rows)
    }

    #[test]
    fn binary_section_round_trips_both_ways() {
        let (ix, group_rows) = awkward_index();
        let bytes = ix.to_bytes();
        let back = ColumnIndex::from_bytes(&bytes, &group_rows).unwrap();
        assert_eq!(back, ix);
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.rows_in_group("x", 0).unwrap().count_ones(), 25);
        assert_eq!(back.groups_with("é").collect::<Vec<_>>(), vec![0, 1, 3]);
        // The empty index is one tag and a zero count.
        let empty = ColumnIndex::new().to_bytes();
        assert_eq!(empty, [TAG, 0, 0, 0, 0]);
        assert!(ColumnIndex::from_bytes(&empty, &[]).unwrap().is_empty());
    }

    /// Values are written in sorted order whatever order they were
    /// first seen in, so equal indexes always encode to equal bytes.
    #[test]
    fn section_layout_is_pinned() {
        let mut ix = ColumnIndex::new();
        ix.add_group(0, 3, ["b", "a", "b"]);
        let mut want = vec![TAG, 2, 0, 0, 0];
        want.extend([1, 0, 0, 0, b'a', 1, 0, 0, 0]); // "a": 1 posting
        want.extend([0, 0, 0, 0, 3, 0, 0, 0]); // group 0, 3 rows
        want.extend(0b010u64.to_le_bytes());
        want.extend([1, 0, 0, 0, b'b', 1, 0, 0, 0]); // "b": 1 posting
        want.extend([0, 0, 0, 0, 3, 0, 0, 0]);
        want.extend(0b101u64.to_le_bytes());
        assert_eq!(ix.to_bytes(), want);
    }

    type RawPosting<'a> = (u32, u32, &'a [u64]);

    /// A section written field by field, valid or not: the value bytes
    /// and `(group, rows, words)` postings of each entry.
    fn section(entries: &[(&[u8], &[RawPosting])]) -> Vec<u8> {
        let mut out = vec![TAG];
        out.extend((entries.len() as u32).to_le_bytes());
        for (value, postings) in entries {
            out.extend((value.len() as u32).to_le_bytes());
            out.extend_from_slice(value);
            out.extend((postings.len() as u32).to_le_bytes());
            for (group, rows, words) in *postings {
                out.extend(group.to_le_bytes());
                out.extend(rows.to_le_bytes());
                words.iter().for_each(|w| out.extend(w.to_le_bytes()));
            }
        }
        out
    }

    /// Offsets of every `u32` field of a valid section: the entry count,
    /// and each value length, posting count, group and row count.
    fn u32_fields(bytes: &[u8]) -> Vec<usize> {
        let at = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap()) as usize;
        let mut fields = vec![1];
        let mut i = 5;
        for _ in 0..at(1) {
            fields.push(i);
            i += 4 + at(i);
            fields.push(i);
            let postings = at(i);
            i += 4;
            for _ in 0..postings {
                fields.extend([i, i + 4]);
                i += 8 + 8 * at(i + 4).div_ceil(64);
            }
        }
        assert_eq!(i, bytes.len(), "walked the whole section");
        fields
    }

    fn is_corrupt(r: Result<ColumnIndex, StorageError>) -> bool {
        matches!(r, Err(StorageError::Corrupt(_)))
    }

    #[test]
    fn hand_written_section_matches_the_writer() {
        let mut ix = ColumnIndex::new();
        ix.add_group(0, 3, ["b", "a", "b"]);
        let hand = section(&[(b"a", &[(0, 3, &[0b010])]), (b"b", &[(0, 3, &[0b101])])]);
        assert_eq!(hand, ix.to_bytes());
    }

    #[test]
    fn every_truncation_is_rejected() {
        let (ix, group_rows) = awkward_index();
        let bytes = ix.to_bytes();
        for len in 0..bytes.len() {
            assert!(
                is_corrupt(ColumnIndex::from_bytes(&bytes[..len], &group_rows)),
                "prefix {len}"
            );
        }
    }

    /// Every single-bit flip is rejected or decodes to an index that
    /// writes back exactly the flipped bytes (a flip inside a bitmap can
    /// move a row to another row and still be a well-formed section).
    #[test]
    fn every_single_bit_flip_is_rejected_or_round_trips() {
        let (ix, group_rows) = awkward_index();
        let bytes = ix.to_bytes();
        let mut accepted = 0;
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                match ColumnIndex::from_bytes(&flipped, &group_rows) {
                    Ok(back) => {
                        assert_eq!(back.to_bytes(), flipped, "flip at {at}.{bit}");
                        accepted += 1;
                    }
                    Err(e) => assert!(matches!(e, StorageError::Corrupt(_))),
                }
            }
        }
        // Only bitmap bits can flip into another valid section.
        assert!(accepted < bytes.len() * 8 / 2, "{accepted} flips accepted");
    }

    #[test]
    fn inflated_length_fields_are_rejected_before_allocating() {
        let (ix, group_rows) = awkward_index();
        let bytes = ix.to_bytes();
        let fields = u32_fields(&bytes);
        // The entry count, 4 × (length, posting count), 13 × (group, rows).
        assert_eq!(fields.len(), 1 + 4 * 2 + 13 * 2);
        for at in fields {
            for forged in [u32::MAX, u32::MAX / 2, 1 << 20] {
                let mut bad = bytes.clone();
                bad[at..at + 4].copy_from_slice(&forged.to_le_bytes());
                // A count this large would abort on allocation if it
                // were trusted; returning at all is the assertion.
                assert!(
                    is_corrupt(ColumnIndex::from_bytes(&bad, &group_rows)),
                    "field at {at} = {forged}"
                );
            }
        }
    }

    #[test]
    fn non_canonical_sections_are_rejected() {
        let group_rows = [3, 3, 70];
        let ok: &[RawPosting] = &[(0, 3, &[0b001])];
        let valid = section(&[
            (b"a", ok),
            (b"b", &[(0, 3, &[0b110]), (2, 70, &[1, 1 << 5])]),
        ]);
        assert!(ColumnIndex::from_bytes(&valid, &group_rows).is_ok());
        let mut trailing = valid.clone();
        trailing.push(0);
        let mut unknown_tag = valid.clone();
        unknown_tag[0] = 0x02;
        let bad: [(&str, Vec<u8>); 18] = [
            ("empty input", Vec::new()),
            ("unknown tag", unknown_tag),
            ("trailing bytes", trailing),
            ("JSON section", br#"{"entries":[]}"#.to_vec()),
            ("values out of order", section(&[(b"b", ok), (b"a", ok)])),
            ("duplicate value", section(&[(b"a", ok), (b"a", ok)])),
            ("value not UTF-8", section(&[(b"\xff", ok)])),
            ("entry without postings", section(&[(b"a", &[])])),
            (
                "groups out of order",
                section(&[(b"a", &[(1, 3, &[1]), (0, 3, &[1])])]),
            ),
            (
                "duplicate group",
                section(&[(b"a", &[(0, 3, &[1]), (0, 3, &[2])])]),
            ),
            ("group past the file", section(&[(b"a", &[(3, 3, &[1])])])),
            (
                "bitmap shorter than its group",
                section(&[(b"a", &[(0, 2, &[1])])]),
            ),
            (
                "bitmap longer than its group",
                section(&[(b"a", &[(0, 4, &[1])])]),
            ),
            (
                "bitmap of another group's rows",
                section(&[(b"a", &[(0, 70, &[1, 1])])]),
            ),
            (
                "bit past the rows",
                section(&[(b"a", &[(0, 3, &[0b1001])])]),
            ),
            (
                "bit past the rows, second word",
                section(&[(b"a", &[(2, 70, &[1, 1 << 6])])]),
            ),
            ("empty posting", section(&[(b"a", &[(0, 3, &[0])])])),
            ("missing bitmap word", section(&[(b"a", &[(2, 70, &[1])])])),
        ];
        for (what, bytes) in bad {
            assert!(
                is_corrupt(ColumnIndex::from_bytes(&bytes, &group_rows)),
                "{what}"
            );
        }
    }

    proptest::proptest! {
        /// Any index the writer can build decodes to itself and writes
        /// back the same bytes.
        #[test]
        fn any_written_index_round_trips(
            group_rows in proptest::collection::vec(1usize..150, 1..6),
            picks in proptest::collection::vec(0usize..5, 1..64),
        ) {
            const VALUES: [&str; 5] = ["", "a", "ab", "é", "z\u{1f}y"];
            let mut ix = ColumnIndex::new();
            for (g, &rows) in group_rows.iter().enumerate() {
                let values = (0..rows).map(|r| VALUES[picks[(r * 7 + g) % picks.len()]]);
                ix.add_group(g, rows, values);
            }
            let bytes = ix.to_bytes();
            let back = ColumnIndex::from_bytes(&bytes, &group_rows).unwrap();
            proptest::prop_assert_eq!(&back, &ix);
            proptest::prop_assert_eq!(back.to_bytes(), bytes);
        }

        /// Garbage behind a valid tag is rejected or round-trips.
        #[test]
        fn garbage_is_rejected_or_round_trips(
            tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
        ) {
            let mut bytes = vec![TAG];
            bytes.extend_from_slice(&tail);
            if let Ok(ix) = ColumnIndex::from_bytes(&bytes, &[64, 1, 200]) {
                proptest::prop_assert_eq!(ix.to_bytes(), bytes);
            }
        }
    }
}
