//! Typed fixed-width group/join keys and the one table that numbers
//! them.
//!
//! Group-by, pivot, and the hash joins used to key rows by rendering
//! every key column to text and concatenating the pieces — one `String`
//! allocation plus several `to_string` calls per row. A [`RowKey`] is
//! the same identity as raw `u64` words: `i64` bits, `f64` bits
//! (`to_bits`, so NaN patterns group deterministically), and dictionary
//! codes for categorical columns. Keys of up to three columns are
//! stored inline; wider keys spill to one boxed slice.
//!
//! [`GroupTable`] maps keys to dense group ids in first-occurrence
//! order. Every grouping operator (`ops::group_by`, `ops::pivot`,
//! `ops::join_inner`) assigns ids through it, except that
//! [`KeyCols::group_ids`] first tries a direct-indexed path: when every
//! key column is an integer or categorical column whose value span is
//! small, each row maps to a slot in a plain array and no key is hashed.

use crate::frame::Frame;
use oda_storage::colfile::ColumnData;
use oda_storage::intern::StringInterner;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

/// One row's group/join identity: a fixed-width sequence of `u64`
/// words, one per key column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RowKey {
    /// Single-column key.
    One(u64),
    /// Two-column key.
    Two([u64; 2]),
    /// Three-column key (window, node, sensor — the Silver group-by).
    Three([u64; 3]),
    /// Wider keys.
    Many(Box<[u64]>),
}

impl RowKey {
    /// The key's words, one per key column.
    pub(crate) fn words(&self) -> &[u64] {
        match self {
            RowKey::One(w) => std::slice::from_ref(w),
            RowKey::Two(ws) => ws,
            RowKey::Three(ws) => ws,
            RowKey::Many(ws) => ws,
        }
    }
}

impl Hash for RowKey {
    /// One `write_u64` per word. Keys in one table all have the same
    /// width, so neither the variant nor (inline) the length is hashed.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        if let RowKey::Many(ws) = self {
            state.write_usize(ws.len());
        }
        for &w in self.words() {
            state.write_u64(w);
        }
    }
}

/// Odd 64-bit multiplier (2⁶⁴ / φ).
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-mix hasher: per word, one 64×64→128-bit multiply whose
/// halves are folded together, so high input bits reach the low hash
/// bits the table indexes by (a plain Fx multiply keeps keys that
/// differ only in high bits in one bucket). About a third of SipHash's
/// cost per key.
#[derive(Clone, Copy)]
struct MixHasher(u64);

impl Hasher for MixHasher {
    #[inline]
    fn write_u64(&mut self, w: u64) {
        let m = u128::from(self.0 ^ w) * u128::from(MIX);
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`MixHasher`] factory with a per-table random seed, so colliding
/// keys cannot be precomputed offline.
#[derive(Clone, Copy)]
struct MixState(u64);

impl BuildHasher for MixState {
    type Hasher = MixHasher;

    #[inline]
    fn build_hasher(&self) -> MixHasher {
        MixHasher(self.0)
    }
}

/// Dense group ids for [`RowKey`]s, assigned in first-occurrence order.
///
/// Ids depend only on the order keys arrive in, never on the hash, so
/// every output built from them is independent of the hasher and its
/// seed. The table is never iterated. Colliding keys — crafted ones
/// included — share probe chains and cost time, but a lookup still
/// compares whole keys, so they can slow a query down and never change
/// its answer.
pub(crate) struct GroupTable {
    ids: HashMap<RowKey, usize, MixState>,
}

impl GroupTable {
    /// An empty table.
    pub(crate) fn new() -> GroupTable {
        let seed = RandomState::new().hash_one(0u64);
        GroupTable {
            ids: HashMap::with_hasher(MixState(seed)),
        }
    }

    /// The id of `key`, and whether this is its first occurrence (the
    /// id is then the number of keys seen before it).
    #[inline]
    pub(crate) fn insert(&mut self, key: RowKey) -> (usize, bool) {
        let next = self.ids.len();
        match self.ids.entry(key) {
            Entry::Occupied(e) => (*e.get(), false),
            Entry::Vacant(e) => (*e.insert(next), true),
        }
    }

    /// The id of `key`, if it has occurred.
    #[inline]
    pub(crate) fn get(&self, key: &RowKey) -> Option<usize> {
        self.ids.get(key).copied()
    }

    /// Number rows `0..rows` of `keys` in row order: each row's group id
    /// and each group's first row.
    pub(crate) fn assign(&mut self, keys: &KeyCols, rows: usize) -> (Vec<usize>, Vec<usize>) {
        let mut row_group = Vec::with_capacity(rows);
        let mut first_rows = Vec::new();
        for row in 0..rows {
            let (g, new) = self.insert(keys.key(row));
            if new {
                first_rows.push(row);
            }
            row_group.push(g);
        }
        (row_group, first_rows)
    }
}

/// Per-column key material. Numeric columns are borrowed directly;
/// categorical columns contribute dictionary codes — borrowed for
/// `Dict` columns, interned in one pass for `Str` columns.
enum KeyPart<'a> {
    I64(&'a [i64]),
    F64(&'a [f64]),
    Codes(&'a [u32]),
    Owned(Vec<u32>),
}

impl KeyPart<'_> {
    #[inline]
    fn word(&self, row: usize) -> u64 {
        match self {
            KeyPart::I64(v) => v[row] as u64,
            KeyPart::F64(v) => v[row].to_bits(),
            KeyPart::Codes(v) => u64::from(v[row]),
            KeyPart::Owned(v) => u64::from(v[row]),
        }
    }
}

/// Key extractor over a fixed set of key columns.
pub(crate) struct KeyCols<'a> {
    parts: Vec<KeyPart<'a>>,
}

impl<'a> KeyCols<'a> {
    /// Keys over one frame's columns (group-by / pivot). Each `Str`
    /// column is interned once up front; every other type is borrowed.
    pub(crate) fn of(frame: &'a Frame, cols: &[usize]) -> KeyCols<'a> {
        let parts = cols
            .iter()
            .map(|&c| match frame.column_at(c) {
                ColumnData::I64(v) => KeyPart::I64(v),
                ColumnData::F64(v) => KeyPart::F64(v),
                ColumnData::Dict { codes, .. } => KeyPart::Codes(codes),
                ColumnData::Str(v) => {
                    let mut interner = StringInterner::new();
                    KeyPart::Owned(v.iter().map(|s| interner.intern(s)).collect())
                }
            })
            .collect();
        KeyCols { parts }
    }

    /// The key of `row`.
    #[inline]
    pub(crate) fn key(&self, row: usize) -> RowKey {
        match self.parts.as_slice() {
            [a] => RowKey::One(a.word(row)),
            [a, b] => RowKey::Two([a.word(row), b.word(row)]),
            [a, b, c] => RowKey::Three([a.word(row), b.word(row), c.word(row)]),
            parts => RowKey::Many(parts.iter().map(|p| p.word(row)).collect()),
        }
    }

    /// Number rows `0..rows` in row order — each row's group id and each
    /// group's first row — exactly as [`GroupTable::assign`] does, taking
    /// the direct-indexed path ([`dense_ids`]) when the key space allows.
    pub(crate) fn group_ids(&self, rows: usize) -> (Vec<usize>, Vec<usize>) {
        dense_ids(self, rows).unwrap_or_else(|| GroupTable::new().assign(self, rows))
    }
}

/// Most slots the direct-indexed path allocates per input row.
const DENSE_SLOTS_PER_ROW: u64 = 4;

/// One key column mapped onto `0..card`.
enum DenseCol<'a> {
    /// `(v - min) / step`; every value is `min` plus a multiple of `step`.
    I64 {
        vals: &'a [i64],
        min: i64,
        step: u64,
    },
    /// Categorical codes, used as they are.
    Codes(&'a [u32]),
}

/// Min, the gcd of the differences between consecutive distinct values,
/// and the number of steps the range spans; `None` when `max − min`
/// overflows an `i64`. One pass; equal neighbours skip all the
/// arithmetic.
fn i64_span(vals: &[i64]) -> Option<(i64, u64, u64)> {
    let (&first, rest) = vals.split_first()?;
    let (mut lo, mut hi, mut prev, mut step) = (first, first, first, 0u64);
    for &v in rest {
        if v != prev {
            lo = lo.min(v);
            hi = hi.max(v);
            if step != 1 {
                step = gcd(step, v.abs_diff(prev));
            }
            prev = v;
        }
    }
    let step = step.max(1);
    Some((lo, step, hi.checked_sub(lo)? as u64 / step + 1))
}

/// Binary gcd: shifts and subtractions, no division.
fn gcd(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Direct-indexed group ids: `Some` with exactly what
/// [`GroupTable::assign`] returns, or `None` when the key space is not
/// small enough.
///
/// Each key column gets a cardinality — the largest code + 1 for
/// categorical columns, `(max − min) / step + 1` for `I64` columns — and
/// a row's slot is the mixed-radix number of its per-column indexes, so
/// distinct keys get distinct slots. Ids are handed out from the slots in
/// first-occurrence order, which makes them identical to the table's.
/// Falls back (`None`) on any `F64` column, a range that overflows, or a
/// slot count above [`DENSE_SLOTS_PER_ROW`] × `rows` or `u32::MAX`.
pub(crate) fn dense_ids(keys: &KeyCols, rows: usize) -> Option<(Vec<usize>, Vec<usize>)> {
    if rows == 0 {
        return Some((Vec::new(), Vec::new()));
    }
    let cap = (rows as u64)
        .saturating_mul(DENSE_SLOTS_PER_ROW)
        .min(u64::from(u32::MAX) - 1);
    let mut cols = Vec::with_capacity(keys.parts.len());
    let mut slots = 1u64;
    for part in &keys.parts {
        let (col, card) = match part {
            KeyPart::F64(_) => return None,
            KeyPart::I64(v) => {
                let vals = &v[..rows];
                let (min, step, card) = i64_span(vals)?;
                (DenseCol::I64 { vals, min, step }, card)
            }
            KeyPart::Codes(c) => (DenseCol::Codes(&c[..rows]), codes_card(&c[..rows])),
            KeyPart::Owned(c) => (DenseCol::Codes(&c[..rows]), codes_card(&c[..rows])),
        };
        slots = slots.checked_mul(card).filter(|&s| s <= cap)?;
        cols.push((col, card as usize));
    }

    // Each row's slot, one column at a time.
    let mut row_group = vec![0usize; rows];
    let mut stride = 1usize;
    for (col, card) in &cols {
        match *col {
            DenseCol::I64 { vals, min, step: 1 } => {
                for (s, &v) in row_group.iter_mut().zip(vals) {
                    *s += (v - min) as usize * stride;
                }
            }
            DenseCol::I64 { vals, min, step } => {
                // Divide only when the value changes.
                let mut prev = min;
                let mut add = 0usize;
                for (s, &v) in row_group.iter_mut().zip(vals) {
                    if v != prev {
                        prev = v;
                        add = ((v - min) as u64 / step) as usize * stride;
                    }
                    *s += add;
                }
            }
            DenseCol::Codes(codes) => {
                for (s, &c) in row_group.iter_mut().zip(codes) {
                    *s += c as usize * stride;
                }
            }
        }
        stride *= card;
    }

    // Slots to ids in first-occurrence order.
    let mut id_of_slot = vec![u32::MAX; slots as usize];
    let mut first_rows = Vec::new();
    for (row, s) in row_group.iter_mut().enumerate() {
        let id = &mut id_of_slot[*s];
        if *id == u32::MAX {
            *id = first_rows.len() as u32;
            first_rows.push(row);
        }
        *s = *id as usize;
    }
    Some((row_group, first_rows))
}

/// Cardinality of a code column: its largest code + 1 (at most the
/// dictionary length).
fn codes_card(codes: &[u32]) -> u64 {
    codes.iter().max().map_or(1, |&m| u64::from(m) + 1)
}

/// Key extractors for a hash join: the two sides must agree on what a
/// word means, so categorical join columns share one interner per
/// column pair, and mismatched-type pairs fall back to interning the
/// legacy textual rendering (preserving the old string-key semantics).
pub(crate) fn join_keys<'a>(
    left: &'a Frame,
    l_cols: &[usize],
    right: &'a Frame,
    r_cols: &[usize],
) -> (KeyCols<'a>, KeyCols<'a>) {
    let mut l_parts = Vec::with_capacity(l_cols.len());
    let mut r_parts = Vec::with_capacity(r_cols.len());
    for (&lc, &rc) in l_cols.iter().zip(r_cols) {
        let (lp, rp) = match (left.column_at(lc), right.column_at(rc)) {
            (ColumnData::I64(a), ColumnData::I64(b)) => (KeyPart::I64(a), KeyPart::I64(b)),
            (ColumnData::F64(a), ColumnData::F64(b)) => (KeyPart::F64(a), KeyPart::F64(b)),
            (a, b) if is_str_like(a) && is_str_like(b) => {
                let mut shared = StringInterner::new();
                (shared_codes(a, &mut shared), shared_codes(b, &mut shared))
            }
            (a, b) => {
                let mut shared = StringInterner::new();
                (
                    rendered_codes(a, &mut shared),
                    rendered_codes(b, &mut shared),
                )
            }
        };
        l_parts.push(lp);
        r_parts.push(rp);
    }
    (KeyCols { parts: l_parts }, KeyCols { parts: r_parts })
}

fn is_str_like(col: &ColumnData) -> bool {
    matches!(col, ColumnData::Str(_) | ColumnData::Dict { .. })
}

/// Codes for a categorical column through a shared interner. A `Dict`
/// column remaps its dictionary once (`dict.len()` hashes) instead of
/// hashing per row.
fn shared_codes<'a>(col: &ColumnData, shared: &mut StringInterner) -> KeyPart<'a> {
    match col {
        ColumnData::Str(v) => KeyPart::Owned(v.iter().map(|s| shared.intern(s)).collect()),
        ColumnData::Dict { dict, codes } => {
            let remap: Vec<u32> = dict.iter().map(|e| shared.intern(e)).collect();
            KeyPart::Owned(codes.iter().map(|&c| remap[c as usize]).collect())
        }
        _ => unreachable!("shared_codes is only called for string-like columns"),
    }
}

/// Legacy textual identity for mixed-type join keys: i64 as decimal,
/// f64 as decimal bits, strings verbatim — exactly what the old
/// concatenated string keys compared.
fn rendered_codes<'a>(col: &ColumnData, shared: &mut StringInterner) -> KeyPart<'a> {
    let codes = match col {
        ColumnData::I64(v) => v.iter().map(|x| shared.intern(&x.to_string())).collect(),
        ColumnData::F64(v) => v
            .iter()
            .map(|x| shared.intern(&x.to_bits().to_string()))
            .collect(),
        ColumnData::Str(v) => v.iter().map(|s| shared.intern(s)).collect(),
        ColumnData::Dict { dict, codes } => {
            let remap: Vec<u32> = dict.iter().map(|e| shared.intern(e)).collect();
            codes.iter().map(|&c| remap[c as usize]).collect()
        }
    };
    KeyPart::Owned(codes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn frame() -> Frame {
        Frame::new(vec![
            ("i".into(), ColumnData::I64(vec![1, 1, 2, 2].into())),
            (
                "f".into(),
                ColumnData::F64(vec![0.5, f64::NAN, 0.5, f64::NAN].into()),
            ),
            (
                "s".into(),
                ColumnData::Str(vec!["a".into(), "a".into(), "b".into(), "a".into()].into()),
            ),
            (
                "d".into(),
                ColumnData::dict(vec!["x".into(), "y".into()], vec![0, 1, 0, 1]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn keys_distinguish_rows_per_column_type() {
        let f = frame();
        for col in 0..4 {
            let kc = KeyCols::of(&f, &[col]);
            let keys: Vec<RowKey> = (0..4).map(|r| kc.key(r)).collect();
            // Column-specific expected group structure.
            let expected: Vec<Vec<usize>> = match col {
                0 => vec![vec![0, 1], vec![2, 3]],
                1 => vec![vec![0, 2], vec![1, 3]], // NaN groups with NaN
                2 => vec![vec![0, 1, 3], vec![2]],
                _ => vec![vec![0, 2], vec![1, 3]],
            };
            for group in expected {
                let first = &keys[group[0]];
                for &r in &group {
                    assert_eq!(&keys[r], first, "col {col}: rows must share a key");
                }
                for (r, key) in keys.iter().enumerate() {
                    if !group.contains(&r) {
                        assert_ne!(key, first, "col {col}: row {r} must differ");
                    }
                }
            }
        }
    }

    #[test]
    fn nan_rows_group_deterministically() {
        // The regression the RowKey change must preserve: grouping by an
        // f64 column with NaN entries (Missing-quality fills) puts all
        // same-bit NaNs in one stable group instead of one group per row.
        let f = Frame::new(vec![(
            "v".into(),
            ColumnData::F64(vec![f64::NAN, 1.0, f64::NAN, 1.0, f64::NAN].into()),
        )])
        .unwrap();
        let kc = KeyCols::of(&f, &[0]);
        let distinct: HashSet<RowKey> = (0..5).map(|r| kc.key(r)).collect();
        assert_eq!(
            distinct.len(),
            2,
            "NaN must be a single deterministic group"
        );
        assert_eq!(kc.key(0), kc.key(2));
        assert_eq!(kc.key(0), kc.key(4));
        assert_ne!(kc.key(0), kc.key(1));
    }

    #[test]
    fn join_keys_agree_across_representations() {
        // Left stores the key as Str, right as Dict with a different
        // code layout: equal strings must produce equal keys.
        let left = Frame::new(vec![(
            "k".into(),
            ColumnData::Str(vec!["b".into(), "a".into(), "c".into()].into()),
        )])
        .unwrap();
        let right = Frame::new(vec![(
            "k".into(),
            ColumnData::dict(vec!["a".into(), "b".into()], vec![0, 1]),
        )])
        .unwrap();
        let (lk, rk) = join_keys(&left, &[0], &right, &[0]);
        assert_eq!(lk.key(0), rk.key(1), "b == b");
        assert_eq!(lk.key(1), rk.key(0), "a == a");
        assert_ne!(lk.key(2), rk.key(0));
        assert_ne!(lk.key(2), rk.key(1));
    }

    #[test]
    fn group_ids_follow_first_occurrence() {
        let mut table = GroupTable::new();
        let ids: Vec<(usize, bool)> = [7u64, 3, 7, 9, 3, 0]
            .iter()
            .map(|&w| table.insert(RowKey::One(w)))
            .collect();
        assert_eq!(
            ids,
            [
                (0, true),
                (1, true),
                (0, false),
                (2, true),
                (1, false),
                (3, true)
            ]
        );
        assert_eq!(table.get(&RowKey::One(9)), Some(2));
        assert_eq!(table.get(&RowKey::One(8)), None);

        let f = frame();
        let (row_group, first_rows) = GroupTable::new().assign(&KeyCols::of(&f, &[2]), f.rows());
        assert_eq!(row_group, [0, 0, 1, 0]);
        assert_eq!(first_rows, [0, 2]);
    }

    /// Distinct bit patterns are distinct groups, exactly as `RowKey`
    /// compares them: high-bit-only differences (which a bare multiply
    /// hash keeps in one bucket), signed zeros, and NaN payloads.
    #[test]
    fn group_ids_separate_every_bit_pattern() {
        let quiet = f64::NAN.to_bits();
        let words = [
            0,
            1 << 62,
            1 << 61,
            (1 << 62) | (1 << 61),
            0.0f64.to_bits(),
            (-0.0f64).to_bits(),
            quiet,
            quiet | 1,
            quiet | (1 << 63),
        ];
        let mut table = GroupTable::new();
        let ids: Vec<usize> = words
            .iter()
            .map(|&w| table.insert(RowKey::One(w)).0)
            .collect();
        // `0` and `0.0.to_bits()` are the same word; every other differs.
        assert_eq!(ids, [0, 1, 2, 3, 0, 4, 5, 6, 7]);

        let mut highs = GroupTable::new();
        for i in 0..1_000u64 {
            assert_eq!(highs.insert(RowKey::One(i << 40)), (i as usize, true));
        }
        for i in 0..1_000u64 {
            assert_eq!(highs.get(&RowKey::One(i << 40)), Some(i as usize));
        }
    }

    #[test]
    fn wide_keys_round_trip_through_the_group_table() {
        let f = frame();
        let kc = KeyCols::of(&f, &[0, 1, 2, 3]);
        let mut table = GroupTable::new();
        let ids: Vec<usize> = (0..f.rows()).map(|r| table.insert(kc.key(r)).0).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        for r in 0..f.rows() {
            let key = kc.key(r);
            assert!(matches!(key, RowKey::Many(_)));
            assert_eq!(table.get(&key), Some(r));
        }
        // A prefix of a wide key is a different key.
        assert_eq!(table.get(&RowKey::Three([1, 0.5f64.to_bits(), 0])), None);
    }

    #[test]
    fn wide_keys_spill_to_many() {
        let f = frame();
        let kc = KeyCols::of(&f, &[0, 1, 2, 3]);
        assert!(matches!(kc.key(0), RowKey::Many(_)));
        assert_eq!(kc.key(0), kc.key(0));
        assert_ne!(kc.key(0), kc.key(1));
    }

    /// The dense ids of every key column of `f`, checked against the
    /// table's; `true` when the dense path was taken.
    fn dense_matches_table(f: &Frame) -> bool {
        let cols: Vec<usize> = (0..f.names().len()).collect();
        let kc = KeyCols::of(f, &cols);
        let table = GroupTable::new().assign(&kc, f.rows());
        match dense_ids(&kc, f.rows()) {
            Some(dense) => {
                assert_eq!(dense, table);
                true
            }
            None => false,
        }
    }

    /// The Silver group-by key: 4 windows 15 000 ms apart × 512 nodes ×
    /// 21 sensor codes, every row once. Without the gcd step the window
    /// alone would span 45 001 values and the product would blow the cap.
    #[test]
    fn silver_key_shape_takes_the_dense_path() {
        let sensors: Vec<String> = (0..21).map(|s| format!("s{s}")).collect();
        let (mut window, mut node, mut sensor) = (Vec::new(), Vec::new(), Vec::new());
        for w in 0..4i64 {
            for n in 0..512i64 {
                for s in 0..21u32 {
                    window.push(1_700_000_010_000 + w * 15_000);
                    node.push(n);
                    sensor.push((s * 5 + n as u32) % 21);
                }
            }
        }
        let f = Frame::new(vec![
            ("window".into(), ColumnData::I64(window.into())),
            ("node".into(), ColumnData::I64(node.into())),
            ("sensor".into(), ColumnData::dict(sensors, sensor)),
        ])
        .unwrap();
        assert!(dense_matches_table(&f), "the Silver key must not fall back");
        let (ids, firsts) = KeyCols::of(&f, &[0, 1, 2]).group_ids(f.rows());
        assert_eq!(firsts.len(), 4 * 512 * 21);
        assert_eq!(ids, (0..f.rows()).collect::<Vec<_>>());
    }

    #[test]
    fn key_space_over_the_cap_falls_back() {
        // Two columns of 30 values each: 900 slots for 200 rows > 4 × 200.
        let a: Vec<i64> = (0..200).map(|i| i % 30).collect();
        let b: Vec<i64> = (0..200).map(|i| (i * 7) % 30).collect();
        let f = Frame::new(vec![
            ("a".into(), ColumnData::I64(a.into())),
            ("b".into(), ColumnData::I64(b.into())),
        ])
        .unwrap();
        assert!(!dense_matches_table(&f));
        // One column of 30 values over the same rows is well inside it.
        assert!(dense_matches_table(&f.select(&["a"]).unwrap()));
    }

    #[test]
    fn extreme_and_float_keys_fall_back() {
        let f = Frame::new(vec![(
            "i".into(),
            ColumnData::I64(vec![i64::MIN, i64::MAX, 0, i64::MIN].into()),
        )])
        .unwrap();
        assert!(!dense_matches_table(&f), "a full-width range must not wrap");
        let f = Frame::new(vec![("f".into(), ColumnData::F64(vec![1.0, 1.0].into()))]).unwrap();
        assert!(!dense_matches_table(&f));
    }

    #[test]
    fn gcd_matches_euclid() {
        fn euclid(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                euclid(b, a % b)
            }
        }
        for a in [
            0u64,
            1,
            2,
            6,
            15_000,
            45_000,
            1 << 40,
            u64::MAX,
            u64::MAX - 1,
        ] {
            for b in [0u64, 1, 3, 4, 30_000, 1 << 63, u64::MAX] {
                assert_eq!(gcd(a, b), euclid(a, b), "gcd({a}, {b})");
            }
        }
    }

    /// One generated key column.
    #[derive(Debug, Clone)]
    enum GenCol {
        /// `base + step × k` for each `k`.
        Stepped(i64, i64, Vec<u8>),
        /// Values drawn from the two extremes and around zero; a range wider
        /// than `i64::MAX` must fall back.
        Extremes(Vec<u8>),
        /// Dictionary codes below `len`.
        Dict(u32, Vec<u8>),
        /// Strings drawn from a small vocabulary.
        Str(Vec<u8>),
        /// Floats drawn from a small set.
        F64(Vec<u8>),
    }

    impl GenCol {
        fn column(&self, rows: usize) -> ColumnData {
            let picks = |p: &[u8]| -> Vec<u8> { (0..rows).map(|r| p[r % p.len()]).collect() };
            match self {
                GenCol::Stepped(base, step, p) => ColumnData::I64(
                    picks(p)
                        .iter()
                        .map(|&k| base + step * i64::from(k % 12))
                        .collect(),
                ),
                GenCol::Extremes(p) => ColumnData::I64(
                    picks(p)
                        .iter()
                        .map(|&k| [i64::MIN, i64::MAX, -1, 0, 1][usize::from(k % 5)])
                        .collect(),
                ),
                GenCol::Dict(len, p) => ColumnData::dict(
                    (0..*len).map(|e| format!("e{e}")).collect(),
                    picks(p).iter().map(|&k| u32::from(k) % len).collect(),
                ),
                GenCol::Str(p) => ColumnData::Str(
                    picks(p)
                        .iter()
                        .map(|&k| format!("v{}", k % 7))
                        .collect::<Vec<_>>()
                        .into(),
                ),
                GenCol::F64(p) => {
                    ColumnData::F64(picks(p).iter().map(|&k| f64::from(k % 3) * 0.5).collect())
                }
            }
        }

        fn may_be_dense(&self, rows: usize) -> bool {
            match self {
                GenCol::F64(_) => rows == 0,
                GenCol::Extremes(_) => {
                    let ColumnData::I64(v) = self.column(rows) else {
                        unreachable!()
                    };
                    let (lo, hi) = (v.iter().min(), v.iter().max());
                    lo.zip(hi)
                        .is_none_or(|(lo, hi)| hi.checked_sub(*lo).is_some())
                }
                _ => true,
            }
        }
    }

    /// A column of a kind picked by a selector byte (the offline
    /// proptest has no `prop_oneof`).
    fn gen_col() -> impl Strategy<Value = GenCol> {
        (
            0u8..5,
            -1_000_000_000_000i64..1_000_000_000_000,
            -50_000i64..50_000,
            1u32..40,
            proptest::collection::vec(any::<u8>(), 1..40),
        )
            .prop_map(|(kind, base, step, len, p)| match kind {
                0 => GenCol::Stepped(base, step, p),
                1 => GenCol::Extremes(p),
                2 => GenCol::Dict(len, p),
                3 => GenCol::Str(p),
                _ => GenCol::F64(p),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whenever the dense path is taken its ids and first rows are the
        /// table's; float keys and full-width ranges always fall back.
        #[test]
        fn dense_ids_equal_group_table(
            cols in proptest::collection::vec(gen_col(), 1..=4),
            rows in (0u8..4, 2usize..400).prop_map(|(k, n)| [0, 1, n, n][usize::from(k)]),
        ) {
            let f = Frame::new(
                cols.iter()
                    .enumerate()
                    .map(|(i, c)| (format!("k{i}"), c.column(rows)))
                    .collect(),
            )
            .unwrap();
            let dense = dense_matches_table(&f);
            if cols.iter().any(|c| !c.may_be_dense(rows)) {
                prop_assert!(!dense, "{:?} must fall back", cols);
            }
        }
    }
}
