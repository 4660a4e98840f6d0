//! Versioned keyed state for streaming aggregations.
//!
//! Streaming Bronze→Silver keeps per-(window, key) accumulators between
//! micro-batches; the state store snapshots to bytes so checkpoints can
//! persist it and recovery can restore it bit-for-bit.
//!
//! Keys are strings, but only at the edges: [`StateStore::key_id`]
//! interns each distinct key once into a dense [`KeyId`], and cells live
//! in key-id-indexed storage, so folding an observation through
//! [`StateStore::cell_at`] neither allocates, hashes, nor compares
//! strings. Snapshots are a versioned binary layout (see
//! [`StateStore::snapshot`]).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Accumulator for one (window, key) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellState {
    /// Sum of non-NaN values.
    pub sum: f64,
    /// Count of non-NaN values.
    pub count: u64,
    /// Minimum non-NaN value (infinity when empty).
    pub min: f64,
    /// Maximum non-NaN value (-infinity when empty).
    pub max: f64,
}

impl Default for CellState {
    /// Empty accumulator (min/max at the identity sentinels).
    fn default() -> CellState {
        CellState {
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl CellState {
    /// Fresh accumulator.
    pub fn new() -> CellState {
        CellState::default()
    }

    /// Fold one value (NaN ignored).
    pub fn push(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.sum += v;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean of folded values (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Merge another accumulator in.
    pub fn merge(&mut self, other: &CellState) {
        self.sum += other.sum;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Dense id of an interned state key. Ids count up from zero in
/// first-intern order and are meaningful only to the store that issued
/// them (or to a store restored from that store's snapshot, which
/// reproduces the numbering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyId(u32);

impl KeyId {
    /// Position of this key in id-indexed tables.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Keyed state: `(window_start, key) -> CellState` plus arbitrary
/// counters.
///
/// Every field is a pure function of the operation history (which keys
/// were interned in which order, which cells hold what), never of
/// timing or hashing order, so equal histories give equal stores and
/// equal snapshot bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateStore {
    /// `KeyId` -> key, in first-intern order.
    names: Vec<Arc<str>>,
    /// key -> `KeyId` (sharing the allocation in `names`).
    ids: HashMap<Arc<str>, KeyId>,
    /// Every key id, sorted by key bytes: the emission order within a
    /// window.
    order: Vec<KeyId>,
    /// `KeyId` -> that key's open windows, ascending by window start.
    cells: Vec<Vec<(i64, CellState)>>,
    /// Open window start -> live cells in it.
    windows: BTreeMap<i64, usize>,
    /// Free-form named counters (rows seen, windows emitted, ...).
    counters: BTreeMap<String, u64>,
}

const MAGIC: &[u8; 4] = b"ODAS";
const VERSION: u32 = 1;
/// Encoded size of one cell: window, key id, sum, count, min, max.
const CELL_BYTES: usize = 8 + 4 + 8 + 8 + 8 + 8;

impl StateStore {
    /// Empty store.
    pub fn new() -> StateStore {
        StateStore::default()
    }

    /// Intern `key`, returning its dense id (stable for the life of the
    /// store and across snapshot/restore).
    pub fn key_id(&mut self, key: &str) -> KeyId {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = KeyId(u32::try_from(self.names.len()).expect("fewer than 2^32 state keys"));
        let at = self
            .order
            .partition_point(|k| *self.names[k.index()] < *key);
        self.order.insert(at, id);
        let key: Arc<str> = key.into();
        self.names.push(Arc::clone(&key));
        self.ids.insert(key, id);
        self.cells.push(Vec::new());
        id
    }

    /// The key `id` was interned from (`None` for an id this store
    /// never issued). The allocation is the store's own for as long as
    /// it lives, so a caller caching per-key work can hold a clone and
    /// later ask, by pointer, whether `id` still means that key here.
    pub fn key_name(&self, id: KeyId) -> Option<&Arc<str>> {
        self.names.get(id.index())
    }

    /// Mutable accumulator for a (window, key id) cell: the per-row
    /// path. Indexes by id and searches that key's few open windows —
    /// no allocation unless the cell is new.
    pub fn cell_at(&mut self, window: i64, key: KeyId) -> &mut CellState {
        let open = &mut self.cells[key.index()];
        let at = match open.binary_search_by_key(&window, |&(w, _)| w) {
            Ok(at) => at,
            Err(at) => {
                open.insert(at, (window, CellState::new()));
                *self.windows.entry(window).or_insert(0) += 1;
                at
            }
        };
        &mut open[at].1
    }

    /// Mutable accumulator for a (window, key) cell.
    pub fn cell(&mut self, window: i64, key: &str) -> &mut CellState {
        let id = self.key_id(key);
        self.cell_at(window, id)
    }

    /// Read-only view of a cell.
    pub fn get_cell(&self, window: i64, key: &str) -> Option<&CellState> {
        let open = &self.cells[self.ids.get(key)?.index()];
        let at = open.binary_search_by_key(&window, |&(w, _)| w).ok()?;
        Some(&open[at].1)
    }

    /// Remove and return every cell with `window < horizon` (windows the
    /// watermark has closed), ordered by window and then by key bytes.
    pub fn drain_closed(&mut self, horizon: i64) -> Vec<(i64, KeyId, CellState)> {
        let open = self.windows.split_off(&horizon);
        let closed = std::mem::replace(&mut self.windows, open);
        if closed.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(closed.values().sum());
        for &id in &self.order {
            let open = &mut self.cells[id.index()];
            let n = open.partition_point(|&(w, _)| w < horizon);
            out.extend(open.drain(..n).map(|(w, cell)| (w, id, cell)));
        }
        // Stable: rows were produced in key order, so each window keeps it.
        out.sort_by_key(|&(w, _, _)| w);
        out
    }

    /// Increment a named counter.
    pub fn bump(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Read a named counter.
    pub fn counter(&self, name: &str) -> u64 {
        *self.counters.get(name).unwrap_or(&0)
    }

    /// Counters whose name starts with `prefix`, in name order (used by
    /// gap-aware Silver to keep a roster of seen sensor keys).
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        self.counters
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    }

    /// Number of live cells.
    pub fn len(&self) -> usize {
        self.windows.values().sum()
    }

    /// True when no cells are held.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Serialize to bytes for checkpointing, in one pass into a buffer
    /// sized up front. All integers little-endian, floats as their bit
    /// patterns:
    ///
    /// ```text
    /// magic "ODAS" | version u32 = 1
    /// key count u32     | per key, in id order:  len u32, UTF-8 bytes
    /// cell count u32    | per cell, by (key id, window):
    ///                   |   window i64, key id u32, sum, count u64, min, max
    /// counter count u32 | per counter, in name order: len u32, UTF-8 bytes, value u64
    /// checksum u64 over every preceding byte
    /// ```
    pub fn snapshot(&self) -> Vec<u8> {
        let cells = self.len();
        let size = MAGIC.len()
            + 4
            + 4
            + self.names.iter().map(|k| 4 + k.len()).sum::<usize>()
            + 4
            + cells * CELL_BYTES
            + 4
            + self.counters.keys().map(|k| 4 + k.len() + 8).sum::<usize>()
            + 8;
        let mut out = Vec::with_capacity(size);
        let put_len = |out: &mut Vec<u8>, n: usize| {
            let n = u32::try_from(n).expect("snapshot section under 2^32 entries");
            out.extend_from_slice(&n.to_le_bytes());
        };
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        put_len(&mut out, self.names.len());
        for name in &self.names {
            put_len(&mut out, name.len());
            out.extend_from_slice(name.as_bytes());
        }
        put_len(&mut out, cells);
        for (id, open) in self.cells.iter().enumerate() {
            for (window, cell) in open {
                out.extend_from_slice(&window.to_le_bytes());
                out.extend_from_slice(&(id as u32).to_le_bytes());
                out.extend_from_slice(&cell.sum.to_bits().to_le_bytes());
                out.extend_from_slice(&cell.count.to_le_bytes());
                out.extend_from_slice(&cell.min.to_bits().to_le_bytes());
                out.extend_from_slice(&cell.max.to_bits().to_le_bytes());
            }
        }
        put_len(&mut out, self.counters.len());
        for (name, value) in &self.counters {
            put_len(&mut out, name.len());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&value.to_le_bytes());
        }
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        debug_assert_eq!(out.len(), size);
        out
    }

    /// Restore from a snapshot. Total: any input [`StateStore::snapshot`]
    /// could not have produced — wrong magic, version or checksum, a
    /// count or length that overruns the remaining bytes (checked before
    /// anything is allocated for it), invalid UTF-8, a duplicate key or
    /// counter, a key id outside the key table, cells or counters out of
    /// order, trailing bytes — yields `None`. What it accepts it
    /// reproduces exactly: `snapshot(restore(b)) == b`.
    pub fn restore(bytes: &[u8]) -> Option<StateStore> {
        let (body, sum) = bytes.split_at_checked(bytes.len().checked_sub(8)?)?;
        if u64::from_le_bytes(sum.try_into().ok()?) != checksum(body) {
            return None;
        }
        let mut r = Reader(body);
        if r.take(MAGIC.len())? != MAGIC || r.u32()? != VERSION {
            return None;
        }
        let mut store = StateStore::new();
        // Every key costs at least its length prefix.
        let keys = r.count(4)?;
        store.names.reserve_exact(keys);
        store.cells.reserve_exact(keys);
        for id in 0..keys {
            let name: Arc<str> = r.str()?.into();
            if store
                .ids
                .insert(Arc::clone(&name), KeyId(id as u32))
                .is_some()
            {
                return None;
            }
            store.names.push(name);
            store.cells.push(Vec::new());
        }
        store.order = (0..keys as u32).map(KeyId).collect();
        store
            .order
            .sort_unstable_by(|a, b| store.names[a.index()].cmp(&store.names[b.index()]));
        let mut last: Option<(u32, i64)> = None;
        for _ in 0..r.count(CELL_BYTES)? {
            let window = r.u64()? as i64;
            let id = r.u32()?;
            if last.is_some_and(|l| l >= (id, window)) {
                return None;
            }
            last = Some((id, window));
            let cell = CellState {
                sum: f64::from_bits(r.u64()?),
                count: r.u64()?,
                min: f64::from_bits(r.u64()?),
                max: f64::from_bits(r.u64()?),
            };
            store.cells.get_mut(id as usize)?.push((window, cell));
            *store.windows.entry(window).or_insert(0) += 1;
        }
        for _ in 0..r.count(4 + 8)? {
            let name = r.str()?.to_string();
            if store
                .counters
                .last_key_value()
                .is_some_and(|(l, _)| *l >= name)
            {
                return None;
            }
            store.counters.insert(name, r.u64()?);
        }
        r.0.is_empty().then_some(store)
    }
}

/// Bounds-checked cursor over untrusted snapshot bytes.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// An entry count whose entries take at least `min_bytes` each:
    /// rejected unless that many can still fit in what remains, so a
    /// forged count can never size an allocation beyond the input.
    fn count(&mut self, min_bytes: usize) -> Option<usize> {
        let n = self.u32()? as usize;
        (n <= self.0.len() / min_bytes).then_some(n)
    }

    fn str(&mut self) -> Option<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }
}

/// Snapshot checksum: a rotate-xor-multiply fold over little-endian
/// 8-byte words. One multiply per word rather than per byte (as
/// `oda_obs::fnv1a` would), because this runs over the whole snapshot
/// every epoch and per byte it would cost more than writing the
/// snapshot does. Each step is a bijection of the running value, so any
/// change confined to one word always changes the result. Guards
/// against torn or bit-rotted checkpoints, not forgery.
fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let step = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    let mut h = step(K, bytes.len() as u64);
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    words
        .remainder()
        .iter()
        .fold(h, |h, &b| step(h, u64::from(b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cell_accumulates_and_ignores_nan() {
        let mut c = CellState::new();
        c.push(1.0);
        c.push(f64::NAN);
        c.push(3.0);
        assert_eq!(c.count, 2);
        assert_eq!(c.mean(), 2.0);
        assert_eq!(c.min, 1.0);
        assert_eq!(c.max, 3.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = CellState::new();
        a.push(1.0);
        let mut b = CellState::new();
        b.push(5.0);
        a.merge(&b);
        assert_eq!(a.count, 2);
        assert_eq!(a.sum, 6.0);
        assert_eq!(a.max, 5.0);
    }

    #[test]
    fn drain_closed_removes_only_old_windows() {
        let mut s = StateStore::new();
        s.cell(0, "a").push(1.0);
        s.cell(0, "b").push(2.0);
        s.cell(15_000, "a").push(3.0);
        let closed = s.drain_closed(15_000);
        assert_eq!(closed.len(), 2);
        assert!(closed.iter().all(|&(w, _, _)| w == 0));
        assert_eq!(s.len(), 1);
        assert!(s.get_cell(15_000, "a").is_some());
        assert!(s.get_cell(0, "a").is_none());
    }

    #[test]
    fn key_ids_are_dense_stable_and_name_the_key() {
        let mut s = StateStore::new();
        let b = s.key_id("b");
        let a = s.key_id("a");
        assert_eq!((b, a), (KeyId(0), KeyId(1)));
        assert_eq!(s.key_id("b"), b, "re-interning returns the same id");
        assert_eq!(s.key_name(a).map(|k| &**k), Some("a"));
        assert!(StateStore::new().key_name(a).is_none());
        s.cell_at(0, a).push(2.0);
        assert_eq!(s.get_cell(0, "a").unwrap().sum, 2.0);
        assert_eq!(s.cell(0, "a").count, 1, "cell() is cell_at() by name");
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut s = StateStore::new();
        s.cell(0, "x").push(42.0);
        s.bump("rows", 7);
        let snap = s.snapshot();
        let r = StateStore::restore(&snap).unwrap();
        assert_eq!(r, s);
        assert_eq!(r.counter("rows"), 7);
        assert!(StateStore::restore(b"garbage").is_none());
    }

    #[test]
    fn counters_accumulate() {
        let mut s = StateStore::new();
        s.bump("n", 1);
        s.bump("n", 2);
        assert_eq!(s.counter("n"), 3);
        assert_eq!(s.counter("missing"), 0);
    }

    /// A store exercising every snapshot section and every odd cell:
    /// an untouched cell (±∞ sentinels), a NaN-only cell, a cell
    /// re-created for a window that was already drained, two open
    /// windows, an interned key with no cell, and the gap roster
    /// counters.
    fn awkward_store() -> StateStore {
        let mut s = StateStore::new();
        for key in ["2\u{1f}power", "10\u{1f}power", "10\u{1f}temp"] {
            s.cell(0, key).push(1.5);
            s.cell(60_000, key).push(-0.0);
            s.bump(&format!("seen\u{1f}{key}"), 1);
        }
        assert_eq!(s.drain_closed(60_000).len(), 3);
        s.cell(0, "10\u{1f}power").push(9.0); // late, window 0 already emitted
        let _untouched = s.cell(120_000, "2\u{1f}power");
        s.cell(120_000, "10\u{1f}temp").push(f64::NAN);
        s.key_id("100\u{1f}idle");
        s.bump("wm_ms", 150_000);
        s.bump("gap_next", 60_001);
        s
    }

    #[test]
    fn restore_inverts_snapshot_and_snapshot_inverts_restore() {
        for s in [StateStore::new(), awkward_store()] {
            let bytes = s.snapshot();
            let restored = StateStore::restore(&bytes).expect("own snapshot restores");
            assert_eq!(restored, s);
            assert_eq!(restored.snapshot(), bytes);
        }
        let restored = StateStore::restore(&awkward_store().snapshot()).unwrap();
        let empty = restored.get_cell(120_000, "2\u{1f}power").unwrap();
        assert_eq!(
            (empty.count, empty.min, empty.max),
            (0, f64::INFINITY, f64::NEG_INFINITY)
        );
        assert_eq!(restored.get_cell(120_000, "10\u{1f}temp").unwrap().count, 0);
        assert_eq!(restored.get_cell(0, "10\u{1f}power").unwrap().sum, 9.0);
        assert!(restored
            .get_cell(60_000, "2\u{1f}power")
            .unwrap()
            .min
            .is_sign_negative());
        assert_eq!(restored.counter("gap_next"), 60_001);
        assert_eq!(restored.counters_with_prefix("seen\u{1f}").len(), 3);
        assert_eq!(restored.len(), 6);
    }

    #[test]
    fn restored_store_continues_exactly_like_the_original() {
        let mut a = awkward_store();
        let mut b = StateStore::restore(&a.snapshot()).unwrap();
        for s in [&mut a, &mut b] {
            let id = s.key_id("3\u{1f}new");
            s.cell_at(120_000, id).push(4.0);
            s.cell(120_000, "10\u{1f}power").push(1.0);
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.drain_closed(i64::MAX), b.drain_closed(i64::MAX));
    }

    /// `bytes` with its trailing checksum recomputed, so a corrupted
    /// body reaches the structural checks behind the checksum.
    fn resealed(mut bytes: Vec<u8>) -> Vec<u8> {
        let body = bytes.len() - 8;
        let sum = checksum(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// Offsets of the key-count, first string-length, cell-count and
    /// counter-count fields of `s`'s snapshot.
    fn length_fields(s: &StateStore) -> [usize; 4] {
        let keys = 8;
        let cells = keys + 4 + s.names.iter().map(|k| 4 + k.len()).sum::<usize>();
        let counters = cells + 4 + s.len() * CELL_BYTES;
        [keys, keys + 4, cells, counters]
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut bytes = awkward_store().snapshot();
        bytes[4..8].copy_from_slice(&(VERSION + 1).to_le_bytes());
        assert!(StateStore::restore(&resealed(bytes)).is_none());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = awkward_store().snapshot();
        bytes[0] = b'X';
        assert!(StateStore::restore(&resealed(bytes)).is_none());
    }

    #[test]
    fn bad_checksum_is_rejected() {
        let mut bytes = awkward_store().snapshot();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert!(StateStore::restore(&bytes).is_none());
        // A consistent body under a checksum of the wrong length, too.
        let good = awkward_store().snapshot();
        assert!(StateStore::restore(&good[..good.len() - 1]).is_none());
    }

    #[test]
    fn inflated_length_fields_are_rejected_before_allocating() {
        let s = awkward_store();
        for at in length_fields(&s) {
            for forged in [u32::MAX, u32::MAX / 2, 1 << 20] {
                let mut bytes = s.snapshot();
                bytes[at..at + 4].copy_from_slice(&forged.to_le_bytes());
                // A count this large would abort on allocation if it
                // were trusted; returning at all is the assertion.
                assert!(
                    StateStore::restore(&resealed(bytes)).is_none(),
                    "field at {at}"
                );
            }
        }
    }

    #[test]
    fn non_canonical_bodies_are_rejected() {
        let s = awkward_store();
        let [_, _, cells, counters] = length_fields(&s);
        // Key id outside the key table.
        let mut bytes = s.snapshot();
        bytes[cells + 4 + 8..cells + 4 + 12].copy_from_slice(&99u32.to_le_bytes());
        assert!(StateStore::restore(&resealed(bytes)).is_none());
        // Two cells swapped: out of (key id, window) order.
        let mut bytes = s.snapshot();
        let first = cells + 4;
        let (a, b) = bytes[first..first + 2 * CELL_BYTES].split_at_mut(CELL_BYTES);
        a.swap_with_slice(b);
        assert!(StateStore::restore(&resealed(bytes)).is_none());
        // Duplicate key: rename key 1 to key 0's bytes (same length).
        let mut t = StateStore::new();
        t.key_id("aa");
        t.key_id("bb");
        let mut bytes = t.snapshot();
        bytes[22..24].copy_from_slice(b"aa");
        assert!(StateStore::restore(&resealed(bytes)).is_none());
        // Invalid UTF-8 in a key.
        let mut bytes = t.snapshot();
        bytes[16] = 0xff;
        assert!(StateStore::restore(&resealed(bytes)).is_none());
        // Trailing bytes after the counters.
        let mut bytes = s.snapshot();
        let body = bytes.len() - 8;
        bytes.splice(body..body, [0u8; 3]);
        assert!(StateStore::restore(&resealed(bytes)).is_none());
        // Counters out of name order: overwrite the second name's first
        // byte with a NUL so it sorts before the first.
        let mut bytes = s.snapshot();
        let first_len = u32::from_le_bytes(bytes[counters + 4..counters + 8].try_into().unwrap());
        let second_name = counters + 8 + first_len as usize + 8 + 4;
        bytes[second_name] = 0;
        assert!(StateStore::restore(&resealed(bytes)).is_none());
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = awkward_store().snapshot();
        for len in 0..bytes.len() {
            assert!(StateStore::restore(&bytes[..len]).is_none(), "prefix {len}");
            // And with a valid checksum over the shortened body.
            if len >= 8 {
                let cut = resealed(bytes[..len].to_vec());
                assert!(StateStore::restore(&cut).is_none(), "resealed prefix {len}");
            }
        }
    }

    /// The pre-interning store, kept as the reference the new one must
    /// match cell for cell: a `BTreeMap` over `(window, key string)`.
    #[derive(Default)]
    struct ReferenceStore(BTreeMap<(i64, String), CellState>);

    impl ReferenceStore {
        fn cell(&mut self, window: i64, key: &str) -> &mut CellState {
            self.0.entry((window, key.to_string())).or_default()
        }

        fn drain_closed(&mut self, horizon: i64) -> Vec<((i64, String), CellState)> {
            let open = self.0.split_off(&(horizon, String::new()));
            std::mem::replace(&mut self.0, open).into_iter().collect()
        }
    }

    fn bits(c: &CellState) -> (u64, u64, u64, u64) {
        (c.sum.to_bits(), c.count, c.min.to_bits(), c.max.to_bits())
    }

    proptest! {
        /// Differential: the same folds and drains through the
        /// reference map and the interned store give the same drained
        /// cells, in the same order, bit for bit — through a
        /// snapshot/restore at every step.
        #[test]
        fn matches_reference_store_bit_for_bit(
            ops in proptest::collection::vec(
                (0i64..6, 0usize..7, any::<f64>(), 0u8..8),
                1..200,
            ),
        ) {
            const KEYS: [&str; 7] = [
                "2\u{1f}p", "10\u{1f}p", "100\u{1f}p", "10\u{1f}t", "1", "", "é",
            ];
            let mut new = StateStore::new();
            let mut old = ReferenceStore::default();
            let mut horizon = 0;
            for (w, k, v, action) in ops {
                new.cell(w * 10, KEYS[k]).push(v);
                old.cell(w * 10, KEYS[k]).push(v);
                if action == 0 {
                    horizon += 10;
                    let got: Vec<_> = new
                        .drain_closed(horizon)
                        .into_iter()
                        .map(|(w, id, c)| (w, new.key_name(id).unwrap().to_string(), bits(&c)))
                        .collect();
                    let want: Vec<_> = old
                        .drain_closed(horizon)
                        .into_iter()
                        .map(|((w, k), c)| (w, k, bits(&c)))
                        .collect();
                    prop_assert_eq!(got, want);
                }
                prop_assert_eq!(new.len(), old.0.len());
                new = StateStore::restore(&new.snapshot()).expect("own snapshot restores");
            }
        }

        /// Hostile bytes: a single flipped bit anywhere is rejected,
        /// with the checksum in the way and with it recomputed.
        #[test]
        fn single_bit_flips_never_restore_to_a_different_store(
            at in any::<usize>(),
            bit in 0u8..8,
        ) {
            let s = awkward_store();
            let mut bytes = s.snapshot();
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
            prop_assert!(StateStore::restore(&bytes).is_none());
            // Past the checksum the flip may land in a value (a sum, a
            // counter) and still be a well-formed snapshot; it must
            // then survive a round trip unchanged rather than panic.
            if let Some(r) = StateStore::restore(&resealed(bytes.clone())) {
                prop_assert_eq!(r.snapshot(), resealed(bytes));
            }
        }

        /// Hostile bytes: arbitrary garbage, and arbitrary garbage
        /// behind a valid header and checksum, never panics and never
        /// restores to something that does not round-trip.
        #[test]
        fn garbage_is_rejected_or_round_trips(
            tail in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            prop_assert!(StateStore::restore(&tail).is_none());
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&VERSION.to_le_bytes());
            bytes.extend_from_slice(&tail);
            bytes.extend_from_slice(&[0; 8]);
            let bytes = resealed(bytes);
            if let Some(r) = StateStore::restore(&bytes) {
                prop_assert_eq!(r.snapshot(), bytes);
            }
        }
    }
}
