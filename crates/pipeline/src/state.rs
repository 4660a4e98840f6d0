//! Versioned keyed state for streaming aggregations.
//!
//! Streaming Bronze→Silver keeps per-(window, node, sensor) accumulators
//! between micro-batches; the state store snapshots to bytes so
//! checkpoints can persist it and recovery can restore it bit-for-bit.
//!
//! A key is the (node, sensor) pair it stands for, and the store owns
//! the index from pair to cell: each sensor name is interned once into a
//! dense code, each pair once into a dense key id, and every node keeps
//! its keys as (sensor code, key id) sorted by code. Folding an
//! observation starts from where the previous row's key sat in that
//! list (a `KeyHint`), falls back to a search of the list, and then
//! checks the key's latest open window, so it neither allocates (unless
//! the cell is new) nor touches a string. Snapshots are a versioned
//! binary layout (see [`StateStore::snapshot`]).

use oda_storage::intern::StringInterner;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};

/// Accumulator for one (window, key) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CellState {
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
}

/// Dense id of an interned (node, sensor) key. Ids count up from zero
/// in first-intern order and are meaningful only to the store that
/// issued them (or to a store restored from that store's snapshot,
/// which reproduces the numbering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct KeyId(u32);

impl KeyId {
    /// Position of this key in id-indexed tables.
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Where a [`StateStore::key_id`] lookup landed: the node, its row of
/// the key index, and the key's position in that row. The row is
/// trusted for that node, so a hint belongs to the store that filled
/// it; the position is only a guess, and a stale one costs a search,
/// never a wrong key.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KeyHint {
    node: Option<i64>,
    row: usize,
    at: usize,
}

/// Keyed state: `(window start, node, sensor) -> CellState`, plus the
/// Silver watermark and gap cursor.
///
/// Every field is a pure function of the operation history (which keys
/// were interned in which order, which cells hold what), never of
/// timing or hashing order, so equal histories give equal stores and
/// equal snapshot bytes. Equality compares that content: the sensor and
/// key tables, the cells, the watermark and the gap cursor, not the
/// indexes derived from them.
#[derive(Debug, Clone, Default)]
pub struct StateStore {
    /// Sensor code -> name, in first-intern order.
    sensors: StringInterner,
    /// Key id -> (node, sensor code), in first-intern order.
    keys: Vec<(i64, u32)>,
    /// Node -> its row of `nodes`.
    node_rows: HashMap<i64, usize>,
    /// Per node, in the order of its first key: the node and its keys as
    /// (sensor code, key id), ascending by code.
    nodes: Vec<(i64, Vec<(u32, KeyId)>)>,
    /// Key ids `0..order.len()`, sorted by (node's decimal text, sensor
    /// name): the emission order within a window. Keys interned since
    /// are placed in one sort-and-merge when the order is next read.
    order: Vec<KeyId>,
    /// Key id -> that key's open windows, ascending by window start.
    cells: Vec<Vec<(i64, CellState)>>,
    /// Open window start -> live cells in it.
    windows: BTreeMap<i64, usize>,
    /// Event-time watermark: the largest timestamp folded (0 before any).
    pub(crate) wm_ms: i64,
    /// Next window start owed a gap sweep over every key (`None` until
    /// gap-marked Silver sees its first window).
    pub(crate) gap_next: Option<i64>,
}

const MAGIC: &[u8; 4] = b"ODAS";
const VERSION: u32 = 2;
/// Encoded size of one key: node, sensor code.
const KEY_BYTES: usize = 8 + 4;
/// Encoded size of one cell: window, key id, sum, count, min, max.
const CELL_BYTES: usize = 8 + 4 + 8 + 8 + 8 + 8;
/// Encoded size of the tail: watermark, gap cursor flag and window.
const TAIL_BYTES: usize = 8 + 1 + 8;

impl StateStore {
    /// Empty store.
    pub fn new() -> StateStore {
        StateStore::default()
    }

    /// Code of sensor `name`, interned on first sight.
    pub(crate) fn sensor_code(&mut self, name: &str) -> u32 {
        self.sensors.intern(name)
    }

    /// The name behind a sensor code this store issued.
    pub(crate) fn sensor_name(&self, code: u32) -> &str {
        &self.sensors.entries()[code as usize]
    }

    /// `node`'s row of the key index. A new node gets its row here;
    /// callers intern a key into it straight away, so every row holds a
    /// key, as every restored row does.
    fn node_row(&mut self, node: i64) -> usize {
        *self.node_rows.entry(node).or_insert_with(|| {
            self.nodes.push((node, Vec::new()));
            self.nodes.len() - 1
        })
    }

    /// Id of the key (`node`, `sensor`), interned on first sight.
    ///
    /// `hint` is where the previous lookup landed. The node's row is
    /// looked up only when the node differs from the hint's; then the
    /// hinted key and the one after it are checked before a binary
    /// search of the node's keys. Per-GPU sensors repeat a key several
    /// times in a row and a node's sensors mostly arrive in code order,
    /// so the search is rare. No allocation unless the key is new.
    pub(crate) fn key_id(&mut self, node: i64, sensor: u32, hint: &mut KeyHint) -> KeyId {
        if hint.node != Some(node) {
            *hint = KeyHint {
                node: Some(node),
                row: self.node_row(node),
                at: 0,
            };
        }
        let keys = &mut self.nodes[hint.row].1;
        for at in [hint.at, hint.at + 1] {
            if let Some(&(s, id)) = keys.get(at) {
                if s == sensor {
                    hint.at = at;
                    return id;
                }
            }
        }
        let at = match keys.binary_search_by_key(&sensor, |&(s, _)| s) {
            Ok(at) => {
                hint.at = at;
                return keys[at].1;
            }
            Err(at) => at,
        };
        hint.at = at;
        let id = KeyId(u32::try_from(self.keys.len()).expect("fewer than 2^32 state keys"));
        keys.insert(at, (sensor, id));
        self.keys.push((node, sensor));
        self.cells.push(Vec::new());
        id
    }

    /// The (node, sensor code) `id` was interned as.
    pub(crate) fn key(&self, id: KeyId) -> (i64, u32) {
        self.keys[id.index()]
    }

    /// Every key id in emission order.
    pub(crate) fn keys_in_order(&mut self) -> &[KeyId] {
        self.place_keys();
        &self.order
    }

    /// Place every key interned since the last call into `order`: sort
    /// the new ids, then merge the two sorted runs. One merge per read
    /// rather than one insertion per new key, because a fold creates
    /// keys by the thousand and each insertion would shift the tail of
    /// `order`.
    fn place_keys(&mut self) {
        let placed = self.order.len();
        if placed == self.keys.len() {
            return;
        }
        let mut fresh: Vec<KeyId> = (placed..self.keys.len())
            .map(|id| KeyId(id as u32))
            .collect();
        fresh.sort_unstable_by(|&a, &b| self.key_order(a, b));
        let mut merged = Vec::with_capacity(self.keys.len());
        let (mut old, mut new) = (self.order.iter().peekable(), fresh.iter().peekable());
        while let (Some(&&a), Some(&&b)) = (old.peek(), new.peek()) {
            if self.key_order(b, a).is_lt() {
                merged.push(b);
                new.next();
            } else {
                merged.push(a);
                old.next();
            }
        }
        merged.extend(old);
        merged.extend(new);
        self.order = merged;
    }

    /// Emission order: by the node's decimal text, then by sensor name —
    /// the byte order of "node text, unit separator, sensor name" that
    /// Silver's bytes are pinned to, so node `10` sorts before node `2`.
    /// Rendering into stack buffers keeps it free of allocation.
    fn key_order(&self, a: KeyId, b: KeyId) -> Ordering {
        let ((node_a, sensor_a), (node_b, sensor_b)) = (self.key(a), self.key(b));
        let (mut buf_a, mut buf_b) = ([0; 20], [0; 20]);
        decimal(node_a, &mut buf_a)
            .cmp(decimal(node_b, &mut buf_b))
            .then_with(|| self.sensor_name(sensor_a).cmp(self.sensor_name(sensor_b)))
    }

    /// Mutable accumulator for a (window, key id) cell: the per-row
    /// path. Indexes by id, checks the key's latest open window (where
    /// in-order rows land), then searches its few others — no
    /// allocation unless the cell is new.
    pub(crate) fn cell_at(&mut self, window: i64, key: KeyId) -> &mut CellState {
        let open = &mut self.cells[key.index()];
        let at = match open.last() {
            Some(&(w, _)) if w == window => open.len() - 1,
            _ => match open.binary_search_by_key(&window, |&(w, _)| w) {
                Ok(at) => at,
                Err(at) => {
                    open.insert(at, (window, CellState::default()));
                    *self.windows.entry(window).or_insert(0) += 1;
                    at
                }
            },
        };
        &mut open[at].1
    }

    /// Remove and return every cell with `window < horizon` (windows the
    /// watermark has closed), ordered by window and then in emission
    /// order.
    pub(crate) fn drain_closed(&mut self, horizon: i64) -> Vec<(i64, KeyId, CellState)> {
        let open = self.windows.split_off(&horizon);
        let closed = std::mem::replace(&mut self.windows, open);
        if closed.is_empty() {
            return Vec::new();
        }
        self.place_keys();
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
    /// magic "ODAS" | version u32 = 2
    /// sensor count u32 | per sensor, in code order: len u32, UTF-8 bytes
    /// key count u32    | per key, in id order: node i64, sensor code u32
    /// cell count u32   | per cell, by (key id, window):
    ///                  |   window i64, key id u32, sum, count u64, min, max
    /// watermark i64
    /// gap cursor       | set u8 (0 or 1), window i64 (0 when unset)
    /// checksum u64 over every preceding byte
    /// ```
    pub fn snapshot(&self) -> Vec<u8> {
        let cells = self.len();
        let sensors = self.sensors.entries();
        let size = MAGIC.len()
            + 4
            + 4
            + sensors.iter().map(|s| 4 + s.len()).sum::<usize>()
            + 4
            + self.keys.len() * KEY_BYTES
            + 4
            + cells * CELL_BYTES
            + TAIL_BYTES
            + 8;
        let mut out = Vec::with_capacity(size);
        let put_len = |out: &mut Vec<u8>, n: usize| {
            let n = u32::try_from(n).expect("snapshot section under 2^32 entries");
            out.extend_from_slice(&n.to_le_bytes());
        };
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        put_len(&mut out, sensors.len());
        for name in sensors {
            put_len(&mut out, name.len());
            out.extend_from_slice(name.as_bytes());
        }
        put_len(&mut out, self.keys.len());
        for (node, sensor) in &self.keys {
            out.extend_from_slice(&node.to_le_bytes());
            out.extend_from_slice(&sensor.to_le_bytes());
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
        out.extend_from_slice(&self.wm_ms.to_le_bytes());
        out.push(u8::from(self.gap_next.is_some()));
        out.extend_from_slice(&self.gap_next.unwrap_or(0).to_le_bytes());
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        debug_assert_eq!(out.len(), size);
        out
    }

    /// Restore from a snapshot. Total: any input [`StateStore::snapshot`]
    /// could not have produced — wrong magic, version or checksum, a
    /// count or length that overruns the remaining bytes (checked before
    /// anything is allocated for it), invalid UTF-8, a duplicate sensor
    /// name or (node, sensor) key, a sensor code outside the sensor
    /// table or a key id outside the key table, cells out of order, a
    /// gap cursor flag other than 0 or 1 (or 0 with a window), trailing
    /// bytes — yields `None`. What it accepts it reproduces exactly:
    /// `snapshot(restore(b)) == b`. Everything it allocates is bounded by
    /// a constant times the input length.
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
        // Every sensor costs at least its length prefix; a duplicate
        // name interns to an earlier code.
        for code in 0..r.count(4)? {
            if store.sensors.intern(r.str()?) as usize != code {
                return None;
            }
        }
        let keys = r.count(KEY_BYTES)?;
        store.keys.reserve_exact(keys);
        store.cells.reserve_exact(keys);
        for id in 0..keys {
            let (node, sensor) = (r.u64()? as i64, r.u32()?);
            if sensor as usize >= store.sensors.len() {
                return None;
            }
            let row = store.node_row(node);
            store.nodes[row].1.push((sensor, KeyId(id as u32)));
            store.keys.push((node, sensor));
            store.cells.push(Vec::new());
        }
        for (_, keys) in &mut store.nodes {
            keys.sort_unstable();
            if keys.windows(2).any(|pair| pair[0].0 == pair[1].0) {
                return None;
            }
        }
        store.place_keys();
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
        store.wm_ms = r.u64()? as i64;
        store.gap_next = match (r.take(1)?, r.u64()? as i64) {
            ([0], 0) => None,
            ([1], window) => Some(window),
            _ => return None,
        };
        r.0.is_empty().then_some(store)
    }
}

impl PartialEq for StateStore {
    fn eq(&self, other: &StateStore) -> bool {
        self.sensors == other.sensors
            && self.keys == other.keys
            && self.cells == other.cells
            && self.windows == other.windows
            && self.wm_ms == other.wm_ms
            && self.gap_next == other.gap_next
    }
}

/// `n` in decimal, rendered into the end of `buf` without allocating.
fn decimal(n: i64, buf: &mut [u8; 20]) -> &[u8] {
    let mut at = buf.len();
    let mut rest = n.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    &buf[at..]
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

    /// Key id of (`node`, `sensor`), interned on first sight.
    fn key(s: &mut StateStore, node: i64, sensor: &str) -> KeyId {
        let sensor = s.sensor_code(sensor);
        s.key_id(node, sensor, &mut KeyHint::default())
    }

    fn cell<'a>(s: &'a mut StateStore, window: i64, node: i64, sensor: &str) -> &'a mut CellState {
        let id = key(s, node, sensor);
        s.cell_at(window, id)
    }

    /// Read-only view of a cell, interning nothing.
    fn get(s: &StateStore, window: i64, node: i64, sensor: &str) -> Option<CellState> {
        let code = s.sensors.lookup(sensor)?;
        let id = s.keys.iter().position(|&k| k == (node, code))?;
        let open = &s.cells[id];
        let at = open.binary_search_by_key(&window, |&(w, _)| w).ok()?;
        Some(open[at].1)
    }

    #[test]
    fn cell_accumulates_and_ignores_nan() {
        let mut c = CellState::default();
        c.push(1.0);
        c.push(f64::NAN);
        c.push(3.0);
        assert_eq!(c.count, 2);
        assert_eq!(c.mean(), 2.0);
        assert_eq!(c.min, 1.0);
        assert_eq!(c.max, 3.0);
    }

    #[test]
    fn drain_closed_removes_only_old_windows() {
        let mut s = StateStore::new();
        cell(&mut s, 0, 1, "a").push(1.0);
        cell(&mut s, 0, 1, "b").push(2.0);
        cell(&mut s, 15_000, 1, "a").push(3.0);
        let closed = s.drain_closed(15_000);
        assert_eq!(closed.len(), 2);
        assert!(closed.iter().all(|&(w, _, _)| w == 0));
        assert_eq!(s.len(), 1);
        assert!(get(&s, 15_000, 1, "a").is_some());
        assert!(get(&s, 0, 1, "a").is_none());
    }

    #[test]
    fn key_ids_are_dense_stable_and_name_the_pair() {
        let mut s = StateStore::new();
        let b = key(&mut s, 7, "b");
        let a = key(&mut s, 7, "a");
        let c = key(&mut s, 10, "a");
        assert_eq!((b, a, c), (KeyId(0), KeyId(1), KeyId(2)));
        assert_eq!(key(&mut s, 7, "b"), b, "re-interning returns the same id");
        assert_eq!(s.key(c), (10, s.sensor_code("a")));
        assert_eq!(s.sensor_name(s.key(b).1), "b");
        // "10" sorts before "7" as text.
        assert_eq!(s.keys_in_order(), [c, a, b]);
    }

    #[test]
    fn decimal_renders_like_format() {
        for n in [0, 7, -7, 10, 100, -100, i64::MAX, i64::MIN] {
            assert_eq!(decimal(n, &mut [0; 20]), n.to_string().as_bytes());
        }
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut s = StateStore::new();
        cell(&mut s, 0, 3, "x").push(42.0);
        s.wm_ms = 7;
        let snap = s.snapshot();
        let r = StateStore::restore(&snap).unwrap();
        assert_eq!(r, s);
        assert_eq!(r.wm_ms, 7);
        assert!(StateStore::restore(b"garbage").is_none());
    }

    /// A store exercising every snapshot section and every odd cell:
    /// an untouched cell (±∞ sentinels), a NaN-only cell, a cell
    /// re-created for a window that was already drained, two open
    /// windows, an interned key with no cell (at the widest node), the
    /// watermark and the gap cursor.
    fn awkward_store() -> StateStore {
        let mut s = StateStore::new();
        for (node, sensor) in [(2, "power"), (10, "power"), (10, "temp")] {
            cell(&mut s, 0, node, sensor).push(1.5);
            cell(&mut s, 60_000, node, sensor).push(-0.0);
        }
        assert_eq!(s.drain_closed(60_000).len(), 3);
        cell(&mut s, 0, 10, "power").push(9.0); // late, window 0 already emitted
        let _untouched = cell(&mut s, 120_000, 2, "power");
        cell(&mut s, 120_000, 10, "temp").push(f64::NAN);
        key(&mut s, i64::MIN, "idle");
        s.wm_ms = 150_000;
        s.gap_next = Some(60_000);
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
        let empty = get(&restored, 120_000, 2, "power").unwrap();
        assert_eq!(
            (empty.count, empty.min, empty.max),
            (0, f64::INFINITY, f64::NEG_INFINITY)
        );
        assert_eq!(get(&restored, 120_000, 10, "temp").unwrap().count, 0);
        assert_eq!(get(&restored, 0, 10, "power").unwrap().sum, 9.0);
        assert!(get(&restored, 60_000, 2, "power")
            .unwrap()
            .min
            .is_sign_negative());
        assert_eq!((restored.wm_ms, restored.gap_next), (150_000, Some(60_000)));
        assert_eq!(restored.keys.len(), 4);
        assert_eq!(restored.len(), 6);
        let fresh = StateStore::restore(&StateStore::new().snapshot()).unwrap();
        assert_eq!((fresh.wm_ms, fresh.gap_next), (0, None));
    }

    #[test]
    fn restored_store_continues_exactly_like_the_original() {
        let mut a = awkward_store();
        let mut b = StateStore::restore(&a.snapshot()).unwrap();
        for s in [&mut a, &mut b] {
            cell(s, 120_000, 3, "new").push(4.0);
            cell(s, 120_000, 10, "power").push(1.0);
            cell(s, 120_000, 10, "new").push(2.0);
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

    /// Offsets of the sensor-count, first string-length, key-count and
    /// cell-count fields of `s`'s snapshot.
    fn length_fields(s: &StateStore) -> [usize; 4] {
        let sensors = 8;
        let names = s.sensors.entries().iter().map(|n| 4 + n.len());
        let keys = sensors + 4 + names.sum::<usize>();
        let cells = keys + 4 + s.keys.len() * KEY_BYTES;
        [sensors, sensors + 4, keys, cells]
    }

    #[test]
    fn version_mismatch_is_rejected() {
        for version in [VERSION - 1, VERSION + 1] {
            let mut bytes = awkward_store().snapshot();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(StateStore::restore(&resealed(bytes)).is_none());
        }
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
        let [_, _, keys, cells] = length_fields(&s);
        let rejected = |bytes: Vec<u8>| StateStore::restore(&resealed(bytes)).is_none();
        // Key id outside the key table.
        let mut bytes = s.snapshot();
        bytes[cells + 4 + 8..cells + 4 + 12].copy_from_slice(&99u32.to_le_bytes());
        assert!(rejected(bytes));
        // Two cells swapped: out of (key id, window) order.
        let mut bytes = s.snapshot();
        let first = cells + 4;
        let (a, b) = bytes[first..first + 2 * CELL_BYTES].split_at_mut(CELL_BYTES);
        a.swap_with_slice(b);
        assert!(rejected(bytes));
        // Sensor code outside the sensor table.
        let mut bytes = s.snapshot();
        bytes[keys + 4 + 8..keys + 4 + 12].copy_from_slice(&99u32.to_le_bytes());
        assert!(rejected(bytes));
        // Duplicate (node, sensor) key: key 1, (10, power), takes key
        // 0's node and becomes (2, power).
        let mut bytes = s.snapshot();
        let node = bytes[keys + 4..keys + 12].to_vec();
        bytes[keys + 4 + KEY_BYTES..keys + 12 + KEY_BYTES].copy_from_slice(&node);
        assert!(rejected(bytes));
        // Duplicate sensor name: rename sensor 1 to sensor 0's bytes
        // (same length).
        let mut t = StateStore::new();
        t.sensor_code("aa");
        t.sensor_code("bb");
        let mut bytes = t.snapshot();
        bytes[22..24].copy_from_slice(b"aa");
        assert!(rejected(bytes));
        // Invalid UTF-8 in a sensor name.
        let mut bytes = t.snapshot();
        bytes[16] = 0xff;
        assert!(rejected(bytes));
        // A gap cursor flag other than 0 or 1, and "unset" with a window.
        let flag = s.snapshot().len() - 8 - TAIL_BYTES + 8;
        for value in [2, 0] {
            let mut bytes = s.snapshot();
            bytes[flag] = value;
            assert!(rejected(bytes), "gap flag {value}");
        }
        // Trailing bytes after the gap cursor.
        let mut bytes = s.snapshot();
        let body = bytes.len() - 8;
        bytes.splice(body..body, [0u8; 3]);
        assert!(rejected(bytes));
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

    /// A string-keyed store, kept as the reference the store must match
    /// cell for cell: a `BTreeMap` over `(window, rendered key)`, the key
    /// rendered `"{node}\u{1f}{sensor}"`.
    #[derive(Default)]
    struct ReferenceStore(BTreeMap<(i64, String), CellState>);

    impl ReferenceStore {
        fn cell(&mut self, window: i64, node: i64, sensor: &str) -> &mut CellState {
            let key = format!("{node}\u{1f}{sensor}");
            self.0.entry((window, key)).or_default()
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
        /// reference map and the store give the same drained cells, in
        /// the same order, bit for bit — through a snapshot/restore at
        /// every step. The nodes cross digit counts and signs, so
        /// emission order is the rendered keys' byte order, not numeric.
        /// Each step folds one or two nodes' ticks through one
        /// [`KeyHint`], as `fold` does, with sensors in drawn order:
        /// repeated keys hit the hint, and sensors out of code order (or
        /// new to the node) take its fallback.
        #[test]
        fn matches_reference_store_bit_for_bit(
            ops in proptest::collection::vec(
                (
                    0i64..6,
                    proptest::collection::vec(
                        (0usize..6, proptest::collection::vec(0usize..5, 1..8)),
                        1..3,
                    ),
                    any::<f64>(),
                    0u8..8,
                ),
                1..120,
            ),
        ) {
            const NODES: [i64; 6] = [2, 10, 100, 1, -1, i64::MIN];
            const SENSORS: [&str; 5] = ["p", "pp", "t", "", "é"];
            let mut new = StateStore::new();
            let mut old = ReferenceStore::default();
            let mut horizon = 0;
            for (w, ticks, v, action) in ops {
                let mut hint = KeyHint::default();
                for (n, sensors) in ticks {
                    for s in sensors {
                        let code = new.sensor_code(SENSORS[s]);
                        let id = new.key_id(NODES[n], code, &mut hint);
                        new.cell_at(w * 10, id).push(v);
                        old.cell(w * 10, NODES[n], SENSORS[s]).push(v);
                    }
                }
                if action == 0 {
                    horizon += 10;
                    let got: Vec<_> = new
                        .drain_closed(horizon)
                        .into_iter()
                        .map(|(w, id, c)| {
                            let (node, sensor) = new.key(id);
                            (w, format!("{node}\u{1f}{}", new.sensor_name(sensor)), bits(&c))
                        })
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
            // node, the watermark) and still be a well-formed snapshot;
            // it must then survive a round trip unchanged rather than
            // panic.
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
