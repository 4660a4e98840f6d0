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
//! checks the key's newest open cell, held inline, so it neither
//! allocates (unless the cell is new) nor touches a string. Every open
//! window lists the keys holding a cell in it, so a drain touches only
//! the keys whose windows closed.
//!
//! The store also notes what changed since its last committed
//! checkpoint: the keys whose cells it handed out, the keys and sensors
//! it interned, and the furthest it drained. A checkpoint is then either
//! a *base*, the whole store, or a *delta* carrying only those changes;
//! recovery replays a base and the deltas after it. Both are one
//! versioned binary format (see `state/codec.rs`).

mod codec;

pub(crate) use codec::is_delta;

use oda_storage::intern::StringInterner;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;

/// Accumulator for one (window, key) cell.
#[derive(Debug, Clone, Copy)]
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

/// Equal bit for bit, as a restored cell is to the one checkpointed:
/// a NaN sum equals itself, and `-0.0` differs from `0.0`.
impl PartialEq for CellState {
    fn eq(&self, other: &CellState) -> bool {
        let bits = |c: &CellState| (c.sum.to_bits(), c.count, c.min.to_bits(), c.max.to_bits());
        bits(self) == bits(other)
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

/// One key's open cells: the newest inline, where in-order rows land,
/// and the older ones spilled, ascending by window. The newest holds the
/// largest window (`None` only when no cell is open), so the layout of a
/// set of open cells is canonical.
#[derive(Debug, Clone, Default, PartialEq)]
struct OpenCells {
    newest: Option<(i64, CellState)>,
    older: Vec<(i64, CellState)>,
}

impl OpenCells {
    fn len(&self) -> usize {
        self.older.len() + usize::from(self.newest.is_some())
    }

    fn is_empty(&self) -> bool {
        self.newest.is_none()
    }

    /// The open cells, ascending by window.
    fn iter(&self) -> impl Iterator<Item = &(i64, CellState)> {
        self.older.iter().chain(&self.newest)
    }

    /// Remove the cells of windows before `horizon`, oldest first.
    fn drain_below(&mut self, horizon: i64) -> impl Iterator<Item = (i64, CellState)> + '_ {
        let closed = self.older.partition_point(|&(w, _)| w < horizon);
        let newest = if closed == self.older.len() {
            self.newest.take_if(|&mut (w, _)| w < horizon)
        } else {
            None
        };
        self.older.drain(..closed).chain(newest)
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
/// indexes derived from them (a window lists its keys in the order their
/// cells opened, which a restore does not reproduce).
#[derive(Debug, Clone, Default)]
pub struct StateStore {
    /// Sensor code -> name, in first-intern order.
    sensors: StringInterner,
    /// Key id -> (node, sensor code), in first-intern order.
    keys: Vec<(i64, u32)>,
    /// Key id -> its node's decimal text, zero-padded: the arrays
    /// compare as the texts do, since no text holds a zero byte.
    node_texts: Vec<[u8; 20]>,
    /// Node -> its row of `nodes`.
    node_rows: HashMap<i64, usize>,
    /// Per node, in the order of its first key: the node and its keys as
    /// (sensor code, key id), ascending by code.
    nodes: Vec<(i64, Vec<(u32, KeyId)>)>,
    /// Key ids `0..order.len()`, sorted by (node's decimal text, sensor
    /// name): the emission order within a window. Keys interned since
    /// are placed in one sort-and-merge when the order is next read.
    order: Vec<KeyId>,
    /// Key id -> that key's open cells.
    cells: Vec<OpenCells>,
    /// Open window start -> the keys holding a cell in it, in the order
    /// the cells were opened.
    windows: BTreeMap<i64, Vec<KeyId>>,
    /// Event-time watermark: the largest timestamp folded (0 before any).
    pub(crate) wm_ms: i64,
    /// Next window start owed a gap sweep over every key (`None` until
    /// gap-marked Silver sees its first window).
    pub(crate) gap_next: Option<i64>,
    /// What changed since the last committed checkpoint: bookkeeping for
    /// the next delta, not content.
    changes: Changes,
}

/// The committed checkpoint a delta builds on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Parent {
    epoch: u64,
    /// The checksum that seals the parent's bytes.
    sum: u64,
}

/// Everything a store changed since its last committed checkpoint.
/// Drains are not marked per key: draining is idempotent in its
/// horizon, so the furthest horizon stands for every drain since.
#[derive(Debug, Clone)]
struct Changes {
    /// The last checkpoint that committed; `None` until one has, and a
    /// store without a parent writes a base.
    parent: Option<Parent>,
    /// Sensor and key table lengths at the parent: later entries are new.
    sensors: usize,
    keys: usize,
    /// One bit per key id, set when [`StateStore::cell_at`] hands out one
    /// of the key's cells.
    dirty: Vec<u64>,
    /// The largest [`StateStore::drain_closed`] horizon (`i64::MIN`: none).
    drained: i64,
    /// Checksum of the last checkpoint encoded, the parent-to-be.
    encoded: u64,
}

impl Default for Changes {
    fn default() -> Changes {
        Changes {
            parent: None,
            sensors: 0,
            keys: 0,
            dirty: Vec::new(),
            drained: i64::MIN,
            encoded: 0,
        }
    }
}

impl Changes {
    fn mark(&mut self, key: KeyId) {
        self.dirty[key.index() / 64] |= 1 << (key.index() % 64);
    }

    /// Dirty key ids, ascending.
    fn dirty_keys(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        self.dirty.iter().enumerate().flat_map(|(at, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    at * 64 + bit
                })
            })
        })
    }
}

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
        self.new_key(node, sensor, hint.row, at)
    }

    /// Intern (`node`, `sensor`) as the next key id, at position `at` of
    /// the node's row `row`.
    fn new_key(&mut self, node: i64, sensor: u32, row: usize, at: usize) -> KeyId {
        let id = KeyId(u32::try_from(self.keys.len()).expect("fewer than 2^32 state keys"));
        self.nodes[row].1.insert(at, (sensor, id));
        self.keys.push((node, sensor));
        self.node_texts.push(node_text(node));
        self.cells.push(OpenCells::default());
        if id.index().is_multiple_of(64) {
            self.changes.dirty.push(0);
        }
        id
    }

    /// Intern (`node`, `sensor`) as the next key id; `None` when it
    /// already has one.
    fn append_key(&mut self, node: i64, sensor: u32) -> Option<KeyId> {
        let row = self.node_row(node);
        let keys = &self.nodes[row].1;
        let at = keys.binary_search_by_key(&sensor, |&(s, _)| s).err()?;
        Some(self.new_key(node, sensor, row, at))
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
    /// The texts were rendered when the keys were interned.
    fn key_order(&self, a: KeyId, b: KeyId) -> Ordering {
        let ((_, sensor_a), (_, sensor_b)) = (self.key(a), self.key(b));
        (self.node_texts[a.index()].cmp(&self.node_texts[b.index()]))
            .then_with(|| self.sensor_name(sensor_a).cmp(self.sensor_name(sensor_b)))
    }

    /// Mutable accumulator for a (window, key id) cell: the per-row
    /// path. Indexes by id and checks the key's newest cell, inline,
    /// where in-order rows land. A later window becomes the newest and
    /// spills the old one; an earlier one is searched among the spilled
    /// cells. No allocation unless the cell is new.
    pub(crate) fn cell_at(&mut self, window: i64, key: KeyId) -> &mut CellState {
        self.changes.mark(key);
        let open = &mut self.cells[key.index()];
        match open.newest {
            Some((newest, _)) if newest == window => {}
            Some((newest, _)) if newest > window => {
                let at = match open.older.binary_search_by_key(&window, |&(w, _)| w) {
                    Ok(at) => at,
                    Err(at) => {
                        open.older.insert(at, (window, CellState::default()));
                        self.windows.entry(window).or_default().push(key);
                        at
                    }
                };
                return &mut open.older[at].1;
            }
            _ => {
                open.older.extend(open.newest.take());
                self.windows.entry(window).or_default().push(key);
            }
        }
        let (_, cell) = open.newest.get_or_insert((window, CellState::default()));
        cell
    }

    /// Remove and return every cell with `window < horizon` (windows the
    /// watermark has closed), ordered by window and then in emission
    /// order. Only the keys the closed windows list are touched: they
    /// are marked, one bit per key id, and taken in emission order.
    pub(crate) fn drain_closed(&mut self, horizon: i64) -> Vec<(i64, KeyId, CellState)> {
        self.changes.drained = self.changes.drained.max(horizon);
        let open = self.windows.split_off(&horizon);
        let closed = std::mem::replace(&mut self.windows, open);
        if closed.is_empty() {
            return Vec::new();
        }
        self.place_keys();
        let mut marked = vec![0u64; self.keys.len().div_ceil(64)];
        let mut cells = 0;
        for ids in closed.values() {
            cells += ids.len();
            for id in ids {
                marked[id.index() / 64] |= 1 << (id.index() % 64);
            }
        }
        let mut out = Vec::with_capacity(cells);
        for &id in &self.order {
            if marked[id.index() / 64] & (1 << (id.index() % 64)) != 0 {
                let open = &mut self.cells[id.index()];
                out.extend(open.drain_below(horizon).map(|(w, cell)| (w, id, cell)));
            }
        }
        // Stable: rows were produced in key order, so each window keeps it.
        out.sort_by_key(|&(w, _, _)| w);
        out
    }

    /// Number of live cells.
    pub fn len(&self) -> usize {
        self.windows.values().map(Vec::len).sum()
    }

    /// True when no cells are held.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The whole store as a base snapshot. Equal stores give equal
    /// bytes, and [`StateStore::restore`] inverts it.
    pub fn snapshot(&self) -> Vec<u8> {
        codec::encode(self, None).0
    }

    /// Restore a store from a base snapshot. Total: bytes
    /// [`StateStore::snapshot`] could not have written (a delta among
    /// them) give `None`; what it accepts it reproduces exactly,
    /// `snapshot(restore(b)) == b`. It allocates at most a constant
    /// times the input's length.
    pub fn restore(bytes: &[u8]) -> Option<StateStore> {
        StateStore::restore_chain([(0, bytes)]).map(|mut store| {
            store.changes.parent = None;
            store
        })
    }

    /// This epoch's checkpoint bytes: a base when `base` is set or no
    /// checkpoint has committed yet, otherwise a delta onto the last one
    /// that did. Call [`StateStore::committed`] once they are stored.
    pub(crate) fn checkpoint(&mut self, base: bool) -> Vec<u8> {
        let (bytes, sum) = codec::encode(self, self.changes.parent.filter(|_| !base));
        self.changes.encoded = sum;
        bytes
    }

    /// Note that the bytes of the last [`StateStore::checkpoint`] were
    /// committed as `epoch`: the change marks clear, and the next delta
    /// builds on them. Until this is called the marks keep accumulating,
    /// so a delta after a lost commit covers both epochs.
    pub(crate) fn committed(&mut self, epoch: u64) {
        let changes = &mut self.changes;
        changes.parent = Some(Parent {
            epoch,
            sum: changes.encoded,
        });
        changes.sensors = self.sensors.len();
        changes.keys = self.keys.len();
        changes.dirty.fill(0);
        changes.drained = i64::MIN;
    }

    /// Restore the store a checkpoint chain describes: a base, then the
    /// deltas committed after it, each `(epoch, bytes)`. Total, as
    /// [`StateStore::restore`] is, and `None` also when a delta does
    /// not name the checkpoint before it as its parent. The store
    /// continues from the last checkpoint: its next delta builds on it.
    pub(crate) fn restore_chain<'a>(
        chain: impl IntoIterator<Item = (u64, &'a [u8])>,
    ) -> Option<StateStore> {
        codec::decode_chain(chain)
    }
}

impl PartialEq for StateStore {
    fn eq(&self, other: &StateStore) -> bool {
        self.sensors == other.sensors
            && self.keys == other.keys
            && self.cells == other.cells
            && self.wm_ms == other.wm_ms
            && self.gap_next == other.gap_next
    }
}

/// `node` in decimal, zero-padded to 20 bytes (the widest, `i64::MIN`,
/// takes all 20).
fn node_text(node: i64) -> [u8; 20] {
    let mut text = [0; 20];
    write!(&mut text[..], "{node}").expect("an i64 renders in 20 bytes");
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{Checkpoint, CheckpointStore};
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
        let open = s.cells[id].iter();
        open.copied()
            .find_map(|(w, cell)| (w == window).then_some(cell))
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
    fn node_texts_render_and_order_like_format() {
        let nodes = [0, 7, -7, 10, 100, -100, 1, 19, i64::MAX, i64::MIN];
        for a in nodes {
            let text = a.to_string();
            assert_eq!(&node_text(a)[..text.len()], text.as_bytes());
            assert!(node_text(a)[text.len()..].iter().all(|&b| b == 0));
            for b in nodes {
                assert_eq!(node_text(a).cmp(&node_text(b)), text.cmp(&b.to_string()));
            }
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
        let sum = codec::checksum(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// Restore a chain of `(epoch, bytes)` checkpoints.
    fn chain_of(links: &[(u64, &[u8])]) -> Option<StateStore> {
        StateStore::restore_chain(links.iter().copied())
    }

    /// Checkpoint `s` and commit it as `epoch`: a base or a delta.
    fn commit(s: &mut StateStore, epoch: u64, base: bool) -> Vec<u8> {
        let bytes = s.checkpoint(base);
        s.committed(epoch);
        bytes
    }

    /// A history checkpointed as a base and two deltas, whose deltas
    /// hold each kind of change: a new sensor and keys, a cell re-made
    /// below a drained horizon, a key drained to an empty list, a new
    /// node, and a moved watermark and gap cursor. Returns the three
    /// checkpoints, epochs 0..3, and the store they describe.
    fn awkward_chain() -> ([Vec<u8>; 3], StateStore) {
        let mut s = awkward_store();
        let base = commit(&mut s, 0, true);
        cell(&mut s, 120_000, 10, "power").push(2.0);
        cell(&mut s, 60_000, 2, "fan").push(7.0);
        s.drain_closed(120_000);
        s.wm_ms = 170_000;
        let first = commit(&mut s, 1, false);
        cell(&mut s, 0, 10, "temp").push(3.0); // late, below the horizon
        cell(&mut s, 180_000, 1 << 40, "power").push(-1.0);
        s.gap_next = Some(120_000);
        let second = commit(&mut s, 2, false);
        ([base, first, second], s)
    }

    /// A restored store must behave as one built by folding: it
    /// re-snapshots to itself, with a window index that matches its
    /// cells, and every key is found where its id says.
    fn assert_valid(s: &StateStore) {
        let again = StateStore::restore(&s.snapshot()).expect("a valid store restores");
        assert_eq!(&again, s);
        let mut probe = s.clone();
        for (id, &(node, sensor)) in s.keys.iter().enumerate() {
            let found = probe.key_id(node, sensor, &mut KeyHint::default());
            assert_eq!(found, KeyId(id as u32));
        }
        assert_eq!(probe.keys.len(), s.keys.len(), "no key interned twice");
    }

    #[test]
    fn a_chain_restores_the_store_it_was_taken_from() {
        let ([base, first, second], s) = awkward_chain();
        assert!(!is_delta(&base) && is_delta(&first) && is_delta(&second));
        let restored = chain_of(&[(0, &base), (1, &first), (2, &second)]).unwrap();
        assert_eq!(restored, s);
        assert_valid(&restored);
        assert_eq!(get(&restored, 0, 10, "temp").unwrap().sum, 3.0);
        assert!(get(&restored, 60_000, 2, "fan").is_none(), "drained");
        assert_eq!(
            (restored.wm_ms, restored.gap_next),
            (170_000, Some(120_000))
        );
        // Each prefix of the chain is a checkpoint too.
        let mut s = awkward_store();
        let base_again = commit(&mut s, 0, true);
        assert_eq!(base_again, base, "a pure function of the history");
        assert_eq!(chain_of(&[(0, &base)]).unwrap(), s);
    }

    #[test]
    fn a_delta_carries_only_what_changed() {
        let mut s = StateStore::new();
        for node in 0..200 {
            for sensor in ["power", "temp", "fan"] {
                cell(&mut s, 0, node, sensor).push(node as f64);
            }
        }
        let base = commit(&mut s, 0, true);
        let idle = commit(&mut s, 1, false);
        cell(&mut s, 0, 7, "temp").push(1.0);
        let one = commit(&mut s, 2, false);
        assert!(idle.len() < 48, "an idle epoch: {} bytes", idle.len());
        assert!(
            one.len() < idle.len() + 48,
            "one dirty cell: {} bytes",
            one.len()
        );
        assert!(base.len() > 600 * 26, "every cell: {} bytes", base.len());
        let restored = chain_of(&[(0, &base), (1, &idle), (2, &one)]).unwrap();
        assert_eq!(restored, s);
    }

    #[test]
    fn a_delta_applied_to_the_wrong_parent_is_rejected() {
        let ([base, first, second], _) = awkward_chain();
        assert!(chain_of(&[(0, &base), (1, &first), (2, &second)]).is_some());
        // A skipped delta, a relabeled parent, a delta alone, a base
        // where a delta belongs, and a delta read as a base.
        assert!(chain_of(&[(0, &base), (2, &second)]).is_none());
        assert!(chain_of(&[(7, &base), (1, &first)]).is_none());
        assert!(chain_of(&[(1, &first)]).is_none());
        assert!(chain_of(&[(0, &base), (1, &base)]).is_none());
        assert!(StateStore::restore(&first).is_none());
        // A base of another history at the parent's epoch.
        let mut other = awkward_store();
        cell(&mut other, 0, 99, "power").push(1.0);
        let other = other.snapshot();
        assert!(chain_of(&[(0, &other), (1, &first)]).is_none());
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let ([base, first, _], _) = awkward_chain();
        for version in [2u32, 4] {
            let mut b = base.clone();
            b[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(StateStore::restore(&resealed(b)).is_none());
            let mut d = first.clone();
            d[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(chain_of(&[(0, &base), (1, &resealed(d))]).is_none());
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

    /// A one-cell base and a one-cell delta onto it, with the offsets
    /// of every count and length in each. Values this small encode in
    /// one byte each, so the layout is fixed (and checked here).
    fn tiny_chain() -> (Vec<u8>, Vec<u8>, [usize; 5], [usize; 7]) {
        let mut s = StateStore::new();
        cell(&mut s, 0, 5, "a").push(1.0);
        let base = commit(&mut s, 0, true);
        cell(&mut s, 0, 5, "b").push(2.0);
        let delta = commit(&mut s, 1, false);
        // Header 9 | sensors 1: length, "a" | keys 1: node 5, code 0 |
        // listed 1: id 0, cells 1 | ...
        let base_counts = [9, 10, 12, 15, 17];
        // Header 9 | parent epoch 0, checksum | parent's 1 sensor and
        // 1 key | drained (10 bytes) | sensors 1: length, "b" | keys 1:
        // node 5, code 1 | listed 1: id 1, cells 1 | ...
        let delta_counts = [18, 19, 30, 31, 33, 36, 38];
        for at in base_counts {
            assert_eq!(base[at], 1, "base byte {at}");
        }
        for at in delta_counts {
            assert_eq!(delta[at], 1, "delta byte {at}");
        }
        (base, delta, base_counts, delta_counts)
    }

    /// `bytes` with the one-byte varint at `at` replaced by `value`.
    fn forged(bytes: &[u8], at: usize, value: u64) -> Vec<u8> {
        let mut varint = Vec::new();
        oda_storage::compress::put_varint(&mut varint, value);
        let mut out = bytes.to_vec();
        out.splice(at..at + 1, varint);
        resealed(out)
    }

    #[test]
    fn forged_counts_are_rejected_before_allocating() {
        let (base, delta, base_counts, delta_counts) = tiny_chain();
        for value in [
            u64::from(u32::MAX),
            u64::from(u32::MAX / 2),
            1 << 20,
            u64::MAX,
        ] {
            // A count this large would abort on allocation if it were
            // trusted; returning at all is half the assertion.
            for at in base_counts {
                let bytes = forged(&base, at, value);
                assert!(StateStore::restore(&bytes).is_none(), "base {at}");
            }
            for at in delta_counts {
                let bytes = forged(&delta, at, value);
                assert!(chain_of(&[(0, &base), (1, &bytes)]).is_none(), "delta {at}");
            }
        }
        assert!(chain_of(&[(0, &base), (1, &delta)]).is_some());
    }

    #[test]
    fn non_canonical_bodies_are_rejected() {
        let (base, delta, _, _) = tiny_chain();
        let rejected = |bytes: Vec<u8>| StateStore::restore(&resealed(bytes)).is_none();
        // Key id outside the key table (listed id 5 of 1 key).
        let mut bytes = base.clone();
        bytes[16] = 5;
        assert!(rejected(bytes));
        // Sensor code outside the sensor table.
        let mut bytes = base.clone();
        bytes[14] = 9;
        assert!(rejected(bytes));
        // A count spelled with a redundant byte: 0x81 0x00 is 1.
        let mut bytes = base.clone();
        bytes.splice(9..10, [0x81, 0x00]);
        assert!(rejected(bytes));
        // A gap cursor flag other than 0 or 1, and 1 without a window.
        for flag in [2, 1] {
            let mut bytes = base.clone();
            let at = bytes.len() - 9;
            assert_eq!(bytes[at], 0);
            bytes[at] = flag;
            assert!(rejected(bytes), "gap flag {flag}");
        }
        // Trailing bytes before the checksum, in a base and in a delta.
        let mut bytes = base.clone();
        let body = bytes.len() - 8;
        bytes.splice(body..body, [0u8; 3]);
        assert!(rejected(bytes));
        let mut bytes = delta.clone();
        let body = bytes.len() - 8;
        bytes.splice(body..body, [0u8; 3]);
        assert!(chain_of(&[(0, &base), (1, &resealed(bytes))]).is_none());
        // Two sensors, two keys: a duplicate (node, sensor) key, a
        // duplicate sensor name, invalid UTF-8.
        let mut t = StateStore::new();
        cell(&mut t, 0, 5, "a").push(1.0);
        cell(&mut t, 0, 5, "b").push(1.0);
        let two = t.snapshot();
        assert_eq!(&two[9..19], &[2, 1, b'a', 1, b'b', 2, 10, 0, 0, 1]);
        for (at, value) in [(18, 0), (13, b'a'), (11, 0xff)] {
            let mut bytes = two.clone();
            bytes[at] = value;
            assert!(rejected(bytes), "byte {at} = {value}");
        }
        // A base listing a key with no cells: a delta may, a base not.
        let empty_list = |listed: &[u8]| {
            let mut bytes = b"ODAS".to_vec();
            bytes.extend_from_slice(&3u32.to_le_bytes());
            bytes.extend_from_slice(&[0, 1, 1, b'a', 1, 10, 0]);
            bytes.extend_from_slice(listed);
            bytes.extend_from_slice(&[0, 0]);
            bytes.extend_from_slice(&[0; 8]);
            StateStore::restore(&resealed(bytes))
        };
        assert!(empty_list(&[1, 0, 0]).is_none());
        let keys_only = empty_list(&[0]).expect("a key without cells");
        assert_eq!((keys_only.keys.len(), keys_only.len()), (1, 0));
    }

    #[test]
    fn every_truncation_is_rejected() {
        let ([base, first, second], _) = awkward_chain();
        let links = [base, first, second];
        for cut in 0..links.len() {
            let bytes = &links[cut];
            for len in 0..bytes.len() {
                let mut chain: Vec<(u64, &[u8])> = links[..cut]
                    .iter()
                    .enumerate()
                    .map(|(epoch, b)| (epoch as u64, b.as_slice()))
                    .collect();
                chain.push((cut as u64, &bytes[..len]));
                assert!(chain_of(&chain).is_none(), "link {cut}, prefix {len}");
                // And with a valid checksum over the shortened body.
                if len >= 8 {
                    let sealed = resealed(bytes[..len].to_vec());
                    chain.pop();
                    chain.push((cut as u64, &sealed));
                    assert!(chain_of(&chain).is_none(), "link {cut}, resealed {len}");
                }
            }
        }
    }

    #[test]
    fn every_single_bit_flip_restores_to_nothing_or_a_valid_store() {
        let ([base, first, second], _) = awkward_chain();
        let links = [base, first, second];
        for (link, bytes) in links.iter().enumerate() {
            // The links before the flipped one, then it: a flip that
            // decodes is what recovery would continue from.
            let chain_to = |bytes: &[u8]| {
                let mut chain: Vec<(u64, &[u8])> = links[..link]
                    .iter()
                    .enumerate()
                    .map(|(epoch, b)| (epoch as u64, b.as_slice()))
                    .collect();
                chain.push((link as u64, bytes));
                chain_of(&chain)
            };
            // The whole chain, flipped link in place.
            let chain_with = |bytes: &[u8]| {
                let mut chain: Vec<(u64, &[u8])> = links
                    .iter()
                    .enumerate()
                    .map(|(epoch, b)| (epoch as u64, b.as_slice()))
                    .collect();
                chain[link].1 = bytes;
                chain_of(&chain)
            };
            for at in 0..bytes.len() {
                for bit in 0..8 {
                    let mut flipped = bytes.clone();
                    flipped[at] ^= 1 << bit;
                    assert!(chain_to(&flipped).is_none(), "link {link} byte {at}");
                    let sealed = resealed(flipped);
                    // Past the checksum the flip may land in a value (a
                    // sum, a node, the watermark) and still decode; the
                    // store must then be a valid one, and a base must
                    // re-snapshot to exactly the flipped bytes.
                    if let Some(r) = chain_to(&sealed) {
                        assert_valid(&r);
                    }
                    if link == 0 {
                        if let Some(r) = StateStore::restore(&sealed) {
                            assert_eq!(r.snapshot(), sealed, "byte {at} bit {bit}");
                        }
                    }
                    // A changed link has a new checksum, so the delta
                    // after it no longer names it as its parent. (A flip
                    // in the checksum itself reseals to the original.)
                    if link + 1 < links.len() && sealed != *bytes {
                        assert!(chain_with(&sealed).is_none(), "link {link} byte {at}");
                    }
                }
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

    /// A drained cell: its window, rendered key and bits.
    type Drained = (i64, String, (u64, u64, u64, u64));

    /// A drain of `s`, in order.
    fn drained(s: &mut StateStore, horizon: i64) -> Vec<Drained> {
        let cells = s.drain_closed(horizon).into_iter();
        cells
            .map(|(w, id, c)| {
                let (node, sensor) = s.key(id);
                (
                    w,
                    format!("{node}\u{1f}{}", s.sensor_name(sensor)),
                    bits(&c),
                )
            })
            .collect()
    }

    /// A drain of the reference, as [`drained`] renders the store's.
    fn reference_drained(r: &mut ReferenceStore, horizon: i64) -> Vec<Drained> {
        let cells = r.drain_closed(horizon).into_iter();
        cells.map(|((w, k), c)| (w, k, bits(&c))).collect()
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

        /// Differential over one long-lived store, never restored, so
        /// whatever the fold and the drains build up stays in play for
        /// the whole history: 135 keys (key ids cross two 64-bit
        /// words), interned in drawn order; rows landing up to two
        /// windows below the horizon and below a key's newest open
        /// window; drains that close up to four windows at once. The
        /// drained cells match the reference bit for bit and in order,
        /// and so does the live cell count at every step.
        #[test]
        fn matches_reference_store_over_a_long_history(
            intern_order in proptest::collection::vec(any::<u32>(), 135),
            ops in proptest::collection::vec(
                (
                    proptest::collection::vec(
                        (0usize..27, 0i64..7, proptest::collection::vec(0usize..5, 1..6)),
                        1..12,
                    ),
                    any::<f64>(),
                    0u8..3,
                    1i64..5,
                ),
                1..80,
            ),
        ) {
            const NODES: [i64; 27] = [
                2, 10, 100, 1, -1, i64::MIN, i64::MAX, 7, 70, 700, 9, 99, 999, 1000, -10,
                -100, 5, 55, 555, 12, 123, 1234, 3, 30, 300, 42, 4242,
            ];
            const SENSORS: [&str; 5] = ["p", "pp", "t", "", "é"];
            let mut new = StateStore::new();
            let mut old = ReferenceStore::default();
            let fold = |new: &mut StateStore, old: &mut ReferenceStore, w, n: usize, s: usize, v| {
                cell(new, w, NODES[n], SENSORS[s]).push(v);
                old.cell(w, NODES[n], SENSORS[s]).push(v);
            };
            let mut every: Vec<usize> = (0..135).collect();
            every.sort_by_key(|&k| intern_order[k]);
            for k in every {
                fold(&mut new, &mut old, 20, k / 5, k % 5, k as f64);
            }
            prop_assert_eq!(new.keys.len(), 135);
            let mut horizon = 0;
            for (ticks, v, action, jump) in ops {
                for (n, w, sensors) in ticks {
                    let window = horizon + (w - 2) * 10;
                    for s in sensors {
                        fold(&mut new, &mut old, window, n, s, v);
                    }
                }
                if action == 0 {
                    horizon += jump * 10;
                    let want = reference_drained(&mut old, horizon);
                    prop_assert_eq!(drained(&mut new, horizon), want);
                }
                prop_assert_eq!(new.len(), old.0.len());
                prop_assert_eq!(new.is_empty(), old.0.is_empty());
            }
            let restored = StateStore::restore(&new.snapshot()).expect("own snapshot restores");
            prop_assert_eq!(&restored, &new);
            let want = reference_drained(&mut old, i64::MAX);
            prop_assert_eq!(drained(&mut new, i64::MAX), want);
            prop_assert!(new.is_empty());
        }

        /// Hostile bytes: arbitrary garbage, and arbitrary garbage
        /// behind a valid header and checksum, never panics. As a base
        /// it restores only to something that re-encodes to the same
        /// bytes; as a delta only to a valid store.
        #[test]
        fn garbage_is_rejected_or_round_trips(
            tail in proptest::collection::vec(any::<u8>(), 0..200),
            delta_header in proptest::collection::vec(any::<u8>(), 0..24),
        ) {
            prop_assert!(StateStore::restore(&tail).is_none());
            let sealed = |kind: u8, head: &[u8]| {
                let mut bytes = b"ODAS".to_vec();
                bytes.extend_from_slice(&3u32.to_le_bytes());
                bytes.push(kind);
                bytes.extend_from_slice(head);
                bytes.extend_from_slice(&tail);
                bytes.extend_from_slice(&[0; 8]);
                resealed(bytes)
            };
            let bytes = sealed(0, &[]);
            if let Some(r) = StateStore::restore(&bytes) {
                prop_assert_eq!(r.snapshot(), bytes);
            }
            let ([base, ..], _) = awkward_chain();
            if let Some(r) = chain_of(&[(0, &base), (1, &sealed(1, &delta_header))]) {
                assert_valid(&r);
            }
        }

        /// Recovery is exact: over arbitrary histories, checkpointed at
        /// arbitrary cut points as the streaming query does (a base when
        /// the store asks for one, else a delta), the stored chain
        /// restores a store equal to the one checkpointed and to the
        /// restore of its full snapshot. Some commits are lost, so the
        /// next delta spans two epochs; some cut points carry on from
        /// the recovered store, as a rebuilt query would.
        #[test]
        fn base_plus_deltas_restore_what_a_full_snapshot_does(
            ops in proptest::collection::vec(
                (
                    0i64..8,
                    proptest::collection::vec(
                        (0usize..6, proptest::collection::vec(0usize..5, 1..6)),
                        1..3,
                    ),
                    any::<f64>(),
                    0u8..4,
                    0u8..5,
                ),
                1..60,
            ),
        ) {
            const NODES: [i64; 6] = [2, 10, 100, 1, -1, i64::MIN];
            const SENSORS: [&str; 5] = ["p", "pp", "t", "", "é"];
            let cps = CheckpointStore::new();
            let mut s = StateStore::new();
            let mut horizon = 0;
            for (w, ticks, v, drain, cut) in ops {
                let mut hint = KeyHint::default();
                for (n, sensors) in ticks {
                    for sensor in sensors {
                        let code = s.sensor_code(SENSORS[sensor]);
                        let id = s.key_id(NODES[n], code, &mut hint);
                        s.cell_at(w * 10, id).push(v);
                    }
                }
                if drain == 0 {
                    horizon += 10;
                    s.drain_closed(horizon);
                }
                let state = s.checkpoint(cps.wants_base());
                if cut == 0 {
                    continue; // the commit is lost
                }
                let epoch = cps.len() as u64;
                cps.commit(Checkpoint { epoch, offsets: BTreeMap::new(), state });
                s.committed(epoch);
                let chain = cps.chain();
                let links = chain.iter().map(|cp| (cp.epoch, cp.state.as_slice()));
                let restored = StateStore::restore_chain(links).expect("own chain restores");
                prop_assert_eq!(&restored, &s);
                prop_assert_eq!(&StateStore::restore(&s.snapshot()).unwrap(), &s);
                if cut == 1 {
                    s = restored;
                }
            }
        }
    }
}
