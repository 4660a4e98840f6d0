//! Snapshot version 3: the bytes of a state checkpoint, base or delta.
//!
//! A *base* holds the whole store. A *delta* holds what changed since
//! the checkpoint it names as its parent: the sensors and keys interned
//! since (both tables only ever grow), the furthest horizon drained, the
//! whole open-cell list of every key whose cells were handed out, and
//! the watermark and gap cursor. Both share one body, so one writer and
//! one reader serve both, and a base is the body of a delta from the
//! empty store. Integers are LEB128 varints, zigzagged when signed;
//! floats are their 8 raw little-endian bytes:
//!
//! ```text
//! magic "ODAS" | version u32 LE = 3 | kind u8: 0 base, 1 delta
//! delta only   parent epoch | parent checksum u64 LE
//!              | parent's sensor count | parent's key count
//!              | drained horizon (signed; i64::MIN when none)
//! sensors      count | per new sensor, in code order: length, UTF-8
//! keys         count | per new key, in id order: node (signed, minus
//!              the previous new key's node, the first minus 0), code
//! cells        key count | per key, ascending by id:
//!              id minus (previous listed id + 1) (the first: id),
//!              cell count, then per cell, ascending by window:
//!              window, sum bits, count, min bits, max bits
//! watermark    signed
//! gap cursor   0, or 1 then the window (signed)
//! checksum     u64 LE over every preceding byte
//! ```
//!
//! A key's first window is written as its difference from the previous
//! listed key's first window (the first key's from 0), signed; each
//! later one as its distance from the one before, less one, so windows
//! ascend by construction. A base lists every key that has an open cell;
//! a delta lists every key marked dirty, with its whole list (which may
//! now be empty). Before a delta's body is applied every key drops the
//! cells below the drained horizon, as the drains did, and then each
//! listed key's list replaces its own.
//!
//! Reading is total: any input yields a store or `None`, never a panic,
//! and no count is trusted before the bytes that must carry it are
//! checked, so nothing allocated is larger than a constant times the
//! input. Every varint must be minimal, so what is accepted re-encodes
//! to the same bytes.

#![deny(clippy::indexing_slicing, clippy::unwrap_used)]

use super::{CellState, KeyId, OpenCells, Parent, StateStore};
use oda_storage::compress::{put_varint, unzigzag, zigzag};

const MAGIC: &[u8; 4] = b"ODAS";
const VERSION: u32 = 3;
const BASE: u8 = 0;
const DELTA: u8 = 1;
/// Magic, version and kind.
const HEADER_BYTES: usize = 9;
/// The fewest bytes one encoded cell takes: a one-byte window and
/// count, and three floats.
const MIN_CELL_BYTES: usize = 1 + 8 + 1 + 8 + 8;
/// The most bytes one encoded cell takes.
const MAX_CELL_BYTES: usize = 10 + 8 + 10 + 8 + 8;

/// Whether `bytes` claim to be a delta (checked no further).
pub(crate) fn is_delta(bytes: &[u8]) -> bool {
    bytes.get(..HEADER_BYTES) == Some(&header(DELTA)[..])
}

fn header(kind: u8) -> [u8; HEADER_BYTES] {
    let [m0, m1, m2, m3] = *MAGIC;
    let [v0, v1, v2, v3] = VERSION.to_le_bytes();
    [m0, m1, m2, m3, v0, v1, v2, v3, kind]
}

/// `store` as a delta onto `parent`, or as a base when `parent` is
/// `None`, and the checksum that seals the bytes.
pub(super) fn encode(store: &StateStore, parent: Option<Parent>) -> (Vec<u8>, u64) {
    // A base lists the keys with open cells; a delta the dirty ones.
    match parent {
        None => {
            let open = store.cells.iter().enumerate();
            write(store, None, open.filter(|(_, cells)| !cells.is_empty()))
        }
        Some(_) => {
            let dirty = store.changes.dirty_keys();
            write(
                store,
                parent,
                dirty.filter_map(|id| Some((id, store.cells.get(id)?))),
            )
        }
    }
}

/// Encode `store` listing the cells of `listed` (ascending key ids).
fn write<'a>(
    store: &'a StateStore,
    parent: Option<Parent>,
    listed: impl Iterator<Item = (usize, &'a OpenCells)> + Clone,
) -> (Vec<u8>, u64) {
    let changes = &store.changes;
    let (sensors, keys) = match parent {
        Some(_) => (changes.sensors, changes.keys),
        None => (0, 0),
    };
    let sensors = store.sensors.entries().get(sensors..).unwrap_or_default();
    let keys = store.keys.get(keys..).unwrap_or_default();
    let (listed_keys, cells) = listed.clone().fold((0, 0), |(keys, cells), (_, open)| {
        (keys + 1, cells + open.len())
    });
    // The header, the three section counts and the tail take at most
    // 9 + 48 + 30 + 29 bytes; every other entry is bounded here.
    let size = 128
        + sensors.iter().map(|s| 10 + s.len()).sum::<usize>()
        + keys.len() * 15
        + listed_keys * 20
        + cells * MAX_CELL_BYTES;
    let mut out = Vec::with_capacity(size);
    match parent {
        None => out.extend_from_slice(&header(BASE)),
        Some(parent) => {
            out.extend_from_slice(&header(DELTA));
            put_varint(&mut out, parent.epoch);
            out.extend_from_slice(&parent.sum.to_le_bytes());
            put_varint(&mut out, changes.sensors as u64);
            put_varint(&mut out, changes.keys as u64);
            put_varint(&mut out, zigzag(changes.drained));
        }
    }
    put_varint(&mut out, sensors.len() as u64);
    for name in sensors {
        put_varint(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
    }
    put_varint(&mut out, keys.len() as u64);
    let mut node = 0;
    for &(next, sensor) in keys {
        put_varint(&mut out, zigzag(next.wrapping_sub(node)));
        put_varint(&mut out, u64::from(sensor));
        node = next;
    }
    put_varint(&mut out, listed_keys as u64);
    let (mut next_id, mut first) = (0, 0);
    for (id, cells) in listed {
        put_varint(&mut out, (id - next_id) as u64);
        next_id = id + 1;
        put_varint(&mut out, cells.len() as u64);
        let mut prev: Option<i64> = None;
        for (window, cell) in cells.iter() {
            match prev {
                None => {
                    put_varint(&mut out, zigzag(window.wrapping_sub(first)));
                    first = *window;
                }
                Some(prev) => put_varint(&mut out, window.abs_diff(prev) - 1),
            }
            prev = Some(*window);
            out.extend_from_slice(&cell.sum.to_bits().to_le_bytes());
            put_varint(&mut out, cell.count);
            out.extend_from_slice(&cell.min.to_bits().to_le_bytes());
            out.extend_from_slice(&cell.max.to_bits().to_le_bytes());
        }
    }
    put_varint(&mut out, zigzag(store.wm_ms));
    match store.gap_next {
        None => out.push(0),
        Some(window) => {
            out.push(1);
            put_varint(&mut out, zigzag(window));
        }
    }
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    debug_assert!(out.len() <= size, "{} > {size}", out.len());
    (out, sum)
}

/// Restore the store a chain of `(epoch, bytes)` checkpoints describes:
/// a base, then deltas, each naming the one before as its parent.
///
/// The drains are applied once, at the end, rather than as each delta
/// is read: a key owes the drains of the deltas after the one that last
/// listed it (a listed list already has its own epoch's drain applied),
/// and drains compose to the furthest of them. So recovery costs one
/// pass over the keys however many deltas the chain holds.
pub(super) fn decode_chain<'a>(
    chain: impl IntoIterator<Item = (u64, &'a [u8])>,
) -> Option<StateStore> {
    let mut store = StateStore::new();
    let mut parent: Option<Parent> = None;
    // The drained horizon of each delta, in chain order, and per key
    // how many of those horizons its last listing already reflects.
    let mut horizons = Vec::new();
    let mut listed_after = Vec::new();
    for (epoch, bytes) in chain {
        let (body, seal) = bytes.split_at_checked(bytes.len().checked_sub(8)?)?;
        let sum = u64::from_le_bytes(seal.try_into().ok()?);
        if sum != checksum(body) {
            return None;
        }
        let mut r = Reader(body);
        let kind = match parent {
            None => BASE,
            Some(_) => DELTA,
        };
        if r.take(HEADER_BYTES)? != header(kind) {
            return None;
        }
        if let Some(parent) = parent {
            let named = Parent {
                epoch: r.varint()?,
                sum: r.u64()?,
            };
            if named != parent || r.len()? != store.sensors.len() || r.len()? != store.keys.len() {
                return None;
            }
            horizons.push(r.signed()?);
        }
        body_into(
            &mut r,
            &mut store,
            kind == BASE,
            &mut listed_after,
            horizons.len(),
        )?;
        if !r.0.is_empty() {
            return None;
        }
        parent = Some(Parent { epoch, sum });
    }
    // The furthest horizon drained after each point in the chain.
    let mut drained_after: Vec<i64> = (horizons.iter().rev())
        .scan(i64::MIN, |furthest, &horizon| {
            *furthest = horizon.max(*furthest);
            Some(*furthest)
        })
        .collect();
    drained_after.reverse();
    drained_after.push(i64::MIN);
    store.windows.clear();
    for (id, (open, &after)) in store.cells.iter_mut().zip(&listed_after).enumerate() {
        let horizon = drained_after.get(after).copied().unwrap_or(i64::MIN);
        open.drain_below(horizon).for_each(drop);
        let id = KeyId(u32::try_from(id).ok()?);
        for &(window, _) in open.iter() {
            store.windows.entry(window).or_default().push(id);
        }
    }
    let changes = &mut store.changes;
    changes.parent = Some(parent?);
    changes.sensors = store.sensors.len();
    changes.keys = store.keys.len();
    Some(store)
}

/// Apply one body to `store`: intern its sensors and keys, then replace
/// the cell list of every key it lists, noting in `listed_after` that
/// the listed keys owe only drains past the first `drains`. In a base
/// every listed key must hold a cell.
fn body_into(
    r: &mut Reader,
    store: &mut StateStore,
    base: bool,
    listed_after: &mut Vec<usize>,
    drains: usize,
) -> Option<()> {
    for _ in 0..r.count(1)? {
        let code = store.sensors.len();
        // A duplicate name interns to an earlier code.
        if store.sensors.intern(r.str()?) as usize != code {
            return None;
        }
    }
    let mut node = 0i64;
    for _ in 0..r.count(2)? {
        node = node.wrapping_add(r.signed()?);
        let sensor = u32::try_from(r.varint()?).ok()?;
        if sensor as usize >= store.sensors.len() {
            return None;
        }
        store.append_key(node, sensor)?;
    }
    listed_after.resize(store.keys.len(), 0);
    let (mut next_id, mut first) = (0usize, 0i64);
    for _ in 0..r.count(2)? {
        let id = next_id.checked_add(r.len()?)?;
        next_id = id.checked_add(1)?;
        let n = r.count(MIN_CELL_BYTES)?;
        if base && n == 0 {
            return None;
        }
        let open = store.cells.get_mut(id)?;
        *listed_after.get_mut(id)? = drains;
        open.older.clear();
        open.older.reserve_exact(n);
        let mut prev: Option<i64> = None;
        for _ in 0..n {
            let window = match prev {
                None => {
                    first = first.wrapping_add(r.signed()?);
                    first
                }
                Some(prev) => prev.checked_add_unsigned(r.varint()?.checked_add(1)?)?,
            };
            prev = Some(window);
            let cell = CellState {
                sum: f64::from_bits(r.u64()?),
                count: r.varint()?,
                min: f64::from_bits(r.u64()?),
                max: f64::from_bits(r.u64()?),
            };
            open.older.push((window, cell));
        }
        // The last window read is the largest: it goes inline.
        open.newest = open.older.pop();
    }
    store.wm_ms = r.signed()?;
    store.gap_next = match r.take(1)? {
        [0] => None,
        [1] => Some(r.signed()?),
        _ => return None,
    };
    Some(())
}

/// Bounds-checked cursor over untrusted snapshot bytes.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A minimal LEB128 varint: no value spelled with a trailing zero
    /// byte or past 64 bits.
    fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let (&byte, rest) = self.0.split_first()?;
            self.0 = rest;
            if shift == 63 && byte > 1 {
                return None;
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return (byte != 0 || shift == 0).then_some(v);
            }
        }
        None
    }

    fn signed(&mut self) -> Option<i64> {
        self.varint().map(unzigzag)
    }

    fn len(&mut self) -> Option<usize> {
        usize::try_from(self.varint()?).ok()
    }

    /// An entry count whose entries take at least `min_bytes` each:
    /// rejected unless that many can still fit in what remains, so a
    /// forged count never sizes an allocation beyond the input.
    fn count(&mut self, min_bytes: usize) -> Option<usize> {
        let n = self.len()?;
        (n <= self.0.len() / min_bytes).then_some(n)
    }

    fn str(&mut self) -> Option<&'a str> {
        let len = self.len()?;
        std::str::from_utf8(self.take(len)?).ok()
    }
}

/// Snapshot checksum: four rotate-xor-multiply lanes over interleaved
/// little-endian 8-byte words, folded together with the length and the
/// tail. Four independent multiply chains rather than one, so the fold
/// keeps pace with writing the bytes. Each step is a bijection of its
/// lane and of its word, so any change confined to one word always
/// changes the result. Guards against torn or bit-rotted checkpoints,
/// not forgery.
pub(super) fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let step = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
    let word = |w: &[u8]| {
        let mut le = [0; 8];
        le.copy_from_slice(w);
        u64::from_le_bytes(le)
    };
    let mut lanes = [K, K ^ 1, K ^ 2, K ^ 3];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, word(w));
        }
    }
    let h = lanes.into_iter().fold(step(K, bytes.len() as u64), step);
    let mut words = blocks.remainder().chunks_exact(8);
    let h = (&mut words).fold(h, |h, w| step(h, word(w)));
    words
        .remainder()
        .iter()
        .fold(h, |h, &b| step(h, u64::from(b)))
}
