//! `colfile` — a column-oriented table file format (Parquet analogue).
//!
//! Layout: `"OCF1"` magic, then row groups (each column encoded via
//! [`crate::encoding`] and compressed via [`crate::compress`]), then any
//! secondary-index sections (binary, see [`crate::index`], compressed
//! the same way), then a JSON footer describing schema, chunk and index
//! locations, and per-chunk min/max statistics, then the footer length
//! and trailing magic. Readers parse the footer first and fetch only the
//! chunks a query needs — min/max stats give row-group–level predicate
//! pushdown.

use crate::buffer::Buffer;
use crate::compress::{compress, decompress};
use crate::encoding::{
    decode_dict, decode_f64, decode_i64, decode_str, encode_dict, encode_f64, encode_i64,
    encode_str,
};
use crate::error::StorageError;
use crate::index::ColumnIndex;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

const MAGIC: &[u8; 4] = b"OCF1";

/// Row groups at least this tall encode their columns in parallel;
/// smaller groups stay serial (thread spawn would dominate).
const PARALLEL_ENCODE_ROWS: usize = 4_096;

/// Logical column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnType {
    /// 64-bit signed integer (also used for timestamps in ms).
    I64,
    /// 64-bit float.
    F64,
    /// UTF-8 string.
    Str,
    /// Dictionary-encoded string (categorical).
    Dict,
}

/// Column values for one row group.
///
/// Every variant holds a shared [`Buffer`] view, so cloning a column —
/// and by extension selecting, slicing, or concatenating frames built
/// on top of it — bumps a refcount instead of copying element data.
/// Buffers are immutable; new contents mean a new column.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Integer values.
    I64(Buffer<i64>),
    /// Float values.
    F64(Buffer<f64>),
    /// String values.
    Str(Buffer<String>),
    /// Dictionary-encoded strings: row i's value is `dict[codes[i]]`.
    /// The dictionary is shared (`Arc`) so gathers and concats move
    /// 4-byte codes instead of cloning strings.
    Dict {
        /// Distinct values, in code order.
        dict: Arc<Vec<String>>,
        /// Per-row indexes into `dict`.
        codes: Buffer<u32>,
    },
}

impl ColumnData {
    /// Build a dictionary column from distinct entries and per-row codes.
    pub fn dict(dict: Vec<String>, codes: Vec<u32>) -> ColumnData {
        ColumnData::Dict {
            dict: Arc::new(dict),
            codes: codes.into(),
        }
    }

    /// A zero-copy window of `len` rows starting at `offset`.
    ///
    /// # Panics
    /// If `offset + len` exceeds the column length.
    pub fn slice(&self, offset: usize, len: usize) -> ColumnData {
        match self {
            ColumnData::I64(v) => ColumnData::I64(v.slice(offset, len)),
            ColumnData::F64(v) => ColumnData::F64(v.slice(offset, len)),
            ColumnData::Str(v) => ColumnData::Str(v.slice(offset, len)),
            ColumnData::Dict { dict, codes } => ColumnData::Dict {
                dict: Arc::clone(dict),
                codes: codes.slice(offset, len),
            },
        }
    }

    /// True when both columns view the same underlying allocation (for
    /// `Dict`, the same code buffer and the same dictionary).
    pub fn ptr_eq(&self, other: &ColumnData) -> bool {
        match (self, other) {
            (ColumnData::I64(a), ColumnData::I64(b)) => a.ptr_eq(b),
            (ColumnData::F64(a), ColumnData::F64(b)) => a.ptr_eq(b),
            (ColumnData::Str(a), ColumnData::Str(b)) => a.ptr_eq(b),
            (
                ColumnData::Dict {
                    dict: da,
                    codes: ca,
                },
                ColumnData::Dict {
                    dict: db,
                    codes: cb,
                },
            ) => Arc::ptr_eq(da, db) && ca.ptr_eq(cb),
            _ => false,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::I64(v) => v.len(),
            ColumnData::F64(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Dict { codes, .. } => codes.len(),
        }
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's logical type.
    pub fn column_type(&self) -> ColumnType {
        match self {
            ColumnData::I64(_) => ColumnType::I64,
            ColumnData::F64(_) => ColumnType::F64,
            ColumnData::Str(_) => ColumnType::Str,
            ColumnData::Dict { .. } => ColumnType::Dict,
        }
    }
}

/// Equality is logical, not representational: a `Str` column and a
/// `Dict` column are equal when they hold the same string sequence, and
/// two `Dict` columns compare by values, not by dictionary layout.
/// Numeric columns keep IEEE semantics (`NaN != NaN`).
impl PartialEq for ColumnData {
    fn eq(&self, other: &ColumnData) -> bool {
        match (self, other) {
            (ColumnData::I64(a), ColumnData::I64(b)) => a == b,
            (ColumnData::F64(a), ColumnData::F64(b)) => a == b,
            (ColumnData::Str(a), ColumnData::Str(b)) => a == b,
            (
                ColumnData::Dict {
                    dict: da,
                    codes: ca,
                },
                ColumnData::Dict {
                    dict: db,
                    codes: cb,
                },
            ) => {
                ca.len() == cb.len()
                    && ca
                        .iter()
                        .zip(cb)
                        .all(|(&x, &y)| da[x as usize] == db[y as usize])
            }
            (ColumnData::Str(a), ColumnData::Dict { dict, codes })
            | (ColumnData::Dict { dict, codes }, ColumnData::Str(a)) => {
                a.len() == codes.len() && a.iter().zip(codes).all(|(s, &c)| *s == dict[c as usize])
            }
            _ => false,
        }
    }
}

/// Schema: ordered (name, type) pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableSchema {
    /// Ordered column definitions.
    pub columns: Vec<(String, ColumnType)>,
}

impl TableSchema {
    /// Build a schema from (name, type) pairs.
    pub fn new(columns: &[(&str, ColumnType)]) -> Self {
        TableSchema {
            columns: columns.iter().map(|(n, t)| (n.to_string(), *t)).collect(),
        }
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }
}

/// Min/max statistics of one chunk, used for predicate pushdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChunkStats {
    /// Integer bounds.
    I64 {
        /// Minimum value in the chunk.
        min: i64,
        /// Maximum value in the chunk.
        max: i64,
    },
    /// Float bounds (NaN values are excluded from the bounds).
    F64 {
        /// Minimum non-NaN value.
        min: f64,
        /// Maximum non-NaN value.
        max: f64,
    },
    /// No statistics (strings, or all-NaN chunks).
    None,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ChunkMeta {
    offset: usize,
    len: usize,
    stats: ChunkStats,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct RowGroupMeta {
    rows: usize,
    chunks: Vec<ChunkMeta>,
}

/// Location of one serialized [`ColumnIndex`] in the data region.
///
/// Absent from files written without indexes — the field is skipped when
/// empty so index-free output stays byte-identical to the pre-index
/// format, and old footers parse via the default.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct IndexMeta {
    column: String,
    offset: usize,
    len: usize,
}

#[derive(Debug, Clone)]
struct Footer {
    schema: TableSchema,
    row_groups: Vec<RowGroupMeta>,
    /// Secondary-index locations; empty for unindexed files.
    indexes: Vec<IndexMeta>,
}

// Hand-rolled so `indexes` is optional on both sides: omitted from the
// serialized footer when empty (index-free output stays byte-identical
// to the pre-index format) and defaulted when absent (old files parse).
impl Serialize for Footer {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("schema".to_string(), self.schema.to_value()),
            ("row_groups".to_string(), self.row_groups.to_value()),
        ];
        if !self.indexes.is_empty() {
            fields.push(("indexes".to_string(), self.indexes.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for Footer {
    fn from_value(v: &serde::Value) -> Option<Self> {
        Some(Footer {
            schema: Deserialize::from_value(serde::obj_get(v, "schema")?)?,
            row_groups: Deserialize::from_value(serde::obj_get(v, "row_groups")?)?,
            indexes: match serde::obj_get(v, "indexes") {
                Some(raw) => Deserialize::from_value(raw)?,
                None => Vec::new(),
            },
        })
    }
}

/// Writer accumulating row groups into an in-memory file.
#[derive(Debug)]
pub struct TableWriter {
    schema: TableSchema,
    buf: Vec<u8>,
    row_groups: Vec<RowGroupMeta>,
    /// (column position, name, accumulating index) for opted-in columns.
    indexes: Vec<(usize, String, ColumnIndex)>,
}

fn stats_of(data: &ColumnData) -> ChunkStats {
    match data {
        ColumnData::I64(v) => match (v.iter().min(), v.iter().max()) {
            (Some(&min), Some(&max)) => ChunkStats::I64 { min, max },
            _ => ChunkStats::None,
        },
        ColumnData::F64(v) => {
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            let mut seen = false;
            for &x in v {
                if !x.is_nan() {
                    min = min.min(x);
                    max = max.max(x);
                    seen = true;
                }
            }
            if seen {
                ChunkStats::F64 { min, max }
            } else {
                ChunkStats::None
            }
        }
        ColumnData::Str(_) | ColumnData::Dict { .. } => ChunkStats::None,
    }
}

/// `Str` and `Dict` are interchangeable on write: both are string
/// columns, and the page encoder produces identical bytes for either
/// representation of the same values.
fn type_compatible(data: ColumnType, schema: ColumnType) -> bool {
    data == schema
        || matches!(
            (data, schema),
            (ColumnType::Str, ColumnType::Dict) | (ColumnType::Dict, ColumnType::Str)
        )
}

impl TableWriter {
    /// Start a file with `schema`.
    pub fn new(schema: TableSchema) -> Self {
        TableWriter {
            schema,
            buf: MAGIC.to_vec(),
            row_groups: Vec::new(),
            indexes: Vec::new(),
        }
    }

    /// Opt a categorical (`Str`/`Dict`) column into secondary indexing:
    /// every row group written afterwards contributes `value → row
    /// bitmap` postings, serialized beside the footer by [`finish`].
    /// Must be called before the first `write_row_group`. Indexing is
    /// opt-in so default output stays byte-identical to unindexed files.
    ///
    /// [`finish`]: TableWriter::finish
    pub fn index_column(&mut self, name: &str) -> Result<(), StorageError> {
        let pos = self
            .schema
            .index_of(name)
            .ok_or_else(|| StorageError::NotFound(format!("column {name}")))?;
        match self.schema.columns[pos].1 {
            ColumnType::Str | ColumnType::Dict => {}
            other => {
                return Err(StorageError::SchemaMismatch {
                    expected: format!("{name}: Str or Dict"),
                    got: format!("{name}: {other:?}"),
                })
            }
        }
        if !self.row_groups.is_empty() {
            return Err(StorageError::Corrupt(
                "index_column must precede write_row_group".into(),
            ));
        }
        if self.indexes.iter().all(|(p, _, _)| *p != pos) {
            self.indexes
                .push((pos, name.to_string(), ColumnIndex::new()));
        }
        Ok(())
    }

    /// Append one row group. Columns must match the schema in order,
    /// type, and length.
    pub fn write_row_group(&mut self, columns: &[ColumnData]) -> Result<(), StorageError> {
        if columns.len() != self.schema.columns.len() {
            return Err(StorageError::SchemaMismatch {
                expected: format!("{} columns", self.schema.columns.len()),
                got: format!("{} columns", columns.len()),
            });
        }
        let rows = columns.first().map_or(0, ColumnData::len);
        for (data, (name, ty)) in columns.iter().zip(&self.schema.columns) {
            if !type_compatible(data.column_type(), *ty) {
                return Err(StorageError::SchemaMismatch {
                    expected: format!("{name}: {ty:?}"),
                    got: format!("{name}: {:?}", data.column_type()),
                });
            }
            if data.len() != rows {
                return Err(StorageError::SchemaMismatch {
                    expected: format!("{rows} rows"),
                    got: format!("{name}: {} rows", data.len()),
                });
            }
            if let ColumnData::Dict { dict, codes } = data {
                if codes.iter().any(|&c| c as usize >= dict.len()) {
                    return Err(StorageError::Corrupt(format!(
                        "{name}: dict code out of range"
                    )));
                }
            }
        }
        // Encode + compress columns in parallel (striped like the
        // executor's worker pool), then append serially in column
        // order — per-column output is deterministic, so the file is
        // byte-identical whatever the worker count.
        let encode_one = |data: &ColumnData| -> (Vec<u8>, ChunkStats) {
            let encoded = match data {
                ColumnData::I64(v) => encode_i64(v),
                ColumnData::F64(v) => encode_f64(v),
                ColumnData::Str(v) => encode_str(v),
                ColumnData::Dict { dict, codes } => encode_dict(dict, codes),
            };
            (compress(&encoded), stats_of(data))
        };
        let workers = if rows >= PARALLEL_ENCODE_ROWS {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(columns.len())
        } else {
            1
        };
        // Worker `w` takes every `workers`-th column from `w`. The calling
        // thread takes the last stripe instead of waiting, on its own warm
        // match table; with one worker nothing is spawned.
        let stripe = |w: usize| {
            let columns = columns.iter().enumerate().skip(w).step_by(workers);
            columns
                .map(|(i, data)| (i, encode_one(data)))
                .collect::<Vec<_>>()
        };
        let mut slots: Vec<Option<(Vec<u8>, ChunkStats)>> = Vec::new();
        slots.resize_with(columns.len(), || None);
        std::thread::scope(|scope| {
            let stripe = &stripe;
            let handles: Vec<_> = (0..workers - 1)
                .map(|w| scope.spawn(move || stripe(w)))
                .collect();
            let own = stripe(workers - 1);
            let joined = handles
                .into_iter()
                .flat_map(|handle| handle.join().expect("column encoder panicked"));
            for (i, out) in joined.chain(own) {
                slots[i] = Some(out);
            }
        });
        let encoded = slots.into_iter().map(|s| s.expect("every column encoded"));
        let mut chunks = Vec::with_capacity(columns.len());
        for (compressed, stats) in encoded {
            let offset = self.buf.len();
            self.buf.extend_from_slice(&compressed);
            chunks.push(ChunkMeta {
                offset,
                len: compressed.len(),
                stats,
            });
        }
        let group = self.row_groups.len();
        for (pos, _, index) in &mut self.indexes {
            match &columns[*pos] {
                ColumnData::Str(v) => index.add_group(group, rows, v.iter().map(String::as_str)),
                ColumnData::Dict { dict, codes } => index.add_group(
                    group,
                    rows,
                    codes.iter().map(|&c| dict[c as usize].as_str()),
                ),
                // Unreachable: index_column checked the schema type and
                // the type check above enforced it for this group.
                _ => {}
            }
        }
        self.row_groups.push(RowGroupMeta { rows, chunks });
        Ok(())
    }

    /// Finalize: append the index sections and the footer and return
    /// the file bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let mut index_meta = Vec::with_capacity(self.indexes.len());
        for (_, name, index) in &self.indexes {
            let compressed = compress(&index.to_bytes());
            index_meta.push(IndexMeta {
                column: name.clone(),
                offset: self.buf.len(),
                len: compressed.len(),
            });
            self.buf.extend_from_slice(&compressed);
        }
        let footer = Footer {
            schema: self.schema,
            row_groups: self.row_groups,
            indexes: index_meta,
        };
        let footer_json = serde_json::to_vec(&footer).expect("footer serializes");
        self.buf.extend_from_slice(&footer_json);
        self.buf
            .extend_from_slice(&(footer_json.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(MAGIC);
        self.buf
    }
}

/// A parsed table file ready for reads.
#[derive(Debug, Clone)]
pub struct TableFile {
    bytes: Vec<u8>,
    footer: Footer,
    /// One slot per `footer.indexes` entry: the section decoded on first
    /// use, so every later lookup borrows it.
    decoded_indexes: Vec<OnceLock<Result<ColumnIndex, StorageError>>>,
}

impl TableFile {
    /// Convenience: a writer for `schema`.
    pub fn writer(schema: TableSchema) -> TableWriter {
        TableWriter::new(schema)
    }

    /// Parse a file produced by [`TableWriter::finish`].
    ///
    /// The footer is validated here, once: every row group carries one
    /// chunk per schema column and every chunk lies inside the data
    /// region, so the readers can index it without further checks.
    pub fn open(bytes: Vec<u8>) -> Result<TableFile, StorageError> {
        let n = bytes.len();
        if n < MAGIC.len() * 2 + 8 || &bytes[..4] != MAGIC || &bytes[n - 4..] != MAGIC {
            return Err(StorageError::Corrupt("bad magic".into()));
        }
        let footer_len = u64::from_le_bytes(bytes[n - 12..n - 4].try_into().expect("8 bytes"));
        // The data region is everything between the leading magic and
        // the footer.
        let data_end = usize::try_from(footer_len)
            .ok()
            .and_then(|len| (n - 12).checked_sub(len))
            .filter(|&end| end >= MAGIC.len())
            .ok_or_else(|| StorageError::Corrupt("footer length exceeds file".into()))?;
        let footer: Footer = serde_json::from_slice(&bytes[data_end..n - 12])
            .map_err(|e| StorageError::Corrupt(format!("footer parse: {e}")))?;
        let columns = footer.schema.columns.len();
        for (g, group) in footer.row_groups.iter().enumerate() {
            if group.chunks.len() != columns {
                return Err(StorageError::Corrupt(format!(
                    "row group {g} has {} chunks for {columns} columns",
                    group.chunks.len()
                )));
            }
            let inside = |c: &ChunkMeta| {
                c.offset >= MAGIC.len()
                    && c.offset.checked_add(c.len).is_some_and(|e| e <= data_end)
            };
            if !group.chunks.iter().all(inside) {
                return Err(StorageError::Corrupt(format!(
                    "row group {g} has a chunk outside the data region"
                )));
            }
        }
        let decoded_indexes = footer.indexes.iter().map(|_| OnceLock::new()).collect();
        Ok(TableFile {
            bytes,
            footer,
            decoded_indexes,
        })
    }

    /// The file's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.footer.schema
    }

    /// Number of row groups.
    pub fn row_group_count(&self) -> usize {
        self.footer.row_groups.len()
    }

    /// Total rows across row groups.
    pub fn num_rows(&self) -> usize {
        self.footer.row_groups.iter().map(|g| g.rows).sum()
    }

    /// Rows in one row group.
    pub fn row_group_rows(&self, group: usize) -> Option<usize> {
        self.footer.row_groups.get(group).map(|g| g.rows)
    }

    /// Size of the file in bytes.
    pub fn byte_size(&self) -> usize {
        self.bytes.len()
    }

    /// Read one column of one row group.
    pub fn read_column(&self, group: usize, column: usize) -> Result<ColumnData, StorageError> {
        let g = self
            .footer
            .row_groups
            .get(group)
            .ok_or_else(|| StorageError::NotFound(format!("row group {group}")))?;
        let meta = g
            .chunks
            .get(column)
            .ok_or_else(|| StorageError::NotFound(format!("column {column}")))?;
        // `open` checked one chunk per column, each inside the file.
        let (_, ty) = &self.footer.schema.columns[column];
        let raw = decompress(&self.bytes[meta.offset..meta.offset + meta.len])?;
        match ty {
            ColumnType::I64 => Ok(ColumnData::I64(decode_i64(&raw, g.rows)?.into())),
            ColumnType::F64 => Ok(ColumnData::F64(decode_f64(&raw, g.rows)?.into())),
            ColumnType::Str => Ok(ColumnData::Str(decode_str(&raw, g.rows)?.into())),
            ColumnType::Dict => {
                let (dict, codes) = decode_dict(&raw, g.rows)?;
                Ok(ColumnData::Dict {
                    dict: Arc::new(dict),
                    codes: codes.into(),
                })
            }
        }
    }

    /// Read a whole row group.
    pub fn read_row_group(&self, group: usize) -> Result<Vec<ColumnData>, StorageError> {
        (0..self.footer.schema.columns.len())
            .map(|c| self.read_column(group, c))
            .collect()
    }

    /// Stats of one chunk.
    pub fn chunk_stats(&self, group: usize, column: usize) -> Option<&ChunkStats> {
        self.footer
            .row_groups
            .get(group)?
            .chunks
            .get(column)
            .map(|c| &c.stats)
    }

    /// True when `column` carries a secondary index.
    pub fn has_index(&self, column: &str) -> bool {
        self.footer.indexes.iter().any(|m| m.column == column)
    }

    /// The secondary index of `column`, if the file carries one. The
    /// section is decompressed and decoded on the first call for that
    /// column and borrowed by every later one; a corrupt section is an
    /// error on every call.
    pub fn read_index(&self, column: &str) -> Result<Option<&ColumnIndex>, StorageError> {
        let Some((meta, slot)) = self
            .footer
            .indexes
            .iter()
            .zip(&self.decoded_indexes)
            .find(|(m, _)| m.column == column)
        else {
            return Ok(None);
        };
        slot.get_or_init(|| self.decode_index(meta))
            .as_ref()
            .map(Some)
            .map_err(Clone::clone)
    }

    fn decode_index(&self, meta: &IndexMeta) -> Result<ColumnIndex, StorageError> {
        let section = meta
            .offset
            .checked_add(meta.len)
            .and_then(|end| self.bytes.get(meta.offset..end))
            .ok_or_else(|| {
                StorageError::Corrupt(format!("index for {} exceeds file", meta.column))
            })?;
        let group_rows: Vec<usize> = self.footer.row_groups.iter().map(|g| g.rows).collect();
        ColumnIndex::from_bytes(&decompress(section)?, &group_rows)
    }

    /// Row groups whose `column` stats intersect `[lo, hi]` — predicate
    /// pushdown for numeric range scans. Groups without stats are always
    /// included (they might match).
    pub fn row_groups_in_range(&self, column: &str, lo: f64, hi: f64) -> Vec<usize> {
        let Some(col) = self.footer.schema.index_of(column) else {
            return Vec::new();
        };
        self.footer
            .row_groups
            .iter()
            .enumerate()
            .filter(|(_, g)| match &g.chunks[col].stats {
                ChunkStats::I64 { min, max } => *max as f64 >= lo && *min as f64 <= hi,
                ChunkStats::F64 { min, max } => *max >= lo && *min <= hi,
                ChunkStats::None => true,
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// A memoizing per-chunk decoder over a [`TableFile`].
///
/// `column(group, col)` decompresses and decodes a chunk at most once
/// per `LazyTable`; repeat requests clone the cached [`ColumnData`],
/// which with buffer-backed columns is a refcount bump. The planner
/// holds one of these per scan so predicate evaluation and projection
/// hit the same decode, and pruning skips decode work entirely — not
/// just IO.
///
/// Decode happens under the cache lock: callers are scan executors
/// whose per-chunk work dwarfs lock hold time, and single-decode
/// semantics keep the `chunks_decoded` counter exact (the pruning
/// proptests assert on it).
#[derive(Debug)]
pub struct LazyTable {
    table: Arc<TableFile>,
    cache: std::sync::Mutex<std::collections::BTreeMap<(usize, usize), ColumnData>>,
    decoded: std::sync::atomic::AtomicU64,
    hits: std::sync::atomic::AtomicU64,
}

impl LazyTable {
    /// Wrap `table` with an empty decode cache.
    pub fn new(table: Arc<TableFile>) -> Self {
        LazyTable {
            table,
            cache: std::sync::Mutex::new(std::collections::BTreeMap::new()),
            decoded: std::sync::atomic::AtomicU64::new(0),
            hits: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The wrapped file.
    pub fn table(&self) -> &Arc<TableFile> {
        &self.table
    }

    /// One column of one row group, decoded on first request and
    /// shared (refcount bump) on every repeat.
    pub fn column(&self, group: usize, column: usize) -> Result<ColumnData, StorageError> {
        use std::sync::atomic::Ordering;
        let mut cache = self.cache.lock().expect("lazy cache poisoned");
        if let Some(cached) = cache.get(&(group, column)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(cached.clone());
        }
        let col = self.table.read_column(group, column)?;
        self.decoded.fetch_add(1, Ordering::Relaxed);
        cache.insert((group, column), col.clone());
        Ok(col)
    }

    /// Chunks decoded so far (each chunk counts once, ever).
    pub fn chunks_decoded(&self) -> u64 {
        self.decoded.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Requests served from the memo without decoding.
    pub fn cache_hits(&self) -> u64 {
        self.hits.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new(&[
            ("ts_ms", ColumnType::I64),
            ("value", ColumnType::F64),
            ("sensor", ColumnType::Str),
        ])
    }

    fn group(base_ts: i64, rows: usize) -> Vec<ColumnData> {
        vec![
            ColumnData::I64((0..rows as i64).map(|i| base_ts + i * 1_000).collect()),
            ColumnData::F64((0..rows).map(|i| 100.0 + i as f64).collect()),
            ColumnData::Str((0..rows).map(|i| format!("s{}", i % 3)).collect()),
        ]
    }

    #[test]
    fn write_read_roundtrip() {
        let mut w = TableFile::writer(schema());
        w.write_row_group(&group(0, 100)).unwrap();
        w.write_row_group(&group(100_000, 50)).unwrap();
        let file = TableFile::open(w.finish()).unwrap();
        assert_eq!(file.row_group_count(), 2);
        assert_eq!(file.num_rows(), 150);
        let cols = file.read_row_group(0).unwrap();
        assert_eq!(cols, group(0, 100));
        let cols = file.read_row_group(1).unwrap();
        assert_eq!(cols, group(100_000, 50));
    }

    #[test]
    fn schema_violations_rejected() {
        let mut w = TableFile::writer(schema());
        // Wrong column count.
        assert!(w.write_row_group(&group(0, 10)[..2]).is_err());
        // Wrong type.
        let mut bad = group(0, 10);
        bad[1] = ColumnData::I64(vec![0; 10].into());
        assert!(w.write_row_group(&bad).is_err());
        // Ragged lengths.
        let mut ragged = group(0, 10);
        ragged[2] = ColumnData::Str(vec!["x".to_string(); 9].into());
        assert!(w.write_row_group(&ragged).is_err());
    }

    #[test]
    fn predicate_pushdown_skips_groups() {
        let mut w = TableFile::writer(schema());
        for g in 0..10 {
            w.write_row_group(&group(g * 1_000_000, 100)).unwrap();
        }
        let file = TableFile::open(w.finish()).unwrap();
        // ts in [2.0e6, 3.2e6] covers groups 2 and 3 only.
        let groups = file.row_groups_in_range("ts_ms", 2.0e6, 3.2e6);
        assert_eq!(groups, vec![2, 3]);
        // Value range hitting every group.
        let groups = file.row_groups_in_range("value", 0.0, 1e9);
        assert_eq!(groups.len(), 10);
        // String columns have no stats: every group is a candidate.
        let groups = file.row_groups_in_range("sensor", 0.0, 1.0);
        assert_eq!(groups.len(), 10);
        // Unknown column matches nothing.
        assert!(file.row_groups_in_range("nope", 0.0, 1.0).is_empty());
    }

    #[test]
    fn stats_ignore_nan() {
        let s = TableSchema::new(&[("v", ColumnType::F64)]);
        let mut w = TableFile::writer(s);
        w.write_row_group(&[ColumnData::F64(vec![f64::NAN, 1.0, 5.0, f64::NAN].into())])
            .unwrap();
        let file = TableFile::open(w.finish()).unwrap();
        match file.chunk_stats(0, 0).unwrap() {
            ChunkStats::F64 { min, max } => {
                assert_eq!(*min, 1.0);
                assert_eq!(*max, 5.0);
            }
            other => panic!("unexpected stats {other:?}"),
        }
    }

    #[test]
    fn compression_beats_row_format() {
        // Realistic long-format telemetry: repetitive sensor names,
        // near-constant values, regular timestamps.
        let rows = 50_000usize;
        let cols = vec![
            ColumnData::I64(
                (0..rows as i64)
                    .map(|i| 1_700_000_000_000 + i * 1_000)
                    .collect(),
            ),
            ColumnData::F64(
                (0..rows)
                    .map(|i| 500.0 + f64::from((i % 7) as u8))
                    .collect(),
            ),
            ColumnData::Str(
                (0..rows)
                    .map(|i| format!("node_power_w_{}", i % 16))
                    .collect(),
            ),
        ];
        let mut w = TableFile::writer(schema());
        w.write_row_group(&cols).unwrap();
        let file_bytes = w.finish();
        // A row-oriented JSON-ish encoding of the same data:
        let row_bytes: usize = (0..rows)
            .map(|i| {
                format!(
                    "{{\"ts\":{},\"value\":{},\"sensor\":\"node_power_w_{}\"}}",
                    1_700_000_000_000i64 + i as i64 * 1_000,
                    500.0 + f64::from((i % 7) as u8),
                    i % 16
                )
                .len()
            })
            .sum();
        assert!(
            file_bytes.len() * 5 < row_bytes,
            "columnar {} vs row {} — expected >=5x compression",
            file_bytes.len(),
            row_bytes
        );
        // And it still reads back.
        let f = TableFile::open(file_bytes).unwrap();
        assert_eq!(f.num_rows(), rows);
    }

    #[test]
    fn dict_columns_roundtrip_without_materializing() {
        let s = TableSchema::new(&[("device", ColumnType::Dict)]);
        let dict = vec!["node".to_string(), "cpu0".to_string(), "gpu1".to_string()];
        let codes: Vec<u32> = (0..5_000).map(|i| (i % 3) as u32).collect();
        let mut w = TableFile::writer(s);
        w.write_row_group(&[ColumnData::dict(dict.clone(), codes.clone())])
            .unwrap();
        let file = TableFile::open(w.finish()).unwrap();
        assert_eq!(file.schema().columns[0].1, ColumnType::Dict);
        match file.read_column(0, 0).unwrap() {
            ColumnData::Dict {
                dict: got_dict,
                codes: got_codes,
            } => {
                assert_eq!(*got_dict, dict);
                assert_eq!(got_codes, codes);
            }
            other => panic!("expected dict column, got {other:?}"),
        }
    }

    #[test]
    fn str_and_dict_are_write_compatible_and_logically_equal() {
        let strings: Vec<String> = (0..64).map(|i| format!("s{}", i % 4)).collect();
        let dict = vec![
            "s0".to_string(),
            "s1".to_string(),
            "s2".to_string(),
            "s3".to_string(),
        ];
        let codes: Vec<u32> = (0..64).map(|i| (i % 4) as u32).collect();
        let str_col = ColumnData::Str(strings.into());
        let dict_col = ColumnData::dict(dict, codes);
        assert_eq!(str_col, dict_col, "logical equality across representations");
        // A Dict column satisfies a Str schema slot and vice versa, and
        // the chunk bytes are identical either way.
        let mut w1 = TableFile::writer(TableSchema::new(&[("s", ColumnType::Str)]));
        w1.write_row_group(std::slice::from_ref(&dict_col)).unwrap();
        let mut w2 = TableFile::writer(TableSchema::new(&[("s", ColumnType::Str)]));
        w2.write_row_group(std::slice::from_ref(&str_col)).unwrap();
        assert_eq!(
            w1.finish(),
            w2.finish(),
            "bytes must not depend on representation"
        );
        let mut w3 = TableFile::writer(TableSchema::new(&[("s", ColumnType::Dict)]));
        w3.write_row_group(std::slice::from_ref(&str_col)).unwrap();
        let file = TableFile::open(w3.finish()).unwrap();
        assert_eq!(file.read_column(0, 0).unwrap(), dict_col);
    }

    #[test]
    fn dict_code_out_of_range_rejected() {
        let mut w = TableFile::writer(TableSchema::new(&[("s", ColumnType::Dict)]));
        let bad = ColumnData::dict(vec!["a".to_string()], vec![0, 1]);
        assert!(w.write_row_group(&[bad]).is_err());
    }

    #[test]
    fn corrupt_files_rejected() {
        assert!(TableFile::open(vec![]).is_err());
        assert!(TableFile::open(b"OCF1garbageOCF1xxx".to_vec()).is_err());
        let mut w = TableFile::writer(schema());
        w.write_row_group(&group(0, 10)).unwrap();
        let bytes = w.finish();
        // Flip every bit of every byte of the data region in turn. The
        // footer is untouched, so the file opens; reading the damaged
        // group must not panic, and must either err or return one column
        // per schema column, each with the footer's row count. Many
        // flips land in a value and still decode, so the second half
        // is exercised too.
        let data_end = bytes.len() - 12 - footer_of(&bytes).len();
        let mut decoded = 0;
        for at in MAGIC.len()..data_end {
            for bit in 0..8 {
                let mut damaged = bytes.clone();
                damaged[at] ^= 1 << bit;
                let f = TableFile::open(damaged).expect("the footer is intact");
                if let Ok(columns) = f.read_row_group(0) {
                    decoded += 1;
                    assert_eq!(columns.len(), f.schema().columns.len(), "byte {at}");
                    for c in &columns {
                        assert_eq!(c.len(), f.row_group_rows(0).unwrap(), "byte {at}");
                    }
                }
            }
        }
        assert!(decoded > 0, "no flip decoded");
    }

    /// The footer bytes of a sealed `file`.
    fn footer_of(file: &[u8]) -> &[u8] {
        let n = file.len();
        let len = u64::from_le_bytes(file[n - 12..n - 4].try_into().unwrap()) as usize;
        &file[n - 12 - len..n - 12]
    }

    /// `file` with its footer rewritten by `edit` and re-sealed — what a
    /// buggy or hostile writer could hand `open`.
    fn with_footer(file: &[u8], edit: impl FnOnce(&mut Footer)) -> Vec<u8> {
        let mut footer: Footer = serde_json::from_slice(footer_of(file)).unwrap();
        edit(&mut footer);
        with_raw_footer(file, &serde_json::to_vec(&footer).unwrap())
    }

    /// `file` with its footer replaced by `json` and re-sealed.
    fn with_raw_footer(file: &[u8], json: &[u8]) -> Vec<u8> {
        let mut out = file[..file.len() - 12 - footer_of(file).len()].to_vec();
        out.extend_from_slice(json);
        out.extend_from_slice(&(json.len() as u64).to_le_bytes());
        out.extend_from_slice(MAGIC);
        out
    }

    fn one_group_file() -> Vec<u8> {
        let mut w = TableFile::writer(schema());
        w.write_row_group(&group(0, 10)).unwrap();
        w.finish()
    }

    #[test]
    fn footer_length_past_the_file_is_corrupt() {
        let mut bytes = one_group_file();
        let n = bytes.len();
        bytes[n - 12..n - 4].copy_from_slice(&u64::MAX.to_le_bytes());
        let opened = TableFile::open(bytes).map(|f| f.num_rows());
        assert!(
            matches!(opened, Err(StorageError::Corrupt(_))),
            "{opened:?}"
        );
    }

    #[test]
    fn deeply_nested_footer_is_corrupt_not_a_stack_overflow() {
        let depth = 100_000;
        let json = "[".repeat(depth) + &"]".repeat(depth);
        let bytes = with_raw_footer(&one_group_file(), json.as_bytes());
        let opened = TableFile::open(bytes).map(|f| f.num_rows());
        assert!(
            matches!(opened, Err(StorageError::Corrupt(_))),
            "{opened:?}"
        );
    }

    #[test]
    fn chunk_outside_the_data_region_is_corrupt() {
        let file = one_group_file();
        let past_eof = with_footer(&file, |f| {
            f.row_groups[0].chunks[1].offset = file.len() + 100
        });
        let overflowing = with_footer(&file, |f| f.row_groups[0].chunks[1].len = usize::MAX);
        for bytes in [past_eof, overflowing] {
            let read = TableFile::open(bytes).and_then(|f| f.read_row_group(0));
            assert!(matches!(read, Err(StorageError::Corrupt(_))), "{read:?}");
        }
    }

    #[test]
    fn row_group_missing_a_chunk_is_corrupt() {
        let bytes = with_footer(&one_group_file(), |f| {
            f.row_groups[0].chunks.pop();
        });
        let pruned = TableFile::open(bytes).map(|f| f.row_groups_in_range("sensor", 0.0, 1.0));
        assert!(
            matches!(pruned, Err(StorageError::Corrupt(_))),
            "{pruned:?}"
        );
    }

    #[test]
    fn secondary_index_roundtrips_and_prunes() {
        let mut w = TableFile::writer(schema());
        w.index_column("sensor").unwrap();
        // Idempotent; unknown / non-categorical columns rejected.
        w.index_column("sensor").unwrap();
        assert!(w.index_column("value").is_err());
        assert!(w.index_column("nope").is_err());
        for g in 0..4 {
            let rows = 10usize;
            w.write_row_group(&[
                ColumnData::I64((0..rows as i64).map(|i| g * 10_000 + i).collect()),
                ColumnData::F64(vec![1.0; rows].into()),
                // Group g holds only sensor "s{g%2}".
                ColumnData::Str(vec![format!("s{}", g % 2); rows].into()),
            ])
            .unwrap();
        }
        let file = TableFile::open(w.finish()).unwrap();
        assert!(file.has_index("sensor"));
        assert!(!file.has_index("value"));
        let ix = file.read_index("sensor").unwrap().unwrap();
        let groups = |v| ix.groups_with(v).collect::<Vec<_>>();
        assert_eq!(groups("s0"), vec![0, 2]);
        assert_eq!(groups("s1"), vec![1, 3]);
        assert!(groups("s9").is_empty());
        assert_eq!(ix.rows_in_group("s0", 0).unwrap().count_ones(), 10);
        assert!(file.read_index("value").unwrap().is_none());
        // Decoded once: a second lookup borrows the same index.
        assert!(std::ptr::eq(
            ix,
            file.read_index("sensor").unwrap().unwrap()
        ));
        // Data pages still read back untouched.
        assert_eq!(file.num_rows(), 40);
        assert!(file.read_row_group(3).is_ok());
    }

    #[test]
    fn index_works_on_dict_columns_too() {
        let s = TableSchema::new(&[("device", ColumnType::Dict)]);
        let mut w = TableFile::writer(s);
        w.index_column("device").unwrap();
        let dict = vec!["cpu0".to_string(), "gpu1".to_string()];
        w.write_row_group(&[ColumnData::dict(dict.clone(), vec![0, 1, 0, 0])])
            .unwrap();
        w.write_row_group(&[ColumnData::dict(dict, vec![1, 1])])
            .unwrap();
        let file = TableFile::open(w.finish()).unwrap();
        let ix = file.read_index("device").unwrap().unwrap();
        assert_eq!(ix.groups_with("cpu0").collect::<Vec<_>>(), vec![0]);
        assert_eq!(ix.groups_with("gpu1").collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(
            ix.rows_in_group("cpu0", 0)
                .unwrap()
                .ones()
                .collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
    }

    /// `file` with its one index section swapped for `raw`, compressed
    /// the way the writer compresses sections.
    fn with_index_section(mut file: TableFile, raw: &[u8]) -> TableFile {
        let section = compress(raw);
        file.footer.indexes[0].offset = file.bytes.len();
        file.footer.indexes[0].len = section.len();
        file.bytes.extend_from_slice(&section);
        file.decoded_indexes = vec![OnceLock::new()];
        file
    }

    fn indexed_file() -> TableFile {
        let mut w = TableFile::writer(schema());
        w.index_column("sensor").unwrap();
        w.write_row_group(&group(0, 10)).unwrap();
        TableFile::open(w.finish()).unwrap()
    }

    #[test]
    fn json_index_sections_are_rejected() {
        // What the serde_json index writer produced for this file.
        let json = br#"{"entries":[{"value":"s0","postings":[{"group":0,"rows":{"len":10,"words":[585]}}]}]}"#;
        let file = with_index_section(indexed_file(), json);
        for _ in 0..2 {
            let err = file.read_index("sensor").unwrap_err();
            assert!(
                matches!(&err, StorageError::Corrupt(m) if m.contains("JSON")),
                "{err}"
            );
        }
        // The data pages are untouched by a bad index.
        assert_eq!(file.read_row_group(0).unwrap(), group(0, 10));
    }

    #[test]
    fn index_sections_are_checked_against_the_footer() {
        let file = indexed_file();
        let good = file.read_index("sensor").unwrap().unwrap().clone();
        assert_eq!(
            with_index_section(file.clone(), &good.to_bytes())
                .read_index("sensor")
                .unwrap(),
            Some(&good)
        );
        // Built for a 9-row group, stored for a 10-row one.
        let mut short = ColumnIndex::new();
        short.add_group(0, 9, (0..9).map(|i| ["s0", "s1", "s2"][i % 3]));
        let err = with_index_section(file.clone(), &short.to_bytes())
            .read_index("sensor")
            .unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        // A section running past the end of the file.
        let mut past = indexed_file();
        past.footer.indexes[0].len = usize::MAX;
        assert!(past.read_index("sensor").is_err());
    }

    #[test]
    fn unindexed_files_are_byte_identical_to_pre_index_format() {
        // Writing without index_column must not change a single byte:
        // the footer's `indexes` field is skipped when empty.
        let build = |index: bool| {
            let mut w = TableFile::writer(schema());
            if index {
                w.index_column("sensor").unwrap();
            }
            w.write_row_group(&group(0, 20)).unwrap();
            w.finish()
        };
        let plain = build(false);
        let indexed = build(true);
        assert!(!String::from_utf8_lossy(&plain).contains("indexes"));
        assert!(indexed.len() > plain.len());
        // An indexed file still opens and reads through the plain path.
        let file = TableFile::open(indexed).unwrap();
        assert_eq!(file.read_row_group(0).unwrap(), group(0, 20));
        // index_column after data is written is rejected.
        let mut w = TableFile::writer(schema());
        w.write_row_group(&group(0, 5)).unwrap();
        assert!(w.index_column("sensor").is_err());
    }

    #[test]
    fn empty_file_roundtrip() {
        let w = TableFile::writer(schema());
        let f = TableFile::open(w.finish()).unwrap();
        assert_eq!(f.num_rows(), 0);
        assert_eq!(f.row_group_count(), 0);
    }

    /// The colfile footer, byte for byte, with every footer type in it:
    /// schema, row groups, chunk stats of each kind, and an index entry.
    #[test]
    fn indexed_footer_bytes_are_pinned() {
        let mut w = TableFile::writer(schema());
        w.index_column("sensor").unwrap();
        w.write_row_group(&group(0, 3)).unwrap();
        let file = w.finish();
        assert_eq!(
            std::str::from_utf8(footer_of(&file)).unwrap(),
            r#"{"schema":{"columns":[["ts_ms","I64"],["value","F64"],["sensor","Str"]]},"row_groups":[{"rows":3,"chunks":[{"offset":4,"len":7,"stats":{"I64":{"min":0,"max":2000}}},{"offset":11,"len":23,"stats":{"F64":{"min":100,"max":102}}},{"offset":34,"len":11,"stats":"None"}]}],"indexes":[{"column":"sensor","offset":45,"len":60}]}"#
        );
    }
}
