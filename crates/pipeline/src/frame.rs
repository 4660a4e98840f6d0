//! Typed columnar frames — the unit of data flowing through pipelines.
//!
//! A [`Frame`] is an ordered set of named, equal-length columns reusing
//! `oda-storage`'s [`ColumnData`] so frames round-trip to OCEAN files
//! without copies. Long-format Bronze data and wide Silver data are both
//! just frames with different schemas.

use crate::error::PipelineError;
use crate::kernels;
use oda_storage::colfile::{ColumnData, ColumnType, TableSchema};
use oda_storage::intern::StringInterner;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// An ordered collection of named columns with equal lengths.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    names: Vec<String>,
    columns: Vec<ColumnData>,
    rows: usize,
}

/// Borrowed view over a categorical (string-valued) column, unifying
/// plain [`ColumnData::Str`] and dictionary-encoded
/// [`ColumnData::Dict`] storage. Consumers written against this view
/// accept frames in either representation without materializing.
#[derive(Debug, Clone, Copy)]
pub enum StrColumn<'a> {
    /// Plain per-row string storage.
    Str(&'a [String]),
    /// Dictionary storage: row i's value is `dict[codes[i]]`.
    Dict {
        /// Distinct values, in code order.
        dict: &'a [String],
        /// Per-row indexes into `dict`.
        codes: &'a [u32],
    },
}

impl<'a> StrColumn<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            StrColumn::Str(v) => v.len(),
            StrColumn::Dict { codes, .. } => codes.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value of `row`.
    #[inline]
    pub fn get(&self, row: usize) -> &'a str {
        match self {
            StrColumn::Str(v) => &v[row],
            StrColumn::Dict { dict, codes } => &dict[codes[row] as usize],
        }
    }

    /// Iterate the values in row order.
    pub fn iter(self) -> impl Iterator<Item = &'a str> {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The column as (dictionary, codes): borrowed for `Dict` columns,
    /// built by a single interning pass for `Str` columns. Lets hot
    /// paths key on 4-byte codes regardless of representation.
    pub fn to_dict(self) -> (Cow<'a, [String]>, Cow<'a, [u32]>) {
        match self {
            StrColumn::Dict { dict, codes } => (Cow::Borrowed(dict), Cow::Borrowed(codes)),
            StrColumn::Str(v) => {
                let mut interner = StringInterner::new();
                let codes: Vec<u32> = v.iter().map(|s| interner.intern(s)).collect();
                (Cow::Owned(interner.into_dict()), Cow::Owned(codes))
            }
        }
    }

    /// Materialize to owned strings.
    pub fn to_vec(self) -> Vec<String> {
        self.iter().map(str::to_string).collect()
    }
}

impl Frame {
    /// Build a frame from (name, column) pairs.
    pub fn new(columns: Vec<(String, ColumnData)>) -> Result<Frame, PipelineError> {
        let rows = columns.first().map_or(0, |(_, c)| c.len());
        if columns.iter().any(|(_, c)| c.len() != rows) {
            return Err(PipelineError::RaggedColumns);
        }
        let (names, columns) = columns.into_iter().unzip();
        Ok(Frame {
            names,
            columns,
            rows,
        })
    }

    /// An empty frame with the given schema.
    pub fn empty(schema: &TableSchema) -> Frame {
        let columns = schema
            .columns
            .iter()
            .map(|(n, t)| {
                let col = match t {
                    ColumnType::I64 => ColumnData::I64(Vec::new().into()),
                    ColumnType::F64 => ColumnData::F64(Vec::new().into()),
                    ColumnType::Str => ColumnData::Str(Vec::new().into()),
                    ColumnType::Dict => ColumnData::dict(Vec::new(), Vec::new()),
                };
                (n.clone(), col)
            })
            .collect();
        Frame::new(columns).expect("empty columns are never ragged")
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True when the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column names in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The frame's schema.
    pub fn schema(&self) -> TableSchema {
        TableSchema {
            columns: self
                .names
                .iter()
                .zip(&self.columns)
                .map(|(n, c)| (n.clone(), c.column_type()))
                .collect(),
        }
    }

    /// Index of a column.
    pub fn index_of(&self, name: &str) -> Result<usize, PipelineError> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| PipelineError::ColumnNotFound(name.to_string()))
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Result<&ColumnData, PipelineError> {
        Ok(&self.columns[self.index_of(name)?])
    }

    /// Column by position.
    pub fn column_at(&self, idx: usize) -> &ColumnData {
        &self.columns[idx]
    }

    /// All columns, in order.
    pub fn columns(&self) -> &[ColumnData] {
        &self.columns
    }

    /// i64 column or a type error.
    pub fn i64s(&self, name: &str) -> Result<&[i64], PipelineError> {
        match self.column(name)? {
            ColumnData::I64(v) => Ok(v),
            _ => Err(PipelineError::TypeMismatch {
                column: name.into(),
                expected: "i64".into(),
            }),
        }
    }

    /// f64 column or a type error.
    pub fn f64s(&self, name: &str) -> Result<&[f64], PipelineError> {
        match self.column(name)? {
            ColumnData::F64(v) => Ok(v),
            _ => Err(PipelineError::TypeMismatch {
                column: name.into(),
                expected: "f64".into(),
            }),
        }
    }

    /// String column or a type error.
    pub fn strs(&self, name: &str) -> Result<&[String], PipelineError> {
        match self.column(name)? {
            ColumnData::Str(v) => Ok(v),
            _ => Err(PipelineError::TypeMismatch {
                column: name.into(),
                expected: "str".into(),
            }),
        }
    }

    /// Categorical column view accepting both `Str` and `Dict`
    /// representations, or a type error. Prefer this over
    /// [`Frame::strs`] in consumers: Bronze/Silver categorical columns
    /// are dictionary-encoded.
    pub fn cat(&self, name: &str) -> Result<StrColumn<'_>, PipelineError> {
        match self.column(name)? {
            ColumnData::Str(v) => Ok(StrColumn::Str(v)),
            ColumnData::Dict { dict, codes } => Ok(StrColumn::Dict { dict, codes }),
            _ => Err(PipelineError::TypeMismatch {
                column: name.into(),
                expected: "str or dict".into(),
            }),
        }
    }

    /// Raw (dictionary, codes) parts of a `Dict` column, or a type
    /// error for every other representation.
    pub fn dict(&self, name: &str) -> Result<(&Arc<Vec<String>>, &[u32]), PipelineError> {
        match self.column(name)? {
            ColumnData::Dict { dict, codes } => Ok((dict, codes)),
            _ => Err(PipelineError::TypeMismatch {
                column: name.into(),
                expected: "dict".into(),
            }),
        }
    }

    /// Append a column.
    pub fn push_column(&mut self, name: &str, col: ColumnData) -> Result<(), PipelineError> {
        if !self.columns.is_empty() && col.len() != self.rows {
            return Err(PipelineError::RaggedColumns);
        }
        if self.columns.is_empty() {
            self.rows = col.len();
        }
        self.names.push(name.to_string());
        self.columns.push(col);
        Ok(())
    }

    /// Keep only the rows where `mask` is true.
    ///
    /// An all-true mask returns shared views of every column (refcount
    /// bumps, no row data copied); otherwise the surviving rows are
    /// compacted through the chunked [`kernels`] filter path. `Dict`
    /// columns always share their dictionary allocation.
    pub fn filter_mask(&self, mask: &[bool]) -> Frame {
        assert_eq!(mask.len(), self.rows, "mask length mismatch");
        let mask = kernels::CountedMask::new(mask);
        let rows = mask.kept();
        if rows == self.rows {
            return self.clone();
        }
        let columns = self
            .columns
            .iter()
            .map(|c| match c {
                ColumnData::I64(v) => ColumnData::I64(mask.filter_copy(&v[..]).into()),
                ColumnData::F64(v) => ColumnData::F64(mask.filter_copy(&v[..]).into()),
                ColumnData::Str(v) => ColumnData::Str(mask.filter_clone(&v[..]).into()),
                ColumnData::Dict { dict, codes } => ColumnData::Dict {
                    dict: dict.clone(),
                    codes: mask.filter_copy(&codes[..]).into(),
                },
            })
            .collect();
        Frame {
            names: self.names.clone(),
            columns,
            rows,
        }
    }

    /// Take rows by index (indices may repeat or reorder).
    pub fn take(&self, indices: &[usize]) -> Frame {
        let columns = self
            .columns
            .iter()
            .map(|c| match c {
                ColumnData::I64(v) => ColumnData::I64(kernels::gather_copy(&v[..], indices).into()),
                ColumnData::F64(v) => ColumnData::F64(kernels::gather_copy(&v[..], indices).into()),
                ColumnData::Str(v) => {
                    ColumnData::Str(kernels::gather_clone(&v[..], indices).into())
                }
                ColumnData::Dict { dict, codes } => ColumnData::Dict {
                    dict: dict.clone(),
                    codes: kernels::gather_copy(&codes[..], indices).into(),
                },
            })
            .collect();
        Frame {
            names: self.names.clone(),
            columns,
            rows: indices.len(),
        }
    }

    /// Project to a subset of columns. Accepts any string-like key list
    /// (`&["a", "b"]`, a `Vec<String>` slice, …) — the one key-list type
    /// shared across the query surface.
    ///
    /// Projection is zero-copy: each selected column is a shared view
    /// of this frame's buffer (a refcount bump), never a row-data copy.
    pub fn select<S: AsRef<str>>(&self, cols: &[S]) -> Result<Frame, PipelineError> {
        let mut out = Vec::with_capacity(cols.len());
        for c in cols {
            let c = c.as_ref();
            let idx = self.index_of(c)?;
            out.push((c.to_string(), self.columns[idx].clone()));
        }
        Frame::new(out)
    }

    /// Vertically concatenate frames with identical schemas.
    ///
    /// A single-frame concat returns shared views (no row data moves).
    /// Otherwise each output column is allocated once at the total row
    /// count and every frame's rows are copied into it once. `Dict`
    /// columns only re-code when a frame's dictionary differs from the
    /// output's; its entries the output lacks are appended in that
    /// frame's order.
    pub fn concat(frames: &[Frame]) -> Result<Frame, PipelineError> {
        let Some(first) = frames.first() else {
            return Frame::new(Vec::new());
        };
        if frames.len() == 1 {
            return Ok(first.clone());
        }
        if let Some(f) = frames.iter().find(|f| f.names != first.names) {
            return Err(PipelineError::ColumnNotFound(format!(
                "concat schema mismatch: {:?} vs {:?}",
                f.names, first.names
            )));
        }
        let rows = frames.iter().map(|f| f.rows).sum();
        let columns = (0..first.columns.len())
            .map(|c| {
                let parts: Vec<&ColumnData> = frames.iter().map(|f| &f.columns[c]).collect();
                concat_column(&parts, rows)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Frame {
            names: first.names.clone(),
            rows: columns.first().map_or(0, ColumnData::len),
            columns,
        })
    }
}

/// `parts` end to end in a column of `parts[0]`'s representation, sized
/// for `rows`. Mixed representations concatenate too, so frames read
/// from old Str-typed files mix with Dict frames.
fn concat_column(parts: &[&ColumnData], rows: usize) -> Result<ColumnData, PipelineError> {
    let mismatch = || PipelineError::TypeMismatch {
        column: "concat".into(),
        expected: "matching column types".into(),
    };
    Ok(match parts[0] {
        ColumnData::I64(_) => {
            let mut out = Vec::with_capacity(rows);
            for part in parts {
                let ColumnData::I64(v) = part else {
                    return Err(mismatch());
                };
                out.extend_from_slice(v);
            }
            ColumnData::I64(out.into())
        }
        ColumnData::F64(_) => {
            let mut out = Vec::with_capacity(rows);
            for part in parts {
                let ColumnData::F64(v) = part else {
                    return Err(mismatch());
                };
                out.extend_from_slice(v);
            }
            ColumnData::F64(out.into())
        }
        ColumnData::Str(_) => {
            let mut out = Vec::with_capacity(rows);
            for part in parts {
                match part {
                    ColumnData::Str(v) => out.extend_from_slice(v),
                    ColumnData::Dict { dict, codes } => {
                        out.extend(codes.iter().map(|&c| dict[c as usize].clone()))
                    }
                    _ => return Err(mismatch()),
                }
            }
            ColumnData::Str(out.into())
        }
        ColumnData::Dict { dict, .. } => {
            let mut dict = Arc::clone(dict);
            let mut index = None;
            let mut out = Vec::with_capacity(rows);
            for part in parts {
                match part {
                    ColumnData::Dict { dict: d, codes } if Arc::ptr_eq(&dict, d) || dict == *d => {
                        out.extend_from_slice(codes)
                    }
                    ColumnData::Dict { dict: d, codes } => {
                        let remap: Vec<u32> = d
                            .iter()
                            .map(|e| dict_code(&mut dict, &mut index, e))
                            .collect();
                        out.extend(codes.iter().map(|&c| remap[c as usize]));
                    }
                    ColumnData::Str(v) => {
                        for e in v.iter() {
                            let code = dict_code(&mut dict, &mut index, e);
                            out.push(code);
                        }
                    }
                    _ => return Err(mismatch()),
                }
            }
            ColumnData::Dict {
                dict,
                codes: out.into(),
            }
        }
    })
}

/// Code of `entry` in `dict`, appending it (copy-on-write) when absent.
/// `index` maps `dict`'s entries to codes; it is built on first use and
/// kept in step with every append.
fn dict_code(
    dict: &mut Arc<Vec<String>>,
    index: &mut Option<HashMap<String, u32>>,
    entry: &str,
) -> u32 {
    let index = index.get_or_insert_with(|| {
        dict.iter()
            .enumerate()
            .map(|(i, e)| (e.clone(), i as u32))
            .collect()
    });
    if let Some(&code) = index.get(entry) {
        return code;
    }
    let code = dict.len() as u32;
    Arc::make_mut(dict).push(entry.to_string());
    index.insert(entry.to_string(), code);
    code
}

/// A column's exact in-memory layout, for tests that pin
/// representation (dictionary order included) and float bits, which
/// frame equality — logical, with IEEE `NaN != NaN` — does not.
#[cfg(test)]
#[derive(Debug, PartialEq)]
pub(crate) enum Layout {
    I64(Vec<i64>),
    F64(Vec<u64>),
    Str(Vec<String>),
    Dict(Vec<String>, Vec<u32>),
}

#[cfg(test)]
impl Frame {
    /// Every column's name and exact layout.
    pub(crate) fn layout(&self) -> Vec<(String, Layout)> {
        self.names
            .iter()
            .zip(&self.columns)
            .map(|(name, c)| {
                let layout = match c {
                    ColumnData::I64(v) => Layout::I64(v.to_vec()),
                    ColumnData::F64(v) => Layout::F64(v.iter().map(|x| x.to_bits()).collect()),
                    ColumnData::Str(v) => Layout::Str(v.to_vec()),
                    ColumnData::Dict { dict, codes } => {
                        Layout::Dict(dict.as_ref().clone(), codes.to_vec())
                    }
                };
                (name.clone(), layout)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The concat that grows the first frame's columns by appending,
    /// rebuilding each as an owned vector per step, kept as the oracle
    /// for the sized one.
    fn reference_concat(frames: &[Frame]) -> Result<Frame, PipelineError> {
        let Some(first) = frames.first() else {
            return Frame::new(Vec::new());
        };
        if frames.len() == 1 {
            return Ok(first.clone());
        }
        let mut columns: Vec<ColumnData> = first.columns.clone();
        for f in &frames[1..] {
            if f.names != first.names {
                return Err(PipelineError::ColumnNotFound(format!(
                    "concat schema mismatch: {:?} vs {:?}",
                    f.names, first.names
                )));
            }
            for (dst, src) in columns.iter_mut().zip(&f.columns) {
                match (dst, src) {
                    (ColumnData::I64(d), ColumnData::I64(s)) => {
                        *d = [&d[..], &s[..]].concat().into()
                    }
                    (ColumnData::F64(d), ColumnData::F64(s)) => {
                        *d = [&d[..], &s[..]].concat().into()
                    }
                    (ColumnData::Str(d), ColumnData::Str(s)) => {
                        *d = [&d[..], &s[..]].concat().into()
                    }
                    (
                        ColumnData::Dict { dict, codes },
                        ColumnData::Dict {
                            dict: s_dict,
                            codes: s_codes,
                        },
                    ) => {
                        if Arc::ptr_eq(dict, s_dict) || **dict == **s_dict {
                            *codes = [&codes[..], &s_codes[..]].concat().into();
                        } else {
                            let remap = reference_merge_dicts(dict, s_dict);
                            let appended = s_codes.iter().map(|&c| remap[c as usize]);
                            *codes = codes.iter().copied().chain(appended).collect();
                        }
                    }
                    (ColumnData::Dict { dict, codes }, ColumnData::Str(s)) => {
                        let mut index: HashMap<String, u32> = dict
                            .iter()
                            .enumerate()
                            .map(|(i, e)| (e.clone(), i as u32))
                            .collect();
                        let mut added: Vec<String> = Vec::new();
                        let base = dict.len();
                        let new_codes: Vec<u32> = s
                            .iter()
                            .map(|v| {
                                *index.entry(v.clone()).or_insert_with(|| {
                                    added.push(v.clone());
                                    (base + added.len() - 1) as u32
                                })
                            })
                            .collect();
                        *codes = [&codes[..], &new_codes[..]].concat().into();
                        if !added.is_empty() {
                            Arc::make_mut(dict).extend(added);
                        }
                    }
                    (ColumnData::Str(d), ColumnData::Dict { dict, codes }) => {
                        let appended = codes.iter().map(|&c| dict[c as usize].clone());
                        *d = d.iter().cloned().chain(appended).collect();
                    }
                    _ => {
                        return Err(PipelineError::TypeMismatch {
                            column: "concat".into(),
                            expected: "matching column types".into(),
                        })
                    }
                }
            }
        }
        let rows = columns.first().map_or(0, ColumnData::len);
        Ok(Frame {
            names: first.names.clone(),
            columns,
            rows,
        })
    }

    fn reference_merge_dicts(dst: &mut Arc<Vec<String>>, src: &[String]) -> Vec<u32> {
        let mut index: HashMap<String, u32> = dst
            .iter()
            .enumerate()
            .map(|(i, e)| (e.clone(), i as u32))
            .collect();
        let mut added: Vec<String> = Vec::new();
        let base = dst.len();
        let remap: Vec<u32> = src
            .iter()
            .map(|e| {
                *index.entry(e.clone()).or_insert_with(|| {
                    added.push(e.clone());
                    (base + added.len() - 1) as u32
                })
            })
            .collect();
        if !added.is_empty() {
            Arc::make_mut(dst).extend(added);
        }
        remap
    }

    fn sample() -> Frame {
        Frame::new(vec![
            ("ts".into(), ColumnData::I64(vec![1, 2, 3, 4].into())),
            ("v".into(), ColumnData::F64(vec![1.0, 2.0, 3.0, 4.0].into())),
            (
                "s".into(),
                ColumnData::Str(vec!["a".to_string(), "b".into(), "a".into(), "b".into()].into()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validates_lengths() {
        let bad = Frame::new(vec![
            ("a".into(), ColumnData::I64(vec![1].into())),
            ("b".into(), ColumnData::I64(vec![1, 2].into())),
        ]);
        assert_eq!(bad.unwrap_err(), PipelineError::RaggedColumns);
    }

    #[test]
    fn typed_accessors() {
        let f = sample();
        assert_eq!(f.i64s("ts").unwrap(), &[1, 2, 3, 4]);
        assert_eq!(f.f64s("v").unwrap()[0], 1.0);
        assert_eq!(f.strs("s").unwrap()[1], "b");
        assert!(f.i64s("v").is_err());
        assert!(f.column("missing").is_err());
    }

    #[test]
    fn filter_mask_keeps_matching_rows() {
        let f = sample();
        let g = f.filter_mask(&[true, false, true, false]);
        assert_eq!(g.rows(), 2);
        assert_eq!(g.i64s("ts").unwrap(), &[1, 3]);
        assert_eq!(g.strs("s").unwrap(), &["a".to_string(), "a".to_string()]);
    }

    #[test]
    fn take_reorders_and_repeats() {
        let f = sample();
        let g = f.take(&[3, 0, 0]);
        assert_eq!(g.i64s("ts").unwrap(), &[4, 1, 1]);
    }

    #[test]
    fn select_projects() {
        let f = sample();
        let g = f.select(&["v", "ts"]).unwrap();
        assert_eq!(g.names(), &["v".to_string(), "ts".to_string()]);
        assert!(f.select(&["nope"]).is_err());
    }

    #[test]
    fn concat_appends_rows() {
        let f = sample();
        let g = Frame::concat(&[f.clone(), f.clone()]).unwrap();
        assert_eq!(g.rows(), 8);
        assert_eq!(g.i64s("ts").unwrap(), &[1, 2, 3, 4, 1, 2, 3, 4]);
    }

    /// Frames whose `s` column mixes dictionaries — one shared `Arc`,
    /// an equal copy, reordered and overlapping entries, unused and
    /// duplicate entries, plain strings — concatenated in every order
    /// of every pair and triple, against the append-and-grow concat.
    #[test]
    fn concat_matches_reference_on_mixed_dictionaries() {
        let shared = Arc::new(vec!["a".to_string(), "b".into(), "c".into()]);
        let frame = |s: ColumnData, n: usize| {
            Frame::new(vec![
                ("ts".into(), ColumnData::I64((0..n as i64).collect())),
                ("v".into(), ColumnData::F64(vec![f64::NAN; n].into())),
                ("s".into(), s),
            ])
            .unwrap()
        };
        let dict = |d: &[&str], codes: Vec<u32>| {
            ColumnData::dict(d.iter().map(|e| e.to_string()).collect(), codes)
        };
        let strs = |v: &[&str]| ColumnData::Str(v.iter().map(|e| e.to_string()).collect());
        let frames = [
            frame(
                ColumnData::Dict {
                    dict: Arc::clone(&shared),
                    codes: vec![0, 2, 2].into(),
                },
                3,
            ),
            frame(
                ColumnData::Dict {
                    dict: Arc::clone(&shared),
                    codes: vec![1].into(),
                },
                1,
            ),
            frame(dict(&["a", "b", "c"], vec![2, 1]), 2),
            frame(dict(&["c", "d", "unused", "a"], vec![1, 0, 3, 1]), 4),
            frame(dict(&["e", "e", "b"], vec![1, 2, 0]), 3),
            frame(strs(&["d", "z", "a", "z"]), 4),
            frame(dict(&[], vec![]), 0),
        ];
        let n = frames.len();
        let mut orders: Vec<Vec<usize>> = Vec::new();
        for i in 0..n {
            for j in 0..n {
                orders.push(vec![i, j]);
                for k in 0..n {
                    orders.push(vec![i, j, k]);
                }
            }
        }
        for order in orders {
            let parts: Vec<Frame> = order.iter().map(|&i| frames[i].clone()).collect();
            let got = Frame::concat(&parts).unwrap();
            let want = reference_concat(&parts).unwrap();
            assert_eq!(got.layout(), want.layout(), "order {order:?}");
            assert_eq!(got.rows(), want.rows());
        }
        // A type clash is refused, as before.
        let clash = Frame::new(vec![
            ("ts".into(), ColumnData::I64(vec![1].into())),
            ("v".into(), ColumnData::F64(vec![1.0].into())),
            ("s".into(), ColumnData::I64(vec![1].into())),
        ])
        .unwrap();
        let parts = [frames[0].clone(), clash];
        assert!(Frame::concat(&parts).is_err());
        assert!(reference_concat(&parts).is_err());
    }

    #[test]
    fn concat_rejects_mismatched_schemas() {
        let f = sample();
        let other = Frame::new(vec![("x".into(), ColumnData::I64(vec![1].into()))]).unwrap();
        assert!(Frame::concat(&[f, other]).is_err());
    }

    #[test]
    fn schema_roundtrip() {
        let f = sample();
        let s = f.schema();
        assert_eq!(s.columns[0], ("ts".to_string(), ColumnType::I64));
        let e = Frame::empty(&s);
        assert_eq!(e.rows(), 0);
        assert_eq!(e.names(), f.names());
    }

    #[test]
    fn push_column_checks_length() {
        let mut f = sample();
        assert!(f
            .push_column("w", ColumnData::F64(vec![0.0; 4].into()))
            .is_ok());
        assert!(f
            .push_column("bad", ColumnData::F64(vec![0.0; 3].into()))
            .is_err());
    }

    #[test]
    fn select_shares_buffers_instead_of_copying() {
        let f = sample();
        let g = f.select(&["v", "ts"]).unwrap();
        // Projection must be a refcount bump on the same allocation,
        // never a deep copy of the row data.
        assert!(g.column("v").unwrap().ptr_eq(f.column("v").unwrap()));
        assert!(g.column("ts").unwrap().ptr_eq(f.column("ts").unwrap()));
    }

    #[test]
    fn filter_and_gather_share_dict_buffer_across_views() {
        let f = Frame::new(vec![(
            "s".into(),
            ColumnData::dict(vec!["a".to_string(), "b".into()], vec![0, 1, 0, 1]),
        )])
        .unwrap();
        let (dict, _) = f.dict("s").unwrap();

        // All-true filter: the whole column (dict + codes) is shared.
        let all = f.filter_mask(&[true; 4]);
        assert!(all.column("s").unwrap().ptr_eq(f.column("s").unwrap()));

        // Partial filter and gather re-code rows but must keep
        // pointer-equal dictionaries.
        let part = f.filter_mask(&[true, false, true, false]);
        let (p_dict, p_codes) = part.dict("s").unwrap();
        assert!(Arc::ptr_eq(dict, p_dict));
        assert_eq!(p_codes, &[0, 0]);

        let took = f.take(&[3, 0]);
        let (t_dict, t_codes) = took.dict("s").unwrap();
        assert!(Arc::ptr_eq(dict, t_dict));
        assert_eq!(t_codes, &[1, 0]);
    }

    #[test]
    fn single_frame_concat_shares_buffers() {
        let f = sample();
        let g = Frame::concat(std::slice::from_ref(&f)).unwrap();
        assert!(g.column("ts").unwrap().ptr_eq(f.column("ts").unwrap()));
        assert_eq!(g, f);
    }
}
