//! Relational operators: group-by aggregation, pivot, join, sort.
//!
//! These are the clause bodies of the paper's pipeline anatomy
//! (Fig. 4-b): Bronze→Silver is dominated by GROUP BY (window) +
//! PIVOT + JOIN, and the benches time exactly these functions.

use crate::error::PipelineError;
use crate::frame::{Frame, StrColumn};
use crate::kernels::{self, NumAcc};
use crate::rowkey::{join_keys, GroupTable, KeyCols};
use oda_storage::colfile::ColumnData;
use std::collections::HashMap;
use std::sync::Arc;

/// Aggregation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Sum of non-NaN values.
    Sum,
    /// Mean of non-NaN values (NaN when empty).
    Mean,
    /// Minimum non-NaN value.
    Min,
    /// Maximum non-NaN value.
    Max,
    /// Count of non-NaN values.
    Count,
    /// First value in group order.
    First,
    /// Last value in group order.
    Last,
}

/// One aggregation output.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Input column.
    pub column: String,
    /// Function.
    pub agg: Agg,
    /// Output column name.
    pub output: String,
}

impl AggSpec {
    /// Shorthand constructor.
    pub fn new(column: &str, agg: Agg, output: &str) -> AggSpec {
        AggSpec {
            column: column.into(),
            agg,
            output: output.into(),
        }
    }
}

fn numeric_at(col: &ColumnData, row: usize) -> Result<f64, PipelineError> {
    match col {
        ColumnData::F64(v) => Ok(v[row]),
        ColumnData::I64(v) => Ok(v[row] as f64),
        ColumnData::Str(_) | ColumnData::Dict { .. } => Err(PipelineError::TypeMismatch {
            column: "aggregate input".into(),
            expected: "numeric".into(),
        }),
    }
}

/// Group `frame` by `keys` and compute `aggs` per group.
///
/// Output columns: the keys (original types, first-occurrence values)
/// followed by one F64 column per spec (`Count` yields I64). String
/// inputs support only `First`/`Last` (type-preserving).
///
/// Key lists are generic over string-like types (`&["a"]` and
/// `Vec<String>` slices both work) — the unified key-list type of the
/// query surface.
pub fn group_by<S: AsRef<str>>(
    frame: &Frame,
    keys: &[S],
    aggs: &[AggSpec],
) -> Result<Frame, PipelineError> {
    let key_idx: Vec<usize> = keys
        .iter()
        .map(|k| frame.index_of(k.as_ref()))
        .collect::<Result<_, _>>()?;
    // Validate agg inputs upfront.
    for spec in aggs {
        let col = frame.column(&spec.column)?;
        if matches!(col, ColumnData::Str(_) | ColumnData::Dict { .. })
            && !matches!(spec.agg, Agg::First | Agg::Last)
        {
            return Err(PipelineError::TypeMismatch {
                column: spec.column.clone(),
                expected: "numeric (strings support only First/Last)".into(),
            });
        }
    }

    let (row_group, representative) = KeyCols::of(frame, &key_idx).group_ids(frame.rows());
    let n_groups = representative.len();

    // Key columns from representative rows.
    let key_frame = frame.take(&representative);
    let mut out: Vec<(String, ColumnData)> = keys
        .iter()
        .map(|k| {
            let k = k.as_ref();
            (
                k.to_string(),
                key_frame.column(k).expect("key exists").clone(),
            )
        })
        .collect();

    for spec in aggs {
        let col = frame.column(&spec.column)?;
        match col {
            ColumnData::Str(v) => {
                // Pick a row per group, then clone each picked string
                // once — the `Dict` arm's pattern, over row indexes.
                let picked = match spec.agg {
                    Agg::First => kernels::gather_clone(&v[..], &representative),
                    Agg::Last => {
                        let mut lasts = vec![0; n_groups];
                        for (row, &g) in row_group.iter().enumerate() {
                            lasts[g] = row;
                        }
                        kernels::gather_clone(&v[..], &lasts)
                    }
                    _ => unreachable!("validated above"),
                };
                out.push((spec.output.clone(), ColumnData::Str(picked.into())));
            }
            ColumnData::Dict { dict, codes } => {
                // Type-preserving First/Last over codes: the output shares
                // the input dictionary, no strings are touched.
                let mut picked: Vec<Option<u32>> = vec![None; n_groups];
                for row in 0..frame.rows() {
                    let g = row_group[row];
                    match spec.agg {
                        Agg::First => {
                            if picked[g].is_none() {
                                picked[g] = Some(codes[row]);
                            }
                        }
                        Agg::Last => picked[g] = Some(codes[row]),
                        _ => unreachable!("validated above"),
                    }
                }
                out.push((
                    spec.output.clone(),
                    ColumnData::Dict {
                        dict: Arc::clone(dict),
                        codes: picked
                            .into_iter()
                            .map(|o| o.expect("every group has at least one row"))
                            .collect(),
                    },
                ));
            }
            _ => {
                let mut accs = vec![NumAcc::new(); n_groups];
                match col {
                    ColumnData::F64(v) => {
                        kernels::accumulate_grouped_f64(&mut accs, &row_group, &v[..])
                    }
                    ColumnData::I64(v) => {
                        kernels::accumulate_grouped_i64(&mut accs, &row_group, &v[..])
                    }
                    _ => unreachable!("string aggregates handled above"),
                }
                let data = if spec.agg == Agg::Count {
                    ColumnData::I64(accs.iter().map(|a| a.count as i64).collect())
                } else {
                    ColumnData::F64(accs.iter().map(|a| a.get(spec.agg)).collect())
                };
                out.push((spec.output.clone(), data));
            }
        }
    }
    Frame::new(out)
}

/// Pivot long-format data into wide format: one output column per
/// distinct value of `pivot_col` (sorted), aggregating `value_col` with
/// `agg` per (index, pivot value) cell. Missing cells are NaN.
pub fn pivot<S: AsRef<str>>(
    frame: &Frame,
    index: &[S],
    pivot_col: &str,
    value_col: &str,
    agg: Agg,
) -> Result<Frame, PipelineError> {
    let pivots = frame.cat(pivot_col)?;
    let index_idx: Vec<usize> = index
        .iter()
        .map(|k| frame.index_of(k.as_ref()))
        .collect::<Result<_, _>>()?;
    let values = frame.column(value_col)?;

    // Distinct pivot values (sorted for a stable output schema) plus a
    // per-row output-column slot. Dict inputs resolve slots through a
    // code-indexed table — no hashing and no string touch per row;
    // Str inputs sort borrowed `&str`s and hash each row once.
    let (distinct, slot_of_row): (Vec<String>, Vec<usize>) = match pivots {
        StrColumn::Dict { dict, codes } => {
            let mut used = vec![false; dict.len()];
            for &c in codes {
                used[c as usize] = true;
            }
            let mut used_entries: Vec<usize> = (0..dict.len()).filter(|&e| used[e]).collect();
            used_entries.sort_by(|&a, &b| dict[a].as_str().cmp(dict[b].as_str()));
            let mut table = vec![usize::MAX; dict.len()];
            for (slot, &e) in used_entries.iter().enumerate() {
                table[e] = slot;
            }
            (
                used_entries.iter().map(|&e| dict[e].clone()).collect(),
                codes.iter().map(|&c| table[c as usize]).collect(),
            )
        }
        StrColumn::Str(v) => {
            let mut set: Vec<&str> = v.iter().map(String::as_str).collect();
            set.sort_unstable();
            set.dedup();
            let slot: HashMap<&str, usize> = set.iter().enumerate().map(|(i, &s)| (s, i)).collect();
            (
                set.iter().map(|s| s.to_string()).collect(),
                v.iter().map(|s| slot[s.as_str()]).collect(),
            )
        }
    };

    let (row_group, representative) = KeyCols::of(frame, &index_idx).group_ids(frame.rows());
    // One row-major grid: group g's cell for slot p is `g * width + p`.
    let width = distinct.len();
    let mut cells = vec![NumAcc::new(); representative.len() * width];
    match values {
        ColumnData::F64(v) => {
            kernels::accumulate_cells_f64(&mut cells, width, &row_group, &slot_of_row, &v[..])
        }
        ColumnData::I64(v) => {
            kernels::accumulate_cells_i64(&mut cells, width, &row_group, &slot_of_row, &v[..])
        }
        _ => {
            return Err(PipelineError::TypeMismatch {
                column: value_col.into(),
                expected: "numeric".into(),
            })
        }
    }

    let key_frame = frame.take(&representative);
    let mut out: Vec<(String, ColumnData)> = index
        .iter()
        .map(|k| {
            let k = k.as_ref();
            (
                k.to_string(),
                key_frame.column(k).expect("key exists").clone(),
            )
        })
        .collect();
    for (p, name) in distinct.iter().enumerate() {
        let col: Vec<f64> = (0..representative.len())
            .map(|g| cells[g * width + p].get(agg))
            .collect();
        out.push((name.clone(), ColumnData::F64(col.into())));
    }
    Frame::new(out)
}

/// Melt wide-format data back to long format: the inverse of
/// [`pivot`]. Every column not in `index` becomes a (name, value) row
/// pair under `var_col` / `value_col`. Value columns must be numeric.
pub fn melt<S: AsRef<str>>(
    frame: &Frame,
    index: &[S],
    var_col: &str,
    value_col: &str,
) -> Result<Frame, PipelineError> {
    let index_idx: Vec<usize> = index
        .iter()
        .map(|k| frame.index_of(k.as_ref()))
        .collect::<Result<_, _>>()?;
    let value_cols: Vec<usize> = (0..frame.names().len())
        .filter(|i| !index_idx.contains(i))
        .collect();
    for &ci in &value_cols {
        if matches!(
            frame.column_at(ci),
            ColumnData::Str(_) | ColumnData::Dict { .. }
        ) {
            return Err(PipelineError::TypeMismatch {
                column: frame.names()[ci].clone(),
                expected: "numeric value columns for melt".into(),
            });
        }
    }
    let n_out = frame.rows() * value_cols.len();
    // Repeat the index rows once per value column.
    let mut take_idx = Vec::with_capacity(n_out);
    for row in 0..frame.rows() {
        for _ in 0..value_cols.len() {
            take_idx.push(row);
        }
    }
    let index_frame = frame.select(index)?.take(&take_idx);
    // The variable column repeats the value-column names cyclically:
    // a natural dictionary column (k distinct entries, n*k codes).
    let var_dict: Vec<String> = value_cols
        .iter()
        .map(|&ci| frame.names()[ci].clone())
        .collect();
    let mut var_codes = Vec::with_capacity(n_out);
    let mut values = Vec::with_capacity(n_out);
    for row in 0..frame.rows() {
        for (vi, &ci) in value_cols.iter().enumerate() {
            var_codes.push(vi as u32);
            values.push(numeric_at(frame.column_at(ci), row)?);
        }
    }
    let mut columns: Vec<(String, ColumnData)> = index_frame
        .names()
        .iter()
        .zip(index_frame.columns())
        .map(|(n, c)| (n.clone(), c.clone()))
        .collect();
    columns.push((var_col.to_string(), ColumnData::dict(var_dict, var_codes)));
    columns.push((value_col.to_string(), ColumnData::F64(values.into())));
    Frame::new(columns)
}

/// Inner hash join on equality of `on` columns. Right-side non-key
/// columns are appended; name clashes get an `_r` suffix.
pub fn join_inner<S: AsRef<str>>(
    left: &Frame,
    right: &Frame,
    on: &[S],
) -> Result<Frame, PipelineError> {
    let l_idx: Vec<usize> = on
        .iter()
        .map(|k| left.index_of(k.as_ref()))
        .collect::<Result<_, _>>()?;
    let r_idx: Vec<usize> = on
        .iter()
        .map(|k| right.index_of(k.as_ref()))
        .collect::<Result<_, _>>()?;

    let (l_keys, r_keys) = join_keys(left, &l_idx, right, &r_idx);
    let mut right_groups = GroupTable::new();
    let (row_group, firsts) = right_groups.assign(&r_keys, right.rows());
    let mut right_rows: Vec<Vec<usize>> = vec![Vec::new(); firsts.len()];
    for (row, &g) in row_group.iter().enumerate() {
        right_rows[g].push(row);
    }

    let mut l_take = Vec::new();
    let mut r_take = Vec::new();
    for row in 0..left.rows() {
        if let Some(g) = right_groups.get(&l_keys.key(row)) {
            for &m in &right_rows[g] {
                l_take.push(row);
                r_take.push(m);
            }
        }
    }

    let l_out = left.take(&l_take);
    let r_out = right.take(&r_take);
    let mut columns: Vec<(String, ColumnData)> = l_out
        .names()
        .iter()
        .zip(l_out.columns())
        .map(|(n, c)| (n.clone(), c.clone()))
        .collect();
    for (name, col) in r_out.names().iter().zip(r_out.columns()) {
        if on.iter().any(|k| k.as_ref() == name) {
            continue;
        }
        let out_name = if left.index_of(name).is_ok() {
            format!("{name}_r")
        } else {
            name.clone()
        };
        columns.push((out_name, col.clone()));
    }
    Frame::new(columns)
}

/// Sort rows ascending by an i64 column (stable).
pub fn sort_by_i64(frame: &Frame, col: &str) -> Result<Frame, PipelineError> {
    let keys = frame.i64s(col)?;
    let mut idx: Vec<usize> = (0..frame.rows()).collect();
    idx.sort_by_key(|&i| keys[i]);
    Ok(frame.take(&idx))
}

/// Sort rows ascending by a string-like (`Str` or `Dict`) column
/// (stable).
pub fn sort_by_str(frame: &Frame, col: &str) -> Result<Frame, PipelineError> {
    let keys = frame.cat(col)?;
    let mut idx: Vec<usize> = (0..frame.rows()).collect();
    idx.sort_by(|&a, &b| keys.get(a).cmp(keys.get(b)));
    Ok(frame.take(&idx))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn long_frame() -> Frame {
        // (ts, node, sensor, value): two nodes, two sensors, two windows.
        Frame::new(vec![
            (
                "ts".into(),
                ColumnData::I64(vec![0, 0, 0, 0, 10, 10, 10, 10].into()),
            ),
            (
                "node".into(),
                ColumnData::I64(vec![1, 1, 2, 2, 1, 1, 2, 2].into()),
            ),
            (
                "sensor".into(),
                ColumnData::Str(
                    ["p", "t", "p", "t", "p", "t", "p", "t"]
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                ),
            ),
            (
                "value".into(),
                ColumnData::F64(vec![100.0, 30.0, 200.0, 40.0, 110.0, 31.0, 210.0, 41.0].into()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn group_by_sums_and_counts() {
        let f = long_frame();
        let g = group_by(
            &f,
            &["node"],
            &[
                AggSpec::new("value", Agg::Sum, "total"),
                AggSpec::new("value", Agg::Count, "n"),
                AggSpec::new("value", Agg::Mean, "mean"),
                AggSpec::new("value", Agg::Min, "lo"),
                AggSpec::new("value", Agg::Max, "hi"),
            ],
        )
        .unwrap();
        assert_eq!(g.rows(), 2);
        let node = g.i64s("node").unwrap();
        let total = g.f64s("total").unwrap();
        let n = g.i64s("n").unwrap();
        let i1 = node.iter().position(|&x| x == 1).unwrap();
        assert_eq!(total[i1], 100.0 + 30.0 + 110.0 + 31.0);
        assert_eq!(n[i1], 4);
        assert_eq!(g.f64s("lo").unwrap()[i1], 30.0);
        assert_eq!(g.f64s("hi").unwrap()[i1], 110.0);
        assert!((g.f64s("mean").unwrap()[i1] - 67.75).abs() < 1e-9);
    }

    #[test]
    fn group_by_skips_nan() {
        let f = Frame::new(vec![
            ("k".into(), ColumnData::I64(vec![1, 1, 1].into())),
            ("v".into(), ColumnData::F64(vec![1.0, f64::NAN, 3.0].into())),
        ])
        .unwrap();
        let g = group_by(
            &f,
            &["k"],
            &[
                AggSpec::new("v", Agg::Mean, "m"),
                AggSpec::new("v", Agg::Count, "n"),
            ],
        )
        .unwrap();
        assert_eq!(g.f64s("m").unwrap()[0], 2.0);
        assert_eq!(g.i64s("n").unwrap()[0], 2);
    }

    #[test]
    fn group_by_string_first_last() {
        let f = Frame::new(vec![
            ("k".into(), ColumnData::I64(vec![1, 1, 2].into())),
            (
                "s".into(),
                ColumnData::Str(vec!["a".into(), "b".into(), "c".into()].into()),
            ),
        ])
        .unwrap();
        let g = group_by(
            &f,
            &["k"],
            &[
                AggSpec::new("s", Agg::First, "first"),
                AggSpec::new("s", Agg::Last, "last"),
            ],
        )
        .unwrap();
        assert_eq!(
            g.strs("first").unwrap(),
            &["a".to_string(), "c".to_string()]
        );
        assert_eq!(g.strs("last").unwrap(), &["b".to_string(), "c".to_string()]);
        // Sum over strings is rejected.
        assert!(group_by(&f, &["k"], &[AggSpec::new("s", Agg::Sum, "x")]).is_err());
    }

    #[test]
    fn pivot_long_to_wide() {
        let f = long_frame();
        let w = pivot(&f, &["ts", "node"], "sensor", "value", Agg::Mean).unwrap();
        // 2 windows x 2 nodes = 4 rows; columns ts, node, p, t.
        assert_eq!(w.rows(), 4);
        assert_eq!(w.names(), &["ts", "node", "p", "t"]);
        let ts = w.i64s("ts").unwrap();
        let node = w.i64s("node").unwrap();
        let p = w.f64s("p").unwrap();
        let row = (0..4).find(|&i| ts[i] == 10 && node[i] == 2).unwrap();
        assert_eq!(p[row], 210.0);
    }

    #[test]
    fn pivot_missing_cells_are_nan() {
        let f = Frame::new(vec![
            ("k".into(), ColumnData::I64(vec![1, 2].into())),
            (
                "s".into(),
                ColumnData::Str(vec!["a".into(), "b".into()].into()),
            ),
            ("v".into(), ColumnData::F64(vec![1.0, 2.0].into())),
        ])
        .unwrap();
        let w = pivot(&f, &["k"], "s", "v", Agg::Mean).unwrap();
        let a = w.f64s("a").unwrap();
        let b = w.f64s("b").unwrap();
        let k = w.i64s("k").unwrap();
        let r1 = k.iter().position(|&x| x == 1).unwrap();
        assert_eq!(a[r1], 1.0);
        assert!(b[r1].is_nan());
    }

    #[test]
    fn melt_is_inverse_of_pivot() {
        let f = long_frame();
        let wide = pivot(&f, &["ts", "node"], "sensor", "value", Agg::Mean).unwrap();
        let long = melt(&wide, &["ts", "node"], "sensor", "value").unwrap();
        assert_eq!(long.rows(), f.rows());
        // Re-pivoting the melted frame reproduces the wide frame.
        let wide2 = pivot(&long, &["ts", "node"], "sensor", "value", Agg::Mean).unwrap();
        assert_eq!(wide2, wide);
    }

    #[test]
    fn melt_rejects_string_value_columns() {
        let f = Frame::new(vec![
            ("k".into(), ColumnData::I64(vec![1].into())),
            ("s".into(), ColumnData::Str(vec!["x".into()].into())),
        ])
        .unwrap();
        assert!(melt(&f, &["k"], "var", "val").is_err());
    }

    #[test]
    fn join_matches_and_suffixes() {
        let left = Frame::new(vec![
            ("node".into(), ColumnData::I64(vec![1, 2, 3].into())),
            ("v".into(), ColumnData::F64(vec![0.1, 0.2, 0.3].into())),
        ])
        .unwrap();
        let right = Frame::new(vec![
            ("node".into(), ColumnData::I64(vec![2, 3, 4].into())),
            ("job".into(), ColumnData::I64(vec![20, 30, 40].into())),
            ("v".into(), ColumnData::F64(vec![9.0, 9.0, 9.0].into())),
        ])
        .unwrap();
        let j = join_inner(&left, &right, &["node"]).unwrap();
        assert_eq!(j.rows(), 2);
        assert_eq!(j.i64s("node").unwrap(), &[2, 3]);
        assert_eq!(j.i64s("job").unwrap(), &[20, 30]);
        // Clashing non-key column got suffixed.
        assert_eq!(j.f64s("v_r").unwrap(), &[9.0, 9.0]);
        assert_eq!(j.f64s("v").unwrap(), &[0.2, 0.3]);
    }

    #[test]
    fn join_one_to_many_expands() {
        let left = Frame::new(vec![("k".into(), ColumnData::I64(vec![1].into()))]).unwrap();
        let right = Frame::new(vec![
            ("k".into(), ColumnData::I64(vec![1, 1, 1].into())),
            ("x".into(), ColumnData::I64(vec![7, 8, 9].into())),
        ])
        .unwrap();
        let j = join_inner(&left, &right, &["k"]).unwrap();
        assert_eq!(j.rows(), 3);
        assert_eq!(j.i64s("x").unwrap(), &[7, 8, 9]);
    }

    #[test]
    fn sorts_are_stable() {
        let f = Frame::new(vec![
            ("k".into(), ColumnData::I64(vec![3, 1, 2, 1].into())),
            (
                "tag".into(),
                ColumnData::Str(vec!["a".into(), "b".into(), "c".into(), "d".into()].into()),
            ),
        ])
        .unwrap();
        let s = sort_by_i64(&f, "k").unwrap();
        assert_eq!(s.i64s("k").unwrap(), &[1, 1, 2, 3]);
        assert_eq!(
            s.strs("tag").unwrap(),
            &["b".to_string(), "d".into(), "c".into(), "a".into()]
        );
        let s = sort_by_str(&f, "tag").unwrap();
        assert_eq!(s.strs("tag").unwrap()[0], "a");
    }

    #[test]
    fn pivot_dict_matches_str() {
        // Same logical frame, sensor column dictionary-encoded with a
        // shuffled dictionary: pivot output must be identical.
        let f = long_frame();
        let w_str = pivot(&f, &["ts", "node"], "sensor", "value", Agg::Mean).unwrap();
        let mut cols: Vec<(String, ColumnData)> = f
            .names()
            .iter()
            .zip(f.columns())
            .map(|(n, c)| (n.clone(), c.clone()))
            .collect();
        cols[2].1 = ColumnData::dict(
            vec!["t".into(), "unused".into(), "p".into()],
            vec![2, 0, 2, 0, 2, 0, 2, 0],
        );
        let fd = Frame::new(cols).unwrap();
        let w_dict = pivot(&fd, &["ts", "node"], "sensor", "value", Agg::Mean).unwrap();
        assert_eq!(
            w_dict.names(),
            w_str.names(),
            "unused entries must not pivot"
        );
        assert_eq!(w_dict, w_str);
    }

    #[test]
    fn group_by_dict_first_last_preserves_dictionary() {
        let f = Frame::new(vec![
            ("k".into(), ColumnData::I64(vec![1, 1, 2].into())),
            (
                "s".into(),
                ColumnData::dict(vec!["a".into(), "b".into(), "c".into()], vec![0, 1, 2]),
            ),
        ])
        .unwrap();
        let g = group_by(
            &f,
            &["k"],
            &[
                AggSpec::new("s", Agg::First, "first"),
                AggSpec::new("s", Agg::Last, "last"),
            ],
        )
        .unwrap();
        let first = g.cat("first").unwrap();
        let last = g.cat("last").unwrap();
        assert_eq!(first.iter().collect::<Vec<_>>(), vec!["a", "c"]);
        assert_eq!(last.iter().collect::<Vec<_>>(), vec!["b", "c"]);
        assert!(g.dict("first").is_ok(), "output stays dictionary-encoded");
        // Numeric aggregates over dict strings are rejected, like Str.
        assert!(group_by(&f, &["k"], &[AggSpec::new("s", Agg::Sum, "x")]).is_err());
    }

    #[test]
    fn join_matches_across_str_and_dict_keys() {
        let left = Frame::new(vec![
            (
                "dev".into(),
                ColumnData::Str(vec!["cpu0".into(), "gpu1".into(), "cpu9".into()].into()),
            ),
            ("v".into(), ColumnData::I64(vec![1, 2, 3].into())),
        ])
        .unwrap();
        let right = Frame::new(vec![
            (
                "dev".into(),
                ColumnData::dict(vec!["gpu1".into(), "cpu0".into()], vec![0, 1]),
            ),
            ("w".into(), ColumnData::I64(vec![10, 20].into())),
        ])
        .unwrap();
        let j = join_inner(&left, &right, &["dev"]).unwrap();
        assert_eq!(j.rows(), 2);
        assert_eq!(j.i64s("v").unwrap(), &[1, 2]);
        assert_eq!(j.i64s("w").unwrap(), &[20, 10]);
    }

    #[test]
    fn melt_emits_dict_variable_column() {
        let f = long_frame();
        let wide = pivot(&f, &["ts", "node"], "sensor", "value", Agg::Mean).unwrap();
        let long = melt(&wide, &["ts", "node"], "sensor", "value").unwrap();
        assert!(
            long.dict("sensor").is_ok(),
            "melt vars are dictionary-encoded"
        );
        let (dict, codes) = long.dict("sensor").unwrap();
        assert_eq!(dict.as_slice(), &["p".to_string(), "t".to_string()]);
        assert_eq!(codes.len(), long.rows());
    }
}
