//! Chunked, branch-lean compute kernels over primitive slices and
//! dictionary codes.
//!
//! Every hot row loop in the pipeline — filter, gather, predicate
//! masks, grouped aggregation — funnels through this module instead of
//! living as a private loop in its consumer, so there is exactly one
//! place where the access pattern is tuned. The kernel contract
//! (DESIGN.md §13):
//!
//! * Kernels take plain slices (`&[T]`, `&[bool]`, `&[u32]` codes) and
//!   return owned `Vec`s or mutate a caller-provided mask in place —
//!   they never see `Frame`, `ColumnData`, or `Buffer`. Callers decide
//!   what is a view and what is a copy; kernels only compute.
//! * Filter kernels walk the mask in fixed [`CHUNK`]-row blocks and
//!   count each block first: all-true blocks bulk-copy
//!   (`extend_from_slice`), all-false blocks are skipped, and only
//!   mixed blocks fall back to a per-row loop. For `Copy` values that
//!   loop does not branch either: it writes every row into a stack
//!   block, advances past the kept ones, and appends the block.
//! * Comparison kernels hoist the operator match out of the loop so
//!   the inner loop is a single fused compare-and-AND per row, and
//!   follow `Expr` semantics exactly: i64 coerces to f64, NaN compares
//!   false for every operator except `!=`.

use crate::expr::CmpOp;
use crate::ops::Agg;

/// Rows per block in the chunked filter kernels.
pub const CHUNK: usize = 64;

/// Number of set lanes in `mask`.
pub fn count_true(mask: &[bool]) -> usize {
    mask.iter().map(|&m| m as usize).sum()
}

/// A filter mask with its set lanes counted once per [`CHUNK`]-row
/// block, so that every column filtered through it reuses the counts.
pub struct CountedMask<'a> {
    mask: &'a [bool],
    /// Set lanes in each block, in block order.
    counts: Vec<u8>,
    /// Set lanes in the whole mask.
    kept: usize,
}

impl<'a> CountedMask<'a> {
    /// Count `mask`'s set lanes block by block.
    pub fn new(mask: &'a [bool]) -> CountedMask<'a> {
        let counts: Vec<u8> = mask.chunks(CHUNK).map(|mc| count_true(mc) as u8).collect();
        let kept = counts.iter().map(|&n| usize::from(n)).sum();
        CountedMask { mask, counts, kept }
    }

    /// Number of set lanes, the length of every filtered column.
    pub fn kept(&self) -> usize {
        self.kept
    }

    /// Each block of `vals` beside its mask block and set-lane count.
    ///
    /// # Panics
    /// If `vals` and the mask lengths differ.
    fn blocks<'v, T>(
        &'v self,
        vals: &'v [T],
    ) -> impl Iterator<Item = (&'v [T], &'v [bool], usize)> {
        assert_eq!(vals.len(), self.mask.len(), "mask length mismatch");
        let chunks = vals.chunks(CHUNK).zip(self.mask.chunks(CHUNK));
        chunks
            .zip(&self.counts)
            .map(|((vc, mc), &n)| (vc, mc, usize::from(n)))
    }

    /// The `Copy` elements of `vals` whose lanes are set.
    ///
    /// # Panics
    /// If `vals` and the mask lengths differ.
    pub fn filter_copy<T: Copy>(&self, vals: &[T]) -> Vec<T> {
        let blocks = self.blocks(vals);
        let mut out = Vec::with_capacity(self.kept);
        let Some(&fill) = vals.first() else {
            return out;
        };
        let mut block = [fill; CHUNK];
        for (vc, mc, n) in blocks {
            if n == mc.len() {
                out.extend_from_slice(vc);
            } else if n > 0 {
                // Every row is written at the cursor; only a kept row moves
                // it. The cursor never passes the row index, so `% CHUNK`
                // changes nothing but lets the bounds check go.
                let mut kept = 0;
                for (&v, &m) in vc.iter().zip(mc) {
                    block[kept % CHUNK] = v;
                    kept += usize::from(m);
                }
                out.extend_from_slice(&block[..kept]);
            }
        }
        out
    }

    /// The `Clone` elements (strings) of `vals` whose lanes are set.
    ///
    /// # Panics
    /// If `vals` and the mask lengths differ.
    pub fn filter_clone<T: Clone>(&self, vals: &[T]) -> Vec<T> {
        let mut out = Vec::with_capacity(self.kept);
        for (vc, mc, n) in self.blocks(vals) {
            if n == mc.len() {
                out.extend_from_slice(vc);
            } else if n > 0 {
                for (v, &m) in vc.iter().zip(mc) {
                    if m {
                        out.push(v.clone());
                    }
                }
            }
        }
        out
    }
}

/// Filter `Copy` elements through `mask`.
///
/// # Panics
/// If `vals` and `mask` lengths differ.
pub fn filter_copy<T: Copy>(vals: &[T], mask: &[bool]) -> Vec<T> {
    CountedMask::new(mask).filter_copy(vals)
}

/// Filter `Clone` elements (strings) through `mask`.
///
/// # Panics
/// If `vals` and `mask` lengths differ.
pub fn filter_clone<T: Clone>(vals: &[T], mask: &[bool]) -> Vec<T> {
    CountedMask::new(mask).filter_clone(vals)
}

/// Gather `Copy` elements by row index (indices may repeat/reorder).
pub fn gather_copy<T: Copy>(vals: &[T], indices: &[usize]) -> Vec<T> {
    indices.iter().map(|&i| vals[i]).collect()
}

/// Gather `Clone` elements by row index (indices may repeat/reorder).
pub fn gather_clone<T: Clone>(vals: &[T], indices: &[usize]) -> Vec<T> {
    indices.iter().map(|&i| vals[i].clone()).collect()
}

#[inline]
fn mask_and_by<T: Copy>(mask: &mut [bool], vals: &[T], f: impl Fn(T) -> bool) {
    for (m, &x) in mask.iter_mut().zip(vals) {
        *m &= f(x);
    }
}

/// AND a per-code truth table into `mask` over dictionary codes: the
/// dictionary is tested once per distinct entry (building `table`),
/// never per row.
pub fn mask_and_code_table(mask: &mut [bool], codes: &[u32], table: &[bool]) {
    mask_and_by(mask, codes, |c| table[c as usize]);
}

/// AND `s op value` into `mask` over plain strings. The operator match
/// is hoisted out of the loop.
pub fn mask_and_cmp_str(mask: &mut [bool], vals: &[String], op: CmpOp, value: &str) {
    match op {
        CmpOp::Eq => mask_and_str_by(mask, vals, |x| x == value),
        CmpOp::Ne => mask_and_str_by(mask, vals, |x| x != value),
        CmpOp::Lt => mask_and_str_by(mask, vals, |x| x < value),
        CmpOp::Le => mask_and_str_by(mask, vals, |x| x <= value),
        CmpOp::Gt => mask_and_str_by(mask, vals, |x| x > value),
        CmpOp::Ge => mask_and_str_by(mask, vals, |x| x >= value),
    }
}

#[inline]
fn mask_and_str_by(mask: &mut [bool], vals: &[String], f: impl Fn(&str) -> bool) {
    for (m, s) in mask.iter_mut().zip(vals) {
        *m &= f(s);
    }
}

/// AND `x op value` into `mask` over f64 values. The operator match is
/// hoisted out of the loop.
pub fn mask_and_cmp_f64(mask: &mut [bool], vals: &[f64], op: CmpOp, value: f64) {
    match op {
        CmpOp::Eq => mask_and_by(mask, vals, |x| x == value),
        CmpOp::Ne => mask_and_by(mask, vals, |x| x != value),
        CmpOp::Lt => mask_and_by(mask, vals, |x| x < value),
        CmpOp::Le => mask_and_by(mask, vals, |x| x <= value),
        CmpOp::Gt => mask_and_by(mask, vals, |x| x > value),
        CmpOp::Ge => mask_and_by(mask, vals, |x| x >= value),
    }
}

/// AND `(x as f64) op value` into `mask` over i64 values (the same
/// int-to-float coercion `Expr` comparisons use).
pub fn mask_and_cmp_i64(mask: &mut [bool], vals: &[i64], op: CmpOp, value: f64) {
    match op {
        CmpOp::Eq => mask_and_by(mask, vals, |x| x as f64 == value),
        CmpOp::Ne => mask_and_by(mask, vals, |x| x as f64 != value),
        CmpOp::Lt => mask_and_by(mask, vals, |x| (x as f64) < value),
        CmpOp::Le => mask_and_by(mask, vals, |x| x as f64 <= value),
        CmpOp::Gt => mask_and_by(mask, vals, |x| x as f64 > value),
        CmpOp::Ge => mask_and_by(mask, vals, |x| x as f64 >= value),
    }
}

/// Streaming sum/count/min/max/first/last accumulator with NaN-skipping
/// semantics (NaN still counts for First/Last, which record raw
/// values). Shared by `ops::group_by`, `ops::pivot`, and the grouped
/// kernels below.
#[derive(Debug, Clone)]
pub(crate) struct NumAcc {
    pub(crate) sum: f64,
    pub(crate) count: u64,
    pub(crate) min: f64,
    pub(crate) max: f64,
    pub(crate) first: f64,
    pub(crate) last: f64,
    pub(crate) seen: bool,
}

impl NumAcc {
    pub(crate) fn new() -> NumAcc {
        NumAcc {
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            first: f64::NAN,
            last: f64::NAN,
            seen: false,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, v: f64) {
        if !self.seen {
            self.first = v;
            self.seen = true;
        }
        self.last = v;
        if v.is_nan() {
            return;
        }
        self.sum += v;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub(crate) fn get(&self, agg: Agg) -> f64 {
        match agg {
            Agg::Sum => self.sum,
            Agg::Mean => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.sum / self.count as f64
                }
            }
            Agg::Min => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.min
                }
            }
            Agg::Max => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.max
                }
            }
            Agg::Count => self.count as f64,
            Agg::First => self.first,
            Agg::Last => self.last,
        }
    }
}

/// Accumulate f64 values into per-group accumulators: row i feeds
/// `accs[groups[i]]`.
pub(crate) fn accumulate_grouped_f64(accs: &mut [NumAcc], groups: &[usize], vals: &[f64]) {
    for (&g, &v) in groups.iter().zip(vals) {
        accs[g].push(v);
    }
}

/// Accumulate i64 values (coerced to f64) into per-group accumulators.
pub(crate) fn accumulate_grouped_i64(accs: &mut [NumAcc], groups: &[usize], vals: &[i64]) {
    for (&g, &v) in groups.iter().zip(vals) {
        accs[g].push(v as f64);
    }
}

/// Accumulate f64 values into a row-major (group, slot) cell grid
/// `width` slots wide: row i feeds `cells[groups[i] * width + slots[i]]`
/// — the pivot inner loop.
pub(crate) fn accumulate_cells_f64(
    cells: &mut [NumAcc],
    width: usize,
    groups: &[usize],
    slots: &[usize],
    vals: &[f64],
) {
    for ((&g, &s), &v) in groups.iter().zip(slots).zip(vals) {
        cells[g * width + s].push(v);
    }
}

/// Accumulate i64 values (coerced to f64) into a (group, slot) grid.
pub(crate) fn accumulate_cells_i64(
    cells: &mut [NumAcc],
    width: usize,
    groups: &[usize],
    slots: &[usize],
    vals: &[i64],
) {
    for ((&g, &s), &v) in groups.iter().zip(slots).zip(vals) {
        cells[g * width + s].push(v as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use oda_storage::colfile::ColumnData;
    use proptest::prelude::*;

    fn scattered_mask(n: usize) -> Vec<bool> {
        (0..n).map(|i| i % 3 != 1).collect()
    }

    #[test]
    fn filter_copy_matches_naive_across_block_shapes() {
        // Cover all-true blocks, all-false blocks, mixed blocks, and a
        // ragged tail shorter than CHUNK.
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 7, 3 * CHUNK + 5] {
            let vals: Vec<i64> = (0..n as i64).collect();
            for mask in [
                vec![true; n],
                vec![false; n],
                scattered_mask(n),
                (0..n).map(|i| i < n / 2).collect::<Vec<bool>>(),
            ] {
                let naive: Vec<i64> = vals
                    .iter()
                    .zip(&mask)
                    .filter(|(_, &m)| m)
                    .map(|(v, _)| *v)
                    .collect();
                assert_eq!(filter_copy(&vals, &mask), naive, "n={n}");
                assert_eq!(count_true(&mask), naive.len());
            }
        }
    }

    /// The rows of `vals` where `mask` is set, one at a time.
    fn naive<T: Clone>(vals: &[T], mask: &[bool]) -> Vec<T> {
        let kept = vals.iter().zip(mask).filter(|(_, &m)| m);
        kept.map(|(v, _)| v.clone()).collect()
    }

    proptest! {
        /// Differential: `filter_copy` and `Frame::filter_mask` keep
        /// exactly the rows a row-at-a-time filter keeps, in order, over
        /// every block shape: drawn densities, all-true and all-false
        /// blocks, only the first row dropped, only the last row kept
        /// (in a ragged tail too).
        #[test]
        fn filters_match_the_naive_filter(
            len in 0usize..300,
            density in 0u32..=100,
            shapes in proptest::collection::vec(0u8..5, 5),
            noise in proptest::collection::vec(0u32..100, 300),
        ) {
            let mask: Vec<bool> = (0..len)
                .map(|i| {
                    let last = ((i / CHUNK + 1) * CHUNK).min(len) - 1;
                    match shapes[i / CHUNK] {
                        0 => noise[i] < density,
                        1 => true,
                        2 => false,
                        3 => i % CHUNK != 0,
                        _ => i == last,
                    }
                })
                .collect();
            let ints: Vec<i64> = (0..len as i64).map(|i| i * 7 - 300).collect();
            let floats: Vec<f64> = ints.iter().map(|&i| f64::from_bits(i as u64)).collect();
            let codes: Vec<u32> = (0..len as u32).map(|i| i % 3).collect();
            let strs: Vec<String> = (0..len).map(|i| format!("s{i}")).collect();
            prop_assert_eq!(filter_copy(&ints, &mask), naive(&ints, &mask));
            prop_assert_eq!(filter_copy(&codes, &mask), naive(&codes, &mask));
            let dict = ["a", "b", "c"].map(String::from).to_vec();
            let frame = Frame::new(vec![
                ("i".into(), ColumnData::I64(ints.clone().into())),
                ("f".into(), ColumnData::F64(floats.clone().into())),
                ("s".into(), ColumnData::Str(strs.clone().into())),
                ("d".into(), ColumnData::dict(dict, codes.clone())),
            ])
            .unwrap();
            let kept = frame.filter_mask(&mask);
            prop_assert_eq!(kept.rows(), count_true(&mask));
            prop_assert_eq!(kept.i64s("i").unwrap(), &naive(&ints, &mask)[..]);
            let bits = |f: &[f64]| f.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(kept.f64s("f").unwrap()), bits(&naive(&floats, &mask)));
            prop_assert_eq!(kept.strs("s").unwrap(), &naive(&strs, &mask)[..]);
            prop_assert_eq!(kept.dict("d").unwrap().1, &naive(&codes, &mask)[..]);
        }
    }

    #[test]
    fn filter_clone_matches_naive() {
        let vals: Vec<String> = (0..150).map(|i| format!("s{i}")).collect();
        let mask = scattered_mask(150);
        let naive: Vec<String> = vals
            .iter()
            .zip(&mask)
            .filter(|(_, &m)| m)
            .map(|(v, _)| v.clone())
            .collect();
        assert_eq!(filter_clone(&vals, &mask), naive);
    }

    #[test]
    #[should_panic(expected = "mask length mismatch")]
    fn filter_rejects_ragged_mask() {
        filter_copy(&[1i64, 2], &[true]);
    }

    #[test]
    fn gather_repeats_and_reorders() {
        assert_eq!(gather_copy(&[10i64, 20, 30], &[2, 0, 0]), vec![30, 10, 10]);
        assert_eq!(
            gather_clone(&["a".to_string(), "b".to_string()], &[1, 1, 0]),
            vec!["b".to_string(), "b".to_string(), "a".to_string()]
        );
    }

    #[test]
    fn code_table_mask_matches_per_row_lookup() {
        let codes: Vec<u32> = (0..100).map(|i| (i % 4) as u32).collect();
        let table = [true, false, true, false];
        let mut mask = vec![true; 100];
        mask[7] = false; // pre-cleared lanes stay cleared
        mask_and_code_table(&mut mask, &codes, &table);
        for (i, (&m, &c)) in mask.iter().zip(&codes).enumerate() {
            assert_eq!(m, i != 7 && table[c as usize]);
        }
    }

    #[test]
    fn cmp_masks_follow_ieee_and_coercion_semantics() {
        let vals = [1.0, f64::NAN, 3.0];
        for (op, expect) in [
            (CmpOp::Lt, [true, false, false]),
            (CmpOp::Ne, [true, true, true]),
            (CmpOp::Eq, [false, false, false]),
            (CmpOp::Ge, [false, false, true]),
        ] {
            let mut mask = vec![true; 3];
            mask_and_cmp_f64(&mut mask, &vals, op, 2.0);
            assert_eq!(mask, expect, "{op:?}");
        }
        let ints = [1i64, 2, 3];
        let mut mask = vec![true; 3];
        mask_and_cmp_i64(&mut mask, &ints, CmpOp::Le, 2.0);
        assert_eq!(mask, vec![true, true, false]);
    }

    #[test]
    fn grouped_accumulation_matches_scalar_pushes() {
        let groups = [0usize, 1, 0, 1, 0];
        let vals = [1.0, 10.0, f64::NAN, 20.0, 3.0];
        let mut accs = vec![NumAcc::new(), NumAcc::new()];
        accumulate_grouped_f64(&mut accs, &groups, &vals);
        assert_eq!(accs[0].get(Agg::Sum), 4.0);
        assert_eq!(accs[0].get(Agg::Count), 2.0);
        assert_eq!(accs[0].get(Agg::First), 1.0);
        assert_eq!(accs[0].get(Agg::Last), 3.0);
        assert_eq!(accs[1].get(Agg::Mean), 15.0);
        let mut iaccs = vec![NumAcc::new()];
        accumulate_grouped_i64(&mut iaccs, &[0, 0], &[2, 4]);
        assert_eq!(iaccs[0].get(Agg::Max), 4.0);
    }

    #[test]
    fn cell_accumulation_matches_scalar_pushes() {
        let groups = [0usize, 0, 1];
        let slots = [0usize, 1, 0];
        // Two groups × two slots, row-major.
        let mut cells = vec![NumAcc::new(); 4];
        accumulate_cells_f64(&mut cells, 2, &groups, &slots, &[1.0, 2.0, 3.0]);
        assert_eq!(cells[0].get(Agg::Sum), 1.0);
        assert_eq!(cells[1].get(Agg::Sum), 2.0);
        assert_eq!(cells[2].get(Agg::Sum), 3.0);
        assert!(cells[3].get(Agg::Mean).is_nan());
        let mut icells = vec![NumAcc::new()];
        accumulate_cells_i64(&mut icells, 1, &[0], &[0], &[7]);
        assert_eq!(icells[0].get(Agg::Last), 7.0);
    }
}
