//! Unified logical query plan with predicate pushdown and secondary
//! indexes.
//!
//! Every read path in the stack — LAKE range queries, the medallion's
//! Fig. 4-b clause list, analytics scans — describes *what* it wants as a
//! [`LogicalPlan`] (one scan, then its clauses in order: WHERE, WINDOW,
//! GROUP BY, PIVOT, JOIN, SELECT, SORT, LIMIT) and lets one optimizer
//! decide *how*: predicates and projections are pushed into the scan,
//! where the executor cashes them out as colfile row-group pruning
//! (footer min/max stats), secondary-index lookups (`value → row-group
//! bitmap`) and dictionary-code predicate evaluation that never touches
//! strings.
//!
//! The paper's "inundation" problem is exactly this: ODA queries touch a
//! sliver of the telemetry lake, so reads must be proportional to the
//! answer, not the archive. [`ExecStats`] quantifies the effect
//! (`chunks_read` vs `chunks_pruned`) and feeds the
//! `query_chunks_pruned_total` / `query_index_hits_total` counters and
//! the `plan_executed` trace event.
//!
//! Entry point: [`Query::scan`] / [`Query::scan_table`].
//!
//! ```
//! use oda_pipeline::logical::Query;
//! use oda_pipeline::expr::Expr;
//! # use oda_pipeline::frame::Frame;
//! # use oda_storage::colfile::ColumnData;
//! # let frame = Frame::new(vec![
//! #     ("ts".into(), ColumnData::I64(vec![1, 2].into())),
//! #     ("value".into(), ColumnData::F64(vec![0.5, 1.5].into())),
//! # ]).unwrap();
//! let out = Query::scan(frame)
//!     .filter(Expr::col("value").gt(Expr::LitF(1.0)))
//!     .select(&["ts"])
//!     .execute()
//!     .unwrap();
//! assert_eq!(out.rows(), 1);
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use oda_obs::{trace_id, trace_span, Registry, TraceEventKind, SERVICE_TRACE};
use oda_storage::colfile::{ChunkStats, ColumnData, ColumnType, LazyTable, TableFile, TableSchema};

use crate::error::PipelineError;
use crate::expr::{literal_operand, mask_and_cmp_literal, CmpOp, Expr, Literal};
use crate::frame::Frame;
use crate::ops::{self, Agg, AggSpec};
use crate::window::assign_window;

/// What a plan's scan reads from.
#[derive(Debug, Clone)]
enum Source {
    /// An in-memory frame (streaming epochs, batch Bronze).
    Frame(Frame),
    /// A parsed colfile — the only source with row groups to prune.
    Table(Arc<TableFile>),
}

impl Source {
    /// How the executor will answer a pushed predicate: `index`
    /// (secondary index bitmap), `stats` (footer min/max pruning) or
    /// `eval` (decode and test).
    fn strategy(&self, p: &ScanPredicate) -> &'static str {
        let Source::Table(t) = self else {
            return "eval";
        };
        match p {
            ScanPredicate::CatEq { column, .. } if t.has_index(column) => "index",
            ScanPredicate::NumCmp { column, .. } => {
                let numeric = t
                    .schema()
                    .index_of(column)
                    .map(|c| matches!(t.schema().columns[c].1, ColumnType::I64 | ColumnType::F64))
                    .unwrap_or(false);
                if numeric {
                    "stats"
                } else {
                    "eval"
                }
            }
            _ => "eval",
        }
    }
}

/// A predicate simple enough to push into the scan, where it can prune
/// row groups before their chunks are decoded.
#[derive(Debug, Clone)]
enum ScanPredicate {
    /// Categorical equality (`col == "value"`); answered by a secondary
    /// index when the colfile carries one, by dictionary-code
    /// comparison otherwise.
    CatEq { column: String, value: String },
    /// Categorical inequality (`col != "value"`).
    CatNe { column: String, value: String },
    /// Numeric comparison against a literal, column on the left; prunes
    /// row groups through footer min/max stats. Integer literals are
    /// carried as f64, which matches [`Expr`] comparison semantics (i64
    /// coerces to f64).
    NumCmp {
        column: String,
        op: CmpOp,
        value: f64,
    },
}

impl ScanPredicate {
    /// The column the predicate reads.
    fn column(&self) -> &str {
        match self {
            ScanPredicate::CatEq { column, .. }
            | ScanPredicate::CatNe { column, .. }
            | ScanPredicate::NumCmp { column, .. } => column,
        }
    }

    /// Deterministic rendering for [`LogicalPlan::explain`].
    fn render(&self) -> String {
        match self {
            ScanPredicate::CatEq { column, value } => format!("{column} == {value:?}"),
            ScanPredicate::CatNe { column, value } => format!("{column} != {value:?}"),
            ScanPredicate::NumCmp { column, op, value } => {
                format!("{column} {} {value:?}", cmp_symbol(*op))
            }
        }
    }

    /// AND the predicate's row mask for `col` into `mask`.
    ///
    /// Matches [`Expr`] comparison semantics exactly: i64 coerces to
    /// f64, NaN compares false, and incompatible types error. Dict
    /// columns are evaluated on u32 codes — the dictionary is tested
    /// once per distinct value, never per row.
    fn apply(&self, col: &ColumnData, mask: &mut [bool]) -> Result<(), PipelineError> {
        let (op, lit) = match self {
            ScanPredicate::CatEq { value, .. } => (CmpOp::Eq, Literal::Str(value)),
            ScanPredicate::CatNe { value, .. } => (CmpOp::Ne, Literal::Str(value)),
            ScanPredicate::NumCmp { op, value, .. } => (*op, Literal::Num(*value)),
        };
        if mask_and_cmp_literal(mask, col, op, lit) {
            return Ok(());
        }
        let expected = match lit {
            Literal::Str(_) => "string column for categorical predicate",
            Literal::Num(_) => "numeric column for comparison",
        };
        Err(PipelineError::TypeMismatch {
            column: self.column().to_string(),
            expected: expected.into(),
        })
    }

    /// Can footer stats rule out a whole row group for this predicate?
    /// `true` means the group may contain matches and must be read.
    /// Stats exclude NaN, which is safe: NaN rows never match a
    /// comparison anyway.
    fn admits(&self, stats: Option<&ChunkStats>) -> bool {
        let ScanPredicate::NumCmp { op, value, .. } = self else {
            return true;
        };
        let (min, max) = match stats {
            Some(ChunkStats::I64 { min, max }) => (*min as f64, *max as f64),
            Some(ChunkStats::F64 { min, max }) => (*min, *max),
            Some(ChunkStats::None) | None => return true,
        };
        match op {
            CmpOp::Eq => min <= *value && *value <= max,
            CmpOp::Ne => true,
            CmpOp::Lt => min < *value,
            CmpOp::Le => min <= *value,
            CmpOp::Gt => max > *value,
            CmpOp::Ge => max >= *value,
        }
    }
}

/// One clause of the Fig. 4-b anatomy, applied to the frame the clause
/// before it produced.
#[derive(Debug, Clone)]
enum Op {
    /// WHERE: keep rows matching an arbitrary expression.
    Filter(Expr),
    /// SELECT: keep a subset of columns, in the listed order.
    Project(Vec<String>),
    /// Append a tumbling `window` column derived from a timestamp (ms).
    Window { ts_col: String, width_ms: i64 },
    /// GROUP BY with aggregations.
    Aggregate {
        keys: Vec<String>,
        aggs: Vec<AggSpec>,
    },
    /// PIVOT long to wide.
    Pivot {
        index: Vec<String>,
        pivot_col: String,
        value_col: String,
        agg: Agg,
    },
    /// Inner join with a context frame on equality of `on`.
    Join { right: Frame, on: Vec<String> },
    /// Stable ascending sort by an i64 column, or by a string/dict
    /// column when `by_str`.
    Sort { col: String, by_str: bool },
    /// Keep the first `n` rows.
    Limit(usize),
}

impl Op {
    /// The SQL clause this is in the Fig. 4-b anatomy.
    fn clause(&self) -> &'static str {
        match self {
            Op::Filter(_) => "WHERE",
            Op::Project(_) => "SELECT",
            Op::Window { .. } => "WINDOW",
            Op::Aggregate { .. } => "GROUP BY",
            Op::Pivot { .. } => "PIVOT",
            Op::Join { .. } => "JOIN",
            Op::Sort { .. } => "SORT",
            Op::Limit(_) => "LIMIT",
        }
    }

    fn apply(&self, frame: Frame) -> Result<Frame, PipelineError> {
        match self {
            Op::Filter(predicate) => {
                let mask = predicate.eval_mask(&frame)?;
                Ok(frame.filter_mask(&mask))
            }
            Op::Project(columns) => frame.select(columns),
            Op::Window { ts_col, width_ms } => assign_window(&frame, ts_col, *width_ms),
            Op::Aggregate { keys, aggs } => ops::group_by(&frame, keys, aggs),
            Op::Pivot {
                index,
                pivot_col,
                value_col,
                agg,
            } => ops::pivot(&frame, index, pivot_col, value_col, *agg),
            Op::Join { right, on } => ops::join_inner(&frame, right, on),
            Op::Sort { col, by_str: false } => ops::sort_by_i64(&frame, col),
            Op::Sort { col, by_str: true } => ops::sort_by_str(&frame, col),
            Op::Limit(n) => {
                let keep: Vec<usize> = (0..frame.rows().min(*n)).collect();
                Ok(frame.take(&keep))
            }
        }
    }

    /// The input columns this clause needs, given the columns `req`
    /// needed of its output (`None` = everything).
    fn required(&self, req: Option<BTreeSet<String>>) -> Option<BTreeSet<String>> {
        let set = |cols: &[String]| cols.iter().cloned().collect::<BTreeSet<_>>();
        match self {
            Op::Filter(predicate) => req.map(|mut r| {
                expr_columns(predicate, &mut r);
                r
            }),
            Op::Project(columns) => Some(set(columns)),
            Op::Window { ts_col, .. } => req.map(|mut r| {
                r.remove("window");
                r.insert(ts_col.clone());
                r
            }),
            Op::Aggregate { keys, aggs } => {
                let mut r = set(keys);
                r.extend(aggs.iter().map(|a| a.column.clone()));
                Some(r)
            }
            Op::Pivot {
                index,
                pivot_col,
                value_col,
                ..
            } => {
                let mut r = set(index);
                r.insert(pivot_col.clone());
                r.insert(value_col.clone());
                Some(r)
            }
            // Conservative: keep the join keys and every name the right
            // side could contribute — a left column sharing a right
            // column's name decides the `_r` suffix, so it must survive.
            Op::Join { right, on } => req.map(|mut r| {
                r.extend(on.iter().cloned());
                r.extend(right.names().iter().cloned());
                r
            }),
            Op::Sort { col, .. } => req.map(|mut r| {
                r.insert(col.clone());
                r
            }),
            Op::Limit(_) => req,
        }
    }

    /// The clause's [`LogicalPlan::explain`] line.
    fn render(&self) -> String {
        match self {
            Op::Filter(predicate) => format!("Filter {}", render_expr(predicate)),
            Op::Project(columns) => format!("Project [{}]", columns.join(", ")),
            Op::Window { ts_col, width_ms } => format!("Window ts={ts_col} width_ms={width_ms}"),
            Op::Aggregate { keys, aggs } => {
                let rendered: Vec<String> = aggs
                    .iter()
                    .map(|a| format!("{}({}) AS {}", agg_name(a.agg), a.column, a.output))
                    .collect();
                format!(
                    "Aggregate keys=[{}] aggs=[{}]",
                    keys.join(", "),
                    rendered.join(", ")
                )
            }
            Op::Pivot {
                index,
                pivot_col,
                value_col,
                agg,
            } => format!(
                "Pivot index=[{}] pivot={pivot_col} value={value_col} agg={}",
                index.join(", "),
                agg_name(*agg)
            ),
            Op::Join { right, on } => {
                format!("Join on=[{}] right_rows={}", on.join(", "), right.rows())
            }
            Op::Sort { col, by_str } => {
                format!("Sort by={col} ({})", if *by_str { "str" } else { "i64" })
            }
            Op::Limit(n) => format!("Limit {n}"),
        }
    }
}

/// A logical query: what to compute, independent of how — one scan and
/// the clauses applied to its output, in order.
///
/// Built with [`Query`], optimized with [`LogicalPlan::optimize`], and
/// run with [`LogicalPlan::execute`] / [`LogicalPlan::execute_with`].
#[derive(Debug, Clone)]
pub struct LogicalPlan {
    /// Where rows come from.
    source: Source,
    /// Columns the scan materializes (schema order); `None` = all.
    /// Filled by the optimizer.
    projection: Option<Vec<String>>,
    /// Predicates pushed into the scan, in evaluation order. Filled by
    /// the optimizer.
    predicates: Vec<ScanPredicate>,
    /// Clauses over the scan's output, first applied first.
    ops: Vec<Op>,
}

/// What one plan execution actually read — the pruning evidence.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Row groups in the scanned table (0 for frame scans).
    pub groups_total: usize,
    /// Row groups that survived pruning, ascending.
    pub groups_scanned: Vec<usize>,
    /// Column chunks decompressed and decoded.
    pub chunks_read: u64,
    /// Column chunks skipped by stats or index pruning.
    pub chunks_pruned: u64,
    /// Pushed predicates answered by a secondary index.
    pub index_hits: u64,
    /// Rows materialized from the source before predicate masks.
    pub rows_scanned: u64,
    /// Rows in the final result.
    pub rows_out: u64,
}

/// Observability hooks for [`LogicalPlan::execute_with`].
#[derive(Debug, Clone, Default)]
pub struct ExecContext {
    /// Query name, used in metrics-free contexts too (trace identity).
    pub name: String,
    /// Observer handle: executions count into the plan counters
    /// (`query_chunks_pruned_total`, ...) and, when the registry carries
    /// a tracer, each records one `plan_executed` span.
    pub registry: Option<Registry>,
}

impl ExecContext {
    /// A context that only names the query.
    pub fn named(name: &str) -> ExecContext {
        ExecContext {
            name: name.to_string(),
            ..ExecContext::default()
        }
    }
}

impl LogicalPlan {
    fn new(source: Source) -> LogicalPlan {
        LogicalPlan {
            source,
            projection: None,
            predicates: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Rewrite the plan: collapse the filters the scan feeds into scan
    /// predicates, push required columns into the scan projection, and
    /// order scan predicates by pruning power (indexed categorical
    /// first, then stats-prunable numeric, then residual evaluation).
    pub fn optimize(mut self) -> LogicalPlan {
        self.push_filters();
        self.push_projection();
        self.order_scan_predicates();
        self
    }

    /// Execute without observability hooks.
    pub fn execute(&self) -> Result<Frame, PipelineError> {
        let mut stats = ExecStats::default();
        self.exec(&mut stats)
    }

    /// Execute, returning pruning statistics and feeding `ctx`'s
    /// observer handle.
    pub fn execute_with(&self, ctx: &ExecContext) -> Result<(Frame, ExecStats), PipelineError> {
        let start = Instant::now();
        let mut stats = ExecStats::default();
        let frame = self.exec(&mut stats)?;
        stats.rows_out = frame.rows() as u64;
        let Some(registry) = &ctx.registry else {
            return Ok((frame, stats));
        };
        for (name, help, n) in [
            (
                "query_plans_executed_total",
                "Logical query plans executed",
                1,
            ),
            (
                "query_chunks_read_total",
                "Column chunks decoded by planned scans",
                stats.chunks_read,
            ),
            (
                "query_chunks_pruned_total",
                "Column chunks skipped by stats or index pruning",
                stats.chunks_pruned,
            ),
            (
                "query_index_hits_total",
                "Pushed predicates answered by a secondary index",
                stats.index_hits,
            ),
        ] {
            registry.counter(name, help, &[]).add(n);
        }
        if let Some(tr) = registry.tracer() {
            let trace = trace_id(&ctx.name, SERVICE_TRACE);
            let groups = stats
                .groups_scanned
                .iter()
                .map(|g| g.to_string())
                .collect::<Vec<_>>()
                .join(",");
            tr.record(
                trace,
                trace_span(trace, "plan_executed", 0),
                None,
                SERVICE_TRACE,
                0,
                start.elapsed().as_nanos() as u64,
                TraceEventKind::PlanExecuted {
                    query: ctx.name.clone(),
                    rows_out: stats.rows_out,
                    chunks_read: stats.chunks_read,
                    chunks_pruned: stats.chunks_pruned,
                    index_hits: stats.index_hits,
                    groups,
                },
            );
        }
        Ok((frame, stats))
    }

    /// Deterministic plan rendering, last clause first, each clause
    /// indented two spaces below the one it feeds — golden-testable.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for (depth, op) in self.ops.iter().rev().enumerate() {
            out.push_str(&format!("{}{}\n", "  ".repeat(depth), op.render()));
        }
        let indent = "  ".repeat(self.ops.len());
        out.push_str(&indent);
        match &self.source {
            Source::Frame(f) => out.push_str(&format!("Scan frame rows={}", f.rows())),
            Source::Table(t) => out.push_str(&format!(
                "Scan table rows={} groups={}",
                t.num_rows(),
                t.row_group_count()
            )),
        }
        match &self.projection {
            Some(cols) => out.push_str(&format!(" proj=[{}]\n", cols.join(", "))),
            None => out.push_str(" proj=*\n"),
        }
        for p in &self.predicates {
            out.push_str(&format!(
                "{indent}  pushed: {} [{}]\n",
                p.render(),
                self.source.strategy(p)
            ));
        }
        out
    }

    /// Merge each run of consecutive filters into one, the later
    /// filter's conjuncts first; the run the scan feeds directly moves
    /// its classifiable conjuncts into scan predicates and keeps the
    /// rest as one residual filter.
    fn push_filters(&mut self) {
        // Walk the clauses last to first, so `run` collects a filter
        // run's conjuncts in the order the merged filter lists them.
        let mut merged = Vec::with_capacity(self.ops.len());
        let mut run = Vec::new();
        for op in std::mem::take(&mut self.ops).into_iter().rev() {
            match op {
                Op::Filter(predicate) => split_conjuncts(predicate, &mut run),
                other => {
                    merged.extend(recombine(std::mem::take(&mut run)).map(Op::Filter));
                    merged.push(other);
                }
            }
        }
        let mut residual = Vec::new();
        for conj in run {
            match classify(&conj) {
                Some(p) => self.predicates.push(p),
                None => residual.push(conj),
            }
        }
        merged.extend(recombine(residual).map(Op::Filter));
        merged.reverse();
        self.ops = merged;
    }

    /// Narrow the scan projection to the columns the clauses need,
    /// folded from the last clause back to the scan. Columns missing
    /// from the scan schema are dropped here, never erroring: the
    /// clause that actually needs them still fails with
    /// `ColumnNotFound`, exactly like the unplanned path.
    fn push_projection(&mut self) {
        let Some(req) = self.ops.iter().rev().fold(None, |req, op| op.required(req)) else {
            return;
        };
        let names: Vec<String> = match (&self.projection, &self.source) {
            (Some(p), _) => p.clone(),
            (None, Source::Frame(f)) => f.names().to_vec(),
            (None, Source::Table(t)) => t.schema().columns.iter().map(|(n, _)| n.clone()).collect(),
        };
        let keep: Vec<String> = names.iter().filter(|n| req.contains(*n)).cloned().collect();
        if keep.len() < names.len() {
            self.projection = Some(keep);
        }
    }

    /// Order scan predicates by pruning power: indexed categorical (0),
    /// stats-prunable numeric (1), residual evaluation (2); ties break
    /// on (column, rendering) so plans are deterministic.
    fn order_scan_predicates(&mut self) {
        let source = &self.source;
        let rank = |p: &ScanPredicate| match source.strategy(p) {
            "index" => 0u8,
            "stats" => 1,
            _ => 2,
        };
        self.predicates.sort_by(|a, b| {
            rank(a)
                .cmp(&rank(b))
                .then_with(|| a.column().cmp(b.column()))
                .then_with(|| a.render().cmp(&b.render()))
        });
    }

    fn exec(&self, stats: &mut ExecStats) -> Result<Frame, PipelineError> {
        let scanned = self.scan(stats)?;
        self.ops
            .iter()
            .try_fold(scanned, |frame, op| op.apply(frame))
    }

    fn scan(&self, stats: &mut ExecStats) -> Result<Frame, PipelineError> {
        let projection = self.projection.as_deref();
        match &self.source {
            Source::Frame(f) => exec_frame_scan(f, projection, &self.predicates, stats),
            Source::Table(t) => exec_table_scan(t, projection, &self.predicates, stats),
        }
    }
}

fn cmp_symbol(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "==",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn agg_name(agg: Agg) -> &'static str {
    match agg {
        Agg::Sum => "sum",
        Agg::Mean => "mean",
        Agg::Min => "min",
        Agg::Max => "max",
        Agg::Count => "count",
        Agg::First => "first",
        Agg::Last => "last",
    }
}

/// Render an expression deterministically (binary ops parenthesized).
fn render_expr(e: &Expr) -> String {
    match e {
        Expr::Col(c) => c.clone(),
        Expr::LitF(v) => format!("{v:?}"),
        Expr::LitI(v) => v.to_string(),
        Expr::LitS(s) => format!("{s:?}"),
        Expr::Cmp(op, a, b) => format!(
            "({} {} {})",
            render_expr(a),
            cmp_symbol(*op),
            render_expr(b)
        ),
        Expr::And(a, b) => format!("({} AND {})", render_expr(a), render_expr(b)),
        Expr::Or(a, b) => format!("({} OR {})", render_expr(a), render_expr(b)),
        Expr::Not(a) => format!("NOT {}", render_expr(a)),
        Expr::IsNan(a) => format!("isnan({})", render_expr(a)),
        Expr::Arith(op, a, b) => {
            let sym = match op {
                crate::expr::ArithOp::Add => "+",
                crate::expr::ArithOp::Sub => "-",
                crate::expr::ArithOp::Mul => "*",
                crate::expr::ArithOp::Div => "/",
            };
            format!("({} {} {})", render_expr(a), sym, render_expr(b))
        }
    }
}

// ---------------------------------------------------------------------
// Optimizer helpers
// ---------------------------------------------------------------------

/// Split an AND tree into conjuncts, left to right.
fn split_conjuncts(e: Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::And(a, b) => {
            split_conjuncts(*a, out);
            split_conjuncts(*b, out);
        }
        other => out.push(other),
    }
}

/// Rebuild a conjunction (left fold); `None` when empty.
fn recombine(conjs: Vec<Expr>) -> Option<Expr> {
    let mut it = conjs.into_iter();
    let first = it.next()?;
    Some(it.fold(first, |acc, e| acc.and(e)))
}

/// A conjunct the scan can answer: `col <cmp> literal` in either
/// operand order. Anything else stays in a residual filter.
fn classify(e: &Expr) -> Option<ScanPredicate> {
    let Expr::Cmp(op, a, b) = e else { return None };
    let (column, op, lit) = literal_operand(*op, a, b)?;
    let column = column.to_string();
    match (lit, op) {
        (Literal::Str(s), CmpOp::Eq) => Some(ScanPredicate::CatEq {
            column,
            value: s.to_string(),
        }),
        (Literal::Str(s), CmpOp::Ne) => Some(ScanPredicate::CatNe {
            column,
            value: s.to_string(),
        }),
        // Ordered string comparisons are rare; leave them residual.
        (Literal::Str(_), _) => None,
        (Literal::Num(value), op) => Some(ScanPredicate::NumCmp { column, op, value }),
    }
}

/// Collect the columns an expression reads.
fn expr_columns(e: &Expr, out: &mut BTreeSet<String>) {
    match e {
        Expr::Col(c) => {
            out.insert(c.clone());
        }
        Expr::LitF(_) | Expr::LitI(_) | Expr::LitS(_) => {}
        Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) | Expr::Arith(_, a, b) => {
            expr_columns(a, out);
            expr_columns(b, out);
        }
        Expr::Not(a) | Expr::IsNan(a) => expr_columns(a, out),
    }
}

// ---------------------------------------------------------------------
// Scan executor
// ---------------------------------------------------------------------

fn exec_frame_scan(
    frame: &Frame,
    projection: Option<&[String]>,
    predicates: &[ScanPredicate],
    stats: &mut ExecStats,
) -> Result<Frame, PipelineError> {
    stats.rows_scanned += frame.rows() as u64;
    let mut out = if predicates.is_empty() {
        frame.clone()
    } else {
        let mut mask = vec![true; frame.rows()];
        for p in predicates {
            p.apply(frame.column(p.column())?, &mut mask)?;
        }
        frame.filter_mask(&mask)
    };
    if let Some(cols) = projection {
        out = out.select(cols)?;
    }
    Ok(out)
}

fn exec_table_scan(
    table: &Arc<TableFile>,
    projection: Option<&[String]>,
    predicates: &[ScanPredicate],
    stats: &mut ExecStats,
) -> Result<Frame, PipelineError> {
    // Lazy per-chunk decode, memoized for the duration of this scan: a
    // column needed by both a predicate and the projection decodes
    // once, and pruned groups never decode at all.
    let lazy = LazyTable::new(Arc::clone(table));
    let schema = table.schema();
    let col_of = |name: &str| -> Result<usize, PipelineError> {
        schema
            .index_of(name)
            .ok_or_else(|| PipelineError::ColumnNotFound(name.to_string()))
    };

    // Validate every predicate up front so pruning can never hide a
    // type or column error the unplanned path would report.
    for p in predicates {
        let c = col_of(p.column())?;
        let ty = schema.columns[c].1;
        let ok = match p {
            ScanPredicate::CatEq { .. } | ScanPredicate::CatNe { .. } => {
                matches!(ty, ColumnType::Str | ColumnType::Dict)
            }
            ScanPredicate::NumCmp { .. } => matches!(ty, ColumnType::I64 | ColumnType::F64),
        };
        if !ok {
            return Err(PipelineError::TypeMismatch {
                column: p.column().to_string(),
                expected: match p {
                    ScanPredicate::NumCmp { .. } => "numeric column for comparison".into(),
                    _ => "string column for categorical predicate".into(),
                },
            });
        }
    }

    // Projected output columns, in schema order.
    let proj_cols: Vec<usize> = match projection {
        Some(cols) => cols
            .iter()
            .map(|c| col_of(c))
            .collect::<Result<Vec<_>, _>>()?,
        None => (0..schema.columns.len()).collect(),
    };

    // Predicates answered by a secondary index need no chunk at all;
    // the rest decode their column once per surviving group. The table
    // decodes each index once and lends it to every scan.
    let mut indexes = BTreeMap::new();
    for p in predicates {
        if let ScanPredicate::CatEq { column, .. } = p {
            if !indexes.contains_key(column.as_str()) {
                if let Some(index) = table.read_index(column)? {
                    indexes.insert(column.as_str(), index);
                }
            }
        }
    }
    let eval_cols: BTreeSet<usize> = predicates
        .iter()
        .filter(|p| {
            !matches!(p, ScanPredicate::CatEq { column, .. } if indexes.contains_key(column.as_str()))
        })
        .map(|p| col_of(p.column()).expect("validated"))
        .collect();
    // Chunks touched per surviving group: output columns plus predicate
    // columns not already projected and not answered by an index.
    let cols_per_group =
        (proj_cols.len() + eval_cols.iter().filter(|c| !proj_cols.contains(c)).count()) as u64;

    // Prune row groups: secondary-index postings intersected with
    // footer min/max admission.
    let groups_total = table.row_group_count();
    stats.groups_total = groups_total;
    let mut candidate = vec![true; groups_total];
    for p in predicates {
        match p {
            ScanPredicate::CatEq { column, value } => {
                if let Some(index) = indexes.get(column.as_str()) {
                    stats.index_hits += 1;
                    // Postings ascend by group: merge them with the groups.
                    let mut hits = index.groups_with(value).peekable();
                    for (g, c) in candidate.iter_mut().enumerate() {
                        *c &= hits.next_if_eq(&g).is_some();
                    }
                }
            }
            ScanPredicate::NumCmp { column, .. } => {
                let c = col_of(column).expect("validated");
                for (g, cand) in candidate.iter_mut().enumerate() {
                    *cand = *cand && p.admits(table.chunk_stats(g, c));
                }
            }
            ScanPredicate::CatNe { .. } => {}
        }
    }

    let mut parts = Vec::new();
    for (group, &admitted) in candidate.iter().enumerate() {
        if !admitted {
            stats.chunks_pruned += cols_per_group;
            continue;
        }
        let rows = table.row_group_rows(group).unwrap_or(0);
        stats.rows_scanned += rows as u64;
        let mut mask = vec![true; rows];
        // `chunks_read` counts actual decodes: repeat requests for a
        // memoized chunk are cache hits, not reads.
        let read = |c: usize, stats: &mut ExecStats| -> Result<ColumnData, PipelineError> {
            let before = lazy.chunks_decoded();
            let col = lazy.column(group, c)?;
            if lazy.chunks_decoded() > before {
                stats.chunks_read += 1;
            }
            Ok(col)
        };
        let mut alive = true;
        for p in predicates {
            match p {
                ScanPredicate::CatEq { column, value } if indexes.contains_key(column.as_str()) => {
                    match indexes[column.as_str()].rows_in_group(value, group) {
                        Some(bitmap) => bitmap.and_into(&mut mask),
                        None => mask.fill(false),
                    }
                }
                _ => {
                    let c = col_of(p.column()).expect("validated");
                    p.apply(&read(c, stats)?, &mut mask)?;
                }
            }
            if mask.iter().all(|m| !m) {
                alive = false;
                break;
            }
        }
        if !alive {
            continue;
        }
        stats.groups_scanned.push(group);
        let columns: Vec<(String, ColumnData)> = proj_cols
            .iter()
            .map(|&c| Ok((schema.columns[c].0.clone(), read(c, stats)?)))
            .collect::<Result<_, PipelineError>>()?;
        parts.push(Frame::new(columns)?.filter_mask(&mask));
    }

    if parts.is_empty() {
        let cols: Vec<(&str, ColumnType)> = proj_cols
            .iter()
            .map(|&c| (schema.columns[c].0.as_str(), schema.columns[c].1))
            .collect();
        return Ok(Frame::empty(&TableSchema::new(&cols)));
    }
    Frame::concat(&parts)
}

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

/// Fluent builder over [`LogicalPlan`] — the one query surface. Each
/// method appends one clause after the ones before it.
#[derive(Debug, Clone)]
pub struct Query {
    plan: LogicalPlan,
}

impl Query {
    /// Scan an in-memory frame.
    pub fn scan(frame: Frame) -> Query {
        Query {
            plan: LogicalPlan::new(Source::Frame(frame)),
        }
    }

    /// Scan a parsed colfile.
    pub fn scan_table(table: Arc<TableFile>) -> Query {
        Query {
            plan: LogicalPlan::new(Source::Table(table)),
        }
    }

    /// WHERE: keep rows matching `predicate`.
    pub fn filter(self, predicate: Expr) -> Query {
        self.then(Op::Filter(predicate))
    }

    /// SELECT: keep `cols`, in the listed order.
    pub fn select<S: AsRef<str>>(self, cols: &[S]) -> Query {
        self.then(Op::Project(owned(cols)))
    }

    /// Append a tumbling `window` column from `ts_col`.
    pub fn window(self, ts_col: &str, width_ms: i64) -> Query {
        self.then(Op::Window {
            ts_col: ts_col.to_string(),
            width_ms,
        })
    }

    /// GROUP BY `keys` with `aggs`.
    pub fn group_by<S: AsRef<str>>(self, keys: &[S], aggs: &[AggSpec]) -> Query {
        self.then(Op::Aggregate {
            keys: owned(keys),
            aggs: aggs.to_vec(),
        })
    }

    /// PIVOT long to wide.
    pub fn pivot<S: AsRef<str>>(
        self,
        index: &[S],
        pivot_col: &str,
        value_col: &str,
        agg: Agg,
    ) -> Query {
        self.then(Op::Pivot {
            index: owned(index),
            pivot_col: pivot_col.to_string(),
            value_col: value_col.to_string(),
            agg,
        })
    }

    /// Inner join with a context frame on equality of `on`.
    pub fn join<S: AsRef<str>>(self, right: Frame, on: &[S]) -> Query {
        self.then(Op::Join {
            right,
            on: owned(on),
        })
    }

    /// Stable ascending sort by an i64 column.
    pub fn sort_by_i64(self, col: &str) -> Query {
        self.then(Op::Sort {
            col: col.to_string(),
            by_str: false,
        })
    }

    /// Stable ascending sort by a string/dict column.
    pub fn sort_by_str(self, col: &str) -> Query {
        self.then(Op::Sort {
            col: col.to_string(),
            by_str: true,
        })
    }

    /// Keep the first `n` rows.
    pub fn limit(self, n: usize) -> Query {
        self.then(Op::Limit(n))
    }

    fn then(mut self, op: Op) -> Query {
        self.plan.ops.push(op);
        self
    }

    /// Consume into the underlying plan.
    pub fn into_plan(self) -> LogicalPlan {
        self.plan
    }

    /// The optimized plan, rendered deterministically.
    pub fn explain(&self) -> String {
        self.plan.clone().optimize().explain()
    }

    /// Optimize and execute.
    pub fn execute(self) -> Result<Frame, PipelineError> {
        self.plan.optimize().execute()
    }

    /// Optimize and execute with observability hooks, returning pruning
    /// statistics.
    pub fn execute_with(self, ctx: &ExecContext) -> Result<(Frame, ExecStats), PipelineError> {
        self.plan.optimize().execute_with(ctx)
    }

    /// Execute with per-clause timing (the Fig. 4-b measurement): one
    /// [`StageTiming`] per clause, first applied first. Each clause runs
    /// un-optimised on the frame the clause before it produced, so the
    /// timings stay 1:1 with the clauses; the output is the one
    /// [`Query::execute`] returns.
    pub fn execute_timed(self) -> Result<(Frame, Vec<StageTiming>), PipelineError> {
        let mut frame = self.plan.scan(&mut ExecStats::default())?;
        let mut timings = Vec::with_capacity(self.plan.ops.len());
        for op in &self.plan.ops {
            let start = Instant::now();
            frame = op.apply(frame)?;
            timings.push(StageTiming {
                stage: op.clause().to_string(),
                seconds: start.elapsed().as_secs_f64(),
                rows_out: frame.rows(),
            });
        }
        Ok((frame, timings))
    }
}

fn owned<S: AsRef<str>>(names: &[S]) -> Vec<String> {
    names.iter().map(|n| n.as_ref().to_string()).collect()
}

/// Wall-clock cost of one clause of [`Query::execute_timed`].
#[derive(Debug, Clone)]
pub struct StageTiming {
    /// Clause label (`WHERE`, `WINDOW`, `GROUP BY`, `PIVOT`, `JOIN`,
    /// `SELECT`, `SORT` or `LIMIT`).
    pub stage: String,
    /// Execution time in seconds.
    pub seconds: f64,
    /// Rows flowing out of the clause.
    pub rows_out: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use oda_storage::colfile::TableWriter;

    /// 3 row groups x 4 rows: ts ascending, sensor cycles power/temp,
    /// value tracks ts. The sensor column is dict-encoded and indexed.
    fn indexed_table() -> Arc<TableFile> {
        let schema = TableSchema::new(&[
            ("ts", ColumnType::I64),
            ("sensor", ColumnType::Dict),
            ("value", ColumnType::F64),
        ]);
        let mut w = TableWriter::new(schema);
        w.index_column("sensor").unwrap();
        for g in 0..3i64 {
            let ts: Vec<i64> = (0..4).map(|r| g * 4_000 + r * 1_000).collect();
            let sensors: Vec<String> = (0..4)
                .map(|r| if r % 2 == 0 { "power" } else { "temp" }.to_string())
                .collect();
            let dict: Vec<String> = vec!["power".into(), "temp".into()];
            let codes: Vec<u32> = sensors
                .iter()
                .map(|s| if s == "power" { 0 } else { 1 })
                .collect();
            let value: Vec<f64> = ts.iter().map(|&t| t as f64 / 1_000.0).collect();
            w.write_row_group(&[
                ColumnData::I64(ts.into()),
                ColumnData::dict(dict, codes),
                ColumnData::F64(value.into()),
            ])
            .unwrap();
        }
        Arc::new(TableFile::open(w.finish()).unwrap())
    }

    fn full_frame(table: &TableFile) -> Frame {
        let mut parts = Vec::new();
        for g in 0..table.row_group_count() {
            let cols = table.read_row_group(g).unwrap();
            let named: Vec<(String, ColumnData)> = table
                .schema()
                .columns
                .iter()
                .zip(cols)
                .map(|((n, _), c)| (n.clone(), c))
                .collect();
            parts.push(Frame::new(named).unwrap());
        }
        Frame::concat(&parts).unwrap()
    }

    #[test]
    fn pushdown_matches_naive_filter() {
        let table = indexed_table();
        let pred = Expr::col("sensor")
            .eq_(Expr::LitS("power".into()))
            .and(Expr::col("ts").ge(Expr::LitI(4_000)));
        let naive = {
            let f = full_frame(&table);
            let mask = pred.eval_mask(&f).unwrap();
            f.filter_mask(&mask).select(&["ts", "value"]).unwrap()
        };
        let (planned, stats) = Query::scan_table(Arc::clone(&table))
            .filter(pred)
            .select(&["ts", "value"])
            .execute_with(&ExecContext::named("test"))
            .unwrap();
        assert_eq!(planned, naive);
        // Group 0 (ts 0..3000) is stats-pruned; groups 1 and 2 survive.
        assert_eq!(stats.groups_total, 3);
        assert_eq!(stats.groups_scanned, vec![1, 2]);
        assert_eq!(stats.index_hits, 1);
        assert!(stats.chunks_pruned > 0);
        // sensor is answered by the index: only ts+value chunks decode.
        assert_eq!(stats.chunks_read, 4);
    }

    #[test]
    fn index_prunes_groups_without_value() {
        let table = indexed_table();
        let out = Query::scan_table(table)
            .filter(Expr::col("sensor").eq_(Expr::LitS("missing".into())))
            .execute()
            .unwrap();
        assert_eq!(out.rows(), 0);
        assert_eq!(out.names(), &["ts", "sensor", "value"]);
    }

    #[test]
    fn explain_is_deterministic_and_shows_strategies() {
        let table = indexed_table();
        let q = Query::scan_table(table)
            .filter(
                Expr::col("value")
                    .gt(Expr::LitF(2.0))
                    .and(Expr::col("sensor").eq_(Expr::LitS("power".into()))),
            )
            .select(&["ts", "value"]);
        let text = q.explain();
        assert_eq!(text, q.explain());
        // Indexed categorical predicate is ordered before the stats one.
        let idx_pos = text.find("[index]").unwrap();
        let stats_pos = text.find("[stats]").unwrap();
        assert!(idx_pos < stats_pos);
        assert!(text.contains("proj=[ts, value]"));
    }

    #[test]
    fn optimizer_keeps_residual_predicates() {
        let table = indexed_table();
        let q = Query::scan_table(table).filter(
            Expr::col("value")
                .gt(Expr::LitF(1.0))
                .and(Expr::col("value").lt(Expr::col("ts"))),
        );
        let text = q.explain();
        assert!(text.contains("pushed: value > 1.0"));
        assert!(text.contains("Filter (value < ts)"));
        let out = q.execute().unwrap();
        let naive = {
            let table = indexed_table();
            let f = full_frame(&table);
            let mask = Expr::col("value")
                .gt(Expr::LitF(1.0))
                .and(Expr::col("value").lt(Expr::col("ts")))
                .eval_mask(&f)
                .unwrap();
            f.filter_mask(&mask)
        };
        assert_eq!(out, naive);
    }

    #[test]
    fn frame_scans_support_the_same_surface() {
        let table = indexed_table();
        let f = full_frame(&table);
        let out = Query::scan(f.clone())
            .filter(Expr::col("sensor").ne_(Expr::LitS("temp".into())))
            .window("ts", 4_000)
            .group_by(&["window"], &[AggSpec::new("value", Agg::Mean, "value")])
            .sort_by_i64("window")
            .limit(2)
            .execute()
            .unwrap();
        assert_eq!(out.rows(), 2);
        assert_eq!(out.names(), &["window", "value"]);
        // Window 0 powers: values 0 and 2 -> mean 1.
        assert!((out.f64s("value").unwrap()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn missing_columns_error_like_the_unplanned_path() {
        let table = indexed_table();
        let err = Query::scan_table(Arc::clone(&table))
            .filter(Expr::col("nope").gt(Expr::LitF(0.0)))
            .execute()
            .unwrap_err();
        assert!(matches!(err, PipelineError::ColumnNotFound(c) if c == "nope"));
        let err = Query::scan_table(table)
            .filter(Expr::col("ts").eq_(Expr::LitS("power".into())))
            .execute()
            .unwrap_err();
        assert!(matches!(err, PipelineError::TypeMismatch { column, .. } if column == "ts"));
    }

    #[test]
    fn limit_and_projection_prune_reads() {
        let table = indexed_table();
        let (out, stats) = Query::scan_table(table)
            .select(&["ts"])
            .execute_with(&ExecContext::named("proj"))
            .unwrap();
        assert_eq!(out.names(), &["ts"]);
        assert_eq!(out.rows(), 12);
        // One chunk per group instead of three.
        assert_eq!(stats.chunks_read, 3);
    }

    /// Two filter runs split by a window: the run the scan feeds pushes
    /// what it can and keeps its residual conjuncts in one filter on
    /// the scan; the run above the window merges into one filter, the
    /// later filter's conjuncts first.
    #[test]
    fn filter_runs_merge_and_only_the_scan_run_is_pushed() {
        let q = Query::scan(bronze())
            .filter(
                Expr::col("value")
                    .ge(Expr::LitF(35.0))
                    .and(Expr::col("value").is_nan().not()),
            )
            .filter(Expr::col("value").lt(Expr::col("ts")))
            .window("ts", 5_000)
            .filter(Expr::col("window").ge(Expr::LitI(5_000)))
            .filter(Expr::col("node").eq_(Expr::LitI(1)))
            .select(&["window", "value"]);
        assert_eq!(
            q.explain(),
            "Project [window, value]\n\
             \x20 Filter ((node == 1) AND (window >= 5000))\n\
             \x20   Window ts=ts width_ms=5000\n\
             \x20     Filter ((value < ts) AND NOT isnan(value))\n\
             \x20       Scan frame rows=80 proj=[ts, node, value]\n\
             \x20         pushed: value >= 35.0 [eval]\n"
        );
    }

    /// A run on a table scan mixing indexable, stats-prunable,
    /// eval-only and unclassifiable conjuncts: pushed predicates order
    /// index, stats, eval; the rest stay one residual filter.
    #[test]
    fn mixed_scan_run_pushes_classifiable_and_keeps_the_rest() {
        let q = Query::scan_table(indexed_table())
            .filter(
                Expr::col("value")
                    .gt(Expr::LitF(1.0))
                    .and(Expr::col("value").lt(Expr::col("ts"))),
            )
            .filter(
                Expr::col("sensor")
                    .ne_(Expr::LitS("temp".into()))
                    .and(Expr::col("value").is_nan().not())
                    .and(Expr::col("sensor").eq_(Expr::LitS("power".into()))),
            );
        assert_eq!(
            q.explain(),
            "Filter (NOT isnan(value) AND (value < ts))\n\
             \x20 Scan table rows=12 groups=3 proj=*\n\
             \x20   pushed: sensor == \"power\" [index]\n\
             \x20   pushed: value > 1.0 [stats]\n\
             \x20   pushed: sensor != \"temp\" [eval]\n"
        );
    }

    /// The projection each of join, sort and limit keeps over a table
    /// scan: join keys plus every right-side name (a left `sensor`
    /// decides the right one's `_r` suffix), the sort key, and exactly
    /// what is needed above a limit.
    #[test]
    fn join_sort_and_limit_keep_their_columns_in_the_scan_projection() {
        let right = Frame::new(vec![
            ("ts".into(), ColumnData::I64(vec![0, 4_000].into())),
            (
                "sensor".into(),
                ColumnData::Str(vec!["x".to_string(); 2].into()),
            ),
        ])
        .unwrap();
        let join = Query::scan_table(indexed_table())
            .join(right, &["ts"])
            .select(&["ts"]);
        assert_eq!(
            join.explain(),
            "Project [ts]\n\
             \x20 Join on=[ts] right_rows=2\n\
             \x20   Scan table rows=12 groups=3 proj=[ts, sensor]\n"
        );
        let sort = Query::scan_table(indexed_table())
            .sort_by_str("sensor")
            .select(&["ts"]);
        assert_eq!(
            sort.explain(),
            "Project [ts]\n\
             \x20 Sort by=sensor (str)\n\
             \x20   Scan table rows=12 groups=3 proj=[ts, sensor]\n"
        );
        let sort_i64 = Query::scan_table(indexed_table()).sort_by_i64("ts");
        assert_eq!(
            sort_i64.explain(),
            "Sort by=ts (i64)\n\
             \x20 Scan table rows=12 groups=3 proj=*\n"
        );
        let limit = Query::scan_table(indexed_table())
            .limit(3)
            .select(&["value"]);
        assert_eq!(
            limit.explain(),
            "Project [value]\n\
             \x20 Limit 3\n\
             \x20   Scan table rows=12 groups=3 proj=[value]\n"
        );
    }

    /// Long-format observations: 2 nodes x 2 sensors x 20 ticks.
    fn bronze() -> Frame {
        let mut ts = Vec::new();
        let mut node = Vec::new();
        let mut sensor = Vec::new();
        let mut value = Vec::new();
        for t in 0..20i64 {
            for n in [1i64, 2] {
                for (s, base) in [("power", 100.0), ("temp", 30.0)] {
                    ts.push(t * 1_000);
                    node.push(n);
                    sensor.push(s.to_string());
                    value.push(base * n as f64 + t as f64);
                }
            }
        }
        Frame::new(vec![
            ("ts".into(), ColumnData::I64(ts.into())),
            ("node".into(), ColumnData::I64(node.into())),
            ("sensor".into(), ColumnData::Str(sensor.into())),
            ("value".into(), ColumnData::F64(value.into())),
        ])
        .unwrap()
    }

    fn job_context() -> Frame {
        Frame::new(vec![
            ("node".into(), ColumnData::I64(vec![1, 2].into())),
            ("job".into(), ColumnData::I64(vec![101, 102].into())),
        ])
        .unwrap()
    }

    /// The Silver core of Fig. 4-b: WHERE -> WINDOW -> GROUP BY -> PIVOT.
    fn silver_core(bronze: Frame, predicate: Expr) -> Query {
        Query::scan(bronze)
            .filter(predicate)
            .window("ts", 5_000)
            .group_by(
                &["window", "node", "sensor"],
                &[AggSpec::new("value", Agg::Mean, "value")],
            )
            .pivot(&["window", "node"], "sensor", "value", Agg::Mean)
    }

    #[test]
    fn full_bronze_to_silver_plan() {
        // The Fig. 4-b anatomy: WHERE -> WINDOW -> GROUP BY -> PIVOT -> JOIN.
        let silver = silver_core(bronze(), Expr::col("value").is_nan().not())
            .join(job_context(), &["node"])
            .execute()
            .unwrap();
        // 4 windows x 2 nodes = 8 rows; columns window,node,power,temp,job.
        assert_eq!(silver.rows(), 8);
        assert!(silver.index_of("power").is_ok());
        assert!(silver.index_of("temp").is_ok());
        assert!(silver.index_of("job").is_ok());
        // Window 0 node 1: mean over t=0..4 of 100+t = 102.
        let w = silver.i64s("window").unwrap();
        let n = silver.i64s("node").unwrap();
        let p = silver.f64s("power").unwrap();
        let row = (0..8).find(|&i| w[i] == 0 && n[i] == 1).unwrap();
        assert!((p[row] - 102.0).abs() < 1e-9);
        assert_eq!(silver.i64s("job").unwrap()[row], 101);
    }

    /// The Silver core (WHERE -> WINDOW -> GROUP BY -> PIVOT) is blind
    /// to how the categorical column is stored: dictionary-encoded
    /// bronze, shuffled dictionary with an unused entry included,
    /// produces the same bytes as per-row strings.
    #[test]
    fn silver_core_is_independent_of_categorical_representation() {
        let by_str = bronze();
        let codes = by_str
            .strs("sensor")
            .unwrap()
            .iter()
            .map(|s| if s == "power" { 2 } else { 0 })
            .collect();
        let mut cols: Vec<(String, ColumnData)> = by_str
            .names()
            .iter()
            .cloned()
            .zip(by_str.columns().iter().cloned())
            .collect();
        cols[2].1 = ColumnData::dict(vec!["temp".into(), "unused".into(), "power".into()], codes);
        let by_dict = Frame::new(cols).unwrap();
        assert!(by_dict.dict("sensor").is_ok());

        let filter = || Expr::col("value").ge(Expr::LitF(35.0));
        let silver_str = silver_core(by_str, filter()).execute().unwrap();
        let silver_dict = silver_core(by_dict, filter()).execute().unwrap();
        // The filter empties (window 0, node 1, temp): a NaN gap fill,
        // so compare encoded bytes rather than IEEE equality.
        assert!(silver_str.f64s("temp").unwrap().iter().any(|v| v.is_nan()));
        assert_eq!(
            crate::frame_io::frame_to_colfile(&silver_dict).unwrap(),
            crate::frame_io::frame_to_colfile(&silver_str).unwrap()
        );
    }

    #[test]
    fn timed_execution_reports_every_stage() {
        let (out, timings) = Query::scan(bronze())
            .filter(Expr::col("value").ge(Expr::LitF(0.0)))
            .select(&["ts", "value"])
            .execute_timed()
            .unwrap();
        assert_eq!(out.names(), &["ts", "value"]);
        assert_eq!(timings.len(), 2);
        assert_eq!(timings[0].stage, "WHERE");
        assert_eq!(timings[1].stage, "SELECT");
        assert!(timings.iter().all(|t| t.seconds >= 0.0));
        assert_eq!(timings[1].rows_out, out.rows());
    }

    /// The clause list could only spell WHERE..SELECT; the timed path
    /// covers every clause, over a colfile as well as a frame, and returns
    /// the bytes the optimised path does.
    #[test]
    fn timed_execution_covers_sort_limit_and_project_over_a_table() {
        let q = Query::scan_table(indexed_table())
            .filter(Expr::col("value").ge(Expr::LitF(2.0)))
            .sort_by_str("sensor")
            .limit(5)
            .select(&["sensor", "ts"]);
        let (timed, timings) = q.clone().execute_timed().unwrap();
        let stages: Vec<&str> = timings.iter().map(|t| t.stage.as_str()).collect();
        assert_eq!(stages, ["WHERE", "SORT", "LIMIT", "SELECT"]);
        let rows: Vec<usize> = timings.iter().map(|t| t.rows_out).collect();
        assert_eq!(rows, [10, 10, 5, 5]);
        assert_eq!(
            crate::frame_io::frame_to_colfile(&timed).unwrap(),
            crate::frame_io::frame_to_colfile(&q.execute().unwrap()).unwrap()
        );
    }

    #[test]
    fn failing_stage_propagates_error() {
        let select = Query::scan(bronze()).select(&["nope"]);
        assert!(select.clone().execute().is_err());
        assert!(select.execute_timed().is_err());
        // A non-positive window width is a typed error, not a panic.
        for width in [0, -15_000] {
            let window = Query::scan(bronze()).window("ts", width);
            let err = window.clone().execute().unwrap_err();
            assert!(matches!(err, PipelineError::InvalidQuery(_)), "{err}");
            assert!(window.execute_timed().is_err());
        }
    }

    #[test]
    fn empty_plan_is_identity() {
        let f = bronze();
        assert_eq!(Query::scan(f.clone()).execute().unwrap(), f);
        let (out, timings) = Query::scan(f.clone()).execute_timed().unwrap();
        assert_eq!(out, f);
        assert!(timings.is_empty(), "a bare scan is not a clause");
    }
}
