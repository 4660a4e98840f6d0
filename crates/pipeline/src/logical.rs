//! Unified logical query plan with predicate pushdown and secondary
//! indexes.
//!
//! Every read path in the stack — LAKE range queries, the medallion's
//! Fig. 4-b clause list, analytics scans — describes *what* it wants as a
//! [`LogicalPlan`] tree and lets one optimizer decide *how*: predicates
//! and projections are pushed into the [`LogicalPlan::Scan`] node, where
//! the executor cashes them out as colfile row-group pruning (footer
//! min/max stats), secondary-index lookups (`value → row-group bitmap`)
//! and dictionary-code predicate evaluation that never touches strings.
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
use crate::expr::{CmpOp, Expr};
use crate::frame::Frame;
use crate::kernels;
use crate::ops::{self, Agg, AggSpec};
use crate::window::assign_window;

/// What a [`LogicalPlan::Scan`] reads from.
#[derive(Debug, Clone)]
pub enum ScanSource {
    /// An in-memory frame (streaming epochs, batch Bronze, the per-node
    /// inputs of [`Query::execute_timed`]).
    Frame(Frame),
    /// A parsed colfile — the only source with row groups to prune.
    Table(Arc<TableFile>),
}

/// A predicate simple enough to push into the scan, where it can prune
/// row groups before their chunks are decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanPredicate {
    /// Categorical equality (`col == "value"`); answered by a secondary
    /// index when the colfile carries one, by dictionary-code
    /// comparison otherwise.
    CatEq {
        /// String/dict column.
        column: String,
        /// Value to match.
        value: String,
    },
    /// Categorical inequality (`col != "value"`).
    CatNe {
        /// String/dict column.
        column: String,
        /// Value to exclude.
        value: String,
    },
    /// Numeric comparison against a literal; prunes row groups through
    /// footer min/max stats. Integer literals are carried as f64, which
    /// matches [`Expr`] comparison semantics (i64 coerces to f64).
    NumCmp {
        /// Numeric column.
        column: String,
        /// Comparison operator (column on the left).
        op: CmpOp,
        /// Literal on the right.
        value: f64,
    },
}

impl ScanPredicate {
    /// The column the predicate reads.
    pub fn column(&self) -> &str {
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
        let mismatch = |expected: &str| PipelineError::TypeMismatch {
            column: self.column().to_string(),
            expected: expected.into(),
        };
        match self {
            ScanPredicate::CatEq { value, .. } | ScanPredicate::CatNe { value, .. } => {
                let want = matches!(self, ScanPredicate::CatEq { .. });
                match col {
                    ColumnData::Str(v) => kernels::mask_and_str_eq(mask, &v[..], value, want),
                    ColumnData::Dict { dict, codes } => {
                        let table: Vec<bool> = dict.iter().map(|s| (s == value) == want).collect();
                        kernels::mask_and_code_table(mask, &codes[..], &table);
                    }
                    _ => return Err(mismatch("string column for categorical predicate")),
                }
            }
            ScanPredicate::NumCmp { op, value, .. } => match col {
                ColumnData::I64(v) => kernels::mask_and_cmp_i64(mask, &v[..], *op, *value),
                ColumnData::F64(v) => kernels::mask_and_cmp_f64(mask, &v[..], *op, *value),
                _ => return Err(mismatch("numeric column for comparison")),
            },
        }
        Ok(())
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

/// Sort key for [`LogicalPlan::Sort`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SortKey {
    /// Stable ascending sort by an i64 column.
    I64(String),
    /// Stable ascending sort by a string/dict column.
    Str(String),
}

impl SortKey {
    fn column(&self) -> &str {
        match self {
            SortKey::I64(c) | SortKey::Str(c) => c,
        }
    }
}

/// A logical query: what to compute, independent of how.
///
/// Built with [`Query`], optimized with [`LogicalPlan::optimize`], and
/// run with [`LogicalPlan::execute`] / [`LogicalPlan::execute_with`].
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// Leaf: read from a frame or colfile. `projection`/`predicates`
    /// start empty and are filled by the optimizer.
    Scan {
        /// Where rows come from.
        source: ScanSource,
        /// Columns to materialize (schema order); `None` = all.
        projection: Option<Vec<String>>,
        /// Pushed-down predicates, in evaluation order.
        predicates: Vec<ScanPredicate>,
    },
    /// Keep rows matching an arbitrary expression.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Row predicate.
        predicate: Expr,
    },
    /// Keep a subset of columns, in the listed order.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Output columns.
        columns: Vec<String>,
    },
    /// Append a tumbling `window` column derived from a timestamp.
    Window {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Timestamp column (ms).
        ts_col: String,
        /// Window width (ms).
        width_ms: i64,
    },
    /// GROUP BY with aggregations.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Key columns.
        keys: Vec<String>,
        /// Aggregations.
        aggs: Vec<AggSpec>,
    },
    /// PIVOT long to wide.
    Pivot {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Index columns retained as keys.
        index: Vec<String>,
        /// Column whose values become output columns.
        pivot_col: String,
        /// Value column.
        value_col: String,
        /// Cell aggregation.
        agg: Agg,
    },
    /// Inner join with a context frame.
    Join {
        /// Input (left) plan.
        input: Box<LogicalPlan>,
        /// Right side of the join.
        right: Frame,
        /// Equality columns.
        on: Vec<String>,
    },
    /// Stable ascending sort.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort key.
        by: SortKey,
    },
    /// Keep the first `n` rows.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Row cap.
        n: usize,
    },
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
    /// Rewrite the tree: collapse filter chains into scan predicates,
    /// push required columns into scan projections, and order scan
    /// predicates by pruning power (indexed categorical first, then
    /// stats-prunable numeric, then residual evaluation).
    pub fn optimize(self) -> LogicalPlan {
        let plan = push_filters(self);
        let plan = push_projection(plan, None);
        order_scan_predicates(plan)
    }

    /// Execute without observability hooks.
    pub fn execute(&self) -> Result<Frame, PipelineError> {
        let mut stats = ExecStats::default();
        exec(self, &mut stats)
    }

    /// Execute, returning pruning statistics and feeding `ctx`'s
    /// observer handle.
    pub fn execute_with(&self, ctx: &ExecContext) -> Result<(Frame, ExecStats), PipelineError> {
        let start = Instant::now();
        let mut stats = ExecStats::default();
        let frame = exec(self, &mut stats)?;
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

    /// Deterministic plan tree, two-space indented — golden-testable.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        render(self, 0, &mut out);
        out
    }

    /// The SQL clause this node is in the Fig. 4-b anatomy ("FROM",
    /// "WHERE", "GROUP BY", ...).
    pub fn clause(&self) -> &'static str {
        match self {
            LogicalPlan::Scan { .. } => "FROM",
            LogicalPlan::Filter { .. } => "WHERE",
            LogicalPlan::Project { .. } => "SELECT",
            LogicalPlan::Window { .. } => "WINDOW",
            LogicalPlan::Aggregate { .. } => "GROUP BY",
            LogicalPlan::Pivot { .. } => "PIVOT",
            LogicalPlan::Join { .. } => "JOIN",
            LogicalPlan::Sort { .. } => "SORT",
            LogicalPlan::Limit { .. } => "LIMIT",
        }
    }

    /// The node's one input; `None` for a scan.
    fn input_mut(&mut self) -> Option<&mut LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => None,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Window { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Pivot { input, .. }
            | LogicalPlan::Join { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => Some(input),
        }
    }
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn render(plan: &LogicalPlan, depth: usize, out: &mut String) {
    indent(depth, out);
    match plan {
        LogicalPlan::Scan {
            source,
            projection,
            predicates,
        } => {
            match source {
                ScanSource::Frame(f) => {
                    out.push_str(&format!("Scan frame rows={}", f.rows()));
                }
                ScanSource::Table(t) => {
                    out.push_str(&format!(
                        "Scan table rows={} groups={}",
                        t.num_rows(),
                        t.row_group_count()
                    ));
                }
            }
            match projection {
                Some(cols) => out.push_str(&format!(" proj=[{}]", cols.join(", "))),
                None => out.push_str(" proj=*"),
            }
            out.push('\n');
            for p in predicates {
                indent(depth + 1, out);
                out.push_str(&format!(
                    "pushed: {} [{}]\n",
                    p.render(),
                    predicate_strategy(p, source)
                ));
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            out.push_str(&format!("Filter {}\n", render_expr(predicate)));
            render(input, depth + 1, out);
        }
        LogicalPlan::Project { input, columns } => {
            out.push_str(&format!("Project [{}]\n", columns.join(", ")));
            render(input, depth + 1, out);
        }
        LogicalPlan::Window {
            input,
            ts_col,
            width_ms,
        } => {
            out.push_str(&format!("Window ts={ts_col} width_ms={width_ms}\n"));
            render(input, depth + 1, out);
        }
        LogicalPlan::Aggregate { input, keys, aggs } => {
            let rendered: Vec<String> = aggs
                .iter()
                .map(|a| format!("{}({}) AS {}", agg_name(a.agg), a.column, a.output))
                .collect();
            out.push_str(&format!(
                "Aggregate keys=[{}] aggs=[{}]\n",
                keys.join(", "),
                rendered.join(", ")
            ));
            render(input, depth + 1, out);
        }
        LogicalPlan::Pivot {
            input,
            index,
            pivot_col,
            value_col,
            agg,
        } => {
            out.push_str(&format!(
                "Pivot index=[{}] pivot={} value={} agg={}\n",
                index.join(", "),
                pivot_col,
                value_col,
                agg_name(*agg)
            ));
            render(input, depth + 1, out);
        }
        LogicalPlan::Join { input, right, on } => {
            out.push_str(&format!(
                "Join on=[{}] right_rows={}\n",
                on.join(", "),
                right.rows()
            ));
            render(input, depth + 1, out);
        }
        LogicalPlan::Sort { input, by } => {
            let kind = match by {
                SortKey::I64(_) => "i64",
                SortKey::Str(_) => "str",
            };
            out.push_str(&format!("Sort by={} ({kind})\n", by.column()));
            render(input, depth + 1, out);
        }
        LogicalPlan::Limit { input, n } => {
            out.push_str(&format!("Limit {n}\n"));
            render(input, depth + 1, out);
        }
    }
}

/// How the executor will answer a pushed predicate: `index` (secondary
/// index bitmap), `stats` (footer min/max pruning) or `eval` (decode
/// and test).
fn predicate_strategy(p: &ScanPredicate, source: &ScanSource) -> &'static str {
    let ScanSource::Table(t) = source else {
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
// Optimizer
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
/// operand order. Anything else stays a residual [`LogicalPlan::Filter`].
fn classify(e: &Expr) -> Option<ScanPredicate> {
    let Expr::Cmp(op, a, b) = e else { return None };
    // Normalize to column-on-the-left, flipping the operator when the
    // literal is on the left (5 < x  ≡  x > 5).
    let (column, op, lit) = match (a.as_ref(), b.as_ref()) {
        (Expr::Col(c), lit) => (c.clone(), *op, lit),
        (lit, Expr::Col(c)) => (c.clone(), flip(*op), lit),
        _ => return None,
    };
    match lit {
        Expr::LitS(s) => match op {
            CmpOp::Eq => Some(ScanPredicate::CatEq {
                column,
                value: s.clone(),
            }),
            CmpOp::Ne => Some(ScanPredicate::CatNe {
                column,
                value: s.clone(),
            }),
            // Ordered string comparisons are rare; leave them residual.
            _ => None,
        },
        Expr::LitF(v) => Some(ScanPredicate::NumCmp {
            column,
            op,
            value: *v,
        }),
        Expr::LitI(v) => Some(ScanPredicate::NumCmp {
            column,
            op,
            value: *v as f64,
        }),
        _ => None,
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

/// Collapse `Filter` chains sitting directly on a `Scan` into scan
/// predicates; unclassifiable conjuncts stay as one residual filter.
fn push_filters(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let mut conjs = Vec::new();
            split_conjuncts(predicate, &mut conjs);
            let mut node = *input;
            while let LogicalPlan::Filter {
                input: inner,
                predicate,
            } = node
            {
                split_conjuncts(predicate, &mut conjs);
                node = *inner;
            }
            let node = push_filters(node);
            if let LogicalPlan::Scan {
                source,
                projection,
                mut predicates,
            } = node
            {
                let mut residual = Vec::new();
                for conj in conjs {
                    match classify(&conj) {
                        Some(p) => predicates.push(p),
                        None => residual.push(conj),
                    }
                }
                let scan = LogicalPlan::Scan {
                    source,
                    projection,
                    predicates,
                };
                match recombine(residual) {
                    Some(expr) => LogicalPlan::Filter {
                        input: Box::new(scan),
                        predicate: expr,
                    },
                    None => scan,
                }
            } else {
                LogicalPlan::Filter {
                    input: Box::new(node),
                    predicate: recombine(conjs).expect("at least one conjunct"),
                }
            }
        }
        other => map_input(other, push_filters),
    }
}

/// Rebuild a non-Filter/non-Scan node with its input transformed.
fn map_input(plan: LogicalPlan, f: impl Fn(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
    match plan {
        scan @ LogicalPlan::Scan { .. } => scan,
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(f(*input)),
            predicate,
        },
        LogicalPlan::Project { input, columns } => LogicalPlan::Project {
            input: Box::new(f(*input)),
            columns,
        },
        LogicalPlan::Window {
            input,
            ts_col,
            width_ms,
        } => LogicalPlan::Window {
            input: Box::new(f(*input)),
            ts_col,
            width_ms,
        },
        LogicalPlan::Aggregate { input, keys, aggs } => LogicalPlan::Aggregate {
            input: Box::new(f(*input)),
            keys,
            aggs,
        },
        LogicalPlan::Pivot {
            input,
            index,
            pivot_col,
            value_col,
            agg,
        } => LogicalPlan::Pivot {
            input: Box::new(f(*input)),
            index,
            pivot_col,
            value_col,
            agg,
        },
        LogicalPlan::Join { input, right, on } => LogicalPlan::Join {
            input: Box::new(f(*input)),
            right,
            on,
        },
        LogicalPlan::Sort { input, by } => LogicalPlan::Sort {
            input: Box::new(f(*input)),
            by,
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(f(*input)),
            n,
        },
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

/// Push the set of columns required above each node down into scan
/// projections. `None` means "everything" (no pruning). Columns missing
/// from the scan schema are dropped here, never erroring: the node that
/// actually needs them still fails with `ColumnNotFound`, exactly like
/// the unplanned path.
fn push_projection(plan: LogicalPlan, req: Option<BTreeSet<String>>) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan {
            source,
            projection,
            predicates,
        } => {
            let projection = match req {
                None => projection,
                Some(req) => {
                    let names: Vec<String> = match (&projection, &source) {
                        (Some(p), _) => p.clone(),
                        (None, ScanSource::Frame(f)) => f.names().to_vec(),
                        (None, ScanSource::Table(t)) => {
                            t.schema().columns.iter().map(|(n, _)| n.clone()).collect()
                        }
                    };
                    let keep: Vec<String> =
                        names.iter().filter(|n| req.contains(*n)).cloned().collect();
                    if keep.len() == names.len() {
                        projection
                    } else {
                        Some(keep)
                    }
                }
            };
            LogicalPlan::Scan {
                source,
                projection,
                predicates,
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let req = req.map(|mut r| {
                expr_columns(&predicate, &mut r);
                r
            });
            LogicalPlan::Filter {
                input: Box::new(push_projection(*input, req)),
                predicate,
            }
        }
        LogicalPlan::Project { input, columns } => {
            let req = columns.iter().cloned().collect();
            LogicalPlan::Project {
                input: Box::new(push_projection(*input, Some(req))),
                columns,
            }
        }
        LogicalPlan::Window {
            input,
            ts_col,
            width_ms,
        } => {
            let req = req.map(|mut r| {
                r.remove("window");
                r.insert(ts_col.clone());
                r
            });
            LogicalPlan::Window {
                input: Box::new(push_projection(*input, req)),
                ts_col,
                width_ms,
            }
        }
        LogicalPlan::Aggregate { input, keys, aggs } => {
            let mut req = BTreeSet::new();
            req.extend(keys.iter().cloned());
            req.extend(aggs.iter().map(|a| a.column.clone()));
            LogicalPlan::Aggregate {
                input: Box::new(push_projection(*input, Some(req))),
                keys,
                aggs,
            }
        }
        LogicalPlan::Pivot {
            input,
            index,
            pivot_col,
            value_col,
            agg,
        } => {
            let mut req: BTreeSet<String> = index.iter().cloned().collect();
            req.insert(pivot_col.clone());
            req.insert(value_col.clone());
            LogicalPlan::Pivot {
                input: Box::new(push_projection(*input, Some(req))),
                index,
                pivot_col,
                value_col,
                agg,
            }
        }
        LogicalPlan::Join { input, right, on } => {
            // Conservative: keep the join keys and every name the right
            // side could contribute — a left column sharing a right
            // column's name decides the `_r` suffix, so it must survive.
            let req = req.map(|mut r| {
                r.extend(on.iter().cloned());
                r.extend(right.names().iter().cloned());
                r
            });
            LogicalPlan::Join {
                input: Box::new(push_projection(*input, req)),
                right,
                on,
            }
        }
        LogicalPlan::Sort { input, by } => {
            let req = req.map(|mut r| {
                r.insert(by.column().to_string());
                r
            });
            LogicalPlan::Sort {
                input: Box::new(push_projection(*input, req)),
                by,
            }
        }
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(push_projection(*input, req)),
            n,
        },
    }
}

/// Order scan predicates by pruning power: indexed categorical (0),
/// stats-prunable numeric (1), residual evaluation (2); ties break on
/// (column, rendering) so plans are deterministic.
fn order_scan_predicates(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan {
            source,
            projection,
            mut predicates,
        } => {
            let rank = |p: &ScanPredicate| match predicate_strategy(p, &source) {
                "index" => 0u8,
                "stats" => 1,
                _ => 2,
            };
            predicates.sort_by(|a, b| {
                rank(a)
                    .cmp(&rank(b))
                    .then_with(|| a.column().cmp(b.column()))
                    .then_with(|| a.render().cmp(&b.render()))
            });
            LogicalPlan::Scan {
                source,
                projection,
                predicates,
            }
        }
        other => map_input(other, order_scan_predicates),
    }
}

// ---------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------

fn exec(plan: &LogicalPlan, stats: &mut ExecStats) -> Result<Frame, PipelineError> {
    match plan {
        LogicalPlan::Scan {
            source,
            projection,
            predicates,
        } => match source {
            ScanSource::Frame(f) => exec_frame_scan(f, projection.as_deref(), predicates, stats),
            ScanSource::Table(t) => exec_table_scan(t, projection.as_deref(), predicates, stats),
        },
        LogicalPlan::Filter { input, predicate } => {
            let frame = exec(input, stats)?;
            let mask = predicate.eval_mask(&frame)?;
            Ok(frame.filter_mask(&mask))
        }
        LogicalPlan::Project { input, columns } => exec(input, stats)?.select(columns),
        LogicalPlan::Window {
            input,
            ts_col,
            width_ms,
        } => assign_window(&exec(input, stats)?, ts_col, *width_ms),
        LogicalPlan::Aggregate { input, keys, aggs } => {
            ops::group_by(&exec(input, stats)?, keys, aggs)
        }
        LogicalPlan::Pivot {
            input,
            index,
            pivot_col,
            value_col,
            agg,
        } => ops::pivot(&exec(input, stats)?, index, pivot_col, value_col, *agg),
        LogicalPlan::Join { input, right, on } => ops::join_inner(&exec(input, stats)?, right, on),
        LogicalPlan::Sort { input, by } => {
            let frame = exec(input, stats)?;
            match by {
                SortKey::I64(c) => ops::sort_by_i64(&frame, c),
                SortKey::Str(c) => ops::sort_by_str(&frame, c),
            }
        }
        LogicalPlan::Limit { input, n } => {
            let frame = exec(input, stats)?;
            let keep: Vec<usize> = (0..frame.rows().min(*n)).collect();
            Ok(frame.take(&keep))
        }
    }
}

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

/// Fluent builder over [`LogicalPlan`] — the one query surface.
#[derive(Debug, Clone)]
pub struct Query {
    plan: LogicalPlan,
}

impl Query {
    /// Scan an in-memory frame.
    pub fn scan(frame: Frame) -> Query {
        Query {
            plan: LogicalPlan::Scan {
                source: ScanSource::Frame(frame),
                projection: None,
                predicates: Vec::new(),
            },
        }
    }

    /// Scan a parsed colfile.
    pub fn scan_table(table: Arc<TableFile>) -> Query {
        Query {
            plan: LogicalPlan::Scan {
                source: ScanSource::Table(table),
                projection: None,
                predicates: Vec::new(),
            },
        }
    }

    /// WHERE: keep rows matching `predicate`.
    pub fn filter(self, predicate: Expr) -> Query {
        self.wrap(|input| LogicalPlan::Filter { input, predicate })
    }

    /// SELECT: keep `cols`, in the listed order.
    pub fn select<S: AsRef<str>>(self, cols: &[S]) -> Query {
        let columns = cols.iter().map(|c| c.as_ref().to_string()).collect();
        self.wrap(|input| LogicalPlan::Project { input, columns })
    }

    /// Append a tumbling `window` column from `ts_col`.
    pub fn window(self, ts_col: &str, width_ms: i64) -> Query {
        let ts_col = ts_col.to_string();
        self.wrap(|input| LogicalPlan::Window {
            input,
            ts_col,
            width_ms,
        })
    }

    /// GROUP BY `keys` with `aggs`.
    pub fn group_by<S: AsRef<str>>(self, keys: &[S], aggs: &[AggSpec]) -> Query {
        let keys = keys.iter().map(|k| k.as_ref().to_string()).collect();
        let aggs = aggs.to_vec();
        self.wrap(|input| LogicalPlan::Aggregate { input, keys, aggs })
    }

    /// PIVOT long to wide.
    pub fn pivot<S: AsRef<str>>(
        self,
        index: &[S],
        pivot_col: &str,
        value_col: &str,
        agg: Agg,
    ) -> Query {
        let index = index.iter().map(|k| k.as_ref().to_string()).collect();
        let pivot_col = pivot_col.to_string();
        let value_col = value_col.to_string();
        self.wrap(|input| LogicalPlan::Pivot {
            input,
            index,
            pivot_col,
            value_col,
            agg,
        })
    }

    /// Inner join with a context frame on equality of `on`.
    pub fn join<S: AsRef<str>>(self, right: Frame, on: &[S]) -> Query {
        let on = on.iter().map(|k| k.as_ref().to_string()).collect();
        self.wrap(|input| LogicalPlan::Join { input, right, on })
    }

    /// Stable ascending sort by an i64 column.
    pub fn sort_by_i64(self, col: &str) -> Query {
        let by = SortKey::I64(col.to_string());
        self.wrap(|input| LogicalPlan::Sort { input, by })
    }

    /// Stable ascending sort by a string/dict column.
    pub fn sort_by_str(self, col: &str) -> Query {
        let by = SortKey::Str(col.to_string());
        self.wrap(|input| LogicalPlan::Sort { input, by })
    }

    /// Keep the first `n` rows.
    pub fn limit(self, n: usize) -> Query {
        self.wrap(|input| LogicalPlan::Limit { input, n })
    }

    fn wrap(self, f: impl FnOnce(Box<LogicalPlan>) -> LogicalPlan) -> Query {
        Query {
            plan: f(Box::new(self.plan)),
        }
    }

    /// The plan as built, before optimization.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// Consume into the underlying plan.
    pub fn into_plan(self) -> LogicalPlan {
        self.plan
    }

    /// The optimized plan tree, rendered deterministically.
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
    /// [`StageTiming`] per non-scan node, input first. Each node runs
    /// un-optimised over a scan of the previous node's frame, so the
    /// timings stay 1:1 with the clauses; the output is the one
    /// [`Query::execute`] returns.
    pub fn execute_timed(mut self) -> Result<(Frame, Vec<StageTiming>), PipelineError> {
        let mut timings = Vec::new();
        let frame = exec_timed(&mut self.plan, &mut timings)?;
        Ok((frame, timings))
    }
}

/// Wall-clock cost of one clause of [`Query::execute_timed`].
#[derive(Debug, Clone)]
pub struct StageTiming {
    /// Clause label ([`LogicalPlan::clause`]).
    pub stage: String,
    /// Execution time in seconds.
    pub seconds: f64,
    /// Rows flowing out of the clause.
    pub rows_out: usize,
}

/// Run `plan` bottom-up, one node at a time: each non-scan node has its
/// input replaced by a scan of that input's frame, then runs and is
/// timed on its own.
fn exec_timed(
    plan: &mut LogicalPlan,
    timings: &mut Vec<StageTiming>,
) -> Result<Frame, PipelineError> {
    let Some(input) = plan.input_mut() else {
        return plan.execute();
    };
    let frame = exec_timed(input, timings)?;
    *input = Query::scan(frame).into_plan();
    let start = Instant::now();
    let out = plan.execute()?;
    timings.push(StageTiming {
        stage: plan.clause().to_string(),
        seconds: start.elapsed().as_secs_f64(),
        rows_out: out.rows(),
    });
    Ok(out)
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
    /// covers every node, over a colfile as well as a frame, and returns
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
