//! Pipeline plans mirroring the SQL-clause anatomy of Fig. 4-b.
//!
//! The paper describes ODA pipelines "conceptually broken down in terms
//! of SQL clauses regardless of the actual implementation": FROM a
//! stream, WHERE quality filters, GROUP BY time windows, PIVOT wide,
//! JOIN context, SELECT outputs. A [`PipelinePlan`] is that clause list,
//! executable against a frame with per-stage wall-clock timing — the
//! data behind the pipeline-anatomy experiment.

use crate::error::PipelineError;
use crate::expr::Expr;
use crate::frame::Frame;
use crate::logical::{LogicalPlan, Query};
use crate::ops::{Agg, AggSpec};
use std::time::Instant;

/// One clause of a pipeline.
#[derive(Debug, Clone)]
pub enum Stage {
    /// WHERE: keep rows matching the predicate.
    Where(Expr),
    /// Add a tumbling `window` column from a timestamp column.
    Window {
        /// Timestamp column.
        ts_col: String,
        /// Window width (ms).
        width_ms: i64,
    },
    /// GROUP BY with aggregations.
    GroupBy {
        /// Key columns.
        keys: Vec<String>,
        /// Aggregations.
        aggs: Vec<AggSpec>,
    },
    /// PIVOT long to wide.
    Pivot {
        /// Index columns retained as keys.
        index: Vec<String>,
        /// Column whose values become output columns.
        pivot_col: String,
        /// Value column.
        value_col: String,
        /// Cell aggregation.
        agg: Agg,
    },
    /// JOIN with a context frame (e.g. job allocations).
    Join {
        /// Right side of the join.
        right: Frame,
        /// Equality columns.
        on: Vec<String>,
    },
    /// SELECT a subset of columns.
    Select(Vec<String>),
}

impl Stage {
    /// Clause label for reports ("WHERE", "GROUP BY", ...).
    pub fn label(&self) -> &'static str {
        match self {
            Stage::Where(_) => "WHERE",
            Stage::Window { .. } => "WINDOW",
            Stage::GroupBy { .. } => "GROUP BY",
            Stage::Pivot { .. } => "PIVOT",
            Stage::Join { .. } => "JOIN",
            Stage::Select(_) => "SELECT",
        }
    }

    /// The [`LogicalPlan`] node this clause is, reading from `input`.
    fn lower(&self, input: LogicalPlan) -> LogicalPlan {
        let input = Box::new(input);
        match self {
            Stage::Where(expr) => LogicalPlan::Filter {
                input,
                predicate: expr.clone(),
            },
            Stage::Window { ts_col, width_ms } => LogicalPlan::Window {
                input,
                ts_col: ts_col.clone(),
                width_ms: *width_ms,
            },
            Stage::GroupBy { keys, aggs } => LogicalPlan::Aggregate {
                input,
                keys: keys.clone(),
                aggs: aggs.clone(),
            },
            Stage::Pivot {
                index,
                pivot_col,
                value_col,
                agg,
            } => LogicalPlan::Pivot {
                input,
                index: index.clone(),
                pivot_col: pivot_col.clone(),
                value_col: value_col.clone(),
                agg: *agg,
            },
            Stage::Join { right, on } => LogicalPlan::Join {
                input,
                right: right.clone(),
                on: on.clone(),
            },
            Stage::Select(cols) => LogicalPlan::Project {
                input,
                columns: cols.clone(),
            },
        }
    }
}

/// Wall-clock cost of one executed stage.
#[derive(Debug, Clone)]
pub struct StageTiming {
    /// Clause label.
    pub stage: String,
    /// Execution time in seconds.
    pub seconds: f64,
    /// Rows flowing out of the stage.
    pub rows_out: usize,
}

/// An ordered list of stages.
#[derive(Debug, Clone, Default)]
pub struct PipelinePlan {
    stages: Vec<Stage>,
}

impl PipelinePlan {
    /// An empty plan (identity).
    pub fn new() -> PipelinePlan {
        PipelinePlan { stages: Vec::new() }
    }

    /// Append a stage.
    pub fn then(mut self, stage: Stage) -> PipelinePlan {
        self.stages.push(stage);
        self
    }

    /// The stages in order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Lower the clause list onto a [`LogicalPlan`] scanning `input` —
    /// the SQL-clause anatomy and the planner describe the same
    /// computation, one plan node per clause.
    pub fn lower(&self, input: Frame) -> LogicalPlan {
        self.stages
            .iter()
            .fold(Query::scan(input).into_plan(), |plan, stage| {
                stage.lower(plan)
            })
    }

    /// Execute against `input` through the logical planner (pushdown
    /// included). Output is identical to running the stages one by one.
    pub fn execute(&self, input: Frame) -> Result<Frame, PipelineError> {
        self.lower(input).optimize().execute()
    }

    /// Execute with per-stage timing (the Fig. 4-b measurement): each
    /// clause is lowered and executed on its own, un-optimised, so the
    /// timings stay 1:1 with the clause list.
    pub fn execute_timed(&self, input: Frame) -> Result<(Frame, Vec<StageTiming>), PipelineError> {
        let mut frame = input;
        let mut timings = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            let node = stage.lower(Query::scan(frame).into_plan());
            let start = Instant::now();
            frame = node.execute()?;
            timings.push(StageTiming {
                stage: stage.label().to_string(),
                seconds: start.elapsed().as_secs_f64(),
                rows_out: frame.rows(),
            });
        }
        Ok((frame, timings))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oda_storage::colfile::ColumnData;

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

    #[test]
    fn full_bronze_to_silver_plan() {
        // The Fig. 4-b anatomy: WHERE -> WINDOW -> GROUP BY -> PIVOT -> JOIN.
        let plan = PipelinePlan::new()
            .then(Stage::Where(Expr::col("value").is_nan().not()))
            .then(Stage::Window {
                ts_col: "ts".into(),
                width_ms: 5_000,
            })
            .then(Stage::GroupBy {
                keys: vec!["window".into(), "node".into(), "sensor".into()],
                aggs: vec![AggSpec::new("value", Agg::Mean, "value")],
            })
            .then(Stage::Pivot {
                index: vec!["window".into(), "node".into()],
                pivot_col: "sensor".into(),
                value_col: "value".into(),
                agg: Agg::Mean,
            })
            .then(Stage::Join {
                right: job_context(),
                on: vec!["node".into()],
            });
        let silver = plan.execute(bronze()).unwrap();
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
        let plan = PipelinePlan::new()
            .then(Stage::Where(Expr::col("value").ge(Expr::LitF(35.0))))
            .then(Stage::Window {
                ts_col: "ts".into(),
                width_ms: 5_000,
            })
            .then(Stage::GroupBy {
                keys: vec!["window".into(), "node".into(), "sensor".into()],
                aggs: vec![AggSpec::new("value", Agg::Mean, "value")],
            })
            .then(Stage::Pivot {
                index: vec!["window".into(), "node".into()],
                pivot_col: "sensor".into(),
                value_col: "value".into(),
                agg: Agg::Mean,
            });
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

        let silver_str = plan.execute(by_str).unwrap();
        let silver_dict = plan.execute(by_dict).unwrap();
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
        let plan = PipelinePlan::new()
            .then(Stage::Where(Expr::col("value").ge(Expr::LitF(0.0))))
            .then(Stage::Select(vec!["ts".into(), "value".into()]));
        let (out, timings) = plan.execute_timed(bronze()).unwrap();
        assert_eq!(out.names(), &["ts", "value"]);
        assert_eq!(timings.len(), 2);
        assert_eq!(timings[0].stage, "WHERE");
        assert_eq!(timings[1].stage, "SELECT");
        assert!(timings.iter().all(|t| t.seconds >= 0.0));
        assert_eq!(timings[1].rows_out, out.rows());
    }

    #[test]
    fn failing_stage_propagates_error() {
        let plan = PipelinePlan::new().then(Stage::Select(vec!["nope".into()]));
        assert!(plan.execute(bronze()).is_err());
    }

    #[test]
    fn empty_plan_is_identity() {
        let f = bronze();
        let out = PipelinePlan::new().execute(f.clone()).unwrap();
        assert_eq!(out, f);
    }
}
