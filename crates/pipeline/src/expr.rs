//! Predicate and projection expressions (the WHERE/SELECT clauses).

use crate::error::PipelineError;
use crate::frame::Frame;
use oda_storage::buffer::Buffer;
use oda_storage::colfile::ColumnData;
use std::sync::Arc;

/// A scalar expression over frame columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Col(String),
    /// Float literal.
    LitF(f64),
    /// Integer literal.
    LitI(i64),
    /// String literal.
    LitS(String),
    /// Comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical AND.
    And(Box<Expr>, Box<Expr>),
    /// Logical OR.
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// True where the (f64) operand is NaN.
    IsNan(Box<Expr>),
    /// Numeric arithmetic (operands coerce to f64).
    Arith(ArithOp, Box<Expr>, Box<Expr>),
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (x/0 follows IEEE: ±inf / NaN).
    Div,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// Evaluated column of values. Column references hold shared buffer
/// views (a refcount bump, not a copy); only computed results own
/// fresh allocations.
enum Evaluated {
    F64(Buffer<f64>),
    I64(Buffer<i64>),
    Str(Buffer<String>),
    Dict(Arc<Vec<String>>, Buffer<u32>),
    Bool(Vec<bool>),
}

impl Expr {
    /// `col(name)` helper.
    pub fn col(name: &str) -> Expr {
        Expr::Col(name.to_string())
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(other))
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(other))
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(other))
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(other))
    }

    /// `self == other`.
    pub fn eq_(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(other))
    }

    /// `self != other`.
    pub fn ne_(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(other))
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// `isnan(self)`.
    pub fn is_nan(self) -> Expr {
        Expr::IsNan(Box::new(self))
    }

    fn eval(&self, frame: &Frame) -> Result<Evaluated, PipelineError> {
        let n = frame.rows();
        Ok(match self {
            Expr::Col(name) => match frame.column(name)? {
                ColumnData::I64(v) => Evaluated::I64(v.clone()),
                ColumnData::F64(v) => Evaluated::F64(v.clone()),
                ColumnData::Str(v) => Evaluated::Str(v.clone()),
                ColumnData::Dict { dict, codes } => {
                    Evaluated::Dict(Arc::clone(dict), codes.clone())
                }
            },
            Expr::LitF(x) => Evaluated::F64(vec![*x; n].into()),
            Expr::LitI(x) => Evaluated::I64(vec![*x; n].into()),
            Expr::LitS(s) => Evaluated::Str(vec![s.clone(); n].into()),
            Expr::Cmp(op, a, b) => {
                let av = a.eval(frame)?;
                let bv = b.eval(frame)?;
                Evaluated::Bool(cmp(*op, &av, &bv)?)
            }
            Expr::And(a, b) => {
                let av = a.eval_mask_inner(frame)?;
                let bv = b.eval_mask_inner(frame)?;
                Evaluated::Bool(av.iter().zip(&bv).map(|(x, y)| *x && *y).collect())
            }
            Expr::Or(a, b) => {
                let av = a.eval_mask_inner(frame)?;
                let bv = b.eval_mask_inner(frame)?;
                Evaluated::Bool(av.iter().zip(&bv).map(|(x, y)| *x || *y).collect())
            }
            Expr::Not(a) => {
                let av = a.eval_mask_inner(frame)?;
                Evaluated::Bool(av.iter().map(|x| !x).collect())
            }
            Expr::Arith(op, a, b) => {
                let av = a.eval(frame)?.into_f64(frame.rows())?;
                let bv = b.eval(frame)?.into_f64(frame.rows())?;
                let f = |x: f64, y: f64| match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => x / y,
                };
                Evaluated::F64(av.iter().zip(&bv).map(|(x, y)| f(*x, *y)).collect())
            }
            Expr::IsNan(a) => match a.eval(frame)? {
                Evaluated::F64(v) => Evaluated::Bool(v.iter().map(|x| x.is_nan()).collect()),
                _ => {
                    return Err(PipelineError::TypeMismatch {
                        column: format!("{a:?}"),
                        expected: "f64 for isnan".into(),
                    })
                }
            },
        })
    }

    fn eval_mask_inner(&self, frame: &Frame) -> Result<Vec<bool>, PipelineError> {
        match self.eval(frame)? {
            Evaluated::Bool(b) => Ok(b),
            _ => Err(PipelineError::TypeMismatch {
                column: format!("{self:?}"),
                expected: "boolean".into(),
            }),
        }
    }

    /// Evaluate as a row mask over `frame`.
    pub fn eval_mask(&self, frame: &Frame) -> Result<Vec<bool>, PipelineError> {
        self.eval_mask_inner(frame)
    }

    /// Evaluate as a numeric (f64) column over `frame`.
    pub fn eval_f64(&self, frame: &Frame) -> Result<Vec<f64>, PipelineError> {
        self.eval(frame)?.into_f64(frame.rows())
    }
}

impl std::ops::Add for Expr {
    type Output = Expr;
    /// `self + other` (numeric, coerces to f64).
    fn add(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Add, Box::new(self), Box::new(other))
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;
    /// `self - other` (numeric, coerces to f64).
    fn sub(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Sub, Box::new(self), Box::new(other))
    }
}

impl std::ops::Mul for Expr {
    type Output = Expr;
    /// `self * other` (numeric, coerces to f64).
    fn mul(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, Box::new(self), Box::new(other))
    }
}

impl std::ops::Div for Expr {
    type Output = Expr;
    /// `self / other` (numeric, IEEE division).
    fn div(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Div, Box::new(self), Box::new(other))
    }
}

impl Evaluated {
    fn into_f64(self, _rows: usize) -> Result<Vec<f64>, PipelineError> {
        match self {
            Evaluated::F64(v) => Ok(v.into_vec()),
            Evaluated::I64(v) => Ok(v.iter().map(|&x| x as f64).collect()),
            Evaluated::Bool(_) | Evaluated::Str(_) | Evaluated::Dict(..) => {
                Err(PipelineError::TypeMismatch {
                    column: "expression".into(),
                    expected: "numeric".into(),
                })
            }
        }
    }
}

fn cmp(op: CmpOp, a: &Evaluated, b: &Evaluated) -> Result<Vec<bool>, PipelineError> {
    let test_f = |x: f64, y: f64| match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    };
    let test_s = |x: &str, y: &str| match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    };
    Ok(match (a, b) {
        (Evaluated::F64(x), Evaluated::F64(y)) => {
            x.iter().zip(y).map(|(x, y)| test_f(*x, *y)).collect()
        }
        (Evaluated::I64(x), Evaluated::I64(y)) => x
            .iter()
            .zip(y)
            .map(|(x, y)| test_f(*x as f64, *y as f64))
            .collect(),
        (Evaluated::F64(x), Evaluated::I64(y)) => x
            .iter()
            .zip(y)
            .map(|(x, y)| test_f(*x, *y as f64))
            .collect(),
        (Evaluated::I64(x), Evaluated::F64(y)) => x
            .iter()
            .zip(y)
            .map(|(x, y)| test_f(*x as f64, *y))
            .collect(),
        (Evaluated::Str(x), Evaluated::Str(y)) => {
            x.iter().zip(y).map(|(x, y)| test_s(x, y)).collect()
        }
        (Evaluated::Dict(dict, codes), Evaluated::Str(y)) => codes
            .iter()
            .zip(y)
            .map(|(&c, y)| test_s(&dict[c as usize], y))
            .collect(),
        (Evaluated::Str(x), Evaluated::Dict(dict, codes)) => x
            .iter()
            .zip(codes)
            .map(|(x, &c)| test_s(x, &dict[c as usize]))
            .collect(),
        (Evaluated::Dict(da, ca), Evaluated::Dict(db, cb)) => ca
            .iter()
            .zip(cb)
            .map(|(&x, &y)| test_s(&da[x as usize], &db[y as usize]))
            .collect(),
        _ => {
            return Err(PipelineError::TypeMismatch {
                column: "comparison".into(),
                expected: "compatible operand types".into(),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Frame {
        Frame::new(vec![
            ("ts".into(), ColumnData::I64(vec![10, 20, 30].into())),
            ("v".into(), ColumnData::F64(vec![1.0, f64::NAN, 3.0].into())),
            (
                "s".into(),
                ColumnData::Str(vec!["x".into(), "y".into(), "x".into()].into()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn numeric_comparisons() {
        let f = frame();
        let mask = Expr::col("ts").ge(Expr::LitI(20)).eval_mask(&f).unwrap();
        assert_eq!(mask, vec![false, true, true]);
        // Mixed int/float comparison coerces.
        let mask = Expr::col("ts").lt(Expr::LitF(25.0)).eval_mask(&f).unwrap();
        assert_eq!(mask, vec![true, true, false]);
    }

    #[test]
    fn string_equality() {
        let f = frame();
        let mask = Expr::col("s")
            .eq_(Expr::LitS("x".into()))
            .eval_mask(&f)
            .unwrap();
        assert_eq!(mask, vec![true, false, true]);
    }

    #[test]
    fn boolean_combinators() {
        let f = frame();
        let e = Expr::col("ts")
            .gt(Expr::LitI(10))
            .and(Expr::col("s").eq_(Expr::LitS("x".into())));
        assert_eq!(e.eval_mask(&f).unwrap(), vec![false, false, true]);
        let e = Expr::col("ts")
            .eq_(Expr::LitI(10))
            .or(Expr::col("ts").eq_(Expr::LitI(30)));
        assert_eq!(e.eval_mask(&f).unwrap(), vec![true, false, true]);
        let e = Expr::col("ts").eq_(Expr::LitI(10)).not();
        assert_eq!(e.eval_mask(&f).unwrap(), vec![false, true, true]);
    }

    #[test]
    fn nan_detection_and_semantics() {
        let f = frame();
        let mask = Expr::col("v").is_nan().eval_mask(&f).unwrap();
        assert_eq!(mask, vec![false, true, false]);
        // NaN compares false with everything.
        let mask = Expr::col("v").ge(Expr::LitF(0.0)).eval_mask(&f).unwrap();
        assert_eq!(mask, vec![true, false, true]);
    }

    #[test]
    fn arithmetic_and_computed_columns() {
        let f = frame();
        // (ts * 2) + 1, int inputs coerce to f64.
        let e = Expr::col("ts") * Expr::LitI(2) + Expr::LitF(1.0);
        assert_eq!(e.eval_f64(&f).unwrap(), vec![21.0, 41.0, 61.0]);
        // Division follows IEEE through NaN operands.
        let e = Expr::col("v") / Expr::col("ts");
        let out = e.eval_f64(&f).unwrap();
        assert!((out[0] - 0.1).abs() < 1e-12);
        assert!(out[1].is_nan());
        // Arithmetic on strings is rejected.
        assert!((Expr::col("s") + Expr::LitI(1)).eval_f64(&f).is_err());
        // Comparisons over arithmetic results compose.
        let mask = (Expr::col("ts") * Expr::LitI(2))
            .ge(Expr::LitF(40.0))
            .eval_mask(&f)
            .unwrap();
        assert_eq!(mask, vec![false, true, true]);
    }

    #[test]
    fn division_by_zero_is_ieee() {
        let f = Frame::new(vec![(
            "x".into(),
            ColumnData::F64(vec![1.0, 0.0, -1.0].into()),
        )])
        .unwrap();
        let out = (Expr::col("x") / Expr::LitF(0.0)).eval_f64(&f).unwrap();
        assert_eq!(out[0], f64::INFINITY);
        assert!(out[1].is_nan());
        assert_eq!(out[2], f64::NEG_INFINITY);
    }

    #[test]
    fn type_errors_surface() {
        let f = frame();
        assert!(Expr::col("s").gt(Expr::LitI(1)).eval_mask(&f).is_err());
        assert!(Expr::col("missing").is_nan().eval_mask(&f).is_err());
        // A bare column is not a mask.
        assert!(Expr::col("ts").eval_mask(&f).is_err());
    }
}
