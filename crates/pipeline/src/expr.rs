//! Predicate and projection expressions (the WHERE/SELECT clauses).

use crate::error::PipelineError;
use crate::frame::Frame;
use crate::kernels;
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

impl CmpOp {
    /// The operator with its operands swapped: `a op b` is exactly
    /// `b op.flip() a`, NaN included.
    pub(crate) fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// `x op y`.
    pub(crate) fn test<T: PartialOrd + ?Sized>(self, x: &T, y: &T) -> bool {
        match self {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
        }
    }
}

/// A literal compared with a column. Integer literals are carried as
/// f64, the coercion every comparison applies to i64 operands.
#[derive(Clone, Copy)]
pub(crate) enum Literal<'a> {
    Num(f64),
    Str(&'a str),
}

/// `Col op Lit` or `Lit op Col` as (column, operator with the column on
/// the left, literal); `None` for any other pair of operands.
pub(crate) fn literal_operand<'e>(
    op: CmpOp,
    a: &'e Expr,
    b: &'e Expr,
) -> Option<(&'e str, CmpOp, Literal<'e>)> {
    let (column, op, lit) = match (a, b) {
        (Expr::Col(c), lit) => (c, op, lit),
        (lit, Expr::Col(c)) => (c, op.flip(), lit),
        _ => return None,
    };
    let lit = match lit {
        Expr::LitF(x) => Literal::Num(*x),
        Expr::LitI(x) => Literal::Num(*x as f64),
        Expr::LitS(s) => Literal::Str(s),
        _ => return None,
    };
    Some((column, op, lit))
}

/// AND `col op lit` into `mask` through the [`kernels`] compares, without
/// broadcasting the literal; a dictionary column tests each entry once.
/// `false`, leaving `mask` as it was, when `col`'s type cannot be
/// compared with `lit`.
#[must_use]
pub(crate) fn mask_and_cmp_literal(
    mask: &mut [bool],
    col: &ColumnData,
    op: CmpOp,
    lit: Literal,
) -> bool {
    match (col, lit) {
        (ColumnData::I64(v), Literal::Num(x)) => kernels::mask_and_cmp_i64(mask, &v[..], op, x),
        (ColumnData::F64(v), Literal::Num(x)) => kernels::mask_and_cmp_f64(mask, &v[..], op, x),
        (ColumnData::Str(v), Literal::Str(s)) => kernels::mask_and_cmp_str(mask, &v[..], op, s),
        (ColumnData::Dict { dict, codes }, Literal::Str(s)) => {
            let table: Vec<bool> = dict.iter().map(|d| op.test(d.as_str(), s)).collect();
            kernels::mask_and_code_table(mask, &codes[..], &table);
        }
        _ => return false,
    }
    true
}

/// The error a comparison of incompatible operands returns.
fn incompatible_operands() -> PipelineError {
    PipelineError::TypeMismatch {
        column: "comparison".into(),
        expected: "compatible operand types".into(),
    }
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
            Expr::Cmp(op, a, b) => match literal_operand(*op, a, b) {
                Some((column, op, lit)) => {
                    let mut mask = vec![true; n];
                    if !mask_and_cmp_literal(&mut mask, frame.column(column)?, op, lit) {
                        return Err(incompatible_operands());
                    }
                    Evaluated::Bool(mask)
                }
                None => Evaluated::Bool(cmp(*op, &a.eval(frame)?, &b.eval(frame)?)?),
            },
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
    let test_f = |x: f64, y: f64| op.test(&x, &y);
    let test_s = |x: &str, y: &str| op.test(x, y);
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
        _ => return Err(incompatible_operands()),
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

    /// Differential: a comparison of a column with a literal, on either
    /// side, gives the same mask or the same error as broadcasting the
    /// literal to a column and comparing row by row — for every operator,
    /// column type and literal type, through NaN, signed zero, infinities,
    /// i64 values f64 cannot hold, and duplicate or unused dictionary
    /// entries.
    #[test]
    fn literal_comparisons_match_broadcast_evaluation() {
        let strs = ["", "a", "node_power_w", "b", "node_power_w", "zz"];
        let f = Frame::new(vec![
            (
                "i".into(),
                ColumnData::I64(
                    vec![i64::MIN, (1 << 24) + 1, 0, 2, (1 << 53) + 1, i64::MAX].into(),
                ),
            ),
            (
                "f".into(),
                ColumnData::F64(
                    vec![
                        f64::NAN,
                        -0.0,
                        2.0,
                        f64::INFINITY,
                        -3.5,
                        (1u64 << 53) as f64,
                    ]
                    .into(),
                ),
            ),
            (
                "s".into(),
                ColumnData::Str(strs.map(String::from).to_vec().into()),
            ),
            (
                "d".into(),
                ColumnData::dict(
                    ["node_power_w", "a", "", "b", "a", "unused"]
                        .map(String::from)
                        .to_vec(),
                    vec![0, 1, 2, 3, 4, 0],
                ),
            ),
        ])
        .unwrap();
        let literals = [
            Expr::LitI(2),
            Expr::LitI((1 << 24) + 1),
            Expr::LitI((1 << 53) + 1),
            Expr::LitI(i64::MIN),
            Expr::LitF(f64::NAN),
            Expr::LitF(0.0),
            Expr::LitF(2.0),
            Expr::LitF(f64::NEG_INFINITY),
            Expr::LitS(String::new()),
            Expr::LitS("a".into()),
            Expr::LitS("node_power_w".into()),
            Expr::LitS("c".into()),
        ];
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let broadcast = |op, a: &Expr, b: &Expr| cmp(op, &a.eval(&f)?, &b.eval(&f)?);
        for op in ops {
            for column in ["i", "f", "s", "d", "missing"] {
                for lit in &literals {
                    for (a, b) in [
                        (Expr::col(column), lit.clone()),
                        (lit.clone(), Expr::col(column)),
                    ] {
                        let e = Expr::Cmp(op, Box::new(a.clone()), Box::new(b.clone()));
                        assert!(literal_operand(op, &a, &b).is_some());
                        assert_eq!(e.eval_mask(&f), broadcast(op, &a, &b), "{e:?}");
                    }
                }
            }
        }
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
