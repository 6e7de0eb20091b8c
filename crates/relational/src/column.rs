//! Columns: a named, ordered collection of [`Value`]s with an inferred type.

use crate::value::Value;

/// The logical type of a column, inferred from its contents.
///
/// Inference is majority-driven so that dirty columns (e.g. a numeric column
/// with a few `"?"` sentinels) still classify as numeric — exactly the
/// scenario Leva's refinement stage is designed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Column of integers.
    Int,
    /// Column of floats (or mixed int/float).
    Float,
    /// Column of free text.
    Text,
    /// Column of booleans.
    Bool,
    /// Column of timestamps.
    Timestamp,
    /// Column with no non-null values.
    Unknown,
}

/// A named column of values.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    name: String,
    values: Vec<Value>,
}

impl Column {
    /// Creates an empty column.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            values: Vec::new(),
        }
    }

    /// Creates a column from existing values.
    pub fn from_values(name: impl Into<String>, values: Vec<Value>) -> Self {
        Self {
            name: name.into(),
            values,
        }
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the column in place.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Appends a value.
    pub fn push(&mut self, value: Value) {
        self.values.push(value);
    }

    /// Value at `row`, if in bounds.
    pub fn get(&self, row: usize) -> Option<&Value> {
        self.values.get(row)
    }

    /// All values, in row order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Mutable access to the values (used by noise injectors in tests and
    /// dataset generators).
    pub fn values_mut(&mut self) -> &mut Vec<Value> {
        &mut self.values
    }

    /// Iterator over the non-null numeric view of the column.
    pub fn numeric_values(&self) -> impl Iterator<Item = f64> + '_ {
        self.values.iter().filter_map(Value::as_f64)
    }

    /// Infers the column's [`DataType`] by majority vote over non-null values.
    ///
    /// A column is `Float` if any float appears among otherwise-integral
    /// values; text wins only when text values are the (strict) majority of
    /// non-nulls, which keeps dirty numeric columns numeric.
    pub fn infer_type(&self) -> DataType {
        let mut ints = 0usize;
        let mut floats = 0usize;
        let mut texts = 0usize;
        let mut numeric_texts = 0usize;
        let mut bools = 0usize;
        let mut timestamps = 0usize;
        for v in &self.values {
            match v {
                Value::Int(_) => ints += 1,
                Value::Float(_) => floats += 1,
                Value::Text(s) => {
                    texts += 1;
                    if s.trim().parse::<f64>().is_ok() {
                        numeric_texts += 1;
                    }
                }
                Value::Bool(_) => bools += 1,
                Value::Timestamp(_) => timestamps += 1,
                Value::Null => {}
            }
        }
        let non_null = ints + floats + texts + bools + timestamps;
        if non_null == 0 {
            return DataType::Unknown;
        }
        // Text columns that are mostly numeric strings classify as numeric.
        let numericish = ints + floats + numeric_texts;
        let plain_text = texts - numeric_texts;
        if plain_text * 2 > non_null {
            return DataType::Text;
        }
        if timestamps * 2 > non_null {
            return DataType::Timestamp;
        }
        if bools * 2 > non_null {
            return DataType::Bool;
        }
        if numericish > 0 {
            // Distinguish integral vs floating columns among numeric values.
            let any_fractional = self.values.iter().any(|v| match v {
                Value::Float(f) => f.fract() != 0.0,
                Value::Text(s) => s
                    .trim()
                    .parse::<f64>()
                    .map(|f| f.fract() != 0.0)
                    .unwrap_or(false),
                _ => false,
            });
            if any_fractional || floats > ints {
                return DataType::Float;
            }
            return DataType::Int;
        }
        DataType::Text
    }

    /// Count of null values (ingestion-time nulls only; sentinel strings are
    /// detected later by the voting mechanism).
    pub fn null_count(&self) -> usize {
        self.values.iter().filter(|v| v.is_null()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(vals: Vec<Value>) -> Column {
        Column::from_values("c", vals)
    }

    #[test]
    fn infer_int_column() {
        let c = col(vec![Value::Int(1), Value::Int(2), Value::Null]);
        assert_eq!(c.infer_type(), DataType::Int);
    }

    #[test]
    fn infer_float_when_fractional() {
        let c = col(vec![Value::Int(1), Value::Float(2.5)]);
        assert_eq!(c.infer_type(), DataType::Float);
    }

    #[test]
    fn dirty_numeric_column_stays_numeric() {
        // Numeric column with a sentinel: majority numeric => Int.
        let c = col(vec![
            Value::Int(1),
            Value::Int(2),
            Value::Int(3),
            Value::Text("?".into()),
        ]);
        assert_eq!(c.infer_type(), DataType::Int);
    }

    #[test]
    fn numeric_strings_classify_numeric() {
        let c = col(vec![Value::Text("1".into()), Value::Text("2.5".into())]);
        assert_eq!(c.infer_type(), DataType::Float);
    }

    #[test]
    fn text_majority_wins() {
        let c = col(vec![
            Value::Text("a".into()),
            Value::Text("b".into()),
            Value::Int(1),
        ]);
        assert_eq!(c.infer_type(), DataType::Text);
    }

    #[test]
    fn all_null_is_unknown() {
        let c = col(vec![Value::Null, Value::Null]);
        assert_eq!(c.infer_type(), DataType::Unknown);
        assert_eq!(c.null_count(), 2);
    }

    #[test]
    fn timestamp_and_bool_inference() {
        let c = col(vec![Value::Timestamp(100), Value::Timestamp(200)]);
        assert_eq!(c.infer_type(), DataType::Timestamp);
        let c = col(vec![Value::Bool(true), Value::Bool(false), Value::Null]);
        assert_eq!(c.infer_type(), DataType::Bool);
    }

    #[test]
    fn numeric_values_skips_non_numeric() {
        let c = col(vec![
            Value::Int(1),
            Value::Text("x".into()),
            Value::Float(2.0),
        ]);
        let v: Vec<f64> = c.numeric_values().collect();
        assert_eq!(v, vec![1.0, 2.0]);
    }
}
