//! The cardinality-preserving left join the paper's *Full Table* baseline
//! needs: [`augment_join`] keeps exactly one output row per base row, and
//! 1:N / N:M matches on the other side are aggregated (numeric → mean,
//! everything else → mode). This is the "handle different join
//! cardinalities" chore §2.2 describes analysts doing by hand.

use crate::column::Column;
use crate::error::Result;
use crate::table::Table;
use crate::value::Value;
use std::collections::HashMap;

/// Cardinality-preserving augmentation join: appends the non-key columns of
/// `other` to `base`, aggregating multiple matches so the output has exactly
/// `base.row_count()` rows.
pub fn augment_join(base: &Table, other: &Table, base_col: &str, other_col: &str) -> Result<Table> {
    let bidx = base.column_index(base_col)?;
    let oidx = other.column_index(other_col)?;
    let mut index: HashMap<String, Vec<usize>> = HashMap::new();
    for (r, v) in other.columns()[oidx].values().iter().enumerate() {
        if !v.is_null() {
            index.entry(v.render()).or_default().push(r);
        }
    }
    let mut out = base.clone();
    out.set_name(format!("{}_aug_{}", base.name(), other.name()));
    for (ci, ocol) in other.columns().iter().enumerate() {
        if ci == oidx {
            continue; // the join key duplicates information already in base
        }
        let mut vals = Vec::with_capacity(base.row_count());
        for br in 0..base.row_count() {
            let key = base.value(br, bidx)?;
            let matches: &[usize] = if key.is_null() {
                &[]
            } else {
                index.get(&key.render()).map(Vec::as_slice).unwrap_or(&[])
            };
            vals.push(aggregate(ocol, matches));
        }
        out.add_column(Column::from_values(
            format!("{}.{}", other.name(), ocol.name()),
            vals,
        ))?;
    }
    Ok(out)
}

/// Aggregates the values of `col` at the given rows: mean for numeric
/// majorities, mode otherwise, null when no rows match.
fn aggregate(col: &Column, rows: &[usize]) -> Value {
    if rows.is_empty() {
        return Value::Null;
    }
    if rows.len() == 1 {
        return col.get(rows[0]).cloned().unwrap_or(Value::Null);
    }
    let vals: Vec<&Value> = rows
        .iter()
        .filter_map(|&r| col.get(r))
        .filter(|v| !v.is_null())
        .collect();
    if vals.is_empty() {
        return Value::Null;
    }
    let numeric: Vec<f64> = vals.iter().filter_map(|v| v.as_f64()).collect();
    if numeric.len() * 2 >= vals.len() {
        return Value::float(numeric.iter().sum::<f64>() / numeric.len() as f64);
    }
    // Mode of rendered values; ties broken by first occurrence for determinism.
    let mut counts: HashMap<String, (usize, usize)> = HashMap::new();
    for (i, v) in vals.iter().enumerate() {
        let e = counts.entry(v.render()).or_insert((0, i));
        e.0 += 1;
    }
    let best = counts
        .into_iter()
        .max_by(|a, b| a.1 .0.cmp(&b.1 .0).then(b.1 .1.cmp(&a.1 .1)))
        .map(|(_, (_, i))| i)
        .unwrap_or(0);
    (*vals[best]).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Table {
        let mut t = Table::new("orders", vec!["id", "item"]);
        t.push_row(vec![Value::Int(1), Value::Text("pen".into())])
            .unwrap();
        t.push_row(vec![Value::Int(2), Value::Text("ink".into())])
            .unwrap();
        t.push_row(vec![Value::Int(3), Value::Null]).unwrap();
        t
    }

    fn prices() -> Table {
        let mut t = Table::new("prices", vec!["item", "price"]);
        t.push_row(vec![Value::Text("pen".into()), Value::Float(2.0)])
            .unwrap();
        t.push_row(vec![Value::Text("pen".into()), Value::Float(4.0)])
            .unwrap();
        t.push_row(vec![Value::Text("ink".into()), Value::Float(10.0)])
            .unwrap();
        t
    }

    #[test]
    fn augment_preserves_cardinality_and_aggregates() {
        let a = augment_join(&base(), &prices(), "item", "item").unwrap();
        assert_eq!(a.row_count(), 3);
        assert_eq!(a.column_names(), vec!["id", "item", "prices.price"]);
        // pen matched rows 2.0 and 4.0 => mean 3.0
        assert_eq!(a.value(0, 2).unwrap(), &Value::Float(3.0));
        assert_eq!(a.value(1, 2).unwrap(), &Value::Float(10.0));
        assert!(a.value(2, 2).unwrap().is_null());
    }

    #[test]
    fn augment_mode_for_text() {
        let mut t = Table::new("tags", vec!["item", "tag"]);
        for tag in ["a", "b", "b"] {
            t.push_row(vec![Value::Text("pen".into()), Value::Text(tag.into())])
                .unwrap();
        }
        let a = augment_join(&base(), &t, "item", "item").unwrap();
        assert_eq!(a.value(0, 2).unwrap(), &Value::Text("b".into()));
    }

    #[test]
    fn join_on_missing_column_errors() {
        assert!(augment_join(&base(), &prices(), "nope", "item").is_err());
        assert!(augment_join(&base(), &prices(), "item", "nope").is_err());
    }
}
