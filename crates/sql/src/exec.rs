//! Query execution: greedy left-deep hash joins over the catalog.
//!
//! The executor evaluates one query at a time against the stored tables of a
//! [`Catalog`] plus parameter bindings. Relation-valued parameters play the
//! role of the paper's temporary tables: the mediator binds the cached output
//! of an upstream query and the query joins against it (§5.1).
//!
//! All inputs are scanned **column-major over interned symbols** (see
//! `aig_relstore::intern`): join keys, IN-sets and DISTINCT dedup compare
//! `u32` symbols instead of cloning values, and equality keys of up to two
//! columns never allocate. NULL join keys are rejected with one integer
//! compare *before* any key is built. Values are resolved from the arena
//! only for order comparisons (`<`, `<=`, …).

use crate::ast::{CmpOp, FromItem, Pred, Query, Scalar, SetRef};
use crate::error::SqlError;
use aig_relstore::intern::{self, Sym};
use aig_relstore::{Catalog, Relation, Value};
use std::collections::{HashMap, HashSet};

/// A parameter binding: a scalar or a relation (temporary table).
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    Scalar(Value),
    Rel(Relation),
}

impl ParamValue {
    pub fn scalar(v: impl Into<Value>) -> ParamValue {
        ParamValue::Scalar(v.into())
    }

    pub fn as_scalar(&self) -> Option<&Value> {
        match self {
            ParamValue::Scalar(v) => Some(v),
            ParamValue::Rel(_) => None,
        }
    }

    pub fn as_rel(&self) -> Option<&Relation> {
        match self {
            ParamValue::Rel(r) => Some(r),
            ParamValue::Scalar(_) => None,
        }
    }
}

/// Parameter bindings by name.
pub type Params = HashMap<String, ParamValue>;

/// One resolved FROM entry: a columnar relation view (stored tables expose
/// their cached interned image, parameters bind theirs directly).
struct Input<'a> {
    alias: &'a str,
    columns: Vec<&'a str>,
    /// Rows surviving the local predicates (indices into the relation).
    live: Vec<u32>,
    rel: &'a Relation,
}

impl Input<'_> {
    fn col(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|&c| c == name)
    }

    #[inline]
    fn sym(&self, r: u32, c: usize) -> Sym {
        self.rel.col_syms(c)[r as usize]
    }

    #[inline]
    fn cell(&self, r: u32, c: usize) -> &'static Value {
        intern::resolve(self.sym(r, c))
    }
}

/// A fully resolved column: which input, which column within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ColRef {
    input: usize,
    col: usize,
}

/// An equality-join key of interned symbols. Keys of up to two columns are
/// inline — the common case (`__owner = __rowid`, single-column joins)
/// never allocates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    One(Sym),
    Two(Sym, Sym),
    Big(Vec<Sym>),
}

/// Executes `query` against `catalog` with the given parameter bindings,
/// producing a relation whose columns follow the SELECT list.
pub fn execute(query: &Query, catalog: &Catalog, params: &Params) -> Result<Relation, SqlError> {
    // -- Resolve FROM items --------------------------------------------------
    let mut inputs: Vec<Input<'_>> = Vec::with_capacity(query.from.len());
    for item in &query.from {
        match item {
            FromItem::Table {
                source,
                table,
                alias,
            } => {
                let t = catalog.table(source, table)?;
                let rel = t.columnar();
                inputs.push(Input {
                    alias,
                    columns: t.schema().column_names(),
                    live: (0..t.len() as u32).collect(),
                    rel,
                });
            }
            FromItem::Param { name, alias } => {
                let rel = params
                    .get(name)
                    .and_then(ParamValue::as_rel)
                    .ok_or_else(|| {
                        SqlError::Param(format!(
                            "parameter `${name}` used in FROM must be bound to a relation"
                        ))
                    })?;
                inputs.push(Input {
                    alias,
                    columns: rel.columns().iter().map(String::as_str).collect(),
                    live: (0..rel.len() as u32).collect(),
                    rel,
                });
            }
        }
    }

    fn resolve_in(inputs: &[Input<'_>], qualifier: &str, column: &str) -> Result<ColRef, SqlError> {
        let input = inputs
            .iter()
            .position(|i| i.alias == qualifier)
            .ok_or_else(|| SqlError::Bind(format!("unknown alias `{qualifier}`")))?;
        let col = inputs[input]
            .col(column)
            .ok_or_else(|| SqlError::Bind(format!("no column `{column}` in `{qualifier}`")))?;
        Ok(ColRef { input, col })
    }

    // Substitutes scalar parameters, leaving columns and constants.
    let subst = |scalar: &Scalar| -> Result<Scalar, SqlError> {
        match scalar {
            Scalar::Param(name) => {
                let v = params
                    .get(name)
                    .and_then(ParamValue::as_scalar)
                    .ok_or_else(|| {
                        SqlError::Param(format!("parameter `${name}` must be bound to a scalar"))
                    })?;
                Ok(Scalar::Const(v.clone()))
            }
            other => Ok(other.clone()),
        }
    };

    // -- Classify predicates -------------------------------------------------
    /// A join predicate between two different inputs.
    struct JoinPred {
        op: CmpOp,
        lhs: ColRef,
        rhs: ColRef,
    }
    enum Local {
        CmpConst {
            op: CmpOp,
            col: ColRef,
            value: Value,
            flipped: bool,
        },
        CmpCols {
            op: CmpOp,
            lhs: ColRef,
            rhs: ColRef,
        },
        In {
            col: ColRef,
            set: HashSet<Sym>,
        },
        /// Constant-only predicate: either always true (drop) or always
        /// false (empty result).
        Trivial(bool),
    }
    let mut joins: Vec<JoinPred> = Vec::new();
    let mut locals: Vec<Local> = Vec::new();
    for pred in &query.preds {
        match pred {
            Pred::Cmp { op, lhs, rhs } => {
                let lhs = subst(lhs)?;
                let rhs = subst(rhs)?;
                match (lhs, rhs) {
                    (Scalar::Col(a), Scalar::Col(b)) => {
                        let a = resolve_in(&inputs, &a.qualifier, &a.column)?;
                        let b = resolve_in(&inputs, &b.qualifier, &b.column)?;
                        if a.input == b.input {
                            locals.push(Local::CmpCols {
                                op: *op,
                                lhs: a,
                                rhs: b,
                            });
                        } else {
                            joins.push(JoinPred {
                                op: *op,
                                lhs: a,
                                rhs: b,
                            });
                        }
                    }
                    (Scalar::Col(a), Scalar::Const(v)) => {
                        let a = resolve_in(&inputs, &a.qualifier, &a.column)?;
                        locals.push(Local::CmpConst {
                            op: *op,
                            col: a,
                            value: v,
                            flipped: false,
                        });
                    }
                    (Scalar::Const(v), Scalar::Col(b)) => {
                        let b = resolve_in(&inputs, &b.qualifier, &b.column)?;
                        locals.push(Local::CmpConst {
                            op: *op,
                            col: b,
                            value: v,
                            flipped: true,
                        });
                    }
                    (Scalar::Const(l), Scalar::Const(r)) => {
                        locals.push(Local::Trivial(op.eval(&l, &r)));
                    }
                    _ => unreachable!("parameters were substituted"),
                }
            }
            Pred::In { col, set } => {
                let c = resolve_in(&inputs, &col.qualifier, &col.column)?;
                // A constant that was never interned equals no stored cell,
                // so it simply never enters the symbol set.
                let mut values: HashSet<Sym> = match set {
                    SetRef::Consts(vs) => vs.iter().filter_map(intern::lookup).collect(),
                    SetRef::Param(name) => {
                        let rel =
                            params
                                .get(name)
                                .and_then(ParamValue::as_rel)
                                .ok_or_else(|| {
                                    SqlError::Param(format!(
                                    "parameter `${name}` used in IN must be bound to a relation"
                                ))
                                })?;
                        if rel.arity() == 0 {
                            return Err(SqlError::Param(format!(
                                "relation parameter `${name}` has no columns"
                            )));
                        }
                        rel.col_syms(0).iter().copied().collect()
                    }
                };
                // `x IN (...)` is false for a NULL x even when the set
                // contains NULL.
                values.remove(&Sym::NULL);
                locals.push(Local::In {
                    col: c,
                    set: values,
                });
            }
        }
    }

    // -- Apply local filters --------------------------------------------------
    let mut impossible = false;
    for local in &locals {
        match local {
            Local::Trivial(ok) => impossible |= !ok,
            Local::CmpConst {
                op,
                col,
                value,
                flipped,
            } => {
                let input = &mut inputs[col.input];
                let c = col.col;
                if *op == CmpOp::Eq {
                    // Equality against a constant is a symbol compare; a
                    // never-interned constant matches nothing, and NULL
                    // operands are always false (SQL three-valued logic).
                    match intern::lookup(value).filter(|s| !s.is_null()) {
                        Some(sym) => input
                            .live
                            .retain(|&r| input.rel.col_syms(c)[r as usize] == sym),
                        None => input.live.clear(),
                    }
                } else {
                    input.live.retain(|&r| {
                        let cell = intern::resolve(input.rel.col_syms(c)[r as usize]);
                        if *flipped {
                            op.eval(value, cell)
                        } else {
                            op.eval(cell, value)
                        }
                    });
                }
            }
            Local::CmpCols { op, lhs, rhs } => {
                let input = &mut inputs[lhs.input];
                let (a, b) = (lhs.col, rhs.col);
                if *op == CmpOp::Eq {
                    // NULL = NULL is false in SQL, so equal symbols only
                    // match when non-NULL.
                    input.live.retain(|&r| {
                        let s = input.rel.col_syms(a)[r as usize];
                        s == input.rel.col_syms(b)[r as usize] && !s.is_null()
                    });
                } else {
                    input.live.retain(|&r| {
                        op.eval(
                            intern::resolve(input.rel.col_syms(a)[r as usize]),
                            intern::resolve(input.rel.col_syms(b)[r as usize]),
                        )
                    });
                }
            }
            Local::In { col, set } => {
                let input = &mut inputs[col.input];
                let c = col.col;
                input
                    .live
                    .retain(|&r| set.contains(&input.rel.col_syms(c)[r as usize]));
            }
        }
    }
    if impossible {
        return project_empty(query, &inputs, params);
    }

    // -- Greedy left-deep join ordering ---------------------------------------
    let n = inputs.len();
    let mut joined: Vec<usize> = Vec::with_capacity(n);
    let mut remaining: Vec<usize> = (0..n).collect();
    // Start from the smallest filtered input.
    remaining.sort_by_key(|&i| std::cmp::Reverse(inputs[i].live.len()));
    let first = remaining.pop().expect("FROM clause is non-empty");
    joined.push(first);

    // Composites: tuples of live-row *indices* per joined input, parallel to
    // `joined` order. Avoids materializing wide intermediate rows.
    let mut composites: Vec<Vec<u32>> = inputs[first].live.iter().map(|&r| vec![r]).collect();

    while !remaining.is_empty() {
        // Prefer an input connected to the current set by an equality join
        // predicate; among those, the smallest.
        let connected = |candidate: usize, joined: &[usize]| {
            joins.iter().any(|j| {
                (j.lhs.input == candidate && joined.contains(&j.rhs.input))
                    || (j.rhs.input == candidate && joined.contains(&j.lhs.input))
            })
        };
        let pick_pos = remaining
            .iter()
            .enumerate()
            .filter(|&(_, &c)| connected(c, &joined))
            .min_by_key(|&(_, &c)| inputs[c].live.len())
            .map(|(pos, _)| pos)
            .unwrap_or_else(|| {
                // Cross product fallback: smallest remaining.
                remaining
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &c)| inputs[c].live.len())
                    .map(|(pos, _)| pos)
                    .expect("remaining non-empty")
            });
        let next = remaining.remove(pick_pos);

        // Partition join predicates touching `next` and the joined set into
        // hashable equalities and residual comparisons.
        let mut eq_pairs: Vec<(ColRef, usize)> = Vec::new(); // (joined side, next-side col)
        let mut residuals: Vec<(&JoinPred, bool)> = Vec::new(); // (pred, next_is_lhs)
        for j in &joins {
            let (next_side, other) = if j.lhs.input == next && joined.contains(&j.rhs.input) {
                (j.lhs, j.rhs)
            } else if j.rhs.input == next && joined.contains(&j.lhs.input) {
                (j.rhs, j.lhs)
            } else {
                continue;
            };
            if j.op == CmpOp::Eq {
                eq_pairs.push((other, next_side.col));
            } else {
                residuals.push((j, j.lhs.input == next));
            }
        }

        let next_input = &inputs[next];
        let get_sym = |composite: &[u32], input: usize, col: usize, joined: &[usize]| -> Sym {
            let slot = joined
                .iter()
                .position(|&j| j == input)
                .expect("joined input");
            inputs[joined[slot]].sym(composite[slot], col)
        };

        let mut new_composites: Vec<Vec<u32>> = Vec::new();
        if eq_pairs.is_empty() {
            // Nested-loop (cross or inequality-only) join.
            for composite in &composites {
                'rows: for &r in &next_input.live {
                    for (pred, next_is_lhs) in &residuals {
                        let next_val = next_input.cell(
                            r,
                            if *next_is_lhs {
                                pred.lhs.col
                            } else {
                                pred.rhs.col
                            },
                        );
                        let other = if *next_is_lhs { pred.rhs } else { pred.lhs };
                        let other_val =
                            intern::resolve(get_sym(composite, other.input, other.col, &joined));
                        let ok = if *next_is_lhs {
                            pred.op.eval(next_val, other_val)
                        } else {
                            pred.op.eval(other_val, next_val)
                        };
                        if !ok {
                            continue 'rows;
                        }
                    }
                    let mut extended = composite.clone();
                    extended.push(r);
                    new_composites.push(extended);
                }
            }
        } else {
            // Hash join: build on `next`, probe with the current composites.
            //
            // Keys are interned symbols: a NULL in any key column is
            // detected with one integer compare and the row is discarded
            // *before* any key is built — no allocation for NULL keys, and
            // none at all for keys of up to two columns.
            let build_key = |r: u32| -> Option<Key> {
                match eq_pairs.as_slice() {
                    [(_, c)] => {
                        let s = next_input.sym(r, *c);
                        (!s.is_null()).then_some(Key::One(s))
                    }
                    [(_, c1), (_, c2)] => {
                        let (s1, s2) = (next_input.sym(r, *c1), next_input.sym(r, *c2));
                        (!s1.is_null() && !s2.is_null()).then_some(Key::Two(s1, s2))
                    }
                    pairs => {
                        let mut key = Vec::with_capacity(pairs.len());
                        for &(_, c) in pairs {
                            let s = next_input.sym(r, c);
                            if s.is_null() {
                                return None;
                            }
                            key.push(s);
                        }
                        Some(Key::Big(key))
                    }
                }
            };
            let mut table: HashMap<Key, Vec<u32>> = HashMap::with_capacity(next_input.live.len());
            for &r in &next_input.live {
                if let Some(key) = build_key(r) {
                    table.entry(key).or_default().push(r);
                }
            }
            let probe_key = |composite: &Vec<u32>| -> Option<Key> {
                match eq_pairs.as_slice() {
                    [(other, _)] => {
                        let s = get_sym(composite, other.input, other.col, &joined);
                        (!s.is_null()).then_some(Key::One(s))
                    }
                    [(o1, _), (o2, _)] => {
                        let s1 = get_sym(composite, o1.input, o1.col, &joined);
                        let s2 = get_sym(composite, o2.input, o2.col, &joined);
                        (!s1.is_null() && !s2.is_null()).then_some(Key::Two(s1, s2))
                    }
                    pairs => {
                        let mut key = Vec::with_capacity(pairs.len());
                        for (other, _) in pairs {
                            let s = get_sym(composite, other.input, other.col, &joined);
                            if s.is_null() {
                                return None;
                            }
                            key.push(s);
                        }
                        Some(Key::Big(key))
                    }
                }
            };
            for composite in &composites {
                let Some(matches) = probe_key(composite).and_then(|key| table.get(&key)) else {
                    continue;
                };
                'matches: for &r in matches {
                    for (pred, next_is_lhs) in &residuals {
                        let next_val = next_input.cell(
                            r,
                            if *next_is_lhs {
                                pred.lhs.col
                            } else {
                                pred.rhs.col
                            },
                        );
                        let other = if *next_is_lhs { pred.rhs } else { pred.lhs };
                        let other_val =
                            intern::resolve(get_sym(composite, other.input, other.col, &joined));
                        let ok = if *next_is_lhs {
                            pred.op.eval(next_val, other_val)
                        } else {
                            pred.op.eval(other_val, next_val)
                        };
                        if !ok {
                            continue 'matches;
                        }
                    }
                    let mut extended = composite.clone();
                    extended.push(r);
                    new_composites.push(extended);
                }
            }
        }
        joined.push(next);
        composites = new_composites;
        // Note: even when `composites` is empty we keep joining the
        // remaining inputs (cheaply) so every alias resolves in projection.
    }

    // -- Projection ------------------------------------------------------------
    // Output columns are built directly as symbol vectors: a column
    // reference gathers symbols through the composites, a literal interns
    // once and repeats its symbol.
    let order = joined;
    let mut resolved_select: Vec<ResolvedItem> = Vec::with_capacity(query.select.len());
    for item in &query.select {
        resolved_select.push(match subst(&item.expr)? {
            Scalar::Col(c) => {
                let r = resolve_in(&inputs, &c.qualifier, &c.column)?;
                let slot = order
                    .iter()
                    .position(|&j| j == r.input)
                    .expect("all inputs joined");
                ResolvedItem::Col { slot, col: r.col }
            }
            Scalar::Const(v) => ResolvedItem::Const(intern::intern_owned(v)),
            Scalar::Param(_) => unreachable!("parameters were substituted"),
        });
    }
    let columns = query.output_columns();
    let mut out_cols: Vec<Vec<Sym>> = resolved_select
        .iter()
        .map(|_| Vec::with_capacity(composites.len()))
        .collect();
    for composite in &composites {
        for (item, out) in resolved_select.iter().zip(&mut out_cols) {
            out.push(match item {
                ResolvedItem::Col { slot, col } => inputs[order[*slot]].sym(composite[*slot], *col),
                ResolvedItem::Const(sym) => *sym,
            });
        }
    }
    let mut rel = Relation::from_columns(columns, out_cols);
    if query.distinct {
        rel.dedup();
    }
    Ok(rel)
}

enum ResolvedItem {
    Col { slot: usize, col: usize },
    Const(Sym),
}

/// Builds the (empty) result when the predicates are unsatisfiable, still
/// resolving the SELECT list so binding errors are not masked.
fn project_empty(
    query: &Query,
    inputs: &[Input<'_>],
    params: &Params,
) -> Result<Relation, SqlError> {
    for item in &query.select {
        match &item.expr {
            Scalar::Col(c) => {
                let known = inputs
                    .iter()
                    .any(|i| i.alias == c.qualifier && i.col(&c.column).is_some());
                if !known {
                    return Err(SqlError::Bind(format!("unresolved column `{c}`")));
                }
            }
            Scalar::Param(name) => {
                if !params.contains_key(name.as_str()) {
                    return Err(SqlError::Param(format!("unbound parameter `${name}`")));
                }
            }
            Scalar::Const(_) => {}
        }
    }
    Ok(Relation::empty(query.output_columns()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig_relstore::{Database, Table, TableSchema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut db1 = Database::new("DB1");
        let mut patient = Table::new(TableSchema::strings(
            "patient",
            &["SSN", "pname", "policy"],
            &["SSN"],
        ));
        for (s, n, p) in [
            ("1", "alice", "p1"),
            ("2", "bob", "p2"),
            ("3", "carol", "p1"),
        ] {
            patient
                .insert(vec![Value::str(s), Value::str(n), Value::str(p)])
                .unwrap();
        }
        db1.add_table(patient).unwrap();
        let mut visit = Table::new(TableSchema::strings(
            "visitInfo",
            &["SSN", "trId", "date"],
            &[],
        ));
        for (s, t, d) in [
            ("1", "t1", "d1"),
            ("1", "t2", "d2"),
            ("2", "t1", "d1"),
            ("3", "t3", "d1"),
        ] {
            visit
                .insert(vec![Value::str(s), Value::str(t), Value::str(d)])
                .unwrap();
        }
        db1.add_table(visit).unwrap();
        c.add_source(db1).unwrap();

        let mut db2 = Database::new("DB2");
        let mut cover = Table::new(TableSchema::strings("cover", &["policy", "trId"], &[]));
        for (p, t) in [("p1", "t1"), ("p1", "t3"), ("p2", "t1"), ("p2", "t2")] {
            cover.insert(vec![Value::str(p), Value::str(t)]).unwrap();
        }
        db2.add_table(cover).unwrap();
        c.add_source(db2).unwrap();
        c
    }

    fn run(sql: &str, params: &Params) -> Relation {
        execute(&Query::parse(sql).unwrap(), &catalog(), params).unwrap()
    }

    #[test]
    fn single_table_filter() {
        let mut params = Params::new();
        params.insert("pol".into(), ParamValue::scalar("p1"));
        let r = run(
            "select p.SSN from DB1:patient p where p.policy = $pol",
            &params,
        );
        assert_eq!(r.columns(), &["SSN".to_string()]);
        let ssns: Vec<String> = (0..r.len()).map(|i| r.cell(i, 0).to_text()).collect();
        assert_eq!(ssns, vec!["1", "3"]);
    }

    #[test]
    fn two_table_join() {
        let r = run(
            "select p.pname, v.trId from DB1:patient p, DB1:visitInfo v \
             where p.SSN = v.SSN and v.date = 'd1'",
            &Params::new(),
        );
        let mut got: Vec<(String, String)> = (0..r.len())
            .map(|i| (r.cell(i, 0).to_text(), r.cell(i, 1).to_text()))
            .collect();
        got.sort();
        assert_eq!(
            got,
            vec![
                ("alice".into(), "t1".into()),
                ("bob".into(), "t1".into()),
                ("carol".into(), "t3".into())
            ]
        );
    }

    #[test]
    fn multi_source_join_like_q2() {
        // Which covered treatments did patient 1's policy allow on d2?
        let mut params = Params::new();
        params.insert("SSN".into(), ParamValue::scalar("1"));
        params.insert("date".into(), ParamValue::scalar("d2"));
        params.insert("policy".into(), ParamValue::scalar("p2"));
        let r = run(
            "select c.trId from DB1:visitInfo i, DB2:cover c \
             where i.SSN = $SSN and i.date = $date and c.trId = i.trId and c.policy = $policy",
            &params,
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.cell(0, 0), &Value::str("t2"));
    }

    #[test]
    fn in_param_relation() {
        let mut params = Params::new();
        params.insert(
            "ids".into(),
            ParamValue::Rel(Relation::single_column(
                "trId",
                [Value::str("t1"), Value::str("t3")],
            )),
        );
        let r = run(
            "select distinct v.trId from DB1:visitInfo v where v.trId in $ids",
            &params,
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn param_relation_in_from() {
        let mut params = Params::new();
        let mut rel = Relation::empty(vec!["policy".into()]);
        rel.push(vec![Value::str("p1")]);
        params.insert("v1".into(), ParamValue::Rel(rel));
        let r = run(
            "select c.trId from DB2:cover c, $v1 T1 where c.policy = T1.policy",
            &params,
        );
        let mut ids: Vec<String> = (0..r.len()).map(|i| r.cell(i, 0).to_text()).collect();
        ids.sort();
        assert_eq!(ids, vec!["t1", "t3"]);
    }

    #[test]
    fn distinct_and_literals() {
        let r = run(
            "select distinct p.policy, 'tag' as t from DB1:patient p",
            &Params::new(),
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.cell(0, 1), &Value::str("tag"));
    }

    #[test]
    fn contradiction_yields_empty() {
        let r = run(
            "select p.SSN from DB1:patient p where 'a' = 'b'",
            &Params::new(),
        );
        assert!(r.is_empty());
        assert_eq!(r.columns(), &["SSN".to_string()]);
    }

    #[test]
    fn inequality_join() {
        let r = run(
            "select a.SSN, b.SSN from DB1:patient a, DB1:patient b where a.SSN < b.SSN",
            &Params::new(),
        );
        assert_eq!(r.len(), 3); // (1,2) (1,3) (2,3)
    }

    #[test]
    fn missing_param_is_an_error() {
        let q = Query::parse("select p.SSN from DB1:patient p where p.SSN = $x").unwrap();
        let err = execute(&q, &catalog(), &Params::new()).unwrap_err();
        assert!(matches!(err, SqlError::Param(_)));
    }

    #[test]
    fn scalar_rel_mismatch_is_an_error() {
        let mut params = Params::new();
        params.insert("x".into(), ParamValue::scalar("1"));
        let q = Query::parse("select p.SSN from DB1:patient p where p.SSN in $x").unwrap();
        assert!(matches!(
            execute(&q, &catalog(), &params),
            Err(SqlError::Param(_))
        ));
    }

    #[test]
    fn unknown_alias_or_column_is_bind_error() {
        let q = Query::parse("select z.SSN from DB1:patient p").unwrap();
        assert!(matches!(
            execute(&q, &catalog(), &Params::new()),
            Err(SqlError::Bind(_))
        ));
        let q = Query::parse("select p.nope from DB1:patient p").unwrap();
        assert!(matches!(
            execute(&q, &catalog(), &Params::new()),
            Err(SqlError::Bind(_))
        ));
    }

    #[test]
    fn nulls_do_not_join() {
        let mut c = Catalog::new();
        let mut db = Database::new("D");
        let mut t = Table::new(TableSchema::strings("t", &["a"], &[]));
        t.insert(vec![Value::Null]).unwrap();
        t.insert(vec![Value::str("x")]).unwrap();
        db.add_table(t).unwrap();
        c.add_source(db).unwrap();
        let q = Query::parse("select l.a from D:t l, D:t r where l.a = r.a").unwrap();
        let rel = execute(&q, &c, &Params::new()).unwrap();
        assert_eq!(rel.len(), 1); // only 'x' = 'x'
    }

    /// NULL-heavy regression for the no-allocation key fast path: NULL join
    /// keys never match (single- and multi-column) on inputs where most
    /// keys are NULL.
    #[test]
    fn null_heavy_joins_never_match_null_keys() {
        let mut c = Catalog::new();
        let mut db = Database::new("D");
        let mut left = Table::new(TableSchema::strings("l", &["k1", "k2", "payload"], &[]));
        let mut right = Table::new(TableSchema::strings("r", &["k1", "k2", "tag"], &[]));
        for i in 0..4096 {
            // ~2/3 of the rows carry a NULL in one of the key columns.
            let k1 = if i % 3 == 0 {
                Value::Null
            } else {
                Value::str(format!("k{}", i % 53))
            };
            let k2 = if i % 3 == 1 {
                Value::Null
            } else {
                Value::str(format!("g{}", i % 7))
            };
            left.insert(vec![
                k1.clone(),
                k2.clone(),
                Value::str(format!("p{}", i % 13)),
            ])
            .unwrap();
            right
                .insert(vec![k1, k2, Value::str(format!("t{}", i % 5))])
                .unwrap();
        }
        db.add_table(left).unwrap();
        db.add_table(right).unwrap();
        c.add_source(db).unwrap();

        for sql in [
            "select l.payload, r.tag from D:l l, D:r r where l.k1 = r.k1",
            "select l.payload, r.tag from D:l l, D:r r where l.k1 = r.k1 and l.k2 = r.k2",
        ] {
            let q = Query::parse(sql).unwrap();
            let rel = execute(&q, &c, &Params::new()).unwrap();
            assert!(!rel.is_empty(), "fixture produced no rows for {sql}");
        }

        // Direct claim: a table whose keys are all NULL joins to nothing,
        // even against itself.
        let q = Query::parse("select l.payload from D:l l, D:r r where l.k1 = r.k1").unwrap();
        let all = execute(&q, &c, &Params::new()).unwrap();
        let mut nulls_only = Catalog::new();
        let mut dbn = Database::new("N");
        let mut t = Table::new(TableSchema::strings("t", &["a"], &[]));
        for _ in 0..8 {
            t.insert(vec![Value::Null]).unwrap();
        }
        dbn.add_table(t).unwrap();
        nulls_only.add_source(dbn).unwrap();
        let qn = Query::parse("select l.a from N:t l, N:t r where l.a = r.a").unwrap();
        assert!(execute(&qn, &nulls_only, &Params::new())
            .unwrap()
            .is_empty());
        assert!(!all.is_empty());
    }
}
