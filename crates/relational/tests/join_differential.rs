//! Differential test of the hash join against a nested-loop oracle.
//!
//! Random key columns of every type, with duplicates on both sides, empty
//! inputs, either side the larger one, and Float64 keys that include NaN,
//! 0.0 and -0.0. The join must return exactly the oracle's rows in the
//! oracle's order: left row ascending, then right row ascending.

use proptest::test_runner::TestRng;
use raven_data::{Catalog, Column, DataType, Schema, Table};
use raven_ir::{JoinKind, Plan};
use raven_relational::{ExecOptions, Executor, NoopScorer};

/// A key as the join compares it: floats by bit pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Key {
    Int(i64),
    Bits(u64),
    Bool(bool),
    Str(String),
}

fn keys(col: &Column) -> Vec<Key> {
    match col {
        Column::Int64(v) => v.iter().map(|&x| Key::Int(x)).collect(),
        Column::Float64(v) => v.iter().map(|x| Key::Bits(x.to_bits())).collect(),
        Column::Bool(v) => v.iter().map(|&x| Key::Bool(x)).collect(),
        Column::Utf8(v) => v.iter().map(|x| Key::Str(x.clone())).collect(),
    }
}

/// Int64 keys too far apart for a direct-address table.
const WIDE_INT_POOL: [i64; 6] = [i64::MIN, -1, 0, 1 << 40, i64::MAX - 1, i64::MAX];
const FLOAT_POOL: [f64; 6] = [f64::NAN, 0.0, -0.0, 1.5, -2.25, 1e300];
const STR_POOL: [&str; 5] = ["", "a", "b", "JFK", "a\u{e9}"];

/// A random key column of `dtype` drawn from a small pool, so keys repeat.
fn key_column(rng: &mut TestRng, dtype: DataType, len: usize, pool: usize) -> Column {
    match dtype {
        DataType::Int64 if rng.below(2) == 0 => Column::Int64(
            (0..len)
                .map(|_| WIDE_INT_POOL[rng.below(pool.min(WIDE_INT_POOL.len()))])
                .collect(),
        ),
        DataType::Int64 => Column::Int64((0..len).map(|_| rng.below(pool) as i64 - 2).collect()),
        DataType::Float64 => Column::Float64(
            (0..len)
                .map(|_| FLOAT_POOL[rng.below(pool.min(FLOAT_POOL.len()))])
                .collect(),
        ),
        DataType::Bool => Column::Bool((0..len).map(|_| rng.below(2) == 1).collect()),
        DataType::Utf8 => Column::Utf8(
            (0..len)
                .map(|_| STR_POOL[rng.below(pool.min(STR_POOL.len()))].to_string())
                .collect(),
        ),
    }
}

fn side(key_name: &str, id_name: &str, key: Column) -> Table {
    let n = key.len() as i64;
    let schema = Schema::from_pairs(&[(key_name, key.data_type()), (id_name, DataType::Int64)])
        .into_shared();
    Table::try_new(schema, vec![key, Column::Int64((0..n).collect())]).unwrap()
}

/// Join `left_key` with `right_key` through the executor and check it
/// against the nested loop. Returns the number of output rows.
fn check(left_key: Column, right_key: Column) -> usize {
    let cat = Catalog::new();
    cat.register("l", side("k", "lid", left_key.clone()))
        .unwrap();
    cat.register("r", side("k2", "rid", right_key.clone()))
        .unwrap();
    let scan = |name: &str| Plan::Scan {
        table: name.into(),
        schema: cat.table(name).unwrap().schema().clone(),
    };
    let plan = Plan::Join {
        left: Box::new(scan("l")),
        right: Box::new(scan("r")),
        left_key: "k".into(),
        right_key: "k2".into(),
        kind: JoinKind::Inner,
    };
    let out = Executor::new(&cat, &NoopScorer, ExecOptions::serial())
        .execute(&plan)
        .unwrap();

    let (lk, rk) = (keys(&left_key), keys(&right_key));
    let mut expect = Vec::new();
    for (i, a) in lk.iter().enumerate() {
        for (j, b) in rk.iter().enumerate() {
            if a == b {
                expect.push((i, j));
            }
        }
    }
    assert_eq!(out.schema().names(), ["k", "lid", "k2", "rid"]);
    let lid = out.column_by_name("lid").unwrap().i64_values().unwrap();
    let rid = out.column_by_name("rid").unwrap().i64_values().unwrap();
    let got: Vec<(usize, usize)> = lid
        .iter()
        .zip(rid)
        .map(|(&i, &j)| (i as usize, j as usize))
        .collect();
    assert_eq!(got, expect, "left {left_key:?} right {right_key:?}");
    // The key columns are the matched rows' keys, bit for bit.
    let out_lk = keys(out.column_by_name("k").unwrap());
    let out_rk = keys(out.column_by_name("k2").unwrap());
    for (row, &(i, j)) in expect.iter().enumerate() {
        assert_eq!(out_lk[row], lk[i]);
        assert_eq!(out_rk[row], rk[j]);
    }
    expect.len()
}

const TYPES: [DataType; 4] = [
    DataType::Int64,
    DataType::Float64,
    DataType::Bool,
    DataType::Utf8,
];

#[test]
fn join_matches_nested_loop_for_every_key_type() {
    let mut rng = TestRng::deterministic("join_matches_nested_loop_for_every_key_type");
    let (mut left_larger, mut right_larger, mut matched) = (0, 0, 0);
    for case in 0..400 {
        let dtype = TYPES[case % TYPES.len()];
        let (nl, nr) = (rng.below(40), rng.below(40));
        let pool = 1 + rng.below(6);
        let l = key_column(&mut rng, dtype, nl, pool);
        let r = key_column(&mut rng, dtype, nr, pool);
        matched += check(l, r);
        left_larger += usize::from(nl > nr);
        right_larger += usize::from(nr > nl);
    }
    assert!(left_larger > 50 && right_larger > 50 && matched > 0);
}

#[test]
fn join_handles_empty_inputs() {
    let mut rng = TestRng::deterministic("join_handles_empty_inputs");
    for dtype in TYPES {
        let some = key_column(&mut rng, dtype, 7, 3);
        assert_eq!(check(Column::empty(dtype), some.clone()), 0);
        assert_eq!(check(some, Column::empty(dtype)), 0);
        assert_eq!(check(Column::empty(dtype), Column::empty(dtype)), 0);
    }
}

#[test]
fn float_keys_match_by_bit_pattern() {
    // NaN joins NaN, 0.0 and -0.0 stay apart, on either build side.
    let l = Column::Float64(vec![f64::NAN, 0.0, -0.0]);
    let r = Column::Float64(vec![-0.0, f64::NAN, 0.0, f64::NAN, 7.0]);
    assert_eq!(check(l.clone(), r.clone()), 4);
    assert_eq!(check(r, l), 4);
}

#[test]
fn int_keys_at_the_extremes() {
    // Narrow build keys at either end of i64 (a direct-address table)
    // probed with keys whose offset from them overflows, and a build
    // side spanning all of i64 (hashed).
    let top = Column::Int64(vec![i64::MAX, i64::MAX - 1, i64::MAX]);
    let bottom = Column::Int64(vec![i64::MIN + 1, i64::MIN]);
    let probe = Column::Int64(vec![i64::MIN, -1, 0, i64::MAX, i64::MIN + 1, i64::MAX - 1]);
    assert_eq!(check(top.clone(), probe.clone()), 3);
    assert_eq!(check(probe.clone(), bottom.clone()), 2);
    let spread = Column::Int64(vec![i64::MIN, i64::MAX]);
    assert_eq!(check(spread, probe), 2);
    assert_eq!(check(top, bottom), 0);
}

#[test]
fn mismatched_key_types_give_no_rows() {
    let mut rng = TestRng::deterministic("mismatched_key_types_give_no_rows");
    for lt in TYPES {
        for rt in TYPES {
            if lt == rt {
                continue;
            }
            let l = key_column(&mut rng, lt, 9, 2);
            let r = key_column(&mut rng, rt, 5, 2);
            assert_eq!(check(l, r), 0);
        }
    }
}

#[test]
fn duplicate_keys_on_both_sides_cross_in_order() {
    // Every row has the same key: the output is the full cross product,
    // left-major, whichever side is smaller.
    let big = Column::Int64(vec![4; 6]);
    let small = Column::Int64(vec![4; 3]);
    assert_eq!(check(big.clone(), small.clone()), 18);
    assert_eq!(check(small, big), 18);
}
