//! Seeded fixtures: the hospital tables and the pre-trained models.
//!
//! Data generation and training use fixed seeds, so every run of every
//! workload scores the same tables with the same models; only the
//! request stream depends on the command-line seed. Their cost is not
//! part of `setup_s`.

use raven_core::{RavenSession, SessionConfig};
use raven_data::Table;
use raven_datagen::hospital::{self, HospitalData};
use raven_datagen::train;
use raven_ml::Pipeline;
use raven_opt::RuleSet;

/// Rows per table in the scan and lookup workloads (the paper's
/// three-way join at 20k rows per table).
pub const HOSPITAL_ROWS: usize = 20_000;
/// Rows per table in each `model_churn` tenant.
pub const TENANT_ROWS: usize = 2_000;
/// Fixture seed: fixed, so data and models never vary between runs.
pub const FIXTURE_SEED: u64 = 42;

/// Depth-6 regression tree (`duration_of_stay`).
pub const TREE: &str = "duration_of_stay";
/// 48-tree depth-8 forest.
pub const FOREST: &str = "stay_forest";
/// MLP classifier used by `point_score`.
pub const MLP: &str = "long_stay_mlp";

/// The three-way join of the running example, as a CTE named `data`.
pub const JOIN_CTE: &str = "WITH data AS (SELECT * FROM patient_info AS pi \
     JOIN blood_tests AS bt ON pi.id = bt.id \
     JOIN prenatal_tests AS pt ON bt.id = pt.id) ";

pub const TABLES: [&str; 3] = ["patient_info", "blood_tests", "prenatal_tests"];

/// The paper's hospital query with per-request constants.
pub fn scan_sql(model: &str, min_age: f64, min_stay: f64) -> String {
    format!(
        "{JOIN_CTE}SELECT d.id, p.length_of_stay \
         FROM PREDICT(MODEL = '{model}', DATA = data AS d) \
         WITH (length_of_stay FLOAT) AS p \
         WHERE d.pregnant = 1 AND d.age > {min_age:.2} AND p.length_of_stay > {min_stay:.2}"
    )
}

/// A single-patient PREDICT over the same join.
pub fn lookup_sql(model: &str, id: i64) -> String {
    format!(
        "{JOIN_CTE}SELECT d.id, p.length_of_stay \
         FROM PREDICT(MODEL = '{model}', DATA = data AS d) \
         WITH (length_of_stay FLOAT) AS p \
         WHERE d.id = {id}"
    )
}

pub fn hospital_data() -> HospitalData {
    hospital::generate(HOSPITAL_ROWS, FIXTURE_SEED)
}

pub fn tenant_data(tenant: usize) -> HospitalData {
    hospital::generate(TENANT_ROWS, FIXTURE_SEED + 100 + tenant as u64)
}

/// Depth-`depth` tree on the main tables (depth 6 is the served
/// version; depth 5 is the version model swaps alternate with).
pub fn tree(data: &HospitalData, depth: usize) -> Pipeline {
    train::hospital_tree(data, depth).expect("train tree fixture")
}

/// A 48-tree, depth-8 forest. It is trained on a 5k-row sample so the
/// fixture stays cheap; serving scores the full tables.
pub fn forest(sample_seed: u64) -> Pipeline {
    let sample = hospital::generate(5_000, sample_seed);
    train::hospital_forest(&sample, 48, 8).expect("train forest fixture")
}

pub fn mlp() -> Pipeline {
    let sample = hospital::generate(5_000, FIXTURE_SEED + 2);
    train::hospital_mlp(&sample, vec![32, 16], 5).expect("train mlp fixture")
}

/// An in-process classical session: every cross-optimization off, so
/// it is an independent path to the answers the server should give.
pub fn oracle_session(data: &HospitalData, models: &[(&str, &Pipeline)]) -> RavenSession {
    let config = SessionConfig {
        rules: RuleSet::none(),
        ..SessionConfig::for_tests()
    };
    let session = RavenSession::with_config(config);
    data.register(session.catalog())
        .expect("register oracle tables");
    for (name, model) in models {
        session
            .store_model(name, (*model).clone())
            .expect("store oracle model");
    }
    session
}

/// Raw input rows of the first `n` patients, row-major.
pub fn raw_rows(data: &HospitalData, model: &Pipeline, n: usize) -> Vec<Vec<f64>> {
    let batch = data.joined_batch();
    let raw = model.encode_inputs(&batch).expect("encode inputs");
    let width = model.input_columns().len();
    raw.chunks(width).take(n).map(<[f64]>::to_vec).collect()
}

/// A table's rows as comparable keys: every value by its bit pattern,
/// rows sorted, so two tables compare equal exactly when they hold the
/// same multiset of rows.
pub fn canonical_rows(table: &Table) -> Vec<Vec<u64>> {
    let batch = table.batch();
    let mut rows: Vec<Vec<u64>> = (0..table.num_rows())
        .map(|r| {
            batch
                .columns()
                .iter()
                .map(|c| match c.get(r).expect("row in range") {
                    raven_data::Value::Int64(v) => v as u64,
                    raven_data::Value::Float64(v) => v.to_bits(),
                    raven_data::Value::Bool(v) => v as u64,
                    raven_data::Value::Utf8(s) => s.len() as u64,
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}
