//! Cross-crate integration tests: the full σ0 pipeline on generated
//! datasets, comparing every evaluation strategy against every guarantee
//! the paper makes — DTD conformance, constraint satisfaction, and
//! agreement between the conceptual evaluator (§3.2) and the optimized
//! set-oriented mediator (§5).

use aig_integration::core::paper::sigma0;
use aig_integration::core::{compile_constraints, decompose_queries};
use aig_integration::datagen::HospitalConfig;
use aig_integration::prelude::*;

fn mediator_options() -> MediatorOptions {
    MediatorOptions::builder().max_depth(128).build().unwrap()
}

#[test]
fn all_strategies_agree_on_generated_data() {
    let aig = sigma0().unwrap();
    let compiled = compile_constraints(&aig).unwrap();
    let (specialized, _) = decompose_queries(&compiled).unwrap();
    for seed in [1u64, 2, 3] {
        let data = HospitalConfig::tiny(seed).generate().unwrap();
        for date in data.dates.iter().take(2) {
            let args = [("date", Value::str(date))];
            let plain = evaluate(&aig, &data.catalog, &args).unwrap();
            validate(&plain.tree, &aig.dtd).unwrap();
            assert!(aig.constraints.satisfied(&plain.tree), "seed {seed} {date}");

            // Specialization (constraints compiled + queries decomposed)
            // does not change the document.
            let spec_eval = evaluate(&specialized, &data.catalog, &args).unwrap();
            assert_eq!(plain.tree, spec_eval.tree, "seed {seed} {date}");

            // The mediator produces the same document up to star-child
            // ordering.
            let run = run_mediator(&aig, &data.catalog, &args, &mediator_options()).unwrap();
            validate(&run.tree, &aig.dtd).unwrap();
            assert_eq!(
                canonical(&aig, &run.tree),
                canonical(&aig, &plain.tree),
                "seed {seed} {date}"
            );
        }
    }
}

#[test]
fn per_date_reports_partition_the_visits() {
    // Every patient in the date-d report has at least one visit on d, and
    // dates with no visits give empty reports.
    let aig = sigma0().unwrap();
    let data = HospitalConfig::tiny(7).generate().unwrap();
    let mut patients_seen = 0usize;
    for date in &data.dates {
        let result = evaluate(&aig, &data.catalog, &[("date", Value::str(date))]).unwrap();
        patients_seen += result.tree.element_children(result.tree.root()).count();
    }
    assert!(patients_seen > 0);
    let empty = evaluate(&aig, &data.catalog, &[("date", Value::str("1999-01-01"))]).unwrap();
    assert_eq!(empty.tree.element_children(empty.tree.root()).count(), 0);
}

#[test]
fn deep_recursion_is_followed_to_the_data_depth() {
    // With a chain-shaped procedure hierarchy, the report must contain the
    // full chain under the visited treatment.
    let aig = sigma0().unwrap();
    let mut config = HospitalConfig::tiny(9);
    config.treatments = 12;
    config.procedures = 11; // will be overridden below to an exact chain
    let mut data = config.generate().unwrap();

    // Rebuild the procedure table as a single chain t0 -> t1 -> … -> t11.
    let db4 = data.catalog.source_id("DB4").unwrap();
    let db = data.catalog.source_mut(db4);
    *db = Database::new("DB4");
    let mut treatment = Table::new(TableSchema::strings(
        "treatment",
        &["trId", "tname"],
        &["trId"],
    ));
    let mut procedure = Table::new(TableSchema::strings(
        "procedure",
        &["trId1", "trId2"],
        &["trId1", "trId2"],
    ));
    for i in 0..12 {
        treatment
            .insert(vec![
                Value::str(format!("t{i:04}")),
                Value::str(format!("tname{i:04}")),
            ])
            .unwrap();
        if i > 0 {
            procedure
                .insert(vec![
                    Value::str(format!("t{:04}", i - 1)),
                    Value::str(format!("t{i:04}")),
                ])
                .unwrap();
        }
    }
    db.add_table(treatment).unwrap();
    db.add_table(procedure).unwrap();

    // Find a date where some patient's covered visit hits t0000 (the chain
    // root); if none exists, visits were unlucky — pick the first date with
    // any report content instead.
    for date in &data.dates {
        let args = [("date", Value::str(date))];
        let plain = evaluate(&aig, &data.catalog, &args).unwrap();
        if plain.tree.len() <= 1 {
            continue;
        }
        let run = run_mediator(&aig, &data.catalog, &args, &mediator_options()).unwrap();
        assert_eq!(canonical(&aig, &run.tree), canonical(&aig, &plain.tree));
        // The mediator had to unfold at least as deep as the deepest chain
        // it actually emitted.
        let height = plain.tree.height(plain.tree.root());
        assert!(
            run.depth * 2 + 7 >= height,
            "depth {} vs height {height}",
            run.depth
        );
    }
}

#[test]
fn mediator_rejects_exhausted_recursion_budget() {
    let aig = sigma0().unwrap();
    let data = HospitalConfig::tiny(5).generate().unwrap();
    let options = MediatorOptions::builder()
        .unfold_depth(1)
        .max_depth(1)
        .build()
        .unwrap();
    // Depth 1 cannot hold the hierarchy: the frontier stays busy and the
    // budget errors out.
    let result = run_mediator(
        &aig,
        &data.catalog,
        &[("date", Value::str(&data.dates[0]))],
        &options,
    );
    assert!(matches!(result, Err(MediatorError::RecursionBudget { .. })));
}

#[test]
fn truncated_and_frontier_runs_agree_when_deep_enough() {
    let aig = sigma0().unwrap();
    let data = HospitalConfig::tiny(13).generate().unwrap();
    let args = [("date", Value::str(&data.dates[1]))];
    let frontier = run_mediator(&aig, &data.catalog, &args, &mediator_options()).unwrap();
    let truncate = run_mediator(
        &aig,
        &data.catalog,
        &args,
        &MediatorOptions::builder()
            .unfold_depth(frontier.depth)
            .max_depth(frontier.depth)
            .cutoff(CutOff::Truncate)
            .build()
            .unwrap(),
    )
    .unwrap();
    assert_eq!(
        canonical(&aig, &frontier.tree),
        canonical(&aig, &truncate.tree)
    );
}
