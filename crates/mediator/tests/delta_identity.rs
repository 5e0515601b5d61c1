//! Byte-identity conformance for incremental re-evaluation: across the
//! matrix {Sequential, Static, Dynamic scheduling} × {faults off /
//! transient+latency}, a request served incrementally
//! after a source delta must produce a document **byte-identical** to a
//! cold full run of a fresh mediator over the post-delta catalog — the
//! re-run subgraph, the splice, and the subtree retag change *how much
//! work* a request does, never what it answers. The full
//! `ConstraintSet::check` over the incremental document is the
//! independent oracle on top of the scoped check the path runs itself.
//!
//! Mid-run outage faults (`dies_after`) are deliberately absent from the
//! fault cells: they trigger on global per-source completion counts, so
//! the service routes them to the full path (covered by
//! `mid_run_outage_plans_bypass_snapshots` below).

use aig_core::paper::sigma0;
use aig_core::spec::Aig;
use aig_datagen::{cover_delta, visit_delta, HospitalConfig};
use aig_mediator::exec::Scheduling;
use aig_mediator::faults::{FaultConfig, RetryPolicy};
use aig_mediator::{Mediator, MediatorOptions};
use aig_relstore::{Catalog, Database, SourceDelta, Value};

struct Fixture {
    aig: Aig,
    catalog: Catalog,
    date: String,
}

fn fixture(seed: u64) -> Fixture {
    let data = HospitalConfig::tiny(seed).generate().unwrap();
    Fixture {
        aig: sigma0().unwrap(),
        date: data.dates[0].clone(),
        catalog: data.catalog,
    }
}

fn options(scheduling: Scheduling, faults: bool) -> MediatorOptions {
    let mut builder = MediatorOptions::builder()
        .unfold_depth(3)
        .incremental(true)
        .scheduling(scheduling);
    if faults {
        builder = builder
            .faults(Some(FaultConfig {
                seed: 7,
                transient_rate: 0.15,
                latency_rate: 0.1,
                latency_secs: 0.0002,
                ..FaultConfig::default()
            }))
            .retry(RetryPolicy {
                max_attempts: 6,
                backoff_base_secs: 0.0001,
                backoff_cap_secs: 0.001,
                jitter: 0.5,
                timeout_secs: f64::INFINITY,
            });
    }
    builder.build().unwrap()
}

/// The delta sequence of one cell: single-table deltas alternating between
/// the two mutable tables, built against the mediator's *current* catalog
/// so inserts stay fresh and deletes hit present rows.
fn next_delta(catalog: &Catalog, date: &str, step: usize) -> SourceDelta {
    match step % 2 {
        0 => visit_delta(catalog, date, 3, 2, 100 + step as u64).unwrap(),
        _ => cover_delta(catalog, 2, 1, 200 + step as u64).unwrap(),
    }
}

fn assert_cell(scheduling: Scheduling, faults: bool) {
    let fx = fixture(11);
    let opts = options(scheduling, faults);
    let mut mediator = Mediator::new(fx.catalog.clone(), &opts).unwrap();
    let args = [("date", Value::str(&fx.date))];
    let cell = format!("scheduling={scheduling:?} faults={faults}");

    // Cold run: the ledger is on, but there is no snapshot to splice.
    let (_, cold) = mediator.request(&fx.aig, &args).unwrap();
    assert!(cold.incremental.enabled, "{cell}");
    assert!(!cold.incremental.snapshot_hit, "{cell}");
    assert_eq!(
        cold.incremental.tasks_rerun, cold.incremental.tasks_total,
        "{cell}"
    );

    for step in 0..2 {
        let delta = next_delta(mediator.catalog(), &fx.date, step);
        let applied = mediator.apply_delta(&delta).unwrap();
        assert!(applied.inserted + applied.deleted > 0, "{cell} step {step}");

        let (incr, report) = mediator.request(&fx.aig, &args).unwrap();
        assert!(
            report.incremental.snapshot_hit,
            "{cell} step {step}: no snapshot hit"
        );
        assert!(
            report.incremental.tasks_rerun > 0,
            "{cell} step {step}: delta touched nothing"
        );
        assert!(
            report.incremental.tasks_rerun < report.incremental.tasks_total,
            "{cell} step {step}: single-table delta re-ran the whole graph \
             ({}/{})",
            report.incremental.tasks_rerun,
            report.incremental.tasks_total
        );

        // Oracle 1: byte-identity against a cold full run of a *fresh*
        // mediator over the post-delta catalog.
        let oracle = Mediator::new(mediator.catalog().clone(), &opts).unwrap();
        let (full, full_report) = oracle.request(&fx.aig, &args).unwrap();
        assert!(!full_report.incremental.snapshot_hit);
        assert_eq!(
            aig_xml::serialize::to_string(&incr.tree),
            aig_xml::serialize::to_string(&full.tree),
            "{cell} step {step}: incremental document drifted from cold run"
        );

        // Oracle 2: the scoped constraint check inside the path must not
        // have let anything through that the *full* check would catch.
        let violations = fx.aig.constraints.check(&incr.tree);
        assert!(
            violations.is_empty(),
            "{cell} step {step}: full constraint check found {violations:?}"
        );
    }
}

#[test]
fn sequential_cells_are_byte_identical() {
    for faults in [false, true] {
        assert_cell(Scheduling::Sequential, faults);
    }
}

#[test]
fn static_cells_are_byte_identical() {
    for faults in [false, true] {
        assert_cell(Scheduling::Static, faults);
    }
}

#[test]
fn dynamic_cells_are_byte_identical() {
    for faults in [false, true] {
        assert_cell(Scheduling::Dynamic, faults);
    }
}

/// A hard outage of the delta's source with a declared replica: the re-run
/// tasks at the dead source halt the driver's first round and fail over
/// through a second one, and the document stays byte-identical to a cold
/// run over the same outage.
#[test]
fn hard_outage_with_replica_is_byte_identical_in_every_mode() {
    let mut fx = fixture(31);
    let db1 = fx.catalog.source_id("DB1").unwrap();
    let mut replica = Database::new("DB1R");
    for table in fx.catalog.source(db1).tables() {
        replica.add_table(table.clone()).unwrap();
    }
    let replica = fx.catalog.add_source(replica).unwrap();
    fx.catalog.declare_replica(db1, replica).unwrap();
    let args = [("date", Value::str(&fx.date))];
    for scheduling in [
        Scheduling::Sequential,
        Scheduling::Static,
        Scheduling::Dynamic,
    ] {
        let opts = MediatorOptions::builder()
            .unfold_depth(3)
            .incremental(true)
            .scheduling(scheduling)
            .faults(Some(FaultConfig {
                outages: vec!["DB1".to_string()],
                ..FaultConfig::default()
            }))
            .build()
            .unwrap();
        let mut mediator = Mediator::new(fx.catalog.clone(), &opts).unwrap();
        mediator.request(&fx.aig, &args).unwrap();
        let delta = visit_delta(mediator.catalog(), &fx.date, 2, 1, 43).unwrap();
        mediator.apply_delta(&delta).unwrap();
        let (incr, report) = mediator.request(&fx.aig, &args).unwrap();
        assert!(report.incremental.snapshot_hit, "{scheduling:?}");
        assert!(
            report.resilience.failed_over > 0,
            "{scheduling:?}: no re-run task failed over"
        );
        assert_eq!(report.resilience.replans, 1, "{scheduling:?}");

        let oracle = Mediator::new(mediator.catalog().clone(), &opts).unwrap();
        let (full, _) = oracle.request(&fx.aig, &args).unwrap();
        assert_eq!(
            aig_xml::serialize::to_string(&incr.tree),
            aig_xml::serialize::to_string(&full.tree),
            "{scheduling:?}: incremental document drifted under the outage"
        );
    }
}

#[test]
fn unchanged_catalog_reruns_nothing() {
    let fx = fixture(13);
    let opts = options(Scheduling::Sequential, false);
    let mediator = Mediator::new(fx.catalog.clone(), &opts).unwrap();
    let args = [("date", Value::str(&fx.date))];

    let (cold, _) = mediator.request(&fx.aig, &args).unwrap();
    let (warm, report) = mediator.request(&fx.aig, &args).unwrap();
    assert!(report.incremental.snapshot_hit);
    assert_eq!(report.incremental.tasks_rerun, 0);
    assert_eq!(
        report.incremental.tasks_reused,
        report.incremental.tasks_total
    );
    assert_eq!(report.incremental.rows_spliced, 0);
    assert!(report.incremental.dirty_tables.is_empty());
    // Nothing tainted: no constraint needs re-checking, and the document
    // is overwhelmingly copied verbatim (only the correspondence spine —
    // the root and its immediate children — is rebuilt).
    assert_eq!(report.incremental.constraints_scoped, 0);
    assert_eq!(
        report.incremental.nodes_reused + report.incremental.nodes_rebuilt,
        warm.tree.len()
    );
    assert!(report.incremental.nodes_reused > report.incremental.nodes_rebuilt);
    assert_eq!(
        aig_xml::serialize::to_string(&cold.tree),
        aig_xml::serialize::to_string(&warm.tree)
    );
}

#[test]
fn empty_delta_marks_nothing_dirty() {
    let fx = fixture(17);
    let opts = options(Scheduling::Sequential, false);
    let mut mediator = Mediator::new(fx.catalog.clone(), &opts).unwrap();
    let args = [("date", Value::str(&fx.date))];
    mediator.request(&fx.aig, &args).unwrap();

    let applied = mediator.apply_delta(&SourceDelta::new()).unwrap();
    assert_eq!(applied.inserted + applied.deleted, 0);
    let (_, report) = mediator.request(&fx.aig, &args).unwrap();
    assert!(report.incremental.snapshot_hit);
    assert_eq!(report.incremental.tasks_rerun, 0);
    assert!(report.incremental.dirty_tables.is_empty());
}

#[test]
fn delta_report_names_the_dirty_tables() {
    let fx = fixture(19);
    let opts = options(Scheduling::Sequential, false);
    let mut mediator = Mediator::new(fx.catalog.clone(), &opts).unwrap();
    let args = [("date", Value::str(&fx.date))];
    mediator.request(&fx.aig, &args).unwrap();

    // A cover delta taints only the coverage choice deep in the tree —
    // unlike visitInfo, which feeds the patient star at the root — so the
    // retag must reuse subtrees and the constraint scope must narrow.
    let delta = cover_delta(mediator.catalog(), 2, 1, 5).unwrap();
    mediator.apply_delta(&delta).unwrap();
    let (_, report) = mediator.request(&fx.aig, &args).unwrap();
    assert_eq!(report.incremental.dirty_tables, vec!["DB2.cover"]);
    assert!(report.incremental.rows_spliced > 0);
    assert!(report.incremental.nodes_reused > 0);
    // Both of σ0's constraints mention tags inside the coverage subtree,
    // so the scope keeps them: the interesting narrowing case here is the
    // no-delta request (scoped = 0, see `unchanged_catalog_reruns_nothing`).
    assert!(report.incremental.constraints_scoped > 0);
    assert_eq!(
        report.incremental.constraints_total,
        fx.aig.constraints.len()
    );

    // The dirty set is consumed: the next request reruns nothing.
    let (_, report) = mediator.request(&fx.aig, &args).unwrap();
    assert!(report.incremental.snapshot_hit);
    assert_eq!(report.incremental.tasks_rerun, 0);
}

/// Satellite regression: row deltas keep both caches warm — prepared plans
/// are data-independent and snapshots are exactly what deltas splice into —
/// while schema changes purge them both.
#[test]
fn row_deltas_keep_plans_warm_while_schema_deltas_invalidate() {
    let fx = fixture(23);
    let opts = options(Scheduling::Sequential, false);
    let mut mediator = Mediator::new(fx.catalog.clone(), &opts).unwrap();
    let args = [("date", Value::str(&fx.date))];
    mediator.request(&fx.aig, &args).unwrap();
    let baseline = mediator.cache_stats();
    assert!(mediator.snapshot_count() > 0);

    // Row delta: plans stay resident, no invalidation, the next request
    // hits both the plan cache and the snapshot.
    let delta = visit_delta(mediator.catalog(), &fx.date, 1, 1, 31).unwrap();
    mediator.apply_delta(&delta).unwrap();
    let stats = mediator.cache_stats();
    assert_eq!(stats.entries, baseline.entries);
    assert_eq!(stats.invalidations, baseline.invalidations);
    let (_, report) = mediator.request(&fx.aig, &args).unwrap();
    assert!(report.cache.hit, "row delta evicted a prepared plan");
    assert!(
        report.incremental.snapshot_hit,
        "row delta dropped a snapshot"
    );

    // Schema delta: declaring a replica purges plans *and* snapshots.
    mediator
        .with_catalog_mut(|catalog| {
            let db1 = catalog.source_id("DB1").unwrap();
            let db2 = catalog.source_id("DB2").unwrap();
            catalog.declare_replica(db1, db2).unwrap();
        })
        .unwrap();
    let stats = mediator.cache_stats();
    assert_eq!(stats.invalidations, baseline.invalidations + 1);
    assert_eq!(stats.entries, 0);
    assert_eq!(mediator.snapshot_count(), 0);
    let (_, report) = mediator.request(&fx.aig, &args).unwrap();
    assert!(!report.cache.hit, "stale plan served across schema change");
    assert!(!report.incremental.snapshot_hit);
}

/// Fault plans with mid-run outages (`dies_after`) depend on global
/// per-source completion counts, so the service must not serve them from
/// snapshots: every request replays the full graph.
#[test]
fn mid_run_outage_plans_bypass_snapshots() {
    let fx = fixture(29);
    let mut cfg = FaultConfig::default();
    cfg.dies_after.push(("DB2".to_string(), 1));
    let opts = MediatorOptions::builder()
        .unfold_depth(3)
        .incremental(true)
        .faults(Some(cfg))
        .build()
        .unwrap();
    let mut mediator = Mediator::new(fx.catalog.clone(), &opts).unwrap();
    let args = [("date", Value::str(&fx.date))];

    let (first, report) = mediator.request(&fx.aig, &args).unwrap();
    assert!(report.incremental.enabled);
    assert!(!report.incremental.snapshot_hit);
    assert_eq!(mediator.snapshot_count(), 0, "outage run was snapshotted");

    let delta = visit_delta(mediator.catalog(), &fx.date, 1, 0, 37).unwrap();
    mediator.apply_delta(&delta).unwrap();
    let (second, report) = mediator.request(&fx.aig, &args).unwrap();
    assert!(!report.incremental.snapshot_hit);
    assert_eq!(
        report.incremental.tasks_rerun,
        report.incremental.tasks_total
    );
    // The full path still answers correctly across the delta.
    let oracle = Mediator::new(mediator.catalog().clone(), &opts).unwrap();
    let (oracle_run, _) = oracle.request(&fx.aig, &args).unwrap();
    assert_eq!(
        aig_xml::serialize::to_string(&second.tree),
        aig_xml::serialize::to_string(&oracle_run.tree)
    );
    drop(first);
}

/// With the policy off (the default), the ledger stays disabled and no
/// snapshot is retained — the feature is strictly opt-in.
#[test]
fn incremental_off_retains_nothing() {
    let fx = fixture(41);
    let opts = MediatorOptions::builder().unfold_depth(3).build().unwrap();
    let mediator = Mediator::new(fx.catalog.clone(), &opts).unwrap();
    let args = [("date", Value::str(&fx.date))];
    let (_, report) = mediator.request(&fx.aig, &args).unwrap();
    assert!(!report.incremental.enabled);
    assert!(!report.incremental.snapshot_hit);
    assert_eq!(mediator.snapshot_count(), 0);
}
