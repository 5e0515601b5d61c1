//! Ablation M: streaming batch execution (chunked shipment) vs the
//! materializing ship seam.
//!
//! On the Fig. 10 workload (Small dataset, unfold 4, 1 Mbps), the same
//! request runs three ways: materializing (every task ships its whole
//! relation at once), batching with the default 2048-row chunks, and
//! batching with aggressive 256-row chunks. Chunked shipment bounds the
//! rows resident at the ship seam to a two-batch window per shipping task
//! instead of the largest relation, and lets the simulator credit the
//! pipelining overlap (batch k ships while batch k-1 evaluates) — while
//! the relation stores and the final document stay byte-identical, which
//! is the whole point of the seam redesign.
//!
//! Honesty note for this testbed: the container has one CPU, so the
//! overlap column is the *simulated* pipelining credit
//! (`NetworkModel::overlap_savings`), not a measured wall-clock win. The
//! machine-independent claims — byte-identical documents, strictly lower
//! peak residency at 256 rows, batch counts that grow as chunks shrink —
//! are what `check_perf_regression` gates hard; walls get drift bands.

use aig_bench::{dataset, fig10_options, markdown_table, spec, table_json, write_bench_json, Json};
use aig_datagen::DatasetSize;
use aig_mediator::{canonical, run_with_report, MediatorRun, RunReport};
use aig_relstore::Value;
use std::time::Instant;

const UNFOLD: usize = 4;
/// Repetitions per cell; the best response filters scheduler noise.
const REPEATS: usize = 5;

struct Cell {
    run: MediatorRun,
    report: RunReport,
    wall_secs: f64,
}

fn main() {
    let aig = spec();
    let data = dataset(DatasetSize::Small);
    let args = [("date", Value::str(&data.dates[0]))];

    let cell = |batch_rows: Option<usize>| -> Cell {
        let mut options = fig10_options(UNFOLD, 1.0);
        if let Some(rows) = batch_rows {
            options.policy.batching = true;
            options.policy.batch_rows = rows;
        }
        let mut best: Option<Cell> = None;
        for _ in 0..REPEATS {
            let start = Instant::now();
            let (run, report) =
                run_with_report(&aig, &data.catalog, &args, &options).expect("mediator run");
            let wall_secs = start.elapsed().as_secs_f64();
            if best
                .as_ref()
                .is_none_or(|b| run.response_merged_secs < b.run.response_merged_secs)
            {
                best = Some(Cell {
                    run,
                    report,
                    wall_secs,
                });
            }
        }
        best.expect("ran repeats")
    };

    let mat = cell(None);
    let coarse = cell(Some(2048));
    let fine = cell(Some(256));

    let docs_identical = canonical(&aig, &mat.run.tree) == canonical(&aig, &coarse.run.tree)
        && canonical(&aig, &coarse.run.tree) == canonical(&aig, &fine.run.tree);

    println!(
        "Ablation M: streaming batch execution (Small dataset, unfold {UNFOLD}, 1 Mbps, best of {REPEATS})\n"
    );
    let header = [
        "variant",
        "batches",
        "peak resident rows",
        "overlap est (s)",
        "response merged (s)",
        "wall (s)",
    ];
    let row = |name: &str, c: &Cell| {
        vec![
            name.to_string(),
            format!("{}", c.report.batching.total_batches),
            format!("{}", c.report.batching.peak_resident_rows),
            format!("{:.3}", c.report.batching.overlap_savings_secs),
            format!("{:.3}", c.run.response_merged_secs),
            format!("{:.4}", c.wall_secs),
        ]
    };
    let rows = vec![
        row("materializing", &mat),
        row("batch 2048", &coarse),
        row("batch 256", &fine),
    ];
    println!("{}", markdown_table(&header, &rows));
    println!(
        "documents identical: {docs_identical}; peak resident rows {} -> {} (256-row chunks); \
         overlap credit {:.3}s (simulated — single-CPU testbed)",
        mat.report.batching.peak_resident_rows,
        fine.report.batching.peak_resident_rows,
        fine.report.batching.overlap_savings_secs,
    );

    write_bench_json(
        "streaming",
        &Json::obj(vec![
            ("unfold", Json::num(UNFOLD as f64)),
            ("dataset", Json::str(DatasetSize::Small.name())),
            ("docs_identical", Json::Bool(docs_identical)),
            (
                "peak_mat_rows",
                Json::num(mat.report.batching.peak_resident_rows as f64),
            ),
            (
                "peak_2048_rows",
                Json::num(coarse.report.batching.peak_resident_rows as f64),
            ),
            (
                "peak_256_rows",
                Json::num(fine.report.batching.peak_resident_rows as f64),
            ),
            (
                "batches_mat",
                Json::num(mat.report.batching.total_batches as f64),
            ),
            (
                "batches_2048",
                Json::num(coarse.report.batching.total_batches as f64),
            ),
            (
                "batches_256",
                Json::num(fine.report.batching.total_batches as f64),
            ),
            (
                "overlap_2048_secs",
                Json::num(coarse.report.batching.overlap_savings_secs),
            ),
            (
                "overlap_256_secs",
                Json::num(fine.report.batching.overlap_savings_secs),
            ),
            ("response_mat_secs", Json::num(mat.run.response_merged_secs)),
            (
                "response_256_secs",
                Json::num(fine.run.response_merged_secs),
            ),
            ("wall_mat_secs", Json::num(mat.wall_secs)),
            ("wall_256_secs", Json::num(fine.wall_secs)),
            ("rows", table_json(&header, &rows)),
        ]),
    );

    assert!(docs_identical, "chunked shipment changed the document");
    assert!(
        fine.report.batching.peak_resident_rows < mat.report.batching.peak_resident_rows,
        "256-row chunks did not bound residency: peak {} vs materializing {}",
        fine.report.batching.peak_resident_rows,
        mat.report.batching.peak_resident_rows
    );
    assert!(
        fine.report.batching.total_batches > coarse.report.batching.total_batches,
        "shrinking the chunk size did not increase the batch count"
    );
}
