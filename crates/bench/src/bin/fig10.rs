//! Regenerates **Figure 10** of the paper: the improvement due to query
//! merging — the ratio of AIG evaluation time *without* merging to the time
//! *with* merging — for the three dataset sizes and recursion unfoldings of
//! 2–7 levels, with 1 Mbps links between the mediator and the sources.
//!
//! Usage: `fig10 [--mbps <f64>] [--explain]`
//! `--mbps` must be a positive number (exit code 2 otherwise).
//! `--explain` additionally prints the task-graph summary per cell.
//!
//! Besides the table on stdout, writes `BENCH_fig10.json`: every cell's
//! summary plus the full [`aig_mediator::RunReport`] of a representative
//! cell (phase timers, per-task/per-source metrics, merge decisions).

use aig_bench::{dataset, fig10_cell, markdown_table, parse_mbps, spec, write_bench_json, Json};
use aig_datagen::DatasetSize;
use aig_mediator::render_report;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mbps = parse_mbps(&args).unwrap_or_else(|e| {
        eprintln!("fig10: {e}\nusage: fig10 [--mbps <f64>] [--explain]");
        std::process::exit(2);
    });
    let explain = args.iter().any(|a| a == "--explain");

    let parse_start = Instant::now();
    let aig = spec();
    let parse_secs = parse_start.elapsed().as_secs_f64();

    let unfolds: Vec<usize> = (2..=7).collect();
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    let mut sample_report = None;
    println!("Figure 10: improvement due to query merging (bandwidth {mbps} Mbps)\n");
    for size in DatasetSize::ALL {
        let data = dataset(size);
        let mut row = vec![size.name().to_string()];
        for &unfold in &unfolds {
            let cell = fig10_cell(&aig, &data, size, unfold, mbps);
            row.push(format!("{:.2}", cell.ratio()));
            if explain {
                eprintln!(
                    "[{} u{}] tasks={} queries={} merges={} unmerged={:.3}s merged={:.3}s",
                    size.name(),
                    unfold,
                    cell.run.tasks,
                    cell.run.source_queries,
                    cell.run.merges,
                    cell.run.response_unmerged_secs,
                    cell.run.response_merged_secs,
                );
            }
            cells.push(cell.summary_json());
            // Keep one full run report (a mid-size cell keeps the JSON small
            // while still exercising merging and recursion).
            if size == DatasetSize::Small && unfold == 3 {
                let mut report = cell.report.clone();
                report.prepend_phase("parse", parse_secs);
                sample_report = Some(report);
            }
        }
        rows.push(row);
    }
    let mut header: Vec<String> = vec!["dataset".to_string()];
    header.extend(unfolds.iter().map(|u| format!("unfold {u}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    println!("{}", markdown_table(&header_refs, &rows));
    println!(
        "(each cell: evaluation time without merging / with merging; paper reports up to 2.2)"
    );

    let report = sample_report.expect("Small/unfold-3 cell was computed");
    if explain {
        eprintln!("\n{}", render_report(&report));
    }
    write_bench_json(
        "fig10",
        &Json::obj(vec![
            ("bandwidth_mbps", Json::num(mbps)),
            ("cells", Json::Arr(cells)),
            ("report", report.to_json()),
        ]),
    );
}
