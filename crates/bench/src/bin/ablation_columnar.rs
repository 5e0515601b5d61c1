//! Ablation L: columnar interned relation storage.
//!
//! The relation store keeps every relation column-major over interned
//! symbols (`Sym` ids into a global arena). This ablation quantifies the
//! three claims of that design on the Fig. 10 workload (Small dataset,
//! unfold 4, 1 Mbps):
//!
//! 1. **Wire size.** Dictionary-encoded columns (each distinct payload
//!    once, plus a minimal-width code per row) ship strictly fewer bytes
//!    than the raw row-major representation of the same shipments.
//! 2. **Kernel speed.** DISTINCT over interned symbol columns beats the
//!    row-major emulation (hash-set of cloned `Vec<Value>` keys — the
//!    allocation this refactor removed) on the workload's own relations.
//! 3. **Projection.** Selecting live columns is `Arc` pointer selection;
//!    the row-major emulation rewrites every row.
//!
//! The end-to-end response time is recorded so `check_perf_regression` can
//! tie it to the committed `BENCH_fig10.json` cell for the same workload.
//! All kernel timings run single-threaded (see EXPERIMENTS.md, Ablation L).

use aig_bench::{dataset, fig10_options, markdown_table, spec, write_bench_json, Json};
use aig_datagen::DatasetSize;
use aig_mediator::{run_with_report, MediatorRun, RunReport};
use aig_relstore::{Relation, Value};
use std::collections::HashSet;
use std::time::Instant;

const UNFOLD: usize = 4;
const REPEATS: usize = 5;
/// Kernel microbenches run on the N largest task outputs.
const KERNEL_RELATIONS: usize = 8;
/// Timing repetitions per kernel; the best filters allocator noise.
const KERNEL_REPEATS: usize = 7;

struct Cell {
    run: MediatorRun,
    report: RunReport,
    wall_secs: f64,
}

fn run_cell() -> Cell {
    let aig = spec();
    let data = dataset(DatasetSize::Small);
    let args = [("date", Value::str(&data.dates[0]))];
    let options = fig10_options(UNFOLD, 1.0);
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
}

/// The workload's task-output relations, largest first.
fn workload_relations() -> Vec<Relation> {
    use aig_core::{compile_constraints, decompose_queries};
    use aig_mediator::exec::{execute_graph, ExecOptions};
    use aig_mediator::graph::{build_graph, GraphOptions};
    use aig_mediator::unfold::{unfold, CutOff};

    let aig = spec();
    let data = dataset(DatasetSize::Small);
    let compiled = compile_constraints(&aig).unwrap();
    let (specialized, _) = decompose_queries(&compiled).unwrap();
    let unfolded = unfold(&specialized, UNFOLD, CutOff::Truncate).unwrap();
    let graph = build_graph(&unfolded.aig, &data.catalog, &GraphOptions::default()).unwrap();
    let result = execute_graph(
        &unfolded.aig,
        &data.catalog,
        &graph,
        &[("date", Value::str(&data.dates[0]))],
        &ExecOptions::default(),
    )
    .unwrap();
    let mut rels: Vec<Relation> = graph
        .tasks
        .iter()
        .filter_map(|t| t.output.as_ref())
        .filter_map(|key| result.store.get(key).ok().cloned())
        .filter(|r| !r.is_empty())
        .collect();
    rels.sort_by_key(|r| std::cmp::Reverse(r.len()));
    rels
}

fn best_of<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..KERNEL_REPEATS {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    // -- Pipeline: response time ---------------------------------------------
    let pipeline = run_cell();

    // -- Storage: dictionary wire size vs raw row-major bytes --------------
    let rels = workload_relations();
    let row_major_bytes: usize = rels.iter().map(Relation::byte_size).sum();
    let wire_bytes: usize = rels.iter().map(Relation::wire_bytes).sum();

    // -- Kernels on the workload's largest relations ------------------------
    let sample: Vec<&Relation> = rels.iter().take(KERNEL_RELATIONS).collect();
    let rows_total: usize = sample.iter().map(|r| r.len()).sum();

    // DISTINCT: interned symbol columns vs hash-set of cloned row keys.
    let columnar_distinct_secs = best_of(|| {
        sample
            .iter()
            .map(|r| (*r).clone().distinct().len())
            .sum::<usize>()
    });
    let row_major_distinct_secs = best_of(|| {
        sample
            .iter()
            .map(|r| {
                let rows = r.rows_vec();
                let mut seen: HashSet<Vec<Value>> = HashSet::with_capacity(rows.len());
                rows.into_iter()
                    .filter(|row| seen.insert(row.clone()))
                    .count()
            })
            .sum::<usize>()
    });

    // Projection to the first half of the columns: pointer selection vs
    // row rewriting.
    let halves: Vec<(usize, Vec<String>)> = sample
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let keep = (r.columns().len() / 2).max(1);
            (i, r.columns()[..keep].to_vec())
        })
        .collect();
    let columnar_project_secs = best_of(|| {
        halves
            .iter()
            .map(|(i, cols)| {
                let names: Vec<&str> = cols.iter().map(String::as_str).collect();
                sample[*i].project(&names).unwrap().len()
            })
            .sum::<usize>()
    });
    let row_major_project_secs = best_of(|| {
        halves
            .iter()
            .map(|(i, cols)| {
                let rel = sample[*i];
                let keep = cols.len();
                let rows: Vec<Vec<Value>> = rel
                    .rows_vec()
                    .into_iter()
                    .map(|mut row| {
                        row.truncate(keep);
                        row
                    })
                    .collect();
                Relation::new(cols.clone(), rows).unwrap().len()
            })
            .sum::<usize>()
    });

    let distinct_speedup = row_major_distinct_secs / columnar_distinct_secs.max(1e-12);
    let project_speedup = row_major_project_secs / columnar_project_secs.max(1e-12);

    println!(
        "Ablation L: columnar interned storage (Small dataset, unfold {UNFOLD}, 1 Mbps, \
         best of {REPEATS}; kernels on the {} largest relations, {rows_total} rows, \
         best of {KERNEL_REPEATS}, single-threaded)\n",
        sample.len()
    );
    let header = ["quantity", "row-major", "columnar", "improvement"];
    let rows_tbl = vec![
        vec![
            "shipped representation (bytes)".to_string(),
            format!("{row_major_bytes}"),
            format!("{wire_bytes}"),
            format!(
                "{:.1}%",
                100.0 * (row_major_bytes as f64 - wire_bytes as f64) / row_major_bytes as f64
            ),
        ],
        vec![
            "DISTINCT (s)".to_string(),
            format!("{row_major_distinct_secs:.5}"),
            format!("{columnar_distinct_secs:.5}"),
            format!("{distinct_speedup:.2}x"),
        ],
        vec![
            "projection (s)".to_string(),
            format!("{row_major_project_secs:.5}"),
            format!("{columnar_project_secs:.5}"),
            format!("{project_speedup:.2}x"),
        ],
    ];
    println!("{}", markdown_table(&header, &rows_tbl));
    println!("response merged {:.3}s", pipeline.run.response_merged_secs);

    write_bench_json(
        "columnar",
        &Json::obj(vec![
            ("unfold", Json::num(UNFOLD as f64)),
            ("dataset", Json::str(DatasetSize::Small.name())),
            (
                "response_merged_secs",
                Json::num(pipeline.run.response_merged_secs),
            ),
            (
                "response_unmerged_secs",
                Json::num(pipeline.run.response_unmerged_secs),
            ),
            (
                "shipped_cut_bytes",
                Json::num(pipeline.report.shipcut.shipped_cut_bytes),
            ),
            ("row_major_bytes", Json::num(row_major_bytes as f64)),
            ("wire_bytes", Json::num(wire_bytes as f64)),
            ("kernel_rows", Json::num(rows_total as f64)),
            (
                "row_major_distinct_secs",
                Json::num(row_major_distinct_secs),
            ),
            ("columnar_distinct_secs", Json::num(columnar_distinct_secs)),
            ("distinct_speedup", Json::num(distinct_speedup)),
            ("row_major_project_secs", Json::num(row_major_project_secs)),
            ("columnar_project_secs", Json::num(columnar_project_secs)),
            ("project_speedup", Json::num(project_speedup)),
            ("cold_wall_secs", Json::num(pipeline.wall_secs)),
        ]),
    );

    assert!(
        wire_bytes < row_major_bytes,
        "dictionary encoding did not reduce the shipped representation: \
         {wire_bytes} >= {row_major_bytes}"
    );
    assert!(
        distinct_speedup > 1.0,
        "columnar DISTINCT no faster than the row-major emulation: {distinct_speedup:.2}x"
    );
    assert!(
        project_speedup > 1.0,
        "columnar projection no faster than the row-major emulation: {project_speedup:.2}x"
    );
}
