//! Quickstart: define a chromatic task and decide its wait-free
//! solvability with the paper's pipeline.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use chromata::{analyze, laps, split_all, PipelineOptions, Verdict};
use chromata_task::library::{hourglass, majority_consensus};
use chromata_task::Task;
use chromata_topology::{Complex, Simplex, Vertex};

fn main() {
    // ── 1. A task from the library: majority consensus (paper, Fig. 1).
    let majority = majority_consensus();
    report(&majority);

    // ── 2. The hourglass (paper, Fig. 2), with its articulation point.
    let hg = hourglass();
    for lap in laps(&hg) {
        println!(
            "hourglass articulation point: {} with {} link components",
            lap.vertex,
            lap.component_count()
        );
    }
    report(&hg);

    // ── 3. A custom task built from scratch: "reverse agreement" — three
    // processes on a single input facet; everyone must output the same
    // value 0 or 1, but solo runs are free to pick either. (Solvable:
    // e.g. always output 0.)
    let facet = Simplex::from_iter((0..3).map(|i| Vertex::of(i, 0)));
    let input = Complex::from_facets([facet]);
    let custom = Task::from_delta_fn("free-agreement", input, |tau| {
        [0i64, 1]
            .into_iter()
            .map(|d| {
                Simplex::from_iter(
                    tau.iter()
                        .map(|u| u.with_value(chromata_topology::Value::Int(d))),
                )
            })
            .collect()
    })
    .expect("valid task");
    report(&custom);
}

fn report(task: &Task) {
    let analysis = analyze(task, PipelineOptions::default());
    // The verdict does not need T' (a cached verdict never builds it);
    // split the canonical task again to show it.
    let split = split_all(&analysis.canonical);
    println!("━━━ {task}");
    println!(
        "    canonical: |O*| = {} facets; split steps: {}; link-connected O': {} facets, {} components",
        analysis.canonical.output().facet_count(),
        split.steps.len(),
        split.task.output().facet_count(),
        split.task.output().connected_components().len(),
    );
    match &analysis.verdict {
        Verdict::Solvable { certificate } => println!("    SOLVABLE — {certificate}"),
        Verdict::Unsolvable { obstruction } => println!("    UNSOLVABLE — {obstruction}"),
        Verdict::Unknown { reason } => println!("    UNKNOWN — {reason}"),
    }
    println!();
}
