//! Diagnostic: embedding-quality sensitivity probe (not a paper experiment).
//! Usage: `probe_quality <dataset> <dim> <epochs> <walks> <len> [mf|rw]`

use leva_bench::protocol::{eval_model, prepare, Approach, EvalOptions, ModelKind};
use leva_datasets::by_name;

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let dataset = argv
        .get(1)
        .map(String::as_str)
        .unwrap_or("financial")
        .to_owned();
    let dim: usize = argv.get(2).and_then(|s| s.parse().ok()).unwrap_or(64);
    let epochs: usize = argv.get(3).and_then(|s| s.parse().ok()).unwrap_or(8);
    let walks: usize = argv.get(4).and_then(|s| s.parse().ok()).unwrap_or(10);
    let len: usize = argv.get(5).and_then(|s| s.parse().ok()).unwrap_or(80);
    let approach = match argv.get(6).map(String::as_str) {
        Some("mf") => Approach::EmbMf,
        _ => Approach::EmbRw,
    };
    let window: usize = argv.get(7).and_then(|s| s.parse().ok()).unwrap_or(5);
    let opts = EvalOptions {
        dim,
        sgns_epochs: epochs,
        walks_per_node: walks,
        walk_length: len,
        window,
        ..Default::default()
    };
    let ds = by_name(&dataset, 0.4, opts.seed ^ 0xd5).expect("dataset");
    let t0 = std::time::Instant::now();
    let prep = prepare(&ds, approach, &opts);
    let fit_time = t0.elapsed();
    for model in [
        ModelKind::RandomForest,
        ModelKind::LogisticEn,
        ModelKind::Mlp,
    ] {
        let acc = eval_model(&prep, model, &opts);
        println!(
            "{dataset} {} dim={dim} ep={epochs} walks={walks}x{len} {} acc={acc:.3} (fit {fit_time:.1?})",
            approach.label(),
            model.label()
        );
    }
}
