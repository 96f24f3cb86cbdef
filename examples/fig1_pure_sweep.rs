//! Regenerate **Figure 1**: pure-strategy defense under optimal attack.
//!
//! Sweeps the filter strength 0–40 %, measuring held-out accuracy with
//! the attacker hugging each filter and with no attack, and prints the
//! table plus CSV (pipe to a file for plotting).
//!
//! ```sh
//! cargo run --release --example fig1_pure_sweep            # quick scale
//! cargo run --release --example fig1_pure_sweep -- --full  # paper scale
//! ```

use poisongame::sim::fig1::Fig1Config;
use poisongame::sim::pipeline::ExperimentConfig;
use poisongame::sim::report::{fig1_csv, fig1_table};
use poisongame::sim::EvalEngine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let full = std::env::args().any(|a| a == "--full");
    let config = if full {
        ExperimentConfig::paper()
    } else {
        ExperimentConfig::paper().quick()
    };
    eprintln!(
        "running Figure 1 sweep ({} scale)...",
        if full { "paper" } else { "quick" }
    );
    let results = EvalEngine::new().run_fig1(&config, &Fig1Config::default())?;
    println!("{}", fig1_table(&results));
    let best = results.best_pure();
    println!(
        "best pure strategy: remove {:.0}% → accuracy {:.4} under attack",
        best.removed_fraction * 100.0,
        best.accuracy_under_attack
    );
    println!("\n--- CSV ---\n{}", fig1_csv(&results));
    Ok(())
}
