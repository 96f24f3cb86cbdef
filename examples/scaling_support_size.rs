//! Reproduce the §5 scaling claims: "the accuracy of the resulting
//! model stays roughly the same after n = 3 … the computation time
//! increases significantly when computing high value of n".
//!
//! ```sh
//! cargo run --release --example scaling_support_size
//! ```

use poisongame::core::Algorithm1Config;
use poisongame::sim::estimate::{default_placements, default_strengths};
use poisongame::sim::pipeline::ExperimentConfig;
use poisongame::sim::report::scaling_table;
use poisongame::sim::scaling::run_scaling;
use poisongame::sim::{EvalEngine, ExecPolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = ExperimentConfig::paper().quick();
    eprintln!("estimating curves...");
    let curves =
        EvalEngine::new().estimate_curves(&config, &default_placements(), &default_strengths())?;

    eprintln!("solving Algorithm 1 for n = 1..=5...");
    // One solve at a time: the solve times are the measurement.
    let results = run_scaling(
        &curves,
        &[1, 2, 3, 4, 5],
        &Algorithm1Config::default(),
        &ExecPolicy::sequential(),
    )?;
    println!("{}", scaling_table(&results));

    if let Some(gain) = results.plateau_gain(3) {
        println!(
            "accuracy gain available beyond n = 3: {:.4} (paper: \"roughly the same after n = 3\")",
            gain
        );
    }
    let t3 = results
        .rows
        .iter()
        .find(|r| r.n_radii == 3)
        .map(|r| r.solve_micros);
    let t5 = results
        .rows
        .iter()
        .find(|r| r.n_radii == 5)
        .map(|r| r.solve_micros);
    if let (Some(t3), Some(t5)) = (t3, t5) {
        println!(
            "solve time n=3 → n=5: {:.1} ms → {:.1} ms ({:.1}× growth)",
            t3 as f64 / 1000.0,
            t5 as f64 / 1000.0,
            t5 as f64 / t3 as f64
        );
    }
    Ok(())
}
