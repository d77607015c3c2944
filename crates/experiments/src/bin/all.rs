//! Runs every experiment and writes CSVs into `results/`.
fn main() {
    let dir = std::path::Path::new("results");
    optimus_experiments::run_all(dir).expect("results directory is writable");
    println!("wrote results/*.csv");
    for (name, _) in optimus_experiments::EXPERIMENTS {
        println!("  results/{name}.csv");
    }
}
