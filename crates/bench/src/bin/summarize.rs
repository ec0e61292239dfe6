//! Render `experiments.json` (written by a full run of the `experiments`
//! binary) as the markdown tables used in EXPERIMENTS.md.
//!
//! Run with:
//! `cargo run -p datalog-bench --bin summarize --release [experiments.json]`

use datalog_bench::Run;

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "experiments.json".into());
    let data = match std::fs::read_to_string(&path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot read {path}: {e}\nrun the `experiments` binary first");
            std::process::exit(1);
        }
    };
    let parsed = datalog_json::Value::parse(&data).expect("experiments.json parses");
    let run = Run::from_json(&parsed).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    });
    print!("{}", run.summary());
}
