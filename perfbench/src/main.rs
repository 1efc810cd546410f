//! The benchmark command. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-exec --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- compare --help
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return llva_perfbench::compare::main(&args[1..]);
    }
    let run = match llva_perfbench::RunArgs::parse(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("llva-perfbench: {e}");
            eprintln!(
                "usage: llva-perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                llva_perfbench::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = llva_perfbench::run(&run);
    print!("{}", report.render());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
