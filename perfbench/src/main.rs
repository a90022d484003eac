//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric (`name = value unit`), then the JSON result
//! as the last line of standard output. Exits 1 when a correctness gate
//! failed and 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{run, Options, Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--scale full|tiny] [--out-dir <dir>] [--force-gate-failure]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::MaeHyperFlatW1,
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        out_dir: PathBuf::from(".bench_out"),
        force_gate_failure: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--force-gate-failure" {
            opts.force_gate_failure = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or(bad("workload"))?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad("seconds"))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            "--scale" => {
                opts.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad("scale")),
                }
            }
            "--out-dir" => opts.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    opts.workload = workload.ok_or(format!("--workload is required: one of {names:?}"))?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    println!(
        "# {} seed {} trace {}: attempted {} failed {}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        report.attempted,
        report.failed
    );
    for note in &report.notes {
        println!("# {note}");
    }
    if let Some(path) = &report.trace_file {
        println!("# trace written to {}", path.display());
    }
    for m in &report.metrics {
        println!("{} = {:.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
