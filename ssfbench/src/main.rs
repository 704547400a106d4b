//! `ssfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a detail line, then the result object as the last line of
//! standard output. Exits 1 when a correctness gate fails (after
//! printing the result with `"correct": false`) and 2 on bad arguments
//! or a run that could not finish.

use std::process::ExitCode;

use ssfbench::report::{obj, result_line, Json};
use ssfbench::{run, Options, Workload};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::ServeUniform,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or(format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => {
                opts.seed =
                    value.parse().map_err(|_| format!("bad seed `{value}`"))?;
            }
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or(format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: ssfbench --workload <serve_uniform|serve_hot|\
                 stream_window> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let result = run(&opts).and_then(|r| r.metrics(opts.trace).map(|m| (r, m)));
    let (r, metrics) = match result {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("error: {}: {e}", opts.workload.name());
            return ExitCode::from(2);
        }
    };
    let gates =
        Json::Arr(r.gate_failures.iter().map(|g| g.as_str().into()).collect());
    println!(
        "{}",
        obj([("detail", r.detail.clone()), ("gate_failures", gates)])
    );
    let correct = r.gate_failures.is_empty();
    println!("{}", result_line(correct, r.attempted, r.failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        for g in &r.gate_failures {
            eprintln!("correctness gate failed: {g}");
        }
        ExitCode::from(1)
    }
}
