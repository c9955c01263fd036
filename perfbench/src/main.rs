//! Command-line entry point; see the library docs for the workloads.
//!
//! ```text
//! perfbench --workload <sedov-opt|sedov-mem|study> --seed <n> --seconds <s> --trace <0|1>
//! ```

use perfbench::report::{provenance, result_line};
use perfbench::trace::Trace;
use perfbench::Workload;
use raptor_core::Json;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| bad("sedov-opt, sedov-mem or study"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <sedov-opt|sedov-mem|study> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let mut trace = args.trace.then(|| Trace::new(name));
    let outcome = match perfbench::run(args.workload, args.seed, args.seconds, trace.as_mut()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut detail = Json::obj()
        .set("workload", name)
        .set("seed", args.seed)
        .set("trace", args.trace)
        .set("provenance", provenance())
        .set(
            "samples",
            outcome
                .samples
                .iter()
                .fold(Json::obj(), |d, (n, s)| d.set(n, s.summary())),
        )
        .set(
            "errors",
            Json::Arr(
                outcome
                    .tally
                    .errors
                    .iter()
                    .map(|e| Json::from(e.as_str()))
                    .collect(),
            ),
        );
    if let Some(tr) = &trace {
        let path = perfbench::report::package_dir()
            .join("out")
            .join(format!("trace-{name}-seed{}.jsonl", args.seed));
        if let Err(e) = std::fs::write(&path, tr.to_jsonl()) {
            eprintln!("perfbench: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        detail = detail
            .set("trace_file", path.display().to_string())
            .set("spans", tr.spans().len() as u64);
    }
    println!("{}", detail.render_compact());
    println!("{}", result_line(&outcome.tally, &outcome.metrics));
    ExitCode::SUCCESS
}
