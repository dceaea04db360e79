//! Layer-ledger benchmark for the gt-sketch workspace.
//!
//! ```text
//! cargo run --release --manifest-path ledger_bench/Cargo.toml -- \
//!     --workload <batch_ingest|fanin_union|delta_monitor|keyed_store> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload in closed loop on one driver thread: a
//! round starts only after the previous one returned, as every caller of
//! the library waits for its calls. Inputs are generated from the seed
//! before any timing. The untraced run (`--trace 0`) prints the end-to-end
//! metrics; the traced run (`--trace 1`) prints the per-layer ledger,
//! built from spans the drivers record around each call into a layer.
//! Every answer is checked outside the round clock. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod bench;
mod drivers;
mod host;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use bench::{Metric, Recorder};
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: ledger-bench --workload <batch_ingest|fanin_union|delta_monitor|keyed_store> \
                     --seed <u64> --seconds <1..3600> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = host::Host::probe();
    let shape = args.workload.shape();
    let mut rec = Recorder::new(args.trace, args.seconds);
    args.workload.run(&mut rec, args.seed);

    let mut metrics = if args.trace {
        rec.per_layer(shape)
    } else {
        rec.end_to_end(shape, host::peak_rss_mb())
    };
    for m in &mut metrics {
        if !m.value.is_finite() {
            rec.check(false, || format!("metric {} is not finite", m.name));
            m.value = 0.0;
        }
    }
    let (attempted, failed) = (rec.attempted(), rec.failed());

    println!(
        "ledger-bench workload={} seed={} seconds={} trace={} nproc={} effective_workers={} lanes={} commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.nproc,
        host.effective_workers,
        host.lanes,
        host.commit
    );
    let rounds = rec.measured_rounds();
    println!(
        "round tail = p{}, query tail = p{}, measured rounds = {rounds} (highest tail they support: {})",
        shape.round_tail_q * 100.0,
        shape.query_tail_q * 100.0,
        stats::tail_quantile(rounds).map_or("none".to_string(), |q| format!("p{}", q * 100.0))
    );
    for m in &metrics {
        println!("{:<28} {:>18.6} {:<12} n={}", m.name, m.value, m.unit, m.n);
    }
    if !args.trace && args.workload == Workload::BatchIngest {
        // The one-shot answer time is the batch round itself.
        let p50 = metrics
            .iter()
            .find(|m| m.name == "round_p50_ms")
            .expect("end-to-end metric");
        println!(
            "{:<28} {:>18.6} {:<12} n={}",
            "answer_s",
            p50.value / 1e3,
            "s",
            p50.n
        );
    }
    println!(
        "{:<28} {:>18.6} {:<12} n={attempted}",
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        "ratio"
    );
    for f in rec.failures() {
        println!("FAILED: {f}");
    }
    println!(
        "{}",
        to_json(failed == 0, attempted.max(1), failed, &metrics)
    );
    ExitCode::SUCCESS
}

fn to_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload keyed_store --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::KeyedStore);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope --seed 7 --seconds 10 --trace 1").is_err());
        assert!(args("--workload keyed_store --seed 7 --seconds 10").is_err());
        assert!(args("--workload keyed_store --seed 7 --seconds 0 --trace 0").is_err());
        assert!(args("--workload keyed_store --seed 7 --seconds 10 --trace 2").is_err());
    }

    #[test]
    fn json_has_exactly_the_contract_keys() {
        let m = [Metric {
            name: "setup_s",
            unit: "s",
            value: 0.25,
            n: 3,
        }];
        assert_eq!(
            to_json(true, 10, 0, &m),
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
        );
    }

    /// The names this binary prints are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_names_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = json.matches("\"name\":").count();
        let workloads = Workload::ALL.len();
        assert_eq!(
            declared,
            workloads + bench::END_TO_END.len() + bench::PER_LAYER.len()
        );
        for w in Workload::ALL {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name())),
                "{}",
                w.name()
            );
        }
        for (name, unit) in bench::END_TO_END.iter().chain(&bench::PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
