//! Wall-clock benchmark of the DynaHash workspace.
//!
//! ```text
//! dhbench --workload <serve-zipf|ingest-elastic|tpch-downsized>
//!         --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! Each workload builds its inputs from `--seed`, sets up (several times,
//! reporting the median), runs a timed phase of `--seconds` through the
//! public APIs, checks every answer, and prints one JSON line last: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `run.py` next to this package builds it and adds the peak
//! resident set.

mod clock;
mod common;
mod ingest;
mod job;
mod report;
mod serve;
mod tpch;

use std::io::Write as _;

use clock::{Clock, Span};
use common::{Metrics, Tally};

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted and failed, per kind.
    pub tally: Tally,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Metrics,
    /// The kept spans and how many were dropped past the cap.
    pub spans: (Vec<Span>, u64),
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Op cost in traced and untraced blocks of the traced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Overhead {
    on: (f64, u64),
    off: (f64, u64),
}

impl Overhead {
    /// Adds one op's cost (its calls plus its check), nanoseconds.
    pub fn add(&mut self, traced: bool, ns: f64) {
        let slot = if traced { &mut self.on } else { &mut self.off };
        slot.0 += ns;
        slot.1 += 1;
    }

    /// How much more an op costs, on average, with spans on than off, in
    /// percent.
    pub fn pct(&self) -> f64 {
        let on = common::ratio(self.on.0, self.on.1 as f64);
        let off = common::ratio(self.off.0, self.off.1 as f64);
        common::ratio((on - off) * 100.0, off)
    }
}

/// Sets the per-layer self times and the `driver.*`/`trace.*` metrics.
pub fn driver_metrics(m: &mut Metrics, clock: &Clock, wall_ns: f64, overhead: &Overhead) {
    let selfs = clock.self_times();
    let mut layer_ms = std::collections::BTreeMap::<&str, f64>::new();
    let mut covered = 0.0;
    for (name, ns) in selfs {
        let layer = name.split('.').next().unwrap_or(name);
        let layer = match layer {
            "tpch" => "query",
            // Group spans (an op, a tick, a scale event, a pass) belong to
            // the driver that issues them.
            "op" | "tick" | "scale" | "pass" | "feed" => "driver",
            l => l,
        };
        *layer_ms.entry(layer).or_default() += ns / 1e6;
        covered += ns;
    }
    for (layer, ms) in layer_ms {
        m.set(format!("{layer}.self_ms"), ms, "ms");
    }
    let check = selfs.get("driver.check").copied().unwrap_or(0.0);
    let idle = selfs.get("driver.idle").copied().unwrap_or(0.0);
    m.set("driver.check_ms", check / 1e6, "ms");
    m.set("driver.idle_ms", idle / 1e6, "ms");
    m.set("trace.overhead_pct", overhead.pct(), "%");
    m.set(
        "trace.accounted_pct",
        common::ratio(covered * 100.0, wall_ns),
        "%",
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--trace-out" => args.trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Runs one workload by name, at its benchmark size or (for tests) its
/// smallest.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
) -> Result<Outcome, String> {
    Ok(match name {
        "serve-zipf" => {
            let size = if tiny {
                serve::Size::tiny()
            } else {
                serve::Size::full()
            };
            serve::run(&size, seed, seconds, trace, false)
        }
        "ingest-elastic" => {
            let size = if tiny {
                ingest::Size::tiny()
            } else {
                ingest::Size::full()
            };
            ingest::run(&size, seed, seconds, trace, false)
        }
        "tpch-downsized" => {
            let size = if tiny {
                tpch::Size::tiny()
            } else {
                tpch::Size::full()
            };
            tpch::run(&size, seed, seconds, trace, false)
        }
        other => return Err(format!("unknown workload {other}")),
    })
}

/// The metric names a run prints.
pub fn selected_names(trace: bool) -> Vec<String> {
    if trace {
        report::per_layer_names()
    } else {
        report::END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .collect()
    }
}

fn write_spans(path: &str, spans: &[Span], dropped: u64) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{{\"dropped_spans\": {dropped}}}")?;
    for s in spans {
        writeln!(
            f,
            "{{\"name\": \"{}\", \"id\": {}, \"group\": {}, \"start_ns\": {:.0}, \"end_ns\": {:.0}}}",
            s.name, s.group, s.is_group, s.start_ns, s.end_ns
        )?;
    }
    f.flush()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dhbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match run_workload(&args.workload, args.seed, args.seconds, args.trace, false) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dhbench: {e}");
            std::process::exit(2);
        }
    };
    for note in &out.notes {
        println!("{note}");
    }
    for (kind, attempted, failed) in out.tally.by_kind() {
        println!("ops {kind:<12} attempted {attempted:>9} failed {failed:>6}");
    }
    for msg in &out.tally.messages {
        eprintln!("failed op: {msg}");
    }
    if let Some(path) = &args.trace_out {
        if args.trace {
            if let Err(e) = write_spans(path, &out.spans.0, out.spans.1) {
                eprintln!("dhbench: writing {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("{}", report::result_line(&out, &selected_names(args.trace)));
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORKLOADS: [&str; 3] = ["serve-zipf", "ingest-elastic", "tpch-downsized"];

    /// The names `BENCHMARK.json` declares for one metric list.
    fn declared(list: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text.find(&format!("\"{list}\"")).expect("metric list");
        let end = text[start..].find(']').expect("list end") + start;
        text[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap_or_default().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_benchmark_prints() {
        let mut e2e = selected_names(false);
        e2e.push("peak_rss_mb".into()); // added by run.py
        e2e.sort();
        let mut want = declared("end_to_end");
        want.sort();
        assert_eq!(e2e, want);
        let mut layers = selected_names(true);
        layers.sort();
        let mut want = declared("per_layer");
        want.sort();
        assert_eq!(layers, want);
    }

    #[test]
    fn smallest_runs_print_every_named_metric() {
        for w in WORKLOADS {
            let out = run_workload(w, 7, 0.3, false, true).expect("known workload");
            assert_eq!(out.tally.failed(), 0, "{w}: {:?}", out.tally.messages);
            for name in selected_names(false) {
                let v = out.metrics.get(&name);
                assert!(v.is_some_and(|v| v > 0.0), "{w}: {name} = {v:?}");
            }
            let line = report::result_line(&out, &selected_names(false));
            assert!(line.starts_with("{\"correct\": true"), "{w}: {line}");

            let out = run_workload(w, 7, 0.3, true, true).expect("known workload");
            assert_eq!(out.tally.failed(), 0, "{w}: {:?}", out.tally.messages);
            let line = report::result_line(&out, &selected_names(true));
            for name in selected_names(true) {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{w}: {name}"
                );
            }
            assert!(out
                .metrics
                .get("trace.accounted_pct")
                .is_some_and(|v| v > 50.0));
        }
    }

    #[test]
    fn one_changed_model_value_fails_exactly_one_op() {
        let serve = serve::run(&serve::Size::tiny(), 3, 0.0, false, true);
        assert_eq!(serve.tally.failed(), 1, "{:?}", serve.tally.messages);
        let ingest = ingest::run(&ingest::Size::tiny(), 3, 0.0, false, true);
        assert_eq!(ingest.tally.failed(), 1, "{:?}", ingest.tally.messages);
        // One pass of Q1-Q22 against one changed reference answer.
        let tpch = tpch::run(&tpch::Size::tiny(), 3, 1e-9, false, true);
        assert_eq!(tpch.tally.failed(), 1, "{:?}", tpch.tally.messages);
    }
}
