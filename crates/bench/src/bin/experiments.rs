//! Regenerates every figure of the DynaHash paper and prints the results as
//! markdown tables (the source of EXPERIMENTS.md).
//!
//! Usage:
//!
//! ```text
//! experiments                     # run everything at the default scale
//! experiments --quick             # smaller scale, fewer cluster sizes
//! experiments --figure 7a         # run a single figure
//! experiments --json results.json # also emit machine-readable results
//! ```
//!
//! Figures: 6, 7a, 7b, 7c, waves, move_policy, routing, lookup, scale,
//! faults, control, recovery, 8, 9, ablations.
//!
//! Seven figures double as regression gates (the run exits 1 on violation):
//!
//! * `move_policy` — component shipping must be strictly faster than
//!   record-level movement while leaving byte-identical contents (the
//!   paper's core rebalance-efficiency claim);
//! * `routing` — sessions left stale across a rebalance must converge via
//!   the stale-directory redirect protocol with zero integrity violations,
//!   redirect counts bounded by buckets-moved, and steady-state session
//!   overhead within 10% of direct access;
//! * `lookup` — the slot-array directory must be strictly faster than the
//!   old linear scan at ≥ 256 buckets, and deferring the destination-side
//!   secondary rebuild must strictly shrink the rebalance wave makespan
//!   while `index_scan` answers stay byte-identical to the eager baseline;
//! * `scale` — resident bytes per record must stay at or below the legacy
//!   all-heap-key baseline, with every production 8-byte key stored inline
//!   (deterministic accounting, no wall clock: violations fail immediately);
//! * `faults` — an installed-but-empty fault schedule must be byte-identical
//!   to the fault-free oracle, injected transients must be absorbed by
//!   retry (never an abort), and a mid-movement node loss must commit via
//!   re-planning — both with record contents identical to the oracle;
//! * `control` — an armed-then-disarmed control plane must be byte-identical
//!   to the never-armed baseline, and the armed decision loop must split the
//!   query hotspot, auto-trigger through hysteresis, converge below the
//!   imbalance threshold within the tick budget, and never exceed the
//!   per-window migration budget — with record contents identical to the
//!   baseline;
//! * `recovery` — speculative re-execution must strictly shorten the
//!   makespan of a rebalance stretched by a 50× slow node while leaving
//!   record contents byte-identical, and a dataset that permanently lost an
//!   established node must, after repair from the original feed, be
//!   byte-identical to a never-lost oracle.

use dynahash_bench::json::Json;
use dynahash_bench::*;

struct Args {
    quick: bool,
    figure: Option<String>,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        figure: None,
        json: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--figure" => args.figure = iter.next(),
            "--json" => {
                args.json = iter.next();
                if args.json.is_none() {
                    eprintln!("--json requires a path");
                    std::process::exit(2);
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments [--quick] [--json <path>] \
                     [--figure 6|7a|7b|7c|waves|move_policy|routing|lookup|scale|faults|\
                     control|recovery|8|9|ablations]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn wants(figure: &Option<String>, name: &str) -> bool {
    match figure {
        None => true,
        Some(f) => f.eq_ignore_ascii_case(name),
    }
}

fn fig6_json(rows: &[IngestionRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("nodes", Json::Int(r.nodes as u64)),
                    ("scheme", Json::str(r.scheme)),
                    ("sim_seconds", Json::Num(r.minutes * 60.0)),
                    ("records", Json::Int(r.records)),
                ])
            })
            .collect(),
    )
}

fn fig7_json(rows: &[RebalanceRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("nodes", Json::Int(r.nodes as u64)),
                    ("scheme", Json::str(r.scheme)),
                    ("sim_seconds", Json::Num(r.minutes * 60.0)),
                    ("moved_fraction", Json::Num(r.moved_fraction)),
                ])
            })
            .collect(),
    )
}

fn fig7c_json(rows: &[ConcurrentWriteRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("write_rate_krps", Json::Num(r.write_rate_krps)),
                    ("sim_seconds", Json::Num(r.minutes * 60.0)),
                    ("concurrent_records", Json::Int(r.concurrent_records)),
                ])
            })
            .collect(),
    )
}

fn waves_json(rows: &[WaveRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    (
                        "max_concurrent_moves",
                        Json::Int(r.max_concurrent_moves as u64),
                    ),
                    ("waves", Json::Int(r.waves as u64)),
                    ("buckets_moved", Json::Int(r.buckets_moved as u64)),
                    ("movement_sim_seconds", Json::Num(r.movement_minutes * 60.0)),
                    ("total_sim_seconds", Json::Num(r.minutes * 60.0)),
                ])
            })
            .collect(),
    )
}

fn move_policy_json(rows: &[MovePolicyRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("policy", Json::str(r.policy)),
                    ("movement_sim_seconds", Json::Num(r.movement_minutes * 60.0)),
                    ("total_sim_seconds", Json::Num(r.minutes * 60.0)),
                    ("bytes_moved", Json::Int(r.bytes_moved)),
                    ("records_moved", Json::Int(r.records_moved)),
                    ("buckets_moved", Json::Int(r.buckets_moved as u64)),
                    (
                        "content_checksum",
                        Json::str(format!("{:016x}", r.content_checksum)),
                    ),
                ])
            })
            .collect(),
    )
}

/// `groups` pairs each row set with the cluster size it ran on — the rows
/// themselves carry no node count, and a flat concatenation would make the
/// 4-node and 16-node timings indistinguishable in the JSON trajectory.
fn routing_json(rows: &[RoutingRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("phase", Json::str(r.phase)),
                    ("sessions", Json::Int(r.sessions as u64)),
                    ("ops", Json::Int(r.ops)),
                    ("redirects", Json::Int(r.redirects)),
                    ("delta_refreshes", Json::Int(r.delta_refreshes)),
                    ("full_refreshes", Json::Int(r.full_refreshes)),
                    ("buckets_moved", Json::Int(r.buckets_moved as u64)),
                    ("integrity_violations", Json::Int(r.integrity_violations)),
                    ("session_ns_per_op", Json::Num(r.session_ns_per_op)),
                    ("direct_ns_per_op", Json::Num(r.direct_ns_per_op)),
                    ("overhead_ratio", Json::Num(r.overhead_ratio)),
                ])
            })
            .collect(),
    )
}

fn lookup_json(rows: &[LookupRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("buckets", Json::Int(r.buckets as u64)),
                    ("slot_ns_per_lookup", Json::Num(r.slot_ns_per_lookup)),
                    ("scan_ns_per_lookup", Json::Num(r.scan_ns_per_lookup)),
                    ("speedup", Json::Num(r.speedup)),
                ])
            })
            .collect(),
    )
}

fn deferred_install_json(rows: &[DeferredInstallRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("rebuild", Json::str(r.mode)),
                    ("movement_sim_seconds", Json::Num(r.movement_minutes * 60.0)),
                    ("total_sim_seconds", Json::Num(r.minutes * 60.0)),
                    ("records_moved", Json::Int(r.records_moved)),
                    ("buckets_moved", Json::Int(r.buckets_moved as u64)),
                    ("warmed_records", Json::Int(r.warmed_records)),
                    (
                        "index_checksum",
                        Json::str(format!("{:016x}", r.index_checksum)),
                    ),
                    ("integrity_violations", Json::Int(r.integrity_violations)),
                ])
            })
            .collect(),
    )
}

fn scale_json(rows: &[ScaleRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("keys", Json::str(r.label)),
                    ("records", Json::Int(r.records)),
                    ("resident_bytes", Json::Int(r.resident_bytes)),
                    ("legacy_bytes", Json::Int(r.legacy_bytes)),
                    ("bytes_per_record", Json::Num(r.bytes_per_record)),
                    (
                        "legacy_bytes_per_record",
                        Json::Num(r.legacy_bytes_per_record),
                    ),
                    ("inline_fraction", Json::Num(r.inline_fraction)),
                ])
            })
            .collect(),
    )
}

fn faults_json(rows: &[FaultRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("regime", Json::str(r.label)),
                    ("committed", Json::Bool(r.committed)),
                    ("makespan_ns", Json::Int(r.makespan.as_nanos())),
                    ("retries", Json::Int(r.retries)),
                    ("reroutes", Json::Int(r.reroutes)),
                    ("records", Json::Int(r.records)),
                    ("checksum", Json::str(format!("{:016x}", r.checksum))),
                ])
            })
            .collect(),
    )
}

fn control_json(rows: &[ControlRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("regime", Json::str(r.label)),
                    ("ticks", Json::Int(r.ticks)),
                    ("triggers", Json::Int(r.triggers)),
                    ("suppressed", Json::Int(r.suppressed)),
                    ("committed", Json::Int(r.committed)),
                    ("hot_splits", Json::Int(r.hot_splits)),
                    ("imbalance_start", Json::Num(r.imbalance_start)),
                    ("imbalance_end", Json::Num(r.imbalance_end)),
                    ("threshold", Json::Num(r.threshold)),
                    ("max_window_buckets", Json::Int(r.max_window_buckets as u64)),
                    ("max_window_bytes", Json::Int(r.max_window_bytes)),
                    ("records", Json::Int(r.records)),
                    ("checksum", Json::str(format!("{:016x}", r.checksum))),
                ])
            })
            .collect(),
    )
}

fn recovery_json(rows: &[RecoveryRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("arm", Json::str(r.label)),
                    ("committed", Json::Bool(r.committed)),
                    ("makespan_ns", Json::Int(r.makespan.as_nanos())),
                    ("speculated", Json::Int(r.speculated)),
                    ("speculation_wins", Json::Int(r.speculation_wins)),
                    ("repaired_buckets", Json::Int(r.repaired_buckets)),
                    ("records", Json::Int(r.records)),
                    ("checksum", Json::str(format!("{:016x}", r.checksum))),
                ])
            })
            .collect(),
    )
}

fn queries_json(groups: &[(u32, Vec<QueryRow>)]) -> Json {
    Json::Arr(
        groups
            .iter()
            .flat_map(|(nodes, rows)| {
                rows.iter().map(|r| {
                    Json::obj([
                        ("nodes", Json::Int(*nodes as u64)),
                        ("query", Json::Int(r.query as u64)),
                        ("scheme", Json::str(r.scheme.clone())),
                        ("sim_seconds", Json::Num(r.seconds)),
                        ("answer", Json::Num(r.answer)),
                        ("scan_heavy", Json::Bool(r.scan_heavy)),
                    ])
                })
            })
            .collect(),
    )
}

fn main() {
    let args = parse_args();
    let cfg = if args.quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::default()
    };
    let node_counts: Vec<u32> = if args.quick {
        vec![2, 4]
    } else {
        vec![2, 4, 8, 16]
    };
    let query_nodes: Vec<u32> = if args.quick { vec![4] } else { vec![4, 16] };

    let mut figures = Json::obj([]);
    let mut gate_failed = false;

    println!("# DynaHash experiment results");
    println!();
    println!(
        "configuration: {} orders/node, {} partitions/node, node counts {:?} (simulated time)",
        cfg.orders_per_node, cfg.partitions_per_node, node_counts
    );
    println!();

    if wants(&args.figure, "6") {
        println!("## Figure 6 — Ingestion time");
        println!();
        let rows = fig6_ingestion(&cfg, &node_counts);
        println!("{}", format_fig6(&rows));
        figures.push_field("fig6_ingestion", fig6_json(&rows));
    }

    if wants(&args.figure, "7a") {
        println!("## Figure 7a — Rebalance time, removing one node");
        println!();
        let rows = fig7_rebalance(&cfg, &node_counts, RebalanceDirection::RemoveNode);
        println!("{}", format_fig7(&rows));
        figures.push_field("fig7a_remove_node", fig7_json(&rows));
    }

    if wants(&args.figure, "7b") {
        println!("## Figure 7b — Rebalance time, adding one node");
        println!();
        let rows = fig7_rebalance(&cfg, &node_counts, RebalanceDirection::AddNode);
        println!("{}", format_fig7(&rows));
        figures.push_field("fig7b_add_node", fig7_json(&rows));
    }

    if wants(&args.figure, "7c") {
        println!(
            "## Figure 7c — Rebalance time under concurrent ingestion (DynaHash, 4 -> 3 nodes)"
        );
        println!();
        let rates = [0.0, 10.0, 20.0, 30.0, 40.0];
        let rows = fig7c_concurrent_writes(&cfg, &rates);
        println!("{}", format_fig7c(&rows));
        figures.push_field("fig7c_concurrent_writes", fig7c_json(&rows));
    }

    if wants(&args.figure, "waves") {
        println!("## Wave parallelism — step-driven rebalance (DynaHash, 4 -> 3 nodes)");
        println!();
        let rows = rebalance_wave_scaling(&cfg, &[1, 2, 4, 8]);
        println!("{}", format_waves(&rows));
        figures.push_field("waves", waves_json(&rows));
    }

    if wants(&args.figure, "move_policy") {
        println!("## Move policy — component shipping vs record movement (DynaHash, 4 -> 3 nodes)");
        println!();
        let rows = move_policy_comparison(&cfg);
        println!("{}", format_move_policy(&rows));
        figures.push_field("move_policy", move_policy_json(&rows));
        let records = rows.iter().find(|r| r.policy == "Records");
        let components = rows.iter().find(|r| r.policy == "Components");
        match (records, components) {
            (Some(rec), Some(comp)) => {
                if comp.content_checksum != rec.content_checksum {
                    eprintln!("GATE FAILED: move policies left different dataset contents");
                    gate_failed = true;
                }
                if comp.movement_minutes >= rec.movement_minutes {
                    eprintln!(
                        "GATE FAILED: component shipping ({:.6} sim s) is not strictly faster \
                         than record movement ({:.6} sim s)",
                        comp.movement_minutes * 60.0,
                        rec.movement_minutes * 60.0
                    );
                    gate_failed = true;
                }
            }
            _ => {
                eprintln!("GATE FAILED: move_policy rows missing");
                gate_failed = true;
            }
        }
        if !gate_failed {
            println!("(gate: Components strictly faster than Records, contents identical)");
            println!();
        }
    }

    if wants(&args.figure, "routing") {
        println!("## Session routing — redirect protocol and overhead (DynaHash, 4 -> 3 nodes)");
        println!();
        let mut rows = session_routing_study(&cfg);
        let mut violations = routing_gate_violations(&rows);
        // The overhead arm is the study's only wall-clock measurement; when
        // it alone trips the gate (a loaded runner can inflate even the
        // paired-minimum ratio), re-measure up to twice before failing, so
        // noise cannot flip the otherwise-deterministic gate. Protocol
        // violations — redirects, integrity — fail immediately.
        let mut remeasures = 0;
        while !violations.is_empty()
            && violations.iter().all(|v| v.contains("overhead"))
            && remeasures < 2
        {
            eprintln!("overhead measurement over the gate; re-measuring: {violations:?}");
            remeasures += 1;
            rows = session_routing_study(&cfg);
            violations = routing_gate_violations(&rows);
        }
        println!("{}", format_routing(&rows));
        figures.push_field("routing", routing_json(&rows));
        if violations.is_empty() {
            println!(
                "(gate: stale sessions converged, redirects bounded by buckets moved, \
                 overhead within {ROUTING_OVERHEAD_GATE:.2}x of direct access)"
            );
            println!();
        } else {
            for v in &violations {
                eprintln!("GATE FAILED: {v}");
            }
            gate_failed = true;
        }
    }

    if wants(&args.figure, "lookup") {
        let counts: &[usize] = &[16, 256, 4096];
        let mut lookup_rows = directory_lookup_study(counts);
        let deferred_rows = deferred_install_study(&cfg);
        let mut violations = lookup_gate_violations(&lookup_rows, &deferred_rows);
        // The lookup arm is wall-clock; like the routing overhead gate it is
        // re-measured (up to twice) when it alone trips on a loaded runner.
        // The deferred-install conditions are simulated-time and therefore
        // deterministic: they fail immediately.
        let mut remeasures = 0;
        while !violations.is_empty()
            && violations.iter().all(|v| v.contains("lookup overhead"))
            && remeasures < 2
        {
            eprintln!("lookup measurement over the gate; re-measuring: {violations:?}");
            remeasures += 1;
            lookup_rows = directory_lookup_study(counts);
            violations = lookup_gate_violations(&lookup_rows, &deferred_rows);
        }
        println!("## Directory lookup — slot array vs linear scan");
        println!();
        println!("{}", format_lookup(&lookup_rows));
        println!("## Deferred secondary rebuild — install cost off the commit path (DynaHash, 4 -> 3 nodes)");
        println!();
        println!("{}", format_deferred_install(&deferred_rows));
        figures.push_field("lookup", lookup_json(&lookup_rows));
        figures.push_field("deferred_install", deferred_install_json(&deferred_rows));
        if violations.is_empty() {
            println!(
                "(gate: slot-array lookups strictly faster than the scan at >= 256 buckets, \
                 deferred install strictly faster than eager on wave makespan, index answers \
                 byte-identical)"
            );
            println!();
        } else {
            for v in &violations {
                eprintln!("GATE FAILED: {v}");
            }
            gate_failed = true;
        }
    }

    if wants(&args.figure, "scale") {
        println!("## Memory scale — inline-key Entry layout vs the legacy heap-key layout");
        println!();
        let rows = scale_study(&cfg);
        println!("{}", format_scale(&rows));
        figures.push_field("scale", scale_json(&rows));
        // Pure byte accounting — deterministic, so violations fail
        // immediately (no wall-clock re-measure loop).
        let violations = scale_gate_violations(&rows);
        if violations.is_empty() {
            println!(
                "(gate: resident bytes/record at or below the legacy baseline, \
                 8-byte keys fully inline)"
            );
            println!();
        } else {
            for v in &violations {
                eprintln!("GATE FAILED: {v}");
            }
            gate_failed = true;
        }
    }

    if wants(&args.figure, "faults") {
        println!("## Fault plane — retry, re-planning, and the fault-free oracle (DynaHash, 4 -> 5 nodes)");
        println!();
        let rows = fault_study(&cfg);
        println!("{}", format_faults(&rows));
        figures.push_field("faults", faults_json(&rows));
        // Simulated time and byte accounting only — deterministic, so
        // violations fail immediately.
        let violations = fault_gate_violations(&rows);
        if violations.is_empty() {
            println!(
                "(gate: empty schedule byte-identical to the oracle, transients absorbed \
                 by retry, node loss re-planned and committed, contents identical)"
            );
            println!();
        } else {
            for v in &violations {
                eprintln!("GATE FAILED: {v}");
            }
            gate_failed = true;
        }
    }

    if wants(&args.figure, "control") {
        println!("## Control plane — load-aware auto-rebalancing under a query hotspot (DynaHash, 4 -> 6 nodes)");
        println!();
        let rows = control_study(&cfg);
        println!("{}", format_control(&rows));
        figures.push_field("control", control_json(&rows));
        // Simulated ticks and byte accounting only — deterministic, so
        // violations fail immediately.
        let violations = control_gate_violations(&rows);
        if violations.is_empty() {
            println!(
                "(gate: disarmed run byte-identical to the baseline, armed loop split the \
                 hotspot and converged below the threshold within {CONTROL_CONVERGENCE_TICKS} \
                 ticks inside the migration budget, contents identical)"
            );
            println!();
        } else {
            for v in &violations {
                eprintln!("GATE FAILED: {v}");
            }
            gate_failed = true;
        }
    }

    if wants(&args.figure, "recovery") {
        println!("## Recovery plane — straggler speculation and degraded-dataset repair (DynaHash, 4 -> 5 nodes)");
        println!();
        let rows = recovery_study(&cfg);
        println!("{}", format_recovery(&rows));
        figures.push_field("recovery", recovery_json(&rows));
        // Simulated time and byte accounting only — deterministic, so
        // violations fail immediately.
        let violations = recovery_gate_violations(&rows);
        if violations.is_empty() {
            println!(
                "(gate: speculation strictly shortened the straggler-stretched makespan \
                 with byte-identical contents; the repaired dataset is byte-identical to \
                 the never-lost oracle)"
            );
            println!();
        } else {
            for v in &violations {
                eprintln!("GATE FAILED: {v}");
            }
            gate_failed = true;
        }
    }

    if wants(&args.figure, "8") {
        let mut groups = Vec::new();
        for &n in &query_nodes {
            println!("## Figure 8 — TPC-H query time on the original cluster ({n} nodes)");
            println!();
            let rows = fig8_queries(&cfg, n);
            let mismatches = answer_mismatches(&rows);
            println!("{}", format_query_rows(&rows));
            if mismatches.is_empty() {
                println!("(all schemes returned identical query answers)");
            } else {
                println!("WARNING: answer mismatches on queries {mismatches:?}");
            }
            println!();
            groups.push((n, rows));
        }
        figures.push_field("fig8_queries", queries_json(&groups));
    }

    if wants(&args.figure, "9") {
        let mut groups = Vec::new();
        for &n in &query_nodes {
            println!(
                "## Figure 9 — TPC-H query time on the downsized cluster ({} -> {} nodes)",
                n,
                n - 1
            );
            println!();
            let rows = fig9_queries(&cfg, n);
            let mismatches = answer_mismatches(&rows);
            println!("{}", format_query_rows(&rows));
            if mismatches.is_empty() {
                println!("(all schemes returned identical query answers)");
            } else {
                println!("WARNING: answer mismatches on queries {mismatches:?}");
            }
            println!();
            groups.push((n, rows));
        }
        figures.push_field("fig9_queries", queries_json(&groups));
    }

    if wants(&args.figure, "ablations") {
        println!("## Ablation A1 — Storage options for the primary index");
        println!();
        println!("| option | bucket-move read bytes | avg components per lookup |");
        println!("|---|---|---|");
        let storage = ablation_storage_options(5000);
        for r in &storage {
            println!(
                "| {} | {} | {:.1} |",
                r.option, r.bucket_move_read_bytes, r.lookup_components
            );
        }
        println!();
        println!("## Ablation A2 — Balance quality of Algorithm 2 vs round-robin");
        println!();
        println!("| bucket size skew | Algorithm 2 (max/avg) | round-robin (max/avg) |");
        println!("|---|---|---|");
        let balance = ablation_balance_quality(&[1, 2, 4, 8, 16]);
        for r in &balance {
            println!(
                "| {}x | {:.3} | {:.3} |",
                r.skew, r.algorithm2, r.round_robin
            );
        }
        println!();
        figures.push_field(
            "ablation_storage_options",
            Json::Arr(
                storage
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("option", Json::str(r.option)),
                            (
                                "bucket_move_read_bytes",
                                Json::Int(r.bucket_move_read_bytes),
                            ),
                            ("lookup_components", Json::Num(r.lookup_components)),
                        ])
                    })
                    .collect(),
            ),
        );
        figures.push_field(
            "ablation_balance_quality",
            Json::Arr(
                balance
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("skew", Json::Int(r.skew)),
                            ("algorithm2", Json::Num(r.algorithm2)),
                            ("round_robin", Json::Num(r.round_robin)),
                        ])
                    })
                    .collect(),
            ),
        );
    }

    if let Some(path) = &args.json {
        let doc = Json::obj([
            (
                "config",
                Json::obj([
                    ("orders_per_node", Json::Int(cfg.orders_per_node as u64)),
                    (
                        "partitions_per_node",
                        Json::Int(cfg.partitions_per_node as u64),
                    ),
                    ("quick", Json::Bool(args.quick)),
                    (
                        "node_counts",
                        Json::Arr(node_counts.iter().map(|&n| Json::Int(n as u64)).collect()),
                    ),
                ]),
            ),
            ("figures", figures),
        ]);
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("machine-readable results written to {path}");
    }

    if gate_failed {
        std::process::exit(1);
    }
}
