//! Repeatable benchmark of a Taurus cluster (`TaurusDb` alone, no
//! baselines), run by:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <write-cached|read-storage|scan-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets up three clusters one after another and measures each for
//! a third of `--seconds` with two closed-loop connections; every metric
//! is the median over the three. Every result is checked, and one JSON
//! object is printed as the last line of standard output. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer metrics. See
//! README.md.

mod measure;
mod procfs;
mod report;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

use measure::{Segment, CONNECTIONS};
use report::Metric;
use trace::ProbeTargets;
use workload::{Checks, Dataset, Kind};

/// Clusters per run. Each is set up and measured for a third of
/// `--seconds`; every metric is the median over them. Throughput on the
/// write workloads falls through a cluster's life and a shared host has
/// slow spells, so three short-lived clusters spread less over seeds than
/// one cluster measured for all of `--seconds` (figures in README.md).
/// `setup_s` is the median of the three set-ups.
const CLUSTERS: usize = 3;
/// Traced runs alternate untraced and traced segments in this order
/// (`U T T U` twice), so drift over the phase weighs both kinds alike.
const TRACE_PATTERN: [bool; 8] = [false, true, true, false, false, true, true, false];
/// A traced segment probes the lower layers every this many transactions
/// of each driving thread.
const PROBE_EVERY: u64 = 20;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <write-cached|read-storage|scan-mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The segments of one cluster's share of the timed phase.
fn segments(secs: f64, trace: bool) -> Vec<Segment> {
    if trace {
        let n = TRACE_PATTERN.len() as f64;
        TRACE_PATTERN
            .iter()
            .map(|&traced| Segment {
                traced,
                secs: secs / n,
            })
            .collect()
    } else {
        // Two halves, so write amplification can be compared across them.
        vec![
            Segment {
                traced: false,
                secs: secs / 2.0,
            };
            2
        ]
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for mt in metrics {
        println!("  {:<38} {:>14.3} {}", mt.name, mt.value, mt.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one benchmark; `Ok(false)` when a correctness check failed.
fn run(args: &Args) -> taurus_common::Result<bool> {
    let kind = args.kind;
    let cfg = kind.config();
    println!(
        "run: workload={} seed={} seconds={} trace={} connections={CONNECTIONS} \
         log_nodes={} page_nodes={} available_parallelism={}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload::LOG_NODES,
        workload::PAGE_NODES,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!("config: {cfg:?}");

    let data = Dataset::new(kind);
    let checks = Checks::default();
    let mut setup_times = Vec::with_capacity(CLUSTERS);
    let mut phases = Vec::with_capacity(CLUSTERS);
    let mut per_cluster = Vec::with_capacity(CLUSTERS);
    let mut peak_rss_mb = 0.0;
    for i in 0..CLUSTERS {
        let mut cluster = measure::setup(kind, &data, args.seed, &checks)?;
        setup_times.push(cluster.setup_s);
        if i == 0 {
            // Read where the work is fixed (launch, load and a fixed
            // warm-up): a faster timed phase writes more and would read as
            // more memory, and part of a dropped cluster's memory stays
            // resident.
            peak_rss_mb = procfs::peak_rss_mb();
        }
        let db = Arc::clone(&cluster.db);
        let targets = args.trace.then(|| {
            let scan = (kind == Kind::ScanMixed)
                .then(|| taurus_workload::ScanHeavyWorkload::new(0, 0).selective_request(3));
            ProbeTargets::discover(&db, scan)
        });
        let secs = args.seconds as f64 / CLUSTERS as f64;
        let mut phase = measure::timed_phase(
            &db,
            &data,
            &checks,
            args.seed,
            &segments(secs, args.trace),
            targets.as_ref(),
            PROBE_EVERY,
        );
        let cache = final_cache_ratios(&db);
        if kind.writes() {
            let mut committed = std::mem::take(&mut cluster.warmup_writes);
            committed.append(&mut phase.committed);
            let expected = workload::model(&data, committed);
            read_back(kind, &mut cluster, &expected, &checks);
        }
        drop(cluster);

        let cpu = report::Window::new(&phase, |_| true).cpu();
        println!(
            "cluster {i}: setup_s={:.3} slices={} cpu ticks (1/{}s): process={} client={} \
             fabric={} background={} residual={} (adds up within one tick per thread: {}) \
             failures by kind: {:?}",
            setup_times[i],
            db.master().sal.slice_keys().len(),
            procfs::TICKS_PER_SEC,
            cpu.process,
            cpu.client,
            cpu.fabric,
            cpu.background,
            cpu.residual(),
            cpu.adds_up(),
            phase.errors
        );
        if args.trace {
            println!("cluster {i}: probe errors: {}", phase.probes.errors);
            let path = std::path::Path::new("perfbench/out").join(format!(
                "spans-{}-seed{}-cluster{i}.tsv",
                kind.name(),
                args.seed
            ));
            if let Err(e) = trace::write_spans(&path, &phase.spans) {
                eprintln!("could not write {}: {e}", path.display());
            }
            per_cluster.push(report::per_layer(&phase, cache));
        } else {
            let e2e = report::end_to_end(&phase);
            let summary: Vec<String> = e2e
                .iter()
                .map(|mt| format!("{}={:.1}", mt.name, mt.value))
                .collect();
            println!("cluster {i}: {}", summary.join(" "));
            per_cluster.push(e2e);
        }
        phases.push(phase);
    }

    let mismatches = checks.mismatches();
    for note in checks.notes() {
        println!("MISMATCH: {note}");
    }
    println!("correctness: {mismatches} mismatches");
    let correct = mismatches == 0;

    let mut metrics = report::median_metrics(&per_cluster);
    if args.trace {
        print_metrics(
            "per-layer metrics (traced run, median over clusters)",
            &metrics,
        );
    } else {
        metrics.push(Metric {
            name: "setup_s",
            unit: "s",
            value: report::percentile(&setup_times, 0.5),
        });
        metrics.push(Metric {
            name: "peak_rss_mb",
            unit: "MiB",
            value: peak_rss_mb,
        });
        println!(
            "peak resident memory of the whole run: {:.1} MiB",
            procfs::peak_rss_mb()
        );
        print_metrics("end-to-end metrics (median over clusters)", &metrics);
        print_metrics(
            "further end-to-end figures",
            &report::other_figures(&phases, kind.writes()),
        );
    }
    let mut whole = measure::SegAcc::default();
    for phase in &phases {
        whole.absorb(&report::Window::new(phase, |_| true).acc());
    }
    println!(
        "{}",
        report::result_line(correct, whole.attempted, whole.failed, &metrics)
    );
    Ok(correct)
}

/// Reads every modelled key back after the timed phase and, on
/// `write-cached`, again after a master crash and recovery. An error on the
/// way fails the run like a mismatch does.
fn read_back(
    kind: Kind,
    cluster: &mut measure::Cluster,
    expected: &BTreeMap<Vec<u8>, Vec<u8>>,
    checks: &Checks,
) {
    let stage = "after timed phase";
    match workload::verify_table(&cluster.db.master(), expected, checks, stage) {
        Ok(keys) => println!("read-back {stage}: {keys} keys"),
        Err(e) => checks.fail(format!("read-back {stage}: {e}")),
    }
    if kind != Kind::WriteCached {
        return;
    }
    if let Err(e) = cluster.crash_and_recover_master() {
        checks.fail(format!("master crash and recovery: {e}"));
        return;
    }
    let stage = "after master crash and recovery";
    match workload::verify_table(&cluster.db.master(), expected, checks, stage) {
        Ok(keys) => println!("read-back {stage}: {keys} keys"),
        Err(e) => checks.fail(format!("read-back {stage}: {e}")),
    }
}

/// Log cache and buffer pool hit ratios since launch, averaged over the
/// Page Store servers.
fn final_cache_ratios(db: &taurus_engine::TaurusDb) -> (f64, f64) {
    let servers: Vec<_> = db
        .pages
        .server_nodes()
        .into_iter()
        .filter_map(|n| db.pages.server_handle(n))
        .collect();
    let n = servers.len().max(1) as f64;
    let (log, pool) = servers.iter().fold((0.0, 0.0), |(l, p), s| {
        let (log, pool, ..) = s.cache_stats();
        (l + log, p + pool)
    });
    (log / n, pool / n)
}
