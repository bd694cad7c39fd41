//! Turns a timed phase into named metrics.
//!
//! End-to-end metrics come from untraced runs. Per-layer metrics come from
//! traced runs, whose timed phase alternates untraced and traced segments:
//! counter deltas are taken over the untraced segments only (so the probes'
//! own reads do not count), span and probe timings over the traced ones,
//! and the throughput of the two kinds gives the tracing overhead.

use crate::measure::{Phase, SegAcc, Snap};
use crate::procfs::{self, CpuSplit};
use crate::trace::SpanStats;

/// One named value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// Nearest-rank percentile (the smallest sample with at least `p` of the
/// samples at or below it); 0 with no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
fn per(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A set of segments of a phase, read as one window.
pub struct Window<'a> {
    phase: &'a Phase,
    segs: Vec<usize>,
}

impl<'a> Window<'a> {
    pub fn new(phase: &'a Phase, pick: impl Fn(usize) -> bool) -> Window<'a> {
        let segs = (0..phase.segments.len()).filter(|&i| pick(i)).collect();
        Window { phase, segs }
    }

    fn delta(&self, f: impl Fn(&Snap) -> u64) -> u64 {
        let s = &self.phase.snaps;
        self.segs
            .iter()
            .map(|&i| f(&s[i + 1]).saturating_sub(f(&s[i])))
            .sum()
    }

    fn secs(&self) -> f64 {
        let s = &self.phase.snaps;
        self.segs
            .iter()
            .map(|&i| s[i + 1].at.duration_since(s[i].at).as_secs_f64())
            .sum()
    }

    pub fn acc(&self) -> SegAcc {
        let mut acc = SegAcc::default();
        for &i in &self.segs {
            acc.absorb(&self.phase.accs[i]);
        }
        acc
    }

    pub fn cpu(&self) -> CpuSplit {
        let s = &self.phase.snaps;
        let mut split = CpuSplit::default();
        for &i in &self.segs {
            split.add(CpuSplit::between(
                &s[i].cpu,
                &s[i + 1].cpu,
                &self.phase.client_tids,
            ));
        }
        split
    }

    /// Device bytes appended on every Log Store and Page Store per user
    /// key+value byte committed.
    pub fn write_amp(&self) -> f64 {
        let device = self.delta(|s| s.log_dev.3) + self.delta(|s| s.page_dev.3);
        per(device, self.acc().user_bytes)
    }

    pub fn tps(&self) -> f64 {
        let secs = self.secs();
        if secs > 0.0 {
            self.acc().committed() as f64 / secs
        } else {
            0.0
        }
    }
}

fn first_half(phase: &Phase) -> Window<'_> {
    let n = phase.segments.len();
    Window::new(phase, |i| 2 * i < n)
}

fn second_half(phase: &Phase) -> Window<'_> {
    let n = phase.segments.len();
    Window::new(phase, |i| 2 * i >= n)
}

/// The end-to-end metrics of one cluster's untraced phase that
/// `BENCHMARK.json` declares (with `setup_s` and `peak_rss_mb`, which
/// belong to the whole run): present on every workload, never 0.
pub fn end_to_end(phase: &Phase) -> Vec<Metric> {
    let all = Window::new(phase, |_| true);
    let acc = all.acc();
    let mut txn_us = acc.read_us.clone();
    txn_us.extend_from_slice(&acc.commit_us);
    vec![
        m("tps", "1/s", all.tps()),
        m("txn_p50_us", "us", percentile(&txn_us, 0.50)),
        m("txn_p95_us", "us", percentile(&txn_us, 0.95)),
        m(
            "cpu_us_per_txn",
            "us",
            procfs::ticks_to_us(all.cpu().process) / acc.committed().max(1) as f64,
        ),
    ]
}

/// Figures the run prints by name besides the declared ones: the class
/// split (pooled over every cluster's samples) and the figures that apply
/// to some workloads only.
pub fn other_figures(phases: &[Phase], writes: bool) -> Vec<Metric> {
    let mut acc = SegAcc::default();
    for phase in phases {
        acc.absorb(&Window::new(phase, |_| true).acc());
    }
    let mut txn_us = acc.read_us.clone();
    txn_us.extend_from_slice(&acc.commit_us);
    let mut other = vec![
        m("txn_p99_us", "us", percentile(&txn_us, 0.99)),
        m("read_p50_us", "us", percentile(&acc.read_us, 0.50)),
        m("read_p99_us", "us", percentile(&acc.read_us, 0.99)),
        m("commit_p50_us", "us", percentile(&acc.commit_us, 0.50)),
        m("commit_p99_us", "us", percentile(&acc.commit_us, 0.99)),
        m("failed_frac", "ratio", per(acc.failed, acc.attempted)),
        m("samples.read", "count", acc.read_us.len() as f64),
        m("samples.commit", "count", acc.commit_us.len() as f64),
    ];
    if writes {
        let amp: Vec<Vec<Metric>> = phases
            .iter()
            .map(|phase| {
                vec![
                    m(
                        "write_amp",
                        "ratio",
                        Window::new(phase, |_| true).write_amp(),
                    ),
                    m(
                        "write_amp.first_half",
                        "ratio",
                        first_half(phase).write_amp(),
                    ),
                    m(
                        "write_amp.second_half",
                        "ratio",
                        second_half(phase).write_amp(),
                    ),
                ]
            })
            .collect();
        other.extend(median_metrics(&amp));
    }
    other
}

/// Per-name median over clusters (every cluster reports the same names in
/// the same order).
pub fn median_metrics(per_cluster: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = per_cluster.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, mt)| {
            let values: Vec<f64> = per_cluster.iter().map(|c| c[i].value).collect();
            m(mt.name, mt.unit, percentile(&values, 0.5))
        })
        .collect()
}

/// The engine pool's hit ratio over the phase. The engine exposes only its
/// hit ratio since launch, but every demand miss is one `Sal::read_page`
/// call, so misses are the SAL page-read count less the probes' reads, and
/// hits follow from the ratio.
fn engine_pool_hit_ratio(phase: &Phase) -> f64 {
    let (Some(start), Some(end)) = (phase.snaps.first(), phase.snaps.last()) else {
        return 0.0;
    };
    let hits = |misses: f64, ratio: f64| {
        if ratio < 1.0 {
            misses * ratio / (1.0 - ratio)
        } else {
            f64::NAN
        }
    };
    let m0 = start.sal.page_reads as f64;
    let m1 = end
        .sal
        .page_reads
        .saturating_sub(phase.probes.sal_page_reads) as f64;
    if m1 <= m0 {
        return 1.0;
    }
    let h0 = hits(m0, start.pool_ratio);
    let h1 = hits(m1, end.pool_ratio);
    let dh = (h1 - if h0.is_nan() { 0.0 } else { h0 }).max(0.0);
    dh / (dh + (m1 - m0))
}

/// The per-layer figures of a traced phase (segments alternate untraced
/// and traced).
pub fn per_layer(phase: &Phase, final_cache: (f64, f64)) -> Vec<Metric> {
    let plain = Window::new(phase, |i| !phase.segments[i].traced);
    let traced = Window::new(phase, |i| phase.segments[i].traced);
    let all = Window::new(phase, |_| true);
    let u = plain.acc();
    let txns = u.committed();
    let commits = u.write_txns;
    let sp = SpanStats::from_spans(&phase.spans);
    let pr = &phase.probes;
    let cpu = plain.cpu();
    let g = &phase.gauges;
    let whole = all.acc();
    let p50 = |v: &[f64]| percentile(v, 0.50);
    let p99 = |v: &[f64]| percentile(v, 0.99);
    let sal_read_page = p50(&pr.sal_read_page);
    let ps_read_page = p50(&pr.ps_read_page);
    let ps_read_page_from = p50(&pr.ps_read_page_from);
    let scans = plain.delta(|s| s.ndp.pushdown_scans);
    let batch_rpcs = plain.delta(|s| s.batch.batch_rpcs);
    let tps_plain = plain.tps();
    vec![
        // engine
        m("engine.get_us.p50", "us", p50(&sp.get_us)),
        m("engine.get_us.p99", "us", p99(&sp.get_us)),
        m("engine.scan_us.p50", "us", p50(&sp.scan_us)),
        m("engine.scan_us.p99", "us", p99(&sp.scan_us)),
        m("engine.commit_us.p50", "us", p50(&sp.commit_us)),
        m("engine.commit_us.p99", "us", p99(&sp.commit_us)),
        m("engine.pushdown_us.p50", "us", p50(&sp.pushdown_us)),
        m("engine.pushdown_us.p99", "us", p99(&sp.pushdown_us)),
        m("engine.txn_self_us", "us", mean(&sp.txn_self_us)),
        m(
            "engine.conflict_retries_per_txn",
            "count/txn",
            per(whole.retries, whole.committed()),
        ),
        m(
            "engine.pool_hit_ratio",
            "ratio",
            engine_pool_hit_ratio(phase),
        ),
        m(
            "engine.prefetch_hits_per_txn",
            "count/txn",
            per(plain.delta(|s| s.prefetch.1), txns),
        ),
        // sal
        m("sal.read_page_us", "us", sal_read_page),
        m("sal.read_pages_us", "us", p50(&pr.sal_read_pages)),
        m(
            "sal.page_reads_per_txn",
            "count/txn",
            per(plain.delta(|s| s.sal.page_reads), txns),
        ),
        m("sal.batch_rpcs_per_txn", "count/txn", per(batch_rpcs, txns)),
        m(
            "sal.pages_per_batch_rpc",
            "pages/rpc",
            per(plain.delta(|s| s.batch.pages_returned), batch_rpcs),
        ),
        m(
            "sal.read_retries_per_txn",
            "count/txn",
            per(plain.delta(|s| s.sal.read_retries), txns),
        ),
        m(
            "sal.grouped_envelopes_per_txn",
            "count/txn",
            per(plain.delta(|s| s.sal.grouped_envelopes), txns),
        ),
        m(
            "sal.log_flushes_per_commit",
            "count/commit",
            per(plain.delta(|s| s.sal.log_flushes), commits),
        ),
        m(
            "sal.group_commit_waits_per_commit",
            "count/commit",
            per(plain.delta(|s| s.sal.group_commit_waits), commits),
        ),
        m(
            "sal.slice_flushes_per_commit",
            "count/commit",
            per(plain.delta(|s| s.sal.slice_flushes), commits),
        ),
        m(
            "sal.write_retries",
            "count",
            all.delta(|s| s.sal.write_retries) as f64,
        ),
        m(
            "sal.write_timeouts",
            "count",
            all.delta(|s| s.sal.write_timeouts) as f64,
        ),
        m(
            "sal.queue_full_drops",
            "count",
            all.delta(|s| s.sal.queue_full_drops) as f64,
        ),
        m("sal.throttle_us.max", "us", g.throttle_us_max as f64),
        // ndp
        m(
            "ndp.rows_scanned_per_scan",
            "rows/scan",
            per(plain.delta(|s| s.ndp.rows_scanned), scans),
        ),
        m(
            "ndp.pages_scanned_per_scan",
            "pages/scan",
            per(plain.delta(|s| s.ndp.pages_scanned), scans),
        ),
        m(
            "ndp.bytes_returned_per_scan",
            "B/scan",
            per(plain.delta(|s| s.ndp.bytes_returned), scans),
        ),
        m(
            "ndp.slice_calls_per_scan",
            "count/scan",
            per(plain.delta(|s| s.ndp.slice_calls), scans),
        ),
        m(
            "ndp.fallbacks",
            "count",
            all.delta(|s| s.ndp.fallbacks) as f64,
        ),
        m("pagestore.scan_slice_us", "us", p50(&pr.ps_scan_slice)),
        // logstore
        m("logstore.append_us.p50", "us", p50(&phase.append_us)),
        m("logstore.append_us.p99", "us", p99(&phase.append_us)),
        m(
            "logstore.appends_per_commit",
            "count/commit",
            per(plain.delta(|s| s.log_appends), commits),
        ),
        m(
            "logstore.bytes_per_commit",
            "B/commit",
            per(plain.delta(|s| s.log_dev.3), commits),
        ),
        m(
            "logstore.append_ios_per_commit",
            "count/commit",
            per(plain.delta(|s| s.log_dev.0), commits),
        ),
        // pagestore
        m("pagestore.read_page_us", "us", ps_read_page),
        m("pagestore.read_page_from_us", "us", ps_read_page_from),
        m(
            "pagestore.device_read_ios_per_txn",
            "count/txn",
            per(plain.delta(|s| s.page_dev.2), txns),
        ),
        m(
            "pagestore.bytes_appended_per_commit",
            "B/commit",
            per(plain.delta(|s| s.page_dev.3), commits),
        ),
        m(
            "pagestore.random_write_ios_per_commit",
            "count/commit",
            per(plain.delta(|s| s.page_dev.1), commits),
        ),
        m(
            "pagestore.l0_sealed",
            "count",
            all.delta(|s| s.store.l0_sealed) as f64,
        ),
        m(
            "pagestore.l1_compactions",
            "count",
            all.delta(|s| s.store.l1_compactions) as f64,
        ),
        m(
            "pagestore.pages_compacted",
            "count",
            all.delta(|s| s.store.pages_compacted) as f64,
        ),
        m(
            "pagestore.staged_hits_per_txn",
            "count/txn",
            per(plain.delta(|s| s.store.staged_record_hits), txns),
        ),
        m(
            "pagestore.l0_run_hits_per_txn",
            "count/txn",
            per(plain.delta(|s| s.store.l0_run_hits), txns),
        ),
        m(
            "pagestore.l0_blob_reads_per_txn",
            "count/txn",
            per(plain.delta(|s| s.store.l0_blob_reads), txns),
        ),
        m("pagestore.log_cache_hit_ratio", "ratio", final_cache.0),
        m("pagestore.pool_hit_ratio", "ratio", final_cache.1),
        m("pagestore.backlog_max", "B", g.backlog_max as f64),
        // fabric
        m("fabric.call_us", "us", p50(&pr.fabric_call)),
        m(
            "fabric.pool_jobs_per_txn",
            "count/txn",
            per(plain.delta(|s| s.dispatch.pool_jobs), txns),
        ),
        m(
            "fabric.inline_jobs_per_txn",
            "count/txn",
            per(plain.delta(|s| s.dispatch.inline_jobs), txns),
        ),
        m(
            "fabric.detached_jobs_per_txn",
            "count/txn",
            per(plain.delta(|s| s.dispatch.detached_jobs), txns),
        ),
        m("fabric.max_queue_depth", "count", g.queue_depth_max as f64),
        m(
            "fabric.busy_workers_mean",
            "count",
            per(g.busy_workers_sum, g.samples),
        ),
        // self times derived from the probes
        m(
            "derived.sal_self_us",
            "us",
            sal_read_page - ps_read_page_from,
        ),
        m("derived.fabric_us", "us", ps_read_page_from - ps_read_page),
        // process CPU split
        m(
            "cpu.client_us_per_txn",
            "us",
            procfs::ticks_to_us(cpu.client) / txns.max(1) as f64,
        ),
        m(
            "cpu.fabric_us_per_txn",
            "us",
            procfs::ticks_to_us(cpu.fabric) / txns.max(1) as f64,
        ),
        m(
            "cpu.background_us_per_txn",
            "us",
            procfs::ticks_to_us(cpu.background) / txns.max(1) as f64,
        ),
        // driver and tracing
        m("driver.samples.read", "count", whole.read_us.len() as f64),
        m(
            "driver.samples.commit",
            "count",
            whole.commit_us.len() as f64,
        ),
        m(
            "trace.overhead_frac",
            "ratio",
            if tps_plain > 0.0 {
                1.0 - traced.tps() / tps_plain
            } else {
                0.0
            },
        ),
        m(
            "steady.write_amp.first_half",
            "ratio",
            first_half(phase).write_amp(),
        ),
        m(
            "steady.write_amp.second_half",
            "ratio",
            second_half(phase).write_amp(),
        ),
    ]
}

/// Writes a metric map as a JSON object body.
fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|mt| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                mt.name, mt.value, mt.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(metrics)
    )
}
