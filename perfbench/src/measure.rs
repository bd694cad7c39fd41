//! Cluster set-up, the closed-loop driving threads, and the layer counter
//! snapshots taken at every segment boundary of the timed phase.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use taurus_common::Result;
use taurus_core::sal::ReadBatchStatsSnapshot;
use taurus_core::{NdpStatsSnapshot, SalStatsSnapshot};
use taurus_engine::db::BackgroundGuard;
use taurus_engine::TaurusDb;
use taurus_fabric::{DispatchSnapshot, NodeKind};
use taurus_pagestore::PageStoreStatsSnapshot;

use crate::procfs::{self, CpuSample};
use crate::trace::{self, ProbeTargets, ProbeTimes, Span, SpanKind, Tracer};
use crate::workload::{self, Checks, Committed, Dataset, Kind, LOG_NODES, PAGE_NODES};

/// Closed-loop client connections, one driving thread each.
pub const CONNECTIONS: usize = 2;
/// Housekeeping beat of the cluster's background thread, microseconds.
const BEAT_US: u64 = 500;

fn mix(seed: u64, salt: u64) -> u64 {
    // splitmix64 finalizer: decorrelates the per-connection streams.
    let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

const WARMUP_SALT: u64 = 0x5741_524d;
const TIMED_SALT: u64 = 0x5449_4d45;
const JITTER_SALT: u64 = 0x4a49_5454;
const PROBE_SALT: u64 = 0x5052_4f42;

/// A launched, loaded and warmed-up cluster.
pub struct Cluster {
    pub db: Arc<TaurusDb>,
    /// Housekeeping and consolidation threads; dropping the cluster stops
    /// them.
    guard: Option<BackgroundGuard>,
    /// Writes committed while warming up (part of the expected table).
    pub warmup_writes: Vec<Committed>,
    pub setup_s: f64,
}

impl Cluster {
    /// Crashes the master and recovers it. The crashed master's
    /// housekeeping (maintenance, recovery rounds and log truncation) dies
    /// with it, so the background threads stop first and restart on the
    /// recovered master.
    pub fn crash_and_recover_master(&mut self) -> Result<()> {
        drop(self.guard.take());
        let out = self.db.crash_and_recover_master();
        self.guard = Some(self.db.start_background(BEAT_US));
        out
    }
}

/// Launches the cluster, loads the table and runs the warm-up.
pub fn setup(kind: Kind, data: &Dataset, seed: u64, checks: &Checks) -> Result<Cluster> {
    let t0 = Instant::now();
    let db = TaurusDb::launch(kind.config(), LOG_NODES, PAGE_NODES)?;
    let guard = db.start_background(BEAT_US);
    workload::load(&db.master(), data)?;
    let per_conn = kind.warmup_txns_per_conn();
    let outs: Vec<Result<Vec<Committed>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let db = &db;
                s.spawn(move || {
                    let master = db.master();
                    let mut rng = StdRng::seed_from_u64(mix(seed ^ WARMUP_SALT, conn as u64));
                    let mut jitter = StdRng::seed_from_u64(mix(seed ^ JITTER_SALT, conn as u64));
                    let mut tracer = Tracer::new(Instant::now());
                    let mut writes = Vec::new();
                    for _ in 0..per_conn {
                        let txn = data.next_txn(&mut rng);
                        let done = workload::execute(
                            &master,
                            data,
                            &txn,
                            &mut tracer,
                            &mut jitter,
                            checks,
                        );
                        if let Some(c) = done.outcome? {
                            writes.push(c);
                        }
                    }
                    Ok(writes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .collect()
    });
    let mut warmup_writes = Vec::new();
    for out in outs {
        warmup_writes.extend(out?);
    }
    Ok(Cluster {
        db,
        guard: Some(guard),
        warmup_writes,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

/// Layer counters at one instant.
#[derive(Clone, Debug)]
pub struct Snap {
    pub at: Instant,
    pub sal: SalStatsSnapshot,
    pub batch: ReadBatchStatsSnapshot,
    pub ndp: NdpStatsSnapshot,
    pub log_appends: u64,
    /// Summed device stats: (append ios, random-write ios, read ios,
    /// appended bytes).
    pub log_dev: (u64, u64, u64, u64),
    pub page_dev: (u64, u64, u64, u64),
    pub store: PageStoreStatsSnapshot,
    pub dispatch: DispatchSnapshot,
    /// Engine pool readahead `(installed, hits)`.
    pub prefetch: (u64, u64),
    /// Engine pool hit ratio since launch.
    pub pool_ratio: f64,
    pub cpu: CpuSample,
}

fn add4(a: (u64, u64, u64, u64), b: (u64, u64, u64, u64)) -> (u64, u64, u64, u64) {
    (a.0 + b.0, a.1 + b.1, a.2 + b.2, a.3 + b.3)
}

pub fn snap(db: &TaurusDb) -> Snap {
    let master = db.master();
    let sal = &master.sal;
    let log_dev = db
        .fabric
        .all_nodes(NodeKind::LogStore)
        .into_iter()
        .filter_map(|n| db.logs.server_handle(n))
        .fold((0, 0, 0, 0), |acc, s| add4(acc, s.device_stats()));
    let page_dev = db
        .pages
        .server_nodes()
        .into_iter()
        .filter_map(|n| db.pages.server_handle(n))
        .fold((0, 0, 0, 0), |acc, s| add4(acc, s.device_stats()));
    Snap {
        at: Instant::now(),
        sal: sal.stats.snapshot(),
        batch: sal.read_batch_stats.snapshot(),
        ndp: sal.ndp_stats.snapshot(),
        log_appends: sal.log_stats().appends.get(),
        log_dev,
        page_dev,
        store: db.pages.store_stats(),
        dispatch: db.fabric.dispatch_snapshot(),
        prefetch: master.pool_prefetch_stats(),
        pool_ratio: master.pool_stats().0,
        cpu: procfs::cpu_sample(),
    }
}

/// One stretch of the timed phase, traced or not.
#[derive(Clone, Copy, Debug)]
pub struct Segment {
    pub traced: bool,
    pub secs: f64,
}

/// What one segment's transactions did, by the segment they started in.
#[derive(Clone, Debug, Default)]
pub struct SegAcc {
    pub attempted: u64,
    pub failed: u64,
    pub read_txns: u64,
    pub write_txns: u64,
    pub retries: u64,
    pub user_bytes: u64,
    pub read_us: Vec<f64>,
    pub commit_us: Vec<f64>,
}

impl SegAcc {
    pub fn committed(&self) -> u64 {
        self.read_txns + self.write_txns
    }

    pub fn absorb(&mut self, o: &SegAcc) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.read_txns += o.read_txns;
        self.write_txns += o.write_txns;
        self.retries += o.retries;
        self.user_bytes += o.user_bytes;
        self.read_us.extend_from_slice(&o.read_us);
        self.commit_us.extend_from_slice(&o.commit_us);
    }
}

/// Gauges sampled at the end of every traced transaction.
#[derive(Clone, Debug, Default)]
pub struct Gauges {
    pub samples: u64,
    pub busy_workers_sum: u64,
    pub queue_depth_max: u64,
    pub throttle_us_max: u64,
    pub backlog_max: u64,
}

impl Gauges {
    fn absorb(&mut self, o: &Gauges) {
        self.samples += o.samples;
        self.busy_workers_sum += o.busy_workers_sum;
        self.queue_depth_max = self.queue_depth_max.max(o.queue_depth_max);
        self.throttle_us_max = self.throttle_us_max.max(o.throttle_us_max);
        self.backlog_max = self.backlog_max.max(o.backlog_max);
    }
}

/// Everything one timed phase produced.
pub struct Phase {
    pub segments: Vec<Segment>,
    /// `segments.len() + 1` snapshots: segment `i` runs from `snaps[i]` to
    /// `snaps[i + 1]`.
    pub snaps: Vec<Snap>,
    pub accs: Vec<SegAcc>,
    pub client_tids: Vec<u64>,
    pub committed: Vec<Committed>,
    pub spans: Vec<Span>,
    pub probes: ProbeTimes,
    pub gauges: Gauges,
    pub errors: BTreeMap<String, u64>,
    /// Log Store append latencies over the whole phase, microseconds.
    pub append_us: Vec<f64>,
}

struct ThreadOut {
    tid: Option<u64>,
    accs: Vec<SegAcc>,
    committed: Vec<Committed>,
    spans: Vec<Span>,
    probes: ProbeTimes,
    gauges: Gauges,
    errors: BTreeMap<String, u64>,
}

/// The variant name of an error, for failure accounting by kind.
fn error_kind(e: &taurus_common::TaurusError) -> String {
    format!("{e:?}")
        .chars()
        .take_while(char::is_ascii_alphanumeric)
        .collect()
}

struct Driver<'a> {
    db: &'a TaurusDb,
    data: &'a Dataset,
    checks: &'a Checks,
    segments: &'a [Segment],
    segment: AtomicUsize,
    origin: Instant,
    seed: u64,
    targets: Option<&'a ProbeTargets>,
    probe_every: u64,
    /// Driving threads meet the main thread here twice after the last
    /// segment: once when their last transaction is done, and once after
    /// the final snapshot, so they are still alive when it reads their CPU
    /// time.
    finish: Barrier,
}

impl Driver<'_> {
    fn drive(&self, conn: usize) -> ThreadOut {
        let master = self.db.master();
        let mut rng = StdRng::seed_from_u64(mix(self.seed ^ TIMED_SALT, conn as u64));
        let mut jitter = StdRng::seed_from_u64(mix(self.seed ^ JITTER_SALT, conn as u64));
        let mut probe_rng = StdRng::seed_from_u64(mix(self.seed ^ PROBE_SALT, conn as u64));
        let mut tracer = Tracer::new(self.origin);
        let mut out = ThreadOut {
            tid: procfs::current_tid(),
            accs: vec![SegAcc::default(); self.segments.len()],
            committed: Vec::new(),
            spans: Vec::new(),
            probes: ProbeTimes::default(),
            gauges: Gauges::default(),
            errors: BTreeMap::new(),
        };
        let mut n: u64 = 0;
        loop {
            let seg = self.segment.load(Ordering::Acquire);
            let Some(segment) = self.segments.get(seg) else {
                break;
            };
            tracer.on = segment.traced;
            let txn = self.data.next_txn(&mut rng);
            let id = ((conn as u64) << 48) | n;
            n += 1;
            tracer.set_txn(id);
            let t0 = Instant::now();
            let done = workload::execute(
                &master,
                self.data,
                &txn,
                &mut tracer,
                &mut jitter,
                self.checks,
            );
            let elapsed = t0.elapsed();
            let us = elapsed.as_nanos() as f64 / 1e3;
            if segment.traced {
                tracer.spans.push(Span {
                    txn: id,
                    kind: SpanKind::Txn,
                    start_ns: t0.saturating_duration_since(self.origin).as_nanos() as u64,
                    dur_ns: elapsed.as_nanos() as u64,
                });
            }
            let acc = &mut out.accs[seg];
            acc.attempted += 1;
            acc.retries += u64::from(done.retries);
            match done.outcome {
                Ok(Some(c)) => {
                    acc.write_txns += 1;
                    acc.user_bytes += done.user_bytes;
                    acc.commit_us.push(us);
                    out.committed.push(c);
                }
                Ok(None) => {
                    acc.read_txns += 1;
                    acc.read_us.push(us);
                }
                Err(e) => {
                    acc.failed += 1;
                    *out.errors.entry(error_kind(&e)).or_default() += 1;
                }
            }
            if segment.traced {
                let d = self.db.fabric.dispatch_snapshot();
                let g = &mut out.gauges;
                g.samples += 1;
                g.busy_workers_sum += d.busy_workers;
                g.queue_depth_max = g.queue_depth_max.max(d.queue_depth);
                g.throttle_us_max = g.throttle_us_max.max(master.sal.current_throttle_us());
                g.backlog_max = g
                    .backlog_max
                    .max(self.db.pages.max_backlog_pressure() as u64);
                if let Some(targets) = self.targets {
                    if n.is_multiple_of(self.probe_every) {
                        trace::probe(self.db, targets, &mut probe_rng, &mut out.probes);
                    }
                }
            }
        }
        self.finish.wait();
        self.finish.wait();
        out.spans = tracer.spans;
        out
    }
}

/// Runs the timed phase: `CONNECTIONS` closed-loop driving threads with
/// zero think time, through `segments` in order. Probes run every
/// `probe_every`-th transaction of a traced segment when `targets` is set.
pub fn timed_phase(
    db: &TaurusDb,
    data: &Dataset,
    checks: &Checks,
    seed: u64,
    segments: &[Segment],
    targets: Option<&ProbeTargets>,
    probe_every: u64,
) -> Phase {
    let driver = Driver {
        db,
        data,
        checks,
        segments,
        segment: AtomicUsize::new(0),
        origin: Instant::now(),
        seed,
        targets,
        probe_every: probe_every.max(1),
        finish: Barrier::new(CONNECTIONS + 1),
    };
    let sal = Arc::clone(&db.master().sal);
    sal.log_stats().append_latency.clear();
    let mut snaps = vec![snap(db)];
    let outs: Vec<ThreadOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let driver = &driver;
                std::thread::Builder::new()
                    .name(format!("perfbench-drive-{conn}"))
                    .spawn_scoped(s, move || driver.drive(conn))
                    .expect("spawn driving thread")
            })
            .collect();
        for (i, seg) in segments.iter().enumerate() {
            std::thread::sleep(Duration::from_secs_f64(seg.secs));
            driver.segment.store(i + 1, Ordering::Release);
            if i + 1 == segments.len() {
                driver.finish.wait();
            }
            snaps.push(snap(db));
        }
        driver.finish.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("driving thread panicked"))
            .collect()
    });
    let append_us = sal
        .log_stats()
        .append_latency
        .drain()
        .into_iter()
        .map(|us| us as f64)
        .collect();
    let mut phase = Phase {
        segments: segments.to_vec(),
        snaps,
        accs: vec![SegAcc::default(); segments.len()],
        client_tids: Vec::new(),
        committed: Vec::new(),
        spans: Vec::new(),
        probes: ProbeTimes::default(),
        gauges: Gauges::default(),
        errors: BTreeMap::new(),
        append_us,
    };
    for out in outs {
        phase.client_tids.extend(out.tid);
        for (acc, o) in phase.accs.iter_mut().zip(&out.accs) {
            acc.absorb(o);
        }
        phase.committed.extend(out.committed);
        phase.spans.extend(out.spans);
        phase.probes.absorb(out.probes);
        phase.gauges.absorb(&out.gauges);
        for (k, v) in out.errors {
            *phase.errors.entry(k).or_default() += v;
        }
    }
    phase
}
