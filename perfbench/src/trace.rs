//! Spans recorded from the benchmark's own calls into the engine, and the
//! probes that time single calls into the lower layers.
//!
//! A span is kept per transaction (the parent) and per call into the
//! engine inside it (`Txn::get`, `Txn::scan`, `Txn::commit`,
//! `MasterEngine::scan_pushdown`). Spans stay in memory and are written
//! out when the run ends. Probes are issued by the driving threads between
//! transactions, so they see the workload's contention without an extra
//! thread.

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;

use taurus_common::scan::ScanRequest;
use taurus_common::{NodeId, PageId, SliceKey};
use taurus_engine::TaurusDb;
use taurus_pagestore::ScanSliceRequest;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    Txn,
    Get,
    Scan,
    Commit,
    Pushdown,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::Txn => "txn",
            SpanKind::Get => "engine.get",
            SpanKind::Scan => "engine.scan",
            SpanKind::Commit => "engine.commit",
            SpanKind::Pushdown => "engine.pushdown",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Transaction id, shared by the transaction span and its children.
    pub txn: u64,
    pub kind: SpanKind,
    /// Start, nanoseconds since the timed phase began.
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// One driving thread's span recorder. Off in untraced segments, where
/// `begin` does not even read the clock.
pub struct Tracer {
    origin: Instant,
    pub on: bool,
    txn: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            on: false,
            txn: 0,
            spans: Vec::new(),
        }
    }

    /// Sets the id the next spans belong to.
    pub fn set_txn(&mut self, txn: u64) {
        self.txn = txn;
    }

    pub fn begin(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    pub fn end(&mut self, kind: SpanKind, started: Option<Instant>) {
        if let Some(s) = started {
            self.spans.push(Span {
                txn: self.txn,
                kind,
                start_ns: s.saturating_duration_since(self.origin).as_nanos() as u64,
                dur_ns: s.elapsed().as_nanos() as u64,
            });
        }
    }
}

/// Writes spans as tab-separated `txn kind start_ns dur_ns` lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "txn\tkind\tstart_ns\tdur_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}",
            s.txn,
            s.kind.name(),
            s.start_ns,
            s.dur_ns
        )?;
    }
    out.flush()
}

/// Per-kind span durations and the transactions' self times.
#[derive(Default)]
pub struct SpanStats {
    pub get_us: Vec<f64>,
    pub scan_us: Vec<f64>,
    pub commit_us: Vec<f64>,
    pub pushdown_us: Vec<f64>,
    /// Transaction span minus the time its child spans cover.
    pub txn_self_us: Vec<f64>,
}

impl SpanStats {
    /// Spans must be grouped by transaction, parent last (the order a
    /// driving thread records them in).
    pub fn from_spans(spans: &[Span]) -> SpanStats {
        let mut st = SpanStats::default();
        let mut children_ns = 0u64;
        for s in spans {
            let us = s.dur_ns as f64 / 1e3;
            match s.kind {
                SpanKind::Txn => {
                    st.txn_self_us
                        .push(s.dur_ns.saturating_sub(children_ns) as f64 / 1e3);
                    children_ns = 0;
                    continue;
                }
                SpanKind::Get => st.get_us.push(us),
                SpanKind::Scan => st.scan_us.push(us),
                SpanKind::Commit => st.commit_us.push(us),
                SpanKind::Pushdown => st.pushdown_us.push(us),
            }
            children_ns += s.dur_ns;
        }
        st
    }
}

/// Where the probes read: for every slice, one replica and the page ids its
/// Log Directory tracks (`PageStoreCluster::page_ids_of`).
pub struct ProbeTargets {
    slices: Vec<(SliceKey, NodeId, Vec<PageId>)>,
    me: NodeId,
    /// `scan-mixed` also probes `PageStoreServer::scan_slice` with this
    /// request.
    scan: Option<ScanRequest>,
    max_rows: usize,
    max_bytes: usize,
}

impl ProbeTargets {
    pub fn discover(db: &TaurusDb, scan: Option<ScanRequest>) -> ProbeTargets {
        let sal = Arc::clone(&db.master().sal);
        let mut slices = Vec::new();
        for key in sal.slice_keys() {
            let Some(&node) = db.pages.replicas_of(key).first() else {
                continue;
            };
            if let Ok(mut ids) = db.pages.page_ids_of(node, sal.me, key) {
                ids.sort_unstable();
                if !ids.is_empty() {
                    slices.push((key, node, ids));
                }
            }
        }
        ProbeTargets {
            slices,
            me: sal.me,
            scan,
            max_rows: sal.cfg.ndp_scan_max_rows,
            max_bytes: sal.cfg.ndp_scan_max_bytes,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }
}

/// Probe durations in microseconds.
#[derive(Default)]
pub struct ProbeTimes {
    pub sal_read_page: Vec<f64>,
    pub sal_read_pages: Vec<f64>,
    pub ps_read_page: Vec<f64>,
    pub ps_read_page_from: Vec<f64>,
    pub fabric_call: Vec<f64>,
    pub ps_scan_slice: Vec<f64>,
    /// `Sal::read_page` calls the probes made (they show up in the SAL's
    /// page-read counter).
    pub sal_page_reads: u64,
    pub errors: u64,
}

impl ProbeTimes {
    pub fn absorb(&mut self, other: ProbeTimes) {
        self.sal_read_page.extend(other.sal_read_page);
        self.sal_read_pages.extend(other.sal_read_pages);
        self.ps_read_page.extend(other.ps_read_page);
        self.ps_read_page_from.extend(other.ps_read_page_from);
        self.fabric_call.extend(other.fabric_call);
        self.ps_scan_slice.extend(other.ps_scan_slice);
        self.sal_page_reads += other.sal_page_reads;
        self.errors += other.errors;
    }
}

/// Pages per `Sal::read_pages` probe.
const READ_PAGES_PROBE: usize = 8;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64 / 1e3)
}

/// Issues one round of probes against a randomly chosen page.
pub fn probe(db: &TaurusDb, targets: &ProbeTargets, rng: &mut StdRng, out: &mut ProbeTimes) {
    if targets.is_empty() {
        return;
    }
    let (key, node, ids) = &targets.slices[rng.random_range(0..targets.slices.len())];
    let (key, node) = (*key, *node);
    let i = rng.random_range(0..ids.len());
    let page = ids[i];
    let batch: Vec<PageId> = (0..READ_PAGES_PROBE.min(ids.len()))
        .map(|j| ids[(i + j) % ids.len()])
        .collect();
    let sal = Arc::clone(&db.master().sal);
    let Some(server) = db.pages.server_handle(node) else {
        out.errors += 1;
        return;
    };

    let (r, us) = timed(|| sal.read_page(page, None));
    out.sal_page_reads += 1;
    match r {
        Ok(_) => out.sal_read_page.push(us),
        Err(_) => out.errors += 1,
    }
    let (r, us) = timed(|| sal.read_pages(&batch, None));
    match r {
        Ok(_) => out.sal_read_pages.push(us),
        Err(_) => out.errors += 1,
    }
    // The replica's own persistent LSN is a version it can always serve.
    let Ok(as_of) = server.get_persistent_lsn(key) else {
        out.errors += 1;
        return;
    };
    let (r, us) = timed(|| server.read_page(key, page, as_of));
    match r {
        Ok(_) => out.ps_read_page.push(us),
        Err(_) => out.errors += 1,
    }
    let (r, us) = timed(|| db.pages.read_page_from(node, targets.me, key, page, as_of));
    match r {
        Ok(_) => out.ps_read_page_from.push(us),
        Err(_) => out.errors += 1,
    }
    let (r, us) = timed(|| db.fabric.call(targets.me, node, || ()));
    match r {
        Ok(()) => out.fabric_call.push(us),
        Err(_) => out.errors += 1,
    }
    if let Some(req) = &targets.scan {
        let call = ScanSliceRequest {
            key,
            as_of,
            req: req.clone(),
            resume_after: None,
            max_rows: targets.max_rows,
            max_bytes: targets.max_bytes,
        };
        let (r, us) = timed(|| server.scan_slice(&call));
        match r {
            Ok(_) => out.ps_scan_slice.push(us),
            Err(_) => out.errors += 1,
        }
    }
}
