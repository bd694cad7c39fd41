//! The three workloads: their cluster configuration, data, transaction
//! generator, and the executor that runs a transaction against the master
//! and checks what it returns.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::Rng;

use taurus_common::config::{NetworkProfile, StorageProfile};
use taurus_common::{Lsn, Result, TaurusConfig, TaurusError};
use taurus_engine::MasterEngine;
use taurus_workload::{Op, ScanHeavyWorkload, SysbenchMode, SysbenchWorkload, TxnSpec, Workload};

use crate::trace::{SpanKind, Tracer};

/// Log Store and Page Store node counts of every benchmark cluster.
pub const LOG_NODES: usize = 6;
pub const PAGE_NODES: usize = 6;

/// Write conflicts are retried this many times before the transaction
/// counts as failed.
const CONFLICT_RETRIES: u32 = 10;
/// First conflict backoff; doubles per retry up to `BACKOFF_CAP_US`.
const BACKOFF_BASE_US: u64 = 50;
const BACKOFF_CAP_US: u64 = 1_600;

/// Share of `scan-mixed` transactions that write one row.
const SCAN_MIXED_WRITE_FRACTION: f64 = 0.25;
/// `scan-mixed` pushes down categories `0..SCAN_CATEGORIES`. Category 9 is
/// left out: `ScanHeavyWorkload::selective_request(9)` builds the empty
/// range `"c9".."c10"` while `selective_matches(9)` counts a tenth of the
/// rows, so its expected answer is ill-defined.
const SCAN_CATEGORIES: u8 = 9;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    WriteCached,
    ReadStorage,
    ScanMixed,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "write-cached" => Some(Kind::WriteCached),
            "read-storage" => Some(Kind::ReadStorage),
            "scan-mixed" => Some(Kind::ScanMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::WriteCached => "write-cached",
            Kind::ReadStorage => "read-storage",
            Kind::ScanMixed => "scan-mixed",
        }
    }

    /// Whether the workload commits writes (and so has a write model and a
    /// write amplification).
    pub fn writes(self) -> bool {
        !matches!(self, Kind::ReadStorage)
    }

    fn rows(self) -> u64 {
        match self {
            Kind::WriteCached => 8_000,
            Kind::ReadStorage => 40_000,
            Kind::ScanMixed => 10_000,
        }
    }

    fn value_size(self) -> usize {
        match self {
            Kind::WriteCached | Kind::ReadStorage => 200,
            Kind::ScanMixed => 48,
        }
    }

    /// Transactions each connection runs after loading, before timing.
    pub fn warmup_txns_per_conn(self) -> u64 {
        match self {
            Kind::WriteCached => 1_500,
            Kind::ReadStorage => 600,
            Kind::ScanMixed => 300,
        }
    }

    /// The full cluster configuration: the library defaults except the
    /// table shape of each workload and, on `scan-mixed`, the L0 target.
    /// Network and device costs are spelled out so that a change of the
    /// library defaults cannot change what the benchmark measures
    /// unnoticed; the run record prints every field.
    pub fn config(self) -> TaurusConfig {
        let defaults = TaurusConfig::default();
        let (pages_per_slice, pool_pages, l0_target_bytes) = match self {
            // The 4,096-page pool holds the whole ~400-page table.
            Kind::WriteCached => (512, 4_096, defaults.layer_l0_target_bytes),
            // ~1,300 pages against a 400-page pool: reads miss to storage.
            Kind::ReadStorage => (512, 400, defaults.layer_l0_target_bytes),
            // ~180 pages over 3 slices; the pool holds all of them. The
            // single-row writes ingest a few KiB per second per Page Store,
            // so a small L0 target keeps seals and L0->L1 compactions
            // running beside the scans.
            Kind::ScanMixed => (64, 4_096, 4 << 10),
        };
        TaurusConfig {
            pages_per_slice,
            engine_buffer_pool_pages: pool_pages,
            layer_l0_target_bytes: l0_target_bytes,
            network: NetworkProfile {
                hop_us: 50,
                jitter_us: 20,
                master_nic_bytes_per_sec: 0,
            },
            storage: StorageProfile {
                append_us: 20,
                random_write_us: 70,
                read_us: 60,
            },
            ..defaults
        }
    }
}

/// One generated transaction.
#[derive(Clone, Debug)]
pub enum Txn {
    /// Point gets, range scans, puts and deletes in one master transaction.
    Ops(TxnSpec),
    /// One `MasterEngine::scan_pushdown` of a value category.
    Pushdown(u8),
}

/// The loaded table plus everything needed to generate transactions and
/// check their results.
pub struct Dataset {
    pub kind: Kind,
    /// The loaded rows in key order.
    pub initial: Vec<(Vec<u8>, Vec<u8>)>,
    sysbench: SysbenchWorkload,
    scan: ScanHeavyWorkload,
    /// `scan-mixed`: the sorted keys of each category.
    category_keys: Vec<Vec<Vec<u8>>>,
}

impl Dataset {
    pub fn new(kind: Kind) -> Dataset {
        let mode = match kind {
            Kind::ReadStorage => SysbenchMode::ReadOnly,
            _ => SysbenchMode::WriteOnly,
        };
        let sysbench = SysbenchWorkload::new(mode, kind.rows(), kind.value_size());
        let scan = ScanHeavyWorkload::new(kind.rows(), kind.value_size());
        let mut initial = match kind {
            Kind::ScanMixed => scan.initial_data(),
            _ => sysbench.initial_data(),
        };
        initial.sort();
        let mut category_keys = vec![Vec::new(); 10];
        if kind == Kind::ScanMixed {
            for row in 0..kind.rows() {
                category_keys[(row % 10) as usize].push(scan.key(row));
            }
            for keys in &mut category_keys {
                keys.sort();
            }
        }
        Dataset {
            kind,
            initial,
            sysbench,
            scan,
            category_keys,
        }
    }

    /// Draws the next transaction of one connection.
    pub fn next_txn(&self, rng: &mut StdRng) -> Txn {
        match self.kind {
            Kind::WriteCached | Kind::ReadStorage => Txn::Ops(self.sysbench.next_txn(rng)),
            Kind::ScanMixed => {
                if rng.random::<f64>() < SCAN_MIXED_WRITE_FRACTION {
                    let row = rng.random_range(0..self.kind.rows());
                    Txn::Ops(TxnSpec {
                        ops: vec![Op::Put(self.scan.key(row), self.category_value(row, rng))],
                    })
                } else {
                    Txn::Pushdown(rng.random_range(0..SCAN_CATEGORIES))
                }
            }
        }
    }

    /// A fresh payload that keeps the row's category prefix, so every
    /// pushdown keeps a known answer while the rows change.
    fn category_value(&self, row: u64, rng: &mut StdRng) -> Vec<u8> {
        let mut v = format!("c{}", row % 10).into_bytes();
        while v.len() < self.kind.value_size() {
            v.push(b'a' + rng.random_range(0..26u8));
        }
        v
    }

    /// The row a loaded key belongs to (all keys are a 2-letter prefix and
    /// 12 decimal digits).
    fn row_of(key: &[u8]) -> Option<usize> {
        std::str::from_utf8(key.get(2..)?).ok()?.parse().ok()
    }

    fn check_get(&self, key: &[u8], got: Option<&[u8]>, checks: &Checks) {
        let want = Self::row_of(key)
            .and_then(|r| self.initial.get(r))
            .map(|(_, v)| v.as_slice());
        if got != want {
            checks.fail(format!(
                "get {} returned {:?} bytes, loaded {:?} bytes (or values differ)",
                String::from_utf8_lossy(key),
                got.map(<[u8]>::len),
                want.map(<[u8]>::len)
            ));
        }
    }

    fn check_scan(&self, start: &[u8], limit: usize, got: &[(Vec<u8>, Vec<u8>)], checks: &Checks) {
        let from = self.initial.partition_point(|(k, _)| k.as_slice() < start);
        let want = &self.initial[from..(from + limit).min(self.initial.len())];
        if got != want {
            checks.fail(format!(
                "scan from {} limit {limit} returned {} rows that differ from the {} loaded rows",
                String::from_utf8_lossy(start),
                got.len(),
                want.len()
            ));
        }
    }

    fn check_pushdown(&self, category: u8, rows: &[(Vec<u8>, Vec<u8>)], checks: &Checks) {
        let mut keys: Vec<&[u8]> = rows.iter().map(|(k, _)| k.as_slice()).collect();
        keys.sort_unstable();
        let want = &self.category_keys[usize::from(category)];
        let same =
            keys.len() == want.len() && keys.iter().zip(want).all(|(a, b)| *a == b.as_slice());
        if !same {
            checks.fail(format!(
                "pushdown of category c{category} returned {} keys, expected {}",
                keys.len(),
                want.len()
            ));
        }
    }
}

/// Result mismatches found while running; any mismatch fails the run.
#[derive(Default)]
pub struct Checks {
    mismatches: AtomicU64,
    notes: Mutex<Vec<String>>,
}

impl Checks {
    pub fn fail(&self, note: String) {
        self.mismatches.fetch_add(1, Ordering::Relaxed);
        let mut notes = self.notes.lock().expect("check notes lock poisoned");
        if notes.len() < 8 {
            notes.push(note);
        }
    }

    pub fn mismatches(&self) -> u64 {
        self.mismatches.load(Ordering::Relaxed)
    }

    pub fn notes(&self) -> Vec<String> {
        self.notes
            .lock()
            .expect("check notes lock poisoned")
            .clone()
    }
}

/// The effect of one committed write transaction: the final value of each
/// key it wrote (`None` = deleted), at the LSN its commit returned.
pub struct Committed {
    pub lsn: Lsn,
    pub writes: Vec<(Vec<u8>, Option<Vec<u8>>)>,
}

/// A finished transaction.
pub struct Done {
    /// Conflict retries it took.
    pub retries: u32,
    pub outcome: Result<Option<Committed>>,
    /// Key plus value bytes of every write operation submitted.
    pub user_bytes: u64,
}

/// Runs one transaction, retrying write conflicts a bounded number of times
/// with a jittered exponential backoff.
pub fn execute(
    master: &Arc<MasterEngine>,
    data: &Dataset,
    txn: &Txn,
    tracer: &mut Tracer,
    jitter: &mut StdRng,
    checks: &Checks,
) -> Done {
    let mut retries = 0;
    loop {
        match attempt(master, data, txn, tracer, checks) {
            Err(TaurusError::WriteConflict { .. }) if retries < CONFLICT_RETRIES => {
                let cap = (BACKOFF_BASE_US << retries).min(BACKOFF_CAP_US);
                let wait = jitter.random_range(cap / 2..=cap);
                std::thread::sleep(Duration::from_micros(wait));
                retries += 1;
            }
            outcome => {
                return Done {
                    retries,
                    outcome,
                    user_bytes: user_bytes(txn),
                }
            }
        }
    }
}

fn user_bytes(txn: &Txn) -> u64 {
    let Txn::Ops(spec) = txn else { return 0 };
    spec.ops
        .iter()
        .map(|op| match op {
            Op::Put(k, v) => (k.len() + v.len()) as u64,
            Op::Delete(k) => k.len() as u64,
            Op::Get(_) | Op::Scan(..) => 0,
        })
        .sum()
}

fn attempt(
    master: &Arc<MasterEngine>,
    data: &Dataset,
    txn: &Txn,
    tracer: &mut Tracer,
    checks: &Checks,
) -> Result<Option<Committed>> {
    let spec = match txn {
        Txn::Pushdown(category) => {
            let req = data.scan.selective_request(*category);
            let span = tracer.begin();
            let scan = master.scan_pushdown(&req)?;
            tracer.end(SpanKind::Pushdown, span);
            data.check_pushdown(*category, &scan.rows, checks);
            return Ok(None);
        }
        Txn::Ops(spec) => spec,
    };
    let mut t = master.begin();
    let mut writes: BTreeMap<&[u8], Option<&[u8]>> = BTreeMap::new();
    for op in &spec.ops {
        match op {
            Op::Get(k) => {
                let span = tracer.begin();
                let got = t.get(k)?;
                tracer.end(SpanKind::Get, span);
                data.check_get(k, got.as_deref(), checks);
            }
            Op::Scan(k, n) => {
                let span = tracer.begin();
                let got = t.scan(k, *n)?;
                tracer.end(SpanKind::Scan, span);
                data.check_scan(k, *n, &got, checks);
            }
            Op::Put(k, v) => {
                t.put(k, v)?;
                writes.insert(k, Some(v));
            }
            Op::Delete(k) => {
                t.delete(k)?;
                writes.insert(k, None);
            }
        }
    }
    if writes.is_empty() {
        t.commit()?;
        return Ok(None);
    }
    let span = tracer.begin();
    let lsn = t.commit()?;
    tracer.end(SpanKind::Commit, span);
    Ok(Some(Committed {
        lsn,
        writes: writes
            .into_iter()
            .map(|(k, v)| (k.to_vec(), v.map(<[u8]>::to_vec)))
            .collect(),
    }))
}

/// Loads the table in 256-row transactions.
pub fn load(master: &Arc<MasterEngine>, data: &Dataset) -> Result<()> {
    for chunk in data.initial.chunks(256) {
        let mut t = master.begin();
        for (k, v) in chunk {
            t.put(k, v)?;
        }
        t.commit()?;
    }
    Ok(())
}

/// The expected table: the loaded rows with every committed write applied
/// in commit-LSN order. A key's writers are serialized by its write lock
/// (held until the durable ack), so their LSNs order them.
pub fn model(data: &Dataset, mut committed: Vec<Committed>) -> BTreeMap<Vec<u8>, Vec<u8>> {
    committed.sort_by_key(|c| c.lsn);
    let mut table: BTreeMap<Vec<u8>, Vec<u8>> = data.initial.iter().cloned().collect();
    for c in committed {
        for (k, v) in c.writes {
            match v {
                Some(v) => table.insert(k, v),
                None => table.remove(&k),
            };
        }
    }
    table
}

/// Reads every modelled key back and compares the whole table with one
/// full scan. Returns the number of keys compared.
pub fn verify_table(
    master: &Arc<MasterEngine>,
    expected: &BTreeMap<Vec<u8>, Vec<u8>>,
    checks: &Checks,
    stage: &str,
) -> Result<usize> {
    for (k, v) in expected {
        let got = master.get(k)?;
        if got.as_deref() != Some(v.as_slice()) {
            checks.fail(format!(
                "{stage}: key {} reads back {:?} bytes, model has {} bytes (or values differ)",
                String::from_utf8_lossy(k),
                got.as_ref().map(Vec::len),
                v.len()
            ));
        }
    }
    let table = master.scan(b"", expected.len() + 1)?;
    let same = table.len() == expected.len()
        && table
            .iter()
            .zip(expected)
            .all(|((k, v), (ek, ev))| k == ek && v == ev);
    if !same {
        checks.fail(format!(
            "{stage}: full scan returned {} rows that differ from the {} modelled rows",
            table.len(),
            expected.len()
        ));
    }
    Ok(expected.len())
}
