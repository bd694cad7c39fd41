//! Differential tests for per-node RPC coalescing (PR 10).
//!
//! A grouped fan-out — one `ReadPages`/`ScanSlice` envelope per Page Store
//! node, demuxed per slice — is a pure transport optimization: for any
//! workload it must return byte-identical results to the per-slice path,
//! at the live head and at a pinned snapshot, with a concurrent writer
//! churning and after a replica is killed mid-run. And because reads are
//! reads, the *end state* of two clusters running the same seeded workload
//! must not depend on whether coalescing was on: durable/CV LSNs, every
//! page image, and every scan answer agree (the determinism fingerprint).

// Test harness: panicking on setup failure is the desired behavior.
#![allow(clippy::unwrap_used)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use taurus::common::clock::ManualClock;
use taurus::common::scan::ScanRequest;
use taurus::engine::MasterEngine;
use taurus::prelude::*;

fn launch(seed: u64, coalescing: bool) -> Arc<TaurusDb> {
    let cfg = TaurusConfig {
        pages_per_slice: 4, // spread even small tables across several slices
        rpc_coalescing: coalescing,
        ..TaurusConfig::test()
    };
    TaurusDb::launch_with_clock(cfg, 4, 6, ManualClock::shared(), seed).unwrap()
}

fn settle(db: &TaurusDb) {
    let master = db.master();
    master.sal.flush_all_slices();
    for _ in 0..6000 {
        master.maintain();
        if master.sal.cv_lsn() == master.sal.durable_lsn() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}

fn key(i: u32) -> Vec<u8> {
    format!("k{i:03}").into_bytes()
}

/// Every page id of the database, straight from the Page Stores' slice
/// directories (first reachable replica per slice).
fn all_page_ids(db: &TaurusDb) -> Vec<PageId> {
    let mut ids = BTreeSet::new();
    for key in db.pages.slices() {
        if key.db != db.db {
            continue;
        }
        for node in db.pages.replicas_of(key) {
            if let Ok(pages) = db.pages.page_ids_of(node, node, key) {
                ids.extend(pages);
                break;
            }
        }
    }
    ids.into_iter().collect()
}

/// Grouped batch vs the per-page path on the same database: byte identity.
fn check_grouped_matches_singles(db: &TaurusDb, ids: &[PageId], as_of: Option<Lsn>) {
    let sal = &db.master().sal;
    let batched = sal.read_pages(ids, as_of).unwrap();
    assert_eq!(batched.len(), ids.len(), "one result per requested page");
    for (i, (page, buf)) in batched.iter().enumerate() {
        assert_eq!(*page, ids[i], "results must come back in request order");
        let single = sal.read_page(*page, as_of).unwrap();
        assert_eq!(buf.lsn(), single.lsn(), "page {page:?} at {as_of:?}");
        assert_eq!(
            buf.as_bytes(),
            single.as_bytes(),
            "page {page:?} bytes diverged at {as_of:?}"
        );
    }
}

/// Coalesced cluster vs per-slice cluster after identical histories: the
/// same pages hold the same bytes, and the LSN horizons agree — the
/// determinism fingerprint does not see the transport.
fn check_clusters_agree(on: &TaurusDb, off: &TaurusDb) {
    let (mon, moff) = (on.master(), off.master());
    assert_eq!(mon.sal.durable_lsn(), moff.sal.durable_lsn(), "durable LSN");
    assert_eq!(mon.sal.cv_lsn(), moff.sal.cv_lsn(), "CV LSN");
    let (ids_on, ids_off) = (all_page_ids(on), all_page_ids(off));
    assert_eq!(ids_on, ids_off, "page id sets diverged");
    let read_on = mon.sal.read_pages(&ids_on, None).unwrap();
    let read_off = moff.sal.read_pages(&ids_off, None).unwrap();
    for ((pa, ba), (pb, bb)) in read_on.iter().zip(read_off.iter()) {
        assert_eq!(pa, pb);
        assert_eq!(ba.as_bytes(), bb.as_bytes(), "page {pa:?} bytes diverged");
    }
    // Pushed-down scans (grouped per node on `on`, per slice on `off`)
    // return the same rows in the same order.
    let scan_on = mon.scan_pushdown(&ScanRequest::full()).unwrap();
    let scan_off = moff.scan_pushdown(&ScanRequest::full()).unwrap();
    assert_eq!(scan_on.rows, scan_off.rows, "pushdown rows diverged");
}

// ---------------------------------------------------------------------
// Proptest: random workload on twin clusters, live head + pinned snapshot
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum WOp {
    Put(u32, Vec<u8>),
    Del(u32),
}

fn apply(master: &Arc<MasterEngine>, model: &mut BTreeMap<Vec<u8>, Vec<u8>>, op: &WOp) {
    match op {
        WOp::Put(i, v) => {
            let k = key(*i);
            let mut t = master.begin();
            t.put(&k, v).unwrap();
            t.commit().unwrap();
            model.insert(k, v.clone());
        }
        WOp::Del(i) => {
            let k = key(*i);
            let mut t = master.begin();
            t.delete(&k).unwrap();
            t.commit().unwrap();
            model.remove(&k);
        }
    }
}

fn ops(max: usize) -> impl Strategy<Value = Vec<WOp>> {
    let value = || prop::collection::vec(any::<u8>(), 0..24);
    prop::collection::vec(
        prop_oneof![
            (0..48u32, value()).prop_map(|(k, v)| WOp::Put(k, v)),
            (0..48u32, value()).prop_map(|(k, v)| WOp::Put(k, v)),
            (0..48u32, value()).prop_map(|(k, v)| WOp::Put(k, v)),
            (0..48u32).prop_map(WOp::Del),
        ],
        1..max,
    )
}

proptest! {
    // Every case launches two full simulated clusters; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn coalesced_path_is_invisible_to_results(
        pre in ops(80),
        post in ops(30),
    ) {
        let on = launch(31, true);
        let off = launch(31, false);
        let mut model = BTreeMap::new();
        let mut model_off = BTreeMap::new();
        // A page-spanning base table: without it a tiny random workload
        // fits one slice and the grouped path would never engage.
        for db in [&on, &off] {
            let master = db.master();
            for i in 0..300u32 {
                let mut t = master.begin();
                t.put(&key(i), &[b'p'; 240]).unwrap();
                t.commit().unwrap();
            }
        }
        for op in &pre {
            apply(&on.master(), &mut model, op);
            apply(&off.master(), &mut model_off, op);
        }
        settle(&on);
        settle(&off);
        let ids = all_page_ids(&on);
        prop_assert!(!ids.is_empty());

        // Grouped vs per-page on the coalesced cluster, live head.
        check_grouped_matches_singles(&on, &ids, None);
        // Twin clusters agree bit for bit.
        check_clusters_agree(&on, &off);

        // Pin a snapshot on the coalesced cluster, keep writing, and
        // re-check at the *pinned* LSN: grouped reads must materialize the
        // old version of every page.
        let pin = on.master().create_snapshot("pin");
        for op in &post {
            apply(&on.master(), &mut model, op);
        }
        settle(&on);
        check_grouped_matches_singles(&on, &ids, Some(pin));

        // The coalesced cluster really did coalesce (multi-slice plans
        // exist at pages_per_slice=4), and the per-slice cluster never did.
        prop_assert!(on.master().sal.stats.snapshot().grouped_envelopes > 0);
        prop_assert_eq!(off.master().sal.stats.snapshot().grouped_envelopes, 0);
    }
}

// ---------------------------------------------------------------------
// Concurrent writer + mid-run replica kill (deterministic)
// ---------------------------------------------------------------------

#[test]
fn grouped_reads_survive_concurrent_writes_and_replica_loss() {
    let db = launch(47, true);
    let master = db.master();
    for i in 0..300u32 {
        let mut t = master.begin();
        let v = format!("v{}", i % 7).repeat(40);
        t.put(&key(i), v.as_bytes()).unwrap();
        t.commit().unwrap();
    }
    settle(&db);
    let ids = all_page_ids(&db);
    let pin = master.create_snapshot("pin");

    // A writer hammers a disjoint key range the whole time, so grouped
    // write envelopes keep flowing while we read.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let master = db.master();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let mut t = master.begin();
                t.put(format!("w{i:06}").as_bytes(), b"noise").unwrap();
                t.commit().unwrap();
                i += 1;
            }
        })
    };

    for round in 0..5 {
        if round == 2 {
            // Kill a Page Store replica mid-run — the node the next grouped
            // plan routes the first page's slice to, so an envelope is sure
            // to hit it. The dead node's slices fail over per slice, which
            // retries healthy replicas — results stay identical to the
            // per-page path.
            let victim = master.sal.read_route(ids[0], Some(pin)).unwrap();
            db.fabric.set_down(victim);
        }
        check_grouped_matches_singles(&db, &ids, Some(pin));
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();

    let stats = master.sal.stats.snapshot();
    assert!(stats.grouped_envelopes > 0, "grouped path must have run");
    assert!(
        stats.grouped_fallback_slices > 0,
        "the dead node must have forced per-slice fallback"
    );
}
