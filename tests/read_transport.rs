//! The SAL's one read transport, seen from its three entry points.
//!
//! `Sal::read_page` is a one-page batch on the same executor that runs
//! `Sal::read_pages` and `Sal::scan_pushdown`. These tests pin down what
//! that must not change: a recycled version fails both point and batched
//! reads with `VersionRecycled`, a point read and a batch of one agree
//! byte for byte while the slice's primary replica is down, and every
//! fabric round trip is counted exactly once — point reads as
//! `page_reads`, batches as `batch_rpcs`, one per grouped envelope.

// Test harness: panicking on setup failure is the desired behavior.
#![allow(clippy::unwrap_used)]

use std::collections::BTreeSet;
use std::sync::Arc;

use taurus::common::clock::ManualClock;
use taurus::prelude::*;

fn launch(seed: u64, coalescing: bool) -> Arc<TaurusDb> {
    let cfg = TaurusConfig {
        pages_per_slice: 4, // spread a small table across several slices
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

/// Writes `rows` keys, every value tagged with `round`.
fn write_rows(db: &TaurusDb, rows: u32, round: u32) {
    let master = db.master();
    for i in 0..rows {
        let mut t = master.begin();
        let v = format!("r{round}-{i}").repeat(40);
        t.put(format!("k{i:03}").as_bytes(), v.as_bytes()).unwrap();
        t.commit().unwrap();
    }
    settle(db);
}

/// Every page id of the database, from the Page Stores' slice directories.
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

#[test]
fn recycled_versions_fail_point_and_batched_reads_alike() {
    let db = launch(11, true);
    let sal = &db.master().sal;
    write_rows(&db, 200, 0);
    let old = sal.durable_lsn();
    let ids = all_page_ids(&db);
    for &page in &ids {
        sal.read_page(page, Some(old)).unwrap();
    }
    // Rewrite every row, so each leaf's slice head moves past `old`, then
    // recycle every version below the new durable LSN.
    write_rows(&db, 200, 1);
    sal.set_recycle_lsn(sal.durable_lsn());

    let mut recycled = Vec::new();
    for &page in &ids {
        match sal.read_page(page, Some(old)) {
            // A slice that took no record after `old` still has it as its
            // head, which stays readable.
            Ok(_) => {}
            Err(TaurusError::VersionRecycled { .. }) => recycled.push(page),
            Err(e) => panic!("point read of {page:?} at {old:?}: {e}"),
        }
    }
    assert!(!recycled.is_empty(), "rewriting every row moved some head");
    for &page in &recycled {
        let err = sal.read_pages(&[page], Some(old)).unwrap_err();
        assert!(
            matches!(err, TaurusError::VersionRecycled { .. }),
            "batched read of {page:?}: {err}"
        );
    }
    let err = sal.read_pages(&ids, Some(old)).unwrap_err();
    assert!(matches!(err, TaurusError::VersionRecycled { .. }), "{err}");
    // The live head is untouched by recycling.
    assert_eq!(sal.read_pages(&ids, None).unwrap().len(), ids.len());
}

#[test]
fn point_read_and_batch_of_one_agree_with_the_primary_down() {
    let db = launch(12, true);
    let master = db.master();
    let sal = &master.sal;
    write_rows(&db, 200, 0);
    let pin = master.create_snapshot("pin");
    write_rows(&db, 200, 1);
    let ids = all_page_ids(&db);
    let before: Vec<PageBuf> = ids
        .iter()
        .map(|&p| sal.read_page(p, Some(pin)).unwrap())
        .collect();

    let victim = sal.read_route(ids[0], Some(pin)).unwrap();
    db.fabric.set_down(victim);
    let retries = sal.stats.read_retries.get();
    for as_of in [Some(pin), None] {
        for (i, &page) in ids.iter().enumerate() {
            let single = sal.read_page(page, as_of).unwrap();
            let batch = sal.read_pages(&[page], as_of).unwrap();
            assert_eq!(batch.len(), 1);
            assert_eq!(batch[0].0, page);
            assert_eq!(single.lsn(), batch[0].1.lsn(), "{page:?} at {as_of:?}");
            assert_eq!(
                single.as_bytes(),
                batch[0].1.as_bytes(),
                "{page:?} bytes diverged at {as_of:?}"
            );
            if as_of.is_some() {
                assert_eq!(single.as_bytes(), before[i].as_bytes(), "{page:?}");
            }
        }
    }
    assert!(
        sal.stats.read_retries.get() > retries,
        "a point read must have failed over from the dead primary"
    );
}

#[test]
fn every_fabric_round_trip_is_counted_once() {
    for coalescing in [true, false] {
        let db = launch(13, coalescing);
        let sal = &db.master().sal;
        write_rows(&db, 200, 0);
        let ids = all_page_ids(&db);
        let slices: BTreeSet<_> = ids
            .iter()
            .map(|p| p.slice(db.cfg.pages_per_slice))
            .collect();
        assert!(slices.len() > 1, "the table must span several slices");

        // A point read is one `ReadPage`-style round trip: a page read,
        // never a batch RPC.
        let (s0, b0) = (sal.stats.snapshot(), sal.read_batch_stats.snapshot());
        sal.read_page(ids[0], None).unwrap();
        let (s1, b1) = (sal.stats.snapshot(), sal.read_batch_stats.snapshot());
        assert_eq!(s1.page_reads - s0.page_reads, 1);
        assert_eq!(
            b1.batch_rpcs, b0.batch_rpcs,
            "point read counted as a batch"
        );
        assert_eq!(b1.batches, b0.batches);

        // A batch of one is one batch RPC and no page read.
        sal.read_pages(&ids[..1], None).unwrap();
        let (s2, b2) = (sal.stats.snapshot(), sal.read_batch_stats.snapshot());
        assert_eq!(s2.page_reads, s1.page_reads, "batch counted as a page read");
        assert_eq!(b2.batch_rpcs - b1.batch_rpcs, 1);

        // A multi-slice batch: one RPC per grouped envelope when coalescing
        // (one envelope per primary node), else one per slice.
        sal.read_pages(&ids, None).unwrap();
        let (s3, b3) = (sal.stats.snapshot(), sal.read_batch_stats.snapshot());
        let rpcs = b3.batch_rpcs - b2.batch_rpcs;
        let envelopes = s3.grouped_envelopes - s2.grouped_envelopes;
        assert_eq!(s3.page_reads, s2.page_reads);
        assert_eq!(s3.grouped_fallback_slices, s2.grouped_fallback_slices);
        if coalescing {
            assert!(envelopes > 0, "a multi-slice plan must coalesce");
            assert_eq!(rpcs, envelopes, "one batch RPC per envelope");
        } else {
            assert_eq!(envelopes, 0, "coalescing off never builds envelopes");
            assert_eq!(rpcs, slices.len() as u64, "one batch RPC per slice");
        }
    }
}
