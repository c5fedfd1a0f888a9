//! Index persistence: save a built index to a real file, load it in a
//! "fresh process" (new object), and verify answers and I/O accounting
//! are identical.

use spatiotemporal_index::core::{IndexBackend, IndexConfig, SpatioTemporalIndex, SplitPlan};
use spatiotemporal_index::pprtree::PprTree;
use spatiotemporal_index::prelude::*;
use spatiotemporal_index::rstar::RStarTree;

mod common;
use common::TempDir;

fn records() -> Vec<spatiotemporal_index::core::ObjectRecord> {
    let objects = RandomDatasetSpec::paper(400).generate();
    SplitPlan::build(
        &objects,
        SingleSplitAlgorithm::MergeSplit,
        DistributionAlgorithm::LaGreedy,
        SplitBudget::Percent(100.0),
        None,
    )
    .records(&objects)
}

#[test]
fn pprtree_survives_a_round_trip() {
    let recs = records();
    // Build via the facade to exercise the real ingestion path, then
    // reach the concrete tree through a fresh build for saving.
    let mut tree = PprTree::new(Default::default());
    let mut events: Vec<(u32, u8, usize)> = Vec::new();
    for (i, r) in recs.iter().enumerate() {
        events.push((r.stbox.lifetime.start, 1, i));
        events.push((r.stbox.lifetime.end, 0, i));
    }
    events.sort_unstable();
    for (t, kind, i) in events {
        if kind == 1 {
            tree.insert(recs[i].id, recs[i].stbox.rect, t).unwrap();
        } else {
            tree.delete(recs[i].id, recs[i].stbox.rect, t).unwrap();
        }
    }

    let dir = TempDir::new("index");
    let path = dir.join("ppr");
    tree.save_to_file(&path).expect("save");
    let mut back = PprTree::open_file(&path).expect("open");

    assert_eq!(back.num_pages(), tree.num_pages());
    assert_eq!(back.roots(), tree.roots());
    assert_eq!(back.alive_records(), tree.alive_records());
    back.validate();

    for t in (0..1000).step_by(83) {
        let area = Rect2::from_bounds(0.2, 0.2, 0.7, 0.7);
        let mut a = Vec::new();
        let mut b = Vec::new();
        tree.query_snapshot(&area, t, &mut a).unwrap();
        back.query_snapshot(&area, t, &mut b).unwrap();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "snapshot at {t}");
        let mut c = Vec::new();
        let mut d = Vec::new();
        let range = TimeInterval::new(t, t + 40);
        tree.query_interval(&area, &range, &mut c).unwrap();
        back.query_interval(&area, &range, &mut d).unwrap();
        c.sort_unstable();
        d.sort_unstable();
        assert_eq!(c, d, "interval at {t}");
    }

    // I/O accounting still behaves after loading.
    back.reset_for_query();
    let mut out = Vec::new();
    back.query_snapshot(&Rect2::UNIT, 500, &mut out).unwrap();
    assert!(back.io_stats().reads > 0);
}

#[test]
fn rstar_survives_a_round_trip() {
    let recs = records();
    let idx = SpatioTemporalIndex::build(&recs, &IndexConfig::paper(IndexBackend::RStar)).unwrap();
    // Rebuild a raw tree the same way the facade does, then persist it.
    let mut tree = RStarTree::new(Default::default());
    for r in &recs {
        tree.insert(r.id, r.to_rect3(1000.0)).unwrap();
    }
    let dir = TempDir::new("index");
    let path = dir.join("rstar");
    tree.save_to_file(&path).expect("save");
    let mut back = RStarTree::open_file(&path).expect("open");
    assert_eq!(back.len(), tree.len());
    assert_eq!(back.num_pages(), tree.num_pages());
    back.validate();

    for t in (0..1000u32).step_by(129) {
        let area = Rect2::from_bounds(0.1, 0.3, 0.6, 0.8);
        let q = spatiotemporal_index::geom::Rect3::new(
            [area.lo.x, area.lo.y, f64::from(t) / 1000.0],
            [area.hi.x, area.hi.y, f64::from(t) / 1000.0],
        );
        let mut a = Vec::new();
        let mut b = Vec::new();
        tree.query(&q, &mut a).unwrap();
        back.query(&q, &mut b).unwrap();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "query at {t}");
        // And the loaded tree agrees with the facade-built index.
        let mut facade = idx.query(&area, &TimeInterval::instant(t)).unwrap();
        facade.sort_unstable();
        b.sort_unstable();
        b.dedup();
        assert_eq!(b, facade, "facade agreement at {t}");
    }
}

#[test]
fn loading_garbage_fails_cleanly() {
    let dir = TempDir::new("index");
    let path = dir.join("garbage");
    std::fs::write(&path, b"definitely not an index file").expect("write");
    assert!(PprTree::open_file(&path).is_err());
    assert!(RStarTree::open_file(&path).is_err());
}

#[test]
fn backend_mismatch_is_a_clean_error() {
    let recs = records();
    let mut ppr = PprTree::new(Default::default());
    let mut events: Vec<(u32, u8, usize)> = Vec::new();
    for (i, r) in recs.iter().enumerate() {
        events.push((r.stbox.lifetime.start, 1, i));
        events.push((r.stbox.lifetime.end, 0, i));
    }
    events.sort_unstable();
    for (t, kind, i) in events {
        if kind == 1 {
            ppr.insert(recs[i].id, recs[i].stbox.rect, t).unwrap();
        } else {
            ppr.delete(recs[i].id, recs[i].stbox.rect, t).unwrap();
        }
    }
    let dir = TempDir::new("index");
    let path = dir.join("mismatch");
    ppr.save_to_file(&path).expect("save");
    let err = match RStarTree::open_file(&path) {
        Err(e) => e,
        Ok(_) => panic!("opening a PPR file as R* must fail"),
    };
    assert!(
        err.to_string().contains("PPR-Tree"),
        "mismatch should name the actual backend: {err}"
    );
    // And the right backend still opens it.
    assert!(PprTree::open_file(&path).is_ok());
}

/// Corrupt index files fail closed: header or metadata damage surfaces
/// as an `io::Error` from `open_file`, and page-body damage that the
/// loader cannot see is caught by the integrity checker — never a panic.
#[test]
fn corrupted_index_files_fail_closed() {
    use spatiotemporal_index::pprtree::check;
    use spatiotemporal_index::storage::PAGE_SIZE;

    let mut tree = PprTree::new(spatiotemporal_index::pprtree::PprParams {
        max_entries: 10,
        buffer_pages: 4,
        ..Default::default()
    });
    let rect_for = |i: u64| {
        let x = (i % 30) as f64 * 0.03;
        let y = (i / 30) as f64 * 0.2;
        Rect2::from_bounds(x, y, x + 0.02, y + 0.02)
    };
    for i in 0..120u64 {
        tree.insert(i, rect_for(i), i as u32 / 4).unwrap();
    }
    for i in (0..120u64).step_by(3) {
        tree.delete(i, rect_for(i), 31 + i as u32 / 4).unwrap();
    }
    let dir = TempDir::new("index");
    let path = dir.join("corrupt");
    tree.save_to_file(&path).expect("save");
    let pristine = std::fs::read(&path).expect("read back");

    // Wrong magic.
    let mut bad = pristine.clone();
    bad[0] = b'X';
    std::fs::write(&path, &bad).unwrap();
    assert!(PprTree::open_file(&path).is_err(), "wrong magic must fail");

    // Truncation anywhere in the file.
    for cut in [9, pristine.len() / 2, pristine.len() - 17] {
        std::fs::write(&path, &pristine[..cut]).unwrap();
        assert!(
            PprTree::open_file(&path).is_err(),
            "truncation at {cut} must fail"
        );
    }

    // Garbage metadata (valid magic, shredded header region).
    let mut bad = pristine.clone();
    for b in bad.iter_mut().skip(8).take(40) {
        *b = 0xFF;
    }
    std::fs::write(&path, &bad).unwrap();
    assert!(PprTree::open_file(&path).is_err(), "garbage meta must fail");

    // Shred the page region (the trailing pages): the per-page
    // checksums catch this at open time — the loader fails closed
    // before the sanitizer ever has to look at the tree.
    let mut bad = pristine.clone();
    let tail = bad.len() - 2 * PAGE_SIZE;
    for b in bad.iter_mut().skip(tail) {
        *b = 0xFF;
    }
    std::fs::write(&path, &bad).unwrap();
    let err = match PprTree::open_file(&path) {
        Err(e) => e,
        Ok(_) => panic!("shredded pages must fail the checksum"),
    };
    assert!(
        err.to_string().contains("checksum"),
        "page damage should be a checksum error: {err}"
    );

    // And the pristine bytes still round-trip cleanly.
    std::fs::write(&path, &pristine).unwrap();
    let back = PprTree::open_file(&path).expect("pristine file reopens");
    assert!(check::validate(&back).is_ok());
}
