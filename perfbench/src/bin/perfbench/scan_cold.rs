//! `scan-cold`: in-process queries on an index far larger than the
//! buffer.
//!
//! The 1M-object big tier, bulk-loaded with `pprtree::bulk` onto a
//! `FileBackend` behind the 256-page LRU buffer, queried with the tier
//! mix (every eighth query a medium interval scan) in a closed loop at 1
//! and at 2 threads. Buffer misses, backend transfer and the exclusive
//! lock on a miss dominate; the server does nothing.

use crate::common::{
    brute_force, cold_and_warm, mean, mean_us, measure_warm, median, peak_rss_mb, probe_pages,
    report_interleaved, report_peak, report_probe, reset_peak_rss, secs, tier_mix, Config,
    Interleaved, Sums,
};
use crate::metrics::Report;
use crate::stats::quantile;
use crate::trace::Tracer;
use std::time::Instant;
use sti_core::{IndexBackend, IndexConfig, ObjectRecord, SpatioTemporalIndex};
use sti_datagen::RandomDatasetSpec;
use sti_geom::StBox;
use sti_storage::{FileBackend, PageStore, PAGE_SIZE};

/// The big tier's buffer: the directory stays hot, the leaves do not.
const BUFFER_PAGES: usize = 256;
/// Queries per interleaved in-process slice.
const SLICE_QUERIES: usize = 1024;
/// Share of `--seconds` the in-process phases take (split evenly across
/// the set-ups' builds): its medians settle sooner than serve-hot's, so
/// it measures for less of the run.
const IN_PROCESS_SHARE: f64 = 0.6;

pub fn run(cfg: &Config, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let mut local = tracer.local();
    let sz = cfg.sizes;
    let spec = RandomDatasetSpec {
        seed: cfg.stream_seed(1),
        ..RandomDatasetSpec::big(sz.cold_objects)
    };
    let config = IndexConfig::paper(IndexBackend::PprTree);
    let queries = tier_mix(cfg.stream_seed(2), sz.queries);
    let (mut setup, mut generate, mut load) = (Vec::new(), Vec::new(), Vec::new());
    let mut oracle = Vec::new();
    let mut pooled: Option<Interleaved> = None;
    let mut built = None;
    let mut peaks = Vec::new();
    for round in 0..sz.setups {
        if let Some((index, file)) = built.take() {
            drop(index);
            let _ = std::fs::remove_file(file);
        }
        reset_peak_rss();
        let file = cfg.work.join(format!("scan-cold-{round}.pages"));
        let start = Instant::now();
        let records: Vec<ObjectRecord> = local.span("setup.generate", round as u64, 0, |_, _| {
            spec.iter()
                .map(|o| ObjectRecord {
                    id: o.id(),
                    stbox: StBox::new(o.mbr_range(0, o.len()), o.lifetime()),
                })
                .collect()
        });
        generate.push(secs(start));
        let at = Instant::now();
        let (mut index, stats) = local.span("setup.bulk_load", round as u64, 0, |_, _| {
            let backend = FileBackend::create(&file)
                .map_err(|e| format!("creating {}: {e}", file.display()))?;
            let store = PageStore::with_backend(Box::new(backend), BUFFER_PAGES);
            SpatioTemporalIndex::bulk_build_ppr(records.iter().copied(), &config, store, &cfg.work)
                .map_err(|e| format!("bulk load: {e}"))
        })?;
        load.push(secs(at));
        setup.push(secs(start));
        if round == 0 {
            oracle = brute_force(&records, &queries[..sz.sample]);
            report.set("bulk.pages_written", stats.pages_written as f64);
            report.set("bulk.fill_factor", stats.fill_factor);
            report.context("objects", records.len());
        }
        drop(records);

        let warmed = cold_and_warm(&mut report, &mut local, &mut index, &queries, &oracle)?;
        report.set("disk_reads_per_query", warmed.cold_reads_per_query);
        let (phases, _) = measure_warm(
            &mut report,
            &mut local,
            tracer,
            &index,
            &queries,
            &warmed.reference,
            cfg.slice(IN_PROCESS_SHARE / sz.setups as f64),
            SLICE_QUERIES,
            &mut Sums::default,
        );
        match pooled.as_mut() {
            Some(p) => p.absorb(phases),
            None => pooled = Some(phases),
        }
        peaks.push(peak_rss_mb());
        built = Some((index, file));
    }
    let (index, file) = built.ok_or("no set-up ran")?;
    let phases = pooled.ok_or("no set-up ran")?;
    report.set("setup_s", median(&setup));
    report.set("datagen.generate_s", median(&generate));
    report.set("build.index_s", median(&load));
    report_interleaved(&mut report, &phases);
    // The main operation is the in-process query at one thread.
    let best = phases.best_sorted();
    report.set("op_mean_ms", mean(&best) / 1e3);
    report.set("op_p95_ms", quantile(&best, 0.95) / 1e3);
    let (pages, records) = (index.num_pages(), index.record_count());
    report.set(
        "index_bytes_per_record",
        (pages * PAGE_SIZE) as f64 / records as f64,
    );
    drop(index);

    // Reopening the page file and the page probe below are measurement,
    // not serving: the peak is taken before them.
    report_peak(&mut report, &peaks);
    let (mut reopen, mut reopened) = (Vec::new(), Vec::new());
    for _ in 0..sz.setups {
        let at = Instant::now();
        let store = FileBackend::open(&file)
            .map(|b| PageStore::with_backend(Box::new(b), BUFFER_PAGES))
            .map_err(|e| format!("reopening {}: {e}", file.display()))?;
        reopen.push(secs(at));
        reopened.push(store.num_pages());
    }
    report.set("persist.reopen_s", median(&reopen));
    report.check(
        "reopened page file holds every page",
        reopened.iter().all(|&n| n == pages),
        format!("{reopened:?} of {pages} pages"),
    );
    let costs = probe_pages(&mut local, pages, |cap| {
        FileBackend::open(&file)
            .map(|b| PageStore::with_backend(Box::new(b), cap))
            .map_err(|e| format!("probe open {}: {e}", file.display()))
    })?;
    report_probe(&mut report, &costs, &phases.one.sums, mean_us(&phases.one));
    report.context("fsync", "none (no WAL)");
    report.context("buffer_pages", BUFFER_PAGES);
    report.context("pages", pages);
    report.context("records", records);
    Ok(report)
}
