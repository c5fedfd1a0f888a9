//! `serve-hot`: HTTP serving of a warm index that fits the buffer.
//!
//! 50k random objects split by MergeSplit + LAGreedy at the 150 %
//! budget, built incrementally into a PPR-Tree, saved, reopened with
//! `SpatioTemporalIndex::open_file` and served by `sti-server` over
//! loopback with a buffer of at least the index's page count. After one
//! warm-up pass no query may read a page. Windows of HTTP requests at
//! the nominal rate alternate with the in-process slices, so both see
//! the same bursts of load from other processes; the rate ladder comes
//! last. The server layer does nearly all the work; the miss path and
//! the WAL do none.

use crate::common::{
    brute_force, cold_and_warm, load_mix, mean, mean_us, measure_warm, median, peak_rss_mb,
    probe_pages, report_interleaved, report_peak, report_probe, reset_peak_rss, secs, Config,
    Interleaved, Sums, Q,
};
use crate::http::{open_loop, Rung};
use crate::metrics::Report;
use crate::stats::{quantile, Summary};
use crate::trace::{Local, Tracer};
use std::sync::Arc;
use std::time::Instant;
use sti_core::{
    DistributionAlgorithm, IndexBackend, IndexConfig, SingleSplitAlgorithm, SpatioTemporalIndex,
    SplitBudget, SplitPlan,
};
use sti_datagen::RandomDatasetSpec;
use sti_server::{Server, ServerConfig, ServerMetrics};
use sti_storage::{PageStore, PAGE_SIZE};

/// Nominal open-loop rate, requests per second.
const NOMINAL_RPS: f64 = 1000.0;
/// Requests in each window served at the nominal rate after a pair of
/// in-process slices.
const HTTP_WINDOW: usize = 250;
/// The queries the nominal windows cycle through, each sent about 15
/// times over a run; the HTTP latency metrics take each query's best.
const HTTP_QUERIES: usize = 1024;
/// Rates above nominal tried for `http_max_rps`.
const LADDER_RPS: [f64; 3] = [2000.0, 4000.0, 6000.0];
/// Latency limit on p99 for a rung to count, ms.
const P99_LIMIT_MS: f64 = 10.0;
/// Client threads, one connection per request each (at most `nproc`).
const CONNS: usize = 2;
/// Shares of `--seconds`: the in-process slices with the HTTP windows
/// between them, and each ladder rung.
const MEASURE_SHARE: f64 = 0.85;
const RUNG_SHARE: f64 = 0.04;
/// Queries per interleaved in-process slice.
const SLICE_QUERIES: usize = 2048;

pub fn run(cfg: &Config, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let mut local = tracer.local();
    let sz = cfg.sizes;
    let spec = RandomDatasetSpec {
        seed: cfg.stream_seed(1),
        ..RandomDatasetSpec::paper(sz.hot_objects)
    };
    let path = cfg.work.join("serve-hot.idx");
    let config = IndexConfig::paper(IndexBackend::PprTree);
    let queries = load_mix(cfg.stream_seed(2), sz.queries, config.time_extent);

    // Only the first set-up is served and measured; the later ones are
    // timed for `setup_s`. A server's threads and the client's leave the
    // allocator's per-thread arenas so that a later build's 2-thread
    // queries contend in malloc, which moved `query_qps` by a third.
    let mut t = SetupTimes::default();
    let mut served = None;
    let mut peaks = Vec::new();
    let mut shapes = Vec::new();
    for round in 0..sz.setups as u64 {
        reset_peak_rss();
        let start = Instant::now();
        let objects = local.span("setup.generate", round, 0, |_, _| spec.generate());
        t.generate.push(secs(start));
        let (plan_stats, records) = local.span("setup.plan", round, 0, |_, _| {
            let plan = SplitPlan::build(
                &objects,
                SingleSplitAlgorithm::MergeSplit,
                DistributionAlgorithm::LaGreedy,
                SplitBudget::Percent(150.0),
                None,
            );
            (*plan.stats(), plan.records(&objects))
        });
        let n_objects = objects.len();
        drop(objects);
        t.curves.push(plan_stats.curve_time.as_secs_f64());
        t.distribute.push(plan_stats.distribute_time.as_secs_f64());
        let at = Instant::now();
        let mut index = local
            .span("setup.tree_build", round, 0, |_, _| {
                SpatioTemporalIndex::build(&records, &config)
            })
            .map_err(|e| format!("building the index: {e}"))?;
        t.build.push(secs(at));
        let at = Instant::now();
        local
            .span("setup.save", round, 0, |_, _| {
                index
                    .as_ppr_mut()
                    .expect("built as a PPR-Tree")
                    .save_to_file(&path)
            })
            .map_err(|e| format!("saving {}: {e}", path.display()))?;
        t.save.push(secs(at));
        drop(index);
        let at = Instant::now();
        let mut index = local
            .span("setup.open", round, 0, |_, _| {
                SpatioTemporalIndex::open_file(&path)
            })
            .map_err(|e| format!("opening {}: {e}", path.display()))?;
        let pages = index.num_pages();
        index
            .as_ppr_mut()
            .ok_or("the saved index is not a PPR-Tree")?
            .set_buffer_capacity(pages);
        t.open.push(secs(at));
        t.setup.push(secs(start));
        shapes.push((pages, index.record_count(), n_objects));
        if round == 0 {
            report.set(
                "plan.records_per_object",
                records.len() as f64 / n_objects as f64,
            );
            let oracle = brute_force(&records, &queries[..sz.sample]);
            drop(records);
            served = Some(serve(
                &mut report,
                &mut local,
                tracer,
                cfg,
                index,
                &queries,
                &oracle,
            )?);
        }
        peaks.push(peak_rss_mb());
    }
    let mut s = served.ok_or("no set-up ran")?;
    let (pages, records, objects) = shapes[0];
    report.check(
        "every set-up builds the same index",
        shapes.iter().all(|&x| x == shapes[0]),
        format!("(pages, records, objects) {shapes:?}"),
    );
    t.report(&mut report);
    report_interleaved(&mut report, &s.phases);
    let query_p50_us = quantile(&s.phases.best_sorted(), 0.5);
    report.set(
        "index_bytes_per_record",
        (pages * PAGE_SIZE) as f64 / records as f64,
    );

    // The main operation is the HTTP request at the nominal rate, taken
    // per query as its best over the windows that sent it.
    let mut ladder = s.ladder;
    let mut nominal = Rung {
        rate: NOMINAL_RPS,
        ..Rung::default()
    };
    for w in &mut s.windows {
        nominal.absorb(w);
    }
    let mut best = vec![f64::INFINITY; HTTP_QUERIES.min(queries.len())];
    for (&k, &lat) in nominal.query.iter().zip(&nominal.lat_ms) {
        best[k] = best[k].min(lat);
    }
    best.retain(|x| x.is_finite());
    let b = Summary::of(&mut best);
    let all = Summary::of(&mut nominal.lat_ms);
    let note = format!(
        "per query, best of {} requests: {}",
        nominal.lat_ms.len() / best.len().max(1),
        b.note("ms")
    );
    report.set_noted("op_mean_ms", mean(&best), note.clone());
    report.set_noted("op_p95_ms", quantile(&best, 0.95), note);
    report.set_noted(
        "http_p99_ms",
        quantile(&nominal.lat_ms, 0.99),
        all.note("ms"),
    );
    report.set("server.overhead_us", b.p50 * 1e3 - query_p50_us);
    nominal.lag_ms.sort_by(f64::total_cmp);
    report.set("load.generator_lag_p99_ms", quantile(&nominal.lag_ms, 0.99));
    report.set("server.admission_rejected", s.rejected as f64);
    let (mut requests, mut conns) = (0u64, 0u64);
    let mut max_rps = 0.0f64;
    for r in std::iter::once(&mut nominal).chain(&mut ladder) {
        requests += r.requests;
        conns += r.conns;
        report.attempted += r.requests;
        report.failed += r.failed;
        report.check(
            format!("HTTP bodies at {} req/s equal in-process answers", r.rate),
            r.wrong == 0,
            format!("{} of {} differ", r.wrong, r.requests),
        );
        if meets_limit(r) {
            max_rps = max_rps.max(r.rate);
        }
    }
    report.set("http_max_rps", max_rps);
    report.set("server.conns_per_request", conns as f64 / requests as f64);

    // The first set-up's peak includes serving. The page probe below is
    // measurement, not serving: the peaks are taken before it.
    report_peak(&mut report, &peaks);
    let costs = probe_pages(&mut local, pages, |cap| {
        PageStore::load_from(&path, cap)
            .map(|(store, _)| store)
            .map_err(|e| format!("probe open: {e}"))
    })?;
    report_probe(
        &mut report,
        &costs,
        &s.phases.one.sums,
        mean_us(&s.phases.one),
    );
    report.context("fsync", "none (no WAL)");
    report.context("buffer_pages", pages);
    report.context("pages", pages);
    report.context("records", records);
    report.context("objects", objects);
    report.context("server", "in-process Server::start, default pools");
    Ok(report)
}

/// What serving one built index measured.
struct Served {
    phases: Interleaved,
    /// The HTTP windows at the nominal rate.
    windows: Vec<Rung>,
    /// The rate ladder.
    ladder: Vec<Rung>,
    /// Admission rejections over the whole serving.
    rejected: u64,
}

/// Check and warm `index`, serve it over loopback, measure the
/// in-process slices with HTTP windows between them, then the rate
/// ladder.
fn serve(
    report: &mut Report,
    local: &mut Local,
    tracer: &Tracer,
    cfg: &Config,
    mut index: SpatioTemporalIndex,
    queries: &[Q],
    oracle: &[Vec<u64>],
) -> Result<Served, String> {
    let warmed = cold_and_warm(report, local, &mut index, queries, oracle)?;
    report.set("disk_reads_per_query", warmed.cold_reads_per_query);
    let reference = warmed.reference;
    let index = Arc::new(index);
    let server = Server::start(Arc::clone(&index), ServerConfig::default())
        .map_err(|e| format!("starting the server: {e}"))?;
    let metrics = server.metrics();
    let mut windows = Vec::new();
    let mut next = 0usize;
    let (phases, sums) = measure_warm(
        report,
        local,
        tracer,
        &index,
        queries,
        &reference,
        cfg.slice(MEASURE_SHARE),
        SLICE_QUERIES,
        &mut || {
            let before = server_sums(&metrics);
            let n = HTTP_QUERIES.min(queries.len());
            let window = open_loop(
                tracer,
                server.addr(),
                &queries[..n],
                &reference[..n],
                NOMINAL_RPS,
                next,
                HTTP_WINDOW,
                CONNS,
            );
            next += HTTP_WINDOW;
            windows.push(window);
            server_sums(&metrics).since(&before)
        },
    );
    report.check(
        "no page read after warm-up, in process or over HTTP",
        sums.disk_reads == 0,
        format!("{} reads", sums.disk_reads),
    );
    let io = index.io_stats();
    let mut ladder = Vec::new();
    for rate in LADDER_RPS {
        let n = (rate * cfg.slice(RUNG_SHARE).as_secs_f64()).ceil() as usize;
        ladder.push(open_loop(
            tracer,
            server.addr(),
            queries,
            &reference,
            rate,
            0,
            n.max(1),
            CONNS,
        ));
    }
    let reads = index.io_stats().reads - io.reads;
    report.check(
        "no page read by the HTTP rate ladder",
        reads == 0,
        format!("{reads} reads"),
    );
    let rejected = metrics.admission_rejected();
    server.shutdown();
    Ok(Served {
        phases,
        windows,
        ladder,
        rejected,
    })
}

/// The server's per-query counters so far, read from its `/metrics`
/// rendering.
fn server_sums(metrics: &ServerMetrics) -> Sums {
    let text = metrics.render().to_prometheus();
    let get = |name: &str| -> u64 {
        text.lines()
            .filter_map(|l| l.split_once(' '))
            .find(|(k, _)| *k == name)
            .and_then(|(_, v)| v.trim().parse::<f64>().ok())
            .map_or(0, |v| v as u64)
    };
    Sums {
        queries: metrics.queries_answered(),
        disk_reads: get("sti_query_disk_reads_total"),
        buffer_hits: get("sti_query_buffer_hits_total"),
        nodes: get("sti_query_nodes_visited_total"),
        entries: get("sti_query_entries_scanned_total"),
        results: get("sti_query_results_total"),
        ..Sums::default()
    }
}

/// A rung counts when p99 stays within the limit, nothing failed, and
/// the generator kept to its schedule (no growing backlog).
fn meets_limit(r: &mut Rung) -> bool {
    r.lat_ms.sort_by(f64::total_cmp);
    r.lag_ms.sort_by(f64::total_cmp);
    r.failed == 0
        && quantile(&r.lat_ms, 0.99) <= P99_LIMIT_MS
        && quantile(&r.lag_ms, 0.99) <= P99_LIMIT_MS
}

/// Per-set-up phase times; each metric is the median over set-ups.
#[derive(Default)]
struct SetupTimes {
    setup: Vec<f64>,
    generate: Vec<f64>,
    curves: Vec<f64>,
    distribute: Vec<f64>,
    build: Vec<f64>,
    save: Vec<f64>,
    open: Vec<f64>,
}

impl SetupTimes {
    fn report(&self, report: &mut Report) {
        report.set("setup_s", median(&self.setup));
        report.set("datagen.generate_s", median(&self.generate));
        report.set("plan.curves_s", median(&self.curves));
        report.set("plan.distribute_s", median(&self.distribute));
        report.set("build.index_s", median(&self.build));
        report.set("persist.save_s", median(&self.save));
        report.set("persist.reopen_s", median(&self.open));
    }
}
