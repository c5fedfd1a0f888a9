//! `ingest-live`: writes with reads beside them.
//!
//! A round generates a 20k-object random dataset, replays it as a live
//! update stream (as `stidx ingest` replays it) through `IngestPipeline`
//! with the WAL attached and fsync at commit — one commit every four
//! instants, a checkpoint every 32 commits — and seals it. That round is
//! the set-up, and the commit is the main operation. After every commit
//! the writer hands the published watermark to one reader thread, which
//! pins the current version through `IngestReader` and runs a fixed
//! batch of queries below that watermark while the writer goes on: the
//! reads are the same work on every run, however the threads are
//! scheduled. After each round `IngestPipeline::recover` is timed on the
//! directory the round left.
//!
//! The rounds are fixed work (about 1M updates each), so this
//! workload's length does not follow `--seconds`: its figures stay
//! comparable across run lengths.

use crate::common::{
    check_phase, closed_loop, conserve, load_mix, mean, median, peak_rss_mb, probe_pages,
    report_peak, report_probe, report_query_counters, reset_peak_rss, secs, Config, Sums, Q,
};
use crate::metrics::Report;
use crate::stats::{quantile, Summary};
use crate::trace::{Local, Tracer};
use std::path::Path;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::Instant;
use sti_core::{
    CommitReport, IngestOp, IngestPipeline, IngestReader, OnlineSplitConfig, QueryOutcome,
};
use sti_datagen::RandomDatasetSpec;
use sti_geom::{Rect2, Time, TimeInterval};
use sti_pprtree::{PprParams, PprTree};
use sti_storage::{FsyncPolicy, PageStore, WalConfig, PAGE_SIZE};
use sti_trajectory::RasterizedObject;

/// Instants per commit.
const COMMIT_EVERY: Time = 4;
/// Commits per checkpoint.
const CHECKPOINT_EVERY: u64 = 32;
/// Reader queries after each commit.
const READ_BATCH: usize = 64;
/// Every this many reader queries is kept and re-asked of the sealed
/// index: answers below the watermark are final.
const KEEP_EVERY: u64 = 64;
/// Watermarks the writer may run ahead of the reader before it waits.
const READ_QUEUE: usize = 4;

/// The update stream of a dataset, in `stidx ingest` order.
struct Stream {
    updates: Vec<(Time, u64, Rect2)>,
    finishes: Vec<(Time, u64)>,
    horizon: Time,
}

fn stream(objects: &[RasterizedObject]) -> Stream {
    let mut updates = Vec::new();
    let mut finishes = Vec::new();
    for obj in objects {
        for (i, r) in obj.rects().iter().enumerate() {
            updates.push((obj.start() + i as Time, obj.id(), *r));
        }
        finishes.push((obj.lifetime().end, obj.id()));
    }
    updates.sort_by_key(|&(t, id, _)| (t, id));
    finishes.sort_unstable();
    let horizon = finishes.iter().map(|f| f.0).max().unwrap_or(0);
    Stream {
        updates,
        finishes,
        horizon,
    }
}

/// Run `q` on `tree` as `SpatioTemporalIndex::query_with_stats` does.
fn query_tree(tree: &PprTree, area: &Rect2, range: &TimeInterval) -> QueryOutcome {
    let mut out = Vec::new();
    let mut stats = if range.len() == 1 {
        tree.query_snapshot(area, range.start, &mut out)?
    } else {
        tree.query_interval(area, range, &mut out)?
    };
    out.sort_unstable();
    out.dedup();
    stats.results = out.len() as u64;
    Ok((out, stats))
}

/// `tree`'s answers to `sample`, and how many queries failed.
fn answers(tree: &PprTree, sample: &[Q]) -> (Vec<Vec<u64>>, u64) {
    let mut failed = 0;
    let ids = sample
        .iter()
        .map(|q| {
            query_tree(tree, &q.area, &q.range).map_or_else(
                |_| {
                    failed += 1;
                    Vec::new()
                },
                |o| o.0,
            )
        })
        .collect();
    (ids, failed)
}

/// The oracle for the sealed index, from the generated objects: per
/// sample query, the ids one of whose per-instant rectangles meets it
/// (each must be answered), and the ids alive in its range whose
/// whole-life MBR meets its window (no other may be answered: the
/// index stores pieces whose MBRs lie between the two).
fn brute_force_bounds(objects: &[RasterizedObject], sample: &[Q]) -> Vec<(Vec<u64>, Vec<u64>)> {
    let mut out = vec![(Vec::new(), Vec::new()); sample.len()];
    for obj in objects {
        let life = obj.lifetime();
        let mbr = obj.mbr_range(0, obj.len());
        for (q, (exact, coarse)) in sample.iter().zip(&mut out) {
            if !life.overlaps(&q.range) || !mbr.intersects(&q.area) {
                continue;
            }
            coarse.push(obj.id());
            let (from, to) = (life.start.max(q.range.start), life.end.min(q.range.end));
            let at = |t: Time| obj.rects().get((t - obj.start()) as usize);
            if (from..to).any(|t| at(t).is_some_and(|r| r.intersects(&q.area))) {
                exact.push(obj.id());
            }
        }
    }
    for (exact, coarse) in &mut out {
        exact.sort_unstable();
        coarse.sort_unstable();
    }
    out
}

/// Whether sorted `a` is a subset of sorted `b`.
fn subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().all(|x| b.binary_search(x).is_ok())
}

/// What the reader thread measured.
#[derive(Default)]
struct ReaderRun {
    /// Per query, in order: latency µs.
    lat_us: Vec<f64>,
    pin_ns: Vec<f64>,
    sums: Sums,
    /// Kept (query, answer) pairs to re-ask the sealed index.
    kept: Vec<(Q, Vec<u64>)>,
}

/// For each watermark the writer publishes: pin the current version and
/// run [`READ_BATCH`] queries below the watermark. Ends when the writer
/// drops its sender.
fn reader_loop(
    tracer: &Tracer,
    reader: &IngestReader,
    queries: &[Q],
    marks: Receiver<Time>,
) -> ReaderRun {
    let mut local = tracer.local();
    let mut run = ReaderRun::default();
    let mut i = 0u64;
    for watermark in marks {
        let t0 = Instant::now();
        let pinned = local.span("reader.pin", i, 0, |_, _| reader.current());
        run.pin_ns.push(t0.elapsed().as_nanos() as f64);
        for _ in 0..READ_BATCH {
            let q = &queries[i as usize % queries.len()];
            let begin = q.range.start % watermark;
            let len = q.range.end - q.range.start;
            let range = TimeInterval::new(begin, (begin + len).min(watermark));
            let t = Instant::now();
            let out = local.span("reader.query", i, 0, |_, _| {
                query_tree(pinned.tree(), &q.area, &range)
            });
            run.lat_us.push(t.elapsed().as_secs_f64() * 1e6);
            if let (Ok((ids, _)), true) = (&out, i.is_multiple_of(KEEP_EVERY)) {
                let kept = Q {
                    area: q.area,
                    range,
                };
                run.kept.push((kept, ids.clone()));
            }
            run.sums.add(&out, None);
            i += 1;
        }
    }
    run
}

/// Writer-side tallies, summed over rounds.
#[derive(Default)]
struct WriterRun {
    ops: u64,
    enqueue_ns: Vec<f64>,
    commit_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    checkpoint_bytes: u64,
    wal_bytes: u64,
    fsyncs: u64,
    commits: u64,
    batch_events: u64,
    lag_events: u64,
    publish_lag: u64,
    rejected: u64,
    commit_errors: u64,
    rollbacks: u64,
}

impl WriterRun {
    fn absorb(&mut self, report: &CommitReport, now: Time) {
        self.commits += 1;
        self.batch_events += report.batch_events as u64;
        self.lag_events += report.lag_events as u64;
        self.publish_lag += u64::from(now.saturating_sub(report.stamp.watermark));
        self.rejected += report.rejected.len() as u64;
        self.commit_errors +=
            u64::from(report.error.is_some()) + u64::from(report.durability.is_some());
    }
}

fn checkpoint_file(dir: &Path, generation: u64, ext: &str) -> std::path::PathBuf {
    dir.join(format!("checkpoint-{generation:016x}.{ext}"))
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map_or(0, |m| m.len())
}

/// Per-round phase times; each metric is the median over rounds.
#[derive(Default)]
struct RoundTimes {
    setup: Vec<f64>,
    generate: Vec<f64>,
    ingest: Vec<f64>,
    recover: Vec<f64>,
}

pub fn run(cfg: &Config, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let mut local = tracer.local();
    let sz = cfg.sizes;
    let spec = RandomDatasetSpec {
        seed: cfg.stream_seed(1),
        ..RandomDatasetSpec::paper(sz.ingest_objects)
    };
    let wal = WalConfig {
        fsync: FsyncPolicy::Commit,
        ..WalConfig::default()
    };
    let params = PprParams::default();
    let mut t = RoundTimes::default();
    let mut w = WriterRun::default();
    let mut reads = ReaderRun::default();
    let mut queries = Vec::new();
    let mut reference = Vec::new();
    let mut failed = 0u64;
    let mut updates = 0;
    let mut live = None;
    let mut peaks = Vec::new();
    let (mut commit_rounds, mut read_rounds) = (Vec::new(), Vec::new());
    for round in 0..sz.setups as u64 {
        drop(live.take());
        reset_peak_rss();
        let dir = cfg.work.join(format!("wal-{round}"));
        let start = Instant::now();
        let objects = local.span("setup.generate", round, 0, |_, _| spec.generate());
        t.generate.push(secs(start));
        let s = stream(&objects);
        if round == 0 {
            queries = load_mix(cfg.stream_seed(2), sz.queries, s.horizon);
        }
        let at = Instant::now();
        let mut pipeline = IngestPipeline::new(OnlineSplitConfig::default(), params);
        pipeline
            .attach_durability(&dir, wal)
            .map_err(|e| format!("attaching the WAL: {e}"))?;
        let reader = pipeline.reader();
        let (marks, rx) = sync_channel(READ_QUEUE);
        let first_commit = w.commit_ms.len();
        let round_reads = std::thread::scope(|scope| {
            let reads = scope.spawn(|| reader_loop(tracer, &reader, &queries, rx));
            let wrote = write_stream(&mut local, &mut pipeline, &s, &dir, &mut w, &marks);
            drop(marks);
            let reads = reads.join().map_err(|_| "the reader thread panicked")?;
            wrote.map(|()| reads)
        })?;
        t.ingest.push(secs(at));
        t.setup.push(secs(start));
        commit_rounds.push(w.commit_ms[first_commit..].to_vec());
        read_rounds.push(round_reads.lat_us.clone());
        let wal_stats = pipeline.wal_stats().ok_or("WAL detached")?;
        w.wal_bytes += wal_stats.bytes;
        w.fsyncs += wal_stats.fsyncs;
        w.rollbacks += pipeline.rollbacks();
        updates = s.updates.len();
        drop(s);
        let tree = pipeline.into_published_tree();

        let at = Instant::now();
        let recovered = local.span("pipeline.recover", round, 0, |_, _| {
            IngestPipeline::recover(&dir, OnlineSplitConfig::default(), params, wal)
        });
        t.recover.push(secs(at));
        let (mut recovered, rec) = recovered.map_err(|e| format!("recovering: {e}"))?;
        let sealed = recovered.seal();
        report.check(
            format!("round {round}: recovered stream seals cleanly"),
            sealed.rejected.is_empty() && sealed.error.is_none() && !sealed.stalled,
            format!("{} rejected", sealed.rejected.len()),
        );
        let recovered = recovered.into_published_tree();

        let sample = &queries[..sz.sample];
        let (got, errors) = answers(&tree, sample);
        failed += errors;
        if round == 0 {
            let bounds = brute_force_bounds(&objects, sample);
            let off = got
                .iter()
                .zip(&bounds)
                .filter(|(ids, (exact, coarse))| !subset(exact, ids) || !subset(ids, coarse))
                .count();
            report.check(
                "sealed index vs brute force over the generated rectangles",
                off == 0 && errors == 0,
                format!(
                    "{off} of {} answers miss a hit or hold an impossible id",
                    sample.len()
                ),
            );
            report.set("recover.records_replayed", rec.wal_records_replayed as f64);
            report.set(
                "recover.checkpoint_bytes",
                rec.checkpoint_generation
                    .map_or(0, |g| file_len(&checkpoint_file(&dir, g, "idx")))
                    as f64,
            );
            reference.clone_from(&got);
        } else {
            report.check(
                format!("round {round}: sealed index answers the sample as round 0's"),
                got == reference,
                format!("{} queries", sample.len()),
            );
        }
        drop(objects);
        let (again, errors) = answers(&recovered, sample);
        failed += errors;
        report.check(
            format!("round {round}: recovered index answers the sample as the live sealed index"),
            again == got,
            format!("{} queries", sample.len()),
        );
        drop(recovered);
        let stale = round_reads
            .kept
            .iter()
            .filter(|(q, ids)| query_tree(&tree, &q.area, &q.range).map_or(true, |o| o.0 != *ids))
            .count();
        report.check(
            format!("round {round}: reader answers below the watermark are final"),
            stale == 0,
            format!("{stale} of {} kept answers changed", round_reads.kept.len()),
        );
        reads.lat_us.extend(round_reads.lat_us);
        reads.pin_ns.extend(round_reads.pin_ns);
        reads.sums.merge(&round_reads.sums);
        let _ = std::fs::remove_dir_all(&dir);
        peaks.push(peak_rss_mb());
        live = Some(tree);
    }
    let mut live = live.ok_or("no round ran")?;

    report.attempted += w.ops + reads.sums.queries;
    report.failed += w.rejected + w.commit_errors + w.rollbacks + reads.sums.failed + failed;
    report.check(
        "no ingest op rejected",
        w.rejected == 0,
        format!("{} rejected", w.rejected),
    );
    report.check(
        "no query error on the sealed, recovered or reopened index",
        failed == 0,
        format!("{failed} errors"),
    );
    report.set("setup_s", median(&t.setup));
    report.set("datagen.generate_s", median(&t.generate));
    report.set("build.index_s", median(&t.ingest));
    report.set("persist.reopen_s", median(&t.recover));
    report.set(
        "ingest_ops_per_s",
        w.ops as f64 / t.ingest.iter().sum::<f64>(),
    );
    let (best_commit, best_read) = (best_of_rounds(&commit_rounds), best_of_rounds(&read_rounds));
    report.check(
        "every round commits and reads the same operations",
        best_commit.is_some() && best_read.is_some(),
        format!(
            "commits per round {:?}, reader queries per round {:?}",
            commit_rounds.iter().map(Vec::len).collect::<Vec<_>>(),
            read_rounds.iter().map(Vec::len).collect::<Vec<_>>()
        ),
    );
    // The main operation is the commit, its WAL fsync included.
    let mut best_commit = best_commit.unwrap_or_else(|| w.commit_ms.clone());
    let s = Summary::of(&mut best_commit);
    let note = format!("per commit, best of {} rounds: {}", sz.setups, s.note("ms"));
    report.set_noted("op_mean_ms", mean(&best_commit), note.clone());
    report.set_noted("op_p95_ms", quantile(&best_commit, 0.95), note);
    w.enqueue_ns.sort_by(f64::total_cmp);
    report.set("pipeline.enqueue_durable_ns", quantile(&w.enqueue_ns, 0.5));
    let commits = w.commits.max(1) as f64;
    report.set(
        "pipeline.batch_events_per_commit",
        w.batch_events as f64 / commits,
    );
    report.set(
        "pipeline.lag_events_per_commit",
        w.lag_events as f64 / commits,
    );
    report.set(
        "pipeline.publish_lag_instants",
        w.publish_lag as f64 / commits,
    );
    report.set("pipeline.checkpoint_ms", median(&w.checkpoint_ms));
    report.set("wal.bytes_per_op", w.wal_bytes as f64 / w.ops as f64);
    report.set("wal.fsyncs_per_commit", w.fsyncs as f64 / commits);
    report.set(
        "write_bytes_per_op",
        (w.wal_bytes + w.checkpoint_bytes) as f64 / w.ops as f64,
    );

    reads.pin_ns.sort_by(f64::total_cmp);
    report.set("reader.pin_ns", quantile(&reads.pin_ns, 0.5));
    report_reader(
        &mut report,
        &reads,
        &best_read.unwrap_or_else(|| reads.lat_us.clone()),
    );

    live.clear_buffer();
    let sample = &queries[..sz.sample];
    let io0 = live.io_stats();
    let cold = closed_loop(&mut local, sample, 0, sample.len(), &reference, |q| {
        query_tree(&live, &q.area, &q.range)
    });
    let io1 = live.io_stats();
    check_phase(&mut report, "cold sample vs round 0", &cold);
    conserve(&mut report, "cold sample", &cold.sums, io0, io1);
    report.set(
        "disk_reads_per_query",
        cold.sums.per_query(cold.sums.disk_reads),
    );
    let pages = live.num_pages();
    let records = live.total_records();
    report.set(
        "index_bytes_per_record",
        (pages * PAGE_SIZE) as f64 / records as f64,
    );

    report_peak(&mut report, &peaks);
    let path = cfg.work.join("ingest-live.idx");
    let at = Instant::now();
    live.save_to_file(&path)
        .map_err(|e| format!("saving the sealed index: {e}"))?;
    report.set("persist.save_s", secs(at));
    drop(live);
    let reopened = PprTree::open_file(&path).map_err(|e| format!("reopening: {e}"))?;
    let (again, errors) = answers(&reopened, sample);
    report.failed += errors;
    report.check(
        "reopened index answers the sample as before saving",
        again == reference && errors == 0,
        format!("{} queries, {errors} errors", sample.len()),
    );
    drop(reopened);
    let costs = probe_pages(&mut local, pages, |cap| {
        PageStore::load_from(&path, cap)
            .map(|(store, _)| store)
            .map_err(|e| format!("probe open: {e}"))
    })?;
    let query_us = mean(&reads.lat_us);
    report_probe(&mut report, &costs, &reads.sums, query_us);
    report.context("fsync", "commit");
    report.context("buffer_pages", params.buffer_pages);
    report.context("pages", pages);
    report.context("records", records);
    report.context("objects", sz.ingest_objects);
    report.context("updates", updates);
    report.context("rounds", sz.setups);
    report.context("commits", w.commits);
    Ok(report)
}

/// Per operation, its best time over rounds that repeat the same
/// operations in the same order: a burst of load from other processes
/// on a shared host slows an operation in one round, rarely in all.
/// `None` when the rounds ran different numbers of operations.
fn best_of_rounds(rounds: &[Vec<f64>]) -> Option<Vec<f64>> {
    let n = rounds.first()?.len();
    if rounds.iter().any(|r| r.len() != n) {
        return None;
    }
    Some(
        (0..n)
            .map(|i| rounds.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
            .collect(),
    )
}

/// The reader's query metrics, from each query's best latency over the
/// rounds: `query_qps` is the queries over the sum of those latencies.
fn report_reader(report: &mut Report, reads: &ReaderRun, best_us: &[f64]) {
    let mut best = best_us.to_vec();
    let s = Summary::of(&mut best);
    let note = format!(
        "per query, best of {} rounds: {}",
        reads.lat_us.len() / best.len().max(1),
        s.note("us")
    );
    report.set_noted("query_p50_us", s.p50, note.clone());
    report.set_noted("query_p99_us", quantile(&best, 0.99), note.clone());
    report.set_noted(
        "query_qps",
        best.len() as f64 * 1e6 / best.iter().sum::<f64>(),
        note,
    );
    report.set("core.query_us", mean(&reads.lat_us));
    report_query_counters(report, &reads.sums);
}

/// Replay the stream: every op logged before it is acknowledged, a
/// commit every [`COMMIT_EVERY`] instants (its watermark sent to the
/// reader), a checkpoint every [`CHECKPOINT_EVERY`] commits, then seal.
fn write_stream(
    local: &mut Local,
    pipeline: &mut IngestPipeline,
    s: &Stream,
    dir: &Path,
    w: &mut WriterRun,
    marks: &SyncSender<Time>,
) -> Result<(), String> {
    let (mut ui, mut fi, mut commits) = (0usize, 0usize, 0u64);
    let enqueue = |local: &mut Local,
                   pipeline: &mut IngestPipeline,
                   w: &mut WriterRun,
                   op: IngestOp|
     -> Result<(), String> {
        let t0 = Instant::now();
        local
            .span("pipeline.enqueue_durable", w.ops, 0, |_, _| {
                pipeline.enqueue_durable(op)
            })
            .map_err(|e| format!("logging an op: {e}"))?;
        w.enqueue_ns.push(t0.elapsed().as_nanos() as f64);
        w.ops += 1;
        Ok(())
    };
    for t in 0..s.horizon {
        while ui < s.updates.len() && s.updates[ui].0 == t {
            let (t, id, rect) = s.updates[ui];
            enqueue(local, pipeline, w, IngestOp::Update { id, rect, t })?;
            ui += 1;
        }
        while fi < s.finishes.len() && s.finishes[fi].0 == t + 1 {
            let (end, id) = s.finishes[fi];
            enqueue(local, pipeline, w, IngestOp::Finish { id, end })?;
            fi += 1;
        }
        if (t + 1) % COMMIT_EVERY == 0 {
            let t0 = Instant::now();
            let report = local.span("pipeline.commit", w.commits, 0, |_, _| pipeline.commit());
            w.commit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            w.absorb(&report, pipeline.now());
            commits += 1;
            if report.stamp.watermark > 0 {
                marks
                    .send(report.stamp.watermark)
                    .map_err(|_| "the reader stopped early")?;
            }
            if commits.is_multiple_of(CHECKPOINT_EVERY) {
                let t0 = Instant::now();
                let cp = local
                    .span("pipeline.checkpoint", w.commits, 0, |_, _| {
                        pipeline.checkpoint()
                    })
                    .map_err(|e| format!("checkpoint: {e}"))?;
                w.checkpoint_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                w.checkpoint_bytes += file_len(&checkpoint_file(dir, cp.generation, "idx"))
                    + file_len(&checkpoint_file(dir, cp.generation, "meta"));
            }
        }
    }
    let report = local.span("pipeline.commit", w.commits, 0, |_, _| pipeline.seal());
    if report.stalled {
        return Err("seal stalled".into());
    }
    w.absorb(&report, pipeline.now());
    Ok(())
}
