//! What the three workloads share: run configuration, seeded inputs,
//! the closed-loop query phases, the brute-force oracle, the outside-in
//! page probe, and the process and source facts each run records.

use crate::metrics::Report;
use crate::trace::{Local, Tracer};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use sti_core::{ObjectRecord, Parallelism, QueryExecutor, QueryOutcome};
use sti_geom::{Rect2, TimeInterval};
use sti_obs::QueryStats;
use sti_storage::{IoStats, PageStore, ReadProbe};

/// Input sizes. [`Sizes::FULL`] is the benchmark; [`Sizes::TINY`]
/// drives the same code in the smoke tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// serve-hot objects (Table I size).
    pub hot_objects: usize,
    /// scan-cold objects (the big tier).
    pub cold_objects: usize,
    /// ingest-live objects.
    pub ingest_objects: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Distinct queries a workload cycles through.
    pub queries: usize,
    /// Queries checked against the oracle and counted for
    /// `disk_reads_per_query`.
    pub sample: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        hot_objects: 50_000,
        cold_objects: 1_000_000,
        ingest_objects: 20_000,
        setups: 3,
        queries: 8192,
        sample: 2048,
    };

    /// Seconds-long sizes for the smoke tests.
    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        hot_objects: 300,
        cold_objects: 4_000,
        ingest_objects: 120,
        setups: 2,
        queries: 128,
        sample: 32,
    };
}

/// One run's settings.
pub struct Config {
    /// Seeds the dataset, the queries and the HTTP mix.
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Input sizes.
    pub sizes: Sizes,
    /// Directory for index files, spools and the WAL; removed at exit.
    pub work: PathBuf,
}

impl Config {
    /// `fraction` of the measured time.
    pub fn slice(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * fraction)
    }

    /// A seed for one input stream, derived from the run seed.
    pub fn stream_seed(&self, stream: u64) -> u64 {
        splitmix(self.seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }
}

/// splitmix64 step.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn next_unit(state: &mut u64) -> f64 {
    *state = splitmix(*state);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// One query, with its HTTP form.
#[derive(Debug, Clone)]
pub struct Q {
    /// Query window.
    pub area: Rect2,
    /// Query instants.
    pub range: TimeInterval,
}

impl Q {
    /// The `/query` path; coordinates print in shortest round-trip form,
    /// so the server parses exactly `area`.
    pub fn path(&self) -> String {
        format!(
            "/query?area={},{},{},{}&time={}&until={}",
            self.area.lo.x,
            self.area.lo.y,
            self.area.hi.x,
            self.area.hi.y,
            self.range.start,
            self.range.end
        )
    }
}

/// The `sti-load` mix: windows 5–15% of the space per side, three
/// snapshots to every interval of 2–21 instants, over `horizon`
/// instants.
pub fn load_mix(seed: u64, n: usize, horizon: u32) -> Vec<Q> {
    (0..n)
        .map(|i| {
            let mut s = splitmix(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let x0 = 0.85 * next_unit(&mut s);
            let y0 = 0.85 * next_unit(&mut s);
            let x1 = (x0 + 0.05 + 0.10 * next_unit(&mut s)).min(1.0);
            let y1 = (y0 + 0.05 + 0.10 * next_unit(&mut s)).min(1.0);
            let horizon = horizon.max(2);
            let time = (next_unit(&mut s) * f64::from(horizon - 1)) as u32;
            let until = if i % 4 == 0 {
                (time + 2 + (next_unit(&mut s) * 20.0) as u32).min(horizon)
            } else {
                time + 1
            };
            Q {
                area: Rect2::from_bounds(x0, y0, x1, y1),
                range: TimeInterval::new(time, until.max(time + 1)),
            }
        })
        .collect()
}

/// The scale-tier mix (`sti-bench`'s `tier_queries`): small snapshot
/// probes with every eighth query a medium interval scan.
pub fn tier_mix(seed: u64, n: usize) -> Vec<Q> {
    let mut scan = sti_datagen::QuerySetSpec::medium_range();
    scan.cardinality = n / 8;
    scan.seed = splitmix(seed ^ 1);
    let mut probe = sti_datagen::QuerySetSpec::small_snapshot();
    probe.cardinality = n - scan.cardinality;
    probe.seed = splitmix(seed ^ 2);
    let (mut scans, mut probes) = (scan.generate().into_iter(), probe.generate().into_iter());
    (0..n)
        .filter_map(|i| {
            if i % 8 == 7 {
                scans.next().or_else(|| probes.next())
            } else {
                probes.next().or_else(|| scans.next())
            }
        })
        .map(|q| Q {
            area: q.area,
            range: q.range,
        })
        .collect()
}

/// Ids of records intersecting each query, sorted: the oracle the index
/// answers are checked against. One pass over the records; each record
/// is tested only against the queries whose start instant could overlap
/// its lifetime.
pub fn brute_force(records: &[ObjectRecord], queries: &[Q]) -> Vec<Vec<u64>> {
    let mut by_start: Vec<usize> = (0..queries.len()).collect();
    by_start.sort_by_key(|&i| queries[i].range.start);
    let longest = queries.iter().map(|q| q.range.len()).max().unwrap_or(0);
    let mut out = vec![Vec::new(); queries.len()];
    for r in records {
        let life = r.stbox.lifetime;
        let lo = u64::from(life.start).saturating_sub(longest);
        let first = by_start.partition_point(|&i| u64::from(queries[i].range.start) < lo);
        for &i in &by_start[first..] {
            let q = &queries[i];
            if q.range.start >= life.end {
                break;
            }
            if life.overlaps(&q.range) && r.stbox.rect.intersects(&q.area) {
                out[i].push(r.id);
            }
        }
    }
    for ids in &mut out {
        ids.sort_unstable();
        ids.dedup();
    }
    out
}

/// Counters summed over a phase's queries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sums {
    /// Queries answered.
    pub queries: u64,
    /// Queries that returned a storage error.
    pub failed: u64,
    /// Answers that differ from the reference.
    pub wrong: u64,
    /// Page reads that missed the buffer.
    pub disk_reads: u64,
    /// Page reads the buffer absorbed.
    pub buffer_hits: u64,
    /// Nodes decoded.
    pub nodes: u64,
    /// Entries tested.
    pub entries: u64,
    /// Ids returned.
    pub results: u64,
}

impl Sums {
    /// Fold one outcome in, comparing it with `expect` when given.
    pub fn add(&mut self, out: &QueryOutcome, expect: Option<&[u64]>) {
        self.queries += 1;
        match out {
            Ok((ids, s)) => {
                self.absorb(s);
                if expect.is_some_and(|e| e != ids.as_slice()) {
                    self.wrong += 1;
                }
            }
            Err(_) => self.failed += 1,
        }
    }

    /// Fold another phase's counters in.
    pub fn merge(&mut self, b: &Sums) {
        self.queries += b.queries;
        self.failed += b.failed;
        self.wrong += b.wrong;
        self.disk_reads += b.disk_reads;
        self.buffer_hits += b.buffer_hits;
        self.nodes += b.nodes;
        self.entries += b.entries;
        self.results += b.results;
    }

    fn absorb(&mut self, s: &QueryStats) {
        self.disk_reads += s.disk_reads;
        self.buffer_hits += s.buffer_hits;
        self.nodes += s.nodes_visited;
        self.entries += s.entries_scanned;
        self.results += s.results;
    }

    /// The counters gathered since `before` (both cumulative).
    pub fn since(&self, before: &Sums) -> Sums {
        Sums {
            queries: self.queries - before.queries,
            failed: self.failed - before.failed,
            wrong: self.wrong - before.wrong,
            disk_reads: self.disk_reads - before.disk_reads,
            buffer_hits: self.buffer_hits - before.buffer_hits,
            nodes: self.nodes - before.nodes,
            entries: self.entries - before.entries,
            results: self.results - before.results,
        }
    }

    /// Per-query mean of a counter.
    pub fn per_query(&self, v: u64) -> f64 {
        v as f64 / self.queries.max(1) as f64
    }
}

/// A closed-loop phase's result.
#[derive(Default)]
pub struct Phase {
    /// Summed counters.
    pub sums: Sums,
    /// Per-query latency in microseconds (empty when not timed).
    pub lat_us: Vec<f64>,
    /// Wall time.
    pub elapsed: Duration,
}

impl Phase {
    /// Queries per second.
    pub fn qps(&self) -> f64 {
        self.sums.queries as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn merge(&mut self, other: Phase) {
        self.sums.merge(&other.sums);
        self.lat_us.extend(other.lat_us);
        self.elapsed += other.elapsed;
    }
}

/// One thread, one query at a time: `n` queries from `queries[from..]`
/// (wrapping), each timed, each answer compared with `expect`.
pub fn closed_loop(
    local: &mut Local,
    queries: &[Q],
    from: usize,
    n: usize,
    expect: &[Vec<u64>],
    run: impl Fn(&Q) -> QueryOutcome,
) -> Phase {
    let mut sums = Sums::default();
    let mut lat_us = Vec::with_capacity(n);
    let start = Instant::now();
    for i in from..from + n {
        let k = i % queries.len();
        let t0 = Instant::now();
        let out = local.span("core.query", i as u64, 0, |_, _| run(&queries[k]));
        lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
        sums.add(&out, expect.get(k).map(Vec::as_slice));
    }
    Phase {
        sums,
        lat_us,
        elapsed: start.elapsed(),
    }
}

/// Worker threads of the parallel phase.
const EXECUTOR_THREADS: usize = 2;
/// Queries per `QueryExecutor` call.
const EXECUTOR_BATCH: usize = 256;

/// `QueryExecutor` at [`EXECUTOR_THREADS`] workers: `n` queries from
/// `queries[from..]` (wrapping) in batches of [`EXECUTOR_BATCH`],
/// answers compared with `expect`.
#[allow(clippy::too_many_arguments)]
pub fn executor_loop(
    local: &mut Local,
    tracer: &Tracer,
    queries: &[Q],
    from: usize,
    n: usize,
    expect: &[Vec<u64>],
    run: impl Fn(&Q) -> QueryOutcome + Sync,
) -> Phase {
    let (batch, exec) = (
        EXECUTOR_BATCH,
        QueryExecutor::new(Parallelism::fixed(EXECUTOR_THREADS)),
    );
    let mut sums = Sums::default();
    let traced = tracer.on();
    let start = Instant::now();
    let mut at = from;
    while at < from + n {
        let idx: Vec<usize> = (at..(at + batch).min(from + n))
            .map(|i| i % queries.len())
            .collect();
        local.span("core.batch", at as u64, 0, |l, batch_id| {
            let outs = exec.run_with(&idx, |&k| {
                let t0 = traced.then(Instant::now);
                let out = run(&queries[k]);
                (out, t0.map(|t| (t, Instant::now())))
            });
            for (&k, (out, times)) in idx.iter().zip(&outs) {
                if let Some((t0, t1)) = times {
                    l.record("core.query", k as u64, batch_id, *t0, *t1);
                }
                sums.add(out, expect.get(k).map(Vec::as_slice));
            }
        });
        at += idx.len();
    }
    Phase {
        sums,
        lat_us: Vec::new(),
        elapsed: start.elapsed(),
    }
}

/// The in-process query phases, interleaved: for `dur`, slices of one
/// closed-loop pass at 1 thread then one at 2 threads through
/// `QueryExecutor`, each over `slice` queries, cycling through every
/// query many times. Load from other processes on a shared host slows
/// the machine in bursts: latency is taken per query as its best over
/// every pass, and throughput per full pass over the queries, of which
/// the best quarter is reported. Interleaving exposes both thread counts
/// to the same bursts.
pub struct Interleaved {
    /// All 1-thread slices merged.
    pub one: Phase,
    /// All 2-thread slices merged.
    pub two: Phase,
    /// Per query: its best 1-thread latency over every pass, µs
    /// (infinite when it never ran).
    pub best_us: Vec<f64>,
    /// Per full pass over the queries: 2-thread queries per second.
    pub qps_2t: Vec<f64>,
    /// Per full pass over the queries: 1-thread queries per second.
    pub qps_1t: Vec<f64>,
}

impl Interleaved {
    /// Fold in another run's passes (the same queries on another build).
    pub fn absorb(&mut self, other: Interleaved) {
        self.one.merge(other.one);
        self.two.merge(other.two);
        for (b, o) in self.best_us.iter_mut().zip(other.best_us) {
            *b = b.min(o);
        }
        self.qps_2t.extend(other.qps_2t);
        self.qps_1t.extend(other.qps_1t);
    }

    /// The best latencies of the queries that ran, ascending.
    pub fn best_sorted(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .best_us
            .iter()
            .copied()
            .filter(|x| x.is_finite())
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Run [`Interleaved`] phases for at least `dur` and one full pass over
/// the queries, calling `between` after every pair of slices (serve-hot
/// serves a window of HTTP requests there) and summing what it reports.
#[allow(clippy::too_many_arguments)]
pub fn interleaved(
    local: &mut Local,
    tracer: &Tracer,
    dur: Duration,
    slice: usize,
    queries: &[Q],
    expect: &[Vec<u64>],
    run: impl Fn(&Q) -> QueryOutcome + Sync,
    between: &mut dyn FnMut() -> Sums,
) -> (Interleaved, Sums) {
    let mut out = Interleaved {
        one: Phase::default(),
        two: Phase::default(),
        best_us: vec![f64::INFINITY; queries.len()],
        qps_2t: Vec::new(),
        qps_1t: Vec::new(),
    };
    let mut others = Sums::default();
    let (mut pass_one, mut pass_two) = (Phase::default(), Phase::default());
    let start = Instant::now();
    let mut from = 0usize;
    while out.qps_2t.is_empty() || start.elapsed() < dur {
        let one = closed_loop(local, queries, from, slice, expect, &run);
        let two = executor_loop(local, tracer, queries, from, slice, expect, &run);
        others.merge(&between());
        for (j, &lat) in one.lat_us.iter().enumerate() {
            let best = &mut out.best_us[(from + j) % queries.len()];
            *best = best.min(lat);
        }
        from += slice;
        pass_one.sums.merge(&one.sums);
        pass_one.elapsed += one.elapsed;
        pass_two.sums.merge(&two.sums);
        pass_two.elapsed += two.elapsed;
        out.one.merge(one);
        out.two.merge(two);
        if pass_one.sums.queries >= queries.len() as u64 {
            out.qps_1t.push(pass_one.qps());
            out.qps_2t.push(pass_two.qps());
            (pass_one, pass_two) = (Phase::default(), Phase::default());
        }
    }
    (out, others)
}

/// Record the query metrics of interleaved phases: `query_p50_us` and
/// `query_p99_us` over the queries' best latencies, `query_qps` the
/// best quarter of the 2-thread passes.
pub fn report_interleaved(report: &mut Report, run: &Interleaved) {
    let mut best = run.best_sorted();
    let s = crate::stats::Summary::of(&mut best);
    let passes = run.one.lat_us.len() / best.len().max(1);
    let note = format!("per query, best of {passes} passes: {}", s.note("us"));
    report.set_noted("query_p50_us", s.p50, note.clone());
    report.set_noted("query_p99_us", crate::stats::quantile(&best, 0.99), note);
    let qps_2t = best_quarter(&run.qps_2t);
    report.set_noted(
        "query_qps",
        qps_2t,
        format!(
            "best quarter of {} passes over the queries at 2 threads",
            run.qps_2t.len()
        ),
    );
    report.set(
        "core.executor_speedup_2t",
        qps_2t / best_quarter(&run.qps_1t),
    );
    report.set("core.query_us", mean_us(&run.one));
    report_query_counters(report, &run.one.sums);
}

/// What [`cold_and_warm`] found on one built index.
pub struct Warmed {
    /// Warm-up answers to every query, the reference for later phases.
    pub reference: Vec<Vec<u64>>,
    /// Page reads per query of the check sample from an empty buffer.
    pub cold_reads_per_query: f64,
}

/// The check sample from an empty buffer against `oracle` (the paper's
/// reads per query), then a warm-up pass that gives the reference
/// answers. Records every check in `report`.
pub fn cold_and_warm(
    report: &mut Report,
    local: &mut Local,
    index: &mut sti_core::SpatioTemporalIndex,
    queries: &[Q],
    oracle: &[Vec<u64>],
) -> Result<Warmed, String> {
    let sample = &queries[..oracle.len()];
    index.clear_buffer();
    let io0 = index.io_stats();
    let cold = closed_loop(local, sample, 0, sample.len(), oracle, |q| {
        index.query_with_stats(&q.area, &q.range)
    });
    let io1 = index.io_stats();
    check_phase(report, "cold sample vs brute force", &cold);
    conserve(report, "cold sample", &cold.sums, io0, io1);
    let reference = queries
        .iter()
        .map(|q| index.query(&q.area, &q.range))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("warm-up query: {e}"))?;
    report.attempted += queries.len() as u64;
    Ok(Warmed {
        reference,
        cold_reads_per_query: cold.sums.per_query(cold.sums.disk_reads),
    })
}

/// [`interleaved`] phases for `dur` on a warmed index, checked against
/// the warm-up answers. `between` reports the per-query counters of the
/// queries it ran, so Σ `QueryStats` can be held to the `IoStats` delta.
/// Returns the phases and the sums of the in-process and `between`
/// queries together.
#[allow(clippy::too_many_arguments)]
pub fn measure_warm(
    report: &mut Report,
    local: &mut Local,
    tracer: &Tracer,
    index: &sti_core::SpatioTemporalIndex,
    queries: &[Q],
    reference: &[Vec<u64>],
    dur: Duration,
    slice: usize,
    between: &mut dyn FnMut() -> Sums,
) -> (Interleaved, Sums) {
    let warm = index.io_stats();
    let (phases, others) = interleaved(
        local,
        tracer,
        dur,
        slice.min(queries.len()),
        queries,
        reference,
        |q| index.query_with_stats(&q.area, &q.range),
        between,
    );
    let end = index.io_stats();
    check_phase(report, "1 thread vs warm-up answers", &phases.one);
    check_phase(report, "2-thread executor vs sequential", &phases.two);
    let mut sums = phases.one.sums;
    sums.merge(&phases.two.sums);
    sums.merge(&others);
    conserve(report, "warm phases", &sums, warm, end);
    (phases, sums)
}

/// Σ per-query `QueryStats` must equal the `IoStats` delta.
pub fn conserve(report: &mut Report, what: &str, sums: &Sums, before: IoStats, after: IoStats) {
    let (reads, hits) = (
        after.reads - before.reads,
        after.buffer_hits - before.buffer_hits,
    );
    report.check(
        format!("{what}: per-query stats sum to the I/O counters"),
        (reads, hits) == (sums.disk_reads, sums.buffer_hits),
        format!(
            "queries {}+{} vs store {reads}+{hits} (reads+hits)",
            sums.disk_reads, sums.buffer_hits
        ),
    );
}

/// Mean wall time per query of a phase, µs.
pub fn mean_us(p: &Phase) -> f64 {
    p.elapsed.as_secs_f64() * 1e6 / p.sums.queries.max(1) as f64
}

/// Per-page costs measured from outside the tree, over a workload's
/// own pages.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeCosts {
    /// `PageStore::read` of a resident page.
    pub hit_ns: f64,
    /// `PageStore::read` that misses (capacity 0).
    pub miss_ns: f64,
    /// `PprNode::decode` of one page.
    pub decode_ns: f64,
    /// Pages probed.
    pub pages: u64,
    /// Pages that failed to read or decode.
    pub errors: u64,
}

/// Time `PageStore::read` hits, misses and `PprNode::decode` over every
/// allocated page of the stores `open(capacity)` returns, for an index
/// of `pages` pages. Each page is dropped after use: keeping copies
/// would add page-fault time to later reads.
pub fn probe_pages(
    local: &mut Local,
    pages: usize,
    open: impl Fn(usize) -> Result<PageStore, String>,
) -> Result<ProbeCosts, String> {
    let hot = open(pages)?;
    let ids: Vec<u32> = (0..hot.num_pages() as u32)
        .filter(|&id| !hot.is_free(id))
        .collect();
    let mut probe = ReadProbe::new();
    let mut c = ProbeCosts {
        pages: ids.len() as u64,
        ..ProbeCosts::default()
    };
    for &id in &ids {
        c.errors += u64::from(hot.read(id, &mut probe).is_err());
    }
    let (mut hit, mut decode) = (Duration::ZERO, Duration::ZERO);
    for &id in &ids {
        let t0 = Instant::now();
        let page = local.span("probe.storage.read", u64::from(id), 0, |_, _| {
            hot.read(id, &mut probe)
        });
        let t1 = Instant::now();
        let node = page.as_ref().map(|p| {
            local.span("probe.pprtree.decode", u64::from(id), 0, |_, _| {
                sti_pprtree::PprNode::decode(p)
            })
        });
        hit += t1 - t0;
        decode += t1.elapsed();
        c.errors += u64::from(!matches!(node, Ok(Ok(_))));
    }
    drop(hot);
    let cold = open(0)?;
    let mut miss = Duration::ZERO;
    let mut cold_probe = ReadProbe::new();
    for &id in &ids {
        let t0 = Instant::now();
        let page = local.span("probe.storage.read", u64::from(id), 0, |_, _| {
            cold.read(id, &mut cold_probe)
        });
        miss += t0.elapsed();
        c.errors += u64::from(page.is_err());
    }
    let per = |d: Duration| d.as_nanos() as f64 / ids.len().max(1) as f64;
    c.hit_ns = per(hit);
    c.decode_ns = per(decode);
    c.miss_ns = per(miss);
    let n = ids.len() as u64;
    if (probe.disk_reads, probe.buffer_hits, cold_probe.disk_reads) != (n, n, n) {
        return Err(format!(
            "page probe miscounted: warm {} hits/{} reads, cold {} reads for {} pages",
            probe.buffer_hits,
            probe.disk_reads,
            cold_probe.disk_reads,
            ids.len()
        ));
    }
    Ok(c)
}

/// Record the probe's metrics and the share of the mean in-process
/// query time `query_us` they explain: nodes × decode + hits × hit +
/// reads × miss, per query.
pub fn report_probe(report: &mut Report, c: &ProbeCosts, one: &Sums, query_us: f64) {
    report.set("storage.read_hit_ns", c.hit_ns);
    report.set("storage.read_miss_ns", c.miss_ns);
    report.set("pprtree.decode_ns", c.decode_ns);
    let explained_ns = one.per_query(one.nodes) * c.decode_ns
        + one.per_query(one.buffer_hits) * c.hit_ns
        + one.per_query(one.disk_reads) * c.miss_ns;
    report.set("core.query_explained_frac", explained_ns / 1e3 / query_us);
    report.check(
        "page probe reads and decodes every page",
        c.errors == 0,
        format!("{} pages, {} errors", c.pages, c.errors),
    );
}

/// The per-query counters every in-process workload reports.
pub fn report_query_counters(report: &mut Report, one: &Sums) {
    report.set("pprtree.nodes_per_query", one.per_query(one.nodes));
    report.set("core.results_per_query", one.per_query(one.results));
    report.set(
        "pprtree.entries_per_result",
        one.entries as f64 / one.results.max(1) as f64,
    );
    report.set(
        "storage.hit_ratio",
        one.buffer_hits as f64 / (one.buffer_hits + one.disk_reads).max(1) as f64,
    );
}

/// Check and record one phase: answers equal the reference, no storage
/// error. Returns the phase's failures for `error_rate`.
pub fn check_phase(report: &mut Report, what: &str, p: &Phase) {
    report.attempted += p.sums.queries;
    report.failed += p.sums.failed;
    report.check(
        format!("{what}: answers equal the reference"),
        p.sums.wrong == 0,
        format!("{} of {} differ", p.sums.wrong, p.sums.queries),
    );
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Median of a small sample (set-up times).
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    crate::stats::Summary::of(&mut v).p50
}

/// The upper quartile of per-pass rates. Other processes on a shared
/// host slow some passes by a fifth or more, in bursts; this figure stays
/// with the undisturbed passes as long as bursts hit fewer than three
/// quarters of them, and a change in the code moves every pass.
pub fn best_quarter(per_pass: &[f64]) -> f64 {
    let mut v = per_pass.to_vec();
    v.sort_by(f64::total_cmp);
    crate::stats::quantile(&v, 0.75)
}

/// Restart the process's peak resident set (VmHWM) from its current
/// resident set, so each set-up's peak is read on its own: where the
/// allocator leaves a freed build moves the whole-run peak by tens of MB.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (VmHWM) of this process, MB: since the last
/// [`reset_peak_rss`], or since the process started.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Record `peak_rss_mb`: the smallest of the set-ups' peaks. Each
/// set-up after the first starts with the allocator holding pages the
/// earlier ones freed, which lifts its peak by up to 40 MB from run to
/// run; a change in the code lifts every set-up's peak.
pub fn report_peak(report: &mut Report, peaks: &[f64]) {
    report.set_noted(
        "peak_rss_mb",
        peaks.iter().copied().fold(f64::INFINITY, f64::min),
        format!("smallest of the set-ups' peaks {peaks:.1?}"),
    );
}

/// Hardware threads available.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checkout the benchmark was built in.
pub fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Identity of the measured source: the git commit when the checkout is
/// a repository, and always an XXH64 over the library and benchmark
/// sources (a checkout without `.git` still identifies its code).
pub fn source_identity() -> (String, String) {
    let root = checkout_root();
    let commit = std::fs::read_to_string(root.join(".git/HEAD"))
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(root.join(".git").join(r)).ok(),
            None => Some(head),
        })
        .map_or_else(|| "none".to_string(), |h| h.trim().to_string());
    let mut files = Vec::new();
    for dir in ["crates", "perfbench/src"] {
        collect_rs(&root.join(dir), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    (commit, format!("{:016x}", sti_storage::xxh64(&bytes)))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
