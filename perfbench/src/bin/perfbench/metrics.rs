//! The metric catalogue (mirrored in `BENCHMARK.json`), the per-run
//! report the workloads fill, and its rendering.

use std::collections::BTreeMap;

/// One metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Metric name: letters, digits, `_`, `.`, `-`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// Metrics a user sees, reported by every workload with tracing off.
/// Each is defined so that it is nonzero on every workload; the `op_*`
/// and `setup_s` metrics follow each workload's main operation, so the
/// layers only one workload exercises still move a gated number.
pub const END_TO_END: &[Def] = &[
    // Median wall time of one full set-up: generate, plan, build, save
    // and reopen (serve-hot); generate and bulk-load (scan-cold);
    // generate, ingest durably with the reader beside, and seal
    // (ingest-live).
    def("setup_s", "s"),
    // The process's VmHWM from a set-up's start to the end of its
    // measurement (the process holds the index), smallest over set-ups.
    def("peak_rss_mb", "MB"),
    // The workload's main operation: an HTTP request at the nominal
    // rate, timed from its due time (serve-hot); an in-process query at
    // one thread (scan-cold);
    // a commit, WAL fsync included (ingest-live). Timings of operations
    // that repeat take each operation's best repeat first. The centre is
    // the mean: about half the commits find the watermark unmoved and
    // only log (~1 ms), the rest apply and publish a batch (5-250 ms),
    // and the median sits on the cliff between them, where it moved by a
    // factor of two between seeds.
    def("op_mean_ms", "ms"),
    def("op_p95_ms", "ms"),
    // In-process query latency over the queries' best repeats: one
    // closed-loop thread (serve-hot, scan-cold) or the reader beside the
    // writer (ingest-live).
    def("query_p50_us", "us"),
    def("query_p99_us", "us"),
    // In-process queries per second: `QueryExecutor` at 2 threads, the
    // best quarter of full passes over the queries (serve-hot,
    // scan-cold), or the reader thread (ingest-live).
    def("query_qps", "1/s"),
    // The paper's metric, an exact count: page reads per query when the
    // fixed check sample runs once, in order, from an empty buffer of the
    // workload's size.
    def("disk_reads_per_query", "reads"),
    // Index pages × page size / records indexed.
    def("index_bytes_per_record", "B"),
];

/// Metrics of single layers, reported by every workload with tracing
/// on. Each is nonzero on every workload; `build.index_s` and
/// `persist.reopen_s` follow the workload's own build and reopen path.
pub const PER_LAYER: &[Def] = &[
    // core::index, core::executor
    def("core.query_us", "us"),
    def("core.results_per_query", "count"),
    def("core.query_explained_frac", "ratio"),
    // pprtree::tree, pprtree::node
    def("pprtree.nodes_per_query", "count"),
    def("pprtree.entries_per_result", "count"),
    def("pprtree.decode_ns", "ns"),
    // storage::store, shard, backend
    def("storage.hit_ratio", "ratio"),
    def("storage.read_hit_ns", "ns"),
    def("storage.read_miss_ns", "ns"),
    // datagen
    def("datagen.generate_s", "s"),
    // Median time of the layer that builds the index: the incremental
    // PPR-Tree build (serve-hot), `pprtree::bulk` (scan-cold), the
    // durable ingest pipeline up to the sealed tree (ingest-live).
    def("build.index_s", "s"),
    // Median time to bring the persisted index back: `open_file`
    // (serve-hot), reopening the `FileBackend` page file (scan-cold),
    // `IngestPipeline::recover` (ingest-live).
    def("persist.reopen_s", "s"),
];

/// Metrics of layers only some workloads exercise. Every run prints and
/// saves the ones its workload sets, but they stay out of the result
/// line: a layer a workload skips would read 0 on every run there.
pub const WORKLOAD_LAYER: &[Def] = &[
    // server (http, server) and the load generator: serve-hot
    def("http_p99_ms", "ms"),
    def("http_max_rps", "1/s"),
    def("server.overhead_us", "us"),
    def("server.conns_per_request", "count"),
    def("server.admission_rejected", "count"),
    def("load.generator_lag_p99_ms", "ms"),
    // core::executor at 2 threads: serve-hot, scan-cold
    def("core.executor_speedup_2t", "ratio"),
    // core::plan, single, multi: serve-hot
    def("plan.curves_s", "s"),
    def("plan.distribute_s", "s"),
    def("plan.records_per_object", "count"),
    // pprtree::bulk: scan-cold
    def("bulk.pages_written", "count"),
    def("bulk.fill_factor", "ratio"),
    // storage::persist: serve-hot, ingest-live
    def("persist.save_s", "s"),
    // core::pipeline, core::online, storage::wal, core::recover: ingest-live
    def("ingest_ops_per_s", "1/s"),
    def("write_bytes_per_op", "B"),
    def("pipeline.checkpoint_ms", "ms"),
    def("pipeline.enqueue_durable_ns", "ns"),
    def("pipeline.batch_events_per_commit", "count"),
    def("pipeline.lag_events_per_commit", "count"),
    def("pipeline.publish_lag_instants", "count"),
    def("reader.pin_ns", "ns"),
    def("wal.bytes_per_op", "B"),
    def("wal.fsyncs_per_commit", "count"),
    def("recover.records_replayed", "count"),
    def("recover.checkpoint_bytes", "B"),
    // failures / operations attempted (also the result line's
    // `failed` / `attempted`)
    def("error_rate", "ratio"),
];

/// Look a metric up in the catalogues.
pub fn lookup(name: &str) -> Option<Def> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(WORKLOAD_LAYER)
        .find(|d| d.name == name)
        .copied()
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Sample counts and tails behind a metric, for the printed table.
    pub notes: BTreeMap<&'static str, String>,
    /// Correctness checks: name, passed, detail.
    pub checks: Vec<(String, bool, String)>,
    /// Operations attempted (queries, requests, ingest ops).
    pub attempted: u64,
    /// Operations that failed (non-200, transport or storage errors,
    /// rejected ops, commit errors, rollbacks).
    pub failed: u64,
    /// Run context: core count, policies, sizes, seed, source identity.
    pub context: Vec<(&'static str, String)>,
}

impl Report {
    /// Record a metric.
    ///
    /// # Panics
    /// On a name missing from the catalogue: an uncatalogued metric is a
    /// bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(lookup(name).is_some(), "metric {name} is not catalogued");
        self.values.insert(name, value);
    }

    /// Record a metric with the summary behind it.
    pub fn set_noted(&mut self, name: &'static str, value: f64, note: String) {
        self.set(name, value);
        self.notes.insert(name, note);
    }

    /// Record a correctness check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), ok, detail.into()));
    }

    /// Record run context.
    pub fn context(&mut self, key: &'static str, value: impl ToString) {
        self.context.push((key, value.to_string()));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }

    /// The catalogue's metrics for this run, in order: values the
    /// workload did not set read 0 (the layer did no work; only
    /// [`WORKLOAD_LAYER`] metrics can be unset).
    pub fn select(&self, defs: &[Def]) -> Vec<(Def, f64)> {
        defs.iter()
            .map(|d| (*d, self.values.get(d.name).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(report: &Report, metrics: &[(Def, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.attempted.max(1),
        report.failed
    );
    for (i, (d, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let v = if v.is_finite() { *v } else { 0.0 };
        out.push_str(&format!(
            "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    /// The `"name": ..., "unit": ...` pairs listed under `key`.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split('{')
            .skip(1)
            .map(|item| {
                let field = |f: &str| {
                    let at = item.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
                    let rest = &item[at..];
                    let open = rest.find('"').expect("value opens") + 1;
                    let close = open + rest[open..].find('"').expect("value closes");
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = benchmark_json();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(
                listed(&json, key),
                want,
                "{key} differs from BENCHMARK.json"
            );
        }
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let all: Vec<&Def> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .chain(WORKLOAD_LAYER)
            .collect();
        for d in &all {
            assert!(!d.name.is_empty() && d.name.len() <= 64, "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {}",
                d.name
            );
            assert!(d.unit.len() <= 16);
            assert_eq!(all.iter().filter(|o| o.name == d.name).count(), 1);
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report::default();
        r.set("setup_s", 1.5);
        r.attempted = 10;
        let line = result_line(&r, &r.select(&END_TO_END[..2]));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MB\"}}}"
        );
    }
}
