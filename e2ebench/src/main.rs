//! End-to-end benchmark of the Vermeer & Apers interoperation pipeline
//! and the constraint-enforcing store it feeds.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <integrate_batch|view_churn|store_read|store_write|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, sets itself up several
//! times (reporting the median as `setup_s`), runs a closed loop for
//! `--seconds`, then checks the system's outputs. The last line of
//! standard output is one JSON object: with `--trace 0` it holds the
//! end-to-end metrics, measured untraced; with `--trace 1` the loop runs
//! in quarters, alternately untraced and traced, and the object holds
//! the per-layer metrics taken from the spans, plus the tracing overhead.
//! `--workload all` runs the four workloads in turn and reports each
//! under the metric names of `README.md`. A failed output check prints
//! the JSON object with `"correct": false` and exits with code 1.

mod churn;
mod gen;
mod integrate;
mod read;
mod session;
mod stats;
mod trace;
mod write;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use stats::Samples;
use trace::Trace;

/// Each workload sets itself up at least this many times, and for at
/// least [`SETUP_SECONDS`] in total; `setup_s` is the median. Cheap
/// set-ups thus repeat more often, which steadies their median.
const MIN_SETUPS: usize = 5;

/// See [`MIN_SETUPS`].
const SETUP_SECONDS: f64 = 2.0;

/// Run parameters shared by every workload.
pub struct Config {
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Directory for trace files and durable stores, inside the checkout.
    pub out: PathBuf,
}

impl Config {
    /// The measured loop's phases, as (traced, length): the whole run
    /// untraced, or quarters alternating untraced and traced, so that
    /// drift over the run does not pass for tracing overhead.
    pub fn phases(&self) -> Vec<(bool, Duration)> {
        if self.trace {
            let quarter = Duration::from_secs_f64(self.seconds / 4.0);
            [false, true, false, true]
                .map(|traced| (traced, quarter))
                .to_vec()
        } else {
            vec![(false, Duration::from_secs_f64(self.seconds))]
        }
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Run {
    /// Duration of each set-up, in seconds.
    pub setups: Samples,
    /// Latencies of the workload's primary operation (untraced loop).
    pub op: Samples,
    /// Wall time of the untraced loop, in seconds.
    pub op_wall_s: f64,
    /// Latencies of the workload's secondary operation (untraced loop).
    pub aux: Samples,
    /// Latencies of the primary operation in the traced phases.
    pub traced_op: Samples,
    /// Operations attempted and failed, over the whole run.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Output checks that failed.
    pub problems: Vec<String>,
    /// Spans and counters of the traced loop.
    pub trace: Trace,
}

impl Run {
    /// Folds in one phase's primary- and secondary-operation latencies
    /// and wall time.
    pub fn record(&mut self, traced: bool, op: Samples, aux: Samples, wall: Duration) {
        if traced {
            self.traced_op.extend(op);
        } else {
            self.op.extend(op);
            self.aux.extend(aux);
            self.op_wall_s += wall.as_secs_f64();
        }
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Times repeated set-ups (see [`MIN_SETUPS`]) and returns the last
/// one's state. `setup` gets the repetition's index.
pub fn timed_setups<T>(run: &mut Run, mut setup: impl FnMut(usize) -> T) -> T {
    let mut total = 0.0;
    let mut i = 0;
    loop {
        let t = Instant::now();
        let state = setup(i);
        let s = t.elapsed().as_secs_f64();
        run.setups.push(s);
        total += s;
        i += 1;
        if i >= MIN_SETUPS && total >= SETUP_SECONDS {
            return state;
        }
    }
}

/// A metric of the `--workload all` report (see `README.md`).
enum Src {
    /// Quantile of the primary operation's latency.
    Op(f64),
    /// Primary operations per second.
    OpRate,
    /// Quantile of the secondary operation's latency.
    Aux(f64),
}

struct Workload {
    name: &'static str,
    run: fn(&Config) -> Run,
    /// Quantile reported as `op_ms_tail`.
    tail: f64,
    /// The workload's metrics under their own names: (name, unit,
    /// source, factor from milliseconds or operations per second).
    named: &'static [(&'static str, &'static str, Src, f64)],
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "integrate_batch",
        run: integrate::run,
        tail: 0.9,
        named: &[
            ("integrate_s_p50", "s", Src::Op(0.5), 1e-3),
            ("integrate_s_p90", "s", Src::Op(0.9), 1e-3),
        ],
    },
    Workload {
        name: "view_churn",
        run: churn::run,
        tail: 0.99,
        named: &[
            ("view_update_ms_p50", "ms", Src::Op(0.5), 1.0),
            ("view_update_ms_p99", "ms", Src::Op(0.99), 1.0),
            ("conflicts_refresh_ms_p50", "ms", Src::Aux(0.5), 1.0),
            ("conflicts_refresh_ms_p90", "ms", Src::Aux(0.9), 1.0),
        ],
    },
    Workload {
        name: "store_read",
        run: read::run,
        tail: 0.99,
        named: &[
            ("read_ms_p50", "ms", Src::Op(0.5), 1.0),
            ("read_ms_p99", "ms", Src::Op(0.99), 1.0),
            ("reads_per_s", "1/s", Src::OpRate, 1.0),
        ],
    },
    Workload {
        name: "store_write",
        run: write::run,
        tail: 0.9,
        named: &[
            ("commit_ms_p50", "ms", Src::Op(0.5), 1.0),
            ("commit_ms_p90", "ms", Src::Op(0.9), 1.0),
            ("commits_per_s", "1/s", Src::OpRate, 1.0),
            ("recover_s", "s", Src::Aux(0.5), 1e-3),
        ],
    },
];

/// How a per-layer metric is read off the trace.
enum Layer {
    /// Mean self time of a span, in milliseconds.
    Ms(&'static str),
    /// Mean self time of a span, in microseconds.
    Us(&'static str),
    /// A counter the workload computed.
    Counter,
}

/// Every per-layer metric, in `BENCHMARK.json` order. A workload that
/// never calls into a layer reports 0 for it.
const PER_LAYER: &[(&str, &str, Layer)] = &[
    ("analyze.preflight_ms", "ms", Layer::Ms("analyze.preflight")),
    ("conform.conform_ms", "ms", Layer::Ms("conform.conform")),
    ("merge.merge_ms", "ms", Layer::Ms("merge.merge")),
    ("core.classify_ms", "ms", Layer::Ms("core.classify")),
    ("core.derive_ms", "ms", Layer::Ms("core.derive")),
    ("core.conflicts_ms", "ms", Layer::Ms("core.conflicts")),
    ("core.repair_ms", "ms", Layer::Ms("core.repair")),
    ("core.conflicts_found", "count", Layer::Counter),
    (
        "core.pipeline_build_ms",
        "ms",
        Layer::Ms("core.pipeline_build"),
    ),
    ("storage.update_us", "us", Layer::Us("storage.update")),
    ("core.sync_ms", "ms", Layer::Ms("core.sync")),
    ("core.touched_per_sync", "count", Layer::Counter),
    (
        "storage.optimizer_new_us",
        "us",
        Layer::Us("storage.optimizer_new"),
    ),
    (
        "storage.execute_ms.pruned",
        "ms",
        Layer::Ms("storage.execute.pruned"),
    ),
    (
        "storage.execute_ms.key",
        "ms",
        Layer::Ms("storage.execute.key"),
    ),
    (
        "storage.execute_ms.index",
        "ms",
        Layer::Ms("storage.execute.index"),
    ),
    (
        "storage.execute_ms.scan",
        "ms",
        Layer::Ms("storage.execute.scan"),
    ),
    ("storage.rows_per_read", "count", Layer::Counter),
    ("storage.cold_reads", "count", Layer::Counter),
    ("mvcc.begin_us", "us", Layer::Us("mvcc.begin")),
    ("mvcc.first_write_ms", "ms", Layer::Ms("mvcc.first_write")),
    ("mvcc.commit_ms", "ms", Layer::Ms("mvcc.commit")),
    ("wal.ack_wait_ms", "ms", Layer::Ms("wal.ack_wait")),
    ("mvcc.retries_per_commit", "count", Layer::Counter),
    ("mvcc.commit_success_ratio", "ratio", Layer::Counter),
    ("wal.bytes_per_commit", "bytes", Layer::Counter),
    ("snapshot.files_written", "count", Layer::Counter),
    ("snapshot.bytes_written", "bytes", Layer::Counter),
    ("snapshot.errors", "count", Layer::Counter),
    (
        "recover.snapshot_decode_ms",
        "ms",
        Layer::Ms("recover.snapshot_decode"),
    ),
    ("recover.wal_scan_ms", "ms", Layer::Ms("recover.wal_scan")),
    ("recover.open_ms", "ms", Layer::Ms("recover.open")),
    ("trace.overhead_pct", "%", Layer::Counter),
];

fn usage(msg: &str) -> ! {
    eprintln!("e2ebench: {msg}");
    eprintln!(
        "usage: e2ebench --workload <integrate_batch|view_churn|store_read|store_write|all> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Config) {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let config = Config {
        seed: seed.unwrap_or_else(|| usage("--seed needs a whole number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
        out: PathBuf::from(".bench_out"),
    };
    (workload, config)
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let (which, config) = parse_args();
    let selected: Vec<&Workload> = if which == "all" {
        WORKLOADS.iter().collect()
    } else {
        match WORKLOADS.iter().find(|w| w.name == which) {
            Some(w) => vec![w],
            None => usage(&format!("unknown workload {which}")),
        }
    };
    let single = selected.len() == 1;

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems = Vec::new();
    let mut setup_total = 0.0;
    for w in &selected {
        let mut run = (w.run)(&config);
        attempted += run.attempted;
        failed += run.failed;
        let setup_s = run.setups.quantile(0.5);
        setup_total += setup_s;
        let op_rate = run.op.len() as f64 / run.op_wall_s.max(f64::MIN_POSITIVE);
        println!(
            "{}: setup_s = {setup_s:.4} s (median of {:.4?}); failed {}/{} operations",
            w.name,
            run.setups.values(),
            run.failed,
            run.attempted
        );
        if config.trace {
            let overhead = (run.traced_op.mean() / run.op.mean() - 1.0) * 100.0;
            run.trace.set("trace.overhead_pct", overhead);
            let path = config
                .out
                .join(format!("trace-{}-seed{}.jsonl", w.name, config.seed));
            match run.trace.write(&path) {
                Ok(()) => println!("{}: spans written to {}", w.name, path.display()),
                Err(e) => run
                    .problems
                    .push(format!("writing {}: {e}", path.display())),
            }
            for (name, unit, layer) in PER_LAYER {
                let (v, spans) = match layer {
                    Layer::Ms(span) => (run.trace.mean_self_ms(span), Some(span)),
                    Layer::Us(span) => (run.trace.mean_self_ms(span) * 1e3, Some(span)),
                    Layer::Counter => (run.trace.counter(name), None),
                };
                let spans = spans.map_or(String::new(), |s| {
                    format!(" ({} spans)", run.trace.calls(s))
                });
                println!("{}: {name} = {v:.4} {unit}{spans}", w.name);
                let name = if single {
                    name.to_string()
                } else {
                    format!("{}/{name}", w.name)
                };
                metrics.push((name, v, unit));
            }
        } else {
            for (name, unit, src, factor) in w.named {
                let (v, n) = match src {
                    Src::Op(q) => (run.op.quantile(*q), run.op.len()),
                    Src::OpRate => (op_rate, run.op.len()),
                    Src::Aux(q) => (run.aux.quantile(*q), run.aux.len()),
                };
                println!("{}: {name} = {:.4} {unit} (n = {n})", w.name, v * factor);
                if !single {
                    metrics.push((name.to_string(), v * factor, unit));
                }
            }
            // The medians and rates above are printed, not gated: on a
            // shared host whole runs fall into fast or slow phases, which
            // moves a median by up to 40% between runs. Every run meets
            // some slow phases, so the tails stay within about 15%.
            if single {
                metrics = vec![
                    ("setup_s".into(), setup_s, "s"),
                    ("op_ms_tail".into(), run.op.quantile(w.tail), "ms"),
                    ("aux_ms_p90".into(), run.aux.quantile(0.9), "ms"),
                ];
            }
        }
        for p in &run.problems {
            eprintln!("{}: output check failed: {p}", w.name);
        }
        problems.extend(run.problems);
    }
    if !single && !config.trace {
        metrics.insert(0, ("setup_s".into(), setup_total, "s"));
    }
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            problems.push(format!("metric {name} is not finite"));
        }
    }
    let correct = problems.is_empty();
    let metrics = if correct {
        json_metrics(&metrics)
    } else {
        "{}".to_string()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics}}}"
    );
    if !correct {
        std::process::exit(1);
    }
}

/// A digest of `v`'s `Debug` rendering, streamed so that comparing two
/// large outcomes never holds their renderings in memory.
pub fn digest(v: &impl std::fmt::Debug) -> u64 {
    use std::fmt::Write as _;
    use std::hash::Hasher as _;
    struct Sink(std::collections::hash_map::DefaultHasher);
    impl std::fmt::Write for Sink {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut sink = Sink(std::collections::hash_map::DefaultHasher::new());
    write!(sink, "{v:?}").expect("Sink never fails");
    sink.0.finish()
}
