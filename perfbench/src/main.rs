//! One repeatable benchmark of the sparsification workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dense-er|stream-spill-solve|image-solve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Set-up (pools, input, one warm-up call) runs three times and is timed. The
//! workload then repeats for `--seconds`. With `--trace 0` every repetition runs
//! untraced and the end-to-end metrics are reported; with `--trace 1` untraced
//! and traced repetitions alternate and the per-layer metrics are derived from
//! the `bench.*` spans of the traced ones. Every output is checked. Report lines
//! go to standard output first; the last line is one JSON object. Trace files
//! and spill files are written under `.bench_out/`. See `perfbench/README.md`.

mod record;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use record::Recorder;
use sgs_obs::{Event, RecordingSink};
use workloads::{Workload, DEFAULT_SEED};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Each layer whose `bench.<layer>` spans the per-layer self-time shares
/// cover, with the metric that reports its share.
const LAYERS: [(&str, &str); 7] = [
    ("graph", "graph.self_frac"),
    ("spanner", "spanner.self_frac"),
    ("core", "core.self_frac"),
    ("distributed", "distributed.self_frac"),
    ("stream", "stream.self_frac"),
    ("solver", "solver.self_frac"),
    ("linalg", "linalg.self_frac"),
];

const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "{e}\nusage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).expect("create the output directory");
    let pins = if args.seed == DEFAULT_SEED {
        workloads::pins(&args.workload)
    } else {
        &[]
    };

    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let start = Instant::now();
        workload = workloads::setup(&args.workload, args.seed, out_dir);
        setup_secs.push(start.elapsed().as_secs_f64());
        if workload.is_none() {
            eprintln!("unknown workload {}", args.workload);
            return ExitCode::from(2);
        }
    }
    let mut workload = workload.expect("set up above");
    let budget = Duration::from_secs_f64(args.seconds);

    let (metrics, attempted, failed) = if args.trace {
        traced_run(&args, workload.as_mut(), pins, budget, out_dir)
    } else {
        untraced_run(workload.as_mut(), pins, budget, &setup_secs)
    };
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        )
        .unwrap();
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

/// Repeats the workload untraced, at least once; returns the end-to-end metrics.
fn untraced_run(
    w: &mut dyn Workload,
    pins: &'static [(&'static str, f64)],
    budget: Duration,
    setup_secs: &[f64],
) -> (Metrics, u64, u64) {
    let mut rec = Recorder::new(pins);
    let start = Instant::now();
    let mut reps = 0;
    while reps == 0 || start.elapsed() < budget {
        let rep = Instant::now();
        w.rep(&mut rec, reps, false);
        rec.input = 0;
        rec.sample("rep_s", rep.elapsed().as_secs_f64());
        reps += 1;
    }
    rec.samples
        .insert("setup_s", setup_secs.iter().map(|&s| (0, s)).collect());
    report(&rec, &[]);

    let metrics = vec![
        ("setup_s", "s", rec.input_mean_of_medians("setup_s")),
        ("rep_s", "s", rec.input_mean_of_medians("rep_s")),
        ("op_s", "s", rec.input_mean_of_medians(w.headline())),
        ("m_out", "edges", rec.input_mean_of_count(w.out_edges())),
        (
            "peak_rss_mb",
            "MiB",
            rec.input_mean_of_medians("peak_rss_mb"),
        ),
    ];
    (metrics, rec.attempted, rec.failed)
}

/// Alternates untraced and traced repetitions, at least one of each; returns
/// the per-layer metrics.
fn traced_run(
    args: &Args,
    w: &mut dyn Workload,
    pins: &'static [(&'static str, f64)],
    budget: Duration,
    out_dir: &Path,
) -> (Metrics, u64, u64) {
    let sink: &'static RecordingSink = Box::leak(Box::new(RecordingSink::new()));
    let mut plain = Recorder::new(pins);
    let mut traced = Recorder::new(pins);
    let mut first_events: Option<Vec<Event>> = None;
    let mut bench_spans = Vec::new();
    let mut all_spans = Vec::new();
    let start = Instant::now();
    let mut reps = 0;
    while reps == 0 || start.elapsed() < budget {
        let rep = Instant::now();
        w.rep(&mut plain, reps, true);
        plain.input = 0;
        plain.sample("rep_s", rep.elapsed().as_secs_f64());

        sgs_obs::install(sink);
        let rep = Instant::now();
        {
            let _root = sgs_obs::span!("bench.rep");
            w.rep(&mut traced, reps, true);
        }
        traced.input = 0;
        traced.sample("rep_s", rep.elapsed().as_secs_f64());
        sgs_obs::clear();
        let events = sink.take();
        // The event count repeats only between repetitions of one variant; it
        // is recorded under the variant in place of an input.
        traced.input = w.variant(reps);
        traced.count("obs.events", events.len() as f64);
        traced.input = 0;
        // Self time of the benchmark's own spans ignores the program's internal
        // spans, which may change without moving the per-layer figures.
        bench_spans.extend(trace::close_spans(&events, |n| n.starts_with("bench.")));
        all_spans.extend(trace::close_spans(&events, |_| true));
        first_events.get_or_insert(events);
        reps += 1;
    }
    let mut traced_counts = traced.counts.clone();
    traced_counts.retain(|(name, _), _| *name != "obs.events");
    plain.check(
        "untraced and traced repetitions agree on every count",
        plain.counts == traced_counts,
    );

    let mut layer_self_us: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut wall_us, mut root_self_us) = (0u64, 0u64);
    for s in &bench_spans {
        let layer = &s.name["bench.".len()..];
        if layer == "rep" {
            wall_us += s.dur_us;
            root_self_us += s.self_us;
        } else {
            *layer_self_us.entry(layer).or_default() += s.self_us;
        }
    }
    let frac = |us: u64| us as f64 / wall_us.max(1) as f64;

    let trace_overhead =
        traced.input_mean_of_medians("rep_s") / plain.input_mean_of_medians("rep_s");
    let mut extra = vec![
        ("obs.trace_overhead", trace_overhead),
        ("obs.unattributed_frac", frac(root_self_us)),
    ];
    if traced.samples.contains_key("stream_s") {
        let ratio = traced.input_mean_of_medians("stream_s") * 1e3
            / traced.input_mean_of_medians("stream.mem_ms");
        extra.push(("stream.spill_overhead", ratio));
    }
    report(&traced, &extra);

    let events = first_events.expect("at least one traced repetition");
    let stem = format!("{}-seed{}", args.workload, args.seed);
    write_file(
        &out_dir.join(format!("{stem}.trace.json")),
        &sgs_obs::export_chrome_trace(&events),
    );
    write_file(
        &out_dir.join(format!("{stem}.rollup.json")),
        &rollup_json(args, &all_spans, reps),
    );

    let mut metrics: Metrics = Vec::new();
    for (layer, name) in LAYERS {
        let self_us = layer_self_us.get(layer).copied().unwrap_or(0);
        metrics.push((name, "fraction", frac(self_us)));
    }
    metrics.push(("obs.unattributed_frac", "fraction", frac(root_self_us)));
    metrics.push(("obs.trace_overhead", "ratio", trace_overhead));
    metrics.push(("obs.events", "count", traced.counts[&("obs.events", 0)]));
    (
        metrics,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
    )
}

/// Prints every measured figure with its unit. A sampled figure (a timing or a
/// peak) shows the run's value (per-input medians averaged over the inputs) and
/// the order statistics of all its samples; a count shows its value on input 0
/// and its mean over the inputs.
fn report(rec: &Recorder, extra: &[(&str, f64)]) {
    println!(
        "# {:<30} {:<6} {:>11} | {:>11} {:>11} {:>11} {:>18} {:>5}",
        "sampled", "unit", "figure", "median", "q1", "q3", "tail", "n"
    );
    for name in rec.samples.keys() {
        let s = stats::summarize(&rec.pooled(name)).expect("a sampled figure has samples");
        let tail = s
            .tail
            .map_or("-".to_string(), |(p, v)| format!("p{p}: {v:.4}"));
        println!(
            "# {name:<30} {:<6} {:>11.4} | {:>11.4} {:>11.4} {:>11.4} {tail:>18} {:>5}",
            unit_of(name),
            rec.input_mean_of_medians(name),
            s.median,
            s.q1,
            s.q3,
            s.n
        );
    }
    println!(
        "# {:<30} {:<6} {:>20} {:>20}",
        "count", "unit", "input 0", "mean over inputs"
    );
    let mut names: Vec<&str> = rec.counts.keys().map(|(n, _)| *n).collect();
    names.dedup();
    for name in names {
        let first = rec.counts[&(name, 0)];
        println!(
            "# {name:<30} {:<6} {first:>20} {:>20}",
            unit_of(name),
            rec.input_mean_of_count(name)
        );
    }
    for (name, value) in extra {
        println!("# {name:<30} {:<6} {value:>20}", unit_of(name));
    }
    let fail_rate = rec.failed as f64 / rec.attempted.max(1) as f64;
    println!(
        "# {:<30} {:<6} {fail_rate:>20} ({} of {} checks)",
        "fail_rate", "frac", rec.failed, rec.attempted
    );
}

fn unit_of(name: &str) -> &'static str {
    match name {
        _ if name.ends_with("_ms") => "ms",
        _ if name.ends_with("_s") => "s",
        _ if name.ends_with("_bytes") => "B",
        _ if name.ends_with("_mb") => "MiB",
        _ if name.ends_with("_frac") => "frac",
        "m" | "m_out" | "congest_m_out" | "core.sample_m_out" | "solver.chain_edges" => "edges",
        "distributed.bits" => "bit",
        "stream.eps_spent" => "eps",
        "solver.residual" | "solver.chain_edges_per_m" | "distributed.messages_per_edge" => "ratio",
        _ if name.ends_with("overhead") => "ratio",
        _ => "count",
    }
}

fn rollup_json(args: &Args, spans: &[trace::ClosedSpan], reps: usize) -> String {
    let mut out = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"traced_reps\": {reps}, \"spans\": [",
        args.workload, args.seed
    );
    for (i, (path, t)) in trace::rollup(spans).iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        write!(
            out,
            "{sep}  {{\"path\": \"{path}\", \"calls\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
            t.calls,
            t.total_us as f64 / 1e3,
            t.self_us as f64 / 1e3
        )
        .unwrap();
    }
    out.push_str("\n]}\n");
    out
}

fn write_file(path: &Path, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
