//! What one benchmark run collects: timing samples, deterministic counts and
//! output checks, each tagged with the input it was measured on.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// Collects one run's measurements.
pub struct Recorder {
    /// The input the calls being recorded run on.
    pub input: usize,
    /// Samples by metric name, as `(input, value)`; timings are in the unit
    /// the name's suffix gives (`_s` seconds, `_ms` milliseconds).
    pub samples: BTreeMap<&'static str, Vec<(usize, f64)>>,
    /// Deterministic counts by name and input, as first observed.
    pub counts: BTreeMap<(&'static str, usize), f64>,
    /// Counts of input 0 pinned for the default seed; empty at other seeds.
    pins: &'static [(&'static str, f64)],
    pub attempted: u64,
    pub failed: u64,
}

impl Recorder {
    pub fn new(pins: &'static [(&'static str, f64)]) -> Recorder {
        Recorder {
            input: 0,
            samples: BTreeMap::new(),
            counts: BTreeMap::new(),
            pins,
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs `f` inside an `sgs_obs` span named `span` (a no-op while no sink is
    /// installed) and returns its result with the wall-clock it took, in seconds.
    pub fn time<R>(&self, span: &'static str, op: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let _span = sgs_obs::span!(span, op = op);
        let start = Instant::now();
        let out = black_box(f());
        (out, start.elapsed().as_secs_f64())
    }

    /// [`Recorder::time`] that also records the duration as a sample of `metric`.
    pub fn timed<R>(
        &mut self,
        span: &'static str,
        metric: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let (out, secs) = self.time(span, metric, f);
        self.sample(metric, secs);
        out
    }

    /// Records a duration given in seconds as a sample of `metric`.
    pub fn sample(&mut self, metric: &'static str, secs: f64) {
        let value = if metric.ends_with("_ms") {
            secs * 1e3
        } else {
            secs
        };
        self.samples
            .entry(metric)
            .or_default()
            .push((self.input, value));
    }

    /// Runs `f` and records, as a sample of `peak_rss_mb`, the peak resident
    /// memory it adds to the process: `VmHWM` after the call minus `VmRSS`
    /// before it, with the allocator's free memory returned to the kernel
    /// first, so neither the inputs the workload keeps resident nor memory freed
    /// by earlier calls hide what the call needs.
    pub fn peak<R>(&mut self, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let baseline_kib = reset_peak_rss();
        let out = f(self);
        let added_kib = vm_kib("VmHWM:") - baseline_kib;
        self.samples
            .entry("peak_rss_mb")
            .or_default()
            .push((self.input, added_kib / 1024.0));
        out
    }

    /// One output check: counts towards `attempted`, and towards `failed` if not `ok`.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed (input {}): {what}", self.input);
        }
    }

    /// Records a count that must repeat exactly on its input: across repetitions,
    /// pool widths, and traced and untraced repetitions. A change from the first
    /// value, or from the pinned value of input 0 at the default seed, is a failed
    /// check, not noise.
    pub fn count(&mut self, name: &'static str, value: f64) {
        let first = *self.counts.entry((name, self.input)).or_insert(value);
        self.check(
            &format!("{name} = {value} repeats its first value {first}"),
            first.to_bits() == value.to_bits(),
        );
        if self.input == 0 {
            if let Some(&(_, pinned)) = self.pins.iter().find(|(n, _)| *n == name) {
                self.check(
                    &format!("{name} = {value} equals its pinned value {pinned}"),
                    pinned.to_bits() == value.to_bits(),
                );
            }
        }
    }

    /// Every sample of a metric, over all inputs.
    pub fn pooled(&self, metric: &str) -> Vec<f64> {
        self.samples
            .get(metric)
            .map_or_else(Vec::new, |s| s.iter().map(|&(_, v)| v).collect())
    }

    /// The run's figure for a sampled metric: the median on each input,
    /// averaged over the inputs. Averaging over inputs keeps the figure steady
    /// across seeds where one input's cost depends on its draw.
    pub fn input_mean_of_medians(&self, metric: &str) -> f64 {
        let mut by_input: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for &(input, v) in self.samples.get(metric).into_iter().flatten() {
            by_input.entry(input).or_default().push(v);
        }
        mean(by_input.values().map(|s| stats::median(s)))
    }

    /// A count averaged over the inputs it was recorded on.
    pub fn input_mean_of_count(&self, name: &str) -> f64 {
        mean(
            self.counts
                .iter()
                .filter(|((n, _), _)| *n == name)
                .map(|(_, v)| *v),
        )
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n.max(1) as f64
}

/// Returns the allocator's free memory to the kernel, then resets the
/// process's peak resident set (`VmHWM`) to its resident set (`VmRSS`) and
/// returns that, in KiB.
fn reset_peak_rss() -> f64 {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM via /proc/self/clear_refs");
    vm_kib("VmRSS:")
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim takes no pointers and may be called at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// A `/proc/self/status` field given in kB, such as `VmHWM:` or `VmRSS:`.
fn vm_kib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} in /proc/self/status"))
}
