//! Statistics, the metric table, host facts, and the two output lines
//! (the full record, then the one-line result object).

use std::fmt::Write as _;

/// Linear-interpolation quantile of `xs` (any order), `q` in [0, 1].
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Where in its samples, counted from the fast end, a `serve-socket` run
/// reads each end-to-end figure. The host switches between a fast and a
/// 2× slower level in stretches of seconds, with a slow share that
/// drifts over minutes; a quantile this close to the fast end reads the
/// fast level whenever any fast stretch falls in the run, and is still
/// not decided by one sample. See the README.
pub const FAST_QUANTILE: f64 = 0.02;

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// First and third quartiles by the rule of Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), so the
/// per-run record and the cross-run spread use the same definition.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = n + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Per-pass (or per-sample) values behind `value`, for quartiles.
    samples: Vec<f64>,
}

/// The metrics of one run, in print order.
#[derive(Default)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64, samples: &[f64]) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.items.push(Metric {
            name,
            unit,
            value,
            samples: samples.to_vec(),
        });
    }

    /// The median of `samples`.
    pub fn median(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        self.put(name, unit, median(samples), samples);
    }

    /// A time read from the run's fastest samples: the `FAST_QUANTILE`
    /// of `samples`.
    pub fn fastest_time(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        self.put(name, unit, quantile(samples, FAST_QUANTILE), samples);
    }

    /// A rate read from the run's fastest samples: the `1 -
    /// FAST_QUANTILE` quantile of `samples`.
    pub fn fastest_rate(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        self.put(name, unit, quantile(samples, 1.0 - FAST_QUANTILE), samples);
    }

    /// A metric with no per-pass samples (a count, or a single figure).
    pub fn one(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.put(name, unit, value, &[value]);
    }
}

/// Host facts recorded with every result.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut caches = String::new();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        let (level, kind) = (level.trim(), kind.trim());
        if level == "1" && kind == "Instruction" {
            continue;
        }
        if !caches.is_empty() {
            caches.push(',');
        }
        let _ = write!(caches, "\"L{level}\":\"{}\"", esc(size.trim()));
    }
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":\"{}\",\"caches\":{{{caches}}}}}",
        esc(&cpu)
    )
}

/// Peak resident set size of this process, MiB (`VmHWM`).
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

/// Host-wide CPU ticks so far, stolen by the hypervisor and in all (the
/// `cpu` line of `/proc/stat`; zeros where it cannot be read).
pub fn steal_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of the host's CPU time stolen between two `steal_ticks` reads,
/// per cent: what a wall-clock figure taken meanwhile lost to other
/// tenants of the machine.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1).max(1);
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Escape `s` for use inside a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

/// What one run did besides its metrics.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

/// Print the human-readable table, the full record line, and — last —
/// the one-line result object.
pub fn print(head: &str, metrics: &Metrics, outcome: &Outcome, extra: &str) {
    for m in &metrics.items {
        println!("{:<32} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for n in &outcome.notes {
        println!("note: {n}");
    }
    let mut per_metric = String::new();
    for (i, m) in metrics.items.iter().enumerate() {
        let (q1, q3) = quartiles(&m.samples);
        if i > 0 {
            per_metric.push(',');
        }
        let _ = write!(
            per_metric,
            "\"{}\":{{\"unit\":\"{}\",\"value\":{},\"n\":{},\"q1\":{},\"median\":{},\"q3\":{}}}",
            m.name,
            m.unit,
            m.value,
            m.samples.len(),
            num(q1),
            num(median(&m.samples)),
            num(q3)
        );
    }
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|n| format!("\"{}\"", esc(n)))
        .collect();
    println!(
        "{{\"record\":{{{head},\"host\":{},{extra}\"notes\":[{}],\"metrics\":{{{per_metric}}}}}}}",
        host_json(),
        notes.join(",")
    );
    let mut result = String::new();
    for (i, m) in metrics.items.iter().enumerate() {
        if i > 0 {
            result.push(',');
        }
        let _ = write!(
            result,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{result}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    );
}

fn num(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn esc_yields_valid_json_strings() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
    }
}
