//! The two subcommands around single runs: `all` runs every workload (each
//! in its own process, untraced then traced) and writes a result file;
//! `compare` judges one result file against another with the bounds in
//! `BENCHMARK.json`.

use crate::env;
use crate::spec::{self, declared, WORKLOADS};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Ungated metrics that are counts, not timings, and repeat from run to
/// run: `compare` holds them to these bounds (the issue's).
const COUNT_BOUNDS: &[(&str, f64)] = &[("wal_bytes_per_user_byte", 0.02)];

/// Runs this executable once on one workload and returns the JSON lines it
/// ended with: the result, and (untraced runs) the ungated metrics its
/// window measured. The child's table is passed through to stdout.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: u8,
) -> Result<(String, Option<String>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn run of {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} trace {trace}: {}",
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let why = spec::workload(workload).map_or("", |w| w.why());
    println!("--- {workload}  seed {seed}  trace {trace}  ({why})");
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().ok_or("run printed nothing")?.to_string();
    let ungated = lines
        .last()
        .filter(|l| l.starts_with("{\"ungated\""))
        .map(|l| l.to_string());
    let detail = |l: &&str| ["span.", "slice.", "{"].iter().any(|p| l.starts_with(p));
    for l in lines.iter().filter(|l| !detail(l)) {
        println!("{l}");
    }
    for line in [Some(&last), ungated.as_ref()].into_iter().flatten() {
        serde_json::from_str_value(line).map_err(|e| format!("result of {workload}: {e}"))?;
    }
    Ok((last, ungated))
}

/// `all`: every workload, `repeat` untraced runs on consecutive seeds and
/// one traced run, results written to `out`.
pub fn all(seed: u64, seconds: u64, repeat: u64, out: Option<PathBuf>) -> Result<(), String> {
    let mut runs = String::new();
    for w in &WORKLOADS {
        let jobs = (0..repeat.max(1))
            .map(|r| (seed + r, 0u8))
            .chain([(seed, 1u8)]);
        for (seed, trace) in jobs {
            let (line, ungated) = child_run(w.name, seed, seconds, trace)?;
            let sep = if runs.is_empty() { "" } else { ",\n" };
            let also = ungated.unwrap_or_else(|| String::from("{}"));
            let _ = write!(
                runs,
                "{sep}{{\"workload\":\"{}\",\"seed\":{seed},\"trace\":{trace},\"result\":{line},\"also\":{also}}}",
                w.name
            );
        }
    }
    let path = out.unwrap_or_else(|| env::out_dir().join("results.json"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(
        &path,
        format!("{{\"seconds\":{seconds},\"runs\":[\n{runs}\n]}}\n"),
    )
    .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    if repeat > 1 {
        let (samples, _) = load_results(&path)?;
        println!("run-to-run spread (interquartile range over median) of {repeat} untraced runs");
        for ((workload, metric), values) in &samples {
            let (median, spread) = (env::median(values), spread(values));
            println!("{workload:<10} {metric:<24} {median:>14.4} {spread:>8.4}");
        }
    }
    Ok(())
}

/// Untraced values per (workload, metric), gated and ungated alike, plus
/// failed operations per workload, from a result file written by `all`.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load_results(path: &Path) -> Result<(Samples, BTreeMap<String, f64>), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = serde_json::from_str_value(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{} has no runs", path.display()))?;
    let (mut samples, mut failed) = (Samples::new(), BTreeMap::new());
    for run in runs {
        if run.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run lacks workload")?;
        let result = run.get("result").ok_or("run lacks result")?;
        *failed.entry(workload.to_string()).or_insert(0.0) +=
            result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        let ungated = run.get("also").and_then(|also| also.get("ungated"));
        for metrics in [result.get("metrics"), ungated] {
            let Some(Value::Object(metrics)) = metrics else {
                continue;
            };
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    samples
                        .entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok((samples, failed))
}

/// Distance between the first and third quartile as a share of the median
/// (0 with fewer than two runs), as `statistics.quantiles(v, n=4)` cuts.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |k: f64| {
        // The "exclusive" method: position k(n+1)/4, clamped to the data.
        let pos = (k * (v.len() + 1) as f64 / 4.0).clamp(1.0, v.len() as f64);
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        let hi = (lo + 1).min(v.len());
        v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
    };
    let median = env::median(&v);
    if median == 0.0 {
        0.0
    } else {
        (quartile(3.0) - quartile(1.0)) / median.abs()
    }
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Pass,
    Regression,
    Unresolved,
}

/// Judges `new` against `base` for one metric: a regression is a median
/// worse by more than `bound`; where either side's spread exceeds the
/// bound the verdict is unresolved unless the runs do not overlap at all.
pub fn judge(base: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (b, n) = (env::median(base), env::median(new));
    let change = if b == 0.0 { 0.0 } else { (n - b) / b.abs() };
    let worse_by = if lower_is_better { change } else { -change };
    let noisy = spread(base) > bound || spread(new) > bound;
    let worse = |x: f64, y: f64| if lower_is_better { x > y } else { x < y };
    let all_worse = new.iter().all(|&x| base.iter().all(|&y| worse(x, y)));
    let all_better = new.iter().all(|&x| base.iter().all(|&y| worse(y, x)));
    let verdict = match (worse_by > bound, noisy) {
        (true, false) => Verdict::Regression,
        (true, true) if all_worse => Verdict::Regression,
        (false, false) => Verdict::Pass,
        (false, true) if all_better => Verdict::Pass,
        _ => Verdict::Unresolved,
    };
    (change, verdict)
}

/// `compare`: one row per (workload, metric of the untraced run). The
/// end-to-end metrics are judged by their bounds in `BENCHMARK.json`, the
/// counts of `COUNT_BOUNDS` by theirs; the other ungated metrics are shown
/// with both spreads and no verdict.
pub fn compare(base: &Path, new: &Path) -> Result<(), String> {
    let d = declared();
    let (base_samples, base_failed) = load_results(base)?;
    let (new_samples, new_failed) = load_results(new)?;
    println!(
        "{:<10} {:<24} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "base median",
        "new median",
        "new/base",
        "spreadB",
        "spreadN",
        "bound"
    );
    let mut regressions = 0;
    for w in &WORKLOADS {
        for metric in d.end_to_end.iter().chain(&d.per_layer) {
            let key = (w.name.to_string(), metric.name.clone());
            let (Some(b), Some(n)) = (base_samples.get(&key), new_samples.get(&key)) else {
                continue;
            };
            let count_bound = COUNT_BOUNDS.iter().find(|(name, _)| *name == metric.name);
            let bound = metric.bound.or(count_bound.map(|(_, bound)| *bound));
            let (change, verdict) = match bound {
                Some(bound) => {
                    let (change, verdict) = judge(b, n, metric.lower_is_better, bound);
                    regressions += (verdict == Verdict::Regression) as u32;
                    (change, format!("{verdict:?}").to_uppercase())
                }
                None => (judge(b, n, metric.lower_is_better, 0.0).0, "ungated".into()),
            };
            println!(
                "{:<10} {:<24} {:>14.4} {:>14.4} {:>8.4} {:>7.4} {:>7.4} {:>6}  {verdict}",
                w.name,
                metric.name,
                env::median(b),
                env::median(n),
                1.0 + change,
                spread(b),
                spread(n),
                bound.map_or("-".into(), |b| format!("{b:.2}")),
            );
        }
        let (b, n) = (
            base_failed.get(w.name).copied().unwrap_or(0.0),
            new_failed.get(w.name).copied().unwrap_or(0.0),
        );
        let verdict = if n > b { "REGRESSION" } else { "PASS" };
        regressions += (n > b) as u32;
        println!("{:<10} {:<24} {b:>14} {n:>14}  (failed operations; any rise is a regression)  {verdict}", w.name, "failed");
    }
    println!("{regressions} regression(s); ratios are new median over base median");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
        assert!((spread(&[9.0, 4.0, 2.0, 5.0, 4.0]) - (7.0 - 3.0) / 4.0).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }

    #[test]
    fn verdicts_follow_the_bound_the_direction_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better: 5% slower passes a 10% bound, 20% slower fails.
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.05).collect();
        assert_eq!(judge(&steady, &slower, true, 0.10).1, Verdict::Pass);
        let slow: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        let (change, verdict) = judge(&steady, &slow, true, 0.10);
        assert!((change - 0.2).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Regression);
        // The same numbers as a higher-is-better rate are an improvement.
        assert_eq!(judge(&steady, &slow, false, 0.10).1, Verdict::Pass);
        let low: Vec<f64> = steady.iter().map(|v| v * 0.8).collect();
        assert_eq!(judge(&steady, &low, false, 0.10).1, Verdict::Regression);
        // A spread wider than the bound leaves overlapping runs unresolved…
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(judge(&steady, &noisy, true, 0.10).1, Verdict::Unresolved);
        // …unless every run of one side beats every run of the other.
        let far: Vec<f64> = noisy.iter().map(|v| v * 10.0).collect();
        assert_eq!(judge(&steady, &far, true, 0.10).1, Verdict::Regression);
        let near: Vec<f64> = noisy.iter().map(|v| v / 10.0).collect();
        assert_eq!(judge(&steady, &near, true, 0.10).1, Verdict::Pass);
    }
}
