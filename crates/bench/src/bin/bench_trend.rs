//! Bench trajectory report *and* regression gate: diffs the QPS figures a
//! fresh smoke run just wrote against the previous run's archived JSON,
//! prints a delta table in the job log, and (in `--check` mode) fails the
//! job when any metric regressed beyond the threshold.
//!
//! CI snapshots the committed `bench_results/*.json` before running the
//! smoke bins, then invokes
//!
//! ```text
//! bench_trend [--check] [--max-drop-pct <pct>] [--median-dir <dir>]...
//!             <previous_dir> <current_dir>
//! ```
//!
//! Figures present in both directories are compared series by series,
//! point by point. Without `--check` the report is informational. With
//! `--check` the process exits non-zero if any overlapping point dropped
//! more than `--max-drop-pct` percent (default 15) — the smoke figures
//! are virtual-time QPS, deterministic enough to gate on — or if a
//! figure or a gated series of the previous run is missing from the
//! current one: a renamed or dropped series must not slip through as a
//! "new" one. The cases that must *not* fail the gate and do not: a
//! first run (no previous archive), a brand-new figure, a brand-new
//! series, new points (e.g. a new shard count) — there is nothing to
//! regress against — and a missing `(noisy)` series, which is printed.
//!
//! **De-noising.** The multi-threaded figures (fig14's `ClientPool`
//! timelines, fig15's and fig16's pooled scatters) wobble with thread
//! interleaving —
//! ±9% observed on a loaded runner, uncomfortably close to a 15% gate.
//! CI therefore re-runs those bins into scratch directories
//! (`MOIST_BENCH_RESULTS_DIR`) and passes each as `--median-dir`: for
//! every point that also appears in a median directory, the *median* of
//! all runs is compared instead of the single main-run sample, so one
//! unlucky interleaving cannot fail the job. Figures absent from the
//! median dirs (the deterministic single-threaded ones) gate on their
//! single run, unchanged. Series whose label contains `(noisy)` are
//! wall-clock-dependent by construction (e.g. fig13's opportunistic
//! query timeline, ±45% run to run) — they are diffed and printed but
//! never counted as regressions, however far they move.

use moist_bench::results_dir;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One parsed figure: `series label -> (x, y) points`.
type FigureData = BTreeMap<String, Vec<(f64, f64)>>;

/// One run's figures by id.
type Figures = BTreeMap<String, FigureData>;

fn load_dir(dir: &Path) -> Figures {
    let mut figures = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return figures;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str_value(&text).map_err(|e| e.to_string()))
        {
            Ok(value) => {
                if let Some((id, data)) = parse_figure(&value) {
                    figures.insert(id, data);
                }
            }
            Err(e) => eprintln!("[bench_trend] skipping {}: {e}", path.display()),
        }
    }
    figures
}

/// Extracts `(figure id, series data)` from one `Figure` JSON document.
fn parse_figure(value: &Value) -> Option<(String, FigureData)> {
    let id = value.get("id")?.as_str()?.to_string();
    let mut data = FigureData::new();
    for series in value.get("series")?.as_array()? {
        let label = series.get("label")?.as_str()?.to_string();
        let points = series
            .get("points")?
            .as_array()?
            .iter()
            .filter_map(|p| {
                let p = p.as_array()?;
                Some((p.first()?.as_f64()?, p.get(1)?.as_f64()?))
            })
            .collect();
        data.insert(label, points);
    }
    Some((id, data))
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_trend [--check] [--max-drop-pct <pct>] [--median-dir <dir>]... \
         [<previous_dir> [<current_dir>]]"
    );
    std::process::exit(2);
}

/// The median of a non-empty sample set.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// What one comparison of two runs found.
#[derive(Debug, Default, PartialEq)]
struct Verdict {
    /// Gated points present in both runs.
    compared: usize,
    /// Gated points that dropped more than the threshold.
    regressions: usize,
    /// Previous figures with a gated series, and previous gated series,
    /// the current run lacks: a renamed or dropped series would
    /// otherwise "pass" as a brand-new one.
    missing: usize,
}

impl Verdict {
    fn fails(&self) -> bool {
        self.regressions > 0 || self.missing > 0
    }
}

/// `(noisy)` series are wall-clock-dependent by construction: diffed for
/// the log, never gated.
fn gated(label: &str) -> bool {
    !label.contains("(noisy)")
}

/// Diffs `cur` against `prev` point by point, printing the delta table.
/// Each point of `cur` that also appears in a `medians` run is gated on
/// the median of all its samples; a drop beyond `drop_pct` percent is a
/// regression.
fn compare(prev: &Figures, cur: &Figures, medians: &[Figures], drop_pct: f64) -> Verdict {
    let mut verdict = Verdict::default();
    for (id, prev_fig) in prev {
        let Some(cur_fig) = cur.get(id) else {
            let is_gated = prev_fig.keys().any(|label| gated(label));
            verdict.missing += usize::from(is_gated);
            println!("{id:<22} (figure missing from the current run)");
            continue;
        };
        for label in prev_fig
            .keys()
            .filter(|label| !cur_fig.contains_key(*label))
        {
            let note = if gated(label) {
                verdict.missing += 1;
                "series missing from the current run"
            } else {
                "series missing (not gated)"
            };
            println!(
                "{:<22} {:<22} ({note})",
                truncate(id, 22),
                truncate(label, 22)
            );
        }
    }
    for (id, cur_fig) in cur {
        let Some(prev_fig) = prev.get(id) else {
            println!("{id:<22} (new figure — no previous run to diff)");
            continue;
        };
        for (label, cur_points) in cur_fig {
            let Some(prev_points) = prev_fig.get(label) else {
                println!("{id:<22} {label:<22} (new series)");
                continue;
            };
            let gated = gated(label);
            for &(x, raw_y) in cur_points {
                // Match points by x: series may gain or lose shard counts
                // or time windows between runs.
                let Some(&(_, py)) = prev_points.iter().find(|(px, _)| (px - x).abs() < 1e-9)
                else {
                    continue;
                };
                // Median-of-N for the interleaving-sensitive figures: any
                // extra run of this figure/series/point contributes a
                // sample, and the median is what gates.
                let mut samples = vec![raw_y];
                for m in medians {
                    if let Some(&(_, my)) = m
                        .get(id)
                        .and_then(|fig| fig.get(label))
                        .and_then(|pts| pts.iter().find(|(px, _)| (px - x).abs() < 1e-9))
                    {
                        samples.push(my);
                    }
                }
                let runs = samples.len();
                let y = median(samples);
                // A ~0 baseline has no meaningful percentage (e.g. an
                // empty measurement window in a previous run): print the
                // raw values honestly instead of a misleading +0.0%.
                if py.abs() <= f64::EPSILON {
                    println!(
                        "{:<22} {:<22} {:>9.1} {:>12.1} {:>12.1} {:>9}",
                        truncate(id, 22),
                        truncate(label, 22),
                        x,
                        py,
                        y,
                        "n/a"
                    );
                    continue;
                }
                let pct = (y - py) / py * 100.0;
                if gated {
                    verdict.compared += 1;
                    if pct < -drop_pct {
                        verdict.regressions += 1;
                    }
                }
                println!(
                    "{:<22} {:<22} {:>9.1} {:>12.1} {:>12.1} {:>+8.1}%{}{}",
                    truncate(id, 22),
                    truncate(label, 22),
                    x,
                    py,
                    y,
                    pct,
                    if runs > 1 {
                        format!("  (median of {runs})")
                    } else {
                        String::new()
                    },
                    if !gated {
                        "  (not gated)"
                    } else if pct < -drop_pct {
                        "  <-- regression?"
                    } else {
                        ""
                    }
                );
            }
        }
    }
    verdict
}

fn main() {
    let mut check = false;
    let mut max_drop_pct: Option<f64> = None;
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut median_dirs: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--max-drop-pct" => {
                let Some(v) = args.next().and_then(|v| v.parse::<f64>().ok()) else {
                    usage();
                };
                if v <= 0.0 || !v.is_finite() {
                    usage();
                }
                max_drop_pct = Some(v);
            }
            "--median-dir" => {
                let Some(d) = args.next() else { usage() };
                median_dirs.push(PathBuf::from(d));
            }
            // A typoed flag must not silently become a (nonexistent)
            // directory — that would disable the gate with exit 0.
            s if s.starts_with('-') => usage(),
            _ => dirs.push(PathBuf::from(arg)),
        }
    }
    let (prev_dir, cur_dir) = match dirs.as_slice() {
        [prev, cur] => (prev.clone(), cur.clone()),
        [prev] => (prev.clone(), results_dir()),
        [] => (results_dir().join("prev"), results_dir()),
        _ => usage(),
    };
    // An explicit --max-drop-pct sets the marker threshold in both modes
    // (the flag is never silently ignored); the gate defaults to 15%, the
    // informational report to its historic 10% marker.
    let drop_pct = max_drop_pct.unwrap_or(if check { 15.0 } else { 10.0 });
    let prev = load_dir(&prev_dir);
    let cur = load_dir(&cur_dir);
    let medians: Vec<Figures> = median_dirs.iter().map(|d| load_dir(d)).collect();
    if prev.is_empty() {
        println!(
            "[bench_trend] no previous results under {} — current run becomes the baseline",
            prev_dir.display()
        );
        return;
    }

    println!(
        "=== bench trend: {} vs {} ===",
        cur_dir.display(),
        prev_dir.display()
    );
    println!(
        "{:<22} {:<22} {:>9} {:>12} {:>12} {:>9}",
        "figure", "series", "x", "previous", "current", "delta"
    );
    let verdict = compare(&prev, &cur, &medians, drop_pct);
    let Verdict {
        compared,
        regressions,
        missing,
    } = verdict;
    if compared == 0 {
        println!("[bench_trend] no overlapping points between the two runs");
    } else if check {
        println!("[bench_trend] compared {compared} points against a {drop_pct}% drop gate");
    } else {
        println!(
            "[bench_trend] compared {compared} points; {regressions} dropped more than \
             {drop_pct}% and {missing} gated figure(s)/series went missing \
             (informational — smoke QPS wobbles on shared runners)"
        );
    }
    if check && verdict.fails() {
        eprintln!(
            "[bench_trend] FAIL: {regressions} metric(s) regressed more than {drop_pct}% and \
             {missing} gated figure(s)/series are missing vs the previous archive"
        );
        std::process::exit(1);
    }
}

fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Points = &'static [(f64, f64)];

    /// One run: figure id -> `(series label, points)`.
    fn run(figures: &[(&str, &[(&str, Points)])]) -> Figures {
        figures
            .iter()
            .map(|(id, series)| {
                let data = series
                    .iter()
                    .map(|(label, points)| (label.to_string(), points.to_vec()))
                    .collect();
                (id.to_string(), data)
            })
            .collect()
    }

    const QPS: &[(f64, f64)] = &[(1.0, 100.0), (2.0, 200.0)];

    fn verdict(prev: &Figures, cur: &Figures) -> Verdict {
        compare(prev, cur, &[], 15.0)
    }

    #[test]
    fn a_dropped_gated_series_fails() {
        let prev = run(&[("fig", &[("client QPS", QPS), ("store QPS", QPS)])]);
        let cur = run(&[("fig", &[("client QPS", QPS)])]);
        let v = verdict(&prev, &cur);
        assert_eq!(v.missing, 1);
        assert_eq!(v.regressions, 0);
        assert!(v.fails());
        // A renamed series is a dropped one plus a new one.
        let renamed = run(&[("fig", &[("client QPS", QPS), ("store q/s", QPS)])]);
        assert!(verdict(&prev, &renamed).fails());
    }

    #[test]
    fn a_dropped_figure_fails_unless_all_its_series_are_noisy() {
        let prev = run(&[
            ("fig_a", &[("client QPS", QPS)]),
            ("fig_b", &[("latency (noisy)", QPS)]),
        ]);
        let cur = run(&[("fig_b", &[("latency (noisy)", QPS)])]);
        assert_eq!(verdict(&prev, &cur).missing, 1);
        let cur = run(&[("fig_a", &[("client QPS", QPS)])]);
        assert!(!verdict(&prev, &cur).fails());
    }

    #[test]
    fn a_dropped_noisy_series_passes() {
        let prev = run(&[("fig", &[("client QPS", QPS), ("latency (noisy)", QPS)])]);
        let cur = run(&[("fig", &[("client QPS", QPS)])]);
        let v = verdict(&prev, &cur);
        assert_eq!(
            v,
            Verdict {
                compared: 2,
                regressions: 0,
                missing: 0
            }
        );
    }

    #[test]
    fn a_new_series_or_figure_passes() {
        let prev = run(&[("fig", &[("client QPS", QPS)])]);
        let cur = run(&[
            ("fig", &[("client QPS", QPS), ("store QPS", QPS)]),
            ("fig_new", &[("client QPS", QPS)]),
        ]);
        let v = verdict(&prev, &cur);
        assert_eq!(
            v,
            Verdict {
                compared: 2,
                regressions: 0,
                missing: 0
            }
        );
    }

    #[test]
    fn a_drop_past_the_threshold_fails_and_one_within_it_passes() {
        let prev = run(&[("fig", &[("client QPS", QPS)])]);
        let dropped = run(&[("fig", &[("client QPS", &[(1.0, 84.0), (2.0, 200.0)])])]);
        let v = verdict(&prev, &dropped);
        assert_eq!(v.regressions, 1);
        assert!(v.fails());
        let wobbled = run(&[("fig", &[("client QPS", &[(1.0, 86.0), (2.0, 240.0)])])]);
        assert!(!verdict(&prev, &wobbled).fails());
        // A noisy series may drop any distance.
        let prev = run(&[("fig", &[("latency (noisy)", QPS)])]);
        let noisy = run(&[("fig", &[("latency (noisy)", &[(1.0, 1.0), (2.0, 1.0)])])]);
        assert!(!verdict(&prev, &noisy).fails());
    }

    #[test]
    fn the_median_of_the_extra_runs_gates() {
        let prev = run(&[("fig", &[("client QPS", QPS)])]);
        let unlucky = run(&[("fig", &[("client QPS", &[(1.0, 50.0), (2.0, 200.0)])])]);
        let fine = run(&[("fig", &[("client QPS", QPS)])]);
        let v = compare(&prev, &unlucky, &[fine.clone(), fine], 15.0);
        assert!(!v.fails(), "{v:?}");
    }
}
