//! Bench archive gate: diffs the figures a fresh run of the bins just
//! wrote against the committed archive, prints every point that moved,
//! and (in `--check` mode) fails the job when any did.
//!
//! CI snapshots the committed `bench_results/*.json` before it reruns the
//! bins, then invokes
//!
//! ```text
//! bench_trend [--check] [<committed_dir> [<current_dir>]]
//! ```
//!
//! Every bin runs on one thread against the cost model's virtual clock,
//! so each figure is a function of its seed, and the gate is exact. With
//! `--check` the process exits non-zero if any point of a committed series
//! differs from the regenerated one (a moved value, or a point gained or
//! lost), or if a committed figure or series is missing from the current
//! run: a renamed or dropped series must not slip through as a "new" one.
//! A PR that changes a figure on purpose commits the regenerated archive.
//! Figures and series the archive does not have yet pass, since there is
//! nothing to compare them with. Series whose label contains `(noisy)` are
//! wall-clock measurements by construction (e.g. fig13's opportunistic
//! query timeline): they are diffed and printed but never gated, and may
//! also go missing.

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
    eprintln!("usage: bench_trend [--check] [<previous_dir> [<current_dir>]]");
    std::process::exit(2);
}

/// What one comparison of two runs found.
#[derive(Debug, Default, PartialEq)]
struct Verdict {
    /// Gated points of the committed run.
    compared: usize,
    /// Gated points that moved, appeared or disappeared.
    changed: usize,
    /// Previous figures with a gated series, and previous gated series,
    /// the current run lacks: a renamed or dropped series would
    /// otherwise "pass" as a brand-new one.
    missing: usize,
}

impl Verdict {
    fn fails(&self) -> bool {
        self.changed > 0 || self.missing > 0
    }
}

/// `(noisy)` series are wall-clock measurements by construction: diffed
/// for the log, never gated.
fn gated(label: &str) -> bool {
    !label.contains("(noisy)")
}

/// Diffs `cur` against `prev` point by point, printing every point that
/// changed.
fn compare(prev: &Figures, cur: &Figures) -> Verdict {
    let mut verdict = Verdict::default();
    for (id, prev_fig) in prev {
        let Some(cur_fig) = cur.get(id) else {
            let is_gated = prev_fig.keys().any(|label| gated(label));
            verdict.missing += usize::from(is_gated);
            println!("{id:<22} (figure missing from the current run)");
            continue;
        };
        for (label, prev_points) in prev_fig {
            let gated = gated(label);
            let Some(cur_points) = cur_fig.get(label) else {
                let note = if gated {
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
                continue;
            };
            if gated {
                verdict.compared += prev_points.len();
            }
            for i in 0..prev_points.len().max(cur_points.len()) {
                let (p, c) = (prev_points.get(i), cur_points.get(i));
                if p == c {
                    continue;
                }
                if gated {
                    verdict.changed += 1;
                }
                let show = |pt: Option<&(f64, f64)>| {
                    pt.map_or("-".to_string(), |pt| format!("{:.6}", pt.1))
                };
                let x = p.or(c).map_or(0.0, |pt| pt.0);
                println!(
                    "{:<22} {:<22} {:>9.1} {:>14} {:>14}{}",
                    truncate(id, 22),
                    truncate(label, 22),
                    x,
                    show(p),
                    show(c),
                    if gated {
                        "  <-- changed"
                    } else {
                        "  (not gated)"
                    }
                );
            }
        }
    }
    for (id, cur_fig) in cur {
        match prev.get(id) {
            None => println!("{id:<22} (new figure — not in the archive)"),
            Some(prev_fig) => {
                for label in cur_fig.keys().filter(|l| !prev_fig.contains_key(*l)) {
                    println!("{id:<22} {label:<22} (new series)");
                }
            }
        }
    }
    verdict
}

fn main() {
    let mut check = false;
    let mut dirs: Vec<PathBuf> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
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
    let prev = load_dir(&prev_dir);
    let cur = load_dir(&cur_dir);
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
        "{:<22} {:<22} {:>9} {:>14} {:>14}",
        "figure", "series", "x", "previous", "current"
    );
    let verdict = compare(&prev, &cur);
    let Verdict {
        compared,
        changed,
        missing,
    } = verdict;
    println!(
        "[bench_trend] compared {compared} gated points: {changed} changed, \
         {missing} gated figure(s)/series missing"
    );
    if check && verdict.fails() {
        eprintln!(
            "[bench_trend] FAIL: the regenerated figures differ from the committed archive; \
             commit the new archive if the change is intended"
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
        compare(prev, cur)
    }

    #[test]
    fn a_dropped_gated_series_fails() {
        let prev = run(&[("fig", &[("client QPS", QPS), ("store QPS", QPS)])]);
        let cur = run(&[("fig", &[("client QPS", QPS)])]);
        let v = verdict(&prev, &cur);
        assert_eq!(v.missing, 1);
        assert_eq!(v.changed, 0);
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
                changed: 0,
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
                changed: 0,
                missing: 0
            }
        );
    }

    #[test]
    fn any_change_to_a_gated_point_fails() {
        let prev = run(&[("fig", &[("client QPS", QPS)])]);
        assert!(!verdict(&prev, &prev).fails());
        // 200 plus one ulp.
        let moved = run(&[(
            "fig",
            &[("client QPS", &[(1.0, 100.0), (2.0, 200.00000000000003)])],
        )]);
        assert_eq!(verdict(&prev, &moved).changed, 1);
        let lost = run(&[("fig", &[("client QPS", &[(1.0, 100.0)])])]);
        assert_eq!(verdict(&prev, &lost).changed, 1);
        let gained = run(&[(
            "fig",
            &[("client QPS", &[(1.0, 100.0), (2.0, 200.0), (3.0, 1.0)])],
        )]);
        assert_eq!(verdict(&prev, &gained).changed, 1);
        // A noisy series may move any distance.
        let prev = run(&[("fig", &[("latency (noisy)", QPS)])]);
        let noisy = run(&[("fig", &[("latency (noisy)", &[(1.0, 1.0)])])]);
        assert!(!verdict(&prev, &noisy).fails());
    }
}
