//! Samples, metrics, provenance and the result line.

use raptor_core::Json;
use std::path::Path;
use std::process::Command;

/// Repeated measurements of one quantity within a run.
#[derive(Clone, Debug, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    /// Add one measurement.
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether nothing was measured.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The `q`-quantile (0..=1), linearly interpolated between order
    /// statistics; `q = 0.5` is the median.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => f64::NAN,
            n => {
                let pos = q * (n - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = pos.ceil() as usize;
                v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
            }
        }
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Mean of the samples left after dropping the lowest and the highest
    /// tenth: the timing statistic of the end-to-end metrics. On a shared
    /// host, short samples fall into a fast or a slow state. The median of
    /// a run then jumps between the two states as their shares shift. The
    /// trimmed mean moves in proportion to those shares, and it still drops
    /// outliers such as a cold first run.
    pub fn trimmed_mean(&self) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let cut = v.len() / 10;
        let kept = &v[cut..v.len() - cut];
        kept.iter().sum::<f64>() / kept.len() as f64
    }

    /// Median, quartiles, extremes and count, for the run's detail line.
    pub fn summary(&self) -> Json {
        Json::obj()
            .set("n", self.len() as u64)
            .set("trimmed_mean", self.trimmed_mean())
            .set("median", self.median())
            .set("q1", self.quantile(0.25))
            .set("q3", self.quantile(0.75))
            .set("min", self.quantile(0.0))
            .set("max", self.quantile(1.0))
            .set(
                "values",
                Json::Arr(self.0.iter().map(|&x| Json::from(x)).collect()),
            )
    }
}

/// Named values measured by one run, before units are attached.
pub type Values = Vec<(&'static str, f64)>;

/// The median over `runs` of every value the first run holds.
pub fn medians(runs: &[Values]) -> Values {
    let names = runs.first().map(Vec::as_slice).unwrap_or_default();
    names
        .iter()
        .map(|&(name, _)| {
            let per_run = runs.iter().filter_map(|r| r.iter().find(|p| p.0 == name));
            (name, Samples(per_run.map(|p| p.1).collect()).median())
        })
        .collect()
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Metrics in report order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> Json {
        self.0.iter().fold(Json::obj(), |doc, m| {
            doc.set(
                m.name,
                Json::obj().set("value", m.value).set("unit", m.unit),
            )
        })
    }
}

/// Counts of timed runs and of runs whose output checks failed.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Timed runs (or replayed pairs) attempted.
    pub attempted: u64,
    /// Attempts whose output check failed or that panicked.
    pub failed: u64,
    /// The first few failure messages, for the detail line.
    pub errors: Vec<String>,
}

impl Tally {
    /// Record one attempt and its check result.
    pub fn record(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// Failed share of attempts.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The result line: the last line the benchmark prints.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    Json::obj()
        .set("correct", tally.failed == 0 && tally.attempted > 0)
        .set("attempted", tally.attempted)
        .set("failed", tally.failed)
        .set("metrics", metrics.to_json())
        .render_compact()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())?;
    Ok(kb / 1024.0)
}

/// Where the benchmark's package lives (the repository root is its
/// parent directory).
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Git revision, toolchain, CPU count and CPU model, recorded with every
/// result. Outside a git checkout the revision is `null`; the source
/// digest (FNV-1a over the measured sources) identifies the code there.
pub fn provenance() -> Json {
    let root = package_dir().parent().unwrap_or(package_dir());
    let git_rev = if root.join(".git").exists() {
        command_line(
            Command::new("git")
                .arg("-C")
                .arg(root)
                .args(["rev-parse", "HEAD"]),
        )
    } else {
        None
    };
    let rustc = command_line(Command::new("rustc").arg("--version"));
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
    });
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(0);
    let opt = |s: Option<String>| s.map(Json::from).unwrap_or(Json::Null);
    Json::obj()
        .set("git_rev", opt(git_rev))
        .set("source_digest", format!("{:016x}", source_digest(root)))
        .set("rustc", opt(rustc))
        .set("nproc", nproc)
        .set("cpu_model", opt(cpu_model))
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the relative path and bytes of every source file of the
/// measured crates and of this benchmark, in sorted path order.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "perfbench/src"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.retain(|p| {
        p.extension().is_some_and(|e| e == "rs" || e == "toml")
            && !p.components().any(|c| c.as_os_str() == "fixtures")
    });
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in rel.bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                collect_files(&p, out);
            }
        } else {
            out.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_the_inclusive_method() {
        let s = Samples(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.25), 1.75);
        assert_eq!(s.quantile(1.0), 4.0);
        assert!(Samples::default().median().is_nan());
        let t = Samples((1..=20).map(f64::from).chain([1e9, 1e9]).collect());
        assert_eq!(
            t.trimmed_mean(),
            (3..=20).map(f64::from).sum::<f64>() / 18.0
        );
        assert_eq!(Samples(vec![2.0, 4.0]).trimmed_mean(), 3.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut t = Tally::default();
        t.record(Ok(()));
        let m = Metrics(vec![Metric {
            name: "setup_s",
            value: 0.25,
            unit: "s",
        }]);
        let doc = Json::parse(&result_line(&t, &m)).unwrap();
        let Json::Obj(entries) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    }
}
