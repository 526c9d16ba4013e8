//! The metric catalogue and the result line.
//!
//! Every metric the benchmark can print is declared here, with its unit.
//! [`Outcome::render`] refuses to print a result whose metric set differs
//! from the declared set for the run's mode, and a test checks that
//! `BENCHMARK.json` declares exactly these names and units.

use std::collections::BTreeMap;

/// The ensemble's matrix shapes (tasks × machines).
pub const SHAPES: [(usize, usize); 7] = [
    (64, 64),
    (128, 64),
    (128, 128),
    (256, 64),
    (256, 256),
    (512, 128),
    (512, 512),
];

/// Cell count at or below which `SvdAlgorithm::Auto` runs one-sided Jacobi
/// and above which it runs Golub–Reinsch (`AUTO_GR_THRESHOLD` in
/// `hc_linalg::svd`).
pub const JACOBI_MAX_CELLS: usize = 64 * 64;

/// The two session sizes of `session_edits`.
pub const SESSION_SIZES: [(usize, usize); 2] = [(64, 64), (128, 128)];

/// `"TxM"`, the shape key used in per-layer metric names.
pub fn shape_key((t, m): (usize, usize)) -> String {
    format!("{t}x{m}")
}

/// True for shapes `Auto` sends to Golub–Reinsch (the ones with a bidiag phase).
pub fn is_golub_reinsch((t, m): (usize, usize)) -> bool {
    t * m > JACOBI_MAX_CELLS
}

/// End-to-end metrics, printed with `--trace 0`.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    [
        ("p50_ms", "ms"),
        ("read_p50_ms", "ms"),
        ("ops_per_s", "1/s"),
        ("cpu_ms_per_op", "ms"),
        ("setup_s", "s"),
        ("peak_rss_mb", "MiB"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect()
}

/// Per-layer metrics, printed with `--trace 1`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut push = |name: String, unit: &'static str| out.push((name, unit));
    for &shape in &SHAPES {
        let k = shape_key(shape);
        push(format!("core.characterize.{k}.ms"), "ms");
        if is_golub_reinsch(shape) {
            push(format!("linalg.bidiag.{k}.ms"), "ms");
        }
        push(format!("linalg.spectrum.{k}.ms"), "ms");
        push(format!("linalg.svd.{k}.iterations"), "count");
        push(format!("sinkhorn.{k}.ms"), "ms");
        push(format!("sinkhorn.{k}.iterations"), "count");
        push(format!("core.measures.{k}.ms"), "ms");
    }
    for (name, unit) in [
        ("linalg.svd.share", "ratio"),
        ("sinkhorn.structure.ms", "ms"),
        ("core.characterize.request_us", "us"),
        ("spec.csv.parse_us", "us"),
        ("serve.http.parse_us", "us"),
        ("serve.cache.lookup_us", "us"),
        ("serve.cache.hit_share", "ratio"),
        ("serve.json.render_us", "us"),
        ("obs.record_us", "us"),
        ("serve.reactor.cpu_us_per_op", "us"),
        ("serve.reactor.busy_share", "ratio"),
        ("serve.workers.cpu_us_per_op", "us"),
        ("server.queue_ms", "ms"),
        ("server.parse_ms", "ms"),
        ("server.compute_ms", "ms"),
        ("server.serialize_ms", "ms"),
        ("client.wire_ms", "ms"),
        ("obs.background.cpu_ms_per_s", "ms/s"),
        ("session.edits.parse_us", "us"),
    ] {
        push(name.to_string(), unit);
    }
    for &size in &SESSION_SIZES {
        let k = shape_key(size);
        push(format!("session.recompute.{k}.ms"), "ms");
        push(format!("session.cold.{k}.ms"), "ms");
    }
    for (name, unit) in [
        ("session.warm_share", "ratio"),
        ("session.fallbacks", "count"),
        ("session.cutovers", "count"),
        ("session.sinkhorn_iterations_per_edit", "count"),
        ("session.svd_iterations_per_edit", "count"),
        ("session.store.get_us", "us"),
        ("trace.coverage", "ratio"),
        ("trace.overhead", "ms"),
    ] {
        push(name.to_string(), unit);
    }
    out
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed: non-2xx, reset, timeout, or failed check.
    pub failed: u64,
    /// End-to-end metric values by name.
    pub end_to_end: BTreeMap<String, f64>,
    /// Per-layer metric values by name (filled only by traced runs).
    pub per_layer: BTreeMap<String, f64>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the metrics of the run's mode. Fails when the metric set
    /// is not exactly the declared one or a value is not finite.
    pub fn render(&self, trace: bool) -> Result<String, String> {
        let (declared, values) = if trace {
            (per_layer(), &self.per_layer)
        } else {
            (end_to_end(), &self.end_to_end)
        };
        let missing: Vec<&str> = declared
            .iter()
            .filter(|(n, _)| !values.contains_key(n))
            .map(|(n, _)| n.as_str())
            .collect();
        let extra: Vec<&str> = values
            .keys()
            .filter(|k| !declared.iter().any(|(n, _)| n == *k))
            .map(String::as_str)
            .collect();
        if !missing.is_empty() || !extra.is_empty() {
            return Err(format!(
                "metric set differs from the declared one: missing {missing:?}, undeclared {extra:?}"
            ));
        }
        let mut metrics = Vec::with_capacity(declared.len());
        for (name, unit) in &declared {
            let v = values[name];
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            metrics.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn declared_in_benchmark_json(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = crate::json::parse(&text).expect("BENCHMARK.json parses");
        let Some(Json::Arr(items)) = doc.get(section) else {
            panic!("BENCHMARK.json has no {section} array");
        };
        items
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).expect("name");
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    fn owned(v: Vec<(String, &'static str)>) -> Vec<(String, String)> {
        v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    }

    #[test]
    fn every_printed_metric_is_declared_in_benchmark_json() {
        assert_eq!(
            declared_in_benchmark_json("end_to_end"),
            owned(end_to_end())
        );
        assert_eq!(declared_in_benchmark_json("per_layer"), owned(per_layer()));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<String> = end_to_end().into_iter().map(|(n, _)| n).collect();
        all.extend(per_layer().into_iter().map(|(n, _)| n));
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric names");
        for n in &all {
            assert!(n.len() <= 64, "{n} too long");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn render_refuses_a_partial_or_undeclared_metric_set() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            ..Default::default()
        };
        for (n, _) in end_to_end() {
            o.end_to_end.insert(n, 1.5);
        }
        let line = o.render(false).unwrap();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
        assert!(line.contains("\"ops_per_s\":{\"value\":1.5,\"unit\":\"1/s\"}"));
        crate::json::parse(&line).expect("result line is JSON");
        assert!(
            o.render(true).is_err(),
            "traced mode needs the per-layer set"
        );
        o.end_to_end.insert("bogus".into(), 1.0);
        assert!(o.render(false).is_err());
        o.end_to_end.remove("bogus");
        o.end_to_end.insert("p50_ms".into(), f64::NAN);
        assert!(o.render(false).is_err());
    }
}
