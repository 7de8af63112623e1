//! Every metric the benchmark reports, with its unit, and the result
//! line the run prints last.

/// End-to-end metrics, reported by the untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("cells_per_s", "1/s"),
    ("sim_cycles_per_s", "1/s"),
    ("speedup", "x"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cmp.new_ms", "ms"),
    ("cmp.fork_ms", "ms"),
    ("cmp.build_network_us", "us"),
    ("sim.net_ms", "ms"),
    ("sim.events_ms", "ms"),
    ("sim.cores_ms", "ms"),
    ("sim.loop_other_ms", "ms"),
    ("sim.us_per_cycle", "us"),
    ("sim.ns_per_event", "ns"),
    ("net.l0.cell_ms", "ms"),
    ("net.fsoi.cell_ms", "ms"),
    ("net.fsoi.cost_ms", "ms"),
    ("net.mesh.cell_ms", "ms"),
    ("net.mesh.cost_ms", "ms"),
    ("net.crossbar.cell_ms", "ms"),
    ("net.crossbar.cost_ms", "ms"),
    ("net.lr1.cell_ms", "ms"),
    ("net.lr1.cost_ms", "ms"),
    ("net.lr2.cell_ms", "ms"),
    ("net.lr2.cost_ms", "ms"),
    ("work.sim_cycles", "count"),
    ("work.ticks", "count"),
    ("work.events", "count"),
    ("work.ff_jumps", "count"),
    ("work.ff_skip_frac", "ratio"),
    ("work.packets", "count"),
    ("work.fsoi_collision_frac", "ratio"),
    ("work.cells_forked", "count"),
    ("par.busy_frac", "ratio"),
    ("par.idle_ms", "ms"),
    ("par.tail_ms", "ms"),
    ("batch.merge_ms", "ms"),
    ("batch.run_forked_ms", "ms"),
    ("metrics.to_jsonl_ms", "ms"),
    ("cache.hit_us", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// Whether a metric name fits the grammar `BENCHMARK.json` requires: a
/// letter or digit first, then at most 63 letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The result line: `correct`, `attempted`, `failed` and one
/// `{"value", "unit"}` object per metric of `catalog`, in catalog order.
/// Fails when a metric is missing or not a finite number.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    catalog: &[(&str, &str)],
    values: &[(&str, f64)],
) -> Result<String, String> {
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !catalog.iter().any(|(c, _)| c == n))
    {
        return Err(format!("metric {name} is not in the catalog"));
    }
    if let Some((name, _)) = catalog.iter().find(|(n, _)| !valid_name(n)) {
        return Err(format!("metric name {name:?} breaks the name grammar"));
    }
    let mut fields = Vec::with_capacity(catalog.len());
    for (name, unit) in catalog {
        let value = values
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn metric_names_fit_the_grammar_and_are_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "a metric name is used twice");
        for bad in ["", ".x", "a b", "x/y", "é", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name("net.lr1.cost_ms") && valid_name("9-a_b.c"));
    }

    #[test]
    fn units_fit_the_grammar() {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok),
                "{unit}"
            );
        }
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                BENCHMARK_JSON.contains(&entry),
                "BENCHMARK.json lacks {entry}"
            );
        }
        let listed = BENCHMARK_JSON.matches("\"unit\": ").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists other metrics"
        );
    }

    #[test]
    fn result_line_shape_and_refusals() {
        let cat = &[("a_ms", "ms"), ("b", "count")];
        let line = result_line(true, 3, 0, cat, &[("b", 2.0), ("a_ms", 1.25)]).expect("complete");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.25, \
             \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
        assert!(result_line(true, 3, 0, cat, &[("a_ms", 1.0)]).is_err());
        assert!(result_line(true, 3, 0, cat, &[("a_ms", f64::NAN), ("b", 1.0)]).is_err());
        assert!(result_line(true, 3, 0, cat, &[("a_ms", 1.0), ("b", 1.0), ("c", 1.0)]).is_err());
    }
}
