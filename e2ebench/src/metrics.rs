//! The benchmark's metric catalogue: every name it prints, with its unit
//! and which direction is better. `BENCHMARK.json` at the repository root
//! declares the same lists; a self-test keeps the two in step.

/// One declared metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Printed by every untraced run.
pub const END_TO_END: [Metric; 4] = [
    m("setup_s", "s", "lower"),
    m("wall_s", "s", "lower"),
    m("sim_mcycles_per_s", "Mcycles/s", "higher"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Printed by every traced run.
pub const PER_LAYER: [Metric; 41] = [
    m("core.busy_s", "s", "lower"),
    m("core.sim_cycles", "count", "lower"),
    m("core.ns_per_cycle", "ns", "lower"),
    m("core.ipc", "insn/cycle", "higher"),
    m("workloads.build_ms", "ms", "lower"),
    m("workloads.programs", "count", "lower"),
    m("figures.gen_s", "s", "lower"),
    m("runner.runs", "count", "lower"),
    m("runner.demanded", "count", "lower"),
    m("runner.memo_hit_ratio", "ratio", "higher"),
    m("runner.self_s", "s", "lower"),
    m("sweep.run_cell_ms", "ms", "lower"),
    m("sweep.probe_ms", "ms", "lower"),
    m("sweep.store_hit_ratio", "ratio", "higher"),
    m("trace.cpi_overhead", "ratio", "lower"),
    m("serve.start_ms", "ms", "lower"),
    m("serve.submit_cold_ms", "ms", "lower"),
    m("serve.submit_hit_ms", "ms", "lower"),
    m("serve.fetch_ms", "ms", "lower"),
    m("serve.transport_ms", "ms", "lower"),
    m("serve.frames", "count", "lower"),
    m("corpus.load_ms", "ms", "lower"),
    m("explore.snapshot_ms", "ms", "lower"),
    m("explore.fork_us", "us", "lower"),
    m("explore.window_ms", "ms", "lower"),
    m("search.evaluations", "count", "lower"),
    m("search.steps", "count", "lower"),
    m("search.frontier_points", "count", "higher"),
    m("search.self_s", "s", "lower"),
    m("checkpoint.encode_us", "us", "lower"),
    m("checkpoint.decode_us", "us", "lower"),
    m("checkpoint.bytes", "B", "lower"),
    m("checkpoint.splices", "count", "lower"),
    m("oracle.verify_ms", "ms", "lower"),
    m("oracle.splice_share", "ratio", "lower"),
    m("interp.ns_per_step", "ns", "lower"),
    m("oracle.divergences", "count", "lower"),
    m("testkit.progen_ms", "ms", "lower"),
    m("mem.hit_rate", "%", "higher"),
    m("uarch.branch_accuracy", "%", "higher"),
    m("bench.trace_overhead", "ratio", "lower"),
];

/// Whether `name` is a legal metric name: it starts with a letter or a
/// digit and holds at most 64 letters, digits, `_`, `.` and `-`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values gathered by one run, in insertion order.
#[derive(Default, Debug)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(valid_name(name), "{name}");
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Adds every value of `other` whose name is not yet present.
    pub fn fill_from(&mut self, other: &Values) {
        for &(name, v) in &other.0 {
            if self.get(name).is_none() {
                self.0.push((name, v));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Whether `unit` is a legal unit: at most 16 letters, digits, `_`,
    /// `/`, `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_declared_name_and_unit_is_legal_and_unique() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(matches!(m.better, "higher" | "lower"), "{}", m.name);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
    }

    #[test]
    fn name_rules_reject_malformed_names() {
        assert!(valid_name("core.busy_s"));
        assert!(valid_name("9lives"));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("Mcycles/s"));
        assert!(!valid_unit("µs"));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| -> String {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let rest = &text[start..];
            rest[..rest.find(']').expect("section ends")].to_string()
        };
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let body = section(key);
            let declared = body.matches("\"name\"").count();
            assert_eq!(declared, list.len(), "{key}: count");
            for m in list {
                let entry = format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    m.name, m.unit, m.better
                );
                assert!(body.contains(&entry), "{key}: missing {entry}");
            }
        }
    }
}
