//! Every metric the benchmark emits, with its unit.
//!
//! Untraced runs print every [`END_TO_END`] metric; traced runs print
//! every [`PER_LAYER`] metric. A workload that bypasses a layer reports
//! that layer's metrics as 0 (see `perfbench/README.md` for the map from
//! each layer metric to the end-to-end metric it should move).

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("cold_p50_ms", "ms"),
    ("cold_p90_ms", "ms"),
    ("warm_p50_ms", "ms"),
];

/// Measured by untraced runs, printed and kept in the report, but not
/// declared in `BENCHMARK.json`: on a small shared host their run-to-run
/// spread exceeds the largest regression bound a declared metric may
/// have, so they cannot gate a change.
pub const UNSCORED: &[(&str, &str)] = &[("warm_p99_ms", "ms")];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.gen_s", "s"),
    ("trace.gen_mips", "Minstr/s"),
    ("trace.instructions", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
    ("tracestore.write_s", "s"),
    ("tracestore.bytes_per_instr", "B/instr"),
    ("tracestore.decode_s", "s"),
    ("tracestore.decode_mips", "Minstr/s"),
    ("tracestore.chunks", "count"),
    ("tracestore.dir_hits", "count"),
    ("tracestore.dir_misses", "count"),
    ("core.ideal_novp.ns_per_slot", "ns"),
    ("core.ideal_vp.ns_per_slot", "ns"),
    ("core.conv.ns_per_slot", "ns"),
    ("core.conv_banked.ns_per_slot", "ns"),
    ("core.bac.ns_per_slot", "ns"),
    ("core.tc.ns_per_slot", "ns"),
    ("core.replay_s", "s"),
    ("core.slots", "count"),
    ("fetch.conv.ns_per_group", "ns"),
    ("fetch.bac.ns_per_group", "ns"),
    ("fetch.tc.ns_per_group", "ns"),
    ("fetch.instrs_per_group", "instr"),
    ("fetch.trace_cache.hit_ratio", "ratio"),
    ("bpred.two_level.ns_per_branch", "ns"),
    ("bpred.accuracy", "ratio"),
    ("predictor.stride.ns_per_lookup", "ns"),
    ("predictor.banked.ns_per_group", "ns"),
    ("predictor.banked.grant_ratio", "ratio"),
    ("predictor.useful_ratio", "ratio"),
    ("dfg.analyze_s", "s"),
    ("experiments.table3-1_s", "s"),
    ("experiments.fig3-1_s", "s"),
    ("experiments.table3-2_s", "s"),
    ("experiments.fig3-3_s", "s"),
    ("experiments.fig3-4_s", "s"),
    ("experiments.fig3-5_s", "s"),
    ("experiments.fig5-1_s", "s"),
    ("experiments.fig5-2_s", "s"),
    ("experiments.fig5-3_s", "s"),
    ("experiments.usefulness_s", "s"),
    ("experiments.render_s", "s"),
    ("metrics.snapshot_us", "us"),
    ("metrics.json_encode_us", "us"),
    ("metrics.json_parse_us", "us"),
    ("server.accept_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.run_ms", "ms"),
    ("server.result_cache.hit_ratio", "ratio"),
    ("server.rejected_503", "count"),
    ("server.http.parse_us", "us"),
    ("server.jobspec.validate_us", "us"),
    ("server.result_cache.get_us", "us"),
    ("loadgen.late_starts", "count"),
    ("loadgen.max_lag_ms", "ms"),
    ("self.harness_s", "s"),
    ("self.trace_s", "s"),
    ("self.tracestore_s", "s"),
    ("self.core_s", "s"),
    ("self.fetch_s", "s"),
    ("self.bpred_s", "s"),
    ("self.predictor_s", "s"),
    ("self.dfg_s", "s"),
    ("self.experiments_s", "s"),
    ("self.metrics_s", "s"),
    ("self.server_s", "s"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(UNSCORED).chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        for layer in crate::spans::LAYERS {
            let name = format!("self.{layer}_s");
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "no self-time metric for {layer}");
        }
    }
}
