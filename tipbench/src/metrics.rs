//! The names, units, directions and regression bounds of every metric
//! the benchmark reports. `BENCHMARK.json` at the repository root
//! declares the same lists; a test keeps the two in step.

use crate::stats;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may worsen
    /// before `--compare` calls a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "stmt_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.20,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.20,
    },
    EndToEnd {
        name: "p99_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better,
    }
}

/// Per-layer metrics, in the order the layers sit under a statement.
/// Every traced run reports all of them; a layer the workload bypasses
/// reports 0.
pub const PER_LAYER: [PerLayer; 35] = [
    layer("client.codec_us", "us", false),
    layer("client.reply_bytes", "B", false),
    layer("server.wire_queue_us", "us", false),
    layer("sql.parse_us", "us", false),
    layer("plan.bind_plan_us", "us", false),
    layer("cache.hit_ratio", "ratio", true),
    layer("exec.run_us", "us", false),
    layer("exec.run_share", "ratio", false),
    layer("exec.rows_scanned_per_returned", "ratio", false),
    layer("exec.batch_share", "ratio", true),
    layer("scans.index_overlap", "count", true),
    layer("core.element_ns_per_period_3", "ns", false),
    layer("core.element_ns_per_period_256", "ns", false),
    layer("storage.commit_us_small_table", "us", false),
    layer("storage.commit_us_large_table", "us", false),
    layer("storage.commit_growth", "ratio", false),
    layer("storage.mvcc_versions", "count", false),
    layer("wal.append_us", "us", false),
    layer("wal.sync_us", "us", false),
    layer("wal.bytes_per_commit", "B", false),
    layer("wal.commits_per_fsync", "ratio", true),
    layer("write_amp", "B/B", false),
    layer("checkpoint.count", "count", false),
    layer("checkpoint.total_s", "s", false),
    layer("checkpoint.bytes", "B", false),
    layer("checkpoint.max_stall_us", "us", false),
    layer("pages.hit_ratio", "ratio", true),
    layer("pages.faults_per_stmt", "ratio", false),
    layer("pages.fault_us", "us", false),
    layer("pages.evictions", "count", false),
    layer("pages.writebacks", "count", false),
    layer("trace.statements", "count", true),
    layer("trace.wire_p50_us", "us", false),
    layer("trace.unattributed_share", "ratio", false),
    layer("trace.overhead", "ratio", false),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread of one side is wider than the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How far `after` is worse than `before`, as a share of `before`'s
/// median (negative when it improved).
pub fn worsening(m: &EndToEnd, before: &[f64], after: &[f64]) -> f64 {
    let (a, b) = (stats::median(before), stats::median(after));
    if a == 0.0 {
        return 0.0;
    }
    if m.higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    }
}

pub fn verdict(m: &EndToEnd, before: &[f64], after: &[f64]) -> Verdict {
    if stats::spread(before) > m.bound || stats::spread(after) > m.bound {
        return Verdict::Unresolved;
    }
    let w = worsening(m, before, after);
    if w > m.bound {
        Verdict::Worse
    } else if w < -m.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    const THROUGHPUT: &EndToEnd = &EndToEnd {
        name: "throughput",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.10,
    };
    const LATENCY: &EndToEnd = &EndToEnd {
        name: "latency",
        unit: "us",
        higher_is_better: false,
        bound: 0.10,
    };

    #[test]
    fn direction_decides_what_worse_means() {
        // Throughput falling 20% is worse; latency falling 20% is better.
        assert_eq!(
            verdict(THROUGHPUT, &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(LATENCY, &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]),
            Verdict::Better
        );
        assert_eq!(
            verdict(LATENCY, &[100.0, 101.0, 99.0], &[125.0, 126.0, 124.0]),
            Verdict::Worse
        );
        assert!((worsening(THROUGHPUT, &[100.0], &[80.0]) - 0.2).abs() < 1e-12);
        assert!((worsening(LATENCY, &[100.0], &[80.0]) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn inside_the_bound_is_same() {
        assert_eq!(
            verdict(THROUGHPUT, &[100.0, 101.0, 99.0], &[95.0, 96.0, 94.0]),
            Verdict::Same
        );
        assert_eq!(verdict(LATENCY, &[100.0], &[109.0]), Verdict::Same);
    }

    #[test]
    fn wide_spread_is_unresolved_not_same() {
        // Quartiles 70 and 130 around a median of 100: spread 0.6.
        let noisy = [70.0, 100.0, 130.0];
        assert_eq!(
            verdict(THROUGHPUT, &noisy, &[100.0, 100.0, 100.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(THROUGHPUT, &[100.0, 100.0, 100.0], &noisy),
            Verdict::Unresolved
        );
    }

    /// `BENCHMARK.json` is what the acceptance driver reads; the tables
    /// above are what the program reports and compares with.
    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let decl = Json::parse(text).expect("BENCHMARK.json parses");
        let e2e = decl.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (d, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(d.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(d.get("unit").and_then(Json::as_str), Some(m.unit));
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(d.get("better").and_then(Json::as_str), Some(better));
            assert_eq!(d.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = decl.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (d, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(d.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(d.get("unit").and_then(Json::as_str), Some(m.unit));
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(d.get("better").and_then(Json::as_str), Some(better));
        }
        let names: Vec<&str> = decl
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }
}
