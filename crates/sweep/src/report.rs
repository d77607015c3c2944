//! Human-readable rendering of sweep results.

use crate::{EvaluatedPoint, SweepReport};
use optimus_units::Figure;

/// Column-aligned text table of evaluated points (one row each), with the
/// frontier marked. `limit` caps the number of body rows (0 = no cap).
#[must_use]
pub fn render_table(report: &SweepReport, limit: usize) -> String {
    let mut rows: Vec<&EvaluatedPoint> = report.evaluated.iter().collect();
    rows.sort_by_key(|a| a.latency);
    if limit > 0 {
        rows.truncate(limit);
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{:<3} {:>14} {:>5} {:>6} {:>5} {:>5} {:>10} {:>12} {:>10} {:>10} {:>10} {:>6}\n",
        "",
        "dp-tp-pp-sp",
        "ubat",
        "prec",
        "gpus",
        "mfu",
        "latency",
        "throughput",
        "mem/gpu",
        "energy",
        "cost",
        "pareto"
    ));
    for row in rows {
        let on_frontier = report.frontier.iter().any(|f| f.point == row.point);
        out.push_str(&format!(
            "{:<3} {:>14} {:>5} {:>6} {:>5} {:>5} {:>10} {:>12} {:>10} {:>10} {:>10} {:>6}\n",
            if on_frontier { "*" } else { "" },
            row.point.parallelism.to_string(),
            row.point.parallelism.microbatch,
            row.point.precision.to_string(),
            row.gpus,
            row.mfu
                .map_or_else(|| "-".to_owned(), |m| format!("{:.2}", m)),
            format!("{:.4} s", Figure(row.latency.secs())),
            format!("{:.1}/s", row.throughput),
            format!("{:.1} GB", row.memory_per_device.gb()),
            format!("{:.1} kJ", Figure(row.energy.joules() / 1e3)),
            format!("${:.4}", Figure(row.cost_usd)),
            if on_frontier { "yes" } else { "" },
        ));
    }
    out
}

/// Renders only the Pareto frontier, ascending latency.
#[must_use]
pub fn render_frontier(report: &SweepReport) -> String {
    let mut out = String::from("pareto frontier (latency vs cost):\n");
    for row in &report.frontier {
        out.push_str(&format!(
            "  {:>14} ubatch={:<2} {:>5}  {:>5} gpus  {:>10}  ${:.4}\n",
            row.point.parallelism.to_string(),
            row.point.parallelism.microbatch,
            row.point.precision.to_string(),
            row.gpus,
            format!("{:.4} s", Figure(row.latency.secs())),
            Figure(row.cost_usd),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::{SweepEngine, SweepSpace, Workload};
    use optimus_hw::presets;
    use optimus_model::presets as models;
    use optimus_units::{Energy, Time};

    #[test]
    fn table_marks_frontier_rows() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let report = SweepEngine::new(&cluster).sweep(
            &models::llama2_13b(),
            &Workload::inference(1, 200, 16),
            &SweepSpace::power_of_two(8),
        );
        let table = super::render_table(&report, 0);
        assert!(table.contains("pareto"));
        assert!(table.contains("yes"));
        let frontier = super::render_frontier(&report);
        assert!(frontier.lines().count() >= 2);
    }

    /// Latency, energy and cost cells of 2^53 or more print in exponent
    /// form, not as hundreds of fixed-point digits; smaller cells print in
    /// fixed point.
    #[test]
    fn huge_cells_print_in_exponent_form() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let mut report = SweepEngine::new(&cluster).sweep(
            &models::llama2_13b(),
            &Workload::inference(1, 200, 16),
            &SweepSpace::power_of_two(1),
        );
        report.evaluated.truncate(1);
        for (secs, joules, usd, cells) in [
            (0.5, 2e3, 0.25, ["0.5000 s", "2.0 kJ", "$0.2500"]),
            (
                5.626e298,
                1e300,
                2f64.powi(53),
                ["5.626e298 s", "1.000e297 kJ", "$9.007e15"],
            ),
        ] {
            let row = &mut report.evaluated[0];
            row.latency = Time::from_secs(secs);
            row.energy = Energy::new(joules);
            row.cost_usd = usd;
            report.frontier.clone_from(&report.evaluated);
            let table = super::render_table(&report, 0);
            let frontier = super::render_frontier(&report);
            for cell in cells {
                assert!(table.contains(cell), "{cell}: {table}");
            }
            for cell in [cells[0], cells[2]] {
                assert!(frontier.contains(cell), "{cell}: {frontier}");
            }
        }
    }
}
