//! `table02`: `experiments::run_by_id("table02", smoke)` — 70 cells (20
//! reference pre-training cells, 50 DFKD cells: five methods × two datasets
//! × five teacher/student pairs) on the cell scheduler with default cell
//! parallelism.
//!
//! Set-up generates the table's two datasets (the inputs its cells draw
//! from the same seed) and checks their shape. The timed window is a whole
//! number of table runs, sized from `--seconds` by [`TABLE_SECONDS`].

use crate::{fnv, quantile, Ctx, FNV_START};
use cae_core::config::ExperimentBudget;
use cae_core::experiments::run_by_id;
use cae_data::ClassificationPreset;
use std::time::Instant;

/// One table run's wall-clock on this host; the window runs
/// `max(1, round(seconds / TABLE_SECONDS))` tables.
const TABLE_SECONDS: f64 = 21.0;
/// Cells in one Table II run.
const CELLS: u64 = 70;

pub fn run(ctx: &mut Ctx) {
    let mut budget = ExperimentBudget::smoke();
    budget.seed = ctx.derive(21);
    let rounds = ((ctx.seconds / TABLE_SECONDS).round() as usize).max(1);

    let datasets = [ClassificationPreset::C100Sim, ClassificationPreset::C10Sim];
    let sp = ctx.spans.open("data.generate");
    let chance: Vec<f32> = datasets
        .iter()
        .map(|d| {
            let split = d.generate(budget.seed);
            assert_eq!(
                split.train.num_classes(),
                d.num_classes(),
                "generated class count"
            );
            1.0 / split.train.num_classes() as f32
        })
        .collect();
    ctx.spans.close(sp);
    if ctx.end_setup() {
        return;
    }

    let window = ctx.spans.open("window");
    let t0 = Instant::now();
    let mut reports = Vec::with_capacity(rounds);
    let mut run_ms = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let sp = ctx.spans.open("experiments.run_by_id");
        let t = Instant::now();
        let outcome = run_by_id("table02", &budget).expect("table02 is registered");
        run_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ctx.spans.close(sp);
        reports.push(outcome);
    }
    ctx.out.window_s = t0.elapsed().as_secs_f64();
    ctx.spans.close(window);
    let program = if ctx.trace {
        cae_trace::drain()
    } else {
        Default::default()
    };

    ctx.out.attempted = CELLS * rounds as u64;
    let mut failed = 0u64;
    let mut shape_ok = true;
    let mut range_ok = true;
    let mut teacher_ok = true;
    let mut detail = String::new();
    for outcome in &reports {
        let report = match outcome {
            Ok(r) => r,
            Err(e) => {
                failed += CELLS;
                detail = format!("table run failed: {e:?}");
                shape_ok = false;
                continue;
            }
        };
        let missing = report
            .rows
            .iter()
            .filter(|r| !r.label.starts_with("FAILED"))
            .flat_map(|r| &r.values)
            .filter(|v| v.is_none())
            .count() as u64;
        // Every cell fills one entry; a failed cell leaves a `-`.
        failed += missing;
        shape_ok &= report.rows.len() == 7 && report.columns.len() == 10;
        shape_ok &= report
            .rows
            .iter()
            .all(|r| r.values.len() == report.columns.len());
        range_ok &= report
            .rows
            .iter()
            .flat_map(|r| &r.values)
            .flatten()
            .all(|v| (0.0..=100.0).contains(v));
        if let Some(teacher) = report.rows.iter().find(|r| r.label == "Teacher") {
            for (i, v) in teacher.values.iter().enumerate() {
                let chance_pct = 100.0 * chance[i / (teacher.values.len() / 2).max(1)];
                teacher_ok &= v.is_some_and(|v| v > chance_pct);
            }
        } else {
            teacher_ok = false;
        }
    }
    ctx.out.failed = failed;
    ctx.check(
        "all_cells_complete",
        failed == 0,
        format!(
            "{} of {} cells complete {detail}",
            ctx.out.attempted - failed,
            ctx.out.attempted
        ),
    );
    ctx.check("report_shape", shape_ok, "7 rows x 10 columns".into());
    ctx.check(
        "values_in_range",
        range_ok,
        "every value in [0, 100]".into(),
    );
    ctx.check(
        "teachers_above_chance",
        teacher_ok,
        "every teacher entry above 5% (C100Sim) or 10% (C10Sim)".into(),
    );
    let json: Vec<String> = reports
        .iter()
        .map(|o| o.as_ref().map(|r| r.to_json()).unwrap_or_default())
        .collect();
    ctx.check(
        "rounds_identical",
        json.windows(2).all(|w| w[0] == w[1]),
        format!("{rounds} table run(s) byte-identical"),
    );
    ctx.out.digest = fnv(FNV_START, json[0].bytes());

    let cells_per_s = ctx.out.attempted as f64 / ctx.out.window_s;
    ctx.out
        .metrics
        .insert("throughput_per_s".into(), cells_per_s);
    // With one table run per window (`--seconds` up to 31) this is one
    // sample, equal to CELLS / throughput_per_s in ms.
    ctx.out
        .metrics
        .insert("p50_ms".into(), quantile(&mut run_ms, 0.5));

    if ctx.trace {
        ctx.out
            .layers
            .insert("data.generate_s".into(), ctx.spans.total_s("data.generate"));
        ctx.window_breakdown();
        ctx.program_layers(&program);
    }
}
