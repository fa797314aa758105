//! `distill`: CAE-DFKD (N = 4, CNCL on), ResNet-34 → ResNet-18 on C100Sim
//! at the `fast` budget — the training path a `cae-dfkd distill` user
//! waits on.
//!
//! Set-up generates the data, pre-trains the teacher, builds the student
//! and the trainer, and runs one warm-up epoch. The timed window is a fixed
//! number of whole fast-schedule epochs (6 generator + 12 student steps
//! each), sized from `--seconds` by [`EPOCHS_PER_SECOND`].

use crate::spans::Spans;
use crate::{agreement, f32_bytes, fnv, quantile, Ctx, FNV_START};
use cae_core::config::{DfkdConfig, ExperimentBudget};
use cae_core::teacher::pretrained;
use cae_core::trainer::DfkdTrainer;
use cae_core::MethodSpec;
use cae_data::{ClassificationPreset, Dataset};
use cae_nn::models::Arch;
use cae_nn::{Classifier, ForwardCtx, FreezeMode, FreezeOptions};
use cae_tensor::rng::TensorRng;
use cae_tensor::Var;
use std::time::Instant;

/// Window epochs per requested second: this host's measured epoch rate,
/// so the window lasts about `--seconds`. Fixed, so the same seed and
/// `--seconds` always run the same work.
const EPOCHS_PER_SECOND: f64 = 1.65;
/// Warm-up epochs in set-up (the autotuner measures here).
const WARMUP_EPOCHS: usize = 1;
/// Images in the probe batch whose final student logits are digested.
const PROBE: usize = 16;

fn argmax_on(model: &dyn Classifier, data: &Dataset) -> Vec<usize> {
    let frozen = model.freeze_with(&FreezeOptions::with_mode(FreezeMode::Fused));
    let mut out = Vec::with_capacity(data.len());
    let idx: Vec<usize> = (0..data.len()).collect();
    for chunk in idx.chunks(100) {
        let (x, _) = data.batch(chunk);
        out.extend(frozen.forward(&x).argmax_rows());
    }
    out
}

pub fn run(ctx: &mut Ctx) {
    let preset = ClassificationPreset::C100Sim;
    let epochs = ((ctx.seconds * EPOCHS_PER_SECOND).round() as usize).max(1);
    let mut budget = ExperimentBudget::fast();
    budget.seed = ctx.derive(1);
    budget.dfkd_epochs = WARMUP_EPOCHS + epochs;
    let config = DfkdConfig::default();

    let sp = ctx.spans.open("data.generate");
    let split = preset.generate(ctx.derive(2));
    ctx.spans.close(sp);
    let sp = ctx.spans.open("teacher.pretrain");
    let teacher = pretrained(
        "teacher",
        Arch::ResNet34,
        &split.train,
        &budget,
        config.batch_size,
    );
    ctx.spans.close(sp);
    let mut rng = TensorRng::seed_from(ctx.derive(3));
    let student = Arch::ResNet18.build(preset.num_classes(), budget.base_width, &mut rng);
    let class_names = preset.class_names();
    let sp = ctx.spans.open("trainer.new");
    let mut trainer = DfkdTrainer::new(
        teacher.as_ref(),
        student,
        &class_names,
        preset.resolution(),
        &MethodSpec::cae_dfkd(4),
        config,
        &budget,
        ctx.derive(4),
    );
    ctx.spans.close(sp);

    let (teacher_pred, agree_init) = if ctx.setup_only {
        (Vec::new(), 0.0)
    } else {
        ctx.pre_window_check(|| {
            let teacher_pred = argmax_on(teacher.as_ref(), &split.test);
            let agree = agreement(&argmax_on(trainer.student(), &split.test), &teacher_pred);
            (teacher_pred, agree)
        })
    };

    let sp = ctx.spans.open("trainer.warmup");
    let mut losses = Vec::new();
    for _ in 0..WARMUP_EPOCHS {
        run_epoch(&mut ctx.spans, &mut trainer, &budget, &mut losses);
    }
    ctx.spans.close(sp);
    if ctx.end_setup() {
        return;
    }

    // Timed window.
    losses.clear();
    let window = ctx.spans.open("window");
    let t0 = Instant::now();
    let mut epoch_ms = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let te = Instant::now();
        run_epoch(&mut ctx.spans, &mut trainer, &budget, &mut losses);
        epoch_ms.push(te.elapsed().as_secs_f64() * 1e3);
    }
    let window_s = t0.elapsed().as_secs_f64();
    ctx.spans.close(window);
    let program = if ctx.trace {
        cae_trace::drain()
    } else {
        Default::default()
    };
    ctx.out.window_s = window_s;

    let steps_per_epoch = budget.generator_steps_per_epoch + budget.student_steps_per_epoch;
    let images = (epochs * steps_per_epoch * config.batch_size) as f64;
    ctx.out.attempted = losses.len() as u64;
    ctx.out.failed = losses
        .iter()
        .filter(|l| !l.is_some_and(f32::is_finite))
        .count() as u64;
    ctx.out
        .metrics
        .insert("throughput_per_s".into(), images / window_s);
    ctx.out
        .metrics
        .insert("p50_ms".into(), quantile(&mut epoch_ms, 0.5));

    // Checks against properties the method must have.
    let chance = 1.0 / preset.num_classes() as f64;
    let labels: Vec<usize> = (0..split.test.len()).map(|i| split.test.label(i)).collect();
    let teacher_top1 = agreement(&teacher_pred, &labels);
    ctx.check(
        "teacher_top1_well_above_chance",
        teacher_top1 >= 5.0 * chance,
        format!(
            "teacher top-1 {:.1}% on {} held-out images, chance {:.1}%",
            teacher_top1 * 100.0,
            labels.len(),
            chance * 100.0
        ),
    );
    let agree_after = agreement(&argmax_on(trainer.student(), &split.test), &teacher_pred);
    ctx.check(
        "student_agreement_rises",
        agree_after > agree_init,
        format!(
            "student-teacher top-1 agreement {:.1}% at init, {:.1}% after the window",
            agree_init * 100.0,
            agree_after * 100.0
        ),
    );
    let generator_steps = (WARMUP_EPOCHS + epochs) * budget.generator_steps_per_epoch;
    let expected = trainer
        .memory()
        .capacity()
        .min(config.batch_size * generator_steps);
    ctx.check(
        "memory_bank_fill",
        trainer.memory().len() == expected,
        format!(
            "memory bank holds {} images, expected {expected}",
            trainer.memory().len()
        ),
    );
    ctx.check(
        "losses_finite",
        ctx.out.failed == 0,
        format!(
            "{} of {} window losses finite",
            ctx.out.attempted - ctx.out.failed,
            ctx.out.attempted
        ),
    );
    let probe: Vec<usize> = (0..PROBE).collect();
    let (x, _) = split.test.batch(&probe);
    let logits = trainer
        .student()
        .forward(&Var::constant(x), &mut ForwardCtx::eval());
    ctx.out.digest = fnv(FNV_START, f32_bytes(logits.to_tensor().data()));

    if ctx.trace {
        let l = &mut ctx.out.layers;
        l.insert("data.generate_s".into(), ctx.spans.total_s("data.generate"));
        l.insert(
            "teacher.pretrain_s".into(),
            ctx.spans.total_s("teacher.pretrain"),
        );
        l.insert("trainer.new_s".into(), ctx.spans.total_s("trainer.new"));
        l.insert(
            "trainer.warmup_s".into(),
            ctx.spans.total_s("trainer.warmup"),
        );
        ctx.window_breakdown();
        ctx.program_layers(&program);
    }
}

/// One fast-schedule epoch; a missing (`None`) loss means the memory bank
/// was empty.
fn run_epoch(
    spans: &mut Spans,
    trainer: &mut DfkdTrainer<'_>,
    budget: &ExperimentBudget,
    losses: &mut Vec<Option<f32>>,
) {
    for _ in 0..budget.generator_steps_per_epoch {
        let sp = spans.open("trainer.generator_step");
        losses.push(Some(trainer.generator_step()));
        spans.close(sp);
    }
    for _ in 0..budget.student_steps_per_epoch {
        let sp = spans.open("trainer.student_step");
        losses.push(trainer.student_step());
        spans.close(sp);
    }
}
