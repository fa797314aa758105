//! `serve`: a fused frozen ResNet-18 (width 6, C100Sim, supervised at the
//! `fast` budget) behind `cae_serve::Server` with default `ServeOptions`.
//! Requests are held-out C100Sim images, drawn by a seeded schedule.
//!
//! Three phases, repeated in turn for [`ROUNDS`] rounds, all load from this
//! process on two load threads (one submits, one waits for answers):
//!
//! * light open loop at [`LIGHT_RATE`] requests/s,
//! * heavy open loop at [`HEAVY_RATE`] requests/s,
//! * saturated closed loop with [`OUTSTANDING`] requests outstanding.
//!
//! Open-loop arrivals are Poisson; each request is timed from its due time
//! to the moment the waiting thread holds its answer.

use crate::{f32_bytes, fnv, mean, quantile, Ctx, FNV_START};
use cae_core::config::ExperimentBudget;
use cae_core::teacher::pretrained;
use cae_data::ClassificationPreset;
use cae_nn::models::Arch;
use cae_nn::{ForwardCtx, FreezeMode, FreezeOptions, FrozenClassifier};
use cae_serve::{Prediction, ServeOptions, Server, Ticket};
use cae_tensor::rng::TensorRng;
use cae_tensor::{Tensor, Var};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Light open-loop rate (requests/s): far below batch-1 capacity.
const LIGHT_RATE: f64 = 500.0;
/// Heavy open-loop rate: batches average several requests, yet the rate
/// stays below a third of the slowest saturated capacity measured on the
/// 2-core host this was written on (4 708 answers/s in one run).
const HEAVY_RATE: f64 = 1500.0;
/// Requests kept outstanding in the saturated phase (three max batches).
const OUTSTANDING: usize = 48;
/// Requests per open-loop phase per requested second (6 250 at 25 s: the
/// light phase lasts half the window, and its p99 has over 60 samples
/// beyond it).
const OPEN_PER_SECOND: f64 = 250.0;
/// Saturated-phase requests per requested second (50 000 at 25 s, about
/// nine seconds): the longest phase, since capacity is the figure that
/// swings most with the host's speed.
const CLOSED_PER_SECOND: f64 = 2000.0;
/// The window runs the three phases this many times, in turn, so each
/// phase samples the host's speed at several points of the run.
const ROUNDS: usize = 5;
/// Requests whose fused logits are compared with the autograd forward.
const AUTOGRAD_SAMPLE: usize = 32;

/// One answered request, as the waiting thread saw it.
struct Answer {
    image: usize,
    prediction: Prediction,
    /// Due time (open loop) or submit time (closed loop) to answer held.
    latency_ms: f64,
    /// How late the submitter called `submit` after the due time.
    late_ms: f64,
    /// Time spent inside `submit` (backpressure when the queue is full).
    submit_block_ms: f64,
    /// Answer ready (as the server's phase times place it) to held.
    wake_us: f64,
}

struct Sent {
    id: u64,
    image: usize,
    due: Instant,
    submit_at: Instant,
    submitted: Instant,
    ticket: Ticket,
}

fn receive(sent: Sent) -> Answer {
    let prediction = sent.ticket.wait();
    let held = Instant::now();
    assert_eq!(
        prediction.id, sent.id,
        "answer carries another request's id"
    );
    let ready = sent.submit_at
        + Duration::from_micros(prediction.latency_us + prediction.phases.handoff_us);
    Answer {
        image: sent.image,
        latency_ms: held.duration_since(sent.due).as_secs_f64() * 1e3,
        late_ms: sent.submit_at.duration_since(sent.due).as_secs_f64() * 1e3,
        submit_block_ms: sent.submitted.duration_since(sent.submit_at).as_secs_f64() * 1e3,
        wake_us: held.saturating_duration_since(ready).as_secs_f64() * 1e6,
        prediction,
    }
}

/// Open loop: request `i` is due at `t0 + due[i]`, whatever the server
/// does. Returns the answers in submission order.
fn open_loop(
    server: &Server,
    images: &[Tensor],
    picks: &[usize],
    due: &[Duration],
    first_id: u64,
) -> Vec<Answer> {
    let (tx, rx) = mpsc::channel::<Sent>();
    std::thread::scope(|s| {
        let submitter = s.spawn(move || {
            let t0 = Instant::now();
            for (i, (&image, &offset)) in picks.iter().zip(due).enumerate() {
                let input = images[image].clone();
                let due = t0 + offset;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let id = first_id + i as u64;
                let submit_at = Instant::now();
                let ticket = server.submit(id, input);
                let submitted = Instant::now();
                tx.send(Sent {
                    id,
                    image,
                    due,
                    submit_at,
                    submitted,
                    ticket,
                })
                .expect("waiting thread is alive");
            }
        });
        let answers: Vec<Answer> = rx.iter().map(receive).collect();
        submitter.join().expect("submitter panicked");
        answers
    })
}

/// A counting semaphore bounding the requests in flight.
struct Permits {
    free: Mutex<usize>,
    cv: Condvar,
}

impl Permits {
    fn acquire(&self) {
        let mut free = self.free.lock().expect("permit lock poisoned");
        while *free == 0 {
            free = self.cv.wait(free).expect("permit lock poisoned");
        }
        *free -= 1;
    }

    fn release(&self) {
        *self.free.lock().expect("permit lock poisoned") += 1;
        self.cv.notify_one();
    }
}

/// Closed loop: keeps [`OUTSTANDING`] requests in flight until every pick
/// is answered.
fn closed_loop(server: &Server, images: &[Tensor], picks: &[usize], first_id: u64) -> Vec<Answer> {
    let permits = Permits {
        free: Mutex::new(OUTSTANDING),
        cv: Condvar::new(),
    };
    let (tx, rx) = mpsc::channel::<Sent>();
    std::thread::scope(|s| {
        let permits = &permits;
        let submitter = s.spawn(move || {
            for (i, &image) in picks.iter().enumerate() {
                let input = images[image].clone();
                permits.acquire();
                let id = first_id + i as u64;
                let submit_at = Instant::now();
                let ticket = server.submit(id, input);
                let submitted = Instant::now();
                tx.send(Sent {
                    id,
                    image,
                    due: submit_at,
                    submit_at,
                    submitted,
                    ticket,
                })
                .expect("waiting thread is alive");
            }
        });
        let answers: Vec<Answer> = rx
            .iter()
            .map(|sent| {
                let answer = receive(sent);
                permits.release();
                answer
            })
            .collect();
        submitter.join().expect("submitter panicked");
        answers
    })
}

/// Per-phase figures, as per-layer metrics under `serve.<phase>.` etc.
fn phase_layers(ctx: &mut Ctx, phase: &str, answers: &[Answer], secs: f64) {
    let n = answers.len() as f64;
    let mut latency: Vec<f64> = answers.iter().map(|a| a.latency_ms).collect();
    let field = |f: fn(&Answer) -> f64| mean(&answers.iter().map(f).collect::<Vec<_>>());
    let batches: f64 = answers
        .iter()
        .map(|a| 1.0 / a.prediction.batch_size as f64)
        .sum();
    let l = &mut ctx.out.layers;
    l.insert(format!("serve.p50_ms.{phase}"), quantile(&mut latency, 0.5));
    l.insert(
        format!("serve.p99_ms.{phase}"),
        quantile(&mut latency, 0.99),
    );
    l.insert(format!("serve.answers_per_s.{phase}"), n / secs);
    l.insert(
        format!("serve.queue_wait_ms.{phase}"),
        field(|a| a.prediction.phases.queue_wait_us as f64) * 1e-3,
    );
    l.insert(
        format!("serve.assembly_us.{phase}"),
        field(|a| a.prediction.phases.assembly_us as f64),
    );
    l.insert(
        format!("serve.forward_us.{phase}"),
        field(|a| a.prediction.phases.forward_us as f64),
    );
    l.insert(
        format!("serve.handoff_us.{phase}"),
        field(|a| a.prediction.phases.handoff_us as f64),
    );
    l.insert(format!("serve.batches.{phase}"), batches.round());
    l.insert(format!("serve.batch_mean.{phase}"), n / batches);
    l.insert(format!("client.wake_us.{phase}"), field(|a| a.wake_us));
    l.insert(
        format!("client.submit_block_ms.{phase}"),
        field(|a| a.submit_block_ms),
    );
    l.insert(format!("load.late_ms.{phase}"), field(|a| a.late_ms));
}

/// Median time of `reps` direct forwards at batch `n`, in microseconds.
fn direct_forward_us(model: &FrozenClassifier, images: &[Tensor], n: usize, reps: usize) -> f64 {
    let refs: Vec<&Tensor> = images.iter().take(n).collect();
    let x = Tensor::concat0(&refs);
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(model.forward(std::hint::black_box(&x)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    quantile(&mut times, 0.5)
}

pub fn run(ctx: &mut Ctx) {
    let preset = ClassificationPreset::C100Sim;
    let mut budget = ExperimentBudget::fast();
    budget.seed = ctx.derive(11);

    let sp = ctx.spans.open("data.generate");
    let split = preset.generate(ctx.derive(12));
    ctx.spans.close(sp);
    let sp = ctx.spans.open("teacher.pretrain");
    let model = pretrained("serve", Arch::ResNet18, &split.train, &budget, 16);
    ctx.spans.close(sp);
    let sp = ctx.spans.open("nn.freeze");
    let frozen = model.freeze_with(&FreezeOptions::with_mode(FreezeMode::Fused));
    let freeze_s = ctx.spans.close(sp).as_secs_f64();
    // Inputs: every held-out image as a single-image request.
    let images: Vec<Tensor> = (0..split.test.len())
        .map(|i| split.test.batch(&[i]).0)
        .collect();
    // Warm-up: forwards at every power-of-two batch the server can form,
    // enough for the autotuner to settle each shape class.
    let sp = ctx.spans.open("infer.warmup");
    for _ in 0..24 {
        for n in [1, 2, 4, 8, 16] {
            let refs: Vec<&Tensor> = images.iter().take(n).collect();
            std::hint::black_box(frozen.forward(&Tensor::concat0(&refs)));
        }
    }
    ctx.spans.close(sp);
    let server = Server::start(frozen.clone(), ServeOptions::default());
    if ctx.end_setup() {
        server.shutdown();
        return;
    }

    // The seeded schedule: which image each request carries, and when the
    // open-loop requests are due (offsets from the start of their chunk).
    let open_chunk = ((ctx.seconds * OPEN_PER_SECOND / ROUNDS as f64).round() as usize).max(1);
    let closed_chunk = ((ctx.seconds * CLOSED_PER_SECOND / ROUNDS as f64).round() as usize).max(1);
    let mut rng = TensorRng::seed_from(ctx.derive(13));
    let mut picks = |n: usize| -> Vec<usize> { (0..n).map(|_| rng.index(images.len())).collect() };
    let (light_picks, heavy_picks, closed_picks) = (
        picks(open_chunk * ROUNDS),
        picks(open_chunk * ROUNDS),
        picks(closed_chunk * ROUNDS),
    );
    let mut rng = TensorRng::seed_from(ctx.derive(14));
    let mut poisson = |rate: f64| -> Vec<Duration> {
        (0..ROUNDS)
            .flat_map(|_| {
                let mut t = 0.0;
                (0..open_chunk)
                    .map(|_| {
                        t += -(1.0 - f64::from(rng.uniform())).max(f64::MIN_POSITIVE).ln() / rate;
                        Duration::from_secs_f64(t)
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    let (light_due, heavy_due) = (poisson(LIGHT_RATE), poisson(HEAVY_RATE));

    let window = ctx.spans.open("window");
    let t0 = Instant::now();
    let (mut light, mut heavy, mut closed) = (Vec::new(), Vec::new(), Vec::new());
    let (mut light_s, mut heavy_s, mut closed_s) = (0.0, 0.0, 0.0);
    let mut next_id = 0u64;
    for r in 0..ROUNDS {
        let open = r * open_chunk..(r + 1) * open_chunk;
        let sp = ctx.spans.open("serve.light");
        light.extend(open_loop(
            &server,
            &images,
            &light_picks[open.clone()],
            &light_due[open.clone()],
            next_id,
        ));
        light_s += ctx.spans.close(sp).as_secs_f64();
        next_id += open_chunk as u64;
        let sp = ctx.spans.open("serve.heavy");
        heavy.extend(open_loop(
            &server,
            &images,
            &heavy_picks[open.clone()],
            &heavy_due[open],
            next_id,
        ));
        heavy_s += ctx.spans.close(sp).as_secs_f64();
        next_id += open_chunk as u64;
        let sp = ctx.spans.open("serve.capacity");
        closed.extend(closed_loop(
            &server,
            &images,
            &closed_picks[r * closed_chunk..(r + 1) * closed_chunk],
            next_id,
        ));
        closed_s += ctx.spans.close(sp).as_secs_f64();
        next_id += closed_chunk as u64;
    }
    ctx.out.window_s = t0.elapsed().as_secs_f64();
    ctx.spans.close(window);
    let program = if ctx.trace {
        cae_trace::drain()
    } else {
        Default::default()
    };
    let summary = server.shutdown();

    let mut light_latency: Vec<f64> = light.iter().map(|a| a.latency_ms).collect();
    ctx.out
        .metrics
        .insert("p50_ms".into(), quantile(&mut light_latency, 0.5));
    ctx.out
        .metrics
        .insert("throughput_per_s".into(), closed.len() as f64 / closed_s);

    // Checks: every request answered once, logits bit-identical to this
    // benchmark's own batch-1 forward, fused logits close to autograd,
    // served top-1 above chance.
    let all: Vec<&Answer> = light.iter().chain(&heavy).chain(&closed).collect();
    let attempted = next_id;
    ctx.out.attempted = attempted;
    let reference: Vec<Vec<f32>> = images
        .iter()
        .map(|x| frozen.forward(x).data().to_vec())
        .collect();
    let mismatched = all
        .iter()
        .filter(|a| a.prediction.logits != reference[a.image])
        .count() as u64;
    ctx.out.failed = attempted - all.len() as u64 + mismatched;
    let mut ids: Vec<u64> = all.iter().map(|a| a.prediction.id).collect();
    ids.sort_unstable();
    ids.dedup();
    ctx.check(
        "answered_exactly_once",
        ids.len() as u64 == attempted && summary.served == attempted,
        format!(
            "{} distinct ids answered, server served {}, {attempted} submitted",
            ids.len(),
            summary.served
        ),
    );
    ctx.check(
        "logits_match_batch1_forward",
        mismatched == 0,
        format!(
            "{mismatched} of {} answers differ from the batch-1 forward",
            all.len()
        ),
    );
    // Largest |fused - exact| as a share of the allowed 1e-4 + 1e-3*|exact|.
    let mut worst = 0.0f32;
    for a in all
        .iter()
        .step_by((all.len() / AUTOGRAD_SAMPLE).max(1))
        .take(AUTOGRAD_SAMPLE)
    {
        let exact = model
            .forward(
                &Var::constant(images[a.image].clone()),
                &mut ForwardCtx::eval(),
            )
            .to_tensor();
        for (&f, &e) in a.prediction.logits.iter().zip(exact.data()) {
            worst = worst.max((f - e).abs() / (1e-4 + 1e-3 * e.abs()));
        }
    }
    ctx.check(
        "fused_logits_near_autograd",
        worst <= 1.0,
        format!("{AUTOGRAD_SAMPLE} sampled answers vs the autograd eval forward: worst difference {worst:.3} of the 1e-4 + 1e-3*|x| tolerance"),
    );
    let correct = all
        .iter()
        .filter(|a| a.prediction.argmax == split.test.label(a.image))
        .count();
    let top1 = correct as f64 / all.len().max(1) as f64;
    let chance = 1.0 / preset.num_classes() as f64;
    ctx.check(
        "served_top1_above_chance",
        top1 > 2.0 * chance,
        format!(
            "served top-1 {:.1}%, chance {:.1}%",
            top1 * 100.0,
            chance * 100.0
        ),
    );
    ctx.out.digest = light
        .iter()
        .chain(&heavy)
        .fold(FNV_START, |h, a| fnv(h, f32_bytes(&a.prediction.logits)));

    if ctx.trace {
        phase_layers(ctx, "light", &light, light_s);
        phase_layers(ctx, "heavy", &heavy, heavy_s);
        phase_layers(ctx, "capacity", &closed, closed_s);
        let b1 = direct_forward_us(&frozen, &images, 1, 400);
        let b16 = direct_forward_us(&frozen, &images, 16, 100);
        let l = &mut ctx.out.layers;
        l.insert("data.generate_s".into(), ctx.spans.total_s("data.generate"));
        l.insert(
            "teacher.pretrain_s".into(),
            ctx.spans.total_s("teacher.pretrain"),
        );
        l.insert("nn.freeze_ms".into(), freeze_s * 1e3);
        l.insert("infer.warmup_s".into(), ctx.spans.total_s("infer.warmup"));
        l.insert("infer.forward_b1_us".into(), b1);
        l.insert("infer.forward_b16_us".into(), b16);
        ctx.window_breakdown();
        ctx.program_layers(&program);
    }
}
