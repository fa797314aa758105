//! One benchmark process: runs one workload of the CAE-DFKD workspace
//! through its public functions and prints one JSON line of results.
//!
//! ```text
//! perfbench --workload <distill|serve|table02> --seed <n> --seconds <s>
//!           [--setup-only] [--out <dir>]
//! ```
//!
//! `--setup-only` stops after set-up and reports only its time (`run.py`
//! starts several such processes to take a median).
//! With `CAE_TRACE=1` in the environment (the program's own tracing switch)
//! the process also records the benchmark's spans, written to
//! `<dir>/spans.jsonl`, and reads the program's trace aggregates.

mod distill;
mod serve;
mod spans;
mod table02;

use spans::Spans;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Everything a workload reports back.
#[derive(Default)]
pub struct Outcome {
    /// Process start to the first timed operation, less the time spent on
    /// checks made before the window.
    pub setup_s: f64,
    /// The timed window.
    pub window_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    /// End-to-end metrics other than set-up time and memory.
    pub metrics: BTreeMap<String, f64>,
    /// Per-layer metrics (traced runs).
    pub layers: BTreeMap<String, f64>,
    /// Digest of an output that must not depend on tracing.
    pub digest: u64,
}

/// The state one workload runs with.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setup_only: bool,
    start: Instant,
    /// Time spent on checks before the window; not part of set-up.
    excluded: Duration,
    pub spans: Spans,
    /// The program's trace aggregates drained at the end of set-up.
    pub setup_trace: cae_trace::Trace,
    pub out: Outcome,
}

impl Ctx {
    /// Records a check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.out.checks.push((name.to_owned(), ok, detail));
    }

    /// Runs `f` as a check made before the window: its time is taken out
    /// of set-up time.
    pub fn pre_window_check<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let value = f();
        self.excluded += t.elapsed();
        value
    }

    /// Marks the end of set-up. Returns true when the run stops here.
    pub fn end_setup(&mut self) -> bool {
        self.out.setup_s = (self.start.elapsed() - self.excluded).as_secs_f64();
        if self.trace {
            self.setup_trace = cae_trace::drain();
        }
        self.setup_only
    }

    /// Seed for one named use, derived from the run's seed.
    pub fn derive(&self, salt: u64) -> u64 {
        splitmix(self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Per-layer metrics for the window: the benchmark's spans directly
    /// inside it, by name, plus the residual; together they sum to the
    /// window.
    pub fn window_breakdown(&mut self) {
        let Some(id) = self.spans.id_of("window") else {
            return;
        };
        let window = self.spans.total_s("window");
        let mut covered = 0.0;
        for (name, secs) in self.spans.children_of(id) {
            covered += secs;
            self.out.layers.insert(format!("window.{name}_s"), secs);
        }
        self.out
            .layers
            .insert("window.residual_s".into(), window - covered);
        self.out.layers.insert("window_s".into(), window);
    }

    /// Adds the program's trace aggregates as per-layer metrics: set-up
    /// plus window for caches, tuner, workspace and pool; the window alone
    /// for the compute layers.
    pub fn program_layers(&mut self, window: &cae_trace::Trace) {
        let both = |name: &str| -> f64 {
            (self.setup_trace.counters.get(name).copied().unwrap_or(0)
                + window.counters.get(name).copied().unwrap_or(0)) as f64
        };
        let l = &mut self.out.layers;
        for name in [
            "teacher.cache_misses",
            "teacher.cache_hits",
            "autotune.measured",
            "autotune.winners",
            "workspace.allocs",
            "workspace.reuses",
            "pool.jobs",
            "pool.inline_jobs",
        ] {
            l.insert(name.to_owned(), both(name));
        }
        let counter = |name: &str| window.counters.get(name).copied().unwrap_or(0) as f64;
        let stat = |name: &str| window.span_stats.get(name).copied().unwrap_or_default();
        let secs = |name: &str| stat(name).total_ns as f64 * 1e-9;
        let mean_ms = |name: &str| {
            let s = stat(name);
            if s.count == 0 {
                0.0
            } else {
                s.total_ns as f64 * 1e-6 / s.count as f64
            }
        };
        let gemm_s = secs("gemm");
        l.insert("gemm.calls".into(), counter("gemm.calls"));
        l.insert("gemm.flops".into(), counter("gemm.flops"));
        l.insert("gemm.busy_s".into(), gemm_s);
        l.insert(
            "gemm.gflops".into(),
            if gemm_s > 0.0 {
                counter("gemm.flops") / gemm_s * 1e-9
            } else {
                0.0
            },
        );
        l.insert("conv.im2col.calls".into(), stat("conv.im2col").count as f64);
        l.insert("conv.im2col.busy_s".into(), secs("conv.im2col"));
        l.insert("conv.epilogue.busy_s".into(), secs("conv.epilogue"));
        l.insert("infer.calls".into(), counter("infer.calls"));
        l.insert("infer.forward_s".into(), secs("infer.forward"));
        l.insert(
            "memory.pushed_images".into(),
            counter("memory.pushed_images"),
        );
        l.insert(
            "trainer.generator_step_ms".into(),
            mean_ms("trainer.generator_step"),
        );
        l.insert(
            "trainer.student_step_ms".into(),
            mean_ms("trainer.student_step"),
        );
        l.insert("trainer.cncl_loss_s".into(), secs("trainer.cncl_loss"));
        l.insert(
            "trainer.memory_replay_s".into(),
            secs("trainer.memory_replay"),
        );
        l.insert("trainer.inversion_s".into(), secs("trainer.inversion"));
        l.insert("pipeline.evaluate_s".into(), secs("pipeline.evaluate"));
        l.insert(
            "scheduler.cells".into(),
            stat("scheduler.cell").count as f64,
        );
        l.insert("scheduler.cell_s".into(), secs("scheduler.cell"));
        let pool = cae_tensor::pool::max_parallelism().max(1) as f64;
        let busy = if self.out.window_s > 0.0 {
            secs("scheduler.cell") / (self.out.window_s * pool)
        } else {
            0.0
        };
        l.insert("scheduler.busy_share".into(), busy);
    }
}

/// SplitMix64 finaliser: decorrelates derived seeds.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over `bytes`, folded into `h`.
pub fn fnv(mut h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The bytes of `values`' bit patterns, for [`fnv`].
pub fn f32_bytes(values: &[f32]) -> impl Iterator<Item = u8> + '_ {
    values.iter().flat_map(|v| v.to_bits().to_le_bytes())
}

/// FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Top-1 agreement of two logit tensors' row argmaxes.
pub fn agreement(a: &[usize], b: &[usize]) -> f64 {
    let same = a.iter().zip(b).filter(|(x, y)| x == y).count();
    same as f64 / a.len().max(1) as f64
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    setup_only: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        setup_only: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--out" => args.out = Some(value()?),
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let trace = cae_trace::enabled();
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace,
        setup_only: args.setup_only,
        start,
        excluded: Duration::ZERO,
        spans: Spans::new(start, trace),
        setup_trace: cae_trace::Trace::default(),
        out: Outcome::default(),
    };
    match args.workload.as_str() {
        "distill" => distill::run(&mut ctx),
        "serve" => serve::run(&mut ctx),
        "table02" => table02::run(&mut ctx),
        other => {
            eprintln!("perfbench: unknown workload '{other}' (distill, serve, table02)");
            std::process::exit(2);
        }
    }
    if let (true, Some(dir)) = (trace, &args.out) {
        let path = std::path::Path::new(dir).join("spans.jsonl");
        if let Err(e) = std::fs::write(&path, ctx.spans.to_jsonl()) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    println!("{}", to_json(&ctx.out));
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_map(m: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_num(*v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn to_json(o: &Outcome) -> String {
    let checks: Vec<String> = o
        .checks
        .iter()
        .map(|(n, ok, d)| format!("[{},{},{}]", json_str(n), ok, json_str(d)))
        .collect();
    format!(
        "{{\"setup_s\":{},\"window_s\":{},\"attempted\":{},\"failed\":{},\"checks\":[{}],\"metrics\":{},\"layers\":{},\"digest\":\"{:016x}\"}}",
        json_num(o.setup_s),
        json_num(o.window_s),
        o.attempted,
        o.failed,
        checks.join(","),
        json_map(&o.metrics),
        json_map(&o.layers),
        o.digest
    )
}
