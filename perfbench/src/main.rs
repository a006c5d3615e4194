//! `perfbench`: runs one phase of one benchmark workload per process.
//!
//! ```text
//! perfbench <phase> --workload <name> --seed <n> [--reps <k>] [--out <dir>]
//! ```
//!
//! * `setup`: provision the workload (cluster, fabric, kernels, parameters)
//!   `--reps` times and print the CPU time of every set-up.
//! * `dark`: provision once and run once on GFlink with observability off;
//!   print the run's CPU and wall time, allocations, peak RSS and every
//!   simulated value.
//! * `traced`: the same run with tracing and metrics on, plus the Flink
//!   baseline run, the digests and both exports, each inside a span the
//!   benchmark records itself.
//! * `baseline`: the same inputs on the Flink CPU engine.
//! * `ladder`: the sustained-rate ladder (`nexmark-mix` only).
//!
//! Each phase that times work first times a few units of reference work
//! (`calib`), so that its CPU times can be scaled to a reference host
//! speed. Each phase runs in its own process so that one phase's memory
//! never reaches another's peak RSS. `perfbench/run.py` orchestrates the phases,
//! checks correctness and prints the metrics. The last line of standard
//! output is one JSON object.

mod calib;
mod probe;
mod workload;

use probe::{allocs, cpu_s, peak_rss_mb, CountingAlloc, Spans};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{ladder, Digests, Fields, Measured, Prepared, Workload};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A flat JSON object, written key by key.
struct Obj(String);

impl Obj {
    fn new() -> Obj {
        Obj(String::from("{"))
    }

    fn key(&mut self, k: &str) -> &mut String {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        let _ = write!(self.0, "\"{k}\":");
        &mut self.0
    }

    fn num(&mut self, k: &str, v: f64) -> &mut Obj {
        let out = self.key(k);
        if v.is_finite() {
            let _ = write!(out, "{v}");
        } else {
            out.push_str("null");
        }
        self
    }

    fn raw(&mut self, k: &str, json: &str) -> &mut Obj {
        self.key(k).push_str(json);
        self
    }

    fn fields(&mut self, k: &str, fields: &Fields) -> &mut Obj {
        let mut o = Obj::new();
        for (name, v) in fields {
            o.num(name, *v);
        }
        self.raw(k, &o.finish())
    }

    fn digests(&mut self, k: &str, digests: &Digests) -> &mut Obj {
        let mut o = Obj::new();
        for (name, d) in digests {
            o.raw(name, &format!("\"{d:016x}\""));
        }
        self.raw(k, &o.finish())
    }

    fn measured(&mut self, m: &Measured) -> &mut Obj {
        self.num("completed", m.completed as f64)
            .num("failed", m.failed as f64)
            .fields("sim", &m.sim)
            .digests("digests", &m.digests)
    }

    fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

struct Args {
    phase: String,
    workload: Workload,
    seed: u64,
    reps: usize,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let phase = it.next().ok_or("missing phase")?;
    let (mut workload, mut seed, mut reps, mut out) = (None, None, 1usize, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--reps" => reps = value.parse().map_err(|_| format!("bad reps {value}"))?,
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        phase,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        reps: reps.max(1),
        out: out.unwrap_or_else(|| PathBuf::from(".")),
    })
}

/// Reference-work samples taken at the start of each timing phase, while
/// no part of the system under test exists yet (see `calib`).
const CALIB_REPS: usize = 5;

fn list_json(samples: &[f64]) -> String {
    let list: Vec<String> = samples.iter().map(f64::to_string).collect();
    format!("[{}]", list.join(","))
}

/// Provision `reps` times and print the CPU time of each set-up, which
/// covers cluster and fabric construction, kernel registration and the
/// workload's parameters.
fn phase_setup(a: &Args) -> String {
    let host = calib::samples(CALIB_REPS);
    let mut samples = Vec::with_capacity(a.reps);
    for _ in 0..a.reps {
        let t = cpu_s();
        let mut p = Prepared::build(a.workload, a.seed);
        p.register_kernels();
        samples.push(cpu_s() - t);
        drop(black_box(p));
    }
    let mut o = Obj::new();
    o.raw("setup_cpu_s", &list_json(&samples))
        .raw("calib_s", &list_json(&host));
    o.finish()
}

/// One GFlink run with observability dark.
fn phase_dark(a: &Args) -> String {
    let host = calib::samples(CALIB_REPS);
    let mut p = Prepared::build(a.workload, a.seed);
    p.register_kernels();
    let before = allocs();
    let cpu = cpu_s();
    let t = Instant::now();
    let ran = black_box(p.run());
    let wall = t.elapsed().as_secs_f64();
    let cpu = cpu_s() - cpu;
    let allocations = allocs() - before;
    let m = p.measure(&ran);
    let mut o = Obj::new();
    o.num("wall_s", wall)
        .num("cpu_s", cpu)
        .raw("calib_s", &list_json(&host))
        .num("allocs", allocations as f64)
        .num("peak_rss_mb", peak_rss_mb())
        .measured(&m);
    o.finish()
}

/// One GFlink run with tracing and metrics on, inside benchmark spans.
fn phase_traced(a: &Args) -> String {
    let host = calib::samples(CALIB_REPS);
    let mut spans = Spans::new();
    let mut o = Obj::new();
    spans.time("traced_run", |s| {
        let mut p = s.time("build_cluster_and_fabric", |_| {
            Prepared::build(a.workload, a.seed)
        });
        s.time("register_kernels", |_| p.register_kernels());
        let (base_s, base_digests) = s.time("flink_baseline_run", |_| {
            Prepared::build(a.workload, a.seed).run_baseline()
        });
        let (tracer, metrics) = s.time("enable_observability", |_| {
            let fabric = p.fabric();
            fabric.set_postmortem_dir(a.out.join("postmortem"));
            (fabric.enable_tracing(), fabric.enable_metrics())
        });
        let ran = s.time("gflink_run", |_| p.run());
        let m = s.time("digests", |_| p.measure(&ran));
        let trace_bytes = s.time("trace_export", |_| {
            black_box(tracer.export_chrome_json()).len()
        });
        let metrics_bytes = s.time("metrics_export", |_| black_box(metrics.export_json()).len());
        let lanes = tracer.profile().total();
        o.num("cpu_s", s.cpu_seconds("gflink_run"))
            .num("baseline_cpu_s", s.cpu_seconds("flink_baseline_run"))
            .num("baseline_sim_job_s", base_s)
            .digests("baseline_digests", &base_digests)
            .num("trace_events", tracer.len() as f64)
            .num("trace_dropped", tracer.dropped() as f64)
            .num("trace_bytes", trace_bytes as f64)
            .num("metrics_bytes", metrics_bytes as f64)
            .num("trace_h2d_busy_s", lanes.h2d_busy.as_secs_f64())
            .num("trace_d2h_busy_s", lanes.d2h_busy.as_secs_f64())
            .measured(&m);
    });
    o.num("trace_export_cpu_s", spans.cpu_seconds("trace_export"))
        .num("metrics_export_cpu_s", spans.cpu_seconds("metrics_export"))
        .raw("calib_s", &list_json(&host))
        .num("peak_rss_mb", peak_rss_mb())
        .raw("spans", &spans.to_json());
    o.finish()
}

/// The same inputs on the Flink CPU engine.
fn phase_baseline(a: &Args) -> String {
    let t = Instant::now();
    let (sim_s, digests) = Prepared::build(a.workload, a.seed).run_baseline();
    let wall = t.elapsed().as_secs_f64();
    let mut o = Obj::new();
    o.num("wall_s", wall)
        .num("sim_job_s", sim_s)
        .digests("digests", &digests);
    o.finish()
}

/// The sustained-rate ladder.
fn phase_ladder(a: &Args) -> Result<String, String> {
    if a.workload != Workload::NexmarkMix {
        return Err("the ladder applies to nexmark-mix only".into());
    }
    let rungs = ladder(a.seed);
    let sustained = rungs
        .iter()
        .take_while(|r| r.healthy)
        .last()
        .map_or(0.0, |r| r.events_per_sec);
    let list: Vec<String> = rungs
        .iter()
        .map(|r| {
            let mut o = Obj::new();
            o.num("events_per_sec", r.events_per_sec)
                .raw("healthy", if r.healthy { "true" } else { "false" })
                .num("lost", r.lost as f64)
                .num("emit_p99_ms", r.emit_p99_ms)
                .num("last_over_mean", r.last_over_mean);
            o.finish()
        })
        .collect();
    let mut o = Obj::new();
    o.num("sim_sustained_eps", sustained)
        .raw("rungs", &format!("[{}]", list.join(",")));
    Ok(o.finish())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|a| match a.phase.as_str() {
        "setup" => Ok(phase_setup(&a)),
        "dark" => Ok(phase_dark(&a)),
        "traced" => Ok(phase_traced(&a)),
        "baseline" => Ok(phase_baseline(&a)),
        "ladder" => phase_ladder(&a),
        other => Err(format!("unknown phase {other}")),
    });
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench <setup|dark|traced|baseline|ladder> --workload <name> \
                 --seed <n> [--reps <k>] [--out <dir>]"
            );
            ExitCode::from(2)
        }
    }
}
