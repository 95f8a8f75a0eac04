//! End-to-end and per-layer benchmark of the four TPL routing flows.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One run repeats whole passes over the workload for `--seconds`, each after
//! a few set-ups (case generation plus global routing; `setup_s` is their
//! median).  `wall_s` sums each case's median time over the passes.  Every
//! pass checks its outputs; the deterministic quality totals must repeat in
//! every pass.  `--trace 1` alternates untraced and traced passes and
//! reports the per-layer metrics instead.  The last line of standard output
//! is one JSON object; the exit code is non-zero when any check failed.
//!
//! Every seed runs the same canonical cases; `--seed` only permutes the
//! order a pass visits them in (see [`Workload::case_params`]).
//!
//! `--workload all` runs every workload in a child process of its own, so
//! the peak resident set of one workload never shows under another.

mod baseline;
mod workload;

use baseline::Baseline;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use tpl_global::GlobalRouter;
use tpl_harness::json::JsonValue;
use tpl_ispd::CaseParams;
use workload::{route_mrtpl, run_pass, Flow, Pass, Tracer, Workload, DEFAULT_SEED, WORKLOADS};

/// Set-ups before each untraced pass; `setup_s` is the median of all of them.
/// Spreading them over the run keeps a short slow phase of the machine from
/// setting the median.
const SETUP_REPS: usize = 17;

/// Layer calls timed by the traced run, in the order a case makes them.
const LAYERS: [&str; 9] = [
    "ispd.generate",
    "global.route",
    "mrtpl.route",
    "dac12.route",
    "drcu.route",
    "decompose.decompose",
    "ispd.score",
    "color.recount",
    "design.check",
];

/// Exact work counts the traced run reports, summed over the cases.
const COUNTS: [&str; 23] = [
    "ispd.nets",
    "ispd.pins",
    "global.search_nodes",
    "global.pattern_routed",
    "global.maze_routed",
    "global.overflowed_edges",
    "mrtpl.search_nodes",
    "mrtpl.rrr_iterations",
    "mrtpl.seg_sets",
    "mrtpl.failed_nets",
    "mrtpl.first_pass_conflicts",
    "dac12.two_pin_connections",
    "dac12.rrr_iterations",
    "dac12.failed_nets",
    "drcu.rrr_iterations",
    "drcu.remaining_overlaps",
    "drcu.failed_nets",
    "decompose.features",
    "decompose.edges",
    "decompose.components",
    "decompose.uncolored_features",
    "color.features",
    "design.opens",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && Workload::find(&args.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of all, {} (got {:?})",
            names.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tpl-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        run_workload(
            Workload::find(&args.workload).expect("workload name checked"),
            &args,
        )
    };
    match result {
        Ok(report) => {
            for (name, (value, unit)) in &report.metrics {
                println!("{name:<34} {value:>16.6} {unit}");
            }
            println!("{}", report.to_json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("tpl-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What one run prints.
struct Report {
    attempted: usize,
    failed: usize,
    /// Set when a check outside the per-operation ones failed.
    broken: bool,
    metrics: BTreeMap<String, (f64, String)>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && !self.broken
    }

    fn put(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.metrics.insert(name.into(), (value, unit.to_string()));
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Sums `values`; unlike `Iterator::sum`, an empty sum is `+0.0`, not `-0.0`.
fn sum(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |a, b| a + b)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The workload's wall-clock seconds: the sum over its cases of each case's
/// median time across `passes`.  Per-case medians drop a slow stretch of the
/// machine that hits one case of a pass, where a median of pass totals
/// would keep it when it hits different cases of most passes.
fn workload_wall_s<'a>(passes: impl Iterator<Item = &'a Pass>) -> f64 {
    let passes: Vec<&Pass> = passes.collect();
    let cases = passes.first().map_or(0, |p| p.cases.len());
    sum((0..cases).map(|i| {
        median(
            &passes
                .iter()
                .map(|p| p.cases[i].seconds)
                .collect::<Vec<_>>(),
        )
    }))
}

/// Seconds to generate and global-route every case once.
fn setup_once(workload: &Workload, params: &[CaseParams]) -> f64 {
    let router = GlobalRouter::new(workload.global_config());
    let start = Instant::now();
    for p in params {
        let design = p.generate();
        black_box(router.route_with_stats(&design));
    }
    start.elapsed().as_secs_f64()
}

/// Resets this process's peak resident set (`VmHWM`) to its current one.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting VmHWM through /proc/self/clear_refs: {e}"))
}

/// Peak resident set of this process since the last reset, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Seconds Mr.TPL takes on every case at `net_jobs = 1`, outside any pass;
/// each result must equal the pass's `net_jobs = 2` result.
fn jobs1_route_s(workload: &Workload, params: &[CaseParams], pass: &mut Pass) -> f64 {
    let router = GlobalRouter::new(workload.global_config());
    let mut seconds = 0.0;
    for (p, case) in params.iter().zip(&mut pass.cases) {
        let Some(q) = &case.quality else { continue };
        let design = p.generate();
        let (guides, _) = router.route_with_stats(&design);
        let start = Instant::now();
        let r = route_mrtpl(&design, &guides, 1);
        seconds += start.elapsed().as_secs_f64();
        let same = (r.stats.conflicts, r.stats.stitches, r.stats.search_nodes)
            == (q.conflicts, q.stitches, q.search_nodes)
            && (r.solution.total_wirelength(), r.solution.total_vias()) == (q.wirelength, q.vias);
        if !same {
            case.problems
                .push("net_jobs = 1 result differs from net_jobs = 2".to_string());
        }
    }
    seconds
}

fn run_workload(workload: &Workload, args: &Args) -> Result<Report, String> {
    let params = workload.case_params(args.seed);
    let baseline = if workload.self_check {
        Some(Baseline::load(std::path::Path::new("."), workload)?)
    } else {
        None
    };

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut setups: Vec<f64> = Vec::new();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    loop {
        setups.extend((0..SETUP_REPS).map(|_| setup_once(workload, &params)));
        reset_peak_rss()?;
        untraced.push(run_pass(workload, &params, &mut Tracer::new(false)));
        peaks.push(peak_rss_mb()?);
        if args.trace {
            let mut tracer = Tracer::new(true);
            let mut pass = run_pass(workload, &params, &mut tracer);
            let jobs1_route_s = match workload.flow {
                Flow::MrTpl { net_jobs } if net_jobs > 1 => {
                    jobs1_route_s(workload, &params, &mut pass)
                }
                _ => 0.0,
            };
            traced.push(TracedPass {
                pass,
                tracer,
                jobs1_route_s,
            });
        }
        if start.elapsed() >= budget {
            break;
        }
    }

    // Every pass must reproduce the first one's quality, case by case.
    let first: Vec<_> = untraced[0]
        .cases
        .iter()
        .map(|c| c.quality.clone())
        .collect();
    let all_passes = untraced
        .iter_mut()
        .chain(traced.iter_mut().map(|t| &mut t.pass));
    let mut report = Report {
        attempted: 0,
        failed: 0,
        broken: false,
        metrics: BTreeMap::new(),
    };
    for pass in all_passes {
        for (case, q) in pass.cases.iter_mut().zip(&first) {
            if case.quality != *q {
                case.problems
                    .push("quality differs from the first pass".to_string());
            }
            if let (Some(b), Some(q)) = (&baseline, &case.quality) {
                if let Some(m) = b.mismatch(workload.flow.method(), &case.name, q) {
                    case.problems.push(m);
                }
            }
            report.attempted += 1;
            if !case.ok() {
                report.failed += 1;
                for p in &case.problems {
                    eprintln!("{} {}: {p}", workload.name, case.name);
                }
            }
        }
    }
    if let Some(b) = &baseline {
        eprintln!(
            "{}: per-case counters checked against {}",
            workload.name, b.file
        );
    }

    let total = |f: fn(&workload::Quality) -> f64| -> f64 {
        sum(untraced[0]
            .cases
            .iter()
            .filter_map(|c| c.quality.as_ref())
            .map(f))
    };
    let conflicts = total(|q| q.conflicts as f64);
    let wall_s = workload_wall_s(untraced.iter());
    let totals: Vec<f64> = untraced.iter().map(|p| p.wall_s()).collect();
    eprintln!(
        "{}: {} untraced passes of {totals:.4?} s, peak {peaks:.2?} MiB; {} set-ups",
        workload.name,
        untraced.len(),
        setups.len()
    );
    if !args.trace {
        report.put("wall_s", wall_s, "s");
        report.put("setup_s", median(&setups), "s");
        report.put("peak_rss_mb", median(&peaks), "MiB");
        report.put("conflicts", conflicts, "count");
        report.put("stitches", total(|q| q.stitches as f64), "count");
        report.put("wirelength", total(|q| q.wirelength as f64), "dbu");
        report.put("vias", total(|q| q.vias as f64), "count");
        report.put("cost", total(|q| q.cost), "score");
        let ok = report.attempted - report.failed;
        report.put("ok_frac", ok as f64 / report.attempted as f64, "ratio");
        return Ok(report);
    }

    // Traced run: per-layer self times are medians over the traced passes,
    // counts come from the first traced pass (every pass repeats them).
    let median_of = |f: &dyn Fn(&TracedPass) -> f64| -> f64 {
        median(&traced.iter().map(f).collect::<Vec<_>>())
    };
    let count = |name: &str| -> f64 {
        sum(traced[0]
            .pass
            .cases
            .iter()
            .filter_map(|c| c.counts.get(name).copied()))
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    for layer in LAYERS {
        report.put(format!("{layer}_s"), median_of(&|t| t.layer_s(layer)), "s");
    }
    for name in COUNTS {
        report.put(name, count(name), "count");
    }
    let mrtpl_s = report.metrics["mrtpl.route_s"].0;
    let dac12_s = report.metrics["dac12.route_s"].0;
    report.put(
        "mrtpl.ns_per_node",
        ratio(mrtpl_s * 1e9, count("mrtpl.search_nodes")),
        "ns",
    );
    let first_pass = count("mrtpl.first_pass_conflicts");
    let fixed = if matches!(workload.flow, Flow::MrTpl { .. }) {
        first_pass - conflicts
    } else {
        0.0
    };
    report.put("mrtpl.rrr_fix_ratio", ratio(fixed, first_pass), "ratio");
    report.put(
        "par.net_jobs_speedup",
        median_of(&|t| ratio(t.jobs1_route_s, t.layer_s("mrtpl.route"))),
        "ratio",
    );
    report.put(
        "dac12.us_per_connection",
        ratio(dac12_s * 1e6, count("dac12.two_pin_connections")),
        "us",
    );
    let traced_wall_s = workload_wall_s(traced.iter().map(|t| &t.pass));
    report.put("trace.overhead_s", traced_wall_s - wall_s, "s");
    report.put(
        "bench.loop_s",
        median_of(&|t| t.pass.wall_s() - sum(t.tracer.spans().iter().map(|s| s.seconds))),
        "s",
    );
    traced[0].print_case_spans();
    Ok(report)
}

/// A traced pass with, on the `net_jobs > 1` workload, the seconds Mr.TPL
/// took to route the same cases at `net_jobs = 1`.
struct TracedPass {
    pass: Pass,
    tracer: Tracer,
    jobs1_route_s: f64,
}

impl TracedPass {
    /// Self time of one layer over every case.
    fn layer_s(&self, layer: &str) -> f64 {
        let spans = self.tracer.spans().iter();
        sum(spans.filter(|s| s.name == layer).map(|s| s.seconds))
    }

    /// Writes the spans to standard error, one row per case.
    fn print_case_spans(&self) {
        let spans = self.tracer.spans();
        let used: Vec<&str> = LAYERS
            .into_iter()
            .filter(|layer| spans.iter().any(|s| s.name == *layer))
            .collect();
        eprintln!("{:<26} {}", "case (layer self s)", used.join(" "));
        for (i, case) in self.pass.cases.iter().enumerate() {
            let row: Vec<String> = used
                .iter()
                .map(|layer| {
                    let of_case = spans.iter().filter(|s| s.case == i && s.name == *layer);
                    format!("{:>w$.4}", sum(of_case.map(|s| s.seconds)), w = layer.len())
                })
                .collect();
            eprintln!("{:<26} {}", case.name, row.join(" "));
        }
    }
}

/// Runs every workload in a child process and merges their reports, with
/// each metric named `<workload>.<metric>`.
fn run_all(args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut report = Report {
        attempted: 0,
        failed: 0,
        broken: false,
        metrics: BTreeMap::new(),
    };
    for w in &WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("running {}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let Ok(child) = JsonValue::parse(last) else {
            eprintln!("{}: no result ({})", w.name, out.status);
            report.broken = true;
            continue;
        };
        report.broken |= !out.status.success();
        let field = |key: &str| child.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0) as usize;
        report.attempted += field("attempted");
        report.failed += field("failed");
        if let Some(JsonValue::Object(metrics)) = child.get("metrics") {
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
                report.put(format!("{}.{name}", w.name), value, unit);
            }
        }
    }
    Ok(report)
}
