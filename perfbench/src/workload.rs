//! The benchmark's workloads and one pass over a workload.
//!
//! A pass runs every case of a workload through the same public calls that
//! `tpl_harness::flows` makes — generate, global-route, detailed-route (or
//! route + decompose), score — and then checks the result from outside:
//! colour conflicts and stitches are recounted from the returned
//! `ColoredLayout`, and every net must connect all of its pins.  With a
//! [`Tracer`] enabled, each of those calls is timed as one span tagged with
//! the case index; the program itself is never instrumented.

use mrtpl_core::{MrTplConfig, MrTplRouter};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use tpl_color::ColoredLayout;
use tpl_dac12::{Dac12Config, Dac12Router};
use tpl_decompose::{DecomposeConfig, Decomposer};
use tpl_design::{Design, NetId, RouteGuides, RoutingSolution};
use tpl_drcu::{DrCuConfig, DrCuRouter};
use tpl_global::{GlobalConfig, GlobalRouter};
use tpl_grid::Outcome;
use tpl_ispd::{score_solution, CaseParams, ScoreWeights, Suite};
use tpl_par::Parallelism;

/// The seed that keeps every case's canonical `CaseParams` seed.
pub const DEFAULT_SEED: u64 = 0;

/// Which flow a workload routes its cases with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Flow {
    /// Mr.TPL with `net_jobs` workers per case.
    MrTpl { net_jobs: usize },
    /// The DAC'12 TPL-aware router.
    Dac12,
    /// The colour-blind Dr.CU-like router followed by decomposition.
    Decompose,
}

impl Flow {
    /// The method name the committed `BENCH_*.json` records use.
    pub fn method(self) -> &'static str {
        match self {
            Flow::MrTpl { .. } => "mrtpl",
            Flow::Dac12 => "dac12",
            Flow::Decompose => "decompose",
        }
    }

    fn net_jobs(self) -> usize {
        match self {
            Flow::MrTpl { net_jobs } => net_jobs,
            Flow::Dac12 | Flow::Decompose => 1,
        }
    }
}

/// One benchmark workload: a flow over a fixed list of suite cases.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub suite: Suite,
    pub cases: &'static [usize],
    pub scale: f64,
    pub flow: Flow,
    /// The committed `BENCH_*.json` counter baselines hold this workload's
    /// records, so its per-case counters must equal them.
    pub self_check: bool,
}

/// Every workload, in the order `--workload all` runs them.  Why each one is
/// here is recorded in `BENCHMARK.json`.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mrtpl_ispd18",
        suite: Suite::Ispd18,
        cases: &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        scale: 0.5,
        flow: Flow::MrTpl { net_jobs: 1 },
        self_check: true,
    },
    Workload {
        name: "mrtpl_ispd19_par",
        suite: Suite::Ispd19,
        cases: &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        scale: 0.5,
        flow: Flow::MrTpl { net_jobs: 2 },
        self_check: false,
    },
    Workload {
        name: "dac12_ispd18",
        suite: Suite::Ispd18,
        cases: &[1, 2, 3, 4, 5, 6],
        scale: 0.5,
        flow: Flow::Dac12,
        self_check: true,
    },
    Workload {
        name: "decompose_ispd19",
        suite: Suite::Ispd19,
        cases: &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        scale: 1.0,
        flow: Flow::Decompose,
        self_check: false,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The workload's cases in the order a pass under `seed` visits them.
    ///
    /// Every case keeps its canonical `CaseParams` seed, so every seed runs
    /// the same designs and must reproduce the same quality; the seed only
    /// permutes the order of the cases, and [`DEFAULT_SEED`] keeps the suite
    /// order.  (Remapping each case's own seed instead changes the work and
    /// the conflict totals between seeds far more than any bound on them.)
    pub fn case_params(&self, seed: u64) -> Vec<CaseParams> {
        let mut params: Vec<CaseParams> = self
            .cases
            .iter()
            .map(|&idx| self.suite.case(idx).scaled(self.scale))
            .collect();
        if seed != DEFAULT_SEED {
            let mut state = seed;
            for i in (1..params.len()).rev() {
                state = splitmix64(state);
                params.swap(i, (state % (i as u64 + 1)) as usize);
            }
        }
        params
    }

    /// The global-router configuration of every case of this workload.
    pub fn global_config(&self) -> GlobalConfig {
        GlobalConfig {
            parallelism: Parallelism::new(self.flow.net_jobs()),
            ..GlobalConfig::default()
        }
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One timed layer call of a traced pass.
#[derive(Debug)]
pub struct Span {
    /// Layer metric prefix, e.g. `mrtpl.route` (reported as `mrtpl.route_s`).
    pub name: &'static str,
    /// Index of the case within the workload; spans of one case share it.
    pub case: usize,
    pub seconds: f64,
}

/// Records a [`Span`] around each layer call when enabled; when disabled it
/// reads no clock and records nothing.
///
/// Layer calls do not nest, so each span's duration is its self time.  A
/// span is stored only when its call returns, so a panicking call leaves
/// no open span behind.
#[derive(Debug)]
pub struct Tracer {
    spans: Option<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            spans: enabled.then(Vec::new),
        }
    }

    fn time<T>(&mut self, name: &'static str, case: usize, f: impl FnOnce() -> T) -> T {
        let Some(spans) = self.spans.as_mut() else {
            return f();
        };
        let start = Instant::now();
        let out = f();
        spans.push(Span {
            name,
            case,
            seconds: start.elapsed().as_secs_f64(),
        });
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }
}

/// The deterministic quality of one routed case, recounted by the benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct Quality {
    pub conflicts: usize,
    pub stitches: usize,
    pub wirelength: i64,
    pub vias: usize,
    pub cost: f64,
    /// Mr.TPL's search-node count; 0 for the other flows, which report none.
    pub search_nodes: usize,
}

/// What one (method, case) operation produced.
#[derive(Debug)]
pub struct CaseResult {
    pub name: String,
    /// Wall-clock seconds of the whole operation, checks included.
    pub seconds: f64,
    /// `None` when the operation panicked.
    pub quality: Option<Quality>,
    /// Every check the operation failed; empty when it passed.
    pub problems: Vec<String>,
    /// Exact work counts the layer calls returned, by per-layer metric name.
    pub counts: BTreeMap<&'static str, f64>,
}

impl CaseResult {
    pub fn ok(&self) -> bool {
        self.quality.is_some() && self.problems.is_empty()
    }
}

/// One pass over a workload.
#[derive(Debug)]
pub struct Pass {
    pub cases: Vec<CaseResult>,
}

impl Pass {
    /// Wall-clock seconds of all case operations, back to back.
    pub fn wall_s(&self) -> f64 {
        crate::sum(self.cases.iter().map(|c| c.seconds))
    }
}

/// Runs every case of the workload once.
pub fn run_pass(workload: &Workload, params: &[CaseParams], tracer: &mut Tracer) -> Pass {
    let global = workload.global_config();
    let mut cases = Vec::with_capacity(params.len());
    for (case, p) in params.iter().enumerate() {
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_case(workload.flow, &global, p, case, tracer)
        }));
        let seconds = start.elapsed().as_secs_f64();
        let mut result = outcome.unwrap_or_else(|_| CaseResult {
            name: p.name.clone(),
            seconds: 0.0,
            quality: None,
            problems: vec!["panicked".to_string()],
            counts: BTreeMap::new(),
        });
        result.seconds = seconds;
        cases.push(result);
    }
    Pass { cases }
}

/// A detailed-routing result with the parts every flow shares.
struct Routed {
    solution: RoutingSolution,
    layout: ColoredLayout,
    conflicts: usize,
    stitches: usize,
    search_nodes: usize,
    outcome: Outcome,
}

fn run_case(
    flow: Flow,
    global: &GlobalConfig,
    params: &CaseParams,
    case: usize,
    tracer: &mut Tracer,
) -> CaseResult {
    let mut counts = BTreeMap::new();
    let mut count = |name: &'static str, value: usize| {
        *counts.entry(name).or_insert(0.0) += value as f64;
    };

    let design = tracer.time("ispd.generate", case, || params.generate());
    count("ispd.nets", design.nets().len());
    count("ispd.pins", design.pins().len());

    let (guides, gstats) = tracer.time("global.route", case, || {
        GlobalRouter::new(*global).route_with_stats(&design)
    });
    count("global.search_nodes", gstats.search_nodes);
    count("global.pattern_routed", gstats.pattern_routed);
    count("global.maze_routed", gstats.maze_routed);
    count("global.overflowed_edges", gstats.overflowed_edges);

    let routed = match flow {
        Flow::MrTpl { net_jobs } => {
            let r = tracer.time("mrtpl.route", case, || {
                route_mrtpl(&design, &guides, net_jobs)
            });
            let s = &r.stats;
            count("mrtpl.search_nodes", s.search_nodes);
            count("mrtpl.rrr_iterations", s.rrr_iterations);
            count("mrtpl.seg_sets", s.seg_sets);
            count("mrtpl.failed_nets", s.failed_nets);
            count(
                "mrtpl.first_pass_conflicts",
                s.conflict_history.first().copied().unwrap_or(s.conflicts),
            );
            Routed {
                conflicts: s.conflicts,
                stitches: s.stitches,
                search_nodes: s.search_nodes,
                outcome: s.outcome,
                solution: r.solution,
                layout: r.layout,
            }
        }
        Flow::Dac12 => {
            let r = tracer.time("dac12.route", case, || {
                Dac12Router::new(Dac12Config::default()).route(&design, &guides)
            });
            let s = &r.stats;
            count("dac12.two_pin_connections", s.two_pin_connections);
            count("dac12.rrr_iterations", s.rrr_iterations);
            count("dac12.failed_nets", s.failed_nets);
            Routed {
                conflicts: s.conflicts,
                stitches: s.stitches,
                search_nodes: 0,
                outcome: Outcome::Complete,
                solution: r.solution,
                layout: r.layout,
            }
        }
        Flow::Decompose => {
            let r = tracer.time("drcu.route", case, || {
                DrCuRouter::new(DrCuConfig::default()).route(&design, &guides)
            });
            count("drcu.rrr_iterations", r.stats.rrr_iterations);
            count("drcu.remaining_overlaps", r.stats.remaining_overlaps);
            count("drcu.failed_nets", r.stats.failed_nets);
            let d = tracer.time("decompose.decompose", case, || {
                Decomposer::new(DecomposeConfig::default()).decompose(&design, &r.solution)
            });
            let s = &d.stats;
            count("decompose.features", s.features);
            count("decompose.edges", s.edges);
            count("decompose.components", s.components);
            count("decompose.uncolored_features", s.uncolored_features);
            Routed {
                conflicts: s.conflicts,
                stitches: s.stitches,
                search_nodes: 0,
                outcome: Outcome::Complete,
                solution: r.solution,
                layout: d.layout,
            }
        }
    };

    let cost = tracer.time("ispd.score", case, || {
        score_solution(&design, &guides, &routed.solution, &ScoreWeights::default()).total()
    });
    let (conflicts, stitches) = tracer.time("color.recount", case, || {
        (
            routed.layout.count_conflicts(),
            routed.layout.count_stitches(),
        )
    });
    count("color.features", routed.layout.features().len());
    let opens = tracer.time("design.check", case, || {
        count_opens(&design, &routed.solution)
    });
    count("design.opens", opens);

    let mut problems = Vec::new();
    if conflicts != routed.conflicts {
        problems.push(format!(
            "recounted {conflicts} conflicts, router reported {}",
            routed.conflicts
        ));
    }
    if stitches != routed.stitches {
        problems.push(format!(
            "recounted {stitches} stitches, router reported {}",
            routed.stitches
        ));
    }
    if opens != 0 {
        problems.push(format!("{opens} nets do not connect all their pins"));
    }
    if routed.outcome != Outcome::Complete {
        problems.push(format!("outcome {:?}", routed.outcome));
    }

    CaseResult {
        name: params.name.clone(),
        seconds: 0.0,
        quality: Some(Quality {
            conflicts,
            stitches,
            wirelength: routed.solution.total_wirelength(),
            vias: routed.solution.total_vias(),
            cost,
            search_nodes: routed.search_nodes,
        }),
        problems,
        counts,
    }
}

/// Routes one case with Mr.TPL on `net_jobs` workers.
pub fn route_mrtpl(
    design: &Design,
    guides: &RouteGuides,
    net_jobs: usize,
) -> mrtpl_core::MrTplResult {
    let config = MrTplConfig {
        parallelism: Parallelism::new(net_jobs),
        ..MrTplConfig::default()
    };
    MrTplRouter::new(config).route(design, guides)
}

/// Number of nets whose routed geometry is missing or leaves a pin open.
fn count_opens(design: &Design, solution: &RoutingSolution) -> usize {
    (0..design.nets().len())
        .map(NetId::from)
        .filter(|&net| {
            !solution
                .get(net)
                .is_some_and(|routed| routed.connects_all_pins(design, net))
        })
        .count()
}
