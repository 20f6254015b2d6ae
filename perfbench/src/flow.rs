//! The workloads: a closed ECO loop on one preset design, with batch
//! composes of the same design at fixed checkpoints.
//!
//! One run sets the workload up several times (library, design, session
//! open), then alternates a block of ECOs with a checkpoint. Each ECO is
//! one `apply` plus one `recompose` on the session, with one ECO in flight.
//! Each checkpoint composes the session's current design from scratch with
//! `Composer::compose` at one thread and checks the result byte for byte
//! against the session's composed design. The first checkpoint runs before
//! any ECO and is warm-up: it composes at one thread under full paranoia and
//! at `nproc` threads, checks both, and times neither. The last required
//! checkpoint composes at `nproc` threads once more, so every run checks
//! that both thread counts agree. Composes and ECOs interleave over the whole
//! run, so drift of the host hits every timing metric alike.
//!
//! Compose time at `nproc` threads is not an end-to-end metric: on a shared
//! 2-vCPU host its run-to-run spread (34 % over ten seeds of d3) exceeds any
//! bound the benchmark could hold it to. The traced run reports it as a
//! speed-up instead.
//!
//! The run lasts until the deadline has passed and the minimum sample
//! counts are met; the Table 1 metrics are measured once, after the last
//! ECO of the minimum count, so they depend on the seed alone.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mbr_bench::{library, model_for, save_pct};
use mbr_core::{
    ComposeOutcome, Composer, ComposerOptions, CompositionSession, DesignMetrics, Paranoia,
};
use mbr_cts::CtsConfig;
use mbr_liberty::Library;
use mbr_netlist::Design;
use mbr_obs::{with_sink, CounterTotals, FlowStage};
use mbr_place::CongestionConfig;
use mbr_sta::DelayModel;
use mbr_workloads::{eco_script_for, DesignSpec};

use crate::replay::replay;
use crate::stats::{ms_since, ns_to_ms, ratio, LayerSpans, Samples, Tally};

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    pub preset: fn() -> DesignSpec,
}

/// The workloads, by name.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "flow-d3",
        preset: mbr_workloads::d3,
    },
    Workload {
        name: "flow-d1",
        preset: mbr_workloads::d1,
    },
];

/// The end-to-end metrics a timed run reports, with their units.
pub const END_TO_END: [(&str, &str); 10] = [
    ("compose_1t_s", "s"),
    ("eco_p50_ms", "ms"),
    ("eco_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("regs_saved_pct", "%"),
    ("tns_ns", "ns"),
    ("clk_power_uw", "uW"),
    ("signal_wl_mm", "mm"),
    ("ovfl_edges", "count"),
];

/// The per-layer metrics a traced run reports, with their units.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("workloads.generate_ms", "ms"),
    ("sta.analyze_ms", "ms"),
    ("sta.full.seed_pins", "count"),
    ("sta.incremental.seed_pins", "count"),
    ("compat.build_ms", "ms"),
    ("core.compat.edges", "count"),
    ("core.session.compat_reused", "count"),
    ("candidates.enumerate_ms", "ms"),
    ("core.candidates.subsets_visited", "count"),
    ("core.candidates.enumerated", "count"),
    ("candidates.accept_ratio", "ratio"),
    ("lp.solve_ms", "ms"),
    ("lp.setpart.nodes_explored", "count"),
    ("lp.simplex.pivots", "count"),
    ("lp.restart_ratio", "ratio"),
    ("mapping.place_lp_ms", "ms"),
    ("mapping.merge_ms", "ms"),
    ("mapping.merges", "count"),
    ("place.legalize_ms", "ms"),
    ("place.legalize.gap_probes", "count"),
    ("place.legalize.rows_skipped", "count"),
    ("cts.skew_ms", "ms"),
    ("cts.skew.adjusted", "count"),
    ("cts.skew.sinks_skipped", "count"),
    ("sizing.downsize_ms", "ms"),
    ("sizing.resized", "count"),
    ("replay.unattributed_ms", "ms"),
    ("session.apply_ms", "ms"),
    ("session.recompose_ms", "ms"),
    ("session.stage.timing_ms", "ms"),
    ("session.stage.compat_ms", "ms"),
    ("session.stage.candidates_ms", "ms"),
    ("session.stage.assignment_ms", "ms"),
    ("session.stage.mapping_ms", "ms"),
    ("session.stage.legalization_ms", "ms"),
    ("session.stage.skew_ms", "ms"),
    ("session.stage.sizing_ms", "ms"),
    ("session.unattributed_ms", "ms"),
    ("session.partition_reuse_ratio", "ratio"),
    ("par.compose_speedup", "ratio"),
    ("par.candidates_speedup", "ratio"),
    ("par.assignment_speedup", "ratio"),
    ("check.checkpoints_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Replay layers: the span name inside the replay and the metric it feeds.
const REPLAY_LAYERS: [(&str, &str); 9] = [
    ("sta", "sta.analyze_ms"),
    ("compat", "compat.build_ms"),
    ("candidates", "candidates.enumerate_ms"),
    ("lp", "lp.solve_ms"),
    ("place_lp", "mapping.place_lp_ms"),
    ("merge", "mapping.merge_ms"),
    ("legalize", "place.legalize_ms"),
    ("skew", "cts.skew_ms"),
    ("sizing", "sizing.downsize_ms"),
];

/// Work counters read from the replay's counter sink.
const REPLAY_COUNTERS: [&str; 8] = [
    "sta.full.seed_pins",
    "core.compat.edges",
    "core.candidates.subsets_visited",
    "core.candidates.enumerated",
    "lp.setpart.nodes_explored",
    "lp.simplex.pivots",
    "place.legalize.gap_probes",
    "cts.skew.adjusted",
];

/// Work counters read per ECO from the session's counter sink.
const ECO_COUNTERS: [&str; 4] = [
    "sta.incremental.seed_pins",
    "core.session.compat_reused",
    "place.legalize.rows_skipped",
    "cts.skew.sinks_skipped",
];

/// The flow stages a recompose runs and the per-ECO metric of each bucket
/// (scan stitching is off by default and never runs).
const ECO_STAGES: [(FlowStage, &str); 8] = [
    (FlowStage::Timing, "session.stage.timing_ms"),
    (FlowStage::Compat, "session.stage.compat_ms"),
    (FlowStage::Candidates, "session.stage.candidates_ms"),
    (FlowStage::Assignment, "session.stage.assignment_ms"),
    (FlowStage::Mapping, "session.stage.mapping_ms"),
    (FlowStage::Legalization, "session.stage.legalization_ms"),
    (FlowStage::Skew, "session.stage.skew_ms"),
    (FlowStage::Sizing, "session.stage.sizing_ms"),
];

/// How much one run does.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Set-ups per run (their median is `setup_s`).
    pub setups: usize,
    /// ECOs between two checkpoints.
    pub ecos_per_checkpoint: usize,
    /// Timed checkpoints at least (after the warm-up one).
    pub min_checkpoints: usize,
    /// Measuring lasts at least this long.
    pub seconds: f64,
}

impl Plan {
    /// A timed run: 10 checkpoints and 100 ECOs at least, so the ECO p90
    /// has 10 samples beyond it. More compose samples would not steady the
    /// compose median: ten seeds spread it 13.5 % with 10 samples a run and
    /// 14.5 % with 20, as the host drifts between runs.
    pub fn timed(seconds: f64) -> Plan {
        Plan {
            setups: 5,
            ecos_per_checkpoint: 10,
            min_checkpoints: 10,
            seconds,
        }
    }

    /// A traced run: per-layer medians need fewer samples.
    pub fn traced(seconds: f64) -> Plan {
        Plan {
            min_checkpoints: 5,
            ..Plan::timed(seconds)
        }
    }

    /// The smallest run that still takes every kind of sample.
    pub fn quick() -> Plan {
        Plan {
            setups: 1,
            ecos_per_checkpoint: 2,
            min_checkpoints: 1,
            seconds: 0.0,
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// The outcome of one run.
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Traced runs: each layer's share of the request it belongs to.
    pub shares: Vec<String>,
    pub tally: Tally,
    pub threads: [usize; 2],
}

/// Samples keyed by metric name.
#[derive(Default)]
struct Table(BTreeMap<&'static str, Samples>);

impl Table {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn get(&self, name: &str) -> Option<&Samples> {
        self.0.get(name)
    }

    /// Emits `names` in order, each as the median of its samples, or its
    /// quantile for the `_p90_` metrics.
    fn emit(&self, names: &[(&'static str, &'static str)]) -> Result<Vec<Metric>, String> {
        names
            .iter()
            .map(|&(name, unit)| {
                let samples = self
                    .get(name)
                    .filter(|s| !s.is_empty())
                    .ok_or_else(|| format!("no samples of {name}"))?;
                let value = if name.contains("_p90") {
                    samples.quantile(0.9)
                } else {
                    samples.median()
                };
                Ok(Metric {
                    name,
                    unit,
                    value,
                    samples: samples.len(),
                })
            })
            .collect()
    }
}

/// The hardware threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Everything a running workload shares.
struct Ctx<'a> {
    lib: &'a Library,
    model: DelayModel,
    threads: [usize; 2],
    tally: Tally,
    table: Table,
    traced: bool,
}

impl Ctx<'_> {
    fn options(&self, threads: usize) -> ComposerOptions {
        ComposerOptions {
            threads,
            ..ComposerOptions::default()
        }
    }

    /// Composes `design` from scratch and checks the result against the
    /// session's composed design. Returns the outcome and wall-clock time.
    fn compose(
        &mut self,
        design: &Design,
        options: ComposerOptions,
        expect: &str,
        expect_nodes: u64,
    ) -> Option<(ComposeOutcome, f64)> {
        let threads = options.threads;
        let mut work = design.clone();
        let start = Instant::now();
        let result = Composer::new(options, self.model).compose(&mut work, self.lib);
        let seconds = start.elapsed().as_secs_f64();
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                self.tally
                    .record(Err(format!("compose at {threads} threads: {e}")));
                return None;
            }
        };
        self.tally.record(check_clean(&outcome));
        self.tally.record(check_same_design(
            &work.to_design_text(self.lib),
            expect,
            &format!("compose at {threads} threads vs the session"),
        ));
        self.tally.record(check_equal(
            outcome.ilp_nodes,
            expect_nodes,
            &format!("ILP nodes at {threads} threads vs the session"),
        ));
        Some((outcome, seconds))
    }

    /// One checkpoint: batch composes of the session's design. `check_nt`
    /// adds an untimed `nproc`-thread compose, so the run also checks that
    /// both thread counts give the same design.
    fn checkpoint(&mut self, k: usize, session: &CompositionSession<'_>, check_nt: bool) {
        let design = session.design();
        let expect = session.composed().to_design_text(self.lib);
        let expect_nodes = session.outcome().ilp_nodes;
        let [one, many] = self.threads;
        if k == 0 {
            // Warm-up: the first compose at each thread count, checked but
            // not timed; the one-thread one runs every invariant check.
            let mut full = self.options(one);
            full.paranoia = Paranoia::Full;
            self.compose(design, full, &expect, expect_nodes);
            self.compose(design, self.options(many), &expect, expect_nodes);
            return;
        }
        if !self.traced {
            if let Some((_, seconds)) =
                self.compose(design, self.options(one), &expect, expect_nodes)
            {
                self.table.push("compose_1t_s", seconds);
            }
            if check_nt {
                self.compose(design, self.options(many), &expect, expect_nodes);
            }
            return;
        }
        // Traced: the untraced one-thread compose and the traced replay in
        // alternating order, then the `nproc` compose untraced (for the
        // parallel speed-ups) and once more under the counter sink (for the
        // solver's subtree restarts).
        let one_t = if k.is_multiple_of(2) {
            let one_t = self.compose(design, self.options(one), &expect, expect_nodes);
            self.replay(design, &expect, expect_nodes);
            one_t
        } else {
            self.replay(design, &expect, expect_nodes);
            self.compose(design, self.options(one), &expect, expect_nodes)
        };
        let many_t = self.compose(design, self.options(many), &expect, expect_nodes);
        let totals = Arc::new(CounterTotals::default());
        with_sink(totals.clone(), || {
            self.compose(design, self.options(many), &expect, expect_nodes)
        });
        let totals = totals.totals();
        let count = |name: &str| totals.get(name).copied().unwrap_or(0) as f64;
        self.table.push(
            "lp.restart_ratio",
            ratio(
                count("lp.setpart.subtree_restarts"),
                count("lp.setpart.subtrees_spawned"),
            ),
        );
        if let (Some((one_t, one_s)), Some((many_t, many_s))) = (one_t, many_t) {
            let (a, b) = (one_t.timings, many_t.timings);
            let t = &mut self.table;
            t.push("replay.compose_1t_ms", one_s * 1e3);
            t.push("par.compose_speedup", one_s / many_s);
            t.push("check.checkpoints_ms", ns_to_ms(a.checks_ns));
            for (stage, name) in [
                (FlowStage::Candidates, "par.candidates_speedup"),
                (FlowStage::Assignment, "par.assignment_speedup"),
            ] {
                t.push(name, ratio(a.get(stage) as f64, b.get(stage) as f64));
            }
        }
    }

    /// The traced replay of the one-thread batch flow.
    fn replay(&mut self, design: &Design, expect: &str, expect_nodes: u64) {
        let totals = Arc::new(CounterTotals::default());
        let mut spans = LayerSpans::default();
        let mut options = self.options(1);
        options.paranoia = Paranoia::Off;
        let start = Instant::now();
        let result = with_sink(totals.clone(), || {
            replay(design, self.lib, &options, self.model, &mut spans)
        });
        let wall_ms = ms_since(start);
        let replayed = match result {
            Ok(r) => r,
            Err(e) => {
                self.tally.record(Err(e));
                return;
            }
        };
        let same = self.tally.record(check_same_design(
            &replayed.design.to_design_text(self.lib),
            expect,
            "layer replay vs Composer::compose",
        ));
        let nodes = self.tally.record(check_equal(
            replayed.ilp_nodes,
            expect_nodes,
            "layer replay ILP nodes vs Composer::compose",
        ));
        if !(same && nodes) {
            return;
        }
        let totals = totals.totals();
        let t = &mut self.table;
        for (layer, name) in REPLAY_LAYERS {
            t.push(name, spans.busy_ms(layer));
        }
        t.push("replay.unattributed_ms", wall_ms - spans.total_ms());
        t.push("trace.replay_ms", wall_ms);
        for name in REPLAY_COUNTERS {
            t.push(name, totals.get(name).copied().unwrap_or(0) as f64);
        }
        t.push("mapping.merges", replayed.merges as f64);
        t.push("sizing.resized", replayed.resized as f64);
        let visited = totals
            .get("core.candidates.subsets_visited")
            .copied()
            .unwrap_or(0);
        t.push(
            "candidates.accept_ratio",
            ratio(replayed.candidates as f64, visited as f64),
        );
    }

    /// One ECO: `apply`, then `recompose`. Its turnaround is the sum of the
    /// two; traced runs time them apart under a counter sink.
    fn eco(&mut self, session: &mut CompositionSession<'_>, eco: &mbr_core::Eco) {
        let totals = Arc::new(CounterTotals::default());
        let mut run = || {
            let start = Instant::now();
            let applied = session.apply(eco);
            let apply_ms = ms_since(start);
            let start = Instant::now();
            let recomposed = applied.is_ok().then(|| session.recompose().map(drop));
            (applied, apply_ms, recomposed, ms_since(start))
        };
        let (applied, apply_ms, recomposed, recompose_ms) = if self.traced {
            with_sink(totals.clone(), run)
        } else {
            run()
        };
        let recomposed = match recomposed {
            Some(Ok(())) => check_clean(session.outcome()),
            Some(Err(e)) => Err(format!("recompose: {e}")),
            None => Ok(()),
        };
        let ok = self
            .tally
            .record(applied.map(drop).map_err(|e| format!("apply: {e}")))
            && self.tally.record(recomposed);
        if !ok {
            return;
        }
        let t = &mut self.table;
        if !self.traced {
            t.push("eco_ms", apply_ms + recompose_ms);
            return;
        }
        let timings = session.outcome().timings;
        let totals = totals.totals();
        let count = |name: &str| totals.get(name).copied().unwrap_or(0) as f64;
        t.push("session.apply_ms", apply_ms);
        t.push("session.recompose_ms", recompose_ms);
        for (stage, name) in ECO_STAGES {
            t.push(name, ns_to_ms(timings.get(stage)));
        }
        t.push(
            "session.unattributed_ms",
            recompose_ms - ns_to_ms(timings.accounted_ns()),
        );
        for name in ECO_COUNTERS {
            t.push(name, count(name));
        }
        t.push(
            "eco.partitions_reused",
            count("core.session.partitions_reused"),
        );
        t.push(
            "eco.partitions_recomputed",
            count("core.session.partitions_recomputed"),
        );
    }

    /// The Table 1 metrics of the session's last pass: its design before
    /// and after composition.
    fn qor(&mut self, session: &CompositionSession<'_>) {
        let cts = CtsConfig::default();
        let cong = CongestionConfig::default();
        let model = *session.model();
        let base = DesignMetrics::measure(session.design(), self.lib, model, &cts, &cong);
        let ours = DesignMetrics::measure(session.composed(), self.lib, model, &cts, &cong);
        let (base, ours) = match (base, ours) {
            (Ok(b), Ok(o)) => (b, o),
            (Err(e), _) | (_, Err(e)) => {
                self.tally
                    .record(Err(format!("DesignMetrics::measure: {e}")));
                return;
            }
        };
        self.tally.record(Ok(()));
        let t = &mut self.table;
        t.push(
            "regs_saved_pct",
            save_pct(base.total_regs as f64, ours.total_regs as f64),
        );
        t.push("tns_ns", ours.tns_ns);
        t.push("clk_power_uw", ours.clk_power_uw);
        t.push("signal_wl_mm", ours.wl_other_mm);
        t.push("ovfl_edges", ours.ovfl_edges as f64);
    }
}

/// Each timed layer's median as a share of its request's median: the
/// replay layers of one batch compose, the stage buckets of one recompose.
fn layer_shares(table: &Table) -> Vec<String> {
    let median = |name: &str| table.get(name).map(Samples::median);
    let replay: Vec<&str> = REPLAY_LAYERS.iter().map(|&(_, name)| name).collect();
    let eco: Vec<&str> = ECO_STAGES.iter().map(|&(_, name)| name).collect();
    let mut lines = Vec::new();
    for (request, total, parts, rest) in [
        (
            "batch compose, layer replay at 1 thread",
            "trace.replay_ms",
            replay,
            "replay.unattributed_ms",
        ),
        (
            "ECO recompose",
            "session.recompose_ms",
            eco,
            "session.unattributed_ms",
        ),
    ] {
        let Some(total) = median(total) else {
            continue;
        };
        lines.push(format!("{request}: {total:.1} ms"));
        for name in parts.into_iter().chain([rest]) {
            if let Some(ms) = median(name) {
                lines.push(format!(
                    "  {name:<32} {ms:>10.2} ms {:>6.1} %",
                    100.0 * ms / total
                ));
            }
        }
    }
    lines
}

/// A flow outcome passes when its invariant checkpoints found nothing.
fn check_clean(outcome: &ComposeOutcome) -> Result<(), String> {
    match outcome.diagnostics.first() {
        None => Ok(()),
        Some(d) => Err(format!(
            "{} invariant diagnostics, first after {}: {:?}",
            outcome.diagnostics.len(),
            d.checkpoint.name(),
            d.diagnostic
        )),
    }
}

/// Two composed designs must be byte-identical in their text form.
pub fn check_same_design(got: &str, expect: &str, what: &str) -> Result<(), String> {
    if got == expect {
        return Ok(());
    }
    let line = got
        .lines()
        .zip(expect.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| got.lines().count().min(expect.lines().count()));
    Err(format!("{what}: designs differ from line {}", line + 1))
}

fn check_equal(got: u64, expect: u64, what: &str) -> Result<(), String> {
    if got == expect {
        Ok(())
    } else {
        Err(format!("{what}: {got} != {expect}"))
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs one workload. `seed` drives the ECO stream; the design is the
/// preset's own.
pub fn run(workload: &Workload, seed: u64, plan: &Plan, traced: bool) -> Result<Report, String> {
    let spec = (workload.preset)();
    let model = model_for(&spec);
    let threads = [1, nproc()];

    // Set-up, several times: library, design, and the session's pass-0
    // full compose. The last session serves the run.
    let mut setup = Table::default();
    let mut tally = Tally::default();
    let mut opened = None;
    for _ in 0..plan.setups.max(1) {
        let start = Instant::now();
        // A session borrows its library for life; each set-up builds its
        // own, kept for the rest of this short-lived process.
        let lib: &'static Library = Box::leak(Box::new(library()));
        let generate = Instant::now();
        let design = spec.generate(lib);
        setup.push("workloads.generate_ms", ms_since(generate));
        let options = ComposerOptions {
            threads: threads[1],
            ..ComposerOptions::default()
        };
        let session = CompositionSession::open(design, lib, options, model)
            .map_err(|e| format!("CompositionSession::open: {e}"))?;
        setup.push("setup_s", start.elapsed().as_secs_f64());
        tally.record(check_clean(session.outcome()));
        opened = Some((lib, session));
    }
    let (lib, mut session) = opened.expect("at least one set-up");

    let mut eco_spec = spec.clone();
    eco_spec.seed = seed;
    let script = eco_script_for(&eco_spec, session.design(), lib, 4096);
    let mut ctx = Ctx {
        lib,
        model,
        threads,
        tally,
        table: setup,
        traced,
    };

    let deadline = Instant::now() + Duration::from_secs_f64(plan.seconds);
    let mut ecos = script.ecos.chunks(plan.ecos_per_checkpoint);
    for k in 0.. {
        let last_required = k == plan.min_checkpoints;
        ctx.checkpoint(k, &session, last_required);
        if last_required && !traced {
            ctx.qor(&session);
        }
        if k >= plan.min_checkpoints && Instant::now() >= deadline {
            break;
        }
        let Some(block) = ecos.next() else { break };
        for eco in block {
            ctx.eco(&mut session, eco);
        }
    }

    let mut table = ctx.table;
    let mut shares = Vec::new();
    let metrics = if traced {
        let t = &mut table;
        let sum = |t: &Table, name: &str| t.get(name).map_or(0.0, Samples::sum);
        let reused = sum(t, "eco.partitions_reused");
        let recomputed = sum(t, "eco.partitions_recomputed");
        t.push(
            "session.partition_reuse_ratio",
            ratio(reused, reused + recomputed),
        );
        let replay_ms = t.get("trace.replay_ms").map(Samples::median);
        let compose_ms = t.get("replay.compose_1t_ms").map(Samples::median);
        if let (Some(r), Some(c)) = (replay_ms, compose_ms) {
            t.push("trace.overhead_pct", 100.0 * (r - c) / c);
        }
        shares = layer_shares(&table);
        table.emit(&PER_LAYER)?
    } else {
        let t = &mut table;
        let eco_ms = t.0.remove("eco_ms").unwrap_or_default();
        t.0.insert("eco_p50_ms", eco_ms.clone());
        t.0.insert("eco_p90_ms", eco_ms);
        t.push("peak_rss_mb", peak_rss_mb()?);
        table.emit(&END_TO_END)?
    };
    Ok(Report {
        metrics,
        shares,
        tally: ctx.tally,
        threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_checks_flag_two_different_designs() {
        let lib = library();
        let spec = mbr_workloads::d1();
        let design = spec.generate(&lib);
        let mut edited = design.clone();
        let mut model = model_for(&spec);
        let eco = &eco_script_for(&spec, &design, &lib, 1).ecos[0];
        mbr_core::apply_eco(&mut edited, &mut model, &lib, eco).expect("a valid ECO");
        let (a, b) = (design.to_design_text(&lib), edited.to_design_text(&lib));
        assert!(check_same_design(&a, &a.clone(), "same design").is_ok());
        let mut tally = Tally::default();
        tally.record(check_same_design(&a, &b, "different designs"));
        tally.record(check_equal(7, 8, "different node totals"));
        assert_eq!((tally.attempted, tally.failed), (2, 2));
    }
}
