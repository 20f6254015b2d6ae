//! The benchmark suites, shared between the `benches/` targets and the
//! `bench` binary.
//!
//! Each function builds one [`mbr_test::bench::Suite`], times its workloads,
//! and finishes it, which prints a summary table and writes
//! `BENCH_<suite>.json`. Run everything with
//! `cargo run --release -p mbr-bench --bin bench`, or a single suite with
//! `cargo bench -p mbr-bench --bench <suite>`. Set `MBR_BENCH_QUICK=1` for a
//! three-sample smoke run.

use mbr_core::{Composer, ComposerOptions};
use mbr_test::bench::Suite;
use mbr_workloads::DesignSpec;

use crate::{generate, library, model_for};

/// Table 1: the full composition flow per design, plus its stages.
///
/// The paper reports ~60 min CPU per design on 30–50 k-register netlists;
/// these presets are scaled ~18× down, so seconds here correspond to that
/// hour there.
pub fn table1() {
    use mbr_core::candidates::enumerate_candidates;
    use mbr_core::compat::CompatGraph;
    use mbr_sta::Sta;

    let lib = library();
    let mut suite = Suite::new("table1");
    for spec in [mbr_workloads::d1(), mbr_workloads::d3()] {
        let design = generate(&spec, &lib);
        let composer = Composer::new(ComposerOptions::default(), model_for(&spec));
        suite.bench(&format!("compose/{}", spec.name), || {
            let mut work = design.clone();
            composer.compose(&mut work, &lib).expect("flow succeeds")
        });
    }

    let spec = mbr_workloads::d1();
    let design = generate(&spec, &lib);
    let model = model_for(&spec);
    let options = ComposerOptions::default();
    suite.bench("stages/sta_full", || {
        Sta::new(&design, &lib, model).expect("acyclic")
    });
    let sta = Sta::new(&design, &lib, model).expect("acyclic");
    suite.bench("stages/compat_graph", || {
        CompatGraph::build(&design, &lib, &sta, &options)
    });
    let compat = CompatGraph::build(&design, &lib, &sta, &options);
    suite.bench("stages/enumerate_candidates", || {
        enumerate_candidates(&design, &lib, &compat, &options)
    });
    suite.finish();
}

/// Fig. 5: the bit-width histogram and the full design metrics
/// (STA + CTS + congestion + wirelength) used for every table row.
pub fn fig5() {
    use mbr_core::{BitWidthHistogram, DesignMetrics};
    use mbr_cts::CtsConfig;
    use mbr_place::CongestionConfig;

    let lib = library();
    let spec = mbr_workloads::d1();
    let design = generate(&spec, &lib);
    let model = model_for(&spec);

    let mut suite = Suite::new("fig5");
    suite.bench("bitwidth_histogram", || BitWidthHistogram::measure(&design));
    suite.bench("design_metrics", || {
        DesignMetrics::measure(
            &design,
            &lib,
            model,
            &CtsConfig::default(),
            &CongestionConfig::default(),
        )
        .expect("metrics")
    });
    suite.finish();
}

/// Fig. 6: ILP selection vs the greedy heuristic on the same candidate sets
/// (the selection stage is what the figure isolates).
pub fn fig6() {
    let lib = library();
    let spec = mbr_workloads::d1();
    let design = generate(&spec, &lib);
    let composer = Composer::new(ComposerOptions::default(), model_for(&spec));

    let mut suite = Suite::new("fig6");
    suite.bench("ilp_flow", || {
        let mut work = design.clone();
        composer.compose(&mut work, &lib).expect("flow")
    });
    suite.bench("heuristic_flow", || {
        let mut work = design.clone();
        composer.compose_heuristic(&mut work, &lib).expect("flow")
    });
    suite.finish();
}

/// A ~500-register design: large enough for the ablation sweeps to
/// differentiate, small enough for repeated sampling.
fn ablation_spec() -> DesignSpec {
    DesignSpec {
        name: "bench_small".into(),
        seed: 0xBE7C,
        cluster_grid: 3,
        groups_per_cluster: 10,
        regs_per_group: 3..=6,
        width_mix: [0.45, 0.25, 0.18, 0.12],
        fixed_fraction: 0.12,
        scan_fraction: 0.25,
        ordered_scan_fraction: 0.2,
        extra_buffer_depth: 3,
        utilization: 0.4,
        clock_period: 500.0,
        clock_domains: 1,
        wire_scale: 1.0,
    }
}

/// Ablations for the design choices DESIGN.md calls out: partition bound
/// (runtime vs QoR), blocking weights, incomplete MBRs.
pub fn ablations() {
    let lib = library();
    let spec = ablation_spec();
    let design = generate(&spec, &lib);

    let mut suite = Suite::new("ablations");
    for bound in [10usize, 20, 30, 40] {
        let composer = Composer::new(
            ComposerOptions {
                partition_max_nodes: bound,
                ..ComposerOptions::default()
            },
            model_for(&spec),
        );
        suite.bench(&format!("partition_bound/{bound}"), || {
            let mut work = design.clone();
            composer.compose(&mut work, &lib).expect("flow")
        });
    }

    let cases = [
        ("default", ComposerOptions::default()),
        (
            "no_weights",
            ComposerOptions {
                use_blocking_weights: false,
                ..ComposerOptions::default()
            },
        ),
        (
            "no_incomplete",
            ComposerOptions {
                allow_incomplete: false,
                ..ComposerOptions::default()
            },
        ),
        (
            "no_skew_no_sizing",
            ComposerOptions {
                apply_useful_skew: false,
                apply_sizing: false,
                ..ComposerOptions::default()
            },
        ),
    ];
    for (name, options) in cases {
        let composer = Composer::new(options, model_for(&spec));
        suite.bench(&format!("features/{name}"), || {
            let mut work = design.clone();
            composer.compose(&mut work, &lib).expect("flow")
        });
    }
    suite.finish();
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Micro-benchmarks of the algorithmic substrates: the set-partitioning
/// branch-and-bound, the §4.2 placement corner, Bron–Kerbosch, and the
/// convex hull.
pub fn solvers() {
    use mbr_core::placement::{optimal_corner_lp, PinBox};
    use mbr_geom::{convex_hull, Point, Rect};
    use mbr_graph::{BitGraph, UnGraph};
    use mbr_lp::SetPartition;

    let mut suite = Suite::new("solvers");

    // A 30-element instance shaped like a composition partition: singletons
    // plus overlapping pair/quad candidates.
    let n = 30usize;
    let mut sp = SetPartition::new(n);
    for e in 0..n {
        sp.add_candidate(&[e], 1.0);
    }
    let mut state = 0x5EED_u64;
    for _ in 0..200 {
        let a = (xorshift(&mut state) % n as u64) as usize;
        let b = (a + 1 + (xorshift(&mut state) % 4) as usize).min(n - 1);
        if a != b {
            sp.add_candidate(&[a, b], 0.5);
        }
        let q: Vec<usize> = (0..4)
            .map(|_| (xorshift(&mut state) % n as u64) as usize)
            .collect();
        sp.add_candidate(&q, 0.25);
    }
    suite.bench("setpart_30_elements", || {
        sp.solve_bounded(50_000).expect("feasible")
    });

    // The Section 4.2 placement over 16 pins: the closed form the flow
    // runs, on random pin offsets and connection boxes.
    let mut state = 0xF00D_u64;
    let boxes: Vec<PinBox> = (0..16)
        .map(|_| {
            let x = (xorshift(&mut state) % 90_000) as i64;
            let y = (xorshift(&mut state) % 90_000) as i64;
            let w = (xorshift(&mut state) % 8_000) as i64;
            let h = (xorshift(&mut state) % 8_000) as i64;
            PinBox {
                offset: Point::new(
                    (xorshift(&mut state) % 4_000) as i64,
                    (xorshift(&mut state) % 1_000) as i64,
                ),
                bbox: Rect::new(Point::new(x, y), Point::new(x + w, y + h)),
            }
        })
        .collect();
    let region = Rect::new(Point::new(0, 0), Point::new(100_000, 100_000));
    suite.bench("placement_corner_16_pins", || {
        optimal_corner_lp(&boxes, region)
    });

    // A 30-node graph at ~50 % density — the partition-bound worst case.
    let n = 30;
    let mut g = UnGraph::new(n);
    let mut state = 0xBEEF_u64;
    for i in 0..n {
        for j in (i + 1)..n {
            if xorshift(&mut state) % 100 < 50 {
                g.add_edge(i, j);
            }
        }
    }
    let nodes: Vec<usize> = (0..n).collect();
    let bg = BitGraph::from_subgraph(&g, &nodes);
    suite.bench("bron_kerbosch_30_nodes", || bg.maximal_cliques());

    let mut state = 0xCAFE_u64;
    let pts: Vec<Point> = (0..64)
        .map(|_| {
            Point::new(
                (xorshift(&mut state) % 100_000) as i64,
                (xorshift(&mut state) % 100_000) as i64,
            )
        })
        .collect();
    suite.bench("convex_hull_64_corners", || convex_hull(&pts));

    suite.finish();
}

/// Observability cost: the full d1 flow with no sink installed (the
/// default every caller pays — counters reduce to a thread-local check and
/// spans are inert) versus under a live counting sink. The first number is
/// the "no-op overhead" budget DESIGN.md §8 commits to; the delta to the
/// second is the opt-in price of counting.
pub fn obs() {
    use mbr_obs::{with_sink, CounterTotals};
    use std::sync::Arc;

    let lib = library();
    let spec = mbr_workloads::d1();
    let design = generate(&spec, &lib);
    let composer = Composer::new(ComposerOptions::default(), model_for(&spec));

    let mut suite = Suite::new("obs");
    suite.bench("flow_d1/no_sink", || {
        let mut work = design.clone();
        composer.compose(&mut work, &lib).expect("flow")
    });
    suite.bench("flow_d1/counting_sink", || {
        let totals = Arc::new(CounterTotals::default());
        with_sink(totals, || {
            let mut work = design.clone();
            composer.compose(&mut work, &lib).expect("flow")
        })
    });

    // Regression guard: incremental STA dedupes its per-net refreshes, so
    // the seed set scales with the touched fan-out, not with touched pins ×
    // net degree. Before the dedupe, d1 averaged ~955 seed pins per update;
    // after, ~31. The bound is loose on purpose — it catches the quadratic
    // blow-up coming back, not workload drift.
    let totals = Arc::new(CounterTotals::default());
    with_sink(totals.clone(), || {
        let mut work = design.clone();
        composer.compose(&mut work, &lib).expect("flow");
    });
    let t = totals.totals();
    let updates = t.get("sta.incremental_updates").copied().unwrap_or(0);
    let seeds = t.get("sta.incremental.seed_pins").copied().unwrap_or(0);
    assert!(
        updates > 0 && seeds < updates * 200,
        "sta.incremental.seed_pins regressed: {seeds} seeds over {updates} updates"
    );

    suite.finish();
}

/// Parallel scaling: the full d1 flow at 1/2/4/8 worker threads (the
/// [`ComposerOptions::threads`] knob that `MBR_THREADS` feeds), plus the
/// raw `par_map` dispatch overhead. The thread sweep is the evidence
/// behind the README scaling numbers; outputs are identical at every
/// count, so the sweep measures pure scheduling.
pub fn par() {
    let lib = library();
    let spec = mbr_workloads::d1();
    let design = generate(&spec, &lib);
    let model = model_for(&spec);

    let mut suite = Suite::new("par");
    for threads in [1usize, 2, 4, 8] {
        let composer = Composer::new(
            ComposerOptions {
                threads,
                ..ComposerOptions::default()
            },
            model,
        );
        suite.bench(&format!("flow_d1/threads_{threads}"), || {
            let mut work = design.clone();
            composer.compose(&mut work, &lib).expect("flow")
        });
    }

    // Raw executor cost: tiny tasks over a large slice measure the chunked
    // queue and the ordered collection, not the per-item work.
    let items: Vec<u64> = (0..100_000).collect();
    for threads in [1usize, 8] {
        suite.bench(&format!("par_map_overhead/threads_{threads}"), || {
            mbr_par::par_map(threads, &items, |_, &x| x.wrapping_mul(2_654_435_761))
        });
    }
    suite.finish();
}

/// Incremental re-composition: a persistent [`CompositionSession`] taking
/// one ECO per sample versus a from-scratch batch compose of the same
/// mutated design — the cost a flow without sessions pays per ECO
/// iteration. The two arms produce byte-identical results (the `check
/// --eco-seed` differential proves it); this suite measures what the reuse
/// buys. A counter guard asserts the incremental pass does strictly less
/// STA seeding and candidate-enumeration work than the batch pass on every
/// preset, so the wall-clock win is load-bearing, not noise.
pub fn incr() {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use mbr_core::{apply_eco, CompositionSession};
    use mbr_obs::{with_sink, CounterTotals};
    use mbr_workloads::eco_script_for;

    let lib = library();
    let mut suite = Suite::new("incr");
    for spec in mbr_workloads::all_presets() {
        let design = generate(&spec, &lib);
        let model = model_for(&spec);
        let options = ComposerOptions::default();
        // A long deterministic ECO stream; every sample of either arm folds
        // in the next one, so both arms measure the same steady-state
        // "one ECO, one recompose" iteration.
        let script = eco_script_for(&spec, &design, &lib, 1024);

        {
            let mut work = design.clone();
            let mut work_model = model;
            let mut step = 0usize;
            let opts = options.clone();
            let (lib, script) = (&lib, &script);
            suite.bench(&format!("full/{}", spec.name), move || {
                let eco = &script.ecos[step % script.ecos.len()];
                step += 1;
                apply_eco(&mut work, &mut work_model, lib, eco).expect("eco applies");
                let mut pass = work.clone();
                Composer::new(opts.clone(), work_model)
                    .compose(&mut pass, lib)
                    .expect("flow")
            });
        }

        {
            let mut session =
                CompositionSession::open(design.clone(), &lib, options.clone(), model)
                    .expect("session opens");
            let mut step = 0usize;
            let script = &script;
            suite.bench(&format!("incr/{}", spec.name), move || {
                let eco = &script.ecos[step % script.ecos.len()];
                step += 1;
                session.apply(eco).expect("eco applies");
                session.recompose().expect("flow");
                session.outcome().registers_after
            });
        }

        // Counter guard: same single ECO, instrumented once per arm.
        let observed = |f: &mut dyn FnMut()| -> BTreeMap<String, u64> {
            let totals = Arc::new(CounterTotals::default());
            with_sink(totals.clone(), &mut *f);
            totals.totals()
        };
        let full = {
            let mut work = design.clone();
            let mut work_model = model;
            apply_eco(&mut work, &mut work_model, &lib, &script.ecos[0]).expect("eco applies");
            let composer = Composer::new(options.clone(), work_model);
            observed(&mut || {
                let mut pass = work.clone();
                composer.compose(&mut pass, &lib).expect("flow");
            })
        };
        let incr = {
            let mut session =
                CompositionSession::open(design.clone(), &lib, options.clone(), model)
                    .expect("session opens");
            session.apply(&script.ecos[0]).expect("eco applies");
            observed(&mut || {
                session.recompose().expect("flow");
            })
        };
        let get = |t: &BTreeMap<String, u64>, k: &str| t.get(k).copied().unwrap_or(0);
        let seeds = |t: &BTreeMap<String, u64>| {
            get(t, "sta.full.seed_pins") + get(t, "sta.incremental.seed_pins")
        };
        assert!(
            seeds(&incr) < seeds(&full),
            "{}: incremental STA seeded {} pins, batch {} — reuse regressed",
            spec.name,
            seeds(&incr),
            seeds(&full),
        );
        for key in [
            "core.candidates.subsets_visited",
            "core.candidates.enumerated",
        ] {
            assert!(
                get(&incr, key) < get(&full, key),
                "{}: {key} incremental {} vs batch {} — partition memo regressed",
                spec.name,
                get(&incr, key),
                get(&full, key),
            );
        }
    }
    suite.finish();
}

/// Paper-scale presets: stage timings on d6 (≈20 k registers) always, and
/// — in full (non-quick) runs — a complete bounded compose of d6 plus
/// netlist generation of d7/d8 (≈100 k / ≈500 k registers). Full composes
/// of d7/d8 are out of a bench harness's budget (minutes per call times
/// the minimum sample count); the d6 compose is the headline paper-scale
/// number, and `tests/file_scale.rs` covers d6 correctness end to end.
/// Every measurement's observed pass attaches the pruning counters
/// (`core.candidates.filtered`, `lp.setpart.lp_bound_cuts`, …) to
/// `BENCH_scale.json`, so scale regressions trace to algorithmic work.
pub fn scale() {
    use mbr_core::candidates::enumerate_candidates;
    use mbr_core::compat::CompatGraph;
    use mbr_sta::Sta;

    let quick = std::env::var("MBR_BENCH_QUICK").is_ok_and(|v| v != "0");
    let lib = library();
    let mut suite = Suite::new("scale");

    let spec = mbr_workloads::d6();
    let design = generate(&spec, &lib);
    let model = model_for(&spec);
    let options = ComposerOptions::default();

    suite.bench("generate/d6", || spec.generate(&lib));
    suite.bench("stages/sta_full/d6", || {
        Sta::new(&design, &lib, model).expect("acyclic")
    });
    let sta = Sta::new(&design, &lib, model).expect("acyclic");
    suite.bench("stages/compat_graph/d6", || {
        CompatGraph::build(&design, &lib, &sta, &options)
    });
    if !quick {
        let compat = CompatGraph::build(&design, &lib, &sta, &options);
        suite.bench("stages/enumerate_candidates/d6", || {
            enumerate_candidates(&design, &lib, &compat, &options)
        });
        let composer = Composer::new(options.clone(), model);
        suite.bench("compose/d6", || {
            let mut work = design.clone();
            composer.compose(&mut work, &lib).expect("flow succeeds")
        });
        for spec in [mbr_workloads::d7(), mbr_workloads::d8()] {
            suite.bench(&format!("generate/{}", spec.name), || spec.generate(&lib));
        }
    }
    suite.finish();
}

/// The arena/SoA hot path under a thread sweep: a full compose of every
/// scaled preset (d1–d5, plus d6 when `MBR_SCALE_TESTS=1`) at 1/2/4/8
/// worker threads, with the work counters of an observed pass attached to
/// each measurement in `BENCH_soa.json`. A per-preset counter guard then
/// asserts the *entire* counter map — `lp.setpart.nodes_explored`
/// included — is identical at every thread count: per-partition tasks that
/// collect in input order and the buffered-observability replay promise
/// thread-invariant work accounting, and this suite is the standing
/// evidence. Wall-clock scales; the algorithm does not change.
pub fn soa() {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use mbr_obs::{with_sink, CounterTotals};

    let lib = library();
    let mut suite = Suite::new("soa");
    let mut specs = mbr_workloads::all_presets();
    if std::env::var("MBR_SCALE_TESTS").is_ok_and(|v| v != "0") {
        specs.push(mbr_workloads::d6());
    }
    for spec in specs {
        let design = generate(&spec, &lib);
        let model = model_for(&spec);
        let mut per_thread: BTreeMap<usize, BTreeMap<String, u64>> = BTreeMap::new();
        for threads in [1usize, 2, 4, 8] {
            let composer = Composer::new(
                ComposerOptions {
                    threads,
                    ..ComposerOptions::default()
                },
                model,
            );
            suite.bench(&format!("compose/{}/threads_{threads}", spec.name), || {
                let mut work = design.clone();
                composer.compose(&mut work, &lib).expect("flow")
            });
            // One more observed pass for the invariance guard (the pass
            // `bench` observes is attached to the JSON, not returned).
            let totals = Arc::new(CounterTotals::default());
            with_sink(totals.clone(), || {
                let mut work = design.clone();
                composer.compose(&mut work, &lib).expect("flow");
            });
            per_thread.insert(threads, totals.totals());
        }
        let reference = per_thread.get(&1).expect("serial sweep ran").clone();
        assert!(
            reference.get("lp.setpart.nodes_explored").copied() > Some(0),
            "{}: compose explored no B&B nodes — the guard would be vacuous",
            spec.name,
        );
        for (threads, totals) in &per_thread {
            assert_eq!(
                totals, &reference,
                "{}: counter totals diverged at {threads} threads — \
                 thread-invariant work accounting regressed",
                spec.name,
            );
        }
    }
    suite.finish();
}

/// Runs every suite, in a deterministic order.
pub fn run_all() {
    table1();
    fig5();
    fig6();
    ablations();
    solvers();
    obs();
    par();
    incr();
    scale();
    soa();
}
