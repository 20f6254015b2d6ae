//! Golden byte-identity snapshot of the batch flow, taken immediately
//! *before* the arena/SoA hot-path refactor (DESIGN.md §14) and required
//! to hold forever after it: for every preset d1–d5 the composed design
//! text, the scrubbed `ComposeOutcome`, the totals of every pre-refactor
//! counter, and the trace event *sequence* must hash to exactly the
//! values captured on the pointer/BTreeMap implementation.
//!
//! New observability added by later work (e.g. `place.legalize.rows_skipped`,
//! `cts.skew.sinks_skipped`) is excluded via the [`LEGACY_COUNTERS`]
//! whitelist by design — the contract is that the *pre-existing* observable
//! behavior is byte-identical, while new counters may appear alongside it.

use std::sync::Arc;

use mbr::check::Paranoia;
use mbr::core::{ComposeOutcome, Composer, ComposerOptions};
use mbr::liberty::standard_library;
use mbr::obs::{
    with_clock, with_sink, CounterTotals, MockClock, ObsSink, Recorder, Tee, TraceEvent,
};
use mbr::sta::DelayModel;
use mbr::workloads::{all_presets, DesignSpec};

/// Counter names that existed before the SoA refactor. The golden hashes
/// cover exactly these; anything else the flow emits is ignored here (the
/// perfdiff baseline gate tracks the full set).
const LEGACY_COUNTERS: &[&str] = &[
    "check.diagnostics",
    "core.candidates.enumerated",
    "core.candidates.filtered",
    "core.candidates.partitions",
    "core.candidates.subsets_visited",
    "core.compat.edges",
    "core.compat.edges_removed",
    "core.compat.registers",
    "core.session.compat_reused",
    "core.session.ecos_applied",
    "core.session.partitions_recomputed",
    "core.session.partitions_reused",
    "cts.skew.adjusted",
    "lp.setpart.incumbent_improvements",
    "lp.setpart.lp_bound_cuts",
    "lp.setpart.nodes_explored",
    "lp.setpart.nodes_pruned",
    "lp.setpart.solves",
    "lp.simplex.pivots",
    "place.legalize.cells_moved",
    "place.legalize.gap_probes",
    "sta.full.seed_pins",
    "sta.full_analyses",
    "sta.incremental.nets_touched",
    "sta.incremental.seed_pins",
    "sta.incremental_updates",
];

/// Gauge and histogram names that existed before the refactor, same deal.
const LEGACY_GAUGES: &[&str] = &[
    "place.legalize.max_displacement_dbu",
    "sta.tns_ps",
    "sta.wns_ps",
];
const LEGACY_HISTS: &[&str] = &[
    "core.candidates.per_partition",
    "cts.skew.abs_adjust_ps",
    "lp.setpart.solve_nodes",
    "lp.setpart.solve_ns",
    "place.legalize.displacement_dbu",
    "sta.incremental.seed_pins_per_update",
];

struct Golden {
    name: &'static str,
    design_hash: u64,
    outcome_hash: u64,
    counters_hash: u64,
    trace_hash: u64,
    nodes_explored: u64,
    gap_probes: u64,
}

/// Captured on the pre-refactor implementation (see module docs); the
/// readable `nodes_explored` / `gap_probes` columns make a diff reviewable
/// without re-deriving hashes.
const GOLDENS: &[Golden] = &[
    Golden {
        name: "d1",
        design_hash: 0x478a18f1d3d6cb71,
        outcome_hash: 0x13db5e4115bc0fa8,
        counters_hash: 0xfca40cd4c0ebbf0c,
        trace_hash: 0x096f4c2f92a152b7,
        nodes_explored: 2366,
        gap_probes: 6675,
    },
    Golden {
        name: "d2",
        design_hash: 0xdead7de0571f4d2c,
        outcome_hash: 0xcd48f3899aa906fa,
        counters_hash: 0x230a238445c64ecc,
        trace_hash: 0xbffef795ab0c7fb3,
        nodes_explored: 1046,
        gap_probes: 5260,
    },
    Golden {
        name: "d3",
        design_hash: 0x55184ba35c41b233,
        outcome_hash: 0xb23f2be43b54b7e1,
        counters_hash: 0x8337957ed132dc84,
        trace_hash: 0xa563474de249ef23,
        nodes_explored: 7861,
        gap_probes: 5913,
    },
    Golden {
        name: "d4",
        design_hash: 0x57ff72fe92badf31,
        outcome_hash: 0x83f3187028b49c63,
        counters_hash: 0x1fb1aef3ad2f1f70,
        trace_hash: 0xdfe103c158e662b2,
        nodes_explored: 2076,
        gap_probes: 5452,
    },
    Golden {
        name: "d5",
        design_hash: 0x2ae05bb68fec52a0,
        outcome_hash: 0x6b4fadd71b3fecf3,
        counters_hash: 0x2e5798a96f04e10b,
        trace_hash: 0x0dc71aecef2a3081,
        nodes_explored: 1178,
        gap_probes: 9829,
    },
];

fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn model_for(spec: &DesignSpec) -> DelayModel {
    let base = DelayModel::default();
    DelayModel {
        clock_period: spec.clock_period,
        wire_res_per_dbu: base.wire_res_per_dbu * spec.wire_scale,
        wire_cap_per_dbu: base.wire_cap_per_dbu * spec.wire_scale,
        ..base
    }
}

fn options_for(name: &str) -> ComposerOptions {
    // Mirrors tests/determinism.rs: paranoia pinned (so debug and release
    // builds hash identically) and trimmed budgets keep the matrix cheap.
    ComposerOptions {
        paranoia: if name == "d1" {
            Paranoia::Cheap
        } else {
            Paranoia::Off
        },
        max_candidates_per_partition: 1_000,
        subclique_visit_multiplier: 8,
        node_budget: 10_000,
        ..ComposerOptions::default()
    }
}

/// The trace reduced to its legacy-observable event sequence: every span,
/// plus counter/gauge/hist events for whitelisted counter names. Gauges
/// and histograms all predate the refactor, so they are included wholesale
/// (timing histograms by observation count only — their values are clock
/// readings).
fn trace_shape(events: &[TraceEvent]) -> String {
    use mbr::obs::Histogram;
    let mut out = String::new();
    for e in events {
        match e {
            TraceEvent::Span { name, .. } => out.push_str(&format!("span {name}\n")),
            TraceEvent::Counter { name, value, .. } => {
                if LEGACY_COUNTERS.contains(&name.as_str()) {
                    out.push_str(&format!("counter {name}={value}\n"));
                }
            }
            TraceEvent::Gauge { name, value, .. } => {
                if LEGACY_GAUGES.contains(&name.as_str()) {
                    out.push_str(&format!("gauge {name}={value}\n"));
                }
            }
            TraceEvent::Hist { name, data, .. } => {
                if LEGACY_HISTS.contains(&name.as_str()) {
                    if Histogram::from_name(name).is_some_and(Histogram::is_timing) {
                        out.push_str(&format!("hist {name} count={}\n", data.count()));
                    } else {
                        out.push_str(&format!("hist {name} {data:?}\n"));
                    }
                }
            }
        }
    }
    out
}

#[test]
fn batch_flow_matches_the_pre_refactor_snapshot() {
    for (spec, golden) in all_presets().iter().zip(GOLDENS) {
        assert_eq!(spec.name, golden.name, "preset order changed");
        let lib = standard_library();
        let mut design = spec.generate(&lib);
        let composer = Composer::new(options_for(&spec.name), model_for(spec));
        let totals = Arc::new(CounterTotals::default());
        let rec = Arc::new(Recorder::default());
        let tee = Arc::new(Tee::new(vec![
            totals.clone() as Arc<dyn ObsSink>,
            rec.clone() as Arc<dyn ObsSink>,
        ]));
        let outcome = with_clock(Arc::new(MockClock::new(1)), || {
            with_sink(tee, || composer.compose(&mut design, &lib))
        })
        .expect("flow succeeds");

        let design_text = design.to_design_text(&lib);
        let scrubbed = format!(
            "{:?}",
            ComposeOutcome {
                timings: Default::default(),
                ..outcome
            }
        );
        let all = totals.totals();
        let legacy: Vec<(&str, u64)> = LEGACY_COUNTERS
            .iter()
            .map(|&name| (name, all.get(name).copied().unwrap_or(0)))
            .collect();
        let counters_text = format!("{legacy:?}");
        let shape = trace_shape(&rec.events());

        let actual = Golden {
            name: golden.name,
            design_hash: fnv1a(&design_text),
            outcome_hash: fnv1a(&scrubbed),
            counters_hash: fnv1a(&counters_text),
            trace_hash: fnv1a(&shape),
            nodes_explored: all.get("lp.setpart.nodes_explored").copied().unwrap_or(0),
            gap_probes: all.get("place.legalize.gap_probes").copied().unwrap_or(0),
        };
        let render = |g: &Golden| {
            format!(
                "Golden {{ name: \"{}\", design_hash: 0x{:016x}, outcome_hash: 0x{:016x}, \
                 counters_hash: 0x{:016x}, trace_hash: 0x{:016x}, nodes_explored: {}, \
                 gap_probes: {} }}",
                g.name,
                g.design_hash,
                g.outcome_hash,
                g.counters_hash,
                g.trace_hash,
                g.nodes_explored,
                g.gap_probes
            )
        };
        assert_eq!(
            render(&actual),
            render(golden),
            "{}: flow output diverged from the pre-refactor snapshot\n\
             legacy counters were: {counters_text}",
            spec.name
        );
    }
}
