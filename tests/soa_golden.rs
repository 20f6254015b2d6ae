//! Golden byte-identity snapshot of the batch flow, taken immediately
//! *before* the arena/SoA hot-path refactor (DESIGN.md §14) and required
//! to hold forever after it: for every preset d1–d5 the composed design
//! text, the scrubbed `ComposeOutcome`, the totals of every pre-refactor
//! counter, and the trace event *sequence* must hash to exactly the
//! values captured on the pointer/BTreeMap implementation.
//!
//! New observability added by later work (e.g. `core.candidates.polygons`,
//! `core.compat.pairs_checked`) is excluded via the [`LEGACY_COUNTERS`]
//! whitelist by design — the contract is that the *pre-existing* observable
//! behavior is byte-identical, while new counters may appear alongside it.
//!
//! `counters_hash` and `trace_hash` were re-taken once since, when
//! `Sta::update_after_change` became output-sensitive: an update now
//! refreshes a net only when a pin on it moved or changed capacitance, so
//! the useful-skew and sizing updates of stage 7 refresh and seed far less.
//! Only `sta.incremental.nets_touched` and `sta.incremental.seed_pins`
//! moved (the readable columns below; d1 4,380 → 139 and 10,764 → 4,858),
//! and the trace shapes differ only in those two counters' lines and the
//! `sta.incremental.seed_pins_per_update` histogram.
//!
//! All four hashes were re-taken once more when §4.2 placement became a
//! closed form (`mbr_core::placement::optimal_corner_lp`). Where a pick's
//! optimal corners form an interval, the closed form takes its upper end,
//! while the simplex it replaced stopped at whichever end its pivoting
//! reached: 60 of the 1,491 d1–d5 placements at default budgets moved, each
//! at equal HPWL (`tests/placement_oracle.rs` checks the cost of every
//! placement against that simplex). The moved corners move the composed
//! designs (`design_hash`) and the outcomes' legalization displacement and
//! moved-cell counts (`outcome_hash`; d3 also resizes 193 MBRs instead of
//! 192). Of the readable columns, `nodes_explored` is unchanged; d1
//! `gap_probes` 6,675 → 6,562 and `seed_pins` 4,858 → 4,839, d2
//! `gap_probes` 5,260 → 5,310, d3 5,913 → 5,936 with `nets_touched`
//! 244 → 243 and `seed_pins` 8,978 → 8,960, d4 `gap_probes`
//! 5,452 → 5,439, d5 9,829 → 9,777. `lp.simplex.pivots` falls with the
//! placement LP gone (d1 at default budgets, `PERF_baseline.json`:
//! 27,032 → 3,529), which moves `counters_hash` and `trace_hash` on every
//! preset.

use std::sync::Arc;

use mbr::check::Paranoia;
use mbr::core::{ComposeOutcome, Composer, ComposerOptions};
use mbr::liberty::standard_library;
use mbr::obs::{
    with_clock, with_sink, CounterTotals, MockClock, ObsSink, Recorder, Tee, TraceEvent,
};
use mbr::workloads::all_presets;

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
    nets_touched: u64,
    seed_pins: u64,
}

/// Captured on the pre-refactor implementation (see module docs); the
/// readable `nodes_explored` / `gap_probes` / `nets_touched` / `seed_pins`
/// columns make a diff reviewable without re-deriving hashes.
const GOLDENS: &[Golden] = &[
    Golden {
        name: "d1",
        design_hash: 0x19e1083eaa9043f1,
        outcome_hash: 0x6e98e22864a044c6,
        counters_hash: 0x4c316713f912ccd3,
        trace_hash: 0xc9bf93db94f824a5,
        nodes_explored: 2366,
        gap_probes: 6562,
        nets_touched: 139,
        seed_pins: 4839,
    },
    Golden {
        name: "d2",
        design_hash: 0xa6d4bf6509bef14c,
        outcome_hash: 0xcb66ba8c48c2178b,
        counters_hash: 0x39ea54f936ff1403,
        trace_hash: 0xf94745f84f4d0fae,
        nodes_explored: 1046,
        gap_probes: 5310,
        nets_touched: 169,
        seed_pins: 5772,
    },
    Golden {
        name: "d3",
        design_hash: 0xaf6bdfe538164a85,
        outcome_hash: 0xd999021d7a089196,
        counters_hash: 0x775eda24c1d9e52b,
        trace_hash: 0x688fde613639a8e5,
        nodes_explored: 7861,
        gap_probes: 5936,
        nets_touched: 243,
        seed_pins: 8960,
    },
    Golden {
        name: "d4",
        design_hash: 0x11205bbe19b4e601,
        outcome_hash: 0xdbb503bc28bafc66,
        counters_hash: 0x6796a9779c713c00,
        trace_hash: 0xc8aa38a18b65b307,
        nodes_explored: 2076,
        gap_probes: 5439,
        nets_touched: 253,
        seed_pins: 6776,
    },
    Golden {
        name: "d5",
        design_hash: 0x9b2f868943335d13,
        outcome_hash: 0x2c3fd2bcc8829b1b,
        counters_hash: 0x7bacc3e415d16193,
        trace_hash: 0xbcaae328ebc8308a,
        nodes_explored: 1178,
        gap_probes: 9777,
        nets_touched: 227,
        seed_pins: 8626,
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
        let composer = Composer::new(options_for(&spec.name), spec.delay_model());
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
            nets_touched: all
                .get("sta.incremental.nets_touched")
                .copied()
                .unwrap_or(0),
            seed_pins: all.get("sta.incremental.seed_pins").copied().unwrap_or(0),
        };
        let render = |g: &Golden| {
            format!(
                "Golden {{ name: \"{}\", design_hash: 0x{:016x}, outcome_hash: 0x{:016x}, \
                 counters_hash: 0x{:016x}, trace_hash: 0x{:016x}, nodes_explored: {}, \
                 gap_probes: {}, nets_touched: {}, seed_pins: {} }}",
                g.name,
                g.design_hash,
                g.outcome_hash,
                g.counters_hash,
                g.trace_hash,
                g.nodes_explored,
                g.gap_probes,
                g.nets_touched,
                g.seed_pins
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
