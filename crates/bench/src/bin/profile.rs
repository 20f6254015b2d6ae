//! Stage-by-stage timing of the composition flow on d1, rendered on the
//! shared [`mbr_obs::table`] path the other flow binaries use.
use mbr_bench::{generate, library, model_for};
use mbr_core::candidates::enumerate_candidates;
use mbr_core::compat::CompatGraph;
use mbr_core::{Composer, ComposerOptions};
use mbr_obs::table::{fmt_ns, Table};
use mbr_sta::Sta;

/// Collects `(stage, elapsed, note)` rows and renders them as one table.
struct Profile {
    table: Table,
}

impl Profile {
    fn new() -> Profile {
        Profile {
            table: Table::new(["stage", "time", "notes"]).right_align([1]),
        }
    }

    fn time<T>(&mut self, stage: &str, f: impl FnOnce() -> (T, String)) -> T {
        // Reads time through the injectable mbr-obs clock, so a MockClock
        // test can drive this path deterministically.
        let t0 = mbr_obs::now_ns();
        let (value, note) = f();
        let ns = mbr_obs::now_ns().saturating_sub(t0);
        self.table.row([stage.to_string(), fmt_ns(ns), note]);
        value
    }

    fn render(&self) {
        print!("{}", self.table.render());
    }
}

fn main() {
    let lib = library();
    let arg = std::env::args().nth(1).unwrap_or_default();
    if arg == "decompose" {
        profile_decompose(&lib);
        return;
    }
    let spec = mbr_workloads::d1();
    let design = generate(&spec, &lib);
    let model = model_for(&spec);
    let options = ComposerOptions::default();
    let mut p = Profile::new();

    let sta = p.time("sta", || {
        (Sta::new(&design, &lib, model).unwrap(), String::new())
    });
    let compat = p.time("compat", || {
        let compat = CompatGraph::build(&design, &lib, &sta, &options);
        let note = format!(
            "{} regs, {} edges",
            compat.regs.len(),
            compat.graph.edge_count()
        );
        (compat, note)
    });
    let sets = p.time("enumerate", || {
        let sets = enumerate_candidates(&design, &lib, &compat, &options);
        let n: usize = sets.iter().map(|s| s.candidates.len()).sum();
        (sets, format!("{n} candidates"))
    });
    p.time("ilp", || {
        let mut solve_nodes = 0u64;
        for set in &sets {
            let mut sp = mbr_lp::SetPartition::new(set.elements.len());
            for (i, idx) in set.member_idx.iter().enumerate() {
                sp.add_candidate(idx, set.candidates[i].weight);
            }
            solve_nodes += sp.solve_bounded(50_000).unwrap().nodes_explored;
        }
        ((), format!("{solve_nodes} nodes"))
    });

    // Full flow with and without skew/sizing.
    p.time("full flow (no skew/sizing)", || {
        let mut work = design.clone();
        let composer = Composer::new(
            ComposerOptions {
                apply_useful_skew: false,
                apply_sizing: false,
                ..options.clone()
            },
            model,
        );
        composer.compose(&mut work, &lib).unwrap();
        ((), String::new())
    });
    p.time("full flow (default)", || {
        let mut work = design.clone();
        let composer = Composer::new(options, model);
        composer.compose(&mut work, &lib).unwrap();
        ((), String::new())
    });
    p.render();
}

/// Stage timing of the speculative decomposition path on d4.
fn profile_decompose(lib: &mbr_liberty::Library) {
    let spec = mbr_workloads::d4();
    let mut design = generate(&spec, lib);
    let model = model_for(&spec);
    let options = ComposerOptions::default();
    let mut p = Profile::new();

    // Split all max-width MBRs manually to time the recomposition stages.
    let targets = p.time("targets", || {
        let targets: Vec<_> = design
            .registers()
            .filter(|(id, inst)| {
                let cell = inst.register_cell().expect("register");
                design.register_width(*id) >= lib.max_width(lib.cell(cell).class)
                    && design.register_width(*id) > 1
            })
            .map(|(id, _)| id)
            .collect();
        let note = format!("{} registers", targets.len());
        (targets, note)
    });
    let bits = p.time("split", || {
        let mut bits = Vec::new();
        for id in targets {
            let class = lib.cell(design.inst(id).register_cell().unwrap()).class;
            if let Some(cell) = lib.select_cell(class, 1, None, false) {
                if let Ok(b) = design.split_register(id, lib, cell) {
                    bits.extend(b);
                }
            }
        }
        let note = format!("{} bits", bits.len());
        (bits, note)
    });
    p.time("legalize", || {
        let grid = mbr_place::PlacementGrid::new(design.die(), 600, 100);
        mbr_place::legalize(&mut design, &grid, &bits).expect("room");
        ((), String::new())
    });
    let sta = p.time("sta", || {
        (Sta::new(&design, lib, model).unwrap(), String::new())
    });
    let compat = p.time("compat", || {
        let compat = CompatGraph::build(&design, lib, &sta, &options);
        let note = format!(
            "{} regs, {} edges",
            compat.regs.len(),
            compat.graph.edge_count()
        );
        (compat, note)
    });
    let sets = p.time("enumerate", || {
        let sets = enumerate_candidates(&design, lib, &compat, &options);
        let n: usize = sets.iter().map(|s| s.candidates.len()).sum();
        let note = format!("{n} candidates, {} partitions", sets.len());
        (sets, note)
    });
    p.time("ilp", || {
        let mut nodes = 0u64;
        for set in &sets {
            let mut sp = mbr_lp::SetPartition::new(set.elements.len());
            sp.set_lp_bound(options.lp_bound);
            for (i, idx) in set.member_idx.iter().enumerate() {
                sp.add_candidate(idx, set.candidates[i].weight);
            }
            nodes += sp
                .solve_bounded(options.node_budget)
                .unwrap()
                .nodes_explored;
        }
        ((), format!("{nodes} nodes"))
    });
    p.time("rest of flow", || {
        let composer = Composer::new(options.clone(), model);
        let out = composer.compose(&mut design, lib).unwrap();
        ((), format!("{} merges", out.merges))
    });
    p.render();
}
