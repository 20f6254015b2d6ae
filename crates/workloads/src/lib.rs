#![warn(missing_docs)]
//! Synthetic placed designs calibrated to the DAC'17 industrial benchmarks.
//!
//! The paper evaluates on five proprietary 28 nm designs (D1–D5 in Table 1)
//! that are "rich in MBRs after logic synthesis". Those netlists cannot be
//! redistributed, so this crate generates the closest synthetic equivalents:
//! pipelined, clustered, clock-gated register fabrics whose *distributions*
//! match what the composition algorithm actually consumes —
//!
//! * register count and the composable fraction (designer-fixed registers,
//!   classes at max width),
//! * the initial MBR bit-width mix (Fig. 5 "before" bars; D4 is 8-bit-heavy
//!   and therefore barely composable, D2/D5 are 1-bit-heavy),
//! * clock gating groups per placement cluster (functional-unit gating),
//! * scan partitions with a slice of ordered sections,
//! * a realistic slack profile: pipeline stages flow left-to-right across
//!   the die, most hops are short, some cross clusters and fail timing
//!   (the paper reports ≈ 38 % failing endpoints on these pre-optimization
//!   databases).
//!
//! Everything is deterministic per [`DesignSpec::seed`]. The presets
//! [`d1`]..[`d5`] are scaled ~18× down from Table 1's register counts so
//! the full suite runs in seconds; `EXPERIMENTS.md` records the mapping.
//!
//! # Examples
//!
//! ```
//! use mbr_liberty::standard_library;
//! use mbr_workloads::d1;
//!
//! let lib = standard_library();
//! let design = d1().generate(&lib);
//! assert!(design.live_register_count() > 1_000);
//! assert!(design.validate().is_empty());
//! ```

use std::ops::RangeInclusive;

use mbr_core::{Eco, EcoScript};
use mbr_geom::{Dbu, Point, Rect};
use mbr_liberty::{ClassId, Library};
use mbr_netlist::{CombModel, Design, InstId, PinKind, RegisterAttrs, ScanInfo};
use mbr_obs::{SpanHandle, TaskObs};
use mbr_sta::DelayModel;
use mbr_test::Rng;

/// Parameters of a synthetic design. Build one of the presets with
/// [`d1`]..[`d5`] or customize the fields directly.
#[derive(Clone, Debug, PartialEq)]
pub struct DesignSpec {
    /// Design name.
    pub name: String,
    /// RNG seed; equal specs generate identical designs.
    pub seed: u64,
    /// Placement/gating clusters per axis (total clusters = grid²).
    pub cluster_grid: usize,
    /// Register groups (synthesized words) per cluster.
    pub groups_per_cluster: usize,
    /// Registers per group.
    pub regs_per_group: RangeInclusive<usize>,
    /// Probability mass over initial register widths {1, 2, 4, 8}.
    pub width_mix: [f64; 4],
    /// Fraction of groups the "designer" marked fixed (non-composable).
    pub fixed_fraction: f64,
    /// Fraction of groups using the scan register class.
    pub scan_fraction: f64,
    /// Of the scan groups, the fraction placed in ordered scan sections.
    pub ordered_scan_fraction: f64,
    /// Maximum extra buffers inserted on a data path (delay diversity).
    pub extra_buffer_depth: usize,
    /// Placement-area utilization target (0–1).
    pub utilization: f64,
    /// Suggested clock period for timing analysis, ps (tuned so the base
    /// design shows a realistic failing-endpoint ratio).
    pub clock_period: f64,
    /// Number of clock domains (≥ 1). Clusters are assigned round-robin;
    /// composition never merges across domains.
    pub clock_domains: usize,
    /// Wire R/C multiplier for the suggested delay model. The presets are
    /// scaled ~18× down from the paper's designs in register count (~4× in
    /// die side), so unit-length parasitics are scaled *up* to restore the
    /// paper's ratio of slack-derived feasible-region size to die size —
    /// the quantity that shapes the compatibility graph.
    pub wire_scale: f64,
}

impl DesignSpec {
    /// Generates the placed design against `lib` (normally
    /// [`mbr_liberty::standard_library`]).
    ///
    /// The result is structurally valid ([`Design::validate`] is empty) and
    /// deterministic in `seed`.
    pub fn generate(&self, lib: &Library) -> Design {
        Generator::new(self, lib).run()
    }

    /// The suggested delay model: the default model at
    /// [`DesignSpec::clock_period`], with wire R and C scaled by
    /// [`DesignSpec::wire_scale`].
    pub fn delay_model(&self) -> DelayModel {
        let base = DelayModel::default();
        DelayModel {
            clock_period: self.clock_period,
            wire_res_per_dbu: base.wire_res_per_dbu * self.wire_scale,
            wire_cap_per_dbu: base.wire_cap_per_dbu * self.wire_scale,
            ..base
        }
    }
}

/// D1: balanced width mix, ~62 % composable (Table 1: 29 416 regs, 18 332
/// composable, −38 % total / −61 % composable after composition).
pub fn d1() -> DesignSpec {
    DesignSpec {
        name: "d1".into(),
        seed: 0xD1,
        cluster_grid: 4,
        groups_per_cluster: 17,
        regs_per_group: 4..=8,
        width_mix: [0.42, 0.22, 0.20, 0.16],
        fixed_fraction: 0.14,
        scan_fraction: 0.25,
        ordered_scan_fraction: 0.20,
        extra_buffer_depth: 4,
        utilization: 0.40,
        clock_period: 460.0,
        clock_domains: 1,
        wire_scale: 1.0,
    }
}

/// D2: 1-bit heavy, the most composable design (Table 1: 37 401 regs, 75 %
/// composable, the largest total-register saving at −39 %).
pub fn d2() -> DesignSpec {
    DesignSpec {
        name: "d2".into(),
        seed: 0xD2,
        cluster_grid: 4,
        groups_per_cluster: 22,
        regs_per_group: 4..=9,
        width_mix: [0.52, 0.24, 0.14, 0.10],
        fixed_fraction: 0.10,
        scan_fraction: 0.30,
        ordered_scan_fraction: 0.15,
        extra_buffer_depth: 4,
        utilization: 0.40,
        clock_period: 460.0,
        clock_domains: 1,
        wire_scale: 1.0,
    }
}

/// D3: mid-size mix with more 4-bit content (Table 1: 34 519 regs, 63 %
/// composable, −26 % total).
pub fn d3() -> DesignSpec {
    DesignSpec {
        name: "d3".into(),
        seed: 0xD3,
        cluster_grid: 5,
        groups_per_cluster: 13,
        regs_per_group: 4..=8,
        width_mix: [0.36, 0.24, 0.25, 0.15],
        fixed_fraction: 0.16,
        scan_fraction: 0.25,
        ordered_scan_fraction: 0.25,
        extra_buffer_depth: 5,
        utilization: 0.40,
        clock_period: 440.0,
        clock_domains: 1,
        wire_scale: 1.0,
    }
}

/// D4: already 8-bit dominated after synthesis — the paper's hardest case
/// (Table 1: 50 392 regs, only 44 % composable, −15 % total; motivates the
/// future-work decomposition).
pub fn d4() -> DesignSpec {
    DesignSpec {
        name: "d4".into(),
        seed: 0xD4,
        cluster_grid: 5,
        groups_per_cluster: 18,
        regs_per_group: 4..=8,
        width_mix: [0.20, 0.12, 0.18, 0.50],
        fixed_fraction: 0.12,
        scan_fraction: 0.25,
        ordered_scan_fraction: 0.20,
        extra_buffer_depth: 4,
        utilization: 0.40,
        clock_period: 460.0,
        clock_domains: 1,
        wire_scale: 1.0,
    }
}

/// D5: like D2 but smaller clusters and more ordered scan (Table 1: 34 519
/// regs, 63 % composable, −33 % total / −54 % composable).
pub fn d5() -> DesignSpec {
    DesignSpec {
        name: "d5".into(),
        seed: 0xD5,
        cluster_grid: 5,
        groups_per_cluster: 13,
        regs_per_group: 4..=8,
        width_mix: [0.46, 0.24, 0.18, 0.12],
        fixed_fraction: 0.15,
        scan_fraction: 0.35,
        ordered_scan_fraction: 0.30,
        extra_buffer_depth: 5,
        utilization: 0.40,
        clock_period: 420.0,
        clock_domains: 1,
        wire_scale: 1.0,
    }
}

/// All five paper-calibrated presets, in order. These are the ~18×
/// down-scaled suite every tier-1 test sweeps; the paper-scale presets
/// ([`d6`]..[`d8`]) live in [`paper_presets`] so nothing iterates into a
/// 500k-register generate by accident.
pub fn all_presets() -> Vec<DesignSpec> {
    vec![d1(), d2(), d3(), d4(), d5()]
}

/// D6: full paper scale (≈20k registers, the Table 1 ballpark), 1-bit
/// heavy like D2 so the set-partitioning load is maximal. The die grows
/// ~3.5× over the scaled suite, so `wire_scale` drops to keep the paper's
/// feasible-region-to-die ratio — the quantity that shapes compatibility
/// density — rather than inheriting the scaled-up parasitics of d1–d5.
pub fn d6() -> DesignSpec {
    DesignSpec {
        name: "d6".into(),
        seed: 0xD6,
        cluster_grid: 8,
        groups_per_cluster: 52,
        regs_per_group: 4..=8,
        width_mix: [0.52, 0.24, 0.14, 0.10],
        fixed_fraction: 0.10,
        scan_fraction: 0.30,
        ordered_scan_fraction: 0.15,
        extra_buffer_depth: 4,
        utilization: 0.40,
        clock_period: 460.0,
        clock_domains: 1,
        wire_scale: 0.3,
    }
}

/// D7: 5× beyond the paper (≈100k registers), balanced width mix.
pub fn d7() -> DesignSpec {
    DesignSpec {
        name: "d7".into(),
        seed: 0xD7,
        cluster_grid: 12,
        groups_per_cluster: 116,
        regs_per_group: 4..=8,
        width_mix: [0.42, 0.22, 0.20, 0.16],
        fixed_fraction: 0.14,
        scan_fraction: 0.25,
        ordered_scan_fraction: 0.20,
        extra_buffer_depth: 4,
        utilization: 0.40,
        clock_period: 460.0,
        clock_domains: 2,
        wire_scale: 0.13,
    }
}

/// D8: ≈500k registers — an order of magnitude past Table 1, for probing
/// where the bounded solver and the enumeration budgets saturate.
pub fn d8() -> DesignSpec {
    DesignSpec {
        name: "d8".into(),
        seed: 0xD8,
        cluster_grid: 20,
        groups_per_cluster: 208,
        regs_per_group: 4..=8,
        width_mix: [0.46, 0.24, 0.18, 0.12],
        fixed_fraction: 0.12,
        scan_fraction: 0.25,
        ordered_scan_fraction: 0.20,
        extra_buffer_depth: 4,
        utilization: 0.40,
        clock_period: 460.0,
        clock_domains: 4,
        wire_scale: 0.06,
    }
}

/// The paper-scale presets [`d6`]..[`d8`], in order. Deliberately not part
/// of [`all_presets`]: generating d8 alone takes longer than the whole
/// scaled suite, so these are opt-in (scale tests, the `scale` bench).
pub fn paper_presets() -> Vec<DesignSpec> {
    vec![d6(), d7(), d8()]
}

/// Runs `f` once per preset on the parallel executor, returning results in
/// preset order with each run's buffered observability already replayed on
/// the calling thread. The preset sweeps are independent flows, so they run
/// concurrently; replay-in-order keeps `MBR_TRACE` output and `--report`
/// summaries identical at every thread count.
pub fn sweep_presets<R: Send>(
    presets: &[DesignSpec],
    f: impl Fn(&DesignSpec) -> R + Sync,
) -> Vec<R> {
    let handle = SpanHandle::current();
    let results = mbr_par::par_map(mbr_par::thread_count(), presets, |_, spec| {
        TaskObs::capture(&handle, || f(spec))
    });
    results
        .into_iter()
        .map(|(r, task_obs)| {
            task_obs.replay(&handle);
            r
        })
        .collect()
}

/// A deterministic, non-structural ECO script against `design` (which must
/// be `spec.generate(lib)` or an un-mutated copy of it): placement jitters
/// of a few microns snapped to the row/site grid, with an occasional drive
/// retarget within the same cell class and width. Non-structural on purpose
/// — these are the ECOs a session re-composes incrementally, so the `incr`
/// bench measures reuse rather than rebuild.
///
/// Seeded from `spec.seed`, so equal specs give equal scripts.
///
/// # Panics
///
/// Panics if `design` has no movable (live, non-fixed) registers.
pub fn eco_script_for(spec: &DesignSpec, design: &Design, lib: &Library, len: usize) -> EcoScript {
    let mut rng = Rng::seed_from_u64(spec.seed ^ 0xEC0);
    let movable: Vec<InstId> = design
        .registers()
        .filter(|(_, inst)| !inst.register_attrs().expect("register").fixed)
        .map(|(id, _)| id)
        .collect();
    assert!(!movable.is_empty(), "no movable registers in {}", spec.name);
    let die = design.die();
    let (site, row) = (100, 600);
    let mut ecos = Vec::with_capacity(len);
    for _ in 0..len {
        let inst = design.inst(movable[rng.gen_range(0..movable.len())]);
        if rng.gen_bool(0.25) {
            // Retarget: a different drive grade of the same class and width
            // (the only swap `resize_register` accepts), keeping the scan
            // style so chain connectivity stays well-formed.
            let cell = lib.cell(inst.register_cell().expect("register"));
            let variants: Vec<_> = lib
                .cells_of(cell.class, cell.width)
                .filter(|&c| {
                    let v = lib.cell(c);
                    v.scan_style == cell.scan_style && v.name != cell.name
                })
                .collect();
            if !variants.is_empty() {
                let pick = variants[rng.gen_range(0..variants.len())];
                ecos.push(Eco::Retarget {
                    name: inst.name.clone(),
                    cell: lib.cell(pick).name.clone(),
                });
                continue;
            }
        }
        // Move: jitter up to ±5 µm, clamped into the die and snapped to the
        // site/row grid so un-merged registers stay legally placed.
        let dx = rng.gen_range(-50i64..=50) * site;
        let dy = rng.gen_range(-8i64..=8) * row;
        let snap = |v: i64, lo: i64, hi: i64, step: i64| {
            let v = v.clamp(lo, hi);
            lo + (v - lo) / step * step
        };
        let x = snap(inst.loc.x + dx, die.lo().x, die.hi().x - inst.width, site);
        let y = snap(inst.loc.y + dy, die.lo().y, die.hi().y - inst.height, row);
        ecos.push(Eco::Move {
            name: inst.name.clone(),
            x,
            y,
        });
    }
    EcoScript { ecos }
}

// ---------------------------------------------------------------------
// Generator internals
// ---------------------------------------------------------------------

struct GroupSpec {
    cluster: usize,
    class: ClassId,
    widths: Vec<u8>,
    fixed: bool,
    scan: Option<ScanGroup>,
}

struct ScanGroup {
    partition: u16,
    /// Ordered section id when the group's chain order is constrained.
    section: Option<u32>,
}

struct Generator<'a> {
    spec: &'a DesignSpec,
    lib: &'a Library,
    rng: Rng,
}

impl<'a> Generator<'a> {
    fn new(spec: &'a DesignSpec, lib: &'a Library) -> Self {
        Generator {
            spec,
            lib,
            rng: Rng::seed_from_u64(spec.seed),
        }
    }

    fn sample_width(&mut self) -> u8 {
        let widths = [1u8, 2, 4, 8];
        let total: f64 = self.spec.width_mix.iter().sum();
        let mut roll = self.rng.f64() * total;
        for (i, &w) in widths.iter().enumerate() {
            roll -= self.spec.width_mix[i];
            if roll <= 0.0 {
                return w;
            }
        }
        8
    }

    fn pick_class(&mut self, scan: bool) -> ClassId {
        let name = if scan {
            "SDFF_R"
        } else {
            match self.rng.gen_range(0..10) {
                0..=4 => "DFF_R",
                5..=6 => "DFF",
                7..=8 => "DFF_EN_R",
                _ => "DFF_RS",
            }
        };
        self.lib
            .class_by_name(name)
            .expect("standard library class")
    }

    fn run(mut self) -> Design {
        let spec = self.spec;
        let clusters = spec.cluster_grid * spec.cluster_grid;

        // ---- plan the register groups ----
        let mut groups: Vec<GroupSpec> = Vec::new();
        let mut next_section = 0u32;
        for cluster in 0..clusters {
            for _ in 0..spec.groups_per_cluster {
                let scan = self.rng.f64() < spec.scan_fraction;
                let class = self.pick_class(scan);
                let n = self.rng.gen_range(spec.regs_per_group.clone());
                let widths: Vec<u8> = (0..n).map(|_| self.sample_width()).collect();
                let scan = scan.then(|| {
                    let ordered = self.rng.f64() < spec.ordered_scan_fraction;
                    ScanGroup {
                        partition: (cluster % 4) as u16,
                        section: ordered.then(|| {
                            next_section += 1;
                            next_section
                        }),
                    }
                });
                groups.push(GroupSpec {
                    cluster,
                    class,
                    widths,
                    fixed: self.rng.f64() < spec.fixed_fraction,
                    scan,
                });
            }
        }

        // ---- size the die from the planned area ----
        let reg_area: f64 = groups
            .iter()
            .flat_map(|g| g.widths.iter())
            .map(|&w| {
                // Representative area of a w-bit cell.
                let class = self.lib.class_by_name("DFF_R").expect("class");
                self.lib
                    .cells_of(class, w)
                    .map(|id| self.lib.cell(id).area)
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        let total_bits: usize = groups.iter().map(|g| g.widths.len()).sum::<usize>();
        let comb_area = total_bits as f64 * 2.5 * CombModel::nand2().area;
        let die_area_um2 = (reg_area + comb_area) / spec.utilization;
        // 1 µm² = 1e6 DBU²; square die rounded to whole rows.
        let side = ((die_area_um2 * 1e6).sqrt() as Dbu / 600) * 600 + 600;
        let die = Rect::from_origin_size(Point::ORIGIN, side, side);
        let mut design = Design::new(spec.name.clone(), die);

        // ---- shared nets and ports ----
        let domains = spec.clock_domains.max(1);
        let clocks: Vec<_> = (0..domains)
            .map(|k| {
                let net = design.add_net(format!("clk{k}"));
                let port = design.add_input_port(
                    format!("CLK{k}"),
                    Point::new(0, side / 2 - 600 * k as i64 * 2),
                    0.5,
                );
                design.connect(design.inst(port).pins[0], net);
                net
            })
            .collect();
        let rst = design.add_net("rst_n");
        let rst_port = design.add_input_port("RST", Point::new(0, side / 2 + 600), 1.0);
        design.connect(design.inst(rst_port).pins[0], rst);
        let set = design.add_net("set_n");
        let set_port = design.add_input_port("SET", Point::new(0, side / 2 - 600), 1.0);
        design.connect(design.inst(set_port).pins[0], set);
        let se = design.add_net("scan_en");
        let se_port = design.add_input_port("SE", Point::new(0, side / 2 + 1_200), 1.0);
        design.connect(design.inst(se_port).pins[0], se);
        let nand = design.add_comb_model(CombModel::nand2());
        let buf = design.add_comb_model(CombModel::buffer());

        // Per-cluster enable nets for DFF_EN_R groups.
        let enables: Vec<_> = (0..clusters)
            .map(|c| {
                let net = design.add_net(format!("en_{c}"));
                let port = design.add_input_port(
                    format!("EN{c}"),
                    Point::new(0, 1_800 + 600 * c as i64),
                    1.0,
                );
                design.connect(design.inst(port).pins[0], net);
                net
            })
            .collect();

        // ---- place the registers cluster by cluster ----
        let grid = spec.cluster_grid as i64;
        let cluster_w = side / grid;
        let cluster_h = side / grid;

        // All register instances by cluster column (pipeline stage).
        let mut stage_regs: Vec<Vec<(InstId, u8)>> = vec![Vec::new(); spec.cluster_grid];
        let mut reg_insts: Vec<(InstId, usize)> = Vec::new(); // (inst, cluster)

        for (gi, group) in groups.iter().enumerate() {
            let cluster = group.cluster;
            let column = cluster % spec.cluster_grid;
            let cluster_x0 = (cluster as i64 % grid) * cluster_w;
            let cluster_y0 = (cluster as i64 / grid) * cluster_h;
            // Each word occupies a short run along a row (datapath slice)
            // with logic-sized gaps between its registers; words land on
            // random rows of the cluster, so nearby words overlap within
            // the composition window while far ones do not.
            let rows_in_cluster = (cluster_h / 600 - 2).max(1);
            let mut row_y = cluster_y0 + 600 * (1 + self.rng.gen_range(0..rows_in_cluster));
            let mut x = cluster_x0 + 600 + self.rng.gen_range(0..60) as i64 * 100;
            for (ri, &width) in group.widths.iter().enumerate() {
                // Post-optimization designs carry a drive-strength mix; the
                // MBR mapper must honour the strongest member, and sizing
                // later relaxes it where slack allows.
                let strength = match self.rng.gen_range(0..10) {
                    0..=4 => 1.0,
                    5..=7 => 2.0,
                    _ => 4.0,
                };
                let base_r = self
                    .lib
                    .drive_resistance(group.class, mbr_liberty::DriveClass::X1)
                    .expect("X1 exists");
                let cell = self
                    .lib
                    .select_cell(group.class, width, Some(base_r / strength + 1e-9), false)
                    .expect("standard library covers all widths");
                let cell_def = self.lib.cell(cell);
                // Logic-sized gap to the previous register of the word.
                let gap = (4 + self.rng.gen_range(0..10) as i64) * 100;
                if x + gap + cell_def.footprint_w > cluster_x0 + cluster_w - 600 {
                    row_y += 600;
                    x = cluster_x0 + 600 + self.rng.gen_range(0..8) as i64 * 100;
                }
                if row_y + 600 > cluster_y0 + cluster_h {
                    row_y = cluster_y0 + 600; // extremely dense: wrap
                }
                x += gap;
                let loc = Point::new(x, row_y);
                x += cell_def.footprint_w;

                let class_def = self.lib.class(group.class);
                let mut attrs = RegisterAttrs::clocked(clocks[cluster % domains]);
                attrs.gate_group = cluster as u32;
                if class_def.has_reset {
                    attrs.reset = Some(rst);
                }
                if class_def.has_set {
                    attrs.set = Some(set);
                }
                if class_def.has_enable {
                    attrs.enable = Some(enables[cluster]);
                }
                if class_def.has_scan {
                    attrs.scan_enable = Some(se);
                }
                attrs.fixed = group.fixed;
                if let Some(scan) = &group.scan {
                    attrs.scan = Some(ScanInfo {
                        partition: scan.partition,
                        section: scan.section.map(|s| (s, ri as u32)),
                    });
                }
                let inst = design.add_register(format!("g{gi}_r{ri}"), self.lib, cell, loc, attrs);
                stage_regs[column].push((inst, width));
                reg_insts.push((inst, cluster));
            }
        }

        // ---- wire the pipeline ----
        // Every D pin is driven by a NAND2 (optionally behind a buffer
        // chain) whose inputs come from Q pins of the previous column, or
        // from input ports at column 0. Q pins feed those gates and, for
        // the last column, output ports.
        let mut gate_count = 0usize;
        let mut port_count = 0usize;
        let columns = spec.cluster_grid;
        // Pre-collect Q pins per column, bucketed by grid row so dataflow
        // can stay mostly row-local (real floorplans route short; rare long
        // hops provide the critical tail).
        let rows = spec.cluster_grid;
        let mut q_pins: Vec<Vec<mbr_netlist::PinId>> = vec![Vec::new(); columns];
        let mut q_pins_by_row: Vec<Vec<Vec<mbr_netlist::PinId>>> =
            vec![vec![Vec::new(); rows]; columns];
        for (col, regs) in stage_regs.iter().enumerate() {
            for &(inst, width) in regs {
                let row =
                    ((design.inst(inst).loc.y / cluster_h).clamp(0, rows as i64 - 1)) as usize;
                for b in 0..width {
                    let q = design
                        .find_pin(inst, PinKind::Q(b))
                        .expect("register Q pin");
                    q_pins[col].push(q);
                    q_pins_by_row[col][row].push(q);
                }
            }
        }
        // Q nets, created lazily.
        let mut q_nets: std::collections::HashMap<mbr_netlist::PinId, mbr_netlist::NetId> =
            std::collections::HashMap::new();

        let mut primary_inputs: Vec<mbr_netlist::NetId> = Vec::new();
        for i in 0..8 {
            let net = design.add_net(format!("pi_{i}"));
            let port = design.add_input_port(format!("PI{i}"), Point::new(0, 3_000 + 600 * i), 2.0);
            design.connect(design.inst(port).pins[0], net);
            primary_inputs.push(net);
        }

        for col in 0..columns {
            let regs = stage_regs[col].clone();
            for (inst, width) in regs {
                let near = design.inst(inst).loc;
                let my_row = ((near.y / cluster_h).clamp(0, rows as i64 - 1)) as usize;
                for b in 0..width {
                    let d_pin = design.find_pin(inst, PinKind::D(b)).expect("D pin");
                    // Driving gate placed near the register.
                    let gloc = Point::new(
                        (near.x - 600 - self.rng.gen_range(0..10) as i64 * 100).max(0),
                        (near.y - 600).max(0),
                    );
                    let gate = design.add_comb(format!("gd{gate_count}"), nand, gloc);
                    gate_count += 1;
                    let gout = design.find_pin(gate, PinKind::GateOut).expect("out");

                    // Source signals.
                    for input in 0..2u8 {
                        let ipin = design.find_pin(gate, PinKind::GateIn(input)).expect("in");
                        let src_net = if col == 0 {
                            primary_inputs[self.rng.gen_range(0..primary_inputs.len())]
                        } else {
                            // 85 % row-local hop, 15 % anywhere in the
                            // previous column (long critical paths).
                            let local = &q_pins_by_row[col - 1][my_row];
                            let prev: &[mbr_netlist::PinId] =
                                if !local.is_empty() && self.rng.f64() < 0.85 {
                                    local
                                } else {
                                    &q_pins[col - 1]
                                };
                            let q = prev[self.rng.gen_range(0..prev.len())];
                            *q_nets.entry(q).or_insert_with(|| {
                                let net = design.add_net(format!("q_{}", q.index()));
                                design.connect(q, net);
                                net
                            })
                        };
                        design.connect(ipin, src_net);
                    }

                    // Optional buffer chain between gate and D for depth
                    // diversity (long paths).
                    let depth = if self.rng.f64() < 0.3 {
                        self.rng.gen_range(1..=spec.extra_buffer_depth.max(1))
                    } else {
                        0
                    };
                    let mut driver_out = gout;
                    let mut bx = gloc.x;
                    for _ in 0..depth {
                        bx = (bx + 1_000).min(side - 600);
                        let binst =
                            design.add_comb(format!("gb{gate_count}"), buf, Point::new(bx, gloc.y));
                        gate_count += 1;
                        let bin = design.find_pin(binst, PinKind::GateIn(0)).expect("in");
                        let net = design.add_net(format!("bn{gate_count}"));
                        design.connect(driver_out, net);
                        design.connect(bin, net);
                        driver_out = design.find_pin(binst, PinKind::GateOut).expect("out");
                    }
                    let dnet = design.add_net(format!("dn{gate_count}_{b}"));
                    design.connect(driver_out, dnet);
                    design.connect(d_pin, dnet);
                }
            }
        }

        // Last-column Q pins drive output ports.
        let last = q_pins[columns - 1].clone();
        for q in last {
            let net = *q_nets.entry(q).or_insert_with(|| {
                let n = design.add_net(format!("q_{}", q.index()));
                design.connect(q, n);
                n
            });
            // Only give a port to nets without one yet.
            if design.net_sinks(net).next().is_none() {
                let port = design.add_output_port(
                    format!("PO{port_count}"),
                    Point::new(side, 3_000 + 600 * (port_count as i64 % 64)),
                    1.5,
                );
                port_count += 1;
                design.connect(design.inst(port).pins[0], net);
            }
        }

        design
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbr_liberty::standard_library;

    #[test]
    fn eco_scripts_are_deterministic_and_round_trip() {
        let lib = standard_library();
        let spec = d1();
        let design = spec.generate(&lib);
        let a = eco_script_for(&spec, &design, &lib, 24);
        let b = eco_script_for(&spec, &design, &lib, 24);
        assert_eq!(a, b);
        assert_eq!(a.ecos.len(), 24);
        // Non-structural by construction, and survives the text format.
        assert!(a.ecos.iter().all(|e| !e.is_structural()));
        assert_eq!(EcoScript::parse(&a.to_string()).expect("parses"), a);
        // Both profiles show up at this length.
        assert!(a.ecos.iter().any(|e| matches!(e, Eco::Move { .. })));
        assert!(a.ecos.iter().any(|e| matches!(e, Eco::Retarget { .. })));
    }

    #[test]
    fn sweep_runs_every_preset_in_order() {
        let presets = all_presets();
        let names = sweep_presets(&presets, |spec| spec.name.clone());
        let expect: Vec<String> = presets.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, expect);
    }

    #[test]
    fn d1_is_deterministic_and_valid() {
        let lib = standard_library();
        let a = d1().generate(&lib);
        let b = d1().generate(&lib);
        assert_eq!(a.live_register_count(), b.live_register_count());
        assert_eq!(a.wirelength(), b.wirelength());
        assert!(
            a.validate().is_empty(),
            "{:?}",
            &a.validate()[..5.min(a.validate().len())]
        );
    }

    #[test]
    fn presets_hit_their_register_budgets() {
        let lib = standard_library();
        for spec in all_presets() {
            let d = spec.generate(&lib);
            let regs = d.live_register_count();
            assert!(
                (800..4_000).contains(&regs),
                "{}: {regs} registers out of the expected band",
                spec.name
            );
        }
    }

    #[test]
    fn paper_presets_hit_paper_scale() {
        // d6 is cheap enough to generate in tier-1; d7/d8 are budgeted by
        // arithmetic only (generation is the scale tests' job).
        let lib = standard_library();
        let d = d6().generate(&lib);
        let regs = d.live_register_count();
        assert!(
            (17_000..24_000).contains(&regs),
            "d6 must sit at the paper's ≈20k registers, got {regs}"
        );
        let expected = |s: &DesignSpec| {
            let mean = (s.regs_per_group.start() + s.regs_per_group.end()) / 2;
            s.cluster_grid * s.cluster_grid * s.groups_per_cluster * mean
        };
        assert!((90_000..115_000).contains(&expected(&d7())));
        assert!((450_000..550_000).contains(&expected(&d8())));
        let names: Vec<_> = paper_presets().iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, ["d6", "d7", "d8"]);
    }

    #[test]
    fn d4_is_eight_bit_heavy_and_less_composable() {
        let lib = standard_library();
        let d4_design = d4().generate(&lib);
        let d2_design = d2().generate(&lib);
        let frac8 = |d: &Design| {
            let total = d.live_register_count() as f64;
            let eights = d
                .registers()
                .filter(|&(id, _)| d.register_width(id) == 8)
                .count() as f64;
            eights / total
        };
        assert!(
            frac8(&d4_design) > 0.4,
            "d4 should be 8-bit heavy: {}",
            frac8(&d4_design)
        );
        assert!(
            frac8(&d2_design) < 0.2,
            "d2 is 1-bit heavy: {}",
            frac8(&d2_design)
        );
    }

    #[test]
    fn different_seeds_give_different_designs() {
        let lib = standard_library();
        let mut spec = d1();
        let a = spec.generate(&lib);
        spec.seed = 12345;
        let b = spec.generate(&lib);
        assert_ne!(a.wirelength(), b.wirelength());
    }

    #[test]
    fn designs_have_scan_and_gating_diversity() {
        let lib = standard_library();
        let d = d5().generate(&lib);
        let mut gate_groups = std::collections::HashSet::new();
        let mut scan_parts = std::collections::HashSet::new();
        let mut ordered = 0usize;
        let mut fixed = 0usize;
        for (_, inst) in d.registers() {
            let attrs = inst.register_attrs().expect("register");
            gate_groups.insert(attrs.gate_group);
            if let Some(scan) = attrs.scan {
                scan_parts.insert(scan.partition);
                if scan.section.is_some() {
                    ordered += 1;
                }
            }
            if attrs.fixed {
                fixed += 1;
            }
        }
        assert!(gate_groups.len() >= 8, "gating per cluster");
        assert!(scan_parts.len() >= 2, "multiple scan partitions");
        assert!(ordered > 0, "some ordered scan sections");
        assert!(fixed > 0, "some designer-fixed registers");
    }
}
