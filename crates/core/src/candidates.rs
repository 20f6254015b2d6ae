//! Section 3: enumeration of valid candidate MBRs.
//!
//! The compatibility graph is decomposed (connected components → geometric
//! K-partitioning under the node bound), each partition's maximal cliques
//! are enumerated with Bron–Kerbosch, and every sub-clique whose total bit
//! count matches a library width — or, when incomplete MBRs are allowed,
//! rounds up to one under the area rule — becomes a candidate, weighted by
//! the Section 3.2 blocking heuristic.
//!
//! Batch and session passes run the same enumeration. A session pass also
//! keys each partition on its content and reuses the candidate set and
//! assignment solution of a partition that the previous pass held with the
//! same key ([`PartitionCache`], which holds that one pass).

use std::collections::BTreeMap;
use std::sync::Arc;

use mbr_geom::{Point, Rect};
use mbr_graph::{partition_geometric, BitGraph, SubcliqueStep};
use mbr_liberty::{CellId, Library, ScanStyle};
use mbr_netlist::{Design, InstId};
use mbr_obs::{self as obs, Counter, Histogram, HistogramData};

use crate::compat::CompatGraph;
use crate::u64set::U64Set;
use crate::weight::{candidate_weight, BlockerIndex, RegisterIndex};
use crate::ComposerOptions;

/// A valid candidate MBR: a clique of compatible registers plus its
/// pre-resolved library mapping and ILP weight.
#[derive(Clone, Debug)]
pub struct CandidateMbr {
    /// Member registers.
    pub members: Vec<InstId>,
    /// Total connected bits the members contribute.
    pub bits: u32,
    /// Width of the target library cell (`> bits` for incomplete MBRs).
    pub target_width: u8,
    /// The library cell the candidate maps to (Section 4.1 selection:
    /// drive-resistance ceiling = the members' minimum, then minimum clock
    /// pin cap with the external-scan penalty).
    pub cell: CellId,
    /// ILP weight (always finite; `w = ∞` candidates are never created).
    pub weight: f64,
    /// Whether some D/Q pairs of the target cell stay unconnected.
    pub incomplete: bool,
}

impl CandidateMbr {
    /// Whether this is a "keep the register as is" singleton.
    pub fn is_singleton(&self) -> bool {
        self.members.len() == 1
    }
}

/// The candidates of one partition, ready for the assignment ILP.
#[derive(Clone, Debug)]
pub struct CandidateSet {
    /// The partition's registers (ILP elements, by local index).
    pub elements: Vec<InstId>,
    /// Candidates; `member_idx` entries index into `elements`.
    pub candidates: Vec<CandidateMbr>,
    /// Local element indices per candidate (parallel to `candidates`).
    pub member_idx: Vec<Vec<usize>>,
    /// Whether enumeration hit the per-partition cap.
    pub truncated: bool,
}

/// Loop-invariant enumeration state: the design views and knobs every
/// partition (and every candidate within one) validates against.
struct EnumCtx<'a> {
    design: &'a Design,
    lib: &'a Library,
    compat: &'a CompatGraph,
    index: &'a RegisterIndex,
    options: &'a ComposerOptions,
}

/// Enumerates the candidate sets of every partition of the compatibility
/// graph.
pub fn enumerate_candidates(
    design: &Design,
    lib: &Library,
    compat: &CompatGraph,
    options: &ComposerOptions,
) -> Vec<CandidateSet> {
    enumerate(design, lib, compat, options, None)
        .sets
        .into_iter()
        .map(Arc::unwrap_or_clone)
        .collect()
}

/// The enumeration result the assignment stage consumes: the candidate sets
/// in partition order and, when enumerated against a [`PartitionCache`],
/// each partition's memo key and the memoized solution of every hit.
pub(crate) struct Enumeration {
    /// Candidate sets, in partition order; a memo hit shares its set with
    /// the memo instead of copying it.
    pub sets: Vec<Arc<CandidateSet>>,
    /// Per set: the memoized assignment solution (selected candidate
    /// indices, branch-and-bound nodes) when the partition hit the memo.
    pub reused: Vec<Option<(Vec<usize>, u64)>>,
    /// Per set: its memo key ([`partition_key`]); empty without a memo.
    pub keys: Vec<Vec<u64>>,
}

/// Enumerates every partition, or, given the previous pass's `memo`, only
/// the partitions whose content key misses it; a hit shares the memoized
/// candidate set and carries its assignment solution.
///
/// Counter discipline: [`Counter::CandidatePartitions`] reports the full
/// partition count (it describes the design, not the work), while
/// [`Counter::CandidateSubsetsVisited`] and
/// [`Counter::CandidatesEnumerated`] report enumeration work only, so a
/// session pass reports its savings against batch. Only a memo pass keys
/// its partitions and emits [`Counter::SessionPartitionsReused`] and
/// [`Counter::SessionPartitionsRecomputed`].
pub(crate) fn enumerate(
    design: &Design,
    lib: &Library,
    compat: &CompatGraph,
    options: &ComposerOptions,
    memo: Option<&PartitionCache>,
) -> Enumeration {
    let index = RegisterIndex::build(design);
    let positions = compat.clock_positions();
    let partitions = partition_geometric(&compat.graph, &positions, options.partition_max_nodes);
    let (keys, hits): (Vec<Vec<u64>>, Vec<Option<&MemoSlot>>) = match memo {
        Some(memo) => partitions
            .iter()
            .map(|part| {
                let key = partition_key(design, &index, compat, part);
                let hit = memo.slots.get(&key);
                (key, hit)
            })
            .unzip(),
        None => (Vec::new(), vec![None; partitions.len()]),
    };
    let fresh: Vec<usize> = (0..partitions.len())
        .filter(|&i| hits[i].is_none())
        .collect();

    let ctx = EnumCtx {
        design,
        lib,
        compat,
        index: &index,
        options,
    };
    // Each partition enumerates independently against the shared read-only
    // context; workers return their work counts and the main thread
    // flushes the counters once, so the trace is identical at every thread
    // count (results arrive in partition order by `par_map`'s contract).
    let results: Vec<(CandidateSet, PartitionWork)> =
        mbr_par::par_map(options.threads, &fresh, |_, &i| {
            enumerate_partition(&ctx, &partitions[i])
        });
    let mut work = PartitionWork::default();
    let mut enumerated = 0u64;
    let mut results = results.into_iter();
    let mut sets: Vec<Arc<CandidateSet>> = Vec::with_capacity(partitions.len());
    let mut reused: Vec<Option<(Vec<usize>, u64)>> = Vec::with_capacity(partitions.len());
    for hit in hits {
        match hit {
            Some(slot) => {
                sets.push(Arc::clone(&slot.set));
                reused.push(Some(slot.solve.clone()));
            }
            None => {
                let (set, w) = results.next().expect("one result per fresh partition");
                work.add(&w);
                enumerated += set.candidates.len() as u64;
                sets.push(Arc::new(set));
                reused.push(None);
            }
        }
    }
    obs::counter(Counter::CandidatePartitions, partitions.len() as u64);
    work.flush();
    obs::counter(Counter::CandidatesEnumerated, enumerated);
    if memo.is_some() {
        let recomputed = fresh.len() as u64;
        obs::counter(
            Counter::SessionPartitionsReused,
            partitions.len() as u64 - recomputed,
        );
        obs::counter(Counter::SessionPartitionsRecomputed, recomputed);
    }
    // Hits and fresh partitions alike: the distribution describes the
    // workload the assignment stage is about to see.
    obs::histogram(
        Histogram::CandidatesPerPartition,
        &candidate_size_hist(sets.iter().map(|s| &**s)),
    );
    Enumeration { sets, reused, keys }
}

/// One partition's enumeration work, summed over partitions and flushed on
/// the main thread.
#[derive(Clone, Copy, Debug, Default)]
struct PartitionWork {
    /// Sub-clique subsets visited ([`Counter::CandidateSubsetsVisited`]).
    visited: u64,
    /// Subsets the pre-filters skipped ([`Counter::SetPartCandidatesFiltered`]).
    filtered: u64,
    /// Test polygons built ([`Counter::CandidatePolygons`]).
    polygons: u64,
}

impl PartitionWork {
    fn add(&mut self, other: &PartitionWork) {
        self.visited += other.visited;
        self.filtered += other.filtered;
        self.polygons += other.polygons;
    }

    fn flush(&self) {
        obs::counter(Counter::CandidateSubsetsVisited, self.visited);
        obs::counter(Counter::CandidatePolygons, self.polygons);
        obs::counter(Counter::SetPartCandidatesFiltered, self.filtered);
    }
}

/// The per-partition candidate-count distribution, flushed on the main
/// thread so it is identical at every thread count.
fn candidate_size_hist<'a>(sets: impl Iterator<Item = &'a CandidateSet>) -> HistogramData {
    let mut hist = HistogramData::new();
    for set in sets {
        hist.record(set.candidates.len() as u64);
    }
    hist
}

/// Intersection of the masked members' feasible regions, if non-empty.
///
/// Within a clique this never *is* empty: compatibility edges guarantee
/// pairwise region overlap, and axis-aligned rectangles obey Helly's
/// theorem per axis, so pairwise overlap implies a common point. The
/// subtree cut below is therefore a safety net that keeps the "group
/// displacement within every member's slack" invariant explicit — it
/// starts firing the day regions stop being rectangles — rather than a
/// source of work savings on current designs.
fn common_region(regions: &[Rect], mask: u64) -> Option<Rect> {
    let mut m = mask;
    let first = m.trailing_zeros() as usize;
    m &= m - 1;
    let mut acc = regions[first];
    while m != 0 {
        let i = m.trailing_zeros() as usize;
        m &= m - 1;
        acc = acc.intersection(&regions[i])?;
    }
    Some(acc)
}

fn enumerate_partition(ctx: &EnumCtx<'_>, part: &[usize]) -> (CandidateSet, PartitionWork) {
    let EnumCtx {
        design,
        lib,
        compat,
        index,
        options,
    } = *ctx;
    let bg = BitGraph::from_subgraph(&compat.graph, part);
    let elements: Vec<InstId> = part.iter().map(|&n| compat.regs[n].inst).collect();
    let bits: Vec<u32> = part
        .iter()
        .map(|&n| u32::from(compat.regs[n].width))
        .collect();

    let mut set = CandidateSet {
        elements: elements.clone(),
        candidates: Vec::new(),
        member_idx: Vec::new(),
        truncated: false,
    };

    // Singletons: keeping a register costs 1 toward the objective.
    for (local, &inst) in elements.iter().enumerate() {
        let reg = &compat.regs[part[local]];
        set.candidates.push(CandidateMbr {
            members: vec![inst],
            bits: u32::from(reg.width),
            target_width: reg.width,
            cell: design.inst(inst).register_cell().expect("register"),
            weight: 1.0,
            incomplete: false,
        });
        set.member_idx.push(vec![local]);
    }

    // Every partition is class-pure (edges only join same-class registers),
    // but isolated nodes of different classes can co-exist in singleton
    // partitions; guard by reading the class per clique member instead.
    let max_bits = part
        .iter()
        .map(|&n| u32::from(lib.max_width(compat.regs[n].class)))
        .max()
        .unwrap_or(0);
    // The §3.2 blocker counts, only when weights are placement-aware.
    let mut blockers = options
        .use_blocking_weights
        .then(|| BlockerIndex::build(design, index, &elements, max_bits));

    // Membership-only bitmask dedup on the hot subclique walk; `U64Set`'s
    // fixed hashing keeps it off the D1 (HashMap/HashSet) ban list.
    let mut seen = U64Set::new();
    let cap = options.max_candidates_per_partition;
    // Dense partitions (e.g. fields of decomposed 1-bit registers) reject
    // almost every subset as blocked (w = ∞), so bounding only *accepted*
    // candidates would let enumeration grind through millions of subsets.
    // Budget the visits as well.
    let visit_budget = cap.saturating_mul(options.subclique_visit_multiplier.max(1));
    let mut visited = 0usize;
    let mut filtered = 0u64;
    let prune = options.prune_subsets;
    let regions: Vec<Rect> = part.iter().map(|&n| compat.regs[n].region).collect();
    // Fully enumerated cliques so far: any subset of one of them has been
    // visited already (the DFS walks every budget-feasible subset), so a
    // later clique's subtree that cannot escape an earlier clique's overlap
    // yields duplicates only and is cut whole. The accepted candidate set
    // and its order are untouched — the cut subtrees contribute nothing but
    // `seen` rejections — which is what keeps pruned and unpruned composes
    // byte-identical (`tests/pruning.rs`).
    let mut prior_cliques: Vec<u64> = Vec::new();
    for clique in bg.maximal_cliques() {
        if clique.count_ones() < 2 {
            continue;
        }
        let overlaps: Vec<u64> = if prune {
            prior_cliques
                .iter()
                .map(|&p| p & clique)
                .filter(|m| m.count_ones() >= 2)
                .collect()
        } else {
            Vec::new()
        };
        let completed = bg.for_each_subclique_controlled(
            clique,
            &bits,
            max_bits,
            &mut |mask, total_bits, rest| {
                if prune {
                    let reach = mask | rest;
                    if overlaps.iter().any(|&m| reach & !m == 0) {
                        filtered += 1;
                        return SubcliqueStep::Prune;
                    }
                    if mask.count_ones() >= 2 {
                        if overlaps.iter().any(|&m| mask & !m == 0) {
                            // Duplicate subset, but supersets can still
                            // escape the earlier clique: skip the work,
                            // keep descending.
                            filtered += 1;
                            return SubcliqueStep::Descend;
                        }
                        if common_region(&regions, mask).is_none() {
                            // No placement satisfies every member's slack;
                            // supersets only shrink the intersection.
                            filtered += 1;
                            return SubcliqueStep::Prune;
                        }
                    }
                }
                visited += 1;
                let under_budget =
                    set.candidates.len() < cap + elements.len() && visited < visit_budget;
                let step = if under_budget {
                    SubcliqueStep::Descend
                } else {
                    SubcliqueStep::Stop
                };
                if mask.count_ones() < 2 || !seen.insert(mask) {
                    return step;
                }
                // Blockers inherited from a counted subset already make the
                // weight ∞, so validation would reject the subset whatever
                // its other checks say. Skipping it here, after the visit,
                // budget and `seen` bookkeeping, leaves every counter and
                // truncation point as it was (DESIGN §11).
                if blockers
                    .as_ref()
                    .is_some_and(|b| b.inherited(mask) >= total_bits as usize)
                {
                    return step;
                }
                if let Some((cand, idx)) =
                    validate_candidate(ctx, part, blockers.as_mut(), mask, total_bits)
                {
                    set.candidates.push(cand);
                    set.member_idx.push(idx);
                }
                step
            },
        );
        if !completed {
            set.truncated = true;
            break;
        }
        prior_cliques.push(clique);
    }
    let work = PartitionWork {
        visited: visited as u64,
        filtered,
        polygons: blockers.map_or(0, |b| b.polygons()),
    };
    (set, work)
}

/// Checks library-width validity, scan-order feasibility, the incomplete
/// area rule, mapping feasibility and the weight; returns the candidate.
///
/// Members are read straight from the mask's bits in ascending local order,
/// so a rejected subset allocates nothing. `blockers` is `None` when the
/// weights ignore placement (`use_blocking_weights: false`).
fn validate_candidate(
    ctx: &EnumCtx<'_>,
    part: &[usize],
    blockers: Option<&mut BlockerIndex>,
    mask: u64,
    total_bits: u32,
) -> Option<(CandidateMbr, Vec<usize>)> {
    let EnumCtx {
        design,
        lib,
        compat,
        options,
        ..
    } = *ctx;
    let regs = || mask_bits(mask).map(|l| &compat.regs[part[l]]);
    let class = compat.regs[part[mask.trailing_zeros() as usize]].class;
    debug_assert!(regs().all(|r| r.class == class), "cliques are class-pure");

    // Width validity against the library.
    let total_u8 = u8::try_from(total_bits).ok()?;
    let exact = lib.widths(class).contains(&total_u8);
    let target_width = if exact {
        total_u8
    } else if options.allow_incomplete {
        lib.next_width_up(class, total_u8)?
    } else {
        return None;
    };

    // Scan-order feasibility: ordered-section members must be consecutive
    // for an internal-scan MBR; otherwise a per-bit-scan cell is required.
    let need_per_bit = match scan_consecutive(design, regs().map(|r| r.inst)) {
        ScanOrder::Unordered | ScanOrder::Consecutive => false,
        ScanOrder::Gapped => true,
    };

    // Mapping (Section 4.1): the MBR must match the members' minimum drive
    // resistance so timing never degrades.
    let min_resistance = regs()
        .map(|r| r.drive_resistance)
        .fold(f64::INFINITY, f64::min);
    let mut cell = lib.select_cell(class, target_width, Some(min_resistance), need_per_bit)?;

    // Incomplete MBRs may not blow the area budget (paper: ≤ 5 %).
    let replaced_area: f64 = regs().map(|r| r.area).sum();
    if !exact {
        let area = lib.cell(cell).area;
        if area > replaced_area * (1.0 + options.incomplete_area_overhead) {
            // Maybe a cheaper (weaker-drive) variant fits the budget — the
            // ceiling is the *members'* min resistance, and select_cell
            // already minimized clock cap, not area; try area-first.
            cell = lib
                .cells_of(class, target_width)
                .filter(|&id| {
                    let c = lib.cell(id);
                    c.drive_resistance <= min_resistance * (1.0 + 1e-9)
                        && (!need_per_bit || c.scan_style == ScanStyle::PerBit)
                        && c.area <= replaced_area * (1.0 + options.incomplete_area_overhead)
                })
                .min_by(|&a, &b| {
                    lib.cell(a)
                        .clock_pin_cap
                        .partial_cmp(&lib.cell(b).clock_pin_cap)
                        .expect("finite caps")
                })?;
        }
    }

    // Internal-scan cells additionally need the chain endpoints connectable
    // (first SI / last SO); the netlist editor enforces wired-chain
    // consecutiveness at merge time.
    let weight = match blockers {
        Some(blockers) => {
            candidate_weight(total_bits, blockers.count(mask), mask.count_ones() as usize)?
        }
        // Ablation mode: pure 1/b preference, no placement awareness.
        None => 1.0 / f64::from(total_bits),
    };

    let locals = mask_locals(mask);
    let members = locals.iter().map(|&l| compat.regs[part[l]].inst).collect();
    Some((
        CandidateMbr {
            members,
            bits: total_bits,
            target_width,
            cell,
            weight,
            incomplete: !exact,
        },
        locals,
    ))
}

/// One memoized partition: its candidate set (shared with the pass that
/// reuses it) and the raw assignment solution computed for it (selected
/// candidate indices and branch-and-bound nodes).
#[derive(Clone, Debug)]
struct MemoSlot {
    set: Arc<CandidateSet>,
    solve: (Vec<usize>, u64),
}

/// Cross-pass memo of candidate enumeration *and* assignment solving, keyed
/// by exact partition content, owned by a [`crate::CompositionSession`].
///
/// The key ([`partition_key`]) encodes every input `enumerate_partition`
/// and the per-partition ILP read: the members in partition order (identity,
/// width, class, current cell, area, drive resistance, footprint, scan
/// attributes), their pairwise compatibility edges, and the *blocking
/// neighborhood* — position and identity of every live register whose
/// center falls inside the bounding box of the members' footprint corners.
/// The neighborhood bounds every candidate's §3.2 test polygon (convex
/// hulls are monotone under subsets), so a register moving into, out of, or
/// within any candidate's polygon always changes the key. Library and
/// options are session constants. Equal key ⟹ bitwise-equal candidate set
/// and solution, so a hit replays the memo verbatim.
///
/// The memo holds exactly the partitions of the last pass that reached
/// [`PartitionCache::absorb`], so an ECO pass hits the partitions the ECOs
/// since that pass did not reach.
#[derive(Clone, Debug, Default)]
pub(crate) struct PartitionCache {
    slots: BTreeMap<Vec<u64>, MemoSlot>,
}

impl PartitionCache {
    /// Replaces the memo with this pass's partitions, hits and fresh alike,
    /// and their assignment solutions (`solves`, in partition order). Runs
    /// only after every partition solved, so a pass that fails earlier
    /// leaves the memo as it was.
    pub(crate) fn absorb(&mut self, enumeration: Enumeration, solves: Vec<(Vec<usize>, u64)>) {
        self.slots = enumeration
            .keys
            .into_iter()
            .zip(enumeration.sets)
            .zip(solves)
            .map(|((key, set), solve)| (key, MemoSlot { set, solve }))
            .collect();
    }
}

/// The content key of one partition (see [`PartitionCache`]).
fn partition_key(
    design: &Design,
    index: &RegisterIndex,
    compat: &CompatGraph,
    part: &[usize],
) -> Vec<u64> {
    let mut key = Vec::with_capacity(part.len() * 13 + 8);
    key.push(part.len() as u64);
    // Bounding box of the members' footprint corners: the blocking
    // neighborhood every candidate's test polygon is contained in.
    let mut bb_lo = Point::new(i64::MAX, i64::MAX);
    let mut bb_hi = Point::new(i64::MIN, i64::MIN);
    for &n in part {
        let reg = &compat.regs[n];
        let inst = design.inst(reg.inst);
        let rect = inst.rect();
        key.push(reg.inst.index() as u64);
        key.push(u64::from(reg.width));
        key.push(reg.class.index() as u64);
        key.push(inst.register_cell().expect("register").index() as u64);
        key.push(reg.area.to_bits());
        key.push(reg.drive_resistance.to_bits());
        key.push(rect.lo().x as u64);
        key.push(rect.lo().y as u64);
        key.push(rect.hi().x as u64);
        key.push(rect.hi().y as u64);
        let scan = inst.register_attrs().expect("register").scan;
        match scan {
            None => key.extend([0, 0, 0]),
            Some(s) => {
                let (tag, section) = match s.section {
                    None => (1, 0),
                    Some((sec, pos)) => (2, (u64::from(sec) << 32) | u64::from(pos)),
                };
                key.extend([tag, u64::from(s.partition), section]);
            }
        }
        bb_lo = Point::new(bb_lo.x.min(rect.lo().x), bb_lo.y.min(rect.lo().y));
        bb_hi = Point::new(bb_hi.x.max(rect.hi().x), bb_hi.y.max(rect.hi().y));
    }
    // Pairwise compatibility inside the partition, as local adjacency rows
    // (partitions never exceed 64 nodes — the enumeration's bitset bound).
    for &na in part {
        let mut row = 0u64;
        for (b_local, &nb) in part.iter().enumerate() {
            if compat.graph.has_edge(na, nb) {
                row |= 1 << b_local;
            }
        }
        key.push(row);
    }
    // The blocking neighborhood: identity and position of every live
    // register centered inside the bbox (members included — cheaper than
    // excluding them, and their data is in the key anyway).
    for (id, c) in index.centers_in_sorted(bb_lo, bb_hi) {
        key.push(id.index() as u64);
        key.push(c.x as u64);
        key.push(c.y as u64);
    }
    key
}

/// The set bits of `mask`, ascending.
fn mask_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

fn mask_locals(mask: u64) -> Vec<usize> {
    let mut v = Vec::with_capacity(mask.count_ones() as usize);
    v.extend(mask_bits(mask));
    v
}

enum ScanOrder {
    /// No member sits in an ordered scan section.
    Unordered,
    /// All members share a section and occupy consecutive positions.
    Consecutive,
    /// All members share a section but positions have gaps.
    Gapped,
}

/// The scan order of at most 64 members (one partition's bitmask), sorted
/// on the stack.
fn scan_consecutive(design: &Design, members: impl Iterator<Item = InstId>) -> ScanOrder {
    let mut positions = [0u32; 64];
    let mut len = 0;
    for m in members {
        let scan = design.inst(m).register_attrs().expect("register").scan;
        match scan.and_then(|s| s.section) {
            Some((_, pos)) => {
                positions[len] = pos;
                len += 1;
            }
            None => return ScanOrder::Unordered, // edges guarantee uniformity
        }
    }
    let positions = &mut positions[..len];
    positions.sort_unstable();
    let consecutive = positions.windows(2).all(|w| w[1] == w[0] + 1);
    if consecutive {
        ScanOrder::Consecutive
    } else {
        ScanOrder::Gapped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbr_geom::{Point, Rect};
    use mbr_liberty::standard_library;
    use mbr_netlist::RegisterAttrs;
    use mbr_sta::{DelayModel, Sta};

    fn setup(n: usize, spacing: i64) -> (Design, mbr_liberty::Library, Vec<InstId>) {
        let lib = standard_library();
        let die = Rect::new(Point::new(0, 0), Point::new(400_000, 400_000));
        let mut d = Design::new("t", die);
        let clk = d.add_net("clk");
        let cell = lib.cell_by_name("DFF_1X1").unwrap();
        let regs: Vec<InstId> = (0..n)
            .map(|i| {
                d.add_register(
                    format!("r{i}"),
                    &lib,
                    cell,
                    Point::new(1_000 + spacing * i as i64, 600),
                    RegisterAttrs::clocked(clk),
                )
            })
            .collect();
        (d, lib, regs)
    }

    fn candidates_for(
        d: &Design,
        lib: &mbr_liberty::Library,
        opts: &ComposerOptions,
    ) -> Vec<CandidateSet> {
        let sta = Sta::new(d, lib, DelayModel::default()).unwrap();
        let compat = CompatGraph::build(d, lib, &sta, opts);
        enumerate_candidates(d, lib, &compat, opts)
    }

    #[test]
    fn four_free_flops_yield_all_library_width_subsets() {
        let (d, lib, _) = setup(4, 2_000);
        let opts = ComposerOptions {
            allow_incomplete: false,
            ..ComposerOptions::default()
        };
        let sets = candidates_for(&d, &lib, &opts);
        assert_eq!(sets.len(), 1, "one partition");
        let set = &sets[0];
        // Widths {1,2,4}: C(4,2)=6 pairs, but the collinear layout makes the
        // r0–r3 pair's test polygon swallow the centers of r1 and r2 —
        // n = 2 ≥ b = 2 ⇒ w = ∞ and the candidate is dropped (Section 3.2).
        // So: 5 pairs + the quad + 4 singletons.
        let singles = set.candidates.iter().filter(|c| c.is_singleton()).count();
        let pairs = set
            .candidates
            .iter()
            .filter(|c| c.members.len() == 2)
            .count();
        let quads = set
            .candidates
            .iter()
            .filter(|c| c.members.len() == 4)
            .count();
        let triples = set
            .candidates
            .iter()
            .filter(|c| c.members.len() == 3)
            .count();
        assert_eq!(singles, 4);
        assert_eq!(pairs, 5);
        assert_eq!(quads, 1);
        assert_eq!(triples, 0, "3-bit cells are not in the default library");
        // The surviving blocked pairs carry the b·2ⁿ penalty weight.
        assert!(
            set.candidates
                .iter()
                .filter(|c| c.members.len() == 2)
                .any(|c| c.weight == 4.0),
            "one-blocker pairs weigh 2·2¹"
        );
    }

    #[test]
    fn ablation_mode_ignores_blockers() {
        // The collinear layout of `four_free_flops_yield_all_library_width_subsets`,
        // with placement-aware weights off: the r0–r3 pair is no longer
        // dropped as blocked, and no candidate carries the b·2ⁿ penalty.
        let (d, lib, _) = setup(4, 2_000);
        let opts = ComposerOptions {
            allow_incomplete: false,
            use_blocking_weights: false,
            ..ComposerOptions::default()
        };
        let sets = candidates_for(&d, &lib, &opts);
        let set = &sets[0];
        let pairs = set
            .candidates
            .iter()
            .filter(|c| c.members.len() == 2)
            .count();
        assert_eq!(pairs, 6, "all C(4,2) pairs survive");
        for c in set.candidates.iter().filter(|c| !c.is_singleton()) {
            assert_eq!(c.weight, 1.0 / f64::from(c.bits), "ablation weighs 1/b");
        }
    }

    #[test]
    fn incomplete_mbrs_appear_only_when_allowed() {
        let (d, lib, _) = setup(3, 2_000);
        let strict = ComposerOptions {
            allow_incomplete: false,
            ..ComposerOptions::default()
        };
        let sets = candidates_for(&d, &lib, &strict);
        assert!(sets[0].candidates.iter().all(|c| !c.incomplete));
        assert!(
            sets[0].candidates.iter().all(|c| c.members.len() != 3),
            "three 1-bit flops have no exact cell"
        );

        let loose = ComposerOptions {
            allow_incomplete: true,
            incomplete_area_overhead: 0.50, // generous budget for the test
            ..ComposerOptions::default()
        };
        let sets = candidates_for(&d, &lib, &loose);
        let triple = sets[0]
            .candidates
            .iter()
            .find(|c| c.members.len() == 3)
            .expect("3 bits round up to a 4-bit incomplete MBR");
        assert!(triple.incomplete);
        assert_eq!(triple.target_width, 4);
        assert_eq!(lib.cell(triple.cell).width, 4);
    }

    #[test]
    fn incomplete_area_rule_rejects_expensive_roundups() {
        let (d, lib, _) = setup(3, 2_000);
        // Zero overhead budget: a 4-bit cell always exceeds the area of
        // three 1-bit cells... unless sharing makes it cheaper. In the
        // default library 4×0.86 > 3×1.0 fails the 0 % budget.
        let opts = ComposerOptions {
            allow_incomplete: true,
            incomplete_area_overhead: 0.0,
            ..ComposerOptions::default()
        };
        let sets = candidates_for(&d, &lib, &opts);
        assert!(
            sets[0].candidates.iter().all(|c| c.members.len() != 3),
            "4-bit incomplete must fail the strict area rule"
        );
    }

    #[test]
    fn weights_respect_the_blocking_heuristic() {
        let (d, lib, _) = setup(2, 2_000);
        let sets = candidates_for(&d, &lib, &ComposerOptions::default());
        let pair = sets[0]
            .candidates
            .iter()
            .find(|c| c.members.len() == 2)
            .expect("pair exists");
        assert!((pair.weight - 0.5).abs() < 1e-12, "clean 2-bit = 1/2");
        assert!(sets[0]
            .candidates
            .iter()
            .filter(|c| c.is_singleton())
            .all(|c| c.weight == 1.0));
    }

    #[test]
    fn mapping_respects_member_drive_resistance() {
        let lib = standard_library();
        let die = Rect::new(Point::new(0, 0), Point::new(400_000, 400_000));
        let mut d = Design::new("t", die);
        let clk = d.add_net("clk");
        // One strong (X4) and one weak (X1) flop.
        let strong = lib.cell_by_name("DFF_1X4").unwrap();
        let weak = lib.cell_by_name("DFF_1X1").unwrap();
        d.add_register(
            "s",
            &lib,
            strong,
            Point::new(1_000, 600),
            RegisterAttrs::clocked(clk),
        );
        d.add_register(
            "w",
            &lib,
            weak,
            Point::new(3_000, 600),
            RegisterAttrs::clocked(clk),
        );
        let sets = candidates_for(&d, &lib, &ComposerOptions::default());
        let pair = sets[0]
            .candidates
            .iter()
            .find(|c| c.members.len() == 2)
            .expect("pair exists");
        // The MBR must be at least as strong as the strongest member.
        let r_x4 = lib
            .cell(lib.cell_by_name("DFF_2X4").unwrap())
            .drive_resistance;
        assert!(lib.cell(pair.cell).drive_resistance <= r_x4 + 1e-12);
    }

    #[test]
    fn partitions_bound_candidate_scope() {
        let (d, lib, _) = setup(12, 2_000);
        let opts = ComposerOptions {
            partition_max_nodes: 4,
            ..ComposerOptions::default()
        };
        let sets = candidates_for(&d, &lib, &opts);
        // Median bisection: 12 → 6 + 6 → four parts of 3.
        assert_eq!(sets.len(), 4, "12 nodes at bound 4 bisect twice");
        for set in &sets {
            assert!(set.elements.len() <= 4);
            for c in &set.candidates {
                assert!(c.members.len() <= 4);
            }
        }
    }
}

#[cfg(test)]
mod cap_tests {
    use super::*;
    use crate::compat::CompatGraph;
    use mbr_geom::{Point, Rect};
    use mbr_liberty::standard_library;
    use mbr_netlist::{Design, RegisterAttrs};
    use mbr_sta::{DelayModel, Sta};

    /// A dense 20-flop cluster under a tiny candidate cap must truncate
    /// rather than enumerate the full subset space.
    #[test]
    fn candidate_cap_truncates_dense_partitions() {
        let lib = standard_library();
        let die = Rect::new(Point::new(0, 0), Point::new(90_000, 90_000));
        let mut d = Design::new("t", die);
        let clk = d.add_net("clk");
        let cell = lib.cell_by_name("DFF_1X1").unwrap();
        for i in 0..20i64 {
            d.add_register(
                format!("r{i}"),
                &lib,
                cell,
                Point::new(1_000 + 400 * i, 600),
                RegisterAttrs::clocked(clk),
            );
        }
        let opts = ComposerOptions {
            max_candidates_per_partition: 50,
            ..ComposerOptions::default()
        };
        let sta = Sta::new(&d, &lib, DelayModel::default()).unwrap();
        let compat = CompatGraph::build(&d, &lib, &sta, &opts);
        let sets = enumerate_candidates(&d, &lib, &compat, &opts);
        let set = &sets[0];
        assert!(set.truncated, "cap must trigger");
        // Cap + singletons bounds the candidate count.
        assert!(set.candidates.len() <= 50 + set.elements.len() + 1);
        // Singletons always survive, so the ILP stays feasible.
        let singles = set.candidates.iter().filter(|c| c.is_singleton()).count();
        assert_eq!(singles, set.elements.len());
    }
}
