//! Stage 6a: mapping and placement of the selected candidates
//! (Sections 4.1/4.2).
//!
//! Mapping was pre-resolved per candidate during enumeration; this stage
//! places each MBR by the HPWL-minimizing corner LP over the members'
//! common feasible region and performs the merges. The merges mutate the
//! design under every backend; a session pass additionally reuses the LP
//! corner of every pick whose inputs match the previous pass bit for bit
//! ([`PlacementMemo`]).

use std::collections::BTreeMap;

use mbr_geom::{Point, Rect};
use mbr_liberty::{CellId, Library};
use mbr_netlist::{Design, InstId};
use mbr_obs::{self as obs, Counter};

use crate::candidates::CandidateMbr;
use crate::flow::ComposeOutcome;
use crate::placement::{common_region, optimal_corner_lp, pin_boxes, PinBox};

/// One memoized placement: where its key sits in the key arena, and the
/// corner the LP returned for it.
#[derive(Clone, Copy, Debug)]
struct MemoEntry {
    start: usize,
    len: usize,
    corner: Point,
}

/// One pass's placements: every key end to end in one arena, plus the
/// entries sorted by key.
#[derive(Debug, Default)]
struct MemoTable {
    keys: Vec<i64>,
    entries: Vec<MemoEntry>,
}

/// The key of `e` in the arena `keys`.
fn key_of<'k>(keys: &'k [i64], e: &MemoEntry) -> &'k [i64] {
    &keys[e.start..e.start + e.len]
}

impl MemoTable {
    fn find(&self, key: &[i64]) -> Option<Point> {
        self.entries
            .binary_search_by(|e| key_of(&self.keys, e).cmp(key))
            .ok()
            .map(|i| self.entries[i].corner)
    }
}

/// Exact-input memo of the §4.2 corner LP across session passes.
///
/// The LP is a pure function of the pin boxes and the corner region, so a
/// pick whose `(cell, region, every PinBox)` equals, word for word, a
/// placement of the previous pass gets that pass's corner without a solve.
/// Keys are compared whole, never by hash. Only the previous pass's
/// entries are kept: each pass collects its own placements into a table
/// pre-sized from the last one, sorts it, and replaces the last one with
/// it, so the memo never outgrows one pass's picks.
#[derive(Debug, Default)]
pub(crate) struct PlacementMemo {
    last: MemoTable,
}

/// The memo key of one placement: the cell, the region corners, then per
/// box its offset and bounding-box corners. Every box is six words, so two
/// keys of different box counts differ in length.
fn write_key(key: &mut Vec<i64>, cell: CellId, region: Rect, boxes: &[PinBox]) {
    key.clear();
    key.push(cell.index() as i64);
    for p in [region.lo(), region.hi()] {
        key.extend([p.x, p.y]);
    }
    for b in boxes {
        key.extend([b.offset.x, b.offset.y]);
        for p in [b.bbox.lo(), b.bbox.hi()] {
            key.extend([p.x, p.y]);
        }
    }
}

/// Places and merges the selected candidates; returns the new MBR
/// instances. Individual merge rejections are counted, not fatal. With a
/// memo, corners whose inputs the previous pass already solved are reused.
pub(crate) fn run(
    design: &mut Design,
    lib: &Library,
    picked: &[CandidateMbr],
    regions: &BTreeMap<InstId, Rect>,
    outcome: &mut ComposeOutcome,
    memo: Option<&mut PlacementMemo>,
) -> Vec<InstId> {
    let mut next = MemoTable::default();
    if let Some(m) = memo.as_deref() {
        next.keys.reserve(m.last.keys.len());
        next.entries.reserve(m.last.entries.len());
    }
    let mut key = Vec::new();
    let mut reused = 0u64;
    let mut new_mbrs = Vec::new();
    for cand in picked {
        let cell = lib.cell(cand.cell);
        let member_regions: Vec<Rect> = cand
            .members
            .iter()
            .map(|m| {
                regions
                    .get(m)
                    .copied()
                    .unwrap_or_else(|| design.inst(*m).rect())
            })
            .collect();
        let region = common_region(&member_regions, cell, design.die());
        let boxes = pin_boxes(design, &cand.members, cell);
        let corner = match memo.as_deref() {
            None => optimal_corner_lp(&boxes, region),
            Some(m) => {
                write_key(&mut key, cand.cell, region, &boxes);
                let corner = match m.last.find(&key) {
                    Some(corner) => {
                        reused += 1;
                        corner
                    }
                    None => optimal_corner_lp(&boxes, region),
                };
                next.entries.push(MemoEntry {
                    start: next.keys.len(),
                    len: key.len(),
                    corner,
                });
                next.keys.extend_from_slice(&key);
                corner
            }
        };
        match design.merge_registers(&cand.members, lib, cand.cell, corner) {
            Ok(mbr) => {
                new_mbrs.push(mbr);
                outcome.merges += 1;
                outcome.merged_registers += cand.members.len();
                if cand.incomplete {
                    outcome.incomplete_mbrs += 1;
                }
            }
            Err(_) => {
                outcome.skipped_merges += 1;
            }
        }
    }
    if let Some(m) = memo {
        let MemoTable { keys, entries } = &mut next;
        entries.sort_by(|a, b| key_of(keys, a).cmp(key_of(keys, b)));
        m.last = next;
    }
    obs::counter(Counter::SessionPlacementsReused, reused);
    new_mbrs
}
