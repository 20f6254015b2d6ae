//! Timing-graph construction and propagation.
//!
//! The graph lives in CSR-style struct-of-arrays arenas (DESIGN.md §14):
//! per direction, one flat target array and one flat delay array addressed
//! through an offset table (`ArcArena`). Full and incremental
//! propagation are linear scans over contiguous slot ranges instead of
//! per-pin `Vec<Vec<_>>` walks, and an incremental delay refresh rewrites
//! slots in place — the arc *topology* of a non-structural update never
//! changes, only the delays stored in the arena.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use mbr_geom::Point;
use mbr_liberty::Library;
use mbr_netlist::{Design, InstId, InstKind, PinDir, PinId, PinKind, PortDir};
use mbr_obs::{self as obs, Counter, Gauge, Histogram};

use crate::report::TimingReport;
use crate::DelayModel;

/// Why timing analysis failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StaError {
    /// The combinational netlist contains a cycle through the named
    /// instance (registers break cycles; pure gate loops are illegal).
    CombinationalLoop {
        /// An instance on the cycle.
        inst: String,
    },
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaError::CombinationalLoop { inst } => {
                write!(f, "combinational loop through {inst}")
            }
        }
    }
}

impl Error for StaError {}

/// One direction of the timing graph in compressed-sparse-row form:
/// `offsets[pin]..offsets[pin + 1]` indexes the flat `to` / `delay` arenas.
#[derive(Clone, Debug, Default)]
struct ArcArena {
    offsets: Vec<u32>,
    to: Vec<u32>,
    delay: Vec<f64>,
}

impl ArcArena {
    /// Lays out `arcs` (`(from, to, delay)`) over `pins` pins by source pin,
    /// or by target pin with `from` and `to` swapped when `reverse`: count,
    /// prefix-sum, then fill. A pin's arcs keep their order in `arcs`, so a
    /// deterministic enumeration yields a deterministic layout.
    fn build(pins: usize, arcs: &[(u32, u32, f64)], reverse: bool) -> ArcArena {
        let oriented = |&(from, to, delay): &(u32, u32, f64)| {
            if reverse {
                (to as usize, from, delay)
            } else {
                (from as usize, to, delay)
            }
        };
        let mut offsets = vec![0u32; pins + 1];
        for (src, ..) in arcs.iter().map(oriented) {
            offsets[src + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets[..pins].to_vec();
        let mut to = vec![0; arcs.len()];
        let mut delay = vec![0.0; arcs.len()];
        for (src, dst, d) in arcs.iter().map(oriented) {
            let slot = cursor[src] as usize;
            cursor[src] += 1;
            to[slot] = dst;
            delay[slot] = d;
        }
        ArcArena { offsets, to, delay }
    }

    /// The arc slots leaving (forward) or entering (reverse) `pin`.
    fn range(&self, pin: usize) -> std::ops::Range<usize> {
        self.offsets[pin] as usize..self.offsets[pin + 1] as usize
    }

    /// Overwrites the delay of the arc `pin -> other`, if present.
    fn set_delay(&mut self, pin: usize, other: usize, delay: f64) {
        for slot in self.range(pin) {
            if self.to[slot] as usize == other {
                self.delay[slot] = delay;
            }
        }
    }
}

/// What a pin's net arcs and load were last computed from: its absolute
/// position and the bits of its capacitance. A touched pin whose basis
/// still matches the design cannot have changed anything on its net.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PinBasis {
    pos: Point,
    cap_bits: u64,
}

impl PinBasis {
    fn of(design: &Design, pin: PinId) -> Self {
        PinBasis {
            pos: design.pin_position(pin),
            cap_bits: design.pin(pin).cap.to_bits(),
        }
    }
}

/// Propagation buffers kept between updates, so an incremental update
/// allocates nothing proportional to the design. `queued` is all `false`
/// between propagations: every pin a worklist marks is unmarked when it is
/// popped, and the worklist always drains.
#[derive(Clone, Debug, Default)]
struct Scratch {
    queue: VecDeque<usize>,
    queued: Vec<bool>,
    seeds: Vec<usize>,
}

/// The static timing analyzer: timing graph plus the latest results.
///
/// Build with [`Sta::new`]; read results via [`Sta::report`]. After moving
/// instances or changing clock offsets, call [`Sta::update_after_change`]
/// with the touched instances for an incremental update, or rebuild with
/// [`Sta::new`] after structural edits (merges/splits).
#[derive(Clone, Debug)]
pub struct Sta {
    model: DelayModel,
    /// Forward arcs (driver → sink) in CSR layout.
    fwd: ArcArena,
    /// Reverse arcs (for required-time propagation) in CSR layout.
    rev: ArcArena,
    /// Fixed arrival per pin for sources (input ports, register Q).
    source_arrival: Vec<Option<f64>>,
    /// Fixed required per pin for endpoints (register D, output ports).
    endpoint_required: Vec<Option<f64>>,
    /// Per pin, what its net's arcs and load were last computed from.
    basis: Vec<PinBasis>,
    scratch: Scratch,
    report: TimingReport,
}

impl Sta {
    /// Builds the timing graph for `design` and runs a full analysis.
    ///
    /// # Errors
    ///
    /// [`StaError::CombinationalLoop`] if gates form a cycle not broken by
    /// a register.
    pub fn new(design: &Design, lib: &Library, model: DelayModel) -> Result<Self, StaError> {
        let n = design.pin_count();
        let mut sta = Sta {
            model,
            fwd: ArcArena::default(),
            rev: ArcArena::default(),
            source_arrival: vec![None; n],
            endpoint_required: vec![None; n],
            basis: (0..n)
                .map(|i| PinBasis::of(design, PinId::from_index(i)))
                .collect(),
            scratch: Scratch {
                queued: vec![false; n],
                ..Scratch::default()
            },
            report: TimingReport::empty(n),
        };
        sta.build_arcs(design, lib)?;
        sta.full_propagate();
        obs::counter(Counter::StaFullAnalyses, 1);
        Ok(sta)
    }

    /// The latest timing results.
    pub fn report(&self) -> &TimingReport {
        &self.report
    }

    /// The model this analyzer was built with.
    pub fn model(&self) -> &DelayModel {
        &self.model
    }

    fn pin_count(&self) -> usize {
        self.source_arrival.len()
    }

    // ------------------------------------------------------------------
    // Graph construction
    // ------------------------------------------------------------------

    fn build_arcs(&mut self, design: &Design, lib: &Library) -> Result<(), StaError> {
        for s in &mut self.source_arrival {
            *s = None;
        }
        for e in &mut self.endpoint_required {
            *e = None;
        }

        // Enumerate every arc once, in a deterministic order (wire arcs in
        // live-net order, then gate arcs in live-instance order), into a
        // flat scratch list the two CSR arenas are laid out from. Sources
        // and endpoints are set along the way.
        let mut edges: Vec<(u32, u32, f64)> = Vec::new();

        // Net arcs (driver → sinks).
        for (net_id, _) in design.live_nets() {
            if design.is_clock_net(net_id) {
                continue; // ideal clock: no graph arcs
            }
            let Some(driver) = design.net_driver(net_id) else {
                continue;
            };
            let dpos = design.pin_position(driver);
            for sink in design.net_sinks(net_id) {
                let spos = design.pin_position(sink);
                let delay = self
                    .model
                    .wire_delay(dpos.manhattan(spos), design.pin(sink).cap);
                edges.push((driver.index() as u32, sink.index() as u32, delay));
            }
        }

        for (inst_id, inst) in design.live_insts() {
            match &inst.kind {
                InstKind::Register { cell, attrs, .. } => {
                    let c = lib.cell(*cell);
                    for bit in design.register_bit_pins(inst_id) {
                        // Q pins are launch sources.
                        if let Some(net) = design.pin(bit.q).net {
                            let load = self.net_load(design, net);
                            self.source_arrival[bit.q.index()] =
                                Some(attrs.clock_offset + c.q_delay(load));
                        }
                        // D pins are capture endpoints.
                        if design.pin(bit.d).net.is_some() {
                            self.endpoint_required[bit.d.index()] =
                                Some(self.model.clock_period + attrs.clock_offset - c.setup);
                        }
                    }
                }
                InstKind::Comb { model } => {
                    let m = design.comb_model(*model);
                    let out = design
                        .find_pin(inst_id, PinKind::GateOut)
                        .expect("gates have an output");
                    let load = design
                        .pin(out)
                        .net
                        .map_or(0.0, |net| self.net_load(design, net));
                    let delay = m.delay(load);
                    for &p in &inst.pins {
                        if design.pin(p).dir == PinDir::Input
                            && matches!(design.pin(p).kind, PinKind::GateIn(_))
                        {
                            edges.push((p.index() as u32, out.index() as u32, delay));
                        }
                    }
                }
                InstKind::Port {
                    dir,
                    drive_resistance,
                    ..
                } => {
                    let pin = inst.pins[0];
                    match dir {
                        PortDir::Input => {
                            let load = design
                                .pin(pin)
                                .net
                                .map_or(0.0, |net| self.net_load(design, net));
                            self.source_arrival[pin.index()] =
                                Some(self.model.input_arrival + drive_resistance * load);
                        }
                        PortDir::Output => {
                            if design.pin(pin).net.is_some() {
                                self.endpoint_required[pin.index()] =
                                    Some(self.model.clock_period - self.model.output_margin);
                            }
                        }
                    }
                }
            }
        }

        let n = self.pin_count();
        self.fwd = ArcArena::build(n, &edges, false);
        self.rev = ArcArena::build(n, &edges, true);
        obs::gauge(Gauge::StaArenaArcs, edges.len() as f64);

        // Cycle check via Kahn's algorithm over the arc graph.
        self.check_acyclic(design)
    }

    /// Total load on a net: sink pin caps + distributed wire cap (HPWL).
    fn net_load(&self, design: &Design, net: mbr_netlist::NetId) -> f64 {
        design.net_pin_cap(net) + self.model.wire_cap_per_dbu * design.net_hpwl(net) as f64
    }

    fn check_acyclic(&self, design: &Design) -> Result<(), StaError> {
        let n = self.pin_count();
        let mut indeg = vec![0u32; n];
        for &t in &self.fwd.to {
            indeg[t as usize] += 1;
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0usize;
        while let Some(v) = queue.pop_front() {
            seen += 1;
            for slot in self.fwd.range(v) {
                let t = self.fwd.to[slot] as usize;
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    queue.push_back(t);
                }
            }
        }
        if seen == n {
            Ok(())
        } else {
            let culprit = (0..n)
                .find(|&i| indeg[i] > 0)
                .map(|i| {
                    design
                        .inst(design.pin(PinId::from_index(i)).inst)
                        .name
                        .clone()
                })
                .unwrap_or_default();
            Err(StaError::CombinationalLoop { inst: culprit })
        }
    }

    // ------------------------------------------------------------------
    // Propagation
    // ------------------------------------------------------------------

    fn full_propagate(&mut self) {
        let n = self.pin_count();
        let seeds: Vec<usize> = (0..n).collect();
        obs::counter(Counter::StaFullSeedPins, n as u64);
        self.propagate_arrivals(&seeds);
        self.propagate_required(&seeds);
        // Seeding every pin grew the worklist to the whole design; the
        // incremental updates it is kept for need a cone's worth.
        self.scratch.queue.shrink_to_fit();
        self.report.refresh_endpoints(&self.endpoint_required);
    }

    /// Recomputes arrivals for (at least) the given seed pins and everything
    /// downstream of a change, by monotone worklist relaxation on the DAG.
    fn propagate_arrivals(&mut self, seeds: &[usize]) {
        let Scratch { queue, queued, .. } = &mut self.scratch;
        queue.extend(seeds.iter().copied());
        for &s in seeds {
            queued[s] = true;
        }
        while let Some(v) = queue.pop_front() {
            queued[v] = false;
            // Recompute arrival(v) from sources and fan-in — a linear scan
            // over the contiguous reverse-arc slots of v.
            let mut arr = self.source_arrival[v].unwrap_or(f64::NEG_INFINITY);
            for slot in self.rev.range(v) {
                let ua = self.report.arrival[self.rev.to[slot] as usize];
                if ua > f64::NEG_INFINITY {
                    arr = arr.max(ua + self.rev.delay[slot]);
                }
            }
            // Exact comparison, not an epsilon: relaxation on a DAG has a
            // unique fixpoint, so requiring bitwise convergence makes an
            // incremental update land on exactly the state a from-scratch
            // analysis computes — the property the session flow's
            // batch-equivalence guarantee rests on. (NEG_INFINITY compares
            // equal to itself here, so untimed pins don't loop.)
            if arr != self.report.arrival[v] {
                self.report.arrival[v] = arr;
                for slot in self.fwd.range(v) {
                    let t = self.fwd.to[slot] as usize;
                    if !queued[t] {
                        queued[t] = true;
                        queue.push_back(t);
                    }
                }
            }
        }
    }

    /// Required-time mirror of [`Sta::propagate_arrivals`].
    fn propagate_required(&mut self, seeds: &[usize]) {
        let Scratch { queue, queued, .. } = &mut self.scratch;
        queue.extend(seeds.iter().copied());
        for &s in seeds {
            queued[s] = true;
        }
        while let Some(v) = queue.pop_front() {
            queued[v] = false;
            let mut req = self.endpoint_required[v].unwrap_or(f64::INFINITY);
            for slot in self.fwd.range(v) {
                let tr = self.report.required[self.fwd.to[slot] as usize];
                if tr < f64::INFINITY {
                    req = req.min(tr - self.fwd.delay[slot]);
                }
            }
            // Exact comparison — see the arrival mirror for why.
            if req != self.report.required[v] {
                self.report.required[v] = req;
                for slot in self.rev.range(v) {
                    let t = self.rev.to[slot] as usize;
                    if !queued[t] {
                        queued[t] = true;
                        queue.push_back(t);
                    }
                }
            }
        }
    }

    /// Incremental re-analysis after `touched` instances moved, were
    /// resized or changed clock offsets (no structural netlist edits!).
    ///
    /// The cost follows what changed, not the design. A touched pin's net
    /// is refreshed (arc delays, driver load) only when the pin's position
    /// or capacitance differs, bit for bit, from what the net's arcs were
    /// last computed from, so a clock-offset edit refreshes no net at all.
    /// Propagation then re-relaxes only the affected cones, and the WNS/TNS
    /// summary is dropped, to be folded over the endpoint list of the last
    /// build on its next read. The result is bitwise the state
    /// [`Sta::new`] computes for the same design.
    ///
    /// Every instance whose pins moved or changed capacitance must be in
    /// `touched`; listing an unchanged instance costs only its own pins.
    ///
    /// After structural edits (merges/splits), rebuild with [`Sta::new`] —
    /// the pin arena has grown.
    ///
    /// # Panics
    ///
    /// Panics if the design's pin count differs from the graph (structural
    /// edit happened).
    pub fn update_after_change(&mut self, design: &Design, lib: &Library, touched: &[InstId]) {
        assert_eq!(
            design.pin_count(),
            self.pin_count(),
            "structural edit detected: rebuild Sta with Sta::new"
        );

        let mut seeds = std::mem::take(&mut self.scratch.seeds);
        seeds.clear();
        let mut net_refreshes = 0u64;
        for &inst_id in touched {
            let inst = design.inst(inst_id);
            for &p in &inst.pins {
                seeds.push(p.index());
                let Some(net) = design.pin(p).net else {
                    continue;
                };
                // A refresh re-records every pin on the net, so a net with
                // several changed pins is refreshed once.
                if self.basis[p.index()] != PinBasis::of(design, p) {
                    self.refresh_net(design, lib, net, &mut seeds);
                    net_refreshes += 1;
                }
            }
            // Clock offsets change launch/capture times, and a resize
            // changes the launch delay even when no pin moved.
            if let InstKind::Register { cell, attrs, .. } = &inst.kind {
                let c = lib.cell(*cell);
                for bit in design.register_bit_pins(inst_id) {
                    if let Some(net) = design.pin(bit.q).net {
                        let load = self.net_load(design, net);
                        self.source_arrival[bit.q.index()] =
                            Some(attrs.clock_offset + c.q_delay(load));
                    }
                    if design.pin(bit.d).net.is_some() {
                        self.endpoint_required[bit.d.index()] =
                            Some(self.model.clock_period + attrs.clock_offset - c.setup);
                    }
                    // The summary folds the endpoint list of the last build;
                    // only a touched register's D pin could join or leave
                    // it, and only by a structural (re)connection.
                    debug_assert_eq!(
                        design.pin(bit.d).net.is_some(),
                        self.report.endpoints().binary_search(&bit.d).is_ok(),
                        "a non-structural update changed the endpoint set"
                    );
                }
            }
        }

        seeds.sort_unstable();
        seeds.dedup();
        obs::counter(Counter::StaIncrementalUpdates, 1);
        obs::counter(Counter::StaNetsTouched, net_refreshes);
        obs::counter(Counter::StaSeedPins, seeds.len() as u64);
        obs::observe(Histogram::StaSeedPinsPerUpdate, seeds.len() as u64);
        self.propagate_arrivals(&seeds);
        self.propagate_required(&seeds);
        self.scratch.seeds = seeds;
        self.report.invalidate_summary();
    }

    /// Recomputes the arcs and driver load of `net` from the design and
    /// records every pin on it as the new basis. Pins whose arrival or
    /// required inputs changed are pushed onto `seeds`.
    fn refresh_net(
        &mut self,
        design: &Design,
        lib: &Library,
        net: mbr_netlist::NetId,
        seeds: &mut Vec<usize>,
    ) {
        if let Some(driver) = design.net_driver(net) {
            // An ideal clock net has no wire arcs, but its driver's
            // load-dependent source arrival still tracks the net's pins.
            if !design.is_clock_net(net) {
                // A wire arc's delay depends only on its two endpoint
                // positions and the sink cap, so only arcs to changed
                // sinks move unless the driver itself changed. The arc
                // topology of a non-structural update never changes, and
                // the driver's CSR slots were filled in `net_sinks` order,
                // so they zip 1:1.
                let driver_changed = self.basis[driver.index()] != PinBasis::of(design, driver);
                let dpos = design.pin_position(driver);
                for (slot, sink) in self.fwd.range(driver.index()).zip(design.net_sinks(net)) {
                    debug_assert_eq!(
                        self.fwd.to[slot] as usize,
                        sink.index(),
                        "CSR fan-out order diverged from net_sinks"
                    );
                    if driver_changed || self.basis[sink.index()] != PinBasis::of(design, sink) {
                        let delay = self.model.wire_delay(
                            dpos.manhattan(design.pin_position(sink)),
                            design.pin(sink).cap,
                        );
                        self.fwd.delay[slot] = delay;
                        self.rev.set_delay(sink.index(), driver.index(), delay);
                        seeds.push(sink.index());
                    }
                }
            }
            seeds.push(driver.index());
            self.refresh_driver(design, lib, driver, seeds);
        }
        for &p in &design.net(net).pins {
            self.basis[p.index()] = PinBasis::of(design, p);
        }
    }

    /// Refreshes the load-dependent delay of whatever drives `driver`; a
    /// gate's inputs are pushed onto `seeds`, since their arcs moved.
    fn refresh_driver(
        &mut self,
        design: &Design,
        lib: &Library,
        driver: PinId,
        seeds: &mut Vec<usize>,
    ) {
        let pin = design.pin(driver);
        let inst = design.inst(pin.inst);
        match (&inst.kind, pin.kind) {
            (InstKind::Register { cell, attrs, .. }, PinKind::Q(_)) => {
                let c = lib.cell(*cell);
                if let Some(net) = pin.net {
                    let load = self.net_load(design, net);
                    self.source_arrival[driver.index()] =
                        Some(attrs.clock_offset + c.q_delay(load));
                }
            }
            (InstKind::Comb { model }, PinKind::GateOut) => {
                let m = design.comb_model(*model);
                let load = pin.net.map_or(0.0, |net| self.net_load(design, net));
                let delay = m.delay(load);
                for &p in &inst.pins {
                    if matches!(design.pin(p).kind, PinKind::GateIn(_)) {
                        self.fwd.set_delay(p.index(), driver.index(), delay);
                        self.rev.set_delay(driver.index(), p.index(), delay);
                        seeds.push(p.index());
                    }
                }
            }
            (
                InstKind::Port {
                    dir: PortDir::Input,
                    drive_resistance,
                    ..
                },
                _,
            ) => {
                if let Some(net) = pin.net {
                    let load = self.net_load(design, net);
                    self.source_arrival[driver.index()] =
                        Some(self.model.input_arrival + drive_resistance * load);
                }
            }
            _ => {}
        }
    }
}

/// One traced timing path, worst-arrival pin by pin from a launch point to
/// an endpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct TimingPath {
    /// The endpoint (register D pin or output port).
    pub endpoint: PinId,
    /// Endpoint slack, ps.
    pub slack: f64,
    /// Pins from the launch source to the endpoint, inclusive.
    pub pins: Vec<PinId>,
    /// Arrival time at the endpoint, ps.
    pub arrival: f64,
    /// Required time at the endpoint, ps.
    pub required: f64,
}

impl Sta {
    /// Traces the `k` worst timing paths: for each of the `k` smallest-slack
    /// endpoints, the chain of worst-arrival predecessors back to its launch
    /// point (a register Q pin or an input port).
    ///
    /// Paths are returned worst first. Endpoints without a defined slack
    /// (unreachable cones) are skipped.
    pub fn worst_paths(&self, k: usize) -> Vec<TimingPath> {
        let mut endpoints: Vec<(f64, PinId)> = self
            .report
            .endpoints()
            .iter()
            .filter_map(|&p| self.report.slack(p).map(|s| (s, p)))
            .collect();
        endpoints.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite slacks"));
        endpoints
            .into_iter()
            .take(k)
            .map(|(slack, endpoint)| {
                let mut pins = vec![endpoint];
                let mut v = endpoint.index();
                // Walk the dominant fan-in arc until a source is reached.
                loop {
                    let arr_v = self.report.arrival[v];
                    if let Some(src) = self.source_arrival[v] {
                        if (src - arr_v).abs() <= 1e-9 {
                            break; // launched here
                        }
                    }
                    let Some(pred) = self.rev.range(v).find(|&slot| {
                        let ua = self.report.arrival[self.rev.to[slot] as usize];
                        ua > f64::NEG_INFINITY && (ua + self.rev.delay[slot] - arr_v).abs() <= 1e-9
                    }) else {
                        break;
                    };
                    v = self.rev.to[pred] as usize;
                    pins.push(PinId::from_index(v));
                }
                pins.reverse();
                TimingPath {
                    endpoint,
                    slack,
                    pins,
                    arrival: self.report.arrival[endpoint.index()],
                    required: self.report.required[endpoint.index()],
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::ArcArena;

    #[test]
    fn arc_arena_lays_out_each_pins_arcs_in_list_order() {
        // Arcs 0->10, 2->12, 0->11; pin 1 has none.
        let arcs = [(0, 10, 1.0), (2, 12, 2.0), (0, 11, 3.0)];
        let fwd = ArcArena::build(13, &arcs, false);
        assert_eq!(fwd.range(0), 0..2);
        assert_eq!(fwd.range(1), 2..2);
        assert_eq!(fwd.range(2), 2..3);
        assert_eq!(fwd.range(12), 3..3);
        assert_eq!(fwd.to, [10, 11, 12]);
        assert_eq!(fwd.delay, [1.0, 3.0, 2.0]);
        let rev = ArcArena::build(13, &arcs, true);
        assert_eq!(rev.range(0), 0..0);
        assert_eq!(rev.range(10), 0..1);
        assert_eq!(rev.range(11), 1..2);
        assert_eq!(rev.range(12), 2..3);
        assert_eq!(rev.to, [0, 0, 2]);
        assert_eq!(rev.delay, [1.0, 3.0, 2.0]);
    }
}
