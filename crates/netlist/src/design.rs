use std::collections::HashMap;

use mbr_geom::{BoundingBox, Dbu, Point, Rect};
use mbr_liberty::{CellId, Library, ScanStyle};

use crate::instance::Pin;
use crate::{
    BitPins, CombModel, CombModelId, InstId, InstKind, Instance, NetId, PinDir, PinId, PinKind,
    PortDir, RegisterAttrs,
};

/// A net: a named electrical node connecting one driver and several sinks.
#[derive(Clone, Debug, PartialEq)]
pub struct Net {
    /// Design-unique name.
    pub name: String,
    /// Connected pins, in no particular order.
    pub pins: Vec<PinId>,
    /// Dead nets (all pins removed by editing) are skipped by queries.
    pub alive: bool,
}

/// The placed-design database. See the [crate-level docs](crate) for an
/// overview and an end-to-end example.
#[derive(Clone, Debug, Default)]
pub struct Design {
    name: String,
    die: Option<Rect>,
    insts: Vec<Instance>,
    pins: Vec<Pin>,
    nets: Vec<Net>,
    comb_models: Vec<CombModel>,
    inst_by_name: HashMap<String, InstId>,
    net_by_name: HashMap<String, NetId>,
    comb_by_name: HashMap<String, CombModelId>,
    /// Counter for generated MBR instance names.
    next_gen: u32,
}

impl Design {
    /// Creates an empty design over the given die area.
    pub fn new(name: impl Into<String>, die: Rect) -> Self {
        Design {
            name: name.into(),
            die: Some(die),
            ..Design::default()
        }
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Die area.
    ///
    /// # Panics
    ///
    /// Panics if the design was default-constructed without a die.
    pub fn die(&self) -> Rect {
        // mbr-lint: allow(P1, documented panic contract: only default-constructed designs lack a die)
        self.die.expect("design has a die area")
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Adds (or finds) a net by name.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let name = name.into();
        if let Some(&id) = self.net_by_name.get(&name) {
            return id;
        }
        let id = NetId::from_index(self.nets.len());
        self.net_by_name.insert(name.clone(), id);
        self.nets.push(Net {
            name,
            pins: Vec::new(),
            alive: true,
        });
        id
    }

    /// Registers a combinational gate model, deduplicating by name.
    ///
    /// # Panics
    ///
    /// Panics on a conflicting redefinition.
    pub fn add_comb_model(&mut self, model: CombModel) -> CombModelId {
        if let Some(&id) = self.comb_by_name.get(&model.name) {
            assert_eq!(
                self.comb_models[id.index()],
                model,
                "conflicting redefinition of comb model {}",
                model.name
            );
            return id;
        }
        let id = CombModelId::from_index(self.comb_models.len());
        self.comb_by_name.insert(model.name.clone(), id);
        self.comb_models.push(model);
        id
    }

    fn push_inst(&mut self, inst: Instance) -> InstId {
        let id = InstId::from_index(self.insts.len());
        assert!(
            self.inst_by_name.insert(inst.name.clone(), id).is_none(),
            "duplicate instance name {}",
            inst.name
        );
        self.insts.push(inst);
        id
    }

    fn push_pin(
        &mut self,
        inst: InstId,
        kind: PinKind,
        dir: PinDir,
        offset: Point,
        cap: f64,
    ) -> PinId {
        let id = PinId::from_index(self.pins.len());
        self.pins.push(Pin {
            inst,
            kind,
            dir,
            offset,
            cap,
            net: None,
        });
        self.insts[inst.index()].pins.push(id);
        id
    }

    /// Adds a register instance of library cell `cell` at `loc`.
    ///
    /// Creates the full pin set of the cell (clock, control pins mandated by
    /// the class, D/Q per bit, scan pins per the cell's scan style), and
    /// connects the clock and whatever control nets `attrs` provides. D and Q
    /// pins are left unconnected for the caller.
    ///
    /// # Panics
    ///
    /// Panics if the name is taken or `attrs` omits a control net the class
    /// requires.
    pub fn add_register(
        &mut self,
        name: impl Into<String>,
        lib: &Library,
        cell: CellId,
        loc: Point,
        attrs: RegisterAttrs,
    ) -> InstId {
        let c = lib.cell(cell);
        let class = lib.class(c.class);
        let width = c.width;
        let inst = Instance {
            name: name.into(),
            kind: InstKind::Register {
                cell,
                attrs: attrs.clone(),
                connected_bits: width,
            },
            loc,
            width: c.footprint_w,
            height: c.footprint_h,
            pins: Vec::new(),
            alive: true,
        };
        let id = self.push_inst(inst);

        let w = c.footprint_w;
        let h = c.footprint_h;
        let ctrl_cap = c.d_pin_cap;

        // Clock pin at the bottom center.
        let ck = self.push_pin(
            id,
            PinKind::Clock,
            PinDir::Input,
            Point::new(w / 2, 0),
            c.clock_pin_cap,
        );
        self.connect(ck, attrs.clock);

        if class.has_reset {
            let net = required_control(attrs.reset, "class has reset: attrs.reset required");
            let p = self.push_pin(
                id,
                PinKind::Reset,
                PinDir::Input,
                Point::new(0, 0),
                ctrl_cap,
            );
            self.connect(p, net);
        }
        if class.has_set {
            let net = required_control(attrs.set, "class has set: attrs.set required");
            let p = self.push_pin(id, PinKind::Set, PinDir::Input, Point::new(w, 0), ctrl_cap);
            self.connect(p, net);
        }
        if class.has_enable {
            let net = required_control(attrs.enable, "class has enable: attrs.enable required");
            let p = self.push_pin(
                id,
                PinKind::Enable,
                PinDir::Input,
                Point::new(0, h),
                ctrl_cap,
            );
            self.connect(p, net);
        }
        if class.has_scan {
            let net = required_control(
                attrs.scan_enable,
                "class has scan: attrs.scan_enable required",
            );
            let p = self.push_pin(
                id,
                PinKind::ScanEnable,
                PinDir::Input,
                Point::new(w, h),
                ctrl_cap,
            );
            self.connect(p, net);
        }

        // D pins on the left edge, Q pins on the right edge, spread in y.
        for bit in 0..width {
            self.push_pin(
                id,
                PinKind::D(bit),
                PinDir::Input,
                register_data_pin_offset(c, bit, true),
                c.d_pin_cap,
            );
            self.push_pin(
                id,
                PinKind::Q(bit),
                PinDir::Output,
                register_data_pin_offset(c, bit, false),
                0.0,
            );
        }

        // Scan data pins.
        match c.scan_style {
            ScanStyle::None => {}
            ScanStyle::Internal => {
                self.push_pin(
                    id,
                    PinKind::ScanIn(0),
                    PinDir::Input,
                    Point::new(0, h / 2),
                    ctrl_cap,
                );
                self.push_pin(
                    id,
                    PinKind::ScanOut(0),
                    PinDir::Output,
                    Point::new(w, h / 2),
                    0.0,
                );
            }
            ScanStyle::PerBit => {
                let step = h / (Dbu::from(width) + 1);
                for bit in 0..width {
                    let y = step * (Dbu::from(bit) + 1);
                    self.push_pin(
                        id,
                        PinKind::ScanIn(bit),
                        PinDir::Input,
                        Point::new(w / 4, y),
                        ctrl_cap,
                    );
                    self.push_pin(
                        id,
                        PinKind::ScanOut(bit),
                        PinDir::Output,
                        Point::new(3 * w / 4, y),
                        0.0,
                    );
                }
            }
        }
        id
    }

    /// Adds a combinational gate instance; pins are left unconnected.
    pub fn add_comb(&mut self, name: impl Into<String>, model: CombModelId, loc: Point) -> InstId {
        let m = self.comb_models[model.index()].clone();
        let inst = Instance {
            name: name.into(),
            kind: InstKind::Comb { model },
            loc,
            width: m.footprint_w,
            height: m.footprint_h,
            pins: Vec::new(),
            alive: true,
        };
        let id = self.push_inst(inst);
        let step = m.footprint_h / (Dbu::from(m.inputs) + 1);
        for i in 0..m.inputs {
            let y = step * (Dbu::from(i) + 1);
            self.push_pin(
                id,
                PinKind::GateIn(i),
                PinDir::Input,
                Point::new(0, y),
                m.input_cap,
            );
        }
        self.push_pin(
            id,
            PinKind::GateOut,
            PinDir::Output,
            Point::new(m.footprint_w, m.footprint_h / 2),
            0.0,
        );
        id
    }

    /// Adds a primary input port (drives its net with `drive_resistance` kΩ).
    pub fn add_input_port(
        &mut self,
        name: impl Into<String>,
        loc: Point,
        drive_resistance: f64,
    ) -> InstId {
        let inst = Instance {
            name: name.into(),
            kind: InstKind::Port {
                dir: PortDir::Input,
                drive_resistance,
                load: 0.0,
            },
            loc,
            width: 0,
            height: 0,
            pins: Vec::new(),
            alive: true,
        };
        let id = self.push_inst(inst);
        self.push_pin(id, PinKind::Port, PinDir::Output, Point::ORIGIN, 0.0);
        id
    }

    /// Adds a primary output port (sinks its net with `load` fF).
    pub fn add_output_port(&mut self, name: impl Into<String>, loc: Point, load: f64) -> InstId {
        let inst = Instance {
            name: name.into(),
            kind: InstKind::Port {
                dir: PortDir::Output,
                drive_resistance: 0.0,
                load,
            },
            loc,
            width: 0,
            height: 0,
            pins: Vec::new(),
            alive: true,
        };
        let id = self.push_inst(inst);
        self.push_pin(id, PinKind::Port, PinDir::Input, Point::ORIGIN, load);
        id
    }

    // ------------------------------------------------------------------
    // Connectivity editing
    // ------------------------------------------------------------------

    /// Connects `pin` to `net`, disconnecting it from its previous net.
    pub fn connect(&mut self, pin: PinId, net: NetId) {
        self.disconnect(pin);
        self.pins[pin.index()].net = Some(net);
        self.nets[net.index()].pins.push(pin);
    }

    /// Disconnects `pin` from its net, if connected. Nets left with no pins
    /// are marked dead.
    pub fn disconnect(&mut self, pin: PinId) {
        if let Some(net) = self.pins[pin.index()].net.take() {
            let pins = &mut self.nets[net.index()].pins;
            if let Some(pos) = pins.iter().position(|&p| p == pin) {
                pins.swap_remove(pos);
            }
            if pins.is_empty() {
                self.nets[net.index()].alive = false;
            }
        }
    }

    pub(crate) fn pin_set_cap(&mut self, pin: PinId, cap: f64) {
        self.pins[pin.index()].cap = cap;
    }

    pub(crate) fn kill_instance(&mut self, inst: InstId) {
        let pins = self.insts[inst.index()].pins.clone();
        for p in pins {
            self.disconnect(p);
        }
        self.insts[inst.index()].alive = false;
    }

    pub(crate) fn generate_name(&mut self, prefix: &str) -> String {
        loop {
            let name = format!("{prefix}{}", self.next_gen);
            self.next_gen += 1;
            if !self.inst_by_name.contains_key(&name) {
                return name;
            }
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The instance for `id` (dead or alive).
    pub fn inst(&self, id: InstId) -> &Instance {
        &self.insts[id.index()]
    }

    /// Mutable instance access (used by placement/legalization to move
    /// cells and by skew assignment to set clock offsets).
    pub fn inst_mut(&mut self, id: InstId) -> &mut Instance {
        &mut self.insts[id.index()]
    }

    /// The pin for `id`.
    pub fn pin(&self, id: PinId) -> &Pin {
        &self.pins[id.index()]
    }

    /// The net for `id`.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// The comb model for `id`.
    pub fn comb_model(&self, id: CombModelId) -> &CombModel {
        &self.comb_models[id.index()]
    }

    /// Looks up an instance by name.
    pub fn inst_by_name(&self, name: &str) -> Option<InstId> {
        self.inst_by_name.get(name).copied()
    }

    /// Looks up a net by name.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.net_by_name.get(name).copied()
    }

    /// Looks up a comb model by name.
    pub fn comb_model_by_name(&self, name: &str) -> Option<CombModelId> {
        self.comb_by_name.get(name).copied()
    }

    /// All instances (including tombstones), by id.
    pub fn all_insts(&self) -> impl ExactSizeIterator<Item = (InstId, &Instance)> {
        self.insts
            .iter()
            .enumerate()
            .map(|(i, inst)| (InstId::from_index(i), inst))
    }

    /// Pins ever created, tombstoned instances' included: the length of the
    /// pin arena [`PinId`]s index. Only structural edits change it.
    pub fn pin_count(&self) -> usize {
        self.pins.len()
    }

    /// Live instances.
    pub fn live_insts(&self) -> impl Iterator<Item = (InstId, &Instance)> {
        self.all_insts().filter(|(_, inst)| inst.alive)
    }

    /// Live registers.
    pub fn registers(&self) -> impl Iterator<Item = (InstId, &Instance)> {
        self.live_insts()
            .filter(|(_, inst)| matches!(inst.kind, InstKind::Register { .. }))
    }

    /// Live nets.
    pub fn live_nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, n)| (NetId::from_index(i), n))
    }

    /// All comb models.
    pub fn comb_models(&self) -> impl ExactSizeIterator<Item = (CombModelId, &CombModel)> {
        self.comb_models
            .iter()
            .enumerate()
            .map(|(i, m)| (CombModelId::from_index(i), m))
    }

    /// Absolute position of a pin: instance corner + pin offset.
    pub fn pin_position(&self, pin: PinId) -> Point {
        let p = &self.pins[pin.index()];
        self.insts[p.inst.index()].loc + p.offset
    }

    /// The driving pin of a net (an output pin), if any.
    pub fn net_driver(&self, net: NetId) -> Option<PinId> {
        self.nets[net.index()]
            .pins
            .iter()
            .copied()
            .find(|&p| self.pins[p.index()].dir == PinDir::Output)
    }

    /// The sink (input) pins of a net.
    pub fn net_sinks(&self, net: NetId) -> impl Iterator<Item = PinId> + '_ {
        self.nets[net.index()]
            .pins
            .iter()
            .copied()
            .filter(move |&p| self.pins[p.index()].dir == PinDir::Input)
    }

    /// Total input capacitance hanging on a net, fF (sink pins only).
    pub fn net_pin_cap(&self, net: NetId) -> f64 {
        self.net_sinks(net).map(|p| self.pins[p.index()].cap).sum()
    }

    /// The connected D/Q pin pairs of a register, bit by bit.
    ///
    /// For an incomplete MBR only the connected bits are returned.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is not a register.
    pub fn register_bit_pins(&self, inst: InstId) -> Vec<BitPins> {
        let instance = &self.insts[inst.index()];
        assert!(
            matches!(instance.kind, InstKind::Register { .. }),
            "{} is not a register",
            instance.name
        );
        let mut ds: Vec<(u8, PinId)> = Vec::new();
        let mut qs: Vec<(u8, PinId)> = Vec::new();
        for &p in &instance.pins {
            match self.pins[p.index()].kind {
                PinKind::D(b) => ds.push((b, p)),
                PinKind::Q(b) => qs.push((b, p)),
                _ => {}
            }
        }
        ds.sort_unstable_by_key(|&(b, _)| b);
        qs.sort_unstable_by_key(|&(b, _)| b);
        debug_assert_eq!(ds.len(), qs.len());
        ds.into_iter()
            .zip(qs)
            .filter(|((_, d), (_, q))| {
                // A bit counts as connected when either side is wired.
                self.pins[d.index()].net.is_some() || self.pins[q.index()].net.is_some()
            })
            .map(|((bit, d), (_, q))| BitPins { bit, d, q })
            .collect()
    }

    /// Number of connected bits of a register.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is not a register.
    pub fn register_width(&self, inst: InstId) -> u8 {
        match &self.insts[inst.index()].kind {
            InstKind::Register { connected_bits, .. } => *connected_bits,
            _ => panic!("{} is not a register", self.insts[inst.index()].name),
        }
    }

    /// The clock pin of a register.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is not a register.
    pub fn register_clock_pin(&self, inst: InstId) -> PinId {
        self.insts[inst.index()]
            .pins
            .iter()
            .copied()
            .find(|&p| self.pins[p.index()].kind == PinKind::Clock)
            // mbr-lint: allow(P1, add_register always creates the clock pin; absence means arena corruption)
            .expect("registers have a clock pin")
    }

    /// A pin of `inst` with the given kind, if present.
    pub fn find_pin(&self, inst: InstId, kind: PinKind) -> Option<PinId> {
        self.insts[inst.index()]
            .pins
            .iter()
            .copied()
            .find(|&p| self.pins[p.index()].kind == kind)
    }

    // ------------------------------------------------------------------
    // Metrics
    // ------------------------------------------------------------------

    /// HPWL of one net, DBU.
    pub fn net_hpwl(&self, net: NetId) -> Dbu {
        self.nets[net.index()]
            .pins
            .iter()
            .map(|&p| self.pin_position(p))
            .collect::<BoundingBox>()
            .hpwl()
    }

    /// Whether a net feeds at least one register clock pin.
    pub fn is_clock_net(&self, net: NetId) -> bool {
        self.nets[net.index()]
            .pins
            .iter()
            .any(|&p| self.pins[p.index()].kind == PinKind::Clock)
    }

    /// Total HPWL over live nets, split into (clock, other), DBU.
    pub fn wirelength(&self) -> (Dbu, Dbu) {
        let mut clock = 0;
        let mut other = 0;
        for (id, _) in self.live_nets() {
            let wl = self.net_hpwl(id);
            if self.is_clock_net(id) {
                clock += wl;
            } else {
                other += wl;
            }
        }
        (clock, other)
    }

    /// Number of live registers (each MBR counts as one, per Table 1).
    pub fn live_register_count(&self) -> usize {
        self.registers().count()
    }

    /// Total connected register bits across live registers.
    pub fn total_register_bits(&self) -> usize {
        self.registers()
            .map(|(id, _)| usize::from(self.register_width(id)))
            .sum()
    }

    /// Number of live instances.
    pub fn live_inst_count(&self) -> usize {
        self.live_insts().count()
    }

    /// Sum of live-register leakage, nW (from `lib`). Composition must keep
    /// this in check even with incomplete MBRs (paper Section 3).
    pub fn total_register_leakage(&self, lib: &Library) -> f64 {
        self.registers()
            .map(|(_, inst)| match &inst.kind {
                InstKind::Register { cell, .. } => lib.cell(*cell).leakage,
                _ => 0.0,
            })
            .sum()
    }

    /// Sum of live-instance areas, µm², with register areas taken from `lib`.
    pub fn total_area(&self, lib: &Library) -> f64 {
        self.live_insts()
            .map(|(_, inst)| match &inst.kind {
                InstKind::Register { cell, .. } => lib.cell(*cell).area,
                InstKind::Comb { model } => self.comb_models[model.index()].area,
                InstKind::Port { .. } => 0.0,
            })
            .sum()
    }
}

/// A control net the register class mandates. Omitting one is the
/// documented [`Design::add_register`] panic contract ("`attrs` omits a
/// control net the class requires").
fn required_control(net: Option<NetId>, msg: &str) -> NetId {
    // mbr-lint: allow(P1, class-required control nets are a documented add_register panic contract)
    net.expect(msg)
}

/// Offset of a register data pin inside its cell: D pins on the left edge,
/// Q pins on the right, bits spread evenly in y — the geometry
/// [`Design::add_register`] creates and the Section 4.2 placement LP
/// references as `(dxᵢ, dyᵢ)`.
pub fn register_data_pin_offset(cell: &mbr_liberty::MbrCell, bit: u8, is_d: bool) -> Point {
    let step = cell.footprint_h / (Dbu::from(cell.width) + 1);
    let y = step * (Dbu::from(bit) + 1);
    Point::new(if is_d { 0 } else { cell.footprint_w }, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbr_liberty::standard_library;

    fn die() -> Rect {
        Rect::new(Point::new(0, 0), Point::new(100_000, 100_000))
    }

    #[test]
    fn add_register_creates_expected_pins() {
        let lib = standard_library();
        let mut d = Design::new("t", die());
        let clk = d.add_net("clk");
        let rst = d.add_net("rst");
        let cell = lib.cell_by_name("DFF_R_4X1").unwrap();
        let mut attrs = RegisterAttrs::clocked(clk);
        attrs.reset = Some(rst);
        let r = d.add_register("r0", &lib, cell, Point::new(1000, 600), attrs);

        let bits = d.register_bit_pins(r);
        // D/Q pins exist but are unconnected, so no bit counts as connected.
        assert!(bits.is_empty());
        assert_eq!(d.register_width(r), 4);
        let ck = d.register_clock_pin(r);
        assert_eq!(d.pin(ck).net, Some(clk));
        assert!(d.find_pin(r, PinKind::Reset).is_some());
        assert!(d.find_pin(r, PinKind::Set).is_none());
        // clock + reset + 4 D + 4 Q
        assert_eq!(d.inst(r).pins.len(), 10);
    }

    #[test]
    fn connect_and_disconnect_maintain_net_pin_lists() {
        let lib = standard_library();
        let mut d = Design::new("t", die());
        let clk = d.add_net("clk");
        let cell = lib.cell_by_name("DFF_1X1").unwrap();
        let r = d.add_register("r0", &lib, cell, Point::ORIGIN, RegisterAttrs::clocked(clk));
        let n = d.add_net("n0");
        let bit_d = d.find_pin(r, PinKind::D(0)).unwrap();
        d.connect(bit_d, n);
        assert_eq!(d.net(n).pins, vec![bit_d]);
        assert_eq!(d.pin(bit_d).net, Some(n));
        // Reconnecting moves the pin.
        let n2 = d.add_net("n1");
        d.connect(bit_d, n2);
        assert!(d.net(n).pins.is_empty());
        assert!(!d.net(n).alive, "emptied net is dead");
        assert_eq!(d.net(n2).pins, vec![bit_d]);
        d.disconnect(bit_d);
        assert_eq!(d.pin(bit_d).net, None);
    }

    #[test]
    fn pin_positions_track_instance_moves() {
        let lib = standard_library();
        let mut d = Design::new("t", die());
        let clk = d.add_net("clk");
        let cell = lib.cell_by_name("DFF_1X1").unwrap();
        let r = d.add_register(
            "r0",
            &lib,
            cell,
            Point::new(5000, 600),
            RegisterAttrs::clocked(clk),
        );
        let ck = d.register_clock_pin(r);
        let before = d.pin_position(ck);
        d.inst_mut(r).loc = Point::new(7000, 1200);
        let after = d.pin_position(ck);
        assert_eq!(after - before, Point::new(2000, 600));
    }

    #[test]
    fn wirelength_splits_clock_from_signal() {
        let lib = standard_library();
        let mut d = Design::new("t", die());
        let clk = d.add_net("clk");
        let cell = lib.cell_by_name("DFF_1X1").unwrap();
        let r0 = d.add_register(
            "r0",
            &lib,
            cell,
            Point::new(0, 0),
            RegisterAttrs::clocked(clk),
        );
        let r1 = d.add_register(
            "r1",
            &lib,
            cell,
            Point::new(10_000, 0),
            RegisterAttrs::clocked(clk),
        );
        let sig = d.add_net("sig");
        let q0 = d.find_pin(r0, PinKind::Q(0)).unwrap();
        let d1 = d.find_pin(r1, PinKind::D(0)).unwrap();
        d.connect(q0, sig);
        d.connect(d1, sig);
        let (clock_wl, other_wl) = d.wirelength();
        assert!(clock_wl > 0, "clock net spans both flops");
        assert!(other_wl > 0, "signal net spans both flops");
        assert!(d.is_clock_net(clk));
        assert!(!d.is_clock_net(sig));
    }

    #[test]
    fn ports_connect_and_count() {
        let mut d = Design::new("t", die());
        let n = d.add_net("in0");
        let p = d.add_input_port("IN0", Point::new(0, 500), 2.0);
        let pin = d.inst(p).pins[0];
        d.connect(pin, n);
        assert_eq!(d.net_driver(n), Some(pin));
        let out = d.add_output_port("OUT0", Point::new(99_000, 500), 1.5);
        let opin = d.inst(out).pins[0];
        d.connect(opin, n);
        assert_eq!(d.net_sinks(n).count(), 1);
        assert_eq!(d.net_pin_cap(n), 1.5);
        assert_eq!(d.live_inst_count(), 2);
        assert_eq!(d.live_register_count(), 0);
    }

    #[test]
    fn comb_gate_has_model_pins() {
        let mut d = Design::new("t", die());
        let m = d.add_comb_model(CombModel::nand2());
        let g = d.add_comb("g0", m, Point::new(2000, 600));
        assert_eq!(d.inst(g).pins.len(), 3);
        assert!(d.find_pin(g, PinKind::GateIn(0)).is_some());
        assert!(d.find_pin(g, PinKind::GateIn(1)).is_some());
        assert!(d.find_pin(g, PinKind::GateOut).is_some());
        // Model dedupe.
        let m2 = d.add_comb_model(CombModel::nand2());
        assert_eq!(m, m2);
    }

    #[test]
    #[should_panic(expected = "duplicate instance name")]
    fn duplicate_instance_names_panic() {
        let lib = standard_library();
        let mut d = Design::new("t", die());
        let clk = d.add_net("clk");
        let cell = lib.cell_by_name("DFF_1X1").unwrap();
        d.add_register("r0", &lib, cell, Point::ORIGIN, RegisterAttrs::clocked(clk));
        d.add_register("r0", &lib, cell, Point::ORIGIN, RegisterAttrs::clocked(clk));
    }

    #[test]
    #[should_panic(expected = "attrs.reset required")]
    fn missing_required_control_net_panics() {
        let lib = standard_library();
        let mut d = Design::new("t", die());
        let clk = d.add_net("clk");
        let cell = lib.cell_by_name("DFF_R_1X1").unwrap();
        d.add_register("r0", &lib, cell, Point::ORIGIN, RegisterAttrs::clocked(clk));
    }

    #[test]
    #[should_panic(expected = "attrs.scan_enable required")]
    fn missing_scan_enable_net_panics() {
        let lib = standard_library();
        let mut d = Design::new("t", die());
        let clk = d.add_net("clk");
        let rst = d.add_net("rst");
        let cell = lib.cell_by_name("SDFF_R_1X1").unwrap();
        let mut attrs = RegisterAttrs::clocked(clk);
        attrs.reset = Some(rst);
        d.add_register("r0", &lib, cell, Point::ORIGIN, attrs);
    }
}
