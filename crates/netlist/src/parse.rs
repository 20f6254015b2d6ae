//! Handwritten parser and writer for the `.design` text format.
//!
//! A `.design` file is a placed gate-level netlist with register metadata:
//!
//! ```text
//! design "demo" {
//!   die 0 0 400000 300000;
//!   comb_model NAND2 { inputs 2; area 0.8; cap 0.7; rdrive 4.0; tintr 18; size 400 600; }
//!   port CLK in (0 300) rdrive 1.0 net clk;
//!   port OUT out (400000 300) load 1.5 net y;
//!   inst r0 reg DFF_R_1X1 (10000 600) {
//!     clock clk; gate 0; reset rst_n; skew 0;
//!     scan part 1 section 0 pos 4;
//!     d 0 nd0; q 0 nq0;
//!   }
//!   inst g0 comb NAND2 (12000 600) { in 0 nq0; in 1 nd0; out y; }
//! }
//! ```
//!
//! Register cells are resolved against an [`mbr_liberty::Library`], so
//! parsing takes the library as an argument. Nets are created implicitly on
//! first reference. Like the `.mbrlib` parser this is a hand-rolled lexer +
//! recursive descent — no parser generators.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use mbr_geom::{Point, Rect};
use mbr_liberty::Library;

use crate::{CombModel, Design, InstKind, PinKind, PortDir, RegisterAttrs, ScanInfo};

/// Error produced when parsing a `.design` file fails, with 1-based
/// line/column of the offending token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseDesignError {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseDesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "design parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl Error for ParseDesignError {}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Num(f64),
    LBrace,
    RBrace,
    LParen,
    RParen,
    Semi,
    Eof,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    tok_line: u32,
    tok_col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            tok_line: 1,
            tok_col: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseDesignError {
        ParseDesignError {
            line: self.tok_line,
            col: self.tok_col,
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let b = *self.src.get(self.pos)?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'#') => {
                    while let Some(b) = self.bump() {
                        if b == b'\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    fn next_tok(&mut self) -> Result<Tok, ParseDesignError> {
        self.skip_trivia();
        self.tok_line = self.line;
        self.tok_col = self.col;
        let Some(b) = self.peek() else {
            return Ok(Tok::Eof);
        };
        match b {
            b'{' => {
                self.bump();
                Ok(Tok::LBrace)
            }
            b'}' => {
                self.bump();
                Ok(Tok::RBrace)
            }
            b'(' => {
                self.bump();
                Ok(Tok::LParen)
            }
            b')' => {
                self.bump();
                Ok(Tok::RParen)
            }
            b';' => {
                self.bump();
                Ok(Tok::Semi)
            }
            b'"' => {
                self.bump();
                let mut s = String::new();
                loop {
                    match self.bump() {
                        Some(b'"') => break,
                        Some(b'\n') | None => return Err(self.err("unterminated string")),
                        Some(c) => s.push(c as char),
                    }
                }
                Ok(Tok::Str(s))
            }
            b'-' | b'+' | b'0'..=b'9' => {
                let start = self.pos;
                self.bump();
                while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E')) {
                    self.bump();
                }
                // exponent sign
                if matches!(self.src.get(self.pos.wrapping_sub(1)), Some(b'e' | b'E'))
                    && matches!(self.peek(), Some(b'-' | b'+'))
                {
                    self.bump();
                    while matches!(self.peek(), Some(b'0'..=b'9')) {
                        self.bump();
                    }
                }
                let text = std::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|_| self.err("non-ASCII bytes in number"))?;
                match text.parse::<f64>() {
                    Ok(x) if x.is_finite() => Ok(Tok::Num(x)),
                    // `1e999` parses to ±∞; no field of the format takes it.
                    Ok(_) => Err(self.err(format!("number `{text}` overflows"))),
                    Err(_) => Err(self.err(format!("invalid number `{text}`"))),
                }
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = self.pos;
                while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b'[' || c == b']')
                {
                    self.bump();
                }
                let text = std::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|_| self.err("non-ASCII bytes in identifier"))?;
                Ok(Tok::Ident(text.to_owned()))
            }
            other if other.is_ascii() => {
                Err(self.err(format!("unexpected character `{}`", other as char)))
            }
            other => Err(self.err(format!("unexpected non-ASCII byte 0x{other:02X}"))),
        }
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    tok: Tok,
    lib: &'a Library,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, lib: &'a Library) -> Result<Self, ParseDesignError> {
        let mut lexer = Lexer::new(src);
        let tok = lexer.next_tok()?;
        Ok(Parser { lexer, tok, lib })
    }

    fn err(&self, m: impl Into<String>) -> ParseDesignError {
        self.lexer.err(m)
    }

    fn advance(&mut self) -> Result<Tok, ParseDesignError> {
        let next = self.lexer.next_tok()?;
        Ok(std::mem::replace(&mut self.tok, next))
    }

    fn expect_ident(&mut self) -> Result<String, ParseDesignError> {
        match self.advance()? {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseDesignError> {
        let got = self.expect_ident()?;
        if got == kw {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found `{got}`")))
        }
    }

    fn expect_tok(&mut self, want: Tok) -> Result<(), ParseDesignError> {
        let got = self.advance()?;
        if got == want {
            Ok(())
        } else {
            Err(self.err(format!("expected {want:?}, found {got:?}")))
        }
    }

    fn expect_num(&mut self) -> Result<f64, ParseDesignError> {
        match self.advance()? {
            Tok::Num(n) => Ok(n),
            other => Err(self.err(format!("expected number, found {other:?}"))),
        }
    }

    fn expect_int(&mut self) -> Result<i64, ParseDesignError> {
        let n = self.expect_num()?;
        // 2^53 bounds the range where f64 represents every integer exactly;
        // beyond it the `as i64` cast would silently land on a nearby value.
        if n.fract() != 0.0 || n.abs() > 9_007_199_254_740_992.0 {
            return Err(self.err(format!("expected integer, found {n}")));
        }
        Ok(n as i64)
    }

    /// An integer in `0..=max`, for fields stored in narrow unsigned types.
    fn expect_int_in(&mut self, what: &str, max: i64) -> Result<i64, ParseDesignError> {
        let v = self.expect_int()?;
        if !(0..=max).contains(&v) {
            return Err(self.err(format!("{what} {v} out of range 0..={max}")));
        }
        Ok(v)
    }

    fn expect_point(&mut self) -> Result<Point, ParseDesignError> {
        self.expect_tok(Tok::LParen)?;
        let x = self.expect_int()?;
        let y = self.expect_int()?;
        self.expect_tok(Tok::RParen)?;
        Ok(Point::new(x, y))
    }

    fn parse_design(&mut self) -> Result<Design, ParseDesignError> {
        self.expect_keyword("design")?;
        let name = match self.advance()? {
            Tok::Str(s) | Tok::Ident(s) => s,
            other => return Err(self.err(format!("expected design name, found {other:?}"))),
        };
        self.expect_tok(Tok::LBrace)?;
        self.expect_keyword("die")?;
        let x0 = self.expect_int()?;
        let y0 = self.expect_int()?;
        let x1 = self.expect_int()?;
        let y1 = self.expect_int()?;
        self.expect_tok(Tok::Semi)?;
        let mut design = Design::new(name, Rect::new(Point::new(x0, y0), Point::new(x1, y1)));

        loop {
            match self.advance()? {
                Tok::RBrace => break,
                Tok::Ident(kw) if kw == "comb_model" => self.parse_comb_model(&mut design)?,
                Tok::Ident(kw) if kw == "port" => self.parse_port(&mut design)?,
                Tok::Ident(kw) if kw == "inst" => self.parse_inst(&mut design)?,
                other => {
                    return Err(self.err(format!(
                        "expected `comb_model`, `port`, `inst` or `}}`, found {other:?}"
                    )))
                }
            }
        }
        match self.advance()? {
            Tok::Eof => Ok(design),
            other => Err(self.err(format!("trailing content: {other:?}"))),
        }
    }

    fn parse_comb_model(&mut self, design: &mut Design) -> Result<(), ParseDesignError> {
        let name = self.expect_ident()?;
        self.expect_tok(Tok::LBrace)?;
        let mut inputs = None;
        let mut area = None;
        let mut cap = None;
        let mut rdrive = None;
        let mut tintr = None;
        let mut size = None;
        loop {
            let key = match self.advance()? {
                Tok::RBrace => break,
                Tok::Ident(k) => k,
                other => return Err(self.err(format!("expected attribute, found {other:?}"))),
            };
            match key.as_str() {
                "inputs" => inputs = Some(self.expect_int()?),
                "area" => area = Some(self.expect_num()?),
                "cap" => cap = Some(self.expect_num()?),
                "rdrive" => rdrive = Some(self.expect_num()?),
                "tintr" => tintr = Some(self.expect_num()?),
                "size" => {
                    let w = self.expect_int()?;
                    let h = self.expect_int()?;
                    size = Some((w, h));
                }
                other => return Err(self.err(format!("unknown comb attribute `{other}`"))),
            }
            self.expect_tok(Tok::Semi)?;
        }
        let missing =
            |p: &Self, n: &str, what: &str| p.err(format!("comb_model {n} missing `{what}`"));
        let inputs = inputs.ok_or_else(|| missing(self, &name, "inputs"))?;
        if !(1..=255).contains(&inputs) {
            return Err(self.err(format!(
                "comb_model {name} has invalid input count {inputs}"
            )));
        }
        let (footprint_w, footprint_h) = size.ok_or_else(|| missing(self, &name, "size"))?;
        let input_cap = cap.ok_or_else(|| missing(self, &name, "cap"))?;
        let drive_resistance = rdrive.ok_or_else(|| missing(self, &name, "rdrive"))?;
        let intrinsic_delay = tintr.ok_or_else(|| missing(self, &name, "tintr"))?;
        design.add_comb_model(CombModel {
            name,
            inputs: inputs as u8,
            area: area.unwrap_or(1.0),
            input_cap,
            drive_resistance,
            intrinsic_delay,
            footprint_w,
            footprint_h,
        });
        Ok(())
    }

    fn parse_port(&mut self, design: &mut Design) -> Result<(), ParseDesignError> {
        let name = self.expect_ident()?;
        let dir = match self.expect_ident()?.as_str() {
            "in" => PortDir::Input,
            "out" => PortDir::Output,
            other => return Err(self.err(format!("expected `in`/`out`, found `{other}`"))),
        };
        let loc = self.expect_point()?;
        let mut rdrive = 1.0;
        let mut load = 1.0;
        let mut net = None;
        loop {
            match self.advance()? {
                Tok::Semi => break,
                Tok::Ident(k) if k == "rdrive" => rdrive = self.expect_num()?,
                Tok::Ident(k) if k == "load" => load = self.expect_num()?,
                Tok::Ident(k) if k == "net" => net = Some(self.expect_ident()?),
                other => return Err(self.err(format!("unexpected port attribute {other:?}"))),
            }
        }
        let inst = match dir {
            PortDir::Input => design.add_input_port(name, loc, rdrive),
            PortDir::Output => design.add_output_port(name, loc, load),
        };
        if let Some(netname) = net {
            let n = design.add_net(netname);
            let pin = design.inst(inst).pins[0];
            design.connect(pin, n);
        }
        Ok(())
    }

    fn parse_inst(&mut self, design: &mut Design) -> Result<(), ParseDesignError> {
        let name = self.expect_ident()?;
        let kind = self.expect_ident()?;
        match kind.as_str() {
            "reg" => self.parse_register(design, name),
            "comb" => self.parse_comb_inst(design, name),
            other => Err(self.err(format!("expected `reg` or `comb`, found `{other}`"))),
        }
    }

    fn parse_register(
        &mut self,
        design: &mut Design,
        name: String,
    ) -> Result<(), ParseDesignError> {
        let cell_name = self.expect_ident()?;
        let cell = self
            .lib
            .cell_by_name(&cell_name)
            .ok_or_else(|| self.err(format!("unknown library cell `{cell_name}`")))?;
        let loc = self.expect_point()?;
        self.expect_tok(Tok::LBrace)?;

        let mut clock = None;
        let mut gate_group = 0u32;
        let mut reset = None;
        let mut set = None;
        let mut enable = None;
        let mut scan_enable = None;
        let mut scan = None;
        let mut fixed = false;
        let mut size_only = false;
        let mut skew = 0.0;
        // (kind, bit, net name)
        let mut conns: Vec<(char, u8, String)> = Vec::new();

        loop {
            let key = match self.advance()? {
                Tok::RBrace => break,
                Tok::Ident(k) => k,
                other => {
                    return Err(self.err(format!("expected register statement, found {other:?}")))
                }
            };
            match key.as_str() {
                "clock" => clock = Some(self.expect_ident()?),
                "gate" => {
                    gate_group = self.expect_int_in("gate group", i64::from(u32::MAX))? as u32;
                }
                "reset" => reset = Some(self.expect_ident()?),
                "set" => set = Some(self.expect_ident()?),
                "enable" => enable = Some(self.expect_ident()?),
                "scan_enable" => scan_enable = Some(self.expect_ident()?),
                "skew" => skew = self.expect_num()?,
                "fixed" => fixed = true,
                "sizeonly" => size_only = true,
                "scan" => {
                    self.expect_keyword("part")?;
                    let partition =
                        self.expect_int_in("scan partition", i64::from(u16::MAX))? as u16;
                    let mut section = None;
                    if let Tok::Ident(ref k) = self.tok {
                        if k == "section" {
                            self.advance()?;
                            let sec =
                                self.expect_int_in("scan section", i64::from(u32::MAX))? as u32;
                            self.expect_keyword("pos")?;
                            let pos =
                                self.expect_int_in("scan position", i64::from(u32::MAX))? as u32;
                            section = Some((sec, pos));
                        }
                    }
                    scan = Some(ScanInfo { partition, section });
                }
                "d" | "q" | "si" | "so" => {
                    let bit = self.expect_int_in("bit index", 255)?;
                    let net = self.expect_ident()?;
                    let tag = match key.as_str() {
                        "d" => 'd',
                        "q" => 'q',
                        "si" => 'i',
                        _ => 'o',
                    };
                    conns.push((tag, bit as u8, net));
                }
                other => return Err(self.err(format!("unknown register statement `{other}`"))),
            }
            self.expect_tok(Tok::Semi)?;
        }

        let clock = clock.ok_or_else(|| self.err(format!("register {name} missing `clock`")))?;
        let mut attrs = RegisterAttrs::clocked(design.add_net(clock));
        attrs.gate_group = gate_group;
        attrs.reset = reset.map(|n| design.add_net(n));
        attrs.set = set.map(|n| design.add_net(n));
        attrs.enable = enable.map(|n| design.add_net(n));
        attrs.scan_enable = scan_enable.map(|n| design.add_net(n));
        attrs.scan = scan;
        attrs.fixed = fixed;
        attrs.size_only = size_only;
        attrs.clock_offset = skew;

        if design.inst_by_name(&name).is_some() {
            return Err(self.err(format!("duplicate instance `{name}`")));
        }
        let inst = design.add_register(name.clone(), self.lib, cell, loc, attrs);
        for (tag, bit, netname) in conns {
            let kind = match tag {
                'd' => PinKind::D(bit),
                'q' => PinKind::Q(bit),
                'i' => PinKind::ScanIn(bit),
                _ => PinKind::ScanOut(bit),
            };
            let pin = design
                .find_pin(inst, kind)
                .ok_or_else(|| self.err(format!("register {name} has no {kind:?} pin")))?;
            let net = design.add_net(netname);
            design.connect(pin, net);
        }
        // Recompute connected bits from the wiring just made.
        let connected = design.register_bit_pins(inst).len() as u8;
        if let InstKind::Register { connected_bits, .. } = &mut design.inst_mut(inst).kind {
            *connected_bits = connected;
        }
        Ok(())
    }

    fn parse_comb_inst(
        &mut self,
        design: &mut Design,
        name: String,
    ) -> Result<(), ParseDesignError> {
        let model_name = self.expect_ident()?;
        let model = design
            .comb_model_by_name(&model_name)
            .ok_or_else(|| self.err(format!("unknown comb model `{model_name}`")))?;
        let loc = self.expect_point()?;
        self.expect_tok(Tok::LBrace)?;
        if design.inst_by_name(&name).is_some() {
            return Err(self.err(format!("duplicate instance `{name}`")));
        }
        let inst = design.add_comb(name.clone(), model, loc);
        loop {
            let key = match self.advance()? {
                Tok::RBrace => break,
                Tok::Ident(k) => k,
                other => return Err(self.err(format!("expected pin statement, found {other:?}"))),
            };
            let kind = match key.as_str() {
                "in" => {
                    let i = self.expect_int_in("gate input index", 255)?;
                    PinKind::GateIn(i as u8)
                }
                "out" => PinKind::GateOut,
                other => return Err(self.err(format!("unknown pin statement `{other}`"))),
            };
            let netname = self.expect_ident()?;
            self.expect_tok(Tok::Semi)?;
            let pin = design
                .find_pin(inst, kind)
                .ok_or_else(|| self.err(format!("gate {name} has no {kind:?} pin")))?;
            let net = design.add_net(netname);
            design.connect(pin, net);
        }
        Ok(())
    }
}

impl Design {
    /// Parses a design from `.design` text, resolving register cells against
    /// `lib`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDesignError`] with line/column information on the first
    /// syntax or semantic error (unknown cell/model, duplicate instance,
    /// missing clock, malformed token).
    pub fn parse(src: &str, lib: &Library) -> Result<Design, ParseDesignError> {
        Parser::new(src, lib)?.parse_design()
    }

    /// Serializes the design to `.design` text. Live instances only; the
    /// output round-trips through [`Design::parse`] with the same library.
    pub fn to_design_text(&self, lib: &Library) -> String {
        let mut out = String::new();
        let die = self.die();
        let _ = writeln!(out, "design \"{}\" {{", self.name());
        let _ = writeln!(
            out,
            "  die {} {} {} {};",
            die.lo().x,
            die.lo().y,
            die.hi().x,
            die.hi().y
        );
        for (_, m) in self.comb_models() {
            let _ = writeln!(
                out,
                "  comb_model {} {{ inputs {}; area {}; cap {}; rdrive {}; tintr {}; size {} {}; }}",
                m.name, m.inputs, m.area, m.input_cap, m.drive_resistance, m.intrinsic_delay,
                m.footprint_w, m.footprint_h
            );
        }
        for (id, inst) in self.live_insts() {
            match &inst.kind {
                InstKind::Port {
                    dir,
                    drive_resistance,
                    load,
                } => {
                    let net = inst.pins.first().and_then(|&p| self.pin(p).net);
                    let netpart = net
                        .map(|n| format!(" net {}", self.net(n).name))
                        .unwrap_or_default();
                    match dir {
                        PortDir::Input => {
                            let _ = writeln!(
                                out,
                                "  port {} in ({} {}) rdrive {}{};",
                                inst.name, inst.loc.x, inst.loc.y, drive_resistance, netpart
                            );
                        }
                        PortDir::Output => {
                            let _ = writeln!(
                                out,
                                "  port {} out ({} {}) load {}{};",
                                inst.name, inst.loc.x, inst.loc.y, load, netpart
                            );
                        }
                    }
                }
                InstKind::Register { cell, attrs, .. } => {
                    let _ = writeln!(
                        out,
                        "  inst {} reg {} ({} {}) {{",
                        inst.name,
                        lib.cell(*cell).name,
                        inst.loc.x,
                        inst.loc.y
                    );
                    let _ = writeln!(out, "    clock {};", self.net(attrs.clock).name);
                    if attrs.gate_group != 0 {
                        let _ = writeln!(out, "    gate {};", attrs.gate_group);
                    }
                    for (kw, net) in [
                        ("reset", attrs.reset),
                        ("set", attrs.set),
                        ("enable", attrs.enable),
                        ("scan_enable", attrs.scan_enable),
                    ] {
                        if let Some(n) = net {
                            let _ = writeln!(out, "    {kw} {};", self.net(n).name);
                        }
                    }
                    if attrs.clock_offset != 0.0 {
                        let _ = writeln!(out, "    skew {};", attrs.clock_offset);
                    }
                    if attrs.fixed {
                        let _ = writeln!(out, "    fixed;");
                    }
                    if attrs.size_only {
                        let _ = writeln!(out, "    sizeonly;");
                    }
                    if let Some(scan) = attrs.scan {
                        match scan.section {
                            Some((sec, pos)) => {
                                let _ = writeln!(
                                    out,
                                    "    scan part {} section {sec} pos {pos};",
                                    scan.partition
                                );
                            }
                            None => {
                                let _ = writeln!(out, "    scan part {};", scan.partition);
                            }
                        }
                    }
                    for &p in &inst.pins {
                        let pin = self.pin(p);
                        let Some(net) = pin.net else { continue };
                        let netname = &self.net(net).name;
                        match pin.kind {
                            PinKind::D(b) => {
                                let _ = writeln!(out, "    d {b} {netname};");
                            }
                            PinKind::Q(b) => {
                                let _ = writeln!(out, "    q {b} {netname};");
                            }
                            PinKind::ScanIn(b) => {
                                let _ = writeln!(out, "    si {b} {netname};");
                            }
                            PinKind::ScanOut(b) => {
                                let _ = writeln!(out, "    so {b} {netname};");
                            }
                            _ => {}
                        }
                    }
                    let _ = writeln!(out, "  }}");
                    let _ = id; // ids are not serialized; names are the identity
                }
                InstKind::Comb { model } => {
                    let _ = writeln!(
                        out,
                        "  inst {} comb {} ({} {}) {{",
                        inst.name,
                        self.comb_model(*model).name,
                        inst.loc.x,
                        inst.loc.y
                    );
                    for &p in &inst.pins {
                        let pin = self.pin(p);
                        let Some(net) = pin.net else { continue };
                        let netname = &self.net(net).name;
                        match pin.kind {
                            PinKind::GateIn(i) => {
                                let _ = writeln!(out, "    in {i} {netname};");
                            }
                            PinKind::GateOut => {
                                let _ = writeln!(out, "    out {netname};");
                            }
                            _ => {}
                        }
                    }
                    let _ = writeln!(out, "  }}");
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbr_liberty::standard_library;

    const SAMPLE: &str = r#"
        design "demo" {
          die 0 0 400000 300000;
          comb_model NAND2 { inputs 2; area 0.8; cap 0.7; rdrive 4.0; tintr 18; size 400 600; }
          port CLK in (0 300) rdrive 1.0 net clk;
          port RST in (0 900) rdrive 1.0 net rst;
          port OUT out (399000 300) load 1.5 net y;
          inst r0 reg DFF_R_1X1 (10000 600) {
            clock clk; reset rst; skew 12.5;
            d 0 nd0; q 0 nq0;
          }
          inst r1 reg DFF_R_2X2 (20000 600) {
            clock clk; gate 3; reset rst; fixed;
            scan part 1 section 0 pos 4;
            d 0 nq0; q 0 nd0; d 1 nd1; q 1 y;
          }
          inst g0 comb NAND2 (12000 1200) { in 0 nq0; in 1 y; out nd1; }
        }
    "#;

    #[test]
    fn parses_sample_design() {
        let lib = standard_library();
        let d = Design::parse(SAMPLE, &lib).expect("valid design");
        assert_eq!(d.name(), "demo");
        assert_eq!(d.live_register_count(), 2);
        let r0 = d.inst_by_name("r0").unwrap();
        assert_eq!(d.register_width(r0), 1);
        let attrs = d.inst(r0).register_attrs().unwrap();
        assert_eq!(attrs.clock_offset, 12.5);
        let r1 = d.inst_by_name("r1").unwrap();
        let attrs = d.inst(r1).register_attrs().unwrap();
        assert!(attrs.fixed);
        assert_eq!(attrs.gate_group, 3);
        assert_eq!(
            attrs.scan,
            Some(ScanInfo {
                partition: 1,
                section: Some((0, 4))
            })
        );
        assert_eq!(d.register_width(r1), 2);
        // The NAND drives nd1 which feeds r1's D(1).
        let nd1 = d.net_by_name("nd1").unwrap();
        assert!(d.net_driver(nd1).is_some());
        assert_eq!(d.net_sinks(nd1).count(), 1);
    }

    #[test]
    fn round_trips_through_writer() {
        let lib = standard_library();
        let d = Design::parse(SAMPLE, &lib).expect("valid design");
        let text = d.to_design_text(&lib);
        let d2 = Design::parse(&text, &lib).expect("round trip");
        assert_eq!(d2.live_register_count(), d.live_register_count());
        assert_eq!(d2.live_inst_count(), d.live_inst_count());
        assert_eq!(d2.wirelength(), d.wirelength());
        let r1 = d2.inst_by_name("r1").unwrap();
        let attrs = d2.inst(r1).register_attrs().unwrap();
        assert!(attrs.fixed);
        assert_eq!(
            attrs.scan,
            Some(ScanInfo {
                partition: 1,
                section: Some((0, 4))
            })
        );
    }

    #[test]
    fn unknown_cell_is_an_error_with_location() {
        let lib = standard_library();
        let err = Design::parse(
            "design d { die 0 0 10 10;\n inst r reg NOPE (0 0) { clock c; } }",
            &lib,
        )
        .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("NOPE"));
    }

    #[test]
    fn missing_clock_is_an_error() {
        let lib = standard_library();
        let err = Design::parse(
            "design d { die 0 0 99000 99000; inst r reg DFF_1X1 (0 0) { d 0 n; } }",
            &lib,
        )
        .unwrap_err();
        assert!(err.message.contains("missing `clock`"), "{}", err.message);
    }

    #[test]
    fn duplicate_instance_is_an_error() {
        let lib = standard_library();
        let err = Design::parse(
            "design d { die 0 0 99000 99000;
             inst r reg DFF_1X1 (0 0) { clock c; }
             inst r reg DFF_1X1 (0 0) { clock c; } }",
            &lib,
        )
        .unwrap_err();
        assert!(err.message.contains("duplicate"), "{}", err.message);
    }

    #[test]
    fn out_of_range_scan_partition_is_an_error() {
        let lib = standard_library();
        let err = Design::parse(
            "design d { die 0 0 99000 99000;\n inst r reg DFF_1X1 (0 0) { clock c; scan part 70000; } }",
            &lib,
        )
        .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("scan partition"), "{}", err.message);
        assert!(err.message.contains("70000"), "{}", err.message);
    }

    #[test]
    fn out_of_range_gate_group_is_an_error() {
        let lib = standard_library();
        let err = Design::parse(
            "design d { die 0 0 99000 99000; inst r reg DFF_1X1 (0 0) { clock c; gate 5000000000; } }",
            &lib,
        )
        .unwrap_err();
        assert!(err.message.contains("gate group"), "{}", err.message);
    }

    #[test]
    fn out_of_range_bit_index_is_an_error() {
        let lib = standard_library();
        let err = Design::parse(
            "design d { die 0 0 99000 99000; inst r reg DFF_1X1 (0 0) { clock c; d 300 n; } }",
            &lib,
        )
        .unwrap_err();
        assert!(err.message.contains("bit index"), "{}", err.message);
    }

    #[test]
    fn integer_beyond_f64_precision_is_an_error() {
        let lib = standard_library();
        let err = Design::parse("design d { die 0 0 1e300 99000; }", &lib).unwrap_err();
        assert!(err.message.contains("expected integer"), "{}", err.message);
    }

    #[test]
    fn overflowing_number_is_an_error_with_location() {
        let lib = standard_library();
        for text in ["1e999", "-1e999"] {
            let err = Design::parse(
                &format!(
                    "design d {{ die 0 0 99000 99000;\n port CLK0 in (0 18000) rdrive {text} net clk0; }}"
                ),
                &lib,
            )
            .unwrap_err();
            assert_eq!((err.line, err.col), (2, 32), "{err}");
            assert!(err.message.contains(text), "{}", err.message);
        }
    }

    #[test]
    fn non_ascii_byte_is_reported_not_panicked() {
        let lib = standard_library();
        let err = Design::parse("design d { die 0 0 99000 99000; é }", &lib).unwrap_err();
        assert!(err.message.contains("non-ASCII"), "{}", err.message);
    }

    #[test]
    fn parsed_design_validates_cleanly_modulo_ports() {
        let lib = standard_library();
        let d = Design::parse(SAMPLE, &lib).expect("valid design");
        // nq0 in SAMPLE drives two sinks; nd0 has driver r1.Q(0) and sink
        // r0.D(0); everything has exactly one driver.
        let issues = d.validate();
        assert!(issues.is_empty(), "{issues:?}");
    }
}
