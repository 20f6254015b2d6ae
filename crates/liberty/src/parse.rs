//! Handwritten parser and writer for the `.mbrlib` text format.
//!
//! The format is a compact, Liberty-inspired description of register classes
//! and MBR cells:
//!
//! ```text
//! library "lib28" {
//!   class DFF_R { ff reset }
//!   cell DFF_R_1X1 {
//!     class DFF_R; bits 1; drive X1;
//!     area 2.0; rdrive 6.0; tintr 60.0; setup 35.0;
//!     cclk 0.9; cd 0.5; leak 1.0; scan none; size 1000 600;
//!   }
//! }
//! ```
//!
//! Class bodies list flags from `{ff, latch, reset, set, enable, scan}`;
//! cell bodies are `key value;` statements. Comments run from `#` to end of
//! line. The parser is a hand-rolled lexer + recursive descent with
//! line/column error reporting — no parser generators, per the reproduction
//! ground rules for EDA inputs.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use crate::{CellKind, DriveClass, Library, MbrCell, RegisterClass, ScanStyle};

/// Error produced when parsing a `.mbrlib` file fails.
///
/// Carries the 1-based line and column of the offending token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseLibraryError {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseLibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mbrlib parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl Error for ParseLibraryError {}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Num(f64),
    LBrace,
    RBrace,
    Semi,
    Eof,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    /// Position of the most recently produced token.
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

    fn err(&self, message: impl Into<String>) -> ParseLibraryError {
        ParseLibraryError {
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

    fn next_tok(&mut self) -> Result<Tok, ParseLibraryError> {
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
                        Some(b'\n') | None => return Err(self.err("unterminated string literal")),
                        Some(c) => s.push(c as char),
                    }
                }
                Ok(Tok::Str(s))
            }
            b'-' | b'+' | b'0'..=b'9' | b'.' => {
                let start = self.pos;
                self.bump();
                while matches!(
                    self.peek(),
                    Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'-' | b'+')
                ) {
                    // Allow exponent signs only right after e/E.
                    if matches!(self.peek(), Some(b'-' | b'+'))
                        && !matches!(self.src[self.pos - 1], b'e' | b'E')
                    {
                        break;
                    }
                    self.bump();
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
                while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
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
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Self, ParseLibraryError> {
        let mut lexer = Lexer::new(src);
        let tok = lexer.next_tok()?;
        Ok(Parser { lexer, tok })
    }

    fn err(&self, message: impl Into<String>) -> ParseLibraryError {
        self.lexer.err(message)
    }

    fn advance(&mut self) -> Result<Tok, ParseLibraryError> {
        let next = self.lexer.next_tok()?;
        Ok(std::mem::replace(&mut self.tok, next))
    }

    fn expect_ident(&mut self) -> Result<String, ParseLibraryError> {
        match self.advance()? {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseLibraryError> {
        let got = self.expect_ident()?;
        if got == kw {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found `{got}`")))
        }
    }

    fn expect_tok(&mut self, want: Tok) -> Result<(), ParseLibraryError> {
        let got = self.advance()?;
        if got == want {
            Ok(())
        } else {
            Err(self.err(format!("expected {want:?}, found {got:?}")))
        }
    }

    fn expect_num(&mut self) -> Result<f64, ParseLibraryError> {
        match self.advance()? {
            Tok::Num(n) => Ok(n),
            other => Err(self.err(format!("expected number, found {other:?}"))),
        }
    }

    fn parse_library(&mut self) -> Result<Library, ParseLibraryError> {
        self.expect_keyword("library")?;
        let name = match self.advance()? {
            Tok::Str(s) | Tok::Ident(s) => s,
            other => return Err(self.err(format!("expected library name, found {other:?}"))),
        };
        self.expect_tok(Tok::LBrace)?;
        let mut lib = Library::new(name);
        loop {
            match self.advance()? {
                Tok::Ident(kw) if kw == "class" => self.parse_class(&mut lib)?,
                Tok::Ident(kw) if kw == "cell" => self.parse_cell(&mut lib)?,
                Tok::RBrace => break,
                other => {
                    return Err(
                        self.err(format!("expected `class`, `cell` or `}}`, found {other:?}"))
                    )
                }
            }
        }
        match self.advance()? {
            Tok::Eof => Ok(lib),
            other => Err(self.err(format!("trailing content after library: {other:?}"))),
        }
    }

    fn parse_class(&mut self, lib: &mut Library) -> Result<(), ParseLibraryError> {
        let name = self.expect_ident()?;
        self.expect_tok(Tok::LBrace)?;
        let mut class = RegisterClass::flip_flop(name);
        loop {
            match self.advance()? {
                Tok::RBrace => break,
                Tok::Ident(flag) => match flag.as_str() {
                    "ff" => class.kind = CellKind::FlipFlop,
                    "latch" => class.kind = CellKind::Latch,
                    "reset" => class.has_reset = true,
                    "set" => class.has_set = true,
                    "enable" => class.has_enable = true,
                    "scan" => class.has_scan = true,
                    other => return Err(self.err(format!("unknown class flag `{other}`"))),
                },
                other => return Err(self.err(format!("expected class flag, found {other:?}"))),
            }
        }
        lib.add_class(class);
        Ok(())
    }

    fn parse_cell(&mut self, lib: &mut Library) -> Result<(), ParseLibraryError> {
        let name = self.expect_ident()?;
        self.expect_tok(Tok::LBrace)?;

        let mut class = None;
        let mut bits = None;
        let mut drive = DriveClass::X1;
        let mut area = None;
        let mut rdrive = None;
        let mut tintr = None;
        let mut setup = 0.0;
        let mut cclk = None;
        let mut cd = None;
        let mut leak = 0.0;
        let mut scan = ScanStyle::None;
        let mut size = None;

        loop {
            let key = match self.advance()? {
                Tok::RBrace => break,
                Tok::Ident(k) => k,
                other => return Err(self.err(format!("expected cell attribute, found {other:?}"))),
            };
            match key.as_str() {
                "class" => {
                    let cname = self.expect_ident()?;
                    class = Some(lib.class_by_name(&cname).ok_or_else(|| {
                        self.err(format!("cell {name} references undefined class {cname}"))
                    })?);
                }
                "bits" => {
                    let n = self.expect_num()?;
                    if !(1.0..=255.0).contains(&n) || n.fract() != 0.0 {
                        return Err(self.err(format!("invalid bit count {n}")));
                    }
                    bits = Some(n as u8);
                }
                "drive" => {
                    drive = match self.expect_ident()?.as_str() {
                        "X1" => DriveClass::X1,
                        "X2" => DriveClass::X2,
                        "X4" => DriveClass::X4,
                        other => return Err(self.err(format!("unknown drive grade `{other}`"))),
                    };
                }
                "area" => area = Some(self.expect_num()?),
                "rdrive" => rdrive = Some(self.expect_num()?),
                "tintr" => tintr = Some(self.expect_num()?),
                "setup" => setup = self.expect_num()?,
                "cclk" => cclk = Some(self.expect_num()?),
                "cd" => cd = Some(self.expect_num()?),
                "leak" => leak = self.expect_num()?,
                "scan" => {
                    scan = match self.expect_ident()?.as_str() {
                        "none" => ScanStyle::None,
                        "internal" => ScanStyle::Internal,
                        "perbit" => ScanStyle::PerBit,
                        other => return Err(self.err(format!("unknown scan style `{other}`"))),
                    };
                }
                "size" => {
                    let w = self.expect_num()?;
                    let h = self.expect_num()?;
                    // 2^53 caps the exactly-representable integers; a larger
                    // value would cast to a silently different DBU count.
                    let in_range = |v: f64| (0.0..=9_007_199_254_740_992.0).contains(&v);
                    if !in_range(w) || !in_range(h) || w.fract() != 0.0 || h.fract() != 0.0 {
                        return Err(self.err("size must be non-negative integers (DBU)"));
                    }
                    size = Some((w as i64, h as i64));
                }
                other => return Err(self.err(format!("unknown cell attribute `{other}`"))),
            }
            self.expect_tok(Tok::Semi)?;
        }

        let missing = |what: &str| ParseLibraryError {
            line: self.lexer.tok_line,
            col: self.lexer.tok_col,
            message: format!("cell {name} is missing required attribute `{what}`"),
        };
        let (footprint_w, footprint_h) = size.ok_or_else(|| missing("size"))?;
        let cell = MbrCell {
            name: name.clone(),
            class: class.ok_or_else(|| missing("class"))?,
            width: bits.ok_or_else(|| missing("bits"))?,
            drive,
            area: area.ok_or_else(|| missing("area"))?,
            drive_resistance: rdrive.ok_or_else(|| missing("rdrive"))?,
            intrinsic_delay: tintr.ok_or_else(|| missing("tintr"))?,
            setup,
            clock_pin_cap: cclk.ok_or_else(|| missing("cclk"))?,
            d_pin_cap: cd.ok_or_else(|| missing("cd"))?,
            leakage: leak,
            scan_style: scan,
            footprint_w,
            footprint_h,
        };
        if lib.cell_by_name(&name).is_some() {
            return Err(self.err(format!("duplicate cell `{name}`")));
        }
        lib.add_cell(cell);
        Ok(())
    }
}

impl Library {
    /// Parses a library from `.mbrlib` text.
    ///
    /// # Errors
    ///
    /// Returns [`ParseLibraryError`] with line/column information on the
    /// first syntax or semantic error (unknown class reference, duplicate
    /// cell, missing attribute, malformed token).
    ///
    /// # Examples
    ///
    /// ```
    /// use mbr_liberty::Library;
    ///
    /// # fn main() -> Result<(), mbr_liberty::ParseLibraryError> {
    /// let lib = Library::parse(
    ///     r#"library "mini" {
    ///         class DFF { ff }
    ///         cell DFF_1 { class DFF; bits 1; area 2.0; rdrive 6.0;
    ///                      tintr 60; cclk 0.9; cd 0.5; size 1000 600; }
    ///     }"#,
    /// )?;
    /// assert_eq!(lib.cell_count(), 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn parse(src: &str) -> Result<Library, ParseLibraryError> {
        Parser::new(src)?.parse_library()
    }

    /// Serializes the library back to `.mbrlib` text.
    ///
    /// The output round-trips through [`Library::parse`].
    pub fn to_mbrlib(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "library \"{}\" {{", self.name());
        for (_, class) in self.classes() {
            let mut flags = vec![class.kind.to_string()];
            if class.has_reset {
                flags.push("reset".into());
            }
            if class.has_set {
                flags.push("set".into());
            }
            if class.has_enable {
                flags.push("enable".into());
            }
            if class.has_scan {
                flags.push("scan".into());
            }
            let _ = writeln!(out, "  class {} {{ {} }}", class.name, flags.join(" "));
        }
        for (_, cell) in self.cells() {
            let _ = writeln!(out, "  cell {} {{", cell.name);
            let _ = writeln!(
                out,
                "    class {}; bits {}; drive {};",
                self.class(cell.class).name,
                cell.width,
                cell.drive
            );
            let _ = writeln!(
                out,
                "    area {}; rdrive {}; tintr {}; setup {};",
                cell.area, cell.drive_resistance, cell.intrinsic_delay, cell.setup
            );
            let _ = writeln!(
                out,
                "    cclk {}; cd {}; leak {}; scan {}; size {} {};",
                cell.clock_pin_cap,
                cell.d_pin_cap,
                cell.leakage,
                cell.scan_style,
                cell.footprint_w,
                cell.footprint_h
            );
            let _ = writeln!(out, "  }}");
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard_library;

    #[test]
    fn parses_minimal_library() {
        let lib = Library::parse(
            r#"
            # a comment
            library "mini" {
              class DFF_R { ff reset }
              cell DFF_R_2 {
                class DFF_R; bits 2; drive X2;
                area 3.7; rdrive 3.0; tintr 55; setup 32;
                cclk 1.2; cd 0.5; leak 2.2; scan none; size 1900 600;
              }
            }
            "#,
        )
        .expect("valid library");
        assert_eq!(lib.name(), "mini");
        let class = lib.class_by_name("DFF_R").unwrap();
        assert!(lib.class(class).has_reset);
        let cell = lib.cell(lib.cell_by_name("DFF_R_2").unwrap());
        assert_eq!(cell.width, 2);
        assert_eq!(cell.drive, DriveClass::X2);
        assert_eq!(cell.footprint_w, 1900);
    }

    #[test]
    fn standard_library_round_trips() {
        let lib = standard_library();
        let text = lib.to_mbrlib();
        let reparsed = Library::parse(&text).expect("round trip");
        assert_eq!(reparsed.cell_count(), lib.cell_count());
        assert_eq!(reparsed.class_count(), lib.class_count());
        for (id, cell) in lib.cells() {
            let other = reparsed.cell(reparsed.cell_by_name(&cell.name).unwrap());
            assert_eq!(other, cell, "cell {id} must round-trip");
        }
    }

    #[test]
    fn error_reports_line_and_column() {
        let err = Library::parse("library \"x\" {\n  klass DFF { ff }\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("klass"), "message: {}", err.message);
    }

    #[test]
    fn overflowing_number_is_an_error_with_location() {
        for text in ["1e999", "-1e999"] {
            let err = Library::parse(&format!(
                "library \"x\" {{\n  class DFF {{ ff }}\n  cell C {{ class DFF; bits 1; area 1;\n    rdrive {text}; tintr 1; cclk 1; cd 1; size 100 100; }}\n}}"
            ))
            .unwrap_err();
            assert_eq!((err.line, err.col), (4, 12), "{err}");
            assert!(err.message.contains(text), "{}", err.message);
        }
    }

    #[test]
    fn undefined_class_reference_is_an_error() {
        let err = Library::parse(
            r#"library "x" {
              cell C { class NOPE; bits 1; area 1; rdrive 1; tintr 1; cclk 1; cd 1; size 100 100; }
            }"#,
        )
        .unwrap_err();
        assert!(err.message.contains("undefined class"), "{}", err.message);
    }

    #[test]
    fn missing_required_attribute_is_an_error() {
        let err = Library::parse(
            r#"library "x" {
              class DFF { ff }
              cell C { class DFF; bits 1; area 1; rdrive 1; tintr 1; cclk 1; size 100 100; }
            }"#,
        )
        .unwrap_err();
        assert!(err.message.contains("`cd`"), "{}", err.message);
    }

    #[test]
    fn unterminated_string_is_an_error() {
        let err = Library::parse("library \"oops {").unwrap_err();
        assert!(err.message.contains("unterminated"), "{}", err.message);
    }

    #[test]
    fn non_ascii_byte_is_reported_not_panicked() {
        let err = Library::parse("library \"x\" { é }").unwrap_err();
        assert!(err.message.contains("non-ASCII"), "{}", err.message);
    }

    #[test]
    fn oversized_cell_size_is_an_error() {
        let err = Library::parse(
            r#"library "x" {
              class DFF { ff }
              cell C { class DFF; bits 1; area 1; rdrive 1; tintr 1; cclk 1; cd 1; size 1e300 600; }
            }"#,
        )
        .unwrap_err();
        assert!(err.message.contains("size"), "{}", err.message);
    }

    #[test]
    fn negative_and_exponent_numbers_lex() {
        let lib = Library::parse(
            r#"library "x" {
              class DFF { ff }
              cell C { class DFF; bits 1; area 1.5e1; rdrive 6; tintr 6e1;
                       cclk 0.9; cd 0.5; size 1000 600; }
            }"#,
        )
        .unwrap();
        let cell = lib.cell(lib.cell_by_name("C").unwrap());
        assert_eq!(cell.area, 15.0);
        assert_eq!(cell.intrinsic_delay, 60.0);
    }
}
