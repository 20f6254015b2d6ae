//! Parser robustness: the handwritten `.mbrlib` parser must never panic,
//! whatever bytes it is fed, and must round-trip everything it accepts.

use mbr_liberty::{standard_library_with_widths, Library};
use mbr_test::check::{any_u64, btree_set_of, string_any};
use mbr_test::{prop_assert, prop_assert_eq, props};

props! {
    cases = 256;

    /// Arbitrary text: parse returns Ok or Err, never panics.
    fn parse_never_panics_on_arbitrary_text(src in string_any(0usize..400)) {
        let _ = Library::parse(&src);
    }

    /// Mutilated valid input (truncated at a random point): still no panic,
    /// and errors carry a plausible location.
    fn parse_survives_truncation(cut in 0usize..2000) {
        let full = standard_library_with_widths(&[1, 2, 4]).to_mbrlib();
        let cut = cut.min(full.len());
        // Truncate on a char boundary.
        let mut end = cut;
        while !full.is_char_boundary(end) {
            end -= 1;
        }
        match Library::parse(&full[..end]) {
            Ok(lib) => {
                // Only the complete text parses to the full library.
                prop_assert!(end == full.len() || lib.cell_count() == 0 || end > 0);
            }
            Err(e) => {
                prop_assert!(e.line >= 1 && e.col >= 1);
            }
        }
    }

    /// A numeric literal that overflows to ±∞ anywhere in a valid file is
    /// rejected with a located error, never accepted or panicked on.
    fn overflowing_numbers_are_rejected(pick in any_u64(), negative in 0u8..2) {
        let full = standard_library_with_widths(&[1, 2, 4]).to_mbrlib();
        let spans = numeric_tokens(&full);
        let span = spans[(pick % spans.len() as u64) as usize].clone();
        let huge = if negative == 1 { "-1e999" } else { "1e999" };
        let src = format!("{}{huge}{}", &full[..span.start], &full[span.end..]);
        match Library::parse(&src) {
            Ok(_) => prop_assert!(false, "accepted {huge} at byte {}", span.start),
            Err(e) => prop_assert!(e.message.contains(huge), "{}", e.message),
        }
    }

    /// Whatever widths we build the default library with, serialization
    /// round-trips exactly.
    fn library_round_trips_for_any_width_set(widths in btree_set_of(1u8..32, 1usize..6)) {
        let widths: Vec<u8> = widths.into_iter().collect();
        let lib = standard_library_with_widths(&widths);
        let text = lib.to_mbrlib();
        let re = Library::parse(&text).expect("own output parses");
        prop_assert_eq!(re.cell_count(), lib.cell_count());
        prop_assert_eq!(re.class_count(), lib.class_count());
        for (_, cell) in lib.cells() {
            let other = re.cell(re.cell_by_name(&cell.name).expect("cell name survives"));
            prop_assert_eq!(other, cell);
        }
    }
}

/// Byte ranges of the numeric tokens of a valid file, outside comments and
/// string literals.
fn numeric_tokens(text: &str) -> Vec<std::ops::Range<usize>> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'"' => {
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += 1;
                }
                i += 1;
            }
            b if b.is_ascii_whitespace() || b"{}();".contains(&b) => i += 1,
            _ => {
                let start = i;
                while i < bytes.len()
                    && !bytes[i].is_ascii_whitespace()
                    && !b"{}();\"#".contains(&bytes[i])
                {
                    i += 1;
                }
                let token = &text[start..i];
                if token.starts_with(|c: char| c.is_ascii_digit() || "+-.".contains(c))
                    && token.parse::<f64>().is_ok()
                {
                    spans.push(start..i);
                }
            }
        }
    }
    spans
}
