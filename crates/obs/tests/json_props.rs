//! Parser robustness: `json::parse` must never panic, whatever text it is
//! fed, and must read back every string `json::write_str` writes.

use mbr_obs::json::{self, Value};
use mbr_test::check::string_any;
use mbr_test::{prop_assert_eq, props};

/// A valid ASCII document using every value kind and escape form, the seed
/// of the mutation property.
const DOC: &str = r#"{"s":"a \"q\" \\ \/\b\f\n\r\t\u00e9\uD83D\uDE00","n":[0,-1.5e3,18446744073709551616],"t":true,"f":false,"z":null,"o":{}}"#;

#[test]
fn mutation_seed_is_valid() {
    assert!(DOC.is_ascii());
    assert!(json::parse(DOC).is_ok());
}

props! {
    cases = 256;

    /// Arbitrary text: `Ok` or `Err`, never a panic.
    fn parse_never_panics_on_arbitrary_text(text in string_any(0usize..200)) {
        let _ = json::parse(&text);
    }

    /// The seed document with one byte replaced: `Ok` or `Err`, never a
    /// panic.
    fn parse_survives_single_byte_mutations(at in 0usize..DOC.len(), byte in 0u8..0x80) {
        let mut bytes = DOC.as_bytes().to_vec();
        bytes[at] = byte;
        let text = String::from_utf8(bytes).expect("ASCII stays UTF-8");
        let _ = json::parse(&text);
    }

    /// Every string survives `write_str` then `parse`.
    fn strings_round_trip(s in string_any(0usize..64)) {
        let mut text = String::new();
        json::write_str(&mut text, &s);
        prop_assert_eq!(json::parse(&text), Ok(Value::Str(s)));
    }
}
