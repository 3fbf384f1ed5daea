//! Property test: the pretty-printer/parser pair is a faithful
//! serialization — print→parse is the identity on arbitrary programs.
//!
//! Seeded case loops (`simrng::cases`), so they run in plain
//! `cargo test`.

use ir::parse::parse_program;
use ir::pretty::program_to_string;
use ir::testgen::{random_program, GenConfig};
use simrng::cases;

#[test]
fn print_parse_is_identity() {
    cases("print_parse_is_identity", |rng| {
        let cfg = GenConfig {
            n_methods: rng.range_usize(1, 13) as u32,
            branches: rng.chance(0.5),
            ..GenConfig::default()
        };
        let p = random_program(rng, &cfg);
        let text = program_to_string(&p);
        let q = parse_program(&text).unwrap_or_else(|e| panic!("{e}\n--- text ---\n{text}"));
        assert_eq!(p, q);
    });
}

#[test]
fn parse_never_panics_on_mutilated_input() {
    cases("parse_never_panics_on_mutilated_input", |rng| {
        let p = random_program(rng, &GenConfig::default());
        let text = program_to_string(&p);
        // Truncate at an arbitrary char boundary: must error or parse,
        // never panic.
        let mut cut = rng.range_usize(0, text.len());
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let _ = parse_program(&text[..cut]);
    });
}
