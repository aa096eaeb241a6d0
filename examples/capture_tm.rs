//! Theorem 6.4 as an experiment: RegLFP/RegIFP capture PTIME.
//!
//! The capture proof encodes the database on a Turing tape via the definable
//! region order and expresses machine runs as fixed points. Here we run both
//! halves on real inputs: a linear-time machine deciding a property of the
//! membership bit-vector of the point regions, versus the compiled `RegIFP`
//! sentence `φ_M` evaluated on the region extension. Theorem 6.4 says the two
//! verdicts always agree.
//!
//! Run with `cargo run --release --example capture_tm`.

use lcdb::tm::capture::{capture_agreement, input_word};
use lcdb::tm::encode;
use lcdb::tm::Tm;
use lcdb::{parse_formula, Evaluator, RegionExtension, Relation};

fn ext_of(src: &str) -> RegionExtension {
    let rel = Relation::new(vec!["x".into()], parse_formula(src).unwrap());
    RegionExtension::arrangement(rel)
}

fn main() {
    let machines: Vec<(&str, Tm)> = vec![
        ("any-one (∃ bit = 1)", Tm::any_one()),
        ("all-ones (∀ bits = 1)", Tm::all_ones()),
        ("parity (odd # of 1s)", Tm::parity()),
    ];
    // Each database induces at least seven 0-dimensional regions — enough
    // tag regions for the largest machine (parity: 3 symbols + 4 states).
    let databases = [
        "(0 <= x and x < 1) or x = 3 or (5 < x and x < 6) or x = 8 or x = 10",
        "(0 <= x and x <= 1) or x = 2 or (4 < x and x < 6) or x = 7 or x = 9",
        "(0 < x and x < 1) or (2 < x and x < 3) or (4 < x and x < 5) or x = 7",
    ];

    println!("Theorem 6.4 capture experiment (direct TM run vs compiled RegIFP):\n");
    for src in databases {
        let e = ext_of(src);
        let ev = Evaluator::new(&e);
        let word = String::from_utf8(input_word(&ev)).unwrap();
        println!("B := {}", src);
        println!("  region-order input word: {}", word);
        println!(
            "  small coordinate property: {}",
            encode::small_coordinate_property(&e, 4)
        );
        println!("  β(B) = {}", encode::encode(&e));
        for (name, tm) in &machines {
            let (direct, logical) = capture_agreement(tm, &ev);
            let verdict = if direct == logical { "AGREE" } else { "MISMATCH" };
            println!(
                "  {name:<24} TM: {:<5}  φ_M: {:<5}  [{verdict}]",
                direct, logical
            );
            assert_eq!(direct, logical, "capture theorem violated!");
        }
        println!();
    }
    println!("All machine/database pairs agree, as Theorem 6.4 demands.");
}
