//! The parse corpus: both concrete syntaxes pinned input by input.
//!
//! `tests/golden/parse/fo.txt` holds inputs for [`parse_formula`],
//! `tests/golden/parse/reg.txt` inputs for [`parse_regformula`]. A line is
//! the input (with `\`, newline and tab escaped as `\\`, `\n`, `\t`), a tab,
//! then `ok <tree>` or `err <byte> <message>`. Every input is parsed again
//! and must reproduce its line byte for byte. The files are a fixed record
//! of what the grammars accept and where they reject; they are not
//! regenerated to make a difference go away.

use lcdb::core::{parse_regformula, RegFormula};
use lcdb::logic::ParseError;
use lcdb::{parse_formula, Formula};

/// A structural dump of an FO+LIN tree (`Formula`'s `Debug` is its
/// `Display`, which is not a tree).
fn dump(f: &Formula) -> String {
    let list = |fs: &[Formula]| fs.iter().map(dump).collect::<Vec<_>>().join(", ");
    match f {
        Formula::True => "True".into(),
        Formula::False => "False".into(),
        Formula::Atom(a) => format!("Atom({:?} {:?} 0)", a.expr, a.rel),
        Formula::Pred(name, args) => format!("Pred({name}, {args:?})"),
        Formula::And(fs) => format!("And[{}]", list(fs)),
        Formula::Or(fs) => format!("Or[{}]", list(fs)),
        Formula::Not(g) => format!("Not({})", dump(g)),
        Formula::Exists(v, g) => format!("Exists({v}, {})", dump(g)),
        Formula::Forall(v, g) => format!("Forall({v}, {})", dump(g)),
    }
}

fn outcome<T>(parsed: Result<T, ParseError>, show: impl Fn(&T) -> String) -> String {
    match parsed {
        Ok(tree) => format!("ok {}", show(&tree)),
        Err(e) => format!("err {} {}", e.position, e.message),
    }
}

fn render_fo(input: &str) -> String {
    outcome(parse_formula(input), dump)
}

fn render_reg(input: &str) -> String {
    outcome(parse_regformula(input), |f: &RegFormula| format!("{f:?}"))
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('\\') => out.push('\\'),
            other => panic!("bad escape \\{other:?} in the corpus"),
        }
    }
    out
}

fn check(file: &str, render: fn(&str) -> String) {
    let path = format!("{}/tests/golden/parse/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut diffs = Vec::new();
    let mut lines = 0;
    for (n, line) in text.lines().enumerate() {
        let (input, want) = line
            .split_once('\t')
            .unwrap_or_else(|| panic!("{path}:{}: no tab", n + 1));
        let got = render(&unescape(input));
        if got != want {
            diffs.push(format!(
                "{path}:{}: {input}\n  want {want}\n  got  {got}",
                n + 1
            ));
        }
        lines += 1;
    }
    assert!(lines > 500, "{path}: only {lines} inputs");
    assert!(
        diffs.is_empty(),
        "{} of {lines} lines differ:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}

#[test]
fn fo_corpus_is_unchanged() {
    check("fo.txt", render_fo);
}

#[test]
fn regfo_corpus_is_unchanged() {
    check("reg.txt", render_reg);
}
