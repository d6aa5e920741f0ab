//! Fixture: lexer hazards that historically desync line or brace
//! tracking. Raw strings holding quotes and braces, char literals holding
//! a quote / an open brace / an escaped quote, nested block comments, and
//! a backslash-newline string continuation all precede a planted
//! violation — which must still be reported at its exact line, proving
//! none of them shifted the count or left the lexer stuck in a string.

pub fn raw_strings() -> (&'static str, &'static str) {
    let a = r#"a "quoted" brace { and } inside"#;
    let b = r##"nested "# terminator bait"##;
    (a, b)
}

pub fn char_literals() -> (char, char, char, char) {
    ('"', '{', '\'', '}')
}

/* outer block /* nested block
   still inside the comment } { " */
   closes here */
pub fn continuation() -> String {
    let s = "line one \
        still the same string literal";
    s.to_string()
}

pub struct AfterTheHazards {
    pub field_a: u64,
    pub field_b: u64,
}

pub fn planted(o: &std::sync::atomic::AtomicU8) -> u8 {
    o.load(std::sync::atomic::Ordering::Relaxed) // line 33: the only violation here
}
