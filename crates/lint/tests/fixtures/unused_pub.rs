//! `unused-pub` fixture, scanned as `crates/a/src/lib.rs` beside a crate
//! `b` whose source names `FixtureCalled`.
//!
//! ```
//! a::fixture_documented();
//! ```
//!
//! ```text
//! fixture_in_text();
//! ```

pub struct FixtureCalled;
pub fn fixture_documented() {}
pub fn fixture_in_text() {}
pub(crate) fn fixture_crate_only() {}
pub struct FixtureArg;
pub fn fixture_caller_less(_: FixtureArg) {
    fixture_crate_only();
}
pub enum FixtureEnum {
    Variant(FixtureInVariant),
}
pub struct FixtureInVariant;
pub struct FixtureType {
    pub shown: FixtureShown,
    hidden: FixtureHidden,
}
pub struct FixtureShown;
pub struct FixtureHidden;
impl FixtureType {
    pub fn fixture_new() -> FixtureType {
        FixtureType { shown: FixtureShown, hidden: FixtureHidden }
    }
}
pub use self::inner::{fixture_reexported, FixtureCalled as FixtureAlias};
// lint: allow(unused-pub) the `b` crate names it through a macro
pub const FIXTURE_WAIVED: u8 = 0;
// lint: allow(unused-pub) stale: `b` names this one
pub struct FixtureCalled2;

#[cfg(test)]
pub fn fixture_test_only() {}
