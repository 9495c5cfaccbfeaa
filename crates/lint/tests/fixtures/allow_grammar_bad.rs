//! Fixture: broken allow directives are themselves diagnostics.

// lint:allow(panic-freedom)
/// Fixture item `missing_reason`.
pub fn missing_reason() {}

// lint:allow(no-such-rule) -- looks fine but names nothing
/// Fixture item `unknown_rule`.
pub fn unknown_rule() {}

// lint:allow panic-freedom -- reason
/// Fixture item `missing_parens`.
pub fn missing_parens() {}

// lint:allow(lossy-cast) -- clippy::as_conversions owns casts now
/// Fixture item `moved_rule`.
pub fn moved_rule() {}
