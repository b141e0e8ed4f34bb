//! Shared support for the runnable examples. The examples are intentionally
//! self-contained; this library target exists only so the package has a lib target
//! alongside its binaries and is a convenient place for future shared helpers.

/// The examples in this package, with one-line descriptions (used by `--help`-style
/// listings and kept here so the set stays documented in one place).
pub const EXAMPLES: &[(&str, &str)] = &[
    ("quickstart", "persistent queue, full-system crash, recovery"),
    ("crash_torture", "random crash injection with exactly-once verification"),
    ("bank_transfer", "multi-CAS normalized operation (money conservation under crashes)"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_example_is_listed() {
        assert_eq!(EXAMPLES.len(), 3);
        assert!(EXAMPLES.iter().any(|(name, _)| *name == "quickstart"));
    }
}
