//! Helpers shared by the integration tests (`mod common;`).

use std::path::Path;

/// Compare `actual` byte for byte to `tests/golden/<fixture>`. On drift
/// the actual text is written to `target/<actual_name>` — the path CI
/// uploads as an artifact — and the test fails; `ODA_BLESS=1` rewrites
/// the fixture instead.
pub fn assert_golden(fixture: &str, actual_name: &str, actual: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden = root.join("tests/golden").join(fixture);
    if std::env::var("ODA_BLESS").is_ok() {
        std::fs::write(&golden, actual).expect("bless writes fixture");
        return;
    }
    let expected = std::fs::read_to_string(&golden).unwrap_or_else(|_| {
        panic!(
            "missing {}; run with ODA_BLESS=1 to create it",
            golden.display()
        )
    });
    if actual != expected {
        let out = root.join("target").join(actual_name);
        let _ = std::fs::write(&out, actual);
        panic!(
            "output drifted from tests/golden/{fixture}; actual written to {} \
             (ODA_BLESS=1 to re-bless)",
            out.display()
        );
    }
}
