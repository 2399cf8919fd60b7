//! Helpers shared by the golden-snapshot tests.

use serde_json::Value;

/// Recursive comparison: identical shape and key order, exact
/// non-float leaves, floats within 1e-9 relative.
pub fn assert_close(golden: &Value, actual: &Value, path: &str) {
    match (golden, actual) {
        (Value::Object(g), Value::Object(a)) => {
            assert_eq!(g.len(), a.len(), "{path}: key count changed");
            for ((gk, gv), (ak, av)) in g.iter().zip(a) {
                assert_eq!(gk, ak, "{path}: key order changed");
                assert_close(gv, av, &format!("{path}.{gk}"));
            }
        }
        (Value::Array(g), Value::Array(a)) => {
            assert_eq!(g.len(), a.len(), "{path}: length changed");
            for (i, (gv, av)) in g.iter().zip(a).enumerate() {
                assert_close(gv, av, &format!("{path}[{i}]"));
            }
        }
        (Value::F64(g), Value::F64(a)) => {
            let scale = g.abs().max(a.abs()).max(1e-30);
            assert!(
                (g - a).abs() / scale < 1e-9,
                "{path}: reproduced {a} drifted from golden {g}"
            );
        }
        _ => assert_eq!(golden, actual, "{path}: value changed"),
    }
}
