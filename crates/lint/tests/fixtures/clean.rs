// netfi-lint: deny(hot-path-alloc)
// Fixture: zero violations. Every rule pattern below appears only where
// the lexer must ignore it — strings, comments, test-gated items — or in
// a form the boundary rules must reject.

/// Doc comments may mention `Ordering::Relaxed`, `Vec::new()` and
/// `.clone()` freely; they are not code.
pub fn describe() -> &'static str {
    // A line comment with Ordering::Relaxed and vec![0u8; 4].
    let wire = "literal Ordering::Relaxed Vec::new() format!(\"x\")";
    let raw = r#"raw strings too: .clone("), still inside"#;
    let tick = '!';
    let escaped = '\'';
    /* block comment: Vec::new() .clone() format!("{}", 1) */
    let lifetime_user: fn(&str) -> &str = keep;
    let _ = (raw, tick, escaped, lifetime_user);
    wire
}

fn keep(s: &str) -> &str {
    s
}

pub fn near_misses(copy: &mut [u8; 4], shared: &std::sync::Arc<[u8]>) -> std::sync::Arc<[u8]> {
    // clone_from is not clone(); Arc::clone is path syntax, not a call.
    copy.clone_from(&[1, 2, 3, 4]);
    std::sync::Arc::clone(shared)
}

/// The rules clippy owns are not netfi-lint's: an unwrap, a wall clock, a
/// hash map and an environment read report nothing here.
pub fn clippy_owns_these(o: Option<u8>) -> u8 {
    let _ = (std::time::Instant::now(), std::env::var("HOME"));
    let _: std::collections::HashMap<u8, u8> = Default::default();
    o.unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_do_anything() {
        let v: Vec<u8> = vec![1, 2, 3];
        let n = std::sync::atomic::AtomicUsize::new(v.len());
        assert_eq!(n.load(std::sync::atomic::Ordering::Relaxed), v.clone().len());
    }
}
