//! Engine-agreement corpora shared by the minilang equivalence suites and
//! the root crate's profile-engine test, so both check the same programs.

/// Programs whose run fails, with the message every engine must report.
/// Four fail on a bad call (unknown callee or arity mismatch) that sits
/// behind live code: the error surfaces when that call executes, after
/// its arguments evaluate. A parameterized `main` fails before anything
/// runs.
pub const FAILING: [(&str, &str); 10] = [
    ("fn main() { let a = zeros(2); a[9] = 1; }", "index 9 out of bounds for `a` (len 2)"),
    ("fn main() { let a = zeros(0 - 4); }", "array `a` created with negative length -4"),
    ("fn main() { print(nope); }", "unbound variable `nope`"),
    ("fn main() { let x = 1; print(x[0]); }", "`x` is not an array"),
    ("fn main() { let a = zeros(2); print(a + 1); }", "`a` is an array, expected a scalar"),
    ("fn main() { print(1); ghost(print_me); }", "unbound variable `print_me`"),
    ("fn main() { let x = 1; print(x); helper(x, 2); } fn helper(v) { }", "`helper` takes 1 argument(s), got 2"),
    ("fn main() { let x = 1; if x > 2 { nope(); } f(x); } fn f(v) { nope(); }", "unknown function `nope`"),
    (
        "fn main() { let x = 1; while x < 3 { x = x + 1; } if x > 5 { g(1, 2); } g(); } fn g(a) { }",
        "`g` takes 1 argument(s), got 0",
    ),
    ("fn main(n) { print(n); }", "`main` takes 1 argument(s), got 0"),
];

/// Programs holding a bad call only in code that never executes. They
/// are not errors: every engine runs them to completion.
pub const DEAD_CODE: [&str; 4] = [
    "fn main() { let x = 1; if x > 2 { nope(); } print(x); }",
    "fn main() { let x = 1; if x > 2 { helper(1, 2); } print(helper(x)); } fn helper(v) { return v; }",
    "fn main() { for i in 0 .. 3 { if i > 7 { let y = ghost(i) + f(); } } print(7); } fn f(a) { return a; }",
    "fn main() { print(2); } fn unused(a) { unused(); missing(a); }",
];
