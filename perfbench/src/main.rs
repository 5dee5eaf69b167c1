//! Untraced benchmark binary: end-to-end metrics only, no spans and no
//! counting allocator.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(perfbench::main_with(&argv, false));
}
