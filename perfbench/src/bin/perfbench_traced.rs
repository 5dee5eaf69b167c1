//! Traced benchmark binary: spans around every layer call and a counting
//! allocator, for the per-layer metrics.

#[global_allocator]
static ALLOC: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(perfbench::main_with(&argv, true));
}
