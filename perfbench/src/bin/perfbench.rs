//! The untraced benchmark binary: every end-to-end metric comes from here.
//! See the library docs for the command line.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(perfbench::main_with(&args));
}
