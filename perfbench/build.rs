//! Records the `target-cpu` the benchmark was compiled for, so every
//! result can be stamped with it.

fn main() {
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let target_cpu = flags
        .split('\x1f')
        .filter_map(|f| f.split("target-cpu=").nth(1))
        .next_back()
        .unwrap_or("default")
        .to_string();
    println!("cargo:rustc-env=PERFBENCH_TARGET_CPU={target_cpu}");
}
