//! # lipstick-bench — the paper's figures
//!
//! The drivers behind the `experiments` binary, which prints the series
//! of every figure in the paper's evaluation (§5.4–5.6) plus the `abl`
//! ablation table. The numbers of record (per-layer metrics, end-to-end
//! workloads) come from the benchmark spine in `bench_spine/`;
//! `experiments` is where the Arctic stations family (Figs 5b, 6b, 6c,
//! 7c) is measured.

pub mod drivers;

pub use drivers::*;
