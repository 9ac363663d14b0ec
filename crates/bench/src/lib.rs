//! # nassim-bench
//!
//! Shared fixtures for the table/figure harness binaries (`src/bin/`),
//! the Criterion benches (`benches/`) and the end-to-end benchmark
//! package in `src/bin/nassim_benchmark/`. Every harness regenerates one
//! table or figure of the paper; see EXPERIMENTS.md at the repo root for
//! the experiment ↔ binary index and the paper-vs-measured record.
//! Performance claims are measured with `nassim_benchmark`, declared by
//! the repository's `BENCHMARK.json`, not with these harnesses.

pub mod fixtures;

pub use fixtures::{construct_vendor, mapping_experiment, vendor_scale, MappingOutcome, VendorRun};
