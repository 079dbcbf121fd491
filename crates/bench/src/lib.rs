//! Paper-artifact binaries for the `gfsc` reproduction.
//!
//! - `src/bin/`: one binary per paper artifact (`fig1` … `fig5`,
//!   `table1` … `table3`, `ablations`) that prints the reproduced
//!   rows/series next to the paper's published values, plus
//!   `gfsc_explain`, which renders a flight recording as a causal
//!   timeline.
//!
//! Performance is measured elsewhere: end to end and layer by layer by
//! the repository benchmark (`perfbench/`, compared across commits with
//! `scripts/ab.sh`), and the daemon and flight-recorder overhead caps by
//! the release tests in `tests/overhead_caps.rs`.
//!
//! # Running the sweep engine
//!
//! `table3`, all four `ablations` sweeps and Ziegler–Nichols gain tuning
//! run through the batch scenario-sweep engine
//! ([`gfsc::sweep::ScenarioGrid`] over `gfsc_sim::sweep::parallel_map`),
//! which fans independent scenarios out across every core while keeping
//! results bit-identical to a serial walk:
//!
//! ```text
//! cargo run --release -p gfsc-bench --bin table3          # 5 solutions, parallel
//! cargo run --release -p gfsc-bench --bin ablations all   # 4 sweeps, parallel
//! GFSC_SWEEP_THREADS=1 cargo run --release -p gfsc-bench --bin table3
//!                                                         # serial reference
//! ```
//!
//! `GFSC_SWEEP_THREADS` caps the worker count (1 forces the serial path);
//! the default is `std::thread::available_parallelism()`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
