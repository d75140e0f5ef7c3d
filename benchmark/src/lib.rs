//! Closed-loop, round-interleaved serving benchmark for the Ripple
//! reproduction. See `README.md` in this directory.

pub mod cpu;
pub mod gen;
pub mod json;
pub mod recovery;
pub mod run;
pub mod shadow;
pub mod stats;
pub mod tier;
pub mod trace;
pub mod workloads;
