//! Bit-for-bit digests of simulated outputs, and the check against the
//! digests recorded for chosen seeds in `digests.txt`.
//!
//! A speed-only change leaves every simulated statistic identical, so
//! every digest here must repeat exactly. The thermal model is not
//! validated against hardware (the repository holds no measured
//! reference), so the digests pin identity with the recorded tree, not
//! accuracy.

use gfsc_sim::TraceSet;

/// The recorded digests, one `<workload> <seed> <label> <hex>` per line.
/// The label `*` stands for the combined digest of every label of that
/// workload and seed, in output order.
const RECORDED: &str = include_str!("../digests.txt");

/// 64-bit FNV-1a over a stream of words.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, word: u64) -> &mut Self {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn float(&mut self, value: f64) -> &mut Self {
        self.word(value.to_bits())
    }

    pub fn text(&mut self, text: &str) -> &mut Self {
        for byte in text.bytes() {
            self.word(u64::from(byte));
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of the simulated statistics of one run: violations, epochs,
/// lost work, fan and CPU energy, bit for bit.
pub fn stats(violations: u64, epochs: u64, lost: f64, fan_j: f64, cpu_j: f64) -> u64 {
    Fnv::new().word(violations).word(epochs).float(lost).float(fan_j).float(cpu_j).finish()
}

/// Digest of every sample of every trace (names, times and values).
pub fn traces(set: &TraceSet) -> u64 {
    let mut h = Fnv::new();
    for trace in set.iter() {
        h.text(trace.name()).word(trace.len() as u64);
        for (&t, &v) in trace.times().iter().zip(trace.values()) {
            h.float(t).float(v);
        }
    }
    h.finish()
}

/// Combined digest of an ordered list of labelled digests.
pub fn combined(digests: &[(String, u64)]) -> u64 {
    let mut h = Fnv::new();
    for (label, value) in digests {
        h.text(label).word(*value);
    }
    h.finish()
}

/// Compares `digests` against the recorded lines for `workload` and
/// `seed`; returns how many recorded digests differ. Seeds with no
/// recorded lines are not checked.
pub fn check_recorded(workload: &str, seed: u64, digests: &[(String, u64)]) -> u64 {
    let seed = seed.to_string();
    let mut mismatches = 0;
    for line in RECORDED.lines().filter(|l| !l.trim().is_empty() && !l.starts_with('#')) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [w, s, label, hex] = fields[..] else { continue };
        if w != workload || s != seed {
            continue;
        }
        let got = if label == "*" {
            Some(combined(digests))
        } else {
            // A label this run did not produce (a `daemon_paced` horizon
            // other than the recorded one) is not checked; `*` catches a
            // missing label.
            let Some((_, d)) = digests.iter().find(|(l, _)| l == label) else { continue };
            Some(*d)
        };
        if got.map(|d| format!("{d:016x}")) != Some(hex.to_owned()) {
            eprintln!("perfbench: digest mismatch {workload} seed {seed} {label}: recorded {hex}, got {got:?}");
            mismatches += 1;
        }
    }
    mismatches
}
