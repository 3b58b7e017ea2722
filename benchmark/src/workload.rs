//! The four workloads, their traffic mixes, and the per-request seed and
//! sampling rules every phase shares.

use ssg_labeling::SeparationVector;
use ssg_net::{LabelSpec, Workload as Family};
use std::time::Duration;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Interval traffic (A1–A3 at n = 4000) against `ssg serve`.
    Interval,
    /// Tree traffic (A4, A5 at n = 4000) against `ssg serve`.
    Tree,
    /// Tiny n = 64 instances of every family against `ssg serve`.
    Small,
    /// In-process incremental recoloring of a churning 10k-station corridor.
    Churn,
}

/// One entry of a serving mix: request `k` uses entry `k % mix.len()`.
#[derive(Debug, Clone, Copy)]
pub struct MixEntry {
    /// Generator family named on the wire.
    pub family: Family,
    /// Stations per instance.
    pub n: usize,
    /// Separation vector `δ1, ..., δt`.
    pub seps: &'static [u32],
}

const fn entry(family: Family, n: usize, seps: &'static [u32]) -> MixEntry {
    MixEntry { family, n, seps }
}

/// Corridor L(1,1) → A1, corridor L(2,1) → A2, platoon L(5,2) → A3.
const INTERVAL_MIX: [MixEntry; 3] = [
    entry(Family::Corridor, 4000, &[1, 1]),
    entry(Family::Corridor, 4000, &[2, 1]),
    entry(Family::Platoon, 4000, &[5, 2]),
];

/// Backbone L(1,1,1) → A4, backbone L(3,1,1) → A5.
const TREE_MIX: [MixEntry; 2] = [
    entry(Family::Backbone, 4000, &[1, 1, 1]),
    entry(Family::Backbone, 4000, &[3, 1, 1]),
];

/// All five algorithms on n = 64 instances.
const SMALL_MIX: [MixEntry; 5] = [
    entry(Family::Corridor, 64, &[1, 1]),
    entry(Family::Corridor, 64, &[2, 1]),
    entry(Family::Platoon, 64, &[5, 2]),
    entry(Family::Backbone, 64, &[1, 1, 1]),
    entry(Family::Backbone, 64, &[3, 1, 1]),
];

/// Traffic of a workload served over the wire.
#[derive(Debug, Clone, Copy)]
pub struct ServeProfile {
    /// Open-loop arrival rate, requests per second.
    pub rate_rps: f64,
    /// The rotating request mix.
    pub mix: &'static [MixEntry],
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Interval,
        Workload::Tree,
        Workload::Small,
        Workload::Churn,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Interval => "interval",
            Workload::Tree => "tree",
            Workload::Small => "small",
            Workload::Churn => "churn",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The serving traffic, or `None` for the in-process churn workload.
    pub fn serve_profile(self) -> Option<ServeProfile> {
        match self {
            Workload::Interval => Some(ServeProfile {
                rate_rps: 150.0,
                mix: &INTERVAL_MIX,
            }),
            Workload::Tree => Some(ServeProfile {
                rate_rps: 150.0,
                mix: &TREE_MIX,
            }),
            Workload::Small => Some(ServeProfile {
                rate_rps: 6000.0,
                mix: &SMALL_MIX,
            }),
            Workload::Churn => None,
        }
    }
}

const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Output `k` of the splitmix64 stream keyed by `seed`. The key is mixed
/// before the stream starts, so streams of nearby seeds (`s`, `s + 1`) do
/// not overlap the way `seed + k` streams do.
pub fn splitmix64(seed: u64, k: u64) -> u64 {
    mix64(mix64(seed).wrapping_add(k.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA)))
}

/// The `LABEL` request with global index `k` of a run seeded with `seed`.
pub fn label_spec(profile: &ServeProfile, seed: u64, k: u64) -> LabelSpec {
    let e = profile.mix[(k % profile.mix.len() as u64) as usize];
    LabelSpec {
        workload: e.family,
        n: e.n,
        seed: splitmix64(seed, k),
        sep: SeparationVector::new(e.seps.to_vec()).expect("mix separations are valid"),
        solver: None,
        deadline_ms: None,
        trace: None,
    }
}

/// Whether request `k` is in the deterministic 1-in-8 sample whose
/// replies are regenerated and fully verified.
pub fn sampled(seed: u64, k: u64) -> bool {
    splitmix64(seed ^ 0x5a5a_5a5a_5a5a_5a5a, k).is_multiple_of(8)
}

/// How a serving run splits `--seconds` between its phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phases {
    /// Open-loop traffic that is sent and checked but not recorded.
    pub warmup: Duration,
    /// The recorded open-loop phase.
    pub open: Duration,
    /// The closed-loop saturation phase.
    pub saturation: Duration,
}

impl Phases {
    /// Splits `seconds` 10 % / 60 % / 30 % into warm-up, open loop and
    /// saturation.
    pub fn for_seconds(seconds: f64) -> Phases {
        Phases {
            warmup: Duration::from_secs_f64(seconds * 0.1),
            open: Duration::from_secs_f64(seconds * 0.6),
            saturation: Duration::from_secs_f64(seconds * 0.3),
        }
    }

    /// Requests the open-loop schedule sends in warm-up and in the
    /// recorded phase at `rate_rps`.
    pub fn open_counts(&self, rate_rps: f64) -> (u64, u64) {
        let count = |d: Duration| (d.as_secs_f64() * rate_rps).round() as u64;
        (count(self.warmup), count(self.open).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn request_streams_are_deterministic_and_disjoint_across_seeds() {
        let p = Workload::Interval.serve_profile().unwrap();
        for k in 0..50 {
            assert_eq!(label_spec(&p, 7, k), label_spec(&p, 7, k));
        }
        // `seed + k` streams of seeds s and s+1 share all but one
        // instance; these must share none.
        let mut seen = HashSet::new();
        for seed in 0..64u64 {
            for k in 0..2000 {
                assert!(seen.insert(splitmix64(seed, k)), "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn mix_rotates_with_k_and_sample_covers_every_entry() {
        for w in [Workload::Interval, Workload::Tree, Workload::Small] {
            let p = w.serve_profile().unwrap();
            let len = p.mix.len() as u64;
            for k in 0..20 {
                let spec = label_spec(&p, 3, k);
                let e = p.mix[(k % len) as usize];
                assert_eq!((spec.workload, spec.n), (e.family, e.n));
                assert_eq!(spec.sep.deltas(), e.seps);
            }
            // The 1-in-8 sample is not aligned with the mix period, so
            // every algorithm of the mix gets verified.
            let mut hit = vec![0u32; p.mix.len()];
            let mut total = 0;
            for k in 0..4000 {
                if sampled(3, k) {
                    hit[(k % len) as usize] += 1;
                    total += 1;
                }
            }
            assert!(hit.iter().all(|&h| h > 0), "{}: {hit:?}", w.name());
            assert!((400..600).contains(&total), "{}: {total}", w.name());
        }
    }

    #[test]
    fn phases_split_the_run_and_counts_follow_the_rate() {
        let ph = Phases::for_seconds(10.0);
        let total = ph.warmup + ph.open + ph.saturation;
        assert!((total.as_secs_f64() - 10.0).abs() < 1e-9);
        assert_eq!(ph.open_counts(250.0), (250, 1500));
        assert_eq!(Phases::for_seconds(10.0), ph);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert!(Workload::Churn.serve_profile().is_none());
    }
}
