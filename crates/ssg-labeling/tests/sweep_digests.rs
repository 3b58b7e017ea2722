//! Pins the answers of the interval sweeps (Figure 1 and §3.2) bit for
//! bit: A1's labeling and λ*, and A2's labeling and Theorem 2's U, on the
//! served corridor instances and on one disconnected input. A change to the
//! sweep state that keeps labelings valid but not identical shows up here.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ssg_engine::RequestInstance;
use ssg_intervals::gen::random_intervals;
use ssg_intervals::IntervalRepresentation;
use ssg_labeling::interval::{approx_delta1_coloring_ws, l1_coloring_ws};
use ssg_labeling::Workspace;
use ssg_net::protocol::Workload;
use ssg_telemetry::Metrics;

const DELTA1: [u32; 4] = [1, 2, 3, 5];

/// Per input and `t ∈ 1..=4`: `(λ*, A1 digest, A2 digest)`, where the A1
/// digest is the FNV-1a-64 of its colors and the A2 digest folds `U` and
/// the colors for each δ1 in [`DELTA1`]. Inputs, in order: the corridor
/// `LABEL` instance at n = 64 and n = 4000 (seed 7), then
/// `random_intervals(300, 600, 0.5, 4)` (seed 56), which splits into
/// dozens of components.
#[rustfmt::skip]
const DIGESTS: [(u32, u64, u64); 12] = [
    // corridor n = 64
    (10, 0x09b1cab6ea740644, 0x151311460013709f),
    (15, 0x7332edfa6ce152ce, 0xeb63d52472fbc6c2),
    (19, 0x7f29edf920d10b4b, 0xf65d2892c3592a4c),
    (26, 0x70be0441ff309831, 0xe7b2454000019dfb),
    // corridor n = 4000
    (16, 0xb65babc0fefa8535, 0x2523f4a3a74a945f),
    (32, 0x5cba6ac5bff1c0c2, 0x13193a54a6ef524e),
    (43, 0x779d8eed54799133, 0x0ec25181b90f9447),
    (52, 0xfe0010b7ce1972e3, 0xaf8bfe3e083f6e8f),
    // random_intervals, disconnected
    (6, 0x7c0ae2fbb006b9a0, 0x853f5bd5f953680d),
    (8, 0xb021be6f1e6b2b6d, 0xe6d3867d6b08ad2b),
    (10, 0xaceab8e2574648ec, 0x15388659e272cbd2),
    (10, 0x5afe67bdcc84d0c1, 0xcd401dd3b0c36ed1),
];

/// FNV-1a-64 over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn corridor(n: usize) -> IntervalRepresentation {
    let RequestInstance::Interval(rep) = Workload::Corridor.instance(n, 7) else {
        panic!("a corridor is an interval instance");
    };
    rep
}

#[test]
fn interval_sweeps_match_recorded_digests() {
    let disconnected = random_intervals(300, 600.0, 0.5, 4.0, &mut StdRng::seed_from_u64(56));
    assert!(disconnected.components().len() > 10);
    // One workspace for every solve: warm reuse across sizes must not
    // change an answer.
    let mut ws = Workspace::new();
    let m = Metrics::disabled();
    let mut got = Vec::new();
    for rep in [corridor(64), corridor(4000), disconnected] {
        for t in 1..=4 {
            let a1 = l1_coloring_ws(&rep, t, &mut ws, &m);
            let a1_digest = fnv1a(a1.labeling.colors().iter().map(|&c| u64::from(c)));
            ws.recycle(a1.labeling);
            let mut a2_words = Vec::new();
            for delta1 in DELTA1 {
                let a2 = approx_delta1_coloring_ws(&rep, t, delta1, &mut ws, &m);
                assert_eq!(a2.lambda_t, a1.lambda_star, "t={t} δ1={delta1}");
                // U from λ*₁ = ω − 1, the clique the representation reports.
                let lambda_1 = rep.max_clique() as u32 - 1;
                assert_eq!(
                    a2.upper_bound,
                    a1.lambda_star + 2 * (delta1 - 1) * lambda_1,
                    "t={t} δ1={delta1}"
                );
                a2_words.push(u64::from(a2.upper_bound));
                a2_words.extend(a2.labeling.colors().iter().map(|&c| u64::from(c)));
                ws.recycle(a2.labeling);
            }
            got.push((a1.lambda_star, a1_digest, fnv1a(a2_words)));
        }
    }
    let rendered: Vec<String> = got
        .iter()
        .map(|(l, a1, a2)| format!("({l}, {a1:#018x}, {a2:#018x})"))
        .collect();
    assert_eq!(got, DIGESTS, "now: [{}]", rendered.join(", "));
}
