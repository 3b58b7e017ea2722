//! Pins the instances a `LABEL` request is served on. Each
//! `(workload, n, seed)` triple names one instance; its FNV-1a-64 digest
//! covers every RNG draw of the generator and every step of the
//! normalization, so a change to either shows up here even when the
//! labelings happen to stay valid.

use ssg_engine::RequestInstance;
use ssg_labeling::tree::{approx_delta1_coloring, l1_coloring};
use ssg_labeling::{interval, unit_interval, verify_labeling, SeparationVector};
use ssg_net::protocol::{LabelSpec, Workload};

/// Digests recorded for `(workload, n, seed)`, in the loop order of
/// [`served_instances_match_recorded_digests`]. A platoon's normalized
/// representation depends only on `n` (every vehicle hears exactly its
/// four predecessors), so its digests do not vary with the seed.
#[rustfmt::skip]
const DIGESTS: [u64; 27] = [
    // corridor: n = 1, 64, 4000 × seeds
    0xf926c22b68fc6926, 0xf926c22b68fc6926, 0xf926c22b68fc6926,
    0xb4f19601052eb5a5, 0x295e9fb5cc6e0c85, 0x73419373cc3ad125,
    0xa5e70212e0e9b638, 0x471ae0a760b4ee04, 0xaf260ad299191534,
    // platoon: n = 1, 64, 4000 × seeds
    0xf926c22b68fc6926, 0xf926c22b68fc6926, 0xf926c22b68fc6926,
    0xa5323893e0656ae5, 0xa5323893e0656ae5, 0xa5323893e0656ae5,
    0x0f9d97a87a6e66e4, 0x0f9d97a87a6e66e4, 0x0f9d97a87a6e66e4,
    // backbone: n = 1, 64, 4000 × seeds
    0x780d5836696931dd, 0x780d5836696931dd, 0x780d5836696931dd,
    0x963f62d920d164a8, 0xa1c7a2169ecc03db, 0xe8ab9e10111aacb1,
    0x947835584071a585, 0x81630089d3556f85, 0xea13dec44e4734d0,
];

const NS: [usize; 3] = [1, 64, 4000];
const SEEDS: [u64; 3] = [0, 7, 20_261_017];

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

/// Interval instances hash `left`, `right` and `original_index` per
/// vertex; trees hash `parent` (`u64::MAX` at the root) and `original_id`.
fn digest(instance: &RequestInstance) -> u64 {
    let rep = match instance {
        RequestInstance::Interval(rep) => rep,
        RequestInstance::UnitInterval(unit) => unit.as_interval(),
        RequestInstance::Tree(tree) => {
            return fnv1a((0..tree.len() as u32).flat_map(|v| {
                [
                    tree.parent(v).map_or(u64::MAX, u64::from),
                    u64::from(tree.original_id(v)),
                ]
            }));
        }
        RequestInstance::Graph(_) => panic!("no workload serves a bare graph"),
    };
    fnv1a((0..rep.len() as u32).flat_map(|v| {
        [
            u64::from(rep.left(v)),
            u64::from(rep.right(v)),
            rep.original_index(v) as u64,
        ]
    }))
}

#[test]
fn served_instances_match_recorded_digests() {
    let mut got = Vec::new();
    for workload in [Workload::Corridor, Workload::Platoon, Workload::Backbone] {
        for n in NS {
            for seed in SEEDS {
                let spec = LabelSpec {
                    workload,
                    n,
                    seed,
                    sep: SeparationVector::all_ones(2),
                    solver: None,
                    deadline_ms: None,
                    trace: None,
                };
                let instance = spec.to_request(0).instance;
                assert_eq!(instance.num_vertices(), n, "{workload:?} n={n} seed={seed}");
                got.push(digest(&instance));
            }
        }
    }
    let rendered: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
    assert_eq!(got, DIGESTS, "digests now: [{}]", rendered.join(", "));
}

/// `(λ*, A4 labeling at L(1,1,1), A5 labeling at L(3,1,1))` of the backbone
/// instance for `(n, seed)`, n ∈ {64, 4000} × [`SEEDS`]: λ* as its value,
/// each labeling as the FNV-1a-64 digest of its colors. A change to the
/// tree machinery that keeps labelings valid but not identical shows up
/// here.
#[rustfmt::skip]
const BACKBONE_LABELINGS: [(u32, u64, u64); 6] = [
    // n = 64 × seeds
    (7, 0xaf57320b92db3ec5, 0x01c0ab09fecffbc0),
    (7, 0xc222ac9a03af62c1, 0x37912a9acafea828),
    (7, 0x3a777ca344acdfe1, 0x0b90ee4423be2e02),
    // n = 4000 × seeds
    (7, 0xf25027052c5e5723, 0x80a983da5a8d59c3),
    (7, 0x6e6680d5cde0bc26, 0x3a90f4457a64fc06),
    (7, 0xf4a082570437bcc1, 0x5a8267eb9a727b4d),
];

#[test]
fn backbone_labelings_match_recorded_digests() {
    let mut got = Vec::new();
    for n in [64, 4000] {
        for seed in SEEDS {
            let RequestInstance::Tree(tree) = Workload::Backbone.instance(n, seed) else {
                panic!("a backbone is a tree");
            };
            let a4 = l1_coloring(&tree, 3);
            let a5 = approx_delta1_coloring(&tree, 3, 3);
            assert_eq!(a5.lambda_star, a4.lambda_star, "n={n} seed={seed}");
            let hash = |colors: &[u32]| fnv1a(colors.iter().map(|&c| u64::from(c)));
            got.push((
                a4.lambda_star,
                hash(a4.labeling.colors()),
                hash(a5.labeling.colors()),
            ));
        }
    }
    let rendered: Vec<String> = got
        .iter()
        .map(|(l, a4, a5)| format!("({l}, {a4:#018x}, {a5:#018x})"))
        .collect();
    assert_eq!(got, BACKBONE_LABELINGS, "now: [{}]", rendered.join(", "));
}

/// `(λ*ₜ, λ*₁, U, A1 at L(1,1), A2 at L(2,1), A3 at L(5,2))` for
/// `(n, seed)`, n ∈ {64, 4000} × [`SEEDS`]: A1 and A2 label the corridor
/// instance and A3 the platoon instance. A2's λ*ₜ, λ*₁ and Theorem 2's U
/// are pinned as values, each labeling as the FNV-1a-64 digest of its
/// colors. Corridors at n = 4000 split into about a dozen components, so
/// these digests also pin how the sweeps cross the gaps between them. A
/// platoon's labeling depends only on `n`, like its instance.
#[rustfmt::skip]
const INTERVAL_LABELINGS: [(u32, u32, u32, u64, u64, u64); 6] = [
    // n = 64 × seeds
    (21, 12, 45, 0xd0e82fee08392d40, 0x96d23eeb2d18a8a9, 0x706f689e4fc9f7b9),
    (15, 10, 35, 0x7332edfa6ce152ce, 0xdeac48aa63c9dc9a, 0x706f689e4fc9f7b9),
    (18, 10, 38, 0x7726e489fe0e250a, 0xad91029aee88ea02, 0x706f689e4fc9f7b9),
    // n = 4000 × seeds
    (27, 17, 61, 0x1ec71d95ece7cace, 0x244b4794ef0dace0, 0xfed97ae20be5ab25),
    (32, 16, 64, 0x5cba6ac5bff1c0c2, 0x83be0ed8c225db7a, 0xfed97ae20be5ab25),
    (28, 15, 58, 0xacb06c33470fcf82, 0x2f1f946dd3f29e4e, 0xfed97ae20be5ab25),
];

#[test]
fn interval_labelings_match_recorded_digests() {
    let hash = |colors: &[u32]| fnv1a(colors.iter().map(|&c| u64::from(c)));
    let mut got = Vec::new();
    for n in [64, 4000] {
        for seed in SEEDS {
            let RequestInstance::Interval(rep) = Workload::Corridor.instance(n, seed) else {
                panic!("a corridor is an interval instance");
            };
            let RequestInstance::UnitInterval(unit) = Workload::Platoon.instance(n, seed) else {
                panic!("a platoon is a unit-interval instance");
            };
            let a1 = interval::l1_coloring(&rep, 2);
            let a2 = interval::approx_delta1_coloring(&rep, 2, 2);
            let a3 = unit_interval::l_delta1_delta2_coloring(&unit, 5, 2);
            assert_eq!(a1.lambda_star, a2.lambda_t, "n={n} seed={seed}");
            got.push((
                a2.lambda_t,
                a2.lambda_1,
                a2.upper_bound,
                hash(a1.labeling.colors()),
                hash(a2.labeling.colors()),
                hash(a3.labeling.colors()),
            ));
        }
    }
    let rendered: Vec<String> = got
        .iter()
        .map(|(lt, l1, u, a1, a2, a3)| {
            format!("({lt}, {l1}, {u}, {a1:#018x}, {a2:#018x}, {a3:#018x})")
        })
        .collect();
    assert_eq!(got, INTERVAL_LABELINGS, "now: [{}]", rendered.join(", "));
}

/// A2 answers near Lemma 1: at L(2,1) on the served corridors (n = 4000,
/// seeds 0–9), its mean span over `max(δ1·λ*₁, λ*ₜ)` stays at most 1.30.
/// First fit reads 1.258 here; labelings at Theorem 2's `U` read 1.889.
#[test]
fn a2_spans_stay_near_the_lemma1_bound_on_served_corridors() {
    let mut ratios = Vec::new();
    for seed in 0..10 {
        let RequestInstance::Interval(rep) = Workload::Corridor.instance(4000, seed) else {
            panic!("a corridor is an interval instance");
        };
        let out = interval::approx_delta1_coloring(&rep, 2, 2);
        let lower = (2 * out.lambda_1).max(out.lambda_t);
        assert!(out.labeling.span() <= out.upper_bound, "seed {seed}");
        ratios.push(f64::from(out.labeling.span()) / f64::from(lower));
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(mean <= 1.30, "mean span / Lemma 1 = {mean:.3} ({ratios:?})");
}

/// `LABEL platoon 4000 7 1048576,1048576`: A3's closed form `2δ2·v` passes
/// 2³² here, and a wrapped color once gave adjacent vehicles 2046 and 2048
/// the same channel.
#[test]
fn platoon_at_large_separations_gets_a_valid_labeling() {
    let RequestInstance::UnitInterval(unit) = Workload::Platoon.instance(4000, 7) else {
        panic!("a platoon is a unit-interval instance");
    };
    let d = 1 << 20;
    let out = unit_interval::l_delta1_delta2_coloring(&unit, d, d);
    let sep = SeparationVector::two(d, d).unwrap();
    verify_labeling(&unit.to_graph(), &sep, out.labeling.colors()).unwrap();
    assert_eq!(out.labeling.span(), 10 * d, "Theorem 3: 2δ2(λ*₁ + 1) at λ*₁ = 4");
}
