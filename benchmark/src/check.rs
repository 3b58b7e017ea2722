//! Correctness checks on replies.
//!
//! Every reply gets a structural check (one label per station, and the
//! span token equal to the largest label). Sampled replies are checked in
//! full: the instance is regenerated client-side, the labeling is verified
//! against every distance-`t` constraint, and its span is held to the
//! paper's bounds — at least Lemma 1's lower bound `max_i δi·λ*_{G,i}`
//! (each `λ*_{G,i}` from a certificate witness clique), exactly `λ*_t` when
//! the separation vector is all ones (A1, A4 are optimal), and at most
//! three times the lower bound otherwise (A2, A3, A5).

use ssg_engine::RequestInstance;
use ssg_labeling::certificate::{interval_clique_witness, tree_clique_witness};
use ssg_labeling::{verify_labeling, SeparationVector};
use ssg_net::protocol::{parse_response, Response};
use ssg_net::LabelSpec;
use ssg_simplicial::lemma1_lower_bound;

/// Structural check of a parsed reply to `spec`; returns its labels.
pub fn check_reply(spec: &LabelSpec, reply: Response) -> Result<Vec<u32>, String> {
    match reply {
        Response::Ok {
            span,
            colors,
            trace: None,
        } => {
            if colors.len() != spec.n {
                return Err(format!("{} labels for n={}", colors.len(), spec.n));
            }
            let max = colors.iter().copied().max().unwrap_or(0);
            if span != max {
                return Err(format!("span token {span} but largest label {max}"));
            }
            Ok(colors)
        }
        Response::Err { code, message } => Err(format!("ERR {code} {message}")),
        other => Err(format!("unexpected reply {other:?}")),
    }
}

/// Parses a reply line and checks it structurally.
pub fn structural(spec: &LabelSpec, line: &str) -> Result<Vec<u32>, String> {
    let reply = parse_response(line).map_err(|e| e.to_string())?;
    check_reply(spec, reply)
}

/// `λ*_{G,i}` for `i = 1..=t`: the size minus one of the witness clique of
/// `A_{G,i}` (paper §2), which is the optimal `L(1,...,1)` span at radius
/// `i` on interval graphs and trees.
pub fn lambda_stars(instance: &RequestInstance, t: u32) -> Result<Vec<u32>, String> {
    (1..=t)
        .map(|i| match instance {
            RequestInstance::Interval(rep) => Ok(interval_clique_witness(rep, i)),
            RequestInstance::UnitInterval(rep) => Ok(interval_clique_witness(rep.as_interval(), i)),
            RequestInstance::Tree(tree) => Ok(tree_clique_witness(tree, i)),
            RequestInstance::Graph(_) => Err("no witness for a bare graph".to_string()),
        })
        .map(|w| w.map(|w| w.span_lower_bound()))
        .collect()
}

/// Span and certified lower bound of a fully checked labeling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quality {
    /// Largest label.
    pub span: u32,
    /// Lemma 1's lower bound on any valid labeling's span.
    pub lower_bound: u64,
}

impl Quality {
    /// `span / lower_bound`, or 1 when the bound is 0 (a one-station
    /// instance, where the span is 0 too).
    pub fn ratio(&self) -> f64 {
        if self.lower_bound == 0 {
            1.0
        } else {
            f64::from(self.span) / self.lower_bound as f64
        }
    }
}

/// Full check of `colors` as a labeling of `instance` under `sep`.
pub fn certify(
    instance: &RequestInstance,
    sep: &SeparationVector,
    colors: &[u32],
) -> Result<Quality, String> {
    let graph = match instance {
        RequestInstance::Interval(rep) => rep.to_graph(),
        RequestInstance::UnitInterval(rep) => rep.to_graph(),
        RequestInstance::Tree(tree) => tree.to_graph(),
        RequestInstance::Graph(g) => g.clone(),
    };
    if colors.len() != graph.num_vertices() {
        return Err(format!(
            "{} labels for {} stations",
            colors.len(),
            graph.num_vertices()
        ));
    }
    verify_labeling(&graph, sep, colors).map_err(|v| format!("invalid labeling: {v}"))?;
    let stars = lambda_stars(instance, sep.t())?;
    let lower_bound = lemma1_lower_bound(sep.deltas(), &stars);
    let span = colors.iter().copied().max().unwrap_or(0);
    let q = Quality { span, lower_bound };
    if u64::from(span) < lower_bound {
        return Err(format!("span {span} below the Lemma 1 bound {lower_bound}"));
    }
    if sep.is_all_ones() {
        let optimum = stars[stars.len() - 1];
        if span != optimum {
            return Err(format!("{sep} span {span} != optimum λ*_t = {optimum}"));
        }
    } else if u64::from(span) > 3 * lower_bound {
        return Err(format!(
            "{sep} span {span} above 3 × the Lemma 1 bound {lower_bound}"
        ));
    }
    Ok(q)
}

/// Regenerates the instance `spec` names and runs [`certify`] on it.
pub fn certify_spec(spec: &LabelSpec, colors: &[u32]) -> Result<Quality, String> {
    certify(&spec.to_request(0).instance, &spec.sep, colors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssg_engine::Engine;
    use ssg_labeling::exact::exact_min_span;
    use ssg_net::Workload as Family;

    fn spec(family: Family, n: usize, seed: u64, seps: &[u32]) -> LabelSpec {
        LabelSpec {
            workload: family,
            n,
            seed,
            sep: SeparationVector::new(seps.to_vec()).unwrap(),
            solver: None,
            deadline_ms: None,
            trace: None,
        }
    }

    fn graph_of(instance: &RequestInstance) -> ssg_graph::Graph {
        match instance {
            RequestInstance::Interval(rep) => rep.to_graph(),
            RequestInstance::UnitInterval(rep) => rep.to_graph(),
            RequestInstance::Tree(tree) => tree.to_graph(),
            RequestInstance::Graph(g) => g.clone(),
        }
    }

    /// Every mix entry shape, shrunk to exact-solver size.
    const TINY: [(Family, &[u32]); 5] = [
        (Family::Corridor, &[1, 1]),
        (Family::Corridor, &[2, 1]),
        (Family::Platoon, &[5, 2]),
        (Family::Backbone, &[1, 1, 1]),
        (Family::Backbone, &[3, 1, 1]),
    ];

    #[test]
    fn lower_bound_never_exceeds_the_exact_optimum_and_is_tight_for_all_ones() {
        let engine = Engine::new(1);
        for (family, seps) in TINY {
            for (n, seed) in [(5, 1), (7, 2), (8, 3), (9, 4)] {
                let s = spec(family, n, seed, seps);
                let instance = s.to_request(0).instance;
                let (_, optimum) = exact_min_span(&graph_of(&instance), &s.sep);
                let stars = lambda_stars(&instance, s.sep.t()).unwrap();
                let lb = lemma1_lower_bound(s.sep.deltas(), &stars);
                assert!(lb <= u64::from(optimum), "{s:?}: lb {lb} > opt {optimum}");
                if s.sep.is_all_ones() {
                    assert_eq!(lb, u64::from(optimum), "{s:?}");
                }
                // The served labeling passes the full check and is no
                // better than the exact optimum.
                let served = engine.run_batch(vec![s.to_request(0)]).remove(0);
                let labeling = served.result.unwrap().labeling;
                let q = certify(&instance, &s.sep, labeling.colors()).unwrap();
                assert!(q.span >= optimum, "{s:?}");
                assert_eq!(q.lower_bound, lb);
            }
        }
    }

    #[test]
    fn certify_rejects_invalid_and_suboptimal_labelings() {
        let s = spec(Family::Corridor, 30, 5, &[1, 1]);
        let instance = s.to_request(0).instance;
        let engine = Engine::new(1);
        let good = engine.run_batch(vec![s.to_request(0)]).remove(0);
        let mut colors = good.result.unwrap().labeling.into_colors();
        assert!(certify(&instance, &s.sep, &colors).is_ok());
        // Valid but wasteful: shift every label up by one.
        let shifted: Vec<u32> = colors.iter().map(|c| c + 1).collect();
        let err = certify(&instance, &s.sep, &shifted).unwrap_err();
        assert!(err.contains("optimum"), "{err}");
        // Invalid: two stations share a channel at distance 1.
        colors[1] = colors[0];
        let err = certify(&instance, &s.sep, &colors).unwrap_err();
        assert!(err.contains("invalid"), "{err}");
        // Wrong length.
        assert!(certify(&instance, &s.sep, &colors[1..]).is_err());
    }

    #[test]
    fn approximations_are_held_to_three_times_the_bound() {
        let s = spec(Family::Backbone, 40, 9, &[3, 1, 1]);
        let instance = s.to_request(0).instance;
        let stars = lambda_stars(&instance, 3).unwrap();
        let lb = lemma1_lower_bound(s.sep.deltas(), &stars) as u32;
        // A valid labeling far above the bound: stations spaced by the
        // largest separation in BFS order, each on its own channel.
        let wasteful: Vec<u32> = (0..40u32).map(|v| v * 3).collect();
        assert!(wasteful[39] > 3 * lb);
        let err = certify(&instance, &s.sep, &wasteful).unwrap_err();
        assert!(err.contains("above 3"), "{err}");
    }

    #[test]
    fn structural_check_catches_malformed_replies() {
        let s = spec(Family::Corridor, 3, 1, &[1, 1]);
        assert_eq!(structural(&s, "OK 2 0 1 2").unwrap(), vec![0, 1, 2]);
        assert!(structural(&s, "OK 3 0 1 2")
            .unwrap_err()
            .contains("span token"));
        assert!(structural(&s, "OK 1 0 1").unwrap_err().contains("labels"));
        assert!(structural(&s, "ERR queue_full busy").is_err());
        assert!(structural(&s, "PONG").is_err());
        assert!(structural(&s, "garbage").is_err());
    }
}
