//! The RouteNet-style latency predictor: a path↔link message-passing model
//! (Rusek et al., SOSR 2019) sized down to this reproduction. Paths and
//! links carry hidden states; T rounds of message passing exchange state
//! across (path, link) connections; a readout predicts per-path delay.
//!
//! The forward pass exists twice. The `f64` version serves inference and
//! the Metis mask search (§4.2 / Eq. 9 of the paper): each (path, link)
//! connection's messages are damped by a mask value, and
//! [`RouteNetModel::candidate_pass`] records every round's states so
//! [`CandidatePass::mask_grad`] can walk them back by hand, giving the
//! mask gradient without a tape and without parameter gradients. The
//! [`metis_nn::tape`] version serves training and is the oracle the hand
//! adjoint is tested against. Unit tests pin the two to each other.

use crate::demand::Demand;
use crate::latency::Routing;
use crate::topo::Topology;
use metis_nn::tape::{Tape, Var};
use metis_nn::{Adam, Optimizer, ParamGrad};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Message-passing rounds.
pub const MP_ROUNDS: usize = 3;

/// The model: flat parameter vector + layout bookkeeping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteNetModel {
    pub hidden: usize,
    params: Vec<f64>,
}

/// Parameter layout offsets.
struct Layout {
    w_path: usize,
    b_path: usize,
    w_link: usize,
    b_link: usize,
    w_out: usize,
    b_out: usize,
    total: usize,
}

/// Hidden states of every f64 message-passing round: `paths[t]` and
/// `links[t]` hold the states entering round `t`, row-major with `hidden`
/// values per path or link; index [`MP_ROUNDS`] holds the final states.
struct RoundStates {
    paths: Vec<Vec<f64>>,
    links: Vec<Vec<f64>>,
}

impl RouteNetModel {
    fn layout(hidden: usize) -> Layout {
        let d = hidden;
        let in_dim = 2 * d + 1;
        let w_path = 0;
        let b_path = w_path + d * in_dim;
        let w_link = b_path + d;
        let b_link = w_link + d * in_dim;
        let w_out = b_link + d;
        let b_out = w_out + d;
        Layout {
            w_path,
            b_path,
            w_link,
            b_link,
            w_out,
            b_out,
            total: b_out + 1,
        }
    }

    /// Random initialization.
    pub fn new(hidden: usize, rng: &mut StdRng) -> Self {
        let layout = Self::layout(hidden);
        let scale = (1.0 / (2 * hidden + 1) as f64).sqrt();
        let params = (0..layout.total)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        RouteNetModel { hidden, params }
    }

    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Flat parameter vector (what the tape forwards take as variables).
    pub fn params(&self) -> &[f64] {
        &self.params
    }

    /// Per-demand predicted delays (fast f64 forward, no masks).
    pub fn predict(&self, topo: &Topology, demands: &[Demand], routing: &Routing) -> Vec<f64> {
        self.forward_f64(topo, demands, routing, None)
    }

    /// f64 forward with an optional per-connection damping mask.
    /// `mask[i]` aligns with [`connections`]` (path-major order)`.
    pub fn forward_f64(
        &self,
        topo: &Topology,
        demands: &[Demand],
        routing: &Routing,
        mask: Option<&[f64]>,
    ) -> Vec<f64> {
        let d = self.hidden;
        let layout = Self::layout(d);
        let path_links: Vec<Vec<usize>> = routing.iter().map(|p| topo.path_links(p)).collect();
        let states = self.message_passing(topo, demands, &path_links, mask);
        let w_out = &self.params[layout.w_out..layout.w_out + d];
        states.paths[MP_ROUNDS]
            .chunks_exact(d)
            .map(|h| {
                let mut acc = self.params[layout.b_out];
                acc += w_out
                    .iter()
                    .zip(h.iter())
                    .map(|(w, hk)| w * hk)
                    .sum::<f64>();
                acc
            })
            .collect()
    }

    /// One path or link update, `out = tanh(W·[h, agg, x] + b)`, summed
    /// in input order like the tape version.
    fn update(&self, w_off: usize, b_off: usize, h: &[f64], agg: &[f64], x: f64, out: &mut [f64]) {
        let d = self.hidden;
        let in_dim = 2 * d + 1;
        for (r, o) in out.iter_mut().enumerate() {
            let w = &self.params[w_off + r * in_dim..w_off + (r + 1) * in_dim];
            let mut acc = self.params[b_off + r];
            for (wc, hc) in w[..d].iter().zip(h) {
                acc += wc * hc;
            }
            for (wc, ac) in w[d..2 * d].iter().zip(agg) {
                acc += wc * ac;
            }
            acc += w[2 * d] * x;
            *o = acc.tanh();
        }
    }

    /// Adjoint of [`Self::update`]: given its output `out` and the output's
    /// adjoint `d_out`, add the adjoints of the `h` and `agg` inputs into
    /// `d_h` and `d_agg`. The constant input `x` needs none.
    fn update_adjoint(
        &self,
        w_off: usize,
        out: &[f64],
        d_out: &[f64],
        d_h: &mut [f64],
        d_agg: &mut [f64],
    ) {
        let d = self.hidden;
        let in_dim = 2 * d + 1;
        for (r, (&o, &g)) in out.iter().zip(d_out).enumerate() {
            let g = g * (1.0 - o * o);
            let w = &self.params[w_off + r * in_dim..w_off + (r + 1) * in_dim];
            for k in 0..d {
                d_h[k] += w[k] * g;
                d_agg[k] += w[d + k] * g;
            }
        }
    }

    /// The f64 message passing over routed paths given as link lists,
    /// with every round's states kept. `mask` damps each connection's
    /// messages in both directions.
    fn message_passing(
        &self,
        topo: &Topology,
        demands: &[Demand],
        path_links: &[Vec<usize>],
        mask: Option<&[f64]>,
    ) -> RoundStates {
        let d = self.hidden;
        let layout = Self::layout(d);
        let n_links = topo.n_links();
        let n_paths = path_links.len();
        if let Some(m) = mask {
            let n: usize = path_links.iter().map(|l| l.len()).sum();
            assert_eq!(m.len(), n, "mask length must equal connection count");
        }

        let mut links = vec![0.0; n_links * d];
        for (l, h) in links.chunks_exact_mut(d).enumerate() {
            h[0] = topo.link(l).capacity / 10.0;
        }
        let mut paths = vec![0.0; n_paths * d];
        for (h, dm) in paths.chunks_exact_mut(d).zip(demands) {
            h[0] = dm.volume;
        }
        let mut states = RoundStates {
            paths: vec![paths],
            links: vec![links],
        };

        let mut agg = vec![0.0; d];
        let mut agg_link = vec![0.0; n_links * d];
        for _ in 0..MP_ROUNDS {
            let h_link = &states.links[states.links.len() - 1];
            let h_path = &states.paths[states.paths.len() - 1];

            // Path updates.
            let mut new_paths = vec![0.0; n_paths * d];
            let mut conn = 0usize;
            for (p, links) in path_links.iter().enumerate() {
                agg.fill(0.0);
                for &l in links {
                    let m = mask.map_or(1.0, |mm| mm[conn]);
                    conn += 1;
                    for (a, h) in agg.iter_mut().zip(&h_link[l * d..(l + 1) * d]) {
                        *a += m * h;
                    }
                }
                self.update(
                    layout.w_path,
                    layout.b_path,
                    &h_path[p * d..(p + 1) * d],
                    &agg,
                    demands[p].volume,
                    &mut new_paths[p * d..(p + 1) * d],
                );
            }

            // Link updates.
            agg_link.fill(0.0);
            let mut conn = 0usize;
            for (p, links) in path_links.iter().enumerate() {
                for &l in links {
                    let m = mask.map_or(1.0, |mm| mm[conn]);
                    conn += 1;
                    let hp = &new_paths[p * d..(p + 1) * d];
                    for (a, h) in agg_link[l * d..(l + 1) * d].iter_mut().zip(hp) {
                        *a += m * h;
                    }
                }
            }
            let mut new_links = vec![0.0; n_links * d];
            for l in 0..n_links {
                self.update(
                    layout.w_link,
                    layout.b_link,
                    &h_link[l * d..(l + 1) * d],
                    &agg_link[l * d..(l + 1) * d],
                    topo.link(l).capacity / 10.0,
                    &mut new_links[l * d..(l + 1) * d],
                );
            }
            states.paths.push(new_paths);
            states.links.push(new_links);
        }
        states
    }

    /// Masked message passing over `links`' routed paths, then candidate
    /// scoring: every candidate path of every demand gets one path update
    /// from scratch over the final (mask-shaped) link states, plus the
    /// readout. [`CandidatePass::delays`] lists the predicted delays
    /// demand-major, candidates in order. The pass keeps every
    /// intermediate state for [`CandidatePass::mask_grad`].
    pub fn candidate_pass<'a>(
        &'a self,
        topo: &Topology,
        demands: &[Demand],
        links: &'a RoutingLinks,
        mask: Option<&'a [f64]>,
    ) -> CandidatePass<'a> {
        assert_eq!(
            links.candidates.len(),
            demands.len(),
            "one candidate list per demand"
        );
        let d = self.hidden;
        let layout = Self::layout(d);
        let states = self.message_passing(topo, demands, &links.paths, mask);
        let h_link = &states.links[MP_ROUNDS];
        let n = links.n_candidates();
        let mut cand_out = vec![0.0; n * d];
        let mut delays = Vec::with_capacity(n);
        let w_out = &self.params[layout.w_out..layout.w_out + d];
        let mut h = vec![0.0; d];
        let mut agg = vec![0.0; d];
        let mut outs = cand_out.chunks_exact_mut(d);
        for (dm, cands) in demands.iter().zip(&links.candidates) {
            h[0] = dm.volume;
            for cand in cands {
                agg.fill(0.0);
                for &l in cand {
                    for (a, hl) in agg.iter_mut().zip(&h_link[l * d..(l + 1) * d]) {
                        *a += hl;
                    }
                }
                let out = outs.next().expect("one output row per candidate");
                self.update(layout.w_path, layout.b_path, &h, &agg, dm.volume, out);
                let mut acc = self.params[layout.b_out];
                for (w, o) in w_out.iter().zip(&*out) {
                    acc += w * o;
                }
                delays.push(acc);
            }
        }
        CandidatePass {
            model: self,
            links,
            mask,
            states,
            cand_out,
            delays,
        }
    }

    /// `y = tanh(W·x + b)` over tape variables.
    fn tape_update<'t>(
        &self,
        param_vars: &[Var<'t>],
        w_off: usize,
        b_off: usize,
        input: &[Var<'t>],
    ) -> Vec<Var<'t>> {
        let in_dim = 2 * self.hidden + 1;
        (0..self.hidden)
            .map(|r| {
                let mut acc = param_vars[b_off + r];
                for (c, x) in input.iter().enumerate() {
                    acc = acc + param_vars[w_off + r * in_dim + c] * *x;
                }
                acc.tanh()
            })
            .collect()
    }

    /// The masked message passing on a tape; returns the final path and
    /// link states.
    #[allow(clippy::type_complexity)] // (path states, link states)
    fn message_passing_tape<'t>(
        &self,
        tape: &'t Tape,
        param_vars: &[Var<'t>],
        topo: &Topology,
        demands: &[Demand],
        routing: &Routing,
        mask: Option<&[Var<'t>]>,
    ) -> (Vec<Vec<Var<'t>>>, Vec<Vec<Var<'t>>>) {
        let d = self.hidden;
        let layout = Self::layout(d);
        assert_eq!(param_vars.len(), layout.total);
        let path_links: Vec<Vec<usize>> = routing.iter().map(|p| topo.path_links(p)).collect();

        let mut h_link: Vec<Vec<Var<'t>>> = (0..topo.n_links())
            .map(|l| {
                let mut h = vec![tape.var(0.0); d];
                h[0] = tape.var(topo.link(l).capacity / 10.0);
                h
            })
            .collect();
        let mut h_path: Vec<Vec<Var<'t>>> = demands
            .iter()
            .map(|dm| {
                let mut h = vec![tape.var(0.0); d];
                h[0] = tape.var(dm.volume);
                h
            })
            .collect();

        for _ in 0..MP_ROUNDS {
            let mut conn = 0usize;
            let mut new_paths = Vec::with_capacity(h_path.len());
            for (p, links) in path_links.iter().enumerate() {
                let mut agg = vec![tape.var(0.0); d];
                for &l in links {
                    let m = mask.map(|mm| mm[conn]);
                    conn += 1;
                    for k in 0..d {
                        let term = match m {
                            Some(mv) => mv * h_link[l][k],
                            None => h_link[l][k],
                        };
                        agg[k] = agg[k] + term;
                    }
                }
                let mut input = h_path[p].clone();
                input.extend_from_slice(&agg);
                input.push(tape.var(demands[p].volume));
                new_paths.push(self.tape_update(param_vars, layout.w_path, layout.b_path, &input));
            }
            h_path = new_paths;

            let mut agg_link = vec![vec![tape.var(0.0); d]; topo.n_links()];
            let mut conn = 0usize;
            for (p, links) in path_links.iter().enumerate() {
                for &l in links {
                    let m = mask.map(|mm| mm[conn]);
                    conn += 1;
                    for k in 0..d {
                        let term = match m {
                            Some(mv) => mv * h_path[p][k],
                            None => h_path[p][k],
                        };
                        agg_link[l][k] = agg_link[l][k] + term;
                    }
                }
            }
            let mut new_links = Vec::with_capacity(h_link.len());
            for l in 0..topo.n_links() {
                let mut input = h_link[l].clone();
                input.extend_from_slice(&agg_link[l]);
                input.push(tape.var(topo.link(l).capacity / 10.0));
                new_links.push(self.tape_update(param_vars, layout.w_link, layout.b_link, &input));
            }
            h_link = new_links;
        }
        (h_path, h_link)
    }

    /// Tape forward with optional per-connection mask variables: the
    /// differentiable path used by training (the parameters enter as tape
    /// vars) and by the tape oracle of the mask search.
    pub fn forward_tape<'t>(
        &self,
        tape: &'t Tape,
        param_vars: &[Var<'t>],
        topo: &Topology,
        demands: &[Demand],
        routing: &Routing,
        mask: Option<&[Var<'t>]>,
    ) -> Vec<Var<'t>> {
        let d = self.hidden;
        let layout = Self::layout(d);
        let (h_path, _) = self.message_passing_tape(tape, param_vars, topo, demands, routing, mask);
        h_path
            .iter()
            .map(|h| {
                let mut acc = param_vars[layout.b_out];
                for k in 0..d {
                    acc = acc + param_vars[layout.w_out + k] * h[k];
                }
                acc
            })
            .collect()
    }

    /// Tape twin of [`Self::candidate_pass`]: element `[i][c]` is the
    /// predicted delay of demand `i` on its `c`-th candidate. The mask
    /// search's tape oracle differentiates this.
    #[allow(clippy::too_many_arguments)] // mirrors the message-passing signature
    pub fn candidate_delays_tape<'t>(
        &self,
        tape: &'t Tape,
        param_vars: &[Var<'t>],
        topo: &Topology,
        demands: &[Demand],
        routing: &Routing,
        candidates: &[Vec<Vec<usize>>],
        mask: Option<&[Var<'t>]>,
    ) -> Vec<Vec<Var<'t>>> {
        let d = self.hidden;
        let layout = Self::layout(d);
        let (_, h_link) = self.message_passing_tape(tape, param_vars, topo, demands, routing, mask);

        // Candidate scoring: one path update from scratch over the final
        // link states, then the readout.
        demands
            .iter()
            .enumerate()
            .map(|(i, dm)| {
                candidates[i]
                    .iter()
                    .map(|cand| {
                        let mut h = vec![tape.var(0.0); d];
                        h[0] = tape.var(dm.volume);
                        let mut agg = vec![tape.var(0.0); d];
                        for l in topo.path_links(cand) {
                            for k in 0..d {
                                agg[k] = agg[k] + h_link[l][k];
                            }
                        }
                        let mut input = h;
                        input.extend_from_slice(&agg);
                        input.push(tape.var(dm.volume));
                        let out =
                            self.tape_update(param_vars, layout.w_path, layout.b_path, &input);
                        let mut acc = param_vars[layout.b_out];
                        for k in 0..d {
                            acc = acc + param_vars[layout.w_out + k] * out[k];
                        }
                        acc
                    })
                    .collect()
            })
            .collect()
    }

    /// One training sample: (demands, routing, ground-truth delays).
    pub fn train(
        &mut self,
        topo: &Topology,
        samples: &[(Vec<Demand>, Routing, Vec<f64>)],
        epochs: usize,
        lr: f64,
    ) -> Vec<f64> {
        let mut opt = Adam::new(lr);
        let mut history = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut epoch_loss = 0.0;
            for (demands, routing, truth) in samples {
                let tape = Tape::new();
                let param_vars = tape.vars(&self.params);
                let pred = self.forward_tape(&tape, &param_vars, topo, demands, routing, None);
                // MSE over the sample's demands.
                let mut loss = tape.var(0.0);
                for (p, &t) in pred.iter().zip(truth.iter()) {
                    loss = loss + (*p - t).square();
                }
                loss = loss / truth.len() as f64;
                epoch_loss += loss.value();
                let grads = loss.grad();
                let mut grad_vec: Vec<f64> = param_vars.iter().map(|v| grads.wrt(*v)).collect();
                let mut pg = [ParamGrad {
                    param: &mut self.params,
                    grad: &mut grad_vec,
                }];
                opt.step(&mut pg);
            }
            history.push(epoch_loss / samples.len() as f64);
        }
        history
    }
}

/// The (path, link) connection list of a routing in the canonical
/// path-major order shared by the model, the hypergraph formulation and
/// the mask search.
pub fn connections(topo: &Topology, routing: &Routing) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (p, path) in routing.iter().enumerate() {
        for l in topo.path_links(path) {
            out.push((p, l));
        }
    }
    out
}

/// A routing and its demands' candidate paths resolved to link lists
/// once, for repeated [`RouteNetModel::candidate_pass`] calls. The routed
/// paths' links, concatenated, are the [`connections`] order.
#[derive(Debug)]
pub struct RoutingLinks {
    paths: Vec<Vec<usize>>,
    candidates: Vec<Vec<Vec<usize>>>,
}

impl RoutingLinks {
    /// `candidates[i]` lists demand `i`'s candidate node paths.
    pub fn new(topo: &Topology, routing: &Routing, candidates: &[Vec<Vec<usize>>]) -> Self {
        RoutingLinks {
            paths: routing.iter().map(|p| topo.path_links(p)).collect(),
            candidates: candidates
                .iter()
                .map(|cands| cands.iter().map(|c| topo.path_links(c)).collect())
                .collect(),
        }
    }

    /// Number of (path, link) connections of the routing.
    pub fn n_connections(&self) -> usize {
        self.paths.iter().map(Vec::len).sum()
    }

    /// Number of candidate paths over all demands.
    fn n_candidates(&self) -> usize {
        self.candidates.iter().map(Vec::len).sum()
    }
}

/// One recorded f64 [`RouteNetModel::candidate_pass`].
pub struct CandidatePass<'a> {
    model: &'a RouteNetModel,
    links: &'a RoutingLinks,
    mask: Option<&'a [f64]>,
    states: RoundStates,
    /// Each candidate's path-update output, `hidden` values per candidate.
    cand_out: Vec<f64>,
    delays: Vec<f64>,
}

impl CandidatePass<'_> {
    /// Predicted delay of every candidate, demand-major.
    pub fn delays(&self) -> &[f64] {
        &self.delays
    }

    /// Reverse-mode gradient of a scalar loss with respect to the mask,
    /// given the loss's adjoint `d_delays` of [`Self::delays`]: the
    /// candidate readout and path update, then each round's link and path
    /// updates in reverse order. A connection's mask scales the messages
    /// it carries both ways, so its gradient is the adjoint of each
    /// aggregate it feeds dotted with the state it carries. An absent
    /// mask counts as all ones. Model parameters get no gradient.
    pub fn mask_grad(&self, d_delays: &[f64]) -> Vec<f64> {
        assert_eq!(d_delays.len(), self.delays.len(), "one adjoint per delay");
        let model = self.model;
        let d = model.hidden;
        let layout = RouteNetModel::layout(d);
        let mask_at = |conn: usize| self.mask.map_or(1.0, |m| m[conn]);
        let n_links = self.states.links[0].len() / d;
        let n_paths = self.links.paths.len();
        let row = |i: usize| i * d..(i + 1) * d;

        // Candidate readout and path update, back to the final link states.
        let mut d_link = vec![0.0; n_links * d];
        let mut d_out = vec![0.0; d];
        // A candidate's starting state is a constant: its adjoint is dropped.
        let mut d_h = vec![0.0; d];
        let mut d_agg = vec![0.0; d];
        let w_out = &model.params[layout.w_out..layout.w_out + d];
        let cands = self.links.candidates.iter().flatten();
        for ((cand, &g), out) in cands.zip(d_delays).zip(self.cand_out.chunks_exact(d)) {
            for (o, w) in d_out.iter_mut().zip(w_out) {
                *o = g * w;
            }
            d_agg.fill(0.0);
            model.update_adjoint(layout.w_path, out, &d_out, &mut d_h, &mut d_agg);
            for &l in cand {
                for (dl, da) in d_link[row(l)].iter_mut().zip(&d_agg) {
                    *dl += da;
                }
            }
        }

        let mut grad = vec![0.0; self.links.n_connections()];
        let mut d_path = vec![0.0; n_paths * d];
        let mut d_link_in = vec![0.0; n_links * d];
        let mut d_path_in = vec![0.0; n_paths * d];
        let mut d_agg_link = vec![0.0; n_links * d];
        for t in (0..MP_ROUNDS).rev() {
            let (links_in, links_out) = (&self.states.links[t], &self.states.links[t + 1]);
            let paths_out = &self.states.paths[t + 1];

            // Link updates: L' = tanh(W_link·[L, agg_link, cap] + b).
            d_link_in.fill(0.0);
            d_agg_link.fill(0.0);
            for l in 0..n_links {
                model.update_adjoint(
                    layout.w_link,
                    &links_out[row(l)],
                    &d_link[row(l)],
                    &mut d_link_in[row(l)],
                    &mut d_agg_link[row(l)],
                );
            }
            // agg_link[l] = Σ m_c · P'[p] over the connections (p, l).
            let mut conn = 0usize;
            for (p, links) in self.links.paths.iter().enumerate() {
                for &l in links {
                    let m = mask_at(conn);
                    let da = &d_agg_link[row(l)];
                    grad[conn] += dot(da, &paths_out[row(p)]);
                    for (dp, a) in d_path[row(p)].iter_mut().zip(da) {
                        *dp += m * a;
                    }
                    conn += 1;
                }
            }

            // Path updates: P' = tanh(W_path·[P, agg, volume] + b), with
            // agg = Σ m_c · L[l] over the path's connections.
            d_path_in.fill(0.0);
            let mut conn = 0usize;
            for (p, links) in self.links.paths.iter().enumerate() {
                d_agg.fill(0.0);
                model.update_adjoint(
                    layout.w_path,
                    &paths_out[row(p)],
                    &d_path[row(p)],
                    &mut d_path_in[row(p)],
                    &mut d_agg,
                );
                for &l in links {
                    let m = mask_at(conn);
                    grad[conn] += dot(&d_agg, &links_in[row(l)]);
                    for (dl, a) in d_link_in[row(l)].iter_mut().zip(&d_agg) {
                        *dl += m * a;
                    }
                    conn += 1;
                }
            }
            std::mem::swap(&mut d_link, &mut d_link_in);
            std::mem::swap(&mut d_path, &mut d_path_in);
        }
        grad
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use crate::paths::candidate_paths;
    use rand::SeedableRng;

    fn setup() -> (Topology, Vec<Demand>, Routing) {
        let topo = Topology::nsfnet();
        let demands = vec![
            Demand {
                src: 6,
                dst: 9,
                volume: 1.0,
            },
            Demand {
                src: 0,
                dst: 12,
                volume: 2.0,
            },
            Demand {
                src: 3,
                dst: 10,
                volume: 0.5,
            },
        ];
        let routing: Routing = demands
            .iter()
            .map(|d| candidate_paths(&topo, d.src, d.dst)[0].clone())
            .collect();
        (topo, demands, routing)
    }

    #[test]
    fn tape_and_f64_forwards_agree() {
        let (topo, demands, routing) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let model = RouteNetModel::new(6, &mut rng);
        let fast = model.predict(&topo, &demands, &routing);
        let tape = Tape::new();
        let pv = tape.vars(&model.params);
        let slow = model.forward_tape(&tape, &pv, &topo, &demands, &routing, None);
        for (a, b) in fast.iter().zip(slow.iter()) {
            assert!(
                (a - b.value()).abs() < 1e-12,
                "forwards diverge: {a} vs {}",
                b.value()
            );
        }
    }

    #[test]
    fn masked_forward_matches_all_ones_mask() {
        let (topo, demands, routing) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let model = RouteNetModel::new(4, &mut rng);
        let n_conn = connections(&topo, &routing).len();
        let unmasked = model.predict(&topo, &demands, &routing);
        let masked = model.forward_f64(&topo, &demands, &routing, Some(&vec![1.0; n_conn]));
        for (a, b) in unmasked.iter().zip(masked.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        // A zeroed mask must change the output.
        let zeroed = model.forward_f64(&topo, &demands, &routing, Some(&vec![0.0; n_conn]));
        assert!(unmasked
            .iter()
            .zip(zeroed.iter())
            .any(|(a, b)| (a - b).abs() > 1e-9));
    }

    /// The recorded f64 pass scores candidates like the tape version, and
    /// its hand adjoint gives the tape's mask gradient of `Σ a_j·delay_j`
    /// for an arbitrary adjoint `a`.
    #[test]
    fn candidate_pass_and_adjoint_match_tape() {
        let (topo, demands, routing) = setup();
        let mut rng = StdRng::seed_from_u64(9);
        let model = RouteNetModel::new(5, &mut rng);
        let candidates = crate::candidates_for(&topo, &demands);
        let links = RoutingLinks::new(&topo, &routing, &candidates);
        let n = links.n_connections();
        assert_eq!(n, connections(&topo, &routing).len());
        let mask: Vec<f64> = (0..n).map(|i| 0.1 + 0.8 * i as f64 / n as f64).collect();
        let adjoint: Vec<f64> = (0..links.n_candidates())
            .map(|j| ((j * 5 % 7) as f64 - 3.0) / 2.0)
            .collect();

        for mask in [None, Some(&mask[..])] {
            let pass = model.candidate_pass(&topo, &demands, &links, mask);
            let tape = Tape::new();
            let pv = tape.vars(&model.params);
            let mv = tape.vars(mask.unwrap_or(&vec![1.0; n]));
            let delays = model.candidate_delays_tape(
                &tape,
                &pv,
                &topo,
                &demands,
                &routing,
                &candidates,
                Some(&mv),
            );
            let flat: Vec<Var<'_>> = delays.into_iter().flatten().collect();
            assert_eq!(flat.len(), pass.delays().len());
            let mut loss = tape.var(0.0);
            for ((v, &fast), &a) in flat.iter().zip(pass.delays()).zip(&adjoint) {
                assert!((v.value() - fast).abs() < 1e-12, "{} vs {fast}", v.value());
                loss = loss + *v * a;
            }
            let grads = loss.grad();
            for (i, (v, g)) in mv.iter().zip(pass.mask_grad(&adjoint)).enumerate() {
                let want = grads.wrt(*v);
                assert!(
                    (g - want).abs() <= 1e-12 + 1e-9 * want.abs(),
                    "dL/dm[{i}]: {g} vs tape {want}"
                );
            }
        }
    }

    #[test]
    fn training_reduces_loss_and_correlates() {
        let topo = Topology::nsfnet();
        let model_gt = LatencyModel::default();
        let mut rng = StdRng::seed_from_u64(7);
        // Build a small training corpus of random routings.
        let mut samples = Vec::new();
        for i in 0..6 {
            let sample = crate::demand::demand_corpus(14, 12, 1, 100 + i)[0].clone();
            let routing: Routing = sample
                .demands
                .iter()
                .map(|d| {
                    let cands = candidate_paths(&topo, d.src, d.dst);
                    cands[rng.gen_range(0..cands.len())].clone()
                })
                .collect();
            let truth = model_gt.path_latencies(&topo, &sample.demands, &routing);
            samples.push((sample.demands, routing, truth));
        }
        let mut net = RouteNetModel::new(6, &mut rng);
        let history = net.train(&topo, &samples, 60, 0.01);
        assert!(
            history.last().unwrap() < &(history[0] * 0.5),
            "training should at least halve the loss: {:?} -> {:?}",
            history[0],
            history.last().unwrap()
        );
        // Predictions must correlate with ground truth on the train set.
        let (demands, routing, truth) = &samples[0];
        let pred = net.predict(&topo, demands, routing);
        let corr = pearson(&pred, truth);
        assert!(corr > 0.5, "prediction correlation too weak: {corr}");
    }

    fn pearson(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum();
        let vb: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum();
        cov / (va.sqrt() * vb.sqrt()).max(1e-12)
    }

    #[test]
    fn connections_path_major_order() {
        let (topo, _, routing) = setup();
        let conns = connections(&topo, &routing);
        // Path indices appear in non-decreasing order.
        assert!(conns.windows(2).all(|w| w[0].0 <= w[1].0));
        let total: usize = routing.iter().map(|p| p.len() - 1).sum();
        assert_eq!(conns.len(), total);
    }

    #[test]
    fn param_count_matches_layout() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = RouteNetModel::new(8, &mut rng);
        // 2 * (d*(2d+1) + d) + d + 1 with d=8.
        assert_eq!(m.param_count(), 2 * (8 * 17 + 8) + 8 + 1);
    }
}
