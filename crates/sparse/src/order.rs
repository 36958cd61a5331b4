//! Fill-reducing orderings for symmetric sparse factorization.
//!
//! The paper's compiler permutes the KKT matrix with AMD [2] before
//! factorization, and so do we: [`Ordering::MinDegree`] is Amestoy–Davis–Duff
//! approximate minimum degree on a quotient graph, with approximate external
//! degrees, element absorption (aggressive included), mass elimination and
//! supervariables (see DESIGN.md §1). Reverse Cuthill–McKee
//! ([`Ordering::Rcm`]) and the identity ordering ([`Ordering::Natural`]) are
//! the baselines of the ordering ablation bench.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{CscMatrix, Permutation, Result, SparseError};

/// Selects the fill-reducing ordering applied before LDLᵀ factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Ordering {
    /// No permutation (identity).
    Natural,
    /// Reverse Cuthill–McKee: bandwidth-reducing BFS ordering.
    Rcm,
    /// Approximate minimum degree (AMD).
    #[default]
    MinDegree,
}

/// Computes the selected ordering for a symmetric matrix given by its upper
/// triangle. Returns a [`Permutation`] with `perm[new] = old`.
///
/// # Errors
///
/// Returns [`SparseError::NotSquare`] for rectangular input.
pub fn compute(a: &CscMatrix, method: Ordering) -> Result<Permutation> {
    if a.nrows() != a.ncols() {
        return Err(SparseError::NotSquare {
            nrows: a.nrows(),
            ncols: a.ncols(),
        });
    }
    match method {
        Ordering::Natural => Ok(Permutation::identity(a.ncols())),
        Ordering::Rcm => Ok(rcm(a)),
        Ordering::MinDegree => Ok(min_degree(a)),
    }
}

/// Builds the undirected adjacency structure (no diagonal, both directions)
/// from the upper-triangle pattern.
fn adjacency(a: &CscMatrix) -> Vec<Vec<usize>> {
    let n = a.ncols();
    let mut adj = vec![Vec::new(); n];
    for (i, j, _) in a.iter() {
        if i != j {
            adj[i].push(j);
            adj[j].push(i);
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

/// Reverse Cuthill–McKee ordering.
fn rcm(a: &CscMatrix) -> Permutation {
    let n = a.ncols();
    let adj = adjacency(a);
    let degree: Vec<usize> = adj.iter().map(Vec::len).collect();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    // Start each component's BFS from a minimum-degree vertex (a cheap
    // stand-in for a pseudo-peripheral vertex).
    let mut starts: Vec<usize> = (0..n).collect();
    starts.sort_unstable_by_key(|&v| degree[v]);
    for &start in &starts {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbrs: Vec<usize> = adj[v].iter().copied().filter(|&u| !visited[u]).collect();
            nbrs.sort_unstable_by_key(|&u| degree[u]);
            for u in nbrs {
                visited[u] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    Permutation::from_vec(order).expect("bfs visits every vertex exactly once")
}

/// Role of a node of the quotient graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    /// A principal variable: not yet eliminated, not merged into another.
    Variable,
    /// An eliminated variable standing for the clique of its members.
    Element,
    /// An absorbed element, or a variable that is merged into a
    /// supervariable or eliminated together with a pivot.
    Gone,
}

/// Approximate minimum degree (Amestoy, Davis & Duff) on a quotient graph.
///
/// Eliminated variables become *elements* (reusing their index). A
/// principal variable `i` keeps its remaining variable neighbours `A_i`
/// (`vars[i]`) and the elements it belongs to `E_i` (`elems[i]`); element
/// `e` keeps its members `L_e` (`members[e]`) and their total weight
/// `|L_e|` (`size[e]`). Indistinguishable variables are merged into one
/// supervariable whose `weight` is the number of variables it stands for.
///
/// After pivot `p` only the members of `L_p` change degree, and each gets
/// the AMD bound `min(d_old + |L_p∖i|, |A_i∖i| + |L_p∖i| +
/// Σ_{e∈E_i∖p} |L_e∖L_p|)`, capped at the weight still to eliminate. All
/// `|L_e∖L_p|` come from one pass over the element lists of `L_p`, so no
/// member's neighbourhood is re-swept. Elements with `L_e ⊆ L_p` are
/// absorbed into `p` (aggressive absorption); a member left adjacent to `p`
/// only is eliminated with `p` (mass elimination). The pivot is the minimum
/// degree, ties to the smallest index, so the result is deterministic.
fn min_degree(a: &CscMatrix) -> Permutation {
    let n = a.ncols();
    let mut vars = adjacency(a);
    let mut elems: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut size = vec![0usize; n];
    // Variables merged into each supervariable, in merge order.
    let mut merged: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut node = vec![Node::Variable; n];
    let mut weight = vec![1usize; n];
    let mut degree: Vec<usize> = vars.iter().map(Vec::len).collect();
    // `mark[x] == tag`: x belongs to the set being built.
    let mut mark = vec![0usize; n];
    let mut tag = 0usize;
    // `outside[e]` = |L_e∖L_p|, valid where `seen[e]` is the current pivot.
    let mut outside = vec![0usize; n];
    let mut seen = vec![usize::MAX; n];
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
        (0..n).map(|v| Reverse((degree[v], v))).collect();
    let mut order = Vec::with_capacity(n);
    let mut left = n;
    let mut lp: Vec<usize> = Vec::new();
    let mut hashed: Vec<(usize, usize)> = Vec::new();

    while let Some(Reverse((d, p))) = heap.pop() {
        if node[p] != Node::Variable || d != degree[p] {
            continue; // stale heap entry
        }
        // L_p: the principal variables adjacent to p directly or through
        // one of its elements, which p absorbs.
        tag += 1;
        mark[p] = tag;
        lp.clear();
        let mut lp_weight = 0;
        lp.extend(vars[p].iter().filter(|&&i| node[i] == Node::Variable));
        for &e in &elems[p] {
            if node[e] == Node::Element {
                node[e] = Node::Gone;
                lp.extend(members[e].iter().filter(|&&i| node[i] == Node::Variable));
                members[e] = Vec::new();
            }
        }
        lp.retain(|&i| {
            let new = mark[i] != tag;
            mark[i] = tag;
            lp_weight += if new { weight[i] } else { 0 };
            new
        });
        node[p] = Node::Element;
        vars[p] = Vec::new();
        elems[p] = Vec::new();
        left -= weight[p];
        order.push(p);
        order.append(&mut merged[p]);

        // |L_e∖L_p| for every element next to L_p, dropping absorbed ones.
        for &i in &lp {
            elems[i].retain(|&e| {
                let live = node[e] == Node::Element;
                if live {
                    if seen[e] != p {
                        seen[e] = p;
                        outside[e] = size[e];
                    }
                    outside[e] -= weight[i];
                }
                live
            });
        }

        // Prune each member's lists, bound its degree without L_p, and hash
        // what is left for the supervariable test.
        hashed.clear();
        for &i in &lp {
            let mut deg = 0;
            let mut hash = 0usize;
            elems[i].retain(|&e| {
                if outside[e] == 0 {
                    node[e] = Node::Gone; // L_e ⊆ L_p: p absorbs e
                    members[e] = Vec::new();
                    return false;
                }
                deg += outside[e];
                hash = hash.wrapping_add(e);
                true
            });
            vars[i].retain(|&j| {
                let keep = node[j] == Node::Variable && mark[j] != tag;
                if keep {
                    deg += weight[j];
                    hash = hash.wrapping_add(j);
                }
                keep
            });
            if elems[i].is_empty() && vars[i].is_empty() {
                // Adjacent to p only: eliminated with it, at no fill.
                node[i] = Node::Gone;
                left -= weight[i];
                lp_weight -= weight[i];
                order.push(i);
                order.append(&mut merged[i]);
                continue;
            }
            elems[i].push(p);
            degree[i] = degree[i].min(deg);
            hashed.push((hash, i));
        }

        // Supervariables: members with equal hashes and equal pruned lists
        // are indistinguishable from now on; merge each into the first.
        hashed.sort_unstable();
        for group in hashed.chunk_by(|x, y| x.0 == y.0) {
            for (k, &(_, i)) in group.iter().enumerate() {
                if node[i] != Node::Variable || k + 1 == group.len() {
                    continue;
                }
                tag += 1;
                for &x in elems[i].iter().chain(&vars[i]) {
                    mark[x] = tag;
                }
                for &(_, j) in &group[k + 1..] {
                    let same = node[j] == Node::Variable
                        && elems[j].len() == elems[i].len()
                        && vars[j].len() == vars[i].len()
                        && elems[j].iter().chain(&vars[j]).all(|&x| mark[x] == tag);
                    if same {
                        weight[i] += weight[j];
                        weight[j] = 0;
                        node[j] = Node::Gone;
                        let mut tail = std::mem::take(&mut merged[j]);
                        merged[i].push(j);
                        merged[i].append(&mut tail);
                        vars[j] = Vec::new();
                        elems[j] = Vec::new();
                    }
                }
            }
        }

        // p is now an element; its members get their final degrees.
        lp.retain(|&i| node[i] == Node::Variable);
        for &i in &lp {
            degree[i] = (degree[i] + lp_weight - weight[i]).min(left - weight[i]);
            heap.push(Reverse((degree[i], i)));
        }
        size[p] = lp_weight;
        members[p].clone_from(&lp);
    }
    Permutation::from_vec(order).expect("every vertex eliminated exactly once")
}

/// Counts the below-diagonal fill of the LDLᵀ factor of `PAPᵀ` for a given
/// ordering — the metric the ordering ablation bench reports.
///
/// # Errors
///
/// Propagates structural errors from permutation and elimination-tree
/// construction.
pub fn fill_in(a: &CscMatrix, method: Ordering) -> Result<usize> {
    let p = compute(a, method)?;
    let permuted = p.sym_perm_upper(a)?;
    let tree = crate::etree::EliminationTree::from_upper(&permuted)?;
    Ok(tree.l_nnz())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Star graph: vertex 0 connected to all others. Natural order is the
    /// worst case (eliminating the hub first gives a dense factor); any
    /// minimum-degree order eliminates leaves first giving zero fill beyond
    /// the original edges.
    fn star(n: usize) -> CscMatrix {
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            d[i * n + i] = 4.0;
            if i > 0 {
                d[i] = 1.0; // (0, i) upper entry
            }
        }
        CscMatrix::from_dense(n, n, &d).upper_triangle().unwrap()
    }

    #[test]
    fn min_degree_avoids_star_fill() {
        let a = star(12);
        let natural_hub_first = {
            // Force the hub to be eliminated first by reversing: natural
            // order already eliminates the hub (vertex 0) first.
            fill_in(&a, Ordering::Natural).unwrap()
        };
        let md = fill_in(&a, Ordering::MinDegree).unwrap();
        assert_eq!(md, 11, "min degree keeps the star's original 11 edges only");
        assert!(natural_hub_first > md, "hub-first must create fill");
    }

    #[test]
    fn orderings_are_valid_permutations() {
        let a = star(7);
        for method in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
            let p = compute(&a, method).unwrap();
            assert_eq!(p.len(), 7);
        }
    }

    #[test]
    fn natural_is_identity() {
        let a = star(5);
        let p = compute(&a, Ordering::Natural).unwrap();
        assert_eq!(p.perm(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn rcm_reduces_bandwidth_on_shuffled_chain() {
        // A chain 0-5-1-4-2-3 (a path with scrambled labels) has large
        // natural bandwidth; RCM recovers a banded order.
        let edges = [(0usize, 5usize), (5, 1), (1, 4), (4, 2), (2, 3)];
        let n = 6;
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for i in 0..n {
            rows.push(i);
            cols.push(i);
            vals.push(4.0);
        }
        for &(i, j) in &edges {
            let (a, b) = (i.min(j), i.max(j));
            rows.push(a);
            cols.push(b);
            vals.push(1.0);
        }
        let a = CscMatrix::from_triplet_parts(n, n, &rows, &cols, &vals).unwrap();
        let bandwidth = |p: &Permutation| -> usize {
            edges
                .iter()
                .map(|&(i, j)| p.inv()[i].abs_diff(p.inv()[j]))
                .max()
                .unwrap()
        };
        let natural = bandwidth(&Permutation::identity(n));
        let rcm_bw = bandwidth(&compute(&a, Ordering::Rcm).unwrap());
        assert_eq!(rcm_bw, 1, "a path graph reorders to bandwidth 1");
        assert!(natural > rcm_bw);
    }

    #[test]
    fn min_degree_on_grid_beats_natural() {
        // 2D 6x6 grid Laplacian pattern.
        let k = 6;
        let n = k * k;
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for i in 0..n {
            rows.push(i);
            cols.push(i);
            vals.push(4.0);
        }
        for r in 0..k {
            for c in 0..k {
                let v = r * k + c;
                if c + 1 < k {
                    rows.push(v);
                    cols.push(v + 1);
                    vals.push(-1.0);
                }
                if r + 1 < k {
                    rows.push(v);
                    cols.push(v + k);
                    vals.push(-1.0);
                }
            }
        }
        let a = CscMatrix::from_triplet_parts(n, n, &rows, &cols, &vals).unwrap();
        let nat = fill_in(&a, Ordering::Natural).unwrap();
        let md = fill_in(&a, Ordering::MinDegree).unwrap();
        assert!(
            md < nat,
            "min degree ({md}) should beat natural ({nat}) on a grid"
        );
    }

    #[test]
    fn rectangular_input_rejected() {
        let a = CscMatrix::zeros(2, 3);
        assert!(compute(&a, Ordering::MinDegree).is_err());
    }

    #[test]
    fn diagonal_matrix_any_order_zero_fill() {
        let a = CscMatrix::identity(8);
        for method in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
            assert_eq!(fill_in(&a, method).unwrap(), 0);
        }
    }

    /// Upper-triangle pattern with a full diagonal and the given edges.
    fn from_edges(n: usize, edges: &[(usize, usize)]) -> CscMatrix {
        let mut rows: Vec<usize> = (0..n).collect();
        let mut cols: Vec<usize> = (0..n).collect();
        let mut vals = vec![4.0; n];
        for &(i, j) in edges {
            rows.push(i.min(j));
            cols.push(i.max(j));
            vals.push(1.0);
        }
        CscMatrix::from_triplet_parts(n, n, &rows, &cols, &vals).unwrap()
    }

    /// The minimum-degree permutation of `a`, checked to be a permutation
    /// of `0..n`.
    fn amd(a: &CscMatrix) -> Vec<usize> {
        let perm = compute(a, Ordering::MinDegree).unwrap().perm().to_vec();
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..a.ncols()).collect::<Vec<_>>());
        perm
    }

    #[test]
    fn min_degree_handles_empty_and_single_vertex() {
        assert!(amd(&from_edges(0, &[])).is_empty());
        assert_eq!(amd(&from_edges(1, &[])), [0]);
    }

    #[test]
    fn min_degree_keeps_a_diagonal_matrix_in_index_order() {
        // Every vertex has degree 0; ties go to the smallest index.
        assert_eq!(amd(&CscMatrix::identity(6)), [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn complete_graph_is_one_supervariable() {
        // After the first pivot the other seven are indistinguishable and
        // adjacent to it only: all eight go in one step, in index order.
        let edges: Vec<(usize, usize)> = (0..8).flat_map(|j| (0..j).map(move |i| (i, j))).collect();
        let a = from_edges(8, &edges);
        assert_eq!(amd(&a), [0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(fill_in(&a, Ordering::MinDegree).unwrap(), 28);
    }

    #[test]
    fn disconnected_components_are_ordered_without_fill() {
        // A star on 0..5 and a scrambled path on 5..9: both are trees, and
        // minimum degree eliminates a tree leaf by leaf.
        let edges = [(0, 1), (0, 2), (0, 3), (0, 4), (5, 8), (8, 6), (6, 7)];
        let a = from_edges(9, &edges);
        amd(&a);
        assert_eq!(fill_in(&a, Ordering::MinDegree).unwrap(), edges.len());
    }

    #[test]
    fn arrow_hub_is_ordered_with_the_final_clique() {
        // A path plus one dense row and column (the shape of a portfolio
        // KKT's budget row), the hub first in natural order. The hub must
        // wait until what is left is a clique around it: no fill. By then
        // the path's last vertices are indistinguishable from the hub, which
        // leads that final supervariable rather than closing the order.
        let (n, hub) = (12, 0);
        let mut edges: Vec<(usize, usize)> = (1..n - 1).map(|v| (v, v + 1)).collect();
        edges.extend((1..n).map(|v| (hub, v)));
        let a = from_edges(n, &edges);
        assert!(amd(&a)[n - 3..].contains(&hub));
        assert_eq!(fill_in(&a, Ordering::MinDegree).unwrap(), edges.len());
        assert!(fill_in(&a, Ordering::Natural).unwrap() > edges.len());
    }

    #[test]
    fn min_degree_is_deterministic() {
        // A 7x7 grid has many degree ties and supervariable candidates.
        let k = 7;
        let mut edges = Vec::new();
        for v in 0..k * k {
            if v % k + 1 < k {
                edges.push((v, v + 1));
            }
            if v + k < k * k {
                edges.push((v, v + k));
            }
        }
        let a = from_edges(k * k, &edges);
        assert_eq!(amd(&a), amd(&a));
    }
}
