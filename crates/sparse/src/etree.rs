//! Elimination trees for sparse symmetric factorization.
//!
//! The elimination tree (Liu \[24\] in the paper) is the spanning tree of the
//! factorization data-dependency graph: column `j` of `L` depends on column
//! `i < j` iff `i` is a descendant of `j`. The MIB compiler uses it twice:
//!
//! * the direct KKT solver runs symbolic analysis with it
//!   ([`crate::ldl::LdlSymbolic`]), and
//! * the network-instruction scheduler orders factorization instructions by
//!   tree level so that independent columns can be issued together
//!   (Section IV.C of the paper).
//!
//! All functions operate on the **upper triangle** pattern of a symmetric
//! matrix, the storage convention of the whole stack.

use crate::{CscMatrix, Result, SparseError};

/// Sentinel parent value for roots of the elimination forest.
pub const NO_PARENT: usize = usize::MAX;

/// Result of elimination-tree analysis of a symmetric matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EliminationTree {
    parent: Vec<usize>,
    col_counts: Vec<usize>,
}

impl EliminationTree {
    /// Computes the elimination tree and per-column nonzero counts of the
    /// LDLᵀ factor of a symmetric matrix given by its upper triangle.
    ///
    /// This is the QDLDL `etree` algorithm: a single pass over the columns,
    /// walking up partially-built tree paths with a work-marker array.
    /// `col_counts[i]` is the number of strictly-below-diagonal nonzeros in
    /// column `i` of `L`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] for rectangular input and
    /// [`SparseError::InvalidStructure`] if entries below the diagonal are
    /// present.
    pub fn from_upper(a: &CscMatrix) -> Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        let n = a.ncols();
        let mut parent = vec![NO_PARENT; n];
        let mut col_counts = vec![0usize; n];
        // work[i] == j means node i has already been visited while
        // processing column j.
        let mut work = vec![NO_PARENT; n];
        for j in 0..n {
            work[j] = j;
            for (i, _) in a.col(j) {
                if i > j {
                    return Err(SparseError::InvalidStructure(format!(
                        "entry ({i}, {j}) below the diagonal; upper triangle expected"
                    )));
                }
                let mut i = i;
                while i != j && work[i] != j {
                    if parent[i] == NO_PARENT {
                        parent[i] = j;
                    }
                    // L has a nonzero at (j, i): row j, column i.
                    col_counts[i] += 1;
                    work[i] = j;
                    i = parent[i];
                }
            }
        }
        Ok(EliminationTree { parent, col_counts })
    }

    /// Number of nodes (matrix dimension).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` for the empty tree.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Parent array; `parent()[i] == NO_PARENT` marks a root.
    pub fn parent(&self) -> &[usize] {
        &self.parent
    }

    /// Strictly-below-diagonal nonzero count of each column of `L`.
    pub fn col_counts(&self) -> &[usize] {
        &self.col_counts
    }

    /// Total number of below-diagonal nonzeros in `L`.
    pub fn l_nnz(&self) -> usize {
        self.col_counts.iter().sum()
    }

    /// Depth of each node: roots have level 0, children `parent level + 1`.
    ///
    /// Columns on the same level have no ancestor relation **along tree
    /// paths from distinct subtrees** and are candidates for simultaneous
    /// issue in the factorization schedule.
    pub fn levels(&self) -> Vec<usize> {
        let n = self.len();
        let mut level = vec![usize::MAX; n];
        for mut i in 0..n {
            // Walk up until a node with a known level (or a root).
            let mut path = Vec::new();
            while level[i] == usize::MAX {
                path.push(i);
                if self.parent[i] == NO_PARENT {
                    level[i] = 0;
                    break;
                }
                i = self.parent[i];
            }
            let mut l = level[i];
            for &p in path.iter().rev() {
                if p != i {
                    l += 1;
                    level[p] = l;
                }
            }
        }
        level
    }

    /// Height of each node: leaves have height 0, internal nodes
    /// `1 + max(child heights)`. A node's height is the length of the
    /// longest dependency chain below it — the factorization scheduler
    /// issues lower heights first.
    pub fn heights(&self) -> Vec<usize> {
        let n = self.len();
        let mut height = vec![0usize; n];
        // parent[i] > i always holds for elimination trees, so ascending
        // order visits children before parents.
        for i in 0..n {
            if self.parent[i] != NO_PARENT {
                let p = self.parent[i];
                height[p] = height[p].max(height[i] + 1);
            }
        }
        height
    }

    /// A postordering of the forest: children appear before parents and each
    /// subtree is contiguous. Returns `order` with `order[k]` = the node
    /// visited at position `k`.
    pub fn postorder(&self) -> Vec<usize> {
        let n = self.len();
        // Build child lists (reversed so iteration pops in ascending order).
        let mut head = vec![NO_PARENT; n];
        let mut next = vec![NO_PARENT; n];
        for i in (0..n).rev() {
            let p = self.parent[i];
            if p != NO_PARENT {
                next[i] = head[p];
                head[p] = i;
            }
        }
        let mut order = Vec::with_capacity(n);
        let mut stack = Vec::new();
        for root in 0..n {
            if self.parent[root] != NO_PARENT {
                continue;
            }
            stack.push((root, false));
            while let Some((node, expanded)) = stack.pop() {
                if expanded {
                    order.push(node);
                } else {
                    stack.push((node, true));
                    let mut c = head[node];
                    // Push children; they will be popped in reverse push
                    // order, so push descending to visit ascending.
                    let mut children = Vec::new();
                    while c != NO_PARENT {
                        children.push(c);
                        c = next[c];
                    }
                    for &c in children.iter().rev() {
                        stack.push((c, false));
                    }
                }
            }
        }
        order
    }

    /// Returns the row-pattern of row `k` of `L`: the set of columns
    /// `i < k` with `L[k, i] != 0`, in **ascending column order**.
    ///
    /// The pattern is the union of the tree paths from each nonzero
    /// `A[i, k]` (upper triangle, `i < k`) up toward `k` — the
    /// "elimination reach". `a` must be the same matrix the tree was built
    /// from.
    pub fn row_pattern(&self, a: &CscMatrix, k: usize) -> Vec<usize> {
        let mut marked = vec![false; k + 1];
        let mut pattern = Vec::new();
        for (i, _) in a.col(k) {
            if i >= k {
                continue;
            }
            let mut i = i;
            // Walk the path i -> parent -> ... until hitting k or a node
            // already collected.
            let mut path = Vec::new();
            while i != k && i < k && !marked[i] {
                path.push(i);
                marked[i] = true;
                if self.parent[i] == NO_PARENT {
                    break;
                }
                i = self.parent[i];
            }
            pattern.extend(path);
        }
        pattern.sort_unstable();
        pattern
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CscMatrix;

    /// Arrow matrix: dense last row/col + diagonal. Every column's parent is n-1.
    fn arrow(n: usize) -> CscMatrix {
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            d[i * n + i] = 4.0;
            d[i * n + (n - 1)] = 1.0;
        }
        CscMatrix::from_dense(n, n, &d).upper_triangle().unwrap()
    }

    /// Tridiagonal matrix: parent of i is i+1, chain tree.
    fn tridiag(n: usize) -> CscMatrix {
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            d[i * n + i] = 4.0;
            if i + 1 < n {
                d[i * n + i + 1] = -1.0;
            }
        }
        CscMatrix::from_dense(n, n, &d).upper_triangle().unwrap()
    }

    #[test]
    fn arrow_tree_is_flat() {
        let t = EliminationTree::from_upper(&arrow(5)).unwrap();
        assert_eq!(t.parent()[..4], [4, 4, 4, 4]);
        assert_eq!(t.parent()[4], NO_PARENT);
        // L's last row is dense: each column 0..4 has exactly one subdiagonal entry.
        assert_eq!(t.col_counts(), &[1, 1, 1, 1, 0]);
        assert_eq!(t.l_nnz(), 4);
        assert_eq!(t.heights(), vec![0, 0, 0, 0, 1]);
    }

    #[test]
    fn tridiag_tree_is_chain() {
        let t = EliminationTree::from_upper(&tridiag(4)).unwrap();
        assert_eq!(t.parent(), &[1, 2, 3, NO_PARENT]);
        assert_eq!(t.col_counts(), &[1, 1, 1, 0]);
        assert_eq!(t.levels(), vec![3, 2, 1, 0]);
        assert_eq!(t.heights(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn diagonal_matrix_is_forest_of_roots() {
        let t = EliminationTree::from_upper(&CscMatrix::identity(3)).unwrap();
        assert_eq!(t.parent(), &[NO_PARENT, NO_PARENT, NO_PARENT]);
        assert_eq!(t.l_nnz(), 0);
        assert_eq!(t.postorder().len(), 3);
    }

    #[test]
    fn postorder_children_before_parents() {
        let t = EliminationTree::from_upper(&arrow(6)).unwrap();
        let order = t.postorder();
        assert_eq!(order.len(), 6);
        let mut position = [0usize; 6];
        for (k, &node) in order.iter().enumerate() {
            position[node] = k;
        }
        for i in 0..6 {
            if t.parent()[i] != NO_PARENT {
                assert!(position[i] < position[t.parent()[i]]);
            }
        }
    }

    #[test]
    fn row_pattern_of_tridiag() {
        let m = tridiag(4);
        let t = EliminationTree::from_upper(&m).unwrap();
        assert_eq!(t.row_pattern(&m, 0), Vec::<usize>::new());
        assert_eq!(t.row_pattern(&m, 2), vec![1]);
        assert_eq!(t.row_pattern(&m, 3), vec![2]);
    }

    #[test]
    fn row_pattern_includes_fill() {
        // Pattern with fill-in:
        // [ x . x ]
        // [ . x x ]
        // [ x x x ]   -> L row 2 touches columns 0,1; no fill here.
        // Use a case with genuine fill: edges (0,1), (0,3): row 3 reaches
        // {0, 1, 2}? etree: col1 contains (0,1) -> parent[0]=1.
        // col3 contains (0,3): path 0 -> 1 -> parent[1]=3; L row 3 = {0, 1}.
        let mut d = vec![0.0; 16];
        for i in 0..4 {
            d[i * 4 + i] = 4.0;
        }
        d[1] = 1.0; // (0,1)
        d[3] = 1.0; // (0,3)
        let m = CscMatrix::from_dense(4, 4, &d).upper_triangle().unwrap();
        let t = EliminationTree::from_upper(&m).unwrap();
        assert_eq!(t.row_pattern(&m, 3), vec![0, 1]); // column 1 is fill
    }

    #[test]
    fn lower_triangle_input_is_rejected() {
        let m = CscMatrix::from_dense(2, 2, &[1.0, 0.0, 1.0, 1.0]);
        assert!(EliminationTree::from_upper(&m).is_err());
    }
}
