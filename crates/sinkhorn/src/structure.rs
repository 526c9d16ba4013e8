//! Zero-pattern analysis: when does an exact standard form exist?
//!
//! Section VI of the paper shows that matrices with zeros may not admit any
//! combination of row and column normalizations reaching equal marginals, and cites
//! Marshall–Olkin's sufficient condition (full indecomposability). This module
//! implements the full decision theory:
//!
//! * **support** — a positive diagonal exists (perfect matching). Sinkhorn–Knopp:
//!   the iteration's matrix iterates converge iff the matrix has support.
//! * **total support** — every positive entry lies on a positive diagonal.
//!   An exact scaling `D₁AD₂` with equal marginals exists iff total support holds
//!   (Sinkhorn–Knopp 1967); entries off every positive diagonal decay to zero in
//!   the iteration limit.
//! * **fully indecomposable** — no permutation to the block form of Eq. 11.
//!   Sufficient for balanceability of a *positive-pattern* matrix and implies the
//!   scaling is unique up to scalars (Marshall–Olkin 1968).
//!
//! For rectangular `T × M` matrices the paper reduces to the square case ("every
//! m × m submatrix fully indecomposable"); we provide that definitional check for
//! small sizes plus the practical route: analysis of the square pattern
//! `B = [[0, A], [Aᵀ, 0]]`-free direct tests on marginals via matchings.

use crate::graph::{hopcroft_karp, tarjan_scc, Bipartite, Matching};
use hc_linalg::Matrix;

/// Classification of a zero pattern with respect to exact balanceability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Balanceability {
    /// Strictly positive matrix: Theorem 1 applies directly.
    Positive,
    /// Total support: an exact scaling to equal marginals exists.
    ExactlyBalanceable,
    /// Support but not total support: the iteration converges only in the limit,
    /// with the off-diagonal-support entries decaying to zero (paper's Eq. 10 case
    /// never balances; triangular patterns converge to a sub-pattern).
    LimitOnly,
    /// No support: the Sinkhorn iterates oscillate; no balanced form of any kind.
    NotBalanceable,
}

/// Full structural report for a square pattern.
#[derive(Debug, Clone)]
pub struct StructureReport {
    /// Matrix shape analyzed.
    pub shape: (usize, usize),
    /// Number of positive entries.
    pub positive_entries: usize,
    /// Maximum matching size in the bipartite graph of positive entries.
    pub matching_size: usize,
    /// Square only: a positive diagonal exists.
    pub has_support: bool,
    /// Square only: every positive entry is on a positive diagonal.
    pub has_total_support: bool,
    /// Square only: no permutation to the Eq.-11 block-triangular form.
    pub fully_indecomposable: bool,
    /// The bipartite graph of positive entries is connected.
    pub connected: bool,
    /// Overall verdict.
    pub balanceability: Balanceability,
}

/// Builds the bipartite positive-entry graph of a matrix.
pub fn pattern_graph(m: &Matrix) -> Bipartite {
    Bipartite::from_pattern(m.rows(), m.cols(), |i, j| m[(i, j)] > 0.0)
}

/// Tests whether every positive entry of a square matrix lies on a positive
/// diagonal, given a perfect matching. Orient matched edges right→left and free
/// edges left→right; an edge `(i, j)` lies on some perfect matching iff it is
/// matched or its endpoints are in one SCC of that digraph.
fn total_support_with_matching(m: &Matrix, g: &Bipartite, matching: &Matching) -> bool {
    let n = m.rows();
    debug_assert_eq!(matching.size, n);
    // Digraph over left vertices: i → i' when i has an edge to the column matched
    // to i' (the standard contraction of the alternating-path digraph).
    let mut adj = vec![Vec::new(); n];
    for (i, nbrs) in g.adj.iter().enumerate() {
        for &j in nbrs {
            let i2 = matching.right_match[j].expect("perfect matching");
            if i2 != i {
                adj[i].push(i2);
            }
        }
    }
    let comp = tarjan_scc(&adj);
    for (i, nbrs) in g.adj.iter().enumerate() {
        for &j in nbrs {
            if matching.left_match[i] == Some(j) {
                continue; // matched edges are on a perfect matching by definition
            }
            let i2 = matching.right_match[j].expect("perfect matching");
            if comp[i] != comp[i2] {
                return false;
            }
        }
    }
    true
}

/// Analyzes a **square** nonnegative matrix.
///
/// ```
/// use hc_linalg::Matrix;
/// use hc_sinkhorn::structure::{analyze_square, Balanceability};
///
/// // The paper's Eq. 10 pattern: a positive diagonal exists, but the (2,3)
/// // entry lies on none — no exact standard form.
/// let m = Matrix::from_rows(&[&[0., 0., 1.], &[1., 0., 1.], &[0., 1., 0.]]).unwrap();
/// let rep = analyze_square(&m);
/// assert!(rep.has_support && !rep.has_total_support);
/// assert_eq!(rep.balanceability, Balanceability::LimitOnly);
/// ```
///
/// # Panics
/// Panics when `m` is not square (use [`analyze_structure`] for the general entry
/// point).
pub fn analyze_square(m: &Matrix) -> StructureReport {
    assert!(m.is_square(), "analyze_square requires a square matrix");
    let n = m.rows();
    let g = pattern_graph(m);
    let matching = hopcroft_karp(&g);
    let positive_entries = g.edge_count();
    let all_positive = positive_entries == n * n;
    let has_support = matching.size == n;
    let has_total_support = if all_positive {
        true
    } else if has_support {
        total_support_with_matching(m, &g, &matching)
    } else {
        false
    };
    let connected = g.is_connected();
    // Brualdi–Ryser: a square nonnegative matrix with n ≥ 2 is fully
    // indecomposable iff it has total support and its bipartite graph is
    // connected. For n = 1 the matrix is fully indecomposable iff its entry is
    // positive.
    let fully_indecomposable = if n == 1 {
        m[(0, 0)] > 0.0
    } else {
        has_total_support && connected
    };
    let balanceability = if all_positive {
        Balanceability::Positive
    } else if has_total_support {
        Balanceability::ExactlyBalanceable
    } else if has_support {
        Balanceability::LimitOnly
    } else {
        Balanceability::NotBalanceable
    };
    StructureReport {
        shape: m.shape(),
        positive_entries,
        matching_size: matching.size,
        has_support,
        has_total_support,
        fully_indecomposable,
        connected,
        balanceability,
    }
}

/// Analyzes any nonnegative matrix.
///
/// Square matrices get the full square analysis ([`analyze_square`]). A
/// strictly positive rectangular matrix is balanceable by Theorem 1. Any
/// other rectangular `T × M` pattern is decided on the paper's Appendix-A
/// tiling: the `(M·T) × (T·M)` square block array of copies of the matrix
/// ([`tile`]), which can be scaled to doubly stochastic iff the rectangular
/// matrix can be scaled to constant row and column sums (the standard
/// form's), gets the square analysis. The tiling is
/// built only while the matrix has at most 2 048 cells (`T·M ≤ 2 048`).
/// Above that the pattern is left undecided: the report carries only the
/// rectangular matching, a necessary condition, with `has_total_support`
/// and `fully_indecomposable` false, and `balanceability`
/// [`Balanceability::LimitOnly`] when the matching covers `min(T, M)` lines
/// and [`Balanceability::NotBalanceable`] when it does not.
pub fn analyze_structure(m: &Matrix) -> StructureReport {
    if m.is_square() {
        return analyze_square(m);
    }
    let (t, cols) = m.shape();
    let g = pattern_graph(m);
    let positive_entries = g.edge_count();
    let matching = hopcroft_karp(&g);
    let connected = g.is_connected();

    if positive_entries == t * cols {
        // Strictly positive rectangular matrix: Theorem 1 applies directly.
        return StructureReport {
            shape: m.shape(),
            positive_entries,
            matching_size: matching.size,
            has_support: matching.size == t.min(cols),
            has_total_support: true,
            fully_indecomposable: true,
            connected,
            balanceability: Balanceability::Positive,
        };
    }

    // Appendix-A replication: an (M·T) × (T·M) square block array with M block-rows
    // and T block-cols of A tiles is square; A is balanceable to equal marginals
    // iff the tiled square matrix is. Only feasible for modest shapes; the
    // rectangular matrices in this problem domain are small (tasks × machines).
    let tiled_dim = t * cols;
    if tiled_dim <= 2048 {
        let tiled = tile(m, cols, t);
        let mut rep = analyze_square(&tiled);
        rep.shape = m.shape();
        rep.positive_entries = positive_entries;
        rep.matching_size = matching.size;
        rep.connected = connected;
        return rep;
    }

    // Too large to tile: report the cheap diagnostics; the support flag reflects
    // the rectangular matching (necessary condition only).
    let has_support = matching.size == t.min(cols);
    StructureReport {
        shape: m.shape(),
        positive_entries,
        matching_size: matching.size,
        has_support,
        has_total_support: false,
        fully_indecomposable: false,
        connected,
        balanceability: if has_support {
            Balanceability::LimitOnly
        } else {
            Balanceability::NotBalanceable
        },
    }
}

/// Tiles `a` into a `block_rows × block_cols` array of copies — the paper's
/// Appendix-A construction, i.e. `J_{block_rows × block_cols} ⊗ a`.
pub fn tile(a: &Matrix, block_rows: usize, block_cols: usize) -> Matrix {
    Matrix::filled(block_rows, block_cols, 1.0).kron(a)
}

/// Definitional full-indecomposability check by exhaustive search for a
/// `k × (n−k)` all-zero submatrix (the paper's Eq. 11 block form). Exponential in
/// `n`; intended for cross-validating [`analyze_square`] on small matrices.
///
/// Returns `None` when `n > limit` (search declined).
pub fn fully_indecomposable_exhaustive(m: &Matrix, limit: usize) -> Option<bool> {
    if !m.is_square() {
        return None;
    }
    let n = m.rows();
    if n > limit {
        return None;
    }
    if n == 1 {
        return Some(m[(0, 0)] > 0.0);
    }
    // A is partly decomposable iff there exist nonempty proper subsets R of rows
    // and C of columns with |R| + |C| = n and A[R, C] = 0.
    for rmask in 1u32..((1u32 << n) - 1) {
        let r: Vec<usize> = (0..n).filter(|&i| rmask & (1 << i) != 0).collect();
        let k = r.len();
        let c_size = n - k;
        if c_size == 0 || c_size == n {
            continue;
        }
        // Enumerate column subsets of size n − k.
        for cmask in 1u32..((1u32 << n) - 1) {
            if (cmask.count_ones() as usize) != c_size {
                continue;
            }
            let c: Vec<usize> = (0..n).filter(|&j| cmask & (1 << j) != 0).collect();
            if r.iter().all(|&i| c.iter().all(|&j| m[(i, j)] == 0.0)) {
                return Some(false);
            }
        }
    }
    Some(true)
}

/// Coarse Dulmage–Mendelsohn decomposition of a rectangular pattern.
///
/// Partitions rows and columns into the horizontal part (reachable by alternating
/// paths from unmatched rows), the vertical part (reachable from unmatched
/// columns), and the square core. For a matrix with a perfect matching everything
/// is core; deficient patterns expose *where* the Hall condition fails, which is
/// the actionable diagnostic when [`Balanceability::NotBalanceable`] comes back.
#[derive(Debug, Clone)]
pub struct DmCoarse {
    /// Rows in the horizontal (row-deficient) part.
    pub horizontal_rows: Vec<usize>,
    /// Columns in the horizontal part.
    pub horizontal_cols: Vec<usize>,
    /// Rows in the square core.
    pub core_rows: Vec<usize>,
    /// Columns in the square core.
    pub core_cols: Vec<usize>,
    /// Rows in the vertical (column-deficient) part.
    pub vertical_rows: Vec<usize>,
    /// Columns in the vertical part.
    pub vertical_cols: Vec<usize>,
}

/// Computes the coarse DM decomposition.
pub fn dm_coarse(m: &Matrix) -> DmCoarse {
    let g = pattern_graph(m);
    let matching = hopcroft_karp(&g);
    let (nr, nc) = (g.n_left, g.n_right);

    // Right adjacency.
    let mut radj = vec![Vec::new(); nc];
    for (i, nbrs) in g.adj.iter().enumerate() {
        for &j in nbrs {
            radj[j].push(i);
        }
    }

    // Horizontal part: alternating BFS from unmatched rows
    // (row --any edge--> col --matched edge--> row).
    let mut h_row = vec![false; nr];
    let mut h_col = vec![false; nc];
    let mut stack: Vec<usize> = (0..nr)
        .filter(|&i| matching.left_match[i].is_none())
        .collect();
    for &i in &stack {
        h_row[i] = true;
    }
    while let Some(i) = stack.pop() {
        for &j in &g.adj[i] {
            if !h_col[j] {
                h_col[j] = true;
                if let Some(i2) = matching.right_match[j] {
                    if !h_row[i2] {
                        h_row[i2] = true;
                        stack.push(i2);
                    }
                }
            }
        }
    }

    // Vertical part: alternating BFS from unmatched columns
    // (col --any edge--> row --matched edge--> col).
    let mut v_row = vec![false; nr];
    let mut v_col = vec![false; nc];
    let mut cstack: Vec<usize> = (0..nc)
        .filter(|&j| matching.right_match[j].is_none())
        .collect();
    for &j in &cstack {
        v_col[j] = true;
    }
    while let Some(j) = cstack.pop() {
        for &i in &radj[j] {
            if !v_row[i] {
                v_row[i] = true;
                if let Some(j2) = matching.left_match[i] {
                    if !v_col[j2] {
                        v_col[j2] = true;
                        cstack.push(j2);
                    }
                }
            }
        }
    }

    DmCoarse {
        horizontal_rows: (0..nr).filter(|&i| h_row[i]).collect(),
        horizontal_cols: (0..nc).filter(|&j| h_col[j]).collect(),
        core_rows: (0..nr).filter(|&i| !h_row[i] && !v_row[i]).collect(),
        core_cols: (0..nc).filter(|&j| !h_col[j] && !v_col[j]).collect(),
        vertical_rows: (0..nr).filter(|&i| v_row[i]).collect(),
        vertical_cols: (0..nc).filter(|&j| v_col[j]).collect(),
    }
}

/// For a square pattern **with support**, returns a mask marking every positive
/// entry that lies on some positive diagonal (perfect matching). `None` when the
/// matrix has no support.
///
/// Uses the alternating-cycle characterization: orient the bipartite graph by a
/// perfect matching; a non-matched edge lies on a perfect matching iff its
/// endpoints share an SCC of the contracted digraph.
pub fn diagonal_support_mask(m: &Matrix) -> Option<Vec<Vec<bool>>> {
    assert!(
        m.is_square(),
        "diagonal_support_mask requires a square matrix"
    );
    let n = m.rows();
    let g = pattern_graph(m);
    let matching = hopcroft_karp(&g);
    if matching.size != n {
        return None;
    }
    let mut adj = vec![Vec::new(); n];
    for (i, nbrs) in g.adj.iter().enumerate() {
        for &j in nbrs {
            let i2 = matching.right_match[j].expect("perfect matching");
            if i2 != i {
                adj[i].push(i2);
            }
        }
    }
    let comp = tarjan_scc(&adj);
    let mut mask = vec![vec![false; n]; n];
    for (i, nbrs) in g.adj.iter().enumerate() {
        for &j in nbrs {
            if matching.left_match[i] == Some(j) {
                mask[i][j] = true;
            } else {
                let i2 = matching.right_match[j].expect("perfect matching");
                mask[i][j] = comp[i] == comp[i2];
            }
        }
    }
    Some(mask)
}

/// The **total-support core**: the input with every entry *not* on a positive
/// diagonal zeroed out. This is exactly the support pattern of the Sinkhorn–Knopp
/// iteration's matrix limit — entries off every positive diagonal decay to zero in
/// the limit (this is how the paper's Fig. 4 matrices A, B, D "converge to the
/// standard form of C"). Returns `None` when the matrix has no support (no limit
/// exists; the iterates oscillate).
///
/// Rectangular matrices are handled through the Appendix-A tiling when
/// `T·M ≤ 2048`; larger shapes return `None` (undecided).
pub fn total_support_core(m: &Matrix) -> Option<Matrix> {
    if m.is_square() {
        let mask = diagonal_support_mask(m)?;
        return Some(Matrix::from_fn(m.rows(), m.cols(), |i, j| {
            if mask[i][j] {
                m[(i, j)]
            } else {
                0.0
            }
        }));
    }
    let (t, cols) = m.shape();
    if t * cols > 2048 {
        return None;
    }
    let tiled = tile(m, cols, t);
    let mask = diagonal_support_mask(&tiled)?;
    // Block (0, 0) of the tiling is the matrix itself; by the symmetry of the
    // tiling all copies of an entry are equivalent, so one copy decides.
    Some(Matrix::from_fn(t, cols, |i, j| {
        if mask[i][j] {
            m[(i, j)]
        } else {
            0.0
        }
    }))
}

/// Fine block decomposition of a square matrix **with total support**: partitions
/// the rows and columns into the fully indecomposable diagonal blocks that a
/// simultaneous row/column permutation exposes (the fine Dulmage–Mendelsohn
/// structure of the core).
///
/// Each returned block is a `(rows, cols)` pair of original indices; the blocks
/// are exactly the strongly connected components of the matching-contracted
/// digraph. A matrix is fully indecomposable iff this returns a single block
/// (for `n ≥ 2` with total support). Balancing acts independently on each block,
/// which is why decomposable-but-total-support matrices (e.g. block diagonals)
/// still balance.
///
/// Returns `None` when the matrix has no support or lacks total support (the
/// fine decomposition is defined on the total-support core; call
/// [`total_support_core`] first).
pub fn fine_blocks(m: &Matrix) -> Option<Vec<(Vec<usize>, Vec<usize>)>> {
    if !m.is_square() {
        return None;
    }
    let n = m.rows();
    let g = pattern_graph(m);
    let matching = hopcroft_karp(&g);
    if matching.size != n {
        return None;
    }
    if !total_support_with_matching(m, &g, &matching) {
        return None;
    }
    // Contracted digraph over left vertices.
    let mut adj = vec![Vec::new(); n];
    for (i, nbrs) in g.adj.iter().enumerate() {
        for &j in nbrs {
            let i2 = matching.right_match[j].expect("perfect matching");
            if i2 != i {
                adj[i].push(i2);
            }
        }
    }
    let comp = tarjan_scc(&adj);
    let n_comp = comp.iter().copied().max().map(|c| c + 1).unwrap_or(0);
    let mut blocks: Vec<(Vec<usize>, Vec<usize>)> = vec![(Vec::new(), Vec::new()); n_comp];
    for (i, &c) in comp.iter().enumerate() {
        blocks[c].0.push(i);
        // The block's columns are the matched partners of its rows.
        blocks[c]
            .1
            .push(matching.left_match[i].expect("perfect matching"));
    }
    for b in &mut blocks {
        b.0.sort_unstable();
        b.1.sort_unstable();
    }
    blocks.sort_by(|a, b| a.0[0].cmp(&b.0[0]));
    Some(blocks)
}

/// The paper's Eq. 10 example matrix (support, no total support, not balanceable).
pub fn eq10_matrix() -> Matrix {
    Matrix::from_rows(&[&[0.0, 0.0, 1.0], &[1.0, 0.0, 1.0], &[0.0, 1.0, 0.0]])
        .expect("static shape")
}

/// The paper's Eq. 12 permutation of [`eq10_matrix`] (last column moved to the
/// front), exhibiting the Eq.-11 block-triangular form.
pub fn eq12_matrix() -> Matrix {
    eq10_matrix()
        .permute_cols(&[2, 0, 1])
        .expect("static permutation")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_matrix_fully_indecomposable() {
        let m = Matrix::filled(3, 3, 1.0);
        let r = analyze_square(&m);
        assert!(r.has_support);
        assert!(r.has_total_support);
        assert!(r.fully_indecomposable);
        assert_eq!(r.balanceability, Balanceability::Positive);
        assert_eq!(fully_indecomposable_exhaustive(&m, 10), Some(true));
    }

    #[test]
    fn identity_total_support_but_decomposable() {
        // Sec. VI: a positive diagonal matrix is decomposable yet balanceable.
        let m = Matrix::identity(3);
        let r = analyze_square(&m);
        assert!(r.has_support);
        assert!(r.has_total_support);
        assert!(!r.fully_indecomposable);
        assert!(!r.connected);
        assert_eq!(r.balanceability, Balanceability::ExactlyBalanceable);
        assert_eq!(fully_indecomposable_exhaustive(&m, 10), Some(false));
    }

    #[test]
    fn triangular_support_only() {
        let m = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]).unwrap();
        let r = analyze_square(&m);
        assert!(r.has_support);
        assert!(!r.has_total_support, "a21 is on no positive diagonal");
        assert!(!r.fully_indecomposable);
        assert_eq!(r.balanceability, Balanceability::LimitOnly);
    }

    #[test]
    fn eq10_structure_matches_paper() {
        let m = eq10_matrix();
        // Row sums 1, 2, 1; col sums 1, 1, 2 as the paper states.
        assert_eq!(m.row_sums(), vec![1.0, 2.0, 1.0]);
        assert_eq!(m.col_sums(), vec![1.0, 1.0, 2.0]);
        let r = analyze_square(&m);
        assert!(r.has_support);
        assert!(!r.has_total_support);
        assert!(!r.fully_indecomposable);
        assert_eq!(r.balanceability, Balanceability::LimitOnly);
        assert_eq!(fully_indecomposable_exhaustive(&m, 10), Some(false));
    }

    #[test]
    fn eq12_is_block_triangular_form_of_eq10() {
        let m = eq12_matrix();
        // Block lower-triangular: upper-right 1×2 block must be zero.
        assert_eq!(m[(0, 1)], 0.0);
        assert_eq!(m[(0, 2)], 0.0);
        assert!(m[(0, 0)] > 0.0);
        // Same structural verdict as Eq. 10 (permutations preserve it).
        let r = analyze_square(&m);
        assert!(!r.has_total_support);
    }

    #[test]
    fn no_support_pattern() {
        // Two rows with positive entries only in one shared column.
        let m = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0]]).unwrap();
        let r = analyze_square(&m);
        assert!(!r.has_support);
        assert_eq!(r.balanceability, Balanceability::NotBalanceable);
        assert_eq!(r.matching_size, 1);
    }

    #[test]
    fn derangement_complement_fully_indecomposable() {
        // Complement of I₃: fully indecomposable.
        let m = Matrix::from_fn(3, 3, |i, j| if i == j { 0.0 } else { 1.0 });
        let r = analyze_square(&m);
        assert!(r.has_total_support);
        assert!(r.fully_indecomposable);
        assert_eq!(fully_indecomposable_exhaustive(&m, 10), Some(true));
    }

    #[test]
    fn exhaustive_agrees_with_fast_path_on_small_patterns() {
        // Cross-validate the Brualdi characterization against brute force over all
        // 3×3 0/1 patterns with no zero row/column.
        for bits in 0u32..(1 << 9) {
            let m = Matrix::from_fn(3, 3, |i, j| ((bits >> (i * 3 + j)) & 1) as f64);
            if m.row_sums().contains(&0.0) || m.col_sums().contains(&0.0) {
                continue;
            }
            let fast = analyze_square(&m).fully_indecomposable;
            let slow = fully_indecomposable_exhaustive(&m, 10).unwrap();
            assert_eq!(fast, slow, "pattern disagreement:\n{m:?}");
        }
    }

    #[test]
    fn one_by_one() {
        let r = analyze_square(&Matrix::from_rows(&[&[5.0]]).unwrap());
        assert!(r.fully_indecomposable);
        assert!(r.has_total_support);
        let z = analyze_square(&Matrix::from_rows(&[&[0.0]]).unwrap());
        assert!(!z.has_support);
    }

    #[test]
    fn rectangular_positive() {
        let m = Matrix::filled(2, 3, 1.0);
        let r = analyze_structure(&m);
        assert_eq!(r.balanceability, Balanceability::Positive);
        assert_eq!(r.shape, (2, 3));
        assert_eq!(r.matching_size, 2);
    }

    #[test]
    fn rectangular_with_benign_zero() {
        // One zero in a 2×3 positive matrix: still exactly balanceable.
        let mut m = Matrix::filled(2, 3, 1.0);
        m[(0, 0)] = 0.0;
        let r = analyze_structure(&m);
        assert!(matches!(
            r.balanceability,
            Balanceability::ExactlyBalanceable
        ));
    }

    #[test]
    fn rectangular_blocking_zero_pattern() {
        // Row 0 positive only in column 0, and column 0 positive only in row 0 —
        // with equal target marginals (rows √(3/2)... cols √(2/3)) the single
        // entry must carry a full row AND a full column sum: impossible unless
        // the scalars happen to match; pattern-wise this tiles to a
        // support-deficient square. Verify it is not exactly balanceable.
        let m = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 1.0]]).unwrap();
        let r = analyze_structure(&m);
        // Row target √(M/T) = √1.5, col target √(2/3): entry (0,0) must equal
        // both √1.5 and √(2/3) — impossible. The tiled analysis must flag it.
        assert_ne!(r.balanceability, Balanceability::ExactlyBalanceable);
    }

    #[test]
    fn dm_decomposition_perfect_matching_all_core() {
        let m = Matrix::identity(3);
        let dm = dm_coarse(&m);
        assert_eq!(dm.core_rows.len(), 3);
        assert_eq!(dm.core_cols.len(), 3);
        assert!(dm.horizontal_rows.is_empty());
        assert!(dm.vertical_cols.is_empty());
    }

    #[test]
    fn dm_decomposition_deficient() {
        // Rows 0 and 1 compete for column 0 only.
        let m = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0]]).unwrap();
        let dm = dm_coarse(&m);
        // One row is unmatched; both rows and column 0 are in the horizontal part.
        assert_eq!(dm.horizontal_rows, vec![0, 1]);
        assert_eq!(dm.horizontal_cols, vec![0]);
        // Column 1 is unmatched → vertical part.
        assert_eq!(dm.vertical_cols, vec![1]);
        assert!(dm.core_rows.is_empty());
    }

    #[test]
    fn fine_blocks_identity() {
        let blocks = fine_blocks(&Matrix::identity(3)).unwrap();
        assert_eq!(blocks.len(), 3);
        for (k, (r, c)) in blocks.iter().enumerate() {
            assert_eq!(r, &vec![k]);
            assert_eq!(c, &vec![k]);
        }
    }

    #[test]
    fn fine_blocks_fully_indecomposable_is_single() {
        let m = Matrix::from_fn(4, 4, |i, j| if i == j { 0.0 } else { 1.0 });
        let blocks = fine_blocks(&m).unwrap();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].0, vec![0, 1, 2, 3]);
        assert_eq!(blocks[0].1, vec![0, 1, 2, 3]);
    }

    #[test]
    fn fine_blocks_block_diagonal() {
        // Two dense blocks {0,1}x{0,1} and {2,3,4}x{2,3,4}.
        let m = Matrix::from_fn(5, 5, |i, j| {
            let same = (i < 2) == (j < 2);
            if same {
                1.0 + (i + j) as f64
            } else {
                0.0
            }
        });
        let blocks = fine_blocks(&m).unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].0, vec![0, 1]);
        assert_eq!(blocks[0].1, vec![0, 1]);
        assert_eq!(blocks[1].0, vec![2, 3, 4]);
        assert_eq!(blocks[1].1, vec![2, 3, 4]);
    }

    #[test]
    fn fine_blocks_permuted_block_diagonal() {
        // Same two blocks but with columns permuted: block columns follow the
        // matching, not the identity.
        let base = Matrix::from_fn(4, 4, |i, j| if (i < 2) == (j < 2) { 1.0 } else { 0.0 });
        let m = base.permute_cols(&[2, 0, 3, 1]).unwrap();
        let blocks = fine_blocks(&m).unwrap();
        assert_eq!(blocks.len(), 2);
        // Rows {0,1} pair with the columns now holding the first block.
        let b0 = &blocks[0];
        assert_eq!(b0.0, vec![0, 1]);
        assert_eq!(b0.1, vec![1, 3]);
    }

    #[test]
    fn fine_blocks_consistency_with_full_indecomposability() {
        // Cross-check over all small total-support patterns.
        for bits in 0u32..(1 << 9) {
            let m = Matrix::from_fn(3, 3, |i, j| ((bits >> (i * 3 + j)) & 1) as f64);
            let rep = analyze_square(&m);
            match fine_blocks(&m) {
                None => assert!(!rep.has_total_support),
                Some(blocks) => {
                    assert!(rep.has_total_support);
                    assert_eq!(
                        blocks.len() == 1,
                        rep.fully_indecomposable,
                        "pattern:\n{m:?}"
                    );
                    // Blocks partition rows and columns.
                    let rows: usize = blocks.iter().map(|b| b.0.len()).sum();
                    let cols: usize = blocks.iter().map(|b| b.1.len()).sum();
                    assert_eq!(rows, 3);
                    assert_eq!(cols, 3);
                }
            }
        }
    }

    #[test]
    fn fine_blocks_rejects_non_total_support() {
        assert!(fine_blocks(&eq10_matrix()).is_none());
        assert!(fine_blocks(&Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]).unwrap()).is_none());
        assert!(fine_blocks(&Matrix::zeros(2, 3)).is_none());
    }

    #[test]
    fn core_of_triangular_is_diagonal() {
        let m = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, 3.0]]).unwrap();
        let core = total_support_core(&m).unwrap();
        assert_eq!(core[(0, 0)], 1.0);
        assert_eq!(
            core[(1, 0)],
            0.0,
            "off-diagonal entry is on no positive diagonal"
        );
        assert_eq!(core[(1, 1)], 3.0);
    }

    #[test]
    fn core_of_eq10_is_permutation_pattern() {
        let core = total_support_core(&eq10_matrix()).unwrap();
        // The (1, 2) entry (row 2, col 3 in paper numbering) is the one not on any
        // positive diagonal.
        assert_eq!(core[(1, 2)], 0.0);
        assert_eq!(core[(0, 2)], 1.0);
        assert_eq!(core[(1, 0)], 1.0);
        assert_eq!(core[(2, 1)], 1.0);
        // The core has total support by construction.
        let rep = analyze_square(&core);
        assert!(rep.has_total_support);
    }

    #[test]
    fn core_of_total_support_matrix_is_itself() {
        let m = Matrix::from_fn(3, 3, |i, j| if i == j { 0.0 } else { 1.0 });
        let core = total_support_core(&m).unwrap();
        assert_eq!(core, m);
    }

    #[test]
    fn core_none_without_support() {
        let m = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0]]).unwrap();
        assert!(total_support_core(&m).is_none());
    }

    #[test]
    fn core_rectangular() {
        // 2×3 with a blocking zero pattern: row 0 only reaches column 0 and
        // column 0 only reached by row 0 — that entry must be zeroed in the core
        // (tiled pattern has no support), so the core is undefined/None here.
        let m = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 1.0]]).unwrap();
        assert!(total_support_core(&m).is_none());
        // A benign rectangular zero keeps everything else.
        let b = Matrix::from_rows(&[&[0.0, 1.0, 1.0], &[1.0, 1.0, 1.0]]).unwrap();
        let core = total_support_core(&b).unwrap();
        assert_eq!(core, b);
    }

    #[test]
    fn tile_layout() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let t = tile(&a, 2, 2);
        assert_eq!(t.shape(), (2, 4));
        assert_eq!(t[(1, 3)], 2.0);
        assert_eq!(t[(0, 2)], 1.0);
    }
}
