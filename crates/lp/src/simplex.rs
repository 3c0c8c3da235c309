//! Two-phase revised simplex solver, with warm re-solves.
//!
//! Standard-form reduction: every constraint is normalized to a
//! non-negative right-hand side; `≤` rows get a slack column, `≥` rows a
//! surplus plus an artificial column, `=` rows an artificial column. The
//! program is lowered straight to sparse columns — repeated terms summed,
//! each row equilibrated by its largest coefficient — and the solver keeps
//! the basis inverse `B⁻¹` (`m × m`, row-major) next to them: a pivot row
//! is `(row r of B⁻¹)·A_j` over the sparse columns, a pivot column is
//! `B⁻¹·A_q`, and a pivot is a rank-1 update of `B⁻¹` over the rows the
//! pivot column touches, with the reduced costs updated from the pivot
//! row — `O(m · |support|)` per pivot, and no dense `m × (n + m)` copy of
//! the program.
//!
//! Phase 1 starts from the slack/artificial basis (`B⁻¹ = I`), minimizes
//! the sum of artificials with every column allowed to enter, and drives
//! any artificial left basic at zero out of the basis; phase 2 prices the
//! real objective with `y = c_B·B⁻¹` and optimizes over the non-artificial
//! columns. Pivoting uses Dantzig's rule and falls back to Bland's rule
//! after an iteration budget to guarantee termination on degenerate
//! problems.
//!
//! # Warm re-solves
//!
//! [`LinearProgram::solve_warm`] keeps the *solved* program between calls
//! in a [`Retained`]: the state the solve ended in — the optimal basis,
//! `B⁻¹`, the basic solution `b̄`, the reduced costs, per row the sign ×
//! equilibration factor its right-hand side was scaled by, and the sparse
//! columns. When the next program differs from the retained one **only in
//! right-hand sides** — objective, relations and sparse terms compared
//! exactly, entry by entry — the new basic solution is
//! `b̄ = B⁻¹·(factor ∘ rhs′)`, an `O(m²)` product. The old basis is still
//! dual-feasible (reduced costs do not depend on the rhs), so a
//! **dual-simplex repair** pivots primal feasibility back in a handful of
//! pivots and the primal simplex finishes from there, with the pivots and
//! selection rules of the cold solve.
//!
//! Everything else goes to the cold two-phase path and replaces the
//! retained state: a term, relation, objective or rhs-sign mismatch, a
//! repair that stalls, an artificial left basic at a nonzero value, or a
//! warm result that fails the residual check against the original sparse
//! rows (pivot roundoff accumulates in a `B⁻¹` that is never
//! refactorized; the check is what bounds it). The Bland's-rule fallbacks
//! inside the repair and the re-optimization double as their
//! anti-cycling guards.

use std::fmt;

use crate::model::{LinearProgram, Relation, VarId};

/// Numeric tolerance for pivoting and feasibility decisions.
const EPS: f64 = 1e-9;

/// Error returned by [`LinearProgram::solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// No point satisfies all constraints.
    Infeasible,
    /// The objective can be decreased without bound.
    Unbounded,
    /// The pivot-iteration budget was exhausted (numerical trouble).
    IterationLimit,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SolveError::Infeasible => "linear program is infeasible",
            SolveError::Unbounded => "linear program is unbounded",
            SolveError::IterationLimit => "simplex iteration limit exceeded",
        })
    }
}

impl std::error::Error for SolveError {}

/// An optimal solution of a [`LinearProgram`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The minimal objective value.
    pub objective: f64,
    /// Optimal values of the original variables, indexed by `VarId`.
    pub values: Vec<f64>,
    /// Pivot iterations spent across both phases.
    pub iterations: u64,
}

impl Solution {
    /// Value of one variable.
    pub fn value(&self, v: crate::model::VarId) -> f64 {
        self.values[v.index()]
    }
}

/// A solved program kept for the next [`LinearProgram::solve_warm`]: the
/// optimal basis, its inverse and the basic solution and reduced costs
/// over it, plus what is needed to re-enter it with new right-hand sides
/// (see the module docs), and the program's objective, relations and
/// sparse terms, which the next program must equal exactly for the basis
/// to be reused. The dense `B⁻¹` dominates its size: `constraints²`
/// doubles.
#[derive(Clone)]
pub struct Retained {
    /// `basis[r]`: the column basic in row `r`. Columns from `first_art`
    /// on are artificial.
    basis: Vec<usize>,
    /// `B⁻¹`, row-major `m × m`.
    binv: Vec<f64>,
    /// The basic solution `b̄`, per row.
    b: Vec<f64>,
    /// Reduced costs of the columns allowed to enter: every column in
    /// phase 1, the non-artificial ones from phase 2 on.
    reduced: Vec<f64>,
    /// Negative of the objective value.
    obj: f64,
    /// Per row, what the lowering multiplied the right-hand side by: −1
    /// for a row normalized from a negative rhs, times the equilibration
    /// factor.
    factor: Vec<f64>,
    /// Every column of the lowered program: structural, slack/surplus,
    /// then artificial.
    columns: Columns,
    /// The first artificial column.
    first_art: usize,
    /// Pivot budget of one solve (numerical trouble shows as exhaustion).
    budget: u64,
    /// The objective, as given.
    objective: Vec<f64>,
    /// Terms and relation of every constraint, as given.
    rows: Vec<(Vec<(VarId, f64)>, Relation)>,
}

impl fmt::Debug for Retained {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Retained")
            .field("rows", &self.b.len())
            .field("cols", &self.first_art)
            .finish_non_exhaustive()
    }
}

impl Retained {
    /// Lowers `lp` to standard form on its slack/artificial basis, where
    /// `B⁻¹ = I`: rows normalized to a non-negative rhs, repeated terms
    /// summed, and each row equilibrated by its largest |coefficient| so
    /// that badly scaled models (traffic volumes in the millions next to
    /// unit capacities) pivot stably. Column layout:
    /// `[structural 0..n | slack/surplus | artificial]`.
    fn lower(lp: &LinearProgram) -> Self {
        let (n, m) = (lp.num_vars(), lp.num_constraints());
        let first_art = n + lp
            .constraints
            .iter()
            .filter(|con| con.relation != Relation::Eq)
            .count();
        let (mut next_slack, mut next_art) = (n, first_art);
        let mut basis = Vec::with_capacity(m);
        let mut b = Vec::with_capacity(m);
        let mut factor = Vec::with_capacity(m);
        // (column, row, value), in row order.
        let mut entries: Vec<(usize, u32, f64)> = Vec::new();
        let mut acc = vec![0.0; n];
        let mut touched = vec![false; n];
        let mut support = Vec::new();
        for (i, con) in lp.constraints.iter().enumerate() {
            let row = i as u32;
            let sign = if con.rhs < 0.0 { -1.0 } else { 1.0 };
            for &(v, coef) in &con.terms {
                let j = v.index();
                acc[j] += sign * coef;
                if !touched[j] {
                    touched[j] = true;
                    support.push(j);
                }
            }
            let (mut rhs, mut f) = (sign * con.rhs, sign);
            let row_max = support.iter().map(|&j| acc[j].abs()).fold(0.0f64, f64::max);
            if row_max > EPS && !(1e-4..=1e4).contains(&row_max) {
                let inv = 1.0 / row_max;
                for &j in &support {
                    acc[j] *= inv;
                }
                rhs *= inv;
                f *= inv;
            }
            for &j in &support {
                if acc[j] != 0.0 {
                    entries.push((j, row, acc[j]));
                }
                acc[j] = 0.0;
                touched[j] = false;
            }
            support.clear();
            // Normalizing by sign swaps `≤` and `≥`.
            let relation = match con.relation {
                Relation::Le if sign < 0.0 => Relation::Ge,
                Relation::Ge if sign < 0.0 => Relation::Le,
                r => r,
            };
            if relation != Relation::Eq {
                let unit = if relation == Relation::Le { 1.0 } else { -1.0 };
                entries.push((next_slack, row, unit));
                next_slack += 1;
            }
            if relation == Relation::Le {
                basis.push(next_slack - 1);
            } else {
                entries.push((next_art, row, 1.0));
                basis.push(next_art);
                next_art += 1;
            }
            b.push(rhs);
            factor.push(f);
        }
        let cols = next_art;
        let mut binv = vec![0.0; m * m];
        for r in 0..m {
            binv[r * m + r] = 1.0;
        }
        Retained {
            basis,
            binv,
            b,
            reduced: Vec::new(),
            obj: 0.0,
            factor,
            columns: Columns::new(cols, &entries),
            first_art,
            budget: 200 * (m as u64 + cols as u64) + 20_000,
            objective: lp.objective.clone(),
            rows: lp
                .constraints
                .iter()
                .map(|con| (con.terms.clone(), con.relation))
                .collect(),
        }
    }

    /// `true` when `lp` differs from the retained program in right-hand
    /// sides only, none of which changed sign (the sign decides a row's
    /// normalized relation, hence its slack and artificial columns).
    fn matches(&self, lp: &LinearProgram) -> bool {
        self.objective == lp.objective
            && self.rows.len() == lp.constraints.len()
            && self
                .rows
                .iter()
                .zip(&lp.constraints)
                .zip(&self.factor)
                .all(|(((terms, rel), con), &f)| {
                    *rel == con.relation && (con.rhs < 0.0) == (f < 0.0) && *terms == con.terms
                })
    }

    /// Re-enters the basis with the right-hand sides of `lp` (which
    /// [`Retained::matches`]): `b̄ = B⁻¹·(factor ∘ rhs)`, and the objective
    /// value of that basic solution. The reduced costs are untouched —
    /// they do not depend on the rhs. Returns `false` when an artificial
    /// would be basic at a nonzero value, i.e. the retained basis does not
    /// describe a solution of the real program.
    fn reenter(&mut self, lp: &LinearProgram) -> bool {
        let (m, n, first_art) = (self.b.len(), lp.num_vars(), self.first_art);
        // Most rows of the enforcement LPs (conservation, capacity) have a
        // zero rhs; only the others contribute.
        let scaled: Vec<(usize, f64)> = lp
            .constraints
            .iter()
            .zip(&self.factor)
            .enumerate()
            .filter(|(_, (con, _))| con.rhs != 0.0)
            .map(|(k, (con, &f))| (k, con.rhs * f))
            .collect();
        // Four rows at a time, with independent accumulators: one
        // dependent add chain per row would leave the loop waiting on
        // latency. Each row still sums its terms in order from the value
        // `Iterator::sum` starts from, so b̄ is bit for bit a per-row sum.
        let zero: f64 = std::iter::empty::<f64>().sum();
        let quads = m / 4 * 4;
        for r in (0..quads).step_by(4) {
            let rows: [&[f64]; 4] =
                std::array::from_fn(|l| &self.binv[(r + l) * m..(r + l + 1) * m]);
            let mut acc = [zero; 4];
            for &(k, v) in &scaled {
                for (a, row) in acc.iter_mut().zip(rows) {
                    *a += row[k] * v;
                }
            }
            self.b[r..r + 4].copy_from_slice(&acc);
        }
        for r in quads..m {
            let row = &self.binv[r * m..(r + 1) * m];
            self.b[r] = scaled.iter().map(|&(k, v)| row[k] * v).sum();
        }
        self.obj = 0.0;
        for r in 0..m {
            let mut b = self.b[r];
            let bc = self.basis[r];
            // An artificial may only stay basic at (numerical) zero.
            // Negative values are fine here: the dual-simplex repair
            // restores primal feasibility.
            if bc >= first_art && b.abs() > WARM_TOL {
                return false;
            }
            if b < 0.0 && b > -WARM_TOL {
                b = 0.0;
            }
            self.b[r] = b;
            if bc < n {
                self.obj -= lp.objective[bc] * b;
            }
        }
        true
    }
}

/// Result of [`LinearProgram::solve_warm`]: the solution and whether it
/// came from the retained basis or from a cold two-phase solve.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmSolve {
    /// The optimal solution.
    pub solution: Solution,
    /// `true` when the retained basis was re-entered and phase 1 was
    /// skipped (including when a dual-simplex repair was needed first);
    /// `false` on a cold solve (nothing retained, a program that differs
    /// in more than right-hand sides, a repair that stalled, or a warm
    /// result that failed the residual check).
    pub warm_used: bool,
}

/// The primal entering column over `reduced` costs: the most negative
/// one below `-EPS` (Dantzig's rule), or under `bland` the first one.
/// `None` when the basis is optimal.
fn entering(reduced: &[f64], bland: bool) -> Option<usize> {
    if bland {
        return reduced.iter().position(|&c| c < -EPS);
    }
    let mut enter = None;
    let mut best = -EPS;
    for (c, &v) in reduced.iter().enumerate() {
        if v < best {
            best = v;
            enter = Some(c);
        }
    }
    enter
}

/// The primal leaving row for an entering column whose entry in row `r`
/// is `column(r)`: the minimal ratio `b[r] / column(r)` over entries above
/// `EPS`, ties broken by the lower basic column (Bland). `None` when the
/// column is unbounded.
fn leaving(b: &[f64], basis: &[usize], column: impl Fn(usize) -> f64) -> Option<usize> {
    let mut leave: Option<(f64, usize, usize)> = None; // (ratio, basis col, row)
    for (r, (&br, &bc)) in b.iter().zip(basis).enumerate() {
        let arc = column(r);
        if arc > EPS {
            let key = (br / arc, bc);
            if leave.is_none_or(|(lr, lb, _)| key < (lr, lb)) {
                leave = Some((key.0, bc, r));
            }
        }
    }
    leave.map(|(_, _, r)| r)
}

/// The columns of a lowered program in compressed sparse column form:
/// column `j`'s `(row, value)` entries, by row, are
/// `entries[start[j]..start[j + 1]]`.
#[derive(Clone)]
struct Columns {
    start: Vec<u32>,
    entries: Vec<(u32, f64)>,
}

impl Columns {
    /// `cols` columns from `(column, row, value)` triples listed in row
    /// order.
    fn new(cols: usize, triples: &[(usize, u32, f64)]) -> Self {
        let mut start = vec![0u32; cols + 1];
        for &(j, _, _) in triples {
            start[j + 1] += 1;
        }
        for j in 0..cols {
            start[j + 1] += start[j];
        }
        let mut next = start.clone();
        let mut entries = vec![(0u32, 0.0); triples.len()];
        for &(j, r, v) in triples {
            entries[next[j] as usize] = (r, v);
            next[j] += 1;
        }
        Columns { start, entries }
    }

    fn len(&self) -> usize {
        self.start.len() - 1
    }

    fn get(&self, j: usize) -> &[(u32, f64)] {
        &self.entries[self.start[j] as usize..self.start[j + 1] as usize]
    }
}

/// One row of `B⁻¹` (or the pricing vector `y`) times one sparse column.
/// The pivot row and the pivot column both go through here, so their
/// shared pivot element is the same number.
fn dot(binv_row: &[f64], column: &[(u32, f64)]) -> f64 {
    column.iter().map(|&(k, a)| binv_row[k as usize] * a).sum()
}

/// One solve in progress: the state it works on (and leaves behind) and
/// the scratch the revised pivots work in.
struct Revised<'a> {
    s: &'a mut Retained,
    /// Per column, whether it is basic.
    basic: Vec<bool>,
    /// The pivot row `(row r of B⁻¹)·A_j` over the columns allowed to
    /// enter, zero on basic ones.
    alpha_r: Vec<f64>,
    /// The pivot column `B⁻¹·A_q`.
    alpha_q: Vec<f64>,
    /// Scratch copy of the scaled pivot row of `B⁻¹`, and its nonzero
    /// support.
    prow: Vec<f64>,
    nz: Vec<u32>,
}

impl<'a> Revised<'a> {
    fn new(s: &'a mut Retained) -> Self {
        let (m, cols) = (s.b.len(), s.columns.len());
        let mut basic = vec![false; cols];
        for &bc in &s.basis {
            basic[bc] = true;
        }
        Revised {
            s,
            basic,
            alpha_r: vec![0.0; cols],
            alpha_q: vec![0.0; m],
            prow: Vec::with_capacity(m),
            nz: Vec::with_capacity(m),
        }
    }

    /// Fills `alpha_r` with row `r` of `B⁻¹·A` over the columns allowed to
    /// enter (basic columns: 0).
    fn pivot_row(&mut self, r: usize) {
        let m = self.s.b.len();
        let row = &self.s.binv[r * m..(r + 1) * m];
        let allowed = self.s.reduced.len();
        for (j, a) in self.alpha_r[..allowed].iter_mut().enumerate() {
            *a = if self.basic[j] {
                0.0
            } else {
                dot(row, self.s.columns.get(j))
            };
        }
    }

    /// Fills `alpha_q` with `B⁻¹·A_q`.
    fn pivot_column(&mut self, q: usize) {
        let m = self.s.b.len();
        let column = self.s.columns.get(q);
        for (r, a) in self.alpha_q.iter_mut().enumerate() {
            *a = dot(&self.s.binv[r * m..(r + 1) * m], column);
        }
    }

    /// Brings column `pc` into the basis at row `pr`, with `alpha_r` and
    /// `alpha_q` filled for that row and column: the rank-1 update of
    /// `B⁻¹` and `b̄` over the rows the pivot column touches, and of the
    /// reduced costs and the objective.
    fn pivot(&mut self, pr: usize, pc: usize) {
        let s = &mut *self.s;
        let m = s.b.len();
        let piv = self.alpha_q[pr];
        debug_assert!(piv.abs() > EPS, "pivot too small");
        let inv = 1.0 / piv;
        let row = &mut s.binv[pr * m..(pr + 1) * m];
        for v in row.iter_mut() {
            *v *= inv;
        }
        s.b[pr] *= inv;
        // Snapshot the scaled pivot row and its nonzero support. `B⁻¹`
        // stays sparse for many pivots, so restricting every row update
        // to the support — `x -= f * 0.0` can only flip the sign of a
        // zero, which no later comparison or output observes — cuts the
        // update by the row's sparsity factor.
        self.prow.clear();
        self.prow.extend_from_slice(row);
        self.nz.clear();
        for (k, &v) in self.prow.iter().enumerate() {
            if v != 0.0 {
                self.nz.push(k as u32);
            }
        }
        for (r, &f) in self.alpha_q.iter().enumerate() {
            if r == pr || f.abs() <= EPS {
                continue;
            }
            let row = &mut s.binv[r * m..(r + 1) * m];
            for &k in &self.nz {
                let k = k as usize;
                row[k] -= f * self.prow[k];
            }
            s.b[r] -= f * s.b[pr];
        }
        let leaving = s.basis[pr];
        let cf = s.reduced[pc];
        if cf.abs() > EPS {
            for (d, &a) in s.reduced.iter_mut().zip(&self.alpha_r) {
                if a != 0.0 {
                    *d -= cf * (a * inv);
                }
            }
            // The leaving column's pivot-row entry is 1 (it was basic in
            // row `pr`); `alpha_r` holds 0 for it as for every basic one.
            if leaving < s.reduced.len() {
                s.reduced[leaving] -= cf * inv;
            }
            s.reduced[pc] = 0.0;
            s.obj -= cf * s.b[pr];
        }
        self.basic[leaving] = false;
        self.basic[pc] = true;
        s.basis[pr] = pc;
    }

    /// The cold solve of a freshly lowered program. Phase 1 minimizes the
    /// sum of artificials from the slack/artificial basis, then drives any
    /// leftover (degenerate) artificial out of the basis; phase 2 prices
    /// the real objective over the basis reached and optimizes with the
    /// artificial columns excluded from entering.
    fn two_phase(&mut self, budget: &mut u64) -> Result<(), SolveError> {
        let (m, first_art) = (self.s.b.len(), self.s.first_art);
        if first_art < self.s.columns.len() {
            let s = &mut *self.s;
            // With `B⁻¹ = I`, pricing the artificial basis out subtracts
            // every row an artificial is basic in.
            let (basis, columns) = (&s.basis, &s.columns);
            s.reduced = (0..columns.len())
                .map(|j| {
                    let cost = if j >= first_art { 1.0 } else { 0.0 };
                    columns
                        .get(j)
                        .iter()
                        .filter(|&&(r, _)| basis[r as usize] >= first_art)
                        .fold(cost, |d, &(_, a)| d - a)
                })
                .collect();
            s.obj =
                s.b.iter()
                    .zip(basis)
                    .filter(|&(_, &bc)| bc >= first_art)
                    .fold(0.0, |obj, (&b, _)| obj - b);
            self.optimize(budget)?;
            if -self.s.obj > 1e-6 {
                return Err(SolveError::Infeasible);
            }
            // Phase 2 reprices every column, so the artificials' phase-1
            // costs go now. A row whose artificial finds no pivot is
            // redundant: harmless, the artificial stays at value 0 and can
            // never re-enter.
            self.s.reduced.truncate(first_art);
            for r in 0..m {
                if self.s.basis[r] >= first_art {
                    self.pivot_row(r);
                    if let Some(c) = self.alpha_r[..first_art].iter().position(|a| a.abs() > EPS) {
                        self.pivot_column(c);
                        self.pivot(r, c);
                    }
                }
            }
        }
        let s = &mut *self.s;
        let n = s.objective.len();
        let cost = |j: usize| if j < n { s.objective[j] } else { 0.0 };
        let mut y = vec![0.0; m];
        s.obj = 0.0;
        for (r, &bc) in s.basis.iter().enumerate() {
            let cf = cost(bc);
            if cf.abs() > EPS {
                for (yk, &v) in y.iter_mut().zip(&s.binv[r * m..(r + 1) * m]) {
                    *yk += cf * v;
                }
                s.obj -= cf * s.b[r];
            }
        }
        s.reduced = (0..first_art)
            .map(|j| {
                if self.basic[j] {
                    0.0
                } else {
                    cost(j) - dot(&y, s.columns.get(j))
                }
            })
            .collect();
        self.optimize(budget)
    }

    /// Dual-simplex repair after an rhs re-entry: the traffic perturbation
    /// may have driven some right-hand sides negative under the retained
    /// basis (primal infeasible), but the basis is still dual-feasible —
    /// exactly the regime dual pivots handle. Repeatedly drop the most
    /// negative row out of the basis, entering the column with the
    /// smallest reduced-cost ratio, until the rhs is non-negative.
    ///
    /// Returns `false` (caller falls back to a cold solve) when a negative
    /// row has no eligible pivot (primal infeasible under this basis),
    /// when the pivot cap is exhausted (cycling / numerical trouble), or
    /// when the repair would leave an artificial basic at a nonzero value.
    fn dual_repair(&mut self, budget: &mut u64) -> bool {
        let (m, first_art) = (self.s.b.len(), self.s.first_art);
        let cap = 8 * m as u64 + 512;
        let bland_after = 4 * m as u64 + 64;
        let mut spent = 0u64;
        loop {
            // Leaving row: most negative rhs.
            let mut pr = usize::MAX;
            let mut most = -EPS;
            for (r, &b) in self.s.b.iter().enumerate() {
                if b < most {
                    most = b;
                    pr = r;
                }
            }
            if pr == usize::MAX {
                // Feasible. Reject if an artificial ended up basic at a
                // nonzero value; clamp numerical dust.
                for (b, &bc) in self.s.b.iter_mut().zip(&self.s.basis) {
                    if bc >= first_art && *b > WARM_TOL {
                        return false;
                    }
                    if *b < 0.0 {
                        *b = 0.0;
                    }
                }
                return true;
            }
            if spent >= cap || *budget == 0 {
                return false;
            }
            // Entering column: smallest ratio of reduced cost to |pivot|
            // among strictly negative pivot elements (artificials
            // excluded); after the anti-cycling threshold, first eligible
            // column wins (Bland). Roundoff can leave slightly negative
            // reduced costs; clamping them to zero in the ratio keeps the
            // rule well-defined and the primal pass restores optimality
            // afterwards.
            self.pivot_row(pr);
            let mut pc = usize::MAX;
            let mut best = f64::INFINITY;
            let mut best_mag = 0.0f64;
            for (j, (&cj, &a)) in self.s.reduced.iter().zip(&self.alpha_r).enumerate() {
                if a < -WARM_TOL {
                    if spent > bland_after {
                        pc = j;
                        break;
                    }
                    let ratio = cj.max(0.0) / -a;
                    if ratio < best - EPS || (ratio < best + EPS && -a > best_mag) {
                        best = ratio;
                        best_mag = -a;
                        pc = j;
                    }
                }
            }
            if pc == usize::MAX {
                return false; // no pivot: infeasible under this basis
            }
            self.pivot_column(pc);
            self.pivot(pr, pc);
            *budget -= 1;
            spent += 1;
        }
    }

    /// Primal simplex over the columns allowed to enter until optimal,
    /// switching to Bland's rule after a degeneracy-scaled threshold.
    fn optimize(&mut self, budget: &mut u64) -> Result<(), SolveError> {
        let (m, allowed) = (self.s.b.len(), self.s.reduced.len());
        let bland_after = 4 * (m as u64 + allowed as u64) + 64;
        let mut iters_here: u64 = 0;
        loop {
            if *budget == 0 {
                return Err(SolveError::IterationLimit);
            }
            let Some(pc) = entering(&self.s.reduced, iters_here > bland_after) else {
                return Ok(()); // optimal
            };
            self.pivot_column(pc);
            let Some(pr) = leaving(&self.s.b, &self.s.basis, |r| self.alpha_q[r]) else {
                return Err(SolveError::Unbounded);
            };
            self.pivot_row(pr);
            self.pivot(pr, pc);
            *budget -= 1;
            iters_here += 1;
        }
    }
}

/// Tolerance for re-entered right-hand sides — looser than `EPS` so a
/// marginal retained basis falls back to a cold solve instead of
/// amplifying roundoff.
const WARM_TOL: f64 = 1e-7;

/// Tolerance of the residual check on a warm result, relative to
/// `1 + ‖rhs‖∞`. Against the scale of the whole right-hand side, not of
/// each row: the zero-rhs conservation and capacity rows of the
/// enforcement LPs carry the same 10⁴–10⁵ volumes as the rows that
/// introduce them, and `B⁻¹·rhs` leaves them with roundoff of that scale.
const RESIDUAL_TOL: f64 = 1e-10;

/// Whether `x` satisfies every original sparse row of `lp` within
/// [`RESIDUAL_TOL`]. Run on every warm result: a retained `B⁻¹` is
/// updated for as long as the program keeps matching and never
/// refactorized, so this is what notices accumulated roundoff (and sends
/// the solve to the cold path, which starts over from `B⁻¹ = I`).
fn residual_ok(lp: &LinearProgram, x: &[f64]) -> bool {
    let rhs_norm = lp.constraints.iter().map(|c| c.rhs.abs()).fold(0.0, f64::max);
    lp.is_feasible(x, RESIDUAL_TOL * (1.0 + rhs_norm))
}

/// Reads the solution off an optimal basis: its basic solution `b` and
/// the negated objective value `obj`.
fn extract(n: usize, basis: &[usize], b: &[f64], obj: f64, iterations: u64) -> Solution {
    let mut values = vec![0.0; n];
    for (&bc, &v) in basis.iter().zip(b) {
        if bc < n {
            values[bc] = v.max(0.0);
        }
    }
    Solution {
        objective: -obj,
        values,
        iterations,
    }
}

impl LinearProgram {
    /// Solves the program with the two-phase simplex method: the cold path
    /// of [`LinearProgram::solve_warm`] with nothing retained.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] if no feasible point exists,
    /// [`SolveError::Unbounded`] if the objective is unbounded below,
    /// [`SolveError::IterationLimit`] if the pivot budget is exhausted.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.solve_warm(&mut None).map(|w| w.solution)
    }

    /// Solves the program, re-entering the basis in `retained` when this
    /// program differs from the one solved there in right-hand sides only,
    /// and leaves this solve's final state in `retained` for the next call
    /// (`None` on error).
    ///
    /// On the warm path phase 1 and the lowering are skipped: the new
    /// basic solution is computed from the retained `B⁻¹`, a dual-simplex
    /// repair restores primal feasibility if the new right-hand sides
    /// drove it negative, and the primal simplex re-optimizes from there.
    /// `Solution::iterations` counts the repair and re-optimization
    /// pivots. Whenever the retained state cannot be used or trusted — see
    /// [`WarmSolve::warm_used`] — the solver transparently runs the cold
    /// two-phase path and reports `warm_used: false`.
    ///
    /// # Errors
    ///
    /// As [`LinearProgram::solve`]; retained state never turns a feasible
    /// program infeasible (a failed warm attempt is discarded, not
    /// trusted).
    pub fn solve_warm(&self, retained: &mut Option<Retained>) -> Result<WarmSolve, SolveError> {
        let n = self.num_vars();
        let mut iterations: u64 = 0;
        if let Some(mut kept) = retained.take().filter(|r| r.matches(self)) {
            let start = kept.budget;
            let mut budget = start;
            let reoptimized = kept.reenter(self) && {
                let mut w = Revised::new(&mut kept);
                w.dual_repair(&mut budget) && w.optimize(&mut budget).is_ok()
            };
            // A failed attempt's pivots stay counted — they were genuine
            // work; its state is dropped.
            iterations = start - budget;
            if reoptimized {
                let solution = extract(n, &kept.basis, &kept.b, kept.obj, iterations);
                if residual_ok(self, &solution.values) {
                    *retained = Some(kept);
                    return Ok(WarmSolve {
                        solution,
                        warm_used: true,
                    });
                }
            }
        }
        let mut cold = Retained::lower(self);
        let start = cold.budget;
        let mut budget = start;
        let solved = Revised::new(&mut cold).two_phase(&mut budget);
        iterations += start - budget;
        solved?;
        let solution = extract(n, &cold.basis, &cold.b, cold.obj, iterations);
        *retained = Some(cold);
        Ok(WarmSolve {
            solution,
            warm_used: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinearProgram, Relation::*};

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn simple_minimization() {
        // min x + 2y  s.t. x + y >= 4, y <= 3  -> x=4, y=0, obj=4
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        let y = lp.add_var(2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Ge, 4.0);
        lp.add_constraint(vec![(y, 1.0)], Le, 3.0);
        let s = lp.solve().unwrap();
        assert!(approx(s.objective, 4.0), "{}", s.objective);
        assert!(approx(s.value(x), 4.0));
        assert!(approx(s.value(y), 0.0));
    }

    #[test]
    fn maximization_via_negation() {
        // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18 -> x=2,y=6, max=36
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-3.0);
        let y = lp.add_var(-5.0);
        lp.add_constraint(vec![(x, 1.0)], Le, 4.0);
        lp.add_constraint(vec![(y, 2.0)], Le, 12.0);
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Le, 18.0);
        let s = lp.solve().unwrap();
        assert!(approx(s.objective, -36.0), "{}", s.objective);
        assert!(approx(s.value(x), 2.0));
        assert!(approx(s.value(y), 6.0));
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 6, x - y = 0 -> x=y=2, obj=4
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        let y = lp.add_var(1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Eq, 6.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Eq, 0.0);
        let s = lp.solve().unwrap();
        assert!(approx(s.objective, 4.0));
        assert!(approx(s.value(x), 2.0));
        assert!(approx(s.value(y), 2.0));
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        lp.add_constraint(vec![(x, 1.0)], Le, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Ge, 2.0);
        assert_eq!(lp.solve(), Err(SolveError::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        // min -x with x unconstrained above
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-1.0);
        lp.add_constraint(vec![(x, 1.0)], Ge, 0.0);
        assert_eq!(lp.solve(), Err(SolveError::Unbounded));
    }

    #[test]
    fn negative_rhs_normalized() {
        // min x s.t. -x <= -3  (i.e. x >= 3)
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        lp.add_constraint(vec![(x, -1.0)], Le, -3.0);
        let s = lp.solve().unwrap();
        assert!(approx(s.value(x), 3.0));
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Beale's cycling example (classic); Bland fallback must terminate.
        let mut lp = LinearProgram::new();
        let x1 = lp.add_var(-0.75);
        let x2 = lp.add_var(150.0);
        let x3 = lp.add_var(-0.02);
        let x4 = lp.add_var(6.0);
        lp.add_constraint(vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)], Le, 0.0);
        lp.add_constraint(vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)], Le, 0.0);
        lp.add_constraint(vec![(x3, 1.0)], Le, 1.0);
        let s = lp.solve().unwrap();
        assert!(approx(s.objective, -0.05), "{}", s.objective);
    }

    #[test]
    fn min_max_structure_like_load_balancing() {
        // Two "middleboxes" with capacities 10 and 20 must absorb 15 units;
        // min lambda with load_i <= lambda * C_i. Optimum: lambda = 0.5.
        let mut lp = LinearProgram::new();
        let t1 = lp.add_var(0.0);
        let t2 = lp.add_var(0.0);
        let lam = lp.add_var(1.0);
        lp.add_constraint(vec![(t1, 1.0), (t2, 1.0)], Eq, 15.0);
        lp.add_constraint(vec![(t1, 1.0), (lam, -10.0)], Le, 0.0);
        lp.add_constraint(vec![(t2, 1.0), (lam, -20.0)], Le, 0.0);
        lp.add_constraint(vec![(lam, 1.0)], Le, 1.0);
        let s = lp.solve().unwrap();
        assert!(approx(s.objective, 0.5), "{}", s.objective);
        assert!(approx(s.value(t1), 5.0));
        assert!(approx(s.value(t2), 10.0));
    }

    #[test]
    fn lambda_cap_makes_overload_infeasible() {
        // 50 units into total capacity 30 with lambda <= 1: infeasible.
        let mut lp = LinearProgram::new();
        let t1 = lp.add_var(0.0);
        let t2 = lp.add_var(0.0);
        let lam = lp.add_var(1.0);
        lp.add_constraint(vec![(t1, 1.0), (t2, 1.0)], Eq, 50.0);
        lp.add_constraint(vec![(t1, 1.0), (lam, -10.0)], Le, 0.0);
        lp.add_constraint(vec![(t2, 1.0), (lam, -20.0)], Le, 0.0);
        lp.add_constraint(vec![(lam, 1.0)], Le, 1.0);
        assert_eq!(lp.solve(), Err(SolveError::Infeasible));
    }

    #[test]
    fn redundant_equalities_ok() {
        // x + y = 4 stated twice; min x -> x=0,y=4
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        let y = lp.add_var(0.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Eq, 4.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Eq, 4.0);
        let s = lp.solve().unwrap();
        assert!(approx(s.objective, 0.0));
        assert!(approx(s.value(y), 4.0));
    }

    #[test]
    fn zero_variable_problem() {
        let lp = LinearProgram::new();
        let s = lp.solve().unwrap();
        assert_eq!(s.objective, 0.0);
        assert!(s.values.is_empty());
    }

    #[test]
    fn badly_scaled_rows_solve_accurately() {
        // volumes in the millions against unit capacities, mixed with a
        // tiny-coefficient row
        let mut lp = LinearProgram::new();
        let t1 = lp.add_var(0.0);
        let t2 = lp.add_var(0.0);
        let lam = lp.add_var(1.0);
        lp.add_constraint(vec![(t1, 1.0), (t2, 1.0)], Eq, 9_000_000.0);
        lp.add_constraint(vec![(t1, 1.0), (lam, -1.0)], Le, 0.0);
        lp.add_constraint(vec![(t2, 1.0), (lam, -1.0)], Le, 0.0);
        lp.add_constraint(vec![(t1, 1e-6), (t2, -1e-6)], Le, 1.0);
        let s = lp.solve().unwrap();
        assert!(
            (s.objective - 4_500_000.0).abs() / 4_500_000.0 < 1e-9,
            "{}",
            s.objective
        );
        assert!(lp.is_feasible(&s.values, 1.0));
    }

    /// The LB-like min-max program used by the warm tests: route `total`
    /// units across three boxes of capacities `caps`, min λ.
    fn lb_with(total: f64, caps: [f64; 3]) -> LinearProgram {
        let mut lp = LinearProgram::new();
        let t1 = lp.add_var(0.0);
        let t2 = lp.add_var(0.0);
        let t3 = lp.add_var(0.0);
        let lam = lp.add_var(1.0);
        lp.add_constraint(vec![(t1, 1.0), (t2, 1.0), (t3, 1.0)], Eq, total);
        lp.add_constraint(vec![(t1, 1.0), (lam, -caps[0])], Le, 0.0);
        lp.add_constraint(vec![(t2, 1.0), (lam, -caps[1])], Le, 0.0);
        lp.add_constraint(vec![(t3, 1.0), (lam, -caps[2])], Le, 0.0);
        lp
    }

    fn lb_like(total: f64) -> LinearProgram {
        lb_with(total, [10.0, 20.0, 30.0])
    }

    /// A cold solve of `lp` and the state it leaves behind.
    fn retained_from(lp: &LinearProgram) -> (WarmSolve, Option<Retained>) {
        let mut kept = None;
        let cold = lp.solve_warm(&mut kept).unwrap();
        assert!(!cold.warm_used, "nothing retained yet");
        assert!(kept.is_some());
        (cold, kept)
    }

    fn basic_columns(kept: &Option<Retained>) -> Vec<usize> {
        let mut v = kept.as_ref().unwrap().basis.clone();
        v.sort_unstable();
        v
    }

    #[test]
    fn warm_resolve_of_identical_program_skips_all_pivots() {
        let lp = lb_like(30.0);
        let (cold, mut kept) = retained_from(&lp);
        let before = basic_columns(&kept);
        let warm = lp.solve_warm(&mut kept).unwrap();
        assert!(warm.warm_used);
        assert_eq!(warm.solution.iterations, 0, "optimal basis re-optimizes in 0 pivots");
        assert!(approx(warm.solution.objective, cold.solution.objective));
        assert_eq!(basic_columns(&kept), before, "same basic column set");
    }

    #[test]
    fn warm_resolve_on_perturbed_rhs_uses_fewer_pivots() {
        let (_, mut kept) = retained_from(&lb_like(30.0));
        let perturbed = lb_like(33.0);
        let warm = perturbed.solve_warm(&mut kept).unwrap();
        let re_cold = perturbed.solve().unwrap();
        assert!(warm.warm_used);
        assert!(approx(warm.solution.objective, re_cold.objective));
        assert!(
            warm.solution.iterations < re_cold.iterations,
            "warm {} vs cold {}",
            warm.solution.iterations,
            re_cold.iterations
        );
        assert!(perturbed.is_feasible(&warm.solution.values, 1e-6));
    }

    #[test]
    fn different_program_falls_back_to_cold_and_replaces_the_state() {
        let mut other = LinearProgram::new();
        let x = other.add_var(1.0);
        other.add_constraint(vec![(x, 1.0)], Ge, 4.0);
        let (_, mut kept) = retained_from(&other);
        let lp = lb_like(30.0);
        let first = lp.solve_warm(&mut kept).unwrap();
        assert!(!first.warm_used);
        assert!(approx(first.solution.objective, 0.5));
        let again = lp.solve_warm(&mut kept).unwrap();
        assert!(again.warm_used, "the cold solve left its own state behind");
    }

    #[test]
    fn changed_coefficient_of_the_same_shape_goes_cold() {
        // Same counts, same relations, same sparsity pattern: only an
        // exact comparison of the terms notices the capacity change, and
        // re-entering the old basis would answer the old program.
        let (_, mut kept) = retained_from(&lb_like(30.0));
        let resized = lb_with(30.0, [10.0, 20.0, 60.0]);
        let got = resized.solve_warm(&mut kept).unwrap();
        assert!(!got.warm_used);
        assert_eq!(got.solution, resized.solve().unwrap());
        assert!(approx(got.solution.objective, 30.0 / 90.0));
    }

    #[test]
    fn changed_objective_goes_cold() {
        let (_, mut kept) = retained_from(&lb_like(30.0));
        let mut lp = lb_like(30.0);
        lp.objective[0] = 0.25;
        let got = lp.solve_warm(&mut kept).unwrap();
        assert!(!got.warm_used);
        assert_eq!(got.solution, lp.solve().unwrap());
    }

    #[test]
    fn primal_infeasible_retained_basis_is_repaired_or_replaced() {
        // The optimum of the lightly loaded program has slack basic in the
        // capacity rows; jumping the volume far past every capacity makes
        // the old basis primal-infeasible for the new rhs — the solver
        // must notice and still produce the right answer.
        let (_, mut kept) = retained_from(&lb_like(6.0));
        let heavy = lb_like(59.9);
        let warm = heavy.solve_warm(&mut kept).unwrap();
        let re_cold = heavy.solve().unwrap();
        assert!(approx(warm.solution.objective, re_cold.objective));
        assert!(heavy.is_feasible(&warm.solution.values, 1e-6));
    }

    #[test]
    fn rhs_sign_flip_goes_cold() {
        // min x s.t. -x <= rhs: rhs = 1 keeps Le, rhs = -3 normalizes to
        // Ge (x >= 3) — same terms, different slack/artificial layout.
        let build = |rhs: f64| {
            let mut lp = LinearProgram::new();
            let x = lp.add_var(1.0);
            lp.add_constraint(vec![(x, -1.0)], Le, rhs);
            lp
        };
        let (_, mut kept) = retained_from(&build(1.0));
        let warm = build(-3.0).solve_warm(&mut kept).unwrap();
        assert!(!warm.warm_used, "a sign flip changes the standard form");
        assert!(approx(warm.solution.values[0], 3.0));
        let warm = build(-5.0).solve_warm(&mut kept).unwrap();
        assert!(warm.warm_used, "same sign again: rhs-only");
        assert!(approx(warm.solution.values[0], 5.0));
    }

    #[test]
    fn infeasible_new_rhs_is_reported_and_clears_the_state() {
        let capped = |total: f64| {
            let mut lp = lb_like(total);
            lp.add_constraint(vec![(VarId(3), 1.0)], Le, 1.0);
            lp
        };
        let (_, mut kept) = retained_from(&capped(30.0));
        assert_eq!(
            capped(90.0).solve_warm(&mut kept),
            Err(SolveError::Infeasible)
        );
        assert!(kept.is_none());
    }

    #[test]
    fn drifted_inverse_fails_the_residual_check_and_goes_cold() {
        // Fake the roundoff a long-lived B⁻¹ accumulates: perturb its
        // first column so the re-entered solution misses the rows by more
        // than the tolerance. The result must be the cold one.
        let (_, mut kept) = retained_from(&lb_like(30.0));
        {
            let s = kept.as_mut().unwrap();
            let m = s.b.len();
            for r in 0..m {
                s.binv[r * m] *= 1.0 + 1e-6;
            }
        }
        let lp = lb_like(33.0);
        let got = lp.solve_warm(&mut kept).unwrap();
        assert!(!got.warm_used);
        assert_eq!(got.solution, lp.solve().unwrap());
        assert!(lp.solve_warm(&mut kept).unwrap().warm_used, "state was rebuilt");
    }

    #[test]
    fn solve_matches_solve_warm_with_nothing_retained() {
        let lp = lb_like(30.0);
        assert_eq!(lp.solve().unwrap(), retained_from(&lp).0.solution);
    }

    #[test]
    fn warm_chain_across_drifting_traffic_stays_optimal() {
        // An epoch-loop in miniature: traffic drifts, each epoch re-enters
        // the previous epoch's basis; every answer must match cold.
        let mut kept = None;
        for step in 0..12u32 {
            let total = 12.0 + (step as f64) * 1.7;
            let lp = lb_like(total);
            let warm = lp.solve_warm(&mut kept).unwrap();
            let cold = lp.solve().unwrap();
            assert_eq!(warm.warm_used, step > 0);
            assert!(
                approx(warm.solution.objective, cold.objective),
                "epoch {step}: warm {} cold {}",
                warm.solution.objective,
                cold.objective
            );
            assert!(lp.is_feasible(&warm.solution.values, 1e-6));
        }
    }

    /// A random transportation-style min-max program: `sources` volumes
    /// spread over `boxes` capacities, optionally with a λ cap row whose
    /// rhs also drifts (the refine pass's `λ ≤ bound`).
    fn random_program(volumes: &[f64], caps: &[f64], lambda_cap: f64) -> LinearProgram {
        let mut lp = LinearProgram::new();
        let lam = lp.add_var(1.0);
        let mut per_box: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); caps.len()];
        for (s, &vol) in volumes.iter().enumerate() {
            // every source reaches two neighbouring boxes
            let row: Vec<(VarId, f64)> = (0..2)
                .map(|k| {
                    let x = (s + k) % caps.len();
                    let v = lp.add_var(0.0);
                    per_box[x].push((v, 1.0));
                    (v, 1.0)
                })
                .collect();
            lp.add_constraint(row, Eq, vol);
        }
        for (terms, &cap) in per_box.iter().zip(caps) {
            let mut row = terms.clone();
            row.push((lam, -cap));
            lp.add_constraint(row, Le, 0.0);
        }
        lp.add_constraint(vec![(lam, 1.0)], Le, lambda_cap);
        lp
    }

    #[test]
    fn random_rhs_drift_schedules_match_cold_solves() {
        use sdm_util::prop::{check, Config};
        check(
            "warm re-solve == cold solve under rhs drift",
            &Config::with_cases(48),
            |rng| {
                let boxes = rng.gen_range(2..6usize);
                let caps: Vec<u32> = (0..boxes).map(|_| rng.gen_range(1..40u32)).collect();
                let sources = rng.gen_range(2..9usize);
                let epochs: Vec<Vec<u32>> = (0..rng.gen_range(2..10usize))
                    .map(|_| (0..sources).map(|_| rng.gen_range(0..5000u32)).collect())
                    .collect();
                (caps, epochs)
            },
            |(caps, epochs)| {
                if caps.len() < 2 || epochs.iter().any(|e| e.len() != epochs[0].len()) {
                    return Ok(()); // shrunk out of the generator's domain
                }
                let caps: Vec<f64> = caps.iter().map(|&c| 1.0 + c as f64).collect();
                let mut kept = None;
                for (e, volumes) in epochs.iter().enumerate() {
                    let volumes: Vec<f64> = volumes.iter().map(|&v| v as f64).collect();
                    let lp = random_program(&volumes, &caps, 1e6);
                    let warm = lp.solve_warm(&mut kept).map_err(|x| x.to_string())?;
                    let cold = lp.solve().map_err(|x| x.to_string())?;
                    sdm_util::prop_assert_eq!(warm.warm_used, e > 0);
                    sdm_util::prop_assert!(
                        (warm.solution.objective - cold.objective).abs()
                            <= 1e-9 * (1.0 + cold.objective.abs()),
                        "epoch {e}: warm {} cold {}",
                        warm.solution.objective,
                        cold.objective
                    );
                    sdm_util::prop_assert!(residual_ok(&lp, &warm.solution.values));
                }
                Ok(())
            },
        );
    }

    #[test]
    fn solution_is_feasible_for_model() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(2.0);
        let y = lp.add_var(3.0);
        let z = lp.add_var(1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0), (z, 1.0)], Ge, 10.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Le, 2.0);
        lp.add_constraint(vec![(z, 1.0)], Le, 7.0);
        let s = lp.solve().unwrap();
        assert!(lp.is_feasible(&s.values, 1e-6));
        assert!(approx(lp.objective_at(&s.values), s.objective));
    }
}
