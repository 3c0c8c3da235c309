//! Linear-program model builder: variables, linear constraints, and a
//! minimization objective. All variables are implicitly non-negative, which
//! matches both load-balancing formulations of the paper (traffic volumes
//! and the load factor λ are non-negative).

use std::fmt;

/// Identifier of a decision variable in a [`LinearProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Dense index of the variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `VarId` from a dense index (valid for
    /// `0..lp.num_vars()`); useful when iterating over all variables.
    pub fn from_index(index: usize) -> Self {
        VarId(index as u32)
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Relation of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `⟨terms⟩ ≤ rhs`
    Le,
    /// `⟨terms⟩ ≥ rhs`
    Ge,
    /// `⟨terms⟩ = rhs`
    Eq,
}

/// One linear constraint: a sparse list of `(variable, coefficient)` terms,
/// a relation and a right-hand side.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Sparse terms; repeated variables are summed.
    pub terms: Vec<(VarId, f64)>,
    /// The relation.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

/// A minimization linear program over non-negative variables.
///
/// # Example
///
/// Minimize `x + 2y` subject to `x + y ≥ 4`, `y ≤ 3`:
///
/// ```
/// use sdm_lp::{LinearProgram, Relation};
///
/// let mut lp = LinearProgram::new();
/// let x = lp.add_var(1.0);
/// let y = lp.add_var(2.0);
/// lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 4.0);
/// lp.add_constraint(vec![(y, 1.0)], Relation::Le, 3.0);
/// let sol = lp.solve()?;
/// assert!((sol.objective - 4.0).abs() < 1e-7); // x=4, y=0
/// # Ok::<(), sdm_lp::SolveError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct LinearProgram {
    pub(crate) objective: Vec<f64>,
    pub(crate) constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a non-negative variable with the given objective coefficient
    /// (the objective is minimized).
    pub fn add_var(&mut self, objective: f64) -> VarId {
        let id = VarId(self.objective.len() as u32);
        self.objective.push(objective);
        id
    }

    /// Replaces the objective coefficient of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not created by this program.
    pub fn set_objective(&mut self, v: VarId, objective: f64) {
        self.objective[v.index()] = objective;
    }

    /// Adds a constraint. Repeated variables in `terms` are summed; terms
    /// referencing unknown variables panic.
    ///
    /// # Panics
    ///
    /// Panics if any term references a variable not created by this program.
    pub fn add_constraint(
        &mut self,
        terms: Vec<(VarId, f64)>,
        relation: Relation,
        rhs: f64,
    ) {
        for &(v, _) in &terms {
            assert!(
                v.index() < self.objective.len(),
                "constraint references unknown variable {v}"
            );
        }
        self.constraints.push(Constraint {
            terms,
            relation,
            rhs,
        });
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Evaluates the objective at a point.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_vars()`.
    pub fn objective_at(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_vars());
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Checks whether `x` satisfies every constraint (and non-negativity)
    /// within tolerance `tol`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_vars()`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        assert_eq!(x.len(), self.num_vars());
        if x.iter().any(|&v| v < -tol) {
            return false;
        }
        self.constraints.iter().all(|c| {
            let lhs: f64 = c.terms.iter().map(|&(v, coef)| coef * x[v.index()]).sum();
            match c.relation {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_vars_and_constraints() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        let y = lp.add_var(0.5);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Le, 2.0);
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_constraints(), 1);
        assert_eq!(lp.objective[y.index()], 0.5);
        lp.set_objective(y, 0.0);
        assert_eq!(lp.objective, [1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn rejects_foreign_variable() {
        let mut lp = LinearProgram::new();
        let _x = lp.add_var(1.0);
        lp.add_constraint(vec![(VarId(5), 1.0)], Relation::Le, 1.0);
    }

    #[test]
    fn feasibility_check() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        let y = lp.add_var(1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 4.0);
        lp.add_constraint(vec![(y, 1.0)], Relation::Le, 3.0);
        assert!(lp.is_feasible(&[4.0, 0.0], 1e-9));
        assert!(lp.is_feasible(&[1.0, 3.0], 1e-9));
        assert!(!lp.is_feasible(&[1.0, 1.0], 1e-9)); // sum < 4
        assert!(!lp.is_feasible(&[5.0, -0.1], 1e-9)); // negative
        assert!(!lp.is_feasible(&[1.0, 4.0], 1e-9)); // y > 3
    }

    #[test]
    fn objective_eval() {
        let mut lp = LinearProgram::new();
        let _ = lp.add_var(2.0);
        let _ = lp.add_var(-1.0);
        assert_eq!(lp.objective_at(&[3.0, 4.0]), 2.0);
    }

    #[test]
    fn duplicate_terms_are_summed_by_solver_semantics() {
        // is_feasible must treat repeated variables additively
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        lp.add_constraint(vec![(x, 1.0), (x, 1.0)], Relation::Eq, 4.0);
        assert!(lp.is_feasible(&[2.0], 1e-9));
        assert!(!lp.is_feasible(&[4.0], 1e-9));
    }
}
