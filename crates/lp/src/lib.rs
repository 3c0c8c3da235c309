//! Linear programming substrate for load-balanced policy enforcement.
//!
//! The paper's load-balancing step (§III.C) solves a min-max-load linear
//! program — Eq. (1) in per-(source, destination, policy) form, Eq. (2) in
//! the reduced per-(function, policy) form. Both are ordinary LPs; this
//! crate provides the general-purpose machinery the controller builds them
//! with:
//!
//! * [`LinearProgram`] — a builder for minimization LPs over non-negative
//!   variables with `≤ / ≥ / =` constraints.
//! * [`LinearProgram::solve`] — a two-phase revised simplex over the
//!   program's sparse columns and an explicit basis inverse, with a
//!   Bland's-rule fallback for degenerate instances.
//! * [`LinearProgram::solve_warm`] — the same simplex, re-entering the
//!   optimal basis and its inverse a previous call [`Retained`], for the
//!   online re-steer loop where consecutive epochs solve one program under
//!   drifting right-hand sides; solves cold, from the slack/artificial
//!   basis, when the program changed in more than right-hand sides.
//!
//! # Example
//!
//! The min-max structure used by the controller, in miniature: route 15
//! units across two boxes with capacities 10 and 20, minimizing the worst
//! load factor λ.
//!
//! ```
//! use sdm_lp::{LinearProgram, Relation};
//!
//! let mut lp = LinearProgram::new();
//! let t1 = lp.add_var(0.0);
//! let t2 = lp.add_var(0.0);
//! let lambda = lp.add_var(1.0);
//! lp.add_constraint(vec![(t1, 1.0), (t2, 1.0)], Relation::Eq, 15.0);
//! lp.add_constraint(vec![(t1, 1.0), (lambda, -10.0)], Relation::Le, 0.0);
//! lp.add_constraint(vec![(t2, 1.0), (lambda, -20.0)], Relation::Le, 0.0);
//! let sol = lp.solve()?;
//! assert!((sol.objective - 0.5).abs() < 1e-6);
//! # Ok::<(), sdm_lp::SolveError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The solver runs inside every epoch of the control loop.
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod model;
mod simplex;

pub use model::{Constraint, LinearProgram, Relation, VarId};
pub use simplex::{Retained, Solution, SolveError, WarmSolve};
