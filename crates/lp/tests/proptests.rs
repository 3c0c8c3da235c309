//! Property tests for the simplex solver: on randomly generated LPs that
//! are feasible *by construction*, the solver must return a feasible point
//! whose objective is no worse than the construction witness.

use sdm_lp::{LinearProgram, Relation, SolveError};
use sdm_util::prop::{check, Config};
use sdm_util::prop_assert;
use sdm_util::rng::StdRng;

/// A random LP built around a known feasible witness `x0 >= 0`:
/// each constraint's rhs is chosen relative to `A x0` so `x0` satisfies it.
#[derive(Debug, Clone)]
struct FeasibleInstance {
    lp: LinearProgram,
    witness: Vec<f64>,
}

/// Deterministically expands `(vars, constraints, seed)` into an instance.
/// The shrinkable tuple is what the harness sees; the LP is rebuilt inside
/// the property, so shrinking reduces the *dimensions* of the instance.
fn feasible_lp(n: usize, m: usize, seed: u64) -> FeasibleInstance {
    let mut s = seed;
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((s >> 33) as f64 / (1u64 << 31) as f64) * 2.0 - 1.0 // [-1, 1)
    };
    let mut lp = LinearProgram::new();
    let witness: Vec<f64> = (0..n).map(|_| (next().abs() * 10.0).round()).collect();
    let vars: Vec<_> = (0..n)
        .map(|_| lp.add_var((next() * 5.0).round()))
        .collect();
    for _ in 0..m {
        let terms: Vec<_> = vars
            .iter()
            .map(|&v| (v, (next() * 4.0).round()))
            .filter(|&(_, c)| c != 0.0)
            .collect();
        if terms.is_empty() {
            continue;
        }
        let lhs_at_witness: f64 = terms
            .iter()
            .map(|&(v, c)| c * witness[v.index()])
            .sum();
        let slackness = (next().abs() * 5.0).round();
        // pick a relation satisfied by the witness
        let kind = (next().abs() * 3.0) as u8;
        match kind {
            0 => lp.add_constraint(terms, Relation::Le, lhs_at_witness + slackness),
            1 => lp.add_constraint(terms, Relation::Ge, lhs_at_witness - slackness),
            _ => lp.add_constraint(terms, Relation::Eq, lhs_at_witness),
        }
    }
    FeasibleInstance { lp, witness }
}

/// The solver never reports infeasible on a constructively feasible LP;
/// when it returns a solution, the point satisfies the model and is at
/// least as good as the witness.
#[test]
fn solves_feasible_instances() {
    check(
        "solves_feasible_instances",
        &Config::with_cases(256),
        |rng: &mut StdRng| {
            (
                rng.gen_range(1usize..8),  // vars
                rng.gen_range(1usize..10), // constraints
                rng.next_u64(),            // seed
            )
        },
        |&(n, m, seed)| {
            let inst = feasible_lp(n.max(1), m.max(1), seed);
            match inst.lp.solve() {
                Ok(sol) => {
                    prop_assert!(
                        inst.lp.is_feasible(&sol.values, 1e-5),
                        "solver returned infeasible point {:?}",
                        sol.values
                    );
                    let witness_obj = inst.lp.objective_at(&inst.witness);
                    prop_assert!(
                        sol.objective <= witness_obj + 1e-5,
                        "objective {} worse than witness {}",
                        sol.objective,
                        witness_obj
                    );
                    prop_assert!(
                        (inst.lp.objective_at(&sol.values) - sol.objective).abs() < 1e-5
                    );
                }
                Err(SolveError::Unbounded) => {
                    // Possible: random objectives can be unbounded below. To
                    // certify, check some improving ray exists by re-solving a
                    // bounded variant (add sum of vars <= BIG); its optimum must
                    // beat the witness substantially.
                    let mut bounded = inst.lp.clone();
                    let all: Vec<_> = (0..bounded.num_vars())
                        .map(|i| (sdm_lp::VarId::from_index(i), 1.0))
                        .collect();
                    bounded.add_constraint(all, Relation::Le, 1e7);
                    let sol = bounded.solve().expect("bounded variant must solve");
                    prop_assert!(bounded.is_feasible(&sol.values, 1e-4));
                }
                Err(e) => prop_assert!(false, "unexpected error {e} on feasible LP"),
            }
            Ok(())
        },
    );
}
