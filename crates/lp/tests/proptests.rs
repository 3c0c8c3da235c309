//! Property tests for the simplex solver: on randomly generated LPs that
//! are feasible *by construction*, the solver must return a feasible point
//! whose objective is no worse than the construction witness, and on tiny
//! ones exactly the optimum a brute-force vertex enumeration finds.

use sdm_lp::{LinearProgram, Relation, SolveError, VarId};
use sdm_util::prop::{check, Config};
use sdm_util::rng::StdRng;
use sdm_util::{prop_assert, SliceRandom};

/// One constraint of an instance: `(variable index, coefficient)` terms,
/// relation, right-hand side.
type Row = (Vec<(usize, f64)>, Relation, f64);

/// A random LP built around a known feasible witness `x0 >= 0`:
/// each constraint's rhs is chosen relative to `A x0` so `x0` satisfies it.
/// `objective` and `rows` describe the same program as `lp`.
#[derive(Debug, Clone)]
struct FeasibleInstance {
    lp: LinearProgram,
    witness: Vec<f64>,
    objective: Vec<f64>,
    rows: Vec<Row>,
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
    let objective: Vec<f64> = (0..n).map(|_| (next() * 5.0).round()).collect();
    let vars: Vec<_> = objective.iter().map(|&c| lp.add_var(c)).collect();
    let mut rows = Vec::new();
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
        let (relation, rhs) = match kind {
            0 => (Relation::Le, lhs_at_witness + slackness),
            1 => (Relation::Ge, lhs_at_witness - slackness),
            _ => (Relation::Eq, lhs_at_witness),
        };
        rows.push((
            terms.iter().map(|&(v, c)| (v.index(), c)).collect(),
            relation,
            rhs,
        ));
        lp.add_constraint(terms, relation, rhs);
    }
    FeasibleInstance {
        lp,
        witness,
        objective,
        rows,
    }
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

/// A [`feasible_lp`] instance of `n` variables and up to `m` rows, boxed
/// by `Σx ≤ 100` (the witness sums to at most `10 n`) so that its optimum
/// is attained at a vertex.
fn bounded_lp(n: usize, m: usize, seed: u64) -> FeasibleInstance {
    let mut inst = feasible_lp(n, m, seed);
    let all: Vec<(usize, f64)> = (0..n).map(|j| (j, 1.0)).collect();
    inst.lp.add_constraint(
        all.iter()
            .map(|&(j, c)| (VarId::from_index(j), c))
            .collect(),
        Relation::Le,
        100.0,
    );
    inst.rows.push((all, Relation::Le, 100.0));
    inst
}

/// Solves the square system `a x = b` (row-major `n × n`) by Gaussian
/// elimination with partial pivoting; `None` when it is singular.
fn solve_square(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let p = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[p][col].abs() < 1e-9 {
            return None;
        }
        a.swap(col, p);
        b.swap(col, p);
        let (above, below) = a.split_at_mut(col + 1);
        let (pivot, b_pivot) = (&above[col], b[col]);
        for (row, rb) in below.iter_mut().zip(&mut b[col + 1..]) {
            let f = row[col] / pivot[col];
            for (x, &p) in row[col..].iter_mut().zip(&pivot[col..]) {
                *x -= f * p;
            }
            *rb -= f * b_pivot;
        }
    }
    let mut x = vec![0.0; n];
    for r in (0..n).rev() {
        let tail: f64 = (r + 1..n).map(|k| a[r][k] * x[k]).sum();
        x[r] = (b[r] - tail) / a[r][r];
    }
    Some(x)
}

/// The minimum of the objective over the feasible vertices of `inst`, by
/// brute force: every choice of `n` constraints from the rows (as
/// equalities) and the bounds `x_j = 0` whose system has one solution
/// names a candidate point, and the vertices are the feasible candidates.
/// An equality row holds at every feasible point, so the feasibility test
/// keeps it active. No shared code with the solver.
fn vertex_minimum(inst: &FeasibleInstance) -> Option<f64> {
    let n = inst.objective.len();
    let mut planes: Vec<(Vec<f64>, f64)> = inst
        .rows
        .iter()
        .map(|(terms, _, rhs)| {
            let mut a = vec![0.0; n];
            for &(j, c) in terms {
                a[j] += c;
            }
            (a, *rhs)
        })
        .collect();
    planes.extend((0..n).map(|j| {
        let mut a = vec![0.0; n];
        a[j] = 1.0;
        (a, 0.0)
    }));
    let mut best: Option<f64> = None;
    for pick in 0u32..1 << planes.len() {
        if pick.count_ones() as usize != n {
            continue;
        }
        let chosen = planes
            .iter()
            .enumerate()
            .filter(|&(i, _)| pick >> i & 1 == 1);
        let (a, b): (Vec<Vec<f64>>, Vec<f64>) = chosen.map(|(_, p)| p.clone()).unzip();
        if let Some(x) = solve_square(a, b) {
            if inst.lp.is_feasible(&x, 1e-7) {
                let obj = inst.lp.objective_at(&x);
                best = Some(best.map_or(obj, |b| b.min(obj)));
            }
        }
    }
    best
}

/// `inst` with its variables and rows reordered by `seed`: the same
/// program, whose columns and rows the simplex meets in another order.
fn permuted(inst: &FeasibleInstance, seed: u64) -> LinearProgram {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = inst.objective.len();
    let mut at: Vec<usize> = (0..n).collect(); // at[j]: new index of variable j
    at.shuffle(&mut rng);
    let mut order: Vec<usize> = (0..inst.rows.len()).collect();
    order.shuffle(&mut rng);
    let mut objective = vec![0.0; n];
    for (j, &c) in inst.objective.iter().enumerate() {
        objective[at[j]] = c;
    }
    let mut lp = LinearProgram::new();
    let vars: Vec<VarId> = objective.iter().map(|&c| lp.add_var(c)).collect();
    for &i in &order {
        let (terms, relation, rhs) = &inst.rows[i];
        lp.add_constraint(
            terms.iter().map(|&(j, c)| (vars[at[j]], c)).collect(),
            *relation,
            *rhs,
        );
    }
    lp
}

/// On tiny bounded instances the solver reaches the exact optimum, as an
/// enumeration of every vertex finds it, and reordering the rows and the
/// columns (which sends the simplex down another pivot path) reaches the
/// same objective.
#[test]
fn tiny_instances_reach_the_vertex_optimum_in_any_order() {
    check(
        "tiny_instances_reach_the_vertex_optimum_in_any_order",
        &Config::with_cases(256),
        |rng: &mut StdRng| {
            (
                rng.gen_range(1usize..5), // vars
                rng.gen_range(1usize..7), // constraints
                rng.next_u64(),           // seed
            )
        },
        |&(n, m, seed)| {
            let inst = bounded_lp(n.clamp(1, 4), m.clamp(1, 6), seed);
            let sol = inst
                .lp
                .solve()
                .map_err(|e| format!("{e} on a bounded feasible LP"))?;
            let Some(best) = vertex_minimum(&inst) else {
                return Err("no feasible vertex on a feasible LP".into());
            };
            prop_assert!(
                (sol.objective - best).abs() <= 1e-6 * best.abs().max(1.0),
                "objective {} != vertex optimum {}",
                sol.objective,
                best
            );
            let reordered = permuted(&inst, seed).solve().map_err(|e| e.to_string())?;
            prop_assert!(
                (reordered.objective - sol.objective).abs() <= 1e-9 * sol.objective.abs().max(1.0),
                "reordered objective {} != {}",
                reordered.objective,
                sol.objective
            );
            Ok(())
        },
    );
}
