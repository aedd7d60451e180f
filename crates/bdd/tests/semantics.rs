//! Property tests: BDD operations must agree with a direct truth-table
//! evaluator on random boolean expressions, and canonicity must hold
//! (semantically equal expressions produce identical handles).

use fmaverify_bdd::{sift, Bdd, BddManager, BddVar};
use proptest::prelude::*;

const NUM_VARS: usize = 5;

/// A small random boolean expression tree.
#[derive(Clone, Debug)]
enum Expr {
    Var(usize),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
    Const(bool),
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0..NUM_VARS).prop_map(Expr::Var),
        prop::bool::ANY.prop_map(Expr::Const),
    ];
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| Expr::Ite(
                Box::new(a),
                Box::new(b),
                Box::new(c)
            )),
        ]
    })
}

fn eval_expr(e: &Expr, a: &[bool]) -> bool {
    match e {
        Expr::Var(i) => a[*i],
        Expr::Not(x) => !eval_expr(x, a),
        Expr::And(x, y) => eval_expr(x, a) && eval_expr(y, a),
        Expr::Or(x, y) => eval_expr(x, a) || eval_expr(y, a),
        Expr::Xor(x, y) => eval_expr(x, a) != eval_expr(y, a),
        Expr::Ite(c, t, f) => {
            if eval_expr(c, a) {
                eval_expr(t, a)
            } else {
                eval_expr(f, a)
            }
        }
        Expr::Const(b) => *b,
    }
}

fn build_bdd(mgr: &mut BddManager, vars: &[Bdd], e: &Expr) -> Bdd {
    match e {
        Expr::Var(i) => vars[*i],
        Expr::Not(x) => !build_bdd(mgr, vars, x),
        Expr::And(x, y) => {
            let a = build_bdd(mgr, vars, x);
            let b = build_bdd(mgr, vars, y);
            mgr.and(a, b)
        }
        Expr::Or(x, y) => {
            let a = build_bdd(mgr, vars, x);
            let b = build_bdd(mgr, vars, y);
            mgr.or(a, b)
        }
        Expr::Xor(x, y) => {
            let a = build_bdd(mgr, vars, x);
            let b = build_bdd(mgr, vars, y);
            mgr.xor(a, b)
        }
        Expr::Ite(c, t, f) => {
            let a = build_bdd(mgr, vars, c);
            let b = build_bdd(mgr, vars, t);
            let d = build_bdd(mgr, vars, f);
            mgr.ite(a, b, d)
        }
        Expr::Const(true) => Bdd::TRUE,
        Expr::Const(false) => Bdd::FALSE,
    }
}

fn truth_table(e: &Expr) -> Vec<bool> {
    (0..1u32 << NUM_VARS)
        .map(|bits| {
            let a: Vec<bool> = (0..NUM_VARS).map(|i| bits >> i & 1 == 1).collect();
            eval_expr(e, &a)
        })
        .collect()
}

fn setup() -> (BddManager, Vec<Bdd>) {
    let mut mgr = BddManager::new();
    let vars = mgr.new_vars(NUM_VARS);
    let bdds = vars.iter().map(|&v| mgr.var_bdd(v)).collect();
    (mgr, bdds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn bdd_matches_truth_table(e in arb_expr()) {
        let (mut mgr, vars) = setup();
        let f = build_bdd(&mut mgr, &vars, &e);
        for bits in 0..1u32 << NUM_VARS {
            let a: Vec<bool> = (0..NUM_VARS).map(|i| bits >> i & 1 == 1).collect();
            prop_assert_eq!(mgr.eval(f, &a), eval_expr(&e, &a));
        }
    }

    #[test]
    fn canonicity(e1 in arb_expr(), e2 in arb_expr()) {
        let (mut mgr, vars) = setup();
        let f1 = build_bdd(&mut mgr, &vars, &e1);
        let f2 = build_bdd(&mut mgr, &vars, &e2);
        let semantically_equal = truth_table(&e1) == truth_table(&e2);
        prop_assert_eq!(f1 == f2, semantically_equal);
    }

    #[test]
    fn sat_count_matches_truth_table(e in arb_expr()) {
        let (mut mgr, vars) = setup();
        let f = build_bdd(&mut mgr, &vars, &e);
        let expect = truth_table(&e).iter().filter(|&&b| b).count() as f64;
        prop_assert_eq!(mgr.sat_count(f), expect);
    }

    #[test]
    fn constrain_and_restrict_agree_on_care_set(f_e in arb_expr(), c_e in arb_expr()) {
        let (mut mgr, vars) = setup();
        let f = build_bdd(&mut mgr, &vars, &f_e);
        let c = build_bdd(&mut mgr, &vars, &c_e);
        prop_assume!(!c.is_false());
        let fc = mgr.constrain(f, c);
        let fr = mgr.restrict(f, c);
        for bits in 0..1u32 << NUM_VARS {
            let a: Vec<bool> = (0..NUM_VARS).map(|i| bits >> i & 1 == 1).collect();
            if mgr.eval(c, &a) {
                prop_assert_eq!(mgr.eval(fc, &a), mgr.eval(f, &a), "constrain differs on care set");
                prop_assert_eq!(mgr.eval(fr, &a), mgr.eval(f, &a), "restrict differs on care set");
            }
        }
    }

    #[test]
    fn constrain_distributes(a_e in arb_expr(), b_e in arb_expr(), c_e in arb_expr()) {
        // constrain(g(a,b), c) == g(constrain(a,c), constrain(b,c)) for any
        // gate g — here AND and XOR. This is the soundness basis of applying
        // constrain gate-by-gate during symbolic simulation.
        let (mut mgr, vars) = setup();
        let a = build_bdd(&mut mgr, &vars, &a_e);
        let b = build_bdd(&mut mgr, &vars, &b_e);
        let c = build_bdd(&mut mgr, &vars, &c_e);
        prop_assume!(!c.is_false());
        let ac = mgr.constrain(a, c);
        let bc = mgr.constrain(b, c);
        let and_then = { let g = mgr.and(a, b); mgr.constrain(g, c) };
        let then_and = mgr.and(ac, bc);
        prop_assert_eq!(and_then, then_and);
        let xor_then = { let g = mgr.xor(a, b); mgr.constrain(g, c) };
        let then_xor = mgr.xor(ac, bc);
        prop_assert_eq!(xor_then, then_xor);
        // Negation commutes with constrain.
        let not_then = mgr.constrain(!a, c);
        prop_assert_eq!(not_then, !ac);
    }

    #[test]
    fn gc_and_reorder_preserve_semantics(e in arb_expr(), perm_seed in 0u64..1000) {
        let (mut mgr, vars) = setup();
        let f = build_bdd(&mut mgr, &vars, &e);
        let tt = truth_table(&e);
        let roots = mgr.gc(&[f]);
        let f = roots[0];
        // Pseudo-random permutation from the seed.
        let mut order: Vec<BddVar> = (0..NUM_VARS).map(BddVar::from_index).collect();
        let mut s = perm_seed;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        let roots = mgr.set_order(&order, &[f]);
        let f = roots[0];
        for (bits, &expect) in tt.iter().enumerate() {
            let a: Vec<bool> = (0..NUM_VARS).map(|i| bits >> i & 1 == 1).collect();
            prop_assert_eq!(mgr.eval(f, &a), expect);
        }
        // Sifting afterwards must also preserve the function.
        let result = sift(&mut mgr, &[f], 3);
        let f = result.roots[0];
        for (bits, &expect) in tt.iter().enumerate() {
            let a: Vec<bool> = (0..NUM_VARS).map(|i| bits >> i & 1 == 1).collect();
            prop_assert_eq!(mgr.eval(f, &a), expect);
        }
    }
}
