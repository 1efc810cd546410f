//! Seeds decide the operation sequence: the same seed gives the same
//! sequence, another seed a different one.

use llva_perfbench::serve_churn::{warm_kernels, SessionPlan, TextChoice};
use llva_perfbench::serve_exec::call_rounds;
use llva_perfbench::toolchain::program_rounds;

fn exec_calls(seed: u64) -> Vec<usize> {
    let mut plan = call_rounds(seed, 0, 5);
    (0..20).flat_map(|_| plan.next_round().to_vec()).collect()
}

#[test]
fn serve_exec_order_follows_the_seed() {
    assert_eq!(exec_calls(1), exec_calls(1));
    assert_ne!(exec_calls(1), exec_calls(2));
    // every round calls every program once
    let mut plan = call_rounds(3, 1, 4);
    let mut round = plan.next_round().to_vec();
    round.sort_unstable();
    assert_eq!(round, [0, 1, 2, 3]);
    // the two clients draw different orders
    let mut other = call_rounds(1, 1, 5);
    let theirs: Vec<usize> = (0..20).flat_map(|_| other.next_round().to_vec()).collect();
    assert_ne!(exec_calls(1), theirs);
}

#[test]
fn toolchain_order_follows_the_seed() {
    let orders = |seed| {
        let mut plan = program_rounds(seed, 17);
        (0..5)
            .map(|_| plan.next_round().to_vec())
            .collect::<Vec<_>>()
    };
    assert_eq!(orders(7), orders(7));
    assert_ne!(orders(7), orders(8));
}

#[test]
fn serve_churn_sessions_follow_the_seed() {
    let sessions = |seed| {
        let mut plan = SessionPlan::new(seed);
        (0..6).flat_map(|_| plan.next_round()).collect::<Vec<_>>()
    };
    assert_eq!(sessions(5), sessions(5));
    assert_ne!(sessions(5), sessions(6));
    assert_eq!(warm_kernels(5), warm_kernels(5));
    assert_ne!(warm_kernels(5), warm_kernels(6));
}

#[test]
fn serve_churn_rounds_have_a_fixed_cold_share_of_new_texts() {
    let mut plan = SessionPlan::new(9);
    let mut kernels = Vec::new();
    for _ in 0..10 {
        let round = plan.next_round();
        let cold: Vec<_> = round
            .iter()
            .filter_map(|s| match &s.text {
                TextChoice::Cold { kernel, .. } => Some(*kernel),
                TextChoice::Warm(_) => None,
            })
            .collect();
        assert_eq!(cold.len(), 2, "two cold sessions in every round of eight");
        assert_eq!(round.len(), 8);
        kernels.extend(cold);
    }
    let warm: Vec<_> = warm_kernels(9).into_iter().map(|(_, k)| k).collect();
    for (i, k) in kernels.iter().enumerate() {
        assert!(!warm.contains(k), "a cold text is never a published one");
        assert!(!kernels[..i].contains(k), "no cold text repeats");
    }
}
