//! The kernel's Rust closed form agrees with the structural interpreter
//! over a seeded sweep of constants and arguments, alone and inside a
//! served module text.

use llva_engine::Interpreter;
use llva_perfbench::kernel::{Kernel, ENTRY, MAX_N};
use llva_perfbench::rng::Rng;

fn check(text: &str, kernel: &Kernel, rng: &mut Rng, calls: usize) {
    let module = llva_core::parser::parse_module(text).expect("kernel text parses");
    llva_core::verifier::verify_module(&module).expect("kernel text verifies");
    for _ in 0..calls {
        let [a, n] = Kernel::args(rng);
        assert!((1..=MAX_N).contains(&n));
        let got = Interpreter::new(&module)
            .run(ENTRY, &[a, n])
            .expect("kernel runs");
        assert_eq!(got, kernel.eval(a, n), "kernel {kernel:?} at a={a}, n={n}");
    }
}

#[test]
fn closed_form_matches_the_interpreter() {
    for seed in 0..8 {
        let mut rng = Rng::new(seed, 42);
        let kernel = Kernel::draw(&mut rng, seed as u32);
        check(&kernel.text(), &kernel, &mut rng, 40);
    }
}

#[test]
fn edge_arguments() {
    let kernel = Kernel {
        c0: i64::MAX >> 2,
        c1: (1 << 61) + 1,
        c2: 0x7fff_0000_0000,
    };
    let module = llva_core::parser::parse_module(&kernel.text()).expect("parses");
    for (a, n) in [(0, 0), (u64::MAX, 1), (1 << 63, 16), (12345, 3)] {
        let got = Interpreter::new(&module).run(ENTRY, &[a, n]).expect("runs");
        assert_eq!(got, kernel.eval(a, n), "a={a}, n={n}");
    }
}

#[test]
fn closed_form_matches_inside_a_served_text() {
    let mut rng = Rng::new(99, 7);
    let kernel = Kernel::draw(&mut rng, 1);
    let text = format!(
        "{}{}",
        llva_perfbench::serve::program_text("ptrdist-bc"),
        kernel.text()
    );
    assert!(text.len() > 8 << 10, "served texts are over 8 KiB");
    check(&text, &kernel, &mut rng, 10);
}
