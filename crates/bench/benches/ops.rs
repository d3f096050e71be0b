//! Operator execution throughput: the interpreter's innermost cost.
//!
//! Two tiers: single-bank `execute_local` microbenches (the lockstep
//! engine's per-stock kernel), and paper-scale (1026-stock) one-instruction
//! cross-sections through the lockstep oracle's `run_function` and slot 0
//! of a `B = 1` tile — lockstep re-dispatches the op per stock and
//! gathers/scatters relation operands, the tile dispatches once and sweeps
//! contiguous planes.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use alphaevolve_bench::paper_scale_dataset;
use alphaevolve_core::compile::lower_instr;
use alphaevolve_core::op::execute_local;
use alphaevolve_core::{
    compile, rewrite_operands, slot_offsets, AlphaConfig, AlphaProgram, BatchInterpreter,
    CompiledInstr, GroupIndex, Instruction, Interpreter, MemoryBank, Op,
};
use alphaevolve_market::DayMajorPanel;

fn bench_op(c: &mut Criterion, name: &str, instr: Instruction) {
    let dim = 13;
    let mut mem = MemoryBank::new(10, 16, 4, dim);
    // Non-trivial operand contents.
    for (i, x) in mem.m.iter_mut().enumerate() {
        *x = (i as f64 * 0.013).sin();
    }
    for (i, x) in mem.v.iter_mut().enumerate() {
        *x = (i as f64 * 0.031).cos();
    }
    mem.s
        .iter_mut()
        .enumerate()
        .for_each(|(i, x)| *x = i as f64 * 0.1);
    let mut rng = SmallRng::seed_from_u64(1);
    let mut sv = vec![0.0; dim];
    let mut sm = vec![0.0; dim * dim];
    c.bench_function(name, |b| {
        b.iter(|| {
            execute_local(
                std::hint::black_box(&instr),
                &mut mem,
                &mut rng,
                &mut sv,
                &mut sm,
            );
        });
    });
}

/// Lowers single instructions onto slot 0 of a `B = 1` tile, with
/// `lower_instr` (no dead-code analysis — `compile()` would strip a lone
/// benched instruction that doesn't feed `s1`). None of them writes `m0`.
fn lower_on_slot0(instrs: &[Instruction], cfg: &AlphaConfig, k: usize) -> Vec<CompiledInstr> {
    let mut lowered: Vec<CompiledInstr> =
        instrs.iter().map(|i| lower_instr(i, cfg.dim, k)).collect();
    rewrite_operands(&mut lowered, slot_offsets(cfg, k, 0, true));
    lowered
}

/// One-instruction cross-sections at 1026 stocks through both engines.
fn bench_cross_section_ops(c: &mut Criterion) {
    let dataset = paper_scale_dataset();
    let groups = GroupIndex::from_universe(dataset.universe());
    let panel = DayMajorPanel::from_panel(dataset.panel());
    let cfg = AlphaConfig::default();
    let k = dataset.n_stocks();

    // Fill registers with identical non-trivial values on both engines
    // (stochastic fills are bitwise-equal across engines by construction).
    let warm: Vec<Instruction> = vec![
        Instruction::new(Op::MGauss, 0, 0, 1, [0.0, 1.0], [0; 2]),
        Instruction::new(Op::MGauss, 0, 0, 2, [0.0, 1.0], [0; 2]),
        Instruction::new(Op::VGauss, 0, 0, 1, [0.0, 1.0], [0; 2]),
        Instruction::new(Op::VGauss, 0, 0, 2, [0.0, 1.0], [0; 2]),
        Instruction::new(Op::SGauss, 0, 0, 2, [0.0, 1.0], [0; 2]),
        Instruction::new(Op::SGauss, 0, 0, 3, [0.0, 1.0], [0; 2]),
    ];
    let mut lockstep = Interpreter::new(&cfg, &dataset, &groups, 7);
    lockstep.run_function(&warm);
    let mut columnar = BatchInterpreter::new(&cfg, &dataset, &panel, &groups, 7, 1);
    columnar.run_function_slot(0, &lower_on_slot0(&warm, &cfg, k));

    let cases = [
        (
            "s_add",
            Instruction::new(Op::SAdd, 2, 3, 4, [0.0; 2], [0; 2]),
        ),
        (
            "s_tan",
            Instruction::new(Op::STan, 2, 0, 4, [0.0; 2], [0; 2]),
        ),
        (
            "v_mul",
            Instruction::new(Op::VMul, 1, 2, 3, [0.0; 2], [0; 2]),
        ),
        (
            "v_dot",
            Instruction::new(Op::VDot, 1, 2, 3, [0.0; 2], [0; 2]),
        ),
        (
            "mat_mul",
            Instruction::new(Op::MatMul, 1, 2, 3, [0.0; 2], [0; 2]),
        ),
        (
            "m_get",
            Instruction::new(Op::MGet, 1, 0, 4, [0.0; 2], [5, 7]),
        ),
        (
            "m_std",
            Instruction::new(Op::MStd, 1, 0, 4, [0.0; 2], [0; 2]),
        ),
        (
            "rel_demean",
            Instruction::new(Op::RelDemean, 2, 0, 4, [0.0; 2], [0; 2]),
        ),
        (
            "rel_rank_sector",
            Instruction::new(Op::RelRankSector, 2, 0, 4, [0.0; 2], [0; 2]),
        ),
    ];
    for (name, instr) in cases {
        let single = [instr.clone()];
        c.bench_function(&format!("op1026/{name}_lockstep"), |b| {
            b.iter(|| lockstep.run_function(std::hint::black_box(&single)));
        });
        let lowered = lower_on_slot0(&single, &cfg, k);
        c.bench_function(&format!("op1026/{name}_columnar"), |b| {
            b.iter(|| columnar.run_function_slot(0, std::hint::black_box(&lowered)));
        });
    }

    // In-place element-wise ops (output plane == first input plane) and
    // the NN seed's rank-1 training step, `m1 += v1 ⊗ v2`, which
    // `compile` lowers to one fused pass; the unfused pair runs the same
    // two ops as separately lowered instructions.
    let in_place = [
        (
            "m_add_inplace",
            Instruction::new(Op::MAdd, 1, 2, 1, [0.0; 2], [0; 2]),
        ),
        (
            "v_add_inplace",
            Instruction::new(Op::VAdd, 1, 2, 1, [0.0; 2], [0; 2]),
        ),
    ];
    for (name, instr) in in_place {
        let lowered = lower_on_slot0(&[instr], &cfg, k);
        c.bench_function(&format!("op1026/{name}_columnar"), |b| {
            b.iter(|| columnar.run_function_slot(0, std::hint::black_box(&lowered)));
        });
    }
    let pair = [
        Instruction::new(Op::VOuter, 1, 2, 3, [0.0; 2], [0; 2]),
        Instruction::new(Op::MAdd, 1, 3, 1, [0.0; 2], [0; 2]),
    ];
    let rank_1 = AlphaProgram {
        setup: vec![Instruction::nop()],
        predict: vec![Instruction::new(Op::MMean, 1, 0, 1, [0.0; 2], [0; 2])],
        update: pair.to_vec(),
    };
    let mut fused = compile(&rank_1, &cfg, k).update;
    assert!(
        fused.len() == 1 && fused[0].fused.is_some(),
        "the pair must fuse: {fused:?}"
    );
    rewrite_operands(&mut fused, slot_offsets(&cfg, k, 0, true));
    c.bench_function("op1026/outer_then_add_columnar", |b| {
        b.iter(|| columnar.run_function_slot(0, std::hint::black_box(&fused)));
    });
    let unfused = lower_on_slot0(&pair, &cfg, k);
    c.bench_function("op1026/outer_then_add_unfused_columnar", |b| {
        b.iter(|| columnar.run_function_slot(0, std::hint::black_box(&unfused)));
    });
}

fn benches(c: &mut Criterion) {
    bench_cross_section_ops(c);
    bench_op(
        c,
        "op/s_add",
        Instruction::new(Op::SAdd, 2, 3, 4, [0.0; 2], [0; 2]),
    );
    bench_op(
        c,
        "op/s_tan",
        Instruction::new(Op::STan, 2, 0, 4, [0.0; 2], [0; 2]),
    );
    bench_op(
        c,
        "op/v_mul",
        Instruction::new(Op::VMul, 1, 2, 3, [0.0; 2], [0; 2]),
    );
    bench_op(
        c,
        "op/v_dot",
        Instruction::new(Op::VDot, 1, 2, 3, [0.0; 2], [0; 2]),
    );
    bench_op(
        c,
        "op/m_mul_hadamard",
        Instruction::new(Op::MMul, 1, 2, 3, [0.0; 2], [0; 2]),
    );
    bench_op(
        c,
        "op/mat_mul_13x13",
        Instruction::new(Op::MatMul, 1, 2, 3, [0.0; 2], [0; 2]),
    );
    bench_op(
        c,
        "op/m_get_extraction",
        Instruction::new(Op::MGet, 0, 0, 4, [0.0; 2], [5, 7]),
    );
    bench_op(
        c,
        "op/m_std_reduction",
        Instruction::new(Op::MStd, 1, 0, 4, [0.0; 2], [0; 2]),
    );
    bench_op(
        c,
        "op/s_gauss_stochastic",
        Instruction::new(Op::SGauss, 0, 0, 4, [0.0, 1.0], [0; 2]),
    );
}

criterion_group! {
    name = ops;
    config = Criterion::default()
        .sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));
    targets = benches
}
criterion_main!(ops);
