//! The operator set.
//!
//! Three families, mirroring the paper:
//!
//! 1. **Basic math OPs for scalars, vectors, and matrices** — the
//!    AutoML-Zero operator vocabulary (§2: "basic mathematical operators
//!    for scalars, vectors, and matrices"). These include the trig /
//!    heaviside / min / max / norm / matmul / broadcast operators that show
//!    up in the paper's evolved alphas (Eqs. 2–22).
//! 2. **ExtractionOps** (§4.1) — `m_get` (GetScalarOp) and
//!    `m_get_row`/`m_get_col` (GetVectorOps) pull scalars and vectors out
//!    of a matrix, letting evolution build "formulaic-plus" alphas instead
//!    of opaque high-dimensional models.
//! 3. **RelationOps** (§4.1) — `rel_rank` (RankOp), `rel_rank_sector` /
//!    `rel_rank_industry` (RelationRankOp) and `rel_demean[_sector/_industry]`
//!    (RelationDemeanOp) combine a scalar operand *across tasks* at one
//!    timestep. They are the only cross-sectional operators and are executed
//!    by the lockstep interpreter ([`crate::interp`]), not by
//!    [`execute_local`].
//!
//! Division by zero, logs of negatives, `asin` outside its domain etc. are
//! *not* protected: they produce `inf`/`NaN`, and candidates whose
//! validation predictions are non-finite are killed by the evaluator —
//! AutoML-Zero semantics.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::instruction::Instruction;
use crate::memory::MemoryBank;
use alphaevolve_market::rngutil::normal;

/// Operand kind: scalar, vector or matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// Scalar register `sN`.
    S,
    /// Vector register `vN`.
    V,
    /// Matrix register `mN`.
    M,
}

impl Kind {
    /// Register prefix used in program text.
    pub fn prefix(self) -> char {
        match self {
            Kind::S => 's',
            Kind::V => 'v',
            Kind::M => 'm',
        }
    }
}

/// How an op uses its two literal slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LitUse {
    /// No literals.
    None,
    /// One constant value (`lit[0]`).
    Const,
    /// Uniform range (`lit[0]` = low, `lit[1]` = high).
    Range,
    /// Gaussian parameters (`lit[0]` = mean, `lit[1]` = std).
    MeanStd,
}

impl LitUse {
    /// Number of meaningful literal slots.
    pub fn count(self) -> usize {
        match self {
            LitUse::None => 0,
            LitUse::Const => 1,
            LitUse::Range | LitUse::MeanStd => 2,
        }
    }
}

/// How an op uses its two small-integer index slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IxUse {
    /// No indices.
    None,
    /// `(row, col)` element address, both in `[0, dim)`.
    RowCol,
    /// A single row index in `[0, dim)`.
    Row,
    /// A single column index in `[0, dim)`.
    Col,
    /// A vector element index in `[0, dim)`.
    VecIndex,
    /// An axis selector in `{0, 1}`.
    Axis,
}

impl IxUse {
    /// Number of meaningful index slots.
    pub fn count(self) -> usize {
        match self {
            IxUse::None => 0,
            IxUse::RowCol => 2,
            _ => 1,
        }
    }

    /// Exclusive upper bound for index slot `slot`.
    pub fn domain(self, slot: usize, dim: usize) -> usize {
        match (self, slot) {
            (IxUse::Axis, 0) => 2,
            (IxUse::None, _) => 1,
            _ => dim,
        }
    }
}

/// Which group a RelationOp operates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelGroup {
    /// All stocks.
    All,
    /// Stocks in the same sector (paper: F_I by sector).
    Sector,
    /// Stocks in the same industry.
    Industry,
}

macro_rules! define_ops {
    ($( $variant:ident => ($name:literal, [$($in:ident),*], $out:ident, $lit:ident, $ix:ident, $rel:expr) ),* $(,)?) => {
        /// Every operator in the search space.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[allow(missing_docs)]
        pub enum Op {
            $( $variant, )*
        }

        impl Op {
            /// All operators, in a fixed order (stable across runs; used
            /// for fingerprints and sampling).
            pub const ALL: &'static [Op] = &[ $( Op::$variant, )* ];

            /// Lower-case text name used by the program format.
            pub fn name(self) -> &'static str {
                match self {
                    $( Op::$variant => $name, )*
                }
            }

            /// Inverse of [`Op::name`].
            pub fn from_name(name: &str) -> Option<Op> {
                match name {
                    $( $name => Some(Op::$variant), )*
                    _ => None,
                }
            }

            /// Input operand kinds, in argument order.
            pub fn input_kinds(self) -> &'static [Kind] {
                match self {
                    $( Op::$variant => &[ $( Kind::$in, )* ], )*
                }
            }

            /// Output operand kind (no-op reports `S` but writes nothing).
            pub fn output_kind(self) -> Kind {
                match self {
                    $( Op::$variant => Kind::$out, )*
                }
            }

            /// Literal-slot usage.
            pub fn lit_use(self) -> LitUse {
                match self {
                    $( Op::$variant => LitUse::$lit, )*
                }
            }

            /// Index-slot usage.
            pub fn ix_use(self) -> IxUse {
                match self {
                    $( Op::$variant => IxUse::$ix, )*
                }
            }

            /// The relation group, for RelationOps only.
            pub fn relation_group(self) -> Option<RelGroup> {
                match self {
                    $( Op::$variant => $rel, )*
                }
            }
        }
    };
}

define_ops! {
    // ---- no-op ---------------------------------------------------------
    NoOp => ("noop", [], S, None, None, Option::<RelGroup>::None),

    // ---- scalar constants / init --------------------------------------
    SConst   => ("s_const",   [], S, Const,   None, None),
    SUniform => ("s_uniform", [], S, Range,   None, None),
    SGauss   => ("s_gauss",   [], S, MeanStd, None, None),

    // ---- scalar arithmetic ---------------------------------------------
    SAdd => ("s_add", [S, S], S, None, None, None),
    SSub => ("s_sub", [S, S], S, None, None, None),
    SMul => ("s_mul", [S, S], S, None, None, None),
    SDiv => ("s_div", [S, S], S, None, None, None),
    SMin => ("s_min", [S, S], S, None, None, None),
    SMax => ("s_max", [S, S], S, None, None, None),

    // ---- scalar unary ----------------------------------------------------
    SAbs       => ("s_abs",       [S], S, None, None, None),
    SInv       => ("s_inv",       [S], S, None, None, None),
    SSin       => ("s_sin",       [S], S, None, None, None),
    SCos       => ("s_cos",       [S], S, None, None, None),
    STan       => ("s_tan",       [S], S, None, None, None),
    SArcSin    => ("s_asin",      [S], S, None, None, None),
    SArcCos    => ("s_acos",      [S], S, None, None, None),
    SArcTan    => ("s_atan",      [S], S, None, None, None),
    SExp       => ("s_exp",       [S], S, None, None, None),
    SLn        => ("s_ln",        [S], S, None, None, None),
    SHeaviside => ("s_heaviside", [S], S, None, None, None),

    // ---- vector constants / init ---------------------------------------
    VConst   => ("v_const",   [], V, Const,   None, None),
    VUniform => ("v_uniform", [], V, Range,   None, None),
    VGauss   => ("v_gauss",   [], V, MeanStd, None, None),

    // ---- vector element-wise ---------------------------------------------
    VAdd => ("v_add", [V, V], V, None, None, None),
    VSub => ("v_sub", [V, V], V, None, None, None),
    VMul => ("v_mul", [V, V], V, None, None, None),
    VDiv => ("v_div", [V, V], V, None, None, None),
    VMin => ("v_min", [V, V], V, None, None, None),
    VMax => ("v_max", [V, V], V, None, None, None),
    VAbs       => ("v_abs",       [V], V, None, None, None),
    VHeaviside => ("v_heaviside", [V], V, None, None, None),

    // ---- scalar/vector ---------------------------------------------------
    SVScale    => ("sv_scale",    [S, V], V, None, None, None),
    VBroadcast => ("v_broadcast", [S],    V, None, None, None),

    // ---- vector reductions / shape --------------------------------------
    VNorm  => ("v_norm",  [V],    S, None, None,     None),
    VMean  => ("v_mean",  [V],    S, None, None,     None),
    VStd   => ("v_std",   [V],    S, None, None,     None),
    VSum   => ("v_sum",   [V],    S, None, None,     None),
    TsRank => ("ts_rank", [V],    S, None, None,     None),
    VDot   => ("v_dot",   [V, V], S, None, None,     None),
    VGet   => ("v_get",   [V],    S, None, VecIndex, None),
    VOuter => ("v_outer", [V, V], M, None, None,     None),
    MatVec => ("mat_vec", [M, V], V, None, None,     None),

    // ---- matrix constants / init ----------------------------------------
    MConst   => ("m_const",   [], M, Const,   None, None),
    MUniform => ("m_uniform", [], M, Range,   None, None),
    MGauss   => ("m_gauss",   [], M, MeanStd, None, None),

    // ---- matrix element-wise ---------------------------------------------
    MAdd => ("m_add", [M, M], M, None, None, None),
    MSub => ("m_sub", [M, M], M, None, None, None),
    MMul => ("m_mul", [M, M], M, None, None, None),
    MDiv => ("m_div", [M, M], M, None, None, None),
    MMin => ("m_min", [M, M], M, None, None, None),
    MMax => ("m_max", [M, M], M, None, None, None),
    MAbs       => ("m_abs",       [M], M, None, None, None),
    MHeaviside => ("m_heaviside", [M], M, None, None, None),

    // ---- matrix linear algebra -------------------------------------------
    MTranspose => ("m_transpose", [M],    M, None, None, None),
    MatMul     => ("mat_mul",     [M, M], M, None, None, None),
    SMScale    => ("sm_scale",    [S, M], M, None, None, None),
    MBroadcast => ("m_broadcast", [V],    M, None, Axis, None),

    // ---- matrix reductions -----------------------------------------------
    MNorm => ("m_norm", [M], S, None, None, None),
    MMean => ("m_mean", [M], S, None, None, None),
    MStd  => ("m_std",  [M], S, None, None, None),
    MNormAxis => ("m_norm_axis", [M], V, None, Axis, None),
    MMeanAxis => ("m_mean_axis", [M], V, None, Axis, None),
    MStdAxis  => ("m_std_axis",  [M], V, None, Axis, None),

    // ---- ExtractionOps (paper §4.1) ---------------------------------------
    MGet    => ("m_get",     [M], S, None, RowCol, None),
    MGetRow => ("m_get_row", [M], V, None, Row,    None),
    MGetCol => ("m_get_col", [M], V, None, Col,    None),

    // ---- RelationOps (paper §4.1) ------------------------------------------
    RelRank         => ("rel_rank",            [S], S, None, None, Some(RelGroup::All)),
    RelRankSector   => ("rel_rank_sector",     [S], S, None, None, Some(RelGroup::Sector)),
    RelRankIndustry => ("rel_rank_industry",   [S], S, None, None, Some(RelGroup::Industry)),
    RelDemean         => ("rel_demean",          [S], S, None, None, Some(RelGroup::All)),
    RelDemeanSector   => ("rel_demean_sector",   [S], S, None, None, Some(RelGroup::Sector)),
    RelDemeanIndustry => ("rel_demean_industry", [S], S, None, None, Some(RelGroup::Industry)),
}

impl Op {
    /// True for the cross-sectional RelationOps, which the lockstep
    /// interpreter executes across all stocks at once.
    pub fn is_relation(self) -> bool {
        self.relation_group().is_some()
    }

    /// True for the paper's ExtractionOps.
    pub fn is_extraction(self) -> bool {
        matches!(self, Op::MGet | Op::MGetRow | Op::MGetCol)
    }

    /// True for a ranking RelationOp (vs a demeaning one).
    pub fn is_rank(self) -> bool {
        matches!(self, Op::RelRank | Op::RelRankSector | Op::RelRankIndustry)
    }

    /// True when the op draws from the RNG at execution time.
    pub fn is_stochastic(self) -> bool {
        matches!(
            self,
            Op::SUniform | Op::SGauss | Op::VUniform | Op::VGauss | Op::MUniform | Op::MGauss
        )
    }
}

/// Sums from `+0.0`, as the columnar kernels do (they accumulate into a
/// zero-filled plane). The standard float `Sum` starts from `-0.0`, so a
/// sum whose every term is `-0.0` would come out `-0.0` here but `0.0`
/// there.
trait SumFromZero: Iterator<Item = f64> + Sized {
    fn sum_from_zero(self) -> f64 {
        self.fold(0.0, |s, x| s + x)
    }
}

impl<I: Iterator<Item = f64>> SumFromZero for I {}

fn population_std(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mean = xs.iter().copied().sum_from_zero() / n;
    (xs.iter().map(|x| (x - mean) * (x - mean)).sum_from_zero() / n).sqrt()
}

/// Uniform draw with reordered/degenerate bounds handled; shared by the
/// lockstep and columnar kernels so both consume identical RNG streams.
pub(crate) fn uniform_in(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    let (a, b) = if lo <= hi { (lo, hi) } else { (hi, lo) };
    if a == b {
        a
    } else {
        rng.gen_range(a..b)
    }
}

/// Executes one non-relation instruction against a single stock's bank.
///
/// `scratch_v`/`scratch_m` must be at least `dim` / `dim²` long; they are
/// used whenever the output register could alias an input register.
///
/// The lockstep oracle's kernel only.
///
/// # Panics
/// Debug-panics on relation ops — those are handled by the interpreter.
pub fn execute_local(
    instr: &Instruction,
    mem: &mut MemoryBank,
    rng: &mut SmallRng,
    scratch_v: &mut [f64],
    scratch_m: &mut [f64],
) {
    debug_assert!(
        !instr.op.is_relation(),
        "relation ops need cross-sectional execution"
    );
    let dim = mem.dim();
    let n2 = dim * dim;
    let a = instr.in1 as usize;
    let b = instr.in2 as usize;
    let o = instr.out as usize;
    let [lit0, lit1] = instr.lit;
    let ix0 = instr.ix[0] as usize;
    let ix1 = instr.ix[1] as usize;

    match instr.op {
        Op::NoOp => {}

        // -- scalar ----------------------------------------------------
        Op::SConst => mem.s[o] = lit0,
        Op::SUniform => mem.s[o] = uniform_in(rng, lit0, lit1),
        Op::SGauss => mem.s[o] = normal(rng, lit0, lit1.abs()),
        Op::SAdd => mem.s[o] = mem.s[a] + mem.s[b],
        Op::SSub => mem.s[o] = mem.s[a] - mem.s[b],
        Op::SMul => mem.s[o] = mem.s[a] * mem.s[b],
        Op::SDiv => mem.s[o] = mem.s[a] / mem.s[b],
        Op::SMin => mem.s[o] = mem.s[a].min(mem.s[b]),
        Op::SMax => mem.s[o] = mem.s[a].max(mem.s[b]),
        Op::SAbs => mem.s[o] = mem.s[a].abs(),
        Op::SInv => mem.s[o] = 1.0 / mem.s[a],
        // Transcendentals go through the shared polynomial kernels so the
        // lockstep oracle stays bit-identical to the columnar engine.
        Op::SSin => mem.s[o] = crate::kernels::sin(mem.s[a]),
        Op::SCos => mem.s[o] = crate::kernels::cos(mem.s[a]),
        Op::STan => mem.s[o] = crate::kernels::tan(mem.s[a]),
        Op::SArcSin => mem.s[o] = crate::kernels::asin(mem.s[a]),
        Op::SArcCos => mem.s[o] = crate::kernels::acos(mem.s[a]),
        Op::SArcTan => mem.s[o] = crate::kernels::atan(mem.s[a]),
        Op::SExp => mem.s[o] = crate::kernels::exp(mem.s[a]),
        Op::SLn => mem.s[o] = crate::kernels::ln(mem.s[a]),
        Op::SHeaviside => mem.s[o] = if mem.s[a] > 0.0 { 1.0 } else { 0.0 },

        // -- vector ----------------------------------------------------
        Op::VConst => mem.vec_mut(o).fill(lit0),
        Op::VUniform => {
            for x in mem.vec_mut(o) {
                *x = uniform_in(rng, lit0, lit1);
            }
        }
        Op::VGauss => {
            for x in mem.vec_mut(o) {
                *x = normal(rng, lit0, lit1.abs());
            }
        }
        Op::VAdd | Op::VSub | Op::VMul | Op::VDiv | Op::VMin | Op::VMax => {
            let s = &mut scratch_v[..dim];
            {
                let va = mem.vec(a);
                let vb = mem.vec(b);
                for i in 0..dim {
                    s[i] = match instr.op {
                        Op::VAdd => va[i] + vb[i],
                        Op::VSub => va[i] - vb[i],
                        Op::VMul => va[i] * vb[i],
                        Op::VDiv => va[i] / vb[i],
                        Op::VMin => va[i].min(vb[i]),
                        _ => va[i].max(vb[i]),
                    };
                }
            }
            mem.vec_mut(o).copy_from_slice(s);
        }
        Op::VAbs => {
            let s = &mut scratch_v[..dim];
            for (i, x) in mem.vec(a).iter().enumerate() {
                s[i] = x.abs();
            }
            mem.vec_mut(o).copy_from_slice(s);
        }
        Op::VHeaviside => {
            let s = &mut scratch_v[..dim];
            for (i, x) in mem.vec(a).iter().enumerate() {
                s[i] = if *x > 0.0 { 1.0 } else { 0.0 };
            }
            mem.vec_mut(o).copy_from_slice(s);
        }
        Op::SVScale => {
            let c = mem.s[a];
            let s = &mut scratch_v[..dim];
            for (i, x) in mem.vec(b).iter().enumerate() {
                s[i] = c * x;
            }
            mem.vec_mut(o).copy_from_slice(s);
        }
        Op::VBroadcast => {
            let c = mem.s[a];
            mem.vec_mut(o).fill(c);
        }
        Op::VNorm => mem.s[o] = mem.vec(a).iter().map(|x| x * x).sum_from_zero().sqrt(),
        Op::VMean => mem.s[o] = mem.vec(a).iter().copied().sum_from_zero() / dim as f64,
        Op::VStd => mem.s[o] = population_std(mem.vec(a)),
        Op::VSum => mem.s[o] = mem.vec(a).iter().copied().sum_from_zero(),
        Op::TsRank => {
            // Rank of the newest element (last slot) within the vector,
            // normalized to [0, 1]; ties count half.
            let v = mem.vec(a);
            let last = v[dim - 1];
            let mut below = 0.0;
            for &x in &v[..dim - 1] {
                if x < last {
                    below += 1.0;
                } else if x == last {
                    below += 0.5;
                }
            }
            mem.s[o] = below / (dim - 1) as f64;
        }
        Op::VDot => {
            mem.s[o] = mem
                .vec(a)
                .iter()
                .zip(mem.vec(b))
                .map(|(x, y)| x * y)
                .sum_from_zero();
        }
        Op::VGet => mem.s[o] = mem.vec(a)[ix0],
        Op::VOuter => {
            let s = &mut scratch_m[..n2];
            {
                let va = mem.vec(a);
                let vb = mem.vec(b);
                for r in 0..dim {
                    for c in 0..dim {
                        s[r * dim + c] = va[r] * vb[c];
                    }
                }
            }
            mem.mat_mut(o).copy_from_slice(s);
        }
        Op::MatVec => {
            let s = &mut scratch_v[..dim];
            {
                let ma = mem.mat(a);
                let vb = mem.vec(b);
                for r in 0..dim {
                    s[r] = (0..dim).map(|c| ma[r * dim + c] * vb[c]).sum_from_zero();
                }
            }
            mem.vec_mut(o).copy_from_slice(s);
        }

        // -- matrix ----------------------------------------------------
        Op::MConst => mem.mat_mut(o).fill(lit0),
        Op::MUniform => {
            for x in mem.mat_mut(o) {
                *x = uniform_in(rng, lit0, lit1);
            }
        }
        Op::MGauss => {
            for x in mem.mat_mut(o) {
                *x = normal(rng, lit0, lit1.abs());
            }
        }
        Op::MAdd | Op::MSub | Op::MMul | Op::MDiv | Op::MMin | Op::MMax => {
            let s = &mut scratch_m[..n2];
            {
                let ma = mem.mat(a);
                let mb = mem.mat(b);
                for i in 0..n2 {
                    s[i] = match instr.op {
                        Op::MAdd => ma[i] + mb[i],
                        Op::MSub => ma[i] - mb[i],
                        Op::MMul => ma[i] * mb[i],
                        Op::MDiv => ma[i] / mb[i],
                        Op::MMin => ma[i].min(mb[i]),
                        _ => ma[i].max(mb[i]),
                    };
                }
            }
            mem.mat_mut(o).copy_from_slice(s);
        }
        Op::MAbs => {
            let s = &mut scratch_m[..n2];
            for (i, x) in mem.mat(a).iter().enumerate() {
                s[i] = x.abs();
            }
            mem.mat_mut(o).copy_from_slice(s);
        }
        Op::MHeaviside => {
            let s = &mut scratch_m[..n2];
            for (i, x) in mem.mat(a).iter().enumerate() {
                s[i] = if *x > 0.0 { 1.0 } else { 0.0 };
            }
            mem.mat_mut(o).copy_from_slice(s);
        }
        Op::MTranspose => {
            let s = &mut scratch_m[..n2];
            {
                let ma = mem.mat(a);
                for r in 0..dim {
                    for c in 0..dim {
                        s[c * dim + r] = ma[r * dim + c];
                    }
                }
            }
            mem.mat_mut(o).copy_from_slice(s);
        }
        Op::MatMul => {
            let s = &mut scratch_m[..n2];
            {
                let ma = mem.mat(a);
                let mb = mem.mat(b);
                for r in 0..dim {
                    for c in 0..dim {
                        let mut acc = 0.0;
                        for k in 0..dim {
                            acc += ma[r * dim + k] * mb[k * dim + c];
                        }
                        s[r * dim + c] = acc;
                    }
                }
            }
            mem.mat_mut(o).copy_from_slice(s);
        }
        Op::SMScale => {
            let c = mem.s[a];
            let s = &mut scratch_m[..n2];
            for (i, x) in mem.mat(b).iter().enumerate() {
                s[i] = c * x;
            }
            mem.mat_mut(o).copy_from_slice(s);
        }
        Op::MBroadcast => {
            let s = &mut scratch_m[..n2];
            {
                let va = mem.vec(a);
                for r in 0..dim {
                    for c in 0..dim {
                        // axis 0: tile v across rows (row r is v);
                        // axis 1: tile v across columns (col c is v).
                        s[r * dim + c] = if ix0 == 0 { va[c] } else { va[r] };
                    }
                }
            }
            mem.mat_mut(o).copy_from_slice(s);
        }
        Op::MNorm => mem.s[o] = mem.mat(a).iter().map(|x| x * x).sum_from_zero().sqrt(),
        Op::MMean => mem.s[o] = mem.mat(a).iter().copied().sum_from_zero() / n2 as f64,
        Op::MStd => mem.s[o] = population_std(mem.mat(a)),
        Op::MNormAxis | Op::MMeanAxis | Op::MStdAxis => {
            let s = &mut scratch_v[..dim];
            {
                let ma = mem.mat(a);
                for i in 0..dim {
                    // axis 0 reduces over rows (output indexed by column),
                    // axis 1 reduces over columns (output indexed by row) —
                    // NumPy convention.
                    let gather = |k: usize| {
                        if ix0 == 0 {
                            ma[k * dim + i]
                        } else {
                            ma[i * dim + k]
                        }
                    };
                    s[i] = match instr.op {
                        Op::MNormAxis => (0..dim)
                            .map(|k| gather(k) * gather(k))
                            .sum_from_zero()
                            .sqrt(),
                        Op::MMeanAxis => (0..dim).map(gather).sum_from_zero() / dim as f64,
                        _ => {
                            let mean = (0..dim).map(gather).sum_from_zero() / dim as f64;
                            ((0..dim)
                                .map(|k| (gather(k) - mean) * (gather(k) - mean))
                                .sum_from_zero()
                                / dim as f64)
                                .sqrt()
                        }
                    };
                }
            }
            mem.vec_mut(o).copy_from_slice(s);
        }
        Op::MGet => mem.s[o] = mem.mat(a)[ix0 * dim + ix1],
        Op::MGetRow => {
            let s = &mut scratch_v[..dim];
            s.copy_from_slice(&mem.mat(a)[ix0 * dim..(ix0 + 1) * dim]);
            mem.vec_mut(o).copy_from_slice(s);
        }
        Op::MGetCol => {
            let s = &mut scratch_v[..dim];
            {
                let ma = mem.mat(a);
                for r in 0..dim {
                    s[r] = ma[r * dim + ix0];
                }
            }
            mem.vec_mut(o).copy_from_slice(s);
        }

        // -- relation ops: handled by the interpreter -------------------
        Op::RelRank
        | Op::RelRankSector
        | Op::RelRankIndustry
        | Op::RelDemean
        | Op::RelDemeanSector
        | Op::RelDemeanIndustry => {
            debug_assert!(false, "relation op reached execute_local");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (MemoryBank, SmallRng, Vec<f64>, Vec<f64>) {
        let dim = 4;
        (
            MemoryBank::new(10, 16, 4, dim),
            SmallRng::seed_from_u64(0),
            vec![0.0; dim],
            vec![0.0; dim * dim],
        )
    }

    fn run(instr: Instruction, mem: &mut MemoryBank) {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut sv = vec![0.0; mem.dim()];
        let mut sm = vec![0.0; mem.dim() * mem.dim()];
        execute_local(&instr, mem, &mut rng, &mut sv, &mut sm);
    }

    fn instr(op: Op, in1: u8, in2: u8, out: u8) -> Instruction {
        Instruction {
            op,
            in1,
            in2,
            out,
            lit: [0.0; 2],
            ix: [0; 2],
        }
    }

    #[test]
    fn every_op_has_unique_name() {
        let mut names = std::collections::HashSet::new();
        for &op in Op::ALL {
            assert!(names.insert(op.name()), "duplicate name {}", op.name());
            assert_eq!(Op::from_name(op.name()), Some(op));
        }
        assert_eq!(Op::ALL.len(), 73);
    }

    #[test]
    fn relation_ops_flagged() {
        assert!(Op::RelRank.is_relation());
        assert!(Op::RelDemeanSector.is_relation());
        assert!(!Op::SAdd.is_relation());
        assert_eq!(Op::ALL.iter().filter(|o| o.is_relation()).count(), 6);
        assert_eq!(Op::ALL.iter().filter(|o| o.is_extraction()).count(), 3);
    }

    #[test]
    fn scalar_arithmetic() {
        let (mut mem, ..) = setup();
        mem.s[2] = 3.0;
        mem.s[3] = 4.0;
        run(instr(Op::SAdd, 2, 3, 4), &mut mem);
        assert_eq!(mem.s[4], 7.0);
        run(instr(Op::SDiv, 2, 3, 5), &mut mem);
        assert_eq!(mem.s[5], 0.75);
        run(instr(Op::SMin, 2, 3, 6), &mut mem);
        assert_eq!(mem.s[6], 3.0);
    }

    #[test]
    fn division_by_zero_is_unprotected() {
        let (mut mem, ..) = setup();
        mem.s[2] = 1.0;
        run(instr(Op::SDiv, 2, 3, 4), &mut mem); // s3 = 0
        assert!(mem.s[4].is_infinite());
        run(instr(Op::SLn, 3, 0, 5), &mut mem); // ln(0) = -inf
        assert!(mem.s[5].is_infinite());
    }

    #[test]
    fn heaviside_semantics() {
        let (mut mem, ..) = setup();
        mem.s[2] = 0.5;
        run(instr(Op::SHeaviside, 2, 0, 4), &mut mem);
        assert_eq!(mem.s[4], 1.0);
        mem.s[2] = 0.0;
        run(instr(Op::SHeaviside, 2, 0, 4), &mut mem);
        assert_eq!(mem.s[4], 0.0);
        mem.s[2] = -0.1;
        run(instr(Op::SHeaviside, 2, 0, 4), &mut mem);
        assert_eq!(mem.s[4], 0.0);
    }

    #[test]
    fn vector_ops_alias_safe() {
        let (mut mem, ..) = setup();
        mem.vec_mut(1).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        // v1 = v1 + v1 must double every element even though out aliases in.
        run(instr(Op::VAdd, 1, 1, 1), &mut mem);
        assert_eq!(mem.vec(1), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn matmul_identity() {
        let (mut mem, ..) = setup();
        let dim = 4;
        for i in 0..dim {
            mem.mat_mut(1)[i * dim + i] = 1.0;
        }
        for (i, x) in mem.mat_mut(2).iter_mut().enumerate() {
            *x = i as f64;
        }
        run(instr(Op::MatMul, 1, 2, 3), &mut mem);
        let expect: Vec<f64> = (0..16).map(|i| i as f64).collect();
        assert_eq!(mem.mat(3), &expect[..]);
    }

    #[test]
    fn matmul_alias_safe() {
        let (mut mem, ..) = setup();
        let dim = 4;
        for i in 0..dim {
            mem.mat_mut(1)[i * dim + i] = 2.0;
        }
        // m1 = m1 x m1 -> 4*I
        run(instr(Op::MatMul, 1, 1, 1), &mut mem);
        for r in 0..dim {
            for c in 0..dim {
                let expect = if r == c { 4.0 } else { 0.0 };
                assert_eq!(mem.mat(1)[r * dim + c], expect);
            }
        }
    }

    #[test]
    fn transpose_round_trip() {
        let (mut mem, ..) = setup();
        for (i, x) in mem.mat_mut(1).iter_mut().enumerate() {
            *x = i as f64;
        }
        let orig = mem.mat(1).to_vec();
        run(instr(Op::MTranspose, 1, 0, 1), &mut mem);
        run(instr(Op::MTranspose, 1, 0, 1), &mut mem);
        assert_eq!(mem.mat(1), &orig[..]);
    }

    #[test]
    fn extraction_ops() {
        let (mut mem, ..) = setup();
        let dim = 4;
        for (i, x) in mem.mat_mut(0).iter_mut().enumerate() {
            *x = i as f64;
        }
        let mut get = instr(Op::MGet, 0, 0, 3);
        get.ix = [2, 1];
        run(get, &mut mem);
        assert_eq!(mem.s[3], (2 * dim + 1) as f64);

        let mut row = instr(Op::MGetRow, 0, 0, 2);
        row.ix = [1, 0];
        run(row, &mut mem);
        assert_eq!(mem.vec(2), &[4.0, 5.0, 6.0, 7.0]);

        let mut col = instr(Op::MGetCol, 0, 0, 3);
        col.ix = [2, 0];
        run(col, &mut mem);
        assert_eq!(mem.vec(3), &[2.0, 6.0, 10.0, 14.0]);
    }

    #[test]
    fn axis_reductions_follow_numpy_convention() {
        let (mut mem, ..) = setup();
        let dim = 4;
        // m1[r][c] = r (constant along columns)
        for r in 0..dim {
            for c in 0..dim {
                mem.mat_mut(1)[r * dim + c] = r as f64;
            }
        }
        let mut mean0 = instr(Op::MMeanAxis, 1, 0, 2);
        mean0.ix = [0, 0]; // reduce over rows -> mean per column = 1.5
        run(mean0, &mut mem);
        assert_eq!(mem.vec(2), &[1.5, 1.5, 1.5, 1.5]);

        let mut mean1 = instr(Op::MMeanAxis, 1, 0, 3);
        mean1.ix = [1, 0]; // reduce over columns -> mean per row = r
        run(mean1, &mut mem);
        assert_eq!(mem.vec(3), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn broadcast_axes() {
        let (mut mem, ..) = setup();
        mem.vec_mut(1).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let mut b0 = instr(Op::MBroadcast, 1, 0, 1);
        b0.ix = [0, 0];
        run(b0, &mut mem);
        // Every row equals v.
        assert_eq!(&mem.mat(1)[0..4], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(&mem.mat(1)[4..8], &[1.0, 2.0, 3.0, 4.0]);

        mem.vec_mut(1).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let mut b1 = instr(Op::MBroadcast, 1, 0, 2);
        b1.ix = [1, 0];
        run(b1, &mut mem);
        // Every column equals v: row r is constant v[r].
        assert_eq!(&mem.mat(2)[0..4], &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(&mem.mat(2)[4..8], &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn ts_rank_of_newest_element() {
        let (mut mem, ..) = setup();
        mem.vec_mut(1).copy_from_slice(&[5.0, 1.0, 3.0, 4.0]);
        run(instr(Op::TsRank, 1, 0, 2), &mut mem);
        // Elements below 4.0: {1.0, 3.0} -> 2/3.
        assert!((mem.s[2] - 2.0 / 3.0).abs() < 1e-12);
        mem.vec_mut(1).copy_from_slice(&[9.0, 9.0, 9.0, 9.0]);
        run(instr(Op::TsRank, 1, 0, 2), &mut mem);
        assert!(
            (mem.s[2] - 0.5).abs() < 1e-12,
            "all ties rank at the middle"
        );
    }

    #[test]
    fn stochastic_ops_respect_bounds() {
        let (mut mem, mut rng, mut sv, mut sm) = setup();
        let mut u = instr(Op::SUniform, 0, 0, 3);
        u.lit = [-0.5, 0.5];
        for _ in 0..100 {
            execute_local(&u, &mut mem, &mut rng, &mut sv, &mut sm);
            assert!(mem.s[3] >= -0.5 && mem.s[3] < 0.5);
        }
        // Swapped bounds are reordered, equal bounds degenerate.
        let mut v = instr(Op::SUniform, 0, 0, 3);
        v.lit = [0.5, -0.5];
        execute_local(&v, &mut mem, &mut rng, &mut sv, &mut sm);
        assert!(mem.s[3] >= -0.5 && mem.s[3] < 0.5);
        let mut w = instr(Op::SUniform, 0, 0, 3);
        w.lit = [0.25, 0.25];
        execute_local(&w, &mut mem, &mut rng, &mut sv, &mut sm);
        assert_eq!(mem.s[3], 0.25);
    }

    #[test]
    fn gauss_ops_deterministic_per_seed() {
        let dim = 4;
        let mut g = instr(Op::VGauss, 0, 0, 1);
        g.lit = [0.0, 1.0];
        let run_with_seed = |seed: u64| {
            let mut mem = MemoryBank::new(10, 16, 4, dim);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut sv = vec![0.0; dim];
            let mut sm = vec![0.0; dim * dim];
            execute_local(&g, &mut mem, &mut rng, &mut sv, &mut sm);
            mem.vec(1).to_vec()
        };
        assert_eq!(run_with_seed(7), run_with_seed(7));
        assert_ne!(run_with_seed(7), run_with_seed(8));
    }

    #[test]
    fn outer_product() {
        let (mut mem, ..) = setup();
        mem.vec_mut(1).copy_from_slice(&[1.0, 2.0, 0.0, 0.0]);
        mem.vec_mut(2).copy_from_slice(&[3.0, 4.0, 0.0, 0.0]);
        run(instr(Op::VOuter, 1, 2, 2), &mut mem);
        assert_eq!(mem.mat(2)[0], 3.0);
        assert_eq!(mem.mat(2)[1], 4.0);
        assert_eq!(mem.mat(2)[4], 6.0);
        assert_eq!(mem.mat(2)[5], 8.0);
    }

    #[test]
    fn mat_vec_product() {
        let (mut mem, ..) = setup();
        let dim = 4;
        for i in 0..dim {
            mem.mat_mut(1)[i * dim + i] = (i + 1) as f64;
        }
        mem.vec_mut(1).copy_from_slice(&[1.0, 1.0, 1.0, 1.0]);
        run(instr(Op::MatVec, 1, 1, 1), &mut mem);
        assert_eq!(mem.vec(1), &[1.0, 2.0, 3.0, 4.0]);
    }
}
