//! # gevo-ir
//!
//! A register-based, PTX-like intermediate representation for GPU kernels,
//! designed from the ground up to be **mutated by evolutionary search**.
//! This crate is the IR substrate of a reproduction of:
//!
//! > *Understanding the Power of Evolutionary Computation for GPU Code
//! > Optimization*, Liou, Awan, Hofmeyr, Forrest, Wu — IISWC 2022.
//!
//! The paper evolves CUDA kernels at the LLVM-IR level. This reproduction
//! has no LLVM; instead, kernels are built with [`KernelBuilder`]
//! (playing the role of the Clang CUDA frontend), verified with
//! [`verify::verify`], executed and timed by the `gevo-gpu` simulator, and
//! mutated by `gevo-engine` through GEVO's operator set.
//!
//! Two properties make the IR evolution-friendly (see DESIGN.md §4):
//!
//! 1. **Stable instruction identities** ([`InstId`]): edits address
//!    instructions by ID, so any *subset* of an evolved patch can be
//!    applied to the pristine kernel — the foundation of the paper's
//!    Algorithm 1 (weak-edit minimization) and Algorithm 2
//!    (independent/epistatic separation).
//! 2. **Register machine, not SSA**: registers may be written repeatedly,
//!    so instruction deletion/duplication/motion never violates a
//!    dominance discipline; broken data flow shows up as *wrong values*
//!    (exactly like the garbage a real GPU produces), not as unusable IR.
//!
//! ## Quick tour
//!
//! ```
//! use gevo_ir::{KernelBuilder, AddrSpace, MemTy, Operand, Special, verify};
//!
//! // out[tid] = tid * 2
//! let mut b = KernelBuilder::new("double");
//! let out = b.param_ptr("out", AddrSpace::Global);
//! let tid = b.special_i32(Special::ThreadId);
//! let twice = b.add(tid.into(), tid.into());
//! let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
//! b.store(AddrSpace::Global, MemTy::I32, addr.into(), twice.into());
//! b.ret();
//! let kernel = b.finish();
//!
//! assert!(verify::verify(&kernel).is_ok());
//! println!("{kernel}");
//! ```

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::module_name_repetitions)]
#![allow(clippy::missing_panics_doc)]
// IR construction and printing mirror assembly conventions: terse
// register-style names and exhaustive per-op tables (which often share
// arms) are clearer here than the lint's suggestions.
#![allow(clippy::many_single_char_names)]
#![allow(clippy::match_same_arms)]
#![allow(clippy::too_many_lines)]
// f32 immediates are bit-stable by construction (`F32Bits`); exact
// comparison is the intended semantics.
#![allow(clippy::float_cmp)]

pub mod analysis;
pub mod builder;
pub mod cfg;
pub mod inst;
pub mod kernel;
mod print;
pub mod rng;
pub mod transform;
pub mod types;
pub mod verify;

pub use builder::KernelBuilder;
pub use cfg::Cfg;
pub use inst::{
    BlockId, F32Bits, FloatBinOp, InstId, Instr, IntBinOp, LocId, Op, Operand, Reg, Special,
    TermKind, Terminator, LOC_NONE,
};
pub use kernel::{Block, InstPos, Kernel, Param};
pub use rng::StreamState;
pub use types::{AddrSpace, CmpPred, MemTy, ParamTy, Ty};
pub use verify::VerifyError;
