//! Ergonomic construction of IR functions.
//!
//! [`FunctionBuilder`] owns a function under construction, tracks the
//! "current" block, allocates typed value ids, and provides one method per
//! instruction. Types are computed at emission time so that the finished
//! function always has a complete value-type table.
//!
//! # Examples
//!
//! Build `kernel void double(global float* buf)` that doubles one element per
//! work item:
//!
//! ```
//! use kernel_ir::builder::FunctionBuilder;
//! use kernel_ir::ir::{BinOp, FunctionKind, WiBuiltin};
//! use kernel_ir::types::{AddressSpace, Type};
//!
//! let mut b = FunctionBuilder::new("double", FunctionKind::Kernel, Type::Void);
//! let buf = b.add_param("buf", Type::ptr(AddressSpace::Global, Type::F32));
//! let gid = b.work_item(WiBuiltin::GlobalId, 0);
//! let p = b.gep(buf, gid);
//! let v = b.load(p);
//! let two = b.const_f32(2.0);
//! let d = b.bin(BinOp::Mul, v, two);
//! b.store(p, d);
//! b.ret(None);
//! let func = b.finish();
//! assert_eq!(func.insn_count(), 6);
//! ```

use crate::ir::{
    AtomicOp, BinOp, Block, BlockId, CmpOp, ConstVal, Function, FunctionKind, Inst, Op, Param,
    Terminator, UnOp, ValueId, WiBuiltin,
};
use crate::types::{AddressSpace, Type};

/// Incremental builder for one [`Function`].
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    current: BlockId,
    span: Option<(u32, u32)>,
}

impl FunctionBuilder {
    /// Start a function with an empty entry block selected.
    pub fn new(name: impl Into<String>, kind: FunctionKind, ret: Type) -> Self {
        FunctionBuilder {
            func: Function {
                name: name.into(),
                kind,
                params: Vec::new(),
                ret,
                value_types: Vec::new(),
                blocks: vec![Block::new()],
            },
            current: BlockId(0),
            span: None,
        }
    }

    /// Set the source span (`(line, col)`, 1-based) stamped on subsequently
    /// emitted instructions; `None` clears it. Front ends call this per
    /// statement/expression so diagnostics can point at source text.
    pub fn set_span(&mut self, span: Option<(u32, u32)>) {
        self.span = span;
    }

    /// Append a parameter; must be called before any instruction is emitted.
    ///
    /// # Panics
    ///
    /// Panics if instructions have already been emitted (parameters must be
    /// the first value ids).
    pub fn add_param(&mut self, name: impl Into<String>, ty: Type) -> ValueId {
        assert_eq!(
            self.func.value_types.len(),
            self.func.params.len(),
            "parameters must be added before instructions"
        );
        let id = ValueId(self.func.value_types.len() as u32);
        self.func.params.push(Param {
            name: name.into(),
            ty: ty.clone(),
        });
        self.func.value_types.push(ty);
        id
    }

    /// Create a new, empty block (does not change the insertion point).
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.func.blocks.len() as u32);
        self.func.blocks.push(Block::new());
        id
    }

    /// Move the insertion point to `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        assert!(
            block.index() < self.func.blocks.len(),
            "unknown block {block}"
        );
        self.current = block;
    }

    /// Type of an already-created value.
    pub fn type_of(&self, v: ValueId) -> &Type {
        self.func.value_type(v)
    }

    fn fresh(&mut self, ty: Type) -> ValueId {
        let id = ValueId(self.func.value_types.len() as u32);
        self.func.value_types.push(ty);
        id
    }

    fn push(&mut self, mut inst: Inst) {
        let blk = &mut self.func.blocks[self.current.index()];
        assert!(
            blk.term.is_none(),
            "appending to a terminated block {}",
            self.current
        );
        inst.span = self.span;
        blk.insts.push(inst);
    }

    fn emit(&mut self, ty: Type, op: Op) -> ValueId {
        let id = self.fresh(ty);
        self.push(Inst::new(Some(id), op));
        id
    }

    fn emit_void(&mut self, op: Op) {
        self.push(Inst::new(None, op));
    }

    /// Emit a constant.
    pub fn constant(&mut self, c: ConstVal) -> ValueId {
        let ty = c.ty();
        self.emit(ty, Op::Const(c))
    }

    /// Shorthand for an `i32` constant.
    pub fn const_i32(&mut self, v: i32) -> ValueId {
        self.constant(ConstVal::I32(v))
    }

    /// Shorthand for an `i64` constant.
    pub fn const_i64(&mut self, v: i64) -> ValueId {
        self.constant(ConstVal::I64(v))
    }

    /// Shorthand for an `f32` constant.
    pub fn const_f32(&mut self, v: f32) -> ValueId {
        self.constant(ConstVal::F32(v))
    }

    /// Shorthand for an `f64` constant.
    pub fn const_f64(&mut self, v: f64) -> ValueId {
        self.constant(ConstVal::F64(v))
    }

    /// Shorthand for a `bool` constant.
    pub fn const_bool(&mut self, v: bool) -> ValueId {
        self.constant(ConstVal::Bool(v))
    }

    /// Binary operation; result has the type of `lhs`.
    pub fn bin(&mut self, op: BinOp, lhs: ValueId, rhs: ValueId) -> ValueId {
        let ty = self.type_of(lhs).clone();
        self.emit(ty, Op::Bin(op, lhs, rhs))
    }

    /// Unary operation; result keeps the operand type.
    pub fn un(&mut self, op: UnOp, v: ValueId) -> ValueId {
        let ty = self.type_of(v).clone();
        self.emit(ty, Op::Un(op, v))
    }

    /// Comparison producing `bool`.
    pub fn cmp(&mut self, op: CmpOp, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.emit(Type::Bool, Op::Cmp(op, lhs, rhs))
    }

    /// `select(cond, a, b)`; result has the type of `a`.
    pub fn select(&mut self, cond: ValueId, a: ValueId, b: ValueId) -> ValueId {
        let ty = self.type_of(a).clone();
        self.emit(ty, Op::Select(cond, a, b))
    }

    /// Numeric or pointer-compatible conversion to `ty`.
    pub fn cast(&mut self, ty: Type, v: ValueId) -> ValueId {
        self.emit(ty.clone(), Op::Cast(ty, v))
    }

    /// Allocate `count` elements of `elem` in `space`; yields a pointer.
    pub fn alloca(&mut self, elem: Type, count: u32, space: AddressSpace) -> ValueId {
        let ty = Type::ptr(space, elem.clone());
        self.emit(ty, Op::Alloca { elem, count, space })
    }

    /// Load through `ptr`; result is the pointee type.
    ///
    /// # Panics
    ///
    /// Panics if `ptr` is not a pointer-typed value.
    pub fn load(&mut self, ptr: ValueId) -> ValueId {
        let ty = self
            .type_of(ptr)
            .pointee()
            .unwrap_or_else(|| panic!("load through non-pointer {ptr}"))
            .clone();
        self.emit(ty, Op::Load(ptr))
    }

    /// Store `value` through `ptr`.
    pub fn store(&mut self, ptr: ValueId, value: ValueId) {
        self.emit_void(Op::Store { ptr, value });
    }

    /// Pointer element arithmetic.
    pub fn gep(&mut self, ptr: ValueId, index: ValueId) -> ValueId {
        let ty = self.type_of(ptr).clone();
        self.emit(ty, Op::Gep { ptr, index })
    }

    /// Call `callee` with `args`; `ret` is the callee's return type (the
    /// builder cannot see other functions, so the caller supplies it).
    pub fn call(
        &mut self,
        callee: impl Into<String>,
        args: Vec<ValueId>,
        ret: Type,
    ) -> Option<ValueId> {
        if ret == Type::Void {
            self.emit_void(Op::Call {
                callee: callee.into(),
                args,
            });
            None
        } else {
            Some(self.emit(
                ret,
                Op::Call {
                    callee: callee.into(),
                    args,
                },
            ))
        }
    }

    /// Work-item builtin; all builtins return `i64` (`size_t`).
    pub fn work_item(&mut self, builtin: WiBuiltin, dim: u8) -> ValueId {
        self.emit(Type::I64, Op::WorkItem { builtin, dim })
    }

    /// Atomic read-modify-write; returns the previous value (pointee type).
    ///
    /// # Panics
    ///
    /// Panics if `ptr` is not a pointer-typed value.
    pub fn atomic_rmw(&mut self, op: AtomicOp, ptr: ValueId, value: ValueId) -> ValueId {
        let ty = self
            .type_of(ptr)
            .pointee()
            .unwrap_or_else(|| panic!("atomic through non-pointer {ptr}"))
            .clone();
        self.emit(ty, Op::AtomicRmw { op, ptr, value })
    }

    /// Atomic compare-exchange; returns the previous value (pointee type).
    ///
    /// # Panics
    ///
    /// Panics if `ptr` is not a pointer-typed value.
    pub fn atomic_cmpxchg(&mut self, ptr: ValueId, expected: ValueId, desired: ValueId) -> ValueId {
        let ty = self
            .type_of(ptr)
            .pointee()
            .unwrap_or_else(|| panic!("atomic through non-pointer {ptr}"))
            .clone();
        self.emit(
            ty,
            Op::AtomicCmpXchg {
                ptr,
                expected,
                desired,
            },
        )
    }

    /// Work-group barrier.
    pub fn barrier(&mut self) {
        self.emit_void(Op::Barrier);
    }

    fn terminate(&mut self, term: Terminator) {
        let blk = &mut self.func.blocks[self.current.index()];
        assert!(
            blk.term.is_none(),
            "block {} already terminated",
            self.current
        );
        blk.term = Some(term);
    }

    /// Unconditional branch; terminates the current block.
    pub fn br(&mut self, target: BlockId) {
        self.terminate(Terminator::Br(target));
    }

    /// Conditional branch; terminates the current block.
    pub fn cond_br(&mut self, cond: ValueId, then_bb: BlockId, else_bb: BlockId) {
        self.terminate(Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        });
    }

    /// Return; terminates the current block.
    pub fn ret(&mut self, value: Option<ValueId>) {
        self.terminate(Terminator::Ret(value));
    }

    /// Whether the current block already has a terminator.
    pub fn is_terminated(&self) -> bool {
        self.func.blocks[self.current.index()].term.is_some()
    }

    /// Finish and return the function.
    ///
    /// # Panics
    ///
    /// Panics if any block lacks a terminator.
    pub fn finish(self) -> Function {
        for (i, b) in self.func.blocks.iter().enumerate() {
            assert!(
                b.term.is_some(),
                "block bb{i} of `{}` lacks a terminator",
                self.func.name
            );
        }
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_branching_function() {
        // fn f(x: i32) -> i32 { if x < 0 { -x } else { x } } via an alloca cell.
        let mut b = FunctionBuilder::new("abs_like", FunctionKind::Helper, Type::I32);
        let x = b.add_param("x", Type::I32);
        let cell = b.alloca(Type::I32, 1, AddressSpace::Private);
        let zero = b.const_i32(0);
        let neg = b.cmp(CmpOp::Lt, x, zero);
        let t = b.new_block();
        let e = b.new_block();
        let join = b.new_block();
        b.cond_br(neg, t, e);
        b.switch_to(t);
        let nx = b.un(UnOp::Neg, x);
        b.store(cell, nx);
        b.br(join);
        b.switch_to(e);
        b.store(cell, x);
        b.br(join);
        b.switch_to(join);
        let v = b.load(cell);
        b.ret(Some(v));
        let f = b.finish();
        assert_eq!(f.blocks.len(), 4);
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.value_type(x), &Type::I32);
    }

    #[test]
    #[should_panic(expected = "lacks a terminator")]
    fn unterminated_block_rejected() {
        let b = FunctionBuilder::new("f", FunctionKind::Helper, Type::Void);
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_terminate_rejected() {
        let mut b = FunctionBuilder::new("f", FunctionKind::Helper, Type::Void);
        b.ret(None);
        b.ret(None);
    }

    #[test]
    #[should_panic(expected = "parameters must be added before instructions")]
    fn late_param_rejected() {
        let mut b = FunctionBuilder::new("f", FunctionKind::Helper, Type::Void);
        let _ = b.const_i32(1);
        let _ = b.add_param("x", Type::I32);
    }

    #[test]
    fn call_returns_none_for_void() {
        let mut b = FunctionBuilder::new("f", FunctionKind::Helper, Type::Void);
        assert!(b.call("g", vec![], Type::Void).is_none());
        assert!(b.call("h", vec![], Type::I32).is_some());
        b.ret(None);
        let f = b.finish();
        assert_eq!(f.insn_count(), 2);
    }
}
