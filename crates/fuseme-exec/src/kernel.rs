//! The fused-kernel interpreter and its routing oracle.
//!
//! A *kernel* (paper Fig. 8) is the fused computation of one output block:
//! it pulls the input blocks it touches from the task's local store and
//! evaluates the plan's operator DAG at block granularity, materializing
//! only per-block scratch. Three entry points share one recursion:
//!
//! * [`KernelCtx::eval`] — compute the value of a plan node at a block
//!   coordinate;
//! * [`KernelCtx::needs`] — collect the external-input block coordinates
//!   that evaluation would touch. It does not route: operators compute a
//!   task's routing from cuboid-space arithmetic over whole coordinate sets
//!   (`fused_op`), and this per-block recursion is the oracle that
//!   routing's property test compares against. Both are deliberately *not*
//!   sparsity-pruned: consolidation ships whole cuboid slices, matching the
//!   paper's partition-granular communication;
//! * [`KernelCtx::has_support`] — decide whether an output block can be
//!   non-zero at all; empty-gated blocks are skipped entirely, which is the
//!   block-level form of the paper's sparsity exploitation.
//!
//! Within a block, sparsity is exploited cell by cell (paper Fig. 1(a),
//! SystemML's Outer template). [`PlanRoles`] gives a zero-dominant product
//! (`*`) a *driver* when one operand has no multiplication under it — an
//! external leaf like `X` in NMF, or an in-plan operator like `(X != 0)` in
//! the ALS loss — and the other has one and is not memoized. When `eval`
//! reaches such a product and the driver's block is CSR, the other operand
//! is *sampled*: its sub-plan is evaluated only at the driver's stored
//! cells, down to a sampled dot product per cell at the multiplication
//! ([`Block::gemm_sampled_acc`]). The product keeps exactly the driver's
//! pattern, with every value bit-identical to the block path's for finite
//! data. A dense driver block, a zero product, and a stage-1 partial of a
//! two-stage run take the block path.
//!
//! How the recursion treats each node is fixed once per plan by its
//! [`PlanRoles`], shared by every task of the operator:
//!
//! * an *external* node (input leaf or materialized intermediate) is read
//!   straight from the task's [`LocalStore`] and never copied or memoized;
//! * a *scalar* literal is folded into its consumer;
//! * a member *operator* is memoized only when its value at one coordinate
//!   is read more than once: it is a multiplication operand, or it feeds
//!   two or more in-plan input slots (a diamond — the paper's Row template
//!   "scan X once, use twice"). Every other operator is computed exactly
//!   once per coordinate and dropped by its consumer, so an
//!   aggregation-rooted plan never holds its intermediate tile.
//!
//! The main matrix multiplication sums over the task's `k`-slice only; with
//! `R > 1` that produces a *partial* result which the aggregation stage
//! combines before the `O`-space operators run (see `fused_op`). Nested
//! multiplications always see their full common dimension locally — their
//! subspaces are confined, so the needed blocks were all routed.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

use fuseme_fusion::PartialPlan;
use fuseme_matrix::{BinOp, Block, DenseBlock, SparseBlock};
use fuseme_plan::{NodeId, OpKind, QueryDag};
use fuseme_sim::SimError;

/// Multiply-rotate hasher for the store's and the memo's keys. They are
/// engine-internal node ids and block coordinates, so they need no
/// flooding resistance, and SipHash dominated the per-block lookups.
#[derive(Default, Clone, Copy)]
struct CoordHasher(u64);

impl Hasher for CoordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type CoordMap<K, V> = HashMap<K, V, BuildHasherDefault<CoordHasher>>;

/// A task's local collection of input blocks, keyed by the plan node that
/// produced them (input leaf or materialized intermediate) and grid
/// coordinate.
#[derive(Debug, Default, Clone)]
pub struct LocalStore {
    blocks: CoordMap<(NodeId, (usize, usize)), Arc<Block>>,
}

impl LocalStore {
    /// An empty store.
    pub fn new() -> Self {
        LocalStore::default()
    }

    /// Installs a block for `(node, coord)`.
    pub fn insert(&mut self, node: NodeId, coord: (usize, usize), block: Arc<Block>) {
        self.blocks.insert((node, coord), block);
    }

    /// The block at `(node, coord)`, if present (absent = all-zero).
    pub fn get(&self, node: NodeId, coord: (usize, usize)) -> Option<&Arc<Block>> {
        self.blocks.get(&(node, coord))
    }

    /// Total bytes held (= what consolidation shipped to this task).
    pub fn total_bytes(&self) -> u64 {
        self.blocks.values().map(|b| b.size_bytes()).sum()
    }

    /// Bytes held for one input node (= that input's share of the task's
    /// consolidation traffic; what a replica-cache hit avoids re-shipping).
    pub fn node_bytes(&self, node: NodeId) -> u64 {
        self.blocks
            .iter()
            .filter(|((n, _), _)| *n == node)
            .map(|(_, b)| b.size_bytes())
            .sum()
    }

    /// The `(node, coord)` keys of every block held, in no particular order.
    pub fn keys(&self) -> impl Iterator<Item = (NodeId, (usize, usize))> + '_ {
        self.blocks.keys().copied()
    }

    /// Number of blocks held.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` when no blocks are held.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// How a kernel obtains the value of one plan node (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Role {
    /// Produced outside the plan: read from the task's store.
    External,
    /// A scalar literal, folded into its consumer.
    Scalar(f64),
    /// A member operator; `memo` when its value at one coordinate is read
    /// more than once per task.
    Op {
        /// Keep computed blocks for the task's lifetime.
        memo: bool,
    },
}

/// The role of every node for one fused plan, the plan's main
/// multiplication, and the driver of each sampled product. Built once per
/// operator and shared by all its tasks.
#[derive(Debug, Clone)]
pub struct PlanRoles {
    roles: Vec<Role>,
    main_mm: Option<NodeId>,
    /// For each zero-dominant product that can be sampled, the input slot
    /// (0 = left, 1 = right) of its driver.
    drivers: Vec<Option<usize>>,
}

impl PlanRoles {
    /// Assigns roles for `plan`: members are operators, memoized when an
    /// in-plan multiplication reads them or when they feed two or more
    /// in-plan input slots. A zero-dominant product gets a driver when one
    /// operand has no multiplication under it and the other has one and is
    /// not memoized.
    pub fn new(dag: &QueryDag, plan: &PartialPlan) -> Self {
        let mut roles: Vec<Role> = dag
            .nodes()
            .iter()
            .map(|n| match n.kind {
                OpKind::Scalar(v) => Role::Scalar(v),
                _ => Role::External,
            })
            .collect();
        for &op in &plan.ops {
            roles[op] = Role::Op { memo: false };
        }
        let mut slots = vec![0usize; roles.len()];
        for &op in &plan.ops {
            let n = dag.node(op);
            for &input in &n.inputs {
                if let Role::Op { memo } = &mut roles[input] {
                    slots[input] += 1;
                    *memo |= n.kind.is_matmul() || slots[input] > 1;
                }
            }
        }
        // Node ids are topological, so one ascending pass sees every
        // member's inputs before the member itself.
        let mut has_mm = vec![false; roles.len()];
        let mut drivers = vec![None; roles.len()];
        for &op in &plan.ops {
            let n = dag.node(op);
            has_mm[op] = n.kind.is_matmul() || n.inputs.iter().any(|&i| has_mm[i]);
            if let (OpKind::Binary(bop), &[l, r]) = (&n.kind, n.inputs.as_slice()) {
                let driver = match (has_mm[l], has_mm[r]) {
                    (false, true) => Some(0),
                    (true, false) => Some(1),
                    _ => None,
                };
                drivers[op] = driver.filter(|&d| {
                    let (gate, other) = (n.inputs[d], n.inputs[1 - d]);
                    bop.zero_dominant()
                        && !matches!(roles[gate], Role::Scalar(_))
                        && roles[other] == Role::Op { memo: false }
                });
            }
        }
        PlanRoles {
            roles,
            main_mm: plan.main_matmul(dag),
            drivers,
        }
    }

    /// The role of `node`.
    pub(crate) fn role(&self, node: NodeId) -> Role {
        self.roles[node]
    }
}

/// The cells a sampled evaluation computes: the stored entries of a CSR
/// driver block, in storage order, with each cell's coordinates swapped
/// under an odd number of transposes.
#[derive(Clone, Copy)]
struct Cells<'p> {
    pattern: &'p SparseBlock,
    transposed: bool,
}

impl Cells<'_> {
    fn len(&self) -> usize {
        self.pattern.nnz()
    }

    /// The value of `block` at every cell.
    fn gather(&self, block: &Block) -> Vec<f64> {
        self.pattern
            .iter()
            .map(|(r, c, _)| {
                if self.transposed {
                    block.get(c, r)
                } else {
                    block.get(r, c)
                }
            })
            .collect()
    }
}

/// One k-term of a multiplication: its left and right operand blocks.
type Term = (Arc<Block>, Arc<Block>);

/// Evaluation context for one task's kernels.
pub struct KernelCtx<'a> {
    dag: &'a QueryDag,
    /// How each node's value is obtained (kernel recursion stays inside the
    /// plan's operators; everything else comes from the store).
    roles: &'a PlanRoles,
    /// The task's k-slice for the main multiplication (block indices).
    k_range: Range<usize>,
    store: &'a LocalStore,
    /// Stage-2 override: fully aggregated main-multiplication blocks.
    mm_override: Option<&'a HashMap<(usize, usize), Arc<Block>>>,
    /// Values of operators whose role says `memo`.
    memo: CoordMap<(NodeId, usize, usize), Arc<Block>>,
    /// Blocks produced by sampled evaluation.
    #[cfg(test)]
    sampled: usize,
}

impl<'a> KernelCtx<'a> {
    /// Creates a context. `k_range` is the slice of block indices of the
    /// main multiplication's common dimension assigned to this task (pass
    /// the full range when `R = 1` or there is no multiplication).
    pub fn new(
        dag: &'a QueryDag,
        roles: &'a PlanRoles,
        k_range: Range<usize>,
        store: &'a LocalStore,
    ) -> Self {
        KernelCtx {
            dag,
            roles,
            k_range,
            store,
            mm_override: None,
            memo: CoordMap::default(),
            #[cfg(test)]
            sampled: 0,
        }
    }

    /// Installs aggregated main-multiplication results (stage 2): `eval` on
    /// the main multiplication reads these instead of recomputing.
    pub fn with_mm_override(mut self, values: &'a HashMap<(usize, usize), Arc<Block>>) -> Self {
        self.mm_override = Some(values);
        self
    }

    fn block_dims(&self, node: NodeId, bi: usize, bj: usize) -> (usize, usize) {
        self.dag.node(node).meta.block_dims(bi, bj)
    }

    /// Evaluates plan node `node` at block coordinate `(bi, bj)`.
    ///
    /// Returns the block value; absent sparse inputs read as zero blocks.
    /// External values come straight from the store. Operators are
    /// memoized only when their role says so (multiplication operands and
    /// diamonds); every other operator is computed once per coordinate by
    /// its single consumer and not kept.
    pub fn eval(&mut self, node: NodeId, bi: usize, bj: usize) -> Result<Arc<Block>, SimError> {
        match self.roles.role(node) {
            Role::External | Role::Scalar(_) => Ok(self.fetch_external(node, bi, bj)),
            Role::Op { memo: false } => self.compute(node, bi, bj),
            Role::Op { memo: true } => {
                if let Some(hit) = self.memo.get(&(node, bi, bj)) {
                    return Ok(Arc::clone(hit));
                }
                let value = self.compute(node, bi, bj)?;
                self.memo.insert((node, bi, bj), Arc::clone(&value));
                Ok(value)
            }
        }
    }

    fn fetch_external(&self, node: NodeId, bi: usize, bj: usize) -> Arc<Block> {
        match self.store.get(node, (bi, bj)) {
            Some(b) => Arc::clone(b),
            None => {
                let (r, c) = self.block_dims(node, bi, bj);
                Arc::new(Block::zero(r, c))
            }
        }
    }

    /// One support probe of a multiplication operand: `None` when it is
    /// provably zero at `(bi, bj)`, else `Some(stored block)` for an
    /// external operand (one store lookup both gates and supplies it) or
    /// `Some(None)` for a member operator the caller still evaluates.
    fn operand(&self, node: NodeId, bi: usize, bj: usize) -> Option<Option<Arc<Block>>> {
        match self.roles.role(node) {
            Role::Op { .. } => self.has_support(node, bi, bj).then_some(None),
            _ => self.store.get(node, (bi, bj)).map(|b| Some(Arc::clone(b))),
        }
    }

    /// Computes member operator `node` at `(bi, bj)`, without the memo.
    fn compute(&mut self, node: NodeId, bi: usize, bj: usize) -> Result<Arc<Block>, SimError> {
        // Stage-2: the main multiplication's aggregated value is injected.
        if Some(node) == self.roles.main_mm {
            if let Some(vals) = self.mm_override {
                return Ok(match vals.get(&(bi, bj)) {
                    Some(b) => Arc::clone(b),
                    None => {
                        let (r, c) = self.block_dims(node, bi, bj);
                        Arc::new(Block::zero(r, c))
                    }
                });
            }
        }
        let n = self.dag.node(node);
        let value: Block = match &n.kind {
            OpKind::Input { .. } | OpKind::Scalar(_) => {
                unreachable!("leaves are never plan members")
            }
            OpKind::Unary(op) => {
                let x = self.eval(n.inputs[0], bi, bj)?;
                x.map(*op)
            }
            OpKind::Binary(op) => {
                let (l_id, r_id) = (n.inputs[0], n.inputs[1]);
                match (self.scalar_of(l_id), self.scalar_of(r_id)) {
                    (Some(s), None) => {
                        let x = self.eval(r_id, bi, bj)?;
                        x.scalar_zip(s, *op)
                    }
                    (None, Some(s)) => {
                        let x = self.eval(l_id, bi, bj)?;
                        x.zip_scalar(s, *op)
                    }
                    (None, None) => match self.roles.drivers[node] {
                        Some(d) => return self.gated_product(*op, [l_id, r_id], d, bi, bj),
                        None => {
                            let l = self.eval(l_id, bi, bj)?;
                            let r = self.eval(r_id, bi, bj)?;
                            l.zip(&r, *op)?
                        }
                    },
                    (Some(_), Some(_)) => {
                        return Err(SimError::Task(
                            "binary over two scalars inside a kernel".into(),
                        ))
                    }
                }
            }
            OpKind::Transpose => {
                let x = self.eval(n.inputs[0], bj, bi)?;
                x.transpose()
            }
            OpKind::MatMul => {
                let (rows, cols) = self.block_dims(node, bi, bj);
                let terms = self.mm_terms(node, bi, bj)?;
                match terms.as_slice() {
                    [] => Block::zero(rows, cols),
                    // A single-term product goes through the format-aware
                    // Gustavson kernel, which can build a sparse output
                    // directly instead of densifying and re-compacting.
                    [(l, r)] => l.gemm_auto(r)?,
                    // Multi-term sums keep the single dense accumulator so
                    // the summation order (and thus bit pattern) matches
                    // the reference path exactly.
                    _ => {
                        let mut acc = DenseBlock::zeros(rows, cols);
                        for (l, r) in &terms {
                            l.gemm_acc(r, &mut acc)?;
                        }
                        Block::Dense(acc).compact()
                    }
                }
            }
            OpKind::FullAgg(_) | OpKind::RowAgg(_) | OpKind::ColAgg(_) => {
                return Err(SimError::Task(
                    "aggregation nodes are folded by the operator driver, not eval()".into(),
                ))
            }
        };
        Ok(Arc::new(value))
    }

    /// The k-terms of multiplication `mm` at `(bi, bj)` with support on
    /// both sides, in ascending `k` (absent sparse blocks contribute
    /// nothing).
    fn mm_terms(&mut self, mm: NodeId, bi: usize, bj: usize) -> Result<Vec<Term>, SimError> {
        let n = self.dag.node(mm);
        let (l_id, r_id) = (n.inputs[0], n.inputs[1]);
        let mut terms = Vec::new();
        for k in self.mm_k_range(mm) {
            let Some(l) = self.operand(l_id, bi, k) else {
                continue;
            };
            let Some(r) = self.operand(r_id, k, bj) else {
                continue;
            };
            let l = l.map_or_else(|| self.eval(l_id, bi, k), Ok)?;
            let r = r.map_or_else(|| self.eval(r_id, k, bj), Ok)?;
            terms.push((l, r));
        }
        Ok(terms)
    }

    /// A zero-dominant product with a driver (see [`PlanRoles`]). The
    /// driver's block is evaluated once; when it is CSR, the other operand
    /// is sampled at its stored cells and the product keeps exactly the
    /// driver's pattern, as `SparseBlock::mul_dense` would build it.
    /// Otherwise — a dense driver block, or a zero product, which the block
    /// path stores or drops depending on the other operand's format — both
    /// operands are evaluated as blocks.
    fn gated_product(
        &mut self,
        op: BinOp,
        inputs: [NodeId; 2],
        d: usize,
        bi: usize,
        bj: usize,
    ) -> Result<Arc<Block>, SimError> {
        let gate = self.eval(inputs[d], bi, bj)?;
        if let Block::Sparse(pattern) = gate.as_ref() {
            let cells = Cells {
                pattern,
                transposed: false,
            };
            let mut values = self.sample(inputs[1 - d], bi, bj, cells)?;
            for (v, &g) in values.iter_mut().zip(pattern.values()) {
                *v = if d == 0 {
                    op.apply(g, *v)
                } else {
                    op.apply(*v, g)
                };
            }
            if !values.contains(&0.0) {
                #[cfg(test)]
                {
                    self.sampled += 1;
                }
                return Ok(Arc::new(Block::Sparse(pattern.with_values(values)?)));
            }
        }
        let other = self.eval(inputs[1 - d], bi, bj)?;
        let (l, r) = if d == 0 {
            (&gate, &other)
        } else {
            (&other, &gate)
        };
        Ok(Arc::new(l.zip(r, op)?))
    }

    /// The values of operator `node` at block `(bi, bj)` on `cells` only,
    /// in cell order. Element-wise and scalar nodes map their operands'
    /// sampled values, `Transpose` swaps each cell's coordinates, and a
    /// multiplication sums each cell's k-terms with
    /// [`Block::gemm_sampled_acc`]. Externals, memoized operands, the
    /// stage-2 main multiplication, a multiplication under an odd number of
    /// transposes and a binary operator with `0 op 0 != 0` are gathered
    /// from their blocks.
    fn sample(
        &mut self,
        node: NodeId,
        bi: usize,
        bj: usize,
        cells: Cells<'_>,
    ) -> Result<Vec<f64>, SimError> {
        match self.roles.role(node) {
            Role::External => {
                return Ok(match self.store.get(node, (bi, bj)) {
                    Some(b) => cells.gather(b),
                    None => vec![0.0; cells.len()],
                })
            }
            Role::Op { memo: true } => return Ok(cells.gather(&*self.eval(node, bi, bj)?)),
            Role::Scalar(_) => unreachable!("scalars are folded into their consumer"),
            Role::Op { memo: false } => {}
        }
        let n = self.dag.node(node);
        Ok(match &n.kind {
            OpKind::Input { .. } | OpKind::Scalar(_) => {
                unreachable!("leaves are never plan members")
            }
            OpKind::Unary(op) => {
                let mut x = self.sample(n.inputs[0], bi, bj, cells)?;
                x.iter_mut().for_each(|v| *v = op.apply(*v));
                x
            }
            OpKind::Binary(op) => {
                let (l_id, r_id) = (n.inputs[0], n.inputs[1]);
                match (self.scalar_of(l_id), self.scalar_of(r_id)) {
                    (Some(s), None) => {
                        let mut x = self.sample(r_id, bi, bj, cells)?;
                        x.iter_mut().for_each(|v| *v = op.apply(s, *v));
                        x
                    }
                    (None, Some(s)) => {
                        let mut x = self.sample(l_id, bi, bj, cells)?;
                        x.iter_mut().for_each(|v| *v = op.apply(*v, s));
                        x
                    }
                    // The block path leaves cells outside two CSR operands'
                    // patterns at zero even where `0 op 0` is not (division,
                    // power), so such an operator is gathered from its block.
                    (None, None) if op.apply(0.0, 0.0) != 0.0 => {
                        return Ok(cells.gather(&*self.compute(node, bi, bj)?))
                    }
                    (None, None) => {
                        let mut l = self.sample(l_id, bi, bj, cells)?;
                        let r = self.sample(r_id, bi, bj, cells)?;
                        l.iter_mut()
                            .zip(&r)
                            .for_each(|(a, &b)| *a = op.apply(*a, b));
                        l
                    }
                    (Some(_), Some(_)) => {
                        return Err(SimError::Task(
                            "binary over two scalars inside a kernel".into(),
                        ))
                    }
                }
            }
            OpKind::Transpose => {
                let flipped = Cells {
                    transposed: !cells.transposed,
                    ..cells
                };
                self.sample(n.inputs[0], bj, bi, flipped)?
            }
            OpKind::MatMul => {
                if cells.transposed
                    || (self.mm_override.is_some() && Some(node) == self.roles.main_mm)
                {
                    return Ok(cells.gather(&*self.compute(node, bi, bj)?));
                }
                let mut acc = vec![0.0; cells.len()];
                for (l, r) in self.mm_terms(node, bi, bj)? {
                    l.gemm_sampled_acc(&r, cells.pattern, &mut acc)?;
                }
                acc
            }
            OpKind::FullAgg(_) | OpKind::RowAgg(_) | OpKind::ColAgg(_) => {
                return Err(SimError::Task(
                    "aggregation nodes are folded by the operator driver, not eval()".into(),
                ))
            }
        })
    }

    /// The k-slice a multiplication sums over: the task slice for the main
    /// multiplication, the full common dimension for nested ones.
    fn mm_k_range(&self, mm: NodeId) -> Range<usize> {
        if Some(mm) == self.roles.main_mm {
            self.k_range.clone()
        } else {
            let left = self.dag.node(self.dag.node(mm).inputs[0]).meta;
            0..left.grid().block_cols
        }
    }

    fn scalar_of(&self, node: NodeId) -> Option<f64> {
        match self.roles.role(node) {
            Role::Scalar(v) => Some(v),
            _ => None,
        }
    }

    /// `true` if the value of `node` at `(bi, bj)` can have non-zeros.
    /// Conservative: `true` unless provably all-zero from absent input
    /// blocks and zero-propagation rules. This powers block-level sparsity
    /// exploitation — kernels for unsupported output blocks never run.
    pub fn has_support(&self, node: NodeId, bi: usize, bj: usize) -> bool {
        if !matches!(self.roles.role(node), Role::Op { .. }) {
            return self.store.get(node, (bi, bj)).is_some();
        }
        let n = self.dag.node(node);
        match &n.kind {
            OpKind::Input { .. } | OpKind::Scalar(_) => unreachable!("leaves not members"),
            OpKind::Unary(op) => {
                if op.preserves_zero() {
                    self.has_support(n.inputs[0], bi, bj)
                } else {
                    true
                }
            }
            OpKind::Binary(op) => {
                let (l_id, r_id) = (n.inputs[0], n.inputs[1]);
                match (self.scalar_of(l_id), self.scalar_of(r_id)) {
                    (Some(s), None) => op.apply(s, 0.0) != 0.0 || self.has_support(r_id, bi, bj),
                    (None, Some(s)) => op.apply(0.0, s) != 0.0 || self.has_support(l_id, bi, bj),
                    (None, None) => {
                        let l = self.has_support(l_id, bi, bj);
                        let r = self.has_support(r_id, bi, bj);
                        if op.zero_dominant() {
                            l && r
                        } else {
                            l || r
                        }
                    }
                    (Some(_), Some(_)) => true,
                }
            }
            OpKind::Transpose => self.has_support(n.inputs[0], bj, bi),
            OpKind::MatMul => {
                if self.mm_override.is_some() && Some(node) == self.roles.main_mm {
                    return true;
                }
                let (l_id, r_id) = (n.inputs[0], n.inputs[1]);
                self.mm_k_range(node)
                    .any(|k| self.has_support(l_id, bi, k) && self.has_support(r_id, k, bj))
            }
            OpKind::FullAgg(_) | OpKind::RowAgg(_) | OpKind::ColAgg(_) => true,
        }
    }

    /// Collects the external-input block coordinates that evaluating `node`
    /// at `(bi, bj)` touches, into `out`. Structural (no sparsity pruning),
    /// block by block: the executable statement of the routing contract.
    /// Operators route whole coordinate sets at once instead
    /// (`fused_op::route`); this recursion is the oracle their property
    /// test checks them against.
    pub fn needs(
        &self,
        node: NodeId,
        bi: usize,
        bj: usize,
        out: &mut BTreeSet<(NodeId, (usize, usize))>,
    ) {
        self.needs_inner(node, bi, bj, out, &mut HashSet::new());
    }

    fn needs_inner(
        &self,
        node: NodeId,
        bi: usize,
        bj: usize,
        out: &mut BTreeSet<(NodeId, (usize, usize))>,
        visited: &mut HashSet<(NodeId, usize, usize)>,
    ) {
        if !visited.insert((node, bi, bj)) {
            return;
        }
        match self.roles.role(node) {
            Role::Op { .. } => {}
            Role::External => {
                out.insert((node, (bi, bj)));
                return;
            }
            Role::Scalar(_) => return,
        }
        if self.mm_override.is_some() && Some(node) == self.roles.main_mm {
            return; // provided by the aggregation stage
        }
        let n = self.dag.node(node);
        match &n.kind {
            OpKind::Input { .. } | OpKind::Scalar(_) => unreachable!("leaves not members"),
            OpKind::Unary(_) => self.needs_inner(n.inputs[0], bi, bj, out, visited),
            OpKind::Binary(_) => {
                for &input in &n.inputs {
                    self.needs_inner(input, bi, bj, out, visited);
                }
            }
            OpKind::Transpose => self.needs_inner(n.inputs[0], bj, bi, out, visited),
            OpKind::MatMul => {
                let (l_id, r_id) = (n.inputs[0], n.inputs[1]);
                for k in self.mm_k_range(node) {
                    self.needs_inner(l_id, bi, k, out, visited);
                    self.needs_inner(r_id, k, bj, out, visited);
                }
            }
            OpKind::FullAgg(_) | OpKind::RowAgg(_) | OpKind::ColAgg(_) => {
                unreachable!("aggregation roots expand over their input grid in the driver")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseme_matrix::{gen, AggOp, BlockedMatrix, UnaryOp};
    use fuseme_plan::{DagBuilder, Expr};

    /// The NMF query O = X * log(U×Vᵀ + eps) with all blocks of all inputs
    /// in the store.
    struct Nmf {
        dag: QueryDag,
        roles: PlanRoles,
        store: LocalStore,
        expected: BlockedMatrix,
        root: NodeId,
        mm: NodeId,
        vt: NodeId,
        add: NodeId,
        lg: NodeId,
        inputs: [NodeId; 3],
        eps: NodeId,
    }

    fn setup() -> Nmf {
        let bs = 5;
        let x = gen::sparse_uniform(20, 20, bs, 0.3, 1.0, 2.0, 1).unwrap();
        let u = gen::dense_uniform(20, 10, bs, 0.1, 1.0, 2).unwrap();
        let v = gen::dense_uniform(20, 10, bs, 0.1, 1.0, 3).unwrap();
        let mut b = DagBuilder::new();
        let xe = b.input("X", *x.meta());
        let ue = b.input("U", *u.meta());
        let ve = b.input("V", *v.meta());
        let vt = b.transpose(ve);
        let mm = b.matmul(ue, vt);
        let eps = b.scalar(0.5);
        let add = b.binary(mm, eps, BinOp::Add);
        let lg = b.unary(add, UnaryOp::Log);
        let out = b.binary(xe, lg, BinOp::Mul);
        let dag = b.finish(vec![out]);
        let ops = BTreeSet::from([vt.id(), mm.id(), add.id(), lg.id(), out.id()]);
        let roles = PlanRoles::new(&dag, &PartialPlan::new(ops, out.id()));

        let mut store = LocalStore::new();
        for (m, id) in [(&x, xe.id()), (&u, ue.id()), (&v, ve.id())] {
            for (bi, bj, blk) in m.iter_blocks() {
                store.insert(id, (bi, bj), Arc::clone(blk));
            }
        }
        let expected = {
            let uvt = u.matmul(&v.transpose().unwrap()).unwrap();
            let lg = uvt
                .zip_scalar(0.5, BinOp::Add)
                .unwrap()
                .map(UnaryOp::Log)
                .unwrap();
            x.zip(&lg, BinOp::Mul).unwrap()
        };
        Nmf {
            dag,
            roles,
            store,
            expected,
            root: out.id(),
            mm: mm.id(),
            vt: vt.id(),
            add: add.id(),
            lg: lg.id(),
            inputs: [xe.id(), ue.id(), ve.id()],
            eps: eps.id(),
        }
    }

    #[test]
    fn kernel_matches_reference_per_block() {
        let f = setup();
        let mut ctx = KernelCtx::new(&f.dag, &f.roles, 0..2, &f.store);
        for bi in 0..4 {
            for bj in 0..4 {
                let got = ctx.eval(f.root, bi, bj).unwrap();
                let want = f.expected.block_or_zero(bi, bj);
                let g = got.to_dense();
                let w = want.to_dense();
                for (a, b) in g.data().iter().zip(w.data()) {
                    assert!((a - b).abs() < 1e-9, "block ({bi},{bj})");
                }
            }
        }
    }

    #[test]
    fn nmf_roles_memoize_only_the_multiplication_operand() {
        let f = setup();
        assert_eq!(f.roles.role(f.vt), Role::Op { memo: true });
        for op in [f.mm, f.add, f.lg, f.root] {
            assert_eq!(f.roles.role(op), Role::Op { memo: false }, "node {op}");
        }
        for input in f.inputs {
            assert_eq!(f.roles.role(input), Role::External);
        }
        assert_eq!(f.roles.role(f.eps), Role::Scalar(0.5));
    }

    #[test]
    fn memo_holds_only_reused_operator_values() {
        let f = setup();
        let mut ctx = KernelCtx::new(&f.dag, &f.roles, 0..2, &f.store);
        for bi in 0..4 {
            for bj in 0..4 {
                ctx.eval(f.root, bi, bj).unwrap();
            }
        }
        // t(V) is read by every output block of its column; nothing else —
        // no store block, no single-consumer intermediate — is kept.
        assert!(!ctx.memo.is_empty());
        assert!(ctx.memo.keys().all(|&(node, _, _)| node == f.vt));
    }

    #[test]
    fn agg_rooted_plan_keeps_no_intermediate() {
        // sum((X - V×U)^2): the summand is consumed once per block, so the
        // kernel never holds the intermediate tile.
        let bs = 4;
        let x = gen::dense_uniform(12, 8, bs, 0.0, 1.0, 11).unwrap();
        let v = gen::dense_uniform(12, 4, bs, 0.0, 1.0, 12).unwrap();
        let u = gen::dense_uniform(4, 8, bs, 0.0, 1.0, 13).unwrap();
        let mut b = DagBuilder::new();
        let xe = b.input("X", *x.meta());
        let ve = b.input("V", *v.meta());
        let ue = b.input("U", *u.meta());
        let mm = b.matmul(ve, ue);
        let diff = b.binary(xe, mm, BinOp::Sub);
        let sq = b.unary(diff, UnaryOp::Square);
        let sum = b.full_agg(sq, AggOp::Sum);
        let dag = b.finish(vec![sum]);
        let ops = BTreeSet::from([mm.id(), diff.id(), sq.id(), sum.id()]);
        let roles = PlanRoles::new(&dag, &PartialPlan::new(ops, sum.id()));
        let mut store = LocalStore::new();
        for (m, id) in [(&x, xe.id()), (&v, ve.id()), (&u, ue.id())] {
            for (bi, bj, blk) in m.iter_blocks() {
                store.insert(id, (bi, bj), Arc::clone(blk));
            }
        }
        let mut ctx = KernelCtx::new(&dag, &roles, 0..1, &store);
        let mut total = 0.0;
        for bi in 0..3 {
            for bj in 0..2 {
                total += ctx.eval(sq.id(), bi, bj).unwrap().agg(AggOp::Sum);
            }
        }
        assert!(ctx.memo.is_empty());
        let want = x
            .zip(&v.matmul(&u).unwrap(), BinOp::Sub)
            .unwrap()
            .map(UnaryOp::Square)
            .unwrap()
            .agg(AggOp::Sum);
        assert!((total - want).abs() < 1e-9, "{total} vs {want}");
    }

    #[test]
    fn support_skips_empty_gated_blocks() {
        let f = setup();
        // A store without any X block: every output block loses support.
        let [x, u, v] = f.inputs;
        let mut emptied = LocalStore::new();
        for (node, coord) in f.store.keys().filter(|&(n, _)| n == u || n == v) {
            emptied.insert(node, coord, Arc::clone(f.store.get(node, coord).unwrap()));
        }
        assert!(emptied.keys().all(|(n, _)| n != x));
        let ctx = KernelCtx::new(&f.dag, &f.roles, 0..2, &emptied);
        for bi in 0..4 {
            for bj in 0..4 {
                assert!(!ctx.has_support(f.root, bi, bj));
            }
        }
    }

    #[test]
    fn partial_k_slices_sum_to_full() {
        let f = setup();
        // Evaluate the matmul on two k-slices; their sum must equal the
        // full-range evaluation.
        let mut full = KernelCtx::new(&f.dag, &f.roles, 0..2, &f.store);
        let mut lo = KernelCtx::new(&f.dag, &f.roles, 0..1, &f.store);
        let mut hi = KernelCtx::new(&f.dag, &f.roles, 1..2, &f.store);
        for bi in 0..4 {
            for bj in 0..4 {
                let a = full.eval(f.mm, bi, bj).unwrap().to_dense();
                let b = lo.eval(f.mm, bi, bj).unwrap().to_dense();
                let c = hi.eval(f.mm, bi, bj).unwrap().to_dense();
                for ((x, y), z) in a.data().iter().zip(b.data()).zip(c.data()) {
                    assert!((x - (y + z)).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn mm_override_used_in_stage_two() {
        let f = setup();
        // Precompute full mm blocks, then hand them to a stage-2 context
        // with an empty k-range: results must still be correct.
        let mut pre = KernelCtx::new(&f.dag, &f.roles, 0..2, &f.store);
        let mut agg: HashMap<(usize, usize), Arc<Block>> = HashMap::new();
        for bi in 0..4 {
            for bj in 0..4 {
                agg.insert((bi, bj), pre.eval(f.mm, bi, bj).unwrap());
            }
        }
        let mut stage2 = KernelCtx::new(&f.dag, &f.roles, 0..0, &f.store).with_mm_override(&agg);
        for bi in 0..4 {
            for bj in 0..4 {
                let got = stage2.eval(f.root, bi, bj).unwrap().to_dense();
                let want = f.expected.block_or_zero(bi, bj).to_dense();
                for (a, b) in got.data().iter().zip(want.data()) {
                    assert!((a - b).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn needs_covers_structural_inputs() {
        let f = setup();
        let ctx = KernelCtx::new(&f.dag, &f.roles, 0..2, &f.store);
        let mut out = BTreeSet::new();
        ctx.needs(f.root, 1, 2, &mut out);
        // For output block (1,2): X(1,2); U(1, 0..2); V(2, 0..2) via the
        // transpose.
        let coords: Vec<_> = out.iter().collect();
        assert_eq!(coords.len(), 1 + 2 + 2, "{coords:?}");
        let ks: BTreeSet<usize> = out
            .iter()
            .filter(|&&(n, _)| n == f.inputs[1])
            .map(|&(_, (_, k))| k)
            .collect();
        assert_eq!(ks, BTreeSet::from([0, 1]));
    }

    #[test]
    fn needs_respects_k_slice() {
        let f = setup();
        let ctx = KernelCtx::new(&f.dag, &f.roles, 1..2, &f.store);
        let mut out = BTreeSet::new();
        ctx.needs(f.root, 0, 0, &mut out);
        let [_, u, v] = f.inputs;
        for &(n, coord) in &out {
            if n == u {
                assert_eq!(coord, (0, 1), "only the k=1 slice of U");
            }
            if n == v {
                assert_eq!(coord, (0, 1), "V(j=0, k=1)");
            }
        }
    }

    /// A whole-query fused plan over `X` (20×20 CSR at density 0.3), `U`
    /// and `V` (20×`k`, CSR when `sparse_u`), all in blocks of 5, with
    /// every block of every input in the store.
    struct Outer {
        dag: QueryDag,
        roles: PlanRoles,
        store: LocalStore,
        root: NodeId,
        x: NodeId,
    }

    fn outer(
        k: usize,
        sparse_u: bool,
        build: impl FnOnce(&mut DagBuilder, [Expr; 3]) -> Expr,
    ) -> Outer {
        let bs = 5;
        let x = gen::sparse_uniform(20, 20, bs, 0.3, 1.0, 2.0, 1).unwrap();
        let u = if sparse_u {
            gen::sparse_uniform(20, k, bs, 0.3, 0.1, 1.0, 2).unwrap()
        } else {
            gen::dense_uniform(20, k, bs, 0.1, 1.0, 2).unwrap()
        };
        let v = gen::dense_uniform(20, k, bs, 0.1, 1.0, 3).unwrap();
        let mut b = DagBuilder::new();
        let inputs = [
            b.input("X", *x.meta()),
            b.input("U", *u.meta()),
            b.input("V", *v.meta()),
        ];
        let root = build(&mut b, inputs);
        let dag = b.finish(vec![root]);
        let root = root.id();
        let ops: BTreeSet<NodeId> = dag
            .nodes()
            .iter()
            .filter(|n| !n.kind.is_leaf())
            .map(|n| n.id)
            .collect();
        let roles = PlanRoles::new(&dag, &PartialPlan::new(ops, root));
        let mut store = LocalStore::new();
        for (m, e) in [&x, &u, &v].into_iter().zip(inputs) {
            for (bi, bj, blk) in m.iter_blocks() {
                store.insert(e.id(), (bi, bj), Arc::clone(blk));
            }
        }
        Outer {
            dag,
            roles,
            store,
            root,
            x: inputs[0].id(),
        }
    }

    /// `X * log(U×Vᵀ + 0.5)`, the NMF query.
    fn nmf_root(b: &mut DagBuilder, [x, u, v]: [Expr; 3]) -> Expr {
        let vt = b.transpose(v);
        let mm = b.matmul(u, vt);
        let eps = b.scalar(0.5);
        let add = b.binary(mm, eps, BinOp::Add);
        let lg = b.unary(add, UnaryOp::Log);
        b.binary(x, lg, BinOp::Mul)
    }

    /// Evaluates `f.root` on all 4×4 output blocks twice — as planned, and
    /// with every driver removed so each product takes the block path —
    /// and asserts equal blocks. Returns how many blocks were sampled.
    fn sampled_matches_block_path(
        f: &Outer,
        k_range: Range<usize>,
        mm: Option<&HashMap<(usize, usize), Arc<Block>>>,
    ) -> usize {
        let unsampled = PlanRoles {
            drivers: vec![None; f.roles.drivers.len()],
            ..f.roles.clone()
        };
        let ctx = |roles| {
            let base = KernelCtx::new(&f.dag, roles, k_range.clone(), &f.store);
            match mm {
                Some(values) => base.with_mm_override(values),
                None => base,
            }
        };
        let (mut sampled, mut blocks) = (ctx(&f.roles), ctx(&unsampled));
        for bi in 0..4 {
            for bj in 0..4 {
                let got = sampled.eval(f.root, bi, bj).unwrap();
                let want = blocks.eval(f.root, bi, bj).unwrap();
                assert_eq!(got.to_dense(), want.to_dense(), "block ({bi},{bj})");
                assert_eq!(got.is_sparse(), want.is_sparse(), "block ({bi},{bj})");
                assert_eq!(got.nnz(), want.nnz(), "block ({bi},{bj})");
                assert_eq!(got, want, "block ({bi},{bj})");
            }
        }
        assert_eq!(blocks.sampled, 0);
        sampled.sampled
    }

    #[test]
    fn sampled_product_matches_block_path_with_driver_left() {
        let f = outer(10, false, nmf_root);
        assert_eq!(f.roles.drivers[f.root], Some(0));
        assert_eq!(sampled_matches_block_path(&f, 0..2, None), 16);
    }

    #[test]
    fn sampled_product_matches_block_path_with_driver_right() {
        let f = outer(10, false, |b, [x, u, v]| {
            let vt = b.transpose(v);
            let mm = b.matmul(u, vt);
            let lg = b.unary(mm, UnaryOp::Log);
            b.binary(lg, x, BinOp::Mul)
        });
        assert_eq!(f.roles.drivers[f.root], Some(1));
        assert_eq!(sampled_matches_block_path(&f, 0..2, None), 16);
    }

    #[test]
    fn sampled_chain_handles_transposes_and_scalars() {
        // The multiplication under two transposes is sampled; under one it
        // is gathered from its block.
        let twice = outer(10, false, |b, [x, u, v]| {
            let vt = b.transpose(v);
            let mm = b.matmul(u, vt);
            let t1 = b.transpose(mm);
            let half = b.scalar(0.5);
            let scaled = b.binary(t1, half, BinOp::Mul);
            let t2 = b.transpose(scaled);
            let two = b.scalar(2.0);
            let shifted = b.binary(two, t2, BinOp::Sub);
            b.binary(x, shifted, BinOp::Mul)
        });
        assert_eq!(sampled_matches_block_path(&twice, 0..2, None), 16);
        let once = outer(10, false, |b, [x, u, v]| {
            let ut = b.transpose(u);
            let mm = b.matmul(v, ut);
            let t = b.transpose(mm);
            let sq = b.unary(t, UnaryOp::Square);
            b.binary(x, sq, BinOp::Mul)
        });
        assert_eq!(sampled_matches_block_path(&once, 0..2, None), 16);
        // A division is gathered from its block.
        let ratio = outer(10, false, |b, [x, u, v]| {
            let vt = b.transpose(v);
            let mm = b.matmul(u, vt);
            let one = b.scalar(1.0);
            let shifted = b.binary(mm, one, BinOp::Add);
            let ratio = b.binary(mm, shifted, BinOp::Div);
            b.binary(x, ratio, BinOp::Mul)
        });
        assert_eq!(sampled_matches_block_path(&ratio, 0..2, None), 16);
    }

    #[test]
    fn sampled_multiplication_matches_single_and_multi_term_products() {
        // k = 5 is one k-block (the Gustavson / `gemm_auto` path), k = 10
        // two (the dense accumulator); `U` dense and CSR.
        for (k, k_blocks) in [(5, 1), (10, 2)] {
            for sparse_u in [false, true] {
                let f = outer(k, sparse_u, |b, [x, u, v]| {
                    let vt = b.transpose(v);
                    let mm = b.matmul(u, vt);
                    b.binary(x, mm, BinOp::Mul)
                });
                let sampled = sampled_matches_block_path(&f, 0..k_blocks, None);
                assert!(sampled > 0, "k={k} sparse_u={sparse_u}");
            }
        }
    }

    #[test]
    fn sampled_stage_two_gathers_the_aggregated_multiplication() {
        let f = outer(10, false, nmf_root);
        let mm = f.roles.main_mm.unwrap();
        let mut pre = KernelCtx::new(&f.dag, &f.roles, 0..2, &f.store);
        let mut agg = HashMap::new();
        for bi in 0..4 {
            for bj in 0..4 {
                agg.insert((bi, bj), pre.eval(mm, bi, bj).unwrap());
            }
        }
        assert_eq!(sampled_matches_block_path(&f, 0..0, Some(&agg)), 16);
    }

    #[test]
    fn in_plan_operator_drives_the_als_loss_summand() {
        // (X != 0) * (X - U×Vᵀ)^2: the driver is an in-plan operator.
        let f = outer(10, false, |b, [x, u, v]| {
            let zero = b.scalar(0.0);
            let rated = b.binary(x, zero, BinOp::NotEq);
            let vt = b.transpose(v);
            let mm = b.matmul(u, vt);
            let diff = b.binary(x, mm, BinOp::Sub);
            let sq = b.unary(diff, UnaryOp::Square);
            b.binary(rated, sq, BinOp::Mul)
        });
        let gate = f.dag.node(f.root).inputs[0];
        assert_eq!(f.roles.role(gate), Role::Op { memo: false });
        assert_eq!(f.roles.drivers[f.root], Some(0));
        assert_eq!(sampled_matches_block_path(&f, 0..2, None), 16);
    }

    #[test]
    fn driver_with_explicit_zero_keeps_the_block_path_result() {
        // A stored 0.0 makes a zero product, which the block path keeps
        // (dense other operand) or drops (CSR other operand); that block
        // takes the block path, which keeps it here.
        let mut f = outer(10, false, nmf_root);
        let x00 = f.store.get(f.x, (0, 0)).unwrap().to_dense();
        let mut triples: Vec<_> = SparseBlock::from_dense(&x00).iter().collect();
        let r = (0..5).find(|&r| x00.row(r).contains(&0.0)).unwrap();
        let c = x00.row(r).iter().position(|&v| v == 0.0).unwrap();
        triples.push((r, c, 0.0));
        let with_zero = SparseBlock::from_triples(5, 5, triples).unwrap();
        f.store
            .insert(f.x, (0, 0), Arc::new(Block::Sparse(with_zero)));
        assert_eq!(sampled_matches_block_path(&f, 0..2, None), 15);
        let mut ctx = KernelCtx::new(&f.dag, &f.roles, 0..2, &f.store);
        let out = ctx.eval(f.root, 0, 0).unwrap();
        assert_eq!(out.nnz(), f.store.get(f.x, (0, 0)).unwrap().nnz());
    }

    #[test]
    fn dense_driver_block_and_diamond_operand_take_the_block_path() {
        let mut dense = outer(10, false, nmf_root);
        let coords: Vec<_> = dense.store.keys().filter(|&(n, _)| n == dense.x).collect();
        for (node, coord) in coords {
            let d = dense.store.get(node, coord).unwrap().to_dense();
            dense.store.insert(node, coord, Arc::new(Block::Dense(d)));
        }
        assert_eq!(sampled_matches_block_path(&dense, 0..2, None), 0);

        // (X * lg) + lg: lg feeds two slots, so it is memoized and the
        // product gets no driver.
        let diamond = outer(10, false, |b, [x, u, v]| {
            let vt = b.transpose(v);
            let mm = b.matmul(u, vt);
            let lg = b.unary(mm, UnaryOp::Log);
            let gated = b.binary(x, lg, BinOp::Mul);
            b.binary(gated, lg, BinOp::Add)
        });
        let gated = diamond.dag.node(diamond.root).inputs[0];
        assert_eq!(diamond.roles.drivers[gated], None);
        assert_eq!(sampled_matches_block_path(&diamond, 0..2, None), 0);
    }

    #[test]
    fn sampled_nmf_block_has_exactly_the_drivers_pattern() {
        let f = outer(10, false, nmf_root);
        let mut ctx = KernelCtx::new(&f.dag, &f.roles, 0..2, &f.store);
        for bi in 0..4 {
            for bj in 0..4 {
                let Block::Sparse(out) = ctx.eval(f.root, bi, bj).unwrap().as_ref().clone() else {
                    panic!("block ({bi},{bj}) is not CSR");
                };
                let Block::Sparse(x) = f.store.get(f.x, (bi, bj)).unwrap().as_ref().clone() else {
                    panic!("X block ({bi},{bj}) is not CSR");
                };
                let pattern =
                    |s: &SparseBlock| s.iter().map(|(r, c, _)| (r, c)).collect::<Vec<_>>();
                assert_eq!(pattern(&out), pattern(&x), "block ({bi},{bj})");
            }
        }
        assert_eq!(ctx.sampled, 16);
    }

    #[test]
    fn memoization_reuses_diamond_values() {
        // (X×S)ᵀ×X-style reuse: X read twice, evaluated once per block.
        let bs = 4;
        let x = gen::dense_uniform(8, 8, bs, 0.0, 1.0, 7).unwrap();
        let mut b = DagBuilder::new();
        let xe = b.input("X", *x.meta());
        let sq = b.unary(xe, UnaryOp::Square);
        let dbl = b.binary(sq, sq, BinOp::Add); // diamond on sq
        let dag = b.finish(vec![dbl]);
        let ops = BTreeSet::from([sq.id(), dbl.id()]);
        let roles = PlanRoles::new(&dag, &PartialPlan::new(ops, dbl.id()));
        assert_eq!(roles.role(sq.id()), Role::Op { memo: true });
        let mut store = LocalStore::new();
        for (bi, bj, blk) in x.iter_blocks() {
            store.insert(xe.id(), (bi, bj), Arc::clone(blk));
        }
        let mut ctx = KernelCtx::new(&dag, &roles, 0..0, &store);
        let v = ctx.eval(dbl.id(), 0, 0).unwrap();
        let direct = x.block_or_zero(0, 0).map(UnaryOp::Square);
        let expect = direct.zip(&direct, BinOp::Add).unwrap();
        assert_eq!(v.to_dense(), expect.to_dense());
        // Memo holds sq at (0,0) exactly once.
        assert!(ctx.memo.contains_key(&(sq.id(), 0, 0)));
    }
}
