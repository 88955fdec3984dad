//! Control-flow graph utilities: successors, predecessors, traversal
//! orders, and back-edge detection.

use crate::func::{BlockId, Function};

/// Precomputed CFG adjacency for one function, with its reverse postorder
/// and reachability (one DFS at construction, not one per query: the
/// fixpoint passes ask for the order once per round).
#[derive(Debug, Clone)]
pub struct Cfg {
    succs: Vec<Vec<BlockId>>,
    preds: Vec<Vec<BlockId>>,
    rpo: Vec<BlockId>,
    reachable: Vec<bool>,
}

impl Cfg {
    /// Builds the CFG of `func`.
    pub fn new(func: &Function) -> Self {
        let n = func.num_blocks();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for (bi, bb) in func.blocks().iter().enumerate() {
            for t in bb.successors() {
                succs[bi].push(t);
                preds[t.0 as usize].push(BlockId(bi as u32));
            }
        }
        let (rpo, reachable) = Self::dfs_order(&succs);
        Cfg { succs, preds, rpo, reachable }
    }

    /// Successor blocks of `b`.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.0 as usize]
    }

    /// Predecessor blocks of `b`.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.0 as usize]
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// True when the function has no blocks (never the case for verified
    /// functions).
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Blocks in reverse postorder from the entry. Unreachable blocks are
    /// appended at the end (in index order) so analyses still cover them.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Reverse postorder and reachability from the entry.
    ///
    /// Iterative DFS: instrumented programs reach tens of thousands of
    /// blocks, so a call-stack recursion per block would overflow.
    fn dfs_order(succs: &[Vec<BlockId>]) -> (Vec<BlockId>, Vec<bool>) {
        let n = succs.len();
        let mut visited = vec![false; n];
        let mut post = Vec::with_capacity(n);
        if n > 0 {
            visited[0] = true;
            let mut stack: Vec<(BlockId, usize)> = vec![(BlockId(0), 0)];
            while let Some(&mut (b, ref mut i)) = stack.last_mut() {
                if let Some(&s) = succs[b.0 as usize].get(*i) {
                    *i += 1;
                    if !std::mem::replace(&mut visited[s.0 as usize], true) {
                        stack.push((s, 0));
                    }
                } else {
                    post.push(b);
                    stack.pop();
                }
            }
        }
        post.reverse();
        for (i, seen) in visited.iter().enumerate() {
            if !seen {
                post.push(BlockId(i as u32));
            }
        }
        (post, visited)
    }

    /// Edges `(from, to)` that close a cycle in a DFS from the entry.
    ///
    /// Region formation does *not* cut these (`ido-idem` explains why: a
    /// read-only traversal loop is idempotent as a whole); loop-carried
    /// antidependences are found by its cross-block fixpoint instead.
    pub fn back_edges(&self) -> Vec<(BlockId, BlockId)> {
        #[derive(Clone, Copy, PartialEq)]
        enum State {
            Unseen,
            Active,
            Done,
        }
        let n = self.len();
        let mut state = vec![State::Unseen; n];
        let mut edges = Vec::new();
        // Iterative DFS with an explicit stack of (block, next-succ-index).
        let mut stack: Vec<(BlockId, usize)> = Vec::new();
        for start in 0..n {
            if state[start] != State::Unseen {
                continue;
            }
            state[start] = State::Active;
            stack.push((BlockId(start as u32), 0));
            while let Some(&mut (b, ref mut i)) = stack.last_mut() {
                if *i < self.succs(b).len() {
                    let s = self.succs(b)[*i];
                    *i += 1;
                    match state[s.0 as usize] {
                        State::Unseen => {
                            state[s.0 as usize] = State::Active;
                            stack.push((s, 0));
                        }
                        State::Active => edges.push((b, s)),
                        State::Done => {}
                    }
                } else {
                    state[b.0 as usize] = State::Done;
                    stack.pop();
                }
            }
        }
        edges
    }

    /// `reachable()[b]` is true if block `b` is reachable from the entry.
    pub fn reachable(&self) -> &[bool] {
        &self.reachable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::reg::Operand;

    /// entry -> loop_head <-> loop_body ; loop_head -> exit
    fn loop_func() -> crate::func::Function {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("loop", 1);
        let i = f.param(0);
        let head = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.jump(head);
        f.switch_to(head);
        f.branch(i, body, exit);
        f.switch_to(body);
        let t = f.new_reg();
        f.bin(crate::inst::BinOp::Sub, t, i, 1i64);
        f.mov(i, Operand::Reg(t));
        f.jump(head);
        f.switch_to(exit);
        f.ret(None);
        let id = f.finish().unwrap();
        let p = pb.finish();
        p.function(id).clone()
    }

    #[test]
    fn succs_and_preds() {
        let f = loop_func();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs(BlockId(0)), &[BlockId(1)]);
        assert_eq!(cfg.succs(BlockId(1)), &[BlockId(2), BlockId(3)]);
        let mut preds = cfg.preds(BlockId(1)).to_vec();
        preds.sort();
        assert_eq!(preds, vec![BlockId(0), BlockId(2)]);
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_all() {
        let f = loop_func();
        let cfg = Cfg::new(&f);
        let rpo = cfg.rpo();
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn back_edge_found_in_loop() {
        let f = loop_func();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.back_edges(), vec![(BlockId(2), BlockId(1))]);
    }

    #[test]
    fn straightline_has_no_back_edges() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("s", 0);
        f.ret(None);
        let id = f.finish().unwrap();
        let p = pb.finish();
        let cfg = Cfg::new(p.function(id));
        assert!(cfg.back_edges().is_empty());
        assert_eq!(cfg.reachable(), [true]);
    }
}
