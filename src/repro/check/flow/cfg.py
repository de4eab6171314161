"""Per-function control-flow graphs and the worklist fixpoint.

The taint analysis is a forward may-analysis: a variable is tainted on a
path if *any* path reaches the use with taint.  That makes the join a
union and the fixpoint monotone, so the standard worklist algorithm
terminates.  Blocks are numbered in construction order (which follows
source order), and the worklist is kept sorted, so the iteration — and
therefore every report downstream of it — is deterministic.

The CFG is deliberately coarse where Python's dynamism makes precision
expensive: a ``try`` body may jump to its handlers from its entry or its
exit (not from every instruction), and ``with`` bodies are inlined.
Coarseness here only ever *adds* paths, which for a may-analysis means
false positives, never false negatives — the right failure direction
for a determinism gate whose escape is a reasoned ``allow[...]`` comment.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field


@dataclass
class BasicBlock:
    bid: int
    stmts: list[ast.stmt] = field(default_factory=list)
    succs: list[int] = field(default_factory=list)

    def add_succ(self, bid: int) -> None:
        if bid not in self.succs:
            self.succs.append(bid)


@dataclass
class CFG:
    blocks: dict[int, BasicBlock]
    entry: int
    exit: int

    def preds(self) -> dict[int, list[int]]:
        preds: dict[int, list[int]] = {bid: [] for bid in self.blocks}
        for bid in sorted(self.blocks):
            for succ in self.blocks[bid].succs:
                preds[succ].append(bid)
        return preds


class _Builder:
    def __init__(self) -> None:
        self.blocks: dict[int, BasicBlock] = {}
        self._next = 0

    def new_block(self) -> BasicBlock:
        block = BasicBlock(self._next)
        self.blocks[self._next] = block
        self._next += 1
        return block

    def build(self, body: list[ast.stmt]) -> CFG:
        entry = self.new_block()
        exit_block = self.new_block()
        last = self._seq(body, entry, exit_block, None, None)
        if last is not None:
            last.add_succ(exit_block.bid)
        return CFG(blocks=self.blocks, entry=entry.bid, exit=exit_block.bid)

    def _seq(
        self,
        stmts: list[ast.stmt],
        current: BasicBlock,
        func_exit: BasicBlock,
        loop_header: BasicBlock | None,
        loop_exit: BasicBlock | None,
    ) -> BasicBlock | None:
        """Append ``stmts`` starting at ``current``; return the open block
        at the end, or None when all paths left the sequence."""
        for stmt in stmts:
            if current is None:
                # Unreachable code after return/raise/break still gets a
                # block so its expressions are checked for sinks.
                current = self.new_block()
            if isinstance(stmt, ast.If):
                current.stmts.append(stmt)  # the test, for sink scanning
                body_entry = self.new_block()
                current.add_succ(body_entry.bid)
                body_exit = self._seq(
                    stmt.body, body_entry, func_exit, loop_header, loop_exit
                )
                join = self.new_block()
                if stmt.orelse:
                    else_entry = self.new_block()
                    current.add_succ(else_entry.bid)
                    else_exit = self._seq(
                        stmt.orelse, else_entry, func_exit, loop_header, loop_exit
                    )
                    if else_exit is not None:
                        else_exit.add_succ(join.bid)
                else:
                    current.add_succ(join.bid)
                if body_exit is not None:
                    body_exit.add_succ(join.bid)
                current = join
            elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
                header = self.new_block()
                header.stmts.append(stmt)  # test / iter+target binding
                current.add_succ(header.bid)
                after = self.new_block()
                body_entry = self.new_block()
                header.add_succ(body_entry.bid)
                header.add_succ(after.bid)
                body_exit = self._seq(
                    stmt.body, body_entry, func_exit, header, after
                )
                if body_exit is not None:
                    body_exit.add_succ(header.bid)
                if stmt.orelse:
                    else_exit = self._seq(
                        stmt.orelse, after, func_exit, loop_header, loop_exit
                    )
                    current = else_exit if else_exit is not None else after
                else:
                    current = after
            elif isinstance(stmt, ast.Try):
                body_entry = self.new_block()
                current.add_succ(body_entry.bid)
                body_exit = self._seq(
                    stmt.body, body_entry, func_exit, loop_header, loop_exit
                )
                join = self.new_block()
                if body_exit is not None:
                    body_exit.add_succ(join.bid)
                for handler in stmt.handlers:
                    h_entry = self.new_block()
                    # Exceptions may fire anywhere in the body: approximate
                    # with edges from the body's entry and exit.
                    body_entry.add_succ(h_entry.bid)
                    if body_exit is not None:
                        body_exit.add_succ(h_entry.bid)
                    h_exit = self._seq(
                        handler.body, h_entry, func_exit, loop_header, loop_exit
                    )
                    if h_exit is not None:
                        h_exit.add_succ(join.bid)
                if stmt.orelse and body_exit is not None:
                    else_exit = self._seq(
                        stmt.orelse, join, func_exit, loop_header, loop_exit
                    )
                    join = else_exit if else_exit is not None else join
                if stmt.finalbody:
                    final_exit = self._seq(
                        stmt.finalbody, join, func_exit, loop_header, loop_exit
                    )
                    join = final_exit if final_exit is not None else join
                current = join
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                current.stmts.append(stmt)  # item bindings, for the transfer
                body_exit = self._seq(
                    stmt.body, current, func_exit, loop_header, loop_exit
                )
                current = body_exit if body_exit is not None else self.new_block()
            elif isinstance(stmt, (ast.Return, ast.Raise)):
                current.stmts.append(stmt)
                current.add_succ(func_exit.bid)
                current = None
            elif isinstance(stmt, ast.Break):
                if loop_exit is not None:
                    current.add_succ(loop_exit.bid)
                current = None
            elif isinstance(stmt, ast.Continue):
                if loop_header is not None:
                    current.add_succ(loop_header.bid)
                current = None
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested defs are separate analysis units
            else:
                current.stmts.append(stmt)
        return current


def build_cfg(body: list[ast.stmt]) -> CFG:
    """Build the CFG for one function body (or a module's statements)."""
    return _Builder().build(body)


def fixpoint(cfg: CFG, initial, transfer, join):
    """Forward worklist fixpoint.

    ``initial`` is the entry state; ``transfer(block, state) -> state``;
    ``join(a, b) -> state`` must be monotone (union-like).  Returns the
    mapping block id -> input state, stable under one more iteration.
    The worklist is processed in sorted block order so the result — and
    any finding collected inside ``transfer`` on the final pass — is
    deterministic.
    """
    preds = cfg.preds()
    states_in: dict[int, object] = {cfg.entry: initial}
    states_out: dict[int, object] = {}
    worklist = sorted(cfg.blocks)
    while worklist:
        bid = worklist.pop(0)
        block = cfg.blocks[bid]
        state = states_in.get(cfg.entry) if bid == cfg.entry else None
        for p in preds[bid]:
            if p in states_out:
                state = (
                    states_out[p]
                    if state is None
                    else join(state, states_out[p])
                )
        if state is None:
            state = initial if bid == cfg.entry else {}
        states_in[bid] = state
        out = transfer(block, state)
        if states_out.get(bid) != out:
            states_out[bid] = out
            for succ in block.succs:
                if succ not in worklist:
                    # Keep the worklist sorted for determinism.
                    worklist.append(succ)
                    worklist.sort()
    return states_in
