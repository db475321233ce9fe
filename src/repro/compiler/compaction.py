"""Architected register index compaction (paper §III-A4).

Before each release, every live value must sit at an index below |Bs| so
the release state only touches base-set physical registers.  For each
live register ``o >= |Bs|`` at a release point, the pass:

1. picks a free base-set slot ``f`` (an index < |Bs| with no live value),
2. inserts ``MOV Rf, Ro`` immediately before the RELEASE, and
3. renames every use of ``o`` that is reached by this move — forward
   along the CFG until ``o`` is redefined — to ``f``.

The rename is only sound if (a) no renamed use is *also* reachable from
a different definition of ``o`` that bypasses the move, and (b) the
chosen slot ``f`` is not redefined on any path between the move and a
renamed use — ``f`` being dead *at the release* says nothing about the
span the moved value must survive.  The pass verifies (a) and raises
:class:`CompactionError` when violated; for (b) it skips clobbered
candidate slots during selection and only fails when no safe slot
exists.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cfg.graph import ControlFlowGraph, build_cfg
from repro.errors import CompileError
from repro.isa.instructions import Instruction, Opcode
from repro.isa.kernel import Kernel
from repro.liveness.liveness import analyze_liveness


class CompactionError(CompileError):
    """Compaction cannot be performed safely for this kernel shape."""


def _successor_pcs(kernel: Kernel, pc: int) -> list[int]:
    inst = kernel[pc]
    if inst.is_exit:
        return []
    if inst.is_branch:
        targets = [kernel.label_pc(inst.target)]
        if inst.is_conditional_branch and pc + 1 < len(kernel):
            targets.append(pc + 1)
        return targets
    return [pc + 1] if pc + 1 < len(kernel) else []


def _uses_reached(kernel: Kernel, start_pc: int, reg: int) -> set[int]:
    """Use PCs of ``reg`` reachable from ``start_pc`` (inclusive) without
    passing a redefinition of ``reg``."""
    uses: set[int] = set()
    seen: set[int] = set()
    stack = [start_pc]
    while stack:
        pc = stack.pop()
        if pc in seen or pc >= len(kernel):
            continue
        seen.add(pc)
        inst = kernel[pc]
        if reg in inst.srcs:
            uses.add(pc)
        if reg in inst.dsts:
            continue  # value killed past this point on this path
        stack.extend(_successor_pcs(kernel, pc))
    return uses


def _dst_clobbered(kernel: Kernel, start_pc: int, src: int, dst: int) -> bool:
    """Whether a redefinition of ``dst`` can clobber the moved value of
    ``src`` before a renamed use reads it.

    Walks forward from ``start_pc`` (the instruction after the release)
    along paths that do not redefine ``src`` — the rename chain ends at
    a redefinition.  A definition of ``dst`` inside that region is fatal
    iff some use of ``src`` lies ahead of it on such a path: after the
    rename that use reads ``dst`` and would observe the clobber.  An
    instruction that redefines both ends the chain and cannot clobber
    (its own ``src`` operands read before the write).
    """
    seen: set[int] = set()
    stack = [start_pc]
    while stack:
        pc = stack.pop()
        if pc in seen or pc >= len(kernel):
            continue
        seen.add(pc)
        inst = kernel[pc]
        if src in inst.dsts:
            continue
        if dst in inst.dsts:
            for succ in _successor_pcs(kernel, pc):
                if _uses_reached(kernel, succ, src):
                    return True
            continue
        stack.extend(_successor_pcs(kernel, pc))
    return False


def _other_defs_reach(kernel: Kernel, reg: int, use_pc: int, barrier_pc: int) -> bool:
    """Whether any definition of ``reg`` other than the move at
    ``barrier_pc`` reaches ``use_pc`` without passing ``barrier_pc``."""
    sources = [0] + [
        pc + 1
        for pc, inst in enumerate(kernel)
        if reg in inst.dsts and pc != barrier_pc and pc + 1 < len(kernel)
    ]
    seen: set[int] = set()
    stack = list(sources)
    while stack:
        pc = stack.pop()
        if pc in seen or pc >= len(kernel):
            continue
        if pc == barrier_pc:
            continue  # would pass through the move; that path is renamed
        seen.add(pc)
        if pc == use_pc:
            return True
        inst = kernel[pc]
        if reg in inst.dsts:
            continue
        stack.extend(_successor_pcs(kernel, pc))
    return False


def compact_register_indices(kernel: Kernel, base_set_size: int) -> Kernel:
    """Run index compaction for every RELEASE point of a kernel.

    The input must already contain the injected primitives.  Returns a
    kernel in which, at every RELEASE, no live register index reaches
    past ``base_set_size``.  Idempotent on already-compact kernels.
    """
    if base_set_size <= 0:
        raise ValueError("base set size must be positive")

    # Iterate because renaming shifts liveness; each round fixes one
    # release point, and there are finitely many.
    for _ in range(len(kernel) + 1):
        info = analyze_liveness(kernel)
        change = _compact_one(kernel, base_set_size, info)
        if change is None:
            return kernel
        kernel = change
    raise CompactionError("compaction failed to converge")  # pragma: no cover


def _compact_one(kernel: Kernel, base_set_size: int, info) -> Kernel | None:
    """Fix the first offending release point; None when all are clean."""
    for pc, inst in enumerate(kernel):
        if inst.opcode is not Opcode.RELEASE:
            continue
        live_after = info.live_out[pc]
        overflow = sorted(r for r in live_after if r >= base_set_size)
        if not overflow:
            continue
        occupied = {r for r in live_after if r < base_set_size}
        free = [i for i in range(base_set_size) if i not in occupied]
        if len(overflow) > len(free):
            raise CompactionError(
                f"release at pc {pc}: {len(overflow)} live extended "
                f"registers but only {len(free)} free base slots — "
                "|Bs| below the release-point live count"
            )

        instructions = list(kernel.instructions)
        # Pair each overflow register with a base slot that is free at
        # the release AND survives until the renamed uses (no
        # redefinition of the slot on the way — see _dst_clobbered; the
        # oracle caught MRI-Q computing with a clobbered slot when the
        # pairing was done blindly by release-point liveness alone).
        # Matched with augmenting paths, not first-fit: one register's
        # only safe slot may be another's first choice.  When nothing
        # clobbers, this reduces to the plain overflow[i] -> free[i]
        # pairing, so previously-correct kernels compile unchanged.
        safe_slots = {
            src: [f for f in free if not _dst_clobbered(kernel, pc + 1, src, f)]
            for src in overflow
        }
        slot_owner: dict[int, int] = {}

        def _assign(src: int, visited: set[int]) -> bool:
            for f in safe_slots[src]:
                if f in visited:
                    continue
                visited.add(f)
                if f not in slot_owner or _assign(slot_owner[f], visited):
                    slot_owner[f] = src
                    return True
            return False

        for src in overflow:
            if not _assign(src, set()):
                raise CompactionError(
                    f"release at pc {pc}: no conflict-free base slot "
                    f"assignment covers R{src} (every free slot is "
                    "redefined before a renamed use)"
                )
        slot_of = {src: f for f, src in slot_owner.items()}
        rename_pairs = [(src, slot_of[src]) for src in overflow]
        # Insert MOVs before the release (old pc shifts by the count).
        movs = [
            Instruction(
                Opcode.MOV, (dst,), (src,),
                comment=f"compaction: R{src} -> R{dst}",
            )
            for src, dst in rename_pairs
        ]
        # The release may carry a label (region boundary); keep it on the
        # first inserted MOV so branches still pass through the moves.
        release = instructions[pc]
        if release.label is not None and movs:
            movs[0] = movs[0].with_label(release.label)
            instructions[pc] = replace(release, label=None)
        instructions[pc:pc] = movs
        shifted = kernel.with_instructions(instructions)
        release_pc = pc + len(movs)

        # Rename downstream uses.
        new_instructions = list(shifted.instructions)
        for (src, dst), mov_offset in zip(rename_pairs, range(len(movs))):
            mov_pc = pc + mov_offset
            start = release_pc  # uses begin after the release point
            reached = _uses_reached(shifted, start + 1, src)
            for use_pc in reached:
                if _other_defs_reach(shifted, src, use_pc, mov_pc):
                    raise CompactionError(
                        f"use of R{src} at pc {use_pc} is reachable from "
                        "another definition; rename would be unsound"
                    )
            for use_pc in reached:
                cur = new_instructions[use_pc]
                new_instructions[use_pc] = replace(
                    cur,
                    srcs=tuple(dst if r == src else r for r in cur.srcs),
                )
        return shifted.with_instructions(new_instructions)
    return None


def verify_compact(kernel: Kernel, base_set_size: int) -> None:
    """Assert no live register index reaches |Bs| at any RELEASE point."""
    info = analyze_liveness(kernel)
    for pc, inst in enumerate(kernel):
        if inst.opcode is Opcode.RELEASE:
            overflow = [r for r in info.live_out[pc] if r >= base_set_size]
            if overflow:
                raise CompactionError(
                    f"release at pc {pc} leaves live extended registers "
                    f"{sorted(overflow)}"
                )
