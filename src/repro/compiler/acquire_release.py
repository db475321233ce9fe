"""Acquire/release primitive injection (paper §III-A3).

Inserts an ``ACQUIRE`` immediately before each acquire region and a
``RELEASE`` immediately after it.  Before inserting, regions are
normalized at instruction granularity so no control-flow edge crosses a
region boundary improperly:

* **legitimate edges**: any edge landing exactly on ``start`` (the
  injected acquire carries the boundary label, so every such path
  executes it — a re-acquire while holding is an architectural no-op),
  the fall-through ``end-1 → end`` (which passes the injected release),
  and ``EXIT`` inside the region (hardware reclaims the section at warp
  finish).
* **offending edges**: a jump from outside into the region's interior
  (would touch extended registers without acquiring) or a jump from
  inside to anywhere other than ``end`` (would keep the section past the
  release).  Each offending edge grows the region to contain both of its
  endpoints; growth is monotone and bounded by the kernel length, so
  normalization always terminates.

For structured code the common cases are: a straight-line burst inside a
larger block (already normal — zero growth), and a burst containing a
loop back edge (grows to cover the whole loop, which is exactly the
acquire-around-the-loop placement the paper describes).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.compiler.regions import AcquireRegion
from repro.errors import CompileError
from repro.isa.instructions import Instruction, Opcode
from repro.isa.kernel import Kernel


class RegionShapeError(CompileError):
    """A region could not be normalized (should be unreachable: growth is
    bounded by the kernel length)."""


def _offending_edges(
    kernel: Kernel, region: AcquireRegion
) -> list[tuple[int, int]]:
    """Control edges (p -> s) that improperly cross the region boundary."""
    start, end = region.start, region.end
    offending: list[tuple[int, int]] = []
    for pc in range(len(kernel)):
        inside = start <= pc < end
        for succ in kernel.successors_of_pc(pc):
            succ_inside = start <= succ < end
            if inside and not succ_inside:
                if succ == end:
                    continue  # passes the release: legitimate
                offending.append((pc, succ))
            elif not inside and succ_inside:
                if succ == start:
                    continue  # lands on the acquire: legitimate
                if pc == start - 1 and succ == start:
                    continue  # unreachable given the branch above; kept
                    # for symmetry with the docstring's edge list
                offending.append((pc, succ))
    return offending


def normalize_region(kernel: Kernel, region: AcquireRegion) -> AcquireRegion:
    """Grow the region until no edge crosses its boundary improperly."""
    start, end = region.start, region.end
    n = len(kernel)
    for _ in range(2 * n + 2):
        offending = _offending_edges(kernel, AcquireRegion(start, end))
        if not offending:
            return AcquireRegion(start, end)
        for p, s in offending:
            start = min(start, p, s)
            end = max(end, p + 1, min(s + 1, n))
        end = min(end, n)
    raise RegionShapeError(
        f"region {region} failed to normalize"
    )  # pragma: no cover - growth is monotone and bounded


def _merge_overlapping(regions: list[AcquireRegion]) -> list[AcquireRegion]:
    if not regions:
        return []
    ordered = sorted(regions, key=lambda r: r.start)
    merged = [ordered[0]]
    for region in ordered[1:]:
        last = merged[-1]
        if region.start <= last.end:
            merged[-1] = AcquireRegion(last.start, max(last.end, region.end))
        else:
            merged.append(region)
    return merged


@dataclass(frozen=True)
class InjectionResult:
    kernel: Kernel
    regions: tuple[AcquireRegion, ...]  # normalized, in ORIGINAL pc space
    acquire_pcs: tuple[int, ...]        # pcs of ACQUIRE in the NEW kernel
    release_pcs: tuple[int, ...]


def inject_primitives(
    kernel: Kernel, regions: list[AcquireRegion]
) -> InjectionResult:
    """Insert ACQUIRE/RELEASE around each (normalized) region."""
    if not regions:
        return InjectionResult(kernel, (), (), ())
    normalized = _merge_overlapping(
        [normalize_region(kernel, r) for r in regions]
    )
    # Normalization may have created overlaps; merge until stable.
    while True:
        merged = _merge_overlapping(
            [normalize_region(kernel, r) for r in normalized]
        )
        if merged == normalized:
            break
        normalized = merged

    starts = {r.start for r in normalized}
    ends = {r.end for r in normalized}  # release goes before pc == end

    new_instructions: list[Instruction] = []
    acquire_pcs: list[int] = []
    release_pcs: list[int] = []
    for pc, inst in enumerate(kernel):
        if pc in ends:
            release_pcs.append(len(new_instructions))
            # The boundary instruction's label belongs to the *region
            # exit*: jumps to it must pass the release, so it moves onto
            # the RELEASE (a release while holding nothing is a no-op).
            new_instructions.append(Instruction(Opcode.RELEASE, label=inst.label))
            inst = replace(inst, label=None)
        if pc in starts:
            acquire_pcs.append(len(new_instructions))
            # Likewise the region-start label moves onto the ACQUIRE so
            # branches to the boundary execute the acquire.
            acquire = Instruction(Opcode.ACQUIRE, label=inst.label)
            new_instructions.append(acquire)
            inst = replace(inst, label=None)
        new_instructions.append(inst)
    # A region ending at len(kernel): EXIT reclamation covers termination,
    # but emit a trailing release when the last instruction is not EXIT.
    if len(kernel) in ends and not kernel[len(kernel) - 1].is_exit:
        release_pcs.append(len(new_instructions))
        new_instructions.append(Instruction(Opcode.RELEASE))

    return InjectionResult(
        kernel=kernel.with_instructions(new_instructions),
        regions=tuple(normalized),
        acquire_pcs=tuple(acquire_pcs),
        release_pcs=tuple(release_pcs),
    )
