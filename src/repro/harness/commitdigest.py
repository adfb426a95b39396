"""Commit-stream digest: one run's retired uops folded into a sha256.

:func:`digest_run` runs one configuration with a retire hook that folds
every retired uop (thread, sequence number, PC, opcode, result, memory
address, store value, branch outcome) into a digest.  Two runs with equal
digests committed the same instructions with the same effects in the same
order; the golden timing corpus (``tests/golden/timing.json``) pins these
digests next to cycles and SimStats.

``perturb_cycle`` injects a seeded one-cycle timing perturbation (the
clock silently skips a cycle number, as a real timing bug would), so a
checker built on the digest can prove it sees such a bug.
"""

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.core.stats import SimStats
from repro.harness.simulator import RunConfig, _build_core, _boot_from_checkpoint

__all__ = ["CommitDigest", "digest_run"]


@dataclass
class CommitDigest:
    """One run's stats plus the digest of its full commit stream."""

    stats: SimStats
    digest: str
    commits: int


def _digest_commit(h, thread, uop) -> None:
    """Fold one retired uop into the commit-stream digest.

    Everything architecturally observable at retire participates: the
    thread, program position, and the uop's computed effects.  Helper
    threads are included — their retires race the main thread in real
    runs, so a reordering is a divergence even at equal cycle counts.
    """
    inst = uop.inst
    h.update((
        f"{thread.id}|{thread.kind.value}|{uop.seq}|{inst.pc}|"
        f"{inst.opcode.value}|{uop.result}|{uop.mem_addr}|"
        f"{uop.store_value}|{uop.taken}|{uop.pred_enabled}\n"
    ).encode())


def digest_run(config: RunConfig,
               perturb_cycle: Optional[int] = None) -> CommitDigest:
    """Run ``config``; returns its stats and commit-stream digest."""
    core, _obs, program = _build_core(config)
    if config.start_instruction > 0:
        _boot_from_checkpoint(core, config, program)

    digest = hashlib.sha256()
    commits = 0
    orig_retire = core._retire_uop

    def digesting_retire(thread, uop):
        nonlocal commits
        commits += 1
        _digest_commit(digest, thread, uop)
        return orig_retire(thread, uop)

    core._retire_uop = digesting_retire

    if perturb_cycle is not None:
        # Seeded timing-bug injection: one extra cycle elapses at the
        # first tick at or past ``perturb_cycle`` — exactly the footprint
        # of an off-by-one stall bug.  (``>=`` with a one-shot latch, so
        # an idle-skip jump over the exact cycle number cannot mask it.)
        # Writebacks due in the skipped cycle land one cycle late rather
        # than being dropped, so the perturbed run still completes.
        orig_tick = core.tick
        fired = []

        def perturbed_tick():
            orig_tick()
            if not fired and core.cycle >= perturb_cycle:
                fired.append(True)
                late = core.wb_events.pop(core.cycle, None)
                core.cycle += 1
                if late:
                    core.wb_events[core.cycle][:0] = late

        core.tick = perturbed_tick

    stats = core.run(max_instructions=config.max_instructions,
                     max_cycles=config.max_cycles)
    return CommitDigest(stats=stats, digest=digest.hexdigest(),
                        commits=commits)
