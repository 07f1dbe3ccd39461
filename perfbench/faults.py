"""A fault-injecting stand-in model for the raven-learn workload.

`FaultyResponder` answers like `SyntheticResponder`, except that a seeded
share of stage-2 samples are mutants of the fixture source, queued with
`override_source`, and it answers repair prompts itself with the fixture
source. The stock responder raises `LookupError` on repair prompts, because
`templates/repair.txt` lacks the "could you write a new module" marker, so
without this no repair round is ever recorded.

Every mutant fails most of its cases, quickly:
- ``raise``: `execute` raises, which the sandbox reports as `runtime`;
- ``wrong_type``: `execute` returns None, which the sandbox reports as
  `wrong_output`;
- ``wrong_value``: `execute` returns a well-typed value that no case expects.

No mutant loops, so no case waits on the sandbox's wall-time budget. With
at most one repair round answered correctly, the grown library equals the
one a fault-free run grows.
"""

from __future__ import annotations

import itertools
import random
import re

from modgrow.reference_modules import FIXTURE_SOURCES, fixture_signature
from modgrow.replay_seed import SyntheticResponder, program_modules

MUTANT_KINDS = ("raise", "wrong_type", "wrong_value")

_REPAIR_RE = re.compile(r"You previously wrote a module, ([A-Za-z_][A-Za-z0-9_]*),")
# a value of the declared return tag that no training case expects
_WRONG_VALUE = {"list": "[]", "number": "-1"}


def mutate(source: str, kind: str, returns: str) -> str:
    """Insert one faulty first statement into the body of `execute`."""
    statement = {
        "raise": "raise ValueError('injected fault')",
        "wrong_type": "return None",
        "wrong_value": f"return {_WRONG_VALUE[returns]}",
    }[kind]
    lines = source.split("\n")
    at = next(i for i, line in enumerate(lines) if line.lstrip().startswith("def execute("))
    indent = len(lines[at]) - len(lines[at].lstrip()) + 4
    lines.insert(at + 1, " " * indent + statement)
    return "\n".join(lines)


class FaultyResponder(SyntheticResponder):
    """Queues mutated stage-2 samples and answers repair prompts.

    The modules learned are those of `train`'s canonical programs that have
    a fixture. Of the `k` samples of each, all are mutants for the first
    module by name, so every seed runs the rejection path and a repair
    round, and all but one are mutants for every other module. The seed
    picks which sample is sound and the order in which mutants take the
    three kinds in turn, so with three mutants or more every kind runs on
    every seed. The number of sound candidates scored, and so the learn
    cost, is the same for every seed.
    """

    def __init__(self, seed: int, k: int, train):
        super().__init__()
        rng = random.Random(f"faults:{seed}")
        kinds = itertools.cycle(rng.sample(MUTANT_KINDS, len(MUTANT_KINDS)))
        learned = set().union(*(program_modules(i.canonical_program) for i in train))
        for n, name in enumerate(sorted(learned & FIXTURE_SOURCES.keys())):
            sound = rng.randrange(k) if n else None
            returns = fixture_signature(name).returns
            self.override_source(name, [
                FIXTURE_SOURCES[name] if i == sound
                else mutate(FIXTURE_SOURCES[name], next(kinds), returns)
                for i in range(k)
            ])

    def __call__(self, req) -> str:
        repair = _REPAIR_RE.search(req.prompt)
        if repair is None:
            return super().__call__(req)
        self.calls += 1
        return FIXTURE_SOURCES[repair.group(1)]
