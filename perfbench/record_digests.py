"""Record digests.json: the output digest of every operation of every
workload at both sizes, for each of RECORDED_SEEDS.

    python3 perfbench/record_digests.py

Run it from the root of a checkout, and only when a change to
gangsched's output is intended.  Operations whose input does not depend
on the seed are recorded once, under "any"; the others under their
seed.  Operations that fail, or whose output fails its check, get no
digest and are reported on stderr.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import DIGESTS, OUT, RECORDED_SEEDS, SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    from workloads import SIZES, WORKLOADS, call, output_digest

    digests: dict = {}
    for size_name, size in SIZES.items():
        for name, setup in WORKLOADS.items():
            recorded: dict = {}
            for seed in RECORDED_SEEDS:
                work = OUT / f"record-{name}"
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                try:
                    for op in setup(work, seed, size):
                        key = str(seed) if op.seeded else "any"
                        if key == "any" and seed != RECORDED_SEEDS[0]:
                            continue
                        result = call(op.argv)
                        problems = ([result.error] if result.error
                                    else op.check(result.code, result.out)[1])
                        if problems:
                            print(f"{size_name} {name} seed {seed} {op.name}: no digest: "
                                  f"{problems}", file=sys.stderr)
                        else:
                            recorded.setdefault(key, {})[op.name] = output_digest(result)
                finally:
                    shutil.rmtree(work, ignore_errors=True)
            digests.setdefault(size_name, {})[name] = recorded
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
