"""Set-up probe: import eqlab and build one workload's input instances.

Usage: ``python3 bench/build_inputs.py SPEC_JSON``

SPEC_JSON lists the instances the workload's commands consume:
``{"synthesize": [[dim, kind, seed, order], ...],
"random_connection": [[dim, order, seed], ...], "stored": [path, ...]}``.
They are built through eqlab's public API.  The clock starts before
``import eqlab`` in this fresh interpreter, so the figure printed (one
JSON object with ``setup_s``) is what a user pays before the first
command can start work.
"""

import json
import sys
import time


def main(spec: dict) -> float:
    start = time.perf_counter()
    from eqlab import MappedPair, random_connection, synthesize_instance

    built = [synthesize_instance(*args) for args in spec["synthesize"]]
    built += [random_connection(*args) for args in spec["random_connection"]]
    for path in spec["stored"]:
        with open(path, "r", encoding="utf-8") as handle:
            built.append(MappedPair.from_json(json.load(handle)))
    return time.perf_counter() - start


if __name__ == "__main__":
    print(json.dumps({"setup_s": main(json.loads(sys.argv[1]))}))
