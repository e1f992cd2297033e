"""SHA-256 digests of the benchmark workloads' result documents.

    PYTHONPATH=src python3 tests/workload_digests.py > digests.txt
    diff digests.txt tests/golden/workloads.sha256

For each workload of ``perfbench/workloads.py`` and seeds 1 and 2, every
input of the batch is normalized, ``verify_result`` must pass, and its
``--json --trace`` document (one line each, as ``closure-kit normalize
FILE --json --trace`` prints it) goes into the hash.  One line
``<workload> <seed> <sha256>`` is printed per batch, so any change in
components, relations, adjoined fractions or traces shows as a diff.
pytest does not collect this file; it takes about 15 s on 2 shared cores.
"""
import hashlib
import sys
from pathlib import Path

from closurekit import (DEGREVLEX, build_result_document, emit_json, normalize,
                        parse_input, presentation, verify_result)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
OPTIONS = {"order": "degrevlex", "max_iter": 32}
SEEDS = (1, 2)


def digest(workloads, workload, seed):
    stream = workloads.stream(workload, seed)
    h = hashlib.sha256()
    for _ in range(workloads.batch_size(workload)):
        doc = parse_input(next(stream).text, DEGREVLEX)
        start = presentation(doc.ring, doc.generators)
        result = normalize(start, max_iterations=OPTIONS["max_iter"])
        verify_result(start, result)
        line = emit_json(build_result_document(result, OPTIONS, True))
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def main():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            print(f"{workload} {seed} {digest(workloads, workload, seed)}", flush=True)


if __name__ == "__main__":
    main()
