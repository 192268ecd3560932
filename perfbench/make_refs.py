"""Regenerate the committed reference outputs in ``perfbench/refs``.

    python3 perfbench/make_refs.py

Runs every spec of every workload once for each reference seed with the
benchmark's thread settings and stores each returned file -- CSVs in
``outcheck.stored_form`` -- LZMA-compressed under the digest of its content,
plus ``index.json`` mapping (workload, seed, spec) to file names and
digests. Identical files (such as ambiguity surfaces, which do not depend on
the seed) are stored once. Rerun only for a change meant to alter outputs.
"""

from __future__ import annotations

import hashlib
import json
import lzma
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS
sys.path.insert(0, str(HERE.parent / "src"))

from afdmsim.experiments import run  # noqa: E402

from outcheck import REFS_DIR, stored_form  # noqa: E402
from workloads import WORKLOADS, build_specs  # noqa: E402

#: 1 is the built-in scenarios' own seed; 2 is held out from tuning.
REF_SEEDS = (1, 2)


def main() -> int:
    index = {"seeds": list(REF_SEEDS), "runs": {}}
    blobs: dict[str, bytes] = {}
    scratch = HERE.parent / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="refs-", dir=scratch))
    try:
        for workload in WORKLOADS:
            per_seed = index["runs"][workload] = {}
            for seed in REF_SEEDS:
                files = per_seed[str(seed)] = []
                for spec in build_specs(workload, seed, tmp / workload / str(seed)):
                    entry = []
                    for path in run(spec):
                        text = path.read_text()
                        data = (text if path.suffix == ".json" else stored_form(text)).encode()
                        digest = hashlib.sha256(data).hexdigest()[:20]
                        blobs[digest] = data
                        entry.append([path.name, digest])
                    files.append(entry)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    REFS_DIR.mkdir(exist_ok=True)
    for old in REFS_DIR.glob("*.xz"):
        if old.stem not in blobs:
            old.unlink()
    for digest, data in blobs.items():
        (REFS_DIR / f"{digest}.xz").write_bytes(lzma.compress(data, preset=9))
    (REFS_DIR / "index.json").write_text(json.dumps(index, indent=1, sort_keys=True) + "\n")
    print(f"{len(blobs)} reference files for seeds {REF_SEEDS} in {REFS_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
