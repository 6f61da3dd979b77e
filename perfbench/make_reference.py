"""Record the physics outputs the benchmark checks every case against.

    python3 perfbench/make_reference.py

Runs each reference case compute-only and writes perfbench/reference.json:
per case (keyed label@grid size) the central singularity's index, class and
radial lines, the S3 lobe count, rotation and homogeneity.  Rerun it only
when a change to the physics is intended, and say so where the change lands.
"""

import json
import sys

from run import import_program


def main() -> int:
    import_program()
    from vecherald.scenarios import run_scenario
    from workloads import REFERENCE_PATH, case_key, physics, reference_configs

    ref = {case_key(cfg): physics(run_scenario(cfg)) for cfg in reference_configs()}
    with open(REFERENCE_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(ref, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {len(ref)} cases to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
