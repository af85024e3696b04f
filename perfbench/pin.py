"""Write expected.json: the opt costs and compare totals of this commit for
every workload and a range of seeds.  run.py checks every pass of a run
against them, so an optimizer that turns consistent but wrong (a
suboptimal tree whose cost every other command agrees with) still fails.
Run it only on a commit whose results are trusted; the file holds the
seed commit's.

    python3 perfbench/pin.py --seeds 0-49

Each workload and seed takes one gen and one full pass, which must pass
every check of run.py.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spread import seed_list  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, required=True)
    args = parser.parse_args(argv)

    main_ = run._import_cli()
    probe = run.SpeedProbe()
    pinned = {}
    for workload in run.WORKLOADS:
        files = run._prepare(workload)
        n = run._gen_args(workload)[1]
        pinned[workload] = {}
        for seed in args.seeds:
            code, _ = run.run_command(main_, run._gen_argv(workload, seed, files))
            p = run.run_pass(main_, files, probe)
            if code or run.failed_commands([p], n):
                print(f"{workload} seed {seed}: a check failed; nothing written",
                      file=sys.stderr)
                return 1
            pinned[workload][str(seed)] = run.pinned_values(p["out"])
            print(f"{workload} seed {seed}: {pinned[workload][str(seed)]}", flush=True)
    run.EXPECTED.write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
