"""Child process for ``setup_s``: import witworld and return the first verdict.

Usage: python3 perfbench/first_verdict.py WORKLOAD SEED WORKDIR

Prints ``ok`` or ``fail`` on one line as soon as the workload's first
verdict has come back and been checked; the parent times the interval
from starting this interpreter to reading that line.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import corpus  # noqa: E402  (imports witworld)


def main(workload: str, seed: str, workdir: str) -> int:
    item = corpus.build(workload, int(seed), 1, workdir)[0]
    try:
        outcome = item.call()
    except Exception as exc:
        outcome = corpus.CallFailed(exc)
    sound, _ = item.judge(outcome)
    print("ok" if sound else "fail", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
