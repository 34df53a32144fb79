"""Echo a bench/run.py report read from stdin; exit 0 iff its last line,
the JSON summary, says that no operation failed.

    python3 bench/run.py --workload oracle --seconds 5 | python .github/bench_report_ok.py

bench/run.py exits 0 whatever its checks find, so CI reads its result.
A report whose last line is not that summary fails too.
"""

import json
import sys


def main(lines: list[str]) -> int:
    sys.stdout.writelines(lines)
    try:
        report = json.loads(lines[-1])
        failed, attempted = report["failed"], report["attempted"]
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        print(f"no JSON summary on the last line: {exc!r}")
        return 1
    print(f"{failed} of {attempted} operations failed")
    return int(failed != 0)


if __name__ == "__main__":
    sys.exit(main(sys.stdin.readlines()))
