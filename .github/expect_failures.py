"""Exit 0 iff a JUnit XML report failed exactly the named tests.

    python .github/expect_failures.py report.xml test_name [test_name ...]

A test counts as failed when its case holds a <failure> or an <error>
(collection errors included).  An empty report fails too.
"""

import sys
import xml.etree.ElementTree as ET


def main(path: str, expected: set[str]) -> int:
    cases = list(ET.parse(path).getroot().iter("testcase"))
    failed = {
        c.get("name")
        for c in cases
        if c.find("failure") is not None or c.find("error") is not None
    }
    print(f"{len(cases)} tests, failed: {sorted(failed)}")
    if not cases:
        print("no tests ran")
        return 1
    if failed != expected:
        print(f"expected exactly {sorted(expected)} to fail")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], set(sys.argv[2:])))
