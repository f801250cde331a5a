"""Exit 1 unless a benchmark run's result line reads correct: true and failed: 0.

The result line is the last line of `perfbench/run.py`'s output.  An op can
fail (`failed`), and a check can fail outside any op, as a traced pass's
checks do, which leaves `failed` at 0 and sets `correct` to false; either
fails the smoke step.

Usage: python3 .github/scripts/check_bench_result.py LABEL < run.out
"""

import json
import sys

result = json.loads(sys.stdin.read().splitlines()[-1])
print(f"{sys.argv[1]}: correct {result['correct']}, failed {result['failed']}")
sys.exit(0 if result["correct"] is True and result["failed"] == 0 else 1)
