"""Time one ``jointpo.parse_unit_rows`` call in a fresh interpreter.

Usage: ``python unit_rows_child.py <units.csv>``. Prints one JSON object
with the call's seconds, the row count and the aggregated counts.
"""

import json
import sys
from time import perf_counter


def describe(dataset) -> dict:
    """The parsed dataset's row count, trial order and aggregated counts."""
    counts = dataset.counts_tensor()
    return {
        "rows": int(counts.sum()),
        "trial_ids": [t.trial_id for t in dataset.trials],
        "counts": counts.tolist(),
    }


def main(path: str) -> None:
    import jointpo

    started = perf_counter()
    dataset = jointpo.parse_unit_rows(path)
    seconds = perf_counter() - started
    print(json.dumps({"seconds": seconds, **describe(dataset)}))


if __name__ == "__main__":
    main(sys.argv[1])
