"""Output checks: every result the benchmark receives must pass them."""

from __future__ import annotations

import json


def result_problems(request, result, clean_accuracy=None) -> list[str]:
    """What is wrong with ``result`` as the answer to ``request``.

    One curve per target and one point per NM value, in request order;
    accuracies in [0, 1]; NM=0 points equal to the baseline; and, when
    ``clean_accuracy`` is given, the baseline equal to the clean accuracy
    the warm-up measured.
    """
    problems = []
    expected = [target.key for target in request.targets]
    if sorted(map(str, result.curves)) != sorted(map(str, expected)):
        return [f"curves {sorted(map(str, result.curves))} != "
                f"targets {sorted(map(str, expected))}"]
    for key in expected:
        curve = result.curves[key]
        nms = [point.nm for point in curve.points]
        if nms != list(request.nm_values):
            problems.append(f"{key}: NM values {nms}")
            continue
        for point in curve.points:
            if not 0.0 <= point.accuracy <= 1.0:
                problems.append(f"{key}@{point.nm}: accuracy "
                                f"{point.accuracy}")
            if point.nm == 0.0 and point.accuracy != curve.baseline_accuracy:
                problems.append(f"{key}@0: {point.accuracy} != baseline "
                                f"{curve.baseline_accuracy}")
    if clean_accuracy is not None and result.baseline_accuracy != \
            clean_accuracy:
        problems.append(f"baseline {result.baseline_accuracy} != clean "
                        f"accuracy {clean_accuracy}")
    return problems


def payload_bytes(result) -> str:
    """The canonical JSON of a whole result (store hits must match it)."""
    return json.dumps(result.to_payload(), sort_keys=True)


def curve_bytes(result) -> str:
    """The canonical JSON of a result's curves alone."""
    return json.dumps(result.to_payload()["curves"], sort_keys=True)
