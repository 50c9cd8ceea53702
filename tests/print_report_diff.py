"""Compare simulation reports of two revisions, less the keys that the
revision deriving the B state from ``b_spec`` changed on purpose.

    python tests/print_report_diff.py BASE_REPORT HEAD_REPORT [BASE HEAD ...]

Each argument pair names the same run's ``report.json`` (or ``simulate``'s
stdout, which holds its ``summary``) under the base and the head revision.
From both documents it deletes exactly ``scenario.prediction`` (the demo
files no longer carry a B state table), ``summary.match_mean_signed_max_rel``
and each trial's ``match.signed_max_rel`` (the signed match statistic), where
present, and compares the rest as JSON with sorted keys.  It prints one line
per pair, ``equal`` or the first key path that differs, and exits 1 if any
pair differs.  It needs the standard library only.
"""

import json
import sys


def _load(path):
    """The document at ``path`` without the keys this revision changed."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.get("scenario", {}).pop("prediction", None)
    doc.get("summary", {}).pop("match_mean_signed_max_rel", None)
    for trial in doc.get("trials", []):
        trial.get("match", {}).pop("signed_max_rel", None)
    return doc


def _first_difference(base, head, path="$"):
    """The key path of the first value at which ``base`` and ``head`` differ, or None."""
    if isinstance(base, dict) and isinstance(head, dict):
        for key in sorted(base.keys() | head.keys()):
            if key not in base or key not in head:
                return f"{path}.{key}"
            found = _first_difference(base[key], head[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(base, list) and isinstance(head, list) and len(base) == len(head):
        for pos, (b, h) in enumerate(zip(base, head)):
            found = _first_difference(b, h, f"{path}[{pos}]")
            if found:
                return found
        return None
    return None if json.dumps(base) == json.dumps(head) else path


def main(paths):
    if not paths or len(paths) % 2:
        sys.exit("usage: print_report_diff.py BASE_REPORT HEAD_REPORT [BASE HEAD ...]")
    differ = False
    for base_path, head_path in zip(paths[::2], paths[1::2]):
        base, head = _load(base_path), _load(head_path)
        if json.dumps(base, sort_keys=True) == json.dumps(head, sort_keys=True):
            print(f"{head_path}: equal")
        else:
            differ = True
            print(f"{head_path}: differs from {base_path} at {_first_difference(base, head)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
