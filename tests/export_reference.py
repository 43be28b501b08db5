"""Reference form of the observability exporters.

These are ``repro.obs.bundle._write_jsonl`` and ``_write_csv`` as they
stood while every JSONL row was a dict handed to
``json.dumps(record, sort_keys=True)`` -- one encoder and one key sort
per row -- moved here verbatim (before PR 20 made the production
writer encode column by column).  They define the bytes of every
``ObsBundle.export`` file: key order, number formatting, string
escaping, which of ``extra`` / ``time`` / a column wins when names
collide, and that a second call on the same path appends.
``tests/test_obs_export_exact.py`` holds the production writers to
them byte for byte.

A change that moves an exported byte on purpose has to edit this
file, and say so; a change that claims the same files must not.
"""

import csv
import json
import os


def _write_jsonl(path, series, extra):
    """Write one series as JSONL rows; returns rows written."""
    with open(path, "a", encoding="utf-8") as handle:
        for row in series.rows:
            record = dict(extra)
            record["time"] = row[0]
            for name, value in zip(series.columns, row[1:]):
                record[name] = value
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(series.rows)


def _write_csv(path, series, extra):
    """Append one series to a CSV file (header written once)."""
    new_file = not os.path.exists(path)
    with open(path, "a", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        if new_file:
            writer.writerow([*extra.keys(), "time", *series.columns])
        for row in series.rows:
            writer.writerow([*extra.values(), *row])
    return len(series.rows)
