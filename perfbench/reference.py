"""A fixed task that gauges how fast the shared machine runs right now.

    python3 perfbench/reference.py

It uses only the standard library, never the package, and always does the
same work: it writes 15,000 diary-like CSV rows to memory, parses them back
with float and date conversions, sorts them and encodes them as JSON. That
is the kind of work the CLI does, so when other tenants slow the machine,
this task slows with it. ``run.py`` times it as a child process, alongside
the workload, and divides the measured times by its slowdown. It prints a
checksum, so that a task which did less work shows.
"""

import csv
import datetime
import io
import json
import random
import zlib

ROWS = 15_000


def main() -> None:
    rng = random.Random(0)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    for i in range(ROWS):
        minutes = (f"{rng.random() * 500:.3f}" for _ in range(6))
        writer.writerow([f"P{i:05d}", f"2019-{1 + i % 12:02d}-{1 + i % 28:02d}", "office", *minutes])
    days = []
    for row in csv.reader(io.StringIO(buffer.getvalue())):
        day = datetime.date.fromisoformat(row[1])
        days.append({"id": row[0], "date": day, "location": row[2], "minutes": [float(v) for v in row[3:]]})
    days.sort(key=lambda d: (d["date"], -sum(d["minutes"]), d["id"]))
    encoded = json.dumps([{"id": d["id"], "date": d["date"].isoformat(), "total": sum(d["minutes"])}
                          for d in days])
    print(zlib.crc32(encoded.encode("utf-8")))


if __name__ == "__main__":
    main()
