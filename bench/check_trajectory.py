#!/usr/bin/env python3
"""Compare the deterministic fields of two bench trajectory files.

Usage: python3 bench/check_trajectory.py COMMITTED.json FRESH.json

Exits 1 and lists every difference unless both files hold the same rows
in the same (protocol, engine, parties) order, each with the same
rounds, messages, payload, framed and transport bytes, retransmits,
nacks and timeouts, and the same per-phase (label, rounds, messages,
payload_bytes) list.  Wall times and per-party compute vary from run to
run and are not compared.
"""

import json
import sys

ROW_FIELDS = ("rounds", "messages", "payload_bytes", "framed_bytes",
              "transport_bytes", "retransmits", "nacks", "timeouts")
PHASE_FIELDS = ("phase", "rounds", "messages", "payload_bytes")


def deterministic(path):
    with open(path) as f:
        rows = json.load(f)["rows"]
    return [((r["protocol"], r["engine"], r["parties"]),
             {k: r[k] for k in ROW_FIELDS},
             [tuple(p[k] for k in PHASE_FIELDS) for p in r["phases"]])
            for r in rows]


def main(committed, fresh):
    old, new = deterministic(committed), deterministic(fresh)
    diffs = []
    keys_old, keys_new = [k for k, _, _ in old], [k for k, _, _ in new]
    if keys_old != keys_new:
        diffs.append("row order: committed %s, fresh %s" % (keys_old, keys_new))
    else:
        for (key, fields_old, phases_old), (_, fields_new, phases_new) in zip(old, new):
            for field in ROW_FIELDS:
                if fields_old[field] != fields_new[field]:
                    diffs.append("%s %s: committed %s, fresh %s"
                                 % (key, field, fields_old[field], fields_new[field]))
            if phases_old != phases_new:
                diffs.append("%s phases: committed %s, fresh %s" % (key, phases_old, phases_new))
    for d in diffs:
        print(d)
    print("%d row(s) compared, %d difference(s)" % (len(old), len(diffs)))
    return 1 if diffs else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
