#!/usr/bin/env python3
"""Check that a figure bench's results do not depend on --threads or --sim-threads.

Usage: check_bit_identical.py BENCH DEFAULT.json SERIAL.json PDES.json

BENCH names the bench in the messages (e.g. bench_shard). DEFAULT.json is a
run with the default trial pool, SERIAL.json one with --threads=1 and
PDES.json one with --sim-threads=2. Wall-clock and machine-dependent perf
fields are the only legitimate differences: each must be present in all
three files and is dropped. Then DEFAULT must equal SERIAL, and DEFAULT
must equal PDES once `sim_threads`, which both must have, is dropped from
both.

Prints "bit-identical" and exits 0 on success; exits 1 with a message on
any difference, missing field or unreadable file.
"""
import json
import sys

PERF_FIELDS = ('threads', 'wall_clock_seconds', 'events_processed',
               'events_per_second', 'heap_allocations', 'allocs_per_event')


def fail(msg):
    print(msg, file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: cannot read: {e}")


def drop(doc, field, path):
    if field not in doc:
        fail(f"{path}: missing field '{field}'")
    del doc[field]


def main(argv):
    if len(argv) != 4:
        fail("usage: check_bit_identical.py BENCH DEFAULT.json SERIAL.json "
             "PDES.json")
    bench, paths = argv[0], argv[1:]
    default, serial, pdes = docs = [load(p) for p in paths]
    for doc, path in zip(docs, paths):
        for field in PERF_FIELDS:
            drop(doc, field, path)
    if default != serial:
        fail(f"{bench} output depends on --threads")
    for doc, path in ((default, paths[0]), (pdes, paths[2])):
        drop(doc, 'sim_threads', path)
    if default != pdes:
        fail(f"{bench} output depends on --sim-threads")
    print("bit-identical")


if __name__ == '__main__':
    main(sys.argv[1:])
