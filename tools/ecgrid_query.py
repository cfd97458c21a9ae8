#!/usr/bin/env python3
"""Queryable results store for ecgrid campaigns and benches (SQLite).

Ingests the two result formats the repo produces into one SQLite file,
then answers questions about them without re-parsing JSON by hand:

  * campaign JSONL — one record per run from tools/ecgrid-campaign
    (src/campaign/campaign_runner.cpp), including the deterministic
    `telemetry` roll-up block added in PR 10.
  * bench JSON — bench_out/BENCH_<figure>.json from tools/ecgrid-bench
    figure runs. BENCH_micro.json (Google-Benchmark-style microbench
    output) has a different schema and is skipped with a note.

Schema (all created on first ingest; ingest is idempotent — rows are
REPLACEd by primary key, so re-ingesting a regenerated file updates in
place):

  bench(figure PK, source, quick, jobs, runs, wall_seconds,
        events_executed, events_per_second, frames_transmitted,
        frames_per_second)
  bench_metric(figure, name, value)            -- top-level "metrics"
  bench_series(figure, series, x, value)       -- "series" point sets
  bench_scenario_metric(figure, scenario, metric, value)
  run(fingerprint PK, campaign, seed, ok, error, source)
  run_config(fingerprint, key, value)          -- sweep-axis overrides
  run_metric(fingerprint, name, value)         -- result scalars,
        result.metrics.*, and telemetry.* (prefixed)

Subcommands:
  ingest  --db FILE paths...   build/refresh the store
  tables  --db FILE            row counts per table
  slo     --db FILE [--figure F]        SLO %% per series point
  energy  --db FILE [--figure F]        energy series (aen_joules)
  top     --db FILE --metric M [--figure F] [-n N] [--asc]
                                        top-N scenarios by a metric
  campaign --db FILE [--campaign C] [--where k=v ...]
                                        per-config aggregates incl.
                                        telemetry roll-up means
  sql     --db FILE "SELECT ..."        raw read-only SQL

Only the Python standard library is used.

Examples (documented in EXPERIMENTS.md):
    tools/ecgrid_query.py ingest --db store.db bench_out/BENCH_*.json
    tools/ecgrid_query.py slo --db store.db --figure workload
    tools/ecgrid_query.py top --db store.db --figure workload \\
        --metric mac.frames_dropped -n 5
    tools/ecgrid_query.py campaign --db store.db --where protocol=ECGRID
"""

import argparse
import json
import os
import sqlite3
import sys

BENCH_SCALARS = (
    ("quick", int),
    ("jobs", int),
    ("runs", int),
    ("wall_seconds", float),
    ("events_executed", int),
    ("events_per_second", float),
    ("frames_transmitted", int),
    ("frames_per_second", float),
)

DDL = """
CREATE TABLE IF NOT EXISTS bench (
  figure TEXT PRIMARY KEY, source TEXT, quick INTEGER, jobs INTEGER,
  runs INTEGER, wall_seconds REAL, events_executed INTEGER,
  events_per_second REAL, frames_transmitted INTEGER,
  frames_per_second REAL);
CREATE TABLE IF NOT EXISTS bench_metric (
  figure TEXT, name TEXT, value REAL, PRIMARY KEY (figure, name));
CREATE TABLE IF NOT EXISTS bench_series (
  figure TEXT, series TEXT, x REAL, value REAL,
  PRIMARY KEY (figure, series, x));
CREATE TABLE IF NOT EXISTS bench_scenario_metric (
  figure TEXT, scenario TEXT, metric TEXT, value REAL,
  PRIMARY KEY (figure, scenario, metric));
CREATE TABLE IF NOT EXISTS run (
  fingerprint TEXT PRIMARY KEY, campaign TEXT, seed INTEGER,
  ok INTEGER, error TEXT, source TEXT);
CREATE TABLE IF NOT EXISTS run_config (
  fingerprint TEXT, key TEXT, value TEXT, PRIMARY KEY (fingerprint, key));
CREATE TABLE IF NOT EXISTS run_metric (
  fingerprint TEXT, name TEXT, value REAL, PRIMARY KEY (fingerprint, name));
"""


def ingest_bench(db, path, doc):
    figure = doc["figure"]
    row = [figure, os.path.basename(path)]
    for name, cast in BENCH_SCALARS:
        value = doc.get(name)
        row.append(cast(value) if value is not None else None)
    db.execute(
        "REPLACE INTO bench VALUES (?,?,?,?,?,?,?,?,?,?)", row
    )
    # Re-ingest replaces, so clear dependents first: a regenerated bench
    # may have dropped a series or scenario, and stale rows would lie.
    for table in ("bench_metric", "bench_series", "bench_scenario_metric"):
        db.execute("DELETE FROM %s WHERE figure = ?" % table, (figure,))
    for name, value in doc.get("metrics", {}).items():
        if isinstance(value, (int, float)):
            db.execute(
                "REPLACE INTO bench_metric VALUES (?,?,?)",
                (figure, name, float(value)),
            )
    for series, points in doc.get("series", {}).items():
        xs, vs = points.get("t", []), points.get("v", [])
        for x, value in zip(xs, vs):
            db.execute(
                "REPLACE INTO bench_series VALUES (?,?,?,?)",
                (figure, series, float(x), float(value)),
            )
    for scenario, metrics in doc.get("scenarios", {}).items():
        for metric, value in metrics.items():
            if isinstance(value, (int, float)):
                db.execute(
                    "REPLACE INTO bench_scenario_metric VALUES (?,?,?,?)",
                    (figure, scenario, metric, float(value)),
                )
    return 1


def flatten_result(result):
    """Numeric result fields, with nested result.metrics.* inlined."""
    for name, value in result.items():
        if name == "metrics" and isinstance(value, dict):
            for inner, inner_value in value.items():
                if isinstance(inner_value, (int, float)):
                    yield inner, float(inner_value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield name, float(value)


def ingest_campaign(db, path, lines):
    records = torn = 0
    for lineno, line in lines:
        try:
            record = json.loads(line)
        except ValueError:
            torn += 1  # torn trailing line after a kill: skip, like resume
            continue
        fingerprint = record.get("fingerprint")
        if not isinstance(fingerprint, str):
            torn += 1
            continue
        db.execute(
            "REPLACE INTO run VALUES (?,?,?,?,?,?)",
            (
                fingerprint,
                record.get("campaign", ""),
                int(record.get("seed", 0)),
                1 if record.get("ok") else 0,
                record.get("error", ""),
                os.path.basename(path),
            ),
        )
        db.execute(
            "DELETE FROM run_config WHERE fingerprint = ?", (fingerprint,)
        )
        db.execute(
            "DELETE FROM run_metric WHERE fingerprint = ?", (fingerprint,)
        )
        for key, value in record.get("config", {}).items():
            db.execute(
                "REPLACE INTO run_config VALUES (?,?,?)",
                (fingerprint, key, str(value)),
            )
        for name, value in flatten_result(record.get("result", {}) or {}):
            db.execute(
                "REPLACE INTO run_metric VALUES (?,?,?)",
                (fingerprint, name, value),
            )
        for name, value in (record.get("telemetry", {}) or {}).items():
            if isinstance(value, (int, float)):
                db.execute(
                    "REPLACE INTO run_metric VALUES (?,?,?)",
                    (fingerprint, "telemetry." + name, float(value)),
                )
        records += 1
    return records, torn


def cmd_ingest(args):
    db = sqlite3.connect(args.db)
    db.executescript(DDL)
    for path in args.paths:
        with open(path, "r", encoding="utf-8") as handle:
            first = handle.readline().strip()
            if not first:
                print("%s: empty, skipped" % path)
                continue
            head = None
            try:
                head = json.loads(first)
            except ValueError:
                pass
            if isinstance(head, dict) and "fingerprint" in head:
                # Campaign JSONL: first line is itself a record.
                def numbered():
                    yield 1, first
                    for lineno, raw in enumerate(handle, start=2):
                        raw = raw.strip()
                        if raw:
                            yield lineno, raw

                records, torn = ingest_campaign(db, path, numbered())
                note = " (%d torn)" % torn if torn else ""
                print("%s: %d campaign record(s)%s" % (path, records, note))
                continue
            # Whole-file JSON (bench output).
            handle.seek(0)
            try:
                doc = json.load(handle)
            except ValueError as exc:
                print("%s: not JSON (%s), skipped" % (path, exc))
                continue
            if "benchmarks" in doc:
                print("%s: microbench schema, skipped" % path)
                continue
            if "figure" not in doc:
                print("%s: unrecognized schema, skipped" % path)
                continue
            ingest_bench(db, path, doc)
            print("%s: bench figure %r" % (path, doc["figure"]))
    db.commit()
    db.close()
    return 0


def open_store(args):
    if not os.path.exists(args.db):
        print("no store at %s (run `ingest` first)" % args.db,
              file=sys.stderr)
        sys.exit(1)
    return sqlite3.connect(args.db)


def print_rows(cursor):
    rows = cursor.fetchall()
    names = [d[0] for d in cursor.description]
    widths = [
        max(len(n), max((len(fmt(r[i])) for r in rows), default=0))
        for i, n in enumerate(names)
    ]
    print("  ".join(n.ljust(w) for n, w in zip(names, widths)))
    for row in rows:
        print("  ".join(fmt(v).ljust(w) for v, w in zip(row, widths)))
    return len(rows)


def fmt(value):
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def cmd_tables(args):
    db = open_store(args)
    for table in ("bench", "bench_metric", "bench_series",
                  "bench_scenario_metric", "run", "run_config",
                  "run_metric"):
        count = db.execute("SELECT COUNT(*) FROM %s" % table).fetchone()[0]
        print("%-22s %8d" % (table, count))
    return 0


def figure_clause(args):
    if args.figure:
        return " AND figure = ?", [args.figure]
    return "", []


def cmd_slo(args):
    db = open_store(args)
    clause, params = figure_clause(args)
    rows = print_rows(db.execute(
        "SELECT figure, series, x AS load, value AS slo_pct "
        "FROM bench_series WHERE series LIKE '%_slo_pct'" + clause +
        " ORDER BY figure, series, x", params))
    return 0 if rows else 1


def cmd_energy(args):
    db = open_store(args)
    clause, params = figure_clause(args)
    rows = print_rows(db.execute(
        "SELECT figure, series, x, value AS joules "
        "FROM bench_series WHERE series LIKE '%_aen_joules'" + clause +
        " ORDER BY figure, series, x", params))
    return 0 if rows else 1


def cmd_top(args):
    db = open_store(args)
    clause, params = figure_clause(args)
    order = "ASC" if args.asc else "DESC"
    rows = print_rows(db.execute(
        "SELECT figure, scenario, value FROM bench_scenario_metric "
        "WHERE metric = ?" + clause +
        " ORDER BY value %s LIMIT ?" % order,
        [args.metric] + params + [args.n]))
    return 0 if rows else 1


CAMPAIGN_MEANS = (
    ("deliveryRate", "delivery"),
    ("p95LatencySeconds", "p95_s"),
    ("abortedFlows", "aborted"),
    ("telemetry.peakQueueDepth", "peak_q"),
    ("telemetry.eventsPerSimSecond", "ev_per_sim"),
)


def cmd_campaign(args):
    db = open_store(args)
    where, params = [], []
    if args.campaign:
        where.append("campaign = ?")
        params.append(args.campaign)
    fingerprints = None
    for cond in args.where or []:
        key, _, value = cond.partition("=")
        rows = db.execute(
            "SELECT fingerprint FROM run_config WHERE key = ? AND value = ?",
            (key, value))
        matched = {r[0] for r in rows}
        fingerprints = matched if fingerprints is None else (
            fingerprints & matched)
    sql = "SELECT fingerprint, ok FROM run"
    if where:
        sql += " WHERE " + " AND ".join(where)
    groups = {}
    for fingerprint, ok in db.execute(sql, params):
        if fingerprints is not None and fingerprint not in fingerprints:
            continue
        config = dict(db.execute(
            "SELECT key, value FROM run_config WHERE fingerprint = ?",
            (fingerprint,)))
        label = ",".join(
            "%s=%s" % kv for kv in sorted(config.items())) or "(base)"
        group = groups.setdefault(
            label, {"seeds": 0, "failed": 0,
                    "sums": {m: [0.0, 0] for m, _ in CAMPAIGN_MEANS}})
        group["seeds"] += 1
        if not ok:
            group["failed"] += 1
            continue
        for metric, _ in CAMPAIGN_MEANS:
            row = db.execute(
                "SELECT value FROM run_metric "
                "WHERE fingerprint = ? AND name = ?",
                (fingerprint, metric)).fetchone()
            if row is not None:
                group["sums"][metric][0] += row[0]
                group["sums"][metric][1] += 1
    if not groups:
        print("no matching runs", file=sys.stderr)
        return 1
    header = ["config".ljust(44), "seeds", "failed"]
    header += [short.rjust(10) for _, short in CAMPAIGN_MEANS]
    print("  ".join(header))
    for label in sorted(groups):
        group = groups[label]
        cells = [label[:44].ljust(44), "%5d" % group["seeds"],
                 "%6d" % group["failed"]]
        for metric, _ in CAMPAIGN_MEANS:
            total, count = group["sums"][metric]
            cells.append(
                ("%.4g" % (total / count)).rjust(10) if count else
                "-".rjust(10))
        print("  ".join(cells))
    return 0


def cmd_sql(args):
    db = open_store(args)
    db.execute("PRAGMA query_only = ON")
    try:
        cursor = db.execute(args.statement)
    except sqlite3.Error as exc:
        print("sql error: %s" % exc, file=sys.stderr)
        return 1
    if cursor.description is None:
        print("(no rows)")
        return 0
    print_rows(cursor)
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        prog="ecgrid_query.py",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--db", required=True, help="SQLite store path")

    p = sub.add_parser("ingest", help="ingest campaign JSONL / bench JSON")
    common(p)
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("tables", help="row counts per table")
    common(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("slo", help="SLO-percentage series points")
    common(p)
    p.add_argument("--figure")
    p.set_defaults(func=cmd_slo)

    p = sub.add_parser("energy", help="energy (aen_joules) series points")
    common(p)
    p.add_argument("--figure")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("top", help="top-N scenarios by a metric")
    common(p)
    p.add_argument("--metric", required=True)
    p.add_argument("--figure")
    p.add_argument("-n", type=int, default=10)
    p.add_argument("--asc", action="store_true")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("campaign", help="per-config campaign aggregates")
    common(p)
    p.add_argument("--campaign")
    p.add_argument("--where", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("sql", help="raw read-only SQL")
    common(p)
    p.add_argument("statement")
    p.set_defaults(func=cmd_sql)

    args = parser.parse_args(argv[1:])
    return args.func(args)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except BrokenPipeError:  # e.g. `... | head`
        sys.exit(0)
