#!/usr/bin/env python3
"""Summarize a Chrome trace-event JSON file produced by `--trace=FILE`.

Reads the `{"displayTimeUnit": "ms", "traceEvents": [...]}` object written by
src/obs/chrome_trace.cc and prints one row per span name: count, total ms,
mean ms, p95 ms, and the share of the dominant parent span's time. Nesting is
reconstructed per thread from the complete ("X") events' ts/dur intervals, so
the report shows e.g. tt.matmul.fc1 as a child of tt.layer with a percentage
of that parent.

Stdlib-only on purpose: this must run on a bare CI runner and in the CTest
wiring (tools/CMakeLists.txt) with no pip installs.

Traces may also carry nestable async events ("b"/"e" pairs keyed by
(cat, id) — the per-request spans RequestLog::ChromeAsyncSpans emits). Those
are rendered as a second, per-request latency table: one row per matched
begin/end pair with its request id, phase name, start, and duration.

Usage:
  trace_report.py TRACE.json            # print the per-span table(s)
  trace_report.py TRACE.json --validate # schema-check only; exit 1 on errors

--validate asserts the invariants Perfetto/chrome://tracing rely on (object
top level, traceEvents array, X events with string name + numeric ts/dur,
"b"/"e" events with an id and a matching partner, thread_name metadata shape)
so a trace that passes loads with no fixups.
"""

import argparse
import json
import os
import sys


def validate(trace):
    """Returns a list of human-readable schema violations (empty if valid)."""
    errors = []
    if not isinstance(trace, dict):
        return ["top level: expected a JSON object"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents: expected an array"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: expected an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "M", "b", "e"):
            errors.append(
                f"{where}: ph must be one of 'X', 'M', 'b', 'e', got {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            errors.append(f"{where}: name must be a non-empty string")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                errors.append(f"{where}: {key} must be an integer")
        if ph in ("b", "e"):
            # Nestable async events: viewers match them on (cat, id), so both
            # must be present; the id may be a string (the writer's form, so
            # 64-bit ids survive double-coercing parsers) or an integer.
            if not isinstance(ev.get("cat"), str) or not ev["cat"]:
                errors.append(f"{where}: async event needs a non-empty cat")
            if not isinstance(ev.get("id"), (str, int)) or isinstance(
                    ev.get("id"), bool):
                errors.append(f"{where}: async event needs a string/int id")
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or isinstance(ts, bool):
                errors.append(f"{where}: ts must be a number")
            elif ts < 0:
                errors.append(f"{where}: ts must be >= 0, got {ts}")
            continue
        if ph == "X":
            for key in ("ts", "dur"):
                val = ev.get(key)
                if not isinstance(val, (int, float)) or isinstance(val, bool):
                    errors.append(f"{where}: {key} must be a number")
                elif val < 0:
                    errors.append(f"{where}: {key} must be >= 0, got {val}")
            if "args" in ev and not isinstance(ev["args"], dict):
                errors.append(f"{where}: args must be an object")
        else:  # metadata
            if ev.get("name") == "thread_name":
                args = ev.get("args")
                if not isinstance(args, dict) or not isinstance(
                        args.get("name"), str):
                    errors.append(
                        f"{where}: thread_name metadata needs args.name string")
    errors.extend(_validate_async_pairing(events))
    return errors


def _async_key(ev):
    """Span identity for pairing: viewers match b/e on (cat, id); the name
    disambiguates the writer's multiple phases per request id."""
    return (ev.get("cat"), str(ev.get("id")), ev.get("name"))


def _validate_async_pairing(events):
    """Every 'b' needs a later 'e' with the same (cat, id, name), and vice
    versa — an unbalanced pair renders as an open-ended span in viewers."""
    errors = []
    open_begins = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict) or ev.get("ph") not in ("b", "e"):
            continue
        key = _async_key(ev)
        if ev["ph"] == "b":
            open_begins.setdefault(key, []).append(i)
        else:
            stack = open_begins.get(key)
            if not stack:
                errors.append(
                    f"traceEvents[{i}]: 'e' event with no matching 'b' "
                    f"for (cat={key[0]!r}, id={key[1]!r}, name={key[2]!r})")
            else:
                stack.pop()
    for key, indices in sorted(open_begins.items(),
                               key=lambda kv: kv[1] and kv[1][0] or 0):
        for i in indices:
            errors.append(
                f"traceEvents[{i}]: 'b' event with no matching 'e' "
                f"for (cat={key[0]!r}, id={key[1]!r}, name={key[2]!r})")
    return errors


def _assign_parents(events):
    """Yields (event, parent_event_or_None) for every X event.

    Chrome complete events nest by interval containment within a thread. Sort
    by (ts asc, dur desc) so an enclosing span precedes its children, then
    keep a stack of currently-open spans per tid.
    """
    by_tid = {}
    for ev in events:
        if ev.get("ph") == "X":
            by_tid.setdefault(ev.get("tid", 0), []).append(ev)
    for tid_events in by_tid.values():
        tid_events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for ev in tid_events:
            end = ev["ts"] + ev["dur"]
            while stack and ev["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]:
                stack.pop()
            parent = stack[-1] if stack and end <= stack[-1]["ts"] + stack[-1]["dur"] else None
            yield ev, parent
            stack.append(ev)


def _percentile(sorted_values, q):
    """Nearest-rank percentile (q in [0, 1]) of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 1))  # ceil without math import
    return sorted_values[min(len(sorted_values), int(rank)) - 1]


def build_rows(trace):
    """Aggregates X events by span name.

    Returns rows sorted by total time descending:
      (name, count, total_ms, mean_ms, p95_ms, parent_name, pct_of_parent)
    parent_name is the most common parent span name ('-' for roots);
    pct_of_parent divides this name's total by the summed duration of the
    actual parent event instances, or None when the span is a root.
    """
    durs = {}
    # name -> parent name -> [instance count, child dur total, {id: parent dur}]
    by_parent = {}
    for ev, parent in _assign_parents(trace.get("traceEvents", [])):
        name = ev["name"]
        durs.setdefault(name, []).append(ev["dur"])
        if parent is not None:
            slot = by_parent.setdefault(name, {}).setdefault(
                parent["name"], [0, 0.0, {}])
            slot[0] += 1
            slot[1] += ev["dur"]
            # Deduplicate shared parents by identity so two children of one
            # parent do not double-count the parent's duration.
            slot[2][id(parent)] = parent["dur"]

    rows = []
    for name, values in durs.items():
        values.sort()
        total = sum(values)
        count = len(values)
        if name in by_parent:
            parent, slot = max(by_parent[name].items(),
                               key=lambda kv: (kv[1][0], kv[0]))
            # Only the instances actually nested under the dominant parent
            # count towards the percentage — instances that are roots (e.g.
            # worker-thread tasks whose caller span lives on another thread)
            # or sit under a different parent would inflate it past 100%.
            parent_total = sum(slot[2].values())
            pct = 100.0 * slot[1] / parent_total if parent_total > 0 else None
        else:
            parent, pct = "-", None
        rows.append((name, count, total / 1e3, total / count / 1e3,
                     _percentile(values, 0.95) / 1e3, parent, pct))
    rows.sort(key=lambda r: (-r[2], r[0]))
    return rows


def build_async_rows(trace):
    """Matches "b"/"e" pairs into per-request latency rows.

    Returns rows sorted by (start, id, name):
      (cat, id, name, start_ms, dur_ms)
    one per matched pair — for RequestLog traces that is one row per request
    phase (request/<outcome>, queued, exec), i.e. the per-request latency
    table. Unmatched events are skipped (validate reports them).
    """
    rows = []
    open_begins = {}
    for ev in trace.get("traceEvents", []):
        if not isinstance(ev, dict) or ev.get("ph") not in ("b", "e"):
            continue
        key = _async_key(ev)
        if ev["ph"] == "b":
            open_begins.setdefault(key, []).append(ev)
        elif open_begins.get(key):
            begin = open_begins[key].pop()
            cat, span_id, name = key
            rows.append((cat, span_id, name, begin["ts"] / 1e3,
                         (ev["ts"] - begin["ts"]) / 1e3))
    rows.sort(key=lambda r: (r[3], _numeric_id(r[1]), r[2]))
    return rows


def _numeric_id(span_id):
    """Sort request ids numerically when they are numeric strings."""
    try:
        return (0, int(span_id))
    except (TypeError, ValueError):
        return (1, span_id)


def render_async(rows):
    """Formats per-request async rows as an aligned table (list of lines)."""
    header = ("cat", "id", "span", "start ms", "dur ms")
    body = [(cat, str(span_id), name, f"{start:.3f}", f"{dur:.3f}")
            for cat, span_id, name, start, dur in rows]
    widths = [max(len(row[i]) for row in [header] + body)
              for i in range(len(header))]
    lines = []
    for row in [header] + body:
        cells = [row[0].ljust(widths[0]), row[1].rjust(widths[1]),
                 row[2].ljust(widths[2])]
        cells += [row[i].rjust(widths[i]) for i in range(3, len(row))]
        lines.append("  ".join(cells).rstrip())
    return lines


def render(rows):
    """Formats aggregate rows as an aligned text table (list of lines)."""
    header = ("span", "count", "total ms", "mean ms", "p95 ms", "parent",
              "% of parent")
    body = [(name, str(count), f"{total:.3f}", f"{mean:.3f}", f"{p95:.3f}",
             parent, "-" if pct is None else f"{pct:.1f}%")
            for name, count, total, mean, p95, parent, pct in rows]
    widths = [max(len(row[i]) for row in [header] + body)
              for i in range(len(header))]
    lines = []
    for row in [header] + body:
        cells = [row[0].ljust(widths[0])]
        cells += [row[i].rjust(widths[i]) for i in range(1, len(row))]
        lines.append("  ".join(cells).rstrip())
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Summarize a Chrome trace-event JSON file.")
    parser.add_argument("trace", help="path to the trace JSON file")
    parser.add_argument("--validate", action="store_true",
                        help="schema-check only; exit 1 on any violation")
    args = parser.parse_args(argv)

    try:
        with open(args.trace, "r", encoding="utf-8") as f:
            trace = json.load(f)
    except (OSError, ValueError) as err:
        print(f"trace_report: cannot read {args.trace}: {err}", file=sys.stderr)
        return 1

    errors = validate(trace)
    if errors:
        for err in errors[:20]:
            print(f"trace_report: {err}", file=sys.stderr)
        if len(errors) > 20:
            print(f"trace_report: ... and {len(errors) - 20} more",
                  file=sys.stderr)
        return 1
    if args.validate:
        n = sum(1 for ev in trace["traceEvents"] if ev.get("ph") == "X")
        n_async = sum(
            1 for ev in trace["traceEvents"] if ev.get("ph") == "b")
        print(f"OK: {n} spans, {n_async} async spans, schema valid")
        return 0

    for line in render(build_rows(trace)):
        print(line)
    async_rows = build_async_rows(trace)
    if async_rows:
        print()
        print("per-request async spans:")
        for line in render_async(async_rows):
            print(line)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # The reader (e.g. `| head`) closed the pipe mid-table; not an error.
        os._exit(0)
