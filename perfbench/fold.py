"""Folds a Chrome trace-event file into per-span self time.

A span's self time is its duration minus the part of its interval that
its child spans cover. Spans nest per thread (pid, tid): a span's parent
is the innermost span on the same thread whose interval contains it.
Verb spans (category "verb") are wire intervals posted and harvested
asynchronously, so they are leaves: they can be children, never parents,
and siblings may overlap, which is why coverage is the union of the
children's intervals rather than their sum.
"""

import json

VERB_CATEGORY = "verb"


def load_events(path):
    """Returns (spans, processes) from a Chrome trace file.

    Spans are (pid, tid, start_ns, end_ns, name, cat) for the complete
    ("X") events; processes maps pid to its process_name. Timestamps are
    microseconds with nanosecond decimals in the file; they are rounded to
    whole nanoseconds so containment tests are exact.
    """
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    spans = []
    processes = {}
    for e in doc.get("traceEvents", []):
        ph = e.get("ph")
        if ph == "X":
            start = round(float(e["ts"]) * 1000)
            end = start + round(float(e.get("dur", 0)) * 1000)
            spans.append((e.get("pid", 0), e.get("tid", 0), start, end,
                          e["name"], e.get("cat", "")))
        elif ph == "M" and e.get("name") == "process_name":
            processes[e.get("pid", 0)] = e.get("args", {}).get("name", "")
    return spans, processes


def _union_length(intervals):
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def fold_self_time(spans):
    """Returns {name: (count, total_ns, self_ns)} over all spans."""
    by_thread = {}
    for span in spans:
        by_thread.setdefault((span[0], span[1]), []).append(span)
    out = {}
    for thread_spans in by_thread.values():
        # Outer spans first: earlier start, then longer.
        thread_spans.sort(key=lambda s: (s[2], -s[3]))
        children = [[] for _ in thread_spans]
        stack = []  # Indices of open candidate parents.
        def contains(j, start, end):
            return thread_spans[j][2] <= start and end <= thread_spans[j][3]

        for i, (_, _, start, end, _, cat) in enumerate(thread_spans):
            if cat == VERB_CATEGORY:
                # A verb may outlive the spans around its post; it belongs
                # to the innermost open span that holds all of it, and it
                # closes nothing.
                parent = next((j for j in reversed(stack)
                               if contains(j, start, end)), None)
            else:
                # Synchronous spans nest: one that does not fit inside the
                # top of the stack starts after that span has ended.
                while stack and not contains(stack[-1], start, end):
                    stack.pop()
                parent = stack[-1] if stack else None
                stack.append(i)
            if parent is not None:
                children[parent].append((start, end))
        for i, (_, _, start, end, name, _) in enumerate(thread_spans):
            dur = end - start
            covered = _union_length(children[i])
            count, total, self_ns = out.get(name, (0, 0, 0))
            out[name] = (count + 1, total + dur, self_ns + dur - covered)
    return out


def peak_concurrency(spans, pids, category=VERB_CATEGORY):
    """Most spans of `category` from processes `pids` open at one instant.

    Intervals are half-open, so one span ending where another starts does
    not count as overlap.
    """
    edges = []
    for pid, _, start, end, _, cat in spans:
        if cat == category and pid in pids and end > start:
            edges.append((start, 1))
            edges.append((end, -1))
    edges.sort()  # At equal time, -1 sorts before +1.
    peak = cur = 0
    for _, step in edges:
        cur += step
        peak = max(peak, cur)
    return peak
