#!/usr/bin/env python3
"""Checks a Prometheus text exposition, such as a `/metrics` scrape.

Usage: check-exposition.py [FILE...]   (standard input when no FILE)

Fails, naming the line, when
  * a family's samples come before its `# TYPE` line, or a family has
    two `# TYPE` lines;
  * a series line repeats;
  * a histogram's `le="+Inf"` bucket differs from its `_count` for the
    same labels;
  * a counter has `shard="..."` series and its series without the shard
    label is missing or differs from their sum (a federated scrape).
"""

import sys

HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count", "_min", "_max")


def parse_labels(text, pos):
    """The `{k="v",...}` at `text[pos]` as a tuple of pairs, and the
    position after its closing brace."""
    labels = []
    pos += 1
    while text[pos] != "}":
        eq = text.index("=", pos)
        key = text[pos:eq]
        if text[eq + 1] != '"':
            raise ValueError("label value is not quoted")
        pos, value = eq + 2, []
        while text[pos] != '"':
            if text[pos] == "\\":
                value.append({"n": "\n"}.get(text[pos + 1], text[pos + 1]))
                pos += 2
            else:
                value.append(text[pos])
                pos += 1
        labels.append((key, "".join(value)))
        pos += 1
        if text[pos] == ",":
            pos += 1
    return tuple(labels), pos + 1


def parse_sample(line):
    """`(series, name, labels, value)` of a sample line."""
    brace = line.find("{")
    space = line.find(" ")
    if brace != -1 and brace < space:
        name = line[:brace]
        labels, end = parse_labels(line, brace)
    else:
        name, labels, end = line[:space], (), space
    value = line[end:].strip().split(" ")[0]
    return line[:end], name, labels, float(value)


def check(text):
    """Every problem in `text`, one message each."""
    problems = []
    lines = text.splitlines()
    types = {}
    for no, line in enumerate(lines, 1):
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            if name in types:
                problems.append(f"line {no}: second # TYPE line for {name}")
            else:
                types[name] = (kind, no)

    def family(name):
        if name in types:
            return name
        for suffix in HISTOGRAM_SUFFIXES:
            base = name[: -len(suffix)]
            if name.endswith(suffix) and types.get(base, ("",))[0] == "histogram":
                return base
        return None

    seen = set()
    inf, count = {}, {}
    counters = {}
    for no, line in enumerate(lines, 1):
        if not line or line.startswith("#"):
            continue
        try:
            series, name, labels, value = parse_sample(line)
        except (ValueError, IndexError) as e:
            problems.append(f"line {no}: cannot parse {line!r}: {e}")
            continue
        if series in seen:
            problems.append(f"line {no}: series repeats: {series}")
        seen.add(series)
        fam = family(name)
        if fam is not None and types[fam][1] > no:
            problems.append(f"line {no}: {series} comes before its # TYPE line")
        if fam is None:
            continue
        kind = types[fam][0]
        if kind == "histogram" and name == fam + "_bucket":
            le = dict(labels).get("le")
            if le == "+Inf":
                rest = tuple(kv for kv in labels if kv[0] != "le")
                inf[(fam, rest)] = (value, no)
        elif kind == "histogram" and name == fam + "_count":
            count[(fam, labels)] = value
        elif kind == "counter":
            counters[(name, labels)] = value

    for (fam, labels), (value, no) in inf.items():
        if count.get((fam, labels)) != value:
            problems.append(
                f"line {no}: {fam} le=\"+Inf\" is {value:g} but its _count is "
                f"{count.get((fam, labels))}"
            )

    sums = {}
    for (name, labels), value in counters.items():
        if "shard" in dict(labels):
            rest = tuple(kv for kv in labels if kv[0] != "shard")
            sums[(name, rest)] = sums.get((name, rest), 0) + value
    for (name, rest), total in sums.items():
        if counters.get((name, rest)) != total:
            problems.append(
                f"{name}{dict(rest) or ''}: the shards sum to {total:g} but the "
                f"aggregate is {counters.get((name, rest))}"
            )
    return problems, len(types), len(seen)


def main(paths):
    failed = False
    for path in paths or ["-"]:
        text = sys.stdin.read() if path == "-" else open(path, encoding="utf-8").read()
        problems, families, series = check(text)
        for p in problems:
            print(f"{path}: {p}", file=sys.stderr)
        failed |= bool(problems)
        if not problems:
            print(f"{path}: exposition ok: {families} families, {series} series")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
