#!/usr/bin/env python3
"""CI gates over the bench artifacts, declared as one table.

Every gate is an entry in GATES; one evaluator (`evaluate`) handles every
kind:

  micro          the fresh google-benchmark entry `rows[0]` may exceed the
                 committed one by at most `bound` (a fraction). Wall-clock
                 across machines, so the headroom also absorbs runner
                 variance; regenerate the reference when hardware shifts.
  ceiling        `field` <= `bound` on each row in `rows` (empty = every
                 row at the counts in scope).
  ratio_floor    for each (subject, baseline) pair in `rows`:
                 subject.field >= max(bound x baseline.base_field,
                 min_value). The absolute floor keeps a ratio meaningful
                 when the baseline legitimately collapses to zero.
  ratio_ceiling  subject.field <= baseline.field / bound.
  nonzero        `field` is nonzero on every row whose proto is not in
                 `exempt`. On the committed artifact every exempt name must
                 exist: a stale entry means the row was renamed and now
                 runs unguarded.
  identity       subject == baseline once the `strip` keys are removed.

Rows are named "proto" or "proto/hack" (the "tcp" proto appears with hack
off and with moredata). `scope` picks the station counts: "every" count in
the artifact (a count lacking one of the gate's rows is skipped), the
largest one ("max"), or one fixed count (an int). At a fixed count that
the artifact carries, every named row and every read field must be
present. Goodput fields read the replicate mean (`*_mean_mbps`) when the
row carries one (bench_scale --repeats), else the single-seed value.

Every scale gate must find something to check in the committed
artifact; in a fresh one (CI's quick sweep stops at 100 stations) a gate
with nothing in scope is skipped instead. `poison` is the one-row edit
the self-test applies to prove the gate can fail: (stations, row, field,
value); stations None edits the fresh micro artifact.

Usage:
  check_bench_gates.py --committed-micro BENCH_micro.json \\
                       --fresh-micro /tmp/out/BENCH_micro.json \\
                       --committed-scale BENCH_scale.json \\
                       [--fresh-scale /tmp/out/BENCH_scale.json]

  check_bench_gates.py --self-test
    Clean synthetic artifacts must pass; each gate's poison, applied
    alone, must fail that gate and no other; an empty committed scale
    artifact must fail every scale gate. No bench binaries needed.
"""

import argparse
import copy
import json
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class Gate:
    name: str
    kind: str
    rows: tuple = ()
    field: str = ""
    bound: float = 0.0
    scope: object = "every"
    poison: tuple = ()
    base_field: str = ""      # ratio kinds: baseline's field (default field)
    min_value: float = 0.0    # ratio_floor: absolute floor
    needs: tuple = ()         # extra fields every gated row must carry
    exempt: tuple = ()        # nonzero: protos allowed to read zero
    strip: tuple = ()         # identity: keys ignored in the comparison


GATES = (
    # The cancel-dominated MAC-timeout pattern the timing wheel exists for.
    Gate("scheduler cancel-heavy", "micro", rows=("BM_SchedulerCancelHeavy",),
         field="real_time", bound=0.25,
         poison=(None, "BM_SchedulerCancelHeavy", "real_time", 1000.0)),
    # Dense-cell event cost: ~525 ev/PPDU before the lazy NAV/DCF re-arm,
    # ~250 before the coalesced NAV probes and token-bucket pacing.
    Gate("ev/PPDU", "ceiling", field="events_per_ppdu", bound=100.0,
         scope=1000, poison=(1000, "tcp/off", "events_per_ppdu", 500.0)),
    # The two storms those changes killed, per event class, so a
    # regression is attributed on sight: the per-overhearer NAV probe
    # (peaked at 82 on udp-hidden-rts) and the per-packet CBR chain
    # (peaked at 243 on a 10-station uplink).
    Gate("NAV-reset probes", "ceiling", field="per_ppdu_nav", bound=2.0,
         scope=1000, poison=(1000, "udp", "per_ppdu_nav", 50.0)),
    Gate("transport pacing", "ceiling", field="per_ppdu_transport",
         bound=15.0, scope=1000,
         poison=(1000, "udp", "per_ppdu_transport", 100.0)),
    # The storm rows again at the largest count each artifact carries, so
    # the quick 10/100-station push sweep exercises them too. Both storms
    # grew with station count, so the dense ceilings are conservative here.
    Gate("NAV-reset probes, storm row", "ceiling", rows=("udp-hidden-rts",),
         field="per_ppdu_nav", bound=2.0, scope="max",
         poison=(100, "udp-hidden-rts", "per_ppdu_nav", 50.0)),
    Gate("transport pacing, storm rows", "ceiling",
         rows=("udp-up", "udp-rts"), field="per_ppdu_transport", bound=15.0,
         scope="max", poison=(100, "udp-up", "per_ppdu_transport", 100.0)),
    # Saturated uplink with RTS/CTS + rate adaptation must beat both
    # 1000-station collapse baselines: the historical downlink "udp" and
    # the same uplink cell without the handshake.
    Gate("RTS/CTS recovery", "ratio_floor",
         rows=(("udp-rts", "udp"), ("udp-rts", "udp-up")),
         field="goodput_mbps", bound=2.0, scope=1000,
         poison=(1000, "udp-rts", "goodput_mbps", 15.0)),
    # Two-cluster hidden terminals: the unprotected row legitimately
    # collapses to zero at scale, hence the absolute floor.
    Gate("hidden-terminal recovery", "ratio_floor",
         rows=(("udp-hidden-rts", "udp-hidden"),), field="goodput_mbps",
         bound=2.0, min_value=10.0,
         poison=(100, "udp-hidden-rts", "goodput_mbps", 5.0)),
    # A row delivering nothing is a simulator bug surfacing as a bench
    # number, except where collapse is the measured physics. The fault
    # rows are deliberately not exempt.
    Gate("zero-byte guard", "nonzero", field="bytes", exempt=("udp-hidden",),
         poison=(1000, "udp", "bytes", 0)),
    # EDCA must at least halve the voice p99 of the legacy-DCF mixed cell;
    # both rows must carry VO and BE samples (else the traffic zoo
    # silently stopped emitting).
    Gate("QoS voice tail", "ratio_ceiling",
         rows=(("udp-mix-edca", "udp-mix"),), field="lat_vo_p99_ms",
         bound=2.0, needs=("lat_vo_count", "lat_be_count"),
         poison=(100, "udp-mix-edca", "lat_vo_p99_ms", 9.0)),
    # After churn or an AP outage the cell must climb back to half its
    # fault-free goodput.
    Gate("post-fault recovery", "ratio_floor",
         rows=(("udp-churn", "udp"), ("udp-apout", "udp")),
         field="post_fault_goodput_mbps", base_field="goodput_mbps",
         bound=0.5, poison=(100, "udp-churn", "post_fault_goodput_mbps", 1.0)),
    # HackAckPolicy with flush_window=0 is structurally absent: the w0 row
    # equals the plain tcp+hack row (same replicate seeds) once row
    # identity, host timing and the ablation-only columns are stripped...
    Gate("window=0 identity", "identity",
         rows=(("tcp+hack-w0", "tcp/moredata"),),
         strip=("proto", "wall_ms", "hack_compression_ratio",
                "hack_ack_batches", "hack_acks_per_flush"),
         poison=(100, "tcp+hack-w0", "goodput_mbps", 19.0)),
    # ...and never forms a batch.
    Gate("window=0 batches", "ceiling", rows=("tcp+hack-w0",),
         field="hack_ack_batches", bound=0,
         poison=(100, "tcp+hack-w0", "hack_ack_batches", 3)),
    # Batching ACKs must never cost goodput (paired seeds).
    Gate("ACK batching goodput", "ratio_floor",
         rows=(("tcp+hack-w1ms", "tcp+hack-w0"),), field="goodput_mbps",
         bound=1.0, poison=(100, "tcp+hack-w1ms", "goodput_mbps", 18.0)),
)

# Replicate-mean column read in place of a single-seed field.
MEAN_OF = {"goodput_mbps": "goodput_mean_mbps",
           "post_fault_goodput_mbps": "post_fault_goodput_mean_mbps"}


def value(row, field):
    return float(row.get(MEAN_OF.get(field, field), row[field]))


def matches(row, name):
    proto, _, hack = name.partition("/")
    return row["proto"] == proto and (not hack or row["hack"] == hack)


def micro_time(data, name, field):
    """`field` of benchmark `name`, preferring its mean/median aggregate."""
    best = None
    for b in data.get("benchmarks", []):
        if not b.get("name", "").startswith(name):
            continue
        if b["name"].endswith(("_mean", "_median")):
            return float(b[field])
        if best is None:
            best = float(b[field])
    return best


def scope_counts(gate, rows):
    counts = sorted({r["stations"] for r in rows})
    if gate.scope == "every":
        return counts
    if gate.scope == "max":
        return counts[-1:]
    return [gate.scope] if gate.scope in counts else []


def check_count(gate, n, at_n, fixed):
    """(verdict, text) results of `gate` on the rows `at_n` at count n."""
    out = []

    def find(name):
        hit = next((r for r in at_n if matches(r, name)), None)
        if hit is None and fixed:
            out.append(("FAIL", f"{n}-station {name}: row missing"))
        return hit

    def has_fields(name, row, fields):
        missing = [f for f in fields if f not in row]
        if missing:
            out.append(("FAIL", f"{n}-station {name}: missing {missing}"))
        return not missing

    if gate.kind == "ceiling":
        named = ([(f"{r['proto']}/{r['hack']}", r) for r in at_n]
                 if not gate.rows else [(nm, find(nm)) for nm in gate.rows])
        for name, row in named:
            if row is None or not has_fields(name, row, (gate.field,)):
                continue
            got = value(row, gate.field)
            ok = got <= gate.bound
            out.append(("OK" if ok else "FAIL",
                        f"{n}-station {name}: {gate.field} {got:.2f} "
                        f"(ceiling {gate.bound:g})"))
    elif gate.kind == "nonzero":
        zero = [f"{r['proto']}/{r['hack']}" for r in at_n
                if float(r[gate.field]) == 0 and r["proto"] not in gate.exempt]
        out.append(("FAIL" if zero else "OK",
                    f"{n}-station: {gate.field} zero on {zero}" if zero else
                    f"{n}-station: {gate.field} nonzero on every row "
                    f"(exempt: {', '.join(gate.exempt)})"))
    else:
        base_field = gate.base_field or gate.field
        for subject, baseline in gate.rows:
            s, b = find(subject), find(baseline)
            if s is None or b is None:
                continue
            if gate.kind == "identity":
                strip = set(gate.strip)
                sd = {k: v for k, v in s.items() if k not in strip}
                bd = {k: v for k, v in b.items() if k not in strip}
                diff = sorted(k for k in sd.keys() | bd.keys()
                              if sd.get(k) != bd.get(k))
                out.append(("FAIL" if diff else "OK",
                            f"{n}-station {subject} vs {baseline}: "
                            + (f"differs on {diff}" if diff
                               else "identical")))
                continue
            if not (has_fields(subject, s, (gate.field,) + gate.needs) and
                    has_fields(baseline, b, (base_field,) + gate.needs)):
                continue
            got, base = value(s, gate.field), value(b, base_field)
            if gate.kind == "ratio_floor":
                limit = max(base * gate.bound, gate.min_value)
                ok, rel = got >= limit, "floor"
            else:
                limit = base / gate.bound
                ok, rel = got <= limit, "ceiling"
            out.append(("OK" if ok else "FAIL",
                        f"{n}-station {subject} {gate.field} {got:.2f} vs "
                        f"{baseline} {base_field} {base:.2f} ({rel} "
                        f"{limit:.2f})"))
    return out


def evaluate(gate, artifacts):
    """Yields (verdict, line) for `gate` over the loaded artifacts."""
    if gate.kind == "micro":
        name = gate.rows[0]
        ref = micro_time(artifacts["committed_micro"], name, gate.field)
        fresh = micro_time(artifacts["fresh_micro"], name, gate.field)
        if ref is None or fresh is None:
            yield "FAIL", f"{name}: missing from a micro artifact"
            return
        limit = ref * (1.0 + gate.bound)
        yield ("OK" if fresh <= limit else "FAIL",
               f"{name}: fresh {fresh:.0f} ns vs committed {ref:.0f} ns "
               f"(limit {limit:.0f} ns)")
        return
    for label in ("committed", "fresh"):
        rows = artifacts.get(f"{label}_scale")
        if rows is None:
            continue
        results = []
        for n in scope_counts(gate, rows):
            at_n = [r for r in rows if r["stations"] == n]
            results += check_count(gate, n, at_n, gate.scope != "every")
        if label == "committed" and gate.kind == "nonzero":
            present = {r["proto"] for r in rows}
            results += [("FAIL", f"exempt row {e!r} not in the artifact "
                                 "(renamed? update the exempt list)")
                        for e in gate.exempt if e not in present]
        if not results:
            verdict = "FAIL" if label == "committed" else "SKIP"
            results = [(verdict, "no rows in scope, nothing to check")]
        for verdict, text in results:
            yield verdict, f"{label} {text}"


def run_gates(artifacts):
    """Prints every gate's verdict lines; returns the failing gate names."""
    failed = []
    for gate in GATES:
        for verdict, text in evaluate(gate, artifacts):
            print(f"[{verdict}] {gate.name}: {text}")
            if verdict == "FAIL" and gate.name not in failed:
                failed.append(gate.name)
    print("bench gates " + ("FAILED" if failed else "passed"))
    return failed


def load(path, key=None):
    with open(path) as f:
        data = json.load(f)
    return data[key] if key else data


def self_test():
    import contextlib
    import io

    def row(stations, proto, hack="off", **kw):
        d = {"stations": stations, "proto": proto, "hack": hack,
             "goodput_mbps": 10.0, "bytes": 12345, "events": 1000,
             "ppdus": 100, "events_per_ppdu": 10.0, "per_ppdu_nav": 0.5,
             "per_ppdu_transport": 3.0, "wall_ms": 10.0}
        d.update(kw)
        return d

    def rows_at(n):
        tcp_hack = row(n, "tcp", "moredata", goodput_mbps=20.0)
        w0 = dict(tcp_hack, proto="tcp+hack-w0", wall_ms=11.0,
                  hack_compression_ratio=11.0, hack_ack_batches=0,
                  hack_acks_per_flush=0.0)
        return [
            row(n, "udp"), row(n, "tcp"), tcp_hack, row(n, "udp-up"),
            row(n, "udp-rts", goodput_mbps=40.0),
            row(n, "udp-hidden", goodput_mbps=0.0, bytes=0),
            row(n, "udp-hidden-rts", goodput_mbps=12.0),
            row(n, "udp-churn", post_fault_goodput_mbps=8.0),
            row(n, "udp-apout", post_fault_goodput_mbps=8.0),
            row(n, "udp-mix", lat_vo_p99_ms=10.0, lat_vo_count=100,
                lat_be_count=100),
            row(n, "udp-mix-edca", lat_vo_p99_ms=4.0, lat_vo_count=100,
                lat_be_count=100),
            w0,
            dict(w0, proto="tcp+hack-w1ms", goodput_mbps=21.0,
                 hack_ack_batches=50, hack_acks_per_flush=5.0),
        ]

    def micro(ns):
        return {"benchmarks": [
            {"name": "BM_SchedulerCancelHeavy/1024_mean", "real_time": ns}]}

    # CI's shape: a full committed sweep, a quick fresh one.
    clean = {"committed_micro": micro(100.0), "fresh_micro": micro(100.0),
             "committed_scale": rows_at(100) + rows_at(1000),
             "fresh_scale": rows_at(100)}

    def run(artifacts):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            failed = run_gates(artifacts)
        return failed, out.getvalue()

    ok = True
    failed, out = run(clean)
    if failed:
        print(f"self-test FAIL: clean artifacts failed {failed}:\n{out}")
        ok = False
    for gate in GATES:
        stations, name, field, poisoned = gate.poison
        bad = copy.deepcopy(clean)
        if stations is None:
            bad["fresh_micro"]["benchmarks"][0][field] = poisoned
        for label in ("committed_scale", "fresh_scale"):
            for r in bad[label]:
                if r["stations"] == stations and matches(r, name):
                    r[field] = poisoned
        failed, out = run(bad)
        if failed != [gate.name]:
            print(f"self-test FAIL: poison {gate.poison} failed {failed}, "
                  f"expected exactly [{gate.name!r}]:\n{out}")
            ok = False
    empty = dict(clean, committed_scale=[])
    failed, out = run(empty)
    expected = [g.name for g in GATES if g.kind != "micro"]
    if sorted(failed) != sorted(expected):
        print(f"self-test FAIL: empty committed artifact failed {failed}, "
              f"expected {expected}:\n{out}")
        ok = False
    print("check_bench_gates self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--committed-micro")
    ap.add_argument("--fresh-micro")
    ap.add_argument("--committed-scale")
    ap.add_argument("--fresh-scale")
    ap.add_argument("--self-test", action="store_true",
                    help="check every gate's pass and fail branch on "
                         "synthetic artifacts and exit")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    for name in ("committed_micro", "fresh_micro", "committed_scale"):
        if getattr(args, name) is None:
            ap.error(f"--{name.replace('_', '-')} is required "
                     "(unless --self-test)")
    artifacts = {"committed_micro": load(args.committed_micro),
                 "fresh_micro": load(args.fresh_micro),
                 "committed_scale": load(args.committed_scale, "rows")}
    if args.fresh_scale:
        artifacts["fresh_scale"] = load(args.fresh_scale, "rows")
    return 1 if run_gates(artifacts) else 0


if __name__ == "__main__":
    sys.exit(main())
