"""Seeded input generator for the benchmark, with its planted truth.

Modelled on ``stayup.synth`` but kept separate from it, so that a change to
the program's own generator cannot change what the benchmark measures. It
imports nothing from ``stayup``.

A workload's inputs are the five raw CSV logs that ``stayup run`` reads.
The planted truth kept beside them holds every student-night's bedtime bin,
every student's raw-feature aggregates, mixture component and profile
bits, and every malformed row by file and by the exact reason ingest gives
when it skips it.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np

# Bump when the generated inputs change, so stale caches are not reused.
GEN_VERSION = 1

NAMES = ("G", "R", "A", "T", "Br", "Ba", "F", "Ac", "S")
COHORTS = ("freshman", "sophomore", "junior")
STUDY_START = date(2018, 11, 5)
DAY = 86400
WINDOW_START = 21 * 3600      # bedtime window 21:00-05:00, 16 bins of 30 minutes
BIN_SECONDS = 1800
BINS = 16
MIN_NIGHTS = 20               # ingest's default: thinner students get no counts
BREAKFAST = (5 * 3600, 9 * 3600 + 1800)
GPA_MAX = 5.0


@dataclass(frozen=True)
class Spec:
    """Make-up of one workload's inputs."""

    students: int
    nights: int
    network: str                # planted profile network: "default" or "strong"
    dirty: bool = False         # extra sessions, mixed timestamp formats, malformed rows
    run_args: tuple[str, ...] = ()


SPECS = {
    "readme": Spec(2000, 150, "default"),
    "logs_dirty": Spec(4000, 24, "default", dirty=True,
                       run_args=("--restarts", "10", "--null-replicas", "2",
                                 "--eval-restarts", "3")),
    "search_heavy": Spec(450, 24, "strong"),
}


# --- planted truth -----------------------------------------------------------

def _bell(center, sigma_left, sigma_right):
    d = np.arange(BINS, dtype=np.float64)
    sigma = np.where(d <= center, sigma_left, sigma_right)
    return 0.04 + 0.22 * np.exp(-0.5 * ((d - center) / sigma) ** 2)


# Early component peaks in the 22:30 bin, the late (stay-up) one at 0:00.
BIN_PROBS = np.stack([_bell(3.0, 1.4, 1.4), _bell(6.0, 1.6, 3.2)])
BIN_PROBS /= BIN_PROBS.sum(axis=1, keepdims=True)
STAY_UP_COMPONENT = 1

# Each network: variable -> (parents, P(var = 1 | parent values)), listed in
# topological order; parent values index the tuple as a binary number.
NETWORKS = {
    # the moderate dependencies of the README run
    "default": [
        ("G", (), (0.5,)), ("R", (), (0.5,)), ("A", (), (0.5,)),
        ("Ba", (), (0.5,)), ("F", (), (0.5,)),
        ("T", ("A",), (0.58, 0.23)),
        ("S", ("A",), (0.5, 0.75)),
        ("Br", ("S",), (0.6, 0.4)),
        ("Ac", ("S",), (0.6, 0.4)),
    ],
    # stronger, layered dependencies: more edges for the search to find
    "strong": [
        ("G", (), (0.5,)), ("R", (), (0.5,)), ("T", (), (0.5,)),
        ("F", (), (0.5,)), ("Ba", (), (0.5,)),
        ("A", ("G",), (0.25, 0.75)),
        ("S", ("A", "T"), (0.1, 0.5, 0.5, 0.9)),
        ("Br", ("G", "S"), (0.2, 0.6, 0.55, 0.9)),
        ("Ac", ("F", "S", "R"), (0.15, 0.35, 0.5, 0.7, 0.35, 0.55, 0.7, 0.9)),
    ],
}


def sample_profiles(network: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Ancestral sampling; returns (n, 9) uint8 in NAMES column order."""
    bits = np.zeros((n, len(NAMES)), dtype=np.uint8)
    col = {name: i for i, name in enumerate(NAMES)}
    for name, parents, p_one in NETWORKS[network]:
        j = np.zeros(n, dtype=np.int64)
        for p in parents:
            j = j * 2 + bits[:, col[p]]
        bits[:, col[name]] = rng.random(n) < np.asarray(p_one)[j]
    return bits


# --- formatting ---------------------------------------------------------------

def _reason(fn, arg) -> str:
    """The message a builtin conversion raises, as ingest records it."""
    try:
        fn(arg)
    except (ValueError, TypeError) as exc:
        return str(exc)
    raise AssertionError(f"{fn.__name__}({arg!r}) did not raise")


class _Clock:
    """Formats seconds since STUDY_START 00:00 as ISO timestamps."""

    def __init__(self, days: int):
        self.days = [(STUDY_START + timedelta(days=d)).isoformat() for d in range(days + 2)]
        self.hhmm = [f"{h:02d}:{m:02d}" for h in range(24) for m in range(60)]

    def fmt(self, t: int, sep: str = " ", seconds: bool = False) -> str:
        day, rest = divmod(t, DAY)
        text = f"{self.days[day]}{sep}{self.hhmm[rest // 60]}"
        return f"{text}:{rest % 60:02d}" if seconds else text


def _write(path: Path, header: str, lines):
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.write("\r\n".join(lines))
        fh.write("\r\n")


# --- generation ---------------------------------------------------------------

def generate(spec: Spec, seed: int, out: Path) -> dict:
    """Write the five CSVs plus truth.npz / truth.json into ``out``."""
    rng = np.random.default_rng([seed, GEN_VERSION])
    n, nights = spec.students, spec.nights
    days = nights                       # transactions and borrows span the nights
    ids = [f"s{i:05d}" for i in range(n)]
    clock = _Clock(days)
    col = {name: i for i, name in enumerate(NAMES)}

    bits = sample_profiles(spec.network, n, rng)
    component = np.where(bits[:, col["S"]] == 1, STAY_UP_COMPONENT, 1 - STAY_UP_COMPONENT)
    cohort = np.arange(n) % len(COHORTS)

    # Bedtime session per night: its bin, minute and second inside the bin.
    bins = np.empty((n, nights), dtype=np.int8)
    for c in (0, 1):
        rows = component == c
        bins[rows] = rng.choice(BINS, size=(int(rows.sum()), nights), p=BIN_PROBS[c])
    within = rng.integers(0, 30, size=(n, nights)) * 60
    if spec.dirty:
        within += rng.integers(0, 60, size=(n, nights))
        # some bedtimes exactly at 21:00:00, the first instant of the window
        within[(bins == 0) & (rng.random((n, nights)) < 0.2)] = 0
        signal = rng.random((n, nights)) >= 0.04      # nights with no in-window session
    else:
        signal = np.ones((n, nights), dtype=bool)
    night_start = np.arange(nights, dtype=np.int64)[None, :] * DAY + WINDOW_START
    bed_t = night_start + bins.astype(np.int64) * BIN_SECONDS + within
    planted_bins = np.where(signal, bins, -1).astype(np.int8)

    surf_per_night = np.where(bits[:, col["T"]] == 1, 45.0, 15.0) * np.exp(rng.normal(0.0, 0.25, n))
    p_video = np.where(bits[:, col["A"]] == 1, 0.72, 0.28)

    # sessions: (student, time, category 0 game / 1 video / 2 other, duration)
    s_sid = [np.repeat(np.arange(n), nights)[signal.ravel()]]
    s_t = [bed_t[signal]]
    s_cat = [(rng.random((n, nights)) < p_video[:, None]).astype(np.int64)[signal]]
    s_dur = [rng.poisson(np.broadcast_to(surf_per_night[:, None], (n, nights)))[signal]]
    if spec.dirty:
        k = rng.poisson(1.5, size=(n, nights))
        e_sid = np.repeat(np.repeat(np.arange(n), nights), k.ravel())
        e_night = np.repeat(np.tile(np.arange(nights), n), k.ravel())
        e_bed = np.repeat(bed_t.ravel(), k.ravel())
        e_sig = np.repeat(signal.ravel(), k.ravel())
        kind = rng.integers(0, 3, size=e_sid.size)
        # a session inside the window but strictly before the bedtime one
        earlier = (kind == 0) & e_sig & (e_bed > e_night * DAY + WINDOW_START)
        kind[(kind == 0) & ~earlier] = 1
        u = rng.random(e_sid.size)
        start = e_night * DAY + WINDOW_START
        t = np.where(
            kind == 0, start + (u * (e_bed - start)).astype(np.int64),
            np.where(kind == 1,
                     e_night * DAY + 12 * 3600 + (u * 9 * 3600).astype(np.int64),    # 12:00-20:59
                     (e_night + 1) * DAY + 5 * 3600 + (u * 7 * 3600).astype(np.int64)))  # 05:00-11:59
        # exact boundaries outside the window: 12:00 and 05:00
        edge = rng.random(e_sid.size) < 0.05
        t[edge & (kind == 1)] = e_night[edge & (kind == 1)] * DAY + 12 * 3600
        t[edge & (kind == 2)] = (e_night[edge & (kind == 2)] + 1) * DAY + 5 * 3600
        s_sid.append(e_sid)
        s_t.append(t)
        s_cat.append(np.where(rng.random(e_sid.size) < 0.2, 2,
                              (rng.random(e_sid.size) < p_video[e_sid]).astype(np.int64)))
        s_dur.append(rng.poisson(surf_per_night[e_sid] / 3.0))
    s_sid, s_t, s_cat, s_dur = (np.concatenate(a) for a in (s_sid, s_t, s_cat, s_dur))

    # transactions: breakfast, bath, and a daily "other" top-up (amounts in cents)
    p_breakfast = np.where(bits[:, col["Br"]] == 1, 0.8, 0.35)
    bf = rng.random((n, days)) < p_breakfast[:, None]
    bf_sid = np.nonzero(bf)[0]
    bf_t = np.nonzero(bf)[1] * DAY + 7 * 3600 + 1800 + rng.integers(0, 60, bf_sid.size) * 60
    bf_amt = rng.integers(300, 801, bf_sid.size)

    regular = bits[:, col["Ba"]] == 1
    gaps = np.where(regular[:, None],
                    np.where(rng.random((n, days)) < 0.1, 4, 3),
                    rng.integers(1, 8, size=(n, days)))
    bath_day = rng.integers(0, 3, size=n)[:, None] + np.cumsum(gaps, axis=1) - gaps[:, :1]
    bath = bath_day < days
    ba_sid = np.nonzero(bath)[0]
    ba_day = bath_day[bath]
    ba_t = ba_day * DAY + 18 * 3600 + 1800 + rng.integers(0, 90, ba_sid.size) * 60
    ba_amt = rng.integers(200, 501, ba_sid.size)

    spent = np.bincount(bf_sid, bf_amt, n) + np.bincount(ba_sid, ba_amt, n)
    target = np.where(bits[:, col["F"]] == 1, 2500.0, 1000.0) * np.exp(rng.normal(0.0, 0.2, n)) * days
    daily = (np.maximum(0.0, target - spent) // days).astype(np.int64)
    ot_sid = np.repeat(np.arange(n), np.where(daily > 0, days, 0))
    ot_t = np.tile(np.arange(days), int((daily > 0).sum())) * DAY + 12 * 3600 + 15 * 60
    ot_amt = daily[ot_sid]

    t_sid = np.concatenate([bf_sid, ba_sid, ot_sid])
    t_t = np.concatenate([bf_t, ba_t, ot_t])
    t_venue = np.concatenate([np.zeros(bf_sid.size, int), np.ones(ba_sid.size, int),
                              np.full(ot_sid.size, 2)])
    t_amt = np.concatenate([bf_amt, ba_amt, ot_amt])

    n_borrow = rng.poisson(np.where(bits[:, col["R"]] == 1, 12.0, 3.0))
    b_sid = np.repeat(np.arange(n), n_borrow)
    b_t = rng.integers(0, days, b_sid.size) * DAY + 10 * 3600 + rng.integers(0, 600, b_sid.size) * 60

    gpa = np.round(np.clip(rng.normal(np.where(bits[:, col["Ac"]] == 1, 3.7, 2.5), 0.35), 0.0, GPA_MAX), 3)
    has_grade = np.ones(n, dtype=bool)
    if spec.dirty:
        has_grade[rng.choice(n, size=max(1, n // 400), replace=False)] = False

    # ---- text rows; malformed rows are planted with their exact skip reason
    reasons: dict[str, dict[str, int]] = {k: {} for k in
                                          ("demographics", "net_sessions", "transactions", "borrows", "grades")}
    bad: dict[str, list[tuple[int, str]]] = {k: [] for k in reasons}   # (valid rows before it, line)

    def plant(kind, line, reason, after):
        bad[kind].append((after, line))
        reasons[kind][reason] = reasons[kind].get(reason, 0) + 1

    cats = ("game", "video", "other")
    venues = ("canteen", "bath", "other")
    if spec.dirty:
        fmt_variant = rng.integers(0, 4, size=s_t.size)      # separator x seconds
        seps = np.where(fmt_variant % 2 == 0, " ", "T")
        with_sec = (fmt_variant >= 2) | (s_t % 60 != 0)
    order = np.lexsort((s_t, s_sid))
    session_lines = []
    for i in order.tolist():
        t = int(s_t[i])
        stamp = clock.fmt(t, str(seps[i]), bool(with_sec[i])) if spec.dirty else clock.fmt(t)
        session_lines.append(f"{ids[s_sid[i]]},{stamp},{cats[s_cat[i]]},{s_dur[i]}")
    order = np.lexsort((t_venue, t_t, t_sid))
    tx_lines = [f"{ids[t_sid[i]]},{clock.fmt(int(t_t[i]))},{venues[t_venue[i]]},"
                f"{t_amt[i] // 100}.{t_amt[i] % 100:02d}" for i in order.tolist()]
    order = np.lexsort((b_t, b_sid))
    borrow_lines = [f"{ids[b_sid[i]]},{clock.fmt(int(b_t[i]))}" for i in order.tolist()]
    grade_lines = [f"{ids[i]},{gpa[i]:.3f}" for i in range(n) if has_grade[i]]
    demo_lines = [f"{ids[i]},{'female' if bits[i, col['G']] else 'male'},{COHORTS[cohort[i]]}"
                  for i in range(n)]

    if spec.dirty:
        def spots(lines, count):
            return rng.integers(0, len(lines) + 1, size=count).tolist()

        def some_id():
            return ids[int(rng.integers(0, n))]

        bad_stamps = ("2018-13-40 22:10", "yesterday", "", "2018-11-05 25:10", "2018/11/05 23:00")
        for text in bad_stamps:
            _reason(datetime.fromisoformat, text.strip())      # each must be rejected
        per_kind = max(5, n // 200)
        stamp = clock.fmt(WINDOW_START + 3600)
        for at in spots(session_lines, per_kind):
            text = bad_stamps[int(rng.integers(len(bad_stamps)))]
            plant("net_sessions", f"{some_id()},{text},game,10", f"bad timestamp {text!r}", at)
        for at in spots(session_lines, per_kind):
            plant("net_sessions", f"{some_id()},{stamp},music,10", "bad app_category 'music'", at)
        for at in spots(session_lines, per_kind):
            plant("net_sessions", f"{some_id()},{stamp},video,-7", "negative duration", at)
        for at in spots(session_lines, per_kind):
            plant("net_sessions", f"{some_id()},{stamp},video,12.5", _reason(int, "12.5"), at)
        for at in spots(session_lines, per_kind):
            plant("net_sessions", f"{some_id()},{stamp}", _reason(int, None), at)
        for j, at in enumerate(spots(session_lines, per_kind)):
            plant("net_sessions", f"u{j:05d},{stamp},game,10", f"unknown student u{j:05d}", at)

        stamp = clock.fmt(8 * 3600)
        for at in spots(tx_lines, per_kind):
            text = bad_stamps[int(rng.integers(len(bad_stamps)))]
            plant("transactions", f"{some_id()},{text},canteen,5.00", f"bad timestamp {text!r}", at)
        for at in spots(tx_lines, per_kind):
            plant("transactions", f"{some_id()},{stamp},gym,5.00", "bad venue 'gym'", at)
        for at in spots(tx_lines, per_kind):
            plant("transactions", f"{some_id()},{stamp},canteen,-2.50", "negative amount", at)
        for at in spots(tx_lines, per_kind):
            plant("transactions", f"{some_id()},{stamp},canteen,n/a", _reason(float, "n/a"), at)
        for j, at in enumerate(spots(tx_lines, per_kind)):
            plant("transactions", f"u{j:05d},{stamp},canteen,5.00", f"unknown student u{j:05d}", at)

        for at in spots(borrow_lines, per_kind // 2):
            text = bad_stamps[int(rng.integers(len(bad_stamps)))]
            plant("borrows", f"{some_id()},{text}", f"bad timestamp {text!r}", at)
        for j, at in enumerate(spots(borrow_lines, per_kind // 2)):
            plant("borrows", f"u{j:05d},{clock.fmt(10 * 3600)}", f"unknown student u{j:05d}", at)

        few = max(3, n // 1000)
        for at in spots(grade_lines, few):
            plant("grades", f"{some_id()},A+", _reason(float, "A+"), at)
        for at in spots(grade_lines, few):
            plant("grades", f"{some_id()},7.5", f"gpa 7.5 outside [0, {GPA_MAX}]", at)
        for j, at in enumerate(spots(grade_lines, few)):
            plant("grades", f"u{j:05d},3.000", f"unknown student u{j:05d}", at)
        graded = np.nonzero(has_grade)[0]
        for i in rng.choice(graded, size=few, replace=False).tolist():
            # a second row right after the student's own one: the first wins
            at = int(np.searchsorted(graded, i)) + 1
            plant("grades", f"{ids[i]},1.000", f"duplicate student {ids[i]}", at)

        for at in spots(demo_lines, few):
            plant("demographics", ",female,freshman", "empty student_id", at)
        for j, at in enumerate(spots(demo_lines, few)):
            plant("demographics", f"x{j:05d},other,junior", "bad gender 'other'", at)
        for j, at in enumerate(spots(demo_lines, few)):
            plant("demographics", f"y{j:05d},male,senior", "bad cohort 'senior'", at)
        for i in rng.choice(n, size=few, replace=False).tolist():
            plant("demographics", f"{ids[i]},male,junior", f"duplicate student {ids[i]}", i + 1)

    def merged(kind, lines):
        # stable: a planted row goes after the valid row it follows
        inserts = sorted(bad[kind], key=lambda x: x[0])
        if not inserts:
            return lines
        out, j = [], 0
        for pos in range(len(lines) + 1):
            while j < len(inserts) and inserts[j][0] == pos:
                out.append(inserts[j][1])
                j += 1
            if pos < len(lines):
                out.append(lines[pos])
        return out

    out.mkdir(parents=True, exist_ok=True)
    _write(out / "net_sessions.csv", "student_id,end_time,app_category,duration_minutes",
           merged("net_sessions", session_lines))
    _write(out / "transactions.csv", "student_id,time,venue,amount", merged("transactions", tx_lines))
    _write(out / "borrows.csv", "student_id,time", merged("borrows", borrow_lines))
    _write(out / "grades.csv", "student_id,gpa", merged("grades", grade_lines))
    _write(out / "demographics.csv", "student_id,gender,cohort", merged("demographics", demo_lines))

    # ---- planted aggregates, as ingest must compute them from the valid rows
    counts = np.zeros((n, BINS), dtype=np.int64)
    for b in range(BINS):
        counts[:, b] = (planted_bins == b).sum(axis=1)
    all_days = np.concatenate([s_t // DAY, t_t // DAY, b_t // DAY])
    study_days = int(all_days.max() - all_days.min() + 1)
    bath_var = np.full(n, np.nan)
    starts = np.concatenate([[0], np.cumsum(np.bincount(ba_sid, minlength=n))])
    for i in range(n):
        d = ba_day[starts[i]:starts[i + 1]]
        if d.size >= 2:
            bath_var[i] = float(np.var(np.diff(np.sort(d))))
    tod = t_t % DAY
    is_bf = (t_venue == 0) & (tod >= BREAKFAST[0]) & (tod < BREAKFAST[1])
    bf_days = np.unique(t_sid[is_bf] * (days + 2) + t_t[is_bf] // DAY) // (days + 2)

    np.savez_compressed(
        out / "truth.npz",
        bits=bits, component=component.astype(np.int8), cohort=cohort.astype(np.int8),
        bins=planted_bins, counts=counts, has_grade=has_grade, gpa=gpa,
        books=np.bincount(b_sid, minlength=n),
        surf=np.bincount(s_sid, s_dur, n).astype(np.int64),
        game=np.bincount(s_sid[s_cat == 0], s_dur[s_cat == 0], n).astype(np.int64),
        video=np.bincount(s_sid[s_cat == 1], s_dur[s_cat == 1], n).astype(np.int64),
        breakfast=np.bincount(bf_days, minlength=n),
        bath_var=bath_var,
        spend_cents=np.bincount(t_sid, t_amt, n).astype(np.int64),
    )
    loaded = {"demographics": n, "net_sessions": int(s_t.size), "transactions": int(t_t.size),
              "borrows": int(b_t.size), "grades": int(has_grade.sum())}
    truth = {"ids": ids, "study_days": study_days, "stay_up_component": STAY_UP_COMPONENT,
             "min_nights": MIN_NIGHTS, "reasons": reasons, "loaded": loaded,
             "network": spec.network}
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True))
    return truth


def ensure_inputs(root: Path, workload: str, seed: int) -> Path:
    """Inputs for (workload, seed), generated once into the cache and reused."""
    cache = root / ".perfbench_cache" / "inputs"
    final = cache / f"{workload}-seed{seed}-v{GEN_VERSION}"
    if not (final / "truth.json").is_file():
        tmp = cache / f".tmp-{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        generate(SPECS[workload], seed, tmp)
        shutil.rmtree(final, ignore_errors=True)
        tmp.rename(final)
    for path in final.iterdir():           # warm the file cache before any timed run
        path.read_bytes()
    return final


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="Regenerate the benchmark's cached inputs.")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=sorted(SPECS), default=sorted(SPECS))
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    for workload in args.workloads:
        for seed in args.seeds:
            shutil.rmtree(root / ".perfbench_cache" / "inputs" / f"{workload}-seed{seed}-v{GEN_VERSION}",
                          ignore_errors=True)
            print(ensure_inputs(root, workload, seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
