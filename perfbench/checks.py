"""Output checks: each returns a list of failure messages (empty = pass).

Pure functions on the answers the workers and the load generator
return, so the self-tests can feed them perturbed answers.  They run
after the timed region.
"""

import math

#: ROM vs full-model HD2/HD3 on the healthy ladder (measured ~1e-14).
HEALTHY_HD_TOL = 1e-8
#: Served answers vs a one-shot ``run_pipeline`` of the same request.
SERVED_REFERENCE_TOL = 1e-12


def worst_rel_dev(candidate, reference):
    """Worst relative deviation of *candidate* from *reference*.

    Entries where the reference is exactly zero must match exactly; a
    length mismatch or a non-finite value is an infinite deviation.
    """
    if len(candidate) != len(reference):
        return math.inf
    worst = 0.0
    for cand, ref in zip(candidate, reference):
        if not (math.isfinite(cand) and math.isfinite(ref)):
            return math.inf
        if ref == 0.0:
            if cand != 0.0:
                return math.inf
            continue
        worst = max(worst, abs(cand / ref - 1.0))
    return worst


def peak_rel_error(reference, candidate):
    """``max |candidate - reference| / max |reference|`` of two traces."""
    if len(candidate) != len(reference) or not reference:
        return math.inf
    scale = max(abs(x) for x in reference)
    if scale == 0.0 or not math.isfinite(scale):
        return math.inf
    worst = max(abs(c - r) for c, r in zip(candidate, reference))
    return worst / scale if math.isfinite(worst) else math.inf


def check_sweep(answer, tol=HEALTHY_HD_TOL):
    """ROM HD2/HD3 within *tol* (relative) of the full model's."""
    failures = []
    for name in ("hd2", "hd3"):
        dev = worst_rel_dev(answer[name], answer[f"{name}_full"])
        if not dev <= tol:
            failures.append(f"{name} deviates {dev:.3e} from the full model")
    return failures


def check_store_roundtrip(answer):
    if answer.get("store_roundtrip") is False:
        return ["stored artifact does not load back to the same ROM"]
    return []


def check_family(answer):
    """Every member's HD2/HD3 within ``interp_tol`` of its full model."""
    tol = answer["interp_tol"]
    failures = []
    for index, member in enumerate(answer["members"]):
        for name in ("hd2", "hd3"):
            dev = worst_rel_dev(member[name], member[f"{name}_full"])
            if not dev <= tol:
                failures.append(
                    f"member {index} ({member['tier']}) {name} deviates "
                    f"{dev:.3e} from its full model"
                )
    if not answer["members"]:
        failures.append("the family has no members")
    return failures


def check_transient(answer):
    """ROM transient within the job's peak-normalized error bound."""
    err = peak_rel_error(answer["full_output"], answer["rom_output"])
    if not err <= answer["transient_tol"]:
        return [
            f"transient error {err:.3e} exceeds {answer['transient_tol']:.1e}"
        ]
    return []


def check_call(answer):
    """All checks that apply to one job-workload call's answer."""
    if "members" in answer:
        return check_family(answer)
    failures = []
    if "hd2_full" in answer:
        failures += check_sweep(answer)
    if "full_output" in answer:
        failures += check_transient(answer)
    failures += check_store_roundtrip(answer)
    return failures


# ---------------------------------------------------------------------------
# served
# ---------------------------------------------------------------------------


def check_status(record):
    if record["status"] != 200:
        return [f"HTTP {record['status']}: {record.get('error')}"]
    return []


def answer_of(record):
    """The comparable part of a served response (None if it has none)."""
    if record.get("hd2") is not None:
        return ("sweep", tuple(record["hd2"]), tuple(record["hd3"]))
    if record.get("output") is not None:
        return ("transient", tuple(record["output"]))
    return None


def check_tiers(records):
    """A repeated (spec, grid) gets identical answers from every tier.

    Returns ``{record index: [failures]}``: the first answer for each
    key is the reference; any later answer that differs (from whichever
    tier served it) fails.
    """
    first = {}
    failures = {}
    for index, record in enumerate(records):
        if record["status"] != 200:
            continue
        answer = answer_of(record)
        if answer is None:
            continue
        known = first.setdefault(record["key"], (answer, record))
        if known[0] != answer:
            failures[index] = [
                f"{record['key']}: {record.get('served_from')} answer "
                f"differs from the {known[1].get('served_from')} answer"
            ]
    return failures


def check_reference(record, reference, tol=SERVED_REFERENCE_TOL):
    """A served sweep matches the one-shot ``run_pipeline`` answer."""
    if "error" in reference:
        return [f"reference failed: {reference['error']}"]
    failures = []
    for name in ("hd2", "hd3"):
        dev = worst_rel_dev(record[name], reference[name])
        if not dev <= tol:
            failures.append(
                f"{record['key']} {name} deviates {dev:.3e} from run_pipeline"
            )
    return failures
