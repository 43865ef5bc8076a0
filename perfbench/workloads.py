"""The four benchmark workloads as job lists built from a seed.

A job is one call sequence a CLI command makes, spelled out through the
public functions of `hecke5.*`.  Calls go through module attributes at call
time, so wrappers installed by `trace.py` see them.  `call` is the part that
is timed; `answer` turns its result into JSON-comparable data and may hand
back follow-up jobs (the census rows of one `enumerate_index` call).

The seed only picks the job order, a conjugating word for each Farey-symbol
and infinite-index generator set, the order of the generators of each G(N),
and a relabelling of each census coset table that fixes point 0.  None of
these change an answer, and none changes the work by more than the noise:
where conjugation did (closure seeds, G(N)), it is left out.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from hecke5 import (
    congruence, farey, golden_ring, hecke_matrices, modular_oracle, quotients,
    verify,
)

INPUTS = Path(__file__).resolve().parent / "inputs"

# Infinite-index inputs are run at this coset cap instead of the default
# (100k), which takes minutes before giving up.
UNDECIDED_CAP = 2000


@dataclass
class Job:
    id: str
    call: Callable[[], Any]
    answer: Callable[[Any], Any] = lambda raw: raw

    def finish(self, raw) -> tuple[Any, list["Job"]]:
        out = self.answer(raw)
        return out if isinstance(out, tuple) else (out, [])


def modulus(text: str):
    """`--mod N` or `--ideal G`, as the CLI parses them."""
    if text.isdigit():
        return golden_ring.Modulus.rational(int(text))
    return golden_ring.Modulus.ideal(golden_ring.parse_golden(text))


def conjugator(rng: random.Random):
    e1, e2 = rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))
    return hecke_matrices.word([("T", e1), ("S", 1), ("T", e2)])


def conjugate(c, words):
    return [c * w * c.inv() for w in words]


def report(r) -> dict:
    return {"index": r.index, "geometric_level": r.geometric_level,
            "test_modulus": r.test_modulus, "quotient_order": r.quotient_order,
            "image_order": r.image_order, "verdict": r.verdict,
            "algebraic_level": r.algebraic_level}


# -- quotient ---------------------------------------------------------------

# (modulus, projective, with histogram): `hecke5 quotient` invocations
QUOTIENT_JOBS = [
    ("7", True, False), ("9", True, False), ("10", True, False),
    ("14", True, False), ("16", True, False), ("2+L", True, False),
    ("4+2*L", True, False), ("6", False, False), ("8", False, False),
    ("8", True, True),
]


def quotient_jobs(rng: random.Random, cache_dir: Path) -> list[Job]:
    def job(mod, projective, histogram):
        def call():
            q = quotients.build_quotient(modulus(mod), projective=projective,
                                         cache_dir=cache_dir)
            return q.order, q.order_histogram() if histogram else None

        def answer(raw):
            order, hist = raw
            out = {"order": order}
            if hist is not None:
                out["histogram"] = {str(k): v for k, v in sorted(hist.items())}
            return out
        kind = "proj" if projective else "hom"
        tag = "+hist" if histogram else ""
        return Job(f"quotient/{kind}/{mod}{tag}", call, answer)

    jobs = [job(*spec) for spec in QUOTIENT_JOBS]
    rng.shuffle(jobs)
    return jobs


# -- closure ----------------------------------------------------------------

CLOSURE_JOBS = [(16, "T^4"), (12, "T^4"), (12, "T^6"), (10, "T^2"),
                (8, "T^4"), (6, "T^2"), (6, "T^3")]
CLOSURE_MODULI = sorted({m for m, _ in CLOSURE_JOBS}, reverse=True)
VERIFY_CHECKS = ["3.2", "3.3", "3.5", "3.6", "3.8", "D2", "W"]
ORACLE_INSTANCES = [(5, 12), (3, 16), (5, 8), (7, 6)]


def fill_cache(cache_dir: Path) -> None:
    """Set-up for `closure`: put every ambient quotient in the disk cache."""
    for m in CLOSURE_MODULI:
        quotients.build_quotient(golden_ring.Modulus.rational(m),
                                 projective=True, cache_dir=cache_dir)


def closure_jobs(rng: random.Random, cache_dir: Path) -> list[Job]:
    # Seeds are not conjugated: the answer would not change, but the cost
    # would (T^4 mod 16 closes in 10 s or 16 s depending on the conjugator),
    # so runs with different seeds would measure different work.
    def closure_job(n, text):
        def call():  # `hecke5 closure --mod n --seed text`
            mod = golden_ring.Modulus.rational(n)
            q = quotients.build_quotient(mod, projective=True,
                                         cache_dir=cache_dir)
            seed = hecke_matrices.eval_word(hecke_matrices.parse_word(text))
            h = quotients.normal_closure(q, [seed])
            matches = [d for d in range(1, n + 1) if n % d == 0 and
                       quotients.kernel_subgroup(
                           q, golden_ring.Modulus.rational(d)).members
                       == h.members]
            return {"order": h.order, "kernel_levels": matches}
        return Job(f"closure/{n}/{text}", call)

    def verify_job(check_id):
        def call():
            return [[r.passed, r.detail] for r in verify.run_check(check_id)]
        return Job(f"verify/{check_id}", call)

    def oracle_job(r, s):
        return Job(f"oracle/wohlfahrt/{r},{s}",
                   lambda: modular_oracle.check_wohlfahrt_instance(r, s))

    # Shuffled within each kind only: the oracle's SL(2, Z/n) quotients stay
    # in its lru_cache, so running them before `T^4` mod 16 would raise the
    # peak memory by about 30 MB for some seeds and not others.
    groups = [[closure_job(*spec) for spec in CLOSURE_JOBS],
              [verify_job(c) for c in VERIFY_CHECKS],
              [oracle_job(*rs) for rs in ORACLE_INSTANCES]]
    for group in groups:
        rng.shuffle(group)
    return [job for group in groups for job in group]


# -- census -----------------------------------------------------------------

CENSUS_INDEXES = [5, 6]


def canonical_key(perm_s, perm_t) -> str:
    """Digest of the table relabelled in BFS order from point 0 (S before T).

    It names the subgroup (the stabilizer of point 0) independently of the
    labels, so expected answers survive relabelling and enumeration order.
    """
    order, pos = [0], {0: 0}
    for i in order:
        for perm in (perm_s, perm_t):
            if perm[i] not in pos:
                pos[perm[i]] = len(order)
                order.append(perm[i])
    canon = [[pos[perm[i]] for i in order] for perm in (perm_s, perm_t)]
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()[:16]


def relabel(rng: random.Random, t):
    n = t.degree
    rest = list(range(1, n))
    rng.shuffle(rest)
    sigma = [0] + rest
    new_s, new_t = [0] * n, [0] * n
    for i in range(n):
        new_s[sigma[i]] = sigma[t.perm_s[i]]
        new_t[sigma[i]] = sigma[t.perm_t[i]]
    return congruence.CosetTable(tuple(new_s), tuple(new_t))


def census_jobs(rng: random.Random, cache_dir: Path) -> list[Job]:
    def row_job(t):
        key = canonical_key(t.perm_s, t.perm_t)

        def call():  # `hecke5 census` per-row order
            level = congruence.geometric_level_from_table(t)
            normal = congruence.is_normal_table(t)
            r = congruence.is_congruence(congruence.schreier_generators(t),
                                         table=t)
            return {"index": t.degree,
                    "v2": sum(1 for j in range(t.degree) if t.perm_s[j] == j),
                    "geometric_level": level, "normal": normal,
                    "verdict": r.verdict, "algebraic_level": r.algebraic_level}
        return Job(f"census/{t.degree}/{key}", call)

    def enumerate_job(n):
        def answer(tables):
            keys = sorted(canonical_key(t.perm_s, t.perm_t) for t in tables)
            rows = [row_job(relabel(rng, t)) for t in tables]
            rng.shuffle(rows)
            digest = hashlib.sha256(" ".join(keys).encode()).hexdigest()[:16]
            return {"tables": len(tables), "digest": digest}, rows
        return Job(f"census/enumerate/{n}",
                   lambda: congruence.enumerate_index(n), answer)

    indexes = list(CENSUS_INDEXES)
    rng.shuffle(indexes)
    return [enumerate_job(n) for n in indexes]


# -- congruence -------------------------------------------------------------

# tests/test_farey.py::EXAMPLES, the worked index-2 and index-5 symbols
HFS_EXAMPLES = {
    "index2": "[-inf; *; 0; *; inf]",
    "i5-level2": "[-inf; 1; 0; 2; 1/L; o; L/L; 2; L; 1; inf]",
    "i5-level3": "[-inf; 1; 0; 1; 1/L; o; L/L; 2; L; 2; inf]",
    "i5-level5": "[-inf; 1; 0; 2; 1/L; o; L/L; 1; L; 2; inf]",
    "i5-level4": "[-inf; 1; 0; o; 1/L; o; L/L; o; L; 1; inf]",
    "i5-level6": "[-inf; o; 0; 1; 1/L; o; L/L; 1; L; o; inf]",
    "i5-free": "[-inf; o; 0; o; 1/L; o; L/L; o; L; o; inf]",
}
UNDECIDED_GENS = ["S", "T^4"]


def principal_words() -> dict[str, list[str]]:
    """Generator words of G(N), frozen in `inputs/` by `record.py`."""
    return json.loads((INPUTS / "principal.json").read_text())


def congruence_jobs(rng: random.Random, cache_dir: Path) -> list[Job]:
    def hfs_job(name, text):
        c = conjugator(rng)

        def call():  # `hecke5 congruence --hfs`
            hfs = farey.parse_hfs(text)
            words = [hecke_matrices.decompose(g)
                     for g in farey.side_pairing(hfs)]
            return report(congruence.is_congruence(conjugate(c, words)))
        return Job(f"congruence/hfs/{name}", call)

    def gens_job(name, gens):
        # G(N) is normal, so conjugating its generators changes nothing but
        # the coset enumeration's cost (up to 1.9x between conjugators for
        # G(6)); the seed shuffles the generator order instead.
        texts = list(gens)
        rng.shuffle(texts)

        def call():  # `hecke5 congruence --gens ...`
            words = [hecke_matrices.parse_word(g) for g in texts]
            return report(congruence.is_congruence(words))
        return Job(f"congruence/principal/{name}", call)

    def undecided_job(gen):
        c = conjugator(rng)
        text = str(conjugate(c, [hecke_matrices.parse_word(gen)])[0])

        def call():
            try:
                t = congruence.coset_table([hecke_matrices.parse_word(text)],
                                           cap=UNDECIDED_CAP)
            except congruence.UndecidedError:
                return "undecided"
            return {"index": t.degree}
        return Job(f"congruence/undecided/{gen}", call)

    jobs = ([hfs_job(*item) for item in HFS_EXAMPLES.items()]
            + [gens_job(*item) for item in principal_words().items()]
            + [undecided_job(g) for g in UNDECIDED_GENS])
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "quotient": quotient_jobs,
    "closure": closure_jobs,
    "census": census_jobs,
    "congruence": congruence_jobs,
}
