"""Job files for the benchmark workloads, and the answers they must give.

Every workload is a list of jobs.  A job is one `qorder` command on one
generated job file; the program sees only that file.  The expected answers
come from closed forms computed here in plain integers, never from the
program and never from a stored copy of an earlier report.

Twisted polynomial algebras (x_i x_j = eps^{S_ij} x_j x_i): for a character
that is nonzero exactly on the generators J, the number of irreducible
representations over it is

    |{a in (Z/l)^J : S_JJ a = 0 mod l}| / |{a in (Z/l)^J : S_{*,J} a = 0 mod l}|

The denominator counts the monomials x^a (a supported on J) that are central
in the fiber; the program divides the fiber by their character values, so the
fiber dimension is l^N divided by that same number, times l for every
extension value the program leaves unresolved.

Quantum Weyl algebras at characters with values in {0, 1}: no w_i^l
vanishes, so the fiber is a full matrix algebra of size l^n, of dimension
l^(2n), with exactly one irreducible representation.
"""

from __future__ import annotations

import random
import re
from itertools import combinations, product
from math import gcd

PASS_VERDICTS = ("PASS", "PASS-with-flag")
_UNRESOLVED = re.compile(r"census taken over (\d+) unresolved extension values")


# ---------------------------------------------------------------------------
# Integer helpers, independent of the program.

def all_skew(n, span=2):
    """Every skew matrix of size n with entries in [-span, span]."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for entries in product(range(-span, span + 1), repeat=len(pairs)):
        yield _skew_from(n, pairs, entries)


def random_skew(rng, n, span=2):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return _skew_from(n, pairs, [rng.randint(-span, span) for _ in pairs])


def _skew_from(n, pairs, entries):
    S = [[0] * n for _ in range(n)]
    for (i, j), v in zip(pairs, entries):
        S[i][j] = v
        S[j][i] = -v
    return S


def det(M):
    """Determinant by Laplace expansion (the matrices here are at most 4x4)."""
    if not M:
        return 1
    return sum((-1) ** c * M[0][c] * det([row[:c] + row[c + 1:] for row in M[1:]])
               for c in range(len(M)) if M[0][c])


def admissible(S, l):
    """gcd(l, m) = 1 for every nonzero principal minor m of S."""
    n = len(S)
    for size in range(2, n + 1, 2):
        for sub in combinations(range(n), size):
            m = det([[S[i][j] for j in sub] for i in sub])
            if m and gcd(l, m) != 1:
                return False
    return True


def kernel_size(S, rows, cols, l):
    """|{a in (Z/l)^cols : S[rows][cols] a = 0 mod l}| by enumeration."""
    count = 0
    for a in product(range(l), repeat=len(cols)):
        if all(sum(S[i][j] * x for j, x in zip(cols, a)) % l == 0
               for i in rows):
            count += 1
    return count


def twisted_count(S, J, l):
    """Irreducible count over a character nonzero exactly on J."""
    N = len(S)
    num = kernel_size(S, J, J, l)
    den = kernel_size(S, range(N), J, l)
    if num % den:
        raise ArithmeticError("closed form is not an integer: %d / %d"
                              % (num, den))
    return num // den, den


# ---------------------------------------------------------------------------
# Jobs.

def _matrix_text(S):
    return " / ".join(" ".join(str(x) for x in row) for row in S)


def parse_key(key):
    """Character key 'x1=0;x2=1' -> {'x1': '0', 'x2': '1'}."""
    return dict(part.split("=", 1) for part in key.split(";"))


def unresolved_multiplier(rec, l):
    for note in rec.get("result.notes", []):
        hit = _UNRESOLVED.search(note)
        if hit:
            return l ** int(hit.group(1))
    return 1


class Job:
    """One qorder command; subclasses give the closed-form answers."""

    command = "verify"

    def __init__(self, l, primitive_index):
        self.l = l
        self.primitive_index = primitive_index

    def expected_keys(self):
        """Characters the report must list, as {generator: '0' or '1'}."""
        raise NotImplementedError

    def expected(self, values):
        """(count, fiber dimension before unresolved extensions)."""
        raise NotImplementedError

    def check_report(self, doc, census):
        """Errors in one report; census maps character key -> (dim, rad, count).

        Returns (errors, characters that failed as operations)."""
        errors = []
        failed = 0
        want = sorted(sorted(v.items()) for v in self.expected_keys())
        got = sorted(sorted(parse_key(rec["character"]).items())
                     for rec in doc.get("results", []))
        if got != want:
            errors.append("characters %s, expected %s" % (got, want))
        for rec in doc.get("results", []):
            key = rec["character"]
            if rec.get("result.verdict") not in PASS_VERDICTS:
                failed += 1
                continue
            errors.extend("%s: %s" % (key, e)
                          for e in self.check_record(rec, census.get(key)))
        return errors, failed

    def check_record(self, rec, seen):
        errors = []
        values = parse_key(rec["character"])
        count, dim = self.expected(values)
        mult = unresolved_multiplier(rec, self.l)
        oracle = rec.get("result.oracle")
        if rec.get("result.predicted") is None or \
                rec["result.predicted"] * mult != oracle:
            errors.append("predicted %s x multiplier %d != census %s"
                          % (rec.get("result.predicted"), mult, oracle))
        if oracle != count:
            errors.append("census %s != closed form %d" % (oracle, count))
        if seen is None:
            errors.append("no census result observed")
        else:
            seen_dim, _, seen_count = seen
            if seen_count != oracle:
                errors.append("census call gave %d, report %s"
                              % (seen_count, oracle))
            if seen_dim != dim * mult:
                errors.append("fiber dimension %d != %d"
                              % (seen_dim, dim * mult))
        return errors


class TwistedJob(Job):
    """`verify` over every {0, 1} pattern of the polynomial generators."""

    def __init__(self, S, n_poly, l, primitive_index):
        super().__init__(l, primitive_index)
        self.S = S
        self.n_poly = n_poly
        self.gens = ["x%d" % (i + 1) for i in range(len(S))]

    def text(self):
        return ("algebra.kind = twisted\nalgebra.S = %s\nalgebra.n_poly = %d\n"
                "root.l = %d\nroot.primitive_index = %d\n"
                % (_matrix_text(self.S), self.n_poly, self.l,
                   self.primitive_index))

    def expected_keys(self):
        out = []
        for bits in product("01", repeat=self.n_poly):
            values = dict(zip(self.gens, bits))
            values.update((g, "1") for g in self.gens[self.n_poly:])
            out.append(values)
        return out

    def expected(self, values):
        J = [i for i, g in enumerate(self.gens) if values[g] != "0"]
        count, central = twisted_count(self.S, J, self.l)
        return count, self.l ** len(self.S) // central


class WeylJob(Job):
    """`count` at one {0, 1} character of the quantum Weyl algebra."""

    command = "count"

    def __init__(self, S, exponents, l, primitive_index, values):
        super().__init__(l, primitive_index)
        self.S = S
        self.exponents = exponents
        self.values = values

    def text(self):
        lines = ["algebra.kind = weyl", "algebra.S = %s" % _matrix_text(self.S),
                 "algebra.exponents = %s" % " ".join(map(str, self.exponents)),
                 "root.l = %d" % self.l,
                 "root.primitive_index = %d" % self.primitive_index]
        for g, v in sorted(self.values.items()):
            lines.append("character.%s = %s" % (g, v))
            if v != "0":
                lines.append("character.witness.%s = 1" % g)
        return "\n".join(lines) + "\n"

    def expected_keys(self):
        return [dict(self.values)]

    def expected(self, values):
        return 1, self.l ** (2 * len(self.S))


def weyl_values(n, pattern):
    names = ["y%d" % (i + 1) for i in range(n)] + \
        ["x%d" % (i + 1) for i in range(n)]
    return dict(zip(names, pattern))


# ---------------------------------------------------------------------------
# Workloads.

def _units(l):
    return [j for j in range(1, l) if gcd(j, l) == 1]


def sweep(rng):
    """Exhaustive twisted family: N=2 at l=3, 5 and N=3 at l=3, all n_poly."""
    jobs = []
    for N, ls in ((2, (3, 5)), (3, (3,))):
        for S in all_skew(N):
            for l in ls:
                if not admissible(S, l):
                    continue
                for n_poly in range(N + 1):
                    jobs.append(TwistedJob(S, n_poly, l,
                                           rng.choice(_units(l))))
    rng.shuffle(jobs)
    return jobs


def full_fiber(S, n_poly, l):
    """Every default character of (S, n_poly) has a fiber of dimension l^N."""
    N = len(S)
    for bits in product((0, 1), repeat=n_poly):
        J = [i for i, b in enumerate(bits) if b] + list(range(n_poly, N))
        if kernel_size(S, range(N), J, l) != 1:
            return False
    return True


def monomial_625(rng):
    """Six random admissible S for twisted N=4 at l=5, n_poly=2, full
    fibers."""
    out = []
    while len(out) < 6:
        S = random_skew(rng, 4)
        if admissible(S, 5) and full_fiber(S, 2, 5):
            out.append(TwistedJob(S, 2, 5, rng.choice(_units(5))))
    return out


def weyl_table(rng, n=2, l=3):
    """Two `count` jobs on the quantum Weyl algebra (S = 0 1 / -1 0 for n=2,
    exponents 1): the covered character with every value 1, and the
    uncovered one with every y zero and every x one.

    The characters are fixed because their census costs differ by up to a
    fifth from one {0, 1} character to the next; the seed picks each job's
    primitive root and the order of the jobs."""
    S = [[0, 1], [-1, 0]] if n == 2 else [[0]]
    covered = weyl_values(n, "1" * (2 * n))
    uncovered = weyl_values(n, "0" * n + "1" * n)
    jobs = [WeylJob(S, [1] * n, l, rng.choice(_units(l)), values)
            for values in (covered, uncovered)]
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "sweep": sweep,
    "monomial-625": monomial_625,
    "weyl-table": weyl_table,
}

# The l at which the cyclotomic microbenchmark runs for each workload.
WORKLOAD_L = {"sweep": 3, "monomial-625": 5, "weyl-table": 3}


def make_jobs(workload, seed):
    return WORKLOADS[workload](random.Random("%s/%d" % (workload, seed)))
