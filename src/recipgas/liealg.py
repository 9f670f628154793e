"""Vector fields with differential-form slots and their Lie algebra.

A reciprocal-transformation generator acts on the five gas fields and on the
differentials (dx, dy):

    X = zr*d_rho + zu*d_u + zv*d_v + zp*d_p + zs*d_S
        + (m11 dx + m12 dy) d_dx + (m21 dx + m22 dy) d_dy

The 2x2 matrix m = [[m11, m12], [m21, m22]] collects the 1-form slots.  The
commutator acts slot-wise on field coefficients and combines derivative
action and matrix commutator on the form part.

The standard basis X1..X5 is normalized so that its commutation relations
close with unit structure constants:

    [X3,X4] = -X3,  [X3,X5] = -X4,  [X4,X5] = -X5,

X1, X2 central.  One-parameter flow formulas elsewhere in the package use
2*X3; the factor is applied explicitly at those call sites.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .gasdyn import (FIELDS, ConservationFormParams, flux_matrix,
                     parse_record, total_derivative)
from .symkernel import QQ, Context, Expr
from .symkernel.errors import SymkernelError, VariableMismatch
from .symkernel.linalg import (det3, mul2, nullspace, reduce_row, rref,
                               solve, transpose)

SLOT_NAMES = ("zr", "zu", "zv", "zp", "zs", "m11", "m12", "m21", "m22")
_RECORD_KEYS = ("zeta_rho", "zeta_u", "zeta_v", "zeta_p", "zeta_S")


class NotInSpan(SymkernelError):
    def __init__(self, residual=None,
                 message="generator is not in the span of the basis"):
        super().__init__(message)
        self.residual = residual


class SingularMatrix(SymkernelError):
    pass


@dataclass(frozen=True)
class Generator:
    zr: Expr
    zu: Expr
    zv: Expr
    zp: Expr
    zs: Expr
    m11: Expr
    m12: Expr
    m21: Expr
    m22: Expr
    label: str = ""
    func: Expr | None = None   # formal-function slot of a family entry

    @property
    def ctx(self) -> Context:
        return self.zr.ctx

    def slots(self):
        return (self.zr, self.zu, self.zv, self.zp, self.zs,
                self.m11, self.m12, self.m21, self.m22)

    def field_slots(self):
        return (self.zr, self.zu, self.zv, self.zp, self.zs)

    def matrix(self):
        return ((self.m11, self.m12), (self.m21, self.m22))

    def is_zero(self) -> bool:
        return all(s.is_zero() for s in self.slots())

    def apply(self, f: Expr) -> Expr:
        """Derivation on a function of the fields (rho, u, v, p, S)."""
        return f.derive(dict(zip(FIELDS, self.field_slots())))

    def __add__(self, other: "Generator") -> "Generator":
        if other.ctx is not self.ctx:
            raise VariableMismatch("generators from different contexts")
        pairs = [a + b for a, b in zip(self.slots(), other.slots())]
        return Generator(*pairs, label="")

    def scale(self, c) -> "Generator":
        return Generator(*[s * c for s in self.slots()], label="")

    def __sub__(self, other: "Generator") -> "Generator":
        return self + other.scale(-1)

    def with_label(self, label: str) -> "Generator":
        return replace(self, label=label)

    def __eq__(self, other):
        if not isinstance(other, Generator):
            return NotImplemented
        return all(a == b for a, b in zip(self.slots(), other.slots()))

    def __hash__(self):
        return hash(self.slots())

    def __str__(self):
        parts = []
        for nm, s in zip(SLOT_NAMES, self.slots()):
            if not s.is_zero():
                parts.append("%s=%s" % (nm, s))
        body = ", ".join(parts) if parts else "0"
        return "%s(%s)" % (self.label or "Generator", body)


def generator(ctx: Context, zr=0, zu=0, zv=0, zp=0, zs=0,
              m=((0, 0), (0, 0)), label="") -> Generator:
    return Generator(*(Expr.coerce(ctx, s) for s in
                       (zr, zu, zv, zp, zs, *m[0], *m[1])), label=label)


def zero_generator(ctx: Context) -> Generator:
    return generator(ctx, label="0")


def generator_from_dict(ctx: Context, d: dict) -> Generator:
    """The generator of a JSON record with keys zeta_rho, zeta_u, zeta_v,
    zeta_p, zeta_S and form, and an optional label.  An absent slot is 0;
    a slot that is not an expression string, a form that is not 2x2, or
    any other key raises a SymkernelError that names the key."""
    rec = parse_record(ctx, d, "generator", _RECORD_KEYS + ("form",), "0",
                       extra=("label",))
    return generator(ctx, *(rec[k] for k in _RECORD_KEYS), m=rec["form"],
                     label=d.get("label", ""))


def equivalence_generator(ctx, xi_x=0, xi_y=0, zr=0, zu=0, zv=0, zp=0, zs=0,
                          label="") -> Generator:
    """The point-transformation generator with coordinate slots xi_x,
    xi_y: its form slots are the classical prolongation's
    ((D_x xi_x, D_y xi_x), (D_x xi_y, D_y xi_y))."""
    m = [[total_derivative(Expr.coerce(ctx, xi), c) for c in ("x", "y")]
         for xi in (xi_x, xi_y)]
    return generator(ctx, zr, zu, zv, zp, zs, m=m, label=label)


# --- commutator ------------------------------------------------------------


def commutator(X: Generator, Y: Generator) -> Generator:
    """[X, Y], with the form slots transforming as fiber-linear parts:

    m_[X,Y] = X(m_Y) - Y(m_X) + m_Y m_X - m_X m_Y
    """
    if X.ctx is not Y.ctx:
        raise VariableMismatch("generators from different contexts")
    fields = [X.apply(zy) - Y.apply(zx)
              for zx, zy in zip(X.field_slots(), Y.field_slots())]
    mx, my = X.matrix(), Y.matrix()
    flat = lambda m: m[0] + m[1]
    m = [X.apply(ey) - Y.apply(ex) + yx - xy
         for ex, ey, yx, xy in zip(flat(mx), flat(my), flat(mul2(my, mx)),
                                   flat(mul2(mx, my)))]
    return Generator(*fields, *m)


# --- the standard basis -----------------------------------------------------


def standard_basis(ctx: Context) -> list:
    """[X1, X2, X3, X4, X5] in the unit-structure-constant normalization."""
    v = lambda n: Expr.var(ctx, n)
    rho, u, vv, p = v("rho"), v("u"), v("v"), v("p")
    half = QQ(1, 2)
    q2 = u ** 2 + vv ** 2
    x1 = generator(ctx, zu=-vv, zv=u, m=((0, -1), (1, 0)), label="X1")
    x2 = generator(ctx, m=((1, 0), (0, 1)), label="X2")
    x3 = generator(
        ctx,
        zr=rho ** 2 * q2 * half, zu=p * u * half, zv=p * vv * half,
        zp=p ** 2 * half,
        m=tuple(tuple(-half * e for e in row) for row in
                flux_matrix(ConservationFormParams.make(ctx))),
        label="X3")
    x4 = generator(ctx, zu=u * half, zv=vv * half, zp=p,
                   m=((-half, 0), (0, -half)), label="X4")
    x5 = generator(ctx, zp=1, label="X5")
    return [x1, x2, x3, x4, x5]


def x_h(ctx: Context, h: Expr | None = None) -> Generator:
    """Projective-scaling family h(S)*(-2 rho d_rho + u d_u + v d_v)."""
    if h is None:
        h = Expr.function(ctx, "h", Expr.var(ctx, "S"))
    rho, u, vv = (Expr.var(ctx, n) for n in ("rho", "u", "v"))
    g = generator(ctx, zr=-2 * rho * h, zu=u * h, zv=vv * h, label="Xh")
    return replace(g, func=h if not h.is_constant() else None)


def x_f(ctx: Context, f: Expr | None = None) -> Generator:
    """Entropy relabeling family F(S) d_S."""
    if f is None:
        f = Expr.function(ctx, "F", Expr.var(ctx, "S"))
    g = generator(ctx, zs=f, label="XF")
    return replace(g, func=f if not f.is_constant() else None)


def constant_slices(ctx: Context) -> list:
    """[Xh1, XF1]: x_h at h = 1 and x_f at F = 1."""
    one = Expr.const(ctx, 1)
    return [x_h(ctx, one).with_label("Xh1"), x_f(ctx, one).with_label("XF1")]


def reciprocal_algebra(ctx: Context) -> "LieAlgebra":
    """L_rt = {X1..X5, Xh, XF}."""
    return LieAlgebra(standard_basis(ctx) + [x_h(ctx), x_f(ctx)])


# --- exact span arithmetic ---------------------------------------------------


def _vectorize(g: Generator) -> dict:
    """Coefficient vector over Q of a polynomial generator, keyed by
    (slot number, monomial)."""
    vec = {}
    for snum, s in enumerate(g.slots()):
        if not s.is_polynomial():
            raise SymkernelError(
                "slot %s of %s is not polynomial" % (SLOT_NAMES[snum], g))
        vec.update(((snum, m), c) for m, c in s.coefficients().items())
    return vec


def membership(target: Generator, basis) -> list | None:
    """Exact rational coefficients of target over basis, or None."""
    vecs = [_vectorize(g) for g in list(basis) + [target]]
    return solve(transpose(vecs).values(), len(vecs) - 1, QQ(0))


# --- functional matching -----------------------------------------------------


def _match_functional(cand: Generator, family: Generator):
    """Try cand == coeff * family(with its function slot replaced).

    Returns (coeff, factor) or None; factor is the replacing function and
    coeff a rational scale.
    """
    if family.func is None:
        return None
    template = [s / family.func for s in family.slots()]
    ratio = None
    for c, t in zip(cand.slots(), template):
        if t.is_zero():
            if not c.is_zero():
                return None
            continue
        r = c / t
        if ratio is None:
            ratio = r
        elif not (ratio - r).is_zero():
            return None
    if ratio is None or ratio.is_zero():
        return None
    # split a rational scale out of the function factor
    coeff = ratio.primitive()[0]
    factor = ratio / coeff
    if any(cand.ctx.role(n) != "function" for n in factor.free_variables()):
        return None
    return coeff, factor


@dataclass(frozen=True)
class FunctionalConstant:
    """Structure constant pointing into a function-parameterized family."""
    family: int
    factor: Expr
    coeff: object

    def __str__(self):
        c = "" if self.coeff == 1 else ("-" if self.coeff == -1 else
                                        "%s*" % self.coeff)
        return "%sX[%s]" % (c, self.factor)


# --- Lie algebra -------------------------------------------------------------


@dataclass
class LieAlgebra:
    basis: list

    def labels(self):
        return [g.label or ("B%d" % i) for i, g in enumerate(self.basis)]

    def dim(self):
        return len(self.basis)

    def structure_constants(self) -> dict:
        """Full antisymmetric table {(i,j): [(k, c)] or FunctionalConstant}."""
        return self._table

    @cached_property
    def _table(self) -> dict:
        n = len(self.basis)
        table = {}
        for i in range(n):
            for j in range(i + 1, n):
                entry = self._decompose_bracket(
                    (i, j), commutator(self.basis[i], self.basis[j]))
                table[(i, j)] = entry
                table[(j, i)] = _negate_entry(entry)
        return table

    def _decompose_bracket(self, pair, br: Generator):
        if br.is_zero():
            return []
        coeffs = membership(br, self.basis)
        if coeffs is not None:
            return [(k, c) for k, c in enumerate(coeffs) if c]
        for k, g in enumerate(self.basis):
            m = _match_functional(br, g)
            if m is not None:
                return FunctionalConstant(k, m[1], m[0])
        labels = (self.basis[pair[0]].label, self.basis[pair[1]].label)
        raise NotInSpan(br, "commutator of %s falls outside the span"
                        % (labels,))

    def _combine(self, terms) -> Generator:
        """sum c * basis[k] over the pairs (k, c) of terms."""
        g = zero_generator(self.basis[0].ctx)
        for k, c in terms:
            g = g + self.basis[k].scale(c)
        return g

    def constant_table(self) -> dict:
        """{(i,j,k): QQ} for the non-functional part of the table."""
        out = {}
        for (i, j), entry in self.structure_constants().items():
            if isinstance(entry, FunctionalConstant):
                continue
            for k, c in entry:
                out[(i, j, k)] = c
        return out

    def derived_algebra(self) -> "LieAlgebra":
        """Span of all commutators, with basis drawn from this basis and
        picked in its coordinates.  This basis must be independent, so
        that an entry of the table is the unique coordinate vector of its
        bracket.  The candidates are the basis elements inside the span of
        the entries, then the entries; the pivot columns of one rref of
        the matrix whose columns they are keep each candidate independent
        of those before it.  A kept entry is the raw bracket "[]"; the
        families that a FunctionalConstant names come last."""
        entries, families_hit = [], set()
        for (i, j), entry in self.structure_constants().items():
            if i > j:
                continue
            if isinstance(entry, FunctionalConstant):
                families_hit.add(entry.family)
            elif entry:
                entries.append(dict(entry))
        span = rref(entries)
        inside = [k for k in range(self.dim())
                  if k not in families_hit and not reduce_row(span, {k: 1})]
        candidates = [{k: 1} for k in inside] + entries
        chosen = []
        for c in sorted(rref(transpose(candidates).values())):
            if c < len(inside):
                chosen.append(self.basis[inside[c]])
            else:
                chosen.append(self._combine(
                    entries[c - len(inside)].items()).with_label("[]"))
        chosen += [self.basis[k] for k in sorted(families_hit)]
        return LieAlgebra(chosen)

    def center(self) -> "LieAlgebra":
        """Maximal central subspace, by exact nullspace of the c-table."""
        n = len(self.basis)
        rows = {}
        for (i, j), entry in self.structure_constants().items():
            if isinstance(entry, FunctionalConstant):
                key = ("f", j, entry.family, str(entry.factor))
                rows.setdefault(key, {})[i] = entry.coeff
            else:
                for k, c in entry:
                    rows.setdefault((j, k), {})[i] = c
        out = []
        for vec in nullspace(list(rows.values()), n):
            terms = [(i, c) for i, c in enumerate(vec) if c]
            out.append(self._combine(terms).with_label(
                "+".join(self.basis[i].label for i, _ in terms)))
        return LieAlgebra(out)


def _negate_entry(entry):
    if isinstance(entry, FunctionalConstant):
        return FunctionalConstant(entry.family, entry.factor, -entry.coeff)
    return [(k, -c) for k, c in entry]


def commutator_table_text(L: LieAlgebra) -> str:
    labels = L.labels()
    table = L.structure_constants()
    entries = {}
    for (i, j), entry in table.items():
        entries[(i, j)] = _entry_text(entry, labels)
    lead = max(len(x) for x in labels) + 2
    width = max([len(s) for s in entries.values()] +
                [len(x) for x in labels]) + 2
    lines = ["".ljust(lead) + "".join(x.ljust(width) for x in labels)]
    n = len(labels)
    for i in range(n):
        row = [labels[i].ljust(lead)]
        for j in range(n):
            s = "0" if i == j else entries[(i, j)]
            row.append(s.ljust(width))
        lines.append("".join(row).rstrip())
    return "\n".join(lines)


def _entry_text(entry, labels):
    if isinstance(entry, FunctionalConstant):
        return str(entry)
    if not entry:
        return "0"
    parts = []
    for k, c in entry:
        if c == 1:
            parts.append(labels[k])
        elif c == -1:
            parts.append("-%s" % labels[k])
        else:
            parts.append("%s*%s" % (c, labels[k]))
    return "+".join(parts).replace("+-", "-")


# --- automorphism machinery ---------------------------------------------------

# the symbols a_ni of a linear map of the megaideal L'' = span{X3, X4, X5}
_AUT_NAMES = tuple(tuple("a%d%d" % (n, i) for i in (3, 4, 5))
                   for n in (3, 4, 5))


@dataclass(frozen=True)
class AutomorphismMatrix:
    """3x3 matrix a[n][i] over X3, X4, X5, column i = image of the i-th
    basis element."""
    entries: tuple

    def det(self) -> Expr:
        return det3(self.entries)


def automorphism_symbols(ctx: Context):
    for row in _AUT_NAMES:
        for name in row:
            ctx.ensure(name)
    return tuple(tuple(Expr.var(ctx, name) for name in row)
                 for row in _AUT_NAMES)


def _constant(table: dict, i, j, k):
    """c_ij^k of a table {(i,j,k): value} whose antisymmetric completion is
    implied."""
    if (i, j, k) in table:
        return table[(i, j, k)]
    return -table.get((j, i, k), QQ(0))


def automorphism_constraints(ctx: Context, table: dict):
    """Polynomial conditions on a_ni for a linear map to preserve the
    bracket of a 3-dimensional constant-structure-constant algebra:

        sum_{k,s} a_ki a_sj c_ks^n = sum_m c_ij^m a_nm   (all i<j, n)

    table: {(i,j,k): value} over indices 0..2, antisymmetric completion
    implied.  Trivial and duplicate conditions are removed.
    """
    a = automorphism_symbols(ctx)
    constraints = []
    seen = set()
    for i in range(3):
        for j in range(i + 1, 3):
            for n in range(3):
                lhs = Expr.const(ctx, 0)
                for k in range(3):
                    for s in range(3):
                        cc = _constant(table, k, s, n)
                        if cc:
                            lhs = lhs + a[k][i] * a[s][j] * cc
                rhs = Expr.const(ctx, 0)
                for m in range(3):
                    cc = _constant(table, i, j, m)
                    if cc:
                        rhs = rhs + a[n][m] * cc
                e = lhs - rhs
                if e.is_zero():
                    continue
                canon = e.primitive()[1]
                key = str(canon)
                if key not in seen:
                    seen.add(key)
                    constraints.append(canon)
    return constraints


def megaideal_constraints(ctx: Context):
    """The automorphism conditions of the megaideal L'' = span{X3, X4, X5}
    of L_rt, read from the structure constants of X3, X4, X5.  Criterion 2
    derives L'' from L_rt and checks that it is X3, X4, X5, in this
    order."""
    return automorphism_constraints(
        ctx, LieAlgebra(standard_basis(ctx)[2:5]).constant_table())
