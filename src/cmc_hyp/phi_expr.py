"""Small expression language for prescribed functions on the half-space.

Grammar: variables ``p1, p2, p3``, numeric literals, ``pi``, the binary
operators ``+ - * / ^`` (``^`` binds right), unary minus, and the call forms
``exp, log, sqrt, sin, cos, tanh, atanh, hypdist``.  ``hypdist(a, b, c)``
is the hyperbolic distance from the evaluation point to the fixed anchor
``(a, b, c)``; the anchor must be numeric literals so the syntax tree stays
a pure function of ``p``.

Evaluation is one numpy-vectorized walk of the tree in which every node is
a numpy ufunc (``np.add``, ``np.power``, ``np.exp``, ...).  On plain arrays
the walk gives values.  On forward-mode :class:`Dual` numbers, whose
``__array_ufunc__`` looks each ufunc's partial derivatives up in one rule
table, the same walk gives gradients, so values and derivatives agree by
construction.  ``hypdist`` is one node of the walk: on duals it computes its
value by the same ufuncs and its gradient in closed form.
:func:`phi_to_prescribed` compiles an expression into a
:class:`PrescribedFunction` whose callables sample ``phi`` with numpy's
floating-point warnings off and raise :class:`~cmc_hyp.errors.NumericsError`
where a sampled value or gradient is not finite; the raw walks
:func:`evaluate` and :func:`evaluate_gradient` check nothing.  The dual
walk carries the values (``Dual.v``), so :func:`evaluate_gradient` returns
both.

A compiled function walks its sample in blocks of at most
:data:`SAMPLE_BLOCK` points.  A walk allocates a dozen temporaries the size
of its input (a dual's gradient is three of them), so one walk of the
energy's 76,800 vertical probes at n = 40 held 6.9 MB at once; a block's
temporaries stay in cache whatever the sample size.  Every node is
elementwise, the slope rule of ``a ^ b`` included (the constant-exponent
rule at each point where the exponent's gradient vanishes), so each point's
numbers are the whole walk's bit for bit.

The same sampler walks vertical segments, the weighted volume's 24 heights
above each surface point (``fold_verticals``).  There a point's ``p1`` and
``p2`` are one value per segment that the walk broadcasts against the
segment's heights, so the horizontal terms of ``hypdist`` and any term in
``p1`` or ``p2`` alone are taken once per segment; a block is 170 segments
(4080 samples), folded to one number per segment before the next, and each
sample goes through the same ufuncs on the same values as the points form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .halfspace import box_lattice

# most points one walk of a compiled function takes at once
SAMPLE_BLOCK = 4096
# deepest nesting an expression may have: each parenthesis, call, negation
# and binary operator puts its operands one level deeper, and the parser,
# the printer and both walks recurse through the levels
MAX_DEPTH = 100

_FUNCTIONS = ("exp", "log", "sqrt", "sin", "cos", "tanh", "atanh", "hypdist")
_CONSTANTS = {"pi": np.pi}
_VARIABLES = ("p1", "p2", "p3")


class PhiSyntaxError(ValueError):
    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


# ---------------------------------------------------------------------------
# syntax tree


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def to_text(node, parent_prec=0):
    """Print a tree; ``parse_phi(to_text(t))`` reproduces ``t``."""
    if isinstance(node, Num):
        if node.value == int(node.value) and abs(node.value) < 1e15:
            return str(int(node.value))
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        # the sign binds looser than ``^`` (``-a ^ b`` is ``-(a ^ b)``) and
        # tighter than ``* /``, so a negated base of ``^`` needs parentheses
        text = f"-{to_text(node.arg, 3)}"
        return f"({text})" if parent_prec > 3 else text
    if isinstance(node, Call):
        return f"{node.name}({', '.join(to_text(a) for a in node.args)})"
    prec = _PRECEDENCE[node.op]
    # ``^`` binds right, so its left operand needs the tighter context
    lp, rp = (prec + 1, prec) if node.op == "^" else (prec, prec + 1)
    left = to_text(node.left, lp)
    right = to_text(node.right, rp)
    text = f"{left} {node.op} {right}"
    if prec < parent_prec:
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# tokenizer / recursive-descent parser


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "+-*/^(),":
            tokens.append((c, i))
            i += 1
        elif c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] in ".eE"
                             or (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            try:
                val = float(text[i:j])
            except ValueError:
                raise PhiSyntaxError(f"bad number {text[i:j]!r}", i) from None
            if not np.isfinite(val):
                raise PhiSyntaxError(f"number {text[i:j]!r} is not finite", i)
            tokens.append((("num", val), i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((("name", text[i:j]), i))
            i = j
        else:
            raise PhiSyntaxError(f"unexpected character {c!r}", i)
    tokens.append((("end", None), n))
    return tokens


class _Parser:
    """Recursive descent that returns each subexpression with its height,
    the levels of nesting below it.  ``level`` counts the parentheses,
    calls, signs and ``^`` that enclose the current position; a position
    nested deeper than :data:`MAX_DEPTH` levels is refused there, before
    the descent recurses further."""

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.level = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def where(self):
        return self.tokens[self.pos][1]

    def take(self, expected=None):
        tok, at = self.tokens[self.pos]
        if expected is not None and tok != expected:
            raise PhiSyntaxError(f"expected {expected!r}", at)
        self.pos += 1
        return tok

    def up(self, height, at):
        """``height + 1``: one more level at position ``at``, refused past
        :data:`MAX_DEPTH`."""
        if self.level + height + 1 > MAX_DEPTH:
            raise PhiSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels", at)
        return height + 1

    def enter(self, at):
        """Descend one level into the operand of a parenthesis, call,
        sign or ``^`` at ``at``; the caller leaves it."""
        self.up(0, at)
        self.level += 1

    def parse(self):
        node, _ = self.expr()
        if self.peek() != ("end", None):
            raise PhiSyntaxError("trailing input", self.where())
        return node

    def expr(self, tight=False):
        """A chain of ``+ -`` (of ``* /`` if ``tight``) over its operands."""
        ops = ("*", "/") if tight else ("+", "-")
        node, height = self.factor() if tight else self.expr(True)
        while self.peek() in ops:
            at = self.where()
            op = self.take()
            right, h = self.factor() if tight else self.expr(True)
            node, height = Bin(op, node, right), self.up(max(height, h), at)
        return node, height

    def factor(self):
        sign, at = self.peek(), self.where()
        if sign not in ("-", "+"):
            return self.power()
        self.take()
        self.enter(at)
        node, height = self.factor()
        self.level -= 1
        if sign == "+":
            return node, height
        return Neg(node), self.up(height, at)

    def power(self):
        base, height = self.atom()
        if self.peek() != "^":
            return base, height
        at = self.where()
        self.take()
        self.enter(at)
        right, h = self.factor()
        self.level -= 1
        return Bin("^", base, right), self.up(max(height, h), at)

    def atom(self):
        tok = self.peek()
        at = self.where()
        if tok == "(":
            self.take()
            self.enter(at)
            node, height = self.expr()
            self.level -= 1
            self.take(")")
            return node, self.up(height, at)
        if isinstance(tok, tuple) and tok[0] == "num":
            self.take()
            return Num(float(tok[1])), 0
        if isinstance(tok, tuple) and tok[0] == "name":
            self.take()
            name = tok[1]
            if self.peek() == "(":
                if name not in _FUNCTIONS:
                    raise PhiSyntaxError(f"unknown function {name!r}", at)
                self.take()
                self.enter(at)
                args = [self.expr()]
                while self.peek() == ",":
                    self.take()
                    args.append(self.expr())
                self.level -= 1
                self.take(")")
                height = self.up(max(h for _, h in args), at)
                return self._call(name, tuple(a for a, _ in args), at), height
            if name in _VARIABLES:
                return Var(name), 0
            if name in _CONSTANTS:
                return Num(_CONSTANTS[name]), 0
            raise PhiSyntaxError(f"unknown identifier {name!r}", at)
        raise PhiSyntaxError("expected a value", at)

    def _call(self, name, args, at):
        if name == "hypdist":
            if len(args) != 3:
                raise PhiSyntaxError("hypdist takes three anchor numbers", at)
            anchor = []
            for a in args:
                if isinstance(a, Num):
                    anchor.append(a.value)
                elif isinstance(a, Neg) and isinstance(a.arg, Num):
                    anchor.append(-a.arg.value)
                else:
                    raise PhiSyntaxError(
                        "hypdist anchor must be numeric literals", at)
            if anchor[2] <= 0:
                raise PhiSyntaxError("hypdist anchor needs third entry > 0", at)
            return Call("hypdist", tuple(Num(v) for v in anchor))
        if len(args) != 1:
            raise PhiSyntaxError(f"{name} takes one argument", at)
        return Call(name, args)


def parse_phi(text):
    """Parse an expression into its syntax tree."""
    if not text or not text.strip():
        raise PhiSyntaxError("empty expression", 0)
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation: one tree walk through numpy ufuncs


class Dual(np.lib.mixins.NDArrayOperatorsMixin):
    """A value ``v`` with its Euclidean gradient ``g`` (shape ``(3,) + v.shape``).

    A numpy ufunc applied to duals computes the value from the plain values
    and the gradient by the chain rule, with the partial derivatives from
    :data:`_RULES`; a result that depends on no dual is a plain value.
    """

    __slots__ = ("v", "g")

    def __init__(self, v, g):
        self.v = v
        self.g = g

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        vals = [x.v if isinstance(x, Dual) else x for x in inputs]
        out = ufunc(*vals)
        rules, sloped = _RULES[ufunc], True
        if ufunc is np.power:
            # the rule of ``a ^ b`` is picked point by point: where the
            # exponent's gradient vanishes, ``b a^(b-1)`` and no log term
            sloped = isinstance(inputs[1], Dual) and inputs[1].g.any(axis=0)
            if not np.any(sloped):
                rules = _CONSTANT_EXPONENT
            elif not np.all(sloped):
                rules = _power_rules(sloped)
        g, owned = None, False
        for x, rule in zip(inputs, rules):
            if isinstance(x, Dual) and rule is not None:
                slope = rule(*vals, out)
                # 1 x is x: a unit slope (of a sum or difference, never of
                # ``^``) passes the operand's gradient on uncopied, so a
                # term added to it goes into a new array
                unit = isinstance(slope, float) and slope == 1.0
                term = x.g if unit else x.g * slope
                if g is None:
                    g, owned = term, not unit
                elif owned:
                    np.add(g, term, out=g, where=sloped)
                else:
                    g, owned = g + term, True
        return out if g is None else Dual(out, g)


def _arccosh_slope(c):
    # the distance is not differentiable at the anchor itself; report a zero
    # slope there instead of propagating NaNs
    denom = np.sqrt(np.maximum(c * c - 1.0, 0.0))
    return np.where(denom > 1e-150, 1.0 / np.maximum(denom, 1e-150), 0.0)


# partial derivatives of each ufunc in each argument, given the arguments'
# values and the result
_RULES = {
    np.negative: (lambda a, out: -1.0,),
    np.add: (lambda a, b, out: 1.0, lambda a, b, out: 1.0),
    np.subtract: (lambda a, b, out: 1.0, lambda a, b, out: -1.0),
    np.multiply: (lambda a, b, out: b, lambda a, b, out: a),
    np.divide: (lambda a, b, out: 1.0 / b, lambda a, b, out: -out / b),
    # ``a ^ b`` with a dual exponent, as ``exp(b log a)``
    np.power: (lambda a, b, out: out * b / a, lambda a, b, out: out * np.log(a)),
    np.exp: (lambda a, out: out,),
    np.log: (lambda a, out: 1.0 / a,),
    np.sqrt: (lambda a, out: 0.5 / out,),
    np.sin: (lambda a, out: np.cos(a),),
    np.cos: (lambda a, out: -np.sin(a),),
    np.tanh: (lambda a, out: 1.0 - out * out,),
    np.arctanh: (lambda a, out: 1.0 / (1.0 - a * a),),
}
# ``a ^ e`` with an exponent that carries no gradient: ``e a^(e-1)``, which
# keeps the slope of ``a ^ 0`` at zero wherever ``a`` is
_CONSTANT_EXPONENT = (
    lambda a, e, out: e * np.power(a, np.where(e == 0, 1.0, e) - 1.0), None)


def _power_rules(sloped):
    """The slopes of ``a ^ b`` where only the points ``sloped`` have an
    exponent with a gradient: the dual-exponent rules there, the
    constant-exponent rule and no log term elsewhere."""
    (da, db), (dc, _) = _RULES[np.power], _CONSTANT_EXPONENT
    return (lambda a, b, out: np.where(sloped, da(a, b, out), dc(a, b, out)),
            lambda a, b, out: np.where(sloped, db(a, b, out), 0.0))


# ``^`` is ``np.power`` itself, not ``**``, which would take numpy's
# ``square`` fast path for ``x ^ 2`` and change the last bits of values
_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
           "^": np.power, "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
           "sin": np.sin, "cos": np.cos, "tanh": np.tanh, "atanh": np.arctanh}


def hypdist(p1, p2, p3, anchor):
    """Hyperbolic distance from ``(p1, p2, p3)`` to the point ``anchor``.

    On the coordinate duals (the only duals the walk passes it) the value
    comes from the same ufuncs on the plain values, and the gradient from
    the closed form
    ``arccosh'(max(c, 1)) [c >= 1] (d1, d2, d3 - (c - 1) a3) / (p3 a3)``
    with ``c = 1 + |d|^2 / (2 p3 a3)``, ``d = p - anchor``.
    """
    dual = isinstance(p1, Dual)
    v1, v2, v3 = (p1.v, p2.v, p3.v) if dual else (p1, p2, p3)
    a1, a2, a3 = anchor
    d1, d2, d3 = v1 - a1, v2 - a2, v3 - a3
    t = (d1 * d1 + d2 * d2 + d3 * d3) / (2.0 * v3 * a3)
    c = 1.0 + t
    m = np.maximum(c, 1.0)
    out = np.arccosh(m)
    if not dual:
        return out
    # ``c - 1`` is taken as the quotient ``t``, which keeps its digits where
    # ``c`` rounds towards 1 near the anchor
    s = _arccosh_slope(m) * (c >= 1.0) / (v3 * a3)
    # the arguments are the coordinate duals, whose gradients are the unit
    # vectors, so the chain rule's sum of their products is the stack of
    # the partials themselves (x + 0 y is x)
    return Dual(out, np.stack([s * d1, s * d2, s * (d3 - t * a3)]))


def _eval(node, p):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return p[_VARIABLES.index(node.name)]
    if isinstance(node, Neg):
        return np.negative(_eval(node.arg, p))
    if isinstance(node, Bin):
        return _UFUNCS[node.op](_eval(node.left, p), _eval(node.right, p))
    if isinstance(node, Call):
        if node.name == "hypdist":
            return hypdist(*p, tuple(a.value for a in node.args))
        return _UFUNCS[node.name](_eval(node.args[0], p))
    raise TypeError(f"unknown node {node!r}")


def _values(tree, p, shape):
    """Values of the expression at the points whose coordinates are the
    three arrays ``p``, which broadcast to ``shape``."""
    out = _eval(tree, p)
    return out if np.shape(out) == shape else np.full(shape, out)


def _pairs(tree, p, shape):
    """:func:`_values`'s values and the ``shape + (3,)`` gradients at the
    points whose coordinates are the three arrays ``p`` of ``shape``."""
    duals = []
    for i in range(3):
        g = np.zeros((3,) + shape)
        g[i] = 1.0
        duals.append(Dual(p[i], g))
    out = _eval(tree, duals)
    if not isinstance(out, Dual):
        return _values(tree, p, shape), np.zeros(shape + (3,))
    return out.v, np.moveaxis(out.g, 0, -1)


def evaluate(tree, pts):
    """Values of the expression at points ``(..., 3)``."""
    pts = np.asarray(pts, dtype=float)
    return _values(tree, np.moveaxis(pts, -1, 0), pts.shape[:-1])


def evaluate_gradient(tree, pts):
    """Values (:func:`evaluate`'s, bit for bit) and Euclidean gradients
    ``(..., 3)`` of the expression at points ``(..., 3)``, as a pair; an
    expression without variables has the zero gradient."""
    pts = np.asarray(pts, dtype=float)
    return _pairs(tree, np.moveaxis(pts, -1, 0), pts.shape[:-1])


# ---------------------------------------------------------------------------
# compiled functions


@dataclass
class PrescribedFunction:
    """A scalar function on the half-space with its Euclidean gradient.

    ``evaluate`` maps ``(..., 3)`` points to values, ``gradient`` to the
    pair of the values and the ``(..., 3)`` Euclidean gradients;
    ``descriptor`` documents the source.  ``fold_verticals(x, y, base,
    span, fractions, fold)`` samples the function on vertical segments, at
    the heights ``t[i, j] = base + span[i] fractions[j]`` above each point
    ``(x[i], y[i])``, and returns one number per segment, ``fold(t,
    values)`` on the segments' rows of ``t`` and of the values; a function
    built without it samples the stacked points through ``evaluate``.
    """

    evaluate: object
    gradient: object
    descriptor: str = ""
    fold_verticals: object = None

    def __post_init__(self):
        if self.fold_verticals is None:
            self.fold_verticals = self._fold_at_points

    def _fold_at_points(self, x, y, base, span, fractions, fold):
        t = base + span[:, None] * fractions
        pts = np.stack(np.broadcast_arrays(x[:, None], y[:, None], t), axis=-1)
        return fold(t, self.evaluate(pts))


def _checked(walk, tree, name):
    """The one sampler of a compiled function: ``walk(tree, p, shape)``
    with numpy's floating-point warnings off, over the points of ``shape``
    in blocks along its first axis of at most :data:`SAMPLE_BLOCK` points
    (at least one row), so the walk's temporaries stay small whatever the
    sample size.  ``rows(s)`` gives the three coordinate arrays of the rows
    ``s``, which need only broadcast to the block's shape: a vertical
    segment's ``x`` and ``y`` are one value each, so the walk takes their
    terms once per segment rather than once per height.  The returned
    generator yields each block's ``(s, p, outputs)``, the outputs a tuple
    (values, or values and gradients); it raises :class:`NumericsError`
    naming ``name`` and the first point where an output (either array of a
    pair) is not finite."""
    def blocks(shape, rows):
        n, per = shape[0], math.prod(shape[1:])
        step = max(SAMPLE_BLOCK // max(per, 1), 1)
        # one block, possibly empty, even for an empty sample
        for start in range(0, max(n, 1), step):
            s = slice(start, min(start + step, n))
            p, size = rows(s), (s.stop - s.start,) + shape[1:]
            with np.errstate(all="ignore"):
                got = walk(tree, p, size)
            got = got if isinstance(got, tuple) else (got,)
            if not all(np.isfinite(o).all() for o in got):
                ok = np.logical_and.reduce([
                    np.isfinite(o).reshape(math.prod(size), -1).all(axis=-1)
                    for o in got])
                pts = np.stack(np.broadcast_arrays(*p), axis=-1)
                raise NumericsError(f"{name} is not finite at "
                                    f"{pts.reshape(-1, 3)[~ok][0].tolist()}")
            yield s, p, got
    return blocks


def _at_points(blocks):
    """The points form of a sampler: its outputs at points ``(..., 3)``,
    one array or the pair."""
    def sample(p):
        pts = np.asarray(p, dtype=float)
        flat = pts.reshape(-1, 3)
        outs = None
        for s, _, got in blocks(flat.shape[:1], lambda s: flat[s].T):
            # the outputs keep the whole walk's memory layout (a sample of
            # one block keeps the walk's own arrays), on which later sums
            # and products depend for their last bits
            if s.stop - s.start == len(flat):
                outs = got
                break
            if outs is None:
                outs = [np.empty_like(o, shape=flat.shape[:1] + o.shape[1:])
                        for o in got]
            for out, o in zip(outs, got):
                out[s] = o
        outs = [out.reshape(pts.shape[:-1] + out.shape[1:]) for out in outs]
        return tuple(outs) if len(outs) > 1 else outs[0]
    return sample


def _on_verticals(blocks):
    """The vertical-segment form of a values sampler, as
    :class:`PrescribedFunction`'s ``fold_verticals``: each block of
    segments is walked and folded before the next, so neither the heights
    nor the values of all segments are ever held at once."""
    def fold_verticals(x, y, base, span, fractions, fold):
        x, y, span = (np.asarray(a, dtype=float) for a in (x, y, span))
        out = np.empty(len(span))
        rows = lambda s: (x[s, None], y[s, None],
                          base + span[s, None] * fractions)
        for s, p, (values,) in blocks((len(span), len(fractions)), rows):
            out[s] = fold(p[2], values)
        return out
    return fold_verticals


def phi_to_prescribed(text, probe_box=None):
    """Compile an expression into a prescribed function with its gradient.

    Every sample of the result is checked for finiteness.  The same checks
    probe a small lattice (inside ``probe_box`` when given) and refuse, as
    ``ValueError``, expressions that are not finite there.
    """
    tree = parse_phi(text)
    descriptor = to_text(tree)
    values = _checked(_values, tree, f"phi = {descriptor}")
    phi = PrescribedFunction(
        evaluate=_at_points(values),
        gradient=_at_points(_checked(
            _pairs, tree, f"the value or gradient of phi = {descriptor}")),
        descriptor=descriptor, fold_verticals=_on_verticals(values))
    if probe_box is None:
        probe_box = (-1.0, 1.0, -1.0, 1.0, 0.5, 2.0)
    probes = box_lattice(probe_box, 3)
    try:
        phi.evaluate(probes)
        phi.gradient(probes)
    except NumericsError as exc:
        raise ValueError(str(exc)) from None
    return phi
