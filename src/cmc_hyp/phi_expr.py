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
:func:`evaluate` and :func:`evaluate_gradient` check nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .halfspace import box_lattice

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
        # a negated base of ``^`` needs parentheses: ``-a ^ b`` is ``-(a ^ b)``
        text = f"-{to_text(node.arg, 4)}"
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
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

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

    def parse(self):
        node = self.expr()
        if self.peek() != ("end", None):
            raise PhiSyntaxError("trailing input", self.where())
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            node = Bin(op, node, self.factor())
        return node

    def factor(self):
        if self.peek() == "-":
            self.take()
            return Neg(self.factor())
        if self.peek() == "+":
            self.take()
            return self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            return Bin("^", base, self.factor())
        return base

    def atom(self):
        tok = self.peek()
        at = self.where()
        if tok == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if isinstance(tok, tuple) and tok[0] == "num":
            self.take()
            return Num(float(tok[1]))
        if isinstance(tok, tuple) and tok[0] == "name":
            self.take()
            name = tok[1]
            if self.peek() == "(":
                if name not in _FUNCTIONS:
                    raise PhiSyntaxError(f"unknown function {name!r}", at)
                self.take()
                args = [self.expr()]
                while self.peek() == ",":
                    self.take()
                    args.append(self.expr())
                self.take(")")
                return self._call(name, tuple(args), at)
            if name in _VARIABLES:
                return Var(name)
            if name in _CONSTANTS:
                return Num(_CONSTANTS[name])
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
        rules = _RULES[ufunc]
        if ufunc is np.power and not (isinstance(inputs[1], Dual)
                                      and inputs[1].g.any()):
            rules = _CONSTANT_EXPONENT
        g = None
        for x, rule in zip(inputs, rules):
            if isinstance(x, Dual) and rule is not None:
                term = x.g * rule(*vals, out)
                if g is None:
                    g = term
                else:
                    g += term
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

# ``^`` is ``np.power`` itself, not ``**``, which would take numpy's
# ``square`` fast path for ``x ^ 2`` and change the last bits of values
_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
           "^": np.power, "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
           "sin": np.sin, "cos": np.cos, "tanh": np.tanh, "atanh": np.arctanh}


def hypdist(p1, p2, p3, anchor):
    """Hyperbolic distance from ``(p1, p2, p3)`` to the point ``anchor``.

    On :class:`Dual` coordinates the value comes from the same ufuncs on the
    plain values, and the gradient from the closed form
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
    return Dual(out, p1.g * (s * d1) + p2.g * (s * d2)
                + p3.g * (s * (d3 - t * a3)))


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


def evaluate(tree, pts):
    """Values of the expression at points ``(..., 3)``."""
    pts = np.asarray(pts, dtype=float)
    out = _eval(tree, np.moveaxis(pts, -1, 0))
    return np.full(pts.shape[:-1], out) if np.ndim(out) == 0 else out


def evaluate_gradient(tree, pts):
    """Euclidean gradients of the expression at points ``(..., 3)``."""
    pts = np.asarray(pts, dtype=float)
    duals = []
    for i in range(3):
        g = np.zeros((3,) + pts.shape[:-1])
        g[i] = 1.0
        duals.append(Dual(pts[..., i], g))
    value = _eval(tree, duals)
    if not isinstance(value, Dual):
        return np.zeros_like(pts)
    return np.moveaxis(value.g, 0, -1)


# ---------------------------------------------------------------------------
# compiled functions


@dataclass
class PrescribedFunction:
    """A scalar function on the half-space with its Euclidean gradient.

    ``evaluate`` maps ``(..., 3)`` points to values, ``gradient`` to
    ``(..., 3)`` Euclidean gradients; ``descriptor`` documents the source.
    """

    evaluate: object
    gradient: object
    descriptor: str = ""


def _checked(walk, tree, name):
    """``walk(tree, p)`` with numpy's floating-point warnings off; raises
    :class:`NumericsError` naming ``name`` and the first point where an
    output is not finite."""
    def sample(p):
        with np.errstate(all="ignore"):
            out = walk(tree, p)
        if not np.isfinite(out).all():
            pts = np.asarray(p, dtype=float)
            ok = np.isfinite(out).reshape(pts.shape[:-1] + (-1,)).all(axis=-1)
            raise NumericsError(
                f"{name} is not finite at {pts[~ok][0].tolist()}")
        return out
    return sample


def phi_to_prescribed(text, probe_box=None):
    """Compile an expression into a prescribed function with its gradient.

    Every sample of the result is checked for finiteness.  The same checks
    probe a small lattice (inside ``probe_box`` when given) and refuse, as
    ``ValueError``, expressions that are not finite there.
    """
    tree = parse_phi(text)
    descriptor = to_text(tree)
    phi = PrescribedFunction(
        evaluate=_checked(evaluate, tree, f"phi = {descriptor}"),
        gradient=_checked(evaluate_gradient, tree,
                          f"the gradient of phi = {descriptor}"),
        descriptor=descriptor)
    if probe_box is None:
        probe_box = (-1.0, 1.0, -1.0, 1.0, 0.5, 2.0)
    probes = box_lattice(probe_box, 3)
    try:
        phi.evaluate(probes)
        phi.gradient(probes)
    except NumericsError as exc:
        raise ValueError(str(exc)) from None
    return phi
