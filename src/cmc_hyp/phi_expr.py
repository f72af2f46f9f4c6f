"""Small expression language for prescribed functions on the half-space.

Grammar: variables ``p1, p2, p3``, numeric literals, ``pi``, the binary
operators ``+ - * / ^`` (``^`` binds right), unary minus, and the call forms
``exp, log, sqrt, sin, cos, tanh, atanh, hypdist``.  ``hypdist(a, b, c)``
is the hyperbolic distance from the evaluation point to the fixed anchor
``(a, b, c)``; the anchor must be numeric literals so the syntax tree stays
a pure function of ``p``.

Evaluation is numpy-vectorized; gradients come from forward-mode dual
numbers pushed through the same tree, which keeps values and derivatives
consistent by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .halfspace import HyperbolicPoint
from .melnikov import PrescribedFunction

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
# dual numbers (value + 3-component gradient, numpy-vectorized)


class Dual:
    __slots__ = ("v", "g")

    def __init__(self, v, g):
        self.v = np.asarray(v, dtype=float)
        self.g = np.asarray(g, dtype=float)   # shape (3,) + v.shape

    @classmethod
    def variable(cls, v, index, shape):
        g = np.zeros((3,) + shape)
        g[index] = 1.0
        return cls(v, g)

    @classmethod
    def constant(cls, v, shape):
        return cls(np.broadcast_to(np.asarray(v, dtype=float), shape).copy(),
                   np.zeros((3,) + shape))

    def __add__(self, o):
        return Dual(self.v + o.v, self.g + o.g)

    def __sub__(self, o):
        return Dual(self.v - o.v, self.g - o.g)

    def __neg__(self):
        return Dual(-self.v, -self.g)

    def __mul__(self, o):
        return Dual(self.v * o.v, self.g * o.v + o.g * self.v)

    def __truediv__(self, o):
        inv = 1.0 / o.v
        return Dual(self.v * inv, (self.g - o.g * (self.v * inv)) * inv)

    def chain(self, value, slope):
        return Dual(value, self.g * slope)


def _dual_pow(a, b):
    if np.all(b.g == 0):
        e = b.v
        val = a.v**e
        return Dual(val, a.g * (e * a.v**(np.where(e == 0, 1.0, e) - 1.0)))
    loga = np.log(a.v)
    val = np.exp(b.v * loga)
    return Dual(val, val * (b.g * loga + b.v * a.g / a.v))


def _dual_hypdist(p1, p2, p3, anchor):
    a1, a2, a3 = anchor
    d2 = (p1 - Dual.constant(a1, p1.v.shape)) * (p1 - Dual.constant(a1, p1.v.shape)) \
        + (p2 - Dual.constant(a2, p1.v.shape)) * (p2 - Dual.constant(a2, p1.v.shape)) \
        + (p3 - Dual.constant(a3, p1.v.shape)) * (p3 - Dual.constant(a3, p1.v.shape))
    ch = Dual.constant(1.0, p1.v.shape) + d2 / (Dual.constant(2.0 * a3, p1.v.shape) * p3)
    c = np.maximum(ch.v, 1.0)
    val = np.arccosh(c)
    # the distance is not differentiable at the anchor itself; report a zero
    # slope there instead of propagating NaNs
    denom = np.sqrt(np.maximum(c * c - 1.0, 0.0))
    slope = np.where(denom > 1e-150, 1.0 / np.maximum(denom, 1e-150), 0.0)
    return ch.chain(val, slope)


def _eval(node, env):
    if isinstance(node, Num):
        return Dual.constant(node.value, env["shape"]) if env["dual"] \
            else np.broadcast_to(node.value, env["shape"])
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval(node.arg, env)
    if isinstance(node, Bin):
        a = _eval(node.left, env)
        b = _eval(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return a / b
        return _dual_pow(a, b) if env["dual"] else a**b
    if isinstance(node, Call):
        if node.name == "hypdist":
            anchor = tuple(a.value for a in node.args)
            if env["dual"]:
                return _dual_hypdist(env["p1"], env["p2"], env["p3"], anchor)
            p = np.stack([env["p1"], env["p2"],
                          np.broadcast_to(env["p3"], env["shape"])], axis=-1)
            d2 = np.sum((p - np.array(anchor)) ** 2, axis=-1)
            c = 1.0 + d2 / (2.0 * p[..., 2] * anchor[2])
            return np.arccosh(np.maximum(c, 1.0))
        a = _eval(node.args[0], env)
        if env["dual"]:
            v = a.v
            if node.name == "exp":
                e = np.exp(v)
                return a.chain(e, e)
            if node.name == "log":
                return a.chain(np.log(v), 1.0 / v)
            if node.name == "sqrt":
                rt = np.sqrt(v)
                return a.chain(rt, 0.5 / rt)
            if node.name == "sin":
                return a.chain(np.sin(v), np.cos(v))
            if node.name == "cos":
                return a.chain(np.cos(v), -np.sin(v))
            if node.name == "tanh":
                t = np.tanh(v)
                return a.chain(t, 1.0 - t * t)
            return a.chain(np.arctanh(v), 1.0 / (1.0 - v * v))
        table = {"exp": np.exp, "log": np.log, "sqrt": np.sqrt, "sin": np.sin,
                 "cos": np.cos, "tanh": np.tanh, "atanh": np.arctanh}
        return table[node.name](a)
    raise TypeError(f"unknown node {node!r}")


def evaluate(tree, pts):
    """Values of the expression at points ``(..., 3)``."""
    pts = np.asarray(pts, dtype=float)
    shape = pts.shape[:-1]
    env = {"dual": False, "shape": shape, "p1": pts[..., 0],
           "p2": pts[..., 1], "p3": pts[..., 2]}
    return np.asarray(_eval(tree, env), dtype=float)


def evaluate_gradient(tree, pts):
    """Euclidean gradients of the expression at points ``(..., 3)``."""
    pts = np.asarray(pts, dtype=float)
    shape = pts.shape[:-1]
    env = {"dual": True, "shape": shape}
    for i, name in enumerate(_VARIABLES):
        env[name] = Dual.variable(pts[..., i], i, shape)
    out = _eval(tree, env)
    return np.moveaxis(out.g, 0, -1)


def phi_to_prescribed(text, probe_box=None):
    """Compile an expression into a prescribed function with its gradient.

    Probes a small lattice (inside ``probe_box`` when given) and refuses
    expressions that evaluate to non-finite values there.
    """
    tree = parse_phi(text)
    if probe_box is None:
        probe_box = (-1.0, 1.0, -1.0, 1.0, 0.5, 2.0)
    axes = [np.linspace(probe_box[2 * i], probe_box[2 * i + 1], 3)
            for i in range(3)]
    probes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    with np.errstate(all="ignore"):
        vals = evaluate(tree, probes)
        grads = evaluate_gradient(tree, probes)
    finite = np.isfinite(vals) & np.all(np.isfinite(grads), axis=-1)
    if not np.all(finite):
        bad = probes[~finite][0]
        raise ValueError(
            f"expression is not finite near {bad.tolist()}")
    const = None
    if isinstance(tree, Num):
        const = tree.value
    elif isinstance(tree, Neg) and isinstance(tree.arg, Num):
        const = -tree.arg.value
    return PrescribedFunction(
        evaluate=lambda p: evaluate(tree, p),
        gradient=lambda p: evaluate_gradient(tree, p),
        descriptor=to_text(tree), constant_value=const)
