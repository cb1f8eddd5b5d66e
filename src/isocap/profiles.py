"""Radial profile expressions: parsing, printing, and exact derivatives.

Profiles are written in a small arithmetic language over the radial variable
``r`` plus named parameters, e.g. ``"1 - 2*m/r"`` or
``"r + 1.5*exp(-4*(r-3)^2)"``.  ``compile`` turns an expression and its
parameters into a tree of closures once; ``ExprProfile`` does so when it is
built.  Evaluation returns the value with the first and second derivative in
``r``, by the arithmetic of second-order dual numbers (exact to rounding, not
finite differences).  ``eval_d2`` compiles and evaluates in one call.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from .errors import EvalError, IsocapError, ProfileSyntaxError, UnknownIdentifier

__all__ = ["ProfileExpr", "parse", "eval_d2", "to_text", "NonSmoothTie"]

ParamSet = Dict[str, float]


class NonSmoothTie(UserWarning):
    """Emitted when min/max is differentiated at a tie of its arguments."""


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Name:
    ident: str  # "r", "pi", or a parameter name


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    args: Tuple["Node", ...]


Node = Union[Num, Name, Neg, Bin, Call]

_FUNCTIONS = {"sqrt": 1, "exp": 1, "log": 1, "sin": 1, "cos": 1,
              "tanh": 1, "pow": 2, "min": 2, "max": 2}


@dataclass(frozen=True)
class ProfileExpr:
    """A parsed, immutable profile expression."""

    ast: Node
    text: str

    def names(self):
        """All parameter names referenced (excludes ``r`` and ``pi``)."""
        def walk(n):
            if isinstance(n, (Num, Name)):
                return {n.ident} - {"r", "pi"} if isinstance(n, Name) else set()
            return set().union(*map(walk, _operands(n)[1]))
        return walk(self.ast)


def _operands(n: Node) -> Tuple[str, Tuple[Node, ...]]:
    if isinstance(n, Neg):
        return "neg", (n.operand,)
    if isinstance(n, Bin):
        return n.op, (n.left, n.right)
    return n.func, n.args


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ProfileSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group()), pos))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group(), pos))
        elif m.lastgroup == "op":
            tokens.append((m.group(), m.group(), pos))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ProfileSyntaxError(f"unexpected token {tok[1]!r}", tok[2], {kind})
        self.i += 1
        return tok

    # expr := term (('+'|'-') term)*
    def expr(self) -> Node:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            node = Bin(op, node, self.term())
        return node

    # term := unary (('*'|'/') unary)*
    def term(self) -> Node:
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            node = Bin(op, node, self.unary())
        return node

    # unary := '-' unary | power      (so -r^2 parses as -(r^2))
    def unary(self) -> Node:
        if self.peek()[0] == "-":
            self.take()
            return Neg(self.unary())
        return self.power()

    # power := atom ('^' unary)?      (right-associative)
    def power(self) -> Node:
        node = self.atom()
        if self.peek()[0] == "^":
            self.take()
            node = Bin("^", node, self.unary())
        return node

    def atom(self) -> Node:
        kind, value, offset = self.peek()
        if kind == "num":
            self.take()
            return Num(value)
        if kind == "ident":
            self.take()
            if self.peek()[0] == "(":
                if value not in _FUNCTIONS:
                    raise UnknownIdentifier(
                        f"unknown function {value!r} at offset {offset}")
                self.take("(")
                args = [self.expr()]
                while self.peek()[0] == ",":
                    self.take()
                    args.append(self.expr())
                self.take(")")
                if len(args) != _FUNCTIONS[value]:
                    raise ProfileSyntaxError(
                        f"{value} takes {_FUNCTIONS[value]} argument(s), "
                        f"got {len(args)}", offset)
                return Call(value, tuple(args))
            return Name(value)
        if kind == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        raise ProfileSyntaxError(f"unexpected token {value!r}", offset,
                                 {"num", "ident", "(", "-"})


def parse(text: str) -> ProfileExpr:
    """Parse expression text; raises ProfileSyntaxError / UnknownIdentifier."""
    if not text or not text.strip():
        raise ProfileSyntaxError("empty expression", 0)
    p = _Parser(text)
    node = p.expr()
    p.take("end")
    return ProfileExpr(node, text)


def to_text(expr: ProfileExpr) -> str:
    """Canonical fully parenthesized rendering; parse(to_text(e)) == e."""

    def render(n: Node) -> str:
        if isinstance(n, Num):
            return repr(n.value)
        if isinstance(n, Name):
            return n.ident
        if isinstance(n, Neg):
            return f"(-{render(n.operand)})"
        if isinstance(n, Bin):
            return f"({render(n.left)}{n.op}{render(n.right)})"
        return f"{n.func}({','.join(render(a) for a in n.args)})"

    return render(expr.ast)


# ---------------------------------------------------------------------------
# Compilation: one closure per node, from r to (value, d/dr, d^2/dr^2), doing
# the float operations of second-order dual numbers.

Triple = Tuple[float, float, float]


def _chain(f: float, df: float, d2f: float, d1: float, d2: float) -> Triple:
    """Compose with a scalar map given (f, f', f'') at the operand's value."""
    return f, df * d1, d2f * d1 * d1 + df * d2


def _log(v: float, d1: float, d2: float) -> Triple:
    if v <= 0.0:
        raise EvalError(f"log of non-positive value {v}")
    return _chain(math.log(v), 1.0 / v, -1.0 / (v * v), d1, d2)


def _sqrt(v: float, d1: float, d2: float) -> Triple:
    if v == 0.0 and d1 == 0.0 and d2 == 0.0:
        return 0.0, 0.0, 0.0
    if v <= 0.0:
        raise EvalError(f"sqrt of negative value {v}" if v < 0.0
                        else "sqrt not differentiable at 0")
    s = math.sqrt(v)
    return _chain(s, 0.5 / s, -0.25 / (s * v), d1, d2)


def _pow(x, xd1, xd2, c, cd1, cd2) -> Triple:
    if cd1 == 0.0 and cd2 == 0.0:
        if x == 0.0 and c < 2.0:
            if c < 0.0:
                raise EvalError("zero raised to a negative power")
            # derivatives of x^c blow up at 0 for c < 2; value is still fine
            if c in (0.0, 1.0):
                return _chain(x ** c, c * (x ** (c - 1.0) if c else 0.0), 0.0,
                              xd1, xd2)
            raise EvalError(f"non-smooth power 0^{c}")
        if x < 0.0 and c != round(c):
            raise EvalError(f"negative base {x} with non-integer exponent {c}")
        return _chain(x ** c, c * x ** (c - 1.0) if c != 0.0 else 0.0,
                      c * (c - 1.0) * x ** (c - 2.0) if c not in (0.0, 1.0) else 0.0,
                      xd1, xd2)
    if x <= 0.0:
        raise EvalError("variable exponent requires a positive base")
    # x^c = exp(c*log x), the product as in _closure
    lv, ld1, ld2 = _log(x, xd1, xd2)
    return _KERNELS["exp"](c * lv, cd1 * lv + c * ld1,
                           cd2 * lv + 2.0 * cd1 * ld1 + c * ld2)


_KERNELS = {  # maps of operand triples, for the less frequent nodes
    "neg": lambda v, d1, d2: (-v, -d1, -d2),
    "exp": lambda v, d1, d2: _chain(*[math.exp(v)] * 3, d1, d2),  # (e^v)' = e^v
    "log": _log, "sqrt": _sqrt, "pow": _pow, "^": _pow,
    "sin": lambda v, d1, d2: _chain(math.sin(v), math.cos(v), -math.sin(v), d1, d2),
    "cos": lambda v, d1, d2: _chain(math.cos(v), -math.sin(v), -math.cos(v), d1, d2),
    "tanh": lambda v, d1, d2: _chain(math.tanh(v), 1.0 - math.tanh(v) ** 2,
                                     -2.0 * math.tanh(v) * (1.0 - math.tanh(v) ** 2),
                                     d1, d2),
}


def _closure(op: str, a, b=None):
    kernel = _KERNELS.get(op)
    if b is None:
        return lambda r: kernel(*a(r))
    if op == "+":
        def f(r):
            (av, ad1, ad2), (bv, bd1, bd2) = a(r), b(r)
            return av + bv, ad1 + bd1, ad2 + bd2
    elif op == "-":
        def f(r):
            (av, ad1, ad2), (bv, bd1, bd2) = a(r), b(r)
            return av - bv, ad1 - bd1, ad2 - bd2
    elif op == "*":
        def f(r):
            (av, ad1, ad2), (bv, bd1, bd2) = a(r), b(r)
            return av * bv, ad1 * bv + av * bd1, ad2 * bv + 2.0 * ad1 * bd1 + av * bd2
    elif op == "/":
        def f(r):
            (av, ad1, ad2), (bv, bd1, bd2) = a(r), b(r)
            if bv == 0.0:
                raise EvalError("division by zero")
            w = av / bv
            wd1 = (ad1 - w * bd1) / bv
            return w, wd1, (ad2 - 2.0 * wd1 * bd1 - w * bd2) / bv
    elif op in ("min", "max"):
        def f(r):
            x, y = a(r), b(r)
            if x[0] == y[0]:
                warnings.warn(f"{op} differentiated one-sidedly at a tie",
                              NonSmoothTie, stacklevel=4)
                return x
            return x if (x[0] < y[0]) == (op == "min") else y
    else:
        return lambda r: kernel(*a(r), *b(r))
    return f


def _compile(n: Node, params: ParamSet):
    """n's closure, and whether n is free of r and min/max; such n is folded
    unless evaluating it raises (1/0), which is then left to each evaluation."""
    if n == Name("r"):
        return (lambda r: (r, 1.0, 0.0)), False
    if isinstance(n, (Num, Name)):
        def f(r):
            if isinstance(n, Num) or n.ident == "pi":
                return (n.value if isinstance(n, Num) else math.pi), 0.0, 0.0
            if n.ident not in params:
                raise UnknownIdentifier(f"unbound parameter {n.ident!r}")
            return float(params[n.ident]), 0.0, 0.0
        const = True
    else:
        op, operands = _operands(n)
        fs, consts = zip(*(_compile(x, params) for x in operands))
        f, const = _closure(op, *fs), all(consts) and op not in ("min", "max")
    if const:
        try:
            t = f(0.0)
        except Exception:  # leave the raise to each evaluation
            return f, const
        f = lambda r: t  # noqa: E731
    return f, const


def compile(expr: ProfileExpr, params: ParamSet | None = None
            ) -> Callable[[float], Triple]:
    """Compile expr with params bound into a function of r returning
    (value, d/dr, d^2/dr^2); it raises EvalError on a non-finite result
    and on a math error (overflow, domain, zero division) of its floats."""
    root = _compile(expr.ast, params or {})[0]
    def evaluate(r: float) -> Triple:
        try:
            v, d1, d2 = out = root(float(r))
        except (OverflowError, ValueError, ZeroDivisionError) as exc:
            raise EvalError(f"{exc} at r={r}") from None
        if math.isfinite(v) and math.isfinite(d1) and math.isfinite(d2):
            return out
        raise EvalError(f"non-finite evaluation at r={r}")
    return evaluate


def eval_d2(expr: ProfileExpr, r: float, params: ParamSet | None = None) -> Triple:
    """Evaluate expr at radius r: returns (value, d/dr, d^2/dr^2)."""
    return compile(expr, params)(r)


# ---------------------------------------------------------------------------
# Array compilation: the same tree over a 1-D array of radii, bit-identical
# to the closures at every element.  + - * / and negation are numpy
# expressions doing the closures' float operations in the closures' order,
# which IEEE arithmetic rounds alike; ^, pow and the functions apply Python
# ** and math per element, since numpy's vectorized exp, tanh and powers may
# round differently (sqrt is correctly rounded in both).  A subtree free of
# r is its scalar closure, evaluated once.  Where the scalar path raises at
# some element, or takes a branch left to it, the array path gives up.

class _Defer(Exception):
    """Some element must be evaluated by the scalar closure."""


def _each(fn: Callable[[float], float], v) -> np.ndarray:
    # v is a scalar only for the constant base of a variable exponent
    return np.array([fn(x) for x in np.atleast_1d(v).tolist()], dtype=float)


def _powers(v: np.ndarray, c: float) -> np.ndarray:
    if c == 1.0:  # x ** 1.0 is x, and x ** 0.0 is 1.0, for every float x
        return v
    if c == 0.0:
        return np.ones_like(v)
    return np.array([x ** c for x in v.tolist()], dtype=float)


def _log_a(v, d1, d2):
    # the scalar kernel raises at v <= 0, and where v*v underflows to 0
    if np.any(v <= 0.0) or np.any(v * v == 0.0):
        raise _Defer
    return _chain(_each(math.log, v), 1.0 / v, -1.0 / (v * v), d1, d2)


def _sqrt_a(v, d1, d2):
    zero = (v == 0.0) & (d1 == 0.0) & (d2 == 0.0)
    s = np.sqrt(v)
    if np.any(~zero & ((v <= 0.0) | (s * v == 0.0))):
        raise _Defer
    return tuple(np.where(zero, 0.0, x)
                 for x in _chain(s, 0.5 / s, -0.25 / (s * v), d1, d2))


def _exp_a(v, d1, d2):
    e = _each(math.exp, v)
    return _chain(e, e, e, d1, d2)


def _sin_a(v, d1, d2):
    s, c = _each(math.sin, v), _each(math.cos, v)
    return _chain(s, c, -s, d1, d2)


def _cos_a(v, d1, d2):
    s, c = _each(math.sin, v), _each(math.cos, v)
    return _chain(c, -s, -c, d1, d2)


def _tanh_a(v, d1, d2):
    t = _each(math.tanh, v)
    sech2 = 1.0 - _powers(t, 2)
    return _chain(t, sech2, -2.0 * t * sech2, d1, d2)


def _pow_a(x, xd1, xd2, c, cd1, cd2):
    if np.ndim(c) == 0 and cd1 == 0.0 and cd2 == 0.0:  # a constant exponent
        # ** raises at a zero base the scalar kernel rejects, but would give
        # a complex power of a negative base
        if np.any(x < 0.0) and c != round(c):
            raise _Defer
        # for c = 0 the scalar kernel's zero-base branch gives c * 0.0,
        # which is -0.0 at c = -0.0
        return _chain(_powers(x, c),
                      c * _powers(x, c - 1.0) if c != 0.0
                      else np.where(x == 0.0, c * 0.0, 0.0),
                      c * (c - 1.0) * _powers(x, c - 2.0)
                      if c not in (0.0, 1.0) else 0.0, xd1, xd2)
    # elements with a stationary exponent take the scalar constant branch
    if np.any((cd1 == 0.0) & (cd2 == 0.0)):
        raise _Defer
    lv, ld1, ld2 = _log_a(x, xd1, xd2)
    return _exp_a(c * lv, cd1 * lv + c * ld1,
                  cd2 * lv + 2.0 * cd1 * ld1 + c * ld2)


def _div_a(av, ad1, ad2, bv, bd1, bd2):
    if np.any(bv == 0.0):
        raise _Defer
    w = av / bv
    wd1 = (ad1 - w * bd1) / bv
    return w, wd1, (ad2 - 2.0 * wd1 * bd1 - w * bd2) / bv


_ARRAY_KERNELS = {
    "neg": _KERNELS["neg"],
    "+": lambda av, ad1, ad2, bv, bd1, bd2: (av + bv, ad1 + bd1, ad2 + bd2),
    "-": lambda av, ad1, ad2, bv, bd1, bd2: (av - bv, ad1 - bd1, ad2 - bd2),
    "*": lambda av, ad1, ad2, bv, bd1, bd2: (
        av * bv, ad1 * bv + av * bd1, ad2 * bv + 2.0 * ad1 * bd1 + av * bd2),
    "/": _div_a, "^": _pow_a, "pow": _pow_a,
    "log": _log_a, "sqrt": _sqrt_a, "exp": _exp_a, "tanh": _tanh_a,
    "sin": _sin_a, "cos": _cos_a,
}


def _uses_r(n: Node) -> bool:
    if isinstance(n, (Num, Name)):
        return n == Name("r")
    return any(map(_uses_r, _operands(n)[1]))


def _compile_array(n: Node, params: ParamSet):
    if not _uses_r(n):
        f = _compile(n, params)[0]
        return lambda rs: f(0.0)
    if isinstance(n, Name):
        return lambda rs: (rs, 1.0, 0.0)
    op, operands = _operands(n)
    fs = [_compile_array(x, params) for x in operands]
    if op in ("min", "max"):
        a, b = fs

        def pick(rs):
            x, y = a(rs), b(rs)
            tie = x[0] == y[0]
            if np.any(tie):
                warnings.warn(f"{op} differentiated one-sidedly at a tie",
                              NonSmoothTie, stacklevel=5)
            take_x = tie | ((x[0] < y[0]) == (op == "min"))
            return tuple(np.where(take_x, u, w) for u, w in zip(x, y))
        return pick
    kernel = _ARRAY_KERNELS[op]
    if len(fs) == 1:
        return lambda rs: kernel(*fs[0](rs))
    a, b = fs
    return lambda rs: kernel(*a(rs), *b(rs))


ArrayTriple = Tuple[np.ndarray, np.ndarray, np.ndarray]


def compile_array(expr: ProfileExpr, params: ParamSet | None = None
                  ) -> Callable[..., Optional[ArrayTriple]]:
    """Compile expr with params bound into a function from a 1-D array of
    radii to the arrays (value, d/dr, d^2/dr^2) there, each element
    bit-identical to ``compile``'s; with ``parts=1`` it returns the values
    alone, as a one-element tuple.  It returns None when the scalar
    closure must decide: some element raises there, or takes a branch the
    array path leaves to it."""
    root = _compile_array(expr.ast, params or {})

    def evaluate(rs: np.ndarray, parts: int = 3) -> Optional[ArrayTriple]:
        rs = np.asarray(rs, dtype=float)
        try:
            with np.errstate(all="ignore"):
                out = root(rs)
                # non-finite iff some term is, or the sum overflows (deferred)
                finite = np.isfinite(out[0] + out[1] + out[2]).all()
        except (_Defer, IsocapError, ArithmeticError, ValueError):
            return None
        if not finite:
            return None
        # a term free of r is a float, and the value of ``r`` is rs itself
        return tuple(x if isinstance(x, np.ndarray) and x is not rs
                     and x.shape == rs.shape
                     else np.array(np.broadcast_to(x, rs.shape))
                     for x in out[:parts])
    return evaluate
