"""Radial profile expressions: parsing, printing, and exact derivatives.

Profiles are written in a small arithmetic language over the radial variable
``r`` plus named parameters, e.g. ``"1 - 2*m/r"`` or
``"r + 1.5*exp(-4*(r-3)^2)"``.  Evaluation returns the value with the first
and second derivative in ``r``, by the arithmetic of second-order dual
numbers (exact to rounding, not finite differences).  A parsed tree emits
Python source once, compiled and cached per tree; ``compile`` binds
parameters to that code, ``ExprProfile`` does so when it is built, and
``eval_d2`` compiles and evaluates in one call, reusing the tree's code.
"""

from __future__ import annotations

import builtins
import functools
import itertools
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

    def names(self) -> frozenset:
        """All parameter names referenced (excludes ``r`` and ``pi``), kept
        with the tree's compiled code."""
        return self._bind.names

    @functools.cached_property
    def _bind(self):
        """bind(params) of this tree's compiled code (see _code)."""
        return _code(repr(self.ast), self.ast)


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


@functools.lru_cache(maxsize=128)
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
    return _render(expr.ast)


def _render(n: Node) -> str:
    if isinstance(n, Num):  # 1e999 parses back to inf, "inf" to a name
        return "1e999" if n.value == math.inf else repr(n.value)
    if isinstance(n, Name):
        return n.ident
    if isinstance(n, Neg):
        return f"(-{_render(n.operand)})"
    if isinstance(n, Bin):
        return f"({_render(n.left)}{n.op}{_render(n.right)})"
    return f"{n.func}({','.join(_render(a) for a in n.args)})"


# ---------------------------------------------------------------------------
# Emission: one walk of a tree writes the source of two evaluators from r to
# (value, d/dr, d^2/dr^2) by the float operations of second-order dual
# numbers, operands before their node, left before right: a scalar one on
# floats, with every raise point and branch, and an array one, the same lines
# on a 1-D numpy array of radii and bit-identical at each element.  IEEE
# arithmetic rounds numpy's + - * / as it rounds floats; math and ** apply per
# element, since numpy's exp, tanh and powers may round differently (sqrt is
# correctly rounded in both).  Where the scalar code raises or branches at
# some element, the array code raises _Defer and the caller runs the scalar
# code per radius; min and max select per element.  ``bind(P)`` folds each
# subtree free of r and of min/max with the parameters P, and returns the
# scalar evaluator, carrying the array one as ``.array``.  A fold that raises
# (1/(m-1) at m = 1, an unbound parameter) is left to every evaluation.

Triple = Tuple[float, float, float]
_CACHE_SIZE = 128  # trees whose compiled code is kept


class _Defer(Exception):
    """Some element must be evaluated by the scalar code."""


def _each(fn: Callable, v: np.ndarray, *args) -> np.ndarray:
    return np.fromiter(map(fn, v.tolist(), *args), float, v.size)


def _powers(v: np.ndarray, c: float) -> np.ndarray:
    if c == 1.0:  # x ** 1.0 is x, and x ** 0.0 is 1.0, for every float x
        return v
    if c == 0.0:
        return np.ones_like(v)
    return _each(pow, v, itertools.repeat(c))


def _edge_power(x: float, c: float) -> Triple:
    """x^c and its derivatives in x at a zero base with c < 2, where they
    blow up unless c is 0 or 1, and at a negative base with c fractional."""
    if x < 0.0:
        raise EvalError(f"negative base {x} with non-integer exponent {c}")
    if c < 0.0:
        raise EvalError("zero raised to a negative power")
    if c not in (0.0, 1.0):
        raise EvalError(f"non-smooth power 0^{c}")
    return x ** c, c * (x ** (c - 1.0) if c else 0.0), 0.0


def _whole(out: tuple, rs: np.ndarray, parts: int) -> tuple:
    # a part free of r is a float, and the value of ``r`` is rs itself
    return tuple(x.copy() if x is rs else x if isinstance(x, np.ndarray)
                 else np.full(rs.shape, x) for x in out[:parts])


_NAMESPACE = dict(
    {"_" + f: getattr(math, f) for f in ("exp", "log", "sin", "cos", "tanh",
                                         "sqrt", "isfinite")},
    EvalError=EvalError, IsocapError=IsocapError, NonSmoothTie=NonSmoothTie,
    UnknownIdentifier=UnknownIdentifier,
    _Defer=_Defer, _warn=warnings.warn, _sqrt_a=np.sqrt, _isfinite_a=np.isfinite,
    _any=np.any, _where=np.where, _asarray=np.asarray, _errstate=np.errstate,
    _each=_each, _powers=_powers, _edge_power=_edge_power, _whole=_whole,
    _no_array=lambda rs, parts=3: None)


# Templates of the emitted lines.  A node's operands are name triples a, b
# (value, d1, d2); its own names are o+"v", o+"d1", o+"d2".
_ARITH = {
    "neg": "{o}v = -{a[0]}\n{o}d1 = -{a[1]}\n{o}d2 = -{a[2]}",
    "+": "{o}v = {a[0]} + {b[0]}\n{o}d1 = {a[1]} + {b[1]}\n{o}d2 = {a[2]} + {b[2]}",
    "-": "{o}v = {a[0]} - {b[0]}\n{o}d1 = {a[1]} - {b[1]}\n{o}d2 = {a[2]} - {b[2]}",
    "*": "{o}v = {a[0]} * {b[0]}\n{o}d1 = {a[1]} * {b[0]} + {a[0]} * {b[1]}\n"
         "{o}d2 = {a[2]} * {b[0]} + 2.0 * {a[1]} * {b[1]} + {a[0]} * {b[2]}",
    "/": "{o}v = {a[0]} / {b[0]}\n{o}d1 = ({a[1]} - {o}v * {b[1]}) / {b[0]}\n"
         "{o}d2 = ({a[2]} - 2.0 * {o}d1 * {b[1]} - {o}v * {b[2]}) / {b[0]}",
}
# a map f of one operand: lines setting o+"v" = f and names of f', f''; the
# chain rule follows.  {exp}, {log}, ... apply math (per element on arrays)
_MAPS = {
    "exp": ("{o}v = {exp}", "{o}v", "{o}v"),  # (e^v)' = e^v
    "sin": ("{o}v = {sin}\n{o}c = {cos}", "{o}c", "-{o}v"),
    "cos": ("{o}v = {cos}\n{o}s = {sin}", "-{o}s", "-{o}v"),
    "tanh": ("{o}v = {tanh}\n{o}f1 = 1.0 - {square}\n"
             "{o}f2 = -2.0 * {o}v * {o}f1", "{o}f1", "{o}f2"),
    "log": ("{o}v = {log}\n{o}f1 = 1.0 / {a[0]}\n"
            "{o}f2 = -1.0 / ({a[0]} * {a[0]})", "{o}f1", "{o}f2"),
    "sqrt": ("{o}v = {sqrt}\n{o}f1 = 0.5 / {o}v\n"
             "{o}f2 = -0.25 / ({o}v * {a[0]})", "{o}f1", "{o}f2"),
}
_CHAIN = "{o}d1 = {f1} * {a[1]}\n{o}d2 = {f2} * {a[1]} * {a[1]} + {f1} * {a[2]}"
_SQRT_ZERO = """\
if {a[0]} == 0.0 and {a[1]} == 0.0 and {a[2]} == 0.0:
    {o}v = {o}d1 = {o}d2 = 0.0
else:"""
# x^c where the exponent c is stationary (cd1 = cd2 = 0), leaving the chain;
# _edge_power takes a zero base with c < 2 and a negative base with c not
# an integer, and the array code defers there
_POWER = """\
if {x} == 0.0 and {c} < 2.0 or {x} < 0.0 and {c} != round({c}):
    {o}v, {o}f1, {o}f2 = _edge_power({x}, {c})
else:
    {o}v = {x} ** {c}
    {o}f1 = {c} * {x} ** ({c} - 1.0) if {c} != 0.0 else 0.0
    {o}f2 = {c} * ({c} - 1.0) * {x} ** ({c} - 2.0) if {c} not in (0.0, 1.0) else 0.0"""
_POWER_A = """\
if {c} < 2.0 and ({x} == 0.0).any() or ({x} < 0.0).any() and {c} != round({c}):
    raise _Defer
{o}v = _powers({x}, {c})
{o}f1 = {c} * _powers({x}, {c} - 1.0) if {c} != 0.0 else 0.0
{o}f2 = {c} * ({c} - 1.0) * _powers({x}, {c} - 2.0) if {c} not in (0.0, 1.0) else 0.0"""
# min and max: the first operand at a tie, where take holds, else the second
_PICK = """\
if {a[0]} == {b[0]}:
    _warn("{op} differentiated one-sidedly at a tie", NonSmoothTie, stacklevel=2)
{o}v, {o}d1, {o}d2 = ({a[0]}, {a[1]}, {a[2]}) if {take} else ({b[0]}, {b[1]}, {b[2]})"""
_PICK_A = """\
if ({a[0]} == {b[0]}).any():
    _warn("{op} differentiated one-sidedly at a tie", NonSmoothTie, stacklevel=2)
{o}k = {take}
{o}v = _where({o}k, {a[0]}, {b[0]})
{o}d1 = _where({o}k, {a[1]}, {b[1]})
{o}d2 = _where({o}k, {a[2]}, {b[2]})"""


class _Emitter:
    """Writes the lines of one tree's evaluators; names are unique per tree."""

    def __init__(self):
        self.consts: Dict[str, float] = {}  # number leaves
        self.slots: Dict[int, Tuple[str, Node]] = {}  # folded subtrees
        self.flags: Dict[int, Tuple[bool, bool]] = {}
        self.lines, self.pad, self.names = [], "", itertools.count()
        self.note = ""  # a comment naming the node whose lines put writes
        self.params: set = set()  # parameter names read

    def put(self, template: str, **names) -> None:
        self.lines += [self.pad + line + self.note
                       for line in template.format(**names).split("\n")]

    def flag(self, n: Node) -> Tuple[bool, bool]:
        """Whether n uses r, and whether it folds (free of r and min/max)."""
        got = self.flags.get(id(n))
        if got is None:
            if isinstance(n, (Num, Name)):
                got = (n == Name("r"), n != Name("r"))
            else:
                op, kids = _operands(n)
                got = (any(self.flag(k)[0] for k in kids), op not in ("min", "max")
                       and all(self.flag(k)[1] for k in kids))
            self.flags[id(n)] = got
        return got

    def walk(self, n: Node, arr: bool, fold: bool) -> Tuple[str, str, str]:
        """Emit n; returns the names of its value, d1 and d2.  arr: in the
        array evaluator; fold: a folding subtree reads its bound slot."""
        if n == Name("r"):
            return ("rs" if arr else "x"), "1.0", "0.0"
        if isinstance(n, Num) or n == Name("pi"):
            value = n.value if isinstance(n, Num) else math.pi
            if math.isfinite(value):  # parenthesized, for a sign
                return f"({value!r})", "0.0", "0.0"
            k = f"_c{len(self.consts)}"
            self.consts[k] = value
            return k, "0.0", "0.0"
        if fold and self.flag(n)[1]:
            k = self.slots.setdefault(id(n), (f"k{len(self.slots)}", n))[0]
            return k + "v", k + "d1", k + "d2"
        if isinstance(n, Name):
            self.params.add(n.ident)
            o = f"t{next(self.names)}"
            self.put("if {n!r} not in P:\n"
                     '    raise UnknownIdentifier("unbound parameter {n!r}")\n'
                     "{o} = float(P[{n!r}])", o=o, n=n.ident)
            return o, "0.0", "0.0"
        op, kids = _operands(n)
        args = [self.walk(k, arr, fold) for k in kids]
        self.note = "  # " + _render(n)
        return self.op(op, args, [arr and self.flag(k)[0] for k in kids])

    def op(self, op: str, args, arrs) -> Tuple[str, str, str]:
        """Emit op on operand triples; arrs: which operands are arrays."""
        o, a, b = f"t{next(self.names)}", args[0], args[-1]
        if op == "/":
            self.check(arrs[1], f"{b[0]} == 0.0", '"division by zero"')
        if op in _ARITH:
            self.put(_ARITH[op], o=o, a=a, b=b)
        elif op in ("min", "max"):
            take = (f"{a[0]} <= {b[0]}" if op == "min" else
                    f"{'~(' if any(arrs) else 'not ('}{a[0]} < {b[0]})")
            self.put(_PICK_A if any(arrs) else _PICK, op=op, o=o, a=a, b=b,
                     take=take)
        elif op in ("^", "pow"):
            self.power(o, a, b, *arrs)
        else:
            self.map(op, o, a, arrs[0])
        return o + "v", o + "d1", o + "d2"

    def check(self, arr: bool, cond: str, error: Optional[str]) -> None:
        """Raise error where cond holds; on an array, defer instead."""
        self.put("if ({c}).any():\n    raise _Defer" if arr
                 else "if {c}:\n    raise EvalError({e})", c=cond, e=error)

    def map(self, op: str, o: str, a, arr: bool) -> None:
        v = a[0]
        if op == "log" and not arr:
            self.check(False, f"{v} <= 0.0", f'f"log of non-positive value {{{v}}}"')
        if op == "sqrt" and not arr:
            self.put(_SQRT_ZERO, o=o, a=a)
            self.pad += "    "
            self.check(False, f"{v} <= 0.0", f'f"sqrt of negative value {{{v}}}" '
                       f'if {v} < 0.0 else "sqrt not differentiable at 0"')
        lines, f1, f2 = _MAPS[op]
        fns = {f: f"_each(_{f}, {v})" if arr else f"_{f}({v})"
               for f in ("exp", "log", "sin", "cos", "tanh", "sqrt")}
        self.put(lines, **dict(fns, sqrt=f"_sqrt_a({v})") if arr else fns,
                 o=o, a=a, square=f"_powers({o}v, 2)" if arr else f"{o}v ** 2")
        self.put(_CHAIN, o=o, a=a, f1=f1.format(o=o), f2=f2.format(o=o))
        if arr and op in ("log", "sqrt"):  # where the scalar code raises
            self.check(True, f"({v} <= 0.0) | ({v if op == 'log' else o + 'v'}"
                       f" * {v} == 0.0)", None)
        if op == "sqrt" and not arr:
            self.pad = self.pad[:-4]

    def power(self, o: str, x, c, ax: bool, ac: bool) -> None:
        stationary = dict(template=(_POWER_A if ax else _POWER) + "\n" + _CHAIN,
                          o=o, x=x[0], c=c[0], a=x, f1=o + "f1", f2=o + "f2")
        if c[1] == c[2] == "0.0":  # a number or a parameter: no other branch
            return self.put(**stationary)
        if ac:  # elements with a stationary exponent take the branch below
            self.put("if _any(({c[1]} == 0.0) & ({c[2]} == 0.0)):\n"
                     "    raise _Defer", c=c)
        else:
            self.put("if {c[1]} == 0.0 and {c[2]} == 0.0:", c=c)
            self.pad += "    "
            self.put(**stationary)
            self.pad = self.pad[:-4]
            self.put("else:")
            self.pad += "    "
        # x^c = exp(c*log x)
        self.check(ax, f"{x[0]} <= 0.0", '"variable exponent requires a positive base"')
        lg = self.op("log", [x], [ax])
        self.map("exp", o, self.op("*", [c, lg], [ac, ax]), ax or ac)
        if not ac:
            self.pad = self.pad[:-4]


def _evaluators(em: _Emitter, ast: Node, fold: bool) -> list:
    """Lines defining the evaluators ``scalar`` and ``array`` inside bind;
    where nothing folds, ``array`` always defers."""
    em.lines = []
    v, d1, d2 = em.walk(ast, False, fold)
    lines = ["def scalar(r):", "    try:", "        x = float(r)",
             *("        " + s for s in em.lines),
             "    except OverflowError as exc:",
             "        raise _overflow(exc, r) from None",
             "    except (ValueError, ZeroDivisionError) as exc:",
             '        raise EvalError(f"{exc} at r={r}") from None',
             f"    if _isfinite({v}) and _isfinite({d1}) and _isfinite({d2}):",
             f"        return {v}, {d1}, {d2}",
             '    raise EvalError(f"non-finite evaluation at r={r}")']
    if not fold:
        return lines + ["array = _no_array"]
    em.lines = []
    v, d1, d2 = em.walk(ast, True, True)
    return lines + [
        "def array(rs, parts=3):", "    rs = _asarray(rs, dtype=float)",
        "    try:", '        with _errstate(all="ignore"):',
        *("            " + s for s in em.lines),
        # non-finite iff some part is, or the sum overflows (deferred)
        f"            finite = _isfinite_a({v} + {d1} + {d2}).all()",
        "    except (_Defer, IsocapError, ArithmeticError, ValueError):",
        "        return None",
        f"    return _whole(({v}, {d1}, {d2}), rs, parts) if finite else None"]


def _overflow(src: list, exc: OverflowError, r) -> EvalError:
    """The EvalError of an overflow in the lines src of ``bind``, naming the
    subexpression in the comment of the line that raised, if it has one."""
    site = src[exc.__traceback__.tb_lineno - 1].partition("  # ")[2]
    return EvalError(f"overflow{' in ' + site if site else ''} at r={r}")


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _code(key: str, ast: Node, fold: bool = True
          ) -> Callable[[ParamSet], Callable[[float], Triple]]:
    """Emit and compile one tree's evaluators; returns its ``bind``, whose
    attribute ``names`` holds the tree's parameter names.  The key repr(ast)
    tells -0.0 from 0.0 and the number inf from a name.  Code that folds
    nothing is compiled only for a bind whose folds raise."""
    em = _Emitter()
    body = _evaluators(em, ast, fold)
    em.lines = []
    for k, n in em.slots.values():
        em.put(f"{k}v, {k}d1, {k}d2 = {', '.join(em.walk(n, False, False))}")
    if em.lines:
        body = ["try:", *("    " + s for s in em.lines),
                "except Exception:", "    return _raw(P)", *body]
    src = ["def bind(P):", *("    " + s for s in body),
           "    scalar.array = array", "    return scalar"]
    namespace = dict(_NAMESPACE, _raw=lambda P: _code(key, ast, False)(P),
                     _overflow=functools.partial(_overflow, src), **em.consts)
    exec(builtins.compile("\n".join(src), "<isocap profile>", "exec"), namespace)
    bind = namespace["bind"]
    bind.names = frozenset(em.params)
    return bind


def compile(expr: ProfileExpr, params: ParamSet | None = None
            ) -> Callable[[float], Triple]:
    """Bind params to expr's compiled code.  Returns a function of r giving
    (value, d/dr, d^2/dr^2); it raises EvalError on a non-finite result and
    on a math error (overflow, domain, zero division) of its floats.  Its
    attribute ``array`` maps a 1-D array of radii to the arrays (value,
    d/dr, d^2/dr^2) there, each element bit-identical to the function's; with
    ``parts=1`` it returns the values alone, as a one-element tuple.  It
    returns None when the scalar code must decide: some element raises there,
    or takes a branch the array code leaves to it."""
    return expr._bind(params or {})


def eval_d2(expr: ProfileExpr, r: float, params: ParamSet | None = None) -> Triple:
    """Evaluate expr at radius r: returns (value, d/dr, d^2/dr^2)."""
    return compile(expr, params)(r)
