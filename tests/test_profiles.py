import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isocap import geometry, profiles
from isocap.errors import EvalError, ProfileSyntaxError, UnknownIdentifier
from isocap.profiles import (_FUNCTIONS, Bin, Call, Name, Neg, NonSmoothTie, Num,
                             eval_d2, parse, to_text)


def fd_oracle(text, r, params=None, h=1e-4):
    """Central finite differences; h=1e-4 keeps roundoff below truncation."""
    f = lambda x: eval_d2(parse(text), x, params)[0]
    d1 = (f(r + h) - f(r - h)) / (2 * h)
    d2 = (f(r + h) - 2 * f(r) + f(r - h)) / (h * h)
    return d1, d2


class TestParser:
    def test_number(self):
        assert eval_d2(parse("2.5"), 1.0) == (2.5, 0.0, 0.0)

    def test_variable(self):
        assert eval_d2(parse("r"), 3.0) == (3.0, 1.0, 0.0)

    def test_square(self):
        assert eval_d2(parse("r^2"), 3.0) == (9.0, 6.0, 2.0)

    def test_precedence_mul_add(self):
        v, _, _ = eval_d2(parse("1 + 2*3"), 0.0)
        assert v == 7.0

    def test_power_binds_tighter_than_neg(self):
        # -r^2 parses as -(r^2)
        v, _, _ = eval_d2(parse("-r^2"), 3.0)
        assert v == -9.0

    def test_power_right_assoc(self):
        v, _, _ = eval_d2(parse("2^3^2"), 0.0)
        assert v == 512.0

    def test_pi(self):
        v, d1, _ = eval_d2(parse("pi*r"), 2.0)
        assert v == pytest.approx(2 * math.pi)
        assert d1 == pytest.approx(math.pi)

    def test_functions(self):
        v, d1, d2 = eval_d2(parse("sqrt(1 - 2/r)"), 4.0)
        assert v == pytest.approx(math.sqrt(0.5))
        fd1, fd2 = fd_oracle("sqrt(1 - 2/r)", 4.0)
        assert d1 == pytest.approx(fd1, abs=1e-8)
        assert d2 == pytest.approx(fd2, abs=1e-5)

    def test_two_arg_functions(self):
        v, _, _ = eval_d2(parse("max(r, 2)"), 5.0)
        assert v == 5.0
        v, _, _ = eval_d2(parse("pow(r, 3)"), 2.0)
        assert v == 8.0

    def test_parameters(self):
        v, d1, _ = eval_d2(parse("m*r"), 3.0, {"m": 2.0})
        assert (v, d1) == (6.0, 2.0)

    def test_whitespace(self):
        assert to_text(parse(" r +  1 ")) == to_text(parse("r+1"))


class TestParserErrors:
    def test_syntax_error_offset(self):
        with pytest.raises(ProfileSyntaxError) as exc:
            parse("r + * 2")
        assert exc.value.offset == 4

    def test_syntax_error_expected(self):
        with pytest.raises(ProfileSyntaxError) as exc:
            parse("(r + 1")
        assert ")" in exc.value.expected

    def test_trailing_garbage(self):
        with pytest.raises(ProfileSyntaxError):
            parse("r + 1 )")

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifier):
            parse("sinh(r)")

    def test_unbound_parameter_at_eval(self):
        expr = parse("m*r")
        with pytest.raises(UnknownIdentifier):
            eval_d2(expr, 1.0)

    def test_empty(self):
        with pytest.raises(ProfileSyntaxError):
            parse("")


class TestEval:
    def test_domain_violation(self):
        with pytest.raises(EvalError):
            eval_d2(parse("sqrt(r - 10)"), 1.0)

    def test_log_of_negative(self):
        with pytest.raises(EvalError):
            eval_d2(parse("log(r)"), -1.0)

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            eval_d2(parse("1/r"), 0.0)

    @pytest.mark.parametrize("text,r", [
        ("exp(r)", 1000.0),        # OverflowError: math range error
        ("log(r)", 1e-320),        # ZeroDivisionError: -1/(v*v) underflows
        ("sin(r)", math.inf),      # ValueError: math domain error
    ])
    def test_math_errors_are_typed(self, text, r):
        with pytest.raises(EvalError, match=f"at r={r}"):
            eval_d2(parse(text), r)

    def test_minmax_tie_warns(self):
        with pytest.warns(NonSmoothTie):
            eval_d2(parse("max(r, 2)"), 2.0)

    def test_minmax_away_from_tie_is_quiet(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eval_d2(parse("max(r, 2)"), 5.0)

    def test_negative_base_integer_power(self):
        v, d1, _ = eval_d2(parse("(0 - r)^3"), 2.0)
        assert v == -8.0
        assert d1 == pytest.approx(-12.0)

    def test_variable_exponent(self):
        v, d1, _ = eval_d2(parse("2^r"), 3.0)
        assert v == pytest.approx(8.0)
        assert d1 == pytest.approx(8.0 * math.log(2.0))


DERIV_CASES = [
    ("r^2 + 3*r + 1", 2.0, None),
    ("r*sin(r)", 1.3, None),
    ("exp(-4*(r-3)^2)", 2.5, None),
    ("r + 1.5*exp(-4*(r-3)^2)", 3.1, None),
    ("sqrt(1 - 2*m/r)", 5.0, {"m": 1.0}),
    ("tanh((r-5)/2)", 4.0, None),
    ("cos(r)/(1 + r^2)", 0.7, None),
    ("log(1 + r^2)", 1.1, None),
    ("min(r^2, 10*r)", 3.0, None),
]


@pytest.mark.parametrize("text,r,params", DERIV_CASES)
def test_derivatives_match_finite_differences(text, r, params):
    v, d1, d2 = eval_d2(parse(text), r, params)
    fd1, fd2 = fd_oracle(text, r, params)
    assert d1 == pytest.approx(fd1, rel=1e-6, abs=1e-7)
    assert d2 == pytest.approx(fd2, rel=1e-4, abs=1e-4)


class TestRoundTrip:
    @given(st.integers(min_value=-50, max_value=50),
           st.integers(min_value=1, max_value=9),
           st.sampled_from(["+", "-", "*", "/"]))
    @settings(max_examples=60, deadline=None)
    def test_arith_round_trip(self, k, d, op):
        text = f"({k}/{d}) {op} r"
        expr = parse(text)
        again = parse(to_text(expr))
        r = 1.7
        assert eval_d2(again, r) == eval_d2(expr, r)

    @given(st.floats(min_value=0.5, max_value=20.0,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=60, deadline=None)
    def test_neck_round_trip_pointwise(self, r):
        text = "r + 1.5*exp(-4*(r-3)^2)"
        expr = parse(text)
        again = parse(to_text(expr))
        assert eval_d2(again, r) == eval_d2(expr, r)

    def test_canonical_text_is_stable(self):
        t1 = to_text(parse("r + 2*r^2"))
        t2 = to_text(parse(t1))
        assert t1 == t2

    @pytest.mark.parametrize("text", ["r+1e999", "r*2e400-inf", "-1e999/r"])
    def test_infinite_number_round_trip(self, text):
        # the number inf prints as 1e999, not as the name inf
        expr = parse(text)
        again = parse(to_text(expr))
        assert again.ast == expr.ast and again.names() == expr.names()
        assert "1e999" in to_text(expr)


class TestNames:
    @pytest.mark.parametrize("text,names", [
        ("r + pi", set()),
        ("1 - 2*m/r + q^2/r^2", {"m", "q"}),
        ("a*min(r, b) + max(c, d^r) - exp(-e)", {"a", "b", "c", "d", "e"}),
        ("inf + r*1e999", {"inf"}),
    ])
    def test_parameter_names(self, text, names):
        assert parse(text).names() == names

    def test_kept_with_the_compiled_code(self):
        # a tree parsed from another text shares the code and its names
        one, other = parse("m*r + 1"), parse("m * r+1")
        assert one is not other and one.ast == other.ast
        assert one.names() is other.names() == {"m"}


# (value, d/dr, d^2/dr^2) as float.hex, recorded from the dual-number
# interpreter that the compiled closures replaced.
RN = {"m": 1.0, "q": 0.5}
PARITY = [
    ("1-2*m/r+q^2/r^2", 2.5, RN, ("0x1.eb851eb851eb7p-3", "0x1.26e978d4fdf3cp-2", "-0x1.bda5119ce0760p-3")),
    ("1-2*m/r+q^2/r^2", 7.0, RN, ("0x1.705397829cbc1p-1", "0x1.426cf7ca432c0p-5", "-0x1.69a9a2cfe9d29p-7")),
    ("1-2*m/r+q^2/r^2", 1000.0, RN, ("0x1.fef9e3864cb5cp-1", "0x1.0c5e4bff76b20p-19", "-0x1.12c65b1c2ba46p-28")),
    ("1 - 2*m/r", 2.0, {"m": 1.0}, ("0x0.0p+0", "0x1.0000000000000p-1", "-0x1.0000000000000p-1")),
    ("r + 1.5*exp(-4*(r-3)^2)", 0.5, None, ("0x1.000000002dcf5p-1", "0x1.00000001ca194p+0", "0x1.1895df362fd13p-27")),
    ("r + 1.5*exp(-4*(r-3)^2)", 2.9, None, ("0x1.15d5f614e9bc4p+2", "0x1.1393c72bb36acp+1", "-0x1.536d7d4ae9754p+3")),
    ("r + 1.5*exp(-4*(r-3)^2)", 3.0, None, ("0x1.2000000000000p+2", "0x1.0000000000000p+0", "-0x1.8000000000000p+3")),
    ("r + 1.5*exp(-4*(r-3)^2)", 4.2, None, ("0x1.0d1a3de145e42p+2", "0x1.e8c479dbac350p-1", "0x1.9757ebb02391ap-2")),
    ("sqrt(1 - 2/r)", 3.0, None, ("0x1.279a74590331dp-1", "0x1.8a2345cc04424p-3", "-0x1.8a2345cc04424p-3")),
    ("-sqrt(0*r)", 1.5, None, ("-0x0.0p+0", "-0x0.0p+0", "-0x0.0p+0")),
    ("exp(-r/2)", 1.3, None, ("0x1.0b499584682eap-1", "-0x1.0b499584682eap-2", "0x1.0b499584682eap-3")),
    ("log(1 + r^2)", 0.7, None, ("0x1.9858c46692177p-2", "0x1.e112e63a6a860p-1", "0x1.d6771d87ea81ep-2")),
    ("sin(2*r)", 0.4, None, ("0x1.6f494c2bffecdp-1", "0x1.64b6bde719865p+0", "-0x1.6f494c2bffecdp+1")),
    ("cos(r)/(1 + r^2)", 0.7, None, ("0x1.06d1792832d9fp-1", "-0x1.d44fe512ce111p-1", "0x1.0874833a038a6p-1")),
    ("tanh((r-5)/2)", 4.0, None, ("-0x1.d9353d7568af3p-2", "0x1.92a946fa34394p-2", "0x1.742740ed7f1d0p-3")),
    ("pow(r, 3)", 2.0, None, ("0x1.0000000000000p+3", "0x1.8000000000000p+3", "0x1.8000000000000p+3")),
    ("pow(r, 0.5)", 4.0, None, ("0x1.0000000000000p+1", "0x1.0000000000000p-2", "-0x1.0000000000000p-5")),
    ("pow(2, r)", 1.5, None, ("0x1.6a09e667f3bccp+1", "0x1.f5e46537ab906p+0", "0x1.5be298adf0351p+0")),
    ("r^2", 3.0, None, ("0x1.2000000000000p+3", "0x1.8000000000000p+2", "0x1.0000000000000p+1")),
    ("(0-r)^3", 2.0, None, ("-0x1.0000000000000p+3", "-0x1.8000000000000p+3", "-0x1.8000000000000p+3")),
    ("2^r", 3.0, None, ("0x1.ffffffffffffep+2", "0x1.62e42fefa39eep+2", "0x1.ebfbdff82c58dp+1")),
    ("r^r", 1.7, None, ("0x1.3b7b1f59f3e83p+1", "0x1.e2e2511fc3cf1p+1", "0x1.ce58b421bf2c0p+2")),
    ("r^0", 0.0, None, ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0")),
    ("r^1", 0.0, None, ("0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0")),
    ("(r-2)^0", 2.0, None, ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0")),
    ("min(r^2, 10*r)", 3.0, None, ("0x1.2000000000000p+3", "0x1.8000000000000p+2", "0x1.0000000000000p+1")),
    ("max(r, 2)", 5.0, None, ("0x1.4000000000000p+2", "0x1.0000000000000p+0", "0x0.0p+0")),
    ("max(r, 2)", 2.0, None, ("0x1.0000000000000p+1", "0x1.0000000000000p+0", "0x0.0p+0")),
    ("-(1-r)", 1.0, None, ("-0x0.0p+0", "0x1.0000000000000p+0", "-0x0.0p+0")),
    ("pi*r", 2.0, None, ("0x1.921fb54442d18p+2", "0x1.921fb54442d18p+1", "0x0.0p+0")),
    ("r/(r-1)", 0.0, None, ("-0x0.0p+0", "-0x1.0000000000000p+0", "-0x1.0000000000000p+1")),
    ("-r^2", -0.0, None, ("-0x0.0p+0", "0x0.0p+0", "-0x1.0000000000000p+1")),
]


@pytest.mark.parametrize("text,r,params,want", PARITY)
def test_frozen_parity(text, r, params, want):
    """Bit for bit, signed zeros included (float.hex keeps the sign)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonSmoothTie)
        got = eval_d2(parse(text), r, params)
    assert tuple(x.hex() for x in got) == want


class TestErrorParity:
    @pytest.mark.parametrize("text,r,message", [
        ("0^(-1)", 1.0, "zero raised to a negative power"),
        ("0^0.5", 1.0, "non-smooth power 0^0.5"),
        ("(0-2)^0.5", 1.0, "negative base -2.0 with non-integer exponent 0.5"),
        ("(0-r)^r", 1.5, "variable exponent requires a positive base"),
        ("sqrt(r-2)", 2.0, "sqrt not differentiable at 0"),
        ("r*r", 1e200, "non-finite evaluation at r=1e+200"),
        ("exp(r)", 1000.0, "overflow in exp(r) at r=1000.0"),
        ("r^400", 1000.0, "overflow in (r^400.0) at r=1000.0"),
        ("1+exp(r^2)", 100.0, "overflow in exp((r^2.0)) at r=100.0"),
        ("r^0.5", 1e-320, "overflow in (r^0.5) at r=1e-320"),  # in d2
        ("r^r", 1000.0, "overflow in (r^r) at r=1000.0"),
    ])
    def test_message(self, text, r, message):
        with pytest.raises(EvalError) as exc:
            eval_d2(parse(text), r)
        assert str(exc.value) == message

    @pytest.mark.parametrize("params", [{"m": 2.0}, {"m": 1.0}],
                             ids=["folded", "unfolded"])
    def test_overflow_names_its_site(self, params):
        # at m = 1 the fold 1/(m-1) raises and the code that folds
        # nothing runs; either way r^400, read first, overflows
        prof = geometry.ExprProfile("r^400 + 1/(m-1)", params)
        with pytest.raises(EvalError) as exc:
            prof.eval_d2(1000.0)
        assert str(exc.value) == "overflow in (r^400.0) at r=1000.0"

    def test_constant_errors_raise_on_every_evaluation(self):
        # building the profile succeeds; each evaluation raises
        prof = geometry.ExprProfile("r + 1/(m-1)", {"m": 1.0})
        for _ in range(2):
            with pytest.raises(EvalError, match="division by zero"):
                prof.eval_d2(2.0)
        unbound = profiles.compile(parse("r*m"))
        with pytest.raises(UnknownIdentifier, match="unbound parameter 'm'"):
            unbound(2.0)

    @pytest.mark.parametrize("text", ["max(r, 2)", "r + min(2, 2)"])
    def test_tie_warns_on_every_evaluation(self, text):
        f = profiles.compile(parse(text))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            f(2.0)
            f(2.0)
        assert [w.category for w in caught] == [NonSmoothTie, NonSmoothTie]


def test_compiles_once_per_profile(monkeypatch):
    calls = []
    compile_ = profiles.compile

    def counting(*args):
        calls.append(args)
        return compile_(*args)
    monkeypatch.setattr(profiles, "compile", counting)
    metric = geometry.to_geodesic(geometry.schwarzschild(1.0))
    for k in range(20):
        geometry.sphere_data(metric, 1e-2 * 1e5 ** (k / 19))
    assert len(calls) == 1


# mpmath oracle: an independent evaluator of the parsed tree in 30-digit
# arithmetic, differentiated numerically by mpmath.diff.
_MP = {"sqrt": mpmath.sqrt, "exp": mpmath.exp, "log": mpmath.log,
       "sin": mpmath.sin, "cos": mpmath.cos, "tanh": mpmath.tanh,
       "pow": lambda a, b: a ** b, "min": min, "max": max}
_MP_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
           "*": lambda a, b: a * b, "/": lambda a, b: a / b,
           "^": lambda a, b: a ** b}


def _mp_eval(n, r, params):
    if isinstance(n, Num):
        return mpmath.mpf(n.value)
    if isinstance(n, Name):
        return r if n.ident == "r" else (
            mpmath.pi if n.ident == "pi" else mpmath.mpf(params[n.ident]))
    if isinstance(n, Neg):
        return -_mp_eval(n.operand, r, params)
    if isinstance(n, Bin):
        return _MP_OPS[n.op](_mp_eval(n.left, r, params),
                             _mp_eval(n.right, r, params))
    return _MP[n.func](*(_mp_eval(a, r, params) for a in n.args))


# every node type and every function; kinks of min/max at r = a and r = b
ORACLE_CASES = [
    "1 - 2*m/r + q^2/r^2",
    "r + 1.5*exp(-4*(r-3)^2)",
    "sqrt(1 + a*r^2) - pi*r^0.5",
    "log(1 + r^2)*cos(b*r)",
    "sin(a*r)/r + tanh((r-a)/b)",
    "pow(r, a) + pow(b, r) - r^r",
    "min(r^2, a*r) + max(r, b)",
    "-r^3 + (0-r)^2",
]


def test_oracle_cases_cover_every_node_and_function():
    seen = set()

    def walk(n):
        seen.add(type(n))
        if isinstance(n, Call):
            seen.add(n.func)
        for child in (getattr(n, "operand", None), getattr(n, "left", None),
                      getattr(n, "right", None), *getattr(n, "args", ())):
            if child is not None:
                walk(child)
    for text in ORACLE_CASES:
        walk(parse(text).ast)
    assert {Num, Name, Neg, Bin, Call} | set(_FUNCTIONS) <= seen


@pytest.mark.parametrize("text", ORACLE_CASES)
@given(r=st.floats(0.5, 5.0), a=st.floats(0.5, 2.0), b=st.floats(0.5, 3.0),
       m=st.floats(0.05, 0.2), q=st.floats(0.0, 0.1))
@settings(max_examples=25, deadline=None)
def test_matches_mpmath(text, r, a, b, m, q):
    assume(abs(r - a) > 1e-3 and abs(r - b) > 1e-3)
    params = {"a": a, "b": b, "m": m, "q": q}
    expr = parse(text)
    got = eval_d2(expr, r, params)
    with mpmath.workdps(30):
        f = lambda x: _mp_eval(expr.ast, x, params)
        want = [f(mpmath.mpf(r))] + [mpmath.diff(f, mpmath.mpf(r), k)
                                     for k in (1, 2)]
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-10 * max(1, abs(w)), (g, w)


# Differential test of the array path: ExprProfile.values against eval_d2 at
# each radius, over random trees with every node type and function.
_LEAVES = st.sampled_from(["r", "r", "r", "a", "pi", "0", "1", "2", "0.5",
                           "3", "1000"])


def _grow(sub):
    two = st.tuples(sub, sub)
    return st.one_of(
        st.builds(lambda op, ab: f"({ab[0]}{op}{ab[1]})",
                  st.sampled_from("+-*/^"), two),
        st.builds(lambda x: f"(-{x})", sub),
        st.builds(lambda fn, x: f"{fn}({x})",
                  st.sampled_from(["sqrt", "exp", "log", "sin", "cos", "tanh"]),
                  sub),
        st.builds(lambda fn, ab: f"{fn}({ab[0]},{ab[1]})",
                  st.sampled_from(["pow", "min", "max"]), two))


EXPRESSIONS = st.recursive(_LEAVES, _grow, max_leaves=10)
RADII = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 1000.0, -1.5,
                                   1e-320, 1e200]),
                  st.floats(-4.0, 6.0))


def check_values_match_scalar(text, rs, a=2.0):
    """values(rs) and triple(rs) are bit-identical to eval_d2 at each
    radius; where some radius raises, both raise the first radius'
    EvalError; a tie that the scalar path warns about warns NonSmoothTie
    on both array paths."""
    prof = geometry.ExprProfile(text, {"a": a})
    rs = np.array(rs, dtype=float)
    want, first = [], None
    with warnings.catch_warnings(record=True) as scalar_warnings:
        warnings.simplefilter("always")
        for r in rs.tolist():
            try:
                want.append(prof.eval_d2(r))
            except EvalError as exc:
                first = str(exc)
                break
    tie = any(w.category is NonSmoothTie for w in scalar_warnings)
    for form in (prof.values, prof.triple):
        with warnings.catch_warnings(record=True) as array_warnings:
            warnings.simplefilter("always")
            if first is None:
                got = form(rs)
                got = [got] if form == prof.values else got
                assert [[x.hex() for x in g.tolist()] for g in got] == \
                    [[t[k].hex() for t in want] for k in range(len(got))]
            else:
                with pytest.raises(EvalError) as info:
                    form(rs)
                assert str(info.value) == first
        if tie:
            assert any(w.category is NonSmoothTie for w in array_warnings)


@pytest.mark.parametrize("text,rs", [
    ("1/0 + r", [1.0, 2.0]),
    ("r/(r-2)", [1.0, 2.0, 3.0]),
    ("log(r - 2)", [3.0, 2.5, 1.0]),
    ("sqrt(r - 2)", [4.0, 2.0]),
    ("sqrt(0*r) + r", [1.0, 2.0]),
    ("log(r)", [1.0, 1e-320]),
    ("max(log(r), 5)", [1.0, 1e-320]),  # the dropped argument raised
    ("max(sqrt(r), 5)", [1.0, 1e-320]),
    ("min(1e308*r^2, 1e308)", [1.0]),  # the tie keeps the first argument
    ("exp(r)", [1.0, 1000.0]),
    ("sin(r)", [1.0, math.inf]),
    ("max(r, 2)", [1.0, 2.0, 3.0]),
    ("min(r, a) + r", [1.0, 2.0]),
    ("r^r + 2^r + r^2.5 + (0-r)^3", [0.5, 1.0, 2.0]),
    ("2^max(r, 3)", [1.0, 4.0]),  # a stationary exponent: 2**3, not e^(3 ln 2)
    ("(0-r)^0.5", [0.0, 1.0]),
    ("r^(0.5)", [1.0, 0.0]),
    ("pow(r - 1, 0) + pow(r - 1, 1) + (r-1)^(-1)", [2.0, 1.0]),
    ("tanh(r) * cos(r) - sin(r)", [0.3, -2.0, 1e200]),
    ("r*r", [1.0, 1e200]),
    ("pow(r, -0)", [0.0, 1.0]),  # d/dr is -0.0 at the zero base, else 0.0
])
def test_values_cases(text, rs):
    check_values_match_scalar(text, rs)


@pytest.mark.parametrize("text", [
    "sqrt(r)", "exp(r)", "log(r)", "sin(r)", "cos(r)", "tanh(r)",
    "r^2.5", "r^3", "pow(r, 1.5)", "2^r", "r^r", "1/r - r*r + (-r)"])
def test_values_on_a_dense_grid(text):
    # numpy's vectorized exp, tanh and powers round differently from math
    # and ** at a few percent of these radii
    check_values_match_scalar(text, np.linspace(0.1, 5.0, 512))


@given(text=EXPRESSIONS, rs=st.lists(RADII, min_size=1, max_size=40),
       a=st.sampled_from([2.0, 0.0, -1.0, 0.5]))
@settings(max_examples=400, deadline=None)
def test_values_match_eval_d2(text, rs, a):
    check_values_match_scalar(text, rs, a)


class TestEmitter:
    """One emitted source per tree, bound to each profile's parameters."""

    def test_one_source_per_tree(self, monkeypatch):
        calls = []
        emitter = profiles._Emitter
        monkeypatch.setattr(profiles, "_Emitter",
                            lambda: calls.append(1) or emitter())
        profiles._code.cache_clear()
        profiles.parse.cache_clear()
        text = "1-2*m/r+q^2/r^2"
        a = geometry.ExprProfile(text, {"m": 1.3, "q": 0.6})
        b = geometry.ExprProfile(text, RN)
        rs = [2.5, 7.0, 1000.0]
        got_b = [b.eval_d2(r) for r in rs]
        got_a = [a.eval_d2(r) for r in rs]
        assert len(calls) == 1
        # b has the frozen bits of its parameters, a its own
        want_b = [w for t, _, p, w in PARITY if t == text and p == RN]
        assert [tuple(x.hex() for x in g) for g in got_b] == want_b
        assert got_a != got_b
        assert [a.eval_d2(r) for r in rs] == got_a
        profiles._code.cache_clear()
        profiles.parse.cache_clear()
        fresh = geometry.ExprProfile(text, {"m": 1.3, "q": 0.6})
        assert len(calls) == 2
        assert [fresh.eval_d2(r) for r in rs] == got_a
        for form in ("values", "triple"):
            assert np.array_equal(getattr(a, form)(np.array(rs)),
                                  getattr(fresh, form)(np.array(rs)))

    def test_cache_is_bounded_and_exact(self):
        for k in range(profiles._CACHE_SIZE + 5):
            profiles.compile(parse(f"r + {k}"))
        assert profiles._code.cache_info().currsize == profiles._CACHE_SIZE
        # trees that compare equal (-0.0 == 0.0) or print alike (the number
        # inf and a parameter inf) but evaluate apart compile apart
        plus = lambda leaf: profiles.ProfileExpr(Bin("+", Name("r"), leaf), "r+0")
        assert profiles.compile(plus(Num(-0.0)))(-0.0)[0].hex() == "-0x0.0p+0"
        assert profiles.compile(plus(Num(0.0)))(-0.0)[0].hex() == "0x0.0p+0"
        with pytest.raises(EvalError, match="non-finite"):
            profiles.compile(plus(Num(math.inf)))(1.0)
        with pytest.raises(UnknownIdentifier, match="'inf'"):
            profiles.compile(plus(Name("inf")))(1.0)

    def test_failed_fold_raises_on_every_evaluation(self):
        # the same code folds 1/(m-1) at m = 2, and leaves it to every
        # evaluation at m = 1, in every form
        good = geometry.ExprProfile("r + 1/(m-1)", {"m": 2.0})
        assert good.eval_d2(2.0) == (3.0, 1.0, 0.0)
        bad = geometry.ExprProfile("r + 1/(m-1)", {"m": 1.0})
        for _ in range(2):
            for call in (lambda: bad.eval_d2(2.0),
                         lambda: bad.values(np.array([1.0, 2.0])),
                         lambda: bad.triple(np.array([1.0, 2.0]))):
                with pytest.raises(EvalError, match="division by zero"):
                    call()
        unbound = profiles.compile(parse("r + 1/(m-1)"))
        for _ in range(2):
            with pytest.raises(UnknownIdentifier, match="unbound parameter 'm'"):
                unbound(2.0)
        assert good.eval_d2(2.0) == (3.0, 1.0, 0.0)

    def test_unfolded_tie_warns_on_every_evaluation(self):
        prof = geometry.ExprProfile("r + min(2, 2)")
        rs = np.array([1.0, 3.0])
        for call in (lambda: prof.eval_d2(1.0), lambda: prof.values(rs),
                     lambda: prof.triple(rs)):
            for _ in range(2):
                with pytest.warns(NonSmoothTie):
                    call()
