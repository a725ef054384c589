import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statgeo import expr as ex
from statgeo.expr import (
    Add,
    Call,
    ExprDomainError,
    ExprNameError,
    ExprSyntaxError,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    diff,
    eval_expr,
    parse,
    to_str,
)
from statgeo.frame import ExprTable

from helpers import fd_partial, random_expr, random_point

COORDS = ("t", "x", "y")


# ---------------------------------------------------------------------------
# parsing


def test_precedence_and_shape():
    e = parse("1 + 2*t", COORDS)
    assert e == Add(Num(1.0), Mul(Num(2.0), Var("t")))
    assert eval_expr(e, {"t": 3.0}) == 7.0


@pytest.mark.parametrize(
    "text,env,value",
    [
        ("2*t - t/4", {"t": 4.0}, 7.0),
        ("exp(0)*5", {}, 5.0),
        ("(1 + t)^2", {"t": 2.0}, 9.0),
        ("t^-2", {"t": 2.0}, 0.25),
        ("1e-3 + 2.5E2", {}, 250.001),
        (" exp( t ) * 2 ", {"t": 0.0}, 2.0),
        ("sin(t)^2 + cos(t)^2", {"t": 0.7}, 1.0),
        ("cosh(t)^2 - sinh(t)^2", {"t": 0.4}, 1.0),
    ],
)
def test_eval_values(text, env, value):
    assert eval_expr(parse(text, COORDS), env) == pytest.approx(value, abs=1e-12)


def test_unary_minus_binds_looser_than_power():
    # "-t^2" is -(t^2), as in written mathematics; "-t*x" is (-t)*x
    env = {"t": 3.0, "x": 2.0}
    assert parse("-t^2", COORDS) == Neg(Pow(Var("t"), 2.0))
    assert eval_expr(parse("-t^2", COORDS), env) == -9.0
    assert eval_expr(parse("2 - t^2", COORDS), env) == -7.0
    assert eval_expr(parse("(-t)^2", COORDS), env) == 9.0
    assert parse("-2^2", COORDS) == Num(-4.0)
    assert parse("-t*x", COORDS) == Mul(Neg(Var("t")), Var("x"))
    assert parse("x*-t^2", COORDS) == Mul(Var("x"), Neg(Pow(Var("t"), 2.0)))
    assert eval_expr(parse("t^-2", COORDS), env) == pytest.approx(1.0 / 9.0)


@pytest.mark.parametrize(
    "text",
    [
        "(" * 3000 + "t" + ")" * 3000,
        "sin(" * 3000 + "t" + ")" * 3000,
        "-" * 3000 + "t",
        " + ".join(["t"] * 20000),
        "*".join(["t"] * 20000),
        "(" * (ex.MAX_DEPTH + 1) + "t" + ")" * (ex.MAX_DEPTH + 1),
        "+".join(["t"] * (ex.MAX_DEPTH + 2)),
    ],
    ids=["parens-3000", "calls-3000", "minus-3000", "sum-20000", "product-20000",
         "parens-over-cap", "sum-over-cap"],
)
def test_too_deep_expressions_are_expression_errors(text):
    with pytest.raises(ex.ExprError, match=f"at most {ex.MAX_DEPTH}|deeper than {ex.MAX_DEPTH}"):
        parse(text, COORDS)


def test_expressions_at_the_depth_cap_get_second_derivatives():
    # Quotients nest their second derivatives about six times deeper than
    # themselves, the most of any operator.  At the cap that is about 600
    # levels, which the recursive routines must still walk: evaluation, and
    # printing and parsing, for which a chain of the same depth stands in.
    cap = ex.MAX_DEPTH
    e = parse(nested_quotient(cap), COORDS)
    assert ex.depth(e) == cap
    d2 = diff(diff(e, "t"), "t")
    assert 5 * cap < ex.depth(d2) <= 6 * cap
    assert abs(eval_expr(d2, {"t": 0.7})) <= 1e-9  # the quotient is t
    chain = Var("t")
    for _ in range(ex.depth(d2)):
        chain = Sub(chain, Var("x"))
    assert eval_expr(chain, {"t": 0.5, "x": 1.0}) == 0.5 - ex.depth(d2)
    with pytest.raises(ex.ExprError):  # too deep to parse back
        parse(to_str(chain), COORDS)

    texts = ["*".join(["t"] * (cap + 1)), "+".join(["t"] * (cap + 1)),
             "(" * cap + "t" + ")" * cap]
    jet = ExprTable(texts, COORDS, second=True).jet2({"t": 1.0, "x": 0.0, "y": 0.0})
    assert jet.grad2[:, 0, 0].tolist() == [cap * (cap + 1), 0.0, 0.0]


def nested_quotient(depth: int) -> str:
    """t/(t/(...(t/(t))...)) with `depth` divisions."""
    text = "t"
    for _ in range(depth):
        text = f"t/({text})"
    return text


def distinct_nodes(e) -> list:
    """Every node of the tree e once, however often the tree holds it."""
    seen, todo = {}, [e]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            todo.extend(getattr(node, f) for f in ("arg", "left", "right", "base")
                        if hasattr(node, f))
    return list(seen.values())


def test_shared_subtrees_are_evaluated_once(monkeypatch):
    # diff shares subtrees (the quotient rule holds the denominator three
    # times, and Pow(denominator, 2) once); evaluation that walked each
    # reference would call _real_pow once per reference, and evaluation that
    # kept the value of every node, not just of the shared ones, would hold
    # all of them at once (about 160 MB here)
    d2 = diff(diff(parse(nested_quotient(49), COORDS), "t"), "t")
    pows = [n for n in distinct_nodes(d2) if isinstance(n, Pow)]
    calls, alive = [], [0, 0]  # weakrefs to the values made; alive now, most alive
    real_pow = ex._real_pow

    def dropped(_):
        alive[0] -= 1

    def counted(b, n):
        r = real_pow(b, n)
        calls.append(weakref.ref(r, dropped))
        alive[0] += 1
        alive[1] = max(alive)
        return r

    monkeypatch.setattr(ex, "_real_pow", counted)
    v = eval_expr(d2, {"t": np.linspace(0.5, 2.0, 2000)})
    assert len(calls) == len(pows) > 1000
    assert alive[1] < len(pows) // 10
    assert v.shape == (2000,) and np.max(np.abs(v)) <= 1e-9


def test_power_exponent_must_be_numeric():
    with pytest.raises(ExprSyntaxError) as info:
        parse("x^t", COORDS)
    assert info.value.offset == 2


@pytest.mark.parametrize(
    "text,offset",
    [
        ("(1 + 2", 6),
        ("exp(", 4),
        ("1 + * 2", 4),
        ("exp 2", 4),
        ("1 2", 2),
    ],
)
def test_syntax_error_offsets(text, offset):
    with pytest.raises(ExprSyntaxError) as info:
        parse(text, COORDS)
    assert info.value.offset == offset


def test_unknown_identifier():
    with pytest.raises(ExprNameError, match="'q'"):
        parse("q + 1", COORDS)


def test_unknown_identifier_lists_coordinates():
    with pytest.raises(ExprNameError, match="t, x, y"):
        parse("z", COORDS)


# ---------------------------------------------------------------------------
# folding


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0 + t", Var("t")),
        ("t - 0", Var("t")),
        ("t*1", Var("t")),
        ("1*t", Var("t")),
        ("0*t", Num(0.0)),
        ("t/1", Var("t")),
        ("t^1", Var("t")),
        ("t^0", Num(1.0)),
        ("2^3", Num(8.0)),
        ("--t", Var("t")),
        ("2 + 3*4", Num(14.0)),
    ],
)
def test_constant_and_neutral_folds(text, expected):
    assert parse(text, COORDS) == expected


def test_constant_division_by_zero_rejected():
    with pytest.raises(ExprDomainError):
        parse("1/0", COORDS)


# ---------------------------------------------------------------------------
# printing


@pytest.mark.parametrize(
    "e,s",
    [
        (Neg(Pow(Var("x"), 2.0)), "-(x^2)"),
        (Pow(Neg(Var("x")), 2.0), "(-x)^2"),
        (Mul(Add(Var("x"), Num(1.0)), Var("y")), "(x + 1)*y"),
        (Sub(Var("x"), Sub(Var("y"), Var("t"))), "x - (y - t)"),
        (Pow(Var("t"), -2.0), "t^-2"),
        (Call("exp", Neg(Var("t"))), "exp(-t)"),
    ],
)
def test_printer_pins(e, s):
    assert to_str(e) == s
    assert parse(s, COORDS) == e


def expr_strategy():
    atoms = st.one_of(
        st.sampled_from([Var(c) for c in COORDS]),
        st.floats(min_value=-50, max_value=50).map(lambda v: Num(round(v, 3))),
    )

    def safe(build):
        # Constant folding rejects values that leave the real domain (0^-n,
        # sinh(729), 1e200*1e200); keep the first operand instead, so only
        # buildable expressions are generated.
        def apply(args):
            try:
                return build(*args)
            except ExprDomainError:
                return next(a for a in args if isinstance(a, ex.Expr))

        return apply

    def extend(children):
        nonzero_num = (
            st.floats(min_value=0.5, max_value=9.0).map(lambda v: Num(round(v, 2)))
        )
        return st.one_of(
            st.tuples(children, children).map(safe(ex.add)),
            st.tuples(children, children).map(safe(ex.sub)),
            st.tuples(children, children).map(safe(ex.mul)),
            st.tuples(children, st.one_of(nonzero_num, st.sampled_from([Var(c) for c in COORDS]))).map(
                safe(ex.div)
            ),
            st.tuples(children).map(safe(ex.neg)),
            st.tuples(children, st.integers(min_value=-3, max_value=3)).map(
                safe(lambda a, n: ex.pow_(a, float(n)))
            ),
            st.tuples(st.sampled_from(["sin", "cos", "sinh"]), children).map(
                safe(ex.call)
            ),
        )

    return st.recursive(atoms, extend, max_leaves=12)


@given(expr_strategy())
@settings(max_examples=300)
def test_print_parse_roundtrip(e):
    assert parse(to_str(e), COORDS) == e


# ---------------------------------------------------------------------------
# differentiation


def test_diff_pins():
    t = Var("t")
    assert diff(Num(4.0), "t") == Num(0.0)
    assert diff(t, "x") == Num(0.0)
    assert diff(parse("t^3", COORDS), "t") == Mul(Num(3.0), Pow(t, 2.0))
    d = diff(parse("exp(2*t)", COORDS), "t")
    assert eval_expr(d, {"t": 0.5}) == pytest.approx(2.0 * math.e, rel=1e-15)
    d = diff(parse("log(t)", COORDS), "t")
    assert eval_expr(d, {"t": 4.0}) == pytest.approx(0.25)
    d = diff(parse("t/x", COORDS), "x")
    assert eval_expr(d, {"t": 6.0, "x": 2.0}) == pytest.approx(-1.5)


def test_diff_matches_finite_differences():
    rng = random.Random(2024)
    checked = 0
    while checked < 100:
        e = random_expr(rng, COORDS, depth=4)
        env = random_point(rng, COORDS)
        try:
            v = eval_expr(e, env)
        except ExprDomainError:
            continue
        if abs(v) > 1e6:
            continue
        for c in COORDS:
            got = eval_expr(diff(e, c), env)
            want = fd_partial(e, env, c)
            assert abs(got - want) <= 1e-6 * (1.0 + abs(want)), to_str(e)
        checked += 1


def test_second_derivatives_are_exact():
    e = parse("exp(t)*sin(x)", COORDS)
    d2 = diff(diff(e, "t"), "x")
    env = {"t": 0.3, "x": 1.1}
    assert eval_expr(d2, env) == pytest.approx(math.exp(0.3) * math.cos(1.1), rel=1e-14)


# ---------------------------------------------------------------------------
# evaluation errors


def test_division_by_zero():
    with pytest.raises(ExprDomainError):
        eval_expr(parse("1/t", COORDS), {"t": 0.0})


def test_log_of_nonpositive():
    with pytest.raises(ExprDomainError):
        eval_expr(parse("log(t)", COORDS), {"t": -1.0})
    with pytest.raises(ExprDomainError):
        eval_expr(parse("log(t)", COORDS), {"t": 0.0})


def test_fractional_power_of_negative():
    with pytest.raises(ExprDomainError):
        eval_expr(parse("t^0.5", COORDS), {"t": -2.0})


def test_overflow_is_a_domain_error():
    with pytest.raises(ExprDomainError):
        eval_expr(parse("exp(exp(exp(t)))", COORDS), {"t": 3.0})


def test_constant_pow_overflow_is_a_domain_error():
    with pytest.raises(ExprDomainError, match="overflows"):
        ex.pow_(Num(1e200), 2.0)


def test_constant_product_overflow_is_a_domain_error():
    with pytest.raises(ExprDomainError, match="not a finite number"):
        ex.mul(Num(1e200), Num(1e200))


@pytest.mark.parametrize("text", ["1e400", "t^1e400", "1e308 + 1e308", "1e308/0.1"])
def test_parse_never_builds_non_finite_values(text):
    with pytest.raises(ExprDomainError):
        parse(text, COORDS)


def test_power_overflow_at_evaluation_is_a_domain_error():
    with pytest.raises(ExprDomainError, match="overflows"):
        eval_expr(parse("(t+10)^400", COORDS), {"t": 0.0, "x": 0.0, "y": 0.0})


def test_function_of_overflowed_value_is_a_domain_error():
    # t^300*t^300 overflows to inf at t = 10, where math.sin raises ValueError
    with pytest.raises(ExprDomainError):
        eval_expr(parse("sin(t^300*t^300)", COORDS), {"t": 10.0})


def test_missing_coordinate_value():
    with pytest.raises(ExprNameError):
        eval_expr(Var("t"), {"x": 1.0})


def test_operator_sugar():
    t = Var("t")
    e = 2 * t - t * t
    assert eval_expr(e, {"t": 3.0}) == -3.0
    assert eval_expr(-t + 1, {"t": 3.0}) == -2.0
