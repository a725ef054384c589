"""Scalar expression language for coefficient functions.

Expressions are small immutable ASTs over real literals, coordinate variables,
+, -, *, /, ^ (constant real exponent), unary minus, and the functions
exp, log, sin, cos, sinh, cosh.  They support exact symbolic differentiation
and pointwise evaluation; all derived tensor calculus is built on top of the
derivatives of these leaves.

Grammar:
    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | base ('^' number)?
    base   := number | ident | func '(' expr ')' | '(' expr ')'

Unary minus binds looser than '^' and tighter than '*' and '/': "-t^2" is
-(t^2) and "-t*x" is (-t)*x.  An expression nests at most MAX_DEPTH levels:
parentheses, function calls and unary minus while parsing, and operator
nodes from the root to a leaf of the tree (a sum of k terms nests k - 1);
deeper input raises ExprError, so that no recursive routine here overflows
the interpreter stack, derivative trees included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FUNCTIONS = ("exp", "log", "sin", "cos", "sinh", "cosh")

MAX_DEPTH = 100

_FN_EVAL = {
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "sinh": np.sinh,
    "cosh": np.cosh,
}


class ExprError(ValueError):
    """Base class for expression errors."""


class ExprSyntaxError(ExprError):
    """Raised on malformed input; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprNameError(ExprError):
    """Raised when an identifier is neither a declared coordinate nor a function."""


class ExprDomainError(ExprError):
    """Raised when evaluation or constant folding leaves the real domain
    (1/0, log of x <= 0, overflow).

    When an array of points was evaluated, `index` is the position of the
    first offending point along that array; otherwise it is None.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class Expr:
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __neg__(self):
        return neg(self)


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def __post_init__(self):
        # Every constant, literal or folded, is a finite real; an overflowing
        # fold such as 1e200*1e200 stops here instead of building Num(inf).
        if not math.isfinite(self.value):
            raise ExprDomainError(f"constant {self.value} is not a finite number")


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: float


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


ZERO = Num(0.0)
ONE = Num(1.0)


def _coerce(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Num(float(v))
    raise TypeError(f"cannot use {type(v).__name__} as Expr")


# Smart constructors.  Folding is intentionally limited to constants and
# neutral elements so parsed trees keep their written shape.

def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    if isinstance(a, Num) and a.value == 0.0:
        return b
    if isinstance(b, Num) and b.value == 0.0:
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if isinstance(b, Num) and b.value == 0.0:
        return a
    if isinstance(a, Num) and a.value == 0.0:
        return neg(b)
    return Sub(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    if isinstance(a, Num):
        if a.value == 0.0:
            return ZERO
        if a.value == 1.0:
            return b
    if isinstance(b, Num):
        if b.value == 0.0:
            return ZERO
        if b.value == 1.0:
            return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Num):
        if b.value == 0.0:
            raise ExprDomainError("division by the constant 0")
        if isinstance(a, Num):
            return Num(a.value / b.value)
        if b.value == 1.0:
            return a
    if isinstance(a, Num) and a.value == 0.0:
        return ZERO
    return Div(a, b)


def pow_(a: Expr, n: float) -> Expr:
    if not math.isfinite(n):
        raise ExprDomainError(f"exponent {n} is not a finite number")
    if n == 0.0:
        return ONE
    if n == 1.0:
        return a
    if isinstance(a, Num):
        return Num(float(_real_pow(a.value, n)))
    return Pow(a, float(n))


def call(fn: str, a: Expr) -> Expr:
    if fn not in FUNCTIONS:
        raise ExprNameError(f"unknown function {fn!r}")
    if isinstance(a, Num):
        return Num(float(_apply_fn(fn, a.value)))
    return Call(fn, a)


# ---------------------------------------------------------------------------
# Parsing


class _Parser:
    def __init__(self, text: str, coords: tuple[str, ...]):
        self.text = text
        self.coords = coords
        self.pos = 0
        self.nest = 0

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ExprSyntaxError(
                f"unexpected character {self.text[self.pos]!r}", self.pos
            )
        return e

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> Expr:
        e = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                e = add(e, self.term())
            elif ch == "-":
                self.pos += 1
                e = sub(e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                e = mul(e, self.factor())
            elif ch == "/":
                self.pos += 1
                e = div(e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        if self.peek() == "-":
            self.pos += 1
            self.enter()
            e = neg(self.factor())
            self.nest -= 1
            return e
        e = self.base()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            n = self.number()
            e = pow_(e, n)
        return e

    def base(self) -> Expr:
        ch = self.peek()
        if ch == "":
            raise ExprSyntaxError("unexpected end of input", self.pos)
        if ch == "(":
            self.pos += 1
            self.enter()
            e = self.expr()
            if self.peek() != ")":
                raise ExprSyntaxError("expected ')'", self.pos)
            self.pos += 1
            self.nest -= 1
            return e
        if ch.isdigit() or ch == ".":
            return Num(self.number())
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start : self.pos]
            if name in FUNCTIONS:
                if self.peek() != "(":
                    raise ExprSyntaxError(f"expected '(' after {name}", self.pos)
                self.pos += 1
                self.enter()
                arg = self.expr()
                if self.peek() != ")":
                    raise ExprSyntaxError("expected ')'", self.pos)
                self.pos += 1
                self.nest -= 1
                return call(name, arg)
            if name in self.coords:
                return Var(name)
            raise ExprNameError(
                f"unknown identifier {name!r}; declared coordinates: "
                f"{', '.join(self.coords) or '(none)'}"
            )
        raise ExprSyntaxError(f"unexpected character {ch!r}", self.pos)

    def enter(self):
        """One more level of parentheses, calls or unary minus."""
        self.nest += 1
        if self.nest > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", self.pos)

    def number(self) -> float:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and (
            self.text[self.pos].isdigit() or self.text[self.pos] == "."
        ):
            self.pos += 1
        # exponent suffix like 1e-3
        if self.pos < len(self.text) and self.text[self.pos] in "eE":
            save = self.pos
            self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos].isdigit():
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = save
        token = self.text[start : self.pos]
        try:
            return float(token)
        except ValueError:
            raise ExprSyntaxError(f"expected a number, got {token!r}", start) from None


def parse(text: str, coords: tuple[str, ...] | list[str]) -> Expr:
    """Parse `text` into an Expr over the declared coordinate names."""
    e = _Parser(text, tuple(coords)).parse()
    # each operator node comes from one of these characters ('(' for a
    # call), so only a text with more of them can nest too deep
    if sum(map(text.count, "+-*/^(")) > MAX_DEPTH:
        d = depth(e)
        if d > MAX_DEPTH:
            raise ExprError(f"expression nests {d} levels deep; at most {MAX_DEPTH} are allowed")
    return e


def depth(e: Expr) -> int:
    """Operator nodes on the longest path from the root of e to a leaf,
    counted without recursion and once per shared subtree."""
    known: dict[int, int] = {}
    todo = [e]
    while todo:
        node = todo[-1]
        kids = [v for v in vars(node).values() if isinstance(v, Expr)]
        pending = [k for k in kids if id(k) not in known]
        if pending:
            todo.extend(pending)
            continue
        todo.pop()
        known[id(node)] = 1 + max(known[id(k)] for k in kids) if kids else 0
    return known[id(e)]


# ---------------------------------------------------------------------------
# Printing


def to_str(e: Expr) -> str:
    """Canonical printer; parse(to_str(e), coords) reproduces e."""
    return _print(e, 0)


# precedence levels: 0 expr, 1 term, 2 factor, 3 base
def _print(e: Expr, level: int) -> str:
    if isinstance(e, Num):
        v = e.value
        if v < 0:
            s = f"-{_fmt_num(-v)}"
            return s if level < 2 else f"({s})"
        return _fmt_num(v)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        # '-' binds at base level, so the argument must print as a base token
        return f"-{_print(e.arg, 3)}"
    if isinstance(e, Add):
        s = f"{_print(e.left, 0)} + {_print(e.right, 1)}"
        return s if level == 0 else f"({s})"
    if isinstance(e, Sub):
        s = f"{_print(e.left, 0)} - {_print(e.right, 1)}"
        return s if level == 0 else f"({s})"
    if isinstance(e, Mul):
        s = f"{_print(e.left, 1)}*{_print(e.right, 2)}"
        return s if level <= 1 else f"({s})"
    if isinstance(e, Div):
        s = f"{_print(e.left, 1)}/{_print(e.right, 2)}"
        return s if level <= 1 else f"({s})"
    if isinstance(e, Pow):
        b = e.base
        if isinstance(b, (Var, Call)) or (isinstance(b, Num) and b.value >= 0):
            base = _print(b, 3)
        else:
            base = f"({_print(b, 0)})"
        s = f"{base}^{_fmt_num(e.exponent)}"
        return s if level <= 2 else f"({s})"
    if isinstance(e, Call):
        return f"{e.fn}({_print(e.arg, 0)})"
    raise TypeError(f"not an Expr: {e!r}")


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


# ---------------------------------------------------------------------------
# Differentiation and evaluation


def diff(e: Expr, var: str) -> Expr:
    """Exact symbolic derivative of e with respect to the coordinate `var`.

    A subtree that e holds more than once (a derivative tree reuses its
    operands) is differentiated once per call, and every reference gets the
    same derivative node, so the derivative of a tree stays linear in its
    distinct nodes and a second derivative stays linear in the input.
    """
    return _diff(e, var, {})


def _diff(e: Expr, var: str, memo: dict) -> Expr:
    """diff with a memo of the derivative of each operator node, keyed by
    id(node) (e keeps every node, and so every id, alive for the call)."""
    if isinstance(e, Num):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    d = memo.get(id(e))
    if d is not None:
        return d
    if isinstance(e, Neg):
        d = neg(_diff(e.arg, var, memo))
    elif isinstance(e, Add):
        d = add(_diff(e.left, var, memo), _diff(e.right, var, memo))
    elif isinstance(e, Sub):
        d = sub(_diff(e.left, var, memo), _diff(e.right, var, memo))
    elif isinstance(e, Mul):
        d = add(mul(_diff(e.left, var, memo), e.right), mul(e.left, _diff(e.right, var, memo)))
    elif isinstance(e, Div):
        num = sub(
            mul(_diff(e.left, var, memo), e.right), mul(e.left, _diff(e.right, var, memo))
        )
        d = div(num, Pow(e.right, 2.0))
    elif isinstance(e, Pow):
        d = mul(
            mul(Num(e.exponent), pow_(e.base, e.exponent - 1.0)), _diff(e.base, var, memo)
        )
    elif isinstance(e, Call) and e.fn == "log":
        d = div(_diff(e.arg, var, memo), e.arg)
    elif isinstance(e, Call):
        inner = _diff(e.arg, var, memo)
        if e.fn == "exp":
            outer: Expr = Call("exp", e.arg)
        elif e.fn == "sin":
            outer = Call("cos", e.arg)
        elif e.fn == "cos":
            outer = neg(Call("sin", e.arg))
        elif e.fn == "sinh":
            outer = Call("cosh", e.arg)
        elif e.fn == "cosh":
            outer = Call("sinh", e.arg)
        else:
            raise ExprNameError(f"unknown function {e.fn!r}")
        d = mul(outer, inner)
    else:
        raise TypeError(f"not an Expr: {e!r}")
    memo[id(e)] = d
    return d


def _domain(bad, template: str, *values) -> None:
    """Raise ExprDomainError if any entry of `bad` is set, naming the values
    of the first such entry.  `bad` and `values` are scalars or arrays over
    the point axis."""
    if not np.any(bad):
        return
    i = int(np.argmax(bad)) if np.ndim(bad) else None
    args = [float(v[i]) if i is not None and np.ndim(v) else float(v) for v in values]
    raise ExprDomainError(template.format(*args), index=i)


def _apply_fn(fn: str, x):
    if fn == "log":
        _domain(x <= 0.0, "log of non-positive value {}", x)
    with np.errstate(all="ignore"):
        r = _FN_EVAL[fn](x)
    _domain(np.isinf(r) & np.isfinite(x), fn + "({}) overflows", x)
    # sin/cos of an intermediate value that overflowed to inf
    _domain(np.isnan(r) & ~np.isnan(x), fn + "({}) is not a finite number", x)
    return r


def _real_pow(b, n: float):
    _domain((b == 0.0) & (n < 0.0), "zero raised to a negative power")
    if n != int(n):
        _domain(b < 0.0, "({})^%r is not real" % n, b)
    with np.errstate(all="ignore"):
        r = np.power(b, n)
    _domain(np.isinf(r) & np.isfinite(b), "({})^%r overflows" % n, b)
    return r


def eval_expr(e: Expr, env: dict[str, float]) -> float:
    """Evaluate e at the point given by env (coordinate name -> value).

    The values may also be arrays over an axis of sample points; the result
    is then an array over the same axis (or a float where e is constant).

    Raises ExprDomainError on division by zero, log of a non-positive value,
    or a non-finite result; its `index` names the first offending point.

    A subtree that the tree holds more than once (a derivative reuses its
    operands: the quotient rule holds the denominator three times) is
    evaluated once per call; only such subtrees keep their values.
    """
    if isinstance(e, Num):  # finite by construction
        return e.value
    with np.errstate(all="ignore"):
        v = _eval(e, env, _shared(e))
    _domain(~np.isfinite(v), "non-finite result {}", v)
    return v if np.ndim(v) else float(v)


def _shared(e: Expr) -> dict:
    """A memo for `_eval`: None, until the node is evaluated, for each
    operator node that the tree e holds more than once, keyed by id(node)."""
    refs: dict[int, int] = {}
    todo = [e]
    while todo:
        node = todo.pop()
        if isinstance(node, (Num, Var)):
            continue
        n = refs[id(node)] = refs.get(id(node), 0) + 1
        if n == 1:
            todo.extend(v for v in vars(node).values() if isinstance(v, Expr))
    return dict.fromkeys(k for k, n in refs.items() if n > 1)


def _eval(e: Expr, env: dict[str, float], shared: dict):
    """Value of e; a node in `shared` is evaluated at its first use only
    (the tree keeps every node, and so every id, alive for the call)."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise ExprNameError(f"no value for coordinate {e.name!r}") from None
    v = shared.get(id(e))
    if v is not None:
        return v
    if isinstance(e, Neg):
        v = -_eval(e.arg, env, shared)
    elif isinstance(e, Add):
        v = _eval(e.left, env, shared) + _eval(e.right, env, shared)
    elif isinstance(e, Sub):
        v = _eval(e.left, env, shared) - _eval(e.right, env, shared)
    elif isinstance(e, Mul):
        v = _eval(e.left, env, shared) * _eval(e.right, env, shared)
    elif isinstance(e, Div):
        d = _eval(e.right, env, shared)
        _domain(d == 0.0, "division by zero")
        v = _eval(e.left, env, shared) / d
    elif isinstance(e, Pow):
        v = _real_pow(_eval(e.base, env, shared), e.exponent)
    elif isinstance(e, Call):
        v = _apply_fn(e.fn, _eval(e.arg, env, shared))
    else:
        raise TypeError(f"not an Expr: {e!r}")
    if id(e) in shared:
        shared[id(e)] = v
    return v
