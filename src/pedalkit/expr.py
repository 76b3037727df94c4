"""Symbolic expressions in one parameter t.

Grammar (infix, left-associative except '^' which is right-associative
and whose base may itself carry a unary minus):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := unary ('^' factor)?
    unary  := '-' unary | atom
    atom   := number | 'pi' | 'e' | 't' | ident '(' expr ')' | '(' expr ')'

Note the base rule: "-t^2" parses as (-t)^2.  Functions: sin, cos, tan,
sqrt, exp, log, abs.  Tokens come from one pattern, `_TOKEN`; a
number's digits are decimal digits, so '²' starts a name.  A literal
beyond float range, or an expression nested deeper than MAX_DEPTH, is a
ParseError.  There is one tree walk, the Taylor-mode jet walk: jets()
takes the value and the first three t-derivatives on an array in one
pass, without building derivative trees, and evaluate() is the same
walk at order 0.  On an array of parameters domain errors
become non-finite entries, so callers can flag samples.  On a float
evaluate() walks a 0-d float64, and the scalar contract is that the
result is a finite real float or EvalError is raised.  A node shared
within a tree is evaluated once per walk; jets() drops its jets once
their last reader is computed (`release_schedule`), evaluate() when it
returns.  differentiate() returns a new tree (abs differentiates to a
sign factor, so evaluating the derivative at a root of the argument is
an EvalError).  to_text() prints a form that reparses to the identical
tree.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvalError, ParseError

FUNCTIONS = ("sin", "cos", "tan", "sqrt", "exp", "log", "abs")
CONSTANTS = {"pi": math.pi, "e": math.e}

# parse_expr takes at most this many nested parentheses and a tree at
# most this many operator nodes deep: the parser recurses five frames a
# parenthesis, a tree walk one or two a level, well inside the default
# recursion limit of 1000
MAX_DEPTH = 100

_NUMPY_FN = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "sqrt": np.sqrt, "exp": np.exp, "log": np.log, "abs": np.abs,
}


class Expr:
    """Base class; nodes are immutable and compare structurally."""

    def __call__(self, t):
        return evaluate(self, t)

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Const(Expr):
    name: str  # 'pi' or 'e'


@dataclass(frozen=True)
class Param(Expr):
    pass


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
    exponent: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


T = Param()


# ---------------------------------------------------------------------------
# tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num', 'ident', 'op', 'end'
    text: str
    line: int
    column: int


# one alternative per token class, and a catch-all for an unexpected
# character.  A number's exponent counts only when it is complete ("2e3",
# not "2*e"); \d takes only decimal digits, all of which float() reads
_TOKEN = re.compile(r"(?P<newline>\n)|(?P<blank>[ \t\r]+)"
                    r"|(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
                    r"|(?P<ident>[^\W\d]\w*)|(?P<op>[-+*/^()])|(?P<bad>.)")


def _tokenize(text: str, line_offset: int = 1, col_offset: int = 1) -> list[_Token]:
    toks = []
    line, col = line_offset, col_offset
    depth = 0  # of parentheses
    for m in _TOKEN.finditer(text):
        kind, s = m.lastgroup, m[0]
        if kind == "newline":
            line, col = line + 1, 1
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {s!r}", line, col,
                             ("number", "identifier", "operator"))
        if kind == "op":
            depth += (s == "(") - (s == ")")
            if depth > MAX_DEPTH:
                raise ParseError(f"more than {MAX_DEPTH} nested parentheses", line, col)
        if kind != "blank":
            toks.append(_Token(kind, s, line, col))
        col += len(s)
    toks.append(_Token("end", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# parser


_BINARY = ({"+": Add, "-": Sub}, {"*": Mul, "/": Div})


class _Parser:
    def __init__(self, tokens: list[_Token], table: dict):
        self.tokens = tokens
        self.pos = 0
        self.table = table
        self.depths: dict[int, int] = {}  # tree depth by node identity

    def node(self, cls: type, *fields) -> Expr:
        """cls(*fields), interned: equal subtrees come out as one node, so
        that a jet walk evaluates them once."""
        depth = 1 + max((self.depths.get(id(f), 0) for f in fields if isinstance(f, Expr)),
                        default=-1)
        if depth > MAX_DEPTH:
            tok = self.tokens[self.pos - 1]
            raise ParseError(f"expression more than {MAX_DEPTH} levels deep",
                             tok.line, tok.column)
        key = (cls,) + tuple(map(_intern_key, fields))
        node = self.table.get(key)
        if node is None:
            node = self.table[key] = cls(*fields)
        self.depths[id(node)] = depth
        return node

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            self.pos += 1
            return
        raise ParseError(f"found {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
                         tok.line, tok.column, (repr(op),))

    def parse_binary(self, level: int = 0) -> Expr:
        """A sum (level 0) of products (level 1) of factors, each
        left-associative."""
        ops = _BINARY[level]
        node = self.parse_factor() if level else self.parse_binary(1)
        while (tok := self.peek()).text in ops:
            self.take()
            rhs = self.parse_factor() if level else self.parse_binary(1)
            node = self.node(ops[tok.text], node, rhs)
        return node

    def parse_factor(self) -> Expr:
        # '^' is right-associative: a^b^c folds its bases from the right
        bases = [self.parse_unary()]
        while self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            bases.append(self.parse_unary())
        node = bases.pop()
        while bases:
            node = self.node(Pow, bases.pop(), node)
        return node

    def parse_unary(self) -> Expr:
        signs = 0
        while self.peek().kind == "op" and self.peek().text == "-":
            self.take()
            signs += 1
        node = self.parse_atom()
        for _ in range(signs):
            # fold a negated literal so that printing Num(-3.0) as
            # "-3.0" reparses to the identical tree
            node = self.node(Num, -node.value) if isinstance(node, Num) else self.node(Neg, node)
        return node

    def parse_atom(self) -> Expr:
        tok = self.take()
        if tok.kind == "num":
            value = float(tok.text)
            if math.isinf(value):
                raise ParseError(f"number {tok.text} is too large", tok.line, tok.column)
            return self.node(Num, value)
        if tok.kind == "ident":
            if tok.text == "t":
                return T
            if tok.text in CONSTANTS:
                return self.node(Const, tok.text)
            if tok.text in FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_binary()
                self.expect_op(")")
                return self.node(Call, tok.text, arg)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.line, tok.column,
                             ("t", "pi", "e") + FUNCTIONS)
        if tok.kind == "op" and tok.text == "(":
            inner = self.parse_binary()
            self.expect_op(")")
            return inner
        what = "unexpected end of input" if tok.kind == "end" else f"found {tok.text!r}"
        raise ParseError(what, tok.line, tok.column,
                         ("number", "'t'", "function", "'('", "'-'"))


def _intern_key(field):
    """A node field as part of an intern-table key: a child, interned
    already, by identity (the table keeps it alive), a number by value
    and sign, so that 0.0 and -0.0 stay two nodes, and a name as is."""
    if isinstance(field, Expr):
        return id(field)
    if isinstance(field, float):
        return field, math.copysign(1.0, field)
    return field


def parse_expr(text: str, line: int = 1, column: int = 1,
               table: dict | None = None) -> Expr:
    """Parse one expression; line/column seed error locations when the
    text is embedded in a larger file.  Equal subtrees are one node;
    expressions parsed with the same table share theirs too."""
    parser = _Parser(_tokenize(text, line, column), {} if table is None else table)
    node = parser.parse_binary()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column,
                         ("end of expression",))
    return node


# ---------------------------------------------------------------------------
# evaluation


def evaluate(e: Expr, t):
    """Evaluate at a numpy array (domain errors become non-finite
    entries) or at a float (the value as a float; EvalError unless it is
    a finite real).  Both are the order-0 jet walk."""
    with np.errstate(all="ignore"):
        if isinstance(t, np.ndarray):
            return _jet(e, t, 0, {}, {})[0]
        value = float(_jet(e, np.float64(t), 0, {}, {})[0])
    if not math.isfinite(value):
        raise EvalError(f"cannot evaluate {to_text(e)!r} at t={t!r}: "
                        f"the value {value} is not a finite real")
    return value


def evaluate_array(e: Expr, ts: np.ndarray) -> np.ndarray:
    """Like evaluate() on an array, but the result is always an array
    of ts's shape (constants are broadcast)."""
    return jets((e,), ts, 0)[0][0]


def depends_on_t(e: Expr) -> bool:
    return isinstance(e, Param) or any(map(depends_on_t, _children(e)))


def _children(e: Expr) -> tuple:  # in the order the jet walk reads them
    kind = type(e)
    if kind is Neg or kind is Call:
        return (e.arg,)
    if kind is Pow:
        return e.base, e.exponent
    return (e.left, e.right) if kind in (Add, Sub, Mul, Div) else ()


# ---------------------------------------------------------------------------
# smart constructors: constant folding plus 0/1 identities, nothing clever


def _is_num(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Num) and (v is None or e.value == v)


def add(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if _is_num(a, -1.0):
        return neg(b)
    if _is_num(b, -1.0):
        return neg(a)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0) and not _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b) and b.value != 0.0:
        return Num(a.value / b.value)
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def pow_(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    if _is_num(a) and _is_num(b):
        try:
            return Num(float(a.value ** b.value))
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    return Pow(a, b)


# ---------------------------------------------------------------------------
# differentiation


def differentiate(e: Expr) -> Expr:
    """d/dt, with conservative simplification of the result."""
    if isinstance(e, (Num, Const)):
        return Num(0.0)
    if isinstance(e, Param):
        return Num(1.0)
    if isinstance(e, Neg):
        return neg(differentiate(e.arg))
    if isinstance(e, Add):
        return add(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Sub):
        return sub(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Mul):
        return add(mul(differentiate(e.left), e.right),
                   mul(e.left, differentiate(e.right)))
    if isinstance(e, Div):
        if not depends_on_t(e.right):
            return div(differentiate(e.left), e.right)
        num = sub(mul(differentiate(e.left), e.right),
                  mul(e.left, differentiate(e.right)))
        return div(num, pow_(e.right, Num(2.0)))
    if isinstance(e, Pow):
        if not depends_on_t(e.exponent):
            # c * u^(c-1) * u'
            c = e.exponent
            return mul(mul(c, pow_(e.base, sub(c, Num(1.0)))),
                       differentiate(e.base))
        # general u^v: u^v * (v' log u + v u'/u)
        u, v = e.base, e.exponent
        return mul(e, add(mul(differentiate(v), Call("log", u)),
                          mul(v, div(differentiate(u), u))))
    if isinstance(e, Call):
        u, du = e.arg, differentiate(e.arg)
        if e.func == "sin":
            return mul(Call("cos", u), du)
        if e.func == "cos":
            return neg(mul(Call("sin", u), du))
        if e.func == "tan":
            return div(du, pow_(Call("cos", u), Num(2.0)))
        if e.func == "sqrt":
            return div(du, mul(Num(2.0), Call("sqrt", u)))
        if e.func == "exp":
            return mul(e, du)
        if e.func == "log":
            return div(du, u)
        if e.func == "abs":
            # sign(u) away from zero; at a root this divides by zero,
            # which evaluate() at a float reports as EvalError
            return mul(div(u, Call("abs", u)), du)
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# Taylor-mode jets (Griewank & Walther, Evaluating Derivatives, 2nd ed.,
# SIAM 2008, ch. 13).  A node's jet is the list of its value and its
# first t-derivatives, in derivative form (entry k is the k-th
# derivative, not the k-th Taylor coefficient).  None is a structural
# zero, the derivative of a constant: the arithmetic below skips it the
# way the smart constructors fold zeros, so signed zeros come out as
# the symbolic derivative has them.  Entry 0 takes the same numpy
# operations at every order, and evaluate() is the order-0 walk, so
# entry 0 equals evaluate() bitwise.

MAX_JET_ORDER = 3


def jets(exprs, t: np.ndarray, order: int = MAX_JET_ORDER,
         schedule: dict | None = None) -> list[list[np.ndarray]]:
    """For each of exprs, its value and first `order` t-derivatives
    (order <= MAX_JET_ORDER) at the array t, each an array of t's shape.
    One walk of the trees: a node shared between or within them is
    evaluated once, and so are the sin and cos of one argument, which
    the derivatives of sin, cos and tan share.  A node's jets go once the
    last node that reads them is computed, by `schedule` (by default
    release_schedule(exprs)).  Domain errors become non-finite entries;
    so does a derivative of abs at a root of its argument."""
    if not 0 <= order <= MAX_JET_ORDER:
        raise ValueError(f"jet order must be 0..{MAX_JET_ORDER}, got {order}")
    schedule = release_schedule(exprs) if schedule is None else schedule
    # jets by node identity, and the sin and cos of arguments by argument node
    memo: dict = {}
    with np.errstate(all="ignore"):
        walked = [_jet(e, t, order, memo, schedule) for e in exprs]
    return [[_full(v, t) for v in w] for w in walked]


def release_schedule(exprs) -> dict:
    """For each node of a jet walk of exprs, by identity, the memo keys it
    drops once computed: those of each child no later node reads, its jets
    and, for an argument of sin, cos or tan, its sin and cos; a root's never."""
    last, keys = {}, {}
    for e in exprs:
        _readers(e, last, keys)
    schedule, roots = {}, set(map(id, exprs))
    for key, reader in last.items():
        if key not in roots:
            schedule.setdefault(reader, []).extend(keys[key])
    return schedule


def _readers(e: Expr, last: dict, keys: dict) -> None:
    """Visit the nodes of e not in keys in the order a jet walk computes
    them, noting each child's last reader in last and each node's memo keys."""
    if id(e) in keys:
        return
    keys[id(e)] = (id(e),)
    children = _children(e)
    for child in children:
        _readers(child, last, keys)
    for child in children:
        last[id(child)] = id(e)
    if isinstance(e, Call) and e.func in ("sin", "cos", "tan"):
        keys[id(e.arg)] = (id(e.arg), ("sin", id(e.arg)), ("cos", id(e.arg)))


def _full(v, t: np.ndarray) -> np.ndarray:
    if v is None:
        return np.zeros(t.shape)
    if isinstance(v, np.ndarray) and v.shape == t.shape:
        return v
    return np.full(t.shape, float(v))


def _jet(e: Expr, t: np.ndarray, order: int, memo: dict, drops: dict) -> list:
    # memo and drops (the release schedule) are keyed by identity: the trees
    # keep every node alive, and hashing a frozen node walks its whole subtree
    key = id(e)
    if key in memo:
        return memo[key]
    if isinstance(e, Num):
        w = [e.value] + [None] * order
    elif isinstance(e, Const):
        w = [CONSTANTS[e.name]] + [None] * order
    elif isinstance(e, Param):
        w = [t, 1.0, None, None][:order + 1]
    elif isinstance(e, Neg):
        w = [_neg(a) for a in _jet(e.arg, t, order, memo, drops)]
    elif isinstance(e, Add):
        w = [_add(a, b) for a, b in zip(_jet(e.left, t, order, memo, drops),
                                        _jet(e.right, t, order, memo, drops))]
    elif isinstance(e, Sub):
        w = [_sub(a, b) for a, b in zip(_jet(e.left, t, order, memo, drops),
                                        _jet(e.right, t, order, memo, drops))]
    elif isinstance(e, Mul):
        w = _product(_jet(e.left, t, order, memo, drops), _jet(e.right, t, order, memo, drops))
    elif isinstance(e, Div):
        w = _quotient(_jet(e.left, t, order, memo, drops), _jet(e.right, t, order, memo, drops))
    elif isinstance(e, Pow):
        w = _power(_jet(e.base, t, order, memo, drops),
                   _jet(e.exponent, t, order, memo, drops), memo)
    elif isinstance(e, Call):
        w = _call(e.func, _jet(e.arg, t, order, memo, drops), memo, id(e.arg))
    else:
        raise TypeError(f"not an Expr node: {e!r}")
    memo[key] = w
    for k in drops.get(key, ()):
        memo.pop(k, None)
    return w


def _neg(a):
    return None if a is None else -a


def _add(a, b):
    if a is None:
        return b
    return a if b is None else a + b


def _sub(a, b):
    if b is None:
        return a
    return -b if a is None else a - b


def _mul(a, b):
    if a is None or b is None:
        return None
    if type(a) is float and a == 1.0:
        return b
    if type(b) is float and b == 1.0:
        return a
    return a * b


def _is_constant(u: list) -> bool:
    return all(d is None for d in u[1:])


def _product(a: list, b: list) -> list:
    """Leibniz rule.  Entry k sums the products a_i b_(k-i) grouped the
    way k-fold differentiation of a*b groups them, (a'b + ab')' =
    (a''b + a'b') + (a'b' + ab''), which keeps the rounding of the
    symbolic derivative."""
    order = len(a) - 1
    # level k: the k-th derivative of each a_i b_j still needed
    level = {(i, j): _mul(a[i], b[j]) for i in range(order + 1) for j in range(order + 1 - i)}
    w = [level[0, 0]]
    for k in range(1, order + 1):
        level = {(i, j): _add(level[i + 1, j], level[i, j + 1])
                 for i, j in level if i + j <= order - k}
        w.append(level[0, 0])
    return w


def _quotient(a: list, b: list) -> list:
    """w = a/b by the recurrence a_k = sum_j C(k, j) b_j w_(k-j), solved
    for w_k; a constant denominator divides each entry."""
    b0 = b[0]
    if _is_constant(b):
        return [a[0] / b0] + [None if ak is None else ak / b0 for ak in a[1:]]
    w = [a[0] / b0]
    for k in range(1, len(a)):
        acc = a[k]
        for j in range(1, k + 1):
            acc = _sub(acc, _mul(float(math.comb(k, j)), _mul(b[j], w[k - j])))
        w.append(None if acc is None else acc / b0)
    return w


def _power(u: list, v: list, memo: dict) -> list:
    """u^v.  A constant exponent c takes the chain rule with
    c (c-1) ... u^(c-k); a zero coefficient is a structural zero, so an
    integer power never forms a negative power of u and t^2 at t = 0
    has finite derivatives.  A varying exponent goes through
    exp(v log u)."""
    order = len(u) - 1
    w0 = np.power(u[0], v[0])
    if not _is_constant(v):
        return _chain([w0] * (order + 1), _product(v, _call("log", u, memo)))
    if _is_constant(u):
        return [w0] + [None] * order
    c = float(v[0])
    f, coef = [w0], 1.0
    for k in range(1, order + 1):
        coef *= c - (k - 1)
        f.append(None if coef == 0.0 else coef * np.power(u[0], c - k))
    return _chain(f, u)


def _trig(func: str, u0, memo: dict, arg: int):
    """sin or cos of the value u0 of the argument node arg (its identity),
    once per walk: the derivative of either is the other.  Keyed by the
    node, not by u0, whose array may die and its address be reused mid-walk."""
    key = (func, arg)
    if key not in memo:
        memo[key] = _NUMPY_FN[func](u0)
    return memo[key]


def _call(func: str, u: list, memo: dict, arg: int | None = None) -> list:
    order = len(u) - 1
    w0 = _trig(func, u[0], memo, arg) if func in ("sin", "cos") else _NUMPY_FN[func](u[0])
    if _is_constant(u):
        return [w0] + [None] * order
    # the function and its first three derivatives at u_0
    if func == "sin":
        c = _trig("cos", u[0], memo, arg)
        f = (w0, c, -w0, -c)
    elif func == "cos":
        s = _trig("sin", u[0], memo, arg)
        f = (w0, -s, -w0, s)
    elif func == "tan":
        sec2 = 1.0 / _trig("cos", u[0], memo, arg) ** 2
        f = (w0, sec2, 2.0 * w0 * sec2, 2.0 * sec2 * (sec2 + 2.0 * w0 * w0))
    elif func == "exp":
        f = (w0, w0, w0, w0)
    elif func == "log":
        r = 1.0 / u[0]
        f = (w0, r, -r * r, 2.0 * r * r * r)
    elif func == "sqrt":
        g1 = 0.5 / w0
        r = 1.0 / u[0]
        f = (w0, g1, -0.5 * g1 * r, 0.75 * g1 * r * r)
    elif func == "abs":
        # sign(u), nan at a root; the higher derivatives vanish elsewhere
        f = (w0, u[0] / w0, None, None)
    else:
        raise TypeError(f"unknown function {func!r}")
    return _chain(f, u)


def _chain(f, u: list) -> list:
    """Faa di Bruno to order 3: the jet of g(u) from g and its
    derivatives f at u_0, with the products taken left to right as the
    symbolic chain rule takes them."""
    w = [f[0]]
    order = len(u) - 1
    if order >= 1:
        w.append(_mul(f[1], u[1]))
    if order >= 2:
        w.append(_add(_mul(_mul(f[2], u[1]), u[1]), _mul(f[1], u[2])))
    if order >= 3:
        w.append(_add(_add(_mul(_mul(_mul(f[3], u[1]), u[1]), u[1]),
                           _mul(3.0, _mul(_mul(f[2], u[1]), u[2]))),
                      _mul(f[1], u[3])))
    return w


# ---------------------------------------------------------------------------
# printing; parse(to_text(e)) == e


_ADD, _MUL, _UNARY, _POW, _ATOM = 1, 2, 3, 4, 5


def _level(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _ADD
    if isinstance(e, (Mul, Div)):
        return _MUL
    if isinstance(e, Neg):
        return _UNARY
    if isinstance(e, Pow):
        return _POW
    if isinstance(e, Num) and (e.value < 0 or math.copysign(1.0, e.value) < 0):
        return _UNARY  # prints with a leading '-'
    return _ATOM


def _wrap(e: Expr, min_level: int) -> str:
    text = to_text(e)
    if _level(e) < min_level:
        return f"({text})"
    return text


def to_text(e: Expr) -> str:
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Param):
        return "t"
    if isinstance(e, Neg):
        # anything below atom level is parenthesized: "-a^b" would
        # reparse as (-a)^b, "-a*b" as (-a)*b
        return "-" + _wrap(e.arg, _ATOM)
    if isinstance(e, Add):
        return f"{_wrap(e.left, _ADD)} + {_wrap(e.right, _MUL)}"
    if isinstance(e, Sub):
        return f"{_wrap(e.left, _ADD)} - {_wrap(e.right, _MUL)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.left, _MUL)}*{_wrap(e.right, _UNARY)}"
    if isinstance(e, Div):
        return f"{_wrap(e.left, _MUL)}/{_wrap(e.right, _UNARY)}"
    if isinstance(e, Pow):
        # base must be an atom textually, else (-a)^b / (a*b)^c misparse
        return f"{_wrap(e.base, _ATOM)}^{_wrap(e.exponent, _POW)}"
    if isinstance(e, Call):
        return f"{e.func}({to_text(e.arg)})"
    raise TypeError(f"not an Expr node: {e!r}")
