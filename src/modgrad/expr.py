"""Expression parsing, symbolic derivatives and compiled evaluation.

Scalar expressions over the variables x1..xn and (optionally) the time
symbol t.  Each expression is differentiated symbolically once, when it is
parsed; its value, gradient and Hessian are rendered to Python source and
compiled into straight-line functions.  The value's source also runs with
numpy functions for vectorized grid evaluation.

Grammar (precedence low to high: +,- < *,/ < unary minus < ^):

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ['^' exponent]
    exponent := ['-'] NUMBER | '(' ['-'] NUMBER ')'
    atom     := NUMBER | VARIABLE | 't' | FUNC '(' expr ')' | '(' expr ')'
    FUNC     := 'exp' | 'ln' | 'sin' | 'cos' | 'sqrt'

Numeric literals use decimal or scientific notation.  There is no implicit
multiplication ("2x1" is a syntax error), and exponents are numeric
literals, not sub-expressions.  Integer exponents are evaluated, and
differentiated, by repeated multiplication; real exponents go through
exp(e*ln(base)) and require a positive base.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import EvalDomainError, ParseError

__all__ = ["Expression", "parse", "ParseError", "EvalDomainError"]


# -- scalar and array namespaces --------------------------------------------


def _ipow(v, n):
    """v**n by repeated (binary) multiplication."""
    if n < 0:
        return 1.0 / _ipow(v, -n)
    r = 1.0
    p = v
    while n:
        if n & 1:
            r = r * p
        if n > 1:
            p = p * p
        n >>= 1
    return r


def _rpow(v, e):
    return math.exp(e * math.log(v))


# names the rendered source calls: the math functions raise on a domain
# error, the numpy ones return NaN/inf
_MATH_NS = {"exp": math.exp, "ln": math.log, "sin": math.sin, "cos": math.cos,
            "sqrt": math.sqrt, "ipow": _ipow, "rpow": _rpow,
            "inf": math.inf, "nan": math.nan}
_NUMPY_NS = {"exp": np.exp, "ln": np.log, "sin": np.sin, "cos": np.cos,
             "sqrt": np.sqrt, "ipow": np.power, "rpow": np.power,
             "inf": math.inf, "nan": math.nan}
_FUNCS = ("exp", "ln", "sin", "cos", "sqrt")


# -- AST -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Const:
    value: float

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True, slots=True)
class Var:
    index: int  # 0-based

    def __str__(self):
        return f"x{self.index + 1}"


@dataclass(frozen=True, slots=True)
class TimeVar:
    def __str__(self):
        return "t"


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str  # '+', '-', '*' or '/'
    a: object
    b: object

    def __str__(self):
        _, _, left, right = _BINARY[self.op]
        return f"{_src(self.a, left)} {self.op} {_src(self.b, right)}"


@dataclass(frozen=True, slots=True)
class Neg:
    a: object

    def __str__(self):
        return f"-{_src(self.a, 3)}"


@dataclass(frozen=True, slots=True)
class Pow:
    base: object
    exponent: float
    integral: bool

    def __str__(self):
        e = self.exponent
        etxt = repr(int(e)) if self.integral else repr(e)
        if e < 0:
            etxt = f"({etxt})"
        return f"{_src(self.base, 4)}^{etxt}"


@dataclass(frozen=True, slots=True)
class Call:
    func: str
    a: object

    def __str__(self):
        return f"{self.func}({self.a})"


# op -> (float function, precedence, level of the left and right operand)
_BINARY = {"+": (operator.add, 1, 1, 1), "-": (operator.sub, 1, 1, 2),
           "*": (operator.mul, 2, 2, 2), "/": (operator.truediv, 2, 2, 3)}
_PRECEDENCE = {Neg: 3, Pow: 4, Call: 5, Const: 5, Var: 5, TimeVar: 5}


def _src(node, level):
    """Render *node*, parenthesizing when its precedence is below *level*."""
    prec = _BINARY[node.op][1] if isinstance(node, BinOp) else _PRECEDENCE[type(node)]
    txt = str(node)
    if prec < level or (level >= 4 and txt.startswith("-")):
        return f"({txt})"
    return txt


def _children(node):
    if isinstance(node, BinOp):
        return (node.a, node.b)
    if isinstance(node, (Neg, Call)):
        return (node.a,)
    if isinstance(node, Pow):
        return (node.base,)
    return ()


def _postorder(roots, skip=()):
    """Each distinct node object under *roots* once, after its children,
    leaving out the nodes whose id is in *skip* and everything under them."""
    order = []
    seen = set()
    stack = [(root, False) for root in reversed(roots)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen and id(node) not in skip:
            seen.add(id(node))
            stack.append((node, True))
            for child in reversed(_children(node)):
                stack.append((child, False))
    return order


# -- symbolic derivatives --------------------------------------------------
# The rules are forward-mode differentiation written out, operation for
# operation: a*b' + a'*b for products, integer powers through _ipow's chain
# of multiplications, (e*(b'/b))*b^e for real powers.  Terms with a
# constant 0 or 1 factor are dropped as they are built.


def _is_const(node, value):
    return isinstance(node, Const) and node.value == value


def _binop(op, a, b):
    """``a op b`` with 0 and 1 terms dropped and constant operands folded."""
    if _is_const(b, 0.0 if op in "+-" else 1.0):  # a + 0, a - 0, a * 1, a / 1
        return a
    if _is_const(a, 0.0) and op == "+" or _is_const(a, 1.0) and op == "*":
        return b
    if _is_const(a, 0.0) or _is_const(b, 0.0) and op == "*":  # 0 - b, 0 * b, 0 / b, a * 0
        return _neg(b) if op == "-" else _ZERO
    if isinstance(a, Const) and isinstance(b, Const) and (op != "/" or b.value != 0.0):
        return Const(_BINARY[op][0](a.value, b.value))
    return BinOp(op, a, b)


def _neg(a):
    return Const(-a.value) if isinstance(a, Const) else Neg(a)


_ZERO = Const(0.0)
_ONE = Const(1.0)


def _chain(node):
    """The multiplications _ipow performs for the Pow *node*, as an AST."""
    n = abs(int(node.exponent))
    r = None
    p = node.base
    while n:
        if n & 1:
            r = p if r is None else BinOp("*", r, p)
        if n > 1:
            p = BinOp("*", p, p)
        n >>= 1
    return _ONE if r is None else r


def _derivatives(ast, dimension):
    """ASTs of the gradient, ``grads[k]`` = df/dx(k+1), and of the Hessian
    row by row, entry (i, j) = d/dx(i+1) of ``grads[j]`` for i <= j and the
    same AST as its mirror entry (j, i) below the diagonal."""
    # per x: id -> (node, derivative); holding the node keeps its id unique
    memos = [{} for _ in range(dimension)]

    def d(root, k):  # iterative, as derivative ASTs can run deep
        memo = memos[k]
        for node in _postorder([root], skip=memo):
            ds = [memo[id(c)][1] for c in _children(node)]
            memo[id(node)] = (node, rule(node, k, ds))
        return memo[id(root)][1]

    def rule(node, k, ds):
        if isinstance(node, Var):
            return _ONE if node.index == k else _ZERO
        if isinstance(node, (Const, TimeVar)):
            return _ZERO
        if isinstance(node, BinOp):
            (a, b), (da, db) = _children(node), ds
            if node.op in "+-":
                return _binop(node.op, da, db)
            if node.op == "*":
                return _binop("+", _binop("*", a, db), _binop("*", da, b))
            return _binop("/", _binop("-", da, _binop("*", node, db)), b)
        (da,) = ds
        if isinstance(node, Neg):
            return _neg(da)
        if isinstance(node, Pow):
            if not node.integral:
                db = _binop("/", da, node.base)
                return _binop("*", _binop("*", Const(node.exponent), db), node)
            c = _chain(node)
            if node.exponent >= 0:
                return d(c, k)
            return _binop("/", _neg(_binop("*", node, d(c, k))), c)
        if node.func == "exp":
            return _binop("*", da, node)
        if node.func == "ln":
            return _binop("/", da, node.a)
        if node.func == "sin":
            return _binop("*", da, Call("cos", node.a))
        if node.func == "cos":
            return _binop("*", _neg(da), Call("sin", node.a))
        return _binop("/", da, _binop("*", Const(2.0), node))  # sqrt

    grads = [d(ast, k) for k in range(dimension)]
    axes = range(dimension)
    return grads, [d(grads[max(i, j)], min(i, j)) for i in axes for j in axes]


# -- rendering, compiling and locating domain errors ------------------------


def _op_source(node, args):
    """Python source of *node*'s own operation on operand texts *args*."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, TimeVar):
        return "t"
    if isinstance(node, Neg):
        return f"-{args[0]}"
    if isinstance(node, Pow):
        if node.integral:
            return f"ipow({args[0]}, {int(node.exponent)})"
        return f"rpow({args[0]}, {node.exponent!r})"
    if isinstance(node, Call):
        return f"{node.func}({args[0]})"
    if node.op in "+*":
        args = sorted(args)  # commutative in floating point too
    return f"{args[0]} {node.op} {args[1]}"


def _compile(roots, guarded, dimension, namespaces=(_MATH_NS,)):
    """Compile ``f(x0, .., x<dimension-1>, t)`` returning *roots* as a tuple,
    once per namespace.  Operations of the same text are computed once; the
    operations under *guarded* that can fail run too, for the domain errors
    they raise.  ``f.ops`` keeps the operations, one local each, for the
    error locator.  The source holds no text of the parsed input.
    """
    text = {}  # id(node) -> operand text
    temps = {}  # operation text -> local name
    ops = []  # (local name, operation text, node, operand texts)
    checks = [n for n in _postorder(guarded) if _domain_reason(n)]
    for node in _postorder([*roots, *checks]):
        args = [text[id(c)] for c in _children(node)]
        txt = _op_source(node, args)
        if args:
            if txt not in temps:
                temps[txt] = f"_{len(temps)}"
                ops.append((temps[txt], txt, node, args))
            txt = temps[txt]
        text[id(node)] = txt
    # A local used once is written into its user instead, so that numpy
    # frees each intermediate grid as soon as it is used; nesting stays
    # well inside the parser's limit.
    uses = Counter(a for *_, args in ops for a in args)
    uses.update(text[id(r)] for r in roots)
    inline = {}  # local -> (parenthesized source, nesting depth)
    body = []
    for name, _, node, args in ops:
        parts = [inline.pop(a, (a, 0)) for a in args]
        source = _op_source(node, [p for p, _ in parts])
        depth = 1 + max(d for _, d in parts)
        if uses[name] == 1 and depth < 50:
            inline[name] = (f"({source})", depth)
        else:
            body.append(f"    {name} = {source}\n")
    params = ", ".join([f"x{i}" for i in range(dimension)] + ["t"])
    values = "".join(inline.pop(text[id(r)], (text[id(r)], 0))[0] + ", " for r in roots)
    code = compile(f"def f({params}):\n{''.join(body)}    return ({values})\n",
                   "<modgrad expression>", "exec")
    functions = []
    for namespace in namespaces:
        scope = dict(namespace)
        exec(code, scope)
        scope["f"].ops = ops
        functions.append(scope["f"])
    return functions


_REASONS = {"ln": "ln of non-positive argument", "sqrt": "sqrt of negative argument"}


def _domain_reason(node):
    """Why *node*'s own scalar operation can fail; None when it cannot."""
    if isinstance(node, Pow):
        if not node.integral:
            return "non-positive base for real exponent"
        return "zero base with negative exponent" if node.exponent < 0 else None
    if isinstance(node, Call):
        return _REASONS.get(node.func, f"{node.func} of non-finite argument")
    return "division by zero" if isinstance(node, BinOp) and node.op == "/" else None


def _locate(ops, xs, t):
    """Run a compiled function's operations one at a time and raise
    EvalDomainError naming the sub-expression of the first that fails.
    Only called once the compiled function has raised."""
    scope = dict(_MATH_NS, t=t)
    scope.update((f"x{i}", v) for i, v in enumerate(xs))
    for name, op, node, _ in ops:
        try:
            scope[name] = eval(op, scope)
        except OverflowError:
            raise EvalDomainError(f"overflow in '{node}'") from None
        except (ZeroDivisionError, ValueError):
            raise EvalDomainError(f"{_domain_reason(node)} in '{node}'") from None


# -- tokenizer -------------------------------------------------------------

_OPS = set("+-*/^()")


def _tokenize(source):
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            tokens.append(("num", source[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


# -- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, tokens, dimension, allow_t):
        self.tokens = tokens
        self.pos = 0
        self.dimension = dimension
        self.allow_t = allow_t

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, at = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected '{op}'", at)
        self.take()

    def parse_expr(self):
        node = self.parse_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                rhs = self.parse_term()
                node = BinOp(text, node, rhs)
            else:
                return node

    def parse_term(self):
        node = self.parse_unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                rhs = self.parse_unary()
                node = BinOp(text, node, rhs)
            else:
                return node

    def parse_unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.take()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.take()
            value, integral = self.parse_exponent()
            return Pow(base, value, integral)
        return base

    def parse_exponent(self):
        kind, text, at = self.peek()
        if kind == "op" and text == "(":
            self.take()
            value, integral = self.parse_signed_number()
            self.expect_op(")")
            return value, integral
        return self.parse_signed_number()

    def parse_signed_number(self):
        sign = 1.0
        kind, text, at = self.peek()
        if kind == "op" and text == "-":
            self.take()
            sign = -1.0
            kind, text, at = self.peek()
        if kind != "num":
            raise ParseError("expected numeric exponent", at)
        self.take()
        value = sign * float(text)
        integral = value.is_integer() and abs(value) < 2**31
        return value, integral

    def parse_atom(self):
        kind, text, at = self.take()
        if kind == "num":
            return Const(float(text))
        if kind == "op" and text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            if text in _FUNCS:
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(text, arg)
            if text == "t":
                if not self.allow_t:
                    raise ParseError("'t' is not allowed in this expression", at)
                return TimeVar()
            if text.startswith("x") and text[1:].isdigit():
                index = int(text[1:])
                if index < 1 or index > self.dimension:
                    raise ParseError(
                        f"variable index out of range: {text} (dimension {self.dimension})",
                        at,
                    )
                return Var(index - 1)
            raise ParseError(f"unknown identifier {text!r}", at)
        raise ParseError("expected expression", at)


# -- public wrapper --------------------------------------------------------


class Expression:
    """Immutable parsed expression; evaluation, gradient and Hessian are
    pure functions of the inputs and safe for concurrent use.  A domain
    error raises EvalDomainError naming the failing sub-expression.
    """

    __slots__ = ("ast", "dimension", "uses_t", "var_indices",
                 "_value", "_value_array", "_grad", "_hessian")

    def __init__(self, ast, dimension):
        nodes = _postorder([ast])
        grads, square = _derivatives(ast, dimension)
        fields = {
            "ast": ast,
            "dimension": dimension,
            "uses_t": any(isinstance(n, TimeVar) for n in nodes),
            "var_indices": frozenset(n.index for n in nodes if isinstance(n, Var)),
            # a derivative is undefined wherever the value is, so derivative
            # code also runs the value's operations that can fail
            "_grad": _compile(grads, [ast], dimension)[0],
            "_hessian": _compile(square, [ast, *grads], dimension)[0],
        }
        fields["_value"], fields["_value_array"] = _compile(
            [ast], [], dimension, (_MATH_NS, _NUMPY_NS))
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __reduce__(self):  # compiled functions do not pickle; the AST does
        return (Expression, (self.ast, self.dimension))

    def __setattr__(self, name, value):
        raise AttributeError("Expression is immutable")

    @property
    def arity(self):
        return len(self.var_indices)

    def __str__(self):
        return str(self.ast)

    def __repr__(self):
        return f"Expression({str(self.ast)!r}, dimension={self.dimension})"

    def _call(self, fn, point, time):
        if len(point) != self.dimension:
            raise ValueError(
                f"point has length {len(point)}, expression dimension is {self.dimension}"
            )
        if self.uses_t and time is None:
            raise ValueError("expression references t but no time was supplied")
        xs = np.asarray(point, dtype=float).tolist()  # Python floats: 1/0 raises
        t = None if time is None else float(time)
        try:
            return fn(*xs, t)
        except (ZeroDivisionError, ValueError, OverflowError):
            _locate(fn.ops, xs, t)
            raise

    def eval(self, point, time=None):
        return self._call(self._value, point, time)[0]

    def grad(self, point, time=None):
        """Gradient in x1..xn; t, when present, is held fixed."""
        return np.array(self._call(self._grad, point, time))

    def hessian(self, point, time=None):
        """Hessian in x1..xn, exactly symmetric: the lower triangle holds
        the same values as the upper one."""
        h = np.array(self._call(self._hessian, point, time))
        return h.reshape(self.dimension, self.dimension)

    def eval_array(self, columns, time=None):
        """Vectorized evaluation over numpy arrays (one per variable).

        Domain violations yield NaN/inf instead of raising, so callers can
        treat bad cells as "outside" when scanning grids.
        """
        if len(columns) != self.dimension:
            raise ValueError("wrong number of columns")
        with np.errstate(all="ignore"):
            out = self._value_array(*columns, time)[0]
        return np.asarray(out, dtype=float)


def parse(source, dimension, allow_t=False):
    """Parse *source* over x1..x<dimension> (and t when *allow_t*)."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(source), dimension, allow_t)
    ast = parser.parse_expr()
    kind, text, at = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {text!r}", at)
    return Expression(ast, dimension)
