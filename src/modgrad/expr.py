"""Expression parsing, symbolic derivatives and compiled evaluation.

Scalar expressions over the variables x1..xn.  Each expression is
differentiated symbolically once, when it is parsed; its value, gradient
and Hessian are rendered to Python source and compiled into straight-line
functions.  The same sources also run over numpy arrays, in one "exact"
namespace that gives every element the bits the scalar code gives it.
Elementwise ``+ - * /``, negation and ``sqrt`` are correctly rounded in
numpy as in Python; integer powers are ``_ipow``'s chain of products, which
works elementwise on arrays; ``exp``, ``ln``, ``sin``, ``cos`` and real
powers call the scalar code's libm functions on each element
(``np.frompyfunc``), so no array value depends on numpy's CPU dispatch.
The libm maps handle errors as a ufunc does, under numpy's error state:

* ``eval_exact``/``grad_exact``/``hessian_exact`` (row batches) run with
  floating-point errors raised, so a row where the scalar code would raise
  (and overflow, which the scalar code lets pass) raises for the whole
  batch, and callers fall back to the rows one at a time.
* ``eval_array`` (grid scans) runs the value with errors ignored: an
  element where a libm call raises is NaN, a division by zero inf or NaN.

Grammar (precedence low to high: +,- < *,/ < unary minus < ^):

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ['^' exponent]
    exponent := ['-'] NUMBER | '(' ['-'] NUMBER ')'
    atom     := NUMBER | VARIABLE | FUNC '(' expr ')' | '(' expr ')'
    FUNC     := 'exp' | 'ln' | 'sin' | 'cos' | 'sqrt'

Numeric literals use decimal or scientific notation.  There is no implicit
multiplication ("2x1" is a syntax error), and exponents are numeric
literals, not sub-expressions.  Integer exponents are evaluated, and
differentiated, by repeated multiplication; real exponents go through
exp(e*ln(base)) and require a positive base.  Parentheses, function calls
and unary minuses nest at most ``MAX_NESTING`` (100) levels deep.

The entries of a matrix path P(t) use the same grammar with the time
symbol ``t`` as one more atom; ``field.MatrixPath`` parses them with
``_tree`` and runs them over an array of times through ``_exact``.
"""

import math
import operator
import re
import sys
from collections import Counter

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


def _elementwise(fn, valid):
    """*fn* called on each element of an array, as a float array, with a
    ufunc's error handling: where fn raises, the map raises under
    ``np.errstate(invalid="raise")``; otherwise it maps again with the
    elements outside *valid*, where fn would raise, set to NaN."""
    ufunc = np.frompyfunc(fn, 1, 1)

    def apply(x):
        try:
            return np.asarray(ufunc(x), dtype=float)
        except (ValueError, OverflowError):
            if np.geterr()["invalid"] == "raise":
                raise
        return np.asarray(ufunc(np.where(valid(x), x, math.nan)), dtype=float)
    return apply


# names the rendered source calls: the math functions raise on a domain
# error
_MATH_NS = {"exp": math.exp, "ln": math.log, "sin": math.sin, "cos": math.cos,
            "sqrt": math.sqrt, "ipow": _ipow, "rpow": _rpow,
            "inf": math.inf, "nan": math.nan}
_EXP_MAX = math.log(sys.float_info.max)  # math.exp overflows above it, inf aside
_EXP = _elementwise(math.exp, lambda x: (x <= _EXP_MAX) | (x == math.inf))
_LN = _elementwise(math.log, lambda x: x > 0.0)
# arrays with the scalar namespace's bits: libm element by element (a real
# power as _rpow's exp and log), and numpy only where it is correctly rounded
_EXACT_NS = {"exp": _EXP, "ln": _LN,
             "sin": _elementwise(math.sin, np.isfinite),
             "cos": _elementwise(math.cos, np.isfinite),
             "sqrt": np.sqrt, "ipow": _ipow, "rpow": lambda v, e: _EXP(e * _LN(v)),
             "inf": math.inf, "nan": math.nan}
_FUNCS = ("exp", "ln", "sin", "cos", "sqrt")


# -- AST -------------------------------------------------------------------
# Nodes compare by identity: every pass keys them by id, and a long sum is
# too deep a tree for a recursive __eq__, __hash__ or __repr__.


class Const:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Var:
    __slots__ = ("index",)

    def __init__(self, index):  # 0-based
        self.index = index


class TimeVar:
    __slots__ = ()


class BinOp:
    __slots__ = ("op", "a", "b")

    def __init__(self, op, a, b):  # op: '+', '-', '*' or '/'
        self.op, self.a, self.b = op, a, b


class Neg:
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a


class Pow:
    __slots__ = ("base", "exponent", "integral")

    def __init__(self, base, exponent, integral):
        self.base, self.exponent, self.integral = base, exponent, integral


class Call:
    __slots__ = ("func", "a")

    def __init__(self, func, a):
        self.func, self.a = func, a


# op -> (float function, precedence, level of the left and right operand)
_BINARY = {"+": (operator.add, 1, 1, 1), "-": (operator.sub, 1, 1, 2),
           "*": (operator.mul, 2, 2, 2), "/": (operator.truediv, 2, 2, 3)}
_PRECEDENCE = {Neg: 3, Pow: 4, Call: 5, Const: 5, Var: 5, TimeVar: 5}


def _pieces(node):
    """*node*'s text as literal strings and (child, level) pairs, a child
    to be parenthesized when its precedence is below its level."""
    if isinstance(node, BinOp):
        _, _, left, right = _BINARY[node.op]
        return [(node.a, left), f" {node.op} ", (node.b, right)]
    if isinstance(node, Neg):
        return ["-", (node.a, 3)]
    if isinstance(node, Pow):
        e = node.exponent
        etxt = repr(int(e)) if node.integral else repr(e)
        return [(node.base, 4), f"^({etxt})" if e < 0 else f"^{etxt}"]
    if isinstance(node, Call):
        return [f"{node.func}(", (node.a, 0), ")"]
    if isinstance(node, Const):
        return [repr(node.value)]
    return [f"x{node.index + 1}" if isinstance(node, Var) else "t"]


def _render(root):
    """The source text of *root*, parenthesized where the grammar needs it.
    Iterative, as a long sum is a deep tree."""
    out = []
    stack = [(root, 0)]
    while stack:
        piece = stack.pop()
        if isinstance(piece, str):
            out.append(piece)
            continue
        node, level = piece
        pieces = _pieces(node)
        prec = _BINARY[node.op][1] if isinstance(node, BinOp) else _PRECEDENCE[type(node)]
        if prec < level:
            pieces = ["(", *pieces, ")"]
        stack.extend(reversed(pieces))
    return "".join(out)


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
        if isinstance(node, Const):
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


def _compile(roots, guarded, params, namespaces=(_MATH_NS,)):
    """Compile ``f(*params)`` returning *roots* as a tuple, once per
    namespace; *params* names the variables (``x0``, ``x1``, .. or ``t``).
    Operations of the same text are computed once; the operations under
    *guarded* that can fail run too, for the domain errors they raise.
    ``f.ops`` and ``f.params`` are kept for the error locator.  The source
    holds no text of the parsed input.
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
    values = "".join(inline.pop(text[id(r)], (text[id(r)], 0))[0] + ", " for r in roots)
    code = compile(f"def f({', '.join(params)}):\n{''.join(body)}    return ({values})\n",
                   "<modgrad expression>", "exec")
    functions = []
    for namespace in namespaces:
        scope = dict(namespace)
        exec(code, scope)
        scope["f"].ops = ops
        scope["f"].params = params
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


def _exact(fn, columns):
    """*fn*, compiled for ``_EXACT_NS``, over *columns* (one array per
    parameter) as a (roots, m) array; raises as ``eval_exact``."""
    if len(columns) != len(fn.params):
        raise ValueError("wrong number of columns")
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        values = fn(*columns)
    out = np.empty((len(values), len(columns[0])))
    for row, v in zip(out, values):
        row[...] = v  # a constant component is a Python float
    return out


def _run(fn, args):
    """A compiled scalar function at *args* (Python floats, so that 1/0
    raises); a domain error raises EvalDomainError naming the
    sub-expression of the first operation that fails."""
    try:
        return fn(*args)
    except (ZeroDivisionError, ValueError, OverflowError):
        _locate(fn, args)
        raise


def _locate(fn, args):
    """Run *fn*'s operations one at a time and raise EvalDomainError for
    the first that fails.  Only called once *fn* has raised."""
    scope = dict(_MATH_NS)
    scope.update(zip(fn.params, args))
    for name, op, node, _ in fn.ops:
        try:
            scope[name] = eval(op, scope)
        except OverflowError:
            raise EvalDomainError(f"overflow in '{_render(node)}'") from None
        except (ZeroDivisionError, ValueError):
            raise EvalDomainError(f"{_domain_reason(node)} in '{_render(node)}'") from None


# -- tokenizer -------------------------------------------------------------

_TOKEN = re.compile(r"""
    (?P<num> (?:\d+(?:\.\d*)? | \.\d+) (?:[eE][+-]?\d+)? )
  | (?P<ident> [^\W\d]\w* )
  | (?P<op> [-+*/^()] )
  | (?P<space> \s+ )
""", re.VERBOSE)


def _tokenize(source):
    tokens = []
    at = 0
    while at < len(source):
        match = _TOKEN.match(source, at)
        if match is None:
            raise ParseError(f"unexpected character {source[at]!r}", at)
        if match.lastgroup != "space":
            tokens.append((match.lastgroup, match.group(), at))
        at = match.end()
    tokens.append(("end", "", len(source)))
    return tokens


# -- parser ----------------------------------------------------------------


MAX_NESTING = 100  # the parser recurses per level: stay off Python's limit


class _Parser:
    def __init__(self, tokens, dimension, allow_t):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
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

    def nested(self, parse, at):
        """*parse*() one nesting level down, for the construct at *at*."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", at)
        node = parse()
        self.depth -= 1
        return node

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
        kind, text, at = self.peek()
        if kind == "op" and text == "-":
            self.take()
            return Neg(self.nested(self.parse_unary, at))
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
            node = self.nested(self.parse_expr, at)
            self.expect_op(")")
            return node
        if kind == "ident":
            if text in _FUNCS:
                self.expect_op("(")
                arg = self.nested(self.parse_expr, at)
                self.expect_op(")")
                return Call(text, arg)
            if text == "t":
                if not self.allow_t:
                    raise ParseError("'t' is not allowed in this expression", at)
                return TimeVar()
            if text.startswith("x") and text[1:].isdecimal():
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

    __slots__ = ("ast", "dimension", "_value", "_value_exact",
                 "_grad", "_grad_exact", "_hessian", "_hessian_exact")

    def __init__(self, ast, dimension):
        grads, square = _derivatives(ast, dimension)
        params = [f"x{i}" for i in range(dimension)]
        kernels = (_MATH_NS, _EXACT_NS)  # scalar, then arrays
        value = _compile([ast], [], params, kernels)
        # a derivative is undefined wherever the value is, so derivative
        # code also runs the value's operations that can fail
        grad = _compile(grads, [ast], params, kernels)
        hessian = _compile(square, [ast, *grads], params, kernels)
        fields = {
            "ast": ast,
            "dimension": dimension,
            "_value": value[0],
            "_value_exact": value[1],
            "_grad": grad[0],
            "_grad_exact": grad[1],
            "_hessian": hessian[0],
            "_hessian_exact": hessian[1],
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Expression is immutable")

    def __str__(self):
        return _render(self.ast)

    def __repr__(self):
        return f"Expression({str(self)!r}, dimension={self.dimension})"

    def _call(self, fn, point):
        if len(point) != self.dimension:
            raise ValueError(
                f"point has length {len(point)}, expression dimension is {self.dimension}"
            )
        return _run(fn, np.asarray(point, dtype=float).tolist())

    def eval(self, point):
        return self._call(self._value, point)[0]

    def grad(self, point):
        return np.array(self._call(self._grad, point))

    def hessian(self, point):
        """Hessian, exactly symmetric: the lower triangle holds the same
        values as the upper one."""
        h = np.array(self._call(self._hessian, point))
        return h.reshape(self.dimension, self.dimension)

    def scalar_rows(self, kind, rows):
        """``eval``, ``grad`` or ``hessian`` (*kind*) at each of *rows*
        (lists of floats) as a flat tuple with the bits they give, or None
        where they raise a domain error, which is not located."""
        fn = self._value if kind == "eval" else getattr(self, "_" + kind)
        out = []
        for row in rows:
            try:
                out.append(fn(*row))
            except (ZeroDivisionError, ValueError, OverflowError):
                out.append(None)
        return out

    def eval_exact(self, columns):
        """``eval`` at every row of *columns* (one array per variable, all of
        one length m), with the bits ``eval`` gives that row.

        Raises ArithmeticError or ValueError (FloatingPointError, or libm's
        OverflowError or ValueError) when any row would raise a domain
        error, and on overflow and invalid operations, which the scalar
        code lets pass; the caller then evaluates the rows one at a time.
        """
        return _exact(self._value_exact, columns)[0]

    def grad_exact(self, columns):
        """``grad`` at every row of *columns*, shape (m, n); as ``eval_exact``."""
        return _exact(self._grad_exact, columns).T

    def hessian_exact(self, columns):
        """``hessian`` at every row of *columns*, shape (m, n, n); as
        ``eval_exact``."""
        n = self.dimension
        return _exact(self._hessian_exact, columns).T.reshape(-1, n, n)

    def eval_array(self, columns):
        """``eval`` over numpy arrays (one per variable, broadcastable): the
        exact kernel of ``eval_exact`` with floating-point errors ignored, so
        every element has the bits ``eval`` gives it.  Where ``eval`` raises
        a domain error the element is not finite, so callers can treat bad
        cells as "outside" when scanning grids: NaN where a libm call raises
        (also ``ln(0)`` and a real power of 0, where numpy's functions gave
        -inf and 0), inf or NaN for a division by zero.
        """
        if len(columns) != self.dimension:
            raise ValueError("wrong number of columns")
        with np.errstate(all="ignore"):
            out = self._value_exact(*columns)[0]
        return np.asarray(out, dtype=float)


def _tree(source, dimension, allow_t=False):
    """The AST of *source* over x1..x<dimension>, and t when *allow_t*."""
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(source), dimension, allow_t)
    ast = parser.parse_expr()
    kind, text, at = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {text!r}", at)
    return ast


def parse(source, dimension):
    """Parse *source* over x1..x<dimension>."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    return Expression(_tree(source, dimension), dimension)
