"""Expression parsing, symbolic derivatives and compiled evaluation.

Scalar expressions over the variables x1..xn.  Each expression is
differentiated symbolically once, when it is parsed; its value, gradient
and Hessian are rendered to Python source and each compiled once, into a
straight-line kernel that runs over numpy arrays (``Expression.batch``)
and gives each row the bits Python floats and ``math`` give it:
elementwise ``+ - * /``, negation and ``sqrt`` are correctly rounded in
numpy as in Python; integer powers are ``_chain``'s products;
``exp``, ``ln``, ``sin`` and ``cos`` call libm on each element
(``np.frompyfunc``), so no value depends on numpy's CPU dispatch.  Each
operation that can fail comes with an elementwise test of exactly where
Python floats and ``math`` raise (``_FAILS``); the kernel runs with
numpy's floating-point errors ignored (an overflow is inf) and returns the
OR of its tests with its values.  A libm map sets the elements its test
marks to NaN; NaN passes every test, as it passes ``math``.  On a marked
row, ``_locate`` replays the kernel's operations and names the
sub-expression of the first whose test fires.

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


# -- the array namespace -----------------------------------------------------


def _elementwise(fn):
    """*fn* called on each element of an array, as a float array, with the
    elements that the mask *failed* marks set to NaN first, so that none
    raises."""
    ufunc = np.frompyfunc(fn, 1, 1)
    return lambda x, failed: np.asarray(ufunc(np.where(failed, math.nan, x)), dtype=float)


_LIBM = {"exp": math.exp, "ln": math.log, "sin": math.sin, "cos": math.cos}
_EXP_MAX = math.log(sys.float_info.max)  # math.exp overflows above it, inf aside
# where each libm function, math.sqrt and a division by x raise on a Python
# float, elementwise; never at NaN
_FAILS = {"exp": lambda x: (x > _EXP_MAX) & (x != math.inf), "ln": lambda x: x <= 0.0,
          "sin": np.isinf, "cos": np.isinf, "sqrt": lambda x: x < 0.0, "div": lambda x: x == 0.0}
# the names the compiled source calls; it writes a real power as
# exp(e*ln(base)) and a negative integer power as the reciprocal of _chain's
# products, so that their tests are those of exp, ln and the division
_NS = {**{name: _elementwise(fn) for name, fn in _LIBM.items()},
       **{name + "_fails": test for name, test in _FAILS.items()},
       "sqrt": np.sqrt, "inf": math.inf, "nan": math.nan}
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
# operation: a*b' + a'*b for products, integer powers through _chain's
# multiplications, (e*(b'/b))*b^e for real powers.  Terms with a
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
    """base^|exponent| of the integral Pow *node* by repeated (binary)
    multiplication, as an AST of products; the compiled kernels and the
    derivative rules both use it."""
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
    if isinstance(node, Call):  # a libm map's last operand is its test's mask
        return f"{node.func}({', '.join(args)})"
    if node.op in "+*":
        args = sorted(args)  # commutative in floating point too
    return f"{args[0]} {node.op} {args[1]}"


def _compile(roots, guarded, params):
    """Compile ``f(*params)`` returning *roots* as a tuple and the OR of the
    domain tests of its operations, over arrays; *params* names the
    variables (``x0``, ``x1``, .. or ``t``).
    Operations of the same text are computed once, and so is each test,
    into a local that the mask ORs and a libm map takes; the operations
    under *guarded* that can fail are tested too.  ``f.ops`` and
    ``f.params`` are kept for the error locator.  The source holds no text
    of the parsed input.
    """
    text = {}  # id(node) -> operand text
    temps = {}  # operation text -> local name
    ops = []  # (local name, node, operand texts, source node, (test local, test source))
    tests = {}  # test source -> (its local name, the operand text it tests)

    def emit(node, args, source):  # the local of *node*'s operation on *args*
        txt = _op_source(node, args)
        if txt not in temps:
            temps[txt] = f"_{len(temps)}"
            test = None
            if _domain_reason(node):  # a function's argument, or a divisor
                kind = getattr(node, "func", "div")
                check = f"{kind}_fails({args[-1]})"
                local = tests.setdefault(check, (f"_t{len(tests)}", args[-1]))[0]
                test = (local, check)
                if kind in _LIBM:
                    args = [*args, local]
            ops.append((temps[txt], node, args, source, test))
        return temps[txt]

    checks = [n for n in _postorder(guarded) if _domain_reason(n)]
    for node in _postorder([*roots, *checks]):
        args = [text[id(c)] for c in _children(node)]
        if not args:
            text[id(node)] = _op_source(node, args)
        elif isinstance(node, Pow) and not node.integral:  # exp(e*ln(base))
            log = emit(BinOp("*", None, None),
                       [repr(node.exponent), emit(Call("ln", None), args, node)], node)
            text[id(node)] = emit(Call("exp", None), [log], node)
        elif isinstance(node, Pow):  # _chain's products; 1 / them for e < 0
            chain = _chain(node)
            for link in _postorder([chain], skip={id(node.base)}):  # 1.0 for e = 0
                args = [text[id(c)] for c in _children(link)]
                text[id(link)] = emit(link, args, node) if args else _op_source(link, args)
            text[id(node)] = text[id(chain)] if node.exponent >= 0 else \
                emit(BinOp("/", None, None), ["1.0", text[id(chain)]], node)
        else:
            text[id(node)] = emit(node, args, node)
    # A local used once is written into its user instead, so that numpy
    # frees each intermediate grid as soon as it is used; nesting stays
    # well inside the parser's limit.  The operations whose value nothing
    # uses are left out: only their tests count.
    uses = Counter(a for _, _, args, _, _ in ops for a in args)
    uses.update([*(text[id(r)] for r in roots), *(a for _, a in tests.values())])
    inline = {}  # local -> (parenthesized source, nesting depth)
    body = []
    bound = set()  # the test locals assigned so far
    for name, node, args, _, test in ops:
        if test and test[0] not in bound:  # a test's first operation binds it
            bound.add(test[0])
            body.append(f"    {test[0]} = {test[1]}\n")
        if not uses[name]:
            continue
        parts = [inline.pop(a, (a, 0)) for a in args]
        source = _op_source(node, [p for p, _ in parts])
        depth = 1 + max(d for _, d in parts)
        if uses[name] == 1 and depth < 50:
            inline[name] = (f"({source})", depth)
        else:
            body.append(f"    {name} = {source}\n")
    values = "".join(inline.pop(text[id(r)], (text[id(r)], 0))[0] + ", " for r in roots)
    mask = " | ".join(local for local, _ in tests.values()) or "False"
    code = compile(f"def f({', '.join(params)}):\n{''.join(body)}    return ({values}), {mask}\n",
                   "<modgrad expression>", "exec")
    scope = dict(_NS)
    exec(code, scope)
    scope["f"].ops, scope["f"].params, scope["f"].width = ops, params, len(roots)
    return scope["f"]


_REASONS = {"ln": "ln of non-positive argument", "sqrt": "sqrt of negative argument"}


def _domain_reason(node):
    """Why *node*'s own operation can fail; None when it cannot."""
    if isinstance(node, Pow):
        if not node.integral:
            return "non-positive base for real exponent"
        return "zero base with negative exponent" if node.exponent < 0 else None
    if isinstance(node, Call):
        return _REASONS.get(node.func, f"{node.func} of non-finite argument")
    return "division by zero" if isinstance(node, BinOp) and node.op == "/" else None


def _call_exact(fn, columns):
    """*fn*, compiled by ``_compile``, over *columns* with numpy's
    floating-point errors ignored: its values and failure mask, which
    broadcast to the columns' shape.  A division of two constants by zero,
    which raises in Python floats, gives NaN values and True."""
    if len(columns) != len(fn.params):
        raise ValueError("wrong number of columns")
    try:
        with np.errstate(all="ignore"):
            return fn(*columns)
    except ZeroDivisionError:
        return [math.nan] * fn.width, True


def _exact(fn, columns):
    """*fn*, compiled by ``_compile``, over *columns* (one array per
    parameter, all of one length m): a (roots, m) array with the bits *fn*
    gives each row alone, and the mask of the rows where one of its
    operations fails, whose values are not defined."""
    values, failed = _call_exact(fn, columns)
    m = len(columns[0])
    out = np.empty((len(values), m))
    for row, v in zip(out, values):
        row[...] = v  # a constant component is a Python float
    mask = np.empty(m, dtype=bool)
    mask[...] = failed  # a Python bool when no test depends on a column
    return out, mask


def _locate(fn, row):
    """Replay *fn*'s operations on one *row* (a Python float per parameter)
    and raise EvalDomainError for the first whose own domain test fires,
    naming the sub-expression it computes.  Only called on a marked row."""
    scope = {**_NS, **dict(zip(fn.params, row))}
    with np.errstate(all="ignore"):
        for name, node, args, source, test in fn.ops:
            if test:
                scope[test[0]] = eval(test[1], scope)
                if scope[test[0]]:
                    why = "overflow" if test[1].startswith("exp_fails") else _domain_reason(source)
                    raise EvalDomainError(f"{why} in '{_render(source)}'")
            scope[name] = eval(_op_source(node, args), scope)


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
    pure functions of the inputs and safe for concurrent use.  Each is one
    compiled kernel, run over arrays by ``batch``, which marks the rows
    where it fails; ``_locate`` on a marked row raises EvalDomainError
    naming the failing sub-expression.
    """

    __slots__ = ("ast", "dimension", "_kernels")

    def __init__(self, ast, dimension):
        grads, square = _derivatives(ast, dimension)
        params = [f"x{i}" for i in range(dimension)]
        # a derivative is undefined wherever the value is, so derivative
        # code also tests the value's operations that can fail
        kernels = {"eval": _compile([ast], [], params),
                   "grad": _compile(grads, [ast], params),
                   "hessian": _compile(square, [ast, *grads], params)}
        for name, value in (("ast", ast), ("dimension", dimension), ("_kernels", kernels)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Expression is immutable")

    def __str__(self):
        return _render(self.ast)

    def __repr__(self):
        return f"Expression({str(self)!r}, dimension={self.dimension})"

    def batch(self, kind, columns):
        """*kind* ("eval", "grad" or "hessian") at every row of *columns*
        (one array per variable, all of one length m), shape (m,), (m, n) or
        (m, n, n), with the bits Python floats and ``math`` give that row,
        and the mask of the rows where they raise a domain error (their
        values are not defined); a Hessian is exactly symmetric.  An
        overflow outside ``exp``, which Python floats let pass, gives inf.
        """
        values, failed = _exact(self._kernels[kind], columns)
        shape = {"eval": (), "grad": (self.dimension,)}.get(kind, (self.dimension,) * 2)
        return values.T.reshape(len(failed), *shape), failed

    def eval_array(self, columns):
        """f over numpy arrays (one per variable, broadcastable): the
        kernel of ``batch("eval", ...)``, so every element has the bits that
        gives its row, and NaN where it marks a domain error; callers
        scanning grids treat those cells as "outside".
        """
        (out,), failed = _call_exact(self._kernels["eval"], columns)
        return np.where(failed, math.nan, out) if np.any(failed) else np.asarray(out, dtype=float)


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
