"""Tokenizer, AST, and parser for a small structured language.

Statements: labelled assignments ("x;"), if/else, while, do-while, break,
continue, and return. Blocks use braces, simple statements end with ";",
comments run from "//" to end of line. Loop conditions are identifiers or
integer literals (nonzero spins forever, zero never enters the body).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class ParseError(ValueError):
    """Malformed source; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


@dataclass
class Assign:
    label: str


@dataclass
class Sequence:
    body: list = field(default_factory=list)


@dataclass
class If:
    cond: str
    then: Sequence
    orelse: Sequence | None = None


@dataclass
class While:
    cond: str | int
    body: Sequence = None  # type: ignore[assignment]


@dataclass
class DoWhile:
    cond: str | int
    body: Sequence = None  # type: ignore[assignment]


@dataclass
class Break:
    pass


@dataclass
class Continue:
    pass


@dataclass
class Return:
    pass


@dataclass
class StructuredAst:
    root: Sequence


KEYWORDS = frozenset({"if", "else", "while", "do", "break", "continue", "return"})
_JUMPS = {"break": Break, "continue": Continue, "return": Return}

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>//[^\n]*)"
    r"|(?P<int>\d+)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<lbrace>\{)"
    r"|(?P<rbrace>\})"
    r"|(?P<semi>;)"
)


def tokenize(source: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, offset) tokens; keywords use their own kind.

    Tokens carry only their offset into source; line and column are counted
    from it when a ParseError is raised.
    """
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(source):
        start = m.start()
        if start != pos:  # finditer skipped a character no token matches
            break
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        text = m.group()
        if kind == "ident" and text in KEYWORDS:
            kind = text
        tokens.append((kind, text, start))
    if pos != len(source):
        raise _error_at(source, pos, f"unexpected character {source[pos]!r}")
    tokens.append(("eof", "", pos))
    return tokens


def _error_at(source: str, pos: int, message: str) -> ParseError:
    """A ParseError at offset pos, with its 1-based line and column."""
    return ParseError(message, source.count("\n", 0, pos) + 1, pos - source.rfind("\n", 0, pos))


class _Parser:
    def __init__(self, source, tokens):
        self.source = source
        self.tokens = tokens
        self.pos = 0
        self.loop_depth = 0

    def _cur(self):
        return self.tokens[self.pos]

    def _advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, kind: str, what: str):
        tok = self._cur()
        if tok[0] != kind:
            self._error(f"expected {what}, found {tok[1] or 'end of input'!r}")
        return self._advance()

    def _error(self, message: str):
        raise _error_at(self.source, self._cur()[2], message)

    def program(self) -> Sequence:
        root = Sequence()
        while self._cur()[0] != "eof":
            root.body.append(self.statement())
        return root

    def block(self) -> Sequence:
        self._expect("lbrace", "'{'")
        seq = Sequence()
        while self._cur()[0] != "rbrace":
            if self._cur()[0] == "eof":
                self._error("unterminated block")
            seq.body.append(self.statement())
        self._advance()
        return seq

    def condition(self) -> str | int:
        tok = self._cur()
        if tok[0] == "ident":
            self._advance()
            return tok[1]
        if tok[0] == "int":
            self._advance()
            return int(tok[1])
        self._error("expected a condition label")
        raise AssertionError  # unreachable

    def statement(self):
        kind, text, _ = self._cur()
        if kind == "ident":
            self._advance()
            self._expect("semi", "';'")
            return Assign(text)
        if kind == "if":
            self._advance()
            cond = self.condition()
            if isinstance(cond, int):
                self._error("if conditions must be labels")
            then = self.block()
            orelse = None
            if self._cur()[0] == "else":
                self._advance()
                orelse = self.block()
            return If(cond, then, orelse)
        if kind == "while":
            self._advance()
            cond = self.condition()
            self.loop_depth += 1
            body = self.block()
            self.loop_depth -= 1
            return While(cond, body)
        if kind == "do":
            self._advance()
            self.loop_depth += 1
            body = self.block()
            self.loop_depth -= 1
            self._expect("while", "'while'")
            cond = self.condition()
            self._expect("semi", "';'")
            return DoWhile(cond, body)
        if kind in _JUMPS:
            if kind != "return" and self.loop_depth == 0:
                self._error(f"{kind} outside loop")
            self._advance()
            self._expect("semi", "';'")
            return _JUMPS[kind]()
        self._error(f"unexpected {text!r}")


def parse_program(source: str) -> StructuredAst:
    """Parse source text into an AST."""
    return StructuredAst(root=_Parser(source, tokenize(source)).program())
