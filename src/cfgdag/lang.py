"""Tokenizer, AST, and parser for a small structured language.

Statements: labelled assignments ("x;"), if/else, while, do-while, break,
continue, and return. Blocks use braces, simple statements end with ";",
comments run from "//" to end of line. Loop conditions are identifiers or
integer literals (nonzero spins forever, zero never enters the body).
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field


class ParseError(ValueError):
    """Malformed source; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


@dataclass(slots=True)
class Assign:
    label: str


@dataclass(slots=True)
class Sequence:
    body: list = field(default_factory=list)


@dataclass(slots=True)
class If:
    cond: str
    then: Sequence
    orelse: Sequence | None = None


@dataclass(slots=True)
class While:
    cond: str | int
    body: Sequence = None  # type: ignore[assignment]


@dataclass(slots=True)
class DoWhile:
    cond: str | int
    body: Sequence = None  # type: ignore[assignment]


@dataclass(slots=True)
class Break:
    pass


@dataclass(slots=True)
class Continue:
    pass


@dataclass(slots=True)
class Return:
    pass


@dataclass(slots=True)
class StructuredAst:
    root: Sequence


KEYWORDS = frozenset({"if", "else", "while", "do", "break", "continue", "return"})
_JUMPS = {"break": Break, "continue": Continue, "return": Return}
_IDENT_START = frozenset(string.ascii_letters + "_")

# A token or a comment. In a source that holds no stray character, only
# whitespace lies between the matches.
_TOKEN = re.compile(r"//[^\n]*|\d+|[A-Za-z_]\w*|[{};]")
# A token, a comment or whitespace: finditer leaves a gap at the first stray
# character.
_SPELL = re.compile(r"//[^\n]*|\d+|[A-Za-z_]\w*|[{};]|\s+")
# The class of each ASCII character: "0" a digit, "a" a letter or "_", " "
# whitespace (str.isspace, as re's \s), a brace or a semicolon, "!" any other.
_CLASSES = bytes.maketrans(bytes(range(128)), "".join(
    "0" if c.isdigit() else "a" if c.isalpha() or c == "_"
    else " " if c.isspace() or c in "{};" else "!" for c in map(chr, range(128))).encode())


def tokenize(source: str) -> list[str]:
    """The texts of the tokens of source, in order; a keyword is its own
    token, and comments and whitespace are dropped.

    A plain source is split in C: its bytes, "?" for each character outside
    ASCII, translate by _CLASSES to neither a "!" (a comment, a stray or a
    non-ASCII character) nor a "0a" (a digit before a letter or "_"). There
    no word run that starts with a digit holds a letter, so each maximal run
    of ASCII word characters is one token; with each brace and semicolon
    padded by spaces, str.split gives the tokens. Any other source, "12ab"
    and "x1y" among them, takes the regex walk.

    Tokens carry no position: a ParseError finds the offset of the one token
    it reports by scanning the source again.
    """
    classes = source.encode("ascii", "replace").translate(_CLASSES)
    if b"!" in classes:
        stray = _first_stray(source)
        if stray is not None:
            raise _error_at(source, stray, f"unexpected character {source[stray]!r}")
    elif b"0a" not in classes:
        return source.replace("{", " { ").replace("}", " } ").replace(";", " ; ").split()
    tokens = _TOKEN.findall(source)
    if "//" in source:
        tokens = [t for t in tokens if not t.startswith("//")]
    return tokens


def _first_stray(source: str) -> int | None:
    """The offset of the first character that no token, comment or
    whitespace spells, or None.

    The source is walked token by token; tokenize calls this only for a
    source that holds a character outside ASCII words, braces, semicolons
    and whitespace.
    """
    pos = 0
    for m in _SPELL.finditer(source):
        if m.start() != pos:
            break
        pos = m.end()
    return pos if pos != len(source) else None


def _error_at(source: str, pos: int, message: str) -> ParseError:
    """A ParseError at offset pos, with its 1-based line and column."""
    return ParseError(message, source.count("\n", 0, pos) + 1, pos - source.rfind("\n", 0, pos))


def _token_error(source: str, index: int, message: str) -> ParseError:
    """A ParseError at token number index; one past the last token is the end
    of input."""
    pos = len(source)
    tokens = (m for m in _TOKEN.finditer(source) if not m.group().startswith("//"))
    for i, m in enumerate(tokens):
        if i == index:
            pos = m.start()
            break
    return _error_at(source, pos, message)


def _condition(tok: str) -> str | int | None:
    """A loop or branch condition: a label, an integer literal, or None."""
    if not tok or tok in KEYWORDS:
        return None
    if tok[0] in _IDENT_START:
        return tok
    if tok[0].isdigit():
        return int(tok)
    return None


def parse_program(source: str) -> StructuredAst:
    """Parse source text into an AST.

    One pass over the tokens with an explicit stack of open blocks, so no
    nesting depth is too deep for it. Each entry of the stack holds the
    statement that opened the block and the body that statement belongs to.
    """
    toks = tokenize(source)
    toks.append("")  # end of input
    root = Sequence()
    body = root.body
    stack: list[tuple[If | While | DoWhile, list]] = []
    loops = 0  # open loop bodies
    i = 0

    def fail(index: int, message: str):
        raise _token_error(source, index, message)

    def expect(index: int, text: str) -> None:
        if toks[index] != text:
            fail(index, f"expected {text!r}, found {toks[index] or 'end of input'!r}")

    while True:
        tok = toks[i]
        if tok == "}" and stack:
            node, outer = stack.pop()
            i += 1
            if type(node) is If and node.orelse is None and toks[i] == "else":
                expect(i + 1, "{")
                node.orelse = Sequence()
                stack.append((node, outer))
                body = node.orelse.body
                i += 2
                continue
            if type(node) is DoWhile:
                expect(i, "while")
                node.cond = _condition(toks[i + 1])
                if node.cond is None:
                    fail(i + 1, "expected a condition label")
                expect(i + 2, ";")
                i += 3
            if type(node) is not If:
                loops -= 1
            body = outer
        elif tok in KEYWORDS:
            if tok == "if" or tok == "while":
                cond = _condition(toks[i + 1])
                if cond is None:
                    fail(i + 1, "expected a condition label")
                if tok == "if" and type(cond) is int:
                    fail(i + 2, "if conditions must be labels")
                expect(i + 2, "{")
                node = If(cond, Sequence()) if tok == "if" else While(cond, Sequence())
                i += 3
            elif tok == "do":
                expect(i + 1, "{")
                node = DoWhile(0, Sequence())
                i += 2
            elif tok in _JUMPS:
                if tok != "return" and not loops:
                    fail(i, f"{tok} outside loop")
                expect(i + 1, ";")
                body.append(_JUMPS[tok]())
                i += 2
                continue
            else:  # an else that follows no if block
                fail(i, f"unexpected {tok!r}")
            body.append(node)
            stack.append((node, body))
            if type(node) is If:
                body = node.then.body
            else:
                body = node.body.body
                loops += 1
        elif tok and tok[0] in _IDENT_START:
            expect(i + 1, ";")
            body.append(Assign(tok))
            i += 2
        elif tok:
            fail(i, f"unexpected {tok!r}")
        elif stack:
            fail(i, "unterminated block")
        else:
            return StructuredAst(root=root)
