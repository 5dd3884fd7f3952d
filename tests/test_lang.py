import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgdag import ParseError, generate_random_program, lang, parse_program
from cfgdag.lang import Assign, Break, DoWhile, If, Sequence, While
from helpers import parse_by_descent, tokenize_with_positions


def test_single_assignment():
    ast = parse_program("a;")
    assert isinstance(ast.root, Sequence)
    assert len(ast.root.body) == 1
    assert ast.root.body[0] == Assign("a")


def test_canonical_while():
    ast = parse_program("while c { b; }")
    (loop,) = ast.root.body
    assert isinstance(loop, While)
    assert loop.cond == "c"
    assert loop.body.body == [Assign("b")]


def test_do_while_and_int_conditions():
    ast = parse_program("do { a; } while 1;")
    (loop,) = ast.root.body
    assert isinstance(loop, DoWhile)
    assert loop.cond == 1


def test_if_else():
    ast = parse_program("if c { a; } else { b; }")
    (branch,) = ast.root.body
    assert isinstance(branch, If)
    assert branch.then.body[0].label == "a"
    assert branch.orelse.body[0].label == "b"


def test_break_outside_loop_rejected():
    with pytest.raises(ParseError, match="break outside loop"):
        parse_program("break;")


def test_continue_outside_loop_rejected():
    with pytest.raises(ParseError, match="continue outside loop"):
        parse_program("a; continue;")


def test_break_inside_loop_ok():
    ast = parse_program("while c { break; }")
    assert isinstance(ast.root.body[0].body.body[0], Break)


def test_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("a;\n  while { b; }")
    assert err.value.line == 2
    assert err.value.col == 9


def test_comments_and_whitespace():
    ast = parse_program("// leading\n a; // trailing\n\n b;\n")
    assert [s.label for s in ast.root.body] == ["a", "b"]


def test_missing_semicolon():
    with pytest.raises(ParseError, match="expected ';'"):
        parse_program("a b;")


def test_unterminated_block():
    with pytest.raises(ParseError):
        parse_program("while c { a;")


def test_garbage_character():
    with pytest.raises(ParseError, match="unexpected character"):
        parse_program("a; $;")


FRAGMENTS = ["a;", "x1;", "if p {", "if 3 {", "} else {", "while c {", "while 1 {", "while 0 {", "do {",
             "} while d;", "} while 0;", "}", "{", ";", "42", "while", "break;", "continue;",
             "return;", "// note", "// { ;", "a\u00e9;", "\u0663", " ", "  ", "\t", "\n", "\r\n",
             "\n\n", " \r\n\t", "12ab", "7_", "x1y", "\xa0", "\x1c", "\u2028", "\u3000"]
STRAYS = ["$", "@", "#", "-", "(", "\x00", "\u00e9", "/", "\u0663"]


@st.composite
def sources(draw):
    """Fragment soups and random programs with CRLF line ends, tabs and
    comments; then maybe a stray character and a truncation at random offsets."""
    if draw(st.booleans()):
        text = "".join(draw(st.lists(st.sampled_from(FRAGMENTS), max_size=40)))
    else:
        text = generate_random_program(draw(st.integers(0, 10**6)), draw(st.integers(1, 25)))
        if draw(st.booleans()):
            text = text.replace("\n", "\r\n")
        if draw(st.booleans()):
            text = text.replace("  ", "\t")
        if draw(st.booleans()):
            text = text.replace(";", "; // done\n\n", draw(st.integers(1, 3)))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(STRAYS)) + text[at:]
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text


@settings(derandomize=True, max_examples=500, deadline=None)
@given(sources())
@example("")
@example("a;\r\n\t$")
@example("// c\n\n\t while {")
@example("a;\n  while { b; }")
@example("do { a; } while")
@example("a\u00e9; // \u0663 {\n if 7 { }")
@example("do { x; } while 3 ; \u0663")
@example("while 12ab { }")
@example("a;\xa0b;")
@example("x1y; 2z;")
@example("a;\x0bb;\x0cwhile\x1cc\x1d{\x1ed;\x1f}")
@example("12ab; while 1_ { }")
@example("do { a; } while 1_;")
@example("a; // 1_ { $\nb; //")
@example("while c { $ }")
@example("a;\xa0b;\u2028while c {\xa0}\u2028")
def test_tokens_and_error_positions_equal_the_running_counter(source):
    """Tokens, ASTs and every ParseError's message, line and column equal
    those of the recursive descent parser over the running-counter tokens,
    on the split path of a plain source and on the regex walk alike."""
    try:
        expected = tokenize_with_positions(source)
    except ParseError as want:
        for run in (lang.tokenize, parse_program):
            with pytest.raises(ParseError) as got:
                run(source)
            assert (str(got.value), got.value.line, got.value.col) == (str(want), want.line, want.col)
        return
    assert lang.tokenize(source) == [text for _, text, _, _ in expected[:-1]]
    try:
        want = parse_by_descent(source)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            parse_program(source)
        assert (str(got.value), got.value.line, got.value.col) == (str(err), err.line, err.col)
        assert str(err).endswith(f"(line {err.line}, col {err.col})")
        return
    assert parse_program(source) == want


@pytest.mark.parametrize("source, message, line, col", [
    ("a;\n  b; $;", "unexpected character '$'", 2, 6),
    ("a;\x0b\x1c$", "unexpected character '$'", 1, 5),
    ("a;\n while 12ab { }", "expected '{', found 'ab'", 2, 10),
    ("do { a; }\n\twhile 12ab;", "expected ';', found 'ab'", 2, 10),
])
def test_error_positions_of_a_stray_character_and_a_digit_led_word(source, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert (str(err.value), err.value.line, err.value.col) == (
        f"{message} (line {line}, col {col})", line, col)


@pytest.mark.parametrize("comments", [False, True], ids=["plain", "commented"])
def test_tokenize_allocates_little_beyond_its_tokens(comments):
    """tokenize keeps little beyond its tokens, on the split path of a plain
    source and on the stray check's token walk of a commented one."""
    source = generate_random_program(5, 2 * 10**4)
    if comments:
        source = source.replace(";\n", "; // done\n")
    tracemalloc.start()
    try:
        tokens = lang.tokenize(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tokens) > 10**4
    assert peak < 12 * len(source), peak / len(source)
