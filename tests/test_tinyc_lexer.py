"""Tests for the TinyC lexer."""

import pytest

from repro.errors import LexError
from repro.tinyc.lexer import Token, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestTokens:
    def test_identifiers_and_keywords(self):
        tokens = tokenize("int foo_bar _x9;")
        assert tokens[0].kind == "keyword"
        assert tokens[1] == Token("ident", "foo_bar", 1, tokens[1].column)
        assert tokens[2].text == "_x9"

    def test_integer_literals(self):
        tokens = tokenize("0 42 0x1F 123u 9L")
        assert [t.value for t in tokens[:-1]] == [0, 42, 31, 123, 9]

    def test_float_literals(self):
        tokens = tokenize("1.5 2e3 7.25e-1 3f")
        assert [t.kind for t in tokens[:-1]] == ["float"] * 4
        assert tokens[0].value == 1.5
        assert tokens[1].value == 2000.0
        assert tokens[2].value == 0.725

    def test_char_literals(self):
        tokens = tokenize(r"'a' '\n' '\0' '\\'")
        assert [t.value for t in tokens[:-1]] == [97, 10, 0, 92]

    def test_string_literals(self):
        tokens = tokenize(r'"hi\n" ""')
        assert tokens[0].value == b"hi\n"
        assert tokens[1].value == b""

    def test_operators_longest_match(self):
        assert texts("a <<= b >> c->d ... ++e") == [
            "a", "<<=", "b", ">>", "c", "->", "d", "...", "++", "e"]

    def test_comments_stripped(self):
        assert kinds("a // line comment\n b /* block\n comment */ c") == \
            ["ident", "ident", "ident"]

    def test_line_numbers(self):
        tokens = tokenize("a\nb\n\nc")
        assert [t.line for t in tokens[:-1]] == [1, 2, 4]

    def test_eof_token(self):
        assert tokenize("")[-1].kind == "eof"

    def test_column_convention(self):
        # operators: column of their first character; everything else:
        # the column just past the token's last character
        tokens = tokenize("  foo += 0x1F;")
        assert [(t.text, t.column) for t in tokens[:-1]] == [
            ("foo", 6), ("+=", 7), ("0x1F", 14), (";", 14)]

    def test_columns_after_multiline_comment(self):
        # columns on a comment's last line count from that line's start
        tokens = tokenize("/* one\n   two */ x = 1;")
        assert [(t.text, t.line, t.column) for t in tokens[:-1]] == [
            ("x", 2, 12), ("=", 2, 13), ("1", 2, 16), (";", 2, 16)]

    def test_error_location_after_multiline_comment(self):
        with pytest.raises(LexError) as exc_info:
            tokenize("int a;\n/* one\n two */ @")
        assert (exc_info.value.line, exc_info.value.column) == (3, 9)

    def test_parse_error_location_after_multiline_comment(self):
        from repro.errors import ParseError
        from repro.tinyc.parser import parse
        with pytest.raises(ParseError) as exc_info:
            parse("/*\n*/ x y;")
        assert (exc_info.value.line, exc_info.value.column) == (2, 5)

    def test_trailing_blanks(self):
        assert texts("a \t\r\n  ") == ["a"]
        assert tokenize("a\n  ")[-1].line == 2


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_newline_in_string(self):
        with pytest.raises(LexError):
            tokenize('"ab\ncd"')

    def test_unterminated_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")

    def test_bad_escape(self):
        with pytest.raises(LexError):
            tokenize(r'"\q"')

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    def test_unterminated_char(self):
        with pytest.raises(LexError):
            tokenize("'ab")

    @pytest.mark.parametrize("source", [
        "'\\", '"ab\\', "1e+", "0x", "x = 1\u00b2;", '"\u0100"'])
    def test_malformed_literals_are_lex_errors(self, source):
        with pytest.raises(LexError):
            tokenize(source)

    def test_unicode_letters_form_identifiers(self):
        assert texts("caf\u00e9 = 1") == ["caf\u00e9", "=", "1"]
