"""Unit tests for the mini-SQL lexer and parser."""

from __future__ import annotations

import pytest

from repro.minisql import SqlSyntaxError, parse_script, parse_select, tokenize
from repro.minisql.lexer import IDENT, NUMBER, QIDENT, STRING, SYMBOL
from repro.minisql.nodes import (
    Aggregate,
    BoolOp,
    CaseWhen,
    Cast,
    ColumnRef,
    Comparison,
    Concat,
    CreateTable,
    CreateTableAs,
    CrossJoin,
    Delete,
    DropColumn,
    DropTable,
    FunctionCall,
    InsertValues,
    IsNull,
    Literal,
    RenameColumn,
    RenameTable,
    RowNumber,
    Select,
    Star,
    TableSource,
    UnionAll,
    ValuesSource,
)
from repro.relational import NULL


class TestLexer:
    def test_kinds(self):
        tokens = tokenize("SELECT \"A\", 'txt', 42, 1.5 FROM t;")
        kinds = [t.kind for t in tokens[:-1]]
        assert kinds == [
            IDENT, QIDENT, SYMBOL, STRING, SYMBOL, NUMBER, SYMBOL, NUMBER,
            IDENT, IDENT, SYMBOL,
        ]

    def test_quoted_identifier_escapes(self):
        tokens = tokenize('"a""b"')
        assert tokens[0].text == 'a"b'

    def test_string_escapes(self):
        tokens = tokenize("'O''Hare'")
        assert tokens[0].text == "O'Hare"

    def test_comments_skipped(self):
        tokens = tokenize("-- a comment\nSELECT")
        assert tokens[0].norm == "SELECT"

    def test_negative_numbers(self):
        assert tokenize("-42")[0].text == "-42"

    def test_dollar_identifiers(self):
        assert tokenize("$ATT")[0].text == "$ATT"

    def test_concat_operator(self):
        assert tokenize("a || b")[1].text == "||"

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_unterminated_identifier(self):
        with pytest.raises(SqlSyntaxError):
            tokenize('"oops')

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT @")


class TestStatementParsing:
    def test_create_table_columns(self):
        (stmt,) = parse_script('CREATE TABLE "T" ("A" TEXT, "B" DOUBLE PRECISION);')
        assert isinstance(stmt, CreateTable)
        assert stmt.columns[1].type_name == "DOUBLE PRECISION"

    def test_create_table_as(self):
        (stmt,) = parse_script('CREATE TABLE "T" AS SELECT * FROM "R";')
        assert isinstance(stmt, CreateTableAs)
        assert isinstance(stmt.select, Select)

    def test_union_all(self):
        (stmt,) = parse_script(
            'CREATE TABLE "T" AS SELECT "A" FROM "R" UNION ALL SELECT "A" FROM "S";'
        )
        assert isinstance(stmt.select, UnionAll)
        assert len(stmt.select.selects) == 2

    def test_drop_and_renames(self):
        statements = parse_script(
            'DROP TABLE "T"; ALTER TABLE "T" RENAME TO "U";'
            ' ALTER TABLE "U" RENAME COLUMN "A" TO "B";'
            ' ALTER TABLE "U" DROP COLUMN "B";'
        )
        assert [type(s) for s in statements] == [
            DropTable, RenameTable, RenameColumn, DropColumn,
        ]

    def test_insert(self):
        (stmt,) = parse_script(
            "INSERT INTO \"T\" (\"A\", \"B\") VALUES ('x', NULL);"
        )
        assert isinstance(stmt, InsertValues)
        assert stmt.values == ("x", NULL)

    def test_delete_where(self):
        (stmt,) = parse_script(
            'DELETE FROM "T" WHERE "A" IS NULL OR "A" <> 3;'
        )
        assert isinstance(stmt, Delete)
        assert stmt.where is not None

    def test_unsupported_statement(self):
        with pytest.raises(SqlSyntaxError):
            parse_script("VACUUM;")

    def test_missing_semicolon(self):
        with pytest.raises(SqlSyntaxError):
            parse_script('DROP TABLE "A" DROP TABLE "B";')


class TestSelectParsing:
    def test_star_and_aliased_expr(self):
        select = parse_select(
            "SELECT *, CASE WHEN \"A\" = 'x' THEN \"B\" END AS \"x\" FROM \"R\""
        )
        assert isinstance(select.items[0].expr, Star)
        case = select.items[1].expr
        assert isinstance(case, CaseWhen)
        assert select.items[1].alias == "x"

    def test_qualified_star(self):
        select = parse_select('SELECT "R".*, m.* FROM "R" CROSS JOIN "M" m')
        assert select.items[0].expr == Star("R")
        assert select.items[1].expr == Star("m")
        assert isinstance(select.source, CrossJoin)

    def test_values_source(self):
        select = parse_select(
            "SELECT * FROM (VALUES ('R', 'A'), ('R', 'B')) AS __meta(\"$REL\", \"$ATT\")"
        )
        source = select.source
        assert isinstance(source, ValuesSource)
        assert source.alias == "__meta"
        assert source.columns == ("$REL", "$ATT")
        assert source.rows == (("R", "A"), ("R", "B"))

    def test_group_by_max(self):
        select = parse_select(
            'SELECT "K", MAX("V") AS "V" FROM "R" GROUP BY "K"'
        )
        assert select.group_by == (ColumnRef("K"),)
        assert select.items[1].expr == Aggregate("MAX", ColumnRef("V"))

    def test_function_call(self):
        select = parse_select('SELECT add("A", "B") AS "S" FROM "R"')
        assert select.items[0].expr == FunctionCall(
            "add", (ColumnRef("A"), ColumnRef("B"))
        )

    def test_cast_and_rownumber_concat(self):
        select = parse_select(
            "SELECT 't' || CAST(ROW_NUMBER() OVER () AS TEXT) AS TID FROM \"R\""
        )
        concat = select.items[0].expr
        assert isinstance(concat, Concat)
        assert concat.parts[0] == Literal("t")
        cast = concat.parts[1]
        assert isinstance(cast, Cast)
        assert isinstance(cast.expr, RowNumber)

    def test_where_comparison(self):
        select = parse_select("SELECT * FROM \"R\" WHERE \"A\" = 'v'")
        assert select.where == Comparison("=", ColumnRef("A"), Literal("v"))

    def test_in_list_desugars_to_equalities(self):
        select = parse_select("SELECT * FROM \"R\" WHERE \"A\" IN (2, '2')")
        a = ColumnRef("A")
        assert select.where == BoolOp(
            "OR",
            (Comparison("=", a, Literal(2)), Comparison("=", a, Literal("2"))),
        )
        single = parse_select("SELECT * FROM \"R\" WHERE \"A\" IN ('v')")
        assert single.where == Comparison("=", a, Literal("v"))

    def test_is_not_null(self):
        select = parse_select('SELECT * FROM "R" WHERE "A" IS NOT NULL')
        assert select.where == IsNull(ColumnRef("A"), negated=True)

    def test_alias_after_table(self):
        select = parse_select('SELECT l."A" FROM "R" l')
        assert select.source == TableSource("R", "l")
        assert select.items[0].expr == ColumnRef("A", qualifier="l")

    def test_case_with_else(self):
        select = parse_select(
            "SELECT CASE WHEN \"A\" = 1 THEN 'one' ELSE 'other' END AS c FROM \"R\""
        )
        case = select.items[0].expr
        assert case.default == Literal("other")

    def test_literals(self):
        select = parse_select("SELECT 1, 2.5, NULL, TRUE, 'x' FROM \"R\"")
        values = [item.expr.value for item in select.items]
        assert values == [1, 2.5, NULL, True, "x"]
