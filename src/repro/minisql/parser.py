"""Recursive-descent parser for the mini-SQL dialect."""

from __future__ import annotations

from ..relational.types import NULL, Value
from .lexer import END, IDENT, NUMBER, QIDENT, STRING, SYMBOL, SqlSyntaxError, Token, tokenize
from .nodes import (
    Aggregate,
    BoolOp,
    CaseWhen,
    Cast,
    ColumnDef,
    ColumnRef,
    Comparison,
    Concat,
    CreateTable,
    CreateTableAs,
    CrossJoin,
    Delete,
    DropColumn,
    DropTable,
    Expr,
    FromClause,
    FunctionCall,
    InsertValues,
    IsNull,
    Literal,
    NotOp,
    Query,
    RenameColumn,
    RenameTable,
    RowNumber,
    Select,
    SelectItem,
    Star,
    Statement,
    TableSource,
    UnionAll,
    ValuesSource,
)

_AGGREGATES = {"MAX", "MIN", "COUNT"}


class _Parser:
    def __init__(self, text: str) -> None:
        self._tokens = tokenize(text)
        self._index = 0

    # -- token plumbing ------------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        if token.kind != END:
            self._index += 1
        return token

    def _check_keyword(self, *keywords: str) -> bool:
        return self._current.kind == IDENT and self._current.norm in keywords

    def _accept_keyword(self, keyword: str) -> bool:
        if self._check_keyword(keyword):
            self._advance()
            return True
        return False

    def _expect_keyword(self, keyword: str) -> None:
        if not self._accept_keyword(keyword):
            raise SqlSyntaxError(
                f"expected {keyword}, got {self._current.text!r}",
                self._current.position,
            )

    def _accept_symbol(self, symbol: str) -> bool:
        if self._current.kind == SYMBOL and self._current.text == symbol:
            self._advance()
            return True
        return False

    def _expect_symbol(self, symbol: str) -> None:
        if not self._accept_symbol(symbol):
            raise SqlSyntaxError(
                f"expected {symbol!r}, got {self._current.text!r}",
                self._current.position,
            )

    def _expect_name(self) -> str:
        token = self._current
        if token.kind in (IDENT, QIDENT):
            self._advance()
            return token.text
        raise SqlSyntaxError(
            f"expected identifier, got {token.text!r}", token.position
        )

    # -- statements ------------------------------------------------------------

    def parse_script(self) -> list[Statement]:
        statements: list[Statement] = []
        while self._current.kind != END:
            if self._accept_symbol(";"):
                continue
            statements.append(self._statement())
            if self._current.kind != END:
                self._expect_symbol(";")
        return statements

    def _statement(self) -> Statement:
        if self._accept_keyword("CREATE"):
            self._expect_keyword("TABLE")
            name = self._expect_name()
            if self._accept_keyword("AS"):
                return CreateTableAs(name, self._query())
            self._expect_symbol("(")
            columns = [self._column_def()]
            while self._accept_symbol(","):
                columns.append(self._column_def())
            self._expect_symbol(")")
            return CreateTable(name, tuple(columns))
        if self._accept_keyword("DROP"):
            self._expect_keyword("TABLE")
            return DropTable(self._expect_name())
        if self._accept_keyword("ALTER"):
            self._expect_keyword("TABLE")
            table = self._expect_name()
            if self._accept_keyword("RENAME"):
                if self._accept_keyword("TO"):
                    return RenameTable(table, self._expect_name())
                self._expect_keyword("COLUMN")
                old = self._expect_name()
                self._expect_keyword("TO")
                return RenameColumn(table, old, self._expect_name())
            self._expect_keyword("DROP")
            self._expect_keyword("COLUMN")
            return DropColumn(table, self._expect_name())
        if self._accept_keyword("INSERT"):
            self._expect_keyword("INTO")
            table = self._expect_name()
            self._expect_symbol("(")
            columns = [self._expect_name()]
            while self._accept_symbol(","):
                columns.append(self._expect_name())
            self._expect_symbol(")")
            self._expect_keyword("VALUES")
            self._expect_symbol("(")
            values = [self._literal_value()]
            while self._accept_symbol(","):
                values.append(self._literal_value())
            self._expect_symbol(")")
            return InsertValues(table, tuple(columns), tuple(values))
        if self._accept_keyword("DELETE"):
            self._expect_keyword("FROM")
            table = self._expect_name()
            where = self._bool_expr() if self._accept_keyword("WHERE") else None
            return Delete(table, where)
        raise SqlSyntaxError(
            f"unsupported statement starting with {self._current.text!r}",
            self._current.position,
        )

    def _column_def(self) -> ColumnDef:
        name = self._expect_name()
        type_parts = [self._expect_name()]
        # multi-word types (DOUBLE PRECISION)
        while self._current.kind == IDENT and self._current.norm == "PRECISION":
            type_parts.append(self._advance().text)
        return ColumnDef(name, " ".join(type_parts).upper())

    # -- SELECT -------------------------------------------------------------------

    def _query(self) -> Query:
        selects = [self._select()]
        while self._check_keyword("UNION"):
            self._advance()
            self._expect_keyword("ALL")
            selects.append(self._select())
        if len(selects) == 1:
            return selects[0]
        return UnionAll(tuple(selects))

    def _select(self) -> Select:
        self._expect_keyword("SELECT")
        items = [self._select_item()]
        while self._accept_symbol(","):
            items.append(self._select_item())
        self._expect_keyword("FROM")
        source = self._from_clause()
        where = self._bool_expr() if self._accept_keyword("WHERE") else None
        group_by: list[ColumnRef] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._column_ref())
            while self._accept_symbol(","):
                group_by.append(self._column_ref())
        return Select(tuple(items), source, where, tuple(group_by))

    def _select_item(self) -> SelectItem:
        star = self._try_star()
        if star is not None:
            return SelectItem(star)
        expr = self._expr()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_name()
        return SelectItem(expr, alias)

    def _try_star(self) -> Star | None:
        if self._accept_symbol("*"):
            return Star()
        if self._current.kind in (IDENT, QIDENT):
            after = self._tokens[self._index + 1 :][:2]
            if (
                len(after) == 2
                and after[0].kind == SYMBOL
                and after[0].text == "."
                and after[1].kind == SYMBOL
                and after[1].text == "*"
            ):
                qualifier = self._advance().text
                self._advance()  # .
                self._advance()  # *
                return Star(qualifier)
        return None

    def _from_clause(self) -> FromClause:
        source: FromClause = self._from_atom()
        while self._check_keyword("CROSS"):
            self._advance()
            self._expect_keyword("JOIN")
            source = CrossJoin(source, self._from_atom())
        return source

    def _from_atom(self) -> FromClause:
        if self._accept_symbol("("):
            self._expect_keyword("VALUES")
            rows = [self._values_row()]
            while self._accept_symbol(","):
                rows.append(self._values_row())
            self._expect_symbol(")")
            self._expect_keyword("AS")
            alias = self._expect_name()
            self._expect_symbol("(")
            columns = [self._expect_name()]
            while self._accept_symbol(","):
                columns.append(self._expect_name())
            self._expect_symbol(")")
            return ValuesSource(tuple(rows), alias, tuple(columns))
        name = self._expect_name()
        alias = None
        if self._current.kind in (IDENT, QIDENT) and not self._check_keyword(
            "CROSS", "WHERE", "GROUP", "JOIN", "UNION", "ORDER", "AS", "ON"
        ):
            alias = self._advance().text
        return TableSource(name, alias)

    def _values_row(self) -> tuple[Value, ...]:
        self._expect_symbol("(")
        values = [self._literal_value()]
        while self._accept_symbol(","):
            values.append(self._literal_value())
        self._expect_symbol(")")
        return tuple(values)

    # -- boolean expressions ----------------------------------------------------------

    def _bool_expr(self) -> Expr:
        operands = [self._bool_and()]
        while self._accept_keyword("OR"):
            operands.append(self._bool_and())
        if len(operands) == 1:
            return operands[0]
        return BoolOp("OR", tuple(operands))

    def _bool_and(self) -> Expr:
        operands = [self._bool_not()]
        while self._accept_keyword("AND"):
            operands.append(self._bool_not())
        if len(operands) == 1:
            return operands[0]
        return BoolOp("AND", tuple(operands))

    def _bool_not(self) -> Expr:
        if self._accept_keyword("NOT"):
            return NotOp(self._bool_not())
        return self._predicate()

    def _predicate(self) -> Expr:
        if self._accept_symbol("("):
            inner = self._bool_expr()
            self._expect_symbol(")")
            return inner
        left = self._expr()
        if self._accept_keyword("IS"):
            negated = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return IsNull(left, negated)
        if self._accept_keyword("IN"):
            # ``x IN (a, b)`` is ``x = a OR x = b``, NULLs included
            self._expect_symbol("(")
            options = [Comparison("=", left, self._expr())]
            while self._accept_symbol(","):
                options.append(Comparison("=", left, self._expr()))
            self._expect_symbol(")")
            return options[0] if len(options) == 1 else BoolOp("OR", tuple(options))
        for op in ("=", "<>"):
            if self._accept_symbol(op):
                return Comparison(op, left, self._expr())
        raise SqlSyntaxError(
            f"expected predicate operator, got {self._current.text!r}",
            self._current.position,
        )

    # -- value expressions --------------------------------------------------------------

    def _expr(self) -> Expr:
        parts = [self._primary()]
        while self._accept_symbol("||"):
            parts.append(self._primary())
        if len(parts) == 1:
            return parts[0]
        return Concat(tuple(parts))

    def _primary(self) -> Expr:
        token = self._current
        if token.kind == STRING:
            self._advance()
            return Literal(token.text)
        if token.kind == NUMBER:
            self._advance()
            return Literal(self._number(token.text))
        if self._accept_symbol("("):
            inner = self._expr()
            self._expect_symbol(")")
            return inner
        if token.kind == IDENT:
            norm = token.norm
            if norm == "NULL":
                self._advance()
                return Literal(NULL)
            if norm in ("TRUE", "FALSE"):
                self._advance()
                return Literal(norm == "TRUE")
            if norm == "CASE":
                return self._case()
            if norm == "CAST":
                self._advance()
                self._expect_symbol("(")
                inner = self._expr()
                self._expect_keyword("AS")
                type_name = self._expect_name().upper()
                self._expect_symbol(")")
                return Cast(inner, type_name)
            if norm == "ROW_NUMBER":
                self._advance()
                self._expect_symbol("(")
                self._expect_symbol(")")
                self._expect_keyword("OVER")
                self._expect_symbol("(")
                self._expect_symbol(")")
                return RowNumber()
            if norm in _AGGREGATES:
                next_token = self._tokens[self._index + 1]
                if next_token.kind == SYMBOL and next_token.text == "(":
                    self._advance()
                    self._advance()
                    arg: Expr | Star
                    if self._accept_symbol("*"):
                        arg = Star()
                    else:
                        arg = self._expr()
                    self._expect_symbol(")")
                    return Aggregate(norm, arg)
            next_token = self._tokens[self._index + 1]
            if next_token.kind == SYMBOL and next_token.text == "(":
                name = self._advance().text
                self._advance()  # (
                args: list[Expr] = []
                if not self._accept_symbol(")"):
                    args.append(self._expr())
                    while self._accept_symbol(","):
                        args.append(self._expr())
                    self._expect_symbol(")")
                return FunctionCall(name, tuple(args))
        if token.kind in (IDENT, QIDENT):
            return self._column_ref()
        raise SqlSyntaxError(
            f"unexpected token {token.text!r} in expression", token.position
        )

    def _case(self) -> Expr:
        self._expect_keyword("CASE")
        whens: list[tuple[Expr, Expr]] = []
        while self._accept_keyword("WHEN"):
            condition = self._bool_expr()
            self._expect_keyword("THEN")
            whens.append((condition, self._expr()))
        default = None
        if self._accept_keyword("ELSE"):
            default = self._expr()
        self._expect_keyword("END")
        if not whens:
            raise SqlSyntaxError("CASE without WHEN", self._current.position)
        return CaseWhen(tuple(whens), default)

    def _column_ref(self) -> ColumnRef:
        first = self._expect_name()
        if (
            self._current.kind == SYMBOL
            and self._current.text == "."
            and self._tokens[self._index + 1].kind in (IDENT, QIDENT)
        ):
            self._advance()
            return ColumnRef(self._expect_name(), qualifier=first)
        return ColumnRef(first)

    def _literal_value(self) -> Value:
        token = self._advance()
        if token.kind == STRING:
            return token.text
        if token.kind == NUMBER:
            return self._number(token.text)
        if token.kind == IDENT:
            if token.norm == "NULL":
                return NULL
            if token.norm in ("TRUE", "FALSE"):
                return token.norm == "TRUE"
        raise SqlSyntaxError(
            f"expected literal, got {token.text!r}", token.position
        )

    @staticmethod
    def _number(text: str) -> Value:
        if "." in text:
            return float(text)
        return int(text)


def parse_script(text: str) -> list[Statement]:
    """Parse a mini-SQL script into statements."""
    return _Parser(text).parse_script()


def parse_select(text: str) -> Query:
    """Parse a single SELECT / UNION ALL query (helper for tests)."""
    return _Parser(text)._query()
