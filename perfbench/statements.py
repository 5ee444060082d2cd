"""Seeded stream of distinct analyst SQL statements.

One analyst asks a never-ending sequence of ad-hoc questions over the
``lineitem``/``orders`` catalog.  Every statement stays inside the
subset :func:`repro.relational.sql.parse_sql` accepts (no ``DESC``, no
``HAVING``) and has one of five shapes, dealt in shuffled blocks of
five so every prefix of the stream is balanced across shapes:

* ``filter_project`` -- equality filter plus projection;
* ``between_group``  -- ``BETWEEN`` date range, group-by with SUM/COUNT;
* ``join_group``     -- lineitem x orders equi-join, group-by;
* ``order_limit``    -- filter, ``ORDER BY`` two keys, ``LIMIT``;
* ``in_avg``         -- ``IN`` list, group-by with AVG/COUNT.

The constants change from statement to statement (so every statement
is planned and compiled cold) but each shape's selectivity is fixed by
construction -- a window of fixed width, an ``IN`` list of fixed
length -- so the work per statement barely depends on the seed.  Each
statement also carries an ``l_orderkey >= k`` term with ``k`` below
1% of the key range; it makes statements distinct without changing
how much data they touch.
"""

from __future__ import annotations

import random
from typing import Iterator

# Column domains of repro.relational.make_lineitem / make_orders.
_QUANTITY = (1, 50)
_SHIPDATE = (8000, 11000)
_PRIORITY = (1, 5)
_DATE_WINDOW = 499          # BETWEEN d AND d + 499: ~1/6 of the dates
_JOIN_QTY_WINDOW = 39       # BETWEEN q AND q + 39: 80% of lineitem
_SORT_QTY_WINDOW = 1        # BETWEEN q AND q + 1: 4% of lineitem


def _filter_project(rng: random.Random, k: int) -> str:
    q = rng.randint(*_QUANTITY)
    return ("SELECT l_orderkey, l_extendedprice, l_discount "
            f"FROM lineitem WHERE l_quantity = {q} "
            f"AND l_orderkey >= {k}")


def _between_group(rng: random.Random, k: int) -> str:
    d = rng.randint(_SHIPDATE[0], _SHIPDATE[1] - _DATE_WINDOW)
    return ("SELECT l_returnflag, SUM(l_extendedprice) AS revenue, "
            "COUNT(*) AS n FROM lineitem "
            f"WHERE l_shipdate BETWEEN {d} AND {d + _DATE_WINDOW} "
            f"AND l_orderkey >= {k} GROUP BY l_returnflag")


def _join_group(rng: random.Random, k: int) -> str:
    q = rng.randint(_QUANTITY[0], _QUANTITY[1] - _JOIN_QTY_WINDOW)
    p1, p2 = sorted(rng.sample(range(_PRIORITY[0], _PRIORITY[1] + 1),
                               2))
    return ("SELECT o_priority, SUM(l_extendedprice) AS rev, "
            "COUNT(*) AS n FROM lineitem JOIN orders "
            "ON l_orderkey = o_orderkey "
            f"WHERE l_quantity BETWEEN {q} AND {q + _JOIN_QTY_WINDOW} "
            f"AND o_priority IN ({p1}, {p2}) AND l_orderkey >= {k} "
            "GROUP BY o_priority")


def _order_limit(rng: random.Random, k: int) -> str:
    q = rng.randint(_QUANTITY[0], _QUANTITY[1] - _SORT_QTY_WINDOW)
    limit = rng.randint(10, 100)
    return ("SELECT l_orderkey, l_extendedprice FROM lineitem "
            f"WHERE l_quantity BETWEEN {q} AND {q + _SORT_QTY_WINDOW} "
            f"AND l_orderkey >= {k} "
            f"ORDER BY l_extendedprice, l_orderkey LIMIT {limit}")


def _in_avg(rng: random.Random, k: int) -> str:
    values = sorted(rng.sample(range(_QUANTITY[0], _QUANTITY[1] + 1), 3))
    listed = ", ".join(str(v) for v in values)
    return ("SELECT l_returnflag, AVG(l_discount) AS avg_disc, "
            "COUNT(*) AS n FROM lineitem "
            f"WHERE l_quantity IN ({listed}) AND l_orderkey >= {k} "
            "GROUP BY l_returnflag")


_BUILDERS = {
    "filter_project": _filter_project,
    "between_group": _between_group,
    "join_group": _join_group,
    "order_limit": _order_limit,
    "in_avg": _in_avg,
}
SHAPES = tuple(_BUILDERS)


def statement_stream(seed: int, orders: int) -> Iterator[tuple[str, str]]:
    """Yield ``(shape, sql)`` forever; never the same ``sql`` twice.

    ``orders`` is the ``orders`` table's row count (the ``l_orderkey``
    range); the distinctness term draws ``k`` below 1% of it.  The
    same ``seed`` and ``orders`` always give the same stream.
    """
    rng = random.Random(seed)
    k_max = max(1, orders // 100) - 1
    seen: set[str] = set()
    while True:
        block = list(SHAPES)
        rng.shuffle(block)
        for shape in block:
            while True:
                sql = _BUILDERS[shape](rng, rng.randint(0, k_max))
                if sql not in seen:
                    break
            seen.add(sql)
            yield shape, sql
